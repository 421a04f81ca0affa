
import numpy as np
import pytest

from svcascade.errors import ValidationError
from svcascade.frontend import (
    LOG_FLOOR, RAW_MEL, STACKED_NORMALIZED, FeatureSequence, Waveform,
    extract_logmel, mean_variance_normalize, mel_filterbank, stack_and_normalize)


def tone(freq_hz, seconds=1.0, amplitude=0.5):
    t = np.arange(int(16000 * seconds)) / 16000.0
    return Waveform(samples=amplitude * np.sin(2 * np.pi * freq_hz * t))


def test_one_second_gives_98_frames():
    feats = extract_logmel(tone(300.0))
    assert feats.frames.shape == (98, 40)
    assert feats.kind == RAW_MEL


def test_silence_hits_log_floor():
    feats = extract_logmel(Waveform(samples=np.zeros(16000)))
    assert np.all(feats.frames == np.log(LOG_FLOOR))


def test_pure_tone_peaks_at_nearest_mel_bin():
    _, centers = mel_filterbank()
    feats = extract_logmel(tone(440.0))
    argmax = feats.frames.argmax(axis=1)
    assert np.all(argmax == argmax[0])
    assert argmax[0] == int(np.argmin(np.abs(centers - 440.0)))


def test_too_short_waveform_rejected():
    with pytest.raises(ValidationError, match="short"):
        extract_logmel(Waveform(samples=np.zeros(399)))


def test_scaling_shifts_logmel_by_twice_log_scale():
    w = tone(500.0)
    base = extract_logmel(w).frames
    scaled = extract_logmel(Waveform(samples=4.0 * w.samples)).frames
    above = base > np.log(LOG_FLOOR) + 1e-9
    assert np.allclose((scaled - base)[above], 2.0 * np.log(4.0), atol=1e-9)


def test_stack_halves_frames_and_doubles_dim():
    feats = extract_logmel(tone(300.0))
    stacked = stack_and_normalize(feats)
    assert stacked.frames.shape == (49, 80)
    assert stacked.kind == STACKED_NORMALIZED


def test_stacked_output_is_mean_variance_normalized():
    stacked = stack_and_normalize(extract_logmel(tone(700.0)))
    mean = stacked.frames.mean(axis=0)
    var = stacked.frames.var(axis=0)
    assert np.all(np.abs(mean) < 1e-6)
    nonzero = var > 1e-6
    assert np.all(np.abs(var[nonzero] - 1.0) < 1e-6)


def test_constant_dimension_normalizes_to_zero():
    frames = np.ones((10, 4))
    frames[:, 1] = np.arange(10)
    out = mean_variance_normalize(frames)
    assert np.all(out[:, 0] == 0.0)
    assert out[:, 1].var() == pytest.approx(1.0, abs=1e-9)


def test_normalization_idempotent():
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((30, 8)) * 3.0 + 1.0
    once = mean_variance_normalize(frames)
    twice = mean_variance_normalize(once)
    assert np.allclose(once, twice, atol=1e-9)


def test_stack_needs_two_frames():
    f = FeatureSequence(frames=np.zeros((1, 40)), kind=RAW_MEL)
    with pytest.raises(ValidationError, match="2 frames"):
        stack_and_normalize(f)
