"""Audio frontend: 40-dim log-mel energies, frame stacking, per-utterance CMVN.

Geometry: 16 kHz input, 25 ms Hann window (400 samples), 10 ms shift
(160 samples), 512-point FFT, 40 triangular mel filters spanning
125-7500 Hz, log floor 1e-6.  Stacking concatenates non-overlapping
frame pairs (stride 2), then each dimension is mean-variance normalized
over the utterance with a 1e-8 variance floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SAMPLE_RATE = 16000
WINDOW_SAMPLES = 400
HOP_SAMPLES = 160
FFT_SIZE = 512
NUM_MEL_BINS = 40
MEL_LOW_HZ = 125.0
MEL_HIGH_HZ = 7500.0
LOG_FLOOR = 1e-6
VARIANCE_FLOOR = 1e-8

RAW_MEL = "raw-mel"
STACKED_NORMALIZED = "stacked-normalized"


@dataclass(frozen=True)
class Waveform:
    samples: np.ndarray
    sample_rate_hz: int = SAMPLE_RATE

    def __post_init__(self) -> None:
        if self.sample_rate_hz != SAMPLE_RATE:
            raise ValidationError(f"expected {SAMPLE_RATE} Hz audio, got {self.sample_rate_hz}")
        if self.samples.ndim != 1:
            raise ValidationError("waveform must be mono (1-D)")
        if len(self.samples) < WINDOW_SAMPLES:
            raise ValidationError(
                f"waveform too short: {len(self.samples)} samples < one {WINDOW_SAMPLES}-sample window")


@dataclass(frozen=True)
class FeatureSequence:
    frames: np.ndarray  # (T, D)
    kind: str  # RAW_MEL or STACKED_NORMALIZED

    def __post_init__(self) -> None:
        expected = {RAW_MEL: NUM_MEL_BINS, STACKED_NORMALIZED: 2 * NUM_MEL_BINS}
        if self.kind not in expected:
            raise ValidationError(f"unknown feature kind {self.kind!r}")
        if self.frames.ndim != 2 or self.frames.shape[1] != expected[self.kind]:
            raise ValidationError(
                f"{self.kind} features must be T x {expected[self.kind]}, got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise ValidationError("non-finite feature values")


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=float) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=float) / 2595.0) - 1.0)


def mel_filterbank() -> tuple[np.ndarray, np.ndarray]:
    """Triangular filters on FFT bin energies; returns (filters, center_hz).

    filters is (NUM_MEL_BINS, FFT_SIZE//2 + 1).
    """
    edges_mel = np.linspace(hz_to_mel(MEL_LOW_HZ), hz_to_mel(MEL_HIGH_HZ), NUM_MEL_BINS + 2)
    edges_hz = mel_to_hz(edges_mel)
    fft_hz = np.arange(FFT_SIZE // 2 + 1) * SAMPLE_RATE / FFT_SIZE
    filters = np.zeros((NUM_MEL_BINS, len(fft_hz)))
    for m in range(NUM_MEL_BINS):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        up = (fft_hz - lo) / (center - lo)
        down = (hi - fft_hz) / (hi - center)
        filters[m] = np.clip(np.minimum(up, down), 0.0, None)
    return filters, edges_hz[1:-1]


MEL_FILTERS = mel_filterbank()[0]
HANN_WINDOW = np.hanning(WINDOW_SAMPLES)


def extract_logmel(waveform: Waveform) -> FeatureSequence:
    samples = np.asarray(waveform.samples, dtype=np.float64)
    num_frames = (len(samples) - WINDOW_SAMPLES) // HOP_SAMPLES + 1
    idx = np.arange(WINDOW_SAMPLES)[None, :] + HOP_SAMPLES * np.arange(num_frames)[:, None]
    windowed = samples[idx] * HANN_WINDOW[None, :]
    spectrum = np.fft.rfft(windowed, n=FFT_SIZE, axis=1)
    power = np.abs(spectrum) ** 2
    mel_energy = power @ MEL_FILTERS.T
    logmel = np.log(np.maximum(mel_energy, LOG_FLOOR))
    return FeatureSequence(frames=logmel, kind=RAW_MEL)


def stack_and_normalize(features: FeatureSequence) -> FeatureSequence:
    if features.kind != RAW_MEL:
        raise ValidationError("stack_and_normalize expects raw-mel input")
    frames = features.frames
    if frames.shape[0] < 2:
        raise ValidationError(f"need >= 2 frames to stack, got {frames.shape[0]}")
    pairs = frames.shape[0] // 2
    stacked = frames[: 2 * pairs].reshape(pairs, 2 * frames.shape[1])
    normalized = mean_variance_normalize(stacked)
    return FeatureSequence(frames=normalized, kind=STACKED_NORMALIZED)


def mean_variance_normalize(frames: np.ndarray) -> np.ndarray:
    mean = frames.mean(axis=0)
    var = frames.var(axis=0)
    return (frames - mean) / np.sqrt(np.maximum(var, VARIANCE_FLOOR))
