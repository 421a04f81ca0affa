import numpy as np
import pytest

from svcascade import dvector
from svcascade.dvector import (
    TD_SMALL, TD_SPEC, TI_SMALL, TI_SPEC, NetworkSpec,
    flops_per_utterance, forward_embedding, init_network, load_checkpoint,
    param_count, param_shapes, save_checkpoint)
from svcascade.errors import NumericError, ValidationError


def test_param_count_matches_td_and_ti_architectures():
    assert param_count(TD_SPEC) == 235_072
    assert param_count(TI_SPEC) == 1_274_496


def test_param_count_minimal_case():
    spec = NetworkSpec(input_dim=1, num_layers=1, cells=1, projection_dim=1, output_dim=1)
    assert param_count(spec) == 15


def test_param_count_matches_actual_shapes():
    for spec in (TD_SMALL, TI_SMALL, TD_SPEC):
        total = sum(int(np.prod(s)) if s else 1 for s in param_shapes(spec).values())
        # ge2e scale/offset are training scalars, not network parameters
        assert total - 2 == param_count(spec)


def test_flops_single_frame_td():
    assert flops_per_utterance(TD_SPEC, 1) == 466_944


def test_flops_linear_in_frames():
    for t in (1, 7, 50):
        delta = flops_per_utterance(TD_SPEC, 2 * t) - flops_per_utterance(TD_SPEC, t)
        per_frame = flops_per_utterance(TD_SPEC, 2) - flops_per_utterance(TD_SPEC, 1)
        assert delta == t * per_frame


def test_flops_rejects_zero_frames():
    with pytest.raises(ValidationError):
        flops_per_utterance(TD_SPEC, 0)


def test_init_deterministic():
    a = init_network(TD_SMALL, seed=5)
    b = init_network(TD_SMALL, seed=5)
    assert a.values.keys() == b.values.keys()
    for name in a.values:
        assert np.array_equal(a[name], b[name]), name


def test_init_forget_bias_and_bounds():
    params = init_network(TD_SMALL, seed=1)
    c = TD_SMALL.cells
    for layer in range(TD_SMALL.num_layers):
        b = params[f"layer{layer}/b"]
        assert np.all(b[c:2 * c] == 1.0)
        assert np.all(b[:c] == 0.0)
        in_dim = TD_SMALL.layer_input_dim(layer) + TD_SMALL.projection_dim
        bound = np.sqrt(6.0 / (in_dim + TD_SMALL.cells))
        w = params[f"layer{layer}/w"]
        for gate in range(4):
            assert np.max(np.abs(w[gate * c:(gate + 1) * c])) <= bound
    assert float(params["ge2e/scale"]) == 10.0
    assert float(params["ge2e/offset"]) == -5.0


def test_output_dim_must_equal_projection_dim():
    with pytest.raises(ValidationError):
        NetworkSpec(16, 3, 32, 16, 8).validate()


def test_embedding_is_unit_norm_and_deterministic():
    params = init_network(TD_SMALL, seed=2)
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((12, 16))
    a = forward_embedding(params, frames)
    b = forward_embedding(params, frames)
    assert np.linalg.norm(a) == pytest.approx(1.0, abs=1e-6)
    assert np.array_equal(a, b)


def test_batch_rows_match_single_sequences():
    params = init_network(TI_SMALL, seed=7)
    frames = np.random.default_rng(8).standard_normal((4, 9, 16))
    emb, cache = dvector.forward_batch(params, frames)
    assert cache is None
    for row in range(4):
        assert np.allclose(emb[row], forward_embedding(params, frames[row]), rtol=0, atol=1e-12)
    cached, cache = dvector.forward_batch(params, frames, want_cache=True)
    assert np.array_equal(cached, emb)
    assert len(cache["layers"]) == TI_SMALL.num_layers


def test_truncation_changes_embedding(small_corpus, trained_models):
    utt = small_corpus.utterances[0]
    full = forward_embedding(trained_models["td"], utt.keyword)
    first = forward_embedding(trained_models["td"], utt.keyword[:1])
    assert not np.allclose(full, first)


def test_forward_rejects_bad_shapes():
    params = init_network(TD_SMALL, seed=0)
    with pytest.raises(ValidationError):
        forward_embedding(params, np.zeros((5, 7)))
    with pytest.raises(NumericError):
        forward_embedding(params, np.full((5, 16), np.nan))


def test_finite_output_under_stress():
    params = init_network(TI_SMALL, seed=3)
    rng = np.random.default_rng(4)
    for scale in (1.0, 100.0, 1e4):
        emb = forward_embedding(params, rng.standard_normal((40, 16)) * scale)
        assert np.all(np.isfinite(emb))
        assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-6)


def test_checkpoint_roundtrip(tmp_path):
    params = init_network(TD_SMALL, seed=6)
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), params)
    loaded = load_checkpoint(str(path))
    assert loaded.spec == params.spec
    # stored at float32 precision
    assert loaded.values.keys() == params.values.keys()
    for name in params.values:
        assert np.allclose(loaded[name], params[name], rtol=1e-6, atol=1e-7), name
    # save(load(x)) is byte-stable
    path2 = tmp_path / "m2.ckpt"
    save_checkpoint(str(path2), loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValidationError):
        load_checkpoint(str(path))


@pytest.fixture
def checkpoint_text(tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), init_network(TD_SMALL, seed=6))
    return path, path.read_text()


@pytest.mark.parametrize("fraction", [0.0005, 0.01, 0.3, 0.5, 0.97])
def test_checkpoint_truncation_names_line(checkpoint_text, fraction):
    path, text = checkpoint_text
    path.write_text(text[:int(len(text) * fraction)])
    with pytest.raises(ValidationError, match=r"m\.ckpt:\d+: "):
        load_checkpoint(str(path))


@pytest.mark.parametrize("prefix, edit", [
    pytest.param("format", lambda line: "format 1", id="old-version"),
    pytest.param("spec", lambda line: line.replace("cells=16", "cells=x"), id="spec"),
    pytest.param("layer0/proj", lambda line: "layer0/proj 8 15", id="header-count"),
    pytest.param("layer1/b", lambda line: "layer1/b 1", id="header-short"),
    pytest.param("-", lambda line: "0.1x" + line[line.index(" "):], id="non-numeric"),
    pytest.param("-", lambda line: "nan" + line[line.index(" "):], id="non-finite"),
    pytest.param("-", lambda line: line[:line.rindex(" ")], id="short-row"),
    pytest.param(None, lambda line: "layer9/w 1 1", id="trailing-header"),
    pytest.param(None, lambda line: "0.5", id="trailing-number"),
    pytest.param(None, lambda line: "garbage", id="trailing-text"),
])
def test_checkpoint_corruption_names_line(checkpoint_text, prefix, edit):
    path, text = checkpoint_text
    lines = text.splitlines() + [""]  # a blank line after the last block is allowed
    index = (len(lines) - 1 if prefix is None  # None edits that blank line
             else next(i for i, line in enumerate(lines) if line.startswith(prefix)))
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=rf"m\.ckpt:{index + 1}: "):
        load_checkpoint(str(path))
