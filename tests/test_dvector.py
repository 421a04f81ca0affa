import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcascade import dvector
from svcascade.dvector import (
    TD_SMALL, TD_SPEC, TI_SMALL, TI_SPEC, NetworkSpec, Parameters,
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
        # the ge2e scale is a training scalar, not a network parameter
        assert total - 1 == param_count(spec)


def test_flops_single_frame_td():
    # and at the production decision shapes, which pin the TI stack's widths too
    for spec, frames, flops in ((TD_SPEC, 1, 466_944), (TD_SPEC, 70, 32_120_832),
                                (TI_SPEC, 370, 927_531_008)):
        assert flops_per_utterance(spec, frames) == flops, (spec, frames)


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
        in_dim = TD_SMALL.projection_dim + (
            TD_SMALL.input_dim if layer == 0 else TD_SMALL.projection_dim)
        bound = np.sqrt(6.0 / (in_dim + TD_SMALL.cells))
        w = params[f"layer{layer}/w"]
        for gate in range(4):
            assert np.max(np.abs(w[gate * c:(gate + 1) * c])) <= bound
    assert float(params["ge2e/scale"]) == 10.0


def test_init_weights_are_float32_values():
    params = init_network(TI_SMALL, seed=4)
    for name, value in params.values.items():
        assert value.dtype == np.float64, name
        assert np.array_equal(value.astype(np.float32).astype(np.float64), value), name


def test_output_dim_must_equal_projection_dim():
    with pytest.raises(ValidationError):
        NetworkSpec(16, 3, 32, 16, 8)


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
    keyword = small_corpus.keyword[0]
    full = forward_embedding(trained_models["td"], keyword)
    first = forward_embedding(trained_models["td"], keyword[:1])
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


def assert_roundtrip(path, params):
    """save then load gives back the spec and exactly the saved values."""
    save_checkpoint(str(path), params)
    loaded = load_checkpoint(str(path))
    assert loaded.spec == params.spec
    assert list(loaded.values) == list(param_shapes(params.spec))
    for name, value in params.values.items():
        assert loaded[name].dtype == np.float64 and loaded[name].shape == value.shape, name
        assert np.array_equal(loaded[name], value), name
        assert np.array_equal(np.signbit(loaded[name]), np.signbit(value)), name


def test_checkpoint_roundtrip(tmp_path):
    assert_roundtrip(tmp_path / "m.ckpt", init_network(TD_SMALL, seed=6))
    # save(load(x)) is byte-stable, and no temporary file is left behind
    save_checkpoint(str(tmp_path / "m2.ckpt"), load_checkpoint(str(tmp_path / "m.ckpt")))
    assert (tmp_path / "m.ckpt").read_bytes() == (tmp_path / "m2.ckpt").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["m.ckpt", "m2.ckpt"]


EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
               1e300, -1e300, float(np.finfo(np.float64).max), 0.1, 1 / 3]


@st.composite
def small_params(draw):
    p = draw(st.integers(1, 3))
    spec = NetworkSpec(input_dim=draw(st.integers(1, 4)), num_layers=draw(st.integers(1, 2)),
                       cells=draw(st.integers(1, 3)), projection_dim=p, output_dim=p)
    element = st.one_of(st.sampled_from(EDGE_VALUES),
                        st.floats(allow_nan=False, allow_infinity=False))
    values = {name: np.array(draw(st.lists(element, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape)))),
                             dtype=np.float64).reshape(shape)
              for name, shape in param_shapes(spec).items()}
    return Parameters(spec, values)


@settings(max_examples=150, deadline=None)
@given(small_params())
def test_checkpoint_equals_reference_on_edge_values(tmp_path_factory, params):
    """A round trip on edge values: the reference a load is compared with is
    the saved network itself, which comes back exactly."""
    assert_roundtrip(tmp_path_factory.mktemp("ckpt") / "m.ckpt", params)


@pytest.mark.parametrize("spec", [TD_SPEC, TI_SPEC], ids=["td", "ti"])
def test_production_checkpoint_equals_reference(tmp_path, spec):
    """A round trip at production size against the saved network."""
    assert_roundtrip(tmp_path / "m.ckpt", init_network(spec, seed=3))


@pytest.mark.parametrize("fraction", [0.0005, 0.01, 0.3, 0.5, 0.97])
def test_checkpoint_truncation_names_line(tmp_path, fraction):
    """A checkpoint cut anywhere (in a member's header, its data or the zip
    directory) is an error naming the file; an npz has no line to name."""
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), init_network(TD_SMALL, seed=6))
    data = path.read_bytes()
    path.write_bytes(data[:int(len(data) * fraction)])
    with pytest.raises(ValidationError, match=r"m\.ckpt: not a readable checkpoint"):
        load_checkpoint(str(path))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_save_rejects_non_finite_values(tmp_path, value):
    params = init_network(TD_SMALL, seed=6)
    params["layer1/proj"][2, 3] = value
    with pytest.raises(NumericError, match="layer1/proj"):
        save_checkpoint(str(tmp_path / "m.ckpt"), params)
    assert os.listdir(tmp_path) == []


def test_interrupted_checkpoint_save_leaves_no_file(tmp_path, monkeypatch):
    savez = np.savez

    def save_some_then_stop(file, **arrays):
        savez(file, **dict(list(arrays.items())[:3]))
        raise KeyboardInterrupt

    monkeypatch.setattr(np, "savez", save_some_then_stop)
    with pytest.raises(KeyboardInterrupt):
        save_checkpoint(str(tmp_path / "m.ckpt"), init_network(TD_SMALL, seed=6))
    assert os.listdir(tmp_path) == []


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not a checkpoint\n")
    with pytest.raises(ValidationError, match=r"bad\.ckpt: not a readable checkpoint"):
        load_checkpoint(str(path))


def _rewrite(**members):
    """An edit that saves the checkpoint again with `members` replaced; None drops one."""
    def edit(path):
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        arrays.update(members)
        with open(path, "wb") as f:  # a name savez would suffix with .npz
            np.savez(f, **{key: a for key, a in arrays.items() if a is not None})
    return edit


def _flip_last_value_byte(path):
    """Changes the stored bytes of the last member, ge2e/scale, not its recorded CRC."""
    data = bytearray(path.read_bytes())
    data[data.rindex(np.array(10.0).tobytes())] ^= 1
    path.write_bytes(bytes(data))


def _bias_as_raw_bytes(path):
    _rewrite(**{"out/bias": None})(path)
    with zipfile.ZipFile(path, "a") as archive:
        archive.writestr("out/bias.npy", b"not an npy header")


@pytest.mark.parametrize("edit, where", [
    pytest.param(lambda p: p.write_text("format 2\nspec input_dim=16\n"), "not a readable",
                 id="not-a-zip"),
    pytest.param(_flip_last_value_byte, "Bad CRC", id="bad-crc"),
    pytest.param(_rewrite(**{"out/bias": None}), r"missing members \['out/bias'\]$",
                 id="member-missing"),
    pytest.param(_rewrite(**{"layer9/w": np.zeros(1)}), r"unknown members \['layer9/w'\]$",
                 id="member-unknown"),
    pytest.param(_rewrite(**{"ge2e/offset": np.array(-5.0)}),
                 r"unknown members \['ge2e/offset'\]$", id="member-retired-offset"),
    pytest.param(_rewrite(**{"out/bias": None, "out/b": np.zeros(8)}),
                 r"missing members \['out/bias'\], unknown members \['out/b'\]$",
                 id="member-renamed"),
    pytest.param(_bias_as_raw_bytes, "out/bias of the checkpoint is not an array",
                 id="member-not-npy"),
    pytest.param(_rewrite(**{"layer0/b": np.array([None, "x"], dtype=object)}),
                 "Object arrays", id="object-array"),
    pytest.param(_rewrite(cells=np.array(16.0)), "cells must be a single int",
                 id="spec-non-integer"),
    pytest.param(_rewrite(cells=np.array(0)), "cells must be a positive count",
                 id="spec-invalid"),
    pytest.param(_rewrite(**{"out/bias": np.zeros(8, np.float32)}),
                 r"out/bias must be finite <f8 of shape \(8,\), got <f4", id="wrong-dtype"),
    pytest.param(_rewrite(**{"layer1/w": np.zeros((64, 5))}),
                 r"layer1/w must be finite <f8 of shape \(64, 16\), got <f8 \(64, 5\)",
                 id="wrong-shape"),
    pytest.param(_rewrite(**{"ge2e/scale": np.array(np.inf)}),
                 r"ge2e/scale must be finite <f8 of shape \(\), got <f8 \(\)", id="non-finite"),
])
def test_corrupt_checkpoint_names_path(tmp_path, edit, where):
    path = tmp_path / "m.ckpt"
    save_checkpoint(str(path), init_network(TD_SMALL, seed=6))
    edit(path)
    with pytest.raises(ValidationError, match=rf"m\.ckpt: .*{where}"):
        load_checkpoint(str(path))
