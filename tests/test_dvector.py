import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svcascade import dvector
from svcascade.dvector import (
    TD_SMALL, TD_SPEC, TI_SMALL, TI_SPEC, NetworkSpec, Parameters,
    flops_per_utterance, forward_embedding, init_network, load_checkpoint,
    param_count, param_names, param_shapes, save_checkpoint)
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


def reference_save(path, params):
    """The per-value checkpoint writer that save_checkpoint must match byte for byte."""
    spec = params.spec
    with open(path, "w") as f:
        f.write(f"format {dvector.CHECKPOINT_VERSION}\n")
        f.write(f"spec input_dim={spec.input_dim} num_layers={spec.num_layers} "
                f"cells={spec.cells} projection_dim={spec.projection_dim} "
                f"output_dim={spec.output_dim}\n")
        for name in param_names(spec):
            arr = np.atleast_2d(np.asarray(params[name], dtype=np.float64))
            f.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
            for row in arr:
                f.write(" ".join("%.9g" % np.float32(v) for v in row) + "\n")


def reference_load(path):
    """The per-row checkpoint reader whose values and path:line errors
    load_checkpoint must reproduce."""
    with open(path, encoding="utf-8") as f:
        lines = f.read().splitlines()

    def bad(lineno, what):
        return ValidationError(f"{path}:{lineno}: {what}")

    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "format":
        raise bad(1, "missing checkpoint format line")
    if head[1] != str(dvector.CHECKPOINT_VERSION):
        raise bad(1, f"unsupported checkpoint format {head[1]}")
    try:
        fields = lines[1].split()
        if fields[0] != "spec":
            raise ValueError
        spec = NetworkSpec(**{k: int(v) for k, v in (item.split("=") for item in fields[1:])})
        spec.validate()
    except (IndexError, ValueError, TypeError):
        raise bad(2, "missing or malformed spec line") from None
    except ValidationError as e:
        raise bad(2, str(e)) from None
    shapes = param_shapes(spec)
    values = {}
    pos = 2
    for name in param_names(spec):
        rows, cols = ((1, 1) + shapes[name])[-2:]
        header = f"{name} {rows} {cols}"
        if pos >= len(lines) or lines[pos].split() != header.split():
            raise bad(pos + 1, f"expected block header '{header}'")
        if pos + rows >= len(lines):
            raise bad(len(lines), f"block {name} truncated: {len(lines) - pos - 1} of {rows} rows")
        block = []
        for lineno in range(pos + 2, pos + rows + 2):
            try:
                row = np.array(lines[lineno - 1].split(), dtype=np.float64)
            except ValueError:
                raise bad(lineno, f"non-numeric value in block {name}") from None
            if row.shape != (cols,) or not np.all(np.isfinite(row)):
                raise bad(lineno, f"block {name} needs {cols} finite numbers per row")
            block.append(row)
        values[name] = np.array(block).reshape(shapes[name])
        pos += rows + 1
    for lineno in range(pos + 1, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise bad(lineno, "unexpected data after the last block")
    return Parameters(spec, values)


def assert_same_as_reference(tmp_path, params):
    got, want = tmp_path / "got.ckpt", tmp_path / "want.ckpt"
    save_checkpoint(str(got), params)
    reference_save(str(want), params)
    assert got.read_bytes() == want.read_bytes()
    loaded, expected = load_checkpoint(str(got)), reference_load(str(got))
    assert loaded.spec == expected.spec
    assert loaded.values.keys() == expected.values.keys()
    for name, value in expected.values.items():
        assert loaded[name].dtype == np.float64 and loaded[name].shape == value.shape, name
        assert np.array_equal(loaded[name], value), name
        assert np.array_equal(np.signbit(loaded[name]), np.signbit(value)), name


F32_MAX = float(np.finfo(np.float32).max)
F32_TINY = float(np.finfo(np.float32).smallest_subnormal)
EDGE_VALUES = [
    0.0, -0.0, F32_TINY, -F32_TINY, 3 * F32_TINY, float(np.finfo(np.float32).tiny),
    F32_MAX, -F32_MAX, np.nextafter(F32_MAX, np.inf),  # rounds down to float32 max
    0.1, 1 / 3, 1 + 2.0 ** -24, 1 + 3 * 2.0 ** -24,  # round at float32, ties to even
    1e-40, 1e-46,  # subnormal at float32, and below half its smallest step
]


@st.composite
def small_params(draw):
    p = draw(st.integers(1, 3))
    spec = NetworkSpec(input_dim=draw(st.integers(1, 4)), num_layers=draw(st.integers(1, 2)),
                       cells=draw(st.integers(1, 3)), projection_dim=p, output_dim=p)
    element = st.one_of(st.sampled_from(EDGE_VALUES),
                        st.floats(-F32_MAX, F32_MAX),
                        st.floats(width=32, allow_nan=False, allow_infinity=False))
    values = {name: np.array(draw(st.lists(element, min_size=int(np.prod(shape)),
                                           max_size=int(np.prod(shape)))),
                             dtype=np.float64).reshape(shape)
              for name, shape in param_shapes(spec).items()}
    return Parameters(spec, values)


@settings(max_examples=150, deadline=None)
@given(small_params())
def test_checkpoint_equals_reference_on_edge_values(tmp_path_factory, params):
    assert_same_as_reference(tmp_path_factory.mktemp("ckpt"), params)


@pytest.mark.parametrize("spec", [TD_SPEC, TI_SPEC], ids=["td", "ti"])
def test_production_checkpoint_equals_reference(tmp_path, spec):
    assert_same_as_reference(tmp_path, init_network(spec, seed=3))


@pytest.mark.parametrize("value", [np.nan, 1e39], ids=["nan", "beyond-float32"])
def test_save_rejects_values_not_finite_at_float32(tmp_path, value):
    params = init_network(TD_SMALL, seed=6)
    params["layer1/proj"][2, 3] = value
    path = tmp_path / "m.ckpt"
    with pytest.raises(NumericError, match="layer1/proj"):
        save_checkpoint(str(path), params)
    assert not path.exists()


@pytest.mark.parametrize("prefix, row, edit", [
    pytest.param("format", 0, lambda line: "format 1", id="old-version"),
    pytest.param("spec", 0, lambda line: line.replace("cells=16", "cells=x"), id="spec"),
    pytest.param("layer0/proj", 0, lambda line: "layer0/proj 8 15", id="header-count"),
    pytest.param("layer1/b", 0, lambda line: "layer1/b 1", id="header-short"),
    pytest.param("-", 0, lambda line: "0.1x" + line[line.index(" "):], id="non-numeric"),
    pytest.param("-", 0, lambda line: "nan" + line[line.index(" "):], id="non-finite"),
    pytest.param("-", 0, lambda line: line[:line.rindex(" ")], id="short-row"),
    pytest.param(None, 0, lambda line: "layer9/w 1 1", id="trailing-header"),
    pytest.param(None, 0, lambda line: "0.5", id="trailing-number"),
    pytest.param(None, 0, lambda line: "garbage", id="trailing-text"),
    pytest.param("layer2/w", 33, lambda line: "0.1x" + line[line.index(" "):],
                 id="later-block-middle-row"),
    pytest.param("layer1/proj", 4, lambda line: line + " 0.5", id="long-row"),
    pytest.param("layer0/w", 7, lambda line: "", id="blank-row"),
    pytest.param("ge2e/scale", 1, lambda line: "", id="blank-block"),
    pytest.param("layer2/proj", 2, lambda line: "0x1p3" + line[line.index(" "):], id="hex-float"),
    pytest.param("layer0/b", 1, lambda line: "+inf" + line[line.index(" "):], id="plus-inf"),
])
@pytest.mark.filterwarnings("error")
def test_checkpoint_corruption_names_line(checkpoint_text, prefix, row, edit):
    path, text = checkpoint_text
    lines = text.splitlines() + [""]  # a blank line after the last block is allowed
    index = (len(lines) - 1 if prefix is None  # None edits that blank line
             else row + next(i for i, line in enumerate(lines) if line.startswith(prefix)))
    lines[index] = edit(lines[index])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=rf"m\.ckpt:{index + 1}: ") as got:
        load_checkpoint(str(path))
    with pytest.raises(ValidationError) as want:
        reference_load(str(path))
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("token", ["1_0", "\u0661", " 0.5\t"], ids=["underscore", "arabic-digit", "tab"])
def test_checkpoint_tokens_only_float_reads_load_as_before(checkpoint_text, token):
    path, text = checkpoint_text
    lines = text.splitlines()
    index = 3 + next(i for i, line in enumerate(lines) if line.startswith("layer1/w"))
    lines[index] = token + lines[index][lines[index].index(" "):]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    loaded, expected = load_checkpoint(str(path)), reference_load(str(path))
    for name, value in expected.values.items():
        assert np.array_equal(loaded[name], value), name


def test_checkpoint_non_utf8_names_line(checkpoint_text):
    path, text = checkpoint_text
    data = text.encode()
    at = data.index(b"layer1/b")  # the bad byte starts a line
    path.write_bytes(data[:at] + b"\xff" + data[at:])
    line = data[:at].count(b"\n") + 1
    with pytest.raises(ValidationError, match=rf"m\.ckpt:{line}: not UTF-8"):
        load_checkpoint(str(path))
