"""Stacked LSTM-with-projection d-vector network.

Per layer, no peepholes: four sigmoid/tanh gates over [input; previous
projection output], cell update, then a tanh-activated linear projection
back down to the recurrent dimension.  The embedding is the final linear
transform of the last frame's top-layer projection output, L2-normalized.

Parameters live in an ordered dict of float64 arrays with canonical names
(layer{l}/w, layer{l}/b, layer{l}/proj, out/weight, out/bias, ge2e/scale,
ge2e/offset); initialization draws follow that order, so (spec, seed)
fully determines a checkpoint.  Gates are stored fused: `w` is (4c, in + p)
and `b` is (4c), rows in i, f, o, c (candidate) order.  Input-to-gate
products and the weight gradients each run as one GEMM over all T*B rows,
outside the time loop.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    num_layers: int
    cells: int
    projection_dim: int
    output_dim: int

    def validate(self) -> None:
        for name in ("input_dim", "num_layers", "cells", "projection_dim", "output_dim"):
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValidationError(f"network spec: {name} must be a positive count, got {value}")
        if self.output_dim != self.projection_dim:
            raise ValidationError(
                f"network spec: output_dim {self.output_dim} must equal "
                f"projection_dim {self.projection_dim}")

    def layer_input_dim(self, layer: int) -> int:
        return self.input_dim if layer == 0 else self.projection_dim


# production-size configurations
TD_SPEC = NetworkSpec(input_dim=80, num_layers=3, cells=128, projection_dim=64, output_dim=64)
TI_SPEC = NetworkSpec(input_dim=80, num_layers=3, cells=384, projection_dim=128, output_dim=128)

# desk-scale configurations matching the default synthetic feature dim
TD_SMALL = NetworkSpec(input_dim=16, num_layers=3, cells=16, projection_dim=8, output_dim=8)
TI_SMALL = NetworkSpec(input_dim=16, num_layers=3, cells=32, projection_dim=16, output_dim=16)


@dataclass
class Parameters:
    spec: NetworkSpec
    values: dict[str, np.ndarray]

    def copy(self) -> "Parameters":
        return Parameters(self.spec, {k: v.copy() for k, v in self.values.items()})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.values[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        self.values[name] = value


def param_names(spec: NetworkSpec) -> list[str]:
    names = []
    for layer in range(spec.num_layers):
        names += [f"layer{layer}/w", f"layer{layer}/b", f"layer{layer}/proj"]
    names += ["out/weight", "out/bias", "ge2e/scale", "ge2e/offset"]
    return names


def param_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(spec.num_layers):
        in_dim = spec.layer_input_dim(layer) + spec.projection_dim
        shapes[f"layer{layer}/w"] = (4 * spec.cells, in_dim)
        shapes[f"layer{layer}/b"] = (4 * spec.cells,)
        shapes[f"layer{layer}/proj"] = (spec.projection_dim, spec.cells)
    shapes["out/weight"] = (spec.output_dim, spec.projection_dim)
    shapes["out/bias"] = (spec.output_dim,)
    shapes["ge2e/scale"] = ()
    shapes["ge2e/offset"] = ()
    return shapes


def init_network(spec: NetworkSpec, seed: int) -> Parameters:
    """Glorot-uniform weights (per gate for `w`), zero biases except forget
    gate (1.0), similarity scale 10 and offset -5."""
    spec.validate()
    rng = np.random.default_rng(seed)
    c = spec.cells
    values: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith(("/w", "/proj")) or name == "out/weight":
            fan_out = c if name.endswith("/w") else shape[0]
            s = np.sqrt(6.0 / (shape[1] + fan_out))
            values[name] = rng.uniform(-s, s, size=shape)
        elif name == "ge2e/scale":
            values[name] = np.array(10.0)
        elif name == "ge2e/offset":
            values[name] = np.array(-5.0)
        else:
            values[name] = np.zeros(shape)
            if name.endswith("/b"):
                values[name][c:2 * c] = 1.0
    return Parameters(spec, values)


def zeros_like(params: Parameters) -> Parameters:
    return Parameters(params.spec, {k: np.zeros_like(v) for k, v in params.values.items()})


def global_norm(params: Parameters) -> float:
    return float(np.sqrt(sum(float(np.sum(v * v)) for v in params.values.values())))


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Branch-free, overflow-free logistic 0.5 * (1 + tanh(z / 2)); `out` may be `z`."""
    out = np.multiply(z, 0.5, out=out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _lstmp_layer(params: Parameters, layer: int, x: np.ndarray, B: int,
                 caches: list | None) -> np.ndarray:
    """One LSTMP layer over x (T*B, in), row t*B + b; returns its outputs
    (T*B, p) in that order and appends what backward needs to `caches`."""
    c, p = params.spec.cells, params.spec.projection_dim
    T, in_dim = x.shape[0] // B, x.shape[1]
    W, P = params[f"layer{layer}/w"], params[f"layer{layer}/proj"]
    Wh_T, P_T = np.ascontiguousarray(W[:, in_dim:].T), P.T  # row-major Wh_T: faster GEMV
    # input half of every step at once; each step then turns its slice into
    # the gate activations in place
    gates = (x @ W[:, :in_dim].T).reshape(T, B, 4 * c)
    gates += params[f"layer{layer}/b"]
    cells, tanh_c = np.empty((2, T, B, c))
    r = np.empty((T, B, p))
    h, c_t = np.zeros((B, p)), np.zeros((B, c))
    for t in range(T):
        z = gates[t]
        z += h @ Wh_T
        _sigmoid(z[:, :3 * c], out=z[:, :3 * c])
        np.tanh(z[:, 3 * c:], out=z[:, 3 * c:])
        c_t = np.multiply(z[:, c:2 * c], c_t, out=cells[t])
        c_t += z[:, :c] * z[:, 3 * c:]
        np.tanh(c_t, out=tanh_c[t])
        h = r[t]
        np.tanh((z[:, 2 * c:3 * c] * tanh_c[t]) @ P_T, out=h)
    if caches is not None:
        caches.append({"x": x, "gates": gates, "c": cells, "tanh_c": tanh_c, "r": r})
    return r.reshape(T * B, p)


def forward_batch(params: Parameters, frames: np.ndarray, want_cache: bool = False):
    """Runs the network on a batch of equal-length sequences.

    frames: (B, T, input_dim).  Returns (embeddings (B, output_dim), cache),
    where the cache for backward_batch is None unless `want_cache`.
    """
    spec = params.spec
    X = np.asarray(frames, dtype=np.float64)
    if X.ndim != 3 or X.shape[2] != spec.input_dim:
        raise ValidationError(
            f"expected frames of shape (B, T, {spec.input_dim}), got {X.shape}")
    if X.shape[1] < 1:
        raise ValidationError("need at least one frame")
    if not np.all(np.isfinite(X)):
        raise NumericError("non-finite input frames")

    B, T, _ = X.shape
    x = X.transpose(1, 0, 2).reshape(T * B, spec.input_dim)  # row t*B + b
    layer_caches = [] if want_cache else None
    for layer in range(spec.num_layers):
        x = _lstmp_layer(params, layer, x, B, layer_caches)

    y = x[-B:] @ params["out/weight"].T + params["out/bias"]  # from the last frame
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite pre-normalization embedding")
    if np.any(norms == 0.0):
        raise NumericError("zero-norm pre-normalization embedding")
    emb = y / norms
    return emb, ({"layers": layer_caches, "norms": norms, "emb": emb} if want_cache else None)


def forward_embedding(params: Parameters, frames: np.ndarray) -> np.ndarray:
    """Embedding for a single (T, input_dim) sequence; unit L2 norm."""
    emb, _ = forward_batch(params, np.asarray(frames)[None, :, :])
    return emb[0]


def _lstmp_layer_backward(params: Parameters, layer: int, lc: dict, d_out: np.ndarray,
                          grads: Parameters) -> np.ndarray | None:
    """Backward through one layer from d_out (T, B, p): writes its w, b and
    proj gradients into `grads`, returns d_input (None for layer 0)."""
    (T, B, p), c = d_out.shape, params.spec.cells
    x, gates, cells, tanh_c, r = lc["x"], lc["gates"], lc["c"], lc["tanh_c"], lc["r"]
    in_dim = x.shape[1]
    W, P = params[f"layer{layer}/w"], params[f"layer{layer}/proj"]
    i, f, o, g = (gates[:, :, k * c:(k + 1) * c] for k in range(4))
    # dZ, the gradient w.r.t. the gate pre-activations, starts as the factors
    # that do not depend on the recurrence (g i', c_prev f', tanh(c) o', i g');
    # the loop multiplies in dc (dm for o) step by step
    dZ = 1.0 - gates
    dZ *= gates  # s(1 - s), the slope of the i, f, o sigmoids
    dZ[:, :, :c] *= g
    dZ[1:, :, c:2 * c] *= cells[:-1]
    dZ[0, :, c:2 * c] = 0.0
    dZ[:, :, 2 * c:3 * c] *= tanh_c
    np.multiply(i, 1.0 - g * g, out=dZ[:, :, 3 * c:])
    dc_dm = o * (1.0 - tanh_c * tanh_c)
    dr_da = 1.0 - r * r
    dA = np.empty((T, B, p))  # gradient w.r.t. the projection pre-activation
    dh, dc_next = np.zeros((B, p)), np.zeros((B, c))
    for t in reversed(range(T)):
        da = np.multiply(d_out[t] + dh, dr_da[t], out=dA[t])
        dm = da @ P
        dc = dm * dc_dm[t] + dc_next
        dz = dZ[t]
        dz[:, :c] *= dc
        dz[:, c:2 * c] *= dc
        dz[:, 2 * c:3 * c] *= dm
        dz[:, 3 * c:] *= dc
        dc_next = dc * f[t]
        dh = dz @ W[:, in_dim:]
    dZ = dZ.reshape(T * B, 4 * c)
    dW = grads[f"layer{layer}/w"]
    dW[:, :in_dim] = dZ.T @ x
    # step t's recurrent input is step t-1's output (zero at t = 0)
    dW[:, in_dim:] = dZ[B:].T @ r[:-1].reshape((T - 1) * B, p)
    grads[f"layer{layer}/b"][:] = dZ.sum(axis=0)
    m = (o * tanh_c).reshape(T * B, c)  # the projection's input
    grads[f"layer{layer}/proj"][:] = dA.reshape(T * B, p).T @ m
    return (dZ @ W[:, :in_dim]).reshape(T, B, in_dim) if layer > 0 else None


def backward_batch(params: Parameters, cache: dict, d_emb: np.ndarray) -> Parameters:
    """Gradients of a scalar loss w.r.t. all network parameters, given the
    gradient w.r.t. the (normalized) embeddings.  ge2e scalars are left zero."""
    spec = params.spec
    top = cache["layers"][-1]["r"]  # top-layer outputs, (T, B, p)
    grads = zeros_like(params)

    emb, norms = cache["emb"], cache["norms"]
    inner = np.sum(emb * d_emb, axis=1, keepdims=True)
    dy = (d_emb - emb * inner) / norms
    grads["out/weight"][:] = dy.T @ top[-1]
    grads["out/bias"][:] = dy.sum(axis=0)

    d_out = np.zeros_like(top)
    d_out[-1] = dy @ params["out/weight"]
    for layer in reversed(range(spec.num_layers)):
        d_out = _lstmp_layer_backward(params, layer, cache["layers"][layer], d_out, grads)
    return grads


def param_count(spec: NetworkSpec) -> int:
    spec.validate()
    total = 0
    for layer in range(spec.num_layers):
        in_dim = spec.layer_input_dim(layer)
        total += 4 * spec.cells * (in_dim + spec.projection_dim)  # gate weights
        total += 4 * spec.cells  # gate biases
        total += spec.projection_dim * spec.cells  # projection
    total += spec.output_dim * spec.projection_dim + spec.output_dim  # final linear
    return total


def flops_per_frame(spec: NetworkSpec) -> int:
    """Matrix multiply-accumulates only (2 flops each); elementwise ops excluded."""
    macs = 0
    for layer in range(spec.num_layers):
        in_dim = spec.layer_input_dim(layer)
        macs += 4 * spec.cells * (in_dim + spec.projection_dim)
        macs += spec.projection_dim * spec.cells
    return 2 * macs


def flops_per_utterance(spec: NetworkSpec, num_frames: int) -> int:
    spec.validate()
    if num_frames < 1:
        raise ValidationError(f"num_frames must be >= 1, got {num_frames}")
    return flops_per_frame(spec) * num_frames + 2 * spec.output_dim * spec.projection_dim


# --- checkpoint persistence -------------------------------------------------

CHECKPOINT_VERSION = 2
_FORMAT_ROWS = 256  # rows per %-format call; bounds its temporary tuple and string


def save_checkpoint(path: str, params: Parameters) -> None:
    """Writes one text block per parameter at float32 precision ("%.9g"
    round-trips float32 exactly).  A value that is not finite at float32
    (NaN, inf, or beyond float32 max) raises NumericError naming its block
    before any file is written."""
    spec = params.spec
    blocks = {}
    for name in param_names(spec):
        with np.errstate(over="ignore"):
            arr = np.atleast_2d(np.asarray(params[name], dtype=np.float64)).astype(np.float32)
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"{path}: block {name} is not finite at float32; nothing written")
        blocks[name] = arr
    with open(path, "w") as f:
        f.write(f"format {CHECKPOINT_VERSION}\n")
        f.write(f"spec input_dim={spec.input_dim} num_layers={spec.num_layers} "
                f"cells={spec.cells} projection_dim={spec.projection_dim} "
                f"output_dim={spec.output_dim}\n")
        for name, arr in blocks.items():
            rows, cols = arr.shape
            f.write(f"{name} {rows} {cols}\n")
            row_format = " ".join(["%.9g"] * cols) + "\n"
            for start in range(0, rows, _FORMAT_ROWS):
                chunk = arr[start:start + _FORMAT_ROWS]
                f.write(row_format * len(chunk) % tuple(chunk.ravel().tolist()))


def load_checkpoint(path: str) -> Parameters:
    """Reads save_checkpoint's format, one block per parse; a malformed,
    truncated, non-numeric or non-UTF-8 line is a ValidationError naming
    path:line."""

    def bad(lineno: int, what: str) -> ValidationError:
        return ValidationError(f"{path}:{lineno}: {what}")

    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except UnicodeDecodeError as e:
        # read() decodes the whole file at once, so e.object is all of it
        raise bad(len((e.object[:e.start].decode("utf-8") + "?").splitlines()),
                  "not UTF-8 text") from None
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "format":
        raise bad(1, "missing checkpoint format line")
    if head[1] != str(CHECKPOINT_VERSION):
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
    values: dict[str, np.ndarray] = {}
    pos = 2  # index of the next block header
    for name in param_names(spec):
        rows, cols = ((1, 1) + shapes[name])[-2:]  # save_checkpoint's atleast_2d
        header = f"{name} {rows} {cols}"
        if pos >= len(lines) or lines[pos].split() != header.split():
            raise bad(pos + 1, f"expected block header '{header}'")
        if pos + rows >= len(lines):
            raise bad(len(lines), f"block {name} truncated: {len(lines) - pos - 1} of {rows} rows")
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # all-blank body: fails the shape test
                block = np.loadtxt(lines[pos + 1:pos + rows + 1], dtype=np.float64,
                                   ndmin=2, comments=None)
        except ValueError:
            block = None
        if block is None or block.shape != (rows, cols) or not np.all(np.isfinite(block)):
            # Diagnosis: the per-row reader raises at the first bad line.  It
            # also loads the few tokens float() takes and loadtxt does not (1_0).
            block = []
            for lineno in range(pos + 2, pos + rows + 2):
                try:
                    row = np.array(lines[lineno - 1].split(), dtype=np.float64)
                except ValueError:
                    raise bad(lineno, f"non-numeric value in block {name}") from None
                if row.shape != (cols,) or not np.all(np.isfinite(row)):
                    raise bad(lineno, f"block {name} needs {cols} finite numbers per row")
                block.append(row)
        values[name] = np.asarray(block).reshape(shapes[name])
        pos += rows + 1
    for lineno in range(pos + 1, len(lines) + 1):
        if lines[lineno - 1].strip():
            raise bad(lineno, "unexpected data after the last block")
    return Parameters(spec, values)
