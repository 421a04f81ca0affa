"""Stacked LSTM-with-projection d-vector network.

Per layer, no peepholes: four sigmoid/tanh gates over [input; previous
projection output], cell update, then a tanh-activated linear projection
back down to the recurrent dimension.  The embedding is the final linear
transform of the last frame's top-layer projection output, L2-normalized.

Parameters live in an ordered dict of float64 arrays with canonical names
(layer{l}/w, layer{l}/b, layer{l}/proj, out/weight, out/bias, ge2e/scale);
initialization draws follow that order, so (spec, seed) fully determines a
checkpoint.  Gates are stored fused: `w` is (4c, in + p) and `b` is (4c),
rows in i, f, o, c (candidate) order.  Input-to-gate products and the
weight gradients each run as one GEMM over all T*B rows, outside the time
loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from . import errors
from .errors import NumericError, ValidationError

@dataclass(frozen=True)
class NetworkSpec:
    input_dim: int
    num_layers: int
    cells: int
    projection_dim: int
    output_dim: int

    def __post_init__(self) -> None:
        for name in SPEC_FIELDS:
            value = getattr(self, name)
            if int(value) != value or value < 1:
                raise ValidationError(f"network spec: {name} must be a positive count, got {value}")
        if self.output_dim != self.projection_dim:
            raise ValidationError(
                f"network spec: output_dim {self.output_dim} must equal "
                f"projection_dim {self.projection_dim}")


SPEC_FIELDS = tuple(f.name for f in fields(NetworkSpec))  # also a checkpoint's spec members

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


def param_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    """The network's one description: every parameter's shape, in the
    canonical order that initialization and checkpoints follow.  Layer 0
    reads the input frames, every later layer the projection below it."""
    c, p = spec.cells, spec.projection_dim
    shapes: dict[str, tuple[int, ...]] = {}
    in_dim = spec.input_dim
    for layer in range(spec.num_layers):
        shapes[f"layer{layer}/w"] = (4 * c, in_dim + p)
        shapes[f"layer{layer}/b"] = (4 * c,)
        shapes[f"layer{layer}/proj"] = (p, c)
        in_dim = p
    shapes["out/weight"] = (spec.output_dim, p)
    shapes["out/bias"] = (spec.output_dim,)
    shapes["ge2e/scale"] = ()
    return shapes


def init_network(spec: NetworkSpec, seed: int) -> Parameters:
    """Glorot-uniform weights (per gate for `w`), zero biases except forget
    gate (1.0) and similarity scale 10; weights are float32 values."""
    rng = np.random.default_rng(seed)
    c = spec.cells
    values: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith(("/w", "/proj")) or name == "out/weight":
            fan_out = c if name.endswith("/w") else shape[0]
            s = np.sqrt(6.0 / (shape[1] + fan_out))
            values[name] = rng.uniform(-s, s, size=shape).astype(np.float32).astype(np.float64)
        elif name == "ge2e/scale":
            values[name] = np.array(10.0)
        else:
            values[name] = np.zeros(shape)
            if name.endswith("/b"):
                values[name][c:2 * c] = 1.0
    return Parameters(spec, values)


def zeros_like(params: Parameters) -> Parameters:
    return Parameters(params.spec, {k: np.zeros_like(v) for k, v in params.values.items()})


def global_norm(params: Parameters) -> float:
    return float(np.sqrt(sum(float(np.sum(v * v)) for v in params.values.values())))


def _lstmp_layer(params: Parameters, layer: int, x: np.ndarray, B: int,
                 caches: list | None) -> np.ndarray:
    """One LSTMP layer over x (T*B, in), row t*B + b; returns its outputs
    (T*B, p) in that order and appends what backward needs to `caches`."""
    c, p = params.spec.cells, params.spec.projection_dim
    T, in_dim = x.shape[0] // B, x.shape[1]
    W, P = params[f"layer{layer}/w"], params[f"layer{layer}/proj"]
    # sigmoid(z) = (1 + tanh(z / 2)) / 2: halving i, f, o up front (exactly) leaves one tanh
    half = np.repeat([0.5, 1.0], [3 * c, c])
    Wh_T, P_T = np.multiply(W[:, in_dim:].T, half, order="C"), P.T  # row-major: faster GEMV
    # input half of every step at once; each step then turns its slice into
    # the gate activations in place
    gates = (x @ W[:, :in_dim].T).reshape(T, B, 4 * c)
    gates += params[f"layer{layer}/b"]
    gates *= half
    cells, tanh_c = np.empty((2, T, B, c))
    r = np.empty((T, B, p))
    h, c_t = np.zeros((B, p)), np.zeros((B, c))
    for t in range(T):
        z = gates[t]
        z += h @ Wh_T
        np.tanh(z, out=z)
        z[:, :3 * c] += 1.0
        z[:, :3 * c] *= 0.5
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
        dz *= np.concatenate([dc, dc, dm, dc], axis=1)
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
    """The network's weights and biases, without the GE2E scale."""
    return sum(math.prod(shape) for name, shape in param_shapes(spec).items()
               if not name.startswith("ge2e/"))


def flops_per_utterance(spec: NetworkSpec, num_frames: int) -> int:
    """Matrix multiply-accumulates only (2 flops each): every frame passes
    each layer's gate and projection matrices, the last frame the output
    matrix; elementwise ops excluded."""
    shapes = param_shapes(spec)
    if num_frames < 1:
        raise ValidationError(f"num_frames must be >= 1, got {num_frames}")
    per_frame = sum(math.prod(s) for name, s in shapes.items() if name.endswith(("/w", "/proj")))
    return 2 * (per_frame * num_frames + math.prod(shapes["out/weight"]))


# --- checkpoint persistence -------------------------------------------------


def save_checkpoint(path: str, params: Parameters) -> None:
    """One uncompressed npz, renamed into place: each spec field as a 0-d
    int64 array and each parameter as exact <f8 under its canonical name.  A
    NaN or inf is a NumericError naming its parameter, and nothing is written."""
    arrays = {name: np.array(getattr(params.spec, name), dtype=np.int64) for name in SPEC_FIELDS}
    for name in param_shapes(params.spec):
        arrays[name] = np.asarray(params[name], dtype="<f8")
        if not np.all(np.isfinite(arrays[name])):
            raise NumericError(f"{path}: parameter {name} is not finite; nothing written")
    errors.write_npz(path, arrays)


def _checkpoint_members(arrays: dict[str, np.ndarray]) -> set[str]:
    """The member names of a checkpoint with the spec fields in `arrays`."""
    for name in SPEC_FIELDS:
        if name not in arrays or arrays[name].shape != () or arrays[name].dtype.kind != "i":
            raise ValidationError(f"spec field {name} must be a single int")
    spec = NetworkSpec(**{name: arrays[name].item() for name in SPEC_FIELDS})
    return {*SPEC_FIELDS, *param_shapes(spec)}


def load_checkpoint(path: str) -> Parameters:
    """Reads save_checkpoint's npz; an unreadable file, a missing or unknown member,
    or a bad spec field or parameter is a ValidationError naming the file."""
    arrays = errors.read_npz(path, "checkpoint", _checkpoint_members)
    spec = NetworkSpec(**{name: arrays[name].item() for name in SPEC_FIELDS})
    for name, shape in param_shapes(spec).items():
        value = arrays[name]
        if value.dtype != np.dtype("<f8") or value.shape != shape or not np.all(np.isfinite(value)):
            raise ValidationError(f"{path}: parameter {name} must be finite <f8 of shape {shape}, "
                                  f"got {value.dtype.str} {value.shape}")
    return Parameters(spec, {name: arrays[name] for name in param_shapes(spec)})
