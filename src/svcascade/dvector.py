"""Stacked LSTM-with-projection d-vector network.

Per layer, no peepholes: four sigmoid/tanh gates over [input; previous
projection output], cell update, then a tanh-activated linear projection
back down to the recurrent dimension.  The embedding is the final linear
transform of the last frame's top-layer projection output, L2-normalized.

Parameters live in an ordered dict of float64 arrays with canonical names
(layer{l}/w_i .. layer{l}/proj, out/weight, out/bias, ge2e/scale,
ge2e/offset); initialization draws follow that order, so (spec, seed)
fully determines a checkpoint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError

GATE_NAMES = ("i", "f", "o", "c")


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
        for g in GATE_NAMES:
            names.append(f"layer{layer}/w_{g}")
        for g in GATE_NAMES:
            names.append(f"layer{layer}/b_{g}")
        names.append(f"layer{layer}/proj")
    names += ["out/weight", "out/bias", "ge2e/scale", "ge2e/offset"]
    return names


def param_shapes(spec: NetworkSpec) -> dict[str, tuple[int, ...]]:
    shapes: dict[str, tuple[int, ...]] = {}
    for layer in range(spec.num_layers):
        in_dim = spec.layer_input_dim(layer) + spec.projection_dim
        for g in GATE_NAMES:
            shapes[f"layer{layer}/w_{g}"] = (spec.cells, in_dim)
        for g in GATE_NAMES:
            shapes[f"layer{layer}/b_{g}"] = (spec.cells,)
        shapes[f"layer{layer}/proj"] = (spec.projection_dim, spec.cells)
    shapes["out/weight"] = (spec.output_dim, spec.projection_dim)
    shapes["out/bias"] = (spec.output_dim,)
    shapes["ge2e/scale"] = ()
    shapes["ge2e/offset"] = ()
    return shapes


def init_network(spec: NetworkSpec, seed: int) -> Parameters:
    """Glorot-uniform weights, zero biases except forget gate (1.0),
    similarity scale 10 and offset -5."""
    spec.validate()
    rng = np.random.default_rng(seed)
    values: dict[str, np.ndarray] = {}
    for name, shape in param_shapes(spec).items():
        if name.endswith("/proj") or "/w_" in name or name == "out/weight":
            fan_out, fan_in = shape
            s = np.sqrt(6.0 / (fan_in + fan_out))
            values[name] = rng.uniform(-s, s, size=shape)
        elif "/b_f" in name:
            values[name] = np.ones(shape)
        elif name == "ge2e/scale":
            values[name] = np.array(10.0)
        elif name == "ge2e/offset":
            values[name] = np.array(-5.0)
        else:
            values[name] = np.zeros(shape)
    return Parameters(spec, values)


def zeros_like(params: Parameters) -> Parameters:
    return Parameters(params.spec, {k: np.zeros_like(v) for k, v in params.values.items()})


def global_norm(params: Parameters) -> float:
    return float(np.sqrt(sum(float(np.sum(v * v)) for v in params.values.values())))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def forward_batch(params: Parameters, frames: np.ndarray, want_cache: bool = False):
    """Runs the network on a batch of equal-length sequences.

    frames: (B, T, input_dim).  Returns (embeddings (B, output_dim), cache).
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
    c, p = spec.cells, spec.projection_dim
    seq = X.transpose(1, 0, 2)  # (T, B, in)
    layer_caches = []
    for layer in range(spec.num_layers):
        in_dim = spec.layer_input_dim(layer)
        W = np.concatenate([params[f"layer{layer}/w_{g}"] for g in GATE_NAMES], axis=0)
        b = np.concatenate([params[f"layer{layer}/b_{g}"] for g in GATE_NAMES])
        P = params[f"layer{layer}/proj"]
        xcat = np.empty((T, B, in_dim + p))
        gi = np.empty((T, B, c))
        gf = np.empty((T, B, c))
        go = np.empty((T, B, c))
        gc = np.empty((T, B, c))
        cs = np.empty((T, B, c))
        tc = np.empty((T, B, c))
        rs = np.empty((T, B, p))
        h = np.zeros((B, p))
        c_prev = np.zeros((B, c))
        for t in range(T):
            xc = np.concatenate([seq[t], h], axis=1)
            z = xc @ W.T + b
            i_t = _sigmoid(z[:, :c])
            f_t = _sigmoid(z[:, c:2 * c])
            o_t = _sigmoid(z[:, 2 * c:3 * c])
            g_t = np.tanh(z[:, 3 * c:])
            c_t = f_t * c_prev + i_t * g_t
            tc_t = np.tanh(c_t)
            r_t = np.tanh((o_t * tc_t) @ P.T)
            xcat[t], gi[t], gf[t], go[t], gc[t] = xc, i_t, f_t, o_t, g_t
            cs[t], tc[t], rs[t] = c_t, tc_t, r_t
            h, c_prev = r_t, c_t
        layer_caches.append({"xcat": xcat, "i": gi, "f": gf, "o": go, "g": gc,
                             "c": cs, "tanh_c": tc, "r": rs, "W": W, "P": P,
                             "in_dim": in_dim})
        seq = rs

    r_last = seq[T - 1]  # (B, p)
    y = r_last @ params["out/weight"].T + params["out/bias"]
    norms = np.linalg.norm(y, axis=1, keepdims=True)
    if not np.all(np.isfinite(y)):
        raise NumericError("non-finite pre-normalization embedding")
    if np.any(norms == 0.0):
        raise NumericError("zero-norm pre-normalization embedding")
    emb = y / norms
    cache = None
    if want_cache:
        cache = {"layers": layer_caches, "r_last": r_last, "y": y,
                 "norms": norms, "emb": emb, "T": T, "B": B}
    return emb, cache


def forward_embedding(params: Parameters, frames: np.ndarray) -> np.ndarray:
    """Embedding for a single (T, input_dim) sequence; unit L2 norm."""
    emb, _ = forward_batch(params, np.asarray(frames)[None, :, :])
    return emb[0]


def backward_batch(params: Parameters, cache: dict, d_emb: np.ndarray) -> Parameters:
    """Gradients of a scalar loss w.r.t. all network parameters, given the
    gradient w.r.t. the (normalized) embeddings.  ge2e scalars are left zero."""
    spec = params.spec
    T = cache["T"]
    grads = zeros_like(params)

    emb, norms = cache["emb"], cache["norms"]
    inner = np.sum(emb * d_emb, axis=1, keepdims=True)
    dy = (d_emb - emb * inner) / norms
    grads["out/weight"][:] = dy.T @ cache["r_last"]
    grads["out/bias"][:] = dy.sum(axis=0)

    p = spec.projection_dim
    B = cache["B"]
    d_out = np.zeros((T, B, p))
    d_out[T - 1] = dy @ params["out/weight"]

    for layer in reversed(range(spec.num_layers)):
        lc = cache["layers"][layer]
        in_dim = lc["in_dim"]
        c = spec.cells
        W, P = lc["W"], lc["P"]
        dW = np.zeros_like(W)
        db = np.zeros(4 * c)
        dP = np.zeros_like(P)
        d_input = np.zeros((T, B, in_dim))
        dh = np.zeros((B, p))
        dc_next = np.zeros((B, c))
        for t in reversed(range(T)):
            i_t, f_t, o_t, g_t = lc["i"][t], lc["f"][t], lc["o"][t], lc["g"][t]
            tc_t, r_t = lc["tanh_c"][t], lc["r"][t]
            dr = d_out[t] + dh
            da = dr * (1.0 - r_t * r_t)
            m_t = o_t * tc_t
            dP += da.T @ m_t
            dm = da @ P
            do = dm * tc_t
            dc = dm * o_t * (1.0 - tc_t * tc_t) + dc_next
            c_prev = lc["c"][t - 1] if t > 0 else np.zeros((B, c))
            df = dc * c_prev
            dc_next = dc * f_t
            di = dc * g_t
            dg = dc * i_t
            dz = np.concatenate([
                di * i_t * (1.0 - i_t),
                df * f_t * (1.0 - f_t),
                do * o_t * (1.0 - o_t),
                dg * (1.0 - g_t * g_t),
            ], axis=1)
            dW += dz.T @ lc["xcat"][t]
            db += dz.sum(axis=0)
            dxcat = dz @ W
            d_input[t] = dxcat[:, :in_dim]
            dh = dxcat[:, in_dim:]
        for gi, g in enumerate(GATE_NAMES):
            grads[f"layer{layer}/w_{g}"][:] = dW[gi * c:(gi + 1) * c]
            grads[f"layer{layer}/b_{g}"][:] = db[gi * c:(gi + 1) * c]
        grads[f"layer{layer}/proj"][:] = dP
        d_out = d_input
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

CHECKPOINT_VERSION = 1


def _format_value(v: float) -> str:
    # float32 storage precision; %.9g round-trips float32 exactly
    return "%.9g" % np.float32(v)


def save_checkpoint(path: str, params: Parameters) -> None:
    spec = params.spec
    with open(path, "w") as f:
        f.write(f"format {CHECKPOINT_VERSION}\n")
        f.write(f"spec input_dim={spec.input_dim} num_layers={spec.num_layers} "
                f"cells={spec.cells} projection_dim={spec.projection_dim} "
                f"output_dim={spec.output_dim}\n")
        for name in param_names(spec):
            arr = np.atleast_2d(np.asarray(params[name], dtype=np.float64))
            f.write(f"{name} {arr.shape[0]} {arr.shape[1]}\n")
            for row in arr:
                f.write(" ".join(_format_value(v) for v in row) + "\n")


def load_checkpoint(path: str) -> Parameters:
    with open(path) as f:
        lines = f.read().splitlines()
    if not lines or not lines[0].startswith("format "):
        raise ValidationError(f"{path}: missing checkpoint format line")
    version = int(lines[0].split()[1])
    if version != CHECKPOINT_VERSION:
        raise ValidationError(f"{path}: unsupported checkpoint format {version}")
    if len(lines) < 2 or not lines[1].startswith("spec "):
        raise ValidationError(f"{path}: missing spec line")
    kv = dict(item.split("=") for item in lines[1].split()[1:])
    spec = NetworkSpec(
        input_dim=int(kv["input_dim"]), num_layers=int(kv["num_layers"]),
        cells=int(kv["cells"]), projection_dim=int(kv["projection_dim"]),
        output_dim=int(kv["output_dim"]))
    shapes = param_shapes(spec)
    values: dict[str, np.ndarray] = {}
    pos = 2
    for name in param_names(spec):
        if pos >= len(lines):
            raise ValidationError(f"{path}: truncated before block {name}")
        parts = lines[pos].split()
        if len(parts) != 3 or parts[0] != name:
            raise ValidationError(f"{path}: expected block header for {name} at line {pos + 1}")
        rows, cols = int(parts[1]), int(parts[2])
        pos += 1
        data = np.array([[float(v) for v in lines[pos + r].split()] for r in range(rows)])
        pos += rows
        if data.shape != (rows, cols):
            raise ValidationError(f"{path}: block {name} has inconsistent shape")
        values[name] = data.reshape(shapes[name])
    return Parameters(spec, values)
