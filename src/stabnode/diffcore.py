"""Hand-rolled reverse-mode kernels for the two learned layer types.

Fully connected networks and circular-convolution stencils, each with exact
vector-Jacobian products for inputs and parameters.  Forward passes accept a
single state of length d or a batch shaped (n, d); parameter gradients are
accumulated (summed) over the batch, so callers fold any averaging into the
cotangent.  No computation graph: a forward call returns a one-shot tape that
its matching backward call consumes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .spectral import ArtifactError, expect_end, read_exact, read_f8

ACTIVATION_TAGS = {"relu": 0, "sigmoid": 1, "linear": 2}
ACTIVATION_NAMES = {v: k for k, v in ACTIVATION_TAGS.items()}

CHECKPOINT_MAGIC = b"SNCK"
CHECKPOINT_VERSION = 1


@dataclass
class MlpParams:
    """Weights/biases for an affine + activation chain.

    weights[i] has shape (layer_sizes[i], layer_sizes[i+1]); outputs are
    x @ W + b.  The final activation must be linear.
    """

    layer_sizes: list
    activations: list
    weights: list
    biases: list

    def __post_init__(self):
        n = len(self.layer_sizes) - 1
        if n < 1:
            raise ValueError("need at least one layer")
        if len(self.activations) != n:
            raise ValueError("one activation per layer required")
        if self.activations[-1] != "linear":
            raise ValueError("final layer activation must be linear")
        for act in self.activations:
            if act not in ACTIVATION_TAGS:
                raise ValueError(f"unknown activation {act!r}")
        if len(self.weights) != n or len(self.biases) != n:
            raise ValueError("weight/bias count must match layer count")
        for i in range(n):
            expect = (self.layer_sizes[i], self.layer_sizes[i + 1])
            if self.weights[i].shape != expect:
                raise ValueError(f"weight {i} has shape {self.weights[i].shape}, "
                                 f"expected {expect}")
            if self.biases[i].shape != (self.layer_sizes[i + 1],):
                raise ValueError(f"bias {i} shape mismatch")

    @property
    def n_layers(self) -> int:
        return len(self.weights)


@dataclass
class MlpGrads:
    weights: list
    biases: list


@dataclass
class ConvStencil:
    """Circular-correlation taps; symmetric means the operator is B + B^T."""

    taps: np.ndarray
    symmetric: bool = False

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.float64)
        if self.taps.ndim != 1 or self.taps.size % 2 == 0:
            raise ValueError("taps must be a 1-D array of odd length")

    @property
    def width(self) -> int:
        return self.taps.size

    def effective_taps(self) -> np.ndarray:
        if self.symmetric:
            return self.taps + self.taps[::-1]
        return self.taps


class MlpTape:
    """Retained activations from one forward call; single use."""

    def __init__(self, params, acts):
        self._params = params
        self._acts = acts
        self._used = False

    def consume(self, params):
        if self._used:
            raise RuntimeError("retained activations already consumed; "
                               "rerun the forward pass")
        if params is not self._params:
            raise RuntimeError("retained activations belong to different parameters")
        self._used = True
        return self._acts


def _activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        # exp of -|z| cannot overflow: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below
        e = np.exp(-np.abs(z))
        return np.where(z >= 0.0, 1.0, e) / (1.0 + e)
    return z


def _activation_grad(name, out):
    # derivative expressed through the layer output; relu'(0) := 0
    if name == "relu":
        return (out > 0.0).astype(np.float64)
    if name == "sigmoid":
        return out * (1.0 - out)
    return np.ones_like(out)


def mlp_forward(params: MlpParams, u: np.ndarray):
    """Evaluate the network; returns (output, tape) with tape for one backward."""
    u = np.asarray(u, dtype=np.float64)
    squeeze = u.ndim == 1
    a = u[None, :] if squeeze else u
    if a.shape[-1] != params.layer_sizes[0]:
        raise ValueError(f"input width {a.shape[-1]} does not match first layer "
                         f"size {params.layer_sizes[0]}")
    acts = [a]
    for w, b, act in zip(params.weights, params.biases, params.activations):
        a = _activate(act, a @ w + b)
        acts.append(a)
    out = acts[-1][0] if squeeze else acts[-1]
    return out, MlpTape(params, acts)


def mlp_backward(params: MlpParams, tape: MlpTape, cotangent: np.ndarray):
    """Exact VJP: returns (MlpGrads summed over batch, input cotangent)."""
    acts = tape.consume(params)
    g = np.asarray(cotangent, dtype=np.float64)
    squeeze = g.ndim == 1
    if squeeze:
        g = g[None, :]
    if g.shape != acts[-1].shape:
        raise ValueError("cotangent shape does not match forward output")
    grad_w = [None] * params.n_layers
    grad_b = [None] * params.n_layers
    for i in range(params.n_layers - 1, -1, -1):
        gz = g * _activation_grad(params.activations[i], acts[i + 1])
        grad_w[i] = acts[i].T @ gz
        grad_b[i] = gz.sum(axis=0)
        g = gz @ params.weights[i].T
    return MlpGrads(grad_w, grad_b), (g[0] if squeeze else g)


def conv_apply(stencil: ConvStencil, u: np.ndarray) -> np.ndarray:
    """Circular correlation out_j = sum_m taps_eff[m] u[(j+m) mod d]."""
    u = np.asarray(u, dtype=np.float64)
    d = u.shape[-1]
    if stencil.width >= d:
        raise ValueError("stencil width must be smaller than the grid")
    teff = stencil.effective_taps()
    c = stencil.width // 2
    out = np.zeros_like(u)
    for m in range(-c, c + 1):
        out += teff[m + c] * np.roll(u, -m, axis=-1)
    return out


def conv_backward(stencil: ConvStencil, u: np.ndarray, cotangent: np.ndarray):
    """Exact VJP; returns (tap gradient, input cotangent).

    The input cotangent is correlation with the reversed effective taps; the
    tap gradient folds the symmetrization chain rule when the stencil is
    symmetric.
    """
    u = np.asarray(u, dtype=np.float64)
    g = np.asarray(cotangent, dtype=np.float64)
    if g.shape != u.shape:
        raise ValueError("cotangent shape does not match input")
    teff = stencil.effective_taps()
    c = stencil.width // 2
    grad_in = np.zeros_like(g)
    grad_teff = np.empty(stencil.width)
    for m in range(-c, c + 1):
        grad_in += teff[m + c] * np.roll(g, m, axis=-1)
        grad_teff[m + c] = np.sum(g * np.roll(u, -m, axis=-1))
    if stencil.symmetric:
        grad_taps = grad_teff + grad_teff[::-1]
    else:
        grad_taps = grad_teff
    return grad_taps, grad_in


def circulant_from_taps(taps: np.ndarray, d: int) -> np.ndarray:
    """Dense circulant whose action equals correlation with centered taps."""
    taps = np.asarray(taps, dtype=np.float64)
    w = taps.size
    c = w // 2
    mat = np.zeros((d, d))
    for m in range(-c, c + 1):
        idx = np.arange(d)
        mat[idx, (idx + m) % d] = taps[m + c]
    return mat


def stencil_to_matrix(stencil: ConvStencil, d: int) -> np.ndarray:
    """Dense symmetric circulant of the effective operator (ROM entry point)."""
    if not stencil.symmetric:
        raise ValueError("stencil_to_matrix requires the symmetric flag")
    if stencil.width >= d:
        raise ValueError("stencil width must be smaller than the grid")
    return circulant_from_taps(stencil.effective_taps(), d)


def _draw(rng, dist, shape):
    kind = dist[0]
    if kind == "normal":
        _, mean, var = dist
        return rng.normal(mean, np.sqrt(var), size=shape)
    if kind == "uniform":
        _, lo, hi = dist
        return rng.uniform(lo, hi, size=shape)
    raise ValueError(f"unknown init distribution {dist!r}")


def init_mlp(layer_sizes, activations, weight_init, seed) -> MlpParams:
    """Seeded weight init; biases start at zero."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(_draw(rng, weight_init, (n_in, n_out)))
        biases.append(np.zeros(n_out))
    return MlpParams(list(layer_sizes), list(activations), weights, biases)


def init_stencil(width, symmetric, weight_init, seed) -> ConvStencil:
    rng = np.random.default_rng(seed)
    return ConvStencil(_draw(rng, weight_init, (width,)), symmetric)


def write_checkpoint(path, variant_tag: int, mlp: MlpParams,
                     stencil: ConvStencil | None, sidecar: dict | None = None) -> None:
    """Little-endian checkpoint (magic SNCK): shape table then flat f64 payload."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<IB", CHECKPOINT_VERSION, variant_tag)]
    parts.append(struct.pack("<I", len(mlp.layer_sizes)))
    parts.append(struct.pack(f"<{len(mlp.layer_sizes)}I", *mlp.layer_sizes))
    parts.append(bytes(ACTIVATION_TAGS[a] for a in mlp.activations))
    if stencil is None:
        parts.append(struct.pack("<IB", 0, 0))
    else:
        parts.append(struct.pack("<IB", stencil.width, int(stencil.symmetric)))
    for w, b in zip(mlp.weights, mlp.biases):
        parts.append(w.astype("<f8").tobytes())
        parts.append(b.astype("<f8").tobytes())
    if stencil is not None:
        parts.append(stencil.taps.astype("<f8").tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(parts))
    if sidecar is not None:
        lines = [f"{k}={sidecar[k]}" for k in sorted(sidecar)]
        with open(f"{path}.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")


def read_checkpoint(path):
    """Returns (variant_tag, MlpParams, ConvStencil or None)."""
    with open(path, "rb") as fh:
        if read_exact(fh, 4) != CHECKPOINT_MAGIC:
            raise ArtifactError(f"{path}: not a checkpoint file: bad magic")
        version, variant_tag = struct.unpack("<IB", read_exact(fh, 5))
        if version != CHECKPOINT_VERSION:
            raise ArtifactError(f"{path}: unsupported checkpoint version {version}")
        (n_sizes,) = struct.unpack("<I", read_exact(fh, 4))
        sizes = list(struct.unpack(f"<{n_sizes}I", read_exact(fh, 4 * n_sizes)))
        acts = [ACTIVATION_NAMES[t] for t in read_exact(fh, n_sizes - 1)]
        width, symmetric = struct.unpack("<IB", read_exact(fh, 5))
        weights, biases = [], []
        for n_in, n_out in zip(sizes[:-1], sizes[1:]):
            weights.append(read_f8(fh, n_in * n_out).reshape(n_in, n_out))
            biases.append(read_f8(fh, n_out))
        stencil = None
        if width:
            stencil = ConvStencil(read_f8(fh, width), bool(symmetric))
        expect_end(fh)
    return variant_tag, MlpParams(sizes, acts, weights, biases), stencil
