"""Hand-rolled reverse-mode kernels for the two learned layer types.

Fully connected networks, with exact vector-Jacobian products for inputs and
parameters, and circular-convolution stencils, held as their Fourier symbol
(:meth:`ConvStencil.symbol`) with the tap gradient as one inverse FFT of a
cross-spectrum (:meth:`ConvStencil.symbol_vjp`).  Forward passes accept a
single state of length d or a batch shaped (n, d); parameter gradients are
accumulated (summed) over the batch, so callers fold any averaging into the
cotangent.

No computation graph: a forward call returns the layer activations, which
its matching backward call takes, and the backward pass never reads the
output layer's, so a forward run only to feed it can stop after the last
hidden layer.  Each pass writes into an :class:`MlpBuffers` when given one,
and then allocates no result array; without one it runs the same operations
into fresh arrays, with the same bits.

A :class:`Worker` runs jobs on a second thread, in the order they are handed
over through a queue with no limit between joins, so that
:func:`mlp_backward` can sum each layer's weight gradient there while the
caller runs the input-cotangent chain; :data:`INLINE` runs them as they are
submitted.  Jobs are split by task, never by rows, so every array is computed
by the operations that compute it inline, in the same order, with the same
bits.
"""

from __future__ import annotations

import os
import queue
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .spectral import (ArtifactError, expect_end, irfft, read_exact, read_f8, rfft,
                       tag_name, write_sidecar)

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

    # the nonlinear-term protocol of neural_ode.RhsModel
    @property
    def width(self) -> int:
        return self.layer_sizes[0]

    def params(self) -> list:
        """The trainable tensors: the weights, then the biases."""
        return self.weights + self.biases

    def forward(self, u: np.ndarray, buffers: MlpBuffers | None = None) -> np.ndarray:
        """The network's output at grid states ``u``, into ``buffers`` when given."""
        return mlp_forward(self, u, buffers=buffers)[0]

    def coefficient_tendency(self, shape: tuple):
        """``tendency(coeffs, out)``: rfft(N(irfft(coeffs d))) / d of one-sided
        spectra of batch shape ``shape``, written into ``out`` and returned,
        through a grid and network buffers bound here once; ``out`` holds the
        spectrum coeffs d on the way."""
        d = self.width
        grid = np.empty(shape + (d,))
        buffers = MlpBuffers(self, int(np.prod(shape)))

        def tendency(coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
            u = irfft(np.multiply(coeffs, d, out=out), d, out=grid)
            return rfft(mlp_forward(self, u, buffers=buffers)[0], out=out, scale=1.0 / d)
        return tendency


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

    def symbol(self, d: int) -> np.ndarray:
        """Eigenvalue of the operator on a d-point grid for k = 0..d/2.

        The DFT sum_m taps_eff[m] exp(2*pi*i*k*m/d) of the effective taps,
        summed in +m/-m pairs so a symmetric stencil gives an exactly real
        symbol.
        """
        if self.width >= d:
            raise ValueError("stencil width must be smaller than the grid")
        teff = self.effective_taps()
        c = self.width // 2
        m = np.arange(1, c + 1)
        theta = 2.0 * np.pi * np.outer(np.arange(d // 2 + 1), m) / d
        even = np.cos(theta) @ (teff[c + m] + teff[c - m])
        odd = np.sin(theta) @ (teff[c + m] - teff[c - m])
        return teff[c] + even + 1j * odd

    def params(self) -> list:
        """The trainable tensors: the taps."""
        return [self.taps]

    def symbol_vjp(self, cross: np.ndarray, d: int) -> list:
        """Tap gradient, one array per :meth:`params` entry, from the
        batch-summed cross-spectrum ``cross`` = sum conj(rfft(g)) * rfft(u) of
        the operator's inputs u and their output cotangents g on a d-point grid.

        One inverse transform gives the circular cross-correlation
        sum_j g_j u[(j+m) mod d], read at offsets m = -c..c; it is folded by the
        symmetrization chain rule when the stencil is symmetric.
        """
        c = self.width // 2
        grad = irfft(cross, d)[np.arange(-c, c + 1)]
        return [grad + grad[::-1] if self.symmetric else grad]


class MlpBuffers:
    """The arrays :func:`mlp_forward` and :func:`mlp_backward` write, for
    batches of ``rows`` states through the network ``params``.

    ``acts[i]`` receives layer i's output and ``cot[i]`` the cotangent at
    hidden layer i's output; the cotangent at the network's input goes into
    the caller's array.  ``mask[i]`` is hidden layer i's activation mask, None
    for a linear layer, and ``scratch[i]`` its sigmoid temporary, None unless
    the layer is a sigmoid.  ``parts[i]`` receives layer i's weight then bias
    gradient on their way into the caller's sums; the pairs are views of one
    weight row and one bias row as long as the largest layer's.  The layers
    share them because their gradients are computed one after another, inline
    or as :func:`mlp_backward`'s jobs, which one :class:`Worker` runs in order
    while the caller writes only ``cot``, ``mask``, ``scratch`` and the input
    cotangent.

    Passes that share these arrays allocate no result array; numpy still
    buffers a broadcast or cast operand (the bias add, relu's mask multiply)
    through a temporary of up to 8192 elements.  Each pass overwrites what the
    previous one left.
    """

    def __init__(self, params: MlpParams, rows: int):
        pairs = list(zip(params.layer_sizes[:-1], params.layer_sizes[1:]))
        hidden = list(zip(params.activations, pairs))[:-1]
        self.acts = [np.empty((rows, n_out)) for _, n_out in pairs]
        self.cot = [np.empty((rows, n_out)) for _, (_, n_out) in hidden]
        self.scratch = [np.empty((rows, n_out)) if act == "sigmoid" else None
                        for act, (_, n_out) in hidden]
        self.mask = [None if act == "linear" else np.empty((rows, n_out), dtype=bool)
                     for act, (_, n_out) in hidden]
        weight = np.empty(max(n_in * n_out for n_in, n_out in pairs))
        bias = np.empty(max(n_out for _, n_out in pairs))
        self.parts = [(weight[:n_in * n_out].reshape(n_in, n_out), bias[:n_out])
                      for n_in, n_out in pairs]


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class Worker:
    """Runs ``job(*args)`` for each :meth:`submit`, in the order submitted, on a
    thread of its own when ``threaded`` and the process may run on two CPUs or
    more; otherwise each job runs inline as it is submitted.  Jobs pass to the
    thread through a queue, with no limit on how many wait between joins, and
    their outcomes come back through a second one: :meth:`join` takes one per
    job submitted and raises the first exception one of them raised.

    A job runs under the numpy error state of the thread that submitted it
    (which is per thread), so a stage that ignores overflow ignores it in its
    jobs too.  The thread runs its jobs at numpy's smallest ufunc buffer: a
    broadcast operand, such as a symbol applied to every row, then costs no
    batch-sized temporary beside the submitting thread's own, and elementwise
    results and sums over a batch's rows keep their bits at any buffer size.
    One thread submits and joins.  :meth:`close` stops the thread once the
    jobs submitted have run; later jobs run inline.
    """

    def __init__(self, threaded: bool = True):
        self._thread = None
        self._pending = 0
        if threaded and _usable_cpus() >= 2:
            self._jobs, self._results = queue.SimpleQueue(), queue.SimpleQueue()
            self._thread = threading.Thread(target=self._serve, name="stabnode-worker",
                                            daemon=True)
            self._thread.start()

    @property
    def threaded(self) -> bool:
        return self._thread is not None

    def submit(self, job, *args) -> None:
        if self._thread is None:
            job(*args)
            return
        self._jobs.put((job, args, np.geterr()))
        self._pending += 1

    def join(self) -> None:
        errors = [self._results.get() for _ in range(self._pending)]
        self._pending = 0
        for error in errors:
            if error is not None:
                raise error

    def close(self) -> None:
        thread, self._thread = self._thread, None
        if thread is None:
            return
        self._jobs.put(None)
        if thread is not threading.current_thread():
            thread.join()
        self._pending = 0

    def _serve(self) -> None:
        np.setbufsize(16)
        while (call := self._jobs.get()) is not None:
            job, args, errstate = call
            try:
                with np.errstate(**errstate):
                    job(*args)
            except Exception as err:  # raised in the submitting thread by join
                self._results.put(err)
            else:
                self._results.put(None)


# runs every job as it is submitted, for the calls made without a worker of their own
INLINE = Worker(threaded=False)


def _temps(buffers: MlpBuffers | None, i: int) -> tuple:
    """Hidden layer i's (scratch, mask) from ``buffers``; none for the final
    layer, which is linear, or without buffers."""
    if buffers is None or i >= len(buffers.mask):
        return ()
    return buffers.scratch[i], buffers.mask[i]


def _activate(name, z, scratch=None, mask=None):
    """The activation applied to ``z`` in place; sigmoid writes its temporaries
    into ``scratch`` and ``mask``, fresh arrays when they are None."""
    if name == "relu":
        return np.maximum(z, 0.0, out=z)
    if name == "sigmoid":
        # exp of -|z| cannot overflow: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below
        mask = np.greater_equal(z, 0.0, out=mask)
        e = np.abs(z, out=scratch)
        np.exp(np.negative(e, out=e), out=e)
        np.copyto(z, e)
        np.copyto(z, 1.0, where=mask)
        return np.divide(z, np.add(1.0, e, out=e), out=z)
    return z


def _scale_by_activation_grad(name, g, out, scratch=None, mask=None):
    """g times the derivative of relu or sigmoid, expressed through the layer
    output ``out``, in place into ``g``; relu'(0) := 0."""
    if name == "relu":
        return np.multiply(g, np.greater(out, 0.0, out=mask), out=g)
    slope = np.subtract(1.0, out, out=scratch)
    return np.multiply(g, np.multiply(out, slope, out=slope), out=g)


def mlp_forward(params: MlpParams, u: np.ndarray, layers: int | None = None,
                buffers: MlpBuffers | None = None):
    """Evaluate the network, or its first ``layers`` layers; returns (output,
    activations) where activations lists the input and every computed layer
    output, as (n, width) arrays, and output is the last of them.  Layer
    outputs go into ``buffers`` when given, fresh arrays otherwise."""
    u = np.asarray(u, dtype=np.float64)
    squeeze = u.ndim == 1
    a = u[None, :] if squeeze else u
    if a.shape[-1] != params.layer_sizes[0]:
        raise ValueError(f"input width {a.shape[-1]} does not match first layer "
                         f"size {params.layer_sizes[0]}")
    n = params.n_layers if layers is None else layers
    acts = [a]
    for i in range(n):
        z = np.matmul(a, params.weights[i],
                      out=None if buffers is None else buffers.acts[i])
        np.add(z, params.biases[i], out=z)
        a = _activate(params.activations[i], z, *_temps(buffers, i))
        acts.append(a)
    out = acts[-1][0] if squeeze else acts[-1]
    return out, acts


def _add_weight_gradient(a, gz, weight, bias, weight_sum, bias_sum) -> None:
    """One layer's weight gradient a^T gz and bias gradient, gz summed over the
    batch, added into ``weight_sum`` and ``bias_sum`` through ``weight`` and
    ``bias``, fresh arrays when they are None."""
    weight_sum += np.matmul(a.T, gz, out=weight)
    bias_sum += np.sum(gz, axis=0, out=bias)


def mlp_backward(params: MlpParams, acts: list, cotangent: np.ndarray,
                 buffers: MlpBuffers | None = None, sums: list | None = None,
                 out: np.ndarray | None = None, worker: Worker = INLINE):
    """Exact VJP at the activations :func:`mlp_forward` returned, with or
    without the output layer's (the backward pass never reads it): returns
    (grads, input cotangent); grads lists the weight gradients, then the bias
    gradients, each summed over the batch.

    With ``sums`` (arrays in that order), each layer's gradient pair is added
    into them as soon as it is computed, through ``buffers.parts`` when given,
    and ``sums`` is returned as grads; without it they are fresh arrays.  With
    ``sums`` and a ``worker``, each layer's pair is a job on the worker, which
    reads that layer's input activation and the cotangent at its
    pre-activation while the caller computes the next cotangent from the same
    operands; the worker runs the layers in order, so they share
    ``buffers.parts``, and it is joined before this returns.  The input
    cotangent goes into ``out`` when given, the hidden layers' into
    ``buffers``, fresh arrays otherwise; ``cotangent`` is only read."""
    n_layers = params.n_layers
    if (len(acts) not in (n_layers, n_layers + 1)
            or [a.shape[-1] for a in acts] != list(params.layer_sizes[:len(acts)])):
        raise ValueError("activations do not come from a network of these layer sizes")
    g = np.asarray(cotangent, dtype=np.float64)
    squeeze = g.ndim == 1
    if squeeze:
        g = g[None, :]
    if g.shape != (acts[0].shape[0], params.layer_sizes[-1]):
        raise ValueError("cotangent shape does not match forward output")
    grads = [None] * (2 * n_layers) if sums is None else sums
    for i in range(n_layers - 1, -1, -1):
        act = params.activations[i]
        # the final layer is linear and passes the caller's cotangent through
        # unchanged; a hidden layer's g is the previous iteration's product
        gz = g
        if act != "linear":
            gz = _scale_by_activation_grad(act, g, acts[i + 1], *_temps(buffers, i))
        if sums is None:
            grads[i], grads[n_layers + i] = np.matmul(acts[i].T, gz), np.sum(gz, axis=0)
        else:
            parts = (None, None) if buffers is None else buffers.parts[i]
            worker.submit(_add_weight_gradient, acts[i], gz, *parts, sums[i],
                          sums[n_layers + i])
        g_out = out if i == 0 else (None if buffers is None else buffers.cot[i - 1])
        g = np.matmul(gz, params.weights[i].T, out=g_out)
    worker.join()
    return grads, (g[0] if squeeze else g)


def _draw(rng, dist, shape):
    kind = dist[0]
    if kind == "normal":
        _, mean, var = dist
        if var < 0:
            raise ValueError(f"normal init variance must be at least 0, got {var}")
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
        write_sidecar(f"{path}.txt", sidecar)


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
        acts = [tag_name(ACTIVATION_NAMES, t, path, "activation")
                for t in read_exact(fh, n_sizes - 1)]
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
