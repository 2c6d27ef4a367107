"""Learned right-hand sides and training through a fixed-step integrator.

A model is du/dt = A u + N(u), with A a circulant linear operator applied
through its Fourier symbol and N a term: a network, or the dealiased Burgers
advection of the true VBE and KSE, :class:`~stabnode.spectral.BurgersTerm`, the
one the ground-truth solvers step with, so the true RHS is a model too
(:class:`TrueRhs`).  A term answers ``width``, ``params()`` (its trainable
tensors, none for the advection), ``forward(u, buffers)`` (N at grid states,
into a network's buffers when given) and ``coefficient_tendency(shape)``,
which binds N on one-sided coefficients c = rfft(u) / d of batch shape
``shape`` once and returns ``tendency(coeffs, out)``, the calling convention
of the Burgers term's kernel.
Three learned variants differ only in A: none (the bare network), the true
operator held fixed, or a learned circular-convolution stencil.  States
advance with classical RK4; parameter gradients come from the discrete
adjoint, i.e. exact reverse-mode propagation through every RK4 stage, of a
network term.  Training minimizes the elementwise-mean L1 mismatch of
one-interval predictions with an adaptive-moment optimizer over the model's
parameter list, whose two groups, the term's and the linear branch's, follow
staged learning rates.

The adjoint tapes only the RK4 stage inputs and recomputes the network's
hidden layers at each stage.  Every array it writes lives in an
:class:`AdjointWorkspace`, which :func:`train` builds once per run, so an
epoch's gradient allocates no array of the batch's size.  Each operation
keeps the operands and order of the plain array expression it replaces, so
results keep their bits with or without a workspace.  There is one RK4
formula, :func:`_rk4_forward`, which folds the slopes' weighted sum as soon
as each slope is used, so a substep needs two slope arrays beside its stage
inputs.  The backward pass puts each stage cotangent in the tape slot its
stage input has vacated, so it needs none of its own.  The ROM steps through
it with a one-substep tape (:class:`Rk4Buffers`) that it reuses every step,
so it allocates no array either; :func:`integrate` runs it without a tape,
each operation into a fresh array.  Both return a row that diverged as
non-finite values; only the gradient raises DivergenceError, as training
cannot go on.

A gradient's independent work overlaps on a second thread, the workspace's
:class:`~stabnode.diffcore.Worker`, when the process may run on two CPUs or
more; on one CPU the same jobs run inline, in the same order.  Jobs pass to
the thread through a queue with no limit between joins.  Three kinds of job
run there while the caller runs the network:

- a forward stage's linear branch A x, joined before the stage adds N(x);
- a VJP's linear branch, the adjoint's image and the taps' cross-spectrum
  gradient, while the caller recomputes the hidden layers;
- each layer's weight and bias gradient, summed into the workspace's
  gradients, while the caller runs the input-cotangent chain.

A VJP's jobs are joined when the network's backward pass returns, before its
input cotangent takes the linear image.  Jobs split the work by task, never
by rows, so every result keeps its bits.  :func:`train` stops the thread when
it returns or raises.  Rollouts (:func:`integrate`) and the ROM stay serial,
on :data:`~stabnode.diffcore.INLINE`: their batches of 1-16 rows cannot pay
for a hand-off.
"""

from __future__ import annotations

import struct
import weakref
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import diffcore as dc
from .spectral import (SYSTEM_TAGS, ArtifactError, BurgersTerm, DivergenceError,
                       SnapshotDataset, apply_symbol, expect_end, irfft, linear_symbol,
                       march, read_exact, read_f8, read_sidecar, rfft, save_count,
                       tag_name)

VARIANT_TAGS = {"nonlinear": 0, "fixed-linear": 1, "learned-linear": 2}
VARIANT_NAMES = {v: k for k, v in VARIANT_TAGS.items()}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# elements per slice of an AdamState.update, the length of its two scratch rows
ADAM_CHUNK = 8192

# the RK4 amplification R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 has |R(z)| <= 1 on
# the negative real axis exactly for z >= -this, the real root of R(z) = 1
RK4_REAL_STABILITY_LIMIT = 2.785293563405282

OPT_STATE_MAGIC = b"SNOP"


@dataclass
class FixedSymbol:
    """A known linear operator, the circulant with one-sided symbol ``values``
    (k = 0..d/2), e.g. the true VBE/KSE operator; it has no parameters."""

    values: np.ndarray

    def symbol(self, d: int) -> np.ndarray:
        return self.values

    def params(self) -> list:
        return []


LINEAR_VARIANTS = {type(None): "nonlinear", FixedSymbol: "fixed-linear",
                   dc.ConvStencil: "learned-linear"}


@dataclass
class RhsModel:
    """du/dt = A u + N(u): ``term`` is N, a network
    (:class:`~stabnode.diffcore.MlpParams`) or the Burgers advection
    (:class:`~stabnode.spectral.BurgersTerm`), and ``linear`` is the circulant
    operator A, applied through its one-sided symbol (k = 0..d/2).

    ``linear`` is None for the bare network, a :class:`FixedSymbol` for the
    known operator, or a learned :class:`~stabnode.diffcore.ConvStencil`.  An
    operator answers ``symbol(d)`` and ``params()``; one whose params are not
    empty also answers ``symbol_vjp(cross, d)``, the map from the linear
    branch's cross-spectrum to their gradients.  Gradients
    (:func:`loss_gradient`) need a network term.

    For reduced-order models, a model with a linear branch answers
    ``linear_symbol()`` and ``tendency_kernel(shape)``, the term on
    coefficients bound once to a batch shape.
    """

    term: dc.MlpParams | BurgersTerm
    linear: FixedSymbol | dc.ConvStencil | None = None

    def __post_init__(self):
        if self.linear is not None:
            self.linear.symbol(self.width)  # raises for a stencil as wide as the grid

    @property
    def width(self) -> int:
        return self.term.width

    @property
    def variant(self) -> str:
        return LINEAR_VARIANTS[type(self.linear)]

    def parameters(self) -> list:
        """Trainable tensors in gradient and optimizer order: the term's
        (network weights, then biases), then the linear branch's."""
        params = self.term.params()
        if self.linear is not None:
            params += self.linear.params()
        return params

    def eval(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return self.rhs()[0](u, out)

    def rhs(self, workspace: AdjointWorkspace | None = None):
        """(f, symbol): du/dt = f(u, out), written into ``out`` when it is
        given, with the linear branch's symbol (None for the bare network)
        computed once, as the taps change only in the optimizer step; one
        integration or gradient calls this once.  The network's layers and the
        spectrum go into ``workspace`` when given, fresh arrays otherwise, and
        the linear branch is then a job on its worker, joined before the sum,
        while the caller runs the network."""
        buffers, spectrum, worker = None, None, dc.INLINE
        if workspace is not None:
            buffers, spectrum, worker = workspace.mlp, workspace.spectra[0], workspace.worker
        symbol = None if self.linear is None else self.linear_symbol()

        def f(u, out=None):
            if symbol is None:  # np.positive copies every bit, a zero's sign included
                net = self.term.forward(u, buffers)
                return net if out is None else np.positive(net, out=out)
            linear = np.empty(np.shape(u)) if out is None else out
            worker.submit(apply_symbol, symbol, u, linear, spectrum)
            net = self.term.forward(u, buffers)
            worker.join()
            return np.add(linear, net, out=linear)
        return f, symbol

    # ROM protocol: the linear symbol, and N on one-sided coefficients c = rfft(u) / d,
    # through a kernel bound once to its batch shape (the sweep's hot path) or
    # into fresh arrays
    def linear_symbol(self) -> np.ndarray:
        """One-sided symbol (k = 0..d/2) of the explicit linear branch."""
        if self.linear is None:
            raise ValueError("nonlinear variant has no separable linear term")
        return self.linear.symbol(self.width)

    def linear_apply(self, u: np.ndarray) -> np.ndarray:
        """A u, of one state or a batch, into fresh arrays."""
        return apply_symbol(self.linear_symbol(), u)

    def tendency_kernel(self, shape: tuple):
        """``N(c_p, lift)``: the term on coefficients c = c_p + lift, for
        real-view spectra (d + 2 slots) of batch shape ``shape``, as a float64
        view of an array the kernel keeps and overwrites on its next call.  Its
        argument and the term's :meth:`coefficient_tendency` are built here
        once; separable only beside a linear branch."""
        self.linear_symbol()  # raises for the bare network
        m = self.width // 2 + 1
        tendency = self.term.coefficient_tendency(shape)
        arg = np.empty(shape + (2 * m,))
        arg_c = arg.view(np.complex128)
        out = np.empty(shape + (m,), dtype=np.complex128)
        out_f = out.view(np.float64)

        def kernel(c_p: np.ndarray, lift) -> np.ndarray:
            np.add(c_p, lift, out=arg)
            tendency(arg_c, out)
            return out_f
        return kernel

    def nonlinear(self, c: np.ndarray) -> np.ndarray:
        """The term on coefficients, of one spectrum (d/2 + 1,) or a batch:
        :meth:`tendency_kernel` into fresh arrays."""
        c = np.ascontiguousarray(c, dtype=np.complex128)
        return self.tendency_kernel(c.shape[:-1])(c.view(np.float64), 0.0).view(np.complex128)


class Rk4Buffers:
    """The tape :func:`_rk4_forward` writes for states of ``shape``: the stage
    inputs x1..x4 of ``slots`` substeps (``stages[s]``) and two slope arrays
    (``k``), which alternate as slope and running weighted sum: k1 and k3 go
    into ``k[0]``, k2 and k4 into ``k[1]``, and k1 + 2 k2 into ``k[1]`` once x3
    is taken, then + 2 k3 into ``k[0]`` once x4 is.  The final state is
    ``k[1]``: the last substep's weighted slope sum is there, and adding x1 to
    it in place is the substep's last operation.

    The views a call writes are built here once, so a call makes none:
    ``start`` is the first substep's x1, and ``outputs[s]`` holds substep s's
    x2, x3 and x4, both slope arrays, and the next substep's x1 (``k[1]``
    after the last)."""

    def __init__(self, shape: tuple, slots: int):
        self.stages = np.empty((slots, 4, *shape))
        self.k = np.empty((2, *shape))
        self.start = self.stages[0, 0]
        self.outputs = [(*self.stages[s, 1:], *self.k,
                         self.stages[s + 1, 0] if s + 1 < slots else self.k[1])
                        for s in range(slots)]


class AdjointWorkspace:
    """Every array one :func:`loss_gradient` call writes, for batches of
    ``rows`` states, ``rollout_steps`` RK4 substeps and a model of ``model``'s
    shapes.

    It holds the RK4 stage-input tape and its two slope arrays (``rk4``), the
    network's :class:`~stabnode.diffcore.MlpBuffers`, two spectra, the
    adjoint state ``w`` and the parameter gradients, into which every stage's
    parts are added as they are computed.  The backward pass keeps no array
    of its own: the cotangent a VJP reads goes in ``rk4.k[0]``, gx4 in
    ``rk4.k[1]``, and gx3, gx2 and gx1 in the tape slots of x4, x3 and x2, each
    free once the VJP that read it has returned.  It never writes the
    network's output activation, so the linear branch's adjoint goes there.
    Each call overwrites what the previous one left, including the gradients
    it returned.

    It owns one :class:`~stabnode.diffcore.Worker` (``worker``), a second
    thread when the process may run on two CPUs or more, which runs three
    kinds of job while the caller runs the network, each on arrays the caller
    does not touch until it joins.  They pass to the thread through a queue
    with no limit between joins:

    - a forward stage's linear branch A x, from ``spectra[0]`` into the
      stage's slope, joined before the stage adds N(x) to it;
    - a VJP's linear branch, in both spectra: the adjoint's image into the
      network's output activation and the taps' gradient into ``grads``,
      while the caller recomputes the hidden layers;
    - each layer's weight and bias gradient, through ``mlp.parts`` into
      ``grads``, while the caller runs the input-cotangent chain.

    :func:`~stabnode.diffcore.mlp_backward` joins a VJP's jobs before it
    returns, and the VJP then adds the linear image to its input cotangent.
    Every operation keeps its operands and order, and one worker runs the
    jobs in turn, so the gradients keep their bits.  :meth:`close` stops the
    thread, as does collecting the workspace, and the workspace is a context
    manager that closes it on exit.

    Calls that share one allocate no array of the batch's size, but numpy
    (2.4) buffers a broadcast or dtype-casting operand through a temporary of
    up to 8192 elements: the bias add of every layer :func:`mlp_forward`
    computes, and relu's bool-by-float mask multiply in the backward pass.
    That is about 200 temporaries of up to 64 KB each (8192 float64s) per
    gradient of a batch of 256 through three relu layers of 200 over 5
    substeps.  The spectra's batch sum allocates one spectrum row.  The
    symbol's product with the spectra broadcasts too, through up to 8192
    complex128s, 128 KB, at numpy's default buffer; a worker thread runs it
    at numpy's smallest buffer, where it takes about 1 KB, so that it adds no
    batch-sized temporary to the caller's at the same moment.  Inline, on one
    CPU, its 128 KB temporary never coincides with one of the caller's.
    """

    def __init__(self, model: RhsModel, rows: int, rollout_steps: int):
        shape = (rows, model.width)
        self.rk4 = Rk4Buffers(shape, rollout_steps)
        self.mlp = dc.MlpBuffers(model.term, rows)
        self.spectra = np.empty((2, rows, model.width // 2 + 1), dtype=np.complex128)
        self.w = np.empty(shape)
        self.grads = [np.empty_like(p) for p in model.parameters()]
        self.worker = dc.Worker()
        weakref.finalize(self, self.worker.close)

    def close(self) -> None:
        self.worker.close()

    def __enter__(self) -> AdjointWorkspace:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def fits(self, model: RhsModel, rows: int, rollout_steps: int) -> bool:
        shapes = [p.shape for p in model.parameters()]
        return (self.w.shape == (rows, model.width)
                and self.rk4.stages.shape[0] == rollout_steps
                and [g.shape for g in self.grads] == shapes)


def _rhs_vjp(model: RhsModel, symbol, x: np.ndarray, cotangent: np.ndarray,
             grads: list, workspace: AdjointWorkspace, out: np.ndarray) -> np.ndarray:
    """Accumulate into ``grads`` (one array per model parameter); return the
    input cotangent, written into ``out``.  ``symbol`` is the linear branch's,
    from ``model.rhs()``.  The network is recomputed only up to its last hidden
    layer, as its backward pass never reads the output layer's activation.
    Intermediates go into ``workspace``, the linear branch's on its worker
    while the caller runs the network; ``cotangent`` is only read."""
    mlp, worker = model.term, workspace.worker
    n = 2 * mlp.n_layers
    # the output activation, which the recompute stops short of, takes the
    # linear branch's image
    linear = workspace.mlp.acts[-1]
    if symbol is not None:
        worker.submit(_linear_vjp, model.linear, symbol, x, cotangent, grads[n:],
                      workspace.spectra, linear)
    _, acts = dc.mlp_forward(mlp, x, mlp.n_layers - 1, workspace.mlp)
    dc.mlp_backward(mlp, acts, cotangent, workspace.mlp, grads[:n], out, worker)
    if symbol is not None:
        np.add(out, linear, out=out)
    return out


def _linear_vjp(linear, symbol, x, cotangent, sums, spectra, image) -> None:
    """The image of ``cotangent`` under the adjoint of the operator of
    ``symbol`` into ``image``, and the gradients of ``linear``'s parameters at
    states ``x`` added into ``sums``, working in the two ``spectra``."""
    d = x.shape[-1]
    g_hat, scratch = spectra
    rfft(cotangent, out=g_hat)
    # a real circulant's adjoint has the conjugate symbol
    irfft(np.multiply(np.conj(symbol), g_hat, out=scratch), d, out=image)
    if linear.params():
        x_hat = rfft(x, out=scratch)
        cross = np.multiply(np.conj(g_hat, out=g_hat), x_hat, out=x_hat)
        parts = linear.symbol_vjp(cross.reshape(-1, d // 2 + 1).sum(axis=0), d)
        for acc, g in zip(sums, parts):
            acc += g


def _rk4_forward(rhs, u, h: float, nsteps: int, tape: Rk4Buffers | None = None):
    """The state after ``nsteps`` classical RK4 steps of du/dt = rhs(u), where
    ``rhs(x, out)`` returns the slope at x, written into ``out`` unless it is
    None; ``u`` is only read, and may be the state the tape returned, its
    ``k[1]``.

    With a ``tape`` of ``nsteps`` slots every stage writes into it, and its
    ``stages`` then hold the stage inputs x1..x4 of every step for
    :func:`_rk4_backward`; without one each operation allocates its result.
    Nothing is checked: a row that overflows comes back non-finite, and stays
    so, as every step adds to its input.  Overflow on the way is the caller's
    to judge, so the caller sets numpy's error state, once for all its calls.
    """
    if tape is None:
        outputs = repeat((None,) * 6, nsteps)
    elif len(tape.outputs) != nsteps:
        raise ValueError(f"a tape of {len(tape.outputs)} slots for {nsteps} steps")
    else:
        outputs = tape.outputs
        np.copyto(tape.start, u)
        u = tape.start
    for x2_out, x3_out, x4_out, a, b, u_out in outputs:
        x1 = u
        # each operation keeps the operands and order of x1 + 0.5 * h * k1 and
        # x1 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), and the sum is
        # folded as soon as each slope is used, so a and b alternate as slope
        # and running sum
        k1 = rhs(x1, a)
        x2 = np.add(x1, np.multiply(0.5 * h, k1, out=x2_out), out=x2_out)
        k2 = rhs(x2, b)
        x3 = np.add(x1, np.multiply(0.5 * h, k2, out=x3_out), out=x3_out)
        total = np.add(k1, np.multiply(2.0, k2, out=b), out=b)
        k3 = rhs(x3, a)
        x4 = np.add(x1, np.multiply(h, k3, out=x4_out), out=x4_out)
        total = np.add(total, np.multiply(2.0, k3, out=a), out=a)
        k4 = rhs(x4, b)
        total = np.add(total, k4, out=b)
        u = np.add(x1, np.multiply(h / 6.0, total, out=b), out=u_out)
    return u


def _rk4_backward(model: RhsModel, symbol, h: float,
                  workspace: AdjointWorkspace) -> np.ndarray:
    """Propagate the adjoint state ``workspace.w``, which holds the cotangent of
    the final state on entry, back through the stages :func:`_rk4_forward`
    taped into ``workspace.rk4``, accumulating into ``workspace.grads``;
    returns w, the cotangent of the initial state.
    The cotangent each VJP reads goes in the first slope array and gx4 in the
    second, as the final state there is dead once the residual is taken; gx3,
    gx2 and gx1 go in the tape slots of x4, x3 and x2, each free once the VJP
    that read it has returned, its worker's jobs joined.  Each operation keeps
    the operands and order of (h / 3.0) * w + h * gx4 and
    w + gx1 + gx2 + gx3 + gx4."""
    w, grads = workspace.w, workspace.grads
    cot, gx4 = workspace.rk4.k

    def vjp(x, out):
        _rhs_vjp(model, symbol, x, cot, grads, workspace, out)

    for x1, x2, x3, x4 in reversed(workspace.rk4.stages):
        # a stage's cotangent slot is scratch from the return of the VJP that
        # read its stage input until its own VJP writes it
        gx1, gx2, gx3 = x2, x3, x4
        np.multiply(h / 6.0, w, out=cot)
        vjp(x4, gx4)
        np.add(np.multiply(h / 3.0, w, out=cot), np.multiply(h, gx4, out=gx3), out=cot)
        vjp(x3, gx3)
        np.add(np.multiply(h / 3.0, w, out=cot), np.multiply(0.5 * h, gx3, out=gx2),
               out=cot)
        vjp(x2, gx2)
        np.add(np.multiply(h / 6.0, w, out=cot), np.multiply(0.5 * h, gx2, out=gx1),
               out=cot)
        vjp(x1, gx1)
        for gx in (gx1, gx2, gx3, gx4):
            np.add(w, gx, out=w)
    return w


def integrate(model, u0: np.ndarray, horizon: float, nsteps: int):
    """Classical RK4 with fixed step horizon/nsteps, of one state or a batch.

    A row that diverges comes back non-finite, for the caller to judge; the
    other rows keep their bits.
    """
    if nsteps < 1:
        raise ValueError("nsteps must be at least 1")
    with np.errstate(over="ignore", invalid="ignore"):
        return _rk4_forward(model.rhs()[0], np.asarray(u0, dtype=np.float64),
                            horizon / nsteps, nsteps)


def min_stable_substeps(symbol: np.ndarray, tau: float) -> int:
    """Fewest RK4 substeps over ``tau`` that amplify no mode the real symbol
    damps: |R(h*sigma)| <= 1 for every sigma < 0, with h = tau / n and R the
    RK4 amplification polynomial, holds exactly when h*min(sigma) is at least
    -RK4_REAL_STABILITY_LIMIT."""
    return max(1, int(np.ceil(tau * -symbol.min() / RK4_REAL_STABILITY_LIMIT)))


def loss_gradient(model: RhsModel, u_start: np.ndarray, u_end: np.ndarray,
                  tau: float, rollout_steps: int,
                  workspace: AdjointWorkspace | None = None):
    """One-interval L1 loss and its discrete-adjoint parameter gradient.

    The L1 subgradient at exactly zero residual is taken as zero.  Returns
    (loss, grads), one gradient per ``model.parameters()`` entry in that
    order; gradients are means over the batch and grid, matching the loss
    normalization.  Every intermediate goes into ``workspace`` (built here
    when None), the gradients included, so they hold until the workspace's
    next call.  A non-finite prediction or loss raises DivergenceError (with
    ``time`` tau) before the backward pass, allocating nothing.

    ``u_start`` and ``u_end`` may be the workspace's own ``rk4.start`` and
    ``w``, into which a caller can gather a batch with no other copy: the tape
    then copies the start onto itself, and the residual overwrites the target
    element by element, so the loss and gradients keep their bits.  No other
    workspace array may be passed.
    """
    u_start = np.atleast_2d(np.asarray(u_start, dtype=np.float64))
    u_end = np.atleast_2d(np.asarray(u_end, dtype=np.float64))
    if u_start.shape != u_end.shape:
        raise ValueError("batch shapes do not match")
    if u_start.shape[0] == 0:
        raise ValueError("empty batch")
    if workspace is None:
        with AdjointWorkspace(model, u_start.shape[0], rollout_steps) as workspace:
            return loss_gradient(model, u_start, u_end, tau, rollout_steps, workspace)
    if not workspace.fits(model, u_start.shape[0], rollout_steps):
        raise ValueError("workspace was built for another model, batch size or "
                         "rollout_steps")
    h = tau / rollout_steps
    rhs, symbol = model.rhs(workspace)
    # a prediction that overflowed is judged by its loss, so no warning leaks
    with np.errstate(over="ignore", invalid="ignore"):
        pred = _rk4_forward(rhs, u_start, h, rollout_steps, workspace.rk4)
        residual = np.subtract(pred, u_end, out=workspace.w)
        loss = float(np.mean(np.abs(residual, out=workspace.rk4.k[0])))
    if not np.isfinite(loss):
        raise DivergenceError(f"the prediction over tau = {tau:g} went non-finite",
                              time=tau)
    # the cotangent sign(residual) / residual.size, in place: the adjoint state
    np.divide(np.sign(residual, out=residual), residual.size, out=residual)
    for grad in workspace.grads:
        grad.fill(0.0)
    _rk4_backward(model, symbol, h, workspace)
    return loss, list(workspace.grads)


def rollout(model, u0: np.ndarray, total_time: float, save_interval: float,
            steps_per_interval: int = 5):
    """Repeated integration of one state (d,) or a batch (n, d).

    Returns (times, states).  States are (n_save + 1, d) for one state and
    (n, n_save + 1, d) for a batch, with u0 as the first snapshot.  The batch
    marches together, one :func:`integrate` per save_interval (which must divide
    total_time); a row that goes non-finite reads +inf from that save on.
    """
    n_save = save_count(total_time, save_interval)
    u0 = np.asarray(u0, dtype=np.float64)
    states = march(lambda u, nsteps, rows: integrate(model, u, save_interval, nsteps),
                   np.atleast_2d(u0), n_save, steps_per_interval)
    return np.arange(n_save + 1) * save_interval, (states[0] if u0.ndim == 1 else states)


# training -----------------------------------------------------------------

@dataclass
class TrainConfig:
    epochs: int
    lr_nonlinear: tuple
    lr_linear: tuple = ()
    batch_size: int = 256
    rollout_steps: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be positive")
        if not self.lr_nonlinear:
            raise ValueError("nonlinear learning-rate stages must be nonempty")
        if min((*self.lr_nonlinear, *self.lr_linear)) < 0:  # it would ascend the loss
            raise ValueError(f"learning rates must be at least 0, got lr_nonlinear="
                             f"{self.lr_nonlinear} and lr_linear={self.lr_linear}")

    def stage(self, epoch: int, stages: tuple) -> int:
        return min(len(stages) - 1, epoch * len(stages) // self.epochs)

    def lrs_at(self, epoch: int) -> tuple:
        lr_nl = self.lr_nonlinear[self.stage(epoch, self.lr_nonlinear)]
        lr_lin = 0.0
        if self.lr_linear:
            lr_lin = self.lr_linear[self.stage(epoch, self.lr_linear)]
        return lr_nl, lr_lin


# staged learning rates (network, linear branch) for each (system, variant)
LEARNING_RATES = {
    ("vbe", "nonlinear"): ((1e-3, 1e-4, 1e-5), ()),
    ("vbe", "fixed-linear"): ((1e-3, 1e-4, 1e-5), ()),
    ("vbe", "learned-linear"): ((1e-3, 1e-4), (1e0, 1e-1, 1e-2)),
    ("kse", "nonlinear"): ((1e-3, 1e-4), ()),
    ("kse", "fixed-linear"): ((1e-3, 1e-4), ()),
    ("kse", "learned-linear"): ((1e-3, 1e-4), (1e0, 1e-1, 1e-2)),
}


class AdamState:
    """First/second moment accumulators, one pair per ``model.parameters()``
    tensor, and two scratch rows of ADAM_CHUNK elements, or of the largest
    tensor's when it is shorter."""

    def __init__(self, model: RhsModel):
        self.t = 0
        self.m = [np.zeros_like(p) for p in model.parameters()]
        self.v = [np.zeros_like(p) for p in model.parameters()]
        self._scratch = np.empty((2, min(ADAM_CHUNK, max(p.size for p in self.m))))

    def update(self, model: RhsModel, grads: list,
               lr_nonlinear: float, lr_linear: float) -> None:
        """One step in place, each operation with the operands and order of the
        array formulas, elementwise, so slice by slice over ADAM_CHUNK elements
        of the flattened tensors; the stencil taps take ``lr_linear``, the
        network the other.  A parameter must be C-contiguous, as it is updated
        through a flat view."""
        self.t += 1
        n_network = len(model.term.params())
        for i, tensors in enumerate(zip(model.parameters(), grads, self.m, self.v)):
            lr = lr_nonlinear if i < n_network else lr_linear
            if not tensors[0].flags.c_contiguous:
                raise ValueError(f"parameter {i} is not C-contiguous")
            param, grad, m, v = (x.reshape(-1) for x in tensors)
            for lo in range(0, param.size, ADAM_CHUNK):
                self._step(param[lo:lo + ADAM_CHUNK], grad[lo:lo + ADAM_CHUNK],
                           m[lo:lo + ADAM_CHUNK], v[lo:lo + ADAM_CHUNK], lr)

    def _step(self, param, grad, m, v, lr: float) -> None:
        a, b = self._scratch[:, :param.size]
        m *= ADAM_BETA1
        m += np.multiply(1.0 - ADAM_BETA1, grad, out=a)
        v *= ADAM_BETA2
        v += np.multiply(np.multiply(1.0 - ADAM_BETA2, grad, out=a), grad, out=a)
        step = np.multiply(lr, np.divide(m, 1.0 - ADAM_BETA1**self.t, out=a), out=a)
        root = np.sqrt(np.divide(v, 1.0 - ADAM_BETA2**self.t, out=b), out=b)
        param -= np.divide(step, np.add(root, ADAM_EPS, out=b), out=a)


@dataclass
class TrainResult:
    loss_history: list
    adam: AdamState


def train(model: RhsModel, dataset: SnapshotDataset, config: TrainConfig,
          start_epoch: int = 0, stop_epoch: int | None = None,
          adam: AdamState | None = None, on_epoch=None) -> TrainResult:
    """Minibatch training loop; one epoch = one optimizer step on one batch.

    Batches are drawn from a per-epoch RNG derived from (seed, epoch), and the
    stage schedule always partitions config.epochs, so a run interrupted at
    stop_epoch and resumed at start_epoch reproduces an uninterrupted one
    bit-for-bit given the saved optimizer state.

    After each epoch's update, ``on_epoch(epoch, loss, stage, lr_nonlinear,
    lr_linear, model, adam)`` is called with the epoch's index, its loss, its
    nonlinear learning-rate stage and rates, and the updated model and
    optimizer state; this is where a caller logs or checkpoints.  On
    divergence DivergenceError is raised before that epoch's update, so
    ``model`` and ``adam`` still hold the last good state.
    """
    if dataset.d != model.width:
        raise ValueError(f"dataset width {dataset.d} does not match model "
                         f"width {model.width}")
    if stop_epoch is None:
        stop_epoch = config.epochs
    snaps, starts = dataset.snapshots(), dataset.pair_starts()
    n_pairs = starts.shape[0]
    take = min(config.batch_size, n_pairs)
    if adam is None:
        adam = AdamState(model)
    history = []
    # every epoch's gradient reuses these arrays, and its batch is gathered into
    # the two inputs loss_gradient lets alias the workspace; its worker thread
    # stops when training returns or raises
    with AdjointWorkspace(model, take, config.rollout_steps) as workspace:
        u_start, u_end = workspace.rk4.start, workspace.w
        for epoch in range(start_epoch, stop_epoch):
            rng = np.random.default_rng([config.seed, epoch])
            rows = starts[rng.choice(n_pairs, size=take, replace=False)]
            lr_nl, lr_lin = config.lrs_at(epoch)
            np.take(snaps, rows, axis=0, out=u_start)
            np.take(snaps, np.add(rows, 1, out=rows), axis=0, out=u_end)
            try:
                loss, grads = loss_gradient(model, u_start, u_end, dataset.tau,
                                            config.rollout_steps, workspace)
            except DivergenceError as err:
                raise DivergenceError(f"training diverged at epoch {epoch}: {err}",
                                      time=err.time) from err
            adam.update(model, grads, lr_nl, lr_lin)
            history.append(loss)
            if on_epoch is not None:
                on_epoch(epoch, loss, config.stage(epoch, config.lr_nonlinear),
                         lr_nl, lr_lin, model, adam)
    return TrainResult(history, adam)


# true-physics operators ----------------------------------------------------

class TrueRhs(RhsModel):
    """The exact discrete RHS of ``system``: the true linear symbol beside the
    dealiased Burgers advection, so reduced-order modeling runs on the true
    equations without training."""

    def __init__(self, system: str, d: int, domain_length: float,
                 viscosity: float = 8e-4):
        super().__init__(BurgersTerm(d, domain_length),
                         FixedSymbol(linear_symbol(system, d, domain_length, viscosity)))


def build_model(variant: str, layer_sizes, activations, weight_init, seed: int,
                system: str | None = None, domain_length: float = 1.0,
                viscosity: float = 8e-4, stencil_width: int = 3,
                stencil_symmetric: bool = False,
                stencil_init=("normal", 0.0, 1.0)) -> RhsModel:
    """Assemble an RhsModel with seeded initialization.

    The nonlinear branch and the linear branch use independent seeded
    streams (seed, seed+1) so variants share MLP initializations.
    """
    mlp = dc.init_mlp(layer_sizes, activations, weight_init, seed)
    if variant == "nonlinear":
        return RhsModel(mlp)
    if variant == "fixed-linear":
        if system is None:
            raise ValueError("fixed-linear variant needs the system name")
        symbol = linear_symbol(system, layer_sizes[0], domain_length, viscosity)
        return RhsModel(mlp, FixedSymbol(symbol))
    if variant == "learned-linear":
        return RhsModel(mlp, dc.init_stencil(stencil_width, stencil_symmetric,
                                             stencil_init, seed + 1))
    raise ValueError(f"unknown variant {variant!r}")


# checkpoint / optimizer-state persistence ----------------------------------

def save_model(path, model: RhsModel, sidecar: dict | None = None) -> None:
    stencil = model.linear if model.variant == "learned-linear" else None
    dc.write_checkpoint(path, VARIANT_TAGS[model.variant], model.term, stencil,
                        sidecar=sidecar)


def load_model(path) -> RhsModel:
    """Load a checkpoint; fixed-linear models rebuild the symbol from the
    sidecar's physics.  A variant tag that contradicts the stencil block (a
    stencil exactly for learned-linear) is an ArtifactError."""
    tag, mlp, stencil = dc.read_checkpoint(path)
    variant = tag_name(VARIANT_NAMES, tag, path, "variant")
    if (variant == "learned-linear") != (stencil is not None):
        raise ArtifactError(f"{path}: variant tag {tag} ({variant}) "
                            f"{'with' if stencil else 'without'} a stencil")
    if variant == "fixed-linear":
        system, length, viscosity = checkpoint_physics(path)
        return RhsModel(mlp, FixedSymbol(linear_symbol(system, mlp.layer_sizes[0],
                                                       length, viscosity)))
    return RhsModel(mlp, stencil)


def checkpoint_physics(path):
    """(system, domain_length, viscosity) from a checkpoint's sidecar;
    viscosity 8e-4 when it is absent, ArtifactError when another is or when
    ``system`` is neither vbe nor kse."""
    meta = read_sidecar(f"{path}.txt", required=("system", "domain_length"))
    if meta["system"] not in SYSTEM_TAGS:
        raise ArtifactError(f"{path}.txt: system must be vbe or kse: {meta['system']!r}")
    return meta["system"], meta["domain_length"], meta.get("viscosity", 8e-4)


def _opt_tensors(adam: AdamState) -> list:
    """Moments in SNOP file order: m, v of the weights, of the biases, then of
    the taps (absent without a stencil)."""
    n = len(adam.m) // 2  # network layers; an odd length adds the taps
    groups = (slice(0, n), slice(n, 2 * n), slice(2 * n, None))
    return [t for g in groups for t in adam.m[g] + adam.v[g]]


def save_opt_state(path, adam: AdamState) -> None:
    with open(path, "wb") as fh:
        fh.write(OPT_STATE_MAGIC + struct.pack("<Q", adam.t))
        for t in _opt_tensors(adam):
            fh.write(np.asarray(t, dtype="<f8").tobytes())


def load_opt_state(path, model: RhsModel) -> AdamState:
    adam = AdamState(model)
    with open(path, "rb") as fh:
        if read_exact(fh, 4) != OPT_STATE_MAGIC:
            raise ArtifactError(f"{path}: not an optimizer-state file: bad magic")
        (adam.t,) = struct.unpack("<Q", read_exact(fh, 8))
        for t in _opt_tensors(adam):
            t[...] = read_f8(fh, t.size).reshape(t.shape)
        expect_end(fh)
    return adam
