"""Learned right-hand sides and training through a fixed-step integrator.

A model is du/dt = A u + N(u), with N a network and A a circulant linear
operator applied through its Fourier symbol.  Three variants differ only in
A: none (the bare network), the true operator held fixed, or a learned
circular-convolution stencil.  States advance with classical RK4; parameter
gradients come from the discrete adjoint, i.e. exact reverse-mode
propagation through every RK4 stage.  Training minimizes the
elementwise-mean L1 mismatch of one-interval predictions with an
adaptive-moment optimizer over the model's parameter list, whose two groups,
the network's and the linear branch's, follow staged learning rates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import diffcore as dc
from .spectral import (ArtifactError, DivergenceError, SnapshotDataset,
                       advection_symbols, apply_symbol, burgers_tendency, expect_end,
                       irfft, linear_symbol, march, read_exact, read_f8, read_sidecar,
                       rfft, save_count, tag_name)

VARIANT_TAGS = {"nonlinear": 0, "fixed-linear": 1, "learned-linear": 2}
VARIANT_NAMES = {v: k for k, v in VARIANT_TAGS.items()}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

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
    """du/dt = A u + N(u): the network ``mlp`` is N, and ``linear`` is the
    circulant operator A, applied through its one-sided symbol (k = 0..d/2).

    ``linear`` is None for the bare network, a :class:`FixedSymbol` for the
    known operator, or a learned :class:`~stabnode.diffcore.ConvStencil`.  An
    operator answers ``symbol(d)`` and ``params()``; one whose params are not
    empty also answers ``symbol_vjp(cross, d)``, the map from the linear
    branch's cross-spectrum to their gradients.
    """

    mlp: dc.MlpParams
    linear: FixedSymbol | dc.ConvStencil | None = None

    def __post_init__(self):
        if self.linear is not None:
            self.linear.symbol(self.width)  # raises for a stencil as wide as the grid

    @property
    def width(self) -> int:
        return self.mlp.layer_sizes[0]

    @property
    def variant(self) -> str:
        return LINEAR_VARIANTS[type(self.linear)]

    def parameters(self) -> list:
        """Trainable tensors in gradient and optimizer order: network weights,
        network biases, then the linear branch's parameters."""
        params = self.mlp.weights + self.mlp.biases
        if self.linear is not None:
            params += self.linear.params()
        return params

    def eval(self, u: np.ndarray) -> np.ndarray:
        return self.rhs()[0](u)

    def rhs(self):
        """(f, symbol): du/dt = f(u) with the linear branch's symbol (None for
        the bare network) computed once, as the taps change only in the
        optimizer step; one integration or gradient calls this once."""
        if self.linear is None:
            return (lambda u: dc.mlp_forward(self.mlp, u)[0]), None
        symbol = self.linear_symbol()
        return (lambda u: apply_symbol(symbol, u) + self.nonlinear(u)), symbol

    # ROM protocol ---------------------------------------------------------
    def linear_symbol(self) -> np.ndarray:
        """One-sided symbol (k = 0..d/2) of the explicit linear branch."""
        if self.linear is None:
            raise ValueError("nonlinear variant has no separable linear term")
        return self.linear.symbol(self.width)

    def nonlinear(self, u: np.ndarray) -> np.ndarray:
        """The network branch N(u), separable only beside a linear branch."""
        if self.linear is None:
            raise ValueError("nonlinear variant has no separable linear term")
        out, _ = dc.mlp_forward(self.mlp, u)
        return out


def _rhs_vjp(model: RhsModel, symbol, x: np.ndarray, cotangent: np.ndarray,
             grads: list) -> np.ndarray:
    """Accumulate into ``grads`` (one array per model parameter); return the
    input cotangent.  ``symbol`` is the linear branch's, from ``model.rhs()``."""
    _, acts = dc.mlp_forward(model.mlp, x)
    parts, gin = dc.mlp_backward(model.mlp, acts, cotangent)
    if symbol is not None:
        d = model.width
        g_hat = rfft(cotangent)
        # a real circulant's adjoint has the conjugate symbol
        gin = gin + irfft(np.conj(symbol) * g_hat, d)
        if model.linear.params():
            cross = (np.conj(g_hat) * rfft(x)).reshape(-1, d // 2 + 1).sum(axis=0)
            parts += model.linear.symbol_vjp(cross, d)
    for acc, g in zip(grads, parts):
        acc += g
    return gin


def _rk4_forward(rhs, u, h: float, nsteps: int, record: bool):
    """``nsteps`` classical RK4 steps of du/dt = rhs(u); with ``record`` also
    the stage inputs of every step, for :func:`_rk4_backward`."""
    stages = [] if record else None
    for step in range(nsteps):
        x1 = u
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = rhs(x1)
            x2 = x1 + 0.5 * h * k1
            k2 = rhs(x2)
            x3 = x1 + 0.5 * h * k2
            k3 = rhs(x3)
            x4 = x1 + h * k3
            k4 = rhs(x4)
            u = x1 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(u)):
            raise DivergenceError(f"integration diverged at substep {step}",
                                  step=step, time=(step + 1) * h)
        if record:
            stages.append((x1, x2, x3, x4))
    return u, stages


def _rk4_backward(model: RhsModel, symbol, stages, h: float,
                  cotangent: np.ndarray, grads: list) -> np.ndarray:
    w = cotangent
    for x1, x2, x3, x4 in reversed(stages):
        gx4 = _rhs_vjp(model, symbol, x4, (h / 6.0) * w, grads)
        gx3 = _rhs_vjp(model, symbol, x3, (h / 3.0) * w + h * gx4, grads)
        gx2 = _rhs_vjp(model, symbol, x2, (h / 3.0) * w + 0.5 * h * gx3, grads)
        gx1 = _rhs_vjp(model, symbol, x1, (h / 6.0) * w + 0.5 * h * gx2, grads)
        w = w + gx1 + gx2 + gx3 + gx4
    return w


def integrate(model, u0: np.ndarray, horizon: float, nsteps: int):
    """Classical RK4 with fixed step horizon/nsteps.

    Raises DivergenceError (with the substep index) on non-finite states.
    """
    if nsteps < 1:
        raise ValueError("nsteps must be at least 1")
    out, _ = _rk4_forward(model.rhs()[0], np.asarray(u0, dtype=np.float64),
                          horizon / nsteps, nsteps, record=False)
    return out


def min_stable_substeps(symbol: np.ndarray, tau: float) -> int:
    """Fewest RK4 substeps over ``tau`` that amplify no mode the real symbol
    damps: |R(h*sigma)| <= 1 for every sigma < 0, with h = tau / n and R the
    RK4 amplification polynomial, holds exactly when h*min(sigma) is at least
    -RK4_REAL_STABILITY_LIMIT."""
    return max(1, int(np.ceil(tau * -symbol.min() / RK4_REAL_STABILITY_LIMIT)))


def l1_loss(predicted: np.ndarray, target: np.ndarray) -> float:
    """Mean absolute difference over samples and grid points."""
    predicted = np.asarray(predicted)
    target = np.asarray(target)
    if predicted.shape != target.shape:
        raise ValueError("predicted/target shape mismatch")
    return float(np.mean(np.abs(predicted - target)))


def loss_gradient(model: RhsModel, u_start: np.ndarray, u_end: np.ndarray,
                  tau: float, rollout_steps: int):
    """One-interval L1 loss and its discrete-adjoint parameter gradient.

    The L1 subgradient at exactly zero residual is taken as zero.  Returns
    (loss, grads), one gradient per ``model.parameters()`` entry in that
    order; gradients are means over the batch and grid, matching the loss
    normalization.
    """
    u_start = np.atleast_2d(np.asarray(u_start, dtype=np.float64))
    u_end = np.atleast_2d(np.asarray(u_end, dtype=np.float64))
    if u_start.shape != u_end.shape:
        raise ValueError("batch shapes do not match")
    if u_start.shape[0] == 0:
        raise ValueError("empty batch")
    h = tau / rollout_steps
    rhs, symbol = model.rhs()
    pred, stages = _rk4_forward(rhs, u_start, h, rollout_steps, record=True)
    residual = pred - u_end
    loss = l1_loss(pred, u_end)
    cotangent = np.sign(residual) / residual.size
    grads = [np.zeros_like(p) for p in model.parameters()]
    _rk4_backward(model, symbol, stages, h, cotangent, grads)
    return loss, grads


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
    tensor."""

    def __init__(self, model: RhsModel):
        self.t = 0
        self.m = [np.zeros_like(p) for p in model.parameters()]
        self.v = [np.zeros_like(p) for p in model.parameters()]

    def update(self, model: RhsModel, grads: list,
               lr_nonlinear: float, lr_linear: float) -> None:
        """One step; the stencil taps take ``lr_linear``, the network the other."""
        self.t += 1
        n_network = 2 * model.mlp.n_layers
        for i, (param, grad, m, v) in enumerate(
                zip(model.parameters(), grads, self.m, self.v)):
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * grad
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * grad * grad
            mhat = m / (1.0 - ADAM_BETA1**self.t)
            vhat = v / (1.0 - ADAM_BETA2**self.t)
            lr = lr_nonlinear if i < n_network else lr_linear
            param -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


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
    u0_all, u1_all = dataset.pairs()
    n_pairs = u0_all.shape[0]
    if adam is None:
        adam = AdamState(model)
    history = []
    for epoch in range(start_epoch, stop_epoch):
        rng = np.random.default_rng([config.seed, epoch])
        take = min(config.batch_size, n_pairs)
        idx = rng.choice(n_pairs, size=take, replace=False)
        lr_nl, lr_lin = config.lrs_at(epoch)
        try:
            loss, grads = loss_gradient(model, u0_all[idx], u1_all[idx],
                                        dataset.tau, config.rollout_steps)
        except DivergenceError as err:
            raise DivergenceError(f"training diverged at epoch {epoch}: {err}",
                                  err.step, err.time) from err
        adam.update(model, grads, lr_nl, lr_lin)
        history.append(loss)
        if on_epoch is not None:
            on_epoch(epoch, loss, config.stage(epoch, config.lr_nonlinear),
                     lr_nl, lr_lin, model, adam)
    return TrainResult(history, adam)


# true-physics operators ----------------------------------------------------

class TrueRhs:
    """Exact discrete RHS: the true linear symbol plus the pseudospectral
    nonlinearity.

    Implements the same eval/linear_symbol/nonlinear protocol as RhsModel so
    reduced-order modeling can run on the true equations without training.
    """

    def __init__(self, system: str, d: int, domain_length: float,
                 viscosity: float = 8e-4):
        self.system = system
        self.width = d
        self.domain_length = domain_length
        self._symbol = linear_symbol(system, d, domain_length, viscosity)
        self._adv = advection_symbols(d, domain_length)

    def linear_symbol(self) -> np.ndarray:
        return self._symbol

    def rhs(self):
        """(eval, symbol), as :meth:`RhsModel.rhs`; the symbol is fixed."""
        return self.eval, self._symbol

    def nonlinear(self, u: np.ndarray) -> np.ndarray:
        d = self.width
        tendency = burgers_tendency(rfft(u) / d, *self._adv)
        return irfft(tendency * d, d)

    def linear_apply(self, u: np.ndarray) -> np.ndarray:
        return apply_symbol(self._symbol, u)

    def eval(self, u: np.ndarray) -> np.ndarray:
        return self.linear_apply(u) + self.nonlinear(u)


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
    dc.write_checkpoint(path, VARIANT_TAGS[model.variant], model.mlp, stencil,
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
    viscosity 8e-4 when it is absent, ArtifactError when another is."""
    meta = read_sidecar(f"{path}.txt", required=("system", "domain_length"))
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
            raise ArtifactError(f"{path}: not an optimizer-state file")
        (adam.t,) = struct.unpack("<Q", read_exact(fh, 8))
        for t in _opt_tensors(adam):
            t[...] = read_f8(fh, t.size).reshape(t.shape)
        expect_end(fh)
    return adam
