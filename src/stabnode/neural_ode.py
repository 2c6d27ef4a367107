"""Learned right-hand sides and training through a fixed-step integrator.

Three RHS variants: a bare nonlinear network, a nonlinear network plus the
true (fixed) linear operator, and a nonlinear network plus a learned
circular-convolution operator.  States advance with classical RK4;
parameter gradients come from the discrete adjoint, i.e. exact
reverse-mode propagation through every RK4 stage.  Training minimizes the
elementwise-mean L1 mismatch of one-interval predictions with an
adaptive-moment optimizer whose two parameter groups (nonlinear branch,
linear branch) follow staged learning rates.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import diffcore as dc
from .spectral import (ArtifactError, SnapshotDataset, advection_symbols, burgers_tendency,
                       expect_end, read_exact, read_f8, wavenumber_indices)

VARIANT_TAGS = {"nonlinear": 0, "fixed-linear": 1, "learned-linear": 2}
VARIANT_NAMES = {v: k for k, v in VARIANT_TAGS.items()}

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

OPT_STATE_MAGIC = b"SNOP"


class DivergenceError(RuntimeError):
    """RK4 produced a non-finite state."""

    def __init__(self, message, step=None, time=None, last_state=None):
        super().__init__(message)
        self.step = step
        self.time = time
        self.last_state = last_state


class TrainingDiverged(RuntimeError):
    def __init__(self, message, epoch, history):
        super().__init__(message)
        self.epoch = epoch
        self.history = history


@dataclass
class RhsModel:
    """du/dt model: optional explicit linear branch plus a network branch."""

    variant: str
    mlp: dc.MlpParams
    fixed_matrix: np.ndarray | None = None
    stencil: dc.ConvStencil | None = None

    def __post_init__(self):
        if self.variant not in VARIANT_TAGS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.variant == "fixed-linear" and self.fixed_matrix is None:
            raise ValueError("fixed-linear variant requires fixed_matrix")
        if self.variant == "learned-linear" and self.stencil is None:
            raise ValueError("learned-linear variant requires a stencil")
        if self.variant != "fixed-linear" and self.fixed_matrix is not None:
            raise ValueError("fixed_matrix only belongs to the fixed-linear variant")
        if self.variant != "learned-linear" and self.stencil is not None:
            raise ValueError("stencil only belongs to the learned-linear variant")

    @property
    def width(self) -> int:
        return self.mlp.layer_sizes[0]

    def linear_apply(self, u: np.ndarray) -> np.ndarray:
        if self.variant == "fixed-linear":
            return u @ self.fixed_matrix.T
        if self.variant == "learned-linear":
            return dc.conv_apply(self.stencil, u)
        return np.zeros_like(u)

    def nonlinear_apply(self, u: np.ndarray) -> np.ndarray:
        out, _ = dc.mlp_forward(self.mlp, u)
        return out

    def eval(self, u: np.ndarray) -> np.ndarray:
        if self.variant == "nonlinear":
            return self.nonlinear_apply(u)
        return self.linear_apply(u) + self.nonlinear_apply(u)

    # ROM protocol ---------------------------------------------------------
    def linear_matrix(self) -> np.ndarray:
        """Dense matrix of the explicit linear branch."""
        if self.variant == "fixed-linear":
            return self.fixed_matrix
        if self.variant == "learned-linear":
            return dc.circulant_from_taps(self.stencil.effective_taps(),
                                          self.width)
        raise ValueError("nonlinear variant has no separable linear term")

    def nonlinear(self, u: np.ndarray) -> np.ndarray:
        if self.variant == "nonlinear":
            raise ValueError("nonlinear variant has no separable linear term")
        return self.nonlinear_apply(u)


def rhs_eval(model, u: np.ndarray) -> np.ndarray:
    return model.eval(np.asarray(u, dtype=np.float64))


@dataclass
class ModelGrads:
    """Gradient tree congruent with RhsModel's trainable parameters."""

    mlp: dc.MlpGrads
    taps: np.ndarray | None

    @classmethod
    def zeros(cls, model: RhsModel) -> "ModelGrads":
        mlp = dc.MlpGrads([np.zeros_like(w) for w in model.mlp.weights],
                          [np.zeros_like(b) for b in model.mlp.biases])
        taps = None
        if model.variant == "learned-linear":
            taps = np.zeros_like(model.stencil.taps)
        return cls(mlp, taps)

    def add_mlp(self, grads: dc.MlpGrads) -> None:
        for acc, g in zip(self.mlp.weights, grads.weights):
            acc += g
        for acc, g in zip(self.mlp.biases, grads.biases):
            acc += g

    def dot(self, other: "ModelGrads") -> float:
        total = sum(np.sum(a * b) for a, b in zip(self.mlp.weights, other.mlp.weights))
        total += sum(np.sum(a * b) for a, b in zip(self.mlp.biases, other.mlp.biases))
        if self.taps is not None:
            total += np.sum(self.taps * other.taps)
        return float(total)


def _rhs_vjp(model: RhsModel, x: np.ndarray, cotangent: np.ndarray,
             grads: ModelGrads) -> np.ndarray:
    """Accumulate parameter gradients; return the input cotangent."""
    _, tape = dc.mlp_forward(model.mlp, x)
    mlp_grads, gin = dc.mlp_backward(model.mlp, tape, cotangent)
    grads.add_mlp(mlp_grads)
    if model.variant == "fixed-linear":
        gin = gin + cotangent @ model.fixed_matrix
    elif model.variant == "learned-linear":
        tap_g, lin_gin = dc.conv_backward(model.stencil, x, cotangent)
        grads.taps += tap_g
        gin = gin + lin_gin
    return gin


def _rk4_forward(model, u, h: float, nsteps: int, record: bool):
    stages = [] if record else None
    for step in range(nsteps):
        x1 = u
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = model.eval(x1)
            x2 = x1 + 0.5 * h * k1
            k2 = model.eval(x2)
            x3 = x1 + 0.5 * h * k2
            k3 = model.eval(x3)
            x4 = x1 + h * k3
            k4 = model.eval(x4)
            u = x1 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(u)):
            raise DivergenceError(f"integration diverged at substep {step}",
                                  step=step, time=(step + 1) * h, last_state=x1)
        if record:
            stages.append((x1, x2, x3, x4))
    return u, stages


def _rk4_backward(model: RhsModel, stages, h: float, cotangent: np.ndarray,
                  grads: ModelGrads) -> np.ndarray:
    w = cotangent
    for x1, x2, x3, x4 in reversed(stages):
        gx4 = _rhs_vjp(model, x4, (h / 6.0) * w, grads)
        gx3 = _rhs_vjp(model, x3, (h / 3.0) * w + h * gx4, grads)
        gx2 = _rhs_vjp(model, x2, (h / 3.0) * w + 0.5 * h * gx3, grads)
        gx1 = _rhs_vjp(model, x1, (h / 6.0) * w + 0.5 * h * gx2, grads)
        w = w + gx1 + gx2 + gx3 + gx4
    return w


def integrate(model, u0: np.ndarray, horizon: float, nsteps: int):
    """Classical RK4 with fixed step horizon/nsteps.

    Raises DivergenceError (with the substep index) on non-finite states.
    """
    if nsteps < 1:
        raise ValueError("nsteps must be at least 1")
    out, _ = _rk4_forward(model, np.asarray(u0, dtype=np.float64),
                          horizon / nsteps, nsteps, record=False)
    return out


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
    (loss, ModelGrads); gradients are means over the batch and grid, matching
    the loss normalization.
    """
    u_start = np.atleast_2d(np.asarray(u_start, dtype=np.float64))
    u_end = np.atleast_2d(np.asarray(u_end, dtype=np.float64))
    if u_start.shape != u_end.shape:
        raise ValueError("batch shapes do not match")
    if u_start.shape[0] == 0:
        raise ValueError("empty batch")
    h = tau / rollout_steps
    pred, stages = _rk4_forward(model, u_start, h, rollout_steps, record=True)
    residual = pred - u_end
    loss = float(np.mean(np.abs(residual)))
    cotangent = np.sign(residual) / residual.size
    grads = ModelGrads.zeros(model)
    _rk4_backward(model, stages, h, cotangent, grads)
    return loss, grads


def _integrate_rows(model, u: np.ndarray, horizon: float, nsteps: int) -> np.ndarray:
    """:func:`integrate` on an (n, d) batch; rows that diverge come back +inf.
    Rows do not interact, so a diverging batch is halved down to those rows."""
    try:
        return integrate(model, u, horizon, nsteps)
    except DivergenceError:
        if u.shape[0] == 1:
            return np.full_like(u, np.inf)
        half = u.shape[0] // 2
        return np.concatenate([_integrate_rows(model, u[:half], horizon, nsteps),
                               _integrate_rows(model, u[half:], horizon, nsteps)])


def rollout(model, u0: np.ndarray, total_time: float, save_interval: float,
            steps_per_interval: int = 5):
    """Repeated integration of one state (d,) or a batch (n, d).

    Returns (times, states).  States are (n_save + 1, d) for one state and
    (n, n_save + 1, d) for a batch, with u0 as the first snapshot.  The
    batch advances together; a trajectory that goes non-finite during an
    interval leaves it, and that snapshot and all later ones read +inf.
    """
    n_save = int(round(total_time / save_interval))
    if abs(n_save * save_interval - total_time) > 1e-9 * max(total_time, 1.0):
        raise ValueError("save_interval must divide total_time")
    u0 = np.asarray(u0, dtype=np.float64)
    u = np.atleast_2d(u0)
    states = np.full((u.shape[0], n_save + 1, u.shape[1]), np.inf)
    states[:, 0] = u
    alive = np.arange(u.shape[0])
    for i in range(n_save):
        u = _integrate_rows(model, u, save_interval, steps_per_interval)
        finite = np.all(np.isfinite(u), axis=1)
        alive, u = alive[finite], u[finite]
        if alive.size == 0:
            break
        states[alive, i + 1] = u
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


def vbe_train_config(epochs: int, variant: str, **kw) -> TrainConfig:
    """Staged learning rates for the Burgers setup."""
    if variant == "fixed-linear":
        lr_nl = (1e-3, 1e-4, 1e-5)
    elif variant == "learned-linear":
        lr_nl = (1e-3, 1e-4)
    else:
        lr_nl = (1e-3, 1e-4, 1e-5)
    lr_lin = (1e0, 1e-1, 1e-2) if variant == "learned-linear" else ()
    return TrainConfig(epochs, lr_nl, lr_lin, **kw)


def kse_train_config(epochs: int, variant: str, **kw) -> TrainConfig:
    lr_nl = (1e-3, 1e-4)
    lr_lin = (1e0, 1e-1, 1e-2) if variant == "learned-linear" else ()
    return TrainConfig(epochs, lr_nl, lr_lin, **kw)


class AdamState:
    """First/second moment accumulators, one pair per parameter tensor."""

    def __init__(self, model: RhsModel):
        self.t = 0
        self.m_w = [np.zeros_like(w) for w in model.mlp.weights]
        self.v_w = [np.zeros_like(w) for w in model.mlp.weights]
        self.m_b = [np.zeros_like(b) for b in model.mlp.biases]
        self.v_b = [np.zeros_like(b) for b in model.mlp.biases]
        self.m_t = self.v_t = None
        if model.variant == "learned-linear":
            self.m_t = np.zeros_like(model.stencil.taps)
            self.v_t = np.zeros_like(model.stencil.taps)

    def _step_tensor(self, param, grad, m, v, lr):
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * grad
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * grad * grad
        mhat = m / (1.0 - ADAM_BETA1**self.t)
        vhat = v / (1.0 - ADAM_BETA2**self.t)
        param -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)

    def update(self, model: RhsModel, grads: ModelGrads,
               lr_nonlinear: float, lr_linear: float) -> None:
        self.t += 1
        for i in range(model.mlp.n_layers):
            self._step_tensor(model.mlp.weights[i], grads.mlp.weights[i],
                              self.m_w[i], self.v_w[i], lr_nonlinear)
            self._step_tensor(model.mlp.biases[i], grads.mlp.biases[i],
                              self.m_b[i], self.v_b[i], lr_nonlinear)
        if model.variant == "learned-linear":
            self._step_tensor(model.stencil.taps, grads.taps,
                              self.m_t, self.v_t, lr_linear)


@dataclass
class TrainResult:
    loss_history: list
    log_lines: list
    adam: AdamState
    final_epoch: int


def train(model: RhsModel, dataset: SnapshotDataset, config: TrainConfig,
          start_epoch: int = 0, stop_epoch: int | None = None,
          adam: AdamState | None = None, checkpoint_every: int = 0,
          on_checkpoint=None) -> TrainResult:
    """Minibatch training loop; one epoch = one optimizer step on one batch.

    Batches are drawn from a per-epoch RNG derived from (seed, epoch), and the
    stage schedule always partitions config.epochs, so a run interrupted at
    stop_epoch and resumed at start_epoch reproduces an uninterrupted one
    bit-for-bit given the saved optimizer state.  On divergence the last good
    state is checkpointed (if a writer was supplied) and TrainingDiverged is
    raised.
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
    log_lines = []
    for epoch in range(start_epoch, stop_epoch):
        rng = np.random.default_rng([config.seed, epoch])
        take = min(config.batch_size, n_pairs)
        idx = rng.choice(n_pairs, size=take, replace=False)
        lr_nl, lr_lin = config.lrs_at(epoch)
        try:
            loss, grads = loss_gradient(model, u0_all[idx], u1_all[idx],
                                        dataset.tau, config.rollout_steps)
        except DivergenceError as err:
            if on_checkpoint is not None:
                on_checkpoint(epoch, model, adam)
            raise TrainingDiverged(
                f"training diverged at epoch {epoch}: {err}", epoch, history) from err
        adam.update(model, grads, lr_nl, lr_lin)
        history.append(loss)
        stage = config.stage(epoch, config.lr_nonlinear)
        log_lines.append(f"{epoch}\t{stage}\t{lr_nl:.3e}\t{lr_lin:.3e}\t{loss:.10e}")
        if (checkpoint_every and on_checkpoint is not None
                and (epoch + 1) % checkpoint_every == 0):
            on_checkpoint(epoch + 1, model, adam)
    return TrainResult(history, log_lines, adam, stop_epoch)


# true-physics operators ----------------------------------------------------

def true_linear_matrix(system: str, d: int, domain_length: float,
                       viscosity: float = 8e-4) -> np.ndarray:
    """Dense symmetric circulant of the system's true linear term.

    VBE: nu * d2/dx2 (symbol -nu q^2); KSE: -d2/dx2 - d4/dx4 (symbol q^2 - q^4),
    both in the package's spectral discretization.
    """
    q = 2.0 * np.pi * wavenumber_indices(d) / domain_length
    if system == "vbe":
        symbol = -viscosity * q**2
    elif system == "kse":
        symbol = q**2 - q**4
    else:
        raise ValueError(f"unknown system {system!r}")
    impulse = np.zeros(d)
    impulse[0] = 1.0
    col = np.fft.irfft(symbol * np.fft.rfft(impulse), n=d)
    idx = np.arange(d)
    mat = col[(idx[:, None] - idx[None, :]) % d]
    return 0.5 * (mat + mat.T)


class TrueRhs:
    """Exact discrete RHS split into linear matrix + pseudospectral nonlinearity.

    Implements the same eval/linear_matrix/nonlinear protocol as RhsModel so
    reduced-order modeling can run on the true equations without training.
    """

    def __init__(self, system: str, d: int, domain_length: float,
                 viscosity: float = 8e-4):
        self.system = system
        self.width = d
        self.domain_length = domain_length
        self._matrix = true_linear_matrix(system, d, domain_length, viscosity)
        self._adv = advection_symbols(d, domain_length)

    def linear_matrix(self) -> np.ndarray:
        return self._matrix

    def nonlinear(self, u: np.ndarray) -> np.ndarray:
        d = self.width
        tendency = burgers_tendency(np.fft.rfft(u) / d, *self._adv)
        return np.fft.irfft(tendency * d, n=d)

    def linear_apply(self, u: np.ndarray) -> np.ndarray:
        return u @ self._matrix.T

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
        return RhsModel("nonlinear", mlp)
    if variant == "fixed-linear":
        if system is None:
            raise ValueError("fixed-linear variant needs the system name")
        mat = true_linear_matrix(system, layer_sizes[0], domain_length, viscosity)
        return RhsModel("fixed-linear", mlp, fixed_matrix=mat)
    if variant == "learned-linear":
        stencil = dc.init_stencil(stencil_width, stencil_symmetric,
                                  stencil_init, seed + 1)
        return RhsModel("learned-linear", mlp, stencil=stencil)
    raise ValueError(f"unknown variant {variant!r}")


# checkpoint / optimizer-state persistence ----------------------------------

def save_model(path, model: RhsModel, sidecar: dict | None = None) -> None:
    dc.write_checkpoint(path, VARIANT_TAGS[model.variant], model.mlp,
                        model.stencil, sidecar=sidecar)


def load_model(path, fixed_matrix: np.ndarray | None = None) -> RhsModel:
    """Load a checkpoint; fixed-linear models rebuild A from the sidecar
    (system, domain_length, viscosity) unless a matrix is supplied."""
    tag, mlp, stencil = dc.read_checkpoint(path)
    variant = VARIANT_NAMES[tag]
    if variant == "fixed-linear" and fixed_matrix is None:
        meta = read_sidecar(f"{path}.txt")
        fixed_matrix = true_linear_matrix(
            meta["system"], mlp.layer_sizes[0], float(meta["domain_length"]),
            float(meta.get("viscosity", 8e-4)))
    return RhsModel(variant, mlp, fixed_matrix=fixed_matrix, stencil=stencil)


def read_sidecar(path) -> dict:
    meta = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and "=" in line:
                key, val = line.split("=", 1)
                meta[key] = val
    return meta


def save_opt_state(path, adam: AdamState) -> None:
    tensors = adam.m_w + adam.v_w + adam.m_b + adam.v_b
    if adam.m_t is not None:
        tensors += [adam.m_t, adam.v_t]
    with open(path, "wb") as fh:
        fh.write(OPT_STATE_MAGIC + struct.pack("<Q", adam.t))
        for t in tensors:
            fh.write(np.asarray(t, dtype="<f8").tobytes())


def load_opt_state(path, model: RhsModel) -> AdamState:
    adam = AdamState(model)
    with open(path, "rb") as fh:
        if read_exact(fh, 4) != OPT_STATE_MAGIC:
            raise ArtifactError(f"{path}: not an optimizer-state file")
        (adam.t,) = struct.unpack("<Q", read_exact(fh, 8))
        tensors = adam.m_w + adam.v_w + adam.m_b + adam.v_b
        if adam.m_t is not None:
            tensors += [adam.m_t, adam.v_t]
        for t in tensors:
            t[...] = read_f8(fh, t.size).reshape(t.shape)
        expect_end(fh)
    return adam
