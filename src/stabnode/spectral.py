"""Pseudospectral solvers for 1-D dissipative PDEs on periodic domains.

Ground-truth integrators for the viscous Burgers equation (semi-implicit
third-order Runge-Kutta with Crank-Nicolson diffusion) and the
Kuramoto-Sivashinsky equation (ETDRK4 after Kassam & Trefethen, SIAM
J. Sci. Comput. 26 (2005) 1214-1233, with contour-averaged coefficients),
plus spectral differentiation and random initial conditions drawn to a
prescribed energy budget.

Transform convention: the forward transform is normalized by 1/d, so a pure
mode a*cos(2*pi*k*x/L) carries coefficient a/2 at one-sided index k.  Every
spectrum formula in this package assumes that convention.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field as dc_field

import numpy as np

TWO_THIRDS_CUTOFF = 3  # keep k <= d // TWO_THIRDS_CUTOFF before quadratic products

SYSTEM_TAGS = {"vbe": 0, "kse": 1}
SYSTEM_NAMES = {v: k for k, v in SYSTEM_TAGS.items()}

DATASET_MAGIC = b"SNOD"
DATASET_VERSION = 1


class ArtifactError(ValueError):
    """A binary artifact is truncated, padded or has a bad header."""


def read_exact(fh, nbytes: int) -> bytes:
    """The next ``nbytes`` of an open binary file, or ArtifactError naming it."""
    here = fh.tell()
    left = fh.seek(0, 2) - here
    fh.seek(here)
    if not 0 <= nbytes <= left:
        raise ArtifactError(f"{fh.name}: truncated: {nbytes} bytes expected at "
                            f"offset {here}, {left} left")
    return fh.read(nbytes)


def read_f8(fh, count: int) -> np.ndarray:
    """``count`` little-endian float64 values as a writable array."""
    return np.frombuffer(read_exact(fh, 8 * count), dtype="<f8").copy()


def expect_end(fh) -> None:
    """ArtifactError unless the file ends where its header says it does."""
    if fh.read(1):
        raise ArtifactError(f"{fh.name}: trailing bytes after offset {fh.tell() - 1}")


class BlowUpError(RuntimeError):
    """Integration produced non-finite values."""

    def __init__(self, message, seed=None, time=None):
        super().__init__(message)
        self.seed = seed
        self.time = time


@dataclass
class Field:
    """Real periodic state sampled on an equispaced grid."""

    values: np.ndarray
    domain_length: float
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 1:
            raise ValueError("field values must be one-dimensional")
        d = self.values.size
        if d < 4 or d % 2 != 0:
            raise ValueError(f"grid size must be even and >= 4, got {d}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")
        if self.domain_length <= 0:
            raise ValueError("domain length must be positive")

    @property
    def d(self) -> int:
        return self.values.size

    @property
    def spacing(self) -> float:
        return self.domain_length / self.d


@dataclass
class SpectralField:
    """One-sided transform of a real Field, coefficients for k = 0..d/2."""

    coeffs: np.ndarray
    domain_length: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)

    @property
    def d(self) -> int:
        return 2 * (self.coeffs.size - 1)


@dataclass
class IcSpec:
    """Random-initial-condition recipe: E0(k) = amplitude * k^4 * exp(-(k/k0)^2).

    When ``amplitude`` is None it is solved so the one-sided energy sum
    sum_k E0(k) equals ``0.5 * L / (2*pi)``.
    """

    peak_wavenumber: float = 10.0
    amplitude: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.peak_wavenumber <= 0:
            raise ValueError("peak wavenumber must be positive")
        if self.amplitude is not None and self.amplitude <= 0:
            raise ValueError("amplitude must be positive")


def grid(d: int, domain_length: float) -> np.ndarray:
    """Equispaced periodic grid points x_j = j*L/d."""
    return np.arange(d) * (domain_length / d)


def wavenumber_indices(d: int) -> np.ndarray:
    return np.arange(d // 2 + 1)


def to_spectral(field: Field) -> SpectralField:
    """Forward transform with 1/d normalization; enforces real DC/Nyquist."""
    coeffs = np.fft.rfft(field.values) / field.d
    coeffs[0] = coeffs[0].real
    coeffs[-1] = coeffs[-1].real
    return SpectralField(coeffs, field.domain_length)


def from_spectral(sf: SpectralField, d: int, time: float = 0.0) -> Field:
    """Inverse of :func:`to_spectral` (exact round trip)."""
    if d % 2 != 0:
        raise ValueError("grid size must be even")
    if sf.coeffs.size != d // 2 + 1:
        raise ValueError("coefficient count does not match grid size")
    values = np.fft.irfft(sf.coeffs * d, n=d)
    return Field(values, sf.domain_length, time)


def spectral_derivative(field: Field, order: int) -> Field:
    """Differentiate by multiplying coefficients with (2*pi*i*k/L)^order.

    The Nyquist mode is zeroed for odd orders (its derivative is not
    representable on the grid).
    """
    if order not in (1, 2, 4):
        raise ValueError(f"derivative order must be 1, 2, or 4, got {order}")
    d = field.d
    q = 2.0 * np.pi * wavenumber_indices(d) / field.domain_length
    symbol = (1j * q) ** order
    if order % 2 == 1:
        symbol[-1] = 0.0
    coeffs = (np.fft.rfft(field.values) / d) * symbol
    return Field(np.fft.irfft(coeffs * d, n=d), field.domain_length, field.time)


def initial_energy_budget(domain_length: float) -> float:
    """Target one-sided energy sum for random initial conditions."""
    return 0.5 * domain_length / (2.0 * np.pi)


def ic_amplitude_for_energy(peak_wavenumber: float, d: int, domain_length: float) -> float:
    """Solve the spectrum amplitude so sum_k E0(k) meets the energy budget."""
    k = wavenumber_indices(d).astype(np.float64)
    shape = k**4 * np.exp(-((k / peak_wavenumber) ** 2))
    return initial_energy_budget(domain_length) / shape.sum()


def generate_vbe_ic(spec: IcSpec, d: int, domain_length: float = 1.0) -> Field:
    """Random initial condition with prescribed energy spectrum.

    One-sided coefficients are sqrt(2*E0(k)) * exp(-2*pi*i*Psi(k)) with
    Psi(k) i.i.d. uniform on [0, 1); the Nyquist phase is fixed to zero so
    the realized energy sum equals the budget exactly for every seed.
    """
    if d % 2 != 0 or d < 4:
        raise ValueError("grid size must be even and >= 4")
    amp = spec.amplitude
    if amp is None:
        amp = ic_amplitude_for_energy(spec.peak_wavenumber, d, domain_length)
    k = wavenumber_indices(d).astype(np.float64)
    e0 = amp * k**4 * np.exp(-((k / spec.peak_wavenumber) ** 2))
    rng = np.random.default_rng(spec.seed)
    psi = rng.uniform(0.0, 1.0, size=k.size)
    coeffs = np.sqrt(2.0 * e0) * (np.cos(2.0 * np.pi * psi) - 1j * np.sin(2.0 * np.pi * psi))
    coeffs[0] = 0.0
    coeffs[-1] = np.sqrt(2.0 * e0[-1])
    return from_spectral(SpectralField(coeffs, domain_length), d)


def advection_symbols(d: int, domain_length: float):
    """(-0.5*i*q with the Nyquist entry zeroed, 2/3-rule mask) for burgers_tendency."""
    q = 2.0 * np.pi * wavenumber_indices(d) / domain_length
    iq = 1j * q
    iq[-1] = 0.0
    return -0.5 * iq, wavenumber_indices(d) <= d // TWO_THIRDS_CUTOFF


def burgers_tendency(coeffs: np.ndarray, half_iq: np.ndarray,
                     mask: np.ndarray) -> np.ndarray:
    """Advection -0.5*(u^2)_x of one-sided coefficients (one state or a batch),
    2/3-rule dealiased on input and output; see :func:`advection_symbols`."""
    d = 2 * (coeffs.shape[-1] - 1)
    u = np.fft.irfft(np.where(mask, coeffs, 0.0) * d, n=d)
    sq = np.fft.rfft(u * u) / d
    return np.where(mask, half_iq * sq, 0.0)


class VbeSolver:
    """Viscous Burgers u_t = -u*u_x + nu*u_xx, pseudospectral RK3/CN.

    Diffusion is treated with Crank-Nicolson inside a third-order
    low-storage Runge-Kutta loop (stage steps dt/3, dt/2, dt); the
    advection term -0.5*(u^2)_x is explicit with 2/3-rule dealiasing.
    """

    def __init__(self, d: int, domain_length: float = 1.0, viscosity: float = 8e-4,
                 dt: float = 1e-3):
        if dt <= 0 or viscosity <= 0:
            raise ValueError("dt and viscosity must be positive")
        self.d = d
        self.domain_length = domain_length
        self.viscosity = viscosity
        self.dt = dt
        q = 2.0 * np.pi * wavenumber_indices(d) / domain_length
        self._lin = -viscosity * q**2
        self._adv = advection_symbols(d, domain_length)

    def step_spectral(self, coeffs: np.ndarray) -> np.ndarray:
        base = coeffs
        v = coeffs
        for stage in range(3):
            dt_s = self.dt / (3 - stage)
            v = base + dt_s * burgers_tendency(v, *self._adv)
            v = (v + 0.5 * self._lin * dt_s * base) / (1.0 - 0.5 * self._lin * dt_s)
        return v

    def advance(self, coeffs: np.ndarray, nsteps: int) -> np.ndarray:
        # overflow en route to the finiteness check is the blow-up signal
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(nsteps):
                coeffs = self.step_spectral(coeffs)
        if not np.all(np.isfinite(coeffs)):
            raise BlowUpError("viscous Burgers integration blew up")
        return coeffs


def step_vbe(field: Field, dt: float, viscosity: float) -> Field:
    """Advance one time step; raises BlowUpError on non-finite output."""
    solver = VbeSolver(field.d, field.domain_length, viscosity, dt)
    coeffs = solver.advance(np.fft.rfft(field.values) / field.d, 1)
    out = np.fft.irfft(coeffs * field.d, n=field.d)
    if not np.all(np.isfinite(out)):
        raise BlowUpError("viscous Burgers step blew up", time=field.time)
    return Field(out, field.domain_length, field.time + dt)


class KseSolver:
    """Kuramoto-Sivashinsky u_t = -u*u_x - u_xx - u_xxxx, ETDRK4 in time.

    Linear symbol l(k) = q^2 - q^4 with q = 2*pi*k/L is integrated exactly;
    the phi-coefficients are evaluated as means over 32 points of a complex
    contour around each l*h to avoid cancellation near l -> 0.
    """

    CONTOUR_POINTS = 32

    def __init__(self, d: int, domain_length: float = 22.0, h: float = 0.05):
        if h <= 0:
            raise ValueError("step size must be positive")
        self.d = d
        self.domain_length = domain_length
        self.h = h
        q = 2.0 * np.pi * wavenumber_indices(d) / domain_length
        ell = q**2 - q**4
        self._adv = advection_symbols(d, domain_length)
        self._E = np.exp(h * ell)
        self._E2 = np.exp(0.5 * h * ell)
        m = self.CONTOUR_POINTS
        r = np.exp(1j * np.pi * (np.arange(m) + 0.5) / m)
        lr = h * ell[:, None] + r[None, :]
        self._Q = h * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1).real
        self._f1 = h * np.mean(
            (-4.0 - lr + np.exp(lr) * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1).real
        self._f2 = h * np.mean(
            (2.0 + lr + np.exp(lr) * (lr - 2.0)) / lr**3, axis=1).real
        self._f3 = h * np.mean(
            (-4.0 - 3.0 * lr - lr**2 + np.exp(lr) * (4.0 - lr)) / lr**3, axis=1).real

    def step_spectral(self, v: np.ndarray) -> np.ndarray:
        n_v = burgers_tendency(v, *self._adv)
        a = self._E2 * v + self._Q * n_v
        n_a = burgers_tendency(a, *self._adv)
        b = self._E2 * v + self._Q * n_a
        n_b = burgers_tendency(b, *self._adv)
        c = self._E2 * a + self._Q * (2.0 * n_b - n_v)
        n_c = burgers_tendency(c, *self._adv)
        return self._E * v + n_v * self._f1 + 2.0 * (n_a + n_b) * self._f2 + n_c * self._f3

    def advance(self, coeffs: np.ndarray, nsteps: int) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(nsteps):
                coeffs = self.step_spectral(coeffs)
        if not np.all(np.isfinite(coeffs)):
            raise BlowUpError("Kuramoto-Sivashinsky integration blew up")
        return coeffs


def step_kse(sf: SpectralField, h: float) -> SpectralField:
    """One ETDRK4 step; raises BlowUpError on non-finite output."""
    solver = KseSolver(sf.d, sf.domain_length, h)
    out = solver.step_spectral(sf.coeffs)
    if not np.all(np.isfinite(out)):
        raise BlowUpError("Kuramoto-Sivashinsky step blew up")
    return SpectralField(out, sf.domain_length)


@dataclass
class SnapshotDataset:
    """Trajectories sampled at a fixed interval tau, shape (n_traj, n_snap, d)."""

    values: np.ndarray
    tau: float
    domain_length: float
    system: str
    seeds: list = dc_field(default_factory=list)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 3:
            raise ValueError("dataset values must have shape (n_traj, n_snap, d)")
        if self.system not in SYSTEM_TAGS:
            raise ValueError(f"unknown system tag {self.system!r}")

    @property
    def n_traj(self) -> int:
        return self.values.shape[0]

    @property
    def n_snap(self) -> int:
        return self.values.shape[1]

    @property
    def d(self) -> int:
        return self.values.shape[2]

    def times(self) -> np.ndarray:
        return np.arange(self.n_snap) * self.tau

    def snapshots(self) -> np.ndarray:
        """All states flattened to (n_traj * n_snap, d)."""
        return self.values.reshape(-1, self.d)

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All single-interval training pairs (u(t), u(t + tau))."""
        u0 = self.values[:, :-1, :].reshape(-1, self.d)
        u1 = self.values[:, 1:, :].reshape(-1, self.d)
        return u0, u1

    def split_trajectories(self, n_train: int) -> tuple["SnapshotDataset", "SnapshotDataset"]:
        """Leading n_train trajectories for training, the rest for testing."""
        if not 0 < n_train <= self.n_traj:
            raise ValueError("invalid training trajectory count")
        mk = lambda vals, seeds: SnapshotDataset(vals, self.tau, self.domain_length,
                                                 self.system, seeds)
        return (mk(self.values[:n_train], self.seeds[:n_train]),
                mk(self.values[n_train:], self.seeds[n_train:]))

    def split_chronological(self, train_fraction: float = 0.8):
        """Chronological split of a single-trajectory dataset."""
        if self.n_traj != 1:
            raise ValueError("chronological split expects a single trajectory")
        cut = int(round(self.n_snap * train_fraction))
        mk = lambda vals: SnapshotDataset(vals, self.tau, self.domain_length,
                                          self.system, self.seeds)
        return mk(self.values[:, :cut]), mk(self.values[:, cut:])


def fill_trajectories(solver, coeffs: np.ndarray, values: np.ndarray, sub: int,
                      tau: float, seeds=()) -> None:
    """Advance (n, d/2 + 1) coefficients, or one state, sampling every ``sub`` steps.

    Snapshot j >= 1 of every row goes to ``values[:, j]`` of the (n, n_snap,
    d) array; snapshot 0 is the caller's.  A batch gives the same bits as its
    rows stepped one at a time.  Blow-up raises BlowUpError with the time.
    """
    d = values.shape[-1]
    for j in range(1, values.shape[1]):
        try:
            coeffs = solver.advance(coeffs, sub)
        except BlowUpError as err:
            which = f" (seeds {seeds[0]}..{seeds[-1]})" if len(seeds) else ""
            raise BlowUpError(f"integration blew up near t = {j * tau:.3f}{which}",
                              seed=seeds[0] if len(seeds) == 1 else None,
                              time=j * tau) from err
        values[:, j] = np.fft.irfft(coeffs * d, n=d)


def _steps_per_sample(tau: float, step: float) -> int:
    sub = int(round(tau / step))
    if sub < 1 or abs(sub * step - tau) > 1e-12 * tau:
        raise ValueError(f"sampling interval tau={tau!r} must be a multiple of "
                         f"the solver step {step!r}")
    return sub


def generate_vbe_dataset(n_train: int = 1000, n_test: int = 100, d: int = 512,
                         domain_length: float = 1.0, viscosity: float = 8e-4,
                         horizon: float = 5.0, tau: float = 0.05, dt: float = 1e-3,
                         peak_wavenumber: float = 10.0, amplitude: float | None = None,
                         base_seed: int = 0) -> SnapshotDataset:
    """Ensemble of Burgers trajectories from random initial conditions.

    Trajectory i starts from the initial condition with seed base_seed + i.
    All trajectories advance as one batch, which gives the same bits as
    separate single-seed runs stacked.  Train/test membership is by
    position: the first n_train trajectories are the training set.
    """
    n_snap = int(round(horizon / tau)) + 1
    sub = _steps_per_sample(tau, dt)
    solver = VbeSolver(d, domain_length, viscosity, dt)
    seeds = [base_seed + i for i in range(n_train + n_test)]
    values = np.empty((len(seeds), n_snap, d))
    values[:, 0] = [generate_vbe_ic(IcSpec(peak_wavenumber, amplitude, seed), d,
                                    domain_length).values for seed in seeds]
    fill_trajectories(solver, np.fft.rfft(values[:, 0]) / d, values, sub, tau, seeds)
    return SnapshotDataset(values, tau, domain_length, "vbe", seeds)


def generate_kse_dataset(d: int = 64, domain_length: float = 22.0, horizon: float = 2500.0,
                         tau: float = 0.25, h: float = 0.05, transient: float = 500.0,
                         seed: int = 0) -> SnapshotDataset:
    """Single long Kuramoto-Sivashinsky trajectory on the attractor.

    A transient of ``transient`` time units is integrated and discarded
    before recording begins, so snapshots sample the attractor.
    """
    n_snap = int(round(horizon / tau)) + 1
    sub = _steps_per_sample(tau, h)
    solver = KseSolver(d, domain_length, h)
    rng = np.random.default_rng(seed)
    u0 = 0.01 * rng.standard_normal(d)
    u0 -= u0.mean()
    try:
        coeffs = solver.advance(np.fft.rfft(u0) / d, int(round(transient / h)))
    except BlowUpError as err:
        raise BlowUpError(f"transient with seed {seed} blew up", seed=seed) from err
    values = np.empty((1, n_snap, d))
    values[0, 0] = np.fft.irfft(coeffs * d, n=d)
    fill_trajectories(solver, coeffs, values, sub, tau, [seed])
    return SnapshotDataset(values, tau, domain_length, "kse", [seed])


def write_dataset(ds: SnapshotDataset, path, manifest: dict | None = None) -> None:
    """Write the little-endian binary snapshot format (magic SNOD).

    Layout: magic, u32 version, u32 d, u32 n_traj, u32 n_snap, f64 tau,
    f64 L, u8 system tag, then f64 payload trajectory-major, snapshot-major,
    grid-minor.  An optional plain-text sidecar records generation metadata.
    """
    header = DATASET_MAGIC + struct.pack(
        "<IIIIddB", DATASET_VERSION, ds.d, ds.n_traj, ds.n_snap, ds.tau,
        ds.domain_length, SYSTEM_TAGS[ds.system])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(ds.values.astype("<f8").tobytes())
    if manifest is not None:
        lines = [f"{k}={manifest[k]}" for k in sorted(manifest)]
        with open(f"{path}.txt", "w") as fh:
            fh.write("\n".join(lines) + "\n")


def read_dataset(path) -> SnapshotDataset:
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4)
        if magic != DATASET_MAGIC:
            raise ArtifactError(f"{path}: not a snapshot dataset file: bad magic {magic!r}")
        version, d, n_traj, n_snap, tau, length, tag = struct.unpack(
            "<IIIIddB", read_exact(fh, struct.calcsize("<IIIIddB")))
        if version != DATASET_VERSION:
            raise ArtifactError(f"{path}: unsupported dataset version {version}")
        values = read_f8(fh, d * n_traj * n_snap).reshape(n_traj, n_snap, d)
        expect_end(fh)
    return SnapshotDataset(values, tau, length, SYSTEM_NAMES[tag])
