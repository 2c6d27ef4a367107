"""Pseudospectral solvers for 1-D dissipative PDEs on periodic domains.

Ground-truth integrators for the viscous Burgers equation (semi-implicit
third-order Runge-Kutta with Crank-Nicolson diffusion) and the
Kuramoto-Sivashinsky equation (ETDRK4 after Kassam & Trefethen, SIAM
J. Sci. Comput. 26 (2005) 1214-1233, with contour-averaged coefficients),
plus random initial conditions drawn to a prescribed energy budget.
:class:`BurgersTerm` is the one dealiased Burgers advection: the solvers'
stages, the true RHS (:class:`~stabnode.neural_ode.TrueRhs`) and the ROM all
bind its kernel.  Both solvers step in place: ``advance`` copies its input
once and steps a batch in blocks of rows, at most ``BLOCK_BYTES`` of state
each, every stage writes into buffers kept on the solver, and each product or
quotient of complex coefficients with a real factor is a multiply of float64
views by a row precomputed from the factor and repeated to the block, which
keeps numpy's complex-arithmetic bits (:class:`_Solver` says why).
:func:`march` is the one loop, for generation, true trajectories, model
rollouts and the ROM: a diverged row is a non-finite state, judged by value at
each save, and :func:`finite_truth` raises where the truth is needed.
:func:`save_count` is the one time-grid rule: every step, save and segment
count of a time span comes from it, and a span it does not divide is rejected.

Transform convention: the forward transform is normalized by 1/d, so a pure
mode a*cos(2*pi*k*x/L) carries coefficient a/2 at one-sided index k.  Every
spectrum formula in this package assumes that convention.

Every real transform in the package goes through one pair, :func:`rfft` and
:func:`irfft`, over the last axis.  They call numpy's pocketfft gufuncs
directly, with a preallocated output and the factor ``np.fft`` itself passes
(1 forward, 1/n inverse), so each result has ``np.fft``'s bits without its
per-call Python wrapper; at d = 64 that wrapper costs more than the transform.
Both take ``out=``, so a caller that transforms the same shapes again can reuse
its arrays, and :func:`rfft` takes pocketfft's ``scale``, which multiplies
every float64 word of the result, so a 1/d normalisation costs no extra pass.

Artifacts carry a key=value text sidecar, ``<path>.txt``.  A dataset reads
``viscosity`` (8e-4 when absent), ``solver_step`` (1e-3 VBE, 0.05 KSE),
``train_trajectories`` (the leading VBE training trajectories, at least 1;
the rest are the test split, empty when there are no more; absent, the
ensemble is its own test set) and ``train_fraction`` (KSE
chronological cut, 0.8); a checkpoint ``system``, ``domain_length``,
``viscosity`` (8e-4) and ``epochs_completed``.  A number that does not parse,
a ``train_trajectories`` below 1 or past the file's trajectory count, a
``train_fraction`` outside (0, 1], a dataset ``solver_step`` that does not
divide its tau, a ``domain_length`` that is not > 0, a ``viscosity`` that is
not finite and > 0, an ``epochs_completed`` below 0, and a checkpoint sidecar
without ``system`` or ``domain_length`` or with a ``system`` other than vbe
or kse are ArtifactErrors, as is a dataset whose grid breaks
:func:`require_grid` or whose header's domain length breaks
:func:`require_domain_length`.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field as dc_field, replace

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

TWO_THIRDS_CUTOFF = 3  # keep k <= d // TWO_THIRDS_CUTOFF before quadratic products

SYSTEM_TAGS = {"vbe": 0, "kse": 1}
SYSTEM_NAMES = {v: k for k, v in SYSTEM_TAGS.items()}

DATASET_MAGIC = b"SNOD"
DATASET_VERSION = 1

SIDECAR_NUMBERS = {"viscosity": float, "solver_step": float, "train_fraction": float,
                   "domain_length": float, "train_trajectories": int,
                   "epochs_completed": int}


class ArtifactError(ValueError):
    """A truncated, padded or malformed artifact, or an unparsable sidecar number."""


def _require_left(fh, nbytes: int) -> int:
    """The offset of an open binary file, or ArtifactError naming it unless
    ``nbytes`` are left from there."""
    here = fh.tell()
    left = fh.seek(0, 2) - here
    fh.seek(here)
    if not 0 <= nbytes <= left:
        raise ArtifactError(f"{fh.name}: truncated: {nbytes} bytes expected at "
                            f"offset {here}, {left} left")
    return here


def read_exact(fh, nbytes: int) -> bytes:
    """The next ``nbytes`` of an open binary file, or ArtifactError naming it."""
    _require_left(fh, nbytes)
    return fh.read(nbytes)


def read_f8(fh, count: int) -> np.ndarray:
    """``count`` little-endian float64 values as a writable array, or
    ArtifactError naming the file and the offset of the first NaN or Inf.

    The file is read straight into the one array returned.  Its min and max,
    which a NaN or an infinity carries, judge it; only a file that fails builds
    a mask, to name the offset."""
    here = _require_left(fh, 8 * count)
    values = np.empty(count, "<f8")
    fh.readinto(values)
    if count and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ArtifactError(f"{fh.name}: non-finite value at offset "
                            f"{here + 8 * int(np.isfinite(values).argmin())}")
    return values


def expect_end(fh) -> None:
    """ArtifactError unless the file ends where its header says it does."""
    if fh.read(1):
        raise ArtifactError(f"{fh.name}: trailing bytes after offset {fh.tell() - 1}")


def tag_name(names: dict, tag: int, path, what: str) -> str:
    """The name a header tag byte stands for, or ArtifactError naming the file."""
    if tag not in names:
        raise ArtifactError(f"{path}: unknown {what} tag byte {tag}")
    return names[tag]


class DivergenceError(RuntimeError):
    """A state went non-finite where the caller must fail: in the ground truth,
    a training gradient or a ``rom --reference self`` rollout.  The solvers, model
    rollouts and reduced models return non-finite rows instead.

    ``time`` and ``seed`` (of the initial condition) are None where unknown.
    """

    def __init__(self, message, time=None, seed=None):
        super().__init__(message)
        self.time = time
        self.seed = seed


def require_grid(d: int) -> None:
    """ValueError unless ``d`` is a grid the spectral code resolves: even, so
    that its one-sided spectrum of d/2 + 1 entries names it, and of 4 points
    or more; the one grid rule of fields, initial conditions, solvers and the
    datasets :func:`read_dataset` reads."""
    if d < 4 or d % 2 != 0:
        raise ValueError(f"grid size must be even and >= 4, got {d}")


def require_domain_length(length: float) -> None:
    """ValueError unless the periodic domain's ``length`` is > 0 (nan is not):
    the one domain rule of fields, the Burgers term, and so the solvers, and
    the datasets :func:`read_dataset` reads."""
    if not length > 0:
        raise ValueError(f"domain length must be > 0, got {length}")


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
        require_grid(self.values.size)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field contains non-finite values")
        require_domain_length(self.domain_length)

    @property
    def d(self) -> int:
        return self.values.size


@dataclass
class SpectralField:
    """One-sided transform of a real Field, coefficients for k = 0..d/2."""

    coeffs: np.ndarray
    domain_length: float

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=np.complex128)


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


def rfft(u: np.ndarray, out: np.ndarray | None = None, scale: float = 1.0) -> np.ndarray:
    """Unnormalized one-sided transform of real (..., n) ``u``, the bits of
    ``np.fft.rfft(u)``, times ``scale``, written into ``out`` when given.
    pocketfft multiplies every float64 word of its result by ``scale``."""
    n = u.shape[-1]
    if out is None:
        out = np.empty(u.shape[:-1] + (n // 2 + 1,), dtype=np.complex128)
    return (_pocketfft.rfft_n_odd if n % 2 else _pocketfft.rfft_n_even)(u, scale, out=out)


def irfft(c: np.ndarray, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """Real (..., n) inverse of one-sided ``c``, scaled by 1/n, the bits of
    ``np.fft.irfft(c, n)``, written into ``out`` when given."""
    if out is None:
        out = np.empty(c.shape[:-1] + (n,))
    return _pocketfft.irfft(c, 1.0 / n, out=out)


def to_spectral(field: Field) -> SpectralField:
    """Forward transform with 1/d normalization; enforces real DC/Nyquist."""
    coeffs = rfft(field.values) / field.d
    coeffs[0] = coeffs[0].real
    coeffs[-1] = coeffs[-1].real
    return SpectralField(coeffs, field.domain_length)


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
    require_grid(d)
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
    return Field(irfft(coeffs * d, d), domain_length)


def linear_symbol(system: str, d: int, domain_length: float,
                  viscosity: float = 8e-4) -> np.ndarray:
    """Eigenvalue of the system's true linear term for k = 0..d/2.

    VBE: nu * d2/dx2, symbol -nu q^2; KSE: -d2/dx2 - d4/dx4, symbol q^2 - q^4;
    q = 2*pi*k/L.  The solvers, the true RHS and the fixed-linear branch all
    take the operator from here.
    """
    q = 2.0 * np.pi * wavenumber_indices(d) / domain_length
    if system == "vbe":
        return -viscosity * q**2
    if system == "kse":
        return q**2 - q**4
    raise ValueError(f"unknown system {system!r}")


def apply_symbol(symbol: np.ndarray, u: np.ndarray, out: np.ndarray | None = None,
                 spectrum: np.ndarray | None = None) -> np.ndarray:
    """The circulant operator with one-sided ``symbol`` applied to (d,) or (n, d),
    written into ``out`` through the scratch ``spectrum`` when they are given."""
    spectrum = rfft(u, out=spectrum)
    return irfft(np.multiply(symbol, spectrum, out=spectrum), u.shape[-1], out=out)


class BurgersTerm:
    """The dealiased Burgers advection -0.5*(u^2)_x on a d-point grid of a
    domain of length ``domain_length``, the nonlinear term of the true VBE and
    KSE; it has no parameters.  It is the one Burgers term: the solvers'
    stages, the true RHS (:class:`~stabnode.neural_ode.TrueRhs`) and through
    it the ROM all run the kernel :meth:`coefficient_tendency` binds.  Its
    dealiasing factors, computed once, are the advection symbol -0.5*i*q, zero
    above the 2/3-rule cutoff (Nyquist included), and the input mask times d.
    A domain length that is not > 0 is refused before any arithmetic."""

    def __init__(self, d: int, domain_length: float):
        require_domain_length(domain_length)
        self.width = d
        k = wavenumber_indices(d)
        keep = k <= d // TWO_THIRDS_CUTOFF
        half_iq = -0.5 * (1j * (2.0 * np.pi * k / domain_length))
        self._factors = (np.where(keep, half_iq, 0.0), keep * (d + 0j))

    def params(self) -> list:
        return []

    def forward(self, u: np.ndarray, buffers=None) -> np.ndarray:
        """The advection at grid states ``u``, through their coefficients
        rfft(u) / d, into fresh arrays; ``buffers`` is unused."""
        d = self.width
        c = rfft(u) / d
        return irfft(self.coefficient_tendency(c.shape[:-1])(c, np.empty_like(c)) * d, d)

    def coefficient_tendency(self, shape: tuple):
        """The one Burgers kernel, prebound: ``tendency(coeffs, out)`` writes
        the advection of one-sided ``coeffs`` of batch shape ``shape`` into
        ``out`` and returns it, 2/3-rule dealiased on input and output.  The
        factors are repeated for every row, so that no product broadcasts, and
        bound once with a complex ``spectrum`` and a real ``grid`` scratch, so
        a hot loop pays one Python call per tendency.  A discarded mode reads a
        zero of either sign.

        The 1/d normalisation is the forward transform's scale, which multiplies
        every float64 word by 1/d: the bits of numpy's complex product with 1/d
        and of its complex division by d (see :class:`_Solver`), but for the sign
        of an exact zero, and with one ufunc call fewer."""
        half_iq, mask_d = (np.broadcast_to(f, shape + f.shape).copy() for f in self._factors)
        d, scale = self.width, 1.0 / self.width
        spectrum, grid = np.empty_like(half_iq), np.empty(shape + (d,))

        def tendency(coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
            u = irfft(np.multiply(coeffs, mask_d, out=spectrum), d, out=grid)
            rfft(np.multiply(u, u, out=u), out=spectrum, scale=scale)
            return np.multiply(half_iq, spectrum, out=out)
        return tendency


# The bytes of state a solver steps as one block of rows: 31 rows at d = 512,
# 248 at d = 64.  A block runs all its steps before the next starts, so its
# state, stage buffers and block-shaped rows, 13 to 19 times the state, stay in
# cache.  Per step, 128 KiB beat 64 and 256 KiB on VBE d = 512 at 256 and 1100
# rows and KSE d = 64 at 1000 rows, and 64 KiB split an 18-row VBE batch and
# lost there (2-vCPU Xeon, 48 KiB L1d and 2 MiB L2 per core, numpy 2.4.6).
BLOCK_BYTES = 128 * 1024


def _interleaved(row: np.ndarray, rows: int) -> np.ndarray:
    """A real per-wavenumber factor repeated twice, to multiply the float64 view
    (real and imaginary parts interleaved) of one-sided coefficients, and then
    to ``rows`` rows, the shape of a block's view."""
    return np.tile(np.repeat(row, 2), (rows, 1))


class _Solver:
    """The stepping loop both ground-truth solvers share, run in place.

    ``advance(coeffs, nsteps)`` copies ``coeffs``, one (d/2 + 1,) state or an
    (n, d/2 + 1) batch, once into a fresh state, which it steps in place and
    returns: the input is left as it was, and two results share no memory; a
    diverged row comes back non-finite, without a warning, and the other rows
    keep their bits.  Rows are independent, so the batch is stepped in blocks
    of :attr:`block_rows` rows, at most ``BLOCK_BYTES`` of state each, and a
    block runs all ``nsteps`` steps before the next one starts; each row keeps
    the bits it has stepped alone, and a lone state steps as a one-row block.

    Both solvers build their grid rule, step check, :class:`BurgersTerm` and
    true linear symbol here, the term before the symbol, so a domain length
    the term refuses is refused before any arithmetic.  Every stage writes
    with ``out=`` into buffers built, for the rows of one block, once and kept
    on the solver: a shorter block, or a batch that shrinks, steps in
    leading-row views of them, and only a longer block rebuilds them.  The
    term's kernel (:meth:`BurgersTerm.coefficient_tendency`) is bound once per
    row count, with its dealiasing factors repeated to the rows.  Each product
    of a complex coefficient with a real factor, and each quotient by one, is a
    multiply of float64 views by a kept row block-shaped, so no product
    broadcasts (numpy buffers a broadcast operand).  A real row
    is the factor, or its reciprocal, repeated twice for the interleaved real
    and imaginary parts and then to the block's rows.  That keeps numpy's
    bits: numpy multiplies a complex array by a real x as the complex product
    (re*x - im*0, re*0 + im*x) and divides it by x with Smith's method as
    ((re + im*0)*(1/x), (im - re*0)*(1/x)), so both give re*x (or re*(1/x))
    and im*x (or im*(1/x)); only the sign of an exact zero may differ, and a
    sum with any nonzero term does not see it.  The tendency's 1/d is no
    multiply at all: the forward transform's scale puts it on every word, with
    the same bits.
    """

    _kept_rows = 0  # the block rows the kept buffers were built for

    def __init__(self, system: str, d: int, domain_length: float, step: float,
                 viscosity: float = 8e-4):
        require_grid(d)
        if not (step > 0 and viscosity > 0):
            raise ValueError(f"step {step} and viscosity {viscosity} must be positive")
        self.d = d
        self.domain_length = domain_length
        self._term = BurgersTerm(d, domain_length)
        self._symbol = linear_symbol(system, d, domain_length, viscosity)

    @property
    def block_rows(self) -> int:
        """The rows of one block: as many states as ``BLOCK_BYTES`` holds, at least 1."""
        return max(1, BLOCK_BYTES // (16 * (self.d // 2 + 1)))

    def advance(self, coeffs: np.ndarray, nsteps: int) -> np.ndarray:
        state = np.array(coeffs, dtype=np.complex128)
        batch = state.reshape(-1, state.shape[-1])
        size = self.block_rows
        with np.errstate(over="ignore", invalid="ignore"):
            for start in range(0, len(batch), size):
                rows = min(size, len(batch) - start)
                self._step_in_place(batch[start:start + rows], nsteps, self._buffers(rows))
        return state

    def _buffers(self, rows: int) -> list:
        """The term's kernel for ``rows`` rows, then the kept stage buffers and
        block-shaped rows cut to their leading ``rows`` rows: built for the
        first block longer than they are, and cut and bound once per row count,
        as march calls ``advance`` once per save."""
        if rows > self._kept_rows:
            self._kept_rows, self._kept, self._cuts = rows, self._build_buffers(rows), {}
        if rows not in self._cuts:
            self._cuts[rows] = [self._term.coefficient_tendency((rows,)),
                                *(a[:rows] for a in self._kept)]
        return self._cuts[rows]


class VbeSolver(_Solver):
    """Viscous Burgers u_t = -u*u_x + nu*u_xx, pseudospectral RK3/CN.

    Diffusion is treated with Crank-Nicolson inside a third-order
    low-storage Runge-Kutta loop (stage steps dt/3, dt/2, dt); the
    advection term -0.5*(u^2)_x is explicit with 2/3-rule dealiasing.
    A stage is v <- (base + dt_s*N(v) + (0.5*lin*dt_s)*base) / (1 - 0.5*lin*dt_s),
    stepped in blocks, in place, as :class:`_Solver` describes: the explicit
    half 0.5*lin*dt_s and the reciprocal of the implicit half of each stage
    are block-shaped rows.
    """

    def __init__(self, d: int, domain_length: float = 1.0, viscosity: float = 8e-4,
                 dt: float = 1e-3):
        super().__init__("vbe", d, domain_length, dt, viscosity)
        self.viscosity = viscosity
        self.dt = dt
        lin = self._symbol
        # stages dt/3, dt/2, dt, with their explicit and reciprocal implicit factors
        self._steps = tuple(dt / (3 - stage) for stage in range(3))
        self._factors = tuple(factor for dt_s in self._steps
                              for factor in (0.5 * lin * dt_s, 1.0 / (1.0 - 0.5 * lin * dt_s)))

    def _build_buffers(self, rows: int) -> tuple:
        m = self.d // 2 + 1
        # base, N(v) and its float64 view, then each stage's explicit and
        # implicit rows
        n = np.empty((rows, m), dtype=np.complex128)
        return (np.empty((rows, 2 * m)), n, n.view(np.float64),
                *(_interleaved(factor, rows) for factor in self._factors))

    def _step_in_place(self, v: np.ndarray, nsteps: int, kept: list) -> None:
        v_f = v.view(np.float64)
        tendency, base_f, n, n_f, *rows = kept
        stages = list(zip(self._steps, rows[0::2], rows[1::2]))
        for _ in range(nsteps):
            np.copyto(base_f, v_f)
            for dt_s, explicit, implicit_inv in stages:
                tendency(v, n)
                np.multiply(n_f, dt_s, out=v_f)
                np.add(base_f, v_f, out=v_f)
                np.multiply(explicit, base_f, out=n_f)
                np.add(v_f, n_f, out=v_f)
                np.multiply(v_f, implicit_inv, out=v_f)


class KseSolver(_Solver):
    """Kuramoto-Sivashinsky u_t = -u*u_x - u_xx - u_xxxx, ETDRK4 in time.

    Linear symbol l(k) = q^2 - q^4 with q = 2*pi*k/L is integrated exactly;
    the phi-coefficients are evaluated as means over 32 points of a complex
    contour around each l*h to avoid cancellation near l -> 0.  The factors
    E, E2, Q and f1-f3 are block-shaped rows, and a step runs in blocks, in
    place, as :class:`_Solver` describes, with E2*v computed once for both
    stages that use it.
    """

    CONTOUR_POINTS = 32

    def __init__(self, d: int, domain_length: float = 22.0, h: float = 0.05):
        super().__init__("kse", d, domain_length, h)
        self.h = h
        ell = self._symbol
        m = self.CONTOUR_POINTS
        r = np.exp(1j * np.pi * (np.arange(m) + 0.5) / m)
        lr = h * ell[:, None] + r[None, :]
        q = h * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1).real
        f1 = h * np.mean(
            (-4.0 - lr + np.exp(lr) * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1).real
        f2 = h * np.mean((2.0 + lr + np.exp(lr) * (lr - 2.0)) / lr**3, axis=1).real
        f3 = h * np.mean(
            (-4.0 - 3.0 * lr - lr**2 + np.exp(lr) * (4.0 - lr)) / lr**3, axis=1).real
        # E, E2, Q, f1, f2, f3
        self._factors = (np.exp(h * ell), np.exp(0.5 * h * ell), q, f1, f2, f3)

    def _build_buffers(self, rows: int) -> tuple:
        m = self.d // 2 + 1
        # N(v), N(a), N(b), N(c), a, and b (then c), and their float64 views;
        # E2*v and a temporary; E, E2, Q, f1, f2, f3
        stages = [np.empty((rows, m), dtype=np.complex128) for _ in range(6)]
        return (*stages, *(z.view(np.float64) for z in stages),
                np.empty((rows, 2 * m)), np.empty((rows, 2 * m)),
                *(_interleaved(factor, rows) for factor in self._factors))

    def _step_in_place(self, v: np.ndarray, nsteps: int, kept: list) -> None:
        v_f = v.view(np.float64)
        (tendency, n_v, n_a, n_b, n_c, a, b, n_v_f, n_a_f, n_b_f, n_c_f, a_f, b_f, e2v, tmp,
         E, E2, Q, f1, f2, f3) = kept
        for _ in range(nsteps):
            tendency(v, n_v)
            np.multiply(E2, v_f, out=e2v)
            # a = E2*v + Q*N(v)
            np.multiply(Q, n_v_f, out=a_f)
            np.add(e2v, a_f, out=a_f)
            tendency(a, n_a)
            # b = E2*v + Q*N(a)
            np.multiply(Q, n_a_f, out=b_f)
            np.add(e2v, b_f, out=b_f)
            tendency(b, n_b)
            # c = E2*a + Q*(2*N(b) - N(v)), into b's buffer
            np.multiply(n_b_f, 2.0, out=tmp)
            np.subtract(tmp, n_v_f, out=tmp)
            np.multiply(Q, tmp, out=tmp)
            np.multiply(E2, a_f, out=b_f)
            np.add(b_f, tmp, out=b_f)
            tendency(b, n_c)
            # v <- E*v + N(v)*f1 + 2*(N(a) + N(b))*f2 + N(c)*f3, summed left to right
            np.multiply(E, v_f, out=v_f)
            np.multiply(n_v_f, f1, out=tmp)
            np.add(v_f, tmp, out=v_f)
            np.add(n_a_f, n_b_f, out=tmp)
            np.multiply(tmp, 2.0, out=tmp)
            np.multiply(tmp, f2, out=tmp)
            np.add(v_f, tmp, out=v_f)
            np.multiply(n_c_f, f3, out=tmp)
            np.add(v_f, tmp, out=v_f)


def true_solver(system: str, d: int, domain_length: float, viscosity: float,
                step: float):
    """The ground-truth solver of ``system``; KSE has no viscosity."""
    if system == "vbe":
        return VbeSolver(d, domain_length, viscosity, step)
    if system == "kse":
        return KseSolver(d, domain_length, step)
    raise ValueError(f"unknown system {system!r}")


@dataclass
class SnapshotDataset:
    """Trajectories sampled at a fixed interval tau, shape (n_traj, n_snap, d),
    with the parsed ``sidecar`` its physics and split come from.  Splits,
    :meth:`snapshots` and training pairs (:meth:`pair_starts`) are views or
    row indices of ``values``, so a dataset's states exist once."""

    values: np.ndarray
    tau: float
    domain_length: float
    system: str
    sidecar: dict = dc_field(default_factory=dict)

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

    @property
    def viscosity(self) -> float:
        return self.sidecar.get("viscosity", 8e-4)

    @property
    def solver_step(self) -> float:
        return self.sidecar.get("solver_step", 1e-3 if self.system == "vbe" else 0.05)

    def initial_conditions(self) -> np.ndarray:
        """(n, d) starting states: the first snapshot of every VBE trajectory,
        every snapshot of the one KSE trajectory."""
        return self.values[:, 0] if self.system == "vbe" else self.values[0]

    def true_trajectories(self, ics: np.ndarray, n_snap: int) -> np.ndarray:
        """(n, n_snap, d) ground truth from the (n, d) states ``ics``, every tau.

        VBE states equal to the leading stored starts, within the stored
        horizon, give the stored rows (a view): generation solved them from
        the same coefficients, and a batch has the bits of its rows.  Other
        states, longer horizons and KSE states (snapshots of one unbroken
        coefficient trajectory, which a restart misses in the last bits) are
        solved at the dataset's physics, with ``ics`` as snapshot 0."""
        n = len(ics)
        if (self.system == "vbe" and n <= self.n_traj and n_snap <= self.n_snap
                and np.array_equal(ics, self.values[:n, 0])):
            return self.values[:n, :n_snap]
        solver = true_solver(self.system, self.d, self.domain_length, self.viscosity,
                             self.solver_step)
        values = solve_truth(solver, rfft(ics) / self.d, n_snap - 1,
                             save_count(self.tau, self.solver_step), self.tau)
        values[:, 0] = ics
        return values

    def snapshots(self) -> np.ndarray:
        """All states flattened to (n_traj * n_snap, d), a view when ``values`` is
        contiguous, as every dataset read, generated or split here is."""
        return self.values.reshape(-1, self.d)

    def pair_starts(self) -> np.ndarray:
        """The row in :meth:`snapshots` of every single-interval training pair's
        start u(t), trajectory-major; its target u(t + tau) is the next row.
        No state is copied: a batch gathers its rows from the one array."""
        rows = np.arange(self.n_traj * self.n_snap).reshape(self.n_traj, self.n_snap)
        return rows[:, :-1].ravel()

    def split(self) -> tuple["SnapshotDataset", "SnapshotDataset"]:
        """(train, test): a VBE ensemble's leading ``train_trajectories`` and
        the rest, which is empty when they are all of them (without the key
        the whole ensemble is both), or a KSE trajectory's chronological
        parts."""
        if self.system == "kse":
            return self.split_chronological(self.sidecar.get("train_fraction", 0.8))
        n_train = self.sidecar.get("train_trajectories")
        if n_train is None:
            return self, self
        return (replace(self, values=self.values[:n_train]),
                replace(self, values=self.values[n_train:]))

    def split_chronological(self, train_fraction: float = 0.8):
        """Chronological split of a single-trajectory dataset at
        :func:`chronological_cut`."""
        if self.n_traj != 1:
            raise ValueError("chronological split expects a single trajectory")
        cut = chronological_cut(self.n_snap, train_fraction)
        return (replace(self, values=self.values[:, :cut]),
                replace(self, values=self.values[:, cut:]))


def chronological_cut(n_snap: int, train_fraction: float) -> int:
    """The snapshots a chronological split trains on: n_snap * train_fraction,
    rounded half to even."""
    return int(round(n_snap * train_fraction))


def largest_testing_fraction(n_snap: int) -> float:
    """The largest train_fraction whose :func:`chronological_cut` of ``n_snap``
    snapshots leaves one or more to test on."""
    fraction = (n_snap - 0.5) / n_snap
    while chronological_cut(n_snap, fraction) == n_snap:
        fraction = np.nextafter(fraction, 0.0)
    while chronological_cut(n_snap, np.nextafter(fraction, 1.0)) < n_snap:
        fraction = np.nextafter(fraction, 1.0)
    return float(fraction)


def save_count(span: float, interval: float) -> int:
    """The one time-grid rule: the ``interval`` steps, saves or segments in
    ``span``; ValueError unless it divides ``span`` to 1e-9 * max(span, 1)."""
    ratio = span / interval if interval > 0 else -1.0
    n = int(round(ratio)) if np.isfinite(ratio) else -1
    if n < 0 or not abs(n * interval - span) <= 1e-9 * max(span, 1.0):
        raise ValueError(f"interval {interval!r} must divide the time span {span!r}")
    return n


def march(advance, state: np.ndarray, n_save: int, sub: int, observe=None) -> np.ndarray:
    """Snapshots (n, n_save + 1, ...) of an (n, ...) batch of independent rows
    that ``advance(state, nsteps, rows)`` steps ``sub`` steps per save, taken
    by ``observe(state, rows)`` (the state by default); ``rows`` index the rows
    still marching.  ``advance`` runs once per save on the live rows and returns
    a diverged row as non-finite values; whatever it raises propagates.  A row
    whose snapshot is non-finite reads +inf from that save on and is not
    stepped again; while no row drops, ``advance`` gets back the array it
    returned.  With no row left, nothing more runs."""
    see = observe or (lambda s, rows: s)
    rows = np.arange(len(state))
    # overflow en route to the finiteness check is the divergence signal
    with np.errstate(over="ignore", invalid="ignore"):
        snap = see(state, rows)
        snaps = np.full((rows.size, n_save + 1) + snap.shape[1:], np.inf)
        for j in range(n_save + 1):
            if j:
                state = advance(state, sub, rows)
                snap = see(state, rows)
            if not np.isfinite(snap).all():
                ok = np.isfinite(snap).reshape(len(snap), -1).all(axis=1)
                state, rows, snap = state[ok], rows[ok], snap[ok]
            snaps[rows, j] = snap
            if rows.size == 0:
                break
    return snaps


def solve_truth(solver, coeffs: np.ndarray, n_save: int, sub: int, tau: float,
                seeds=None) -> np.ndarray:
    """:func:`finite_truth` of the grid snapshots (n, n_save + 1, d), ``tau`` =
    ``sub`` steps apart, that :func:`march` takes of the (n, d/2 + 1) ``coeffs``.
    Snapshot 0, ``irfft(coeffs * d)``, may miss the grid state in the last bits.
    The solver steps the live rows in its blocks."""
    def advance(state, nsteps, rows):
        return solver.advance(state, nsteps)

    return finite_truth(march(advance, coeffs, n_save, sub,
                              lambda c, rows: irfft(c * solver.d, solver.d)), tau, seeds)


def finite_truth(snaps: np.ndarray, tau: float, seeds=None,
                 what: str = "ground truth") -> np.ndarray:
    """``snaps`` (n, n_snap, ...), saved every ``tau``, if all finite; else
    DivergenceError with the time of the first non-finite save and the seed (or,
    without ``seeds``, the index) of its first non-finite row.  Rows are checked
    one at a time, so no boolean copy of the whole array is made."""
    bad = np.array([~np.isfinite(row).reshape(len(row), -1).all(axis=1) for row in snaps])
    if not bad.any():
        return snaps
    save = int(bad.any(axis=0).argmax())
    row = int(bad[:, save].argmax())
    seed = None if seeds is None else seeds[row]
    name = f"row {row}" if seed is None else f"seed {seed}"
    raise DivergenceError(f"{what} ({name}) went non-finite by t = {save * tau:g}",
                          time=save * tau, seed=seed)


def generate_vbe_dataset(n_train: int = 1000, n_test: int = 100, d: int = 512,
                         domain_length: float = 1.0, viscosity: float = 8e-4,
                         horizon: float = 5.0, tau: float = 0.05, dt: float = 1e-3,
                         peak_wavenumber: float = 10.0, amplitude: float | None = None,
                         base_seed: int = 0) -> SnapshotDataset:
    """Ensemble of Burgers trajectories from random initial conditions.

    Trajectory i starts from the initial condition with seed base_seed + i.
    All trajectories advance as one batch, which the solver steps in blocks
    of rows; each trajectory has the bits of a single-seed run.  Train/test
    membership is by position: the first n_train trajectories are the
    training set.
    """
    if n_train < 1 or n_test < 0:
        raise ValueError(f"an ensemble needs at least 1 training and 0 test "
                         f"trajectories, got {n_train} and {n_test}")
    n_snap = save_count(horizon, tau) + 1
    sub = save_count(tau, dt)
    seeds = [base_seed + i for i in range(n_train + n_test)]
    solver = VbeSolver(d, domain_length, viscosity, dt)  # its checks come first
    ics = np.stack([generate_vbe_ic(IcSpec(peak_wavenumber, amplitude, seed), d,
                                    domain_length).values for seed in seeds])
    values = solve_truth(solver, rfft(ics) / d, n_snap - 1, sub, tau, seeds)
    values[:, 0] = ics
    return SnapshotDataset(values, tau, domain_length, "vbe")


def generate_kse_dataset(d: int = 64, domain_length: float = 22.0, horizon: float = 2500.0,
                         tau: float = 0.25, h: float = 0.05, transient: float = 500.0,
                         seed: int = 0) -> SnapshotDataset:
    """Single long Kuramoto-Sivashinsky trajectory on the attractor.

    A transient of ``transient`` time units is integrated and discarded
    before recording begins, so snapshots sample the attractor.  A blow-up in
    the transient raises DivergenceError at recording time 0.
    """
    n_snap = save_count(horizon, tau) + 1
    sub = save_count(tau, h)
    solver = KseSolver(d, domain_length, h)
    rng = np.random.default_rng(seed)
    u0 = 0.01 * rng.standard_normal(d)
    u0 -= u0.mean()
    coeffs = solver.advance(rfft(u0) / d, save_count(transient, h))
    return SnapshotDataset(solve_truth(solver, coeffs[None], n_snap - 1, sub, tau, [seed]),
                           tau, domain_length, "kse")


def write_dataset(ds: SnapshotDataset, path, manifest: dict | None = None) -> None:
    """Write the little-endian binary snapshot format (magic SNOD).

    Layout: magic, u32 version, u32 d, u32 n_traj, u32 n_snap, f64 tau,
    f64 L, u8 system tag, then f64 payload trajectory-major, snapshot-major,
    grid-minor.  An optional sidecar ``manifest`` records generation metadata.
    The payload is written from ``ds.values`` itself, with no copy, when it is
    contiguous little-endian float64, as every dataset this package makes is.
    """
    header = DATASET_MAGIC + struct.pack(
        "<IIIIddB", DATASET_VERSION, ds.d, ds.n_traj, ds.n_snap, ds.tau,
        ds.domain_length, SYSTEM_TAGS[ds.system])
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(np.ascontiguousarray(ds.values, dtype="<f8"))
    if manifest is not None:
        write_sidecar(f"{path}.txt", manifest)


def read_dataset(path) -> SnapshotDataset:
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4)
        if magic != DATASET_MAGIC:
            raise ArtifactError(f"{path}: not a snapshot dataset file: bad magic {magic!r}")
        version, d, n_traj, n_snap, tau, length, tag = struct.unpack(
            "<IIIIddB", read_exact(fh, struct.calcsize("<IIIIddB")))
        if version != DATASET_VERSION:
            raise ArtifactError(f"{path}: unsupported dataset version {version}")
        try:
            require_grid(d)
            require_domain_length(length)
        except ValueError as err:
            raise ArtifactError(f"{path}: {err}") from None
        values = read_f8(fh, d * n_traj * n_snap).reshape(n_traj, n_snap, d)
        expect_end(fh)
    system = tag_name(SYSTEM_NAMES, tag, path, "system")
    sidecar = f"{path}.txt"
    meta = read_sidecar(sidecar) if os.path.exists(sidecar) else {}
    try:
        if "solver_step" in meta:
            save_count(tau, meta["solver_step"])
    except ValueError as err:
        raise ArtifactError(f"{sidecar}: solver_step: {err}") from None
    if meta.get("train_trajectories", 0) > n_traj:
        raise ArtifactError(f"{sidecar}: train_trajectories={meta['train_trajectories']} "
                            f"is past the {n_traj} trajectories of {path}")
    return SnapshotDataset(values, tau, length, system, meta)


def write_sidecar(path, values: dict) -> None:
    """One key=value line per entry, keys sorted."""
    with open(path, "w") as fh:
        fh.write("".join(f"{key}={values[key]}\n" for key in sorted(values)))


def read_sidecar(path, required=()) -> dict:
    """The key=value lines of a sidecar, the SIDECAR_NUMBERS keys parsed;
    ArtifactError naming the file and the key when one does not parse, is
    out of its range or a ``required`` key is absent."""
    with open(path) as fh:
        meta = dict(line.strip().split("=", 1) for line in fh if "=" in line)
    for key in required:
        if key not in meta:
            raise ArtifactError(f"{path}: no {key} key")
    for key, kind in SIDECAR_NUMBERS.items():
        try:
            if key in meta:
                meta[key] = kind(meta[key])
        except ValueError:
            raise ArtifactError(f"{path}: {key} is not a number: {meta[key]!r}") from None
    if meta.get("train_trajectories", 1) < 1:
        raise ArtifactError(f"{path}: train_trajectories must be at least 1: "
                            f"{meta['train_trajectories']}")
    if not 0 < meta.get("train_fraction", 1.0) <= 1:
        raise ArtifactError(f"{path}: train_fraction must be in (0, 1]: "
                            f"{meta['train_fraction']}")
    if not meta.get("domain_length", 1.0) > 0:
        raise ArtifactError(f"{path}: domain_length must be > 0: {meta['domain_length']}")
    if not 0 < meta.get("viscosity", 1.0) < np.inf:
        raise ArtifactError(f"{path}: viscosity must be finite and > 0: "
                            f"{meta['viscosity']}")
    if meta.get("epochs_completed", 0) < 0:
        raise ArtifactError(f"{path}: epochs_completed must be at least 0: "
                            f"{meta['epochs_completed']}")
    return meta
