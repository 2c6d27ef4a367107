"""Reduced-order modeling in the eigenbasis of the explicit linear operator.

Every linear operator here is circulant, so its eigenvectors are the real
Fourier modes and its eigenvalues are its symbol: the basis is written down
from the symbol, with no eigensolver.  Modes are retained either by
descending eigenvalue or by descending variance of their projected
tendencies on attractor data.  Reduced dynamics integrate with RK4 in three
flavors: plain Galerkin (truncate), nonlinear Galerkin (unresolved
coordinates slaved through the stationarity of their dynamics), and
postprocessing Galerkin (slaving applied only at output times).

The reduced state is Fourier coefficients, not eigen-coordinates: spectra
c = rfft(u) / d viewed as d + 2 real slots, 2k cos_k and 2k + 1 sin_k.  Each
eigenvector is one slot, and a basis holds its slots, not vectors: a Galerkin
projection is a 0/1 slot mask and Lambda_p a per-slot symbol
(:func:`slot_masks`).  A d_p sweep marches in lockstep: every row, a resolved
spectrum c_p, advances in one batched expression, one nonlinear evaluation
per RK4 stage and one inverse transform per save.  The nonlinear Galerkin
lift c_q is a function of c_p, so it is no part of the state: the stepper
holds it.  All is row-wise, so with the true RHS each row is bit-identical to
a run of its d_p alone; a network RHS on stacked rows matches it to rounding.

A model's nonlinear term reaches the ROM through one factory,
``model.tendency_kernel(shape)``, written once in
:class:`~stabnode.neural_ode.RhsModel` for either term, the network or the true
RHS's Burgers advection: it binds the term's ``coefficient_tendency(shape)``
(the dealiasing rows, or the network buffers and transforms) and an argument
for coefficients of batch shape ``shape`` once, and returns ``N(c_p, lift)``,
N(c_p + lift) of real-view spectra as a float64 view of an array it keeps.
The sweep steps in place (:class:`ReducedStepper`): its RK4 stage, its
slaving closure and its lift are bound to one kernel per set of live rows,
and every operation writes with ``out=``.  :func:`unresolved_correction` is the slaving closure on a fresh
kernel, into fresh arrays, with the bits of the stepper's lift.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .neural_ode import Rk4Buffers, _rk4_forward
from .spectral import (ArtifactError, expect_end, irfft, march, read_exact, read_f8, rfft,
                       save_count, tag_name)

ORDERING_TAGS = {"eigenvalue": 0, "variance": 1}
ORDERING_NAMES = {v: k for k, v in ORDERING_TAGS.items()}

# plain, nonlinear and postprocessing Galerkin
MODES = ("galerkin", "nlg", "ppg")

EIGENBASIS_MAGIC = b"SNEB"

SYMMETRY_TOL = 1e-10
SLAVING_EIGENVALUE_FLOOR = 1e-10
# a slaved eigenvalue must exceed this fraction of the largest retained one in
# magnitude: the lift -Q N / lambda grows as 1 / |lambda|, and a mode an order
# of magnitude slower than the retained ones is no fast mode to slave
SLAVING_RELATIVE_FLOOR = 0.1


@dataclass
class EigenBasis:
    """Eigenpairs of a symmetric circulant: column i is the real Fourier mode in
    real-view spectrum slot ``slots[i]`` (2k cos_k, 2k + 1 sin_k).  ValueError
    unless the slots permute an even grid's d real ones, all but 1 and d + 1,
    and each cos_k and sin_k share an eigenvalue, as a symmetric circulant's do."""

    eigenvalues: np.ndarray
    slots: np.ndarray
    ordering: str = "eigenvalue"

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.slots = np.asarray(self.slots, dtype=np.intp)
        d = self.eigenvalues.size
        if d % 2 or not np.array_equal(np.sort(self.slots), np.r_[0, 2:d + 1]):
            raise ValueError("not a Fourier basis: the slots are no permutation of an "
                             "even grid's real slots")
        lam = np.zeros(d + 2)
        lam[self.slots] = self.eigenvalues
        if not np.array_equal(lam[2:d:2], lam[3:d:2]):
            raise ValueError("cos_k and sin_k have different eigenvalues")
        if self.ordering not in ORDERING_TAGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")

    @property
    def d(self) -> int:
        return self.eigenvalues.size

    @property
    def eigenvectors(self) -> np.ndarray:
        """The dense orthonormal modes, each with its largest component positive;
        built on each call, for :func:`write_eigenbasis` and dense oracles."""
        d, half = self.d, self.d // 2
        phase = 2.0 * np.pi * np.outer(np.arange(d), np.arange(half + 1)) / d
        cos = np.cos(phase) * np.sqrt(2.0 / d)
        cos[:, [0, -1]] /= np.sqrt(2.0)
        natural = np.hstack([cos, np.sin(phase[:, 1:-1]) * np.sqrt(2.0 / d)])
        vecs = natural[:, self.slots // 2 + half * (self.slots % 2)]
        return vecs * np.sign(vecs[np.argmax(np.abs(vecs), axis=0), np.arange(d)])


def fourier_basis(symbol: np.ndarray) -> EigenBasis:
    """Eigenpairs of the circulant operator with one-sided symbol (k = 0..d/2).

    The modes are cos_k for k = 0..d/2 and sin_k for 0 < k < d/2, each with
    eigenvalue Re symbol[k], the symbol of the symmetric part (A + A^T)/2; a
    symbol whose imaginary part is not negligible warns.  Eigenpairs are
    sorted by descending eigenvalue, ties kept in that mode order.
    """
    symbol = np.asarray(symbol)
    scale = np.max(np.abs(symbol))
    if scale > 0 and np.max(np.abs(symbol.imag)) > SYMMETRY_TOL * scale:
        warnings.warn("linear operator is not symmetric; using (A + A^T)/2 "
                      "for the reduced-order basis")
    lam = symbol.real.astype(np.float64)
    vals = np.concatenate([lam, lam[1:-1]])
    slots = np.r_[0:2 * lam.size:2, 3:2 * lam.size - 2:2]  # cos_k for every k, then sin_k
    order = np.lexsort((np.arange(vals.size), -vals))
    return EigenBasis(vals[order], slots[order], "eigenvalue")


def tendency_variances(basis: EigenBasis, model, snapshots: np.ndarray) -> np.ndarray:
    """Each column's variance of v_i . h(u) over the (n, d) ``snapshots``: that of
    h's real-view spectrum at its slot times v_i's squared scale, 2/d or 1/d."""
    snaps = np.asarray(snapshots, dtype=np.float64)
    if snaps.ndim != 2 or snaps.shape[0] == 0:
        raise ValueError("need a nonempty (n, d) snapshot array")
    d = basis.d
    spectra = rfft(model.eval(snaps)).view(np.float64)
    return spectra.var(axis=0)[basis.slots] * np.where(basis.slots % d, 2.0 / d, 1.0 / d)


def variance_sort(basis: EigenBasis, model, snapshots: np.ndarray) -> EigenBasis:
    """Sort by descending :func:`tendency_variances`, then eigenvalue, then position."""
    variances = tendency_variances(basis, model, snapshots)
    order = np.lexsort((np.arange(basis.d), -basis.eigenvalues, -variances))
    return EigenBasis(basis.eigenvalues[order], basis.slots[order], "variance")


def slot_masks(basis: EigenBasis, dims):
    """(lam, resolved, divisor) of a sweep over the retained dimensions ``dims``.

    ``lam`` (d + 2,) is each slot's eigenvalue, zero on the two slots no real
    field fills (Im c_0, Im c_{d/2}); row r of ``resolved`` is 1.0 on the
    slots of the leading dims[r] columns, its Galerkin projection, and 0.0
    elsewhere; ``divisor`` is -lam on the trailing slots and -inf elsewhere,
    so a tendency over it is the slaved -Q N / lam, zero off them.
    """
    d, slots = basis.d, basis.slots
    lam = np.zeros(d + 2)
    lam[slots] = basis.eigenvalues
    lead = np.arange(d) < np.asarray(dims)[:, None]
    resolved = np.zeros((lead.shape[0], d + 2))
    resolved[:, slots] = lead
    divisor = np.full(resolved.shape, -np.inf)
    divisor[:, slots] = np.where(lead, -np.inf, -basis.eigenvalues)
    return lam, resolved, divisor


def _slaving(divisor: np.ndarray, kernel, iterations: int, out: np.ndarray | None):
    """``slave(c_p)``, the lift of ``iterations`` slaving iterations through a
    model's ``kernel``, from c_q = 0, each with the operands and order of
    N(c_p + c_q) / divisor, written into ``out`` (fresh arrays when it is
    None)."""
    def slave(c_p: np.ndarray) -> np.ndarray:
        c_q = 0.0
        for _ in range(iterations):
            c_q = np.divide(kernel(c_p, c_q), divisor, out=out)
        return c_q
    return slave


def unresolved_correction(divisor: np.ndarray, model, c_p: np.ndarray,
                          iterations: int = 1) -> np.ndarray:
    """Unresolved coefficients slaved by stationarity of their dynamics.

    Iterates c_q <- -Lambda_q^{-1} Q N(c_p + c_q) from c_q = 0, with the
    ``divisor`` of :func:`slot_masks`; the fixed point satisfies
    Lambda_q c_q + Q N = 0.  One iteration by default.  No trailing eigenvalue
    may lie within the slaving floor of zero (:func:`check_sweep` checks that
    once per d_p, before any step).  Into fresh arrays, with the bits of the
    lift a :class:`ReducedStepper` holds beside its state c_p.
    """
    kernel = model.tendency_kernel(c_p.shape[:-1])
    return _slaving(divisor, kernel, iterations, None)(c_p)


def check_sweep(basis: EigenBasis, d_p, mode: str, total_time: float,
                save_interval: float, dt: float):
    """The retained dimensions (an int array), saves and RK4 steps per save of
    a :func:`rom_integrate` call.

    ValueError for an unknown mode, a d_p that is not a nonempty sequence, a
    d_p outside 1..d, or a dt that does not divide save_interval or a
    save_interval total_time (:func:`spectral.save_count`).  When the
    unresolved coordinates are slaved, also for a d_p that leaves a trailing
    eigenvalue within the slaving floor of zero: SLAVING_RELATIVE_FLOOR times
    the largest retained |eigenvalue|, and at least SLAVING_EIGENVALUE_FLOOR.
    It integrates nothing, so a caller can run it before any other work.
    """
    if mode not in MODES:
        raise ValueError(f"unknown ROM mode {mode!r}")
    dims = np.asarray(d_p, dtype=int)
    if dims.ndim != 1 or dims.size == 0:
        raise ValueError(f"no retained dimension to integrate: d_p must be a "
                         f"nonempty sequence, got {d_p!r}")

    def refuse_slaving(k, floor):
        small = np.abs(basis.eigenvalues[k:]) <= floor
        if mode != "galerkin" and np.any(small):
            i = k + int(np.argmax(small))
            hint = ("the variance sort puts a conserved mode last: use sort=eigenvalue"
                    if basis.ordering == "variance" else "retain it with a larger d_p")
            raise ValueError(
                f"trailing eigenvalue {i} ({basis.eigenvalues[i]:.4g}) is within "
                f"{floor:.4g} of zero (the slaving floor: {SLAVING_RELATIVE_FLOOR:g} times "
                f"the largest retained |eigenvalue|, at least {SLAVING_EIGENVALUE_FLOOR:g});"
                f" cannot slave it; {hint} or mode=galerkin")

    # every d_p against the absolute floor before any against the relative one
    for k in dims:
        if not 0 < k <= basis.d:
            raise ValueError(f"retained dimension {k} is outside 1..{basis.d}")
        refuse_slaving(k, SLAVING_EIGENVALUE_FLOOR)
    for k in dims:
        refuse_slaving(k, SLAVING_RELATIVE_FLOOR * np.max(np.abs(basis.eigenvalues[:k])))
    return dims, save_count(total_time, save_interval), save_count(save_interval, dt)


class ReducedStepper:
    """The ``advance`` of a :func:`rom_integrate` sweep for one set of live
    rows, with the rows' masks ``resolved`` and ``divisor`` of
    :func:`slot_masks`: RK4 substeps of ``dt`` of the resolved coefficients
    c_p, each followed in "nlg" mode by a new lift of ``iterations`` slaving
    iterations.

    The model's :meth:`tendency_kernel` is built once for the rows, and the
    RK4 stage ``rhs(c_p, out)``, Lambda_p c_p + P N(c_p + lift) into ``out``
    (a fresh array when it is None), and the slaving closure ``lift_of(c_p)``
    (:func:`unresolved_correction`'s) are bound to it once.  The stage reads
    the stepper's ``lift``: zero in galerkin and ppg, and in nlg the slaved
    c_q of the latest c_p, which ``lift_of`` writes there; ppg's ``lift_of``,
    run only at the saves, writes a scratch array of its own.  The stepper
    keeps every array a step writes: a one-substep RK4 tape, the kernel's
    buffers and the lift.  Every operand of a step is a contiguous array of
    the rows' shape, lam too, so no product broadcasts, and a warm step
    allocates no array; a stepper for other rows is another one.
    """

    def __init__(self, model, lam: np.ndarray, resolved: np.ndarray,
                 divisor: np.ndarray, dt: float, mode: str, iterations: int):
        n, m = resolved.shape
        kernel = model.tendency_kernel((n,))
        lam = np.broadcast_to(lam, resolved.shape).copy()
        self.dt, self.slaved = dt, mode == "nlg"
        self.rk4 = Rk4Buffers((n, m), 1)
        self.lift = lift = np.zeros((n, m))

        def rhs(c_p: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
            # the operands and order of lam * c_p + resolved * N; N is
            # overwritten in the kernel's own array
            f = kernel(c_p, lift)
            linear = np.multiply(lam, c_p, out=out)
            return np.add(linear, np.multiply(resolved, f, out=f), out=linear)

        self.rhs = rhs
        self.lift_of = _slaving(divisor, kernel, iterations,
                                np.empty((n, m)) if mode == "ppg" else lift)

    def advance(self, c_p: np.ndarray, nsteps: int) -> np.ndarray:
        """``c_p`` (n, d + 2) after ``nsteps`` steps, in the RK4 tape's
        final-state slot ``rk4.k[1]``; ``c_p`` itself is only read."""
        for _ in range(nsteps):
            c_p = _rk4_forward(self.rhs, c_p, self.dt, 1, self.rk4)
            if self.slaved:
                self.lift_of(c_p)
        return c_p


def rom_integrate(basis: EigenBasis, d_p, model, u0: np.ndarray,
                  total_time: float, mode: str = "galerkin",
                  save_interval: float = 0.25, dt: float = 0.01,
                  slaving_iterations: int = 1):
    """Integrate the reduced dynamics; returns (times, reconstructed states).

    Modes: "galerkin" truncates the unresolved coordinates; "nlg" slaves them
    to every new c_p, a lift c_q that feeds the next step and the save; "ppg"
    runs plain Galerkin and slaves only at the saves.  A sequence of n d_p
    gives states (n, n_save + 1, d) from the resolved spectra c_p (n, d + 2),
    marched in lockstep by a :class:`ReducedStepper` that holds the lift.  It
    is built again only when a row drops out, and takes the surviving rows'
    lift, so a network RHS, whose products may round otherwise at another
    batch size, keeps its bits too.  The first lift and the saves' slaving go
    through its kernel.  :func:`check_sweep` runs before any step.  A
    diverging row does not raise: it reads +inf from its first non-finite
    save on, and the other rows march on untouched.
    """
    dims, n_save, sub = check_sweep(basis, d_p, mode, total_time, save_interval, dt)
    lam, resolved, divisor = slot_masks(basis, dims)
    d = basis.d
    live = np.arange(dims.size)
    stepper = ReducedStepper(model, lam, resolved, divisor, dt, mode, slaving_iterations)

    def advance(c_p, nsteps, rows):
        nonlocal stepper, live
        if rows.size != live.size:
            kept = stepper.lift[np.isin(live, rows)]
            stepper = ReducedStepper(model, lam, resolved[rows], divisor[rows], dt, mode,
                                     slaving_iterations)
            np.copyto(stepper.lift, kept)
            live = rows
        return stepper.advance(c_p, nsteps)

    def observe(c_p, rows):
        if mode == "nlg":
            c_p = c_p + stepper.lift
        elif mode == "ppg":
            c_p = c_p + stepper.lift_of(c_p)
        return irfft(c_p.view(np.complex128) * d, d)

    c_p = resolved * (rfft(np.asarray(u0, dtype=np.float64)) / d).view(np.float64)
    if mode == "nlg":
        stepper.lift_of(c_p)
    return np.arange(n_save + 1) * save_interval, march(advance, c_p, n_save, sub, observe)


def write_eigenbasis(path, basis: EigenBasis) -> None:
    """Binary persistence (magic SNEB): d, ordering tag, values, column-major
    vectors."""
    with open(path, "wb") as fh:
        fh.write(EIGENBASIS_MAGIC)
        fh.write(struct.pack("<IB", basis.d, ORDERING_TAGS[basis.ordering]))
        fh.write(basis.eigenvalues.astype("<f8").tobytes())
        fh.write(basis.eigenvectors.astype("<f8").tobytes(order="F"))


def read_eigenbasis(path) -> EigenBasis:
    """ArtifactError naming the file unless it holds an :class:`EigenBasis`
    whose columns are, bit for bit, the eigenvectors of their slots (so it
    rewrites the same bytes)."""
    with open(path, "rb") as fh:
        if read_exact(fh, 4) != EIGENBASIS_MAGIC:
            raise ArtifactError(f"{path}: not an eigenbasis file: bad magic")
        d, tag = struct.unpack("<IB", read_exact(fh, 5))
        vals = read_f8(fh, d)
        vecs = read_f8(fh, d * d).reshape((d, d), order="F")
        expect_end(fh)
    ordering = tag_name(ORDERING_NAMES, tag, path, "ordering")
    slots = np.argmax(np.abs(rfft(vecs.T).view(np.float64)), axis=1)
    try:
        basis = EigenBasis(vals, slots, ordering)
    except ValueError as err:
        raise ArtifactError(f"{path}: {err}") from None
    if not np.array_equal(basis.eigenvectors.view(np.uint64), vecs.view(np.uint64)):
        raise ArtifactError(f"{path}: not a Fourier basis: a column is not its slot's mode")
    return basis
