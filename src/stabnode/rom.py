"""Reduced-order modeling in the eigenbasis of the explicit linear operator.

Every linear operator here is circulant, so its eigenvectors are the real
Fourier modes and its eigenvalues are its symbol: the basis is written down
from the symbol, with no eigensolver.  Modes are retained either by
descending eigenvalue or by descending variance of their projected
tendencies on attractor data.  Reduced dynamics integrate with RK4 in three
flavors: plain Galerkin (truncate), nonlinear Galerkin (unresolved
coordinates slaved through the stationarity of their dynamics), and
postprocessing Galerkin (slaving applied only at output times).  A d_p
sweep marches in lockstep: the reduced states, each with its nonlinear
Galerkin lift Vq q, advance as one zero-padded batch, with one nonlinear
evaluation per RK4 stage.  Projections stay per row, so with the true RHS
each row is bit-identical to a run of its d_p alone; a network RHS
evaluated on the stacked rows matches it only to rounding.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .neural_ode import _rk4_forward
from .spectral import (ArtifactError, expect_end, march, read_exact, read_f8, save_count,
                       tag_name)

ORDERING_TAGS = {"eigenvalue": 0, "variance": 1}
ORDERING_NAMES = {v: k for k, v in ORDERING_TAGS.items()}

# plain, nonlinear and postprocessing Galerkin
MODES = ("galerkin", "nlg", "ppg")

EIGENBASIS_MAGIC = b"SNEB"

SYMMETRY_TOL = 1e-10
SLAVING_EIGENVALUE_FLOOR = 1e-10


@dataclass
class EigenBasis:
    """Eigenpairs of a symmetric operator; eigenvectors are the columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ordering: str = "eigenvalue"

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=np.float64)
        d = self.eigenvalues.size
        if self.eigenvectors.shape != (d, d):
            raise ValueError("eigenvector matrix must be d x d")
        if self.ordering not in ORDERING_TAGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")

    @property
    def d(self) -> int:
        return self.eigenvalues.size

    def leading(self, d_p: int) -> np.ndarray:
        return self.eigenvectors[:, :d_p]

    def trailing(self, d_p: int) -> np.ndarray:
        return self.eigenvectors[:, d_p:]


def fourier_basis(symbol: np.ndarray) -> EigenBasis:
    """Eigenpairs of the circulant operator with one-sided symbol (k = 0..d/2).

    The columns are the orthonormal modes cos(2*pi*k*j/d) for k = 0..d/2 and
    sin(2*pi*k*j/d) for 0 < k < d/2, each with eigenvalue Re symbol[k], the
    symbol of the symmetric part (A + A^T)/2; a symbol whose imaginary part
    is not negligible warns.  Eigenpairs are sorted by descending eigenvalue,
    ties kept in that column order, and the largest-magnitude component of every
    eigenvector is made positive so bases are comparable across runs.
    """
    symbol = np.asarray(symbol)
    scale = np.max(np.abs(symbol))
    if scale > 0 and np.max(np.abs(symbol.imag)) > SYMMETRY_TOL * scale:
        warnings.warn("linear operator is not symmetric; using (A + A^T)/2 "
                      "for the reduced-order basis")
    lam = symbol.real.astype(np.float64)
    d = 2 * (lam.size - 1)
    phase = 2.0 * np.pi * np.outer(np.arange(d), np.arange(lam.size)) / d
    cos = np.cos(phase) * np.sqrt(2.0 / d)
    cos[:, [0, -1]] /= np.sqrt(2.0)
    vals = np.concatenate([lam, lam[1:-1]])
    vecs = np.hstack([cos, np.sin(phase[:, 1:-1]) * np.sqrt(2.0 / d)])
    order = np.lexsort((np.arange(d), -vals))
    vals = vals[order]
    vecs = vecs[:, order]
    picks = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[picks, np.arange(d)])
    return EigenBasis(vals, vecs * signs, "eigenvalue")


def variance_sort(basis: EigenBasis, model, snapshots: np.ndarray) -> EigenBasis:
    """Reorder eigenpairs by descending variance of the projected tendencies.

    For every snapshot u the tendency of coordinate i is v_i . h(u); pairs
    are sorted by the sample variance of those tendencies, with ties broken
    by descending eigenvalue and then original position (stable).
    """
    snaps = np.asarray(snapshots, dtype=np.float64)
    if snaps.ndim != 2 or snaps.shape[0] == 0:
        raise ValueError("need a nonempty (n, d) snapshot array")
    tendencies = model.eval(snaps) @ basis.eigenvectors
    variances = tendencies.var(axis=0)
    order = np.lexsort((np.arange(basis.d), -basis.eigenvalues, -variances))
    return EigenBasis(basis.eigenvalues[order], basis.eigenvectors[:, order],
                      "variance")


def galerkin_rhs(basis: EigenBasis, d_p, model, p: np.ndarray,
                 lift=0.0) -> np.ndarray:
    """Resolved dynamics dp/dt = Lambda_p p + Vp^T F(Vp p + lift); the lift
    is nonlinear Galerkin's slaved Vq q, zero for plain Galerkin.

    A sequence of n d_p takes p (n, max d_p), zero past each row's d_p, and
    lifts (n, d), and returns that layout.  The projections run row by row
    and F once on the stacked (n, d) states, so under a row-wise F (TrueRhs)
    each row keeps the bits of a one-row call.
    """
    f = model.nonlinear(_resolved(basis, d_p, p) + lift)
    # zero past a row's d_p times any eigenvalue stays zero
    out = basis.eigenvalues[:p.shape[1]] * p
    for k, fk, o in zip(d_p, f, out):
        o[:k] += basis.leading(k).T @ fk
    return out


def unresolved_correction(basis: EigenBasis, d_p, model, p: np.ndarray,
                          iterations: int = 1):
    """Unresolved coordinates slaved by stationarity of their dynamics.

    Iterates q <- -Lambda_q^{-1} Vq^T F(Vp p + Vq q) from q = 0; the fixed
    point satisfies Lambda_q q + Vq^T F = 0.  One iteration by default.
    Batches as :func:`galerkin_rhs` and then returns a list, one q per row.
    No trailing eigenvalue may lie within SLAVING_EIGENVALUE_FLOOR of zero;
    :func:`check_sweep` checks that once per d_p, before any step.
    """
    base = _resolved(basis, d_p, p)
    qs = [np.zeros(basis.d - k) for k in d_p]
    for _ in range(iterations):
        f = model.nonlinear(base + _slaved(basis, d_p, qs))
        qs = [-(basis.trailing(k).T @ fk) / basis.eigenvalues[k:]
              for k, fk in zip(d_p, f)]
    return qs


def check_sweep(basis: EigenBasis, d_p, mode: str, total_time: float,
                save_interval: float, dt: float):
    """The retained dimensions (an int array), saves and RK4 steps per save of
    a :func:`rom_integrate` call.

    ValueError for an unknown mode, a d_p that is not a nonempty sequence, a
    d_p outside 1..d, a d_p that leaves a trailing eigenvalue at zero when the
    unresolved coordinates are slaved, or a dt that does not divide
    save_interval or a save_interval total_time (:func:`spectral.save_count`).
    It integrates nothing, so a caller can run it before any other work.
    """
    if mode not in MODES:
        raise ValueError(f"unknown ROM mode {mode!r}")
    dims = np.asarray(d_p, dtype=int)
    if dims.ndim != 1 or dims.size == 0:
        raise ValueError(f"no retained dimension to integrate: d_p must be a "
                         f"nonempty sequence, got {d_p!r}")
    for k in dims:
        if not 0 < k <= basis.d:
            raise ValueError(f"retained dimension {k} is outside 1..{basis.d}")
        small = np.abs(basis.eigenvalues[k:]) <= SLAVING_EIGENVALUE_FLOOR
        if mode != "galerkin" and np.any(small):
            hint = ("; the variance sort puts a conserved mode last: use sort=eigenvalue"
                    " or mode=galerkin") if basis.ordering == "variance" else ""
            raise ValueError(f"trailing eigenvalue {k + int(np.argmax(small))} is "
                             f"within {SLAVING_EIGENVALUE_FLOOR} of zero; cannot slave "
                             f"it{hint}")
    return dims, save_count(total_time, save_interval), save_count(save_interval, dt)


def _resolved(basis: EigenBasis, dims, p) -> np.ndarray:
    """Vp p of every row of the batch, (n, d), one matrix-vector product each."""
    u = np.empty((len(dims), basis.d))
    for k, row, out in zip(dims, p, u):
        np.matmul(basis.leading(k), row[:k], out=out)
    return u


def _slaved(basis: EigenBasis, dims, qs) -> np.ndarray:
    """Vq q of every row, (n, d), one matrix-vector product each."""
    u = np.empty((len(dims), basis.d))
    for k, q, out in zip(dims, qs, u):
        np.matmul(basis.trailing(k), q, out=out)
    return u


def rom_integrate(basis: EigenBasis, d_p, model, u0: np.ndarray,
                  total_time: float, mode: str = "galerkin",
                  save_interval: float = 0.25, dt: float = 0.01,
                  slaving_iterations: int = 1):
    """Integrate the reduced dynamics; returns (times, reconstructed states).

    Modes: "galerkin" truncates the unresolved coordinates; "nlg" slaves them
    to every new p, a lift Vq q that feeds the next step and the save; "ppg"
    runs plain Galerkin and slaves only at the saves.  A sequence of n d_p
    gives states (n, n_save + 1, d): the sweep marches the packed state
    [p | Vq q], (n, max d_p + d), p zero past each row's d_p, in lockstep,
    with one nonlinear evaluation per RK4 stage.  :func:`check_sweep`
    runs before any step.  A diverging row does not raise: its states go
    non-finite, it reads +inf from the first such save on, and the other rows
    march on untouched.
    """
    dims, n_save, sub = check_sweep(basis, d_p, mode, total_time, save_interval, dt)
    width = dims.max()
    u0 = np.asarray(u0, dtype=np.float64)
    state = np.zeros((dims.size, width + basis.d))
    for k, row in zip(dims, state):
        row[:k] = basis.leading(k).T @ u0

    def slave(p, live):
        return _slaved(basis, live, unresolved_correction(basis, live, model, p,
                                                          slaving_iterations))

    def advance(state, nsteps, rows):
        live, p, lift = dims[rows], state[:, :width], state[:, width:]
        for _ in range(nsteps):
            p = _rk4_forward(lambda ps, _: galerkin_rhs(basis, live, model, ps, lift),
                             p, dt, 1)
            if mode == "nlg":
                lift = slave(p, live)
        return np.hstack([p, lift])

    def observe(state, rows):
        p = state[:, :width]
        u = _resolved(basis, dims[rows], p)
        if mode == "galerkin":
            return u  # no + 0.0, which would turn -0.0 into +0.0
        return u + (state[:, width:] if mode == "nlg" else slave(p, dims[rows]))

    if mode == "nlg":
        state[:, width:] = slave(state[:, :width], dims)
    states = march(advance, state, n_save, sub, observe)
    times = np.arange(n_save + 1) * save_interval
    return times, states


def write_eigenbasis(path, basis: EigenBasis) -> None:
    """Binary persistence (magic SNEB): d, ordering tag, values, column-major
    vectors."""
    with open(path, "wb") as fh:
        fh.write(EIGENBASIS_MAGIC)
        fh.write(struct.pack("<IB", basis.d, ORDERING_TAGS[basis.ordering]))
        fh.write(basis.eigenvalues.astype("<f8").tobytes())
        fh.write(basis.eigenvectors.astype("<f8").tobytes(order="F"))


def read_eigenbasis(path) -> EigenBasis:
    with open(path, "rb") as fh:
        if read_exact(fh, 4) != EIGENBASIS_MAGIC:
            raise ArtifactError(f"{path}: not an eigenbasis file: bad magic")
        d, tag = struct.unpack("<IB", read_exact(fh, 5))
        vals = read_f8(fh, d)
        vecs = read_f8(fh, d * d).reshape((d, d), order="F")
        expect_end(fh)
    return EigenBasis(vals, vecs, tag_name(ORDERING_NAMES, tag, path, "ordering"))
