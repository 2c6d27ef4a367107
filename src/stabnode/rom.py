"""Reduced-order modeling in the eigenbasis of the explicit linear operator.

Every linear operator here is circulant, so its eigenvectors are the real
Fourier modes and its eigenvalues are its symbol: the basis is written down
from the symbol, with no eigensolver.  Modes are retained either by
descending eigenvalue or by descending variance of their projected
tendencies on attractor data.  Reduced dynamics integrate with RK4 in three
flavors: plain Galerkin (truncate), nonlinear Galerkin (unresolved
coordinates slaved through the stationarity of their dynamics), and
postprocessing Galerkin (slaving applied only at output times).
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .neural_ode import _rk4_forward
from .spectral import (ArtifactError, DivergenceError, expect_end, read_exact, read_f8,
                       tag_name)

ORDERING_TAGS = {"eigenvalue": 0, "variance": 1}
ORDERING_NAMES = {v: k for k, v in ORDERING_TAGS.items()}

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


def variance_sort(basis: EigenBasis, model, snapshots) -> EigenBasis:
    """Reorder eigenpairs by descending variance of the projected tendencies.

    For every snapshot u the tendency of coordinate i is v_i . h(u); pairs
    are sorted by the sample variance of those tendencies, with ties broken
    by descending eigenvalue and then original position (stable).
    """
    snaps = np.asarray(getattr(snapshots, "snapshots", lambda: snapshots)(),
                       dtype=np.float64)
    if snaps.ndim != 2 or snaps.shape[0] == 0:
        raise ValueError("need a nonempty (n, d) snapshot array")
    tendencies = model.eval(snaps) @ basis.eigenvectors
    variances = tendencies.var(axis=0)
    order = np.lexsort((np.arange(basis.d), -basis.eigenvalues, -variances))
    return EigenBasis(basis.eigenvalues[order], basis.eigenvectors[:, order],
                      "variance")


def galerkin_rhs(basis: EigenBasis, d_p: int, model, p: np.ndarray,
                 lift=0.0) -> np.ndarray:
    """Resolved dynamics dp/dt = Lambda_p p + Vp^T F(Vp p + lift); the lift
    is nonlinear Galerkin's slaved Vq q, zero for plain Galerkin."""
    vp = basis.leading(d_p)
    return basis.eigenvalues[:d_p] * p + vp.T @ model.nonlinear(vp @ p + lift)


def unresolved_correction(basis: EigenBasis, d_p: int, model, p: np.ndarray,
                          iterations: int = 1) -> np.ndarray:
    """Unresolved coordinates slaved by stationarity of their dynamics.

    Iterates q <- -Lambda_q^{-1} Vq^T F(Vp p + Vq q) from q = 0; the fixed
    point satisfies Lambda_q q + Vq^T F = 0.  One iteration by default.
    """
    lam_q = basis.eigenvalues[d_p:]
    small = np.abs(lam_q) <= SLAVING_EIGENVALUE_FLOOR
    if np.any(small):
        mode = d_p + int(np.argmax(small))
        raise ValueError(f"trailing eigenvalue {mode} is within "
                         f"{SLAVING_EIGENVALUE_FLOOR} of zero; cannot slave it")
    vp = basis.leading(d_p)
    vq = basis.trailing(d_p)
    base = vp @ p
    q = np.zeros(basis.d - d_p)
    for _ in range(iterations):
        q = -(vq.T @ model.nonlinear(base + vq @ q)) / lam_q
    return q


def rom_integrate(basis: EigenBasis, d_p: int, model, u0: np.ndarray,
                  total_time: float, mode: str = "galerkin",
                  save_interval: float = 0.25, dt: float = 0.01,
                  slaving_iterations: int = 1):
    """Integrate the reduced dynamics; returns (times, reconstructed states).

    Modes: "galerkin" truncates the unresolved coordinates; "nlg" refreshes
    the slaved correction once per step and feeds it into the nonlinear
    term; "ppg" runs plain Galerkin and applies the correction only to the
    saved states.  Reconstructions are Vp p (+ Vq q where applicable).
    """
    if mode not in ("galerkin", "nlg", "ppg"):
        raise ValueError(f"unknown ROM mode {mode!r}")
    if not 0 < d_p <= basis.d:
        raise ValueError(f"retained dimension {d_p} is outside 1..{basis.d}")
    n_save = int(round(total_time / save_interval))
    sub = int(round(save_interval / dt))
    if sub < 1 or abs(sub * dt - save_interval) > 1e-9 * save_interval:
        raise ValueError("dt must divide save_interval")
    vp = basis.leading(d_p)
    vq = basis.trailing(d_p)
    p = vp.T @ np.asarray(u0, dtype=np.float64)

    def reconstruct(p_now):
        u = vp @ p_now
        if mode == "galerkin":
            return u
        q = unresolved_correction(basis, d_p, model, p_now, slaving_iterations)
        return u + vq @ q

    times = [0.0]
    states = [reconstruct(p)]
    for i in range(n_save):
        # overflow en route to the finiteness check is the divergence signal
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(sub):
                lift = 0.0
                if mode == "nlg":
                    lift = vq @ unresolved_correction(basis, d_p, model, p,
                                                      slaving_iterations)
                try:
                    p, _ = _rk4_forward(
                        lambda ps: galerkin_rhs(basis, d_p, model, ps, lift),
                        p, dt, 1, record=False)
                except DivergenceError as err:
                    raise DivergenceError(
                        f"reduced model diverged near t = {times[-1]:.4g}",
                        time=times[-1]) from err
        times.append((i + 1) * save_interval)
        states.append(reconstruct(p))
    return np.array(times), np.stack(states)


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
