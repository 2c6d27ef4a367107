"""Reduced-order modeling in the eigenbasis of the explicit linear operator.

The symmetric operator is diagonalized with cyclic Jacobi rotations; modes
are retained either by descending eigenvalue or by descending variance of
their projected tendencies on attractor data.  Reduced dynamics integrate
with RK4 in three flavors: plain Galerkin (truncate), nonlinear Galerkin
(unresolved coordinates slaved through the stationarity of their dynamics),
and postprocessing Galerkin (slaving applied only at output times).
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .neural_ode import DivergenceError
from .spectral import ArtifactError, expect_end, read_exact, read_f8

ORDERING_TAGS = {"eigenvalue": 0, "variance": 1}
ORDERING_NAMES = {v: k for k, v in ORDERING_TAGS.items()}

EIGENBASIS_MAGIC = b"SNEB"

JACOBI_TOL = 1e-12
SYMMETRY_TOL = 1e-10
SLAVING_EIGENVALUE_FLOOR = 1e-10


@dataclass
class EigenBasis:
    """Eigenpairs of a symmetric operator; eigenvectors are the columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    ordering: str = "eigenvalue"
    retained: int | None = None

    def __post_init__(self):
        self.eigenvalues = np.asarray(self.eigenvalues, dtype=np.float64)
        self.eigenvectors = np.asarray(self.eigenvectors, dtype=np.float64)
        d = self.eigenvalues.size
        if self.eigenvectors.shape != (d, d):
            raise ValueError("eigenvector matrix must be d x d")
        if self.ordering not in ORDERING_TAGS:
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.retained is None:
            self.retained = d
        if not 1 <= self.retained <= d:
            raise ValueError("retained count out of range")

    @property
    def d(self) -> int:
        return self.eigenvalues.size

    def leading(self, d_p: int) -> np.ndarray:
        return self.eigenvectors[:, :d_p]

    def trailing(self, d_p: int) -> np.ndarray:
        return self.eigenvectors[:, d_p:]


def _jacobi(mat: np.ndarray, tol: float, max_sweeps: int = 60):
    a = mat.astype(np.float64).copy()
    d = a.shape[0]
    v = np.eye(d)
    scale = np.linalg.norm(mat)
    if scale == 0.0:
        return np.zeros(d), v
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2) * 2.0)
        if off <= tol * scale:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = np.sign(theta) / (abs(theta) + np.hypot(theta, 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vec_p, vec_q = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vec_p - s * vec_q
                v[:, q] = s * vec_p + c * vec_q
    return np.diag(a).copy(), v


def eig_symmetric(mat: np.ndarray) -> EigenBasis:
    """Jacobi eigendecomposition, eigenvalue-descending, signed deterministically.

    The largest-magnitude component of every eigenvector is made positive so
    bases are comparable across runs.  Asymmetric input is rejected.
    """
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    scale = np.max(np.abs(mat))
    if scale > 0 and np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL * scale:
        raise ValueError("matrix is not symmetric")
    vals, vecs = _jacobi(mat, JACOBI_TOL)
    order = np.lexsort((np.arange(vals.size), -vals))
    vals = vals[order]
    vecs = vecs[:, order]
    picks = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[picks, np.arange(vals.size)])
    signs[signs == 0] = 1.0
    return EigenBasis(vals, vecs * signs, "eigenvalue")


def projectors(basis: EigenBasis, d_p: int) -> tuple[np.ndarray, np.ndarray]:
    """(P, Q) = (Vp Vp^T, Vq Vq^T) in the basis's current ordering."""
    if not 1 <= d_p <= basis.d:
        raise ValueError("d_p out of range")
    vp = basis.leading(d_p)
    vq = basis.trailing(d_p)
    return vp @ vp.T, vq @ vq.T


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
                      "variance", basis.retained)


def galerkin_rhs(basis: EigenBasis, d_p: int, model, p: np.ndarray) -> np.ndarray:
    """Resolved dynamics dp/dt = Lambda_p p + Vp^T F(Vp p)."""
    vp = basis.leading(d_p)
    u = vp @ p
    return basis.eigenvalues[:d_p] * p + vp.T @ model.nonlinear(u)


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


def _rk4_reduced(rhs, p, dt):
    k1 = rhs(p)
    k2 = rhs(p + 0.5 * dt * k1)
    k3 = rhs(p + 0.5 * dt * k2)
    k4 = rhs(p + dt * k3)
    return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    n_save = int(round(total_time / save_interval))
    sub = int(round(save_interval / dt))
    if sub < 1 or abs(sub * dt - save_interval) > 1e-9 * save_interval:
        raise ValueError("dt must divide save_interval")
    vp = basis.leading(d_p)
    vq = basis.trailing(d_p)
    lam_p = basis.eigenvalues[:d_p]
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
                if mode == "nlg":
                    q_now = unresolved_correction(basis, d_p, model, p,
                                                  slaving_iterations)
                    lift = vq @ q_now

                    def rhs(ps):
                        return lam_p * ps + vp.T @ model.nonlinear(vp @ ps + lift)
                else:
                    def rhs(ps):
                        return lam_p * ps + vp.T @ model.nonlinear(vp @ ps)
                p = _rk4_reduced(rhs, p, dt)
                if not np.all(np.isfinite(p)):
                    raise DivergenceError(
                        f"reduced model diverged near t = {times[-1]:.4g}",
                        time=times[-1], last_state=states[-1])
        times.append((i + 1) * save_interval)
        states.append(reconstruct(p))
    return np.array(times), np.stack(states)


def eigenvalue_gaps(basis: EigenBasis) -> np.ndarray:
    """Consecutive spectral gaps with eigenvalues sorted increasing."""
    return np.diff(np.sort(basis.eigenvalues))


def rom_linear_matrix(model) -> np.ndarray:
    """The model's linear branch, symmetrized for eigenbasis use if needed."""
    mat = model.linear_matrix()
    scale = np.max(np.abs(mat))
    if scale > 0 and np.max(np.abs(mat - mat.T)) > SYMMETRY_TOL * scale:
        warnings.warn("linear operator is not symmetric; using (A + A^T)/2 "
                      "for the reduced-order basis")
        mat = 0.5 * (mat + mat.T)
    return mat


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
    return EigenBasis(vals, vecs, ORDERING_NAMES[tag])
