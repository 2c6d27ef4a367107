"""Evaluation statistics for trajectories and ensembles.

Energy spectra under the 1/d transform convention, ensemble relative errors
(plain and attractor-normalized), joint histograms of first/second spatial
derivatives, KL divergence between such histograms, seeded noise injection
in physical or Fourier space, and a leading-Lyapunov-exponent estimate by
repeated renormalization of a companion trajectory.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from . import spectral as sp

PDF_MAGIC = b"SNPD"

KSE_PDF_X_RANGE = (-2.5, 2.5)
KSE_PDF_Y_RANGE = (-5.0, 5.0)
PDF_BINS = 100


def energy_spectrum(states: np.ndarray) -> np.ndarray:
    """Ensemble-averaged E(k) = <0.5 |u_hat(k)|^2>, one-sided k = 0..d/2.

    Non-finite states give non-finite entries, without a warning."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim == 1:
        states = states[None, :]
    if states.shape[0] == 0:
        raise ValueError("empty ensemble")
    d = states.shape[-1]
    with np.errstate(invalid="ignore", over="ignore"):
        coeffs = sp.rfft(states) / d
        return np.mean(0.5 * np.abs(coeffs) ** 2, axis=0)


@dataclass
class EnsembleError:
    times: np.ndarray
    errors: np.ndarray
    normalization: float = 1.0
    skipped: int = 0


def estimate_attractor_distance(snapshots: np.ndarray, n_pairs: int = 10000,
                                seed: int = 0) -> float:
    """Mean squared distance <||u(t_i) - u(t_j)||^2> over random snapshot pairs."""
    snapshots = np.asarray(snapshots, dtype=np.float64)
    n = snapshots.shape[0]
    if n < 2:
        raise ValueError("need at least two snapshots")
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=n_pairs)
    j = rng.integers(0, n, size=n_pairs)
    clash = i == j
    while np.any(clash):
        j[clash] = rng.integers(0, n, size=int(clash.sum()))
        clash = i == j
    diff = snapshots[i] - snapshots[j]
    return float(np.mean(np.sum(diff * diff, axis=-1)))


def relative_error(true_traj: np.ndarray, model_traj: np.ndarray,
                   times: np.ndarray, mode: str = "relative-l2",
                   attractor_snapshots: np.ndarray | None = None,
                   n_pairs: int = 10000, seed: int = 0) -> EnsembleError:
    """Ensemble error curves for trajectory sets shaped (n_traj, n_time, d).

    mode "relative-l2": <||u - u~||_2 / ||u||_2> per time; zero-norm true
    states are skipped and counted.  mode "attractor-normalized":
    <||u - u~||_2^2> / D with D estimated from random attractor snapshot
    pairs.  Non-finite model states propagate to inf errors.
    """
    true_traj = np.asarray(true_traj, dtype=np.float64)
    model_traj = np.asarray(model_traj, dtype=np.float64)
    if true_traj.shape != model_traj.shape:
        raise ValueError("trajectory sets are not congruent")
    diff = model_traj - true_traj
    with np.errstate(invalid="ignore", over="ignore"):
        sq = np.sum(diff * diff, axis=-1)
    if mode == "relative-l2":
        true_sq = np.sum(true_traj * true_traj, axis=-1)
        valid = true_sq > 0
        skipped = int(np.sum(~valid))
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.sqrt(sq) / np.sqrt(true_sq)
        errors = np.array([
            np.mean(ratio[valid[:, t], t]) if np.any(valid[:, t]) else np.nan
            for t in range(true_traj.shape[1])])
        return EnsembleError(np.asarray(times, dtype=float), errors, 1.0, skipped)
    if mode == "attractor-normalized":
        if attractor_snapshots is None:
            raise ValueError("attractor snapshots needed to estimate the "
                             "normalization")
        norm = estimate_attractor_distance(attractor_snapshots, n_pairs, seed)
        errors = np.mean(sq, axis=0) / norm
        return EnsembleError(np.asarray(times, dtype=float), errors, norm, 0)
    raise ValueError(f"unknown error mode {mode!r}")


@dataclass
class JointPdf2D:
    """Density-normalized 2-D histogram; integral = 1 - out-of-range mass."""

    x_edges: np.ndarray
    y_edges: np.ndarray
    masses: np.ndarray
    total_count: int
    oob_count: int

    @property
    def oob_fraction(self) -> float:
        return self.oob_count / self.total_count if self.total_count else 0.0

    def bin_area(self) -> float:
        return float((self.x_edges[1] - self.x_edges[0])
                     * (self.y_edges[1] - self.y_edges[0]))

    def integral(self) -> float:
        return float(np.sum(self.masses) * self.bin_area())


def joint_pdf(states: np.ndarray, domain_length: float, bins: int = PDF_BINS,
              x_range: tuple = KSE_PDF_X_RANGE,
              y_range: tuple = KSE_PDF_Y_RANGE) -> JointPdf2D:
    """Joint density of (u_x, u_xx) over every grid point of every snapshot.

    Derivatives are spectral; densities are normalized by the total sample
    count, so out-of-range samples show up as missing mass (reported, never
    clipped).
    """
    states = np.atleast_2d(np.asarray(states, dtype=np.float64))
    if states.shape[0] == 0:
        raise ValueError("empty trajectory")
    d = states.shape[-1]
    q = 2.0 * np.pi * sp.wavenumber_indices(d) / domain_length
    coeffs = sp.rfft(states) / d
    sym1 = 1j * q
    sym1[-1] = 0.0
    ux = sp.irfft(coeffs * sym1 * d, d).ravel()
    uxx = sp.irfft(coeffs * -(q**2) * d, d).ravel()
    counts, x_edges, y_edges = np.histogram2d(
        ux, uxx, bins=bins, range=[list(x_range), list(y_range)])
    total = ux.size
    in_range = int(counts.sum())
    area = (x_edges[1] - x_edges[0]) * (y_edges[1] - y_edges[0])
    masses = counts / (total * area)
    return JointPdf2D(x_edges, y_edges, masses, total, total - in_range)


def support_overlap(pdf_a: JointPdf2D, pdf_b: JointPdf2D) -> float:
    """Fraction of pdf_a's in-range mass on bins where pdf_b > 0; exactly 1.0,
    not a rounding of it, when none of that mass sits where pdf_b is zero."""
    mass_a = np.sum(pdf_a.masses)
    if mass_a == 0.0:
        return 0.0
    on_b = pdf_b.masses > 0
    if not np.any(pdf_a.masses[~on_b]):
        return 1.0
    return float(np.sum(pdf_a.masses[on_b]) / mass_a)


def _shared_bins(pdf_model: JointPdf2D, pdf_true: JointPdf2D) -> np.ndarray:
    """The mask of the bins where both densities are positive; ValueError
    unless the histograms share one grid."""
    if (pdf_model.masses.shape != pdf_true.masses.shape
            or not np.array_equal(pdf_model.x_edges, pdf_true.x_edges)
            or not np.array_equal(pdf_model.y_edges, pdf_true.y_edges)):
        raise ValueError("histograms live on different grids")
    return (pdf_model.masses > 0) & (pdf_true.masses > 0)


def kl_divergence(pdf_model: JointPdf2D, pdf_true: JointPdf2D) -> float:
    """D_KL(model || true) over bins where both densities are positive.

    Bins with a zero on either side contribute nothing.  PDFs that share no
    such bin, whose statistics miss each other entirely, give +inf.  The
    densities are taken as they are, each over all its samples, so mass out
    of range or off the shared bins can take the sum below zero; see
    :func:`kl_support` and :func:`mass_off`.
    """
    both = _shared_bins(pdf_model, pdf_true)
    if not np.any(both):
        return float("inf")
    pm = pdf_model.masses[both]
    pt = pdf_true.masses[both]
    return float(np.sum(pm * np.log(pm / pt)) * pdf_model.bin_area())


def kl_support(pdf_model: JointPdf2D, pdf_true: JointPdf2D) -> float:
    """D_KL(model || true) of the two PDFs each renormalised to unit mass over
    the bins where both are positive, so by Gibbs' inequality it is >= 0 (to
    rounding), and exactly 0 for identical PDFs.  PDFs that share no such bin
    give +inf.  :func:`mass_off` is the model's mass this leaves out."""
    both = _shared_bins(pdf_model, pdf_true)
    if not np.any(both):
        return float("inf")
    pm = pdf_model.masses[both]
    pt = pdf_true.masses[both]
    pm = pm / np.sum(pm)
    pt = pt / np.sum(pt)
    return float(np.sum(pm * np.log(pm / pt)))


def mass_off(pdf_model: JointPdf2D, pdf_true: JointPdf2D) -> float:
    """The fraction of the model's samples out of range or on bins where the
    reference density is zero, the mass :func:`kl_support` leaves out; 0 for
    a model without samples.  Each bin's count is its density times the
    samples and the bin area, rounded to the integer it is."""
    _shared_bins(pdf_model, pdf_true)
    if pdf_model.total_count == 0:
        return 0.0
    off = np.sum(pdf_model.masses[pdf_true.masses == 0]) * pdf_model.bin_area()
    count = pdf_model.oob_count + round(float(off) * pdf_model.total_count)
    return count / pdf_model.total_count


def add_noise_grid(u: np.ndarray, epsilon: float, seed: int) -> np.ndarray:
    """Independent Gaussian noise with std epsilon at every grid point."""
    if epsilon < 0:
        raise ValueError("noise level must be nonnegative")
    if epsilon == 0.0:
        return u.copy()
    rng = np.random.default_rng(seed)
    return u + rng.normal(0.0, epsilon, size=u.shape)


def add_noise_fourier_coeffs(coeffs: np.ndarray, epsilon: float, k_lo: int,
                             k_hi: int, seed: int) -> np.ndarray:
    """Perturb one-sided coefficients for k in [k_lo, k_hi]; others untouched.

    Real and imaginary parts receive independent N(0, epsilon^2) draws; a
    Nyquist mode in range stays real so the field does too.
    """
    d = 2 * (coeffs.size - 1)
    if not 0 < k_lo <= k_hi <= d // 2:
        raise ValueError("wavenumber band out of range")
    out = coeffs.copy()
    if epsilon == 0.0:
        return out
    rng = np.random.default_rng(seed)
    band = np.arange(k_lo, k_hi + 1)
    noise = rng.normal(0.0, epsilon, size=band.size) \
        + 1j * rng.normal(0.0, epsilon, size=band.size)
    out[band] += noise
    if k_hi == d // 2:
        out[-1] = out[-1].real
    return out


def add_noise_fourier(u: np.ndarray, epsilon: float, k_lo: int, k_hi: int,
                      seed: int) -> np.ndarray:
    """A state with :func:`add_noise_fourier_coeffs` applied to its spectrum."""
    if epsilon < 0:
        raise ValueError("noise level must be nonnegative")
    d = u.shape[-1]
    coeffs = add_noise_fourier_coeffs(sp.rfft(u) / d, epsilon, k_lo, k_hi, seed)
    return sp.irfft(coeffs * d, d)


@dataclass
class LyapunovEstimate:
    exponent: float
    lyapunov_time: float | None
    n_segments: int


def lyapunov_time_estimate(system: str = "kse", d: int = 64,
                           domain_length: float = 22.0, solver_step: float = 0.05,
                           viscosity: float = 8e-4, perturbation: float = 1e-8,
                           renorm_interval: float = 1.0, total_time: float = 2000.0,
                           discard_fraction: float = 0.1, transient: float = 500.0,
                           seed: int = 0) -> LyapunovEstimate:
    """Leading Lyapunov exponent by companion-trajectory renormalization.

    A reference trajectory and a companion offset by ``perturbation`` advance
    together as one two-row batch; every ``renorm_interval`` the log
    separation growth is recorded and the offset is rescaled back.  The
    exponent averages the per-segment growth rates after discarding the
    leading fraction; the Lyapunov time is its inverse, reported only when the
    exponent is positive.  A ``total_time`` that keeps no segment is a ValueError.
    A pair that goes non-finite raises DivergenceError at its segment's end.
    """
    sub = sp.save_count(renorm_interval, solver_step)
    n_segments = sp.save_count(total_time, renorm_interval)
    skip = int(np.ceil(discard_fraction * n_segments))
    if skip >= n_segments:
        raise ValueError(f"total_time {total_time!r} keeps no segment after the leading "
                         f"{discard_fraction:.0%} is discarded")
    rng = np.random.default_rng(seed)
    solver = sp.true_solver(system, d, domain_length, viscosity, solver_step)
    if system == "kse":
        u0 = 0.01 * rng.standard_normal(d)
        u0 -= u0.mean()
    else:
        u0 = sp.generate_vbe_ic(sp.IcSpec(seed=seed), d, domain_length).values
    ref = solver.advance(sp.rfft(u0) / d, sp.save_count(transient, solver_step))

    direction = rng.standard_normal(d)
    direction -= direction.mean()
    direction /= np.linalg.norm(direction)
    comp = ref + sp.rfft(perturbation * direction) / d

    growths = np.empty(n_segments)
    for seg in range(n_segments):
        ref, comp = pair = solver.advance(np.stack([ref, comp]), sub)
        if not np.all(np.isfinite(pair)):
            t = (seg + 1) * renorm_interval
            raise sp.DivergenceError(f"Lyapunov pair (seed {seed}) went non-finite by "
                                     f"t = {t:g}", time=t, seed=seed)
        delta = sp.irfft((comp - ref) * d, d)
        sep = np.linalg.norm(delta)
        growths[seg] = np.log(sep / perturbation)
        comp = ref + sp.rfft(perturbation * delta / sep) / d
    keep = growths[skip:]
    exponent = float(np.mean(keep) / renorm_interval)
    tau = 1.0 / exponent if exponent > 0 else None
    return LyapunovEstimate(exponent, tau, keep.size)


# persistence ----------------------------------------------------------------

def write_joint_pdf(path, pdf: JointPdf2D) -> None:
    """Binary grid dump (magic SNPD) for exact KL recomputation."""
    nx = pdf.masses.shape[0]
    ny = pdf.masses.shape[1]
    with open(path, "wb") as fh:
        fh.write(PDF_MAGIC)
        fh.write(struct.pack("<IIQQ", nx, ny, pdf.total_count, pdf.oob_count))
        fh.write(pdf.x_edges.astype("<f8").tobytes())
        fh.write(pdf.y_edges.astype("<f8").tobytes())
        fh.write(pdf.masses.astype("<f8").tobytes())


def read_joint_pdf(path) -> JointPdf2D:
    with open(path, "rb") as fh:
        if sp.read_exact(fh, 4) != PDF_MAGIC:
            raise sp.ArtifactError(f"{path}: not a joint-PDF file: bad magic")
        nx, ny, total, oob = struct.unpack("<IIQQ", sp.read_exact(fh, 24))
        x_edges = sp.read_f8(fh, nx + 1)
        y_edges = sp.read_f8(fh, ny + 1)
        masses = sp.read_f8(fh, nx * ny).reshape(nx, ny)
        sp.expect_end(fh)
    return JointPdf2D(x_edges, y_edges, masses, total, oob)

