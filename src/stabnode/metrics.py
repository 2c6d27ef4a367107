"""Evaluation statistics for trajectories and ensembles.

Energy spectra under the 1/d transform convention, ensemble relative errors
(plain and attractor-normalized), joint histograms of first/second spatial
derivatives, KL divergence between such histograms, seeded noise injection
in physical or Fourier space, and a leading-Lyapunov-exponent estimate by
repeated renormalization of a companion trajectory.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass

import numpy as np

from . import spectral as sp

PDF_MAGIC = b"SNPD"

KSE_PDF_X_RANGE = (-2.5, 2.5)
KSE_PDF_Y_RANGE = (-5.0, 5.0)
PDF_BINS = 100


def energy_spectrum(states: np.ndarray, ensemble_axis: int = 0) -> np.ndarray:
    """Ensemble-averaged E(k) = <0.5 |u_hat(k)|^2>, one-sided k = 0..d/2."""
    states = np.asarray(states, dtype=np.float64)
    if states.ndim == 1:
        states = states[None, :]
    if states.shape[0] == 0:
        raise ValueError("empty ensemble")
    d = states.shape[-1]
    coeffs = np.fft.rfft(states, axis=-1) / d
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
    coeffs = np.fft.rfft(states, axis=-1) / d
    sym1 = 1j * q
    sym1[-1] = 0.0
    ux = np.fft.irfft(coeffs * sym1 * d, n=d, axis=-1).ravel()
    uxx = np.fft.irfft(coeffs * -(q**2) * d, n=d, axis=-1).ravel()
    counts, x_edges, y_edges = np.histogram2d(
        ux, uxx, bins=bins, range=[list(x_range), list(y_range)])
    total = ux.size
    in_range = int(counts.sum())
    area = (x_edges[1] - x_edges[0]) * (y_edges[1] - y_edges[0])
    masses = counts / (total * area)
    return JointPdf2D(x_edges, y_edges, masses, total, total - in_range)


def support_overlap(pdf_a: JointPdf2D, pdf_b: JointPdf2D) -> float:
    """Fraction of pdf_a's in-range mass sitting on bins where pdf_b > 0."""
    mass_a = np.sum(pdf_a.masses)
    if mass_a == 0.0:
        return 0.0
    return float(np.sum(pdf_a.masses[pdf_b.masses > 0]) / mass_a)


def kl_divergence(pdf_model: JointPdf2D, pdf_true: JointPdf2D) -> float:
    """D_KL(model || true) over bins where both densities are positive.

    Bins with a zero on either side contribute nothing; fully disjoint
    supports therefore give 0, which is degenerate and warned about.
    """
    if (pdf_model.masses.shape != pdf_true.masses.shape
            or not np.array_equal(pdf_model.x_edges, pdf_true.x_edges)
            or not np.array_equal(pdf_model.y_edges, pdf_true.y_edges)):
        raise ValueError("histograms live on different grids")
    both = (pdf_model.masses > 0) & (pdf_true.masses > 0)
    if not np.any(both):
        if np.any(pdf_model.masses > 0) and np.any(pdf_true.masses > 0):
            warnings.warn("joint PDFs have disjoint supports; KL divergence "
                          "degenerates to 0 (overlap fraction 0)")
        return 0.0
    pm = pdf_model.masses[both]
    pt = pdf_true.masses[both]
    return float(np.sum(pm * np.log(pm / pt)) * pdf_model.bin_area())


def add_noise_grid(field: sp.Field, epsilon: float, seed: int) -> sp.Field:
    """Independent Gaussian noise with std epsilon at every grid point."""
    if epsilon < 0:
        raise ValueError("noise level must be nonnegative")
    if epsilon == 0.0:
        return sp.Field(field.values.copy(), field.domain_length, field.time)
    rng = np.random.default_rng(seed)
    noisy = field.values + rng.normal(0.0, epsilon, size=field.d)
    return sp.Field(noisy, field.domain_length, field.time)


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


def add_noise_fourier(field: sp.Field, epsilon: float, k_lo: int, k_hi: int,
                      seed: int) -> sp.Field:
    if epsilon < 0:
        raise ValueError("noise level must be nonnegative")
    coeffs = np.fft.rfft(field.values) / field.d
    coeffs = add_noise_fourier_coeffs(coeffs, epsilon, k_lo, k_hi, seed)
    values = np.fft.irfft(coeffs * field.d, n=field.d)
    return sp.Field(values, field.domain_length, field.time)


@dataclass
class LyapunovEstimate:
    exponent: float
    lyapunov_time: float | None
    n_segments: int
    renorm_interval: float


def lyapunov_time_estimate(system: str = "kse", d: int = 64,
                           domain_length: float = 22.0, solver_step: float = 0.05,
                           viscosity: float = 8e-4, perturbation: float = 1e-8,
                           renorm_interval: float = 1.0, total_time: float = 2000.0,
                           discard_fraction: float = 0.1, transient: float = 500.0,
                           seed: int = 0) -> LyapunovEstimate:
    """Leading Lyapunov exponent by companion-trajectory renormalization.

    A reference trajectory and a companion offset by ``perturbation`` evolve
    together; every ``renorm_interval`` the log separation growth is recorded
    and the offset is rescaled back.  The exponent averages the per-segment
    growth rates after discarding the leading fraction; the Lyapunov time is
    its inverse, reported only when the exponent is positive.
    """
    rng = np.random.default_rng(seed)
    if system == "kse":
        solver = sp.KseSolver(d, domain_length, solver_step)
        u0 = 0.01 * rng.standard_normal(d)
        u0 -= u0.mean()
    elif system == "vbe":
        solver = sp.VbeSolver(d, domain_length, viscosity, solver_step)
        u0 = sp.generate_vbe_ic(sp.IcSpec(seed=seed), d, domain_length).values
    else:
        raise ValueError(f"unknown system {system!r}")
    ref = np.fft.rfft(u0) / d
    ref = solver.advance(ref, int(round(transient / solver_step)))

    direction = rng.standard_normal(d)
    direction -= direction.mean()
    direction /= np.linalg.norm(direction)
    comp = ref + np.fft.rfft(perturbation * direction) / d

    sub = int(round(renorm_interval / solver_step))
    n_segments = int(round(total_time / renorm_interval))
    growths = np.empty(n_segments)
    for seg in range(n_segments):
        ref = solver.advance(ref, sub)
        comp = solver.advance(comp, sub)
        delta = np.fft.irfft((comp - ref) * d, n=d)
        sep = np.linalg.norm(delta)
        growths[seg] = np.log(sep / perturbation)
        comp = ref + np.fft.rfft(perturbation * delta / sep) / d
    keep = growths[int(np.ceil(discard_fraction * n_segments)):]
    exponent = float(np.mean(keep) / renorm_interval)
    tau = 1.0 / exponent if exponent > 0 else None
    return LyapunovEstimate(exponent, tau, keep.size, renorm_interval)


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


def csv_header(quantity: str, meta: dict) -> list:
    lines = [f"# quantity: {quantity}"]
    for key in sorted(meta):
        lines.append(f"# {key}: {meta[key]}")
    return lines


def fmt(x) -> str:
    """Full-precision scalar formatting for CSV cells."""
    return repr(float(x))


def write_spectrum_csv(path, wavenumbers, spectra: dict, meta: dict) -> None:
    """Columns: k then one E(k) column per labeled ensemble."""
    labels = list(spectra)
    lines = csv_header("energy spectrum E(k) = <0.5 |u_hat(k)|^2>, "
                       "forward transform normalized by 1/d", meta)
    lines.append(",".join(["k"] + labels))
    for i, k in enumerate(wavenumbers):
        row = [str(int(k))] + [fmt(spectra[label][i]) for label in labels]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_error_csv(path, curves: dict, meta: dict) -> None:
    """Columns: t then one error column per labeled curve."""
    labels = list(curves)
    first = curves[labels[0]]
    lines = csv_header("ensemble error", meta)
    lines.append(",".join(["t"] + labels))
    for i, t in enumerate(first.times):
        row = [fmt(t)] + [fmt(curves[label].errors[i]) for label in labels]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
