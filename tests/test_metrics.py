"""Statistics oracles: spectra, error curves, joint PDFs, KL, noise, Lyapunov."""

import warnings

import numpy as np
import pytest

from stabnode import metrics as mt
from stabnode import spectral as sp


class TestEnergySpectrum:
    def test_single_cosine(self):
        d, L = 64, 1.0
        x = sp.grid(d, L)
        e = mt.energy_spectrum(2.0 * np.cos(2 * np.pi * x / L))
        assert e[1] == pytest.approx(0.5, abs=1e-14)
        mask = np.ones(d // 2 + 1, dtype=bool)
        mask[1] = False
        assert np.max(e[mask]) < 1e-14

    def test_zero_ensemble(self):
        assert np.all(mt.energy_spectrum(np.zeros((5, 32))) == 0.0)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        states = rng.standard_normal((6, 64))
        base = mt.energy_spectrum(states)
        scaled = mt.energy_spectrum(3.0 * states)
        assert np.allclose(scaled, 9.0 * base, rtol=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mt.energy_spectrum(np.zeros((0, 16)))


class TestRelativeError:
    def test_identical_trajectories(self):
        rng = np.random.default_rng(1)
        traj = rng.standard_normal((3, 5, 16))
        out = mt.relative_error(traj, traj.copy(), np.arange(5.0))
        assert np.all(out.errors == 0.0)
        assert out.skipped == 0

    def test_zero_norm_samples_skipped(self):
        true = np.zeros((2, 3, 8))
        true[0] += 1.0  # trajectory 1 stays identically zero
        model = true + 0.5
        out = mt.relative_error(true, model, np.arange(3.0))
        assert out.skipped == 3
        assert np.all(np.isfinite(out.errors))

    def test_symmetric_in_attractor_mode(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 6, 8))
        b = rng.standard_normal((4, 6, 8))
        snaps = rng.standard_normal((200, 8))
        ab = mt.relative_error(a, b, np.arange(6.0), "attractor-normalized",
                               attractor_snapshots=snaps)
        ba = mt.relative_error(b, a, np.arange(6.0), "attractor-normalized",
                               attractor_snapshots=snaps)
        assert np.allclose(ab.errors, ba.errors)

    def test_unrelated_attractor_trajectories_plateau_near_one(self):
        ds = sp.generate_kse_dataset(d=32, horizon=400.0, tau=0.25, h=0.05,
                                     transient=200.0, seed=0)
        snaps = ds.snapshots()
        n = ds.n_snap
        # two windows far apart in time act as unrelated trajectories
        a = ds.values[0, : n // 3][None, :, :]
        b = ds.values[0, 2 * (n // 3): 2 * (n // 3) + n // 3][None, :, :]
        times = np.arange(a.shape[1]) * ds.tau
        out = mt.relative_error(a, b, times, "attractor-normalized",
                                attractor_snapshots=snaps, seed=3)
        tail = out.errors[out.errors.size // 2:]
        assert 0.4 < np.mean(tail) < 1.8

    def test_divergent_model_gives_inf(self):
        true = np.zeros((1, 3, 8)) + 1.0
        model = true.copy()
        model[0, 2] = np.inf
        out = mt.relative_error(true, model, np.arange(3.0))
        assert np.isinf(out.errors[2]) and np.isfinite(out.errors[1])


class TestJointPdf:
    def test_constant_field_mass_at_origin(self):
        pdf = mt.joint_pdf(np.full((3, 32), 1.7), 22.0)
        assert pdf.integral() == pytest.approx(1.0, abs=1e-10)
        ix = np.searchsorted(pdf.x_edges, 0.0, side="right") - 1
        iy = np.searchsorted(pdf.y_edges, 0.0, side="right") - 1
        assert pdf.masses[ix, iy] * pdf.bin_area() == pytest.approx(1.0)

    def test_single_snapshot_normalized(self):
        rng = np.random.default_rng(3)
        pdf = mt.joint_pdf(0.1 * rng.standard_normal(64), 22.0)
        assert pdf.integral() == pytest.approx(1.0 - pdf.oob_fraction, abs=1e-10)

    def test_out_of_range_reported_not_clipped(self):
        d, L = 64, 22.0
        x = sp.grid(d, L)
        # large-amplitude mode pushes many derivative samples out of range
        states = 40.0 * np.sin(2 * np.pi * 3 * x / L)[None, :]
        pdf = mt.joint_pdf(states, L)
        assert pdf.oob_count > 0
        assert pdf.integral() == pytest.approx(1.0 - pdf.oob_fraction, abs=1e-10)


def two_bin_pdf(masses):
    return mt.JointPdf2D(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]),
                         np.asarray(masses, dtype=float).reshape(1, 2),
                         total_count=100, oob_count=0)


class TestKlDivergence:
    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(4)
        pdf = mt.joint_pdf(rng.standard_normal((10, 32)), 22.0)
        assert mt.kl_divergence(pdf, pdf) == 0.0

    def test_two_bin_value(self):
        model = two_bin_pdf([0.25, 0.75])
        true = two_bin_pdf([0.5, 0.5])
        expected = 0.25 * np.log(0.5) + 0.75 * np.log(1.5)
        assert mt.kl_divergence(model, true) == pytest.approx(expected, abs=1e-12)
        assert mt.kl_divergence(model, true) == pytest.approx(0.1308, abs=1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_gibbs_nonnegative_on_shared_support(self, seed):
        rng = np.random.default_rng(seed)
        shape = (6, 4)
        a = rng.uniform(0.1, 1.0, size=shape)
        b = rng.uniform(0.1, 1.0, size=shape)
        edges_x = np.linspace(0, 1, shape[0] + 1)
        edges_y = np.linspace(0, 1, shape[1] + 1)
        area = (edges_x[1] - edges_x[0]) * (edges_y[1] - edges_y[0])
        a /= a.sum() * area
        b /= b.sum() * area
        pa = mt.JointPdf2D(edges_x, edges_y, a, 1, 0)
        pb = mt.JointPdf2D(edges_x, edges_y, b, 1, 0)
        assert mt.kl_divergence(pa, pb) >= 0.0

    def test_disjoint_supports_infinite(self):
        # statistics that miss each other entirely are the worst match, not a
        # perfect one, and say so without a warning
        model = two_bin_pdf([1.0, 0.0])
        true = two_bin_pdf([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mt.kl_divergence(model, true) == np.inf
        assert mt.support_overlap(model, true) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_overlap_wholly_on_the_support_is_exactly_one(self, seed):
        # the masked sum and the full one add in different orders, and their
        # quotient reads 1 - 2**-53 on seed 2 and 1 + 2**-52 on seed 5
        rng = np.random.default_rng(seed)
        shape = (6, 4)
        edges_x, edges_y = np.linspace(0, 1, shape[0] + 1), np.linspace(0, 1, shape[1] + 1)
        ref = rng.uniform(0.0, 1.0, size=shape) * (rng.uniform(size=shape) < 0.7)
        model = (rng.uniform(0.0, 1.0, size=shape) * (ref > 0)
                 * (rng.uniform(size=shape) < 0.8))
        pdf_model = mt.JointPdf2D(edges_x, edges_y, model, 1, 0)
        pdf_ref = mt.JointPdf2D(edges_x, edges_y, ref, 1, 0)
        assert mt.support_overlap(pdf_model, pdf_ref) == 1.0
        # mass off the support keeps the quotient of the two sums
        off = np.where(ref > 0, model, 0.125)
        expected = float(np.sum(off[ref > 0]) / np.sum(off))
        pdf_off = mt.JointPdf2D(edges_x, edges_y, off, 1, 0)
        assert mt.support_overlap(pdf_off, pdf_ref) == expected < 1.0

    def test_grid_mismatch_rejected(self):
        a = two_bin_pdf([0.5, 0.5])
        b = mt.JointPdf2D(np.array([0.0, 2.0]), np.array([0.0, 1.0, 2.0]),
                          np.array([[0.25, 0.25]]), 1, 0)
        for divergence in (mt.kl_divergence, mt.kl_support, mt.mass_off):
            with pytest.raises(ValueError):
                divergence(a, b)


class TestKlSupport:
    """The KL over the shared in-range bins, renormalised, and the model mass
    it leaves out."""

    def test_identical_is_zero_with_no_mass_off(self):
        # smooth states whose derivatives stay in range
        rng = np.random.default_rng(4)
        x = sp.grid(32, 22.0)
        states = [sum(0.5 * np.cos(2 * np.pi * k * x / 22.0 + rng.uniform(0.0, 2 * np.pi))
                      for k in (1, 2, 3)) for _ in range(10)]
        pdf = mt.joint_pdf(np.array(states), 22.0)
        assert mt.kl_support(pdf, pdf) == 0.0
        assert mt.mass_off(pdf, pdf) == pdf.oob_fraction == 0.0

    def test_disjoint_is_infinite_with_all_mass_off(self):
        model = two_bin_pdf([1.0, 0.0])
        true = two_bin_pdf([0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mt.kl_support(model, true) == np.inf
        assert mt.mass_off(model, true) == 1.0

    def test_mass_out_of_range_cannot_make_it_negative(self):
        # half the model's samples out of range, the rest spread as the
        # reference's: the raw sum reads 0.5 log 0.5, the renormalised one 0
        model = mt.JointPdf2D(np.array([0.0, 1.0]), np.array([0.0, 1.0, 2.0]),
                              np.array([[0.25, 0.25]]), total_count=100, oob_count=50)
        true = two_bin_pdf([0.5, 0.5])
        assert mt.kl_divergence(model, true) == pytest.approx(0.5 * np.log(0.5))
        assert mt.kl_support(model, true) == 0.0
        assert mt.mass_off(model, true) == 0.5

    def test_mass_off_the_reference_counts(self):
        # three bins: the model puts 20 of 100 samples on one the reference lacks
        # and 10 out of range
        edges_y = np.array([0.0, 1.0, 2.0, 3.0])
        model = mt.JointPdf2D(np.array([0.0, 1.0]), edges_y, np.array([[0.5, 0.2, 0.2]]),
                              total_count=100, oob_count=10)
        true = mt.JointPdf2D(np.array([0.0, 1.0]), edges_y, np.array([[0.5, 0.0, 0.5]]),
                             total_count=100, oob_count=0)
        assert mt.mass_off(model, true) == 0.3
        expected = (5 / 7) * np.log((5 / 7) / 0.5) + (2 / 7) * np.log((2 / 7) / 0.5)
        assert mt.kl_support(model, true) == pytest.approx(expected, abs=1e-15)
        assert mt.kl_support(model, true) > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_gibbs_nonnegative_under_lost_mass(self, seed):
        rng = np.random.default_rng(seed)
        shape = (6, 4)
        edges_x = np.linspace(0, 1, shape[0] + 1)
        edges_y = np.linspace(0, 1, shape[1] + 1)
        a = rng.uniform(0.0, 1.0, size=shape) * (rng.uniform(size=shape) < 0.7)
        b = rng.uniform(0.0, 1.0, size=shape) * (rng.uniform(size=shape) < 0.7)
        area = (edges_x[1] - edges_x[0]) * (edges_y[1] - edges_y[0])
        pa = mt.JointPdf2D(edges_x, edges_y, 0.3 * a / (a.sum() * area), 1000, 700)
        pb = mt.JointPdf2D(edges_x, edges_y, b / (b.sum() * area), 1000, 0)
        assert mt.kl_support(pa, pb) >= 0.0
        assert 0.7 <= mt.mass_off(pa, pb) <= 1.0


class TestNoise:
    def test_grid_zero_epsilon_unchanged(self):
        u = np.arange(8.0)
        out = mt.add_noise_grid(u, 0.0, seed=1)
        assert np.array_equal(out, u)
        assert out is not u

    def test_grid_noise_std(self):
        out = mt.add_noise_grid(np.zeros(8192), 0.3, seed=2)
        assert abs(np.std(out) - 0.3) < 0.05 * 0.3

    def test_grid_deterministic(self):
        a = mt.add_noise_grid(np.zeros(64), 0.1, seed=3)
        b = mt.add_noise_grid(np.zeros(64), 0.1, seed=3)
        assert np.array_equal(a, b)

    def test_fourier_untouched_modes_bit_identical(self):
        rng = np.random.default_rng(5)
        coeffs = rng.standard_normal(33) + 1j * rng.standard_normal(33)
        out = mt.add_noise_fourier_coeffs(coeffs, 0.5, 20, 31, seed=6)
        untouched = np.r_[0:20, 32]
        assert np.array_equal(out[untouched], coeffs[untouched])
        assert not np.array_equal(out[20:32], coeffs[20:32])

    def test_fourier_output_real(self):
        ds = sp.generate_kse_dataset(d=64, horizon=1.0, tau=0.25, h=0.05,
                                     transient=10.0, seed=1)
        out = mt.add_noise_fourier(ds.values[0, 0], 1.0, 20, 31, seed=7)
        # Hermitian symmetry held, so the round trip leaves no imaginary residue
        back = np.fft.irfft(np.fft.rfft(out), n=64)
        assert np.max(np.abs(back - out)) < 1e-12

    def test_fourier_zero_epsilon_unchanged(self):
        u = np.sin(np.linspace(0, 2 * np.pi, 64, endpoint=False))
        out = mt.add_noise_fourier(u, 0.0, 20, 31, seed=8)
        assert np.max(np.abs(out - u)) < 1e-14

    def test_fourier_band_validated(self):
        coeffs = np.zeros(17, dtype=complex)
        with pytest.raises(ValueError):
            mt.add_noise_fourier_coeffs(coeffs, 0.1, 0, 5, seed=0)
        with pytest.raises(ValueError):
            mt.add_noise_fourier_coeffs(coeffs, 0.1, 4, 20, seed=0)


class TestLyapunov:
    def test_decaying_system_reports_negative_exponent(self):
        est = mt.lyapunov_time_estimate(system="vbe", d=64, domain_length=1.0,
                                        solver_step=1e-3, total_time=30.0,
                                        transient=0.0, seed=0)
        assert est.exponent < 0
        assert est.lyapunov_time is None

    def test_renormalization_bookkeeping(self, monkeypatch):
        est = mt.lyapunov_time_estimate(system="kse", d=32, total_time=20.0,
                                        transient=20.0, seed=0)
        assert est.n_segments == 18  # 10% of 20 segments discarded
        # a span its interval does not divide, or one that keeps no segment,
        # is rejected before a solver exists, let alone the transient
        monkeypatch.setattr(sp, "true_solver", None)
        for bad in ({"total_time": 10.5}, {"total_time": 1.0}, {"total_time": 0.0},
                    {"renorm_interval": 0.33}):
            with pytest.raises(ValueError):
                mt.lyapunov_time_estimate(system="kse", d=32, **{"total_time": 20.0, **bad})

    @pytest.mark.parametrize("system,kw,time", [
        # a Burgers step of 0.5 blows up within the first segments
        ("vbe", dict(d=64, domain_length=1.0, solver_step=0.5, transient=1.0), None),
        # a KSE step of 5 blows up in the transient: the first segment reads it
        ("kse", dict(d=32, solver_step=5.0, renorm_interval=5.0, transient=100.0), 5.0)])
    def test_diverging_pair_raises_with_its_time(self, system, kw, time):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow warning leaks either
            with pytest.raises(sp.DivergenceError, match="went non-finite by t = ") as info:
                mt.lyapunov_time_estimate(system=system, total_time=100.0, seed=3, **kw)
        interval = kw.get("renorm_interval", 1.0)
        assert info.value.time in interval * np.arange(1, 100.0 / interval + 1)
        assert time is None or info.value.time == time
        assert info.value.seed == 3


class TestPdfIO:
    def test_round_trip_and_exact_kl(self, tmp_path):
        rng = np.random.default_rng(9)
        pdf = mt.joint_pdf(rng.standard_normal((20, 64)), 22.0)
        path = tmp_path / "pdf.snpd"
        mt.write_joint_pdf(path, pdf)
        back = mt.read_joint_pdf(path)
        assert np.array_equal(back.masses, pdf.masses)
        assert back.total_count == pdf.total_count
        assert back.oob_count == pdf.oob_count
        assert mt.kl_divergence(back, pdf) == 0.0
        path2 = tmp_path / "pdf2.snpd"
        mt.write_joint_pdf(path2, back)
        assert path.read_bytes() == path2.read_bytes()

