"""Transform conventions, spectral calculus, and ground-truth solver fidelity."""

import numpy as np
import pytest

from stabnode import spectral as sp


def random_field(d, L=1.0, seed=0):
    rng = np.random.default_rng(seed)
    return sp.Field(rng.standard_normal(d), L)


class TestTransforms:
    def test_constant_field_is_dc_mode(self):
        f = sp.Field(np.full(64, 3.25), 1.0)
        sf = sp.to_spectral(f)
        assert sf.coeffs[0] == pytest.approx(3.25, abs=1e-14)
        assert np.max(np.abs(sf.coeffs[1:])) < 1e-14

    def test_single_cosine_mode(self):
        d, L = 64, 1.0
        x = sp.grid(d, L)
        sf = sp.to_spectral(sp.Field(2.0 * np.cos(2 * np.pi * x / L), L))
        assert sf.coeffs[1] == pytest.approx(1.0 + 0.0j, abs=1e-13)

    @pytest.mark.parametrize("d", [8, 10, 12, 48, 64, 100, 256, 1000, 1024])
    def test_round_trip(self, d):
        f = random_field(d, seed=d)
        back = sp.from_spectral(sp.to_spectral(f), d)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back.values - f.values)) < 1e-12 * scale

    def test_hermitian_endpoints_real(self):
        sf = sp.to_spectral(random_field(32, seed=7))
        assert sf.coeffs[0].imag == 0.0
        assert sf.coeffs[-1].imag == 0.0

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            sp.Field(np.zeros(7), 1.0)
        sf = sp.to_spectral(random_field(8))
        with pytest.raises(ValueError):
            sp.from_spectral(sf, 7)


class TestSpectralDerivative:
    def test_sine_first_derivative(self):
        d, L = 64, 1.0
        x = sp.grid(d, L)
        out = sp.spectral_derivative(sp.Field(np.sin(2 * np.pi * x / L), L), 1)
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        assert np.max(np.abs(out.values - expected)) < 1e-10

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_constant_derivative_zero(self, order):
        out = sp.spectral_derivative(sp.Field(np.full(32, 2.0), 1.0), order)
        assert np.max(np.abs(out.values)) < 1e-12

    def test_second_derivative_eigenfunction(self):
        d, L = 64, 1.0
        x = sp.grid(d, L)
        u = np.sin(4 * np.pi * x / L)
        out = sp.spectral_derivative(sp.Field(u, L), 2)
        assert np.max(np.abs(out.values + (4 * np.pi / L) ** 2 * u)) < 1e-10

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_linearity(self, order, seed):
        d, L = 48, 2.0
        rng = np.random.default_rng(seed)
        u, w = rng.standard_normal(d), rng.standard_normal(d)
        a, b = rng.standard_normal(2)
        lhs = sp.spectral_derivative(sp.Field(a * u + b * w, L), order).values
        rhs = (a * sp.spectral_derivative(sp.Field(u, L), order).values
               + b * sp.spectral_derivative(sp.Field(w, L), order).values)
        scale = max(np.max(np.abs(lhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            sp.spectral_derivative(random_field(16), 3)


class TestInitialConditions:
    @pytest.mark.parametrize("seed", [0, 1, 7, 123, 99999])
    def test_energy_budget_every_seed(self, seed):
        d, L = 512, 1.0
        ic = sp.generate_vbe_ic(sp.IcSpec(seed=seed), d, L)
        sf = sp.to_spectral(ic)
        energy = 0.5 * np.sum(np.abs(sf.coeffs) ** 2)
        assert energy == pytest.approx(0.5 * L / (2 * np.pi), abs=1e-10)

    def test_magnitudes_follow_target_spectrum(self):
        # phases are random but |u_hat(k)| = sqrt(2 E0(k)) exactly
        d, L = 256, 1.0
        spec = sp.IcSpec(seed=5)
        ic = sp.generate_vbe_ic(spec, d, L)
        sf = sp.to_spectral(ic)
        k = sp.wavenumber_indices(d).astype(float)
        amp = sp.ic_amplitude_for_energy(spec.peak_wavenumber, d, L)
        e0 = amp * k**4 * np.exp(-((k / spec.peak_wavenumber) ** 2))
        assert np.allclose(np.abs(sf.coeffs), np.sqrt(2 * e0), atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 3, 42])
    def test_zero_mean(self, seed):
        ic = sp.generate_vbe_ic(sp.IcSpec(seed=seed), 128, 1.0)
        assert abs(ic.values.mean()) < 1e-13

    def test_deterministic_given_seed(self):
        a = sp.generate_vbe_ic(sp.IcSpec(seed=11), 128, 1.0)
        b = sp.generate_vbe_ic(sp.IcSpec(seed=11), 128, 1.0)
        assert np.array_equal(a.values, b.values)


class TestVbeSolver:
    def test_zero_field_fixed_point(self):
        f = sp.Field(np.zeros(64), 1.0)
        out = sp.step_vbe(f, 1e-3, 8e-4)
        assert np.max(np.abs(out.values)) == 0.0

    def test_linear_regime_heat_decay(self):
        # amplitude 1e-6: advection negligible, mode 1 decays as exp(-nu q^2 t)
        d, L, nu = 64, 1.0, 8e-4
        x = sp.grid(d, L)
        solver = sp.VbeSolver(d, L, nu, 1e-3)
        coeffs = np.fft.rfft(1e-6 * np.sin(2 * np.pi * x)) / d
        coeffs = solver.advance(coeffs, 1000)
        amplitude = 2 * np.abs(coeffs[1])
        expected = 1e-6 * np.exp(-nu * (2 * np.pi) ** 2)
        assert abs(amplitude - expected) < 1e-3 * expected

    def test_mean_conserved(self):
        d = 128
        ic = sp.generate_vbe_ic(sp.IcSpec(seed=3), d, 1.0)
        solver = sp.VbeSolver(d, 1.0, 8e-4, 1e-3)
        coeffs = np.fft.rfft(ic.values) / d
        mean0 = coeffs[0].real
        coeffs = solver.advance(coeffs, 1000)
        assert abs(coeffs[0].real - mean0) < 1e-8

    def test_shock_run_stays_finite(self):
        d = 256
        ic = sp.generate_vbe_ic(sp.IcSpec(seed=1), d, 1.0)
        solver = sp.VbeSolver(d, 1.0, 8e-4, 1e-3)
        coeffs = solver.advance(np.fft.rfft(ic.values) / d, 2000)
        assert np.all(np.isfinite(coeffs))


class TestKseSolver:
    def test_zero_state_fixed_point(self):
        sf = sp.SpectralField(np.zeros(33, dtype=complex), 22.0)
        out = sp.step_kse(sf, 0.05)
        assert np.max(np.abs(out.coeffs)) == 0.0

    def test_mode_one_linear_growth_rate(self):
        d, L = 64, 22.0
        x = sp.grid(d, L)
        solver = sp.KseSolver(d, L, 0.05)
        coeffs = np.fft.rfft(1e-8 * np.sin(2 * np.pi * x / L)) / d
        a0 = np.abs(coeffs[1])
        coeffs = solver.advance(coeffs, 20)  # one time unit
        rate = np.log(np.abs(coeffs[1]) / a0)
        q1 = 2 * np.pi / L
        expected = q1**2 - q1**4
        assert abs(rate - expected) < 1e-3 * expected

    def test_fourth_order_self_convergence(self):
        # asymptotic regime: moderate steps show the scheme's stiff order
        # reduction, so the dyadic sweep sits at small h
        d, L = 32, 22.0
        base = sp.KseSolver(d, L, 0.05)
        rng = np.random.default_rng(1)
        u0 = 0.01 * rng.standard_normal(d)
        u0 -= u0.mean()
        c0 = base.advance(np.fft.rfft(u0) / d, 2000)  # land on the attractor
        finals = []
        for h in (0.0125, 0.00625, 0.003125, 0.0015625):
            solver = sp.KseSolver(d, L, h)
            c = solver.advance(c0.copy(), int(round(1.0 / h)))
            finals.append(np.fft.irfft(c * d, n=d))
        errs = [np.linalg.norm(finals[i] - finals[i + 1]) for i in range(3)]
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert all(3.7 <= o <= 4.3 for o in orders), orders

    def test_blow_up_detected(self):
        sf = sp.SpectralField(np.full(33, 1e200, dtype=complex), 22.0)
        with pytest.raises(sp.BlowUpError):
            solver = sp.KseSolver(64, 22.0, 0.05)
            solver.advance(sf.coeffs, 3)


class TestBatchedAdvance:
    # batches step every row exactly as a single state: the same bits
    def _batch(self, d, L, n):
        rng = np.random.default_rng(d)
        u = rng.standard_normal((n, d))
        u -= u.mean(axis=1, keepdims=True)
        return np.fft.rfft(0.3 * u) / d

    @pytest.mark.parametrize("d", [64, 128])
    def test_vbe_bitwise_rowwise(self, d):
        solver = sp.VbeSolver(d, 1.0, 8e-4, 1e-3)
        coeffs = self._batch(d, 1.0, 7)
        batch = solver.advance(coeffs, 40)
        assert np.array_equal(batch, np.stack([solver.advance(c, 40) for c in coeffs]))
        assert np.array_equal(solver.advance(coeffs[:3], 40), batch[:3])

    @pytest.mark.parametrize("d", [32, 64])
    def test_kse_bitwise_rowwise(self, d):
        solver = sp.KseSolver(d, 22.0, 0.05)
        coeffs = self._batch(d, 22.0, 7)
        batch = solver.advance(coeffs, 100)
        assert np.array_equal(batch, np.stack([solver.advance(c, 100) for c in coeffs]))
        assert np.array_equal(solver.advance(coeffs[:3], 100), batch[:3])

    def test_fill_trajectories_blow_up_names_time(self):
        solver = sp.VbeSolver(64, 1.0, 8e-4, 0.5)
        ic = sp.generate_vbe_ic(sp.IcSpec(seed=4), 64, 1.0).values
        values = np.empty((1, 7, 64))
        values[:, 0] = ic
        with pytest.raises(sp.BlowUpError) as info:
            sp.fill_trajectories(solver, np.fft.rfft(values[:, 0]) / 64, values, 1,
                                 0.5, [4])
        assert info.value.seed == 4
        assert info.value.time in 0.5 * np.arange(1, 7)


class TestDatasets:
    def test_vbe_bookkeeping(self):
        ds = sp.generate_vbe_dataset(n_train=2, n_test=0, d=64, horizon=0.1,
                                     tau=0.05, dt=1e-3, base_seed=0)
        assert ds.values.shape == (2, 3, 64)
        assert np.allclose(ds.times(), [0.0, 0.05, 0.10])

    def test_vbe_deterministic(self):
        kw = dict(n_train=2, n_test=1, d=64, horizon=0.1, tau=0.05, dt=1e-3, base_seed=9)
        a = sp.generate_vbe_dataset(**kw)
        b = sp.generate_vbe_dataset(**kw)
        assert np.array_equal(a.values, b.values)

    def test_vbe_per_trajectory_seeds(self):
        # trajectory i of a larger run equals a standalone run seeded at base+i
        big = sp.generate_vbe_dataset(n_train=3, n_test=0, d=64, horizon=0.05,
                                      tau=0.05, dt=1e-3, base_seed=4)
        solo = sp.generate_vbe_dataset(n_train=1, n_test=0, d=64, horizon=0.05,
                                       tau=0.05, dt=1e-3, base_seed=6)
        assert np.array_equal(big.values[2], solo.values[0])

    def test_tau_must_be_multiple_of_step(self):
        with pytest.raises(ValueError, match="multiple"):
            sp.generate_vbe_dataset(n_train=1, n_test=0, d=64, horizon=0.1,
                                    tau=0.05, dt=3e-3)

    def test_kse_single_trajectory(self):
        ds = sp.generate_kse_dataset(d=32, horizon=2.0, tau=0.25, h=0.05,
                                     transient=1.0, seed=0)
        assert ds.n_traj == 1
        assert ds.n_snap == 9
        train, test = ds.split_chronological(0.8)
        assert train.n_snap == 7 and test.n_snap == 2

    def test_pairs(self):
        ds = sp.generate_vbe_dataset(n_train=2, n_test=0, d=64, horizon=0.1,
                                     tau=0.05, dt=1e-3, base_seed=0)
        u0, u1 = ds.pairs()
        assert u0.shape == (4, 64)
        assert np.array_equal(u0[1], ds.values[0, 1])
        assert np.array_equal(u1[1], ds.values[0, 2])

    def test_snod_round_trip(self, tmp_path):
        ds = sp.generate_vbe_dataset(n_train=2, n_test=1, d=64, horizon=0.1,
                                     tau=0.05, dt=1e-3, base_seed=1)
        path = tmp_path / "data.snod"
        sp.write_dataset(ds, path, manifest={"base_seed": 1})
        back = sp.read_dataset(path)
        assert back.system == "vbe"
        assert back.tau == ds.tau
        assert back.domain_length == ds.domain_length
        assert np.array_equal(back.values, ds.values)
        # byte-identical rewrite
        path2 = tmp_path / "data2.snod"
        sp.write_dataset(back, path2)
        assert path.read_bytes() == path2.read_bytes()
        assert (tmp_path / "data.snod.txt").read_text() == "base_seed=1\n"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            sp.read_dataset(path)
