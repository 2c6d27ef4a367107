"""Transform conventions, symbols as derivatives, and ground-truth solver fidelity."""

import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from stabnode import cli
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
        back = np.fft.irfft(sp.to_spectral(f).coeffs * d, n=d)
        scale = np.max(np.abs(f.values))
        assert np.max(np.abs(back - f.values)) < 1e-12 * scale

    def test_hermitian_endpoints_real(self):
        sf = sp.to_spectral(random_field(32, seed=7))
        assert sf.coeffs[0].imag == 0.0
        assert sf.coeffs[-1].imag == 0.0

    def test_odd_size_rejected(self):
        with pytest.raises(ValueError):
            sp.Field(np.zeros(7), 1.0)
        with pytest.raises(ValueError):
            sp.generate_vbe_ic(sp.IcSpec(), 7)


class TestTransformPair:
    """spectral.rfft / irfft carry np.fft's bits, and every transform uses them."""

    @pytest.mark.parametrize("d", [32, 64, 512])
    def test_bits_of_np_fft(self, d):
        rng = np.random.default_rng(d)
        values = rng.standard_normal((5, 3, d))
        for u in (values[0, 0], values[:, 1], values[:, 0]):  # (d,), (n, d), strided
            assert np.array_equal(sp.rfft(u), np.fft.rfft(u))
            c = np.fft.rfft(u)
            assert np.array_equal(sp.irfft(c, d), np.fft.irfft(c, n=d))

    @pytest.mark.parametrize("d", [32, 512])
    def test_out_arrays_keep_the_bits(self, d):
        u = np.random.default_rng(d).standard_normal((3, d))
        spectrum = np.full((3, d // 2 + 1), np.nan, dtype=complex)
        assert sp.rfft(u, out=spectrum) is spectrum
        assert np.array_equal(spectrum, np.fft.rfft(u))
        real = np.full((3, d), np.nan)
        assert sp.irfft(spectrum, d, out=real) is real
        assert np.array_equal(real, np.fft.irfft(np.fft.rfft(u), n=d))
        symbol = np.random.default_rng(d + 1).standard_normal(d // 2 + 1) + 0j
        applied = sp.apply_symbol(symbol, u, out=real, spectrum=spectrum)
        assert applied is real
        assert np.array_equal(real, np.fft.irfft(symbol * np.fft.rfft(u), n=d))

    @staticmethod
    def _two_where_tendency(coeffs, d, L):
        """The tendency with its mask applied by np.where on input and output."""
        q = 2.0 * np.pi * sp.wavenumber_indices(d) / L
        iq = 1j * q
        iq[-1] = 0.0
        mask = sp.wavenumber_indices(d) <= d // 3
        u = np.fft.irfft(np.where(mask, coeffs, 0.0) * d, n=d)
        return np.where(mask, -0.5 * iq * (np.fft.rfft(u * u) / d), 0.0)

    @pytest.mark.parametrize("system, L", [("vbe", 1.0), ("kse", 22.0)])
    @pytest.mark.parametrize("d", [32, 64, 512])
    def test_tendency_matches_two_where_formula(self, system, L, d):
        rng = np.random.default_rng(d)
        coeffs = np.fft.rfft(rng.standard_normal((4, d))) / d
        for c in (coeffs, coeffs[2]):
            kernel = sp.BurgersTerm(d, L).coefficient_tendency(c.shape[:-1])
            expected = self._two_where_tendency(c, d, L)
            assert np.array_equal(kernel(c, np.empty_like(c)), expected)
            assert np.array_equal(formula_tendency(c, d, L), expected)

    @pytest.mark.parametrize("n", [32, 33, 64, 65, 512])
    def test_scale_multiplies_every_word(self, n):
        # even and odd n take pocketfft's two real kernels; the factor lands on
        # each float64 word of the result, an exact zero, a subnormal and an
        # underflow included, and a non-finite row stays non-finite
        rng = np.random.default_rng(n)
        u = rng.standard_normal((6, n)) * 10.0 ** rng.uniform(-20.0, 20.0, (6, 1))
        u[1, ::3] = 0.0
        u[2] = 0.0
        u[3] = 1e-310 * rng.standard_normal(n)
        u[4, n // 2] = np.inf
        u[5, 1] = np.nan
        with np.errstate(invalid="ignore"):
            for scale in (1.0 / n, 1.0 / 3.0, 7.5, 1e-300):
                got = sp.rfft(u, scale=scale)
                expected = sp.rfft(u).view(np.float64) * scale
                assert same_bits(got[:4].view(np.float64), expected[:4])
                assert not np.isfinite(got[4:]).all(axis=1).any()
                out = np.full((6, n // 2 + 1), np.nan, dtype=complex)
                assert sp.rfft(u, out=out, scale=scale) is out
                assert same_bits(out[:4].view(np.float64), expected[:4])

    @pytest.mark.skipif(sp._pocketfft is None, reason="numpy < 2 has only the fallback")
    def test_fallback_writes_the_same_bytes(self, tmp_path):
        # without numpy's pocketfft gufuncs (numpy < 2) the pair wraps np.fft
        # and applies the forward scale word by word: a KSE dataset and a ROM
        # sweep from it keep every byte
        script = (
            "import sys\n"
            "import numpy.fft\n"
            "del numpy.fft._pocketfft_umath\n"
            "sys.modules['numpy.fft._pocketfft_umath'] = None\n"
            "from stabnode import cli, spectral\n"
            "assert spectral._pocketfft is None\n"
            "out = sys.argv[1]\n"
            "for argv in " + repr(self._fallback_runs("{out}")) + ":\n"
            "    assert cli.main([a.format(out=out) for a in argv]) == 0, argv\n")
        fast, slow = tmp_path / "fast", tmp_path / "slow"
        for argv in self._fallback_runs(str(fast)):
            assert cli.main(argv) == 0, argv
        src = os.path.dirname(os.path.dirname(sp.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
        subprocess.run([sys.executable, "-c", script, str(slow)], env=env, check=True,
                       capture_output=True)
        for name in ("k.snod", "k.snod.txt", "rom/basis.sneb", "rom/reference_pdf.snpd"):
            assert (slow / name).read_bytes() == (fast / name).read_bytes(), name

        def columns(path):
            rows = [l.split(",") for l in path.read_text().splitlines()
                    if not l.startswith("#")]
            return [row[:4] + row[5:] for row in rows]
        assert columns(slow / "rom" / "rom.csv") == columns(fast / "rom" / "rom.csv")

    @staticmethod
    def _fallback_runs(out):
        kse = f"{out}/k.snod"
        return [["generate", "--system", "kse", "--out", kse, "--set", "d=32",
                 "--set", "horizon=10.0", "--set", "transient=5.0"],
                ["rom", "--dataset", kse, "--out", f"{out}/rom", "--mode", "nlg",
                 "--dp", "8,10,16", "--set", "total_time=2.0"]]

    @pytest.mark.skipif(sp._pocketfft is None, reason="numpy < 2 uses np.fft itself")
    def test_no_path_bypasses_the_pair(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.fft called outside spectral.rfft / irfft")

        monkeypatch.setattr(np.fft, "rfft", refuse)
        monkeypatch.setattr(np.fft, "irfft", refuse)
        kse, vbe = str(tmp_path / "k.snod"), str(tmp_path / "v.snod")
        runs = [
            ["generate", "--system", "kse", "--out", kse, "--set", "d=32",
             "--set", "horizon=10.0", "--set", "transient=5.0"],
            ["rom", "--dataset", kse, "--out", str(tmp_path / "rom"), "--mode", "nlg",
             "--dp", "8,10", "--set", "total_time=2.0", "--set", "dt=0.05"],
            ["generate", "--system", "vbe", "--out", vbe, "--train-ics", "2",
             "--test-ics", "1", "--set", "d=64", "--set", "horizon=0.2",
             "--set", "solver_step=2.5e-3"],
            ["train", "--dataset", vbe, "--variant", "learned-linear",
             "--out", str(tmp_path / "run"), "--epochs", "2", "--set", "hidden=8"],
            ["evaluate", "--dataset", vbe, "--checkpoint",
             str(tmp_path / "run" / "model.snck"), "--out", str(tmp_path / "e"),
             "--metric", "spectrum", "--times", "0.1", "--set", "n_ics=1",
             "--set", "horizon=0.2"],
        ]
        for argv in runs:
            assert cli.main(argv) == 0, argv


def derivative(u, L, order):
    """d^order u / dx^order through apply_symbol with the symbol (i q)^order;
    odd orders zero the Nyquist mode, whose derivative the grid cannot hold."""
    symbol = (2j * np.pi * sp.wavenumber_indices(u.shape[-1]) / L) ** order
    if order % 2:
        symbol[-1] = 0.0
    return sp.apply_symbol(symbol, u)


class TestSpectralDerivative:
    """Linear operators applied through their symbols act as derivatives."""

    def test_sine_first_derivative(self):
        d, L = 64, 1.0
        x = sp.grid(d, L)
        out = derivative(np.sin(2 * np.pi * x / L), L, 1)
        expected = (2 * np.pi / L) * np.cos(2 * np.pi * x / L)
        assert np.max(np.abs(out - expected)) < 1e-10

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_constant_derivative_zero(self, order):
        out = derivative(np.full(32, 2.0), 1.0, order)
        assert np.max(np.abs(out)) < 1e-12

    def test_second_derivative_eigenfunction(self):
        d, L = 64, 1.0
        x = sp.grid(d, L)
        u = np.sin(4 * np.pi * x / L)
        out = sp.apply_symbol(sp.linear_symbol("vbe", d, L, viscosity=1.0), u)
        assert np.max(np.abs(out + (4 * np.pi / L) ** 2 * u)) < 1e-10

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_linearity(self, order, seed):
        d, L = 48, 2.0
        rng = np.random.default_rng(seed)
        u, w = rng.standard_normal(d), rng.standard_normal(d)
        a, b = rng.standard_normal(2)
        lhs = derivative(a * u + b * w, L, order)
        rhs = a * derivative(u, L, order) + b * derivative(w, L, order)
        scale = max(np.max(np.abs(lhs)), 1.0)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            sp.linear_symbol("heat", 16, 1.0)


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
        solver = sp.VbeSolver(64, 1.0, 8e-4, 1e-3)
        out = solver.advance(np.zeros(33, dtype=complex), 1)
        assert np.max(np.abs(out)) == 0.0

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
        solver = sp.KseSolver(64, 22.0, 0.05)
        out = solver.advance(np.zeros(33, dtype=complex), 1)
        assert np.max(np.abs(out)) == 0.0

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
        # divergence is a value: the solver returns it and does not raise
        solver = sp.KseSolver(64, 22.0, 0.05)
        out = solver.advance(np.full(33, 1e200, dtype=complex), 3)
        assert not np.all(np.isfinite(out))


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

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    def test_diverging_row_leaves_the_others_alone(self, system):
        # no raise: the blown-up row comes back non-finite, the others keep
        # the bits they have stepped alone
        L = 1.0 if system == "vbe" else 22.0
        solver = sp.true_solver(system, 64, L, 8e-4, 1e-3 if system == "vbe" else 0.05)
        coeffs = self._batch(64, L, 4)
        coeffs[2] = 1e200
        batch = solver.advance(coeffs, 20)
        assert not np.all(np.isfinite(batch[2]))
        for i in (0, 1, 3):
            assert same_bits(batch[i], solver.advance(coeffs[i], 20))

    def test_generation_blow_up_names_time(self):
        with pytest.raises(sp.DivergenceError) as info:
            sp.generate_vbe_dataset(n_train=1, n_test=0, d=64, horizon=3.0, tau=0.5,
                                    dt=0.5, base_seed=4)
        assert info.value.seed == 4
        assert info.value.time in 0.5 * np.arange(1, 7)


def formula_tendency(coeffs, d, L):
    """The dealiased Burgers tendency as one array formula, dividing by d."""
    k = sp.wavenumber_indices(d)
    keep = k <= d // 3
    half_iq = np.where(keep, -0.5 * (1j * (2.0 * np.pi * k / L)), 0.0)
    u = np.fft.irfft(coeffs * (keep * (d + 0j)), n=d)
    return half_iq * (np.fft.rfft(u * u) / d)


def vbe_formula(solver):
    """One RK3/Crank-Nicolson step of ``solver`` as array formulas, each stage
    allocating."""
    lin = sp.linear_symbol("vbe", solver.d, solver.domain_length, solver.viscosity)

    def step(coeffs):
        base = coeffs
        v = coeffs
        for stage in range(3):
            dt_s = solver.dt / (3 - stage)
            v = base + dt_s * formula_tendency(v, solver.d, solver.domain_length)
            v = (v + 0.5 * lin * dt_s * base) / (1.0 - 0.5 * lin * dt_s)
        return v
    return step


def kse_formula(solver):
    """One ETDRK4 step of ``solver`` as array formulas, with the
    contour-averaged factors."""
    d, L, h = solver.d, solver.domain_length, solver.h
    ell = sp.linear_symbol("kse", d, L)
    E, E2 = np.exp(h * ell), np.exp(0.5 * h * ell)
    m = sp.KseSolver.CONTOUR_POINTS
    r = np.exp(1j * np.pi * (np.arange(m) + 0.5) / m)
    lr = h * ell[:, None] + r[None, :]
    Q = h * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=1).real
    f1 = h * np.mean(
        (-4.0 - lr + np.exp(lr) * (4.0 - 3.0 * lr + lr**2)) / lr**3, axis=1).real
    f2 = h * np.mean((2.0 + lr + np.exp(lr) * (lr - 2.0)) / lr**3, axis=1).real
    f3 = h * np.mean(
        (-4.0 - 3.0 * lr - lr**2 + np.exp(lr) * (4.0 - lr)) / lr**3, axis=1).real

    def step(v):
        n_v = formula_tendency(v, d, L)
        a = E2 * v + Q * n_v
        n_a = formula_tendency(a, d, L)
        b = E2 * v + Q * n_a
        n_b = formula_tendency(b, d, L)
        c = E2 * a + Q * (2.0 * n_b - n_v)
        n_c = formula_tendency(c, d, L)
        return E * v + n_v * f1 + 2.0 * (n_a + n_b) * f2 + n_c * f3
    return step


def formula_advance(formula, solver, coeffs, nsteps):
    step = formula(solver)
    for _ in range(nsteps):
        coeffs = step(coeffs)
    return coeffs


def same_bits(a, b):
    """Equal in every float64 word, the sign of a zero included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestInPlaceStepper:
    """``advance`` steps in place with the bits of the array formulas."""

    @staticmethod
    def _vbe_starts(d, n):
        ics = np.stack([sp.generate_vbe_ic(sp.IcSpec(seed=seed), d).values
                        for seed in range(n)])
        return np.fft.rfft(ics) / d

    @staticmethod
    def _kse_start(d, seed=1):
        u0 = 0.01 * np.random.default_rng(seed).standard_normal(d)
        return np.fft.rfft(u0 - u0.mean()) / d

    def test_vbe_paper_batch(self):
        solver = sp.VbeSolver(512)
        coeffs = self._vbe_starts(512, 18)
        assert same_bits(solver.advance(coeffs, 1000),
                         formula_advance(vbe_formula, solver, coeffs, 1000))

    def test_vbe_grid_not_a_power_of_two(self):
        solver = sp.VbeSolver(96, viscosity=2e-3, dt=2.5e-3)
        coeffs = 0.3 * self._vbe_starts(96, 5)
        assert same_bits(solver.advance(coeffs, 400),
                         formula_advance(vbe_formula, solver, coeffs, 400))

    def test_kse_long_run(self):
        solver = sp.KseSolver(64)
        coeffs = self._kse_start(64)
        assert same_bits(solver.advance(coeffs, 8000),
                         formula_advance(kse_formula, solver, coeffs, 8000))

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    def test_single_state_and_zero_state(self, system):
        solver, formula = ((sp.VbeSolver(64), vbe_formula) if system == "vbe"
                           else (sp.KseSolver(32), kse_formula))
        state = (self._vbe_starts(64, 1)[0] if system == "vbe"
                 else self._kse_start(32))
        for coeffs in (state, np.zeros_like(state)):
            assert same_bits(solver.advance(coeffs, 50),
                             formula_advance(formula, solver, coeffs, 50))

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    def test_input_kept_and_results_apart(self, system):
        solver = sp.VbeSolver(64) if system == "vbe" else sp.KseSolver(32)
        coeffs = (self._vbe_starts(64, 3) if system == "vbe"
                  else np.stack([self._kse_start(32, seed) for seed in range(3)]))
        before = coeffs.copy()
        first = solver.advance(coeffs, 5)
        assert same_bits(coeffs, before)
        second = solver.advance(first, 5)
        assert not np.shares_memory(first, second)
        assert not np.shares_memory(first, coeffs)
        # a batch shape the buffers were not built for, and back
        assert same_bits(solver.advance(coeffs[1], 10), second[1])
        assert same_bits(solver.advance(coeffs, 10), second)

    @pytest.mark.parametrize("shape", [(33,), (4, 33), (18, 257)])
    def test_tendency_out_keeps_the_bits(self, shape):
        d = 2 * (shape[-1] - 1)
        rng = np.random.default_rng(d)
        coeffs = np.fft.rfft(rng.standard_normal(shape[:-1] + (d,))) / d
        out = np.full(shape, np.nan, dtype=complex)
        before = coeffs.copy()
        # the bound kernel, as the solvers and the ROM run it
        assert sp.BurgersTerm(d, 22.0).coefficient_tendency(shape[:-1])(coeffs, out) is out
        assert same_bits(out, formula_tendency(coeffs, d, 22.0))
        assert same_bits(coeffs, before)


class TestBlockedAdvance:
    """A batch steps in blocks of ``block_rows`` rows, each with the bits of its
    rows stepped alone and of the array formulas."""

    @staticmethod
    def _setup(system):
        # the paper's grids: VBE d=512 and KSE d=64
        if system == "vbe":
            solver, formula, nsteps = sp.VbeSolver(512), vbe_formula, 20
        else:
            solver, formula, nsteps = sp.KseSolver(64), kse_formula, 10
        return solver, formula, nsteps, solver.block_rows

    @staticmethod
    def _starts(solver, n):
        d = solver.d
        u = 0.3 * np.random.default_rng(n).standard_normal((n, d))
        return np.fft.rfft(u - u.mean(axis=1, keepdims=True)) / d

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    def test_block_holds_the_budget(self, system):
        solver, _, _, rows = self._setup(system)
        state_bytes = 16 * (solver.d // 2 + 1)
        assert rows * state_bytes <= sp.BLOCK_BYTES < (rows + 1) * state_bytes

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    def test_batches_around_the_block_keep_the_bits(self, system):
        solver, formula, nsteps, B = self._setup(system)
        for n in (1, B - 1, B, B + 1, 2 * B + 3):
            coeffs = self._starts(solver, n)
            batch = solver.advance(coeffs, nsteps)
            assert same_bits(batch, np.stack([solver.advance(c, nsteps) for c in coeffs]))
            # KSE modes past k = 21 underflow to zero at d=64, and the formulas'
            # complex products may give such a zero the other sign
            assert same_bits(batch + 0.0, formula_advance(formula, solver, coeffs, nsteps) + 0.0)

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    @pytest.mark.parametrize("where", ["second block", "lone last row"])
    def test_diverging_row_in_a_later_block(self, system, where):
        solver, _, nsteps, B = self._setup(system)
        n, bad = (B + 3, B + 1) if where == "second block" else (2 * B + 1, 2 * B)
        coeffs = self._starts(solver, n)
        coeffs[bad] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = solver.advance(coeffs, nsteps)
        assert not np.all(np.isfinite(batch[bad]))
        alone = np.delete(coeffs, bad, axis=0)
        assert same_bits(np.delete(batch, bad, axis=0), solver.advance(alone, nsteps))
        assert same_bits(batch[bad - 1], solver.advance(coeffs[bad - 1], nsteps))

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    def test_shrinking_batch_reuses_the_buffers(self, system):
        solver, _, _, B = self._setup(system)
        for n in (5, B + 1):
            coeffs = self._starts(solver, n)
            solver.advance(coeffs, 2)
            kept = solver._kept
            solver.advance(coeffs[:-1], 2)
            solver.advance(coeffs[0], 2)
            assert solver._kept is kept

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    def test_lone_state_steps_as_a_one_row_block(self, system):
        # a lone state, the same state as a one-row batch, and the one-row last
        # block of B + 1 rows step in 2-D views of the kept buffers, to one set of bits
        solver, _, nsteps, B = self._setup(system)
        coeffs = self._starts(solver, B + 1)
        lone = solver.advance(coeffs[B], nsteps)
        assert lone.shape == coeffs[B].shape
        assert same_bits(solver.advance(coeffs[B:], nsteps)[0], lone)
        assert same_bits(solver.advance(coeffs, nsteps)[B], lone)
        assert all(a.ndim == 2 and len(a) == 1 for a in solver._buffers(1)[1:])

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    def test_lone_state_after_a_one_row_batch_reuses_the_buffers(self, system):
        solver, _, _, _ = self._setup(system)
        coeffs = self._starts(solver, 1)
        solver.advance(coeffs, 2)
        kept, cut = solver._kept, solver._buffers(1)
        tracemalloc.start()
        try:
            result = solver.advance(coeffs[0], 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert solver._kept is kept and solver._buffers(1) is cut
        assert peak - result.nbytes <= 16 * 1024

    @pytest.mark.parametrize("system", ["vbe", "kse"])
    def test_warm_advance_allocates_only_its_result(self, system):
        solver, _, _, B = self._setup(system)
        for n in (4 * B, 8 * B):
            coeffs = self._starts(solver, n)
            solver.advance(coeffs, 2)
            tracemalloc.start()
            try:
                result = solver.advance(coeffs, 2)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # far below one block of state, whatever the batch
            assert peak - result.nbytes <= 16 * 1024


def quadrupling(calls, limit):
    """An advance that quadruples its rows every step and, as an RK4 step
    does on overflow, returns a row with an entry past ``limit`` as +inf."""
    def advance(state, nsteps, rows):
        calls.append(rows.tolist())
        state = state * 4.0 ** nsteps
        state[np.any(np.abs(state) > limit, axis=1)] = np.inf
        return state
    return advance


class TestMarch:
    def test_raising_row_leaves_the_others_alone(self):
        state = np.array([[0.25, -0.25], [2.0, 1.0], [0.125, 0.375]])
        calls = []
        snaps = sp.march(quadrupling(calls, limit=30.0), state, 3, 1)
        assert snaps.shape == (3, 4, 2)
        # row 1 passes the limit in the second interval and is dropped at that save
        assert np.array_equal(snaps[1, :2], [[2.0, 1.0], [8.0, 4.0]])
        assert np.all(snaps[1, 2:] == np.inf)
        alone = sp.march(quadrupling([], limit=30.0), state[[0, 2]], 3, 1)
        assert np.array_equal(snaps[[0, 2]], alone)
        # one call per save, on the rows still live
        assert calls == [[0, 1, 2], [0, 1, 2], [0, 2]]

    def test_live_rows_get_back_their_array(self):
        given, returned = [], []

        def advance(state, nsteps, rows):
            given.append(state)
            returned.append(state + 1.0)
            return returned[-1]

        snaps = sp.march(advance, np.zeros((2, 3)), 3, 1)
        assert np.array_equal(snaps[:, 3], np.full((2, 3), 3.0))
        assert len(given) == 3 and all(g is r for g, r in zip(given[1:], returned))

    def test_advance_errors_propagate(self):
        def advance(state, nsteps, rows):
            raise sp.DivergenceError("a solver that must fail")

        with pytest.raises(sp.DivergenceError, match="must fail"):
            sp.march(advance, np.ones((2, 3)), 2, 1)

    def test_observe_may_change_the_width(self):
        state = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        seen = []

        def observe(s, rows):
            seen.append(rows.tolist())
            # row 1's third snapshot is non-finite: it leaves from that save on
            total = np.where(s[:, 0] < 7.5, s.sum(axis=1), np.nan)
            return np.stack([total, rows.astype(float)], axis=1)

        snaps = sp.march(lambda s, n, rows: s + n, state, 3, 2, observe)
        assert snaps.shape == (2, 4, 2)
        assert np.array_equal(snaps[0], [[6.0, 0.0], [12.0, 0.0], [18.0, 0.0],
                                         [24.0, 0.0]])
        assert np.array_equal(snaps[1], [[15.0, 1.0], [21.0, 1.0], [np.inf, np.inf],
                                         [np.inf, np.inf]])
        assert seen == [[0, 1], [0, 1], [0, 1], [0]]

    def test_no_step_once_every_row_is_dead(self):
        calls = []
        state = np.full((2, 3), 50.0)
        snaps = sp.march(quadrupling(calls, limit=100.0), state, 5, 1)
        assert calls == [[0, 1]]
        assert np.array_equal(snaps[:, 0], state) and np.all(snaps[:, 1:] == np.inf)
        calls.clear()
        snaps = sp.march(quadrupling(calls, limit=100.0), np.array([[np.nan, 1.0]]),
                         5, 1)
        assert calls == [] and np.all(snaps == np.inf)


class TestFiniteTruth:
    def _snaps(self):
        # row 2 goes non-finite at save 2, before row 0 (save 4) and row 1 (save 5)
        snaps = np.zeros((3, 6, 4))
        snaps[0, 4, 1] = np.nan
        snaps[1, 5:] = np.inf
        snaps[2, 2:, 3] = -np.inf
        return snaps

    def test_finite_snapshots_returned(self):
        snaps = np.ones((2, 3, 4))
        assert sp.finite_truth(snaps, 0.25) is snaps

    def test_names_the_earliest_save_and_its_seed(self):
        with pytest.raises(sp.DivergenceError,
                           match=r"^ground truth \(seed 12\) went non-finite by t = 0.5$") as info:
            sp.finite_truth(self._snaps(), 0.25, [10, 11, 12])
        assert info.value.time == 0.5 and info.value.seed == 12

    def test_names_the_row_without_seeds(self):
        with pytest.raises(sp.DivergenceError,
                           match=r"^rollout \(row 2\) went non-finite by t = 0.5$") as info:
            sp.finite_truth(self._snaps(), 0.25, what="rollout")
        assert info.value.time == 0.5 and info.value.seed is None

    def test_first_of_rows_at_the_same_save(self):
        snaps = self._snaps()
        snaps[1, 2, 0] = np.nan
        with pytest.raises(sp.DivergenceError) as info:
            sp.finite_truth(snaps, 0.25, [10, 11, 12])
        assert info.value.seed == 11


class TestSaveCount:
    @pytest.mark.parametrize("span,interval,count", [
        (1.0, 0.25, 4), (0.0, 0.25, 0), (2000.0, 0.25, 8000), (5.0, 0.05, 100),
        (0.05, 1e-3, 50), (100.0, 0.05, 2000), (500.0, 0.05, 10000), (0.25, 0.01, 25)])
    def test_divided_spans(self, span, interval, count):
        assert sp.save_count(span, interval) == count

    @pytest.mark.parametrize("span,interval", [(1.1, 0.25), (1.0, 0.3), (-1.0, 0.25),
                                               (1.0, 0.0), (0.33, 0.05), (10.01, 0.05),
                                               (0.05, 0.03), (1.0, np.inf),
                                               (np.inf, 0.25), (np.nan, 0.25)])
    def test_undivided_spans_rejected(self, span, interval):
        with pytest.raises(ValueError, match="must divide"):
            sp.save_count(span, interval)


class TestDatasets:
    def test_vbe_bookkeeping(self):
        ds = sp.generate_vbe_dataset(n_train=2, n_test=0, d=64, horizon=0.1,
                                     tau=0.05, dt=1e-3, base_seed=0)
        assert ds.values.shape == (2, 3, 64)

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
        with pytest.raises(ValueError, match="must divide the time span"):
            sp.generate_vbe_dataset(n_train=1, n_test=0, d=64, horizon=0.1,
                                    tau=0.05, dt=3e-3)

    @pytest.mark.parametrize("n_train,n_test", [(0, 2), (3, -1)])
    def test_trajectory_counts_checked(self, n_train, n_test):
        with pytest.raises(ValueError, match="at least 1 training and 0 test"):
            sp.generate_vbe_dataset(n_train=n_train, n_test=n_test, d=64, horizon=0.1)

    def test_kse_single_trajectory(self):
        ds = sp.generate_kse_dataset(d=32, horizon=2.0, tau=0.25, h=0.05,
                                     transient=1.0, seed=0)
        assert ds.n_traj == 1
        assert ds.n_snap == 9
        train, test = ds.split_chronological(0.8)
        assert train.n_snap == 7 and test.n_snap == 2

    def test_kse_transient_blow_up_names_the_seed(self):
        # a step of 5 blows up in the transient: recording time 0 is non-finite
        with pytest.raises(sp.DivergenceError, match=r"\(seed 3\)") as info:
            sp.generate_kse_dataset(d=32, horizon=50.0, tau=5.0, h=5.0, transient=100.0,
                                    seed=3)
        assert info.value.seed == 3 and info.value.time == 0.0

    def test_pairs(self):
        ds = sp.generate_vbe_dataset(n_train=2, n_test=0, d=64, horizon=0.1,
                                     tau=0.05, dt=1e-3, base_seed=0)
        snaps, starts = ds.snapshots(), ds.pair_starts()
        assert np.shares_memory(snaps, ds.values)
        u0, u1 = snaps[starts], snaps[starts + 1]
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


class TestTrueTrajectories:
    def _dataset(self, tmp_path, d, sidecar):
        # the sidecar records non-default physics; without it the defaults apply
        physics = dict(viscosity=2e-3, dt=2.5e-3) if sidecar else {}
        ds = sp.generate_vbe_dataset(n_train=2, n_test=3, d=d, horizon=0.2, tau=0.05,
                                     base_seed=d, **physics)
        path = tmp_path / "data.snod"
        sp.write_dataset(ds, path, manifest={"train_trajectories": 2, "viscosity": 2e-3,
                                             "solver_step": 2.5e-3} if sidecar else None)
        return sp.read_dataset(path)

    @pytest.mark.parametrize("sidecar", [True, False])
    @pytest.mark.parametrize("d", [32, 64])
    def test_resolving_test_split_gives_stored_bits(self, tmp_path, d, sidecar):
        # the oracle the stored-row read rests on: the dataset's solver, started
        # from the stored first snapshots, steps the stored test rows bit for bit
        test = self._dataset(tmp_path, d, sidecar).split()[1]
        assert test.n_traj == (3 if sidecar else 5)
        starts = test.initial_conditions()
        solver = sp.true_solver("vbe", d, test.domain_length, test.viscosity,
                                test.solver_step)
        values = sp.solve_truth(solver, np.fft.rfft(starts) / d, test.n_snap - 1,
                                int(round(test.tau / test.solver_step)), test.tau)
        values[:, 0] = starts
        assert np.array_equal(values, test.values)

    def test_stored_starts_read_without_solving(self, tmp_path, monkeypatch):
        test = self._dataset(tmp_path, 32, True).split()[1]
        monkeypatch.setattr(sp.VbeSolver, "advance", None)  # any solve would fail
        truth = test.true_trajectories(test.initial_conditions()[:2].copy(), 4)
        assert truth.shape == (2, 4, 32)
        assert np.shares_memory(truth, test.values)
        assert np.array_equal(truth, test.values[:2, :4])

    def test_other_starts_and_horizons_solved(self, tmp_path):
        test = self._dataset(tmp_path, 32, True).split()[1]
        starts = test.initial_conditions()
        longer = test.true_trajectories(starts, test.n_snap + 2)
        assert longer.shape == (3, test.n_snap + 2, 32)
        assert np.array_equal(longer[:, :test.n_snap], test.values)
        noisy = starts[1:] + 1e-3
        truth = test.true_trajectories(noisy, 3)
        assert not np.shares_memory(truth, test.values)
        assert np.array_equal(truth[:, 0], noisy)
        assert np.all(np.isfinite(truth))
        assert not np.array_equal(truth, test.values[1:, :3])

    def test_diverging_start_raises_naming_its_row(self, tmp_path):
        test = self._dataset(tmp_path, 32, True).split()[1]
        starts = test.initial_conditions().copy()
        starts[1] *= 1e200
        with pytest.raises(sp.DivergenceError, match=r"\(row 1\)") as info:
            test.true_trajectories(starts, 3)
        assert info.value.time in (0.05, 0.1) and info.value.seed is None

    def test_kse_always_solved(self):
        ds = sp.generate_kse_dataset(d=32, horizon=2.0, transient=10.0)
        truth = ds.true_trajectories(ds.initial_conditions()[:2], 3)
        assert not np.shares_memory(truth, ds.values)
        assert np.array_equal(truth[:, 0], ds.values[0, :2])
        assert np.allclose(truth[0], ds.values[0, :3], rtol=0, atol=1e-10)
