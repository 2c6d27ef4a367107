"""RHS variants, RK4 discrete adjoint, and the training loop."""

import numpy as np
import pytest

from stabnode import diffcore as dc
from stabnode import neural_ode as node
from stabnode import spectral as sp


def zero_mlp(d, hidden=8):
    sizes = [d, hidden, d]
    return dc.MlpParams(sizes, ["sigmoid", "linear"],
                        [np.zeros((sizes[i], sizes[i + 1])) for i in range(2)],
                        [np.zeros(sizes[i + 1]) for i in range(2)])


def random_model(variant, d, seed, acts=("sigmoid", "linear"), hidden=12,
                 system="vbe", L=1.0):
    sizes = [d, hidden, d]
    return node.build_model(variant, sizes, list(acts), ("normal", 0.0, 0.04),
                            seed, system=system, domain_length=L,
                            stencil_width=3, stencil_init=("uniform", -0.3, 0.3))


class TestRhsEval:
    def test_fixed_linear_with_zero_net_is_pure_matrix(self):
        d = 8
        mat = node.true_linear_matrix("vbe", d, 1.0, viscosity=1e-2)
        model = node.RhsModel("fixed-linear", zero_mlp(d), fixed_matrix=mat)
        u = np.arange(d, dtype=float)
        assert np.array_equal(node.rhs_eval(model, u), mat @ u)

    def test_zero_stencil_equals_bare_network(self):
        d = 8
        rng = np.random.default_rng(0)
        mlp = dc.init_mlp([d, 10, d], ["relu", "linear"], ("normal", 0, 0.04), 1)
        learned = node.RhsModel("learned-linear", mlp,
                                stencil=dc.ConvStencil(np.zeros(3)))
        bare = node.RhsModel("nonlinear", mlp)
        u = rng.standard_normal(d)
        assert np.array_equal(node.rhs_eval(learned, u), node.rhs_eval(bare, u))

    @pytest.mark.parametrize("variant", ["fixed-linear", "learned-linear"])
    def test_branch_additivity(self, variant):
        d = 16
        model = random_model(variant, d, seed=3)
        u = np.random.default_rng(5).standard_normal(d)
        total = node.rhs_eval(model, u)
        split = model.linear_apply(u) + model.nonlinear_apply(u)
        assert np.max(np.abs(total - split)) < 1e-14

    def test_variant_field_discipline(self):
        d = 8
        with pytest.raises(ValueError):
            node.RhsModel("fixed-linear", zero_mlp(d))
        with pytest.raises(ValueError):
            node.RhsModel("nonlinear", zero_mlp(d),
                          stencil=dc.ConvStencil(np.zeros(3)))


class TestIntegrate:
    def test_zero_rhs_identity(self):
        d = 8
        model = node.RhsModel("nonlinear", zero_mlp(d))
        u0 = np.arange(d, dtype=float)
        out = node.integrate(model, u0, 1.0, 10)
        assert np.array_equal(out, u0)

    def test_scalar_rk4_amplification(self):
        # du/dt = -u through a 1-tap stencil; one step h = 0.1
        mlp = zero_mlp(2)
        model = node.RhsModel("learned-linear", mlp,
                              stencil=dc.ConvStencil(np.array([-1.0])))
        out = node.integrate(model, np.array([1.0, 1.0]), 0.1, 1)
        assert out[0] == pytest.approx(0.9048375, abs=1e-12)

    def test_matches_matrix_exponential(self):
        d = 8
        mat = node.true_linear_matrix("vbe", d, 1.0, viscosity=5e-3)
        model = node.RhsModel("fixed-linear", zero_mlp(d), fixed_matrix=mat)
        u0 = np.random.default_rng(1).standard_normal(d)
        t = 0.5
        out = node.integrate(model, u0, t, 50)
        lam, vec = np.linalg.eigh(mat)
        exact = vec @ (np.exp(lam * t) * (vec.T @ u0))
        assert np.max(np.abs(out - exact)) < 1e-8

    def test_fourth_order_step_doubling(self):
        d = 8
        model = random_model("learned-linear", d, seed=2)
        u0 = 0.3 * np.random.default_rng(3).standard_normal(d)
        outs = [node.integrate(model, u0, 1.0, n) for n in (8, 16, 32)]
        e1 = np.linalg.norm(outs[0] - outs[1])
        e2 = np.linalg.norm(outs[1] - outs[2])
        order = np.log2(e1 / e2)
        assert 3.5 <= order <= 4.5

    def test_divergence_carries_step(self):
        mlp = zero_mlp(2)
        model = node.RhsModel("learned-linear", mlp,
                              stencil=dc.ConvStencil(np.array([80.0])))
        with pytest.raises(node.DivergenceError) as exc_info:
            node.integrate(model, np.array([1.0, 1.0]), 100.0, 40)
        assert exc_info.value.step is not None


class TestLoss:
    def test_zero_for_identical(self):
        a = np.random.default_rng(0).standard_normal((3, 5))
        assert node.l1_loss(a, a.copy()) == 0.0

    def test_direct_value(self):
        pred = np.array([[0.5, -0.5]])
        assert node.l1_loss(pred, np.zeros((1, 2))) == pytest.approx(0.5)

    def test_homogeneous(self):
        rng = np.random.default_rng(4)
        target = rng.standard_normal((4, 6))
        diff = rng.standard_normal((4, 6))
        base = node.l1_loss(target + diff, target)
        assert node.l1_loss(target + 3.0 * diff, target) == pytest.approx(3.0 * base)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            node.l1_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestLossGradient:
    def test_exact_prediction_gives_zero_gradient(self):
        d = 6
        model = random_model("learned-linear", d, seed=7)
        u0 = np.random.default_rng(8).standard_normal((3, d))
        pred, _ = node._rk4_forward(model, u0, 0.05 / 5, 5, record=False)
        loss, grads = node.loss_gradient(model, u0, pred, 0.05, 5)
        assert loss == 0.0
        assert all(np.all(g == 0) for g in grads.mlp.weights)
        assert np.all(grads.taps == 0)

    def test_scalar_parameter_hand_derivative(self):
        # du/dt = theta*u, one RK4 step: d(pred)/d(theta) = h*R'(theta*h)*u0
        theta, h = 0.7, 0.25
        mlp = zero_mlp(2)
        model = node.RhsModel("learned-linear", mlp,
                              stencil=dc.ConvStencil(np.array([theta])))
        u0 = np.array([[1.0, 2.0]])
        target = np.array([[1.5, 2.1]])
        loss, grads = node.loss_gradient(model, u0, target, h, 1)
        z = theta * h
        amp = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        damp = h * (1 + z + z**2 / 2 + z**3 / 6)
        residual = amp * u0 - target
        expected = np.mean(np.sign(residual) * damp * u0)
        assert grads.taps[0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("variant", ["nonlinear", "fixed-linear", "learned-linear"])
    def test_finite_difference(self, variant):
        d = 8
        model = random_model(variant, d, seed=11)
        rng = np.random.default_rng(12)
        u0 = rng.standard_normal((4, d))
        u1 = rng.standard_normal((4, d))
        tau, steps = 0.1, 3
        loss, grads = node.loss_gradient(model, u0, u1, tau, steps)
        step = 1e-5
        for trial in range(5):
            drng = np.random.default_rng(100 + trial)
            direction = node.ModelGrads.zeros(model)
            for g in direction.mlp.weights:
                g += drng.standard_normal(g.shape)
            for g in direction.mlp.biases:
                g += drng.standard_normal(g.shape)
            if direction.taps is not None:
                direction.taps += drng.standard_normal(direction.taps.shape)
            analytic = grads.dot(direction)

            def perturbed(sign):
                mlp = dc.MlpParams(
                    list(model.mlp.layer_sizes), list(model.mlp.activations),
                    [w + sign * step * gw for w, gw in
                     zip(model.mlp.weights, direction.mlp.weights)],
                    [b + sign * step * gb for b, gb in
                     zip(model.mlp.biases, direction.mlp.biases)])
                stencil = model.stencil
                if stencil is not None:
                    stencil = dc.ConvStencil(
                        stencil.taps + sign * step * direction.taps,
                        stencil.symmetric)
                shifted = node.RhsModel(model.variant, mlp,
                                        fixed_matrix=model.fixed_matrix,
                                        stencil=stencil)
                pred, _ = node._rk4_forward(shifted, u0, tau / steps, steps, False)
                return np.mean(np.abs(pred - u1))

            fd = (perturbed(+1) - perturbed(-1)) / (2 * step)
            assert abs(analytic - fd) < 1e-5 * max(abs(fd), 1e-3), (variant, trial)


class TestTrainConfig:
    def test_even_stage_partition(self):
        cfg = node.TrainConfig(9000, (1e-3, 1e-4, 1e-5), (1e0, 1e-1, 1e-2))
        assert cfg.lrs_at(0) == (1e-3, 1e0)
        assert cfg.lrs_at(2999) == (1e-3, 1e0)
        assert cfg.lrs_at(3000) == (1e-4, 1e-1)
        assert cfg.lrs_at(5999) == (1e-4, 1e-1)
        assert cfg.lrs_at(6000) == (1e-5, 1e-2)
        assert cfg.lrs_at(8999) == (1e-5, 1e-2)

    def test_burgers_schedules(self):
        cfg = node.vbe_train_config(300, "fixed-linear")
        assert cfg.lr_nonlinear == (1e-3, 1e-4, 1e-5)
        assert cfg.lr_linear == ()
        cfg = node.vbe_train_config(300, "learned-linear")
        assert cfg.lr_nonlinear == (1e-3, 1e-4)
        assert cfg.lr_linear == (1e0, 1e-1, 1e-2)

    def test_mixed_stage_counts(self):
        cfg = node.TrainConfig(100, (1e-3, 1e-4), (1e0, 1e-1, 1e-2))
        assert cfg.lrs_at(0) == (1e-3, 1e0)
        assert cfg.lrs_at(50) == (1e-4, 1e-1)
        assert cfg.lrs_at(99) == (1e-4, 1e-2)


def tiny_vbe_dataset(d=32, n_traj=2, n_snap=100, seed=0):
    return sp.generate_vbe_dataset(n_train=n_traj, n_test=0, d=d,
                                   horizon=(n_snap - 1) * 0.05, tau=0.05,
                                   dt=2.5e-3, base_seed=seed)


class TestTraining:
    def test_smoke_loss_halves(self):
        # ~200 snapshots, 200 epochs on a small learned-linear model
        ds = tiny_vbe_dataset()
        model = node.build_model("learned-linear", [32, 48, 32],
                                 ["relu", "linear"], ("normal", 0.0, 1e-2),
                                 seed=0, stencil_width=3,
                                 stencil_init=("normal", 0.0, 1.0))
        cfg = node.vbe_train_config(200, "learned-linear", batch_size=64, seed=1)
        result = node.train(model, ds, cfg)
        assert len(result.loss_history) == 200
        assert result.loss_history[-1] < 0.5 * result.loss_history[0]

    def test_bit_reproducible(self):
        ds = tiny_vbe_dataset(n_snap=20)
        models = []
        for _ in range(2):
            model = node.build_model("learned-linear", [32, 16, 32],
                                     ["sigmoid", "linear"], ("normal", 0.0, 1e-2),
                                     seed=5, stencil_width=3)
            cfg = node.vbe_train_config(30, "learned-linear", batch_size=16, seed=2)
            node.train(model, ds, cfg)
            models.append(model)
        a, b = models
        assert all(np.array_equal(x, y) for x, y in zip(a.mlp.weights, b.mlp.weights))
        assert np.array_equal(a.stencil.taps, b.stencil.taps)

    def test_resume_matches_uninterrupted(self):
        ds = tiny_vbe_dataset(n_snap=20)

        def fresh():
            return node.build_model("learned-linear", [32, 16, 32],
                                    ["sigmoid", "linear"], ("normal", 0.0, 1e-2),
                                    seed=5, stencil_width=3)

        cfg = node.vbe_train_config(40, "learned-linear", batch_size=16, seed=3)
        straight = fresh()
        node.train(straight, ds, cfg)

        # interrupt at epoch 20, keep the full 40-epoch schedule, resume
        resumed = fresh()
        first = node.train(resumed, ds, cfg, stop_epoch=20)
        node.train(resumed, ds, cfg, start_epoch=20, adam=first.adam)
        assert all(np.array_equal(x, y) for x, y in
                   zip(straight.mlp.weights, resumed.mlp.weights))
        assert np.array_equal(straight.stencil.taps, resumed.stencil.taps)

    def test_width_mismatch_rejected(self):
        ds = tiny_vbe_dataset(n_snap=5)
        model = random_model("nonlinear", 16, seed=0)
        with pytest.raises(ValueError):
            node.train(model, ds, node.TrainConfig(5, (1e-3,)))


class TestRollout:
    def test_single_interval(self):
        d = 8
        model = node.RhsModel("nonlinear", zero_mlp(d))
        times, states = node.rollout(model, np.ones(d), 0.5, 0.5)
        assert times.shape == (2,)
        assert states.shape == (2, d)

    def test_zero_rhs_constant_trajectory(self):
        d = 8
        model = node.RhsModel("nonlinear", zero_mlp(d))
        u0 = np.arange(d, dtype=float)
        _, states = node.rollout(model, u0, 2.0, 0.5)
        assert np.array_equal(states, np.tile(u0, (5, 1)))

    def test_divergence_reports_last_finite(self):
        # du/dt = 40 u overflows after some tens of unit intervals
        mlp = zero_mlp(2)
        model = node.RhsModel("learned-linear", mlp,
                              stencil=dc.ConvStencil(np.array([40.0])))
        _, states = node.rollout(model, np.ones(2), 50.0, 1.0, steps_per_interval=2)
        finite = np.all(np.isfinite(states), axis=1)
        last = int(np.argmin(finite)) - 1
        assert 0 < last < 50
        assert np.all(finite[:last + 1])
        assert np.all(states[last + 1:] == np.inf)

    def test_batch_row_divergence_leaves_others(self):
        mlp = zero_mlp(2)
        model = node.RhsModel("learned-linear", mlp,
                              stencil=dc.ConvStencil(np.array([40.0])))
        u0 = np.stack([np.ones(2), np.zeros(2)])
        times, states = node.rollout(model, u0, 50.0, 1.0, steps_per_interval=2)
        assert times.shape == (51,)
        assert states.shape == (2, 51, 2)
        _, alone = node.rollout(model, np.ones(2), 50.0, 1.0, steps_per_interval=2)
        assert np.array_equal(states[0], alone)
        last = int(np.argmin(np.all(np.isfinite(states[0]), axis=1))) - 1
        assert 0 < last < 50
        assert np.all(states[0, last + 1:] == np.inf)
        assert np.all(states[1] == 0.0)

    def test_batch_matches_single_rollouts(self):
        model = random_model("learned-linear", 8, seed=4)
        u0 = 0.1 * np.random.default_rng(5).standard_normal((3, 8))
        _, batch = node.rollout(model, u0, 1.0, 0.25)
        for row, start in zip(batch, u0):
            _, alone = node.rollout(model, start, 1.0, 0.25)
            assert np.allclose(row, alone, rtol=1e-14, atol=0.0)

    def test_interval_must_divide(self):
        model = node.RhsModel("nonlinear", zero_mlp(4))
        with pytest.raises(ValueError):
            node.rollout(model, np.ones(4), 1.0, 0.3)


class TestTruePhysics:
    def test_vbe_matrix_symbol(self):
        d, L, nu = 32, 1.0, 8e-4
        mat = node.true_linear_matrix("vbe", d, L, nu)
        x = np.arange(d) * L / d
        u = np.sin(2 * np.pi * 3 * x / L)
        q3 = 2 * np.pi * 3 / L
        assert np.allclose(mat @ u, -nu * q3**2 * u, atol=1e-10)
        assert np.array_equal(mat, mat.T)

    def test_kse_matrix_symbol(self):
        d, L = 64, 22.0
        mat = node.true_linear_matrix("kse", d, L)
        x = np.arange(d) * L / d
        u = np.cos(2 * np.pi * 4 * x / L)
        q4 = 2 * np.pi * 4 / L
        assert np.allclose(mat @ u, (q4**2 - q4**4) * u, atol=1e-8)

    def test_true_rhs_matches_solver_tendency(self):
        # eval() must agree with the ETDRK4 solver's instantaneous tendency
        d, L = 64, 22.0
        rhs = node.TrueRhs("kse", d, L)
        ds = sp.generate_kse_dataset(d=d, horizon=1.0, tau=0.25, h=0.05,
                                     transient=50.0, seed=2)
        u = ds.values[0, 0]
        tend = rhs.eval(u)
        # finite-difference tendency from a fine solver step
        solver = sp.KseSolver(d, L, 1e-5)
        c = solver.advance(np.fft.rfft(u) / d, 1)
        u_next = np.fft.irfft(c * d, n=d)
        fd = (u_next - u) / 1e-5
        assert np.max(np.abs(tend - fd)) < 1e-3 * max(1.0, np.max(np.abs(tend)))


class TestPersistence:
    def test_learned_linear_round_trip(self, tmp_path):
        model = random_model("learned-linear", 8, seed=1)
        path = tmp_path / "m.snck"
        node.save_model(path, model, sidecar={"variant": model.variant})
        back = node.load_model(path)
        assert back.variant == "learned-linear"
        assert all(np.array_equal(a, b) for a, b in
                   zip(model.mlp.weights, back.mlp.weights))
        assert np.array_equal(model.stencil.taps, back.stencil.taps)

    def test_fixed_linear_rebuilds_matrix_from_sidecar(self, tmp_path):
        model = random_model("fixed-linear", 8, seed=2)
        path = tmp_path / "m.snck"
        node.save_model(path, model, sidecar={
            "system": "vbe", "domain_length": 1.0, "viscosity": 8e-4})
        back = node.load_model(path)
        assert np.allclose(back.fixed_matrix, model.fixed_matrix)

    def test_opt_state_round_trip(self, tmp_path):
        ds = tiny_vbe_dataset(n_snap=5)
        model = node.build_model("learned-linear", [32, 8, 32],
                                 ["sigmoid", "linear"], ("normal", 0.0, 1e-2),
                                 seed=5, stencil_width=3)
        cfg = node.vbe_train_config(5, "learned-linear", batch_size=8, seed=0)
        result = node.train(model, ds, cfg)
        path = tmp_path / "state.snop"
        node.save_opt_state(path, result.adam)
        back = node.load_opt_state(path, model)
        assert back.t == result.adam.t
        assert all(np.array_equal(a, b) for a, b in zip(back.m_w, result.adam.m_w))
        assert np.array_equal(back.v_t, result.adam.v_t)
