"""RHS variants, RK4 discrete adjoint, and the training loop."""

import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from stabnode import diffcore as dc
from stabnode import neural_ode as node
from stabnode import spectral as sp
from test_rom import formula_rk4
from test_spectral import formula_tendency as burgers_formula


def zero_mlp(d, hidden=8):
    sizes = [d, hidden, d]
    return dc.MlpParams(sizes, ["sigmoid", "linear"],
                        [np.zeros((sizes[i], sizes[i + 1])) for i in range(2)],
                        [np.zeros(sizes[i + 1]) for i in range(2)])


def dense_from_symbol(symbol, d):
    """Dense circulant of a one-sided symbol, one column per unit impulse."""
    return np.fft.irfft(symbol[:, None] * np.fft.rfft(np.eye(d), axis=0), n=d, axis=0)


def true_rhs_formula(u, L, system="kse"):
    """The true RHS at grid states u as array formulas: the symbol's image plus
    the Burgers formula of the coefficients rfft(u) / d, back on the grid."""
    d = u.shape[-1]
    symbol = sp.linear_symbol(system, d, L)
    return (np.fft.irfft(symbol * np.fft.rfft(u), n=d)
            + np.fft.irfft(burgers_formula(np.fft.rfft(u) / d, d, L) * d, n=d))


def random_model(variant, d, seed, acts=("sigmoid", "linear"), hidden=12,
                 system="vbe", L=1.0):
    sizes = [d, hidden, d]
    return node.build_model(variant, sizes, list(acts), ("normal", 0.0, 0.04),
                            seed, system=system, domain_length=L,
                            stencil_width=3, stencil_init=("uniform", -0.3, 0.3))


class TestRhsEval:
    def test_fixed_linear_with_zero_net_is_pure_matrix(self):
        d = 8
        symbol = sp.linear_symbol("vbe", d, 1.0, viscosity=1e-2)
        model = node.RhsModel(zero_mlp(d), node.FixedSymbol(symbol))
        u = np.arange(d, dtype=float)
        mat = dense_from_symbol(symbol, d)
        assert np.max(np.abs(model.eval(u) - mat @ u)) < 1e-14

    def test_zero_stencil_equals_bare_network(self):
        d = 8
        rng = np.random.default_rng(0)
        mlp = dc.init_mlp([d, 10, d], ["relu", "linear"], ("normal", 0, 0.04), 1)
        learned = node.RhsModel(mlp, dc.ConvStencil(np.zeros(3)))
        bare = node.RhsModel(mlp)
        u = rng.standard_normal(d)
        assert np.array_equal(learned.eval(u), bare.eval(u))

    @pytest.mark.parametrize("variant", ["fixed-linear", "learned-linear"])
    def test_branch_additivity(self, variant):
        d = 16
        model = random_model(variant, d, seed=3)
        u = np.random.default_rng(5).standard_normal(d)
        total = model.eval(u)
        nonlinear = np.fft.irfft(model.nonlinear(np.fft.rfft(u) / d) * d, n=d)
        split = sp.apply_symbol(model.linear_symbol(), u) + nonlinear
        assert np.max(np.abs(total - split)) < 1e-14

    def test_stencil_as_wide_as_grid_rejected(self):
        stencil = dc.ConvStencil(np.zeros(5))
        for d in (5, 4):
            with pytest.raises(ValueError, match="smaller than the grid"):
                node.RhsModel(zero_mlp(d), stencil)
        node.RhsModel(zero_mlp(6), stencil)

    def test_variant_reads_the_operator(self):
        d = 8
        operators = {"nonlinear": None,
                     "fixed-linear": node.FixedSymbol(sp.linear_symbol("vbe", d, 1.0)),
                     "learned-linear": dc.ConvStencil(np.zeros(3))}
        for variant, linear in operators.items():
            assert node.RhsModel(zero_mlp(d), linear).variant == variant
            assert random_model(variant, d, seed=0).variant == variant


class TestIntegrate:
    def test_zero_rhs_identity(self):
        d = 8
        model = node.RhsModel(zero_mlp(d))
        u0 = np.arange(d, dtype=float)
        out = node.integrate(model, u0, 1.0, 10)
        assert np.array_equal(out, u0)

    def test_scalar_rk4_amplification(self):
        # du/dt = -u through a 1-tap stencil; one step h = 0.1
        mlp = zero_mlp(2)
        model = node.RhsModel(mlp, dc.ConvStencil(np.array([-1.0])))
        out = node.integrate(model, np.array([1.0, 1.0]), 0.1, 1)
        assert out[0] == pytest.approx(0.9048375, abs=1e-12)

    def test_matches_matrix_exponential(self):
        d = 8
        symbol = sp.linear_symbol("vbe", d, 1.0, viscosity=5e-3)
        model = node.RhsModel(zero_mlp(d), node.FixedSymbol(symbol))
        mat = dense_from_symbol(symbol, d)
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
        # a one-tap stencil of 23 grows every row about 3e9-fold over the span:
        # the row at 1e300 overflows and comes back non-finite, without a raise
        # or a warning, and the others keep the bits they have beside a benign
        # row in its place
        model = node.RhsModel(random_model("nonlinear", 8, seed=2).term,
                              dc.ConvStencil(np.array([23.0])))
        u0 = 0.3 * np.random.default_rng(3).standard_normal((4, 8))
        blown = u0.copy()
        blown[2] = 1e300
        out = node.integrate(model, blown, 1.0, 8)
        benign = node.integrate(model, u0, 1.0, 8)
        assert not np.all(np.isfinite(out[2]))
        assert np.all(np.isfinite(benign))
        assert np.array_equal(out[[0, 1, 3]], benign[[0, 1, 3]])


class TestLossGradient:
    def test_exact_prediction_gives_zero_gradient(self):
        d = 6
        model = random_model("learned-linear", d, seed=7)
        u0 = np.random.default_rng(8).standard_normal((3, d))
        pred = node._rk4_forward(model.eval, u0, 0.05 / 5, 5)
        loss, grads = node.loss_gradient(model, u0, pred, 0.05, 5)
        assert loss == 0.0
        assert len(grads) == len(model.parameters())
        assert all(np.all(g == 0) for g in grads)

    def test_scalar_parameter_hand_derivative(self):
        # du/dt = theta*u, one RK4 step: d(pred)/d(theta) = h*R'(theta*h)*u0
        theta, h = 0.7, 0.25
        mlp = zero_mlp(2)
        model = node.RhsModel(mlp, dc.ConvStencil(np.array([theta])))
        u0 = np.array([[1.0, 2.0]])
        target = np.array([[1.5, 2.1]])
        loss, grads = node.loss_gradient(model, u0, target, h, 1)
        z = theta * h
        amp = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        damp = h * (1 + z + z**2 / 2 + z**3 / 6)
        residual = amp * u0 - target
        expected = np.mean(np.sign(residual) * damp * u0)
        assert grads[-1][0] == pytest.approx(expected, rel=1e-12)

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
            direction = [drng.standard_normal(p.shape) for p in model.parameters()]
            analytic = sum(np.sum(g * v) for g, v in zip(grads, direction))

            def perturbed(sign):
                moved = [p + sign * step * v
                         for p, v in zip(model.parameters(), direction)]
                n = model.term.n_layers
                mlp = dc.MlpParams(list(model.term.layer_sizes),
                                   list(model.term.activations), moved[:n],
                                   moved[n:2 * n])
                linear = model.linear
                if linear is not None and linear.params():
                    linear = dc.ConvStencil(moved[-1], linear.symmetric)
                shifted = node.RhsModel(mlp, linear)
                pred = node._rk4_forward(shifted.eval, u0, tau / steps, steps)
                return np.mean(np.abs(pred - u1))

            fd = (perturbed(+1) - perturbed(-1)) / (2 * step)
            assert abs(analytic - fd) < 1e-5 * max(abs(fd), 1e-3), (variant, trial)


def allocating_loss_gradient(model, u_start, u_end, tau, steps):
    """The one-interval L1 loss and discrete-adjoint gradient with a fresh
    array for every intermediate and the network run in full on every VJP,
    the oracle for the bits of the workspace-backed loss_gradient."""
    mlp, d = model.term, model.width
    symbol = None if model.linear is None else model.linear.symbol(d)

    def forward(u):
        acts = [u]
        for w, b, act in zip(mlp.weights, mlp.biases, mlp.activations):
            z = acts[-1] @ w + b
            if act == "relu":
                z = np.maximum(z, 0.0)
            elif act == "sigmoid":
                e = np.exp(-np.abs(z))
                z = np.where(z >= 0.0, 1.0, e) / (1.0 + e)
            acts.append(z)
        return acts

    def rhs(u):
        net = forward(u)[-1]
        return net if symbol is None else np.fft.irfft(symbol * np.fft.rfft(u), n=d) + net

    def vjp(x, cotangent, grads):
        acts = forward(x)
        g = cotangent
        grad_w, grad_b = [None] * mlp.n_layers, [None] * mlp.n_layers
        for i in range(mlp.n_layers - 1, -1, -1):
            act, out = mlp.activations[i], acts[i + 1]
            if act == "relu":
                g = g * (out > 0.0).astype(np.float64)
            elif act == "sigmoid":
                g = g * (out * (1.0 - out))
            grad_w[i] = acts[i].T @ g
            grad_b[i] = g.sum(axis=0)
            g = g @ mlp.weights[i].T
        parts = grad_w + grad_b
        if symbol is not None:
            g_hat = np.fft.rfft(cotangent)
            g = g + np.fft.irfft(np.conj(symbol) * g_hat, n=d)
            if model.linear.params():
                cross = (np.conj(g_hat) * np.fft.rfft(x)).sum(axis=0)
                parts = parts + model.linear.symbol_vjp(cross, d)
        for acc, part in zip(grads, parts):
            acc += part
        return g

    h = tau / steps
    u, stages = u_start, []
    for _ in range(steps):
        x1 = u
        k1 = rhs(x1)
        x2 = x1 + 0.5 * h * k1
        k2 = rhs(x2)
        x3 = x1 + 0.5 * h * k2
        k3 = rhs(x3)
        x4 = x1 + h * k3
        k4 = rhs(x4)
        u = x1 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        stages.append((x1, x2, x3, x4))
    residual = u - u_end
    loss = float(np.mean(np.abs(residual)))
    w = np.sign(residual) / residual.size
    grads = [np.zeros_like(p) for p in model.parameters()]
    for x1, x2, x3, x4 in reversed(stages):
        gx4 = vjp(x4, (h / 6.0) * w, grads)
        gx3 = vjp(x3, (h / 3.0) * w + h * gx4, grads)
        gx2 = vjp(x2, (h / 3.0) * w + 0.5 * h * gx3, grads)
        gx1 = vjp(x1, (h / 6.0) * w + 0.5 * h * gx2, grads)
        w = w + gx1 + gx2 + gx3 + gx4
    return loss, grads


def deep_model(variant, activation, d=16, seed=21):
    sizes = [d, 12, 10, d]
    return node.build_model(variant, sizes, [activation] * 2 + ["linear"],
                            ("normal", 0.0, 0.09), seed, system="vbe",
                            stencil_width=3, stencil_init=("uniform", -0.3, 0.3))


def smooth_batch(seed, n, d):
    return np.cumsum(np.random.default_rng(seed).standard_normal((n, d)), axis=1) / d


def same_bits(result, expected):
    (loss, grads), (want_loss, want_grads) = result, expected
    return (loss == want_loss and len(grads) == len(want_grads)
            and all(np.array_equal(g, w) for g, w in zip(grads, want_grads)))


class TestAdjointWorkspace:
    """loss_gradient through a reused workspace keeps the bits of a fresh-array
    adjoint, and its steady state allocates nothing that grows with the tape."""

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("variant", ["nonlinear", "fixed-linear", "learned-linear"])
    def test_bits_of_the_allocating_adjoint(self, variant, activation):
        model = deep_model(variant, activation)
        u0, u1 = smooth_batch(1, 6, 16), smooth_batch(2, 6, 16)
        expected = allocating_loss_gradient(model, u0, u1, 0.1, 3)
        assert same_bits(node.loss_gradient(model, u0, u1, 0.1, 3), expected)
        workspace = node.AdjointWorkspace(model, 6, 3)
        assert same_bits(node.loss_gradient(model, u0, u1, 0.1, 3, workspace), expected)

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_successive_batches_share_one_workspace(self, activation):
        model = deep_model("learned-linear", activation)
        workspace = node.AdjointWorkspace(model, 5, 4)
        for seed in (3, 5, 3):
            u0, u1 = smooth_batch(seed, 5, 16), smooth_batch(seed + 1, 5, 16)
            expected = allocating_loss_gradient(model, u0, u1, 0.2, 4)
            assert same_bits(node.loss_gradient(model, u0, u1, 0.2, 4, workspace),
                             expected), seed

    def test_call_after_divergence(self):
        model = deep_model("learned-linear", "relu")
        workspace = node.AdjointWorkspace(model, 4, 2)
        u0, u1 = smooth_batch(7, 4, 16), smooth_batch(8, 4, 16)
        with pytest.raises(node.DivergenceError) as info:
            node.loss_gradient(model, 1e308 * (1.0 + u0 * u0), u1, 0.1, 2, workspace)
        assert info.value.time == 0.1
        assert same_bits(node.loss_gradient(model, u0, u1, 0.1, 2, workspace),
                         allocating_loss_gradient(model, u0, u1, 0.1, 2))

    def test_divergence_raises_without_allocating(self):
        model = deep_model("learned-linear", "sigmoid", d=64)
        n = 32
        u0, u1 = smooth_batch(1, n, 64), smooth_batch(2, n, 64)
        blown = 1e308 * (1.0 + u0 * u0)
        workspace = node.AdjointWorkspace(model, n, 4)
        node.loss_gradient(model, u0, u1, 0.1, 4, workspace)

        def peak_of(call):
            tracemalloc.start()
            try:
                call()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def diverging():
            with pytest.raises(node.DivergenceError):
                node.loss_gradient(model, blown, u1, 0.1, 4, workspace)

        steady = peak_of(lambda: node.loss_gradient(model, u0, u1, 0.1, 4, workspace))
        # a quarter of one (n, d) array covers the exception and its message
        assert peak_of(diverging) <= steady + u0.nbytes // 4

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("variant", ["nonlinear", "fixed-linear", "learned-linear"])
    def test_inputs_gathered_into_the_workspace(self, variant, activation):
        # train gathers a batch into rk4.start and w: the tape then copies the
        # start onto itself and the residual overwrites the target
        model = deep_model(variant, activation)
        u0, u1 = smooth_batch(1, 6, 16), smooth_batch(2, 6, 16)
        loss, grads = node.loss_gradient(model, u0, u1, 0.1, 3)
        workspace = node.AdjointWorkspace(model, 6, 3)
        np.copyto(workspace.rk4.start, u0)
        np.copyto(workspace.w, u1)
        got_loss, got_grads = node.loss_gradient(model, workspace.rk4.start, workspace.w,
                                                 0.1, 3, workspace)
        words = [np.float64(loss).view(np.uint64)] + [g.view(np.uint64) for g in grads]
        got = [np.float64(got_loss).view(np.uint64)] + [g.view(np.uint64) for g in got_grads]
        assert len(got) == len(words)
        assert all(np.array_equal(a, b) for a, b in zip(got, words))

    @pytest.mark.parametrize("slots", [1, 3])
    def test_returned_state_fed_back_keeps_the_bits(self, slots):
        # the returned state is the tape's k4 slot, which the next call reads as
        # its start, as the ROM's stepper does every step
        rhs = deep_model("learned-linear", "sigmoid").rhs()[0]
        tape, other = node.Rk4Buffers((5, 16), slots), node.Rk4Buffers((5, 16), slots)
        state = smooth_batch(4, 5, 16)
        for call in range(4):
            want = node._rk4_forward(rhs, state.copy(), 0.05, slots, other).copy()
            state = node._rk4_forward(rhs, state, 0.05, slots, tape)
            assert np.shares_memory(state, tape.k[3])
            assert np.array_equal(state.view(np.uint64), want.view(np.uint64)), call

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    def test_workspace_and_optimizer_hold_only_their_arrays(self, activation):
        # the bytes of every array numpy allocates for them (tracemalloc's numpy
        # domain), against the arrays the passes read back, one by one
        d, hidden, rows, steps = 64, 32, 16, 3
        model = node.build_model("learned-linear", [d, hidden, hidden, hidden, d],
                                 [activation] * 3 + ["linear"], ("normal", 0.0, 0.1), 0,
                                 stencil_width=3)
        n_params = sum(p.size for p in model.parameters())
        f8, c16 = 8, 16
        budget = {
            "rk4.stages: x1..x4 of every substep": steps * 4 * rows * d * f8,
            "rk4.k: k1..k4, the final state in k4": 4 * rows * d * f8,
            "mlp.acts: every layer's output": rows * (3 * hidden + d) * f8,
            "mlp.cot: the hidden layers' cotangents": rows * 3 * hidden * f8,
            "mlp.mask: bool, per hidden layer": rows * 3 * hidden,
            "mlp.scratch: sigmoid layers only":
                rows * 3 * hidden * f8 if activation == "sigmoid" else 0,
            "mlp.parts: the largest layer's weight and bias": (d * hidden + d) * f8,
            "spectra": 2 * rows * (d // 2 + 1) * c16,
            "w and cot": 2 * rows * d * f8,
            "grads": n_params * f8,
            "adam m and v": 2 * n_params * f8,
            "adam scratch: two rows of the largest tensor": 2 * d * hidden * f8,
        }
        # numpy traces array data in its own tracemalloc domain, NPY_TRACE_DOMAIN
        numpy_domain = tracemalloc.DomainFilter(True, 389047)
        tracemalloc.start()
        try:
            held = (node.AdjointWorkspace(model, rows, steps), node.AdamState(model))
            traces = tracemalloc.take_snapshot().filter_traces([numpy_domain]).traces
        finally:
            tracemalloc.stop()
        allocated = sum(t.size for t in traces)
        assert allocated <= sum(budget.values()), (allocated, budget)
        del held

    def test_tape_of_another_length_rejected(self):
        # a tape's views are built for its slots, so it runs exactly that many steps
        tape = node.Rk4Buffers((2, 4), 3)
        for nsteps in (2, 4):
            with pytest.raises(ValueError, match="slots"):
                node._rk4_forward(lambda x, out: np.copyto(out, x) or out, np.ones((2, 4)),
                                  0.1, nsteps, tape)

    def test_workspace_of_another_shape_rejected(self):
        model = deep_model("fixed-linear", "relu")
        u0 = smooth_batch(1, 4, 16)
        for rows, steps in ((5, 2), (4, 3)):
            with pytest.raises(ValueError, match="workspace"):
                node.loss_gradient(model, u0, u0, 0.1, 2,
                                   node.AdjointWorkspace(model, rows, steps))

    def test_steady_state_peak_does_not_grow_with_the_tape(self):
        model = deep_model("learned-linear", "sigmoid", d=64)
        n = 32
        u0, u1 = smooth_batch(1, n, 64), smooth_batch(2, n, 64)
        peaks = {}
        for steps in (2, 8):
            workspace = node.AdjointWorkspace(model, n, steps)
            node.loss_gradient(model, u0, u1, 0.1, steps, workspace)
            tracemalloc.start()
            try:
                node.loss_gradient(model, u0, u1, 0.1, steps, workspace)
                peaks[steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        # the fresh-array adjoint grows by about four (n, d) arrays per substep;
        # the slack, a quarter of one such array, covers interpreter objects
        assert peaks[8] <= peaks[2] + u0.nbytes // 4, peaks


@pytest.fixture(params=["threaded", "inline"])
def cpus(request, monkeypatch):
    """The workspace's worker on a thread of its own, or inline, as on a process
    limited to one CPU."""
    if request.param == "inline":
        monkeypatch.setattr(dc.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(dc.os, "cpu_count", lambda: 1)
    elif dc._usable_cpus() < 2:
        pytest.skip("the process may run on one CPU only")
    return request.param


class TestAdjointWorker:
    """The workspace's worker overlaps the linear branch and the weight
    gradients with the network, keeping every bit, and stops with training."""

    @pytest.mark.parametrize("activation", ["relu", "sigmoid"])
    @pytest.mark.parametrize("variant", ["nonlinear", "fixed-linear", "learned-linear"])
    @pytest.mark.parametrize("sizes", [[16, 12, 10, 16], [512, 200, 200, 200, 512]],
                             ids=["d16", "d512"])
    def test_bits_of_the_allocating_adjoint(self, cpus, sizes, variant, activation):
        model = node.build_model(variant, sizes, [activation] * (len(sizes) - 2) + ["linear"],
                                 ("normal", 0.0, 0.09), 21, system="vbe", stencil_width=3,
                                 stencil_init=("uniform", -0.3, 0.3))
        d = sizes[0]
        u0, u1 = smooth_batch(1, 13, d), smooth_batch(2, 13, d)
        expected = allocating_loss_gradient(model, u0, u1, 0.01, 2)
        with node.AdjointWorkspace(model, 13, 2) as workspace:
            assert workspace.worker.threaded == (cpus == "threaded")
            for call in range(2):
                assert same_bits(node.loss_gradient(model, u0, u1, 0.01, 2, workspace),
                                 expected), call

    @pytest.mark.parametrize("diverges", [False, True])
    def test_train_stops_its_worker(self, cpus, diverges):
        model = deep_model("learned-linear", "relu")
        ds = tiny_vbe_dataset(d=16, n_snap=10)
        if diverges:  # the transforms of the first epoch overflow
            ds.values[...] = 1e308
        during = []
        before = threading.active_count()
        config = node.TrainConfig(2, (1e-3,), (1e-1,), batch_size=4, rollout_steps=2)

        def run():
            return node.train(model, ds, config,
                              on_epoch=lambda *_: during.append(threading.active_count()))
        if diverges:
            with pytest.raises(node.DivergenceError):
                run()
        else:
            assert len(run().loss_history) == 2
            assert during == [before + (cpus == "threaded")] * 2
        assert threading.active_count() == before

    @pytest.mark.parametrize("variant", ["nonlinear", "fixed-linear", "learned-linear"])
    def test_overflowing_forward_raises_divergence_without_a_warning(self, cpus, variant):
        # the forward stage's linear branch runs on the worker under the stage's
        # error state, which ignores overflow
        model = deep_model(variant, "sigmoid")
        u0, u1 = smooth_batch(7, 4, 16), smooth_batch(8, 4, 16)
        with node.AdjointWorkspace(model, 4, 2) as workspace:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(node.DivergenceError):
                    node.loss_gradient(model, 1e308 * (1.0 + u0 * u0), u1, 0.1, 2, workspace)
        assert caught == []


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
        assert node.LEARNING_RATES["vbe", "fixed-linear"] == ((1e-3, 1e-4, 1e-5), ())
        assert node.LEARNING_RATES["vbe", "learned-linear"] == ((1e-3, 1e-4),
                                                                (1e0, 1e-1, 1e-2))

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
        cfg = node.TrainConfig(200, *node.LEARNING_RATES["vbe", "learned-linear"],
                               batch_size=64, seed=1)
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
            cfg = node.TrainConfig(30, *node.LEARNING_RATES["vbe", "learned-linear"],
                                   batch_size=16, seed=2)
            node.train(model, ds, cfg)
            models.append(model)
        a, b = models
        assert all(np.array_equal(x, y) for x, y in zip(a.term.weights, b.term.weights))
        assert np.array_equal(a.linear.taps, b.linear.taps)

    def test_resume_matches_uninterrupted(self):
        ds = tiny_vbe_dataset(n_snap=20)

        def fresh():
            return node.build_model("learned-linear", [32, 16, 32],
                                    ["sigmoid", "linear"], ("normal", 0.0, 1e-2),
                                    seed=5, stencil_width=3)

        cfg = node.TrainConfig(40, *node.LEARNING_RATES["vbe", "learned-linear"],
                               batch_size=16, seed=3)
        straight = fresh()
        node.train(straight, ds, cfg)

        # interrupt at epoch 20, keep the full 40-epoch schedule, resume
        resumed = fresh()
        first = node.train(resumed, ds, cfg, stop_epoch=20)
        node.train(resumed, ds, cfg, start_epoch=20, adam=first.adam)
        assert all(np.array_equal(x, y) for x, y in
                   zip(straight.term.weights, resumed.term.weights))
        assert np.array_equal(straight.linear.taps, resumed.linear.taps)

    def test_adam_update_keeps_the_bits_of_the_array_formulas(self):
        model = node.build_model("learned-linear", [16, 24, 16], ["relu", "linear"],
                                 ("normal", 0.0, 1e-2), seed=0, stencil_width=3)
        params = [p.copy() for p in model.parameters()]
        m = [np.zeros_like(p) for p in params]
        v = [np.zeros_like(p) for p in params]
        adam = node.AdamState(model)
        rng = np.random.default_rng(4)
        for t in range(1, 4):
            grads = [rng.standard_normal(p.shape) for p in params]
            adam.update(model, grads, 1e-3, 1e-1)
            for i, (p, g) in enumerate(zip(params, grads)):
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * g
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * g * g
                mhat, vhat = m[i] / (1.0 - 0.9**t), v[i] / (1.0 - 0.999**t)
                p -= (1e-3 if i < 4 else 1e-1) * mhat / (np.sqrt(vhat) + 1e-8)
            assert all(np.array_equal(a, b) for a, b in zip(model.parameters(), params))
            assert all(np.array_equal(a, b) for a, b in zip(adam.m + adam.v, m + v))

    def test_warm_adam_update_allocates_no_parameter_array(self):
        model = node.build_model("learned-linear", [512, 512, 512], ["relu", "linear"],
                                 ("normal", 0.0, 1e-2), seed=0, stencil_width=3)
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(p.shape) for p in model.parameters()]
        adam = node.AdamState(model)
        adam.update(model, grads, 1e-3, 1e-1)
        tracemalloc.start()
        try:
            adam.update(model, grads, 1e-3, 1e-1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the smallest network tensor, a 512-wide bias, is 4 KB
        assert peak < min(p.nbytes for p in model.term.weights + model.term.biases), peak

    def test_an_epoch_holds_no_copy_of_the_split(self):
        # batches are gathered from the split's own rows into the workspace
        model = deep_model("learned-linear", "relu", d=64)
        config = node.TrainConfig(1, (1e-3,), (1e-1,), batch_size=8, rollout_steps=1)
        tracemalloc.start()
        try:
            node.AdjointWorkspace(model, 8, 1)
            workspace_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        values = 0.1 * np.random.default_rng(0).standard_normal((80, 60, 64))
        assert values.nbytes >= 20 * workspace_bytes
        ds = sp.SnapshotDataset(values, 0.1, 1.0, "vbe")
        tracemalloc.start()
        try:
            loss = node.train(model, ds, config).loss_history[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(loss)
        assert peak < values.nbytes, (peak, values.nbytes)

    def test_width_mismatch_rejected(self):
        ds = tiny_vbe_dataset(n_snap=5)
        model = random_model("nonlinear", 16, seed=0)
        with pytest.raises(ValueError):
            node.train(model, ds, node.TrainConfig(5, (1e-3,)))


class TestRollout:
    def test_single_interval(self):
        d = 8
        model = node.RhsModel(zero_mlp(d))
        times, states = node.rollout(model, np.ones(d), 0.5, 0.5)
        assert times.shape == (2,)
        assert states.shape == (2, d)

    def test_zero_rhs_constant_trajectory(self):
        d = 8
        model = node.RhsModel(zero_mlp(d))
        u0 = np.arange(d, dtype=float)
        _, states = node.rollout(model, u0, 2.0, 0.5)
        assert np.array_equal(states, np.tile(u0, (5, 1)))

    def test_divergence_reports_last_finite(self):
        # du/dt = 40 u overflows after some tens of unit intervals
        mlp = zero_mlp(2)
        model = node.RhsModel(mlp, dc.ConvStencil(np.array([40.0])))
        _, states = node.rollout(model, np.ones(2), 50.0, 1.0, steps_per_interval=2)
        finite = np.all(np.isfinite(states), axis=1)
        last = int(np.argmin(finite)) - 1
        assert 0 < last < 50
        assert np.all(finite[:last + 1])
        assert np.all(states[last + 1:] == np.inf)

    def test_batch_row_divergence_leaves_others(self):
        mlp = zero_mlp(2)
        model = node.RhsModel(mlp, dc.ConvStencil(np.array([40.0])))
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
        model = node.RhsModel(zero_mlp(4))
        with pytest.raises(ValueError):
            node.rollout(model, np.ones(4), 1.0, 0.3)


class TestTruePhysics:
    def test_vbe_matrix_symbol(self):
        d, L, nu = 32, 1.0, 8e-4
        mat = dense_from_symbol(sp.linear_symbol("vbe", d, L, nu), d)
        x = np.arange(d) * L / d
        u = np.sin(2 * np.pi * 3 * x / L)
        q3 = 2 * np.pi * 3 / L
        assert np.allclose(mat @ u, -nu * q3**2 * u, atol=1e-10)
        assert np.allclose(mat, mat.T, rtol=0.0, atol=1e-15)
        rhs = node.TrueRhs("vbe", d, L, nu)
        assert np.allclose(rhs.linear_apply(u), mat @ u, atol=1e-12)

    def test_kse_matrix_symbol(self):
        d, L = 64, 22.0
        mat = dense_from_symbol(sp.linear_symbol("kse", d, L), d)
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


    def test_nonlinear_takes_coefficients(self):
        # the ROM's N is the advection of coefficients, with no grid round trip;
        # eval composes it with the transforms as a grid N did
        d, L = 32, 22.0
        rhs = node.TrueRhs("kse", d, L)
        u = np.random.default_rng(3).standard_normal((4, d))
        c = np.fft.rfft(u) / d
        assert np.array_equal(rhs.nonlinear(c), burgers_formula(c, d, L))
        assert np.array_equal(rhs.eval(u), true_rhs_formula(u, L))

    @pytest.mark.parametrize("system,L,steps", [("kse", 22.0, 40), ("vbe", 1.0, 20)])
    def test_rollout_keeps_the_bits_of_the_formulas(self, system, L, steps):
        # the true RHS's grid evaluation, which rom --reference self rolls out,
        # under RK4 as array formulas, each operation into a fresh array
        d, save = 32, 0.25
        rhs = node.TrueRhs(system, d, L)
        assert steps >= node.min_stable_substeps(rhs.linear_symbol(), save)
        x = np.arange(d) * L / d
        u0 = np.stack([np.cos(2 * np.pi * x / L) * (1 + np.sin(2 * np.pi * x / L)),
                       0.5 * np.sin(4 * np.pi * x / L)])
        times, got = node.rollout(rhs, u0, 1.0, save, steps)
        h = save / steps
        u, expected = u0, [u0]
        for _ in range(4):
            for _ in range(steps):
                u = formula_rk4(lambda v: true_rhs_formula(v, L, system), u, h)
            expected.append(u)
        expected = np.stack(expected, axis=1)
        assert np.all(np.isfinite(expected))
        assert np.array_equal(times, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert got.shape == expected.shape
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestStableSubsteps:
    @pytest.mark.parametrize("system,d,length,tau", [("kse", 32, 22.0, 0.25),
                                                    ("vbe", 512, 1.0, 0.05)])
    def test_fewest_substeps_keeping_damped_modes_damped(self, system, d, length, tau):
        symbol = sp.linear_symbol(system, d, length)
        damped = symbol[symbol < 0]

        def worst(n):
            z = tau / n * damped
            return np.max(np.abs(1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24))

        n = node.min_stable_substeps(symbol, tau)
        assert n > 5
        assert worst(n) <= 1.0 < worst(n - 1)

    def test_no_damped_mode_needs_one(self):
        assert node.min_stable_substeps(np.array([0.0, 0.5, 2.0]), 10.0) == 1


class TestPersistence:
    def test_learned_linear_round_trip(self, tmp_path):
        model = random_model("learned-linear", 8, seed=1)
        path = tmp_path / "m.snck"
        node.save_model(path, model, sidecar={"variant": model.variant})
        back = node.load_model(path)
        assert back.variant == "learned-linear"
        assert all(np.array_equal(a, b) for a, b in
                   zip(model.term.weights, back.term.weights))
        assert np.array_equal(model.linear.taps, back.linear.taps)

    def test_fixed_linear_rebuilds_symbol_from_sidecar(self, tmp_path):
        model = random_model("fixed-linear", 8, seed=2)
        path = tmp_path / "m.snck"
        node.save_model(path, model, sidecar={
            "system": "vbe", "domain_length": 1.0, "viscosity": 8e-4})
        back = node.load_model(path)
        assert np.array_equal(back.linear.values, model.linear.values)

    def test_opt_state_round_trip(self, tmp_path):
        ds = tiny_vbe_dataset(n_snap=5)
        model = node.build_model("learned-linear", [32, 8, 32],
                                 ["sigmoid", "linear"], ("normal", 0.0, 1e-2),
                                 seed=5, stencil_width=3)
        cfg = node.TrainConfig(5, *node.LEARNING_RATES["vbe", "learned-linear"],
                               batch_size=8, seed=0)
        result = node.train(model, ds, cfg)
        path = tmp_path / "state.snop"
        node.save_opt_state(path, result.adam)
        back = node.load_opt_state(path, model)
        assert back.t == result.adam.t
        assert len(back.m) == len(back.v) == len(model.parameters())
        assert all(np.array_equal(a, b) for a, b in zip(back.m, result.adam.m))
        assert all(np.array_equal(a, b) for a, b in zip(back.v, result.adam.v))

    @pytest.mark.parametrize("variant", ["nonlinear", "learned-linear"])
    def test_opt_state_layout(self, tmp_path, variant):
        # SNOP: magic, u64 step count, then f8 moments m_w, v_w, m_b, v_b, m_t, v_t
        ds = tiny_vbe_dataset(n_snap=5)
        model = node.build_model(variant, [32, 8, 6, 32],
                                 ["sigmoid", "sigmoid", "linear"],
                                 ("normal", 0.0, 1e-2), seed=5, stencil_width=3)
        cfg = node.TrainConfig(3, *node.LEARNING_RATES["vbe", variant],
                               batch_size=8, seed=0)
        adam = node.train(model, ds, cfg).adam
        path = tmp_path / "state.snop"
        node.save_opt_state(path, adam)
        raw = path.read_bytes()
        assert raw[:4] == b"SNOP"
        assert int.from_bytes(raw[4:12], "little") == adam.t == 3
        payload = np.frombuffer(raw[12:], dtype="<f8")
        n = model.term.n_layers
        w, b = slice(0, n), slice(n, 2 * n)
        taps = [adam.m[-1], adam.v[-1]] if variant == "learned-linear" else []
        expected = adam.m[w] + adam.v[w] + adam.m[b] + adam.v[b] + taps
        assert payload.size == sum(t.size for t in expected)
        offset = 0
        for t in expected:
            assert np.array_equal(payload[offset:offset + t.size], t.ravel())
            offset += t.size
