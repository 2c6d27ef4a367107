"""VJP exactness for the hand-rolled MLP and circular-convolution kernels."""

import warnings

import numpy as np
import pytest

from stabnode import diffcore as dc


def random_mlp(layer_sizes, activations, seed, scale=0.6):
    rng = np.random.default_rng(seed)
    weights = [scale * rng.standard_normal((a, b))
               for a, b in zip(layer_sizes[:-1], layer_sizes[1:])]
    biases = [0.1 * rng.standard_normal(b) for b in layer_sizes[1:]]
    return dc.MlpParams(list(layer_sizes), list(activations), weights, biases)


def reference_mlp(params, u):
    # independent straightforward re-implementation (oracle)
    a = np.array(u, dtype=float)
    for w, b, act in zip(params.weights, params.biases, params.activations):
        z = a @ w + b
        if act == "relu":
            a = np.where(z > 0, z, 0.0)
        elif act == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = z
    return a


class TestMlpForward:
    def test_zero_params_zero_output(self):
        p = dc.MlpParams([4, 3, 4], ["relu", "linear"],
                         [np.zeros((4, 3)), np.zeros((3, 4))],
                         [np.zeros(3), np.zeros(4)])
        out, _ = dc.mlp_forward(p, np.arange(4.0))
        assert np.array_equal(out, np.zeros(4))

    def test_identity_layer(self):
        p = dc.MlpParams([5, 5], ["linear"], [np.eye(5)], [np.zeros(5)])
        u = np.arange(5.0)
        out, _ = dc.mlp_forward(p, u)
        assert np.array_equal(out, u)

    @pytest.mark.parametrize("acts", [("relu", "relu", "linear"),
                                      ("sigmoid", "sigmoid", "linear")])
    def test_matches_reference_implementation(self, acts):
        p = random_mlp([6, 9, 8, 6], list(acts), seed=3)
        rng = np.random.default_rng(10)
        u = rng.standard_normal(6)
        out, _ = dc.mlp_forward(p, u)
        assert np.max(np.abs(out - reference_mlp(p, u))) < 1e-12

    def test_batched_matches_rowwise(self):
        p = random_mlp([5, 7, 5], ["relu", "linear"], seed=1)
        rng = np.random.default_rng(2)
        batch = rng.standard_normal((4, 5))
        out, _ = dc.mlp_forward(p, batch)
        for i in range(4):
            row, _ = dc.mlp_forward(p, batch[i])
            # gemm vs gemv reduction orders differ in the last bits
            assert np.allclose(out[i], row, rtol=1e-13, atol=1e-13)

    def test_shape_mismatch_rejected(self):
        p = random_mlp([5, 5], ["linear"], seed=0)
        with pytest.raises(ValueError):
            dc.mlp_forward(p, np.zeros(6))

    def test_final_activation_must_be_linear(self):
        with pytest.raises(ValueError):
            dc.MlpParams([3, 3], ["relu"], [np.zeros((3, 3))], [np.zeros(3)])


class TestSigmoid:
    def test_saturated_values(self):
        out = dc._activate("sigmoid", np.array([-800.0, 0.0, 800.0]))
        assert out.tolist() == [0.0, 0.5, 1.0]

    def test_large_inputs_raise_no_warning(self):
        # pre-activations of +-800 and beyond, forward and backward
        p = dc.MlpParams([2, 2, 2], ["sigmoid", "linear"],
                         [np.array([[1.0, -1.0], [0.0, 0.0]]), np.eye(2)],
                         [np.zeros(2), np.zeros(2)])
        u = np.array([[800.0, 1.0], [-900.0, 2.0], [1e4, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, tape = dc.mlp_forward(p, u)
            _, gin = dc.mlp_backward(p, tape, np.ones_like(out))
        assert np.all(np.isfinite(out)) and np.all(np.isfinite(gin))
        assert out[1].tolist() == [0.0, 1.0]


class TestMlpBackward:
    def test_zero_cotangent_zero_grads(self):
        p = random_mlp([4, 6, 4], ["sigmoid", "linear"], seed=5)
        out, tape = dc.mlp_forward(p, np.ones(4))
        grads, gin = dc.mlp_backward(p, tape, np.zeros_like(out))
        assert all(np.all(gw == 0) for gw in grads.weights)
        assert all(np.all(gb == 0) for gb in grads.biases)
        assert np.all(gin == 0)

    def test_scalar_linear_product_rule(self):
        # y = w*u: cotangent 1 gives param grad u and input cotangent w
        w, u = 1.7, -0.4
        p = dc.MlpParams([1, 1], ["linear"], [np.array([[w]])], [np.zeros(1)])
        out, tape = dc.mlp_forward(p, np.array([u]))
        grads, gin = dc.mlp_backward(p, tape, np.array([1.0]))
        assert grads.weights[0][0, 0] == pytest.approx(u)
        assert gin[0] == pytest.approx(w)

    def test_tape_single_use(self):
        p = random_mlp([3, 3], ["linear"], seed=0)
        out, tape = dc.mlp_forward(p, np.ones(3))
        dc.mlp_backward(p, tape, out)
        with pytest.raises(RuntimeError):
            dc.mlp_backward(p, tape, out)

    def test_tape_bound_to_params(self):
        p = random_mlp([3, 3], ["linear"], seed=0)
        q = random_mlp([3, 3], ["linear"], seed=1)
        out, tape = dc.mlp_forward(p, np.ones(3))
        with pytest.raises(RuntimeError):
            dc.mlp_backward(q, tape, out)

    @pytest.mark.parametrize("acts", [("relu", "linear"), ("sigmoid", "linear"),
                                      ("relu", "sigmoid", "linear")])
    def test_finite_difference_sweep(self, acts):
        # >= 100 random configurations across the parametrized cases
        sizes = [5] + [7] * (len(acts) - 1) + [5]
        step = 1e-5
        checked = 0
        config = 0
        while checked < 34:
            config += 1
            p = random_mlp(sizes, list(acts), seed=1000 + config)
            rng = np.random.default_rng(2000 + config)
            u = rng.standard_normal(5)
            if _near_relu_kink(p, u):
                continue
            cot = rng.standard_normal(5)
            out, tape = dc.mlp_forward(p, u)
            grads, gin = dc.mlp_backward(p, tape, cot)

            dirs_w = [rng.standard_normal(w.shape) for w in p.weights]
            dirs_b = [rng.standard_normal(b.shape) for b in p.biases]
            du = rng.standard_normal(5)
            analytic = (sum(np.sum(g * d) for g, d in zip(grads.weights, dirs_w))
                        + sum(np.sum(g * d) for g, d in zip(grads.biases, dirs_b))
                        + np.dot(gin, du))

            def shifted(sign):
                q = dc.MlpParams(list(p.layer_sizes), list(p.activations),
                                 [w + sign * step * dw for w, dw in zip(p.weights, dirs_w)],
                                 [b + sign * step * db for b, db in zip(p.biases, dirs_b)])
                val, _ = dc.mlp_forward(q, u + sign * step * du)
                return np.dot(cot, val)

            fd = (shifted(+1) - shifted(-1)) / (2 * step)
            assert abs(analytic - fd) < 1e-6 * max(1.0, abs(fd)), (acts, config)
            checked += 1


def _near_relu_kink(params, u, tol=1e-4):
    a = u
    for w, b, act in zip(params.weights, params.biases, params.activations):
        z = a @ w + b
        if act == "relu" and np.min(np.abs(z)) < tol:
            return True
        a = dc._activate(act, z)
    return False


class TestConv:
    def test_zero_sum_stencil_kills_constants(self):
        st = dc.ConvStencil(np.array([1.0, -2.0, 1.0]))
        out = dc.conv_apply(st, np.full(16, 4.2))
        assert np.max(np.abs(out)) < 1e-12

    def test_impulse_response(self):
        st = dc.ConvStencil(np.array([1.0, -2.0, 1.0]))
        u = np.zeros(8)
        j = 3
        u[j] = 1.0
        out = dc.conv_apply(st, u)
        expected = np.zeros(8)
        expected[j - 1], expected[j], expected[j + 1] = 1.0, -2.0, 1.0
        assert np.array_equal(out, expected)

    def test_wraparound(self):
        st = dc.ConvStencil(np.array([1.0, 0.0, 0.0]))  # out_j = u_{j-1}
        u = np.arange(6.0)
        assert np.array_equal(dc.conv_apply(st, u), np.roll(u, 1))

    def test_symbol_matches_dense_oracle(self):
        # five-tap stencil applied to a single Fourier mode
        taps = np.array([-72.0, 278.0, -413.0, 278.0, -72.0])
        st = dc.ConvStencil(taps)
        d, L = 64, 22.0
        x = np.arange(d) * L / d
        u = np.sin(2 * np.pi * x / L)
        dense = dc.circulant_from_taps(taps, d)
        assert np.max(np.abs(dc.conv_apply(st, u) - dense @ u)) < 1e-10
        delta = L / d
        q = 2 * np.pi / L
        symbol = -413.0 + 556.0 * np.cos(q * delta) - 144.0 * np.cos(2 * q * delta)
        assert np.max(np.abs(dc.conv_apply(st, u) - symbol * u)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_in_taps_and_input(self, seed):
        rng = np.random.default_rng(seed)
        d = 32
        u, w = rng.standard_normal(d), rng.standard_normal(d)
        a, b = rng.standard_normal(2)
        t1, t2 = rng.standard_normal(5), rng.standard_normal(5)
        st1, st2 = dc.ConvStencil(t1), dc.ConvStencil(t2)
        st_sum = dc.ConvStencil(a * t1 + b * t2)
        lhs = dc.conv_apply(st_sum, u)
        rhs = a * dc.conv_apply(st1, u) + b * dc.conv_apply(st2, u)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))
        lhs = dc.conv_apply(st1, a * u + b * w)
        rhs = a * dc.conv_apply(st1, u) + b * dc.conv_apply(st1, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_width_bound(self):
        st = dc.ConvStencil(np.ones(5))
        with pytest.raises(ValueError):
            dc.conv_apply(st, np.zeros(4))


class TestConvBackward:
    def test_zero_cotangent(self):
        st = dc.ConvStencil(np.array([0.5, 1.0, -0.5]), symmetric=True)
        u = np.arange(8.0)
        gt, gi = dc.conv_backward(st, u, np.zeros(8))
        assert np.all(gt == 0) and np.all(gi == 0)

    def test_identity_taps_pass_cotangent(self):
        st = dc.ConvStencil(np.array([0.0, 1.0, 0.0]))
        g = np.array([1.0, -2.0, 3.0, 0.5])
        _, gi = dc.conv_backward(st, np.zeros(4), g)
        assert np.array_equal(gi, g)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference(self, symmetric, seed):
        rng = np.random.default_rng(seed)
        d, w = 16, 5
        st = dc.ConvStencil(rng.standard_normal(w), symmetric)
        u = rng.standard_normal(d)
        cot = rng.standard_normal(d)
        gt, gi = dc.conv_backward(st, u, cot)
        dt, du = rng.standard_normal(w), rng.standard_normal(d)
        analytic = np.dot(gt, dt) + np.dot(gi, du)
        step = 1e-5

        def value(sign):
            sh = dc.ConvStencil(st.taps + sign * step * dt, symmetric)
            return np.dot(cot, dc.conv_apply(sh, u + sign * step * du))

        fd = (value(+1) - value(-1)) / (2 * step)
        assert abs(analytic - fd) < 1e-6 * max(1.0, abs(fd))


class TestStencilMatrix:
    def test_identity_taps_symmetrized(self):
        st = dc.ConvStencil(np.array([0.0, 1.0, 0.0]), symmetric=True)
        assert np.array_equal(dc.stencil_to_matrix(st, 5), 2.0 * np.eye(5))

    def test_small_circulant_rows(self):
        st = dc.ConvStencil(np.array([1.0, -2.0, 1.0]), symmetric=True)
        mat = dc.stencil_to_matrix(st, 4)
        assert np.array_equal(mat[0], [-4.0, 2.0, 0.0, 2.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matvec_matches_conv_apply(self, seed):
        rng = np.random.default_rng(seed)
        st = dc.ConvStencil(rng.standard_normal(5), symmetric=True)
        d = 24
        mat = dc.stencil_to_matrix(st, d)
        u = rng.standard_normal(d)
        assert np.max(np.abs(mat @ u - dc.conv_apply(st, u))) < 1e-14
        assert np.array_equal(mat, mat.T)

    def test_nonsymmetric_rejected(self):
        st = dc.ConvStencil(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(ValueError):
            dc.stencil_to_matrix(st, 8)


class TestInit:
    def test_normal_variance(self):
        p = dc.init_mlp([400, 400], ["linear"], ("normal", 0.0, 1e-2), seed=0)
        var = p.weights[0].var()
        assert abs(var - 1e-2) < 1e-3
        assert np.all(p.biases[0] == 0.0)

    def test_uniform_bounds(self):
        bound = np.sqrt(1.0 / 3.0)
        st = dc.init_stencil(5, False, ("uniform", -bound, bound), seed=1)
        assert np.all(st.taps >= -bound) and np.all(st.taps <= bound)

    def test_seed_reproducible(self):
        a = dc.init_mlp([8, 6, 8], ["relu", "linear"], ("normal", 0.0, 1e-2), seed=7)
        b = dc.init_mlp([8, 6, 8], ["relu", "linear"], ("normal", 0.0, 1e-2), seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))


class TestCheckpointIO:
    def test_round_trip(self, tmp_path):
        p = random_mlp([6, 5, 6], ["sigmoid", "linear"], seed=2)
        st = dc.ConvStencil(np.array([0.1, -0.2, 0.3, -0.2, 0.1]), symmetric=True)
        path = tmp_path / "model.snck"
        dc.write_checkpoint(path, 2, p, st, sidecar={"note": "test"})
        tag, p2, st2 = dc.read_checkpoint(path)
        assert tag == 2
        assert p2.layer_sizes == p.layer_sizes
        assert p2.activations == p.activations
        assert all(np.array_equal(a, b) for a, b in zip(p.weights, p2.weights))
        assert all(np.array_equal(a, b) for a, b in zip(p.biases, p2.biases))
        assert np.array_equal(st.taps, st2.taps) and st2.symmetric
        # write -> read -> write is byte-identical
        path2 = tmp_path / "model2.snck"
        dc.write_checkpoint(path2, tag, p2, st2)
        assert path.read_bytes() == path2.read_bytes()

    def test_no_stencil(self, tmp_path):
        p = random_mlp([4, 4], ["linear"], seed=3)
        path = tmp_path / "m.snck"
        dc.write_checkpoint(path, 0, p, None)
        tag, _, st = dc.read_checkpoint(path)
        assert tag == 0 and st is None
