"""VJP exactness for the hand-rolled MLP and circular-convolution kernels."""

import functools
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from stabnode import diffcore as dc
from stabnode import neural_ode as node
from stabnode import spectral as sp


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
        assert len(grads) == 2 * p.n_layers
        assert all(np.all(g == 0) for g in grads)
        assert np.all(gin == 0)

    def test_scalar_linear_product_rule(self):
        # y = w*u: cotangent 1 gives param grad u and input cotangent w
        w, u = 1.7, -0.4
        p = dc.MlpParams([1, 1], ["linear"], [np.array([[w]])], [np.zeros(1)])
        out, tape = dc.mlp_forward(p, np.array([u]))
        grads, gin = dc.mlp_backward(p, tape, np.array([1.0]))
        assert grads[0][0, 0] == pytest.approx(u)
        assert gin[0] == pytest.approx(w)

    def test_tape_bound_to_params(self):
        # activations of a network with other layer sizes are rejected
        p = random_mlp([3, 3], ["linear"], seed=0)
        q = random_mlp([3, 4, 3], ["relu", "linear"], seed=1)
        out, acts = dc.mlp_forward(p, np.ones(3))
        with pytest.raises(ValueError, match="layer sizes"):
            dc.mlp_backward(q, acts, out)

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
            # gradients come weights first, then biases
            analytic = (sum(np.sum(g * d) for g, d in zip(grads, dirs_w + dirs_b))
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


class TestMlpBuffers:
    """Passes into MlpBuffers keep the bits of passes into fresh arrays, and the
    backward pass gives the same with or without the output activation."""

    @pytest.mark.parametrize("acts", [("relu", "relu", "linear"),
                                      ("sigmoid", "sigmoid", "linear"),
                                      ("linear", "relu", "linear")])
    def test_buffered_passes_keep_the_bits(self, acts):
        sizes = [6, 9, 7, 6]
        p = random_mlp(sizes, list(acts), seed=5)
        rng = np.random.default_rng(6)
        buffers = dc.MlpBuffers(p, 4)
        for trial in range(2):  # the second pass overwrites the first's arrays
            u, cot = rng.standard_normal((4, 6)), rng.standard_normal((4, 6))
            out, fresh_acts = dc.mlp_forward(p, u)
            grads, gin = dc.mlp_backward(p, fresh_acts, cot)
            cot_before = cot.copy()
            buf_out, buf_acts = dc.mlp_forward(p, u, buffers=buffers)
            assert np.array_equal(buf_out, out)
            assert all(np.array_equal(a, b) for a, b in zip(buf_acts, fresh_acts))
            hidden_acts = dc.mlp_forward(p, u, p.n_layers - 1, buffers)[1]
            assert len(hidden_acts) == p.n_layers
            sums = [np.zeros_like(t) for t in p.weights + p.biases]
            buf_gin = np.empty_like(u)
            buf_grads, got_gin = dc.mlp_backward(p, hidden_acts, cot, buffers, sums, buf_gin)
            assert np.array_equal(cot, cot_before)
            assert np.array_equal(buf_gin, gin)
            assert got_gin is buf_gin
            assert all(np.array_equal(a, b) for a, b in zip(buf_grads, grads))
            assert buf_grads is sums

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    @pytest.mark.parametrize("acts", [("relu", "relu", "linear"),
                                      ("sigmoid", "sigmoid", "linear"),
                                      ("linear", "relu", "linear")])
    def test_gradients_added_into_nonzero_sums(self, acts, buffered):
        # each layer's parts are added into the caller's sums: start + part in
        # every float64 word, as the adjoint accumulates stage after stage
        sizes = [6, 9, 7, 6]
        p = random_mlp(sizes, list(acts), seed=8)
        rng = np.random.default_rng(9)
        buffers = dc.MlpBuffers(p, 5) if buffered else None
        u, cot = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
        _, fresh_acts = dc.mlp_forward(p, u)
        parts, gin = dc.mlp_backward(p, fresh_acts, cot)
        start = [rng.standard_normal(t.shape) for t in p.weights + p.biases]
        sums = [s.copy() for s in start]
        hidden_acts = dc.mlp_forward(p, u, p.n_layers - 1, buffers)[1]
        grads, got_gin = dc.mlp_backward(p, hidden_acts, cot, buffers, sums)
        assert grads is sums
        assert np.array_equal(got_gin.view(np.uint64), gin.view(np.uint64))
        for got, s, part in zip(sums, start, parts):
            assert np.array_equal(got.view(np.uint64), (s + part).view(np.uint64))

    def test_buffers_hold_sigmoid_temporaries_only_for_sigmoid_layers(self):
        p = random_mlp([6, 9, 7, 8, 6], ["sigmoid", "relu", "linear", "linear"], seed=1)
        buffers = dc.MlpBuffers(p, 3)
        assert [s is not None for s in buffers.scratch] == [True, False, False]
        assert [None if m is None else m.shape for m in buffers.mask] == [
            (3, 9), (3, 7), None]
        assert [c.shape for c in buffers.cot] == [(3, 9), (3, 7), (3, 8)]
        # one weight row and one bias row, as long as the largest layer's
        assert [(w.shape, b.shape) for w, b in buffers.parts] == [
            ((6, 9), (9,)), ((9, 7), (7,)), ((7, 8), (8,)), ((8, 6), (6,))]
        assert all(np.shares_memory(w, buffers.parts[0][0]) for w, _ in buffers.parts)
        assert all(np.shares_memory(b, buffers.parts[1][1]) for _, b in buffers.parts)

    def test_backward_without_the_output_activation(self):
        p = random_mlp([5, 8, 5], ["sigmoid", "linear"], seed=2)
        u, cot = np.linspace(-1.0, 1.0, 5), np.arange(5.0)
        out, acts = dc.mlp_forward(p, u)
        assert np.array_equal(dc.mlp_forward(p, u, 1)[0], acts[1][0])
        full = dc.mlp_backward(p, acts, cot)
        short = dc.mlp_backward(p, acts[:-1], cot)
        assert np.array_equal(full[1], short[1])
        assert all(np.array_equal(a, b) for a, b in zip(full[0], short[0]))
        with pytest.raises(ValueError, match="layer sizes"):
            dc.mlp_backward(p, acts[:1], cot)


def threaded_worker():
    if dc._usable_cpus() < 2:
        pytest.skip("the process may run on one CPU only")
    worker = dc.Worker()
    assert worker.threaded
    return worker


def within(seconds, *bodies):
    """Run each of ``bodies`` on a thread of its own and assert that all of
    them finished within ``seconds``."""
    errors = []

    def run(body):
        try:
            body()
        except Exception as err:
            errors.append(err)
    threads = [threading.Thread(target=run, args=(body,), daemon=True) for body in bodies]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + seconds
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


class TestWorker:
    """Jobs run in the order submitted, under the submitter's error state; join
    hands their errors over; the thread stops on close, and a process limited
    to one CPU runs them inline."""

    def test_jobs_run_in_order_under_a_short_switch_interval(self):
        # three workers, each fed by a thread of its own: more threads than cores
        workers = [threaded_worker() for _ in range(3)]

        def rounds(worker):
            seen, want = [], []
            total = np.zeros(64)

            def job(i):
                np.add(total, i, out=total)  # releases the GIL around numpy's loop
                seen.append(i)
            for r in range(300):
                for i in range(4 * r, 4 * r + 4):
                    worker.submit(job, i)
                    want.append(i)
                worker.join()
                assert seen == want and total[0] == sum(want), r
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            within(60, *(functools.partial(rounds, worker) for worker in workers))
        finally:
            sys.setswitchinterval(interval)
            for worker in workers:
                worker.close()

    def test_join_raises_the_first_error_and_the_worker_goes_on(self):
        worker = threaded_worker()
        seen = []

        def fail(message):
            raise ValueError(message)
        try:
            for job, arg in ((seen.append, 1), (fail, "first"), (fail, "second")):
                worker.submit(job, arg)
            with pytest.raises(ValueError, match="first"):
                within(30, worker.join)
            worker.submit(seen.append, 2)
            within(30, worker.join)
            assert seen == [1, 2]
        finally:
            worker.close()

    def test_jobs_run_under_the_submitters_error_state(self):
        worker = threaded_worker()
        big = np.array([1e308])
        try:
            with np.errstate(over="raise"):
                worker.submit(np.multiply, big, 10.0)
            with pytest.raises(FloatingPointError):
                within(30, worker.join)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with np.errstate(over="ignore"):
                    worker.submit(np.multiply, big, 10.0, big)
                within(30, worker.join)
            assert big[0] == np.inf
        finally:
            worker.close()

    def test_any_number_of_jobs_between_joins(self):
        worker = threaded_worker()
        squares = []
        try:
            for i in range(64):
                worker.submit(squares.append, i * i)
            within(30, worker.join)
            assert squares == [i * i for i in range(64)]
        finally:
            worker.close()

    def test_close_stops_the_thread_after_its_jobs(self):
        before = threading.active_count()
        worker = threaded_worker()
        assert threading.active_count() == before + 1
        seen = []
        worker.submit(seen.append, 1)
        within(30, worker.close)
        assert seen == [1] and not worker.threaded
        assert threading.active_count() == before
        worker.submit(seen.append, 2)  # inline from now on
        assert seen == [1, 2]

    def test_one_cpu_runs_jobs_inline(self, monkeypatch):
        monkeypatch.setattr(dc.os, "sched_getaffinity", lambda pid: {3}, raising=False)
        monkeypatch.setattr(dc.os, "cpu_count", lambda: 1)
        before = threading.active_count()
        worker = dc.Worker()
        assert not worker.threaded and threading.active_count() == before
        seen = []
        worker.submit(seen.append, 1)
        assert seen == [1]
        with pytest.raises(ZeroDivisionError):
            worker.submit(divmod, 1, 0)

    @pytest.mark.parametrize("buffered", [False, True], ids=["fresh", "buffered"])
    def test_backward_on_a_worker_keeps_the_bits(self, buffered):
        sizes = [6, 9, 7, 6]
        p = random_mlp(sizes, ["relu", "sigmoid", "linear"], seed=8)
        rng = np.random.default_rng(9)
        buffers = dc.MlpBuffers(p, 5) if buffered else None
        u, cot = rng.standard_normal((5, 6)), rng.standard_normal((5, 6))
        start = [rng.standard_normal(t.shape) for t in p.weights + p.biases]
        hidden_acts = dc.mlp_forward(p, u, p.n_layers - 1, buffers)[1]
        want, want_gin = dc.mlp_backward(p, hidden_acts, cot, buffers,
                                         [s.copy() for s in start])
        want_gin = want_gin.copy()
        worker = threaded_worker()
        try:
            got, gin = dc.mlp_backward(p, hidden_acts, cot, buffers,
                                       [s.copy() for s in start], worker=worker)
        finally:
            worker.close()
        assert np.array_equal(gin.view(np.uint64), want_gin.view(np.uint64))
        assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64))
                   for a, b in zip(got, want))


def _near_relu_kink(params, u, tol=1e-4):
    a = u
    for w, b, act in zip(params.weights, params.biases, params.activations):
        z = a @ w + b
        if act == "relu" and np.min(np.abs(z)) < tol:
            return True
        a = dc._activate(act, z)
    return False


def stencil_apply(st, u):
    """The stencil's operator, applied through its symbol as the model does."""
    return sp.apply_symbol(st.symbol(u.shape[-1]), u)


def cross_spectrum(u, g):
    """Batch-summed conj(rfft(g)) * rfft(u), the input of symbol_vjp."""
    d = u.shape[-1]
    return (np.conj(sp.rfft(g)) * sp.rfft(u)).reshape(-1, d // 2 + 1).sum(axis=0)


def stencil_vjp(st, u, g):
    """(tap gradient, input cotangent) of stencil_apply, the taps' through
    symbol_vjp."""
    d = u.shape[-1]
    (taps,) = st.symbol_vjp(cross_spectrum(u, g), d)
    return taps, sp.apply_symbol(np.conj(st.symbol(d)), g)


def two_call_vjp(st, u, g):
    """The linear branch's VJP as two separate transforms of g: the input
    cotangent apply_symbol(conj(symbol), g), and the irfft of the batch-summed
    conj(rfft(g)) * rfft(u) read at offsets -c..c, folded when symmetric."""
    d, c = u.shape[-1], st.width // 2
    grad = sp.irfft(cross_spectrum(u, g), d)[np.arange(-c, c + 1)]
    if st.symmetric:
        grad = grad + grad[::-1]
    return grad, sp.apply_symbol(np.conj(st.symbol(d)), g)


def roll_correlation(st, u):
    # oracle: out_j = sum_m taps_eff[m] u[(j+m) mod d], one shifted copy per tap
    teff = st.effective_taps()
    c = st.width // 2
    return sum(teff[m + c] * np.roll(u, -m, axis=-1) for m in range(-c, c + 1))


def roll_correlation_vjp(st, u, g):
    # oracle VJP of roll_correlation, tap gradient summed over a batch
    teff = st.effective_taps()
    c = st.width // 2
    grad_in = sum(teff[m + c] * np.roll(g, m, axis=-1) for m in range(-c, c + 1))
    grad_teff = np.array([np.sum(g * np.roll(u, -m, axis=-1)) for m in range(-c, c + 1)])
    if st.symmetric:
        grad_teff = grad_teff + grad_teff[::-1]
    return grad_teff, grad_in


class TestConv:
    def test_zero_sum_stencil_kills_constants(self):
        st = dc.ConvStencil(np.array([1.0, -2.0, 1.0]))
        out = stencil_apply(st, np.full(16, 4.2))
        assert np.max(np.abs(out)) < 1e-12

    def test_impulse_response(self):
        st = dc.ConvStencil(np.array([1.0, -2.0, 1.0]))
        u = np.zeros(8)
        j = 3
        u[j] = 1.0
        out = stencil_apply(st, u)
        expected = np.zeros(8)
        expected[j - 1], expected[j], expected[j + 1] = 1.0, -2.0, 1.0
        assert np.max(np.abs(out - expected)) < 1e-15

    def test_wraparound(self):
        st = dc.ConvStencil(np.array([1.0, 0.0, 0.0]))  # out_j = u_{j-1}
        u = np.arange(6.0)
        assert np.max(np.abs(stencil_apply(st, u) - np.roll(u, 1))) < 1e-15

    def test_symbol_matches_dense_oracle(self):
        # five-tap stencil applied to a single Fourier mode
        taps = np.array([-72.0, 278.0, -413.0, 278.0, -72.0])
        st = dc.ConvStencil(taps)
        d, L = 64, 22.0
        x = np.arange(d) * L / d
        u = np.sin(2 * np.pi * x / L)
        dense = np.zeros((d, d))
        for m in range(-2, 3):
            dense[np.arange(d), (np.arange(d) + m) % d] = taps[m + 2]
        assert np.max(np.abs(stencil_apply(st, u) - dense @ u)) < 1e-10
        delta = L / d
        q = 2 * np.pi / L
        symbol = -413.0 + 556.0 * np.cos(q * delta) - 144.0 * np.cos(2 * q * delta)
        assert np.max(np.abs(stencil_apply(st, u) - symbol * u)) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_linear_in_taps_and_input(self, seed):
        rng = np.random.default_rng(seed)
        d = 32
        u, w = rng.standard_normal(d), rng.standard_normal(d)
        a, b = rng.standard_normal(2)
        t1, t2 = rng.standard_normal(5), rng.standard_normal(5)
        st1, st2 = dc.ConvStencil(t1), dc.ConvStencil(t2)
        st_sum = dc.ConvStencil(a * t1 + b * t2)
        lhs = stencil_apply(st_sum, u)
        rhs = a * stencil_apply(st1, u) + b * stencil_apply(st2, u)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))
        lhs = stencil_apply(st1, a * u + b * w)
        rhs = a * stencil_apply(st1, u) + b * stencil_apply(st1, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * max(1.0, np.max(np.abs(lhs)))

    def test_width_bound(self):
        st = dc.ConvStencil(np.ones(5))
        for d in (4, 5):
            with pytest.raises(ValueError):
                st.symbol(d)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("width", [1, 3, 5])
    def test_matches_roll_oracle(self, width, symmetric):
        # d = width + 1 is the smallest grid; the batch checks the tap-gradient sum
        rng = np.random.default_rng(width)
        for d in (width + 1, 16):
            st = dc.ConvStencil(rng.standard_normal(width), symmetric)
            for shape in ((d,), (3, d)):
                u, g = rng.standard_normal(shape), rng.standard_normal(shape)
                assert np.max(np.abs(stencil_apply(st, u)
                                     - roll_correlation(st, u))) < 1e-13
                got, want = stencil_vjp(st, u, g), roll_correlation_vjp(st, u, g)
                assert np.max(np.abs(got[0] - want[0])) < 1e-13
                assert np.max(np.abs(got[1] - want[1])) < 1e-13


class TestConvBackward:
    def test_zero_cotangent(self):
        st = dc.ConvStencil(np.array([0.5, 1.0, -0.5]), symmetric=True)
        u = np.arange(8.0)
        gt, gi = stencil_vjp(st, u, np.zeros(8))
        assert np.all(gt == 0) and np.all(gi == 0)

    def test_identity_taps_pass_cotangent(self):
        st = dc.ConvStencil(np.array([0.0, 1.0, 0.0]))
        g = np.array([1.0, -2.0, 3.0, 0.5])
        _, gi = stencil_vjp(st, np.zeros(4), g)
        assert np.array_equal(gi, g)

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_finite_difference(self, symmetric, seed):
        rng = np.random.default_rng(seed)
        d, w = 16, 5
        st = dc.ConvStencil(rng.standard_normal(w), symmetric)
        u = rng.standard_normal(d)
        cot = rng.standard_normal(d)
        gt, gi = stencil_vjp(st, u, cot)
        dt, du = rng.standard_normal(w), rng.standard_normal(d)
        analytic = np.dot(gt, dt) + np.dot(gi, du)
        step = 1e-5

        def value(sign):
            sh = dc.ConvStencil(st.taps + sign * step * dt, symmetric)
            return np.dot(cot, stencil_apply(sh, u + sign * step * du))

        fd = (value(+1) - value(-1)) / (2 * step)
        assert abs(analytic - fd) < 1e-6 * max(1.0, abs(fd))


class TestSharedSpectrum:
    """The model's linear-branch VJP transforms the cotangent once for both the
    input cotangent and the tap gradient, and keeps the bits of two calls."""

    @pytest.mark.parametrize("symmetric", [False, True])
    @pytest.mark.parametrize("shape", [(16,), (5, 16)], ids=["row", "batch"])
    def test_matches_two_call_formula(self, symmetric, shape):
        rng = np.random.default_rng(3)
        d = shape[-1]
        st = dc.ConvStencil(rng.standard_normal(5), symmetric)
        mlp = random_mlp([d, 6, d], ["sigmoid", "linear"], seed=4)
        model = node.RhsModel(mlp, st)
        u, g = rng.standard_normal(shape), rng.standard_normal(shape)
        grads = [np.zeros_like(p) for p in model.parameters()]
        # the VJP writes into a workspace of (n, d) batches: a row is a batch of one
        batch = u.reshape(-1, d)
        workspace = node.AdjointWorkspace(model, len(batch), 1)
        gin = node._rhs_vjp(model, model.linear_symbol(), batch, g.reshape(-1, d),
                            grads, workspace, np.empty_like(batch)).reshape(shape)
        net_grads, net_gin = dc.mlp_backward(mlp, dc.mlp_forward(mlp, u)[1], g)
        taps, linear_gin = two_call_vjp(st, u, g)
        assert np.array_equal(gin, net_gin + linear_gin)
        assert len(grads) == len(net_grads) + 1
        for got, want in zip(grads, net_grads + [taps]):
            assert np.array_equal(got, want)


class TestStencilMatrix:
    """The stencil's circulant operator, through its symbol."""

    def test_identity_taps_symmetrized(self):
        st = dc.ConvStencil(np.array([0.0, 1.0, 0.0]), symmetric=True)
        assert np.array_equal(st.symbol(6), np.full(4, 2.0 + 0j))

    def test_small_circulant_rows(self):
        st = dc.ConvStencil(np.array([1.0, -2.0, 1.0]), symmetric=True)
        row = np.fft.irfft(st.symbol(4), n=4)
        assert np.allclose(row, [-4.0, 2.0, 0.0, 2.0], atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    def test_matvec_matches_conv_apply(self, seed):
        rng = np.random.default_rng(seed)
        st = dc.ConvStencil(rng.standard_normal(5), symmetric=True)
        d = 24
        symbol = st.symbol(d)
        u = rng.standard_normal(d)
        assert np.max(np.abs(sp.apply_symbol(symbol, u) - roll_correlation(st, u))) < 1e-14
        assert np.all(symbol.imag == 0.0)

    @pytest.mark.parametrize("symmetric", [False, True])
    def test_symbol_is_fourier_eigenvalue(self, symmetric):
        rng = np.random.default_rng(4)
        st = dc.ConvStencil(rng.standard_normal(5), symmetric)
        d = 16
        symbol = st.symbol(d)
        j = np.arange(d)
        for k in range(d // 2 + 1):
            mode = np.exp(2j * np.pi * k * j / d)
            out = roll_correlation(st, mode.real) + 1j * roll_correlation(st, mode.imag)
            assert np.max(np.abs(out - symbol[k] * mode)) < 1e-13


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
