"""Fourier eigenbasis, projections, mode ordering, and reduced integration."""

import re
import struct
import tracemalloc
import warnings

import numpy as np
import pytest

from stabnode import diffcore as dc
from stabnode import neural_ode as node
from stabnode import rom
from stabnode import spectral as sp
from test_spectral import formula_tendency as burgers_formula


def zero_mlp(d, hidden=6):
    sizes = [d, hidden, d]
    return dc.MlpParams(sizes, ["sigmoid", "linear"],
                        [np.zeros((sizes[i], sizes[i + 1])) for i in range(2)],
                        [np.zeros(sizes[i + 1]) for i in range(2)])


def random_basis(d, seed):
    """Fourier eigenbasis of a random real symbol (a random symmetric circulant)."""
    return rom.fourier_basis(np.random.default_rng(seed).standard_normal(d // 2 + 1))


def frozen_fourier_basis(symbol):
    """(eigenvalues, eigenvectors) as the dense basis was built before a basis
    became slots: the natural cos/sin matrix, sorted, signs by the largest
    component.  The bitwise oracle of :attr:`rom.EigenBasis.eigenvectors`."""
    lam = np.asarray(symbol).real.astype(np.float64)
    d = 2 * (lam.size - 1)
    phase = 2.0 * np.pi * np.outer(np.arange(d), np.arange(lam.size)) / d
    cos = np.cos(phase) * np.sqrt(2.0 / d)
    cos[:, [0, -1]] /= np.sqrt(2.0)
    vals = np.concatenate([lam, lam[1:-1]])
    vecs = np.hstack([cos, np.sin(phase[:, 1:-1]) * np.sqrt(2.0 / d)])
    order = np.lexsort((np.arange(d), -vals))
    vals = vals[order]
    vecs = vecs[:, order]
    picks = np.argmax(np.abs(vecs), axis=0)
    signs = np.sign(vecs[picks, np.arange(d)])
    return vals, vecs * signs


def qr_vectors(d, seed):
    """An arbitrary orthonormal (d, d) matrix: no Fourier basis."""
    vecs, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return vecs


def write_dense_basis(path, vals, vecs, tag=0):
    """An SNEB file of any (d,) values and (d, d) vectors, laid out as
    :func:`rom.write_eigenbasis` lays one out."""
    vals, vecs = np.asarray(vals, dtype="<f8"), np.asarray(vecs, dtype="<f8")
    path.write_bytes(rom.EIGENBASIS_MAGIC + struct.pack("<IB", len(vals), tag)
                     + vals.tobytes() + vecs.tobytes(order="F"))


def dense_from_symbol(symbol, d):
    """Dense circulant of a one-sided symbol, one column per unit impulse."""
    return np.fft.irfft(symbol[:, None] * np.fft.rfft(np.eye(d), axis=0), n=d, axis=0)


def dense_from_stencil(stencil, d):
    """Dense circulant of out_j = sum_m taps_eff[m] u[(j+m) mod d]."""
    teff = stencil.effective_taps()
    c = stencil.width // 2
    mat = np.zeros((d, d))
    for m in range(-c, c + 1):
        mat[np.arange(d), (np.arange(d) + m) % d] += teff[m + c]
    return mat


def leading(basis, d_p):
    return basis.eigenvectors[:, :d_p]


def trailing(basis, d_p):
    return basis.eigenvectors[:, d_p:]


def coeffs(u):
    """Real-view one-sided spectra, 1/d convention, of (n, d) states."""
    return np.ascontiguousarray(np.fft.rfft(u) / u.shape[-1]).view(np.float64)


def grid(c):
    d = c.shape[-1] - 2
    return np.fft.irfft(np.ascontiguousarray(c).view(np.complex128) * d, n=d)


def grid_nonlinear(model, u):
    """The model's nonlinear term of grid states, through its coefficient one."""
    return grid(model.nonlinear(coeffs(u).view(np.complex128)).view(np.float64))


class TestEigSymmetric:
    """Eigenpairs of symmetric circulant operators, written from their symbols."""

    def test_identity(self):
        basis = rom.fourier_basis(np.ones(4))
        assert np.allclose(basis.eigenvalues, 1.0)
        assert np.allclose(basis.eigenvectors.T @ basis.eigenvectors, np.eye(6),
                           atol=1e-12)

    def test_two_by_two_exchange(self):
        # [[0, 1], [1, 0]] is the 2-point circulant with symbol (1, -1)
        basis = rom.fourier_basis(np.array([1.0, -1.0]))
        assert np.allclose(basis.eigenvalues, [1.0, -1.0])
        r = 1 / np.sqrt(2)
        assert np.allclose(basis.eigenvectors[:, 0], [r, r])
        assert np.allclose(basis.eigenvectors[:, 1], [r, -r])

    def test_circulant_symbol_oracle(self):
        c0, c1, c2 = -2.0, 0.8, -0.1
        st = dc.ConvStencil(np.array([c2, c1, c0, c1, c2]))
        d = 16
        basis = rom.fourier_basis(st.symbol(d))
        k = np.arange(d)
        expected = c0 + 2 * c1 * np.cos(2 * np.pi * k / d) \
            + 2 * c2 * np.cos(4 * np.pi * k / d)
        assert np.allclose(np.sort(basis.eigenvalues), np.sort(expected), atol=1e-8)

    @pytest.mark.parametrize("d,seed", [(8, 0), (32, 1), (64, 2), (128, 3)])
    def test_random_matrices_against_lapack(self, d, seed):
        symbol = np.random.default_rng(seed).standard_normal(d // 2 + 1)
        mat = dense_from_symbol(symbol, d)
        basis = rom.fourier_basis(symbol)
        scale = np.linalg.norm(mat)
        residual = mat @ basis.eigenvectors - basis.eigenvectors * basis.eigenvalues
        assert np.max(np.linalg.norm(residual, axis=0)) < 1e-8 * scale
        assert np.max(np.abs(basis.eigenvectors.T @ basis.eigenvectors - np.eye(d))) < 1e-10
        assert np.all(np.diff(basis.eigenvalues) <= 0.0)
        oracle = np.sort(np.linalg.eigvalsh(mat))[::-1]
        assert np.allclose(basis.eigenvalues, oracle, atol=1e-9 * max(scale, 1.0))

    @pytest.mark.parametrize("case", ["vbe", "kse", "symmetric-stencil",
                                      "nonsymmetric-stencil"])
    def test_dense_circulant_oracle(self, case):
        # V diag(lambda) V^T is the symmetric part of the dense operator
        d = 32
        if case in ("vbe", "kse"):
            length = 1.0 if case == "vbe" else 22.0
            symbol = sp.linear_symbol(case, d, length, viscosity=1e-2)
            mat = dense_from_symbol(symbol, d)
        else:
            st = dc.ConvStencil(np.array([0.3, -1.2, 0.5, 0.9, -0.4]),
                                symmetric=case == "symmetric-stencil")
            symbol = st.symbol(d)
            mat = dense_from_stencil(st, d)
        if case == "nonsymmetric-stencil":
            with pytest.warns(UserWarning, match="not symmetric"):
                basis = rom.fourier_basis(symbol)
            assert np.max(np.abs(mat - mat.T)) > 0.1
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                basis = rom.fourier_basis(symbol)
        assert np.array_equal(np.sort(basis.eigenvalues),
                              np.sort(np.concatenate([symbol.real, symbol.real[1:-1]])))
        vecs = basis.eigenvectors
        rebuilt = vecs @ np.diag(basis.eigenvalues) @ vecs.T
        scale = np.max(np.abs(mat))
        assert np.max(np.abs(rebuilt - 0.5 * (mat + mat.T))) < 1e-12 * scale

    def test_sign_convention_deterministic(self):
        a = random_basis(12, 7)
        b = random_basis(12, 7)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        picks = np.argmax(np.abs(a.eigenvectors), axis=0)
        assert np.all(a.eigenvectors[picks, np.arange(12)] > 0)

    @pytest.mark.parametrize("symbol", ["random", "degenerate"])
    @pytest.mark.parametrize("d", [2, 4, 8, 64, 512])
    def test_eigenvectors_keep_the_dense_bits(self, d, symbol):
        rng = np.random.default_rng(d)
        if symbol == "random":
            sym = rng.standard_normal(d // 2 + 1)
        else:  # repeated values across wavenumbers, on top of every cos/sin pair
            sym = rng.integers(-2, 3, d // 2 + 1).astype(float)
        self.assert_dense_bits(sym)

    @pytest.mark.parametrize("system,d", [("kse", 32), ("kse", 64), ("vbe", 512)])
    def test_true_operators_keep_the_dense_bits(self, system, d):
        self.assert_dense_bits(sp.linear_symbol(system, d, 22.0 if system == "kse" else 1.0,
                                                viscosity=1e-2))

    @staticmethod
    def assert_dense_bits(symbol):
        basis = rom.fourier_basis(symbol)
        vals, vecs = frozen_fourier_basis(symbol)
        assert same_bits(basis.eigenvalues, vals)
        assert same_bits(basis.eigenvectors, vecs)

    def test_slots_are_a_permutation_of_the_real_slots(self):
        basis = rom.EigenBasis([2, 1, 0, 0], [4, 0, 3, 2])
        assert np.array_equal(basis.slots, [4, 0, 3, 2])
        # Im c_0 (1) and Im c_{d/2} (d + 1) hold no real mode; d must be even
        for vals, slots in [([1, 0, 0, -2], [0, 1, 2, 3]), ([1, 0, 0, -2], [0, 2, 3, 5]),
                            ([1, 0, 0, -2], [0, 2, 2, 4]), ([1, 0, 0], [0, 2, 3]),
                            ([1, 0, 0, -2], [0, 2, 3]), ([], [])]:
            with pytest.raises(ValueError, match="no permutation"):
                rom.EigenBasis(vals, slots)

    def test_cos_and_sin_share_an_eigenvalue(self):
        # so every basis that can be built writes a file read_eigenbasis accepts
        for vals, slots in [([2, 1, 1e-14, -1], [0, 2, 3, 4]),
                            ([3, 3, 1, 1, 0, -1], [2, 5, 4, 3, 0, 6])]:
            with pytest.raises(ValueError, match="cos_k and sin_k have different eigenvalues"):
                rom.EigenBasis(vals, slots)
        rom.EigenBasis([3, 3, 1, 1, 0, -1], [2, 3, 4, 5, 0, 6])

    def test_degenerate_pair_cosine_first(self):
        # equal eigenvalues keep column order: cos(2 pi k j/d) before sin
        d = 8
        basis = rom.fourier_basis(np.array([0.0, 3.0, -1.0, -2.0, -5.0]))
        j = np.arange(d)
        assert np.array_equal(basis.eigenvalues, [3, 3, 0, -1, -1, -2, -2, -5])
        assert np.allclose(basis.eigenvectors[:, 0], np.cos(2 * np.pi * j / d) / 2)
        assert np.allclose(np.abs(basis.eigenvectors[:, 1]),
                           np.abs(np.sin(2 * np.pi * j / d)) / 2)


def projectors(basis, d_p):
    """(P, Q) = (Vp Vp^T, Vq Vq^T) for the leading d_p and the trailing vectors."""
    vp, vq = leading(basis, d_p), trailing(basis, d_p)
    return vp @ vp.T, vq @ vq.T


class TestProjectors:
    def test_full_retention(self):
        basis = random_basis(6, 1)
        p, q = projectors(basis, 6)
        assert np.allclose(p, np.eye(6), atol=1e-10)
        assert np.max(np.abs(q)) < 1e-10

    @pytest.mark.parametrize("d_p", [1, 3, 5])
    def test_projector_algebra(self, d_p):
        basis = random_basis(8, 2)
        p, q = projectors(basis, d_p)
        assert np.allclose(p + q, np.eye(8), atol=1e-10)
        assert np.allclose(p @ p, p, atol=1e-10)
        assert np.max(np.abs(p @ q)) < 1e-10


class TestSlotMasks:
    """Galerkin projections as masks over the slots of real-view spectra."""

    @pytest.mark.parametrize("sort", ["eigenvalue", "variance"])
    def test_masks_are_the_dense_projectors(self, sort):
        d = 16
        basis = random_basis(d, 3)
        if sort == "variance":
            snaps = np.random.default_rng(4).standard_normal((30, d))
            basis = rom.variance_sort(basis, _SpanRhs(basis.eigenvectors[:, 9]), snaps)
        dims = np.arange(1, d + 1)
        lam, resolved, divisor = rom.slot_masks(basis, dims)
        u = np.random.default_rng(5).standard_normal((d, d))
        projected = grid(resolved * coeffs(u))
        for d_p, row, mask, div in zip(dims, projected, resolved, divisor):
            p, _ = projectors(basis, d_p)
            assert np.max(np.abs(row - p @ u[d_p - 1])) < 1e-13
            # the divisor is -lam exactly on the trailing slots
            trail = np.isfinite(div)
            assert np.array_equal(trail, (mask == 0) & ~np.isin(np.arange(d + 2), [1, d + 1]))
            assert np.array_equal(div[trail], -lam[trail])
        assert np.array_equal(np.sort(lam), np.sort(np.concatenate([basis.eigenvalues,
                                                                    [0.0, 0.0]])))

    def test_slots_follow_the_columns(self):
        # d = 8: slot 2k is cos(2 pi k j/d), slot 2k + 1 sin(2 pi k j/d)
        basis = rom.fourier_basis(np.array([0.0, 3.0, -1.0, -2.0, -5.0]))
        lam, resolved, _ = rom.slot_masks(basis, [1, 2, 3])
        assert np.array_equal(lam, [0, 0, 3, 3, -1, -1, -2, -2, -5, 0])
        assert np.array_equal(resolved, [[0, 0, 1, 0, 0, 0, 0, 0, 0, 0],
                                         [0, 0, 1, 1, 0, 0, 0, 0, 0, 0],
                                         [1, 0, 1, 1, 0, 0, 0, 0, 0, 0]])


class _LinearRhs:
    """RHS u @ matrix: every projected tendency varies."""

    def __init__(self, matrix):
        self.matrix = matrix

    def eval(self, u):
        return u @ self.matrix


class _SpanRhs:
    """RHS confined to the span of one basis vector, coefficient u[0]."""

    def __init__(self, vector):
        self.vector = vector

    def eval(self, u):
        return np.outer(u[:, 0], self.vector)


def dense_variance_order(basis, model, snaps, vectors=None):
    """The variance order of tendencies projected on dense eigenvectors."""
    vectors = basis.eigenvectors if vectors is None else vectors
    variances = (model.eval(snaps) @ vectors).var(axis=0)
    return np.lexsort((np.arange(basis.d), -basis.eigenvalues, -variances))


@pytest.fixture(scope="module")
def kse_snapshots():
    """(n, d) snapshots of one short KSE attractor trajectory per d."""
    cache = {}

    def snapshots(d):
        if d not in cache:
            ds = sp.generate_kse_dataset(d=d, horizon=50.0, transient=50.0, seed=1)
            cache[d] = ds.snapshots()
        return cache[d]
    return snapshots


class TestVarianceSort:
    def test_constant_snapshots_fall_back_to_eigenvalue_order(self):
        basis = random_basis(6, 3)
        model = _SpanRhs(np.zeros(6))
        snaps = np.tile(np.arange(6.0), (10, 1))
        out = rom.variance_sort(basis, model, snaps)
        assert np.array_equal(out.eigenvalues, basis.eigenvalues)
        assert out.ordering == "variance"

    def test_single_active_direction_sorts_first(self):
        basis = random_basis(6, 4)
        target = basis.eigenvectors[:, 4]
        model = _SpanRhs(target)
        rng = np.random.default_rng(0)
        snaps = rng.standard_normal((50, 6))
        out = rom.variance_sort(basis, model, snaps)
        assert out.slots[0] == basis.slots[4]
        assert np.allclose(np.abs(out.eigenvectors[:, 0]), np.abs(target))

    def test_sign_flip_invariant(self):
        # the slots carry no sign: the dense order with every sign flipped is
        # the order variance_sort reads from the spectrum
        basis = random_basis(6, 5)
        rng = np.random.default_rng(1)
        model = _LinearRhs(rng.standard_normal((6, 6)))
        snaps = rng.standard_normal((40, 6))
        out = rom.variance_sort(basis, model, snaps)
        flipped = dense_variance_order(basis, model, snaps, -basis.eigenvectors)
        assert np.array_equal(out.slots, basis.slots[flipped])
        assert not np.array_equal(out.slots, basis.slots)

    def test_empty_snapshots_rejected(self):
        basis = rom.fourier_basis(np.ones(3))
        with pytest.raises(ValueError):
            rom.variance_sort(basis, _SpanRhs(np.zeros(4)), np.zeros((0, 4)))

    @pytest.mark.parametrize("rhs", ["true", "network"])
    @pytest.mark.parametrize("d", [32, 64])
    def test_spectrum_variances_are_the_projected_ones(self, d, rhs, kse_snapshots):
        # the spectrum's variances against the dense projection's, on attractor
        # data: within 1e-12 relative, beyond what rounding a projected
        # tendency by one ulp of the largest, delta, moves a variance (the
        # truth's dealiased modes sit at 1e-14 of the largest tendency)
        snaps = kse_snapshots(d)
        model = node.TrueRhs("kse", d, 22.0) if rhs == "true" else learned_model(d, seed=3)
        basis = rom.fourier_basis(model.linear_symbol())
        fft = rom.tendency_variances(basis, model, snaps)
        tendencies = model.eval(snaps) @ basis.eigenvectors
        dense = tendencies.var(axis=0)
        delta = np.finfo(float).eps * np.abs(tendencies).max()
        rounding = 2 * np.sqrt(dense) * delta + delta ** 2
        assert np.all(np.abs(fft - dense) <= 1e-12 * dense + rounding)
        # the rounding term decides only variances below 1e-3 of the largest
        big = dense > 1e-6 * dense.max()
        assert np.all(np.abs(fft - dense)[big] <= 1e-12 * dense[big])
        out = rom.variance_sort(basis, model, snaps)
        assert np.array_equal(out.slots, basis.slots[dense_variance_order(basis, model,
                                                                          snaps)])


def stabilized_model(d, seed=0, zero_net=False):
    symbol = sp.linear_symbol("kse", d, 22.0)
    if zero_net:
        mlp = zero_mlp(d)
    else:
        mlp = dc.init_mlp([d, 10, d], ["sigmoid", "linear"],
                          ("normal", 0.0, 0.02), seed)
    return node.RhsModel(mlp, node.FixedSymbol(symbol))


def dense_galerkin_rhs(basis, d_p, model, p, lift=0.0):
    """Resolved dynamics dp/dt = Lambda_p p + Vp^T F(Vp p + lift) of one row."""
    vp = leading(basis, d_p)
    return basis.eigenvalues[:d_p] * p + vp.T @ grid_nonlinear(model, vp @ p + lift)


def dense_correction(basis, d_p, model, p, iterations=1):
    """q <- -Lambda_q^{-1} Vq^T F(Vp p + Vq q) from q = 0, of one row."""
    vp, vq = leading(basis, d_p), trailing(basis, d_p)
    q = np.zeros(basis.d - d_p)
    for _ in range(iterations):
        q = -(vq.T @ grid_nonlinear(model, vp @ p + vq @ q)) / basis.eigenvalues[d_p:]
    return q


def resolved_coeffs(basis, d_p, p):
    """The slot-mask state of eigen-coordinates p: one row of spectra."""
    lam, resolved, divisor = rom.slot_masks(basis, [d_p])
    return lam, resolved, divisor, resolved * coeffs(leading(basis, d_p) @ p)[None]


def stage_rhs(model, lam, resolved, c_p, lift=0.0):
    """The sweep's RK4 stage at c_p, the ``rhs`` of a :class:`rom.ReducedStepper`
    whose lift is set to ``lift``, into a fresh array."""
    stepper = rom.ReducedStepper(model, lam, resolved, np.full(resolved.shape, -np.inf),
                                 0.01, "galerkin", 1)
    stepper.lift[...] = lift
    return stepper.rhs(c_p)


class TestGalerkinRhs:
    """The slot-mask Galerkin tendency, the stepper's RK4 stage, against its
    dense formula."""

    def test_zero_nonlinearity_decouples(self):
        d = 8
        model = stabilized_model(d, zero_net=True)
        basis = rom.fourier_basis(model.linear_symbol())
        p = np.arange(1.0, 5.0)
        lam, resolved, _, c_p = resolved_coeffs(basis, 4, p)
        out = stage_rhs(model, lam, resolved, c_p)
        assert np.allclose(grid(out)[0], leading(basis, 4) @ (basis.eigenvalues[:4] * p),
                           atol=1e-12)

    def test_full_retention_matches_conjugated_rhs(self):
        d = 8
        model = stabilized_model(d, seed=1)
        basis = rom.fourier_basis(model.linear_symbol())
        p = np.random.default_rng(2).standard_normal(d)
        lam, resolved, _, c_p = resolved_coeffs(basis, d, p)
        out = grid(stage_rhs(model, lam, resolved, c_p))[0]
        u = basis.eigenvectors @ p
        expected = basis.eigenvectors @ (basis.eigenvectors.T @ model.eval(u))
        assert np.max(np.abs(out - expected)) < 1e-10
        assert np.max(np.abs(out - basis.eigenvectors @ dense_galerkin_rhs(
            basis, d, model, p))) < 1e-10

    def test_matches_direct_evaluation(self):
        d = 8
        model = stabilized_model(d, seed=3)
        basis = rom.fourier_basis(model.linear_symbol())
        d_p = 5
        p = np.random.default_rng(4).standard_normal(d_p)
        lam, resolved, _, c_p = resolved_coeffs(basis, d_p, p)
        lift = coeffs(trailing(basis, d_p) @ np.full(d - d_p, 0.1))[None]
        out = grid(stage_rhs(model, lam, resolved, c_p, lift))[0]
        vp = leading(basis, d_p)
        expected = vp @ dense_galerkin_rhs(basis, d_p, model, p, grid(lift)[0])
        assert np.max(np.abs(out - expected)) < 1e-10
        direct = vp @ (vp.T @ model.eval(vp @ p))
        out = grid(stage_rhs(model, lam, resolved, c_p))[0]
        assert np.max(np.abs(out - direct)) < 1e-10

    def test_bare_nonlinear_model_rejected(self):
        d = 6
        basis = rom.fourier_basis(np.ones(d // 2 + 1))
        model = node.RhsModel(zero_mlp(d))
        lam, resolved, _ = rom.slot_masks(basis, [3])
        with pytest.raises(ValueError):
            stage_rhs(model, lam, resolved, np.zeros((1, d + 2)))


class TestUnresolvedCorrection:
    def test_zero_nonlinearity_gives_zero(self):
        d = 8
        model = stabilized_model(d, zero_net=True)
        basis = rom.fourier_basis(model.linear_symbol())
        # d_p = 7 keeps the conserved-mean (zero-eigenvalue) mode resolved
        _, _, divisor, c_p = resolved_coeffs(basis, 7, np.ones(7))
        q = rom.unresolved_correction(divisor, model, c_p)
        assert np.max(np.abs(q)) == 0.0

    def correction_on_grid(self, iterations):
        d = 10
        model = stabilized_model(d, seed=5)
        basis = rom.fourier_basis(model.linear_symbol())
        d_p = 7
        p = 0.3 * np.random.default_rng(6).standard_normal(d_p)
        _, _, divisor, c_p = resolved_coeffs(basis, d_p, p)
        q = grid(rom.unresolved_correction(divisor, model, c_p, iterations))[0]
        vq = trailing(basis, d_p)
        assert np.allclose(q, vq @ dense_correction(basis, d_p, model, p, iterations),
                           atol=1e-12)
        return q, model, basis, d_p, p

    def test_single_iteration_matches_dense_solve(self):
        q, model, basis, d_p, p = self.correction_on_grid(1)
        vp, vq = leading(basis, d_p), trailing(basis, d_p)
        rhs_vec = -(vq.T @ grid_nonlinear(model, vp @ p))
        oracle = np.linalg.solve(np.diag(basis.eigenvalues[d_p:]), rhs_vec)
        assert np.allclose(q, vq @ oracle, atol=1e-12)

    def test_several_iterations_match_dense_fixed_point(self):
        self.correction_on_grid(3)

    def test_fixed_point_residual_decreases(self):
        d = 12
        model = stabilized_model(d, seed=7)
        basis = rom.fourier_basis(model.linear_symbol())
        d_p = 7
        vp, vq = leading(basis, d_p), trailing(basis, d_p)
        lam_q = basis.eigenvalues[d_p:]
        p = 0.3 * np.random.default_rng(8).standard_normal(d_p)

        def residual(q):
            return np.linalg.norm(lam_q * q + vq.T @ grid_nonlinear(model, vp @ p + vq @ q))

        _, _, divisor, c_p = resolved_coeffs(basis, d_p, p)
        q1 = vq.T @ grid(rom.unresolved_correction(divisor, model, c_p))[0]
        assert residual(q1) < residual(np.zeros(d - d_p))

    def test_near_zero_trailing_eigenvalue_named(self):
        # the integrator checks the slaved set once, before any correction
        basis = rom.EigenBasis([2.0, 1e-14, 1e-14, -1.0], [0, 2, 3, 4])
        model = stabilized_model(4, zero_net=True)
        with pytest.raises(ValueError, match=r"trailing eigenvalue 2 \(1e-14\)"):
            rom.rom_integrate(basis, [2], model, np.zeros(4), 1.0, mode="nlg")


class TestRomIntegrate:
    def test_full_retention_matches_full_rollout(self):
        d = 8
        model = stabilized_model(d, seed=9)
        basis = rom.fourier_basis(model.linear_symbol())
        u0 = 0.2 * np.random.default_rng(10).standard_normal(d)
        times, states = rom.rom_integrate(basis, [d], model, u0, 0.5,
                                          mode="galerkin", save_interval=0.25,
                                          dt=0.05)
        states = states[0]
        _, full = node.rollout(model, u0, 0.5, 0.25, steps_per_interval=5)
        assert np.max(np.abs(states - full)) < 1e-7

    def test_zero_nonlinearity_exponential_modes(self):
        d = 8
        model = stabilized_model(d, zero_net=True)
        basis = rom.fourier_basis(model.linear_symbol())
        d_p = 4
        p0 = np.ones(d_p)
        u0 = leading(basis, d_p) @ p0
        t_end = 0.25
        times, states = rom.rom_integrate(basis, [d_p], model, u0, t_end,
                                          mode="galerkin", save_interval=t_end,
                                          dt=0.0125)
        states = states[0]
        p_end = leading(basis, d_p).T @ states[-1]
        expected = np.exp(basis.eigenvalues[:d_p] * t_end) * p0
        assert np.allclose(p_end, expected, rtol=1e-6)

    def test_ppg_equals_galerkin_plus_correction(self):
        d = 10
        model = stabilized_model(d, seed=11)
        basis = rom.fourier_basis(model.linear_symbol())
        d_p = 7
        u0 = 0.2 * np.random.default_rng(12).standard_normal(d)
        _, (plain,) = rom.rom_integrate(basis, [d_p], model, u0, 0.2,
                                        mode="galerkin", save_interval=0.1, dt=0.02)
        _, (post,) = rom.rom_integrate(basis, [d_p], model, u0, 0.2,
                                       mode="ppg", save_interval=0.1, dt=0.02)
        vp, vq = leading(basis, d_p), trailing(basis, d_p)
        for k in range(len(plain)):
            p_now = vp.T @ plain[k]
            q_now = dense_correction(basis, d_p, model, p_now)
            assert np.allclose(post[k], vp @ p_now + vq @ q_now, atol=1e-12)

    def test_unknown_mode_rejected(self):
        d = 6
        model = stabilized_model(d, zero_net=True)
        basis = rom.fourier_basis(model.linear_symbol())
        with pytest.raises(ValueError):
            rom.rom_integrate(basis, [3], model, np.zeros(d), 1.0, mode="spectral")


def solo_rom(basis, d_p, model, u0, total_time, mode, save_interval, dt):
    """Dense reference: one d_p integrated alone in eigen-coordinates, every
    projection a product with the eigenvectors; snapshots from the first
    non-finite one on read +inf."""
    vp, vq = leading(basis, d_p), trailing(basis, d_p)
    p = vp.T @ u0

    def reconstruct(p_now):
        u = vp @ p_now
        if mode == "galerkin":
            return u
        return u + vq @ dense_correction(basis, d_p, model, p_now)

    n_save = int(round(total_time / save_interval))
    states = np.full((n_save + 1, basis.d), np.inf)
    states[0] = reconstruct(p)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n_save):
            for _ in range(int(round(save_interval / dt))):
                lift = 0.0
                if mode == "nlg":
                    lift = vq @ dense_correction(basis, d_p, model, p)
                p = node._rk4_forward(
                    lambda ps, _: dense_galerkin_rhs(basis, d_p, model, ps, lift),
                    p, dt, 1)
            snap = reconstruct(p)
            if not np.all(np.isfinite(snap)):
                break
            states[i + 1] = snap
    return states


def one_row(basis, d_p, model, u0, total_time, mode, save_interval, dt):
    """A one-row :func:`rom.rom_integrate` call, the lockstep rows' oracle."""
    return rom.rom_integrate(basis, [d_p], model, u0, total_time, mode, save_interval,
                             dt)[1][0]


def assert_close_rows(rows, reference, rtol):
    """Each snapshot within rtol of the reference snapshot's largest entry, as
    cancellation leaves some entries tiny."""
    scale = np.max(np.abs(reference), axis=-1, keepdims=True)
    assert np.all(np.abs(rows - reference) <= rtol * scale)


def kse_start(d, seed=0):
    """A smooth zero-mean KSE state built from the lowest eight wavenumbers."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(d // 2 + 1, dtype=complex)
    coeffs[1:9] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    return np.fft.irfft(coeffs, n=d) * d / 8


class TestDenseReference:
    """The slot-mask sweep against the dense eigen-coordinate integrator."""

    @pytest.mark.parametrize("rhs", ["true", "network"])
    @pytest.mark.parametrize("mode", ["galerkin", "nlg", "ppg"])
    def test_matches_to_rounding(self, rhs, mode):
        d = 32
        if rhs == "true":
            model, u0 = node.TrueRhs("kse", d, 22.0), kse_start(d)
        else:
            model, u0 = stabilized_model(d, seed=13), 0.3 * kse_start(d, seed=1)
        basis = rom.fourier_basis(model.linear_symbol())
        dims = [7, 8, 15]
        _, sweep = rom.rom_integrate(basis, dims, model, u0, 1.0, mode, 0.25, 0.01)
        for d_p, row in zip(dims, sweep):
            assert np.all(np.isfinite(row))
            assert_close_rows(row, solo_rom(basis, d_p, model, u0, 1.0, mode, 0.25, 0.01),
                              1e-12)

    def test_variance_sorted_basis(self):
        d = 32
        model = node.TrueRhs("kse", d, 22.0)
        snaps = np.stack([kse_start(d, seed) for seed in range(20)])
        basis = rom.variance_sort(rom.fourier_basis(model.linear_symbol()), model, snaps)
        assert not np.array_equal(basis.eigenvalues,
                                  rom.fourier_basis(model.linear_symbol()).eigenvalues)
        u0 = kse_start(d)
        dims = [7, 8, 15]
        _, sweep = rom.rom_integrate(basis, dims, model, u0, 1.0, "galerkin", 0.25, 0.01)
        for d_p, row in zip(dims, sweep):
            assert np.all(np.isfinite(row))
            assert_close_rows(row, solo_rom(basis, d_p, model, u0, 1.0, "galerkin",
                                            0.25, 0.01), 1e-12)


def counted_kernels(monkeypatch, model):
    """The (c_p shape, lifted) of every tendency evaluated through the kernels
    ``model.tendency_kernel`` builds from here on; lifted is False for a
    scalar lift, the c_q = 0 a slaving correction starts from."""
    calls = []
    factory = model.tendency_kernel

    def counted_factory(shape):
        kernel = factory(shape)

        def counted(c_p, lift):
            calls.append((c_p.shape, np.ndim(lift) > 0))
            return kernel(c_p, lift)
        return counted

    monkeypatch.setattr(model, "tendency_kernel", counted_factory)
    return calls


class TestLockstepSweep:
    """A d_p sweep integrated as one batch against each d_p integrated alone."""

    @pytest.mark.parametrize("mode", ["galerkin", "nlg", "ppg"])
    def test_true_rhs_rows_bit_identical(self, mode):
        d = 32
        model = node.TrueRhs("kse", d, 22.0)
        basis = rom.fourier_basis(model.linear_symbol())
        u0 = kse_start(d)
        dims = [7, 8, 15]
        times, sweep = rom.rom_integrate(basis, dims, model, u0, 2.0, mode, 0.25, 0.01)
        assert sweep.shape == (3, 9, d)
        assert np.array_equal(times, np.arange(9) * 0.25)
        for d_p, row in zip(dims, sweep):
            assert np.all(np.isfinite(row))
            assert np.array_equal(row, one_row(basis, d_p, model, u0, 2.0, mode,
                                               0.25, 0.01))

    def test_nlg_save_correction_lifts_the_next_step(self, monkeypatch):
        # 4 saves of 5 steps: one correction per step and one at t = 0, as
        # every other save's correction is the lift of the step after it
        d = 32
        model = node.TrueRhs("kse", d, 22.0)
        basis = rom.fourier_basis(model.linear_symbol())
        u0 = kse_start(d)
        dims = [7, 8, 15]
        calls = counted_kernels(monkeypatch, model)
        _, sweep = rom.rom_integrate(basis, dims, model, u0, 1.0, "nlg", 0.25, 0.05)
        monkeypatch.undo()
        # a correction starts from c_q = 0, a stage from the stepper's lift
        assert [shape for shape, lifted in calls if not lifted] == [(3, d + 2)] * (1 + 4 * 5)
        assert [shape for shape, lifted in calls if lifted] == [(3, d + 2)] * (4 * 4 * 5)
        for d_p, row in zip(dims, sweep):
            assert np.array_equal(row, one_row(basis, d_p, model, u0, 1.0, "nlg",
                                               0.25, 0.05))
            assert_close_rows(row, solo_rom(basis, d_p, model, u0, 1.0, "nlg", 0.25, 0.05),
                              1e-12)

    def test_network_rhs_rows_match_to_rounding(self):
        # a batched matmul is not bitwise a one-row one
        d = 32
        model = stabilized_model(d, seed=13)
        basis = rom.fourier_basis(model.linear_symbol())
        u0 = 0.3 * kse_start(d, seed=1)
        dims = [7, 8, 15]
        _, sweep = rom.rom_integrate(basis, dims, model, u0, 0.5, "nlg", 0.25, 0.01)
        for d_p, row in zip(dims, sweep):
            assert_close_rows(row, one_row(basis, d_p, model, u0, 0.5, "nlg", 0.25, 0.01),
                              1e-14)

    def test_diverging_row_leaves_the_others_alone(self):
        # d_p = 32 keeps the stiffest mode, far outside RK4's region at dt = 0.05;
        # its non-finite states stay in the batch until the save drops them
        d = 32
        model = node.TrueRhs("kse", d, 22.0)
        basis = rom.fourier_basis(model.linear_symbol())
        u0 = kse_start(d)
        dims = [7, 32, 8]
        for mode in rom.MODES:
            _, sweep = rom.rom_integrate(basis, dims, model, u0, 5.0, mode, 0.25, 0.05)
            bad = ~np.all(np.isfinite(sweep[1]), axis=1)
            first = int(bad.argmax())
            assert 0 < first and bad[first:].all(), mode
            assert np.all(sweep[1, first:] == np.inf)
            for d_p, row in zip(dims, sweep):
                assert np.array_equal(row, one_row(basis, d_p, model, u0, 5.0, mode,
                                                   0.25, 0.05)), (mode, d_p)
            assert np.all(np.isfinite(sweep[[0, 2]]))

    def test_every_dp_checked_before_any_step(self, monkeypatch):
        d = 32
        model = node.TrueRhs("kse", d, 22.0)
        basis = rom.fourier_basis(model.linear_symbol())
        calls = counted_kernels(monkeypatch, model)
        # d_p = 3 leaves the mean mode's zero eigenvalue among the slaved ones
        with pytest.raises(ValueError, match="cannot slave"):
            rom.rom_integrate(basis, [23, 3], model, kse_start(d), 1.0, "nlg")
        with pytest.raises(ValueError, match="outside"):
            rom.rom_integrate(basis, [8, 33], model, kse_start(d), 1.0, "galerkin")
        with pytest.raises(ValueError, match="no retained"):
            rom.rom_integrate(basis, [], model, kse_start(d), 1.0, "galerkin")
        # one d_p is a sequence of one, not a bare int
        with pytest.raises(ValueError, match="no retained"):
            rom.rom_integrate(basis, 8, model, kse_start(d), 1.0, "galerkin")
        # a save interval that does not divide the span is not rounded away,
        # nor a step that does not divide the save interval
        with pytest.raises(ValueError, match="must divide the time span"):
            rom.rom_integrate(basis, [8], model, kse_start(d), 1.1, "nlg", 0.25)
        with pytest.raises(ValueError, match="must divide the time span"):
            rom.rom_integrate(basis, [8], model, kse_start(d), 1.0, "nlg", 0.25, 0.03)
        assert calls == []
        # the count sees a sweep that runs: a first lift and 4 + 1 per step
        rom.rom_integrate(basis, [8], model, kse_start(d), 0.25, "nlg", 0.25, 0.05)
        assert len(calls) == 1 + 5 * 5


def same_bits(a, b):
    """Equal in every float64 word, the sign of a zero included."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def learned_model(d, seed=0):
    """A learned-linear model: a small network beside a symmetric diffusion
    stencil, whose only zero eigenvalue, the mean mode's, leads the basis."""
    mlp = dc.init_mlp([d, 10, d], ["sigmoid", "linear"], ("normal", 0.0, 0.02), seed)
    return node.RhsModel(mlp, dc.ConvStencil(np.array([0.5, -1.0, 0.5]), symmetric=True))


def formula_tendency(model, c):
    """The model's nonlinear term of coefficients c, each operation into a fresh
    array; the true RHS's is the Burgers formula on the KSE domain, L = 22, of
    every true-RHS case here."""
    d = model.width
    if isinstance(model, node.TrueRhs):
        return burgers_formula(c, d, 22.0)
    return np.fft.rfft(dc.mlp_forward(model.term, np.fft.irfft(c * d, d))[0]) / d


def formula_rk4(f, x1, h):
    k1 = f(x1)
    k2 = f(x1 + 0.5 * h * k1)
    k3 = f(x1 + 0.5 * h * k2)
    k4 = f(x1 + h * k3)
    return x1 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def formula_sweep(basis, dims, model, u0, total_time, mode, save_interval, dt,
                  iterations=1):
    """The oracle of the in-place sweep: the same lockstep march with an
    allocating advance, each operation an array formula into a fresh array.
    Its state packs the lift beside c_p, [c_p | c_q], so the march's own row
    selection carries a row's lift past a drop."""
    lam, resolved, divisor = rom.slot_masks(basis, dims)
    d, m = basis.d, basis.d + 2

    def nonlinear(c):
        return formula_tendency(model, c.view(np.complex128)).view(np.float64)

    def correction(div, c_p):
        c_q = np.zeros_like(c_p)
        for _ in range(iterations):
            c_q = nonlinear(c_p + c_q) / div
        return c_q

    def advance(state, nsteps, rows):
        mask, div = resolved[rows], divisor[rows]
        c_p, lift = state[:, :m], state[:, m:]
        for _ in range(nsteps):
            c_p = formula_rk4(lambda c: lam * c + mask * nonlinear(c + lift), c_p, dt)
            if mode == "nlg":
                lift = correction(div, c_p)
        return np.hstack([c_p, lift])

    def observe(state, rows):
        c = state[:, :m]
        if mode != "galerkin":
            c = c + (state[:, m:] if mode == "nlg" else correction(divisor[rows], c))
        return np.fft.irfft(c.view(np.complex128) * d, d)

    c0 = np.fft.rfft(np.asarray(u0, dtype=np.float64)) / d
    state = np.zeros((len(dims), 2 * m))
    state[:, :m] = resolved * c0.view(np.float64)
    if mode == "nlg":
        state[:, m:] = correction(divisor, state[:, :m])
    return sp.march(advance, state, sp.save_count(total_time, save_interval),
                    sp.save_count(save_interval, dt), observe)


def rom_case(rhs, d):
    """(model, start) of the true KSE RHS or of a learned-linear network."""
    if rhs == "true":
        return node.TrueRhs("kse", d, 22.0), kse_start(d)
    return learned_model(d, seed=13), 0.3 * kse_start(d, seed=1)


class TestInPlaceStepper:
    """The sweep steps in place with the bits of its array formulas."""

    @pytest.mark.parametrize("dims", [[8], [7, 8, 15]], ids=["one-row", "three-rows"])
    @pytest.mark.parametrize("iterations", [1, 3])
    @pytest.mark.parametrize("rhs", ["true", "network"])
    @pytest.mark.parametrize("mode", rom.MODES)
    def test_bits_of_the_formulas(self, mode, rhs, iterations, dims):
        d = 32
        model, u0 = rom_case(rhs, d)
        basis = rom.fourier_basis(model.linear_symbol())
        _, sweep = rom.rom_integrate(basis, dims, model, u0, 1.0, mode, 0.25, 0.01,
                                     iterations)
        assert np.all(np.isfinite(sweep))
        assert same_bits(sweep, formula_sweep(basis, dims, model, u0, 1.0, mode, 0.25,
                                              0.01, iterations))

    @pytest.mark.parametrize("mode, rhs", [
        pytest.param(mode, rhs, id=mode if rhs == "true" else f"{mode}-{rhs}")
        for rhs in ("true", "network") for mode in rom.MODES])
    def test_diverging_row_rebuilds_the_buffers(self, mode, rhs, monkeypatch):
        # d_p = 32 keeps the stiffest mode, far outside RK4's region at dt = 0.05;
        # the save that drops it rebuilds the stepper for the two rows left, which
        # takes their lift from the old one: a network's products at batch 2 could
        # round otherwise than at batch 3, so a lift made again could differ
        d = 32
        if rhs == "true":
            model, u0 = node.TrueRhs("kse", d, 22.0), kse_start(d)
        else:
            model, u0 = stabilized_model(d, seed=13), 0.3 * kse_start(d, seed=1)
        basis = rom.fourier_basis(model.linear_symbol())
        dims = [7, 32, 8]
        built = []

        class Counted(rom.ReducedStepper):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

            def advance(self, c_p, nsteps):
                if not hasattr(self, "first_lift"):
                    self.first_lift = self.lift.copy()
                return super().advance(c_p, nsteps)

        monkeypatch.setattr(rom, "ReducedStepper", Counted)
        _, sweep = rom.rom_integrate(basis, dims, model, u0, 5.0, mode, 0.25, 0.05)
        monkeypatch.undo()
        assert [len(stepper.lift) for stepper in built] == [3, 2]
        old, new = built
        assert same_bits(new.first_lift, old.lift[[0, 2]])
        assert not np.all(np.isfinite(sweep[1])) and np.all(np.isfinite(sweep[[0, 2]]))
        assert same_bits(sweep, formula_sweep(basis, dims, model, u0, 5.0, mode, 0.25, 0.05))
        if rhs == "true":
            for d_p, row in zip(dims, sweep):
                assert same_bits(row, one_row(basis, d_p, model, u0, 5.0, mode, 0.25, 0.05))

    @pytest.mark.parametrize("rhs", ["true", "network"])
    def test_nonlinear_into_buffers_keeps_the_bits(self, rhs):
        d = 32
        model, u0 = rom_case(rhs, d)
        c = np.stack([np.fft.rfft(u0) / d, np.fft.rfft(0.5 * u0[::-1]) / d])
        kernel = model.tendency_kernel((2,))
        got = kernel(c.view(np.float64), 0.0)
        assert got.shape == (2, d + 2)
        assert same_bits(got.view(np.complex128), model.nonlinear(c))
        assert same_bits(got.view(np.complex128), formula_tendency(model, c))
        # a second call, of c lifted from zero, overwrites the same array
        # with the same bits
        expected = got.copy()
        assert kernel(np.zeros_like(got), c.view(np.float64)) is got
        assert same_bits(got, expected)

    @pytest.mark.parametrize("mode", rom.MODES)
    def test_warm_step_allocates_no_row(self, mode):
        # numpy makes a few objects of fixed size per call, a transform's about
        # 0.5 kB, which a row of d = 512 exceeds; a broadcast operand would be
        # buffered, at least a row, so every operand must have the rows' shape.
        # The true RHS only: the network's bias add broadcasts.
        d = 512
        model, u0 = rom_case("true", d)
        basis = rom.fourier_basis(model.linear_symbol())
        lam, resolved, divisor = rom.slot_masks(basis, [7, 15, 23])
        stepper = rom.ReducedStepper(model, lam, resolved, divisor, 0.01, mode, 3)
        # the state is c_p alone, and advance returns it in the tape's k4 slot
        c_p = stepper.advance(resolved * coeffs(u0[None]), 1)
        assert c_p.shape == (3, d + 2) and np.shares_memory(c_p, stepper.rk4.k[3])
        c_p = c_p.copy()
        tracemalloc.start()
        try:
            stepper.advance(c_p, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * (d + 2), peak


class TestEigenvalueGaps:
    """Gaps between consecutive eigenvalues of Fourier bases."""

    def test_degenerate_spectrum(self):
        basis = rom.fourier_basis(np.full(5, 2.0))
        assert np.array_equal(np.diff(basis.eigenvalues), np.zeros(7))

    def test_small_example(self):
        # d = 4: the k = 1 eigenvalue holds a cosine and a sine mode
        basis = rom.fourier_basis(np.array([0.0, -1.0, -4.0]))
        assert np.array_equal(np.diff(basis.eigenvalues), [-1.0, 0.0, -3.0])

    def test_true_kse_operator_matches_dispersion(self):
        d, L = 64, 22.0
        basis = rom.fourier_basis(sp.linear_symbol("kse", d, L))
        k = np.arange(d // 2 + 1)
        q = 2 * np.pi * k / L
        sym = q**2 - q**4
        # each nonzero/non-Nyquist symbol appears twice (sin/cos pair)
        expected = np.sort(np.concatenate([sym, sym[1:-1]]))
        assert np.allclose(np.sort(basis.eigenvalues), expected, atol=1e-6)
        gaps = np.diff(np.sort(basis.eigenvalues))
        assert np.allclose(gaps, np.diff(expected), atol=1e-6)


class TestSymmetrization:
    def test_symmetric_passthrough(self):
        d = 8
        model = stabilized_model(d, zero_net=True)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            basis = rom.fourier_basis(model.linear_symbol())
        symbol = model.linear_symbol()
        assert np.array_equal(np.sort(basis.eigenvalues),
                              np.sort(np.concatenate([symbol, symbol[1:-1]])))

    def test_asymmetric_warns_and_symmetrizes(self):
        # out_j = u_{j-1}: symbol exp(-2 pi i k/d), symmetric part cos(2 pi k/d)
        st = dc.ConvStencil(np.array([1.0, 0.0, 0.0]))
        model = node.RhsModel(zero_mlp(8), st)
        with pytest.warns(UserWarning):
            basis = rom.fourier_basis(model.linear_symbol())
        cos = np.cos(2 * np.pi * np.arange(5) / 8)
        assert np.allclose(np.sort(basis.eigenvalues),
                           np.sort(np.concatenate([cos, cos[1:-1]])), atol=1e-15)


class TestEigenbasisIO:
    def test_round_trip(self, tmp_path):
        basis = random_basis(10, 13)
        path = tmp_path / "basis.sneb"
        rom.write_eigenbasis(path, basis)
        back = rom.read_eigenbasis(path)
        assert np.array_equal(back.eigenvalues, basis.eigenvalues)
        assert np.array_equal(back.slots, basis.slots)
        assert np.array_equal(back.eigenvectors, basis.eigenvectors)
        assert back.ordering == basis.ordering
        path2 = tmp_path / "basis2.sneb"
        rom.write_eigenbasis(path2, back)
        assert path.read_bytes() == path2.read_bytes()

    def test_variance_sorted_round_trip(self, tmp_path):
        basis = random_basis(16, 3)
        snaps = np.random.default_rng(4).standard_normal((30, 16))
        basis = rom.variance_sort(basis, _SpanRhs(basis.eigenvectors[:, 9]), snaps)
        path = tmp_path / "basis.sneb"
        rom.write_eigenbasis(path, basis)
        back = rom.read_eigenbasis(path)
        assert back.ordering == "variance"
        assert np.array_equal(back.slots, basis.slots)
        rom.write_eigenbasis(tmp_path / "again.sneb", back)
        assert (tmp_path / "again.sneb").read_bytes() == path.read_bytes()

    def assert_refused(self, path, vals, vecs, match):
        write_dense_basis(path, vals, vecs)
        with pytest.raises(sp.ArtifactError, match=re.escape(str(path)) + ".*" + match):
            rom.read_eigenbasis(path)

    def test_non_fourier_basis_refused(self, tmp_path):
        fourier = random_basis(8, 0)
        repeated = fourier.eigenvectors.copy()
        repeated[:, 1] = repeated[:, 0]
        sums = fourier.eigenvectors.copy()
        sums[:, :2] = sums[:, :2] @ np.array([[0.6, -0.8], [0.8, 0.6]])
        for vecs in (qr_vectors(8, 0), repeated, sums, np.eye(4), np.eye(3)):
            self.assert_refused(tmp_path / "basis.sneb", np.zeros(len(vecs)), vecs,
                                "not a Fourier basis")

    def test_flipped_sign_refused(self, tmp_path):
        basis = random_basis(8, 1)
        vecs = basis.eigenvectors
        vecs[:, 3] *= -1.0
        self.assert_refused(tmp_path / "basis.sneb", basis.eigenvalues, vecs,
                            "a column is not its slot's mode")

    def test_swapped_columns_refused(self, tmp_path):
        # two columns of different wavenumbers traded places, their eigenvalues
        # not: each wavenumber's cos and sin now disagree
        basis = random_basis(8, 2)
        i, j = np.flatnonzero(np.isin(basis.slots, [2, 4]))  # cos_1 and cos_2
        assert basis.eigenvalues[i] != basis.eigenvalues[j]
        vecs = basis.eigenvectors
        vecs[:, [i, j]] = vecs[:, [j, i]]
        self.assert_refused(tmp_path / "basis.sneb", basis.eigenvalues, vecs,
                            "different eigenvalues")


class TestBasisMemory:
    def test_sweep_setup_holds_no_dense_basis(self):
        # building, checking and masking a d = 4096 sweep stays below 1% of one
        # dense d x d float64 matrix (134 MB)
        d = 4096
        symbol = sp.linear_symbol("kse", d, 22.0)
        tracemalloc.start()
        try:
            basis = rom.fourier_basis(symbol)
            dims, *_ = rom.check_sweep(basis, [7, 15], "nlg", 1.0, 0.25, 0.01)
            rom.slot_masks(basis, dims)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.01 * 8 * d * d, peak
