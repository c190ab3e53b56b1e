"""Tests for ambiguity inversion, covariance assembly, and PSD repair."""

from pathlib import Path

import numpy as np
import pytest

import ambishrink.covariance as covariance
from ambishrink.ambiguity import (
    AmbiguityGrid,
    LagTimeMoments,
    emaf,
    lag_matrix,
    lag_support_mask,
    normalization,
    normalize,
    raw_moments,
)
from ambishrink.covariance import HermitianCovariance, assemble, correct, invert_af
from ambishrink.diagnostics import risk_report
from ambishrink.procgen import (
    AggregationProcess,
    TheoreticalCovariance,
    cyclostationary_process,
    gen_aggregation,
    gen_modulated_ma,
    gen_white_noise,
    theoretical_covariance,
)
from ambishrink.series import AnalyticSeries, TimeSeries
from ambishrink.shrinkage import shrink


def random_series(n: int, seed: int, dt: float = 1.0) -> AnalyticSeries:
    rng = np.random.default_rng(seed)
    return AnalyticSeries(rng.standard_normal(n) + 1j * rng.standard_normal(n), dt=dt)


def laid_out(grid: np.ndarray, layout: str) -> np.ndarray:
    """``grid`` C-ordered, Fortran-ordered, or as a strided slice of a larger array."""
    if layout == "C":
        return np.ascontiguousarray(grid)
    if layout == "F":
        return np.asfortranarray(grid)
    rows, cols = grid.shape
    big = np.zeros((2 * rows + 1, 3 * cols), dtype=grid.dtype)
    big[1::2, 2::3] = grid
    return big[1::2, 2::3]


def index_map_matrix(grid: np.ndarray) -> np.ndarray:
    """The index-map oracle ``B[t, s] = m[t - s, t]`` of a ``(2n-1, n)`` lag grid, by loops."""
    n = grid.shape[1]
    b = np.zeros((n, n), dtype=grid.dtype)
    for t in range(n):
        for s in range(n):
            b[t, s] = grid[t - s + n - 1, t]
    return b


def random_hermitian(n: int, seed: int) -> HermitianCovariance:
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianCovariance(0.5 * (b + b.conj().T))


def full_clip(c: HermitianCovariance) -> np.ndarray:
    """Clip by reconstruction from the full eigendecomposition."""
    lam, vecs = np.linalg.eigh(c.entries)
    entries = (vecs * np.maximum(lam, 0.0)) @ vecs.conj().T
    return 0.5 * (entries + entries.conj().T)


def clip_case(name: str) -> np.ndarray:
    rng = np.random.default_rng(60)
    b = rng.standard_normal((40, 40)) + 1j * rng.standard_normal((40, 40))
    if name == "indefinite":
        return 0.5 * (b + b.conj().T)
    if name == "psd":
        return b @ b.conj().T
    if name == "constant-diagonal":
        h = 0.5 * (b + b.conj().T)
        np.fill_diagonal(h, 3.0)
        return h
    z = b[:, 0]
    return np.outer(z, z.conj())


class TestHermitianCovarianceType:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianCovariance(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("scale", [1e-300, 1e-20, 1e20])
    def test_rejects_non_hermitian_at_any_scale(self, scale):
        with pytest.raises(ValueError, match="Hermitian"):
            HermitianCovariance(scale * np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_record_scaled_by_1e_minus_75_gives_the_scaled_covariance(self):
        x = gen_aggregation(64, seed=1)
        covs = []
        for scale in (1.0, 1e-75):
            est = shrink(TimeSeries(scale * x.samples, dt=x.dt))
            assert est.converged
            covs.append(correct(assemble(est.m_eb)).entries)
        # the fit's stopping rule is scale-free, so the covariances agree to about 2e-14
        np.testing.assert_allclose(covs[1], 1e-150 * covs[0], rtol=0, atol=1e-10 * np.max(np.abs(covs[1])))

    def test_eigenvalues_computed_descending(self):
        c = HermitianCovariance(np.diag([1.0, 3.0, 2.0]).astype(complex))
        np.testing.assert_allclose(np.linalg.eigvalsh(c.entries)[::-1], [3.0, 2.0, 1.0])
        assert c.min_eigenvalue() == pytest.approx(1.0)
        assert c.trace() == pytest.approx(6.0)


class TestOneEigendecomposition:
    def test_assemble_does_not_decompose(self, eig_calls):
        assemble(raw_moments(random_series(16, 40)))
        assert [name for name, _ in eig_calls] == []

    @pytest.mark.parametrize("method", ["shift", "clip"])
    def test_correct_and_both_spectra_take_one_decomposition(self, eig_calls, method):
        c = random_hermitian(12, 41)
        out = correct(c, method)
        c.min_eigenvalue()
        out.min_eigenvalue()
        assert [name for name, _ in eig_calls] == ["eigh"]

    def test_risk_report_does_not_decompose(self, eig_calls):
        c = random_hermitian(6, 42)
        truth = TheoreticalCovariance(c.entries @ c.entries)
        risk_report(c, random_hermitian(6, 43), truth)
        assert [name for name, _ in eig_calls] == []

    @pytest.mark.parametrize("seed", range(3))
    def test_lazy_spectrum_matches_eigvalsh(self, seed):
        c = random_hermitian(20, seed + 44)
        expected = np.linalg.eigvalsh(c.entries)[::-1]
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(c.min_eigenvalue(), expected[-1], rtol=0, atol=1e-12 * scale)


class TestInvertAf:
    @pytest.mark.parametrize("seed", range(3))
    def test_round_trip_recovers_moments(self, seed):
        m = raw_moments(random_series(10, seed, dt=0.5))
        back = invert_af(emaf(m))
        scale = np.max(np.abs(m.entries))
        np.testing.assert_allclose(back.entries, m.entries, atol=1e-10 * scale)

    def test_zero_grid_gives_zero_moments(self):
        a = AmbiguityGrid(np.zeros((7, 8), dtype=complex), dt=1.0)
        m = invert_af(a)
        np.testing.assert_array_equal(m.entries, np.zeros((7, 4), dtype=complex))

    def test_matches_direct_summation(self):
        m = raw_moments(random_series(4, 3, dt=0.25))
        a = emaf(m)
        n, dt = 4, 0.25
        out = invert_af(a)
        for tau in range(-(n - 1), n):
            for t in range(max(0, tau), n + min(0, tau)):
                ks = np.arange(-n, n)
                nus = ks / (2 * n * dt)
                direct = np.sum(
                    a.entries[tau + n - 1] * np.exp(2j * np.pi * nus * t * dt)
                ) / (2 * n * dt)
                assert out.at(tau, t) == pytest.approx(direct, abs=1e-10)

    def test_sparse_rows_match_full_batch_bitwise(self):
        n, dt = 16, 0.5
        rng = np.random.default_rng(5)
        entries = rng.standard_normal((2 * n - 1, 2 * n)) + 1j * rng.standard_normal((2 * n - 1, 2 * n))
        live = [0, 3, 4, 11, n - 1, 2 * n - 3, 2 * n - 2]
        dead = np.setdiff1d(np.arange(2 * n - 1), live)
        # zeroed cells carry both zero signs, as a thresholded grid does
        entries[dead] *= 0.0
        entries[live, 5] = 0.0
        entries[3, :-1] = 0.0  # a row live through its last cell alone
        assert np.any(np.signbit(entries[dead].view(float)))
        a = AmbiguityGrid(entries, dt=dt)
        full = np.fft.ifft(np.fft.ifftshift(entries, axes=1), axis=1) / dt
        support = lag_support_mask(n)
        expected = np.where(support, full[:, :n], 0.0)
        got = invert_af(a).entries
        np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))
        np.testing.assert_array_equal(got[dead].view(np.uint64), 0)
        np.testing.assert_array_equal(got[~support].view(np.uint64), 0)

    def test_shrunk_moments_hold_positive_zeros_off_support(self):
        m = shrink(gen_aggregation(128, seed=1)).m_eb
        assert not np.any(np.signbit(m.entries[~lag_support_mask(m.n)].view(float)))

    def test_all_zero_grid_inverts_to_positive_zeros(self):
        a = AmbiguityGrid(np.full((15, 16), complex(-0.0, -0.0)), dt=2.0)
        m = invert_af(a)
        assert m.entries.shape == (15, 8)
        np.testing.assert_array_equal(m.entries.view(np.uint64), 0)

    def test_rejects_normalized_grid(self):
        m = raw_moments(random_series(8, 4))
        a = normalize(emaf(m), normalization(8, 1.0, 0.5))
        with pytest.raises(ValueError, match="normalized"):
            invert_af(a)


class TestAssemble:
    def test_raw_assembly_is_outer_product(self):
        z = random_series(8, 5)
        c = assemble(raw_moments(z))
        outer = np.outer(z.samples, np.conj(z.samples))
        np.testing.assert_allclose(c.entries, outer, atol=1e-12)

    def test_raw_assembly_is_rank_one_with_energy_eigenvalue(self):
        z = random_series(8, 6)
        c = assemble(raw_moments(z))
        energy = float(np.real(np.vdot(z.samples, z.samples)))
        eigenvalues = np.linalg.eigvalsh(c.entries)[::-1]
        assert eigenvalues[0] == pytest.approx(energy, rel=1e-12)
        np.testing.assert_allclose(eigenvalues[1:], 0.0, atol=1e-10 * energy)

    def test_diagonal_moments_give_diagonal_matrix(self):
        n = 5
        entries = np.zeros((2 * n - 1, n), dtype=complex)
        entries[n - 1] = np.arange(1, n + 1)
        c = assemble(LagTimeMoments(entries, dt=1.0))
        np.testing.assert_allclose(c.entries, np.diag(np.arange(1.0, n + 1)))

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_matches_indexing_oracle(self, n, layout):
        grid = laid_out(raw_moments(random_series(n, 7)).entries, layout)
        m = LagTimeMoments(grid, dt=1.0)
        assert m.entries is grid
        b = index_map_matrix(grid)
        expected = 0.5 * (b + b.conj().T)
        np.testing.assert_array_equal(assemble(m).entries, expected)


class TestLagMatrix:
    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_writing_through_the_view_fills_the_index_map(self, n, layout):
        rng = np.random.default_rng(n)
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        grid = laid_out(np.zeros((2 * n - 1, n), dtype=complex), layout)
        lag_matrix(grid)[...] = b
        np.testing.assert_array_equal(index_map_matrix(grid), b)
        assert not np.any(grid[~lag_support_mask(n)])

    @pytest.mark.parametrize("shape", [(4, 3), (5, 2), (5,), (2, 5, 3)])
    def test_rejects_a_grid_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"\(2n-1, n\)"):
            lag_matrix(np.zeros(shape, dtype=complex))

    @pytest.mark.parametrize("n", [2, 3, 8, 9])
    def test_raw_moments_match_the_index_map(self, n):
        z = random_series(n, 11)
        m = raw_moments(z)
        b = np.outer(z.samples, z.samples.conj())  # b[t, s] = z[t] conj(z[s]), lag t - s
        np.testing.assert_array_equal(index_map_matrix(m.entries), b)
        assert not np.any(m.entries[~lag_support_mask(n)])


class TestAnyMemoryLayout:
    """Grids and matrices laid out C-ordered, Fortran-ordered or strided give the same results."""

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_ambiguity_grid(self, layout):
        a = emaf(raw_moments(random_series(8, 50, dt=0.5)))
        other = AmbiguityGrid(laid_out(a.entries, layout), dt=a.dt)
        np.testing.assert_array_equal(other.entries, a.entries)
        np.testing.assert_array_equal(invert_af(other).entries, invert_af(a).entries)

    @pytest.mark.parametrize("method", ["shift", "clip"])
    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_hermitian_covariance(self, layout, method):
        c = random_hermitian(12, 51)
        other = HermitianCovariance(laid_out(c.entries, layout))
        assert other.min_eigenvalue() == c.min_eigenvalue()
        np.testing.assert_array_equal(correct(other, method).entries, correct(c, method).entries)

    @pytest.mark.parametrize("layout", ["C", "F", "sliced"])
    def test_theoretical_covariance(self, layout):
        truth = theoretical_covariance(AggregationProcess(), 16)
        other = TheoreticalCovariance(laid_out(truth.entries, layout))
        np.testing.assert_array_equal(other.entries, truth.entries)
        est, raw = random_hermitian(16, 52), random_hermitian(16, 53)
        got, want = risk_report(est, raw, other), risk_report(est, raw, truth)
        np.testing.assert_array_equal(got.normalized_error, want.normalized_error)
        assert got.frobenius_ratio == want.frobenius_ratio


class TestCorrect:
    def test_shift_and_clip_arithmetic(self):
        c = HermitianCovariance(np.diag([-1.0, 2.0]).astype(complex))
        shifted = correct(c, "shift")
        np.testing.assert_allclose(np.linalg.eigvalsh(shifted.entries)[::-1], [3.0, 0.0], atol=1e-12)
        clipped = correct(c, "clip")
        np.testing.assert_allclose(np.linalg.eigvalsh(clipped.entries)[::-1], [2.0, 0.0], atol=1e-12)

    def test_clip_is_noop_on_psd_input(self):
        rng = np.random.default_rng(9)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        psd = HermitianCovariance(b @ b.conj().T)
        out = correct(psd, "clip")
        scale = np.max(np.abs(psd.entries))
        np.testing.assert_allclose(out.entries, psd.entries, atol=1e-10 * scale)

    def test_shift_is_noop_on_psd_input(self):
        rng = np.random.default_rng(10)
        b = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        psd = HermitianCovariance(b @ b.conj().T)
        out = correct(psd, "shift")
        np.testing.assert_array_equal(out.entries, psd.entries)

    def test_shift_raises_trace_by_n_times_min_eigenvalue(self):
        c = random_hermitian(8, 11)
        low = np.linalg.eigvalsh(c.entries)[0]
        assert low < 0  # random Hermitian matrices are indefinite
        out = correct(c, "shift")
        assert out.trace() == pytest.approx(c.trace() + 8 * abs(low), rel=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_clip_distance_equals_negative_eigenvalue_norm(self, seed):
        c = random_hermitian(7, seed + 20)
        out = correct(c, "clip")
        eigenvalues = np.linalg.eigvalsh(c.entries)
        neg = eigenvalues[eigenvalues < 0]
        expected = np.sqrt(np.sum(neg**2))
        observed = np.linalg.norm(out.entries - c.entries)
        assert observed == pytest.approx(expected, abs=1e-8)

    def test_clip_is_idempotent(self):
        c = random_hermitian(9, 30)
        once = correct(c, "clip")
        twice = correct(once, "clip")
        scale = max(np.max(np.abs(once.entries)), 1.0)
        np.testing.assert_allclose(twice.entries, once.entries, atol=1e-10 * scale)

    @pytest.mark.parametrize("method", ["shift", "clip"])
    def test_corrections_preserve_eigenvectors(self, method):
        c = random_hermitian(8, 31)
        out = correct(c, method)
        comm = out.entries @ c.entries - c.entries @ out.entries
        norm = np.linalg.norm(c.entries)
        assert np.linalg.norm(comm) < 1e-8 * norm**2

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            correct(random_hermitian(4, 32), "flip")

    @pytest.mark.parametrize("name", ["indefinite", "psd", "constant-diagonal", "rank-one"])
    def test_clip_matches_full_reconstruction(self, name):
        c = HermitianCovariance(clip_case(name))
        out = correct(c, "clip")
        scale = np.linalg.norm(c.entries)
        np.testing.assert_allclose(out.entries, full_clip(c), rtol=0, atol=1e-12 * scale)
        low = np.linalg.eigvalsh(c.entries)[0]
        assert c.min_eigenvalue() == pytest.approx(low, abs=1e-12 * scale)
        assert out.min_eigenvalue() == pytest.approx(max(low, 0.0), abs=1e-12 * scale)
        assert HermitianCovariance(c.entries).min_eigenvalue() == pytest.approx(low, abs=1e-12 * scale)

    def test_clip_minimum_eigenvalue_floor(self):
        for seed in range(5):
            out = correct(random_hermitian(10, 40 + seed), "clip")
            assert out.min_eigenvalue() >= -1e-8 * abs(out.trace())

    @pytest.mark.parametrize("n", [24, 33, 64])
    @pytest.mark.parametrize(
        "sample",
        [
            lambda n, seed: gen_aggregation(n, seed=seed),
            lambda n, seed: gen_white_noise(n, seed=seed),
            lambda n, seed: gen_modulated_ma(cyclostationary_process(seed=seed), n),
        ],
        ids=["aggregation", "whitenoise", "ma-cyclo"],
    )
    def test_clip_commutes_with_scaling(self, sample, n):
        # LAPACK's value-range eigensolver fails on some of these unless clip rescales first
        for seed in range(10):
            c = assemble(shrink(sample(n, seed)).m_eb)
            ref = correct(c, "clip")
            tol = 1e-13 * np.max(np.abs(c.entries))
            for s in (1e-150, 1e-60, 1e-14, 1e-6, 1e-2, 1e6, 1e150):
                scaled = HermitianCovariance(s * c.entries)
                out = correct(scaled, "clip")
                np.testing.assert_allclose(out.entries / s, ref.entries, rtol=0, atol=tol)
                assert abs(scaled.min_eigenvalue() / s - c.min_eigenvalue()) <= tol
                assert abs(out.min_eigenvalue() / s - ref.min_eigenvalue()) <= tol


class TestOneBlasThread:
    def test_finds_the_bundled_openblas_of_scipy_and_of_numpy(self):
        found = [Path(lib._name) for lib in covariance._bundled_openblas()]
        site = Path(np.__file__).parent.parent
        for package in ("scipy", "numpy"):
            # the Linux and Windows wheel layout
            for path in site.glob(f"{package}.libs/libscipy_openblas*"):
                assert path in found

    def test_decompositions_and_clip_product_run_both_libraries_on_one_thread(self, monkeypatch):
        libs = covariance._bundled_openblas()
        if not libs:
            pytest.skip("neither scipy nor numpy bundles an OpenBLAS with a thread-local thread cap")

        def caps() -> list[int]:
            current = [lib.openblas_set_num_threads_local(1) for lib in libs]
            for lib, count in zip(libs, current):
                lib.openblas_set_num_threads_local(count)
            return current

        seen = []

        class Product(np.ndarray):
            """Eigenvectors that record the thread caps of the product they enter."""

            def __matmul__(self, other):
                seen.append(("product", caps()))
                return np.asarray(self) @ np.asarray(other)

        original = covariance.eigh

        def spy(*args, **kwargs):
            seen.append(("eigh", caps()))
            if len(seen) == 5:
                raise RuntimeError("eigensolver failed")
            out = original(*args, **kwargs)
            return out if kwargs.get("eigvals_only") else (out[0], out[1].view(Product))

        monkeypatch.setattr(covariance, "eigh", spy)
        outer = [lib.openblas_set_num_threads_local(2) for lib in libs]
        after = []
        try:
            correct(random_hermitian(12, 1), "clip")
            after.append(caps())
            correct(random_hermitian(12, 2), "shift")
            after.append(caps())
            random_hermitian(12, 3).min_eigenvalue()
            after.append(caps())
            with pytest.raises(RuntimeError, match="eigensolver failed"):
                correct(random_hermitian(12, 4), "clip")
            after.append(caps())
        finally:
            for lib, count in zip(libs, outer):
                lib.openblas_set_num_threads_local(count)
        one = [1] * len(libs)
        assert seen == [("eigh", one), ("product", one), ("eigh", one), ("eigh", one), ("eigh", one)]
        assert after == [[2] * len(libs)] * 4
