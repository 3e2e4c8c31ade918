import numpy as np
import pytest
from numpy.testing import assert_allclose

from designgen import random_correlation, random_grid, random_single_treatment_grid
from swedge.covariance import (
    CompoundSymmetry,
    CovarianceModel,
    ParameterError,
    StandardizedParams,
    cluster_cov_entries,
)
from swedge.designs import DesignGrid, catalog_design, generate_standard_swd
from swedge.variance import (
    RankDeficiencyError,
    closed_form_covariance,
    contrast_variance,
    information_matrix,
    oracle_covariance,
    precision_terms,
    sherman_morrison_entries,
)

C, T1, T2, B = 0, 1, 2, 3
MODELS = (
    CovarianceModel.CROSS_SECTIONAL,
    CovarianceModel.COHORT,
    CovarianceModel.NESTED_EXCHANGEABLE,
)


def std_cs(rho_w=0.1, n=15):
    params = StandardizedParams(model=CovarianceModel.CROSS_SECTIONAL, rho_w=rho_w)
    return cluster_cov_entries(params, n)


def dense_cluster_cov(cs, t):
    v = np.full((t, t), cs.offdiag)
    np.fill_diagonal(v, cs.diag)
    return v


class TestShermanMorrison:
    def test_diagonal_case(self):
        cs = CompoundSymmetry(diag=0.4, offdiag=0.0)
        diag, off = sherman_morrison_entries(cs, 5)
        assert diag == pytest.approx(2.5, abs=1e-15)
        assert off == 0.0

    def test_two_by_two_hand_inverse(self):
        cs = CompoundSymmetry(diag=2.0, offdiag=1.0)
        diag, off = sherman_morrison_entries(cs, 2)
        assert diag == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert off == pytest.approx(-1.0 / 3.0, abs=1e-15)
        v = np.array([[2.0, 1.0], [1.0, 2.0]])
        v_inv = np.array([[diag, off], [off, diag]])
        assert_allclose(v @ v_inv, np.eye(2), atol=1e-15)

    def test_random_inverses_multiply_to_identity(self):
        rng = np.random.default_rng(99)
        for _ in range(100):
            t = int(rng.integers(2, 9))
            off = float(rng.uniform(0.0, 1.0))
            diag = off + float(rng.uniform(1e-3, 2.0))
            cs = CompoundSymmetry(diag=diag, offdiag=off)
            d, o = sherman_morrison_entries(cs, t)
            v = dense_cluster_cov(cs, t)
            v_inv = np.full((t, t), o)
            np.fill_diagonal(v_inv, d)
            assert_allclose(v @ v_inv, np.eye(t), atol=1e-12)


class TestPrecisionTerms:
    def test_all_control_grid_zeroes_treatment_terms(self):
        grid = DesignGrid.from_codes([[C, C, C]] * 4)
        cs = std_cs()
        terms = precision_terms(grid, cs)
        for arr in (terms.y, terms.h, terms.z, terms.l, terms.q, terms.w, terms.w_pairs):
            assert_allclose(arr, 0.0)
        sig_c, sig_a = cs.within_variance, cs.between_variance
        assert terms.f == pytest.approx(4.0 / (sig_c + 3 * sig_a), rel=1e-15)

    def test_figure1_weighted_counts(self):
        # 12 treated cluster-periods; the residual-weighted count is
        # 12 * N / (1 - rho_w) = 12 * 15 / 0.9 = 200 on the standardized scale
        grid = catalog_design("fig1")
        terms = precision_terms(grid, std_cs(rho_w=0.1, n=15))
        assert terms.l[0] == pytest.approx(200.0, rel=1e-12)
        assert terms.y[0] == pytest.approx(12.0 * terms.a, rel=1e-15)
        assert terms.h[0] == pytest.approx(12.0 * terms.c, rel=1e-15)
        assert_allclose([terms.l[1], terms.l[2]], 0.0)

    def test_single_cluster_single_step(self):
        grid = DesignGrid.from_codes([[C, T1]])
        cs = std_cs(rho_w=0.2, n=10)
        sig_c, sig_a = cs.within_variance, cs.between_variance
        terms = precision_terms(grid, cs)
        assert terms.z[0] == pytest.approx(terms.c * sig_a, rel=1e-15)
        assert terms.w[0] == pytest.approx(1.0 / sig_c**2, rel=1e-12)

    def test_information_matrix_matches_dense_schur_complement(self):
        # profile the intercept and period effects out of the dense
        # precision matrix and compare against the scalar-term assembly
        from swedge.designs import build_design_matrix

        rng = np.random.default_rng(123)
        for _ in range(25):
            grid = random_grid(rng, max_clusters=8, max_periods=5)
            spec = random_correlation(rng, MODELS[int(rng.integers(0, 3))])
            cs = spec.cov_entries()
            t = grid.n_periods

            z = build_design_matrix(grid).values
            v_inv = np.linalg.inv(dense_cluster_cov(cs, t))
            big = np.zeros((t + 3, t + 3))
            for i in range(grid.n_clusters):
                zi = z[i * t : (i + 1) * t, :]
                big += zi.T @ v_inv @ zi
            a11 = big[:t, :t]
            a12 = big[:t, t:]
            schur = big[t:, t:] - a12.T @ np.linalg.solve(a11, a12)

            s = information_matrix(grid, cs)
            scale = max(np.abs(schur).max(), 1e-30)
            assert np.abs(s - schur).max() <= 1e-10 * scale

    def test_every_precision_block_matches_scalar_terms(self):
        # each block of the densely assembled precision matrix should equal
        # its scalar-term prediction: intercept/period blocks from f and g,
        # treatment borders from y and the per-period weighted counts,
        # and the treatment block from l, z and q
        from swedge.designs import build_design_matrix
        from swedge.variance import PAIR_INDICES

        rng = np.random.default_rng(321)
        for _ in range(15):
            grid = random_grid(rng, max_clusters=8, max_periods=5)
            spec = random_correlation(rng, MODELS[int(rng.integers(0, 3))])
            cs = spec.cov_entries()
            t, sig_a = grid.n_periods, cs.between_variance
            terms = precision_terms(grid, cs)

            z = build_design_matrix(grid).values
            v_inv = np.linalg.inv(dense_cluster_cov(cs, t))
            big = np.zeros((t + 3, t + 3))
            for i in range(grid.n_clusters):
                zi = z[i * t : (i + 1) * t, :]
                big += zi.T @ v_inv @ zi

            tol = 1e-10 * max(np.abs(big).max(), 1.0)
            assert abs(big[0, 0] - t * terms.f) <= tol
            for j in range(t - 1):
                assert abs(big[0, 1 + j] - terms.f) <= tol
                for j2 in range(t - 1):
                    expected = (terms.f + terms.g * t) * (j == j2) - terms.g
                    assert abs(big[1 + j, 1 + j2] - expected) <= tol

            x, w = grid.indicators()
            stacks = (x, w, x * w)
            for k in range(3):
                assert abs(big[0, t + k] - terms.y[k]) <= tol
                assert abs(big[t + k, t + k] - (terms.l[k] - terms.z[k])) <= tol
                col_sums = stacks[k].sum(axis=0)
                for j in range(t - 1):
                    expected = terms.b * col_sums[j] - sig_a * terms.h[k]
                    assert abs(big[1 + j, t + k] - expected) <= tol
            for m, (j, k) in enumerate(PAIR_INDICES):
                assert abs(big[t + j, t + k] - terms.q[m]) <= tol


class TestClosedFormAgainstOracle:
    def test_figure1_single_treatment(self):
        grid = catalog_design("fig1")
        cs = std_cs(rho_w=0.1, n=15)
        closed = closed_form_covariance(grid, cs)
        oracle = oracle_covariance(grid, cs)
        assert closed.labels == oracle.labels == ("trt1",)
        assert closed.matrix[0, 0] == pytest.approx(oracle.matrix[0, 0], rel=1e-10)

    def test_figure2b_symmetry_and_dim(self):
        grid = catalog_design("fig2b")
        cs = std_cs(rho_w=0.1, n=15)
        closed = closed_form_covariance(grid, cs)
        assert closed.labels == ("trt1", "trt2")
        assert closed.variance("trt1") == pytest.approx(closed.variance("trt2"), rel=1e-14)
        oracle = oracle_covariance(grid, cs)
        assert_allclose(closed.matrix, oracle.matrix, rtol=1e-10)

    def test_figure8_design2_full_three_by_three(self):
        grid = catalog_design("fig8-design2")
        cs = std_cs(rho_w=0.1, n=15)
        closed = closed_form_covariance(grid, cs)
        assert closed.labels == ("trt1", "trt2", "interaction")
        eigvals = np.linalg.eigvalsh(closed.matrix)
        assert eigvals.min() > 0.0
        oracle = oracle_covariance(grid, cs)
        scale = np.abs(oracle.matrix).max()
        assert np.abs(closed.matrix - oracle.matrix).max() <= 1e-10 * scale

    @pytest.mark.parametrize("model", MODELS)
    def test_random_designs_agree(self, model):
        rng = np.random.default_rng(hash(model.value) % 2**32)
        for _ in range(40):
            grid = random_grid(rng)
            cs = random_correlation(rng, model).cov_entries()
            closed = closed_form_covariance(grid, cs)
            oracle = oracle_covariance(grid, cs)
            assert closed.labels == oracle.labels
            scale = np.abs(oracle.matrix).max()
            assert np.abs(closed.matrix - oracle.matrix).max() <= 1e-10 * scale

    def test_additive_analysis_matches_oracle(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            grid = random_grid(rng)
            cs = random_correlation(rng, CovarianceModel.CROSS_SECTIONAL).cov_entries()
            closed = closed_form_covariance(grid, cs, additive=True)
            oracle = oracle_covariance(grid, cs, additive=True)
            assert "interaction" not in closed.labels
            assert closed.labels == oracle.labels
            scale = np.abs(oracle.matrix).max()
            assert np.abs(closed.matrix - oracle.matrix).max() <= 1e-10 * scale


class TestReductionsAndErrors:
    def test_all_control_design_is_inestimable(self):
        grid = DesignGrid.from_codes([[C, C, C]] * 3)
        cs = std_cs()
        with pytest.raises(RankDeficiencyError):
            closed_form_covariance(grid, cs)
        with pytest.raises(RankDeficiencyError):
            oracle_covariance(grid, cs)

    def test_treatment2_only_design_reduces_to_one_effect(self):
        grid = generate_standard_swd(3, 1, treatment=2)
        closed = closed_form_covariance(grid, std_cs())
        assert closed.labels == ("trt2",)

    def test_single_sequence_confounded_with_time(self):
        # every cluster transitions in the same period: the treatment
        # column coincides with a period indicator pattern
        grid = DesignGrid.from_codes([[C, T1], [C, T1], [C, T1]])
        with pytest.raises(RankDeficiencyError) as err:
            closed_form_covariance(grid, std_cs())
        assert err.value.effect == "trt1"
        with pytest.raises(RankDeficiencyError):
            oracle_covariance(grid, std_cs())

    def test_late_factorial_interaction_confounded_but_mains_fine(self):
        grid = catalog_design("fig5a")
        cs = std_cs()
        with pytest.raises(RankDeficiencyError) as err:
            closed_form_covariance(grid, cs)
        assert err.value.effect == "interaction"
        additive = closed_form_covariance(grid, cs, additive=True)
        assert additive.labels == ("trt1", "trt2")

    def test_error_carries_condition_estimate(self):
        grid = DesignGrid.from_codes([[C, T1], [C, T1]])
        with pytest.raises(RankDeficiencyError) as err:
            oracle_covariance(grid, std_cs())
        assert err.value.condition is None or err.value.condition > 1e12


class TestMatrixProperties:
    def test_label_swap_permutes_closed_form_exactly(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            grid = random_grid(rng)
            cs = random_correlation(rng, MODELS[int(rng.integers(0, 3))]).cov_entries()
            cov = closed_form_covariance(grid, cs)
            swapped = closed_form_covariance(grid.swap_treatments(), cs)
            perm = [swapped.labels.index(_swap_label(l)) for l in cov.labels]
            assert np.array_equal(cov.matrix, swapped.matrix[np.ix_(perm, perm)])

    def test_label_swap_permutes_oracle(self):
        rng = np.random.default_rng(2025)
        for _ in range(10):
            grid = random_grid(rng)
            cs = random_correlation(rng, CovarianceModel.CROSS_SECTIONAL).cov_entries()
            cov = oracle_covariance(grid, cs)
            swapped = oracle_covariance(grid.swap_treatments(), cs)
            perm = [swapped.labels.index(_swap_label(l)) for l in cov.labels]
            scale = np.abs(cov.matrix).max()
            assert np.abs(cov.matrix - swapped.matrix[np.ix_(perm, perm)]).max() <= 1e-12 * scale

    def test_cluster_permutation_invariance(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            grid = random_grid(rng)
            cs = random_correlation(rng, MODELS[int(rng.integers(0, 3))]).cov_entries()
            order = list(rng.permutation(grid.n_clusters))
            cov = closed_form_covariance(grid, cs)
            permuted = closed_form_covariance(grid.permute_clusters(order), cs)
            assert permuted.labels == cov.labels
            assert_allclose(permuted.matrix, cov.matrix, rtol=1e-12)

    def test_covariances_positive_definite(self):
        rng = np.random.default_rng(888)
        for _ in range(40):
            grid = random_grid(rng)
            cs = random_correlation(rng, MODELS[int(rng.integers(0, 3))]).cov_entries()
            cov = closed_form_covariance(grid, cs)
            assert_allclose(cov.matrix, cov.matrix.T, rtol=1e-12)
            assert np.linalg.eigvalsh(cov.matrix).min() > 0.0

    def test_extra_control_cluster_never_hurts(self):
        rng = np.random.default_rng(55)
        for _ in range(15):
            grid = random_grid(rng, max_clusters=8)
            cs = random_correlation(rng, MODELS[int(rng.integers(0, 3))]).cov_entries()
            bigger = DesignGrid.from_codes(
                grid.to_codes() + [[0] * grid.n_periods], label="augmented"
            )
            before = oracle_covariance(grid, cs)
            after = oracle_covariance(bigger, cs)
            for label in before.labels:
                assert after.variance(label) <= before.variance(label) * (1 + 1e-12)


def _swap_label(label):
    return {"trt1": "trt2", "trt2": "trt1", "interaction": "interaction"}[label]


class TestContrastVariance:
    def test_unit_vector_recovers_variance(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        assert contrast_variance((1.0, 0.0), cov) == pytest.approx(cov.variance("trt1"))

    def test_difference_identity_on_symmetric_design(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        expected = 2.0 * (cov.variance("trt1") - cov.covariance("trt1", "trt2"))
        assert contrast_variance((1.0, -1.0), cov) == pytest.approx(expected, rel=1e-12)

    def test_concurrent_beats_factorial_for_treatment_comparison(self):
        cs = std_cs(rho_w=0.15, n=15)
        concurrent = closed_form_covariance(catalog_design("fig2b"), cs)
        factorial = closed_form_covariance(catalog_design("fig5a"), cs, additive=True)
        v_concurrent = contrast_variance((1.0, -1.0), concurrent)
        v_factorial = contrast_variance((1.0, -1.0), factorial)
        assert v_concurrent < v_factorial

    def test_dimension_mismatch(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        with pytest.raises(ValueError, match="length"):
            contrast_variance((1.0, -1.0, 0.0), cov)
        with pytest.raises(ValueError, match="zero"):
            contrast_variance((0.0, 0.0), cov)

    def test_bad_contrasts_are_parameter_errors(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        with pytest.raises(ParameterError, match="contrast length 3 does not match"):
            contrast_variance((1.0, -1.0, 0.0), cov)
        with pytest.raises(ParameterError, match="must not all be zero"):
            contrast_variance((0.0, 0.0), cov)
        with np.errstate(over="ignore"):
            with pytest.raises(ParameterError, match="not finite"):
                contrast_variance((1e300, 1e300), cov)

    def test_quadratic_form_against_manual_expansion(self):
        rng = np.random.default_rng(14)
        cov = closed_form_covariance(catalog_design("fig8-design2"), std_cs())
        for _ in range(10):
            c = rng.normal(size=3)
            manual = sum(
                c[i] * c[j] * cov.matrix[i, j] for i in range(3) for j in range(3)
            )
            assert contrast_variance(c, cov) == pytest.approx(manual, rel=1e-12)


class TestSingleTreatmentReduction:
    def test_closed_form_matches_oracle_on_wedges(self):
        rng = np.random.default_rng(4242)
        for _ in range(25):
            grid = random_single_treatment_grid(rng)
            cs = random_correlation(rng, MODELS[int(rng.integers(0, 3))]).cov_entries()
            closed = closed_form_covariance(grid, cs)
            oracle = oracle_covariance(grid, cs)
            assert closed.labels == ("trt1",)
            assert closed.matrix[0, 0] == pytest.approx(oracle.matrix[0, 0], rel=1e-10)
