import numpy as np
import pytest
from numpy.testing import assert_allclose

from designgen import (
    dense_design_matrix,
    random_correlation,
    random_grid,
    random_single_treatment_grid,
)
from swedge.covariance import (
    CompoundSymmetry,
    CorrelationSpec,
    CovarianceModel,
    ParameterError,
)
from swedge.designs import (
    DesignGrid,
    catalog_design,
    catalog_ids,
    generate_standard_swd,
)
from swedge.variance import (
    RankDeficiencyError,
    active_effects,
    closed_form_covariance,
    closed_form_stack,
    contrast_variances,
    information_matrix,
    oracle_covariance,
)

C, T1, T2, B = 0, 1, 2, 3
MODELS = (
    CovarianceModel.CROSS_SECTIONAL,
    CovarianceModel.COHORT,
    CovarianceModel.NESTED_EXCHANGEABLE,
)


def std_cs(rho_w=0.1, n=15):
    return CorrelationSpec(model=CovarianceModel.CROSS_SECTIONAL, n_per_period=n,
                           rho_w=rho_w).cov_entries()


def dense_cluster_cov(cs, t):
    v = np.full((t, t), cs.offdiag)
    np.fill_diagonal(v, cs.diag)
    return v


def dense_schur_complement(grid, cs):
    """Treatment block of the dense GLS precision with the intercept and
    period effects profiled out."""
    t = grid.n_periods
    z = dense_design_matrix(grid)
    v_inv = np.linalg.inv(dense_cluster_cov(cs, t))
    big = np.zeros((t + 3, t + 3))
    for i in range(grid.n_clusters):
        zi = z[i * t : (i + 1) * t, :]
        big += zi.T @ v_inv @ zi
    a12 = big[:t, t:]
    return big[t:, t:] - a12.T @ np.linalg.solve(big[:t, :t], a12)


class TestInformationMatrix:
    def test_all_control_grid_is_zero(self):
        grid = DesignGrid([[C, C, C]] * 4)
        assert np.array_equal(information_matrix(grid, std_cs()), np.zeros((3, 3)))

    def test_figure1_absent_effects_have_zero_rows_and_columns(self):
        grid = catalog_design("fig1")
        cs = std_cs(rho_w=0.1, n=15)
        s = information_matrix(grid, cs)
        assert s.shape == (3, 3)
        assert not s[1:, :].any() and not s[:, 1:].any()
        oracle = oracle_covariance(grid, cs)
        assert oracle.labels == ("trt1",)
        assert s[0, 0] == pytest.approx(1.0 / oracle.matrix[0, 0], rel=1e-10)

    def test_single_cluster_single_step_is_confounded(self):
        # with one cluster, the treated period 2 is indistinguishable from
        # the period-2 effect, so nothing of the treatment is identified
        grid = DesignGrid([[C, T1]])
        cs = std_cs(rho_w=0.2, n=10)
        s = information_matrix(grid, cs)
        assert np.abs(s).max() <= 1e-12 / (cs.diag - cs.offdiag)

    def test_information_matrix_matches_dense_schur_complement(self):
        # profile the intercept and period effects out of the dense
        # precision matrix and compare against the scalar-term assembly
        rng = np.random.default_rng(123)
        for _ in range(25):
            grid = random_grid(rng, max_clusters=8, max_periods=5)
            spec = random_correlation(rng, MODELS[int(rng.integers(0, 3))])
            cs = spec.cov_entries()
            schur = dense_schur_complement(grid, cs)

            s = information_matrix(grid, cs)
            scale = max(np.abs(schur).max(), 1e-30)
            assert np.abs(s - schur).max() <= 1e-10 * scale

    def test_every_catalog_design_matches_dense_schur_complement(self):
        for model in MODELS:
            cs = CorrelationSpec(
                model=model, n_per_period=15, rho_w=0.1,
                rho_a=0.05 if model is CovarianceModel.NESTED_EXCHANGEABLE else None,
                pi=0.5 if model is CovarianceModel.COHORT else None,
            ).cov_entries()
            for design_id in catalog_ids():
                grid = catalog_design(design_id)
                schur = dense_schur_complement(grid, cs)
                s = information_matrix(grid, cs)
                assert np.abs(s - schur).max() <= 1e-10 * np.abs(schur).max(), \
                    (design_id, model)


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
        assert closed.matrix[0, 0] == pytest.approx(closed.matrix[1, 1], rel=1e-14)
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
        grid = DesignGrid([[C, C, C]] * 3)
        cs = std_cs()
        message = "design has no treated cluster-periods; no effects are estimable"
        for solve in (closed_form_covariance, oracle_covariance):
            with pytest.raises(RankDeficiencyError) as err:
                solve(grid, cs)
            assert str(err.value) == message
        assert active_effects(grid) == active_effects(grid, additive=True) == ()

    @pytest.mark.parametrize("cells, effects, additive_effects", [
        ([[C, T1]], ("trt1",), ("trt1",)),
        ([[C, T2]], ("trt2",), ("trt2",)),
        ([[C, B]], ("trt1", "trt2", "interaction"), ("trt1", "trt2")),
        ([[C, T1], [C, T2]], ("trt1", "trt2"), ("trt1", "trt2")),
    ])
    def test_active_effects_follow_the_codes_and_the_analysis(self, cells, effects,
                                                              additive_effects):
        grid = DesignGrid(cells)
        assert active_effects(grid) == effects
        assert active_effects(grid, additive=True) == additive_effects

    def test_treatment2_only_design_reduces_to_one_effect(self):
        grid = generate_standard_swd(3, 1, treatment=2)
        closed = closed_form_covariance(grid, std_cs())
        assert closed.labels == ("trt2",)

    def test_single_sequence_confounded_with_time(self):
        # every cluster transitions in the same period: the treatment
        # column coincides with a period indicator pattern
        grid = DesignGrid([[C, T1], [C, T1], [C, T1]])
        with pytest.raises(RankDeficiencyError) as err:
            closed_form_covariance(grid, std_cs())
        assert err.value.effect == "trt1"
        with pytest.raises(RankDeficiencyError) as err:
            oracle_covariance(grid, std_cs())
        assert err.value.effect == "trt1"

    def test_late_factorial_interaction_confounded_but_mains_fine(self):
        grid = catalog_design("fig5a")
        cs = std_cs()
        with pytest.raises(RankDeficiencyError) as err:
            closed_form_covariance(grid, cs)
        assert err.value.effect == "interaction"
        with pytest.raises(RankDeficiencyError) as err:
            oracle_covariance(grid, cs)
        assert err.value.effect == "interaction"
        additive = closed_form_covariance(grid, cs, additive=True)
        assert additive.labels == ("trt1", "trt2")

    def test_error_carries_condition_estimate(self):
        grid = DesignGrid([[C, T1], [C, T1]])
        with pytest.raises(RankDeficiencyError) as err:
            closed_form_covariance(grid, std_cs())
        assert err.value.effect == "trt1"
        with pytest.raises(RankDeficiencyError) as err:
            oracle_covariance(grid, std_cs())
        assert err.value.effect == "trt1"
        assert err.value.condition is None or err.value.condition > 1e12


class TestExtremeCovarianceEntries:
    # unscaled arithmetic underflows the determinant of the inverse to zero
    # at these entries
    HUGE = CompoundSymmetry(diag=1.1e300, offdiag=1e300)

    def test_closed_form_matches_the_oracle(self):
        grid = catalog_design("fig2b")
        closed = closed_form_covariance(grid, self.HUGE)
        oracle = oracle_covariance(grid, self.HUGE)
        assert np.abs(closed.matrix - oracle.matrix).max() <= 1e-10 * np.abs(oracle.matrix).max()

    def test_stack_solves_the_point_as_on_its_own(self):
        grid = catalog_design("fig2b")
        cs = std_cs()
        labels, solved, matrices, errors = closed_form_stack(
            grid, np.array([cs.diag, self.HUGE.diag]), np.array([cs.offdiag, self.HUGE.offdiag]))
        assert solved.tolist() == [0, 1] and errors == {}
        for matrix, entries in zip(matrices, (cs, self.HUGE)):
            assert matrix.tobytes() == closed_form_covariance(grid, entries).matrix.tobytes()

    def test_oracle_solves_subnormal_entries(self, capfd):
        grid = catalog_design("fig2b")
        tiny = CompoundSymmetry(diag=2e-310, offdiag=1e-310)
        oracle = oracle_covariance(grid, tiny)
        assert capfd.readouterr().err == ""
        closed = closed_form_covariance(grid, tiny)
        assert oracle.matrix[0, 0] == pytest.approx(closed.matrix[0, 0], rel=1e-10)

    def test_a_variance_underflowing_to_zero_raises_parameter_error(self):
        entries = CompoundSymmetry(diag=1.5e-323, offdiag=1e-323)
        with pytest.raises(ParameterError, match="^a variance of the effect estimates "
                                                 "underflows to 0"):
            closed_form_covariance(catalog_design("fig2b"), entries)

    def test_a_covariance_overflowing_raises_parameter_error(self):
        entries = CompoundSymmetry(diag=1.7e308, offdiag=0.0)
        with pytest.raises(ParameterError, match="^covariance of the effect estimates is not "
                                                 "finite"):
            closed_form_covariance(DesignGrid([[C, T1], [C, C]]), entries)

    @pytest.mark.parametrize("diag, offdiag", [(np.inf, 1.0), (np.nan, 1.0), (2.0, np.nan)])
    def test_non_finite_entries_are_rejected(self, diag, offdiag):
        with pytest.raises(ParameterError, match="^cluster covariance entries must be finite"):
            CompoundSymmetry(diag=diag, offdiag=offdiag)


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
            bigger = DesignGrid(
                grid.to_codes() + [[0] * grid.n_periods], label="augmented"
            )
            before = oracle_covariance(grid, cs)
            after = oracle_covariance(bigger, cs)
            assert after.labels == before.labels
            assert (after.matrix.diagonal() <= before.matrix.diagonal() * (1 + 1e-12)).all()


def _swap_label(label):
    return {"trt1": "trt2", "trt2": "trt1", "interaction": "interaction"}[label]


class TestContrastVariance:
    def test_contrast_variances_give_each_matrix_of_a_stack_its_own_bits(self):
        rng = np.random.default_rng(600)
        for _ in range(600):
            n = int(rng.integers(1, 4))
            half = rng.normal(size=(int(rng.integers(1, 9)), n, n))
            stack = half @ half.swapaxes(-1, -2) * 10.0 ** rng.integers(-3, 4)
            c = rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0, rng.normal()], size=n)
            alone = [contrast_variances(c, m[None])[0][0].hex() for m in stack]
            assert alone == [v.hex() for v in contrast_variances(c, stack)[0].tolist()]

    def test_unit_vector_recovers_variance(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        var, errors = contrast_variances((1.0, 0.0), cov.matrix[None])
        assert errors == {}
        assert var[0] == pytest.approx(cov.matrix[0, 0])

    def test_difference_identity_on_symmetric_design(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        assert cov.labels == ("trt1", "trt2")
        expected = 2.0 * (cov.matrix[0, 0] - cov.matrix[0, 1])
        var, _ = contrast_variances((1.0, -1.0), cov.matrix[None])
        assert var[0] == pytest.approx(expected, rel=1e-12)

    def test_concurrent_beats_factorial_for_treatment_comparison(self):
        cs = std_cs(rho_w=0.15, n=15)
        concurrent = closed_form_covariance(catalog_design("fig2b"), cs)
        factorial = closed_form_covariance(catalog_design("fig5a"), cs, additive=True)
        matrices = np.stack([concurrent.matrix, factorial.matrix])
        (v_concurrent, v_factorial), errors = contrast_variances((1.0, -1.0), matrices)
        assert errors == {}
        assert v_concurrent < v_factorial

    def test_bad_contrasts_are_parameter_errors(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        with pytest.raises(ParameterError, match="contrast length 3 does not match"):
            contrast_variances((1.0, -1.0, 0.0), cov.matrix[None])
        # a variance that gives no standard error fails its row, not the call
        _, errors = contrast_variances((1e300, 1e300), cov.matrix[None])
        assert "not finite" in str(errors[0])
        _, errors = contrast_variances((0.0, 0.0), cov.matrix[None])
        assert "not positive, got 0" in str(errors[0])

    def test_contrast_variance_against_manual_expansion(self):
        rng = np.random.default_rng(14)
        cov = closed_form_covariance(catalog_design("fig8-design2"), std_cs())
        for _ in range(10):
            c = rng.normal(size=3)
            manual = sum(
                c[i] * c[j] * cov.matrix[i, j] for i in range(3) for j in range(3)
            )
            var, _ = contrast_variances(c, cov.matrix[None])
            assert var[0] == pytest.approx(manual, rel=1e-12)


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
