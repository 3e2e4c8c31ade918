import builtins
import inspect
import math
import operator
import zlib
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
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
    cluster_cov_stack,
)
from swedge.designs import (
    DesignGrid,
    catalog_design,
    catalog_ids,
    generate_standard_swd,
)
from swedge import variance
from swedge.power import EffectSpec, design_power
from swedge.variance import (
    CONDITION_LIMIT,
    EFFECT_LABELS,
    RankDeficiencyError,
    active_effects,
    closed_form_covariance,
    closed_form_stack,
    contrast_variances,
    information_matrix,
    information_stack,
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


def dense_precision(grid, cs):
    """The dense GLS precision sum_i Z_i' V^-1 Z_i, summed one cluster at
    a time, with Z_i the cluster's rows of the dense design matrix."""
    t = grid.n_periods
    z = dense_design_matrix(grid)
    v_inv = np.linalg.inv(dense_cluster_cov(cs, t))
    big = np.zeros((t + 3, t + 3))
    for i in range(grid.n_clusters):
        zi = z[i * t : (i + 1) * t, :]
        big += zi.T @ v_inv @ zi
    return big


def dense_schur_complement(grid, cs):
    """Treatment block of the dense GLS precision with the intercept and
    period effects profiled out."""
    t = grid.n_periods
    big = dense_precision(grid, cs)
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
        rng = np.random.default_rng(zlib.crc32(model.value.encode()))  # replayable
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


# the paths that give a grid one, two or three effects
EFFECT_PATHS = {1: ("none", "trt1"), 2: ("none", "trt1", "trt2"),
                3: ("none", "trt1", "trt2", "both_direct", "trt1_both", "trt2_both")}


def textbook_gls_covariance(grid, cs, labels):
    """Treatment block of the inverse of the dense GLS precision of the
    model with the intercept, period and ``labels`` columns."""
    t = grid.n_periods
    keep = list(range(t)) + [t + EFFECT_LABELS.index(label) for label in labels]
    return np.linalg.inv(dense_precision(grid, cs)[np.ix_(keep, keep)])[t:, t:]


class TestOracleIsTextbookGls:
    @pytest.mark.parametrize("additive", [False, True])
    @pytest.mark.parametrize("model", MODELS)
    def test_oracle_matches_per_cluster_gls(self, model, additive):
        rng = np.random.default_rng([MODELS.index(model), int(additive)])
        for draw in range(24):
            n_effects = draw % 3 + 1
            grid = random_grid(rng, max_clusters=40, max_periods=10, min_clusters=2,
                               min_periods=2, paths=EFFECT_PATHS[n_effects])
            if len(active_effects(grid)) != n_effects:
                continue
            cs = random_correlation(rng, model).cov_entries()
            oracle = oracle_covariance(grid, cs, additive=additive)
            assert oracle.labels == active_effects(grid, additive)
            reference = textbook_gls_covariance(grid, cs, oracle.labels)
            scale = np.abs(reference).max()
            assert np.abs(oracle.matrix - reference).max() <= 1e-10 * scale


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

    @pytest.mark.parametrize("cells", [
        [[C, T1, B], [C, T1, T1], [C, C, T1], [C, C, C]],
        [[C, T2, B], [C, T2, T2], [C, C, T2], [C, C, C]],
    ])
    def test_the_oracle_finds_an_effect_held_only_by_the_combination(self, cells):
        """One treatment appears only in combined cells: the additive
        analysis estimates both, in the oracle as in the closed form."""
        grid = DesignGrid(cells)
        oracle = oracle_covariance(grid, std_cs(), additive=True)
        closed = closed_form_covariance(grid, std_cs(), additive=True)
        assert oracle.labels == closed.labels == ("trt1", "trt2")
        assert_allclose(oracle.matrix, closed.matrix, rtol=1e-10)

    @pytest.mark.parametrize("additive", [False, True])
    def test_a_treatment_given_in_one_period_only_is_named(self, additive):
        """Treatment 2 in every cluster at period 3 and nowhere else is that
        period's effect: both solvers name it, though the precision's
        other eigenvectors load trt1 or the interaction most."""
        grid = DesignGrid([[C, T1, B, T1], [C, C, T2, T1], [C, C, T2, C], [C, T1, B, C]])
        for solve in (closed_form_covariance, oracle_covariance):
            with pytest.raises(RankDeficiencyError) as err:
                solve(grid, std_cs(), additive)
            assert err.value.effect == "trt2"

    @pytest.mark.parametrize("additive", [False, True])
    def test_only_combined_cells_confound_the_treatments(self, additive):
        """With every treated cell combined, X = W: no analysis solves."""
        grid = DesignGrid([[C, B, B], [C, C, B], [C, C, C]])
        for solve in (closed_form_covariance, oracle_covariance):
            with pytest.raises(RankDeficiencyError):
                solve(grid, std_cs(), additive)

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
        labels, cov, errors = closed_form_stack(
            grid, np.array([cs.diag, self.HUGE.diag]), np.array([cs.offdiag, self.HUGE.offdiag]))
        assert errors == {}
        for k, entries in enumerate((cs, self.HUGE)):
            assert np.array(cov)[..., k].tobytes() == \
                closed_form_covariance(grid, entries).matrix.tobytes()

    def test_stack_bits_do_not_depend_on_how_sum_adds_floats(self, monkeypatch):
        # from Python 3.12 the built-in sum compensates the rounding of float
        # additions, never of array additions; under a stand-in that always
        # does, every point still gets the bits of the stack
        def compensated(items, start=0):
            items = list(items)
            if all(type(x) is float for x in items):
                return math.fsum([start, *items])
            return builtins.sum(items, start)

        monkeypatch.setattr(variance, "sum", compensated, raising=False)
        rho_w = np.linspace(0.01, 0.99, 50)
        for name in ("fig2b", "fig8-design2"):
            grid = catalog_design(name)
            _, cov, _ = closed_form_stack(grid, np.ones(len(rho_w)), rho_w)
            for k, rho in enumerate(rho_w.tolist()):
                cs = CompoundSymmetry(1.0, rho)
                assert np.array(cov)[..., k].tobytes() == \
                    closed_form_covariance(grid, cs).matrix.tobytes()

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

    def test_stack_keeps_every_point_at_its_input_index(self):
        # fig5b's interaction variance exceeds the diagonal entry, so its
        # covariance overflows near the float maximum
        grid = catalog_design("fig5b")
        cs = std_cs()
        diag, offdiag = [cs.diag, 1.79e308, 5e-324], [cs.offdiag, 0.0, 0.0]
        labels, cov, errors = closed_form_stack(grid, np.array(diag), np.array(offdiag))
        stack = np.array(cov)
        assert stack.shape == (3, 3, 3)
        assert {k: (type(exc), str(exc)) for k, exc in errors.items()} == {
            1: (ParameterError, "covariance of the effect estimates is not finite: the "
                "covariance entries (diagonal 1.79e+308, off-diagonal 0) are too large or "
                "too small to represent"),
            2: (ParameterError, "a variance of the effect estimates underflows to 0: the "
                "covariance entries (diagonal 4.94066e-324, off-diagonal 0) are too large or "
                "too small to represent"),
        }
        assert stack[..., 0].tobytes() == closed_form_covariance(grid, cs).matrix.tobytes()
        # each point, solved or not, gets the entries and the error it gets on its own
        for k, point in enumerate(zip(diag, offdiag)):
            _, alone, alone_errors = closed_form_stack(grid, *point)
            assert np.array(alone).tobytes() == stack[..., k].tobytes()
            assert [(type(exc), str(exc)) for exc in alone_errors.values()] == \
                ([(type(errors[k]), str(errors[k]))] if k in errors else [])

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

    @settings(deadline=None, max_examples=100)
    @given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
    def test_cluster_permutation_invariance(self, seed, model):
        # the design enters through integer sums, which no cluster order moves
        rng = np.random.default_rng(seed)
        grid = random_grid(rng)
        correlation = random_correlation(rng, model)
        effects = EffectSpec(**{f"delta{k + 1}": 0.3 for k, label in enumerate(EFFECT_LABELS)
                                if label in active_effects(grid)})
        permuted = grid.permute_clusters(rng.permutation(grid.n_clusters).tolist())

        def rows(g):
            return [(row.label, row.se.hex(), row.power.hex())
                    for row in design_power(g, correlation, effects).rows]
        assert rows(permuted) == rows(grid)

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
            alone = [contrast_variances(c, m.tolist())[0].hex() for m in stack]
            columns = np.moveaxis(stack, 0, -1)
            assert alone == [v.hex() for v in contrast_variances(c, columns)[0].tolist()]

    def test_unit_vector_recovers_variance(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        var, errors = contrast_variances((1.0, 0.0), cov.matrix.tolist())
        assert errors == {}
        assert var == pytest.approx(cov.matrix[0, 0])

    def test_difference_identity_on_symmetric_design(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        assert cov.labels == ("trt1", "trt2")
        expected = 2.0 * (cov.matrix[0, 0] - cov.matrix[0, 1])
        var, _ = contrast_variances((1.0, -1.0), cov.matrix.tolist())
        assert var == pytest.approx(expected, rel=1e-12)

    def test_concurrent_beats_factorial_for_treatment_comparison(self):
        cs = std_cs(rho_w=0.15, n=15)
        concurrent = closed_form_covariance(catalog_design("fig2b"), cs)
        factorial = closed_form_covariance(catalog_design("fig5a"), cs, additive=True)
        columns = np.stack([concurrent.matrix, factorial.matrix], axis=-1)
        (v_concurrent, v_factorial), errors = contrast_variances((1.0, -1.0), columns)
        assert errors == {}
        assert v_concurrent < v_factorial

    def test_bad_contrasts_are_parameter_errors(self):
        cov = closed_form_covariance(catalog_design("fig2b"), std_cs())
        with pytest.raises(ParameterError, match="contrast length 3 does not match"):
            contrast_variances((1.0, -1.0, 0.0), cov.matrix.tolist())
        # a variance that gives no standard error fails its point, not the call
        _, errors = contrast_variances((1e300, 1e300), cov.matrix.tolist())
        assert "not finite" in str(errors[0])
        _, errors = contrast_variances((0.0, 0.0), cov.matrix.tolist())
        assert "not positive, got 0" in str(errors[0])

    def test_contrast_variance_against_manual_expansion(self):
        rng = np.random.default_rng(14)
        cov = closed_form_covariance(catalog_design("fig8-design2"), std_cs())
        for _ in range(10):
            c = rng.normal(size=3)
            manual = sum(
                c[i] * c[j] * cov.matrix[i, j] for i in range(3) for j in range(3)
            )
            var, _ = contrast_variances(c, cov.matrix.tolist())
            assert var == pytest.approx(manual, rel=1e-12)


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


def hussey_hughes(grid, cs):
    """The treatment variance of a single-treatment grid by Hussey & Hughes
    (2007, Contemp. Clin. Trials 28:182), evaluated exactly:

        I*s_c*(s_c + T*s_a) / ((I*U - W)*s_c + (U^2 + I*T*U - T*W - I*V)*s_a)

    with s_c = diag - offdiag and s_a = offdiag of the cluster-mean
    covariance, U the treated cells, W the sum of squared period totals and
    V the sum of squared cluster totals.
    """
    x = grid.to_codes()
    i, t = grid.n_clusters, grid.n_periods
    u = sum(map(sum, x))
    w = sum(sum(period) ** 2 for period in zip(*x))
    v = sum(sum(cluster) ** 2 for cluster in x)
    s_c, s_a = Fraction(cs.diag) - Fraction(cs.offdiag), Fraction(cs.offdiag)
    return (i * s_c * (s_c + t * s_a)
            / ((i * u - w) * s_c + (u * u + i * t * u - t * w - i * v) * s_a))


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), model=st.sampled_from(MODELS))
def test_single_treatment_variance_is_hussey_and_hughes(seed, model):
    """The 1x1 closed-form variance of a single-treatment grid is Hussey &
    Hughes, evaluated exactly."""
    rng = np.random.default_rng(seed)
    grid = random_single_treatment_grid(rng, max_clusters=40, max_periods=12)
    cs = random_correlation(rng, model).cov_entries()
    expected = float(hussey_hughes(grid, cs))
    cov = closed_form_covariance(grid, cs)
    assert cov.labels == ("trt1",)
    assert abs(cov.matrix[0, 0] - expected) <= 1e-12 * expected


ENVELOPE_RHO_W = (1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.3, 0.5, 0.9, 0.99, 0.9999, 0.999999)


@pytest.mark.parametrize("sequences, clusters", [(3, 2), (11, 4), (29, 6), (59, 8)])
def test_closed_form_accuracy_envelope(sequences, clusters):
    """Standard wedges up to T = 60 and I = 472, n from 1 to 10^6 and rho_w
    from 1e-6 to 0.999999 under every model stay within 1e-13 relative of
    Hussey & Hughes evaluated exactly from the float entries (the README
    states the measured envelope)."""
    grid = generate_standard_swd(sequences, clusters)
    worst = 0.0
    for n in (1, 15, 10**3, 10**6):
        for rho_w in ENVELOPE_RHO_W:
            specs = [dict(model=CovarianceModel.CROSS_SECTIONAL)]
            specs += [dict(model=CovarianceModel.COHORT, pi=pi) for pi in (0.5, 0.999)]
            specs += [dict(model=CovarianceModel.NESTED_EXCHANGEABLE, rho_a=rho_a)
                      for rho_a in (rho_w / 2, 0.999999 * rho_w)]
            for spec in specs:
                cs = CorrelationSpec(n_per_period=n, rho_w=rho_w, **spec).cov_entries()
                exact = hussey_hughes(grid, cs)
                got = closed_form_covariance(grid, cs).matrix[0, 0]
                worst = max(worst, float(abs(Fraction(got) - exact) / exact))
    assert worst <= 1e-13


def _solve(m, rhs):
    """m^-1 rhs for a square matrix ``m`` and a matrix ``rhs`` (lists of
    rows), exactly, by Gauss-Jordan elimination."""
    n = len(m)
    rows = [list(a) + list(b) for a, b in zip(m, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return [row[n:] for row in rows]


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def exact_covariance(grid, cs, labels):
    """Covariance of the ``labels`` effects by dense GLS, exactly in
    fractions from the float entries of ``cs`` and the raw codes.

    Every cluster's block is Z = [F | X]: F the intercept and indicators of
    periods 1..T-1, the same for all clusters, and X its treatment columns.
    The precision sum of Z' V^-1 Z is assembled blockwise over the distinct
    rows of the design weighted by their counts, and the intercept and
    period effects are profiled out of it by its Schur complement.
    """
    t = grid.n_periods
    effects = [EFFECT_LABELS.index(label) for label in labels]
    identity = [[int(j == m) for m in range(t)] for j in range(t)]
    v = [[Fraction(cs.diag if j == m else cs.offdiag) for m in range(t)] for j in range(t)]
    v_inv = _solve(v, identity)
    fixed = [[1] + identity[j][:-1] for j in range(t)]
    ft_v_inv = _product(_transpose(fixed), v_inv)
    fixed_block = [[grid.n_clusters * x for x in row] for row in _product(ft_v_inv, fixed)]
    cross = [[0] * len(effects) for _ in range(t)]
    treat = [[0] * len(effects) for _ in effects]
    for row, count in Counter(map(tuple, grid.to_codes())).items():
        x = [[(code & 1, code >> 1, code & 1 & (code >> 1))[e] for e in effects] for code in row]
        for total, block in ((cross, _product(ft_v_inv, x)),
                             (treat, _product(_transpose(x), _product(v_inv, x)))):
            for total_row, block_row in zip(total, block):
                total_row[:] = [a + count * b for a, b in zip(total_row, block_row)]
    profiled = _product(_transpose(cross), _solve(fixed_block, cross))
    schur = [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(treat, profiled)]
    return _solve(schur, [[int(i == j) for j in effects] for i in effects])


def relative_errors(matrix, exact):
    """Each entry's error relative to the geometric mean of its two exact
    variances: relative error on the diagonal, in correlation units off it."""
    n = len(exact)
    return [float(abs(Fraction(matrix[i, j]) - exact[i][j])) /
            math.sqrt(exact[i][i] * exact[j][j]) for i in range(n) for j in range(n)]


@pytest.mark.parametrize("design_id, additive, labels", [
    ("fig2b", False, ("trt1", "trt2")),
    ("fig5b", True, ("trt1", "trt2")),
    ("fig8-design2", False, ("trt1", "trt2", "interaction")),
])
def test_two_treatment_accuracy_envelope(design_id, additive, labels):
    """2x2 and 3x3 covariances for n from 1 to 10^6 and rho_w from 1e-6 to
    0.999999 under every model stay within 1e-13 of the dense GLS
    covariance evaluated exactly from the float entries (the README states
    the measured envelope)."""
    grid = catalog_design(design_id)
    worst = 0.0
    for n in (1, 15, 10**6):
        for rho_w in (1e-6, 0.01, 0.3, 0.99, 0.999999):
            specs = [dict(model=CovarianceModel.CROSS_SECTIONAL)]
            specs += [dict(model=CovarianceModel.COHORT, pi=pi) for pi in (0.5, 0.999)]
            specs += [dict(model=CovarianceModel.NESTED_EXCHANGEABLE, rho_a=rho_a)
                      for rho_a in (rho_w / 2, 0.999999 * rho_w)]
            for spec in specs:
                cs = CorrelationSpec(n_per_period=n, rho_w=rho_w, **spec).cov_entries()
                cov = closed_form_covariance(grid, cs, additive)
                assert cov.labels == labels
                worst = max(worst, *relative_errors(cov.matrix,
                                                    exact_covariance(grid, cs, labels)))
    assert worst <= 1e-13


def _int_det(m):
    return m[0][0] if len(m) == 1 else sum(
        (-1) ** j * x * _int_det([row[:j] + row[j + 1:] for row in m[1:]])
        for j, x in enumerate(m[0]))


def centred_gram_det(codes, labels):
    """det(A) of the effects ``labels``, A = I * sum over cells of x x' minus
    the sum over periods of (period total)(period total)', in integers from
    the raw codes."""
    effects = [EFFECT_LABELS.index(label) for label in labels]
    cells = [[[(code & 1, code >> 1, code & 1 & (code >> 1))[e] for e in effects]
              for code in row] for row in codes]
    n = len(effects)
    gram = [[sum(x[k] * x[l] for row in cells for x in row) for l in range(n)]
            for k in range(n)]
    totals = [[sum(row[t][k] for row in cells) for k in range(n)] for t in range(len(codes[0]))]
    return _int_det([[len(codes) * gram[k][l] - sum(p[k] * p[l] for p in totals)
                      for l in range(n)] for k in range(n)])


def float_rank_rule(grid, labels, diag, offdiag):
    """The floating-point rank check the closed form once ran at every
    point: its accept mask, and for each rejected point the effect and
    condition estimate of its error."""
    active = [EFFECT_LABELS.index(label) for label in labels]
    exponent = np.frexp(diag)[1]
    sig_a = np.ldexp(offdiag, -exponent)
    s = information_stack(grid, np.ldexp(diag, -exponent) - sig_a, sig_a)
    s = s[:, active][:, :, active]
    eigvals = np.linalg.eigvalsh(s)
    top = np.abs(eigvals).max(axis=-1)
    well = (top > 0.0) & (eigvals[:, 0] > top / 1e12)
    nulls = np.linalg.eigh(s[~well])[1][:, :, 0]
    rejected = {k: (labels[int(np.argmax(np.abs(null)))], np.inf if low <= 0 else high / low)
                for k, null, low, high in zip(np.flatnonzero(~well).tolist(), nulls,
                                              eigvals[~well, 0].tolist(), top[~well].tolist())}
    return well, rejected


@st.composite
def monotone_grids(draw):
    """Codes of 1-8 clusters over 2-6 periods, each treatment starting in
    any period or never: always- and never-treated clusters included."""
    periods = draw(st.integers(2, 6))
    starts = draw(st.lists(st.tuples(st.integers(0, periods), st.integers(0, periods)),
                           min_size=1, max_size=8))
    return [[(t >= one) + 2 * (t >= two) for t in range(periods)] for one, two in starts]


@settings(deadline=None, max_examples=300)
@given(codes=monotone_grids(), additive=st.booleans(), model=st.sampled_from(MODELS),
       n=st.sampled_from([1, 15, 10**6]), second=st.floats(0.0, 1.0),
       rho_w=st.lists(st.one_of(st.floats(0.0, 0.999999),
                                st.sampled_from([0.0, 1e-6, 0.999999, 1.0 - 1e-15])),
                      min_size=1, max_size=6))
@example(codes=catalog_design("fig5a").to_codes(), additive=False,
         model=CovarianceModel.CROSS_SECTIONAL, n=40, second=0.0, rho_w=[0.2, 0.05])
def test_exact_estimability_rule(codes, additive, model, n, second, rho_w):
    """det(A) = 0 fails every point, with the error the float rank check
    gives at each point it rejects; det(A) != 0 fails no in-domain point,
    and each that the float rank check rejects is solved exactly."""
    grid = DesignGrid(codes)
    labels = active_effects(grid, additive)
    rho_w = np.array(rho_w)
    iccs = {"pi": np.full(len(rho_w), second)} if model is CovarianceModel.COHORT else \
        {"rho_a": second * rho_w} if model is CovarianceModel.NESTED_EXCHANGEABLE else {}
    _, diag, offdiag, _ = cluster_cov_stack(n, rho_w, **iccs)
    if not labels or not len(diag):
        return
    _, _, errors = closed_form_stack(grid, diag, offdiag, additive)
    well, rejected = float_rank_rule(grid, labels, diag, offdiag)
    if centred_gram_det(codes, labels) == 0:
        # rounding can leave an exactly singular matrix inside the float
        # rule's limit, where the float rule solved it: the condition is inf
        got = {k: (exc.effect, exc.condition) for k, exc in errors.items()
               if isinstance(exc, RankDeficiencyError)}
        assert got.keys() == set(range(len(diag)))
        assert {k: got[k] for k in rejected} == rejected
        assert all(got[k][1] == np.inf for k in np.flatnonzero(well).tolist())
        with pytest.raises(RankDeficiencyError) as one:
            closed_form_covariance(grid, CompoundSymmetry(diag[0], offdiag[0]), additive)
        assert (one.value.effect, one.value.condition) == got[0]
    else:
        assert not any(isinstance(exc, RankDeficiencyError) for exc in errors.values())
        # where an effect is constant within every cluster, B is singular and
        # a rho_w within about 1e-12 of 1 took the float rule past its limit:
        # the covariance is large but exact, and the closed form solves it
        for k in np.flatnonzero(~well).tolist():
            labels, cov, _ = closed_form_stack(grid, diag[k:k + 1], offdiag[k:k + 1], additive)
            cs = CompoundSymmetry(diag[k], offdiag[k])
            assert max(relative_errors(np.array(cov)[..., 0],
                                       exact_covariance(grid, cs, labels))) <= 1e-13


def test_the_oracle_keeps_the_condition_limit():
    """The oracle judges estimability by CONDITION_LIMIT, not by det(A): with
    an effect constant within every cluster, a rho_w within 1e-15 of 1 takes
    its precision past the limit at a point the closed form solves exactly,
    while a design with det(A) = 0 fails both."""
    grid = DesignGrid([[T1, T1], [C, T2]])
    cs = CompoundSymmetry(1.0, 0.999999999999999)
    closed = closed_form_covariance(grid, cs)
    assert max(relative_errors(closed.matrix, exact_covariance(grid, cs, closed.labels))) <= 1e-13
    with pytest.raises(RankDeficiencyError) as oracle:
        oracle_covariance(grid, cs)
    assert oracle.value.condition > CONDITION_LIMIT
    for solve in (closed_form_covariance, oracle_covariance):
        with pytest.raises(RankDeficiencyError) as singular:
            solve(DesignGrid([[T1, T1]]), CompoundSymmetry(1.0, 0.5))
        assert singular.value.effect == "trt1"


def test_the_oracle_reports_a_cluster_covariance_too_near_singular_to_factor():
    """A cluster covariance positive definite in exact arithmetic, but whose
    float Cholesky factorization fails, is a RankDeficiencyError naming the
    cluster covariance, not numpy's LinAlgError; the closed form solves it."""
    grid = DesignGrid([[C, T2, T2, T2, T2, B], [C, C, C, T1, T1, T1],
                       [T2, T2, B, B, B, B], [C, C, T2, T2, T2, B]])
    cs = CompoundSymmetry(0.9999999999999991, 0.999999999999999)
    closed = closed_form_covariance(grid, cs)
    assert max(relative_errors(closed.matrix, exact_covariance(grid, cs, closed.labels))) <= 1e-13
    with pytest.raises(RankDeficiencyError, match="^cluster covariance is numerically singular") \
            as oracle:
        oracle_covariance(grid, cs)
    assert oracle.value.effect is None and oracle.value.condition > CONDITION_LIMIT


def _oracle_with_precisions(monkeypatch, grid, cs, additive=False):
    """The oracle's outcome, ``(effect, condition)`` of its
    RankDeficiencyError or None when it solves, and the precision matrices
    it took eigenvalues of."""
    precisions = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        precisions.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", recording)
        try:
            oracle_covariance(grid, cs, additive)
            outcome = None
        except RankDeficiencyError as exc:
            outcome = (exc.effect, exc.condition)
    return outcome, precisions


def _svd_verdict(grid, cs, labels, precisions):
    """The oracle's verdict, ``(effect, condition past the limit)`` or None,
    with the condition taken by SVD, as ``np.linalg.cond`` takes it, from
    the precision, or from the cluster covariance where none was formed."""
    if not precisions:
        return None, np.linalg.cond(dense_cluster_cov(cs, grid.n_periods)) > CONDITION_LIMIT
    [precision] = precisions
    singular = np.linalg.svd(precision, compute_uv=False)
    condition = singular[0] / singular[-1] if singular[-1] > 0 else np.inf
    if condition <= CONDITION_LIMIT:
        return None
    treat_part = np.abs(np.linalg.eigh(precision)[1][grid.n_periods:, 0])
    return labels[int(np.argmax(treat_part))], True


NEAR_ONE = CompoundSymmetry(1.0, 0.999999999999999)


@pytest.mark.parametrize("grid, cs, additive", [
    (catalog_design("fig5a"), std_cs(), False),
    (catalog_design("fig5a"), std_cs(), True),
    (catalog_design("fig2b"), NEAR_ONE, False),
    (DesignGrid([[T1, T1], [C, T2]]), NEAR_ONE, False),
    (DesignGrid([[T1, T1]]), CompoundSymmetry(1.0, 0.5), False),
    (DesignGrid([[C, T2, T2, T2, T2, B], [C, C, C, T1, T1, T1],
                 [T2, T2, B, B, B, B], [C, C, T2, T2, T2, B]]),
     CompoundSymmetry(0.9999999999999991, 0.999999999999999), False),
    (catalog_design("fig2b"), std_cs(), False),
])
def test_the_oracles_rank_test_agrees_with_the_svd(monkeypatch, grid, cs, additive):
    """The oracle's eigenvalue condition number gives the verdict, the
    effect and the side of CONDITION_LIMIT that the SVD gives."""
    outcome, precisions = _oracle_with_precisions(monkeypatch, grid, cs, additive)
    reference = _svd_verdict(grid, cs, active_effects(grid, additive), precisions)
    if reference is None:
        assert outcome is None
    else:
        effect, condition = outcome
        assert (effect, condition > CONDITION_LIMIT) == reference


def test_the_oracles_condition_is_the_svds(monkeypatch):
    """On well-conditioned designs the oracle's condition number, which it
    reports once the limit is lowered below it, is np.linalg.cond's."""
    monkeypatch.setattr(variance, "CONDITION_LIMIT", 1.0)
    rng = np.random.default_rng(34)
    for draw in range(12):
        grid = random_grid(rng, max_clusters=30, max_periods=8, min_clusters=3)
        cs = random_correlation(rng, MODELS[draw % 3]).cov_entries()
        (_, condition), [precision] = _oracle_with_precisions(monkeypatch, grid, cs)
        reference = np.linalg.cond(precision)
        assert reference < CONDITION_LIMIT
        assert condition == pytest.approx(reference, rel=1e-8)


def test_the_oracle_solves_without_an_svd(monkeypatch):
    """A solvable point takes no SVD: its rank test is the eigenvalue ratio."""
    def refuse(*args, **kwargs):
        raise AssertionError("svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    # and where np.linalg.cond looks svd up
    monkeypatch.setitem(inspect.unwrap(np.linalg.cond).__globals__, "svd", refuse)
    grid = catalog_design("fig8-design2")
    oracle = oracle_covariance(grid, std_cs())
    closed = closed_form_covariance(grid, std_cs())
    assert oracle.labels == EFFECT_LABELS
    assert_allclose(oracle.matrix, closed.matrix, rtol=1e-10)


@pytest.mark.parametrize("seed", [1, 2])
def test_the_closed_form_matches_the_oracle_at_the_largest_screen_size(seed):
    """At 300 clusters by 21 periods, design-screen's largest size, the
    closed form and the oracle agree within 1e-12 under every model; the
    oracle's treatment block sums 6,300 whitened products per entry."""
    rng = np.random.default_rng(seed)
    grid = random_grid(rng, max_clusters=300, max_periods=21, min_clusters=300,
                       min_periods=21, paths=EFFECT_PATHS[3])
    assert active_effects(grid) == EFFECT_LABELS
    for spec in (
        CorrelationSpec(model=MODELS[0], n_per_period=20, rho_w=0.05),
        CorrelationSpec(model=MODELS[1], n_per_period=20, rho_w=0.05, pi=0.4),
        CorrelationSpec(model=MODELS[2], n_per_period=20, rho_w=0.05, rho_a=0.025),
    ):
        closed = closed_form_covariance(grid, spec.cov_entries())
        oracle = oracle_covariance(grid, spec.cov_entries())
        assert closed.labels == oracle.labels == EFFECT_LABELS
        gap = np.abs(closed.matrix - oracle.matrix).max() / np.abs(oracle.matrix).max()
        assert gap <= 1e-12


@pytest.mark.parametrize("periods", [2, 7, 21, 255, 256, 300])
def test_design_sums_are_exact_for_any_number_of_periods(periods):
    """The byte-wise design sums equal plain sums over the cells, also when
    a cluster total passes 255 and the sums need lanes of two bytes."""
    rng = np.random.default_rng(periods)
    for rows in (rng.integers(0, 4, (7, periods)).tolist(),
                 [[3] * periods, [1] * periods, [0] * (periods - 1) + [2], [2, 3] * (periods // 2)
                  + [1] * (periods % 2)]):
        stack = [[[c & 1 for c in row] for row in rows], [[c >> 1 for c in row] for row in rows],
                 [[c & 1 & c >> 1 for c in row] for row in rows]]
        cells = [[cell for row in indicator for cell in row] for indicator in stack]
        cluster = [[sum(row) for row in indicator] for indicator in stack]
        cols = [[sum(column) for column in zip(*indicator)] for indicator in stack]
        expected = ([[sum(map(operator.mul, a, b)) for b in cells] for a in cells],
                    [[sum(map(operator.mul, a, b)) for b in cluster] for a in cluster],
                    cols, [sum(col) for col in cols])
        assert variance._design_sums(DesignGrid(rows)) == expected
