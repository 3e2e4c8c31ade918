import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from swedge.covariance import (
    CompoundSymmetry,
    CorrelationSpec,
    CovarianceModel,
    ParameterError,
    RawComponents,
    SingularCovarianceError,
    standardize,
)

CS = CovarianceModel.CROSS_SECTIONAL
COHORT = CovarianceModel.COHORT
NESTED = CovarianceModel.NESTED_EXCHANGEABLE


def icc_entries(model, n, **iccs):
    return CorrelationSpec(model=model, n_per_period=n, **iccs).cov_entries()


def raw_entries(raw, model, n):
    return CorrelationSpec(model=model, n_per_period=n, raw=raw).cov_entries()


class TestClusterCovEntries:
    def test_cross_sectional_direct_substitution(self):
        cs = icc_entries(CS, 15, rho_w=0.2)
        assert cs.diag == pytest.approx(0.2 + 0.8 / 15, abs=1e-15)
        assert cs.offdiag == 0.2

    def test_cohort_pi_zero_reduces_to_cross_sectional(self):
        for rho_w, n in [(0.0, 1), (0.1, 15), (0.5, 7), (0.85, 50)]:
            base = icc_entries(CS, n, rho_w=rho_w)
            cohort = icc_entries(COHORT, n, rho_w=rho_w, pi=0.0)
            assert cohort.diag == base.diag
            assert cohort.offdiag == base.offdiag

    def test_nested_rho_a_equal_rho_w_reduces_to_cross_sectional(self):
        for rho_w, n in [(0.1, 15), (0.5, 7), (0.85, 50)]:
            base = icc_entries(CS, n, rho_w=rho_w)
            nested = icc_entries(NESTED, n, rho_w=rho_w, rho_a=rho_w)
            assert nested.diag == base.diag
            assert nested.offdiag == base.offdiag

    def test_cohort_offdiagonal_formula(self):
        cs = icc_entries(COHORT, 10, rho_w=0.2, pi=0.5)
        assert cs.offdiag == pytest.approx(0.2 + 0.5 * 0.8 / 10, abs=1e-15)

    def test_full_iac_with_single_individual_is_singular(self):
        with pytest.raises(SingularCovarianceError):
            icc_entries(COHORT, 1, rho_w=0.2, pi=1.0)

    def test_bad_n(self):
        with pytest.raises(ParameterError):
            icc_entries(CS, 0, rho_w=0.2)


class TestStandardize:
    def test_cross_sectional(self):
        params = standardize(RawComponents(sigma_alpha_sq=1.0, sigma_e_sq=3.0), CS)
        assert params.keys() == {"rho_w"}
        assert params["rho_w"] == pytest.approx(0.25, abs=1e-15)

    def test_cohort(self):
        raw = RawComponents(sigma_alpha_sq=1.0, sigma_psi_sq=1.0, sigma_e_sq=2.0)
        params = standardize(raw, COHORT)
        assert params["rho_w"] == pytest.approx(0.25, abs=1e-15)
        assert params["pi"] == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_nested_exchangeable(self):
        raw = RawComponents(sigma_alpha_sq=2.0, sigma_nu_sq=1.0, sigma_e_sq=1.0)
        params = standardize(raw, NESTED)
        assert params["rho_w"] == pytest.approx(0.75, abs=1e-15)
        assert params["rho_a"] == pytest.approx(0.5, abs=1e-15)
        cac = params["rho_a"] / params["rho_w"]
        assert cac == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_rejects_inapplicable_components(self):
        raw = RawComponents(sigma_alpha_sq=1.0, sigma_psi_sq=1.0, sigma_e_sq=2.0)
        with pytest.raises(ParameterError):
            standardize(raw, CS)
        raw = RawComponents(sigma_alpha_sq=1.0, sigma_nu_sq=1.0, sigma_e_sq=2.0)
        with pytest.raises(ParameterError):
            standardize(raw, COHORT)


class TestRawCovEntries:
    def test_independent_cluster_periods(self):
        raw = RawComponents(sigma_alpha_sq=0.0, sigma_e_sq=2.0)
        cs = raw_entries(raw, CS, 4)
        assert cs.offdiag == 0.0
        assert cs.diag == pytest.approx(0.5, abs=1e-15)

    def test_cohort_direct_substitution(self):
        raw = RawComponents(sigma_alpha_sq=1.0, sigma_psi_sq=2.0, sigma_e_sq=4.0)
        cs = raw_entries(raw, COHORT, 2)
        assert cs.diag == pytest.approx(4.0, abs=1e-15)
        assert cs.offdiag == pytest.approx(2.0, abs=1e-15)

    def test_nested_adds_cluster_period_variance_to_diagonal(self):
        raw = RawComponents(sigma_alpha_sq=1.0, sigma_nu_sq=0.5, sigma_e_sq=2.0)
        cs = raw_entries(raw, NESTED, 4)
        assert cs.diag == pytest.approx(1.0 + 0.5 + 0.5, abs=1e-15)
        assert cs.offdiag == 1.0

    @pytest.mark.parametrize("model", [CS, COHORT, NESTED])
    def test_scaling_consistency_with_standardized_path(self, model):
        # raw entries divided by the total variance must equal the entries
        # computed from the standardized parameters
        from designgen import random_raw_components

        rng = np.random.default_rng(42)
        for _ in range(200):
            raw = random_raw_components(rng, model)
            n = int(rng.integers(1, 51))
            raw_cs = raw_entries(raw, model, n)
            std_cs = icc_entries(model, n, **standardize(raw, model))
            total = raw.total_variance
            assert raw_cs.diag / total == pytest.approx(std_cs.diag, rel=1e-12)
            assert raw_cs.offdiag / total == pytest.approx(std_cs.offdiag, rel=1e-12, abs=1e-15)


# Raw components from zero and the subnormals to near the float maximum.
components = st.one_of(st.sampled_from([0.0, 5e-324, 1e-320, 1e308]),
                       st.floats(0.0, 1e308))
# Each model's raw entries as it summed them on its own, term by term, and
# the component it adds to the cross-sectional model's two.
PER_MODEL = {
    CS: (None, lambda a, e, extra, n: (a + e / n, a)),
    COHORT: ("sigma_psi_sq", lambda a, e, psi, n: (a + e / n + psi / n, a + psi / n)),
    NESTED: ("sigma_nu_sq", lambda a, e, nu, n: (a + e / n + nu, a)),
}


@given(model=st.sampled_from(list(CovarianceModel)), alpha=components,
       e=components.filter(lambda e: e > 0), extra=components,
       n=st.one_of(st.integers(1, 100), st.integers(1, 10**300)))
@example(model=COHORT, alpha=0.1, e=0.7, extra=0.3, n=3)
@example(model=NESTED, alpha=0.1, e=0.7, extra=0.3, n=3)
def test_raw_entries_are_each_models_sums_bit_for_bit(model, alpha, e, extra, n):
    name, sums = PER_MODEL[model]
    given_extra = {name: extra} if name else {}
    raw = RawComponents(sigma_alpha_sq=alpha, sigma_e_sq=e, **given_extra)
    spec = CorrelationSpec(model=model, n_per_period=n, raw=raw)
    info = spec.describe()
    assert list(info) == ["model", "n_per_period", "sigma_alpha_sq", "sigma_e_sq",
                          *given_extra, "sigma_y_sq"]
    assert info == {"model": model.value, "n_per_period": n, "sigma_alpha_sq": alpha,
                    "sigma_e_sq": e, **given_extra, "sigma_y_sq": raw.total_variance}
    diag, offdiag = sums(alpha, e, extra, float(n))
    try:
        expected = CompoundSymmetry(diag, offdiag)
    except ParameterError as exc:
        with pytest.raises(type(exc)) as raised:
            spec.cov_entries()
        assert str(raised.value) == str(exc)
        return
    entries = spec.cov_entries()
    assert (entries.diag.hex(), entries.offdiag.hex()) == \
        (expected.diag.hex(), expected.offdiag.hex())


class TestDomains:
    def test_diag_always_exceeds_offdiag(self):
        from designgen import random_correlation

        rng = np.random.default_rng(7)
        for model in (CS, COHORT, NESTED):
            for _ in range(100):
                spec = random_correlation(rng, model)
                cs = spec.cov_entries()
                assert cs.diag > cs.offdiag >= 0.0

    def test_rho_w_domain(self):
        with pytest.raises(ParameterError):
            CorrelationSpec(model=CS, n_per_period=10, rho_w=1.0)
        with pytest.raises(ParameterError):
            CorrelationSpec(model=CS, n_per_period=10, rho_w=-0.01)

    @pytest.mark.parametrize("zero", [-0.0, np.float32(-0.0), np.float64(-0.0)])
    def test_a_zero_is_read_as_plus_zero(self, zero):
        spec = CorrelationSpec(model=NESTED, n_per_period=10, rho_w=zero, rho_a=zero)
        raw = RawComponents(sigma_alpha_sq=zero, sigma_e_sq=1.0, sigma_nu_sq=zero)
        for value in (spec.rho_w, spec.rho_a, raw.sigma_alpha_sq, raw.sigma_nu_sq):
            assert type(value) is float and math.copysign(1.0, value) == 1.0

    def test_nested_ordering_enforced(self):
        with pytest.raises(ParameterError):
            CorrelationSpec(model=NESTED, n_per_period=10, rho_w=0.1, rho_a=0.2)

    def test_compound_symmetry_rejects_singular(self):
        with pytest.raises(SingularCovarianceError):
            CompoundSymmetry(diag=1.0, offdiag=1.0)
        with pytest.raises(ParameterError):
            CompoundSymmetry(diag=1.0, offdiag=-0.1)

    def test_negative_components_rejected(self):
        with pytest.raises(ParameterError):
            RawComponents(sigma_alpha_sq=-1.0, sigma_e_sq=1.0)
        with pytest.raises(ParameterError):
            RawComponents(sigma_alpha_sq=1.0, sigma_e_sq=0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "name", ["sigma_alpha_sq", "sigma_e_sq", "sigma_psi_sq", "sigma_nu_sq"]
    )
    def test_non_finite_components_rejected(self, name, bad):
        values = {"sigma_alpha_sq": 1.0, "sigma_e_sq": 1.0, name: bad}
        with pytest.raises(ParameterError, match="finite"):
            RawComponents(**values)


class TestCorrelationSpec:
    def test_exactly_one_parameterization(self):
        raw = RawComponents(sigma_alpha_sq=1.0, sigma_e_sq=3.0)
        with pytest.raises(ParameterError):
            CorrelationSpec(model=CS, n_per_period=10, rho_w=0.1, raw=raw)
        with pytest.raises(ParameterError):
            CorrelationSpec(model=CS, n_per_period=10)

    @pytest.mark.parametrize("model", ["cs", None, 0])
    def test_model_must_be_a_covariance_model(self, model):
        with pytest.raises(ParameterError, match="^model must be a CovarianceModel, got "):
            CorrelationSpec(model=model, n_per_period=10, rho_w=0.1)

    @pytest.mark.parametrize("n", [2.5, 10.0, True, "10", None])
    def test_n_per_period_must_be_an_integer(self, n):
        with pytest.raises(ParameterError, match="integer"):
            CorrelationSpec(model=CS, n_per_period=n, rho_w=0.1)

    def test_n_per_period_must_convert_to_a_float(self):
        with pytest.raises(ParameterError, match="too large to represent as a float"):
            CorrelationSpec(model=CS, n_per_period=10**309, rho_w=0.1)
        with pytest.raises(ParameterError, match="too large to represent as a float"):
            CorrelationSpec(model=CS, n_per_period=10**309,
                            raw=RawComponents(sigma_alpha_sq=1.0, sigma_e_sq=1.0))
        entries = CorrelationSpec(model=CS, n_per_period=10**308, rho_w=0.0).cov_entries()
        assert (entries.diag, entries.offdiag) == (1e-308, 0.0)

    def test_numpy_integer_n_per_period_accepted(self):
        spec = CorrelationSpec(model=CS, n_per_period=np.int64(10), rho_w=0.1)
        assert spec.cov_entries() == CorrelationSpec(model=CS, n_per_period=10,
                                                     rho_w=0.1).cov_entries()

    def test_with_icc_cannot_sweep_raw(self):
        raw = RawComponents(sigma_alpha_sq=1.0, sigma_e_sq=3.0)
        spec = CorrelationSpec(model=CS, n_per_period=10, raw=raw)
        with pytest.raises(ParameterError):
            spec.with_icc(rho_w=0.2)

    def test_with_icc_keeps_model_extras(self):
        spec = CorrelationSpec(model=COHORT, n_per_period=10, rho_w=0.1, pi=0.4)
        moved = spec.with_icc(rho_w=0.2)
        assert moved.rho_w == 0.2
        assert moved.pi == 0.4

    def test_describe_reports_sigma_y_for_raw(self):
        raw = RawComponents(sigma_alpha_sq=1.0, sigma_e_sq=3.0)
        spec = CorrelationSpec(model=CS, n_per_period=10, raw=raw)
        assert spec.describe()["sigma_y_sq"] == pytest.approx(4.0)
