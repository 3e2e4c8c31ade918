import math

import mpmath
import numpy as np
import pytest

from designgen import random_correlation, random_grid, random_raw_components
from swedge import power
from swedge.covariance import (
    CompoundSymmetry,
    CorrelationSpec,
    CovarianceModel,
    ParameterError,
    RawComponents,
    SingularCovarianceError,
    standardize,
)
from swedge.designs import DesignGrid, catalog_design
from swedge.power import (
    DEFAULT_RHO_GRID,
    ContrastSpec,
    EffectSpec,
    design_power,
    _critical_value,
    _two_sided_power,
    sweep,
    wald_power,
)
from swedge.variance import RankDeficiencyError, closed_form_covariance, information_matrix

CS = CovarianceModel.CROSS_SECTIONAL


def cs_spec(rho_w=0.1, n=15):
    return CorrelationSpec(model=CS, n_per_period=n, rho_w=rho_w)


def _reference_critical_value(alpha: float) -> mpmath.mpf:
    """The upper alpha/2 normal quantile at the working precision, from the
    exact alpha/2: Phi^-1(alpha/2) = sqrt(2) * erfinv(alpha - 1)."""
    return -mpmath.sqrt(2) * mpmath.erfinv(mpmath.mpf(alpha) - 1)


class TestWaldPower:
    def test_null_effect_gives_exactly_alpha(self):
        for alpha in (0.01, 0.05, 0.1, 0.317):
            assert wald_power(0.0, 0.5, alpha) == alpha

    def test_effect_at_critical_value(self):
        # shifted statistic sits on the boundary: power is one half plus
        # the sliver in the far tail
        alpha = 0.05
        with mpmath.workdps(40):
            z = float(_reference_critical_value(alpha))
            tail = float(mpmath.ncdf(-2 * z))
        power = wald_power(z, 1.0, alpha)
        assert power == pytest.approx(0.5 + tail, abs=1e-12)
        assert power == pytest.approx(0.5, abs=1e-3)

    def test_eighty_percent_point(self):
        # z_{0.975} + z_{0.80} = 1.95996 + 0.84162 = 2.80158
        assert wald_power(2.8016, 1.0, 0.05) == pytest.approx(0.80, abs=5e-5)

    def test_monotone_in_effect_and_se(self):
        effects = np.linspace(0.05, 2.0, 40)
        powers = [wald_power(e, 0.3, 0.05) for e in effects]
        assert all(b > a for a, b in zip(powers, powers[1:]))
        ses = np.linspace(0.05, 2.0, 40)
        powers = [wald_power(0.5, s, 0.05) for s in ses]
        assert all(b < a for a, b in zip(powers, powers[1:]))

    def test_sign_of_effect_is_irrelevant(self):
        assert wald_power(-0.4, 0.2, 0.05) == wald_power(0.4, 0.2, 0.05)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            wald_power(0.4, 0.0, 0.05)
        with pytest.raises(ValueError):
            wald_power(0.4, -1.0, 0.05)
        with pytest.raises(ValueError):
            wald_power(0.4, 1.0, 0.0)
        with pytest.raises(ValueError):
            wald_power(0.4, 1.0, 1.0)

    @pytest.mark.parametrize("alpha", [1e-300, 1e-17])
    @pytest.mark.parametrize("effect", [1.0, 0.0])
    def test_alpha_whose_quantile_rounds_away_is_rejected_for_any_effect(self, effect, alpha):
        # EffectSpec rejects the same alpha, so a zero effect does not return it
        with pytest.raises(ParameterError) as info:
            wald_power(effect, 1.0, alpha)
        assert str(info.value) == (f"alpha {alpha:g} is too small: 1 - alpha/2 rounds to 1, "
                                   "which has no normal quantile")
        with pytest.raises(ParameterError, match=f"^alpha {alpha:g} is too small"):
            EffectSpec(delta1=effect, alpha=alpha)

    @pytest.mark.parametrize("effect, se", [
        (float("nan"), 1.0), (float("inf"), 1.0), (-float("inf"), 1.0),
        (0.4, float("nan")), (0.4, float("inf")), (0.0, float("nan")),
    ])
    def test_non_finite_inputs_rejected(self, effect, se):
        with pytest.raises(ValueError, match="finite"):
            wald_power(effect, se, 0.05)

    def test_returns_plain_float(self):
        assert type(wald_power(0.4, 0.2, 0.05)) is float

    def test_power_bounded(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = wald_power(rng.uniform(0, 3), rng.uniform(0.01, 2), rng.uniform(0.005, 0.2))
            assert 0.0 < p <= 1.0


class TestNormalDistribution:
    """The scipy-free critical value and power against mpmath at 40 digits."""

    def test_quantile_matches_mpmath(self):
        smallest = math.nextafter(2.0 ** -53, 1.0)  # the least alpha with 1 - alpha/2 < 1
        alphas = [
            *np.geomspace(smallest, 1.0, 3001)[:-1].tolist(),
            *np.linspace(0.1, 1.0, 2001)[:-1].tolist(),
            # the alphas of the tests and of the benchmark's goldens (0.05 alone)
            0.01, 0.05, 0.1, 0.2, 0.317, 0.9, 1.0 - 1e-16, 2.2e-16, 2.3e-16, 3e-16, 4.5e-16,
            # the edge between the two Newton iterations, and of the domain
            math.nextafter(0.5, 0.0), 0.5, math.nextafter(0.5, 1.0), math.nextafter(1.0, 0.0),
        ]
        ours = np.array([_critical_value(alpha) for alpha in alphas])
        with mpmath.workdps(40):
            ref = np.array([float(_reference_critical_value(alpha)) for alpha in alphas])
        assert np.max(np.abs(ours - ref) / np.abs(ref)) <= 5e-16
        # 1.9599639845400543 is the correctly rounded value
        assert abs(_critical_value(0.05) - 1.9599639845400543) <= math.ulp(1.9599639845400543)
        with pytest.raises(ParameterError):
            _critical_value(2.0 ** -53)

    def test_power_matches_mpmath_formula(self):
        rng = np.random.default_rng(31)
        with mpmath.workdps(40):
            for _ in range(500):
                effect, se = rng.uniform(-3, 3), rng.uniform(0.01, 2)
                alpha = float(10 ** rng.uniform(-6, -0.3))
                crit = _reference_critical_value(alpha)
                shift = abs(mpmath.mpf(effect)) / se
                ref = float(mpmath.ncdf(shift - crit) + mpmath.ncdf(-shift - crit))
                assert wald_power(effect, se, alpha) == pytest.approx(ref, rel=1e-13, abs=1e-16)

    def test_power_of_a_column_is_the_sum_of_two_mpmath_cdfs(self):
        rng = np.random.default_rng(37)
        shifts = np.concatenate([rng.uniform(0, 40, 2000), 10 ** rng.uniform(-300, 3, 2000),
                                 [0.0, 1.959963984540054]])
        # the last critical value, of a tiny alpha, puts Phi(shift - crit) deep
        # in the lower tail for small shifts
        for crit in (1.959963984540054, 2.5758293035489004, 1.2815515655446004,
                     _critical_value(1e-15)):
            ours = _two_sided_power(shifts.tolist(), crit)
            with mpmath.workdps(40):
                ref = [float(mpmath.ncdf(mpmath.mpf(s) - crit) + mpmath.ncdf(-mpmath.mpf(s) - crit))
                       for s in shifts.tolist()]
            assert ours == pytest.approx(ref, rel=1e-13, abs=1e-16)

    def test_power_of_a_column_has_the_bits_of_the_scalar_formula(self):
        rng = np.random.default_rng(41)
        shifts = np.concatenate([rng.uniform(0, 40, 500), 10 ** rng.uniform(-320, 308, 500),
                                 [0.0, 5e-324, 37.5, 38.5, 1e308, np.inf]])
        root2 = math.sqrt(2.0)
        for alpha in (0.05, 0.01, 0.95):
            crit = _critical_value(alpha)
            scalar = [0.5 * math.erfc((crit - s) / root2) + 0.5 * math.erfc((s + crit) / root2)
                      for s in shifts.tolist()]
            for column in (shifts, shifts.tolist()):
                ours = _two_sided_power(column, crit)
                assert np.array(ours).tobytes() == np.array(scalar).tobytes()


class TestEffectSpec:
    def test_requires_something(self):
        with pytest.raises(ParameterError):
            EffectSpec()

    def test_alpha_domain(self):
        with pytest.raises(ParameterError):
            EffectSpec(delta1=0.4, alpha=0.0)

    def test_one_point_solves_for_the_critical_value_once(self, monkeypatch):
        calls = []

        def counting(alpha):
            calls.append(alpha)
            return _critical_value(alpha)

        monkeypatch.setattr(power, "_critical_value", counting)
        design_power(catalog_design("fig2b"), cs_spec(), EffectSpec(delta1=0.4, alpha=0.01))
        assert calls == [0.01]
        wald_power(0.4, 0.1, 0.02)
        assert calls == [0.01, 0.02]

    def test_additive_conflicts_with_interaction_size(self):
        with pytest.raises(ParameterError):
            EffectSpec(delta3=0.4, additive=True)

    @pytest.mark.parametrize("additive", ["no", "", 1, 0.0, None])
    def test_additive_must_be_a_bool(self, additive):
        grid = DesignGrid(catalog_design("fig8-design2").to_codes())
        with pytest.raises(ParameterError, match="^additive must be a bool, got "):
            design_power(grid, cs_spec(), EffectSpec(delta1=0.4, additive=additive))
        assert grid.forms == {}

    def test_numpy_bool_additive_is_kept_as_a_python_bool(self):
        grid = catalog_design("fig8-design2")
        spec = EffectSpec(delta1=0.4, additive=np.bool_(True))
        assert type(spec.additive) is bool and spec.additive
        assert spec == EffectSpec(delta1=0.4, additive=True)
        assert design_power(grid, cs_spec(), spec) == \
            design_power(grid, cs_spec(), EffectSpec(delta1=0.4, additive=True))

    @pytest.mark.parametrize("contrasts", [("d",), [None], 5, "d",
                                           ContrastSpec(label="d", weights=(1.0, -1.0))])
    def test_contrasts_must_be_contrast_specs(self, contrasts):
        with pytest.raises(ParameterError, match="^contrasts must be a tuple of ContrastSpec"):
            EffectSpec(delta1=0.4, contrasts=contrasts)

    def test_contrasts_are_kept_as_a_tuple(self):
        spec = ContrastSpec(label="d", weights=(1.0, -1.0))
        assert EffectSpec(contrasts=[spec]).contrasts == (spec,)

    def test_contrast_weights_nonzero(self):
        with pytest.raises(ParameterError):
            ContrastSpec(label="null", weights=(0.0, 0.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_values_rejected(self, bad):
        for field in ("delta1", "delta2", "delta3"):
            with pytest.raises(ParameterError, match="finite"):
                EffectSpec(**{field: bad})
        with pytest.raises(ParameterError, match="finite"):
            ContrastSpec(label="c", weights=(bad, 1.0))
        with pytest.raises(ParameterError, match="finite"):
            ContrastSpec(label="c", weights=(1.0, -1.0), effect=bad)

    def test_overflowing_contrast_effect_rejected(self):
        spec = ContrastSpec(label="sum", weights=(1.0, 1.0))
        with pytest.raises(ParameterError, match="effect size is not finite"):
            design_power(catalog_design("fig2b"), cs_spec(),
                         EffectSpec(delta1=1e308, delta2=1e308, contrasts=(spec,)))

    @pytest.mark.parametrize("labels", [("trt1",), ("trt2",), ("interaction",), ("d", "e", "d")])
    def test_contrast_label_must_be_its_own(self, labels):
        contrasts = tuple(ContrastSpec(label=label, weights=(1.0, -1.0)) for label in labels)
        with pytest.raises(ParameterError, match=f"^contrast label {labels[-1]!r} repeats"):
            EffectSpec(delta1=0.4, contrasts=contrasts)

    def test_underflowing_contrast_variance_rejected(self):
        effects = EffectSpec(contrasts=(ContrastSpec("c", (1e-200, 0.0), effect=0.3),))
        message = "contrast variance is not positive, got 0 (weights [1e-200, 0.0])"
        with pytest.raises(ParameterError) as info:
            design_power(catalog_design("fig2b"), cs_spec(), effects)
        assert str(info.value) == message
        table = sweep(catalog_design("fig2b"), cs_spec(), effects, points=(0.1, 0.2))
        assert {k: (str(e), type(e)) for k, e in table.errors.items()} == \
            {0: (message, ParameterError), 1: (message, ParameterError)}


class TestDesignPower:
    def test_concurrent_design_symmetric_power(self):
        grid = catalog_design("fig2b")
        for rho_w in (0.01, 0.05, 0.1, 0.2, 0.3):
            res = design_power(grid, cs_spec(rho_w), EffectSpec(delta1=0.4, delta2=0.4))
            assert res.row("trt1").power == pytest.approx(res.row("trt2").power, abs=1e-14)

    def test_concurrent_beats_single_trial(self):
        fig1, fig2b = catalog_design("fig1"), catalog_design("fig2b")
        for rho_w in (0.01, 0.05, 0.1, 0.2):
            single = design_power(fig1, cs_spec(rho_w), EffectSpec(delta1=0.4))
            both = design_power(fig2b, cs_spec(rho_w), EffectSpec(delta1=0.4, delta2=0.4))
            gain = both.row("trt1").power - single.row("trt1").power
            assert 0.14 <= gain <= 0.20

    def test_all_control_design_errors(self):
        grid = DesignGrid([[0, 0, 0]] * 4)
        with pytest.raises(RankDeficiencyError):
            design_power(grid, cs_spec(), EffectSpec(delta1=0.4))

    def test_requesting_missing_effect_names_it(self):
        grid = catalog_design("fig2b")  # no combined condition
        with pytest.raises(RankDeficiencyError) as err:
            design_power(grid, cs_spec(), EffectSpec(delta3=0.4))
        assert err.value.effect == "interaction"

    def test_contrast_effect_defaults_to_weighted_deltas(self):
        grid = catalog_design("fig2b")
        spec = EffectSpec(
            delta1=0.5, delta2=0.1,
            contrasts=(ContrastSpec("diff", (1.0, -1.0)),),
        )
        res = design_power(grid, cs_spec(), spec)
        assert res.row("diff").effect == pytest.approx(0.4, rel=1e-12)

    def test_contrast_with_explicit_effect(self):
        grid = catalog_design("fig2b")
        spec = EffectSpec(
            delta1=0.4, delta2=0.4,
            contrasts=(ContrastSpec("diff", (1.0, -1.0), effect=0.4),),
        )
        res = design_power(grid, cs_spec(), spec)
        assert res.row("diff").effect == 0.4
        assert 0.0 < res.row("diff").power <= 1.0

    def test_contrast_without_effect_needs_deltas(self):
        grid = catalog_design("fig2b")
        spec = EffectSpec(contrasts=(ContrastSpec("diff", (1.0, -1.0)),))
        with pytest.raises(ParameterError):
            design_power(grid, cs_spec(), spec)

    def test_metadata_round_trip(self):
        res = design_power(catalog_design("fig1"), cs_spec(0.1, 15), EffectSpec(delta1=0.4))
        assert res.design_label == "fig1"
        assert res.metadata["rho_w"] == 0.1
        assert res.metadata["n_per_period"] == 15
        assert res.metadata["estimable_effects"] == ["trt1"]

    def test_scale_consistency_between_raw_and_standardized(self):
        # raw-scale effect theta with raw components gives the same power
        # as the standardized effect theta / sigma_y
        rng = np.random.default_rng(616)
        grid = catalog_design("fig2b")
        for model in (CS, CovarianceModel.COHORT, CovarianceModel.NESTED_EXCHANGEABLE):
            for _ in range(25):
                raw = random_raw_components(rng, model)
                n = int(rng.integers(1, 51))
                theta = float(rng.uniform(0.1, 2.0))
                sigma_y = np.sqrt(raw.total_variance)

                raw_spec = CorrelationSpec(model=model, n_per_period=n, raw=raw)
                raw_power = design_power(
                    grid, raw_spec, EffectSpec(delta1=theta, delta2=theta)
                ).row("trt1").power

                std_spec = CorrelationSpec(model=model, n_per_period=n,
                                           **standardize(raw, model))
                std_power = design_power(
                    grid, std_spec,
                    EffectSpec(delta1=theta / sigma_y, delta2=theta / sigma_y),
                ).row("trt1").power
                assert raw_power == pytest.approx(std_power, abs=1e-12)


class TestNumpyScalarInputs:
    """A numpy float16, float32 or float64 input is read as the Python float
    of its value, so it gives the bits that float gives, and a sweep gives
    at that point."""

    SECOND = {CS: {}, CovarianceModel.COHORT: {"pi": 0.4},
              CovarianceModel.NESTED_EXCHANGEABLE: {"rho_a": 0.05}}
    RAW = {CS: {}, CovarianceModel.COHORT: {"sigma_psi_sq": 0.3},
           CovarianceModel.NESTED_EXCHANGEABLE: {"sigma_nu_sq": 0.2}}
    EFFECTS = EffectSpec(delta1=0.4, delta2=0.4)

    @staticmethod
    def columns(result):
        return [(r.se.hex(), r.power.hex()) for r in result.rows]

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("model", list(CovarianceModel))
    def test_iccs(self, model, dtype):
        grid = catalog_design("fig2b")
        iccs = {name: dtype(v) for name, v in {"rho_w": 0.1, **self.SECOND[model]}.items()}
        floats = {name: float(v) for name, v in iccs.items()}
        spec = CorrelationSpec(model=model, n_per_period=15, **iccs)
        assert all(type(getattr(spec, name)) is float for name in iccs)
        result = design_power(grid, spec, self.EFFECTS)
        expected = design_power(grid, CorrelationSpec(model=model, n_per_period=15, **floats),
                                self.EFFECTS)
        assert self.columns(result) == self.columns(expected)
        point = tuple(iccs.values()) if len(iccs) == 2 else iccs["rho_w"]
        table = sweep(grid, spec, self.EFFECTS, points=[point])
        assert [(se.hex(), p.hex()) for se, p in zip(table.se[0].tolist(),
                                                     table.power[0].tolist())] == \
            self.columns(expected)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    @pytest.mark.parametrize("model", list(CovarianceModel))
    def test_raw_components(self, model, dtype):
        grid = catalog_design("fig2b")
        parts = {"sigma_alpha_sq": 0.1, "sigma_e_sq": 0.9, **self.RAW[model]}
        results = [design_power(grid, CorrelationSpec(
            model=model, n_per_period=15,
            raw=RawComponents(**{name: read(dtype(v)) for name, v in parts.items()})),
            self.EFFECTS) for read in (lambda v: v, float)]
        assert self.columns(results[0]) == self.columns(results[1])

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_covariance_entries(self, dtype):
        grid = catalog_design("fig2b")
        given = CompoundSymmetry(dtype(0.16), dtype(0.1))
        floats = CompoundSymmetry(float(dtype(0.16)), float(dtype(0.1)))
        assert given == floats and type(given.diag) is type(given.offdiag) is float
        assert closed_form_covariance(grid, given).matrix.tobytes() == \
            closed_form_covariance(grid, floats).matrix.tobytes()
        assert information_matrix(grid, given).tobytes() == \
            information_matrix(grid, floats).tobytes()

    def test_a_value_without_a_float_fails_as_it_did(self):
        for value in ("0.1", 10**400):  # not a number; an int beyond the float range
            with pytest.raises(TypeError if isinstance(value, str) else ParameterError):
                CorrelationSpec(model=CS, n_per_period=15, rho_w=value)
        with pytest.raises(TypeError):
            RawComponents(sigma_alpha_sq="0.1", sigma_e_sq=0.9)
        with pytest.raises(TypeError):
            CompoundSymmetry("0.16", 0.1)

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_effect_sizes_alpha_and_contrasts(self, dtype):
        # a contrast's default effect is the weighted sum of the effect sizes,
        # which float32 weights once computed in float32
        grid = catalog_design("fig2b")

        def effects(read):
            contrasts = (ContrastSpec("c", (read(dtype(0.3)), read(dtype(-1.1)))),
                         ContrastSpec("d", (1.0, read(dtype(1.0))), effect=read(dtype(0.2))))
            return EffectSpec(delta1=read(dtype(0.4)), delta2=read(dtype(0.3)),
                              alpha=read(dtype(0.05)), contrasts=contrasts)

        given, floats = effects(lambda v: v), effects(float)
        assert given == floats
        values = [given.delta1, given.delta2, given.alpha, given.contrasts[1].effect,
                  *given.contrasts[0].weights, *given.contrasts[1].weights]
        assert all(type(v) is float for v in values)

        def rows(result):
            return [(r.label, type(r.effect), r.effect.hex(), r.se.hex(), r.power.hex())
                    for r in result.rows]
        expected = rows(design_power(grid, cs_spec(), floats))
        assert rows(design_power(grid, cs_spec(), given)) == expected
        table = sweep(grid, cs_spec(), given, points=[0.1])
        assert [(label, type(size), size.hex(), se.hex(), p.hex()) for label, size, se, p in
                zip(table.labels, table.effects, table.se[0].tolist(),
                    table.power[0].tolist())] == expected


class TestSweep:
    def test_empty_grid_gives_empty_table(self):
        table = sweep(catalog_design("fig1"), cs_spec(), EffectSpec(delta1=0.4), points=())
        assert table.se.shape == table.power.shape == (0, 1)
        assert table.icc["rho_w"].shape == (0,) and table.errors == {}

    def test_rows_follow_input_order(self):
        points = (0.3, 0.1, 0.2)
        table = sweep(catalog_design("fig1"), cs_spec(), EffectSpec(delta1=0.4), points=points)
        assert table.icc["rho_w"].tolist() == [0.3, 0.1, 0.2]
        assert table.power.shape == (3, 1)

    def test_invalid_point_reported_with_index_others_computed(self):
        table = sweep(
            catalog_design("fig1"), cs_spec(), EffectSpec(delta1=0.4),
            points=(0.1, 1.5, 0.2),
        )
        assert not np.isnan(table.power[[0, 2]]).any()
        assert np.isnan(table.se[1]).all() and np.isnan(table.power[1]).all()
        assert list(table.errors) == [1]

    COHORT_TEMPLATE = CorrelationSpec(model=CovarianceModel.COHORT, n_per_period=15,
                                      rho_w=0.1, pi=0.4)
    RAW_TEMPLATE = CorrelationSpec(model=CS, n_per_period=15,
                                   raw=RawComponents(sigma_alpha_sq=1.0, sigma_e_sq=3.0))

    @pytest.mark.parametrize("template, points, message", [
        (cs_spec(), [0.1, ("x", 2), (0.1, 0.2)], "^sweep points must be a numeric [(]K,[)] array-like of rho_w values$"),
        (cs_spec(), [(0.1, 0.2)], "^cross-sectional sweep points are single rho_w values$"),
        (cs_spec(), np.zeros((0, 2)), "^cross-sectional sweep points are single rho_w values$"),
        (cs_spec(), [True, False], "rho_w values$"),
        (cs_spec(), ["0.1"], "rho_w values$"),
        (cs_spec(), [None], "rho_w values$"),
        (cs_spec(), 0.1, "rho_w values$"),
        (cs_spec(), np.array([0.1], dtype=object), "rho_w values$"),
        (cs_spec(), [1j], "rho_w values$"),
        (cs_spec(), [0.1, True], "^sweep points must be a numeric [(]K,[)] array-like of rho_w values$"),
        (cs_spec(), [np.float64(0.1), np.bool_(True)], "rho_w values$"),
        (COHORT_TEMPLATE, [(0.1, 0.5), ("x", 0.5), (0.1, None)],
         "or a [(]K, 2[)] array-like of [(]rho_w, pi[)] pairs$"),
        (COHORT_TEMPLATE, [0.1, (0.1, 0.5)], "pairs$"),
        (COHORT_TEMPLATE, [(0.1, True), (0.1, 0.5)], "pairs$"),
        (COHORT_TEMPLATE, np.zeros((2, 3)), "pairs$"),
        (COHORT_TEMPLATE, np.zeros((2, 1)), "pairs$"),
        (COHORT_TEMPLATE, np.zeros((2, 2, 2)), "pairs$"),
        (RAW_TEMPLATE, [0.1], "^cannot sweep correlations on a raw-component spec$"),
    ], ids=["cs-unreadable", "cs-pairs", "cs-empty-pairs", "bools", "strings", "none",
            "scalar", "object-array", "complex", "cs-bool-mixed", "cs-numpy-bool-mixed",
            "cohort-unreadable", "cohort-mixed", "cohort-bool-mixed", "cohort-k-by-3", "cohort-k-by-1", "cohort-3d", "raw-template"])
    def test_a_grid_that_is_not_numeric_k_or_k_by_2_raises_before_solving(
            self, monkeypatch, template, points, message):
        import swedge.power

        def unreachable(*args, **kwargs):
            raise AssertionError("a malformed grid reached the solver")

        monkeypatch.setattr(swedge.power, "cluster_cov_stack", unreachable)
        with pytest.raises(ParameterError, match=message):
            sweep(catalog_design("fig1"), template, EffectSpec(delta1=0.4), points=points)

    def test_int_and_float32_grids_are_read_as_numbers(self):
        effects = EffectSpec(delta1=0.4)
        table = sweep(catalog_design("fig1"), cs_spec(), effects,
                      points=np.array([0, 1], dtype=np.uint8))
        assert table.icc["rho_w"].tolist() == [0.0, 1.0] and list(table.errors) == [1]
        table = sweep(catalog_design("fig1"), self.COHORT_TEMPLATE, effects,
                      points=np.array([[0.25, 0.5]], dtype=np.float32))
        assert table.icc["rho_w"].tolist() == [0.25] and table.icc["pi"].tolist() == [0.5]
        assert table.errors == {}

    def test_errors_are_kept_as_the_exceptions_design_power_raises(self):
        # a (text, class) record would drop the effect a rank deficient point
        # cannot estimate and the condition estimate that judged it so
        grid, effects = catalog_design("fig5a"), EffectSpec(delta1=0.4, delta2=0.4, delta3=0.4)
        table = sweep(grid, cs_spec(n=40), effects, points=(0.2, 1.5))
        with pytest.raises(RankDeficiencyError) as info:
            design_power(grid, cs_spec(0.2, n=40), effects)
        rank, domain = table.errors[0], table.errors[1]
        assert type(rank) is RankDeficiencyError and str(rank) == str(info.value)
        assert (rank.effect, rank.condition) == ("interaction", info.value.condition)
        assert type(domain) is ParameterError and str(domain) == "rho_w must lie in [0, 1), got 1.5"

    def test_programming_errors_propagate(self, monkeypatch):
        import swedge.power

        def broken(*args, **kwargs):
            raise ValueError("bug, not a bad sweep point")

        # The batch powers a point it solves with the shared power formula;
        # a point it cannot finish (fig1 has no treatment 2) gets its error
        # from the result columns, which turn only domain errors of their
        # checks, such as a contrast's, into point errors.
        contrast = ContrastSpec("c", (1.0,), effect=0.2)
        for name, effects in (("_two_sided_power", EffectSpec(delta1=0.4)),
                              ("_result_columns", EffectSpec(delta1=0.4, delta2=0.4)),
                              ("contrast_variances", EffectSpec(contrasts=(contrast,)))):
            with monkeypatch.context() as patch:
                patch.setattr(swedge.power, name, broken)
                with pytest.raises(ValueError, match="bug"):
                    sweep(catalog_design("fig1"), cs_spec(), effects, points=(0.1,))

    RANK = ("information matrix is rank deficient; the effect is confounded with the "
            "intercept, period effects, or another treatment column (effect: {}) "
            "[condition estimate {}]")
    UNDERFLOW = "contrast variance is not positive, got 0 (weights [1.3e-161, 0.0])"

    @pytest.mark.parametrize("design, template, effects, points, errors", [
        ("fig1", cs_spec(), EffectSpec(delta1=0.4), (0.1, 1.5, -0.1, float("nan")), {
            1: ("rho_w must lie in [0, 1), got 1.5", ParameterError),
            2: ("rho_w must lie in [0, 1), got -0.1", ParameterError),
            3: ("rho_w must lie in [0, 1), got nan", ParameterError)}),
        ("fig1", CorrelationSpec(model=CovarianceModel.NESTED_EXCHANGEABLE, n_per_period=15,
                                 rho_w=0.05, rho_a=0.05), EffectSpec(delta1=0.4), (0.01, 0.1), {
            0: ("need 0 <= rho_a <= rho_w, got rho_a=0.05, rho_w=0.01", ParameterError)}),
        ("fig1", CorrelationSpec(model=CovarianceModel.COHORT, n_per_period=15, rho_w=0.05,
                                 pi=0.3), EffectSpec(delta1=0.4), [(0.1, 1.0), (0.1, 0.5)], {
            0: ("cluster covariance is singular: diagonal 0.16 <= off-diagonal 0.16",
                SingularCovarianceError)}),
        ("fig5a", cs_spec(n=40), EffectSpec(delta1=0.4, delta2=0.4, delta3=0.4), (0.2, 0.0), {
            0: (RANK.format("interaction", "3.132e+15"), RankDeficiencyError),
            1: (RANK.format("interaction", "inf"), RankDeficiencyError)}),
        ([[0, 1], [0, 1]], cs_spec(), EffectSpec(delta1=0.4), (0.1,), {
            0: (RANK.format("trt1", "inf"), RankDeficiencyError)}),
        # a zero effect size has power alpha wherever its SE exists, but not
        # at a point that failed
        ([[0, 1], [0, 1]], cs_spec(), EffectSpec(delta1=0.0), (0.1,), {
            0: (RANK.format("trt1", "inf"), RankDeficiencyError)}),
        ([[0, 0], [0, 0]], cs_spec(), EffectSpec(delta1=0.4), (0.1, 2.0), {
            0: ("design has no treated cluster-periods; no effects are estimable",
                RankDeficiencyError),
            1: ("rho_w must lie in [0, 1), got 2.0", ParameterError)}),
        ("fig1", cs_spec(), EffectSpec(delta1=0.4, delta2=0.4), (0.1, 1.5), {
            0: ("effect size requested for an effect the design cannot estimate "
                "(effect: trt2)", RankDeficiencyError),
            1: ("rho_w must lie in [0, 1), got 1.5", ParameterError)}),
        ("fig1", cs_spec(), EffectSpec(delta1=0.4, contrasts=(ContrastSpec("c", (1.0, -1.0),
                                                                           effect=0.2),)),
         (0.1,), {0: ("contrast length 2 does not match covariance dimension 1",
                      ParameterError)}),
        ("fig2b", cs_spec(), EffectSpec(delta1=0.4, contrasts=(ContrastSpec("c", (1e300, 1e300),
                                                                            effect=0.3),)),
         (0.1,), {0: ("contrast variance is not finite (weights [1e+300, 1e+300])",
                      ParameterError)}),
        # the second contrast has no effect size, which fails every point
        # the first contrast's variance does not
        ("fig2b", cs_spec(), EffectSpec(delta1=0.4, contrasts=(
            ContrastSpec("c0", (1.3e-161, 0.0), effect=0.3), ContrastSpec("c1", (1.0, -1.0)))),
         (0.0, 0.5, 0.9, 1.5), {
            0: ("contrast 'c1' has no explicit effect size and no effect size was given for "
                "trt2", ParameterError),
            1: (UNDERFLOW, ParameterError),
            2: (UNDERFLOW, ParameterError),
            3: ("rho_w must lie in [0, 1), got 1.5", ParameterError)}),
    ], ids=["domain", "rho-a-domain", "singular", "rank-fig5a", "rank-grid",
            "rank-grid-zero-effect", "no-effects", "not-estimable", "contrast-length",
            "contrast-not-finite", "contrast-order"])
    def test_failed_points_report_their_errors_without_design_power(
            self, monkeypatch, design, template, effects, points, errors):
        import swedge.power

        def unreachable(*args, **kwargs):
            raise AssertionError("sweep called design_power")

        monkeypatch.setattr(swedge.power, "design_power", unreachable)
        grid = catalog_design(design) if isinstance(design, str) else DesignGrid(design)
        table = sweep(grid, template, effects, points=points)
        assert {k: (str(e), type(e)) for k, e in table.errors.items()} == errors
        failed = sorted(errors)
        assert np.isnan(table.se[failed]).all() and np.isnan(table.power[failed]).all()
        assert np.isfinite(np.delete(table.se, failed, axis=0)).all()

    def test_nested_fixed_rho_a_invalid_below_it(self):
        template = CorrelationSpec(
            model=CovarianceModel.NESTED_EXCHANGEABLE, n_per_period=15,
            rho_w=0.05, rho_a=0.05,
        )
        table = sweep(catalog_design("fig1"), template, EffectSpec(delta1=0.4),
                      points=(0.01, 0.10))
        assert 0 in table.errors  # rho_a would exceed rho_w
        assert 1 not in table.errors

    def test_figure1_curve_has_interior_minimum(self):
        table = sweep(catalog_design("fig1"), cs_spec(), EffectSpec(delta1=0.4))
        powers = table.power[:, table.labels.index("trt1")]
        k = int(np.argmin(powers))
        assert 0 < k < len(powers) - 1
        assert powers[0] > powers[k] and powers[-1] > powers[k]

    def test_contrast_nadir_higher_than_main_effect_nadir(self):
        grid = catalog_design("fig2b")
        spec = EffectSpec(
            delta1=0.4, delta2=0.4,
            contrasts=(ContrastSpec("diff", (1.0, -1.0), effect=0.4),),
        )
        table = sweep(grid, cs_spec(), spec)
        mains = table.power[:, table.labels.index("trt1")]
        diffs = table.power[:, table.labels.index("diff")]
        rho_w = table.icc["rho_w"]
        assert rho_w[int(np.argmin(diffs))] > rho_w[int(np.argmin(mains))]

    @pytest.mark.parametrize("design_id", ["fig2b", "fig2c"])
    def test_contrast_nadir_near_twelve_percent_icc(self, design_id):
        grid = catalog_design(design_id)
        spec = EffectSpec(
            delta1=0.4, delta2=0.4,
            contrasts=(ContrastSpec("diff", (1.0, -1.0), effect=0.4),),
        )
        table = sweep(grid, cs_spec(), spec)
        diffs = table.power[:, table.labels.index("diff")]
        nadir = table.icc["rho_w"][int(np.argmin(diffs))]
        assert 0.08 <= nadir <= 0.16

    def test_stacking_extra_controls_never_reduces_power(self):
        # row-stack an all-control grid onto a wedge and compare through
        # the dense oracle: extra control clusters add information
        from swedge.designs import DesignGrid, concurrent_design
        from swedge.variance import oracle_covariance

        rng = np.random.default_rng(313)
        for _ in range(10):
            from designgen import random_single_treatment_grid

            grid = random_single_treatment_grid(rng, max_clusters=8)
            controls = DesignGrid([[0] * grid.n_periods] * 3)
            stacked = concurrent_design(grid, controls)
            spec = random_correlation(rng, CS)
            cs = spec.cov_entries()
            var_before = oracle_covariance(grid, cs).matrix[0, 0]
            var_after = oracle_covariance(stacked, cs).matrix[0, 0]
            assert var_after <= var_before * (1 + 1e-12)
            p_before = wald_power(0.4, np.sqrt(var_before))
            p_after = wald_power(0.4, np.sqrt(var_after))
            assert p_after >= p_before

    def test_cohort_pi_zero_matches_cross_sectional_pointwise(self):
        grid = catalog_design("fig2b")
        effects = EffectSpec(delta1=0.4, delta2=0.4)
        cs_table = sweep(grid, cs_spec(), effects)
        cohort = CorrelationSpec(model=CovarianceModel.COHORT, n_per_period=15,
                                 rho_w=0.0, pi=0.0)
        cohort_table = sweep(grid, cohort, effects)
        for a, b in zip(cs_table.power[:, cs_table.labels.index("trt1")],
                        cohort_table.power[:, cohort_table.labels.index("trt1")]):
            assert abs(a - b) <= 1e-12

    def test_nested_rho_a_equal_rho_w_matches_cross_sectional_pointwise(self):
        grid = catalog_design("fig2b")
        effects = EffectSpec(delta1=0.4, delta2=0.4)
        cs_table = sweep(grid, cs_spec(), effects)
        nested = CorrelationSpec(
            model=CovarianceModel.NESTED_EXCHANGEABLE, n_per_period=15,
            rho_w=0.0, rho_a=0.0,
        )
        nested_table = sweep(grid, nested, effects,
                             points=[(r, r) for r in DEFAULT_RHO_GRID])
        for a, b in zip(cs_table.power[:, cs_table.labels.index("trt1")],
                        nested_table.power[:, nested_table.labels.index("trt1")]):
            assert abs(a - b) <= 1e-12

    def test_default_grid_shape(self):
        assert len(DEFAULT_RHO_GRID) == 300
        assert DEFAULT_RHO_GRID[0] == 0.001
        assert DEFAULT_RHO_GRID[-1] == 0.3


class TestOrderingProperties:
    def test_larger_effect_never_loses_power(self):
        from swedge.variance import active_effects

        rng = np.random.default_rng(909)
        checked = 0
        while checked < 20:
            grid = random_grid(rng)
            if "trt1" not in active_effects(grid):
                continue
            spec = random_correlation(rng, CS)
            weak = design_power(grid, spec, EffectSpec(delta1=0.4)).row("trt1")
            strong = design_power(grid, spec, EffectSpec(delta1=0.8)).row("trt1")
            assert strong.power > weak.power
            assert strong.se == weak.se
            checked += 1
