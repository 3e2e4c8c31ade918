"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines alongside the pytest verdicts.  Criteria 4-7 depend on
catalog layouts rebuilt from published summary counts and report that flag;
criteria 1-3 and 8 are exact properties.
"""

import time

import numpy as np

from designgen import (
    random_correlation,
    random_grid,
    random_raw_components,
    random_single_treatment_grid,
)
from swedge.covariance import CorrelationSpec, CovarianceModel, standardize
from swedge.designs import catalog_design
from swedge.power import ContrastSpec, EffectSpec, design_power, sweep, wald_power
from swedge.variance import closed_form_covariance, oracle_covariance

MODELS = (
    CovarianceModel.CROSS_SECTIONAL,
    CovarianceModel.COHORT,
    CovarianceModel.NESTED_EXCHANGEABLE,
)
RHO_GRID = tuple(round(0.001 * k, 3) for k in range(1, 301))


def report(number: int, description: str, ok: bool, detail: str = "",
           reconstructed: bool = False) -> None:
    status = "PASS" if ok else "FAIL"
    flag = " [reconstructed layouts]" if reconstructed else ""
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number} {status}{flag}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def cs_spec(rho_w, n=15):
    return CorrelationSpec(model=CovarianceModel.CROSS_SECTIONAL,
                           n_per_period=n, rho_w=rho_w)


def matrix_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Entrywise difference relative to the matrix magnitude."""
    return float(np.abs(a - b).max() / np.abs(b).max())


def test_criterion_1_oracle_equivalence():
    rng = np.random.default_rng(1_234_567)
    started = time.monotonic()
    worst = 0.0
    for _ in range(200):
        grid = random_grid(rng, max_clusters=12, max_periods=6)
        for model in MODELS:
            cs = random_correlation(rng, model).cov_entries()
            closed = closed_form_covariance(grid, cs)
            oracle = oracle_covariance(grid, cs)
            assert closed.labels == oracle.labels
            worst = max(worst, matrix_gap(closed.matrix, oracle.matrix))
    elapsed = time.monotonic() - started
    report(
        1,
        "closed form matches dense GLS oracle on 200 random designs x 3 models",
        worst <= 1e-10 and elapsed < 30.0,
        detail=f"worst relative gap {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_single_treatment_reduction():
    rng = np.random.default_rng(7_654_321)
    worst = 0.0
    for _ in range(50):
        grid = random_single_treatment_grid(rng)
        model = MODELS[int(rng.integers(0, 3))]
        cs = random_correlation(rng, model).cov_entries()
        closed = closed_form_covariance(grid, cs)
        oracle = oracle_covariance(grid, cs)
        assert closed.labels == oracle.labels == ("trt1",)
        gap = abs(closed.matrix[0, 0] - oracle.matrix[0, 0]) / oracle.matrix[0, 0]
        worst = max(worst, gap)
    report(
        2,
        "single-treatment closed-form variance equals the oracle on 50 designs",
        worst <= 1e-10,
        detail=f"worst relative gap {worst:.2e}",
    )


def test_criterion_3_model_reductions():
    effects = EffectSpec(delta1=0.4, delta2=0.4)
    worst = 0.0
    for design_id in ("fig2b", "fig8-design2"):
        grid = catalog_design(design_id)
        base = sweep(grid, cs_spec(0.0), effects, points=RHO_GRID)
        cohort = sweep(
            grid,
            CorrelationSpec(model=CovarianceModel.COHORT, n_per_period=15,
                            rho_w=0.0, pi=0.0),
            effects, points=RHO_GRID,
        )
        nested = sweep(
            grid,
            CorrelationSpec(model=CovarianceModel.NESTED_EXCHANGEABLE,
                            n_per_period=15, rho_w=0.0, rho_a=0.0),
            effects, points=[(r, r) for r in RHO_GRID],
        )
        for label in ("trt1", "trt2"):
            a, b, c = (t.power[:, t.labels.index(label)] for t in (base, cohort, nested))
            worst = max(worst, float(np.abs(a - b).max()))
            worst = max(worst, float(np.abs(a - c).max()))
    report(
        3,
        "cohort pi=0 and nested rho_a=rho_w reproduce cross-sectional power",
        worst <= 1e-12,
        detail=f"worst pointwise gap {worst:.2e} across {len(RHO_GRID)} points",
    )


def _main_power(grid, rho_w, additive=False):
    from swedge.variance import active_effects

    effects = EffectSpec(
        delta1=0.4,
        delta2=0.4 if "trt2" in active_effects(grid) else None,
        additive=additive,
    )
    return design_power(grid, cs_spec(rho_w), effects).row("trt1").power


def test_criterion_4_concurrent_gain_band():
    fig1 = catalog_design("fig1")
    fig2b = catalog_design("fig2b")
    fig2c = catalog_design("fig2c")
    rhos = [r for r in RHO_GRID if 0.01 <= r <= 0.20]
    gains_12 = np.array([_main_power(fig2b, r) - _main_power(fig1, r) for r in rhos])
    gains_10 = np.array([_main_power(fig2c, r) - _main_power(fig1, r) for r in rhos])
    in_band = bool(np.all((gains_12 >= 0.12) & (gains_12 <= 0.22)))
    ten_ok = bool(np.all(gains_10 > 0.0) and np.all(gains_10 < gains_12))
    report(
        4,
        "12-cluster concurrent gain in [0.12, 0.22]; 10-cluster gain positive and smaller",
        in_band and ten_ok,
        detail=f"12-cluster gain {gains_12.min():.3f}..{gains_12.max():.3f}, "
               f"10-cluster gain {gains_10.min():.3f}..{gains_10.max():.3f}",
        reconstructed=True,  # the 10-cluster layout is rebuilt from counts
    )


def test_criterion_5_contrast_nadir():
    grid = catalog_design("fig2b")
    effects = EffectSpec(
        delta1=0.4, delta2=0.4,
        contrasts=(ContrastSpec("diff", (1.0, -1.0), effect=0.4),),
    )
    table = sweep(grid, cs_spec(0.0), effects, points=RHO_GRID)
    powers = table.power[:, table.labels.index("diff")]
    nadir = RHO_GRID[int(np.argmin(powers))]
    report(
        5,
        "treatment-comparison power curve bottoms out at rho_w = 0.12 +/- 0.04",
        0.08 <= nadir <= 0.16,
        detail=f"nadir at rho_w = {nadir:.3f}",
    )


def test_criterion_6_factorial_crossing_and_late_design():
    fig2b = catalog_design("fig2b")
    fig5a = catalog_design("fig5a")
    fig5b = catalog_design("fig5b")
    p_2b = np.array([_main_power(fig2b, r) for r in RHO_GRID])
    p_5a = np.array([_main_power(fig5a, r, additive=True) for r in RHO_GRID])
    p_5b = np.array([_main_power(fig5b, r, additive=True) for r in RHO_GRID])

    diff = p_5b - p_2b
    crossings = [
        RHO_GRID[i]
        for i in range(1, len(RHO_GRID))
        if np.sign(diff[i]) != np.sign(diff[i - 1])
    ]
    crossing_ok = any(rho <= 0.04 for rho in crossings)
    beyond = [i for i, r in enumerate(RHO_GRID) if r > 0.02]
    late_ok = all(p_5a[i] < p_2b[i] and p_5a[i] < p_5b[i] for i in beyond)
    report(
        6,
        "earlier factorial crosses the concurrent design near rho_w 0.02; "
        "late factorial lowest beyond it",
        crossing_ok and late_ok,
        detail=f"crossings at {crossings[:3]}",
        reconstructed=True,
    )


def test_criterion_7_interaction_power_ordering():
    grids = {k: catalog_design(f"fig8-design{k}") for k in (1, 2, 3, 4)}
    effects = EffectSpec(delta3=0.6)
    powers = {}
    for k, grid in grids.items():
        table = sweep(grid, cs_spec(0.0), effects, points=RHO_GRID)
        powers[k] = table.power[:, table.labels.index("interaction")]
    design2_top = bool(
        np.all(powers[2] > np.maximum(powers[1], np.maximum(powers[3], powers[4])))
    )
    design3_bottom = bool(
        np.all(powers[3] < np.minimum(powers[1], np.minimum(powers[2], powers[4])))
    )
    report(
        7,
        "interaction power: design #2 highest and design #3 lowest at every point",
        design2_top and design3_bottom,
        detail=f"design2 min margin {float((powers[2] - powers[1]).min()):.3f}",
        reconstructed=True,
    )


class TestCriterion8Properties:
    def test_label_swap_permutation(self):
        rng = np.random.default_rng(81)
        swap = {"trt1": "trt2", "trt2": "trt1", "interaction": "interaction"}
        ok = True
        for _ in range(40):
            grid = random_grid(rng)
            cs = random_correlation(rng, MODELS[int(rng.integers(0, 3))]).cov_entries()
            cov = closed_form_covariance(grid, cs)
            other = closed_form_covariance(grid.swap_treatments(), cs)
            perm = [other.labels.index(swap[l]) for l in cov.labels]
            ok = ok and np.array_equal(cov.matrix, other.matrix[np.ix_(perm, perm)])
        report(8, "treatment relabeling permutes the covariance exactly", ok)

    def test_cluster_permutation_invariance(self):
        rng = np.random.default_rng(82)
        worst = 0.0
        for _ in range(40):
            grid = random_grid(rng)
            cs = random_correlation(rng, MODELS[int(rng.integers(0, 3))]).cov_entries()
            cov = closed_form_covariance(grid, cs)
            shuffled = grid.permute_clusters(list(rng.permutation(grid.n_clusters)))
            cov2 = closed_form_covariance(shuffled, cs)
            worst = max(worst, matrix_gap(cov2.matrix, cov.matrix))
        report(8, "cluster reordering leaves the covariance unchanged",
               worst <= 1e-12, detail=f"worst gap {worst:.2e}")

    def test_positive_definiteness(self):
        rng = np.random.default_rng(83)
        ok = True
        for _ in range(40):
            grid = random_grid(rng)
            cs = random_correlation(rng, MODELS[int(rng.integers(0, 3))]).cov_entries()
            cov = closed_form_covariance(grid, cs)
            ok = ok and bool(np.linalg.eigvalsh(cov.matrix).min() > 0.0)
            ok = ok and bool(np.allclose(cov.matrix, cov.matrix.T))
        report(8, "covariance matrices are symmetric positive definite", ok)

    def test_null_effect_power_is_alpha(self):
        ok = all(
            wald_power(0.0, se, alpha) == alpha
            for se in (0.01, 0.5, 3.0)
            for alpha in (0.01, 0.05, 0.10)
        )
        report(8, "null effect power equals alpha exactly", ok)

    def test_scale_consistency(self):
        rng = np.random.default_rng(84)
        grid = catalog_design("fig2b")
        worst = 0.0
        for model in MODELS:
            for _ in range(20):
                raw = random_raw_components(rng, model)
                n = int(rng.integers(1, 51))
                theta = float(rng.uniform(0.1, 2.0))
                raw_spec = CorrelationSpec(model=model, n_per_period=n, raw=raw)
                p_raw = design_power(
                    grid, raw_spec, EffectSpec(delta1=theta, delta2=theta)
                ).row("trt1").power
                std_spec = CorrelationSpec(model=model, n_per_period=n,
                                           **standardize(raw, model))
                delta = theta / np.sqrt(raw.total_variance)
                p_std = design_power(
                    grid, std_spec, EffectSpec(delta1=delta, delta2=delta)
                ).row("trt1").power
                worst = max(worst, abs(p_raw - p_std))
        report(8, "raw and standardized parameterizations agree",
               worst <= 1e-12, detail=f"worst gap {worst:.2e}")

    def test_non_monotone_power_curve(self):
        table = sweep(catalog_design("fig1"), cs_spec(0.0), EffectSpec(delta1=0.4),
                      points=RHO_GRID)
        powers = table.power[:, table.labels.index("trt1")]
        k = int(np.argmin(powers))
        interior = 0 < k < len(powers) - 1
        dips = powers[0] > powers[k] and powers[-1] > powers[k]
        report(8, "single-trial power curve has an interior minimum in rho_w",
               bool(interior and dips),
               detail=f"minimum at rho_w = {RHO_GRID[k]:.3f}")
