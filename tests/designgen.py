"""Random valid designs and parameters for property and acceptance tests.

Grids are built from per-cluster monotone condition paths so they always
satisfy the strict transition policy, then filtered to designs whose
present effects are comfortably estimable (full-rank design matrix), which
is what "valid design" means for closed-form/oracle agreement checks.
"""

from __future__ import annotations

import numpy as np

from swedge import DesignGrid
from swedge.covariance import CorrelationSpec, CovarianceModel, RawComponents
from swedge.variance import EFFECT_LABELS, active_effects

_PATHS = ("none", "trt1", "trt2", "both_direct", "trt1_both", "trt2_both")


def _random_row(rng: np.random.Generator, n_periods: int, path: str) -> list[int]:
    row = [0] * n_periods
    if path == "none":
        return row
    if path in ("trt1", "trt2", "both_direct"):
        code = {"trt1": 1, "trt2": 2, "both_direct": 3}[path]
        start = int(rng.integers(1, n_periods))
        for j in range(start, n_periods):
            row[j] = code
        return row
    code = 1 if path == "trt1_both" else 2
    start = int(rng.integers(1, n_periods - 1))
    switch = int(rng.integers(start + 1, n_periods))
    for j in range(start, switch):
        row[j] = code
    for j in range(switch, n_periods):
        row[j] = 3
    return row


def dense_design_matrix(grid: DesignGrid) -> np.ndarray:
    """The (I*T) x (T+3) fixed-effects matrix of ``grid``, cluster-major.

    Columns: intercept, indicators of periods 1..T-1 (the last period is
    the reference level), then the treatment-1, treatment-2 and product
    indicators.
    """
    t = grid.n_periods
    x, w = grid.indicators()
    fixed = np.hstack([np.ones((t, 1)), np.eye(t)[:, :-1]])
    blocks = np.concatenate(
        [np.broadcast_to(fixed, (grid.n_clusters, t, t)), np.stack([x, w, x * w], axis=-1)],
        axis=-1,
    )
    return blocks.reshape(-1, t + 3)


def _estimable(grid: DesignGrid) -> bool:
    labels = active_effects(grid)
    if not labels:
        return False
    z = dense_design_matrix(grid)
    keep = list(range(grid.n_periods)) + [
        grid.n_periods + k for k in range(3) if EFFECT_LABELS[k] in labels
    ]
    sv = np.linalg.svd(z[:, keep], compute_uv=False)
    return sv[-1] > 1e-8 * sv[0]


def random_grid(
    rng: np.random.Generator,
    max_clusters: int = 12,
    max_periods: int = 6,
    paths: tuple[str, ...] = _PATHS,
    min_clusters: int = 3,
    min_periods: int = 3,
) -> DesignGrid:
    """A random transition-valid, estimable design grid.  Two periods leave
    no room for a path through a single treatment to the combination."""
    while True:
        n_periods = int(rng.integers(min_periods, max_periods + 1))
        n_clusters = int(rng.integers(min_clusters, max_clusters + 1))
        usable = paths if n_periods > 2 else tuple(p for p in paths if not p.endswith("_both"))
        rows = [
            _random_row(rng, n_periods, usable[int(rng.integers(0, len(usable)))])
            for _ in range(n_clusters)
        ]
        try:
            grid = DesignGrid(rows, label="random")
        except ValueError:
            continue
        if _estimable(grid):
            return grid


def random_single_treatment_grid(rng: np.random.Generator, **kwargs) -> DesignGrid:
    return random_grid(rng, paths=("none", "trt1"), **kwargs)


def random_correlation(rng: np.random.Generator, model: CovarianceModel) -> CorrelationSpec:
    """Random standardized parameters with a comfortably nonsingular covariance."""
    n = int(rng.integers(1, 51))
    rho_w = float(rng.uniform(0.0, 0.8))
    if model is CovarianceModel.CROSS_SECTIONAL:
        return CorrelationSpec(model=model, n_per_period=n, rho_w=rho_w)
    if model is CovarianceModel.COHORT:
        pi = float(rng.uniform(0.0, 0.9))
        return CorrelationSpec(model=model, n_per_period=n, rho_w=rho_w, pi=pi)
    rho_a = float(rng.uniform(0.0, rho_w)) if rho_w > 0 else 0.0
    return CorrelationSpec(model=model, n_per_period=n, rho_w=rho_w, rho_a=rho_a)


def random_raw_components(rng: np.random.Generator, model: CovarianceModel) -> RawComponents:
    alpha = float(rng.uniform(0.0, 3.0))
    e = float(rng.uniform(0.2, 4.0))
    psi = float(rng.uniform(0.0, 3.0)) if model is CovarianceModel.COHORT else 0.0
    nu = float(rng.uniform(0.0, 3.0)) if model is CovarianceModel.NESTED_EXCHANGEABLE else 0.0
    return RawComponents(sigma_alpha_sq=alpha, sigma_e_sq=e, sigma_psi_sq=psi, sigma_nu_sq=nu)
