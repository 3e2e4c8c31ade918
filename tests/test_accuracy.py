"""Accuracy of both covariance paths against a 60-digit dense GLS reference.

The stress point is the ill-conditioned corner of the domain: 20
sequences of 5 clusters (100 clusters, 21 periods), 5000 individuals per
cluster-period and a within-period ICC up to 0.9999, where the cluster
covariance is within 2e-8 of singular.  The reference takes the float64
compound-symmetry entries exactly, so it measures the error of the linear
algebra alone.
"""

import mpmath
import numpy as np
import pytest

from swedge.covariance import CorrelationSpec, CovarianceModel
from swedge.designs import generate_standard_swd
from swedge.variance import EFFECT_LABELS, closed_form_covariance, oracle_covariance

DIGITS = 60
CLOSED_FORM_REL_TOL = 1e-12
ORACLE_REL_TOL = 5e-9


def reference_covariance(grid, cs, labels) -> np.ndarray:
    """Covariance of the ``labels`` effects by dense GLS in DIGITS digits.

    Every cluster's block is Z = [F | X]: F the intercept and period
    indicators, the same for all clusters, and X its treatment columns.
    The precision sum of Z' V^-1 Z is assembled blockwise, over the
    distinct rows of the design weighted by their counts, and the intercept
    and period effects are profiled out of it.
    """
    t = grid.n_periods
    cols = [EFFECT_LABELS.index(label) for label in labels]
    k = len(cols)
    patterns, counts = np.unique(grid.codes, axis=0, return_counts=True)
    with mpmath.workdps(DIGITS):
        v = mpmath.matrix(t, t)
        fixed = mpmath.matrix(t, t)
        for j in range(t):
            for m in range(t):
                v[j, m] = mpmath.mpf(cs.diag if j == m else cs.offdiag)
            fixed[j, 0] = 1
            if j < t - 1:
                fixed[j, j + 1] = 1
        v_inv = v**-1
        fixed_block = grid.n_clusters * (fixed.T * (v_inv * fixed))
        cross = mpmath.zeros(t, k)
        treat_block = mpmath.zeros(k, k)
        for row, count in zip(patterns.tolist(), counts.tolist()):
            x = mpmath.matrix(t, k)
            for j, code in enumerate(row):
                bits = (code & 1, code >> 1, code & 1 & (code >> 1))
                for c, col in enumerate(cols):
                    x[j, c] = bits[col]
            wx = v_inv * x
            cross += count * (fixed.T * wx)
            treat_block += count * (x.T * wx)
        # the treatment block of the inverse precision: the inverse of the
        # treatment block's Schur complement
        schur = treat_block - cross.T * fixed_block**-1 * cross
        return np.array((schur**-1).tolist(), dtype=float)


@pytest.mark.parametrize("rho_w", [0.05, 0.9999])
def test_stress_point_accuracy_envelope(rho_w):
    grid = generate_standard_swd(20, 5)
    cs = CorrelationSpec(model=CovarianceModel.CROSS_SECTIONAL, n_per_period=5000,
                         rho_w=rho_w).cov_entries()
    closed = closed_form_covariance(grid, cs)
    oracle = oracle_covariance(grid, cs)
    assert closed.labels == oracle.labels == ("trt1",)
    reference = reference_covariance(grid, cs, closed.labels)
    scale = np.abs(reference).max()
    assert np.abs(closed.matrix - reference).max() <= CLOSED_FORM_REL_TOL * scale
    assert np.abs(oracle.matrix - reference).max() <= ORACLE_REL_TOL * scale
