"""Variance-covariance of treatment-effect estimates in stepped wedge designs.

Two independent computation paths are provided.  The closed form writes
the 3x3 information matrix of the treatment, second-treatment and product
effects, after profiling out the intercept and period effects, as one
fixed combination of four integer Gram matrices of the design's indicator
stack (its cells, per-cluster totals, per-period totals and grand totals)
weighted by five scalars of the covariance, then inverts it directly.  The
dense oracle whitens every cluster's full design block by the Cholesky
factor of the cluster covariance, forms the GLS precision matrix as one
Gram product of the whitened blocks and factorizes it; it shares no
intermediate results with the closed form and exists to verify it.

Both paths take the design grid plus the compound-symmetry entries of the
cluster-mean covariance, so all three covariance models are handled by
substituting their effective diagonal/off-diagonal values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .covariance import CompoundSymmetry, ParameterError
from .designs import DesignGrid

EFFECT_LABELS = ("trt1", "trt2", "interaction")

# Information matrices with a worse condition number than this are treated
# as rank deficient rather than invertible-but-noisy.
CONDITION_LIMIT = 1e12

NO_EFFECTS_ESTIMABLE = "design has no treated cluster-periods; no effects are estimable"


class RankDeficiencyError(ValueError):
    """A requested effect is not estimable from the design."""

    def __init__(self, message: str, effect: str | None = None,
                 condition: float | None = None):
        self.effect = effect
        self.condition = condition
        if effect is not None:
            message = f"{message} (effect: {effect})"
        if condition is not None:
            message = f"{message} [condition estimate {condition:.3e}]"
        super().__init__(message)


class DesignSummary(NamedTuple):
    """What the closed form reads from a design: integer-valued Gram
    matrices and totals of its indicator stack (X, W, XW)."""

    gram: np.ndarray          # 3 x 3 Gram matrix of the cells
    cluster_gram: np.ndarray  # 3 x 3 Gram matrix of the per-cluster totals
    cols: np.ndarray          # 3 x T per-period totals
    totals: np.ndarray        # 3 grand totals
    n_clusters: int
    n_periods: int


def design_summary(grid: DesignGrid) -> DesignSummary:
    """The Gram summary of ``grid``, computed once for any number of points.

    The product of any two different indicators of the stack is XW, so the
    cell Gram matrix holds the grand totals of X and W on its diagonal and
    that of XW everywhere else.
    """
    x, w = grid.indicators()
    stack = np.array([x, w, x * w])
    rows = stack.sum(axis=2)
    cols = stack.sum(axis=1)
    totals = cols.sum(axis=1)
    gram = np.full((3, 3), totals[2])
    gram[0, 0], gram[1, 1] = totals[0], totals[1]
    return DesignSummary(gram, rows @ rows.T, cols, totals, grid.n_clusters, grid.n_periods)


def _outer(v: np.ndarray) -> np.ndarray:
    return v[..., :, None] * v[..., None, :]


def information_stack(summary: DesignSummary, sig_c, sig_a) -> np.ndarray:
    """Profiled information matrices of the three effects at many points.

    ``sig_c`` (within variance: diagonal minus off-diagonal) and ``sig_a``
    (between variance: the off-diagonal) are numpy arrays of one shape
    ``(K...)``; the result has shape ``(K..., 3, 3)``.
    With the Gram matrices G (cells) and R (cluster totals), the period
    totals ``cols`` and grand totals ``totals`` of the summary, and with
    y = a*totals and l = b*totals,

        S = b*G - c*sig_a*R - y y'/(f*T)
            - ((b*cols)@(b*cols)' - l l'/T) / (f + g*T).

    Here a = 1/(sig_c + T*sig_a), b = 1/sig_c, c = a*b, f = I*a and
    g = I*c*sig_a.  Only these scalars depend on the covariance, and the
    grouping above fixes the rounding of every entry, so each point of a
    stack gets the same bits as on its own.  Entries corresponding to
    effects absent from the design are zero.  Overflowing or underflowing
    covariance entries give non-finite entries, not warnings.
    """
    t, n_clusters = summary.n_periods, summary.n_clusters
    with np.errstate(all="ignore"):
        a = 1.0 / (sig_c + t * sig_a)
        b = 1.0 / sig_c
        c = a * b
        f = n_clusters * a
        g = n_clusters * c * sig_a
        y = a[..., None] * summary.totals
        l = b[..., None] * summary.totals
        b_matrix = b[..., None, None]
        b_cols = b_matrix * summary.cols
        return (
            b_matrix * summary.gram
            - (c * sig_a)[..., None, None] * summary.cluster_gram
            - _outer(y) / (f * t)[..., None, None]
            - (b_cols @ b_cols.swapaxes(-1, -2) - _outer(l) / t)
            / (f + g * t)[..., None, None]
        )


def information_matrix(grid: DesignGrid, cs: CompoundSymmetry) -> np.ndarray:
    """Profiled 3x3 information matrix of the three effect estimates.

    Row 0 of :func:`information_stack` at one point, on the summary of
    ``grid``.
    """
    return information_stack(design_summary(grid), np.array([cs.diag - cs.offdiag]),
                             np.array([cs.offdiag]))[0]


def active_effects(grid: DesignGrid, additive: bool = False) -> tuple[str, ...]:
    """Labels of the effects whose indicator columns are nonzero: the
    effects an analysis of ``grid`` estimates.  ``additive`` drops the
    interaction, which an additive analysis leaves out of the model."""
    _, trt1, trt2, both = grid.condition_counts().values()
    present = (trt1 + both, trt2 + both, 0 if additive else both)
    return tuple(label for label, n in zip(EFFECT_LABELS, present) if n)


@dataclass(frozen=True)
class TreatmentCovariance:
    """Symmetric covariance matrix of the estimable effect estimates, in
    squared effect units of the covariance entries' scale: row and column i
    belong to ``labels[i]``."""

    labels: tuple[str, ...]
    matrix: np.ndarray


def _invert_symmetric(s: np.ndarray) -> np.ndarray:
    """Explicit adjugate inverse of symmetric matrices up to 3x3.

    ``s`` is a stack of shape (K..., n, n); the result has the same shape
    and is C-contiguous.  Written so that relabeling treatments
    (simultaneous swap of rows and columns 0 and 1) permutes the result
    bit-for-bit: every cofactor is grouped to rely only on commutativity
    of float multiply and add.
    """
    n = s.shape[-1]
    if n == 1:
        return 1.0 / s
    # e[j, i] is the (K...) array s[..., i, j].
    e = s.T
    if n == 2:
        s11, s22, s12 = e[0, 0], e[1, 1], e[1, 0]
        det = s11 * s22 - s12 * s12
        adj = np.array([[s22, -s12], [-s12, s11]])
    else:
        s11, s22, s33 = e[0, 0], e[1, 1], e[2, 2]
        s12, s13, s23 = e[1, 0], e[2, 0], e[2, 1]
        d1 = s33 * (s11 * s22 - s12 * s12)
        d2 = s11 * (s23 * s23)
        d3 = s22 * (s13 * s13)
        d4 = 2.0 * s12 * (s13 * s23)
        det = (d1 - (d2 + d3)) + d4
        a11 = s22 * s33 - s23 * s23
        a22 = s11 * s33 - s13 * s13
        a33 = s11 * s22 - s12 * s12
        a12 = s13 * s23 - s12 * s33
        a13 = s12 * s23 - s22 * s13
        a23 = s12 * s13 - s11 * s23
        adj = np.array([[a11, a12, a13], [a12, a22, a23], [a13, a23, a33]])
    # adj has the stack axes last; it is symmetric, so .T puts them first.
    return np.ascontiguousarray((adj / det).T)


def closed_form_covariance(
    grid: DesignGrid, cs: CompoundSymmetry, additive: bool = False
) -> TreatmentCovariance:
    """Covariance of the effect estimates via the closed-form information
    matrix: one point of :func:`closed_form_stack`, raising its error.

    The information matrix automatically drops effects whose columns are
    absent (no combined-condition cells -> 2x2; single treatment -> 1x1).
    ``additive`` excludes the interaction column from the analysis model
    even when combined-condition cells exist, for designs analyzed under
    assumed-additive treatment effects.
    """
    labels, _, matrices, errors = closed_form_stack(grid, np.array([cs.diag]),
                                                    np.array([cs.offdiag]), additive)
    if errors:
        raise errors[0]
    return TreatmentCovariance(labels=labels, matrix=matrices[0])


def closed_form_stack(grid: DesignGrid, diag: np.ndarray, offdiag: np.ndarray,
                      additive: bool = False):
    """The closed-form covariance of the effect estimates at the K points of
    the (K,) compound-symmetry entries ``diag`` and ``offdiag``, from one
    summary of the design; a point gets the bits it gets on its own.

    A point is solved at its entries times 2**-e, for e the binary exponent
    of its diagonal, and its covariance multiplied back by 2**e: exact
    scalings, which change no bit where the unscaled arithmetic stays in
    range and leave only a covariance out of range unsolved.  Returns
    ``(labels, solved, matrices, errors)``: the estimable effects, the
    indices of the solved points, their (m, n, n) covariance matrices, and a
    map from every other point's index to its error: no effect estimable, an
    information matrix failing the rank check, or a covariance not finite or
    with a variance underflowing to 0.
    """
    count = len(diag)
    labels = active_effects(grid, additive)
    if not labels:
        errors = dict.fromkeys(range(count), RankDeficiencyError(NO_EFFECTS_ESTIMABLE))
        return labels, np.empty(0, dtype=int), np.empty((0, 0, 0)), errors
    active = np.array([EFFECT_LABELS.index(label) for label in labels])
    exponent = np.frexp(diag)[1]
    sig_a = np.ldexp(offdiag, -exponent)
    summary = design_summary(grid)
    # finite entries with diag > offdiag >= 0 give a scaled within variance of
    # at least 2**-54, and so a finite information matrix
    s = information_stack(summary, np.ldexp(diag, -exponent) - sig_a, sig_a)
    s = s[:, active[:, None], active]
    # the indices of the points that passed every check so far
    at, errors = np.arange(count), {}
    eigvals = np.linalg.eigvalsh(s)
    top = np.abs(eigvals).max(axis=-1)
    well = (top > 0.0) & (eigvals[:, 0] > top / CONDITION_LIMIT)
    if not well.all():
        # the offending effect is the largest entry of the null eigenvector
        nulls = np.linalg.eigh(s[~well])[1][:, :, 0]
        for k, null, low, high in zip(at[~well].tolist(), nulls, eigvals[~well, 0].tolist(),
                                      top[~well].tolist()):
            errors[k] = RankDeficiencyError(
                "information matrix is rank deficient; the effect is confounded "
                "with the intercept, period effects, or another treatment column",
                effect=labels[int(np.argmax(np.abs(null)))],
                condition=np.inf if low <= 0 else high / low,
            )
        at, s = at[well], s[well]

    with np.errstate(all="ignore"):
        matrices = np.ldexp(_invert_symmetric(s), exponent[at, None, None])
    # a finite variance bounds the covariances of its effect
    variances = matrices.diagonal(0, 1, 2)
    solved = (np.isfinite(variances) & (variances > 0.0)).all(axis=1)
    if not solved.all():
        for k, row in zip(at[~solved].tolist(), variances[~solved]):
            what = "a variance of the effect estimates underflows to 0" if np.isfinite(row).all() \
                else "covariance of the effect estimates is not finite"
            errors[k] = ParameterError(
                f"{what}: the covariance entries (diagonal {diag[k]:g}, off-diagonal "
                f"{offdiag[k]:g}) are too large or too small to represent")
        at, matrices = at[solved], matrices[solved]
    return labels, at, matrices, errors


def oracle_covariance(
    grid: DesignGrid, cs: CompoundSymmetry, additive: bool = False
) -> TreatmentCovariance:
    """Covariance of the effect estimates via whitened dense GLS assembly.

    Factors the T x T cluster covariance V = L L' once and whitens every
    cluster's design block Z_i (intercept, T-1 period indicators and the
    treatment columns) into L^-1 Z_i, all in one (I, T, p) array.  The
    full GLS precision sum_i Z_i' V^-1 Z_i is then one Gram product of
    that array, which is Cholesky-factorized to extract the treatment
    block.  Kept deliberately independent of the closed-form path.
    """
    n_periods = grid.n_periods
    x, w = grid.indicators()
    treat = np.stack([x, w, x * w], axis=-1)
    limit = 2 if additive else 3
    active = [k for k in range(limit) if treat[..., k].any()]
    if not active:
        raise RankDeficiencyError(NO_EFFECTS_ESTIMABLE)
    labels = tuple(EFFECT_LABELS[k] for k in active)

    # intercept, then indicators of periods 1..T-1 (the last is the reference)
    fixed = np.eye(n_periods, k=1)
    fixed[:, 0] = 1.0
    # solved at the entries times 2**-e, exactly, for a diagonal of exponent e
    exponent = math.frexp(cs.diag)[1]
    v_cluster = np.full((n_periods, n_periods), math.ldexp(cs.offdiag, -exponent))
    np.fill_diagonal(v_cluster, math.ldexp(cs.diag, -exponent))
    l_inv = np.linalg.solve(np.linalg.cholesky(v_cluster), np.eye(n_periods))

    size = n_periods + len(active)
    whitened = np.empty((grid.n_clusters, n_periods, size))
    whitened[..., :n_periods] = l_inv @ fixed
    whitened[..., n_periods:] = l_inv @ treat[..., active]
    flat = whitened.reshape(-1, size)
    precision = flat.T @ flat

    condition = float(np.linalg.cond(precision))
    if not np.isfinite(condition) or condition > CONDITION_LIMIT:
        null_vec = np.linalg.eigh(precision)[1][:, 0]
        treat_part = np.abs(null_vec[n_periods:])
        effect = labels[int(np.argmax(treat_part))] if treat_part.max() > 0 else None
        raise RankDeficiencyError(
            "precision matrix is numerically singular",
            effect=effect,
            condition=condition,
        )
    try:
        lower = np.linalg.cholesky(precision)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - caught by cond check
        raise RankDeficiencyError(
            f"precision matrix is not positive definite: {exc}", condition=condition
        ) from None
    full_cov = np.linalg.solve(lower.T, np.linalg.solve(lower, np.eye(size)))
    block = np.ldexp(full_cov[n_periods:, n_periods:], exponent)
    return TreatmentCovariance(labels=labels, matrix=block)


def contrast_variances(weights, matrices: np.ndarray):
    """Variances of a weighted combination of the effect estimates under m
    covariance matrices, and a map from the row of each variance that is
    not finite and positive, which gives no standard error, to its error.
    Weights of the wrong length raise :class:`ParameterError`; that they
    are not all zero is :class:`~swedge.power.ContrastSpec`'s check."""
    c = np.asarray(weights, dtype=float)
    dim = matrices.shape[-1]
    if c.ndim != 1 or c.size != dim:
        raise ParameterError(f"contrast length {c.size} does not match covariance dimension {dim}")
    # c' M c written elementwise, so that each matrix of the stack gets the
    # bits it gets in a stack of its own; overflow gives inf, not a warning
    with np.errstate(all="ignore"):
        var = ((matrices * c[:, None]).sum(-2) * c).sum(-1)
    errors = {}
    for k in np.flatnonzero(~np.isfinite(var) | ~(var > 0.0)).tolist():
        errors[k] = ParameterError(
            f"contrast variance is not finite (weights {c.tolist()})" if not np.isfinite(var[k])
            else f"contrast variance is not positive, got {var[k]:g} (weights {c.tolist()})")
    return var, errors
