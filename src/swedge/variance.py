"""Variance-covariance of treatment-effect estimates in stepped wedge designs.

Two independent computation paths are provided.  The closed form writes
the covariance of the treatment, second-treatment and product effects,
after profiling out the intercept and period effects, as an exact rational
function of the within and between variances sig_c and sig_a: for two
integer matrices A and B built from the design's sums it is
I*sig_c*(sig_c + T*sig_a) * adj(sig_c*A + sig_a*B) / det(sig_c*A + sig_a*B),
Hussey & Hughes (2007) for one treatment.  The coefficients of det and adj
are computed once per design, exactly, so a point costs a few products
and estimability is the exact rule det(A) != 0.  The dense oracle whitens
the design by the Cholesky factor L of the cluster covariance V and
assembles the GLS precision blockwise: the intercept and period block, the
same for every cluster, is whitened once and counted I times, and every
cluster's treatment columns are whitened in one product.  That sharing is
linearity of the sum over clusters and holds for any V; the oracle uses no
compound-symmetry inverse, no profiling algebra and none of the closed
form's design sums, and exists to verify it.

Both paths take the design grid plus the compound-symmetry entries of the
cluster-mean covariance, so all three covariance models are handled by
substituting their effective diagonal/off-diagonal values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul

import numpy as np

from .covariance import CompoundSymmetry, ParameterError
from .designs import DesignGrid

EFFECT_LABELS = ("trt1", "trt2", "interaction")

# The oracle treats a precision matrix with a worse condition number than
# this as rank deficient rather than invertible-but-noisy; the closed form's
# rank diagnosis reports a condition estimate only beyond it.  The closed
# form decides by det(A) alone, so the oracle also rejects points the closed
# form solves exactly, such as a rho_w within about 1e-12 of 1 where an
# effect is constant within every cluster.
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


def _outer(v: np.ndarray) -> np.ndarray:
    return v[..., :, None] * v[..., None, :]


def information_stack(grid: DesignGrid, sig_c, sig_a) -> np.ndarray:
    """Profiled information matrices of the three effects at many points:
    the floating-point diagnosis of an analysis whose effects are not
    estimable (det(A) = 0), which names the confounded effect and estimates
    the condition of each point.

    ``sig_c`` (within variance: diagonal minus off-diagonal) and ``sig_a``
    (between variance: the off-diagonal) are numpy arrays of one shape
    ``(K...)``; the result has shape ``(K..., 3, 3)``.
    The design enters only through its integer sums ``grid.sums``, which
    the grid computes once and keeps: the Gram matrices G of the cells and
    R of the per-cluster totals, the per-period totals ``cols`` and the
    grand totals ``totals``.  With y = a*totals and l = b*totals,

        S = b*G - c*sig_a*R - y y'/(f*T)
            - ((b*cols)@(b*cols)' - l l'/T) / (f + g*T).

    Here a = 1/(sig_c + T*sig_a), b = 1/sig_c, c = a*b, f = I*a and
    g = I*c*sig_a.  Only these scalars depend on the covariance, and the
    grouping above fixes the rounding of every entry, so each point of a
    stack gets the same bits as on its own.  Entries corresponding to
    effects absent from the design are zero.  Overflowing or underflowing
    covariance entries give non-finite entries, not warnings.
    """
    gram, cluster_gram, cols, totals = grid.sums
    t, n_clusters = grid.n_periods, grid.n_clusters
    with np.errstate(all="ignore"):
        a = 1.0 / (sig_c + t * sig_a)
        b = 1.0 / sig_c
        c = a * b
        f = n_clusters * a
        g = n_clusters * c * sig_a
        y = a[..., None] * totals
        l = b[..., None] * totals
        b_matrix = b[..., None, None]
        b_cols = b_matrix * cols
        return (
            b_matrix * gram
            - (c * sig_a)[..., None, None] * cluster_gram
            - _outer(y) / (f * t)[..., None, None]
            - (b_cols @ b_cols.swapaxes(-1, -2) - _outer(l) / t)
            / (f + g * t)[..., None, None]
        )


def information_matrix(grid: DesignGrid, cs: CompoundSymmetry) -> np.ndarray:
    """Profiled 3x3 information matrix of the three effect estimates.

    Row 0 of :func:`information_stack` at one point.  The closed form does
    not need it; it is kept as the public view of the matrix the rank
    diagnosis reads, which the tests check against the dense Schur
    complement and the benchmark's tracing binds.
    """
    return information_stack(grid, np.array([cs.diag - cs.offdiag]), np.array([cs.offdiag]))[0]


def active_effects(grid: DesignGrid, additive: bool = False) -> tuple[str, ...]:
    """Labels of the effects whose indicator columns are nonzero: the
    effects an analysis of ``grid`` estimates.  ``additive`` drops the
    interaction, which an additive analysis leaves out of the model."""
    trt1, trt2, both = grid.sums[3]
    present = (trt1, trt2, 0 if additive else both)
    return tuple(label for label, n in zip(EFFECT_LABELS, present) if n)


@dataclass(frozen=True)
class TreatmentCovariance:
    """Symmetric covariance matrix of the estimable effect estimates, in
    squared effect units of the covariance entries' scale: row and column i
    belong to ``labels[i]``."""

    labels: tuple[str, ...]
    matrix: np.ndarray


def _cofactor(m: list, i: int, j: int) -> list[int]:
    """The (i, j) cofactor of an n x n matrix ``m`` of degree-1 polynomials
    (coefficient pairs), n <= 3: a polynomial of degree n - 1."""
    rows = [row[:j] + row[j + 1:] for k, row in enumerate(m) if k != i]
    if len(rows) < 2:
        minor = list(rows[0][0]) if rows else [1]
    else:
        ((p0, p1), (q0, q1)), ((r0, r1), (s0, s1)) = rows
        minor = [p0 * s0 - q0 * r0, p0 * s1 + p1 * s0 - q0 * r1 - q1 * r0, p1 * s1 - q1 * r1]
    return [-c for c in minor] if (i + j) % 2 else minor


def _exact_form(grid: DesignGrid, additive: bool):
    """``(labels, form)`` for the analysis of ``grid``: the estimable effects
    and the coefficients of their covariance, None when there is no effect
    or det(A) = 0; computed once per grid and analysis, in ``grid.forms``.

    Over the active effects, the design's integer sums give A = I*G - cols
    cols' and B = T*A - (I*R - t t'), and the covariance is
    I*sig_c*(sig_c + T*sig_a) * adj(M) / det(M) for M = sig_c*A + sig_a*B.
    The coefficients of det(M) and of each entry of adj(M), homogeneous
    polynomials in (sig_c, sig_a), are computed exactly in Python ints and
    rounded to floats once.  A and B are positive semidefinite, so det(M)
    and every variance have nonnegative coefficients.  A null vector of A
    is a combination of the effects that is a period effect, and B
    annihilates it too: the effects are estimable at every point when
    det(A) != 0 and at none when det(A) = 0.
    """
    if additive in grid.forms:
        return grid.forms[additive]
    labels = active_effects(grid, additive)
    form = None
    if labels:
        gram, cluster_gram, cols, totals = (array.astype(np.int64) for array in grid.sums)
        n_clusters, n_periods = grid.n_clusters, grid.n_periods
        a = n_clusters * gram - cols @ cols.T
        b = n_periods * a - n_clusters * cluster_gram + totals[:, None] * totals
        a, b = a.tolist(), b.tolist()
        active = [EFFECT_LABELS.index(label) for label in labels]
        m = [[(a[r][c], b[r][c]) for c in active] for r in active]
        n = len(m)
        upper = [(i, j) for i in range(n) for j in range(i, n)]
        # adj(M)[i][j] is the (j, i) cofactor, and M and adj(M) are symmetric
        adj = [_cofactor(m, j, i) for i, j in upper]
        det = [0] * (n + 1)
        for (x0, x1), cofactor in zip(m[0], adj):  # along the first row
            for k, c in enumerate(cofactor):
                det[k] += x0 * c
                det[k + 1] += x1 * c
        if det[0]:
            form = (float(n_clusters), float(n_periods), [float(c) for c in det],
                    [[float(c) for c in poly] for poly in adj],
                    [upper.index((min(i, j), max(i, j))) for i in range(n) for j in range(n)])
    grid.forms[additive] = labels, form
    return labels, form


def _scaled(diag, offdiag):
    """``(sig_c, sig_a, e)``: the within and between variances of the
    compound-symmetry entries times 2**-e, for e the binary exponent of the
    diagonal, from (K,) arrays or from floats.  The scaling is exact, and
    finite entries with diag > offdiag >= 0 give a sig_c of at least 2**-54
    and sig_c + sig_a in [0.5, 1)."""
    frexp, ldexp = (np.frexp, np.ldexp) if isinstance(diag, np.ndarray) \
        else (math.frexp, math.ldexp)
    exponent = frexp(diag)[1]
    sig_a = ldexp(offdiag, -exponent)
    return ldexp(diag, -exponent) - sig_a, sig_a, exponent


def _evaluate(form, diag, offdiag) -> np.ndarray:
    """The (K, n, n) covariance matrices at the K points of the
    compound-symmetry entries ``diag`` and ``offdiag``, given as (K,) arrays
    or as floats (K = 1), with the bits of the same point either way.

    A point is evaluated at its :func:`_scaled` variances and its covariance
    multiplied back by 2**e, which keeps every power of (sig_c, sig_a) in
    range and leaves only a covariance out of range unsolved.  The
    polynomials are evaluated by explicit products and left-to-right sums,
    plain arithmetic that floats and numpy arrays answer alike.
    """
    n_clusters, n_periods, det, adj, index = form
    sig_c, sig_a, exponent = _scaled(diag, offdiag)
    low = [1.0]  # the monomials of degree n - 1, sig_c**(n-1) first
    for _ in range(len(det) - 2):
        low = [x * sig_c for x in low] + [low[-1] * sig_a]
    high = [x * sig_c for x in low] + [low[-1] * sig_a]
    # reduce, not sum: from Python 3.12 sum compensates the rounding of
    # float additions but not of array additions
    scale = n_clusters * sig_c * (sig_c + n_periods * sig_a) / reduce(add, map(mul, det, high), 0)
    entries = [reduce(add, map(mul, coefs, low), 0) * scale for coefs in adj]
    n = len(det) - 1
    with np.errstate(all="ignore"):
        return np.ldexp(np.array(entries)[index], exponent).T.reshape(-1, n, n)


def _variance_errors(matrices: np.ndarray, diag, offdiag) -> dict:
    """A map from each of the (K, n, n) ``matrices`` with a variance not
    finite or not positive to its error; ``diag`` and ``offdiag`` are the
    entries of the K points, as (K,) arrays or as floats (K = 1)."""
    variances = matrices.diagonal(0, 1, 2)
    # a finite variance bounds the covariances of its effect
    failed = np.flatnonzero(~(np.isfinite(variances) & (variances > 0.0)).all(axis=1))
    errors = {}
    if failed.size:
        diag, offdiag = np.atleast_1d(diag, offdiag)
        for k in failed.tolist():
            what = "a variance of the effect estimates underflows to 0" \
                if np.isfinite(variances[k]).all() \
                else "covariance of the effect estimates is not finite"
            errors[k] = ParameterError(
                f"{what}: the covariance entries (diagonal {diag[k]:g}, off-diagonal "
                f"{offdiag[k]:g}) are too large or too small to represent")
    return errors


def closed_form_covariance(
    grid: DesignGrid, cs: CompoundSymmetry, additive: bool = False
) -> TreatmentCovariance:
    """Covariance of the effect estimates in closed form: one point of
    :func:`closed_form_stack`, evaluated on floats, raising its error.

    Effects whose columns are absent are dropped (no combined-condition
    cells -> 2x2; single treatment -> 1x1).  ``additive`` excludes the
    interaction column from the analysis model even when combined-condition
    cells exist, for designs analyzed under assumed-additive treatment
    effects.
    """
    labels, matrices, errors = closed_form_stack(grid, cs.diag, cs.offdiag, additive)
    if errors:
        raise errors[0]
    return TreatmentCovariance(labels=labels, matrix=matrices[0])


def closed_form_stack(grid: DesignGrid, diag: np.ndarray | float,
                      offdiag: np.ndarray | float, additive: bool = False):
    """The closed-form covariance of the effect estimates at the K points of
    the (K,) compound-symmetry entries ``diag`` and ``offdiag``, or at one
    point given as two floats; each point is elementwise arithmetic and gets
    the bits it gets on its own.

    Returns ``(labels, matrices, errors)``: the estimable effects, the (K,
    n, n) covariance matrices in input order, nan at every unsolved point,
    and a map from each unsolved point's index to its error: no effect
    estimable, an effect confounded with the intercept, the periods or
    another treatment (det(A) = 0, which fails every point), or a
    covariance not finite or with a variance underflowing to 0.
    """
    count = np.size(diag)
    labels, form = _exact_form(grid, additive)
    if not labels:
        errors = dict.fromkeys(range(count), RankDeficiencyError(NO_EFFECTS_ESTIMABLE))
        return labels, np.empty((count, 0, 0)), errors
    if form is None:
        return labels, np.full((count, len(labels), len(labels)), np.nan), \
            _rank_errors(grid, labels, diag, offdiag)
    matrices = _evaluate(form, diag, offdiag)
    errors = _variance_errors(matrices, diag, offdiag)
    if errors:
        matrices[list(errors)] = np.nan
    return labels, matrices, errors


def _rank_errors(grid: DesignGrid, labels: tuple[str, ...], diag, offdiag) -> dict:
    """The error of every point of an analysis with det(A) = 0, diagnosed in
    floating point: the offending effect is the largest entry of the null
    eigenvector of the point's information matrix, and the condition
    estimate the ratio of its extreme eigenvalues, or inf where that ratio
    does not pass :data:`CONDITION_LIMIT`, as rounding can make an exactly
    singular matrix look well conditioned."""
    active = np.array([EFFECT_LABELS.index(label) for label in labels])
    sig_c, sig_a, _ = _scaled(*np.atleast_1d(diag, offdiag))
    s = information_stack(grid, sig_c, sig_a)[:, active[:, None], active]
    eigvals = np.linalg.eigvalsh(s)
    nulls = np.linalg.eigh(s)[1][:, :, 0]
    return {k: RankDeficiencyError(
                "information matrix is rank deficient; the effect is confounded "
                "with the intercept, period effects, or another treatment column",
                effect=labels[int(np.argmax(np.abs(null)))],
                condition=high / low if 0.0 < low <= high / CONDITION_LIMIT else np.inf)
            for k, (null, low, high) in enumerate(zip(
                nulls, eigvals[:, 0].tolist(), np.abs(eigvals).max(axis=-1).tolist()))}


def oracle_covariance(
    grid: DesignGrid, cs: CompoundSymmetry, additive: bool = False
) -> TreatmentCovariance:
    """Covariance of the effect estimates via whitened dense GLS assembly.

    Every cluster's design block is Z_i = [F | X_i]: F the intercept and
    T-1 period indicators, the same for all clusters, and X_i its treatment
    columns.  With V = L L' factored once and A = L^-1 F, the GLS precision
    sum_i Z_i' V^-1 Z_i is assembled blockwise: the fixed block I A'A, the
    cross block A' L^-1 sum_i X_i and the treatment block B B', for B the
    whitened treatment columns of all clusters, one (p*I, T) @ L^-T
    product.  Sharing F across clusters is linearity of the sum, which
    holds for any V; the oracle uses neither the compound-symmetry inverse
    nor the closed form's profiling algebra or design sums, and caches
    nothing on the grid.  With the treatment columns last, the treatment
    block of the precision's inverse is (L22 L22')^-1, for L22 the
    lower-right block of its Cholesky factor: the inverse of the Schur
    complement that profiles out the intercept and periods.
    """
    n_periods, n_clusters = grid.n_periods, grid.n_clusters
    x, w = grid.indicators()
    treat = np.array([x, w, x * w])  # (3, I, T)
    present = treat.reshape(3, -1).any(axis=1)
    limit = 2 if additive else 3
    active = [k for k in range(limit) if present[k]]
    if not active:
        raise RankDeficiencyError(NO_EFFECTS_ESTIMABLE)
    labels = tuple(EFFECT_LABELS[k] for k in active)
    treat = treat[active]

    # intercept, then indicators of periods 1..T-1 (the last is the reference)
    fixed = np.eye(n_periods, k=1)
    fixed[:, 0] = 1.0
    # solved at the entries times 2**-e, exactly, for a diagonal of exponent e
    exponent = math.frexp(cs.diag)[1]
    v_cluster = np.full((n_periods, n_periods), math.ldexp(cs.offdiag, -exponent))
    np.fill_diagonal(v_cluster, math.ldexp(cs.diag, -exponent))
    l_inv = np.linalg.solve(np.linalg.cholesky(v_cluster), np.eye(n_periods))

    whitened_fixed = l_inv @ fixed
    # row k of B: whitened column k of every cluster in turn
    whitened = (treat.reshape(-1, n_periods) @ l_inv.T).reshape(len(active), -1)
    totals = np.ones(n_clusters) @ treat  # (p, T): sum_i X_i'
    precision = np.empty((n_periods + len(active),) * 2)
    precision[:n_periods, :n_periods] = n_clusters * (whitened_fixed.T @ whitened_fixed)
    precision[:n_periods, n_periods:] = whitened_fixed.T @ (l_inv @ totals.T)
    precision[n_periods:, :n_periods] = precision[:n_periods, n_periods:].T
    precision[n_periods:, n_periods:] = whitened @ whitened.T

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
    l22_inv = np.linalg.solve(lower[n_periods:, n_periods:], np.eye(len(active)))
    block = np.ldexp(l22_inv.T @ l22_inv, exponent)
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
