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
    ``(K...)``, or numpy scalars; the result has shape ``(K..., 3, 3)``.
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

    One point of :func:`information_stack`, on the summary of ``grid``.
    """
    return information_stack(design_summary(grid), np.float64(cs.within_variance),
                             np.float64(cs.between_variance))


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
    squared effect units of the covariance entries' scale."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise RankDeficiencyError(
                f"effect not estimable in this design ({', '.join(self.labels)} available)",
                effect=label,
            ) from None

    def variance(self, label: str) -> float:
        i = self.index(label)
        return float(self.matrix[i, i])

    def se(self, label: str) -> float:
        return float(np.sqrt(self.variance(label)))


def _well_conditioned(eigvals: np.ndarray) -> np.ndarray:
    """Mask of the matrices, given by their ascending eigenvalues, that
    pass the rank check."""
    top = np.abs(eigvals).max(axis=-1)
    return (top > 0.0) & (eigvals[..., 0] > top / CONDITION_LIMIT)


def _check_rank(s: np.ndarray, labels: tuple[str, ...]) -> None:
    eigvals = np.linalg.eigvalsh(s)
    if _well_conditioned(eigvals):
        return
    top = float(np.max(np.abs(eigvals)))
    vec = np.linalg.eigh(s)[1][:, 0]
    effect = labels[int(np.argmax(np.abs(vec)))]
    cond = np.inf if eigvals[0] <= 0 else top / eigvals[0]
    raise RankDeficiencyError(
        "information matrix is rank deficient; the effect is confounded "
        "with the intercept, period effects, or another treatment column",
        effect=effect,
        condition=cond,
    )


def _invert_symmetric(s: np.ndarray) -> np.ndarray:
    """Explicit adjugate inverse of symmetric matrices up to 3x3.

    ``s`` is one matrix or a stack of shape (K..., n, n); the result has
    the same shape and is C-contiguous.  Written so that relabeling
    treatments (simultaneous swap of rows and columns 0 and 1) permutes
    the result bit-for-bit: every cofactor is grouped to rely only on
    commutativity of float multiply and add.
    """
    n = s.shape[-1]
    if n == 1:
        return 1.0 / s
    # e[j, i] is s[..., i, j]: a scalar for one matrix, an array for a stack.
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
    """Covariance of the effect estimates via the closed-form information matrix.

    The information matrix automatically drops effects whose columns are
    absent (no combined-condition cells -> 2x2; single treatment -> 1x1).
    ``additive`` excludes the interaction column from the analysis model
    even when combined-condition cells exist, for designs analyzed under
    assumed-additive treatment effects.

    Raises
    ------
    ParameterError
        If the covariance entries overflow or underflow the information
        matrix or its inverse.
    RankDeficiencyError
        If no effect is present at all, or the information matrix for the
        present effects is (numerically) singular, naming the offending
        effect.
    """
    labels = active_effects(grid, additive)
    if not labels:
        raise RankDeficiencyError(NO_EFFECTS_ESTIMABLE)
    active = [EFFECT_LABELS.index(label) for label in labels]
    s = information_matrix(grid, cs)[np.ix_(active, active)]
    if not np.isfinite(s).all():
        raise _unrepresentable("information matrix", cs)
    _check_rank(s, labels)
    with np.errstate(all="ignore"):
        matrix = _invert_symmetric(s)
    if not np.isfinite(matrix).all():
        raise _unrepresentable("covariance of the effect estimates", cs)
    return TreatmentCovariance(labels=labels, matrix=matrix)


def _unrepresentable(what: str, cs: CompoundSymmetry) -> ParameterError:
    return ParameterError(
        f"{what} is not finite: the covariance entries "
        f"(diagonal {cs.diag:g}, off-diagonal {cs.offdiag:g}) are too large "
        "or too small to represent"
    )


def closed_form_stack(grid: DesignGrid, sig_c: np.ndarray, sig_a: np.ndarray,
                      additive: bool = False):
    """:func:`closed_form_covariance` at K points from one design summary.

    ``sig_c`` and ``sig_a`` are (K,) arrays of within and between
    variances.  Returns ``(labels, ok, matrices)``: the estimable effects,
    a (K,) mask of the points whose information matrix passes the finite
    and rank checks and has a finite inverse, and the covariance matrices
    of those points, in order, as one (m, n, n) array.  Each matrix has
    the bits :func:`closed_form_covariance` gives at its point; the points
    outside the mask are left to it to say what is wrong with them.
    """
    labels = active_effects(grid, additive)
    if not labels:
        return labels, np.zeros(len(sig_c), dtype=bool), np.empty((0, 0, 0))
    active = [EFFECT_LABELS.index(label) for label in labels]
    s = information_stack(design_summary(grid), sig_c, sig_a)[:, active][:, :, active]
    ok = np.isfinite(s).all(axis=(1, 2))
    ok[ok] = _well_conditioned(np.linalg.eigvalsh(s[ok]))
    with np.errstate(all="ignore"):
        matrices = _invert_symmetric(s[ok])
    finite = np.isfinite(matrices).all(axis=(1, 2))
    ok[ok] = finite
    return labels, ok, matrices[finite]


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
    v_cluster = np.full((n_periods, n_periods), cs.offdiag)
    np.fill_diagonal(v_cluster, cs.diag)
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
    block = full_cov[n_periods:, n_periods:]
    return TreatmentCovariance(labels=labels, matrix=block)


def quadratic_form(c: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``c' M c`` over the last two axes of ``m``, one matrix or a stack, written
    elementwise so that a matrix in a stack gets the bits it gets on its own;
    overflow gives inf, not a warning."""
    with np.errstate(all="ignore"):
        return ((m * c[:, None]).sum(-2) * c).sum(-1)


def contrast_variance(weights, cov: TreatmentCovariance) -> float:
    """Variance of a weighted combination of the effect estimates; it must
    be finite and positive for a standard error to exist."""
    c = np.asarray(weights, dtype=float)
    if c.ndim != 1 or c.size != cov.dim:
        raise ParameterError(
            f"contrast length {c.size} does not match covariance dimension {cov.dim}"
        )
    if not c.any():
        raise ParameterError("contrast weights must not all be zero")
    var = float(quadratic_form(c, cov.matrix))
    if not np.isfinite(var):
        raise ParameterError(f"contrast variance is not finite (weights {c.tolist()})")
    if var <= 0:
        raise ParameterError(f"contrast variance is not positive, got {var:g} "
                             f"(weights {c.tolist()})")
    return var
