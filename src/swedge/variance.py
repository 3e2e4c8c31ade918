"""Variance-covariance of treatment-effect estimates in stepped wedge designs.

Two independent computation paths are provided.  The closed form assembles
scalar summaries of the design (counts of treated cluster-periods, their
per-cluster and per-period totals) into the 3x3 information matrix for the
treatment, second-treatment and product effects after profiling out the
intercept and period effects, then inverts it directly.  The dense oracle
builds the full GLS precision matrix cluster by cluster with generic
matrix inversion and factorizes it; it shares no intermediate results with
the closed form and exists to verify it.

Both paths take the design grid plus the compound-symmetry entries of the
cluster-mean covariance, so all three covariance models are handled by
substituting their effective diagonal/off-diagonal values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import CompoundSymmetry, ParameterError
from .designs import DesignGrid, build_design_matrix

EFFECT_LABELS = ("trt1", "trt2", "interaction")

# Unordered effect pairs in the order their cross terms are stored.
PAIR_INDICES = ((0, 1), (0, 2), (1, 2))

# Information matrices with a worse condition number than this are treated
# as rank deficient rather than invertible-but-noisy.
CONDITION_LIMIT = 1e12


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


def sherman_morrison_entries(cs: CompoundSymmetry, n_periods: int) -> tuple[float, float]:
    """(diagonal, off-diagonal) entries of the inverse cluster covariance.

    A compound-symmetric matrix is a scaled identity plus a rank-one
    all-ones update, so its inverse is compound symmetric too and follows
    from the Sherman-Morrison formula.
    """
    if n_periods < 1:
        raise ValueError("n_periods must be >= 1")
    sig_c = cs.within_variance
    sig_a = cs.between_variance
    denom = sig_c * (n_periods * sig_a + sig_c)
    diag = ((n_periods - 1) * sig_a + sig_c) / denom
    off = -sig_a / denom
    return diag, off


@dataclass(frozen=True)
class PrecisionTerms:
    """Scalar building blocks of the profiled information matrix.

    Arrays are indexed by effect (treatment 1, treatment 2, product);
    ``q`` and ``w_pairs`` follow :data:`PAIR_INDICES`.  ``y`` carries the
    fully-weighted cell counts, ``l`` the residual-weighted counts, ``h``
    their cross weighting, ``z`` the per-cluster total penalty, ``w`` the
    per-period column-sum squares, and ``w_pairs`` the per-period
    column-sum cross products.
    """

    a: float
    b: float
    c: float
    f: float
    g: float
    y: np.ndarray
    h: np.ndarray
    z: np.ndarray
    l: np.ndarray
    q: np.ndarray
    w: np.ndarray
    w_pairs: np.ndarray


def _indicator_stack(grid: DesignGrid) -> np.ndarray:
    """(3, I, T) stack of the treatment-1, treatment-2 and product indicators."""
    x, w = grid.indicators()
    return np.stack([x, w, x * w])


def precision_terms(grid: DesignGrid, cs: CompoundSymmetry) -> PrecisionTerms:
    """Compute every scalar term entering the closed-form information matrix."""
    n_periods = grid.n_periods
    n_clusters = grid.n_clusters
    sig_c = cs.within_variance
    sig_a = cs.between_variance

    a = 1.0 / (sig_c + n_periods * sig_a)
    b = 1.0 / sig_c
    c = a * b
    f = n_clusters * a
    g = n_clusters * c * sig_a

    ind = _indicator_stack(grid)
    totals = ind.sum(axis=(1, 2))          # one grand count per effect
    row_totals = ind.sum(axis=2)           # (3, I) per-cluster counts
    col_totals = ind.sum(axis=1)           # (3, T) per-period counts

    y = a * totals
    h = c * totals
    l = b * totals
    z = c * sig_a * (row_totals**2).sum(axis=1)
    w = (b * col_totals @ (b * col_totals).T)  # (3, 3) Gram of weighted column sums

    # Cross terms: the pointwise product of any two 0/1 indicator columns
    # equals the product indicator, so every pair shares the l term of the
    # product effect.
    q = np.array(
        [l[2] - c * sig_a * (row_totals[j] * row_totals[k]).sum() for j, k in PAIR_INDICES]
    )
    w_pairs = np.array([w[j, k] for j, k in PAIR_INDICES])
    return PrecisionTerms(
        a=a, b=b, c=c, f=f, g=g, y=y, h=h, z=z, l=l, q=q,
        w=np.diag(w).copy(), w_pairs=w_pairs,
    )


def information_matrix(grid: DesignGrid, cs: CompoundSymmetry) -> np.ndarray:
    """Profiled 3x3 information matrix of the three effect estimates.

    Entries corresponding to effects absent from the design are zero.
    """
    t = float(grid.n_periods)
    terms = precision_terms(grid, cs)
    f, g = terms.f, terms.g
    s = np.zeros((3, 3))
    for k in range(3):
        s[k, k] = (
            terms.l[k]
            - terms.z[k]
            - (terms.y[k] * terms.y[k]) / (f * t)
            - (terms.w[k] - (terms.l[k] * terms.l[k]) / t) / (f + g * t)
        )
    for m, (j, k) in enumerate(PAIR_INDICES):
        s[j, k] = (
            terms.q[m]
            - (terms.y[j] * terms.y[k]) / (f * t)
            - (terms.w_pairs[m] - (terms.l[j] * terms.l[k]) / t) / (f + g * t)
        )
        s[k, j] = s[j, k]
    return s


def active_effects(grid: DesignGrid) -> tuple[str, ...]:
    """Labels of the effects whose indicator columns are nonzero."""
    ind = _indicator_stack(grid)
    return tuple(
        EFFECT_LABELS[k] for k in range(3) if ind[k].any()
    )


@dataclass(frozen=True)
class TreatmentCovariance:
    """Symmetric covariance matrix of the estimable effect estimates.

    ``scale`` is the outcome variance of the working scale (1.0 when the
    inputs were standardized); entries are in squared effect units on that
    scale.
    """

    labels: tuple[str, ...]
    matrix: np.ndarray
    scale: float = 1.0

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

    def covariance(self, label_a: str, label_b: str) -> float:
        return float(self.matrix[self.index(label_a), self.index(label_b)])

    def se(self, label: str) -> float:
        return float(np.sqrt(self.variance(label)))


def _check_rank(s: np.ndarray, labels: tuple[str, ...]) -> None:
    eigvals = np.linalg.eigvalsh(s)
    top = float(np.max(np.abs(eigvals)))
    if top <= 0.0 or eigvals[0] <= top / CONDITION_LIMIT:
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
    """Explicit adjugate inverse for symmetric matrices up to 3x3.

    Written so that relabeling treatments (simultaneous swap of rows and
    columns 0 and 1) permutes the result bit-for-bit: every cofactor is
    grouped to rely only on commutativity of float multiply and add.
    """
    n = s.shape[0]
    if n == 1:
        return np.array([[1.0 / s[0, 0]]])
    if n == 2:
        s11, s22, s12 = s[0, 0], s[1, 1], s[0, 1]
        det = s11 * s22 - s12 * s12
        return np.array([[s22, -s12], [-s12, s11]]) / det
    s11, s22, s33 = s[0, 0], s[1, 1], s[2, 2]
    s12, s13, s23 = s[0, 1], s[0, 2], s[1, 2]
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
    return adj / det


def closed_form_covariance(
    grid: DesignGrid, cs: CompoundSymmetry, additive: bool = False
) -> TreatmentCovariance:
    """Covariance of the effect estimates via the closed-form scalar terms.

    The information matrix automatically drops effects whose columns are
    absent (no combined-condition cells -> 2x2; single treatment -> 1x1).
    ``additive`` excludes the interaction column from the analysis model
    even when combined-condition cells exist, for designs analyzed under
    assumed-additive treatment effects.

    Raises
    ------
    ParameterError
        If the covariance entries overflow or underflow the information
        matrix.
    RankDeficiencyError
        If no effect is present at all, or the information matrix for the
        present effects is (numerically) singular, naming the offending
        effect.
    """
    ind = _indicator_stack(grid)
    limit = 2 if additive else 3
    active = [k for k in range(limit) if ind[k].any()]
    if not active:
        raise RankDeficiencyError(
            "design has no treated cluster-periods; no effects are estimable"
        )
    labels = tuple(EFFECT_LABELS[k] for k in active)
    s = information_matrix(grid, cs)[np.ix_(active, active)]
    if not np.isfinite(s).all():
        raise ParameterError(
            "information matrix is not finite: the covariance entries "
            f"(diagonal {cs.diag:g}, off-diagonal {cs.offdiag:g}) are too large "
            "or too small to represent"
        )
    _check_rank(s, labels)
    return TreatmentCovariance(labels=labels, matrix=_invert_symmetric(s), scale=cs.scale)


def oracle_covariance(
    grid: DesignGrid, cs: CompoundSymmetry, additive: bool = False
) -> TreatmentCovariance:
    """Covariance of the effect estimates via dense GLS assembly.

    Builds the full precision matrix by accumulating per-cluster blocks
    with generically inverted cluster covariances, Cholesky-factorizes it,
    and extracts the treatment block.  Kept deliberately independent of
    the closed-form path.
    """
    design = build_design_matrix(grid)
    n_periods = grid.n_periods
    treat = design.treatment_columns()
    limit = 2 if additive else 3
    active = [k for k in range(limit) if treat[:, k].any()]
    if not active:
        raise RankDeficiencyError(
            "design has no treated cluster-periods; no effects are estimable"
        )
    labels = tuple(EFFECT_LABELS[k] for k in active)
    keep = list(range(n_periods)) + [n_periods + k for k in active]

    v_cluster = np.full((n_periods, n_periods), cs.offdiag)
    np.fill_diagonal(v_cluster, cs.diag)
    v_inv = np.linalg.inv(v_cluster)

    size = len(keep)
    precision = np.zeros((size, size))
    for i in range(grid.n_clusters):
        z_i = design.cluster_block(i)[:, keep]
        precision += z_i.T @ v_inv @ z_i

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
    return TreatmentCovariance(labels=labels, matrix=block, scale=cs.scale)


def contrast_variance(weights, cov: TreatmentCovariance) -> float:
    """Variance of a weighted combination of the effect estimates."""
    c = np.asarray(weights, dtype=float)
    if c.ndim != 1 or c.size != cov.dim:
        raise ParameterError(
            f"contrast length {c.size} does not match covariance dimension {cov.dim}"
        )
    if not c.any():
        raise ParameterError("contrast weights must not all be zero")
    var = float(c @ cov.matrix @ c)
    if not np.isfinite(var):
        raise ParameterError(f"contrast variance is not finite (weights {c.tolist()})")
    return var
