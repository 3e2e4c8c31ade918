"""Variance-covariance of treatment-effect estimates in stepped wedge designs.

Two independent computation paths are provided.  The closed form writes
the covariance of the treatment, second-treatment and product effects,
after profiling out the intercept and period effects, as an exact rational
function of the within and between variances sig_c and sig_a: for two
integer matrices A and B built from the design's cell codes it is
I*sig_c*(sig_c + T*sig_a) * adj(sig_c*A + sig_a*B) / det(sig_c*A + sig_a*B),
Hussey & Hughes (2007) for one treatment.  det and adj are homogeneous, so
each entry is sig_c times a ratio of two polynomials in the one variable
r = sig_a/sig_c, whose coefficients are computed once per design, exactly,
and kept in ``grid.forms``: a point costs a few products and estimability
is det(A) != 0.  The dense oracle whitens the design by the Cholesky factor
L of the cluster covariance V and assembles the GLS precision blockwise:
the intercept and period block, the same for every cluster, is whitened
once and counted I times, and every cluster's treatment columns are
whitened in one product.  That sharing is linearity of the sum over
clusters and holds for any V; the oracle uses no compound-symmetry
inverse, no profiling algebra and none of the closed form's design sums,
and exists to verify it.

Both paths take the design grid plus the compound-symmetry entries of the
cluster-mean covariance, so all three covariance models are handled by
substituting their effective diagonal/off-diagonal values.

The closed form reads the design's sums from its cells' bytes as Python
ints, and evaluates a point by Horner's rule in r, with no scaling: plain
arithmetic that Python floats and numpy arrays answer alike, so one point
given as floats is solved without numpy, and a stack of points as (K,)
arrays with the same bits per point.
Either way the covariance is one shape, n rows of n entry columns: entry
(i, j) is a float for one point and a (K,) array for a stack.  numpy is
imported on first use by the stacks, by the floating-point diagnosis of a
design with det(A) = 0, by the oracle and for the matrix
:func:`closed_form_covariance` returns.
"""

from __future__ import annotations

import contextlib
import math
import sys
from functools import reduce
from operator import add, and_, mul
from types import SimpleNamespace

from ._record import Record
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


# The translations of cell codes to their X, W and XW indicators.
_INDICATORS = tuple(bytes.maketrans(b"\1\2\3", row) for row in (b"\1\0\1", b"\0\1\1", b"\0\0\1"))


def _design_sums(grid: DesignGrid):
    """``(gram, cluster_gram, cols, totals)`` of the indicator stack (X, W,
    XW) of ``grid``, the one summary of a design the closed form reads, as
    nested lists of Python ints: the 3x3 Gram matrices of the cells and of
    the per-cluster totals, the (3, T) per-period totals and the grand
    totals.  The product of two different indicators is XW, so ``gram``
    holds the totals of X and W on its diagonal and that of XW everywhere
    else.

    The cells are summed as bytes, one column of I cells per period,
    translated to each indicator.  A period's total is the count of 1s in
    its column.  A cluster's total is the sum of its cells across the
    columns: read as ints, one byte per cluster, 255 columns add up with
    no byte passing 255, so no byte carries into the next, and the bytes of
    those partial sums are added cluster by cluster.
    """
    t, n_clusters = grid.n_periods, grid.n_clusters
    columns = [grid.cells[s::t] for s in range(t)]
    cols, clusters = [], []
    for table in _INDICATORS:
        indicator = [column.translate(table) for column in columns]
        cols.append([column.count(1) for column in indicator])
        chunks = [sum([int.from_bytes(column, "little") for column in indicator[s:s + 255]])
                  .to_bytes(n_clusters, "little") for s in range(0, t, 255)]
        clusters.append(reduce(lambda p, q: list(map(add, p, q)), chunks))
    cluster_gram = [[0] * 3 for _ in range(3)]
    for k in range(3):
        for l in range(k, 3):
            cluster_gram[k][l] = cluster_gram[l][k] = sum(map(mul, clusters[k], clusters[l]))
    totals = [sum(col) for col in cols]
    gram = [[totals[k] if k == l else totals[2] for l in range(3)] for k in range(3)]
    return gram, cluster_gram, cols, totals


def information_stack(grid: DesignGrid, sig_c, sig_a) -> np.ndarray:
    """Profiled information matrices of the three effects at many points:
    the floating-point diagnosis of an analysis whose effects are not
    estimable (det(A) = 0), which names the confounded effect and estimates
    the condition of each point.

    ``sig_c`` (within variance: diagonal minus off-diagonal) and ``sig_a``
    (between variance: the off-diagonal) are numpy arrays of one shape
    ``(K...)``; the result has shape ``(K..., 3, 3)``.
    The design enters only through its integer sums (:func:`_design_sums`):
    the Gram matrices G of the cells and R of the per-cluster totals, the
    per-period totals ``cols`` and the grand totals ``totals``, which numpy
    promotes exactly to floats.  With y = a*totals and l = b*totals,

        S = b*G - c*sig_a*R - y y'/(f*T)
            - ((b*cols)@(b*cols)' - l l'/T) / (f + g*T).

    Here a = 1/(sig_c + T*sig_a), b = 1/sig_c, c = a*b, f = I*a and
    g = I*c*sig_a.  Only these scalars depend on the covariance, and the
    grouping above fixes the rounding of every entry, so each point of a
    stack gets the same bits as on its own.  Entries corresponding to
    effects absent from the design are zero.  Overflowing or underflowing
    covariance entries give non-finite entries, not warnings.
    """
    import numpy as np

    gram, cluster_gram, cols, totals = map(np.array, _design_sums(grid))
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
    import numpy as np

    return information_stack(grid, np.array([cs.diag - cs.offdiag]), np.array([cs.offdiag]))[0]


def active_effects(grid: DesignGrid, additive: bool = False) -> tuple[str, ...]:
    """Labels of the effects an analysis of ``grid`` estimates, as the closed
    form decides them: those whose indicator columns are nonzero, but for
    the interaction when ``additive``, which leaves it out of the model."""
    return _exact_form(grid, additive)[0]


class TreatmentCovariance(Record):
    """Symmetric covariance matrix of the estimable effect estimates, in
    squared effect units of the covariance entries' scale: row and column i
    belong to ``labels[i]``."""

    labels: tuple[str, ...]
    matrix: np.ndarray

    def __init__(self, labels: tuple[str, ...], matrix: np.ndarray) -> None:
        self.__dict__.update(labels=labels, matrix=matrix)

    def _key(self) -> tuple:  # an array's == is elementwise: compare the entries
        return self.labels, self.matrix.tolist()


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
    """``(labels, form)`` for the analysis of ``grid``: the effects with a
    nonzero indicator column and the coefficients of their covariance, None
    with no effect or det(A) = 0; computed once, in ``grid.forms``.

    Over those effects, the integer sums of :func:`_design_sums` give
    A = I*G - cols cols' and B = T*A - (I*R - t t'), and the covariance is
    I*sig_c*(sig_c + T*sig_a) * adj(M) / det(M) for M = sig_c*A + sig_a*B.
    det(M) and adj(M) are homogeneous in (sig_c, sig_a), of degrees n and
    n - 1, so entry (i, j) is sig_c * N_ij(r) / det(r) at r = sig_a/sig_c,
    for det(r) = det(A + r*B) and N_ij(r) = I*(1 + T*r)*adj(A + r*B)_ij.
    ``form`` is ``(det, numerators)``: the coefficients of det and of each
    N_ij, highest degree first, computed exactly in Python ints and rounded
    to floats once.  A and B are positive semidefinite, so det and every
    variance's numerator have nonnegative coefficients, and det(r) >=
    det(A) >= 1 for r >= 0.  A null vector of A is a combination of the
    effects that is a period effect, and B annihilates it too: the effects
    are estimable at every point when det(A) != 0 and at none when
    det(A) = 0.
    """
    if additive in grid.forms:
        return grid.forms[additive]
    gram, cluster_gram, cols, totals = _design_sums(grid)
    active = [k for k in range(2 if additive else 3) if totals[k]]
    labels = tuple(EFFECT_LABELS[k] for k in active)
    form = None
    if labels:
        n_clusters, n_periods = grid.n_clusters, grid.n_periods
        m = []
        for r in active:
            m.append([])
            for c in active:
                a = n_clusters * gram[r][c] - sum(map(mul, cols[r], cols[c]))
                b = n_periods * a - n_clusters * cluster_gram[r][c] + totals[r] * totals[c]
                m[-1].append((a, b))
        n = len(m)
        # adj(M)[i][j]: the (j, i) cofactor, the (i, j) one as M is symmetric
        adj = [[_cofactor(m, j, i) for j in range(n)] for i in range(n)]
        det = [0] * (n + 1)
        for (x0, x1), cofactor in zip(m[0], adj[0]):  # along the first row
            for k, c in enumerate(cofactor):
                det[k] += x0 * c
                det[k + 1] += x1 * c
        if det[0]:
            def floats(poly):  # lowest degree first, as above, to floats highest first
                return [float(c) for c in reversed(poly)]
            form = floats(det), [[floats([n_clusters * (c + n_periods * b)
                                          for c, b in zip([*poly, 0], [0, *poly])])
                                  for poly in row] for row in adj]
    grid.forms[additive] = labels, form
    return labels, form


# math's stand-ins for the numpy functions the closed form applies to one
# point; Python float arithmetic never warns, so it needs no error state
_MATH = SimpleNamespace(sqrt=math.sqrt, errstate=lambda **_: contextlib.nullcontext())


def _elementwise(x):
    """numpy for an array ``x``, and :data:`_MATH` for a float: its ``sqrt``
    gives the values numpy gives, without loading numpy, and its
    ``errstate`` does nothing."""
    if isinstance(x, float):
        return _MATH
    import numpy as np

    return np


def _horner(coefficients, r):
    """The polynomial of ``coefficients``, highest degree first, at ``r``, a
    float or an array."""
    value = coefficients[0]
    for c in coefficients[1:]:
        value = value * r + c
    return value


def _points(x) -> list:
    """The values of ``x`` at each of its points: ``[x]`` for a float or a
    bool, one point, else the list of the (K,) array."""
    return [x] if isinstance(x, (float, bool)) else x.tolist()


_FLOAT_MAX = sys.float_info.max


def _failed(values: list) -> list[int]:
    """The indices of the points where any of ``values``, floats or (K,)
    arrays, is not finite and positive."""
    ok = _points(reduce(and_, [(v > 0.0) & (v <= _FLOAT_MAX) for v in values]))
    return [k for k, good in enumerate(ok) if not good] if False in ok else []


def _evaluate(form, diag, offdiag) -> list:
    """The covariance at the K points of the compound-symmetry entries
    ``diag`` and ``offdiag`` as n rows of n entries: (K,) arrays for (K,)
    arrays and floats for floats (K = 1), with the bits of the same point
    either way.

    Each entry is sig_c * N_ij(r) / det(r) at sig_c = diag - offdiag and
    r = offdiag/sig_c (see :func:`_exact_form`), each polynomial by
    Horner's rule: plain arithmetic that floats and numpy arrays answer
    alike, which forms no power of a variance.  Entries with
    diag > offdiag >= 0 give sig_c > 0 and r < 2**53, and det(r) >= 1, so
    only a covariance out of range is left unsolved.  sig_c multiplies
    last, since sig_c / det(r) can underflow where the entry does not.
    adj(M) is symmetric, so N_ij and N_ji have the same coefficients:
    each entry above the diagonal is evaluated once and ``cov[i][j]`` and
    ``cov[j][i]`` are the same object, which no caller writes to.
    """
    det, numerators = form
    sig_c = diag - offdiag
    r = offdiag / sig_c
    inverse = 1.0 / _horner(det, r)
    cov = [[None] * len(numerators) for _ in numerators]
    for i, row in enumerate(numerators):
        for j in range(i, len(row)):
            cov[i][j] = cov[j][i] = _horner(row[j], r) * inverse * sig_c
    return cov


def _variance_errors(cov: list, diag, offdiag) -> dict:
    """A map from each point whose covariance ``cov`` (see :func:`_evaluate`)
    holds a variance not finite or not positive to its error; ``diag`` and
    ``offdiag`` are the entries of the points."""
    variances = [row[i] for i, row in enumerate(cov)]
    # a finite variance bounds the covariances of its effect
    failed = _failed(variances)
    if failed:  # read the points' values only when one failed
        diag, offdiag, variances = _points(diag), _points(offdiag), list(map(_points, variances))
    errors = {}
    for k in failed:
        what = "a variance of the effect estimates underflows to 0" \
            if all(abs(v[k]) <= _FLOAT_MAX for v in variances) \
            else "covariance of the effect estimates is not finite"
        errors[k] = ParameterError(
            f"{what}: the covariance entries (diagonal {diag[k]:g}, off-diagonal "
            f"{offdiag[k]:g}) are too large or too small to represent")
    return errors


def closed_form_covariance(
    grid: DesignGrid, cs: CompoundSymmetry, additive: bool = False
) -> TreatmentCovariance:
    """Covariance of the effect estimates in closed form: one point of
    :func:`closed_form_stack`, evaluated on floats, raising its error, and
    its matrix as a numpy array.

    Effects whose columns are absent are dropped (no combined-condition
    cells -> 2x2; single treatment -> 1x1).  ``additive`` excludes the
    interaction column from the analysis model even when combined-condition
    cells exist, for designs analyzed under assumed-additive treatment
    effects.
    """
    labels, cov, errors = closed_form_stack(grid, cs.diag, cs.offdiag, additive)
    if errors:
        raise errors[0]
    import numpy as np

    return TreatmentCovariance(labels=labels, matrix=np.array(cov))


def closed_form_stack(grid: DesignGrid, diag: np.ndarray | float,
                      offdiag: np.ndarray | float, additive: bool = False):
    """The closed-form covariance of the effect estimates at the K points of
    the (K,) compound-symmetry entries ``diag`` and ``offdiag``, or at one
    point given as two floats; each point is elementwise arithmetic and gets
    the bits it gets on its own.  One point given as floats is solved
    without numpy, unless det(A) = 0 calls for the rank diagnosis.

    Returns ``(labels, cov, errors)``: the estimable effects; the
    covariance as entry columns, ``cov[i][j]`` entry (i, j) at every point
    in input order, a (K,) array, or for floats a float, and the same
    object as ``cov[j][i]``; and a map from
    each unsolved point's index to its error: no effect estimable, an
    effect confounded with the intercept, the periods or another treatment
    (det(A) = 0, which fails every point and leaves every entry nan), or a
    covariance not finite or with a variance underflowing to 0.  An
    unsolved point's entries mean nothing.
    """
    labels, form = _exact_form(grid, additive)
    if form is None:
        cov = [[diag * math.nan] * len(labels)] * len(labels)
        errors = _rank_errors(grid, labels, diag, offdiag) if labels else dict.fromkeys(
            range(len(_points(diag))), RankDeficiencyError(NO_EFFECTS_ESTIMABLE))
    else:
        with _elementwise(diag).errstate(all="ignore"):
            cov = _evaluate(form, diag, offdiag)
            errors = _variance_errors(cov, diag, offdiag)
    return labels, cov, errors


def _rank_errors(grid: DesignGrid, labels: tuple[str, ...], diag, offdiag) -> dict:
    """The error of every point of an analysis with det(A) = 0, diagnosed in
    floating point: the offending effect is the largest entry of the null
    eigenvector of the point's information matrix, and the condition
    estimate the ratio of its extreme eigenvalues, or inf where that ratio
    does not pass :data:`CONDITION_LIMIT`, as rounding can make an exactly
    singular matrix look well conditioned."""
    import numpy as np

    active = np.array([EFFECT_LABELS.index(label) for label in labels])
    # the entries scaled exactly by 2**-e, for e the binary exponent of the
    # diagonal, which keeps the information matrix's reciprocals in range
    diag, offdiag = np.atleast_1d(diag, offdiag)
    exponent = np.frexp(diag)[1]
    sig_a = np.ldexp(offdiag, -exponent)
    s = information_stack(grid, np.ldexp(diag, -exponent) - sig_a, sig_a)
    s = s[:, active[:, None], active]
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
    cross block A' L^-1 sum_i X_i and the treatment block B B', one
    ``einsum``.  B holds the whitened treatment columns of all clusters,
    one (p*I, T) @ L^-T product of the indicator planes of the p effects
    present, the only planes built.  Sharing F across clusters is
    linearity of the sum, which holds for any V; the oracle uses neither
    the compound-symmetry inverse nor the closed form's profiling algebra
    or design sums, and caches nothing on the grid.  A precision whose
    condition number passes :data:`CONDITION_LIMIT` raises
    RankDeficiencyError, naming the effect its null eigenvector loads
    most; the number is the ratio of its extreme eigenvalue magnitudes
    from ``eigvalsh``, which for a symmetric matrix is the SVD's ratio.
    With the treatment columns last, the treatment block of the
    precision's inverse is (L22 L22')^-1, for L22 the lower-right block of
    its Cholesky factor: the inverse of the Schur complement that profiles
    out the intercept and periods.
    """
    import numpy as np

    n_periods, n_clusters = grid.n_periods, grid.n_clusters
    # which effects the codes hold, each found by a scan that stops at a first hit
    cells = grid.cells
    present = (1 in cells or 3 in cells, 2 in cells or 3 in cells, 3 in cells)
    active = [k for k in range(2 if additive else 3) if present[k]]
    if not active:
        raise RankDeficiencyError(NO_EFFECTS_ESTIMABLE)
    labels = tuple(EFFECT_LABELS[k] for k in active)
    x, w = grid.indicators()
    treat = np.array([(x, w)[k] if k < 2 else x * w for k in active])  # (p, I, T)

    # intercept, then indicators of periods 1..T-1 (the last is the reference)
    fixed = np.eye(n_periods, k=1)
    fixed[:, 0] = 1.0
    # solved at the entries times 2**-e, exactly, for a diagonal of exponent e
    exponent = math.frexp(cs.diag)[1]
    v_cluster = np.full((n_periods, n_periods), math.ldexp(cs.offdiag, -exponent))
    np.fill_diagonal(v_cluster, math.ldexp(cs.diag, -exponent))
    try:
        l_inv = np.linalg.solve(np.linalg.cholesky(v_cluster), np.eye(n_periods))
    except np.linalg.LinAlgError:  # positive definite, but too near singular for a float factor
        raise RankDeficiencyError("cluster covariance is numerically singular",
                                  condition=float(np.linalg.cond(v_cluster))) from None

    whitened_fixed = l_inv @ fixed
    # row k of B: whitened column k of every cluster in turn
    whitened = (treat.reshape(-1, n_periods) @ np.ascontiguousarray(l_inv.T)).reshape(
        len(active), -1)
    totals = np.ones(n_clusters) @ treat  # (p, T): sum_i X_i'
    precision = np.empty((n_periods + len(active),) * 2)
    precision[:n_periods, :n_periods] = n_clusters * (whitened_fixed.T @ whitened_fixed)
    precision[:n_periods, n_periods:] = whitened_fixed.T @ (l_inv @ totals.T)
    precision[n_periods:, :n_periods] = precision[:n_periods, n_periods:].T
    precision[n_periods:, n_periods:] = np.einsum("ij,kj->ik", whitened, whitened)

    # the 2-norm condition of a symmetric matrix: its extreme |eigenvalues|' ratio
    magnitudes = np.abs(np.linalg.eigvalsh(precision))
    low, high = float(magnitudes.min()), float(magnitudes.max())
    condition = high / low if low > 0.0 else math.inf
    if not math.isfinite(condition) or condition > CONDITION_LIMIT:
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


def contrast_variances(weights, cov):
    """Variances of a weighted combination of the effect estimates at the
    points of ``cov``, entry columns as :func:`closed_form_stack` returns
    them, and a map from each point whose variance is not finite and
    positive, which gives no standard error, to its error.  Weights of the
    wrong length raise :class:`ParameterError`; that they are not all zero
    is :class:`~swedge.power.ContrastSpec`'s check."""
    c = [float(w) for w in weights]
    dim = len(cov)
    if len(c) != dim:
        raise ParameterError(f"contrast length {len(c)} does not match covariance dimension {dim}")
    # c' M c written elementwise, row sums first and each sum left to right,
    # so that every point of a stack gets the bits it gets on its own
    with _elementwise(cov[0][0]).errstate(all="ignore"):
        var = reduce(add, [reduce(add, [cov[i][j] * c[i] for i in range(dim)]) * c[j]
                           for j in range(dim)])
    values = _points(var)
    return var, {k: ParameterError(
        f"contrast variance is not finite (weights {c})" if not abs(values[k]) <= _FLOAT_MAX
        else f"contrast variance is not positive, got {values[k]:g} (weights {c})")
        for k in _failed([var])}
