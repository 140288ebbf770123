"""Sylvester resultants and transversality certificates.

Two plane curves of degree d with no common component meet in d*d
points counted with multiplicity.  After a linear change of coordinates
the resultant with respect to the first variable is a binary form of
degree d*d in the remaining two; if its dehomogenization on a chart
keeps full degree and is squarefree, every intersection point is
transversal and there are exactly d*d distinct ones.  The change of
coordinates is retried from a seeded generator, so certificates are
reproducible.

The certificate works on the chart z = 1 from the start.  Once both
x^d coefficients are nonzero constants, setting z = 1 commutes with the
resultant, and a binary form vanishes exactly when its dehomogenization
does, so the chart polynomial r(y) = Res_x(f, g)(y, 1) decides
everything.  It has degree at most d*d and is found exactly by
evaluating the 2d x 2d scalar Sylvester determinant at d*d + 1 distinct
nodes and interpolating: y = 0, 1, ..., d*d in characteristic zero or
above d*d, else nodes a + b*w of the quadratic extension, which has
p*p > d*d elements once p > d.  The interpolated coefficients lie in
the input field either way.  Only in characteristic at most d does the
certificate fall back to the bivariate ``sylvester_resultant`` and then
set z = 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .fields import GAUSSIAN, RATIONAL
from .linalg import det, poly_matrix_det
from .poly import Poly

TRANSVERSAL = "transversal"
FAILED = "failed"


def _coefficients_in(f, var):
    """Dense list of coefficient polynomials of f seen in one variable."""
    top = max((e[var] for e in f.terms), default=0)
    coeffs = [Poly.zero(f.field, f.nvars) for _ in range(top + 1)]
    for exps, coeff in f.terms.items():
        k = exps[var]
        stripped = tuple(0 if i == var else x for i, x in enumerate(exps))
        coeffs[k] = coeffs[k] + Poly.monomial(f.field, stripped, coeff)
    return coeffs


def sylvester_resultant(f, g, var):
    """Resultant of f and g with respect to one variable.

    The inputs must be nonzero and at least one must actually involve
    the variable; a zero-degree partner b contributes b**deg(f) as in
    the classical convention.  The output no longer involves ``var``.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of a zero polynomial")
    if f.field != g.field or f.nvars != g.nvars:
        raise ValueError("resultant needs one common ring")
    fc = _coefficients_in(f, var)
    gc = _coefficients_in(g, var)
    if len(fc) == len(gc) == 1:
        raise ValueError(f"neither input involves variable {var}")
    return poly_matrix_det(_sylvester_rows(fc, gc, Poly.zero(f.field, f.nvars)))


def _sylvester_rows(fc, gc, zero):
    """Sylvester matrix of two dense ascending coefficient lists."""
    df, dg = len(fc) - 1, len(gc) - 1
    n = df + dg
    rows = []
    for coeffs, shifts in ((fc, dg), (gc, df)):
        top_first = coeffs[::-1]
        for i in range(shifts):
            row = [zero] * n
            row[i : i + len(top_first)] = top_first
            rows.append(row)
    return rows


def _interpolate_consecutive(values, field):
    """Coefficients of the polynomial of degree < len(values) with r(t) = values[t].

    The nodes are t = 0, 1, ..., n.  The Newton coefficient of
    y(y-1)...(y-k+1) is the k-th forward difference at 0 divided by k!,
    so the characteristic must be zero or above n.
    """
    n = len(values) - 1
    newton, diffs = [], list(values)
    for _ in range(n + 1):
        newton.append(diffs[0])
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    factorial = field.one
    for k in range(2, n + 1):
        factorial = factorial * k
        newton[k] = newton[k] / factorial
    return _expand_newton(newton, [field.from_int(t) for t in range(n)])


def _interpolate(nodes, values):
    """Coefficients of the polynomial of degree < len(nodes) with r(nodes[i]) = values[i].

    Newton divided differences, for any distinct nodes.
    """
    n = len(nodes) - 1
    newton = list(values)
    for k in range(1, n + 1):
        for i in range(n, k - 1, -1):
            newton[i] = (newton[i] - newton[i - 1]) / (nodes[i] - nodes[i - k])
    return _expand_newton(newton, nodes)


def _expand_newton(newton, nodes):
    """Ascending coefficients of sum_k newton[k] * (y - nodes[0])...(y - nodes[k-1])."""
    coeffs = [newton[-1]]
    for k in range(len(newton) - 2, -1, -1):
        # coeffs <- coeffs * (y - nodes[k]) + newton[k]
        shifted = [newton[k]] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] = shifted[i] - c * nodes[k]
        coeffs = shifted
    return coeffs


def _chart_resultant(f, g, d):
    """Dense coefficients of Res_x(f, g)(y, 1), of length d*d + 1.

    Needs both x^d coefficients nonzero, so that every specialization
    y = t keeps the 2d x 2d Sylvester shape, and a characteristic p that
    is zero or above d, so that d*d + 1 distinct nodes exist: 0, 1, ...,
    d*d when p is zero or above d*d, else a + b*w in the quadratic
    extension, which has p*p > d*d elements.  The coefficients lie in
    the field of f and g whichever nodes were used.
    """
    field = f.field
    count = d * d + 1
    p = field.characteristic
    consecutive = p == 0 or p >= count
    if consecutive:
        node_field, nodes = field, [field.from_int(t) for t in range(count)]
    else:
        node_field = field.extension()
        nodes = [node_field.scalar(t % p, t // p) for t in range(count)]
    zero = node_field.zero
    terms = [
        [(i, j, node_field.embed(c)) for (i, j, _), c in h.terms.items()] for h in (f, g)
    ]

    def in_x(h_terms, powers):
        # coefficients of h(x, t, 1) in x, ascending
        coeffs = [zero] * (d + 1)
        for i, j, c in h_terms:
            coeffs[i] = coeffs[i] + c * powers[j]
        return coeffs

    values = []
    for t in nodes:
        powers = [node_field.one]
        for _ in range(d):
            powers.append(powers[-1] * t)
        rows = _sylvester_rows(in_x(terms[0], powers), in_x(terms[1], powers), zero)
        values.append(det(rows, node_field))
    if consecutive:
        return _interpolate_consecutive(values, field)
    coeffs = _interpolate(nodes, values)
    if node_field == field:
        return coeffs
    if any(c.b for c in coeffs):
        raise AssertionError("chart resultant left the base field")
    return [field.scalar(c.a) for c in coeffs]


def _dense_degree(coeffs):
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def _dense_mod(a, b, field):
    a = a[:]
    db = _dense_degree(b)
    lead_inv = b[db].inverse()
    da = _dense_degree(a)
    while da >= db:
        f = a[da] * lead_inv
        shift = da - db
        for i in range(db + 1):
            if b[i]:
                a[i + shift] = a[i + shift] - f * b[i]
        da = _dense_degree(a)
    return a[: max(da + 1, 1)] if da >= 0 else [field.zero]


def is_squarefree_univariate(f, var=None):
    """Whether a one-variable polynomial has no repeated roots.

    Decided by gcd(f, f') being constant; over the perfect coefficient
    fields here a vanishing derivative of a nonconstant polynomial
    already means a repeated root.  Constants count as squarefree; the
    zero polynomial is refused.
    """
    if f.is_zero:
        raise ValueError("squarefree test on the zero polynomial")
    return _dense_squarefree(f.univariate_coefficients(var), f.field)


def _dense_squarefree(coeffs, field):
    """is_squarefree_univariate on a dense ascending nonzero coefficient list."""
    if _dense_degree(coeffs) < 1:
        return True
    deriv = [coeffs[k] * k for k in range(1, len(coeffs))]
    if _dense_degree(deriv) < 0:
        return False
    a, b = coeffs, deriv
    while _dense_degree(b) > 0:
        a, b = b, _dense_mod(a, b, field)
        if _dense_degree(b) < 0:
            return False
    return True


def apply_linear_change(f, matrix):
    """Substitute x_i -> sum_j matrix[i][j] x_j everywhere in f."""
    n = f.nvars
    images = [Poly.linear_form(f.field, matrix[i]) for i in range(n)]
    result = Poly.zero(f.field, n)
    caches = [{} for _ in range(n)]
    for exps, coeff in f.terms.items():
        term = Poly.constant(f.field, n, coeff)
        for i, e in enumerate(exps):
            if e:
                cache = caches[i]
                pe = cache.get(e)
                if pe is None:
                    pe = images[i] ** e
                    cache[e] = pe
                term = term * pe
        result = result + term
    return result


def _random_change(field, rng):
    while True:
        if field.kind in (RATIONAL, GAUSSIAN):
            m = [[field.from_int(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        else:
            m = [[field.random_scalar(rng) for _ in range(3)] for _ in range(3)]
        if det(m, field):
            return m


@dataclass
class TransversalityResult:
    verdict: str
    points: int | None = None
    reason: str | None = None
    trials: int = 0
    change: list | None = None

    def __bool__(self):
        return self.verdict == TRANSVERSAL


def certify_transversal(f, g, seed=0, max_trials=8):
    """Certify that two equal-degree plane curves meet transversally.

    Success means the curves intersect in exactly d*d distinct points,
    each with intersection multiplicity one.  Failure names the reason:
    a shared component, or no projection with a squarefree full-degree
    resultant within the trial budget.
    """
    for h in (f, g):
        if h.is_zero or not h.is_homogeneous():
            raise ValueError("transversality needs nonzero homogeneous inputs")
    if f.field != g.field or f.nvars != 3 or g.nvars != 3:
        raise ValueError("transversality is defined for plane curves in 3 variables")
    d = f.homogeneous_degree()
    if g.homogeneous_degree() != d:
        raise ValueError("transversality check expects equal degrees")
    if d < 1:
        raise ValueError("transversality needs curves of positive degree")
    if max_trials < 1:
        raise ValueError(f"max_trials must be at least 1, got {max_trials}")
    field = f.field
    rng = random.Random(seed)
    target = d * d
    interpolate = field.characteristic == 0 or field.characteristic > d
    reason = "no change of coordinates gave a squarefree full-degree resultant"
    for trial in range(1, max_trials + 1):
        change = None if trial == 1 else _random_change(field, rng)
        fc = f if change is None else apply_linear_change(f, change)
        gc = g if change is None else apply_linear_change(g, change)
        lead = (d, 0, 0)
        if not fc.coefficient(lead) or not gc.coefficient(lead):
            continue
        if interpolate:
            coeffs = _chart_resultant(fc, gc, d)
        else:
            res = sylvester_resultant(fc, gc, 0)
            coeffs = res.set_variable(2, 1).univariate_coefficients(1)
        degree = _dense_degree(coeffs)
        if degree < 0:
            return TransversalityResult(
                FAILED, reason="curves share a component", trials=trial
            )
        if degree != target:
            continue
        if _dense_squarefree(coeffs, field):
            return TransversalityResult(
                TRANSVERSAL, points=target, trials=trial, change=change
            )
        reason = "resultant has a repeated root; intersection not transversal"
    return TransversalityResult(FAILED, reason=reason, trials=max_trials)
