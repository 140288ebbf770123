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
does, so the chart polynomial r(y) = Res_x(f, g)(y, 1), of degree at
most d*d, decides everything.  Over fp with p > d*d, ``_chart_residues``
takes r on plain integer residues: its values at the nodes y = 0..d*d,
each one Euclid resultant mod p, then interpolation (Collins 1971).
Every other field, and fp with p <= d*d (too few nodes), takes the
``sylvester_resultant`` of the two chart polynomials, whose 2d x 2d
determinant over K[y] is ``poly_matrix_det``.  Euclid's gcd on the
raw coefficients of r decides squarefreeness.

Over q and qi the forms' image mod the prime P = ``linalg._CHECK_PRIME``
is taken once per certificate by ``linalg._residue_rows`` (i goes to a
square root of -1 mod P), and each trial first runs the fp route on it,
in ``linalg._IMAGE_FIELD``: a full-degree squarefree image of r proves
the trial (see ``certify_transversal``).  Otherwise the exact r
decides, and its squarefree test again tries the image of its
coefficients first (see ``_squarefree``); an image that proves nothing
leaves the decision to the exact coefficients, so no answer depends on
the prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import mul

from .fields import GAUSSIAN, PRIME, RATIONAL
from .linalg import _IMAGE_FIELD, _residue_rows, det, poly_matrix_det
from .poly import Poly, _accumulate

TRANSVERSAL = "transversal"
FAILED = "failed"


def _coefficients_in(f, var):
    """Dense list of coefficient polynomials of f seen in one variable."""
    raws = [{} for _ in range(max((e[var] for e in f.raw), default=0) + 1)]
    for exps, v in f.raw.items():
        raws[exps[var]][exps[:var] + (0,) + exps[var + 1 :]] = v
    return [Poly._make(f.field, f.nvars, raw) for raw in raws]


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


def _strip(coeffs, zero):
    """A raw coefficient list, top one first, without its leading zeros."""
    return coeffs[next((i for i, c in enumerate(coeffs) if c != zero), len(coeffs)) :]


def _dense_mod(a, b, ar):
    """The remainder of a by b, stripped raw coefficient lists from the top one down."""
    n, t = len(b), ar.inv(b[0])
    while len(a) >= n:
        a = _strip(ar.sub(a[:n], b, t)[1:] + a[n:], ar.zero)  # sub clears a[0]
    return a


def is_squarefree_univariate(f, var=None):
    """Whether a one-variable polynomial has no repeated roots.

    Decided by gcd(f, f') being constant; over the perfect coefficient
    fields here a vanishing derivative of a nonconstant polynomial
    already means a repeated root.  Over q and qi a squarefree image
    mod a prime that keeps the degree decides first (see
    ``_squarefree``).  Constants count as squarefree; the zero
    polynomial is refused.
    """
    if f.is_zero:
        raise ValueError("squarefree test on the zero polynomial")
    return _squarefree(f.univariate_raw(var), f.field)


def _squarefree(coeffs, field):
    """``_dense_squarefree`` of a dense ascending raw list, over q and qi tried mod P first.

    P = _CHECK_PRIME.  Let R be Z localised at (P) over q, and Z[i]
    localised at the prime (P, i - _I) over qi (P = 1 mod 4 splits in
    Z[i]); either way R is a discrete valuation ring with residue field
    F_P, and the image map of ``linalg._residue_rows`` is reduction
    R -> F_P, defined when P divides no denominator.  Suppose r = s^2*t
    over the fraction field with deg s >= 1.  By Gauss' lemma s may be
    taken primitive in R[x], and then t lies in R[x] as well.  If P does
    not divide lc(r) = lc(s)^2*lc(t), lc(s) is a unit of R, so the
    reduction keeps deg s and r mod P = (s mod P)^2*(t mod P) has a
    repeated factor.  So an image that keeps the top coefficient and is
    squarefree proves r squarefree; every other image (a vanishing top
    coefficient, a repeated factor mod P, or no image at all) leaves the
    answer to Euclid on the exact coefficients.
    """
    if not field.p:
        zero = field.arith.zero
        image = _residue_rows([{j: c for j, c in enumerate(coeffs) if c != zero}], field)
        top = len(coeffs) - 1
        if image is not None and top in image[0]:
            residues = [image[0].get(j, 0) for j in range(top + 1)]
            if _dense_squarefree(residues, _IMAGE_FIELD.arith):
                return True
    return _dense_squarefree(coeffs, field.arith)


def _dense_squarefree(coeffs, ar):
    """is_squarefree_univariate on a dense ascending raw coefficient list."""
    a = _strip(coeffs[::-1], ar.zero)
    if len(a) < 2:
        return True
    ks = list(accumulate([ar.one] * (len(a) - 1), ar.add))  # raw 1, 2, ..., deg a
    b = _strip([ar.mul(c, k) for c, k in zip(a, ks[::-1])], ar.zero)
    while len(b) > 1:
        a, b = b, _dense_mod(a, b, ar)
    return len(b) == 1


def apply_linear_change(f, matrix):
    """Substitute x_i -> sum_j matrix[i][j] x_j everywhere in f, summing into one raw map."""
    n, ar = f.nvars, f.field.arith
    images = [Poly.linear_form(f.field, matrix[i]) for i in range(n)]
    raw = {}
    caches = [{} for _ in range(n)]
    for exps, coeff in f.raw.items():
        term = Poly._make(f.field, n, {(0,) * n: coeff})
        for i, e in enumerate(exps):
            if e:
                cache = caches[i]
                pe = cache.get(e)
                if pe is None:
                    pe = images[i] ** e
                    cache[e] = pe
                term = term * pe
        _accumulate(ar, raw, term.raw.items())
    return Poly._make(f.field, n, raw)


def _random_change(field, rng):
    while True:
        if field.kind in (RATIONAL, GAUSSIAN):
            m = [[field.from_int(rng.randint(-4, 4)) for _ in range(3)] for _ in range(3)]
        else:
            m = [[field.random_scalar(rng) for _ in range(3)] for _ in range(3)]
        if det(m, field):
            return m


def _chart_residues(f_raw, g_raw, d, p):
    """Res_x(f, g)(y, 1) mod p, ascending, d*d + 1 residues, from its values at y = 0..d*d.

    f_raw and g_raw map the exponents of forms of degree d in (x, y, z)
    to residues mod p, both with a nonzero x^d coefficient, and p > d*d.
    """
    n = d * d + 1
    columns = []
    for raw in (f_raw, g_raw):
        # the coefficient of x^i on the chart, ascending in y, for i = d..0
        column = [[0] * (d - i + 1) for i in range(d, -1, -1)]
        for (i, j, _), c in raw.items():
            column[d - i][j] = c
        columns.append(column)
    values = []
    for t in range(n):
        a, b = ([_horner(row, t) % p for row in column] for column in columns)
        values.append(_euclid_resultant(a, b, p))
    return [sum(map(mul, row, values)) % p for row in _lagrange(p, n)]


def _horner(row, t):
    """The ascending coefficient list row at t, unreduced."""
    value = 0
    for c in reversed(row):
        value = value * t + c
    return value


def _euclid_resultant(a, b, p):
    """Res(a, b) mod p of residue lists, top coefficient first and nonzero.

    Res(a, b) = (-1)^(mn) Res(b, a) = (-1)^(mn) lc(b)^(m - k) Res(b, a mod b)
    for deg a = m, deg b = n and deg(a mod b) = k; Res(a, c) = c^m for a
    constant c.
    """
    result = 1
    while len(b) > 1:
        m, n = len(a) - 1, len(b) - 1
        inv, r = pow(b[0], -1, p), a[:]
        for i in range(m - n + 1):
            c = r[i] * inv % p
            if c:
                for j in range(1, n + 1):
                    r[i + j] = (r[i + j] - c * b[j]) % p
        top = m - n + 1  # a mod b is r[top:] without its leading zeros
        while top <= m and not r[top]:
            top += 1
        if top > m:
            return 0
        if m * n % 2:
            result = -result
        result = result * pow(b[0], top, p) % p
        a, b = b, r[top:]
    return result * pow(b[0], len(a) - 1, p) % p


@lru_cache(maxsize=16)
def _lagrange(p, n):
    """Rows k = 0..n-1 of the inverse Vandermonde matrix of the nodes 0..n-1 mod p, p >= n.

    Row k holds the y^k coefficients of the Lagrange basis polynomials
    l_t(y) = prod_{s != t} (y - s) / (t - s), so its dot product with the
    values at the nodes is the k-th coefficient of the interpolant.
    """
    master = [1]  # prod_s (y - s), ascending
    for s in range(n):
        master = [(up - s * c) % p for up, c in zip([0] + master, master + [0])]
    basis = []
    for t in range(n):
        # master / (y - t) = prod_{s != t} (y - s) by synthetic division, from the top down
        quotient, carry = [0] * n, 0
        for k in range(n, 0, -1):
            carry = (master[k] + carry * t) % p
            quotient[k - 1] = carry
        inv = pow(_horner(quotient, t), -1, p)
        basis.append([c * inv % p for c in quotient])
    return list(zip(*basis))


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

    Each trial checks that both x^d coefficients are nonzero constants,
    so that every specialisation y = t keeps both chart polynomials at
    degree d and their resultant is r(t).  Over fp with p > d*d the
    d*d + 1 nodes 0..d*d are distinct and deg r <= d*d, so interpolating
    r(0), ..., r(d*d) (``_chart_residues``) gives r exactly.  Over q and
    qi the change of coordinates is drawn on the exact field, so the
    generator's stream and the reported change are the same on every
    route, and applied to the forms' image mod P = _CHECK_PRIME.
    Reduction mod P is the ring map of ``linalg._residue_rows``; when
    both x^d coefficients survive it, it commutes with Res_x, so the
    image's r is the image of the exact r.  A full-degree image of r
    then gives an exact r of full degree, hence nonzero, and a
    squarefree one proves r squarefree (see ``_squarefree``), so the
    trial is transversal exactly; every other trial takes the exact
    steps.
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
    lead = (d, 0, 0)
    zero = field.arith.zero
    by_values = field.kind == PRIME and field.p > target
    images = None if field.p or target >= _IMAGE_FIELD.p else _residue_rows([f.raw, g.raw], field)
    reason = "no change of coordinates gave a squarefree full-degree resultant"
    for trial in range(1, max_trials + 1):
        change = None if trial == 1 else _random_change(field, rng)
        if images is not None and _image_proves(images, change, d, field):
            return TransversalityResult(TRANSVERSAL, points=target, trials=trial, change=change)
        fc = f if change is None else apply_linear_change(f, change)
        gc = g if change is None else apply_linear_change(g, change)
        if not fc.coefficient(lead) or not gc.coefficient(lead):
            continue
        if by_values:
            coeffs = _chart_residues(fc.raw, gc.raw, d, field.p)
        else:
            coeffs = sylvester_resultant(fc.set_variable(2, 1), gc.set_variable(2, 1), 0).univariate_raw(1)
        if all(c == zero for c in coeffs):
            return TransversalityResult(
                FAILED, reason="curves share a component", trials=trial
            )
        if len(coeffs) - 1 != target or coeffs[target] == zero:
            continue
        if _squarefree(coeffs, field):
            return TransversalityResult(
                TRANSVERSAL, points=target, trials=trial, change=change
            )
        reason = "resultant has a repeated root; intersection not transversal"
    return TransversalityResult(FAILED, reason=reason, trials=max_trials)


def _image_proves(images, change, d, field):
    """Whether the image mod P of one trial of ``certify_transversal`` over q or qi proves it transversal."""
    if change is not None:
        (entries,) = _residue_rows([{k: field.arith.of(c) for k, c in enumerate(sum(change, []))}], field)
        matrix = [[entries.get(3 * i + j, 0) for j in range(3)] for i in range(3)]
        images = [apply_linear_change(Poly._make(_IMAGE_FIELD, 3, raw), matrix).raw for raw in images]
    lead = (d, 0, 0)
    if not all(lead in raw for raw in images):
        return False
    residues = _chart_residues(*images, d, _IMAGE_FIELD.p)
    return residues[-1] != 0 and _dense_squarefree(residues, _IMAGE_FIELD.arith)
