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
most d*d, decides everything.  It is the ``sylvester_resultant`` of the
two chart polynomials, whose 2d x 2d determinant over K[y] is taken by
``poly_matrix_det`` in every characteristic; Euclid's gcd on its raw
coefficients decides squarefreeness.

Over q and qi that gcd runs mod the prime P = ``linalg._CHECK_PRIME``
first, on the image that ``linalg._residue_rows`` gives of the
coefficients as one sparse row (i goes to a square root of -1 mod P).
A squarefree image of full degree proves the polynomial squarefree (see
``_squarefree``); any other image leaves the decision to Euclid on the
exact coefficients, so no answer depends on the prime.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate

from .fields import GAUSSIAN, RATIONAL, FieldSpec
from .linalg import _CHECK_PRIME, _residue_rows, det, poly_matrix_det
from .poly import Poly

TRANSVERSAL = "transversal"
FAILED = "failed"

# the prime field of the mod-P-first squarefree test over q and qi
_IMAGE_FIELD = FieldSpec.prime(_CHECK_PRIME)


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
    """Substitute x_i -> sum_j matrix[i][j] x_j everywhere in f."""
    n = f.nvars
    images = [Poly.linear_form(f.field, matrix[i]) for i in range(n)]
    result = Poly.zero(f.field, n)
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
    reason = "no change of coordinates gave a squarefree full-degree resultant"
    for trial in range(1, max_trials + 1):
        change = None if trial == 1 else _random_change(field, rng)
        fc = f if change is None else apply_linear_change(f, change)
        gc = g if change is None else apply_linear_change(g, change)
        lead = (d, 0, 0)
        if not fc.coefficient(lead) or not gc.coefficient(lead):
            continue
        res = sylvester_resultant(fc.set_variable(2, 1), gc.set_variable(2, 1), 0)
        coeffs = res.univariate_raw(1)
        if res.is_zero:
            return TransversalityResult(
                FAILED, reason="curves share a component", trials=trial
            )
        if len(coeffs) - 1 != target:
            continue
        if _squarefree(coeffs, field):
            return TransversalityResult(
                TRANSVERSAL, points=target, trials=trial, change=change
            )
        reason = "resultant has a repeated root; intersection not transversal"
    return TransversalityResult(FAILED, reason=reason, trials=max_trials)
