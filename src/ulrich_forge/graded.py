"""Graded pieces of homogeneous ideals and smoothness certificates.

``hilbert_value(system, e)`` is the dimension of degree-e forms modulo
the degree-e piece of the ideal, computed as dim S_e minus the rank of
the matrix of monomial multiples of the generators.  Once the value
vanishes it vanishes in every larger degree (the degree-e piece is all
of S_e, and S_1 * S_e spans S_{e+1}), which turns vanishing into a
zero-dimensionality certificate.

For a hypersurface F of degree D with the characteristic not dividing
D, the Jacobian ring of a smooth F is a complete-intersection quotient
with top socle degree (n+1)(D-2), so the Hilbert value at
(n+1)(D-2)+1 is zero exactly when F is smooth.  Evaluating at that
degree is a decision, not a heuristic; degree-2 inputs reduce to the
rank of the Gram matrix because the partials are linear.

Any subset of the rows of the Macaulay matrix that has full column rank
already makes the degree-e piece all of S_e, so it proves a Hilbert
value of 0.  Past the socle bound the n+1 partials, all of degree
d = D-1, give such a subset with one row per column (Macaulay's
resultant matrix): partial i keeps only the multiples gamma * g_i with
gamma_j < d for every j < i.  For e > (n+1)(d-1) every degree-e
monomial x^a has an exponent a_i >= d, and the first such i gives its
one row, gamma = a - d*e_i.  Its determinant is the resultant times an extraneous
minor, so a full rank proves smoothness, while a deficiency decides
nothing: the extraneous minor can vanish on a smooth F (no x_i^D term,
say, or about 3 in p random forms over fp:p), and the prime can divide
the minor over q and qi.  ``is_smooth_hypersurface`` therefore ranks
the square submatrix first, over a finite field only, and ranks the full
matrix only when that falls short.

The order of the variables in that rule is chosen from F
(``_square_order``): those whose pure power x_i^D is missing from F go
last, the others keep their order.  The extraneous minor is the one on
the monomials divisible by x_i^d for two i or more (Macaulay 1902), and
the first such i in the order is never the last one, so its rows are
multiples of the first n generators only: a missing pure power in the
last place cannot make it vanish.  Every order gives a subset of the
Macaulay rows, so a full rank is a proof in any order; the order only
decides how often the square suffices.  With every pure power present
it is 0, 1, ..., n; on x^3*y + y^4 + z^4 over q it lifts the square
from rank 32 to 36 of 36, and a quartic surface over q without x^4 is
proved smooth by its square instead of the 336 x 220 full matrix.

The rank of a Macaulay matrix is exact in every field and is finished
over a finite field where it can: always over fp and fp2, and over q a
smooth F gives a full rank modulo a word-size prime, which already is
the rational rank, so smoothness over q is certified there; only a
singular F goes on to Bareiss elimination over the integers.  That rule
lives in ``linalg._rank_raw``, which takes the rows as built here:
``_macaulay_rows`` maps each row gamma * g from the columns of
gamma * x^a to g's raw coefficients, and the square check reads the
image rank alone, ``linalg._prime_rank``.  Monomials are coded as
integers in base e + 1, so the code of gamma * x^a is the sum of the
codes and its column is one dict lookup; the column map and the
multipliers gamma are cached per shape (variables, degree e, generator
degree, order), never per form.  The columns are ordered by the reversed
exponent tuple (the last variable's exponent first), which keeps the
fill-in of the elimination low: on a seeded octic over fp:32003 the
square submatrix in this order takes under a third of the entry updates
the full matrix takes in lex order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .fields import GAUSSIAN, RATIONAL
from .linalg import _prime_rank, _rank_raw
from .poly import Poly, monomials_of_degree

YES = "yes"
NO = "no"
INCONCLUSIVE = "inconclusive"
SMOOTH = "smooth"
SINGULAR = "singular"


class GradedSystem:
    """A list of homogeneous generators of positive degree in one ring."""

    __slots__ = ("field", "nvars", "generators")

    def __init__(self, generators):
        generators = list(generators)
        if not generators:
            raise ValueError("empty generator list")
        field, nvars = generators[0].field, generators[0].nvars
        for g in generators:
            if g.field != field or g.nvars != nvars:
                raise ValueError("generators from different rings")
            if g.is_zero or not g.is_homogeneous() or g.homogeneous_degree() < 1:
                raise ValueError("generators must be homogeneous of positive degree")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "generators", tuple(generators))

    def __setattr__(self, *_):
        raise AttributeError("GradedSystem is immutable")

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"GradedSystem({len(self.generators)} generators, {self.nvars} vars)"


def graded_dimension(nvars, e):
    """Dimension of the space of degree-e forms in nvars variables."""
    return comb(e + nvars - 1, nvars - 1)


def _code(exps, base):
    """The integer sum a_i * base^i of an exponent tuple a; base > every exponent."""
    code = 0
    for a in reversed(exps):
        code = code * base + a
    return code


@lru_cache(maxsize=None)
def _columns(nvars, e):
    """The column of each degree-e monomial, keyed by its code in base e + 1.

    Columns go in increasing order of the code, which is the order of
    the reversed exponent tuple (the last variable's exponent first).
    The product of two monomials whose degrees sum to e has the sum of
    their codes as its code, so a column is found with one addition.
    """
    codes = sorted(_code(m, e + 1) for m in monomials_of_degree(nvars, e))
    return {c: k for k, c in enumerate(codes)}


@lru_cache(maxsize=None)
def _multipliers(nvars, e, degree, earlier):
    """The codes in base e + 1 of the degree-(e - degree) multipliers gamma.

    Only those with gamma_j < degree for every j in ``earlier`` are kept.
    """
    return tuple(
        _code(g, e + 1)
        for g in monomials_of_degree(nvars, e - degree)
        if all(g[j] < degree for j in earlier)
    )


def _macaulay_rows(system, e, order=None):
    """Rows gamma * g of the Macaulay matrix in degree e, as sparse maps column -> raw value.

    The columns are those of ``_columns``, and only the multipliers
    depend on the generators' shape, so both come from caches keyed by
    the shape.  With ``order``, a permutation of the generators, all of
    one degree d and generator j paired with variable j, the rows come
    generator by generator in that order, and the generator in place k
    keeps only the multiples with gamma_j < d for each j placed before
    it: the Macaulay submatrix with one row per column, once e is past
    the socle bound.
    """
    nvars, gens = system.nvars, system.generators
    column = _columns(nvars, e)
    rows = []
    for k, i in enumerate(range(len(gens)) if order is None else order):
        raw = gens[i].raw
        # generators are homogeneous, so any term gives the degree
        degree = sum(next(iter(raw)))
        if degree > e:
            continue
        earlier = () if order is None else tuple(sorted(order[:k]))
        terms = [(_code(a, e + 1), v) for a, v in raw.items()]
        rows += [{column[g + c]: v for c, v in terms} for g in _multipliers(nvars, e, degree, earlier)]
    return rows


def _square_order(f):
    """The generator order of the square Macaulay submatrix of f's partials.

    The variables x_i whose pure power x_i^D occurs in f come first, in
    their own order, and the others last; with every pure power present
    this is 0, 1, ..., n.
    """
    n, D = f.nvars, f.homogeneous_degree()
    pure = [(0,) * i + (D,) + (0,) * (n - 1 - i) in f.raw for i in range(n)]
    return [i for i in range(n) if pure[i]] + [i for i in range(n) if not pure[i]]


def hilbert_value(system, e):
    """dim of degree-e forms modulo the ideal's degree-e piece (never negative)."""
    if e < 0:
        raise ValueError("degree must be nonnegative")
    width = graded_dimension(system.nvars, e)
    return width - _rank_raw(_macaulay_rows(system, e), system.field, width)


@dataclass
class ZeroDimResult:
    verdict: str
    e_witness: int | None = None
    point: tuple | None = None

    def __bool__(self):
        return self.verdict == YES


def _candidate_points(field, nvars, rng, trials):
    one, zero = field.one, field.zero
    for i in range(nvars):
        yield tuple(one if j == i else zero for j in range(nvars))
    if field.kind in (RATIONAL, GAUSSIAN):
        small = [field.from_int(v) for v in (0, 1, -1, 2, -2)]
        if nvars <= 4:
            count = 0
            for combo in itertools.product(range(len(small)), repeat=nvars):
                point = tuple(small[c] for c in combo)
                nz = [v for v in point if v]
                if not nz or nz[0] != one:
                    continue
                yield point
                count += 1
                if count >= 1500:
                    break
        for _ in range(trials):
            yield tuple(field.from_int(rng.randint(-6, 6)) for _ in range(nvars))
    else:
        for _ in range(trials):
            yield tuple(field.random_scalar(rng) for _ in range(nvars))


def find_projective_zero(system, seed=0, trials=300):
    """A verified common projective zero of the system, or None.

    Candidates are the coordinate points, a small-height sweep over the
    infinite fields, and seeded random points; every hit is confirmed
    by exact evaluation, so a returned point is a genuine witness.
    """
    rng = random.Random(seed)
    gens = system.generators
    for point in _candidate_points(system.field, system.nvars, rng, trials):
        if not any(point):
            continue
        if all(not g.evaluate(point) for g in gens):
            return point
    return None


def is_zero_dimensional(system, e_max, seed=0):
    """Certify that the projective zero set is empty, or exhibit a point.

    yes(e): the Hilbert value vanishes at e <= e_max and therefore in
    every larger degree.  no(point): a verified common projective zero,
    so the value never vanishes.  Inconclusive otherwise.
    """
    if e_max < 0:
        raise ValueError("e_max must be nonnegative")
    nvars = system.nvars
    for e in range(1, e_max + 1):
        width = graded_dimension(nvars, e)
        budget = sum(
            graded_dimension(nvars, e - g.homogeneous_degree())
            for g in system
            if g.homogeneous_degree() <= e
        )
        if budget < width:
            continue
        if hilbert_value(system, e) == 0:
            return ZeroDimResult(YES, e_witness=e)
    point = find_projective_zero(system, seed=seed)
    if point is not None:
        return ZeroDimResult(NO, point=point)
    return ZeroDimResult(INCONCLUSIVE)


@dataclass
class SmoothnessResult:
    verdict: str
    witness: tuple | None = None
    e_used: int | None = None

    def __bool__(self):
        return self.verdict == SMOOTH


def jacobian_system(f):
    return GradedSystem([g for g in f.gradient() if g])


def is_smooth_hypersurface(f, e_max=None, seed=0):
    """Decide smoothness of the projective hypersurface f = 0.

    The default evaluation degree is the socle bound (n+1)(D-2)+1; at
    that degree a nonzero Hilbert value certifies a singular point over
    the algebraic closure (reported with a rational witness when the
    point search finds one).  Passing a smaller e_max can only return
    smooth or inconclusive.

    From the socle bound on, with all n+1 partials present, the square
    Macaulay submatrix is ranked first over a finite field: a full rank
    there proves the Hilbert value 0, as any full-rank subset of the
    rows does, and so proves smoothness.  The variables whose pure power
    x_i^D is missing from f go last in the square's order: its
    extraneous minor holds no multiple of the last partial, so a missing
    pure power there cannot make it vanish.  A deficiency decides nothing
    (the extraneous minor, or over q and qi the prime, may be to blame);
    then the full Macaulay matrix decides, as ``hilbert_value``.
    """
    if f.is_zero or not f.is_homogeneous():
        raise ValueError("need a nonzero homogeneous polynomial")
    degree = f.homogeneous_degree()
    if degree < 1:
        raise ValueError("need positive degree")
    if f.nvars < 2:
        raise ValueError("need at least two variables")
    p = f.field.characteristic
    if p and degree % p == 0:
        raise ValueError(
            f"characteristic {p} divides deg = {degree}; the Jacobian criterion does not apply"
        )
    if degree == 1:
        return SmoothnessResult(SMOOTH)
    bound = f.nvars * (degree - 2) + 1
    e_used = bound if e_max is None else e_max
    system = jacobian_system(f)
    if len(system) < f.nvars:
        # fewer than n+1 forms always share a projective zero, so a
        # vanishing partial derivative already forces a singular point
        witness = find_projective_zero(system, seed=seed, trials=200)
        return SmoothnessResult(SINGULAR, witness=witness)
    if e_used >= bound:
        width = graded_dimension(f.nvars, e_used)
        square = _macaulay_rows(system, e_used, _square_order(f))
        if _prime_rank(square, f.field, width) == width:
            return SmoothnessResult(SMOOTH, e_used=e_used)
    value = hilbert_value(system, e_used)
    if value == 0:
        return SmoothnessResult(SMOOTH, e_used=e_used)
    if e_used >= bound:
        witness = find_projective_zero(system, seed=seed, trials=200)
        return SmoothnessResult(SINGULAR, witness=witness, e_used=e_used)
    return SmoothnessResult(INCONCLUSIVE, e_used=e_used)
