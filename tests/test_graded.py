"""Hilbert function values, zero-dimensionality, smoothness checks."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from math import comb

import pytest

from ulrich_forge import graded
from ulrich_forge import (
    FieldSpec,
    GradedSystem,
    Poly,
    graded_dimension,
    hilbert_value,
    is_smooth_hypersurface,
    is_zero_dimensional,
    jacobian_system,
    parse_poly,
    random_homogeneous,
)
from ulrich_forge.graded import INCONCLUSIVE, NO, SINGULAR, SMOOTH, YES, find_projective_zero
from ulrich_forge.linalg import _CHECK_PRIME, _I, _IMAGE_FIELD, _prime_rank, _rank_raw, _residue_rows
from ulrich_forge.poly import monomials_of_degree

from oracles import macaulay_rows, rank_in_extension


def _monomial_quotient_count(gens, nvars, e):
    """Brute force: degree-e monomials divisible by no generator."""
    exps = [next(iter(g.terms)) for g in gens]
    count = 0
    for m in monomials_of_degree(nvars, e):
        if not any(all(m[i] >= g[i] for i in range(nvars)) for g in exps):
            count += 1
    return count


def test_graded_dimension_is_binomial():
    for nvars in (1, 2, 3, 4):
        for e in range(6):
            assert graded_dimension(nvars, e) == comb(nvars + e - 1, e)


@pytest.mark.parametrize("nvars, e", [(1, 3), (2, 4), (3, 2), (3, 5), (4, 3)])
def test_macaulay_columns_go_in_reversed_exponent_order(nvars, e):
    # the column order sets the fill-in of the Macaulay eliminations; the
    # codes are sum a_i * (e + 1)^i, computed here independently
    monomials = sorted(monomials_of_degree(nvars, e), key=lambda m: m[::-1])
    codes = [sum(a * (e + 1) ** i for i, a in enumerate(m)) for m in monomials]
    assert graded._columns(nvars, e) == {c: k for k, c in enumerate(codes)}
    assert list(graded._columns(nvars, e)) == codes


def test_graded_system_rejects_empty(q):
    with pytest.raises(ValueError):
        GradedSystem([])


def test_hilbert_value_frozen(q):
    coords = GradedSystem([parse_poly(s, q, nvars=3) for s in ("x", "y", "z")])
    assert hilbert_value(coords, 1) == 0
    assert hilbert_value(coords, 2) == 0
    two = GradedSystem([parse_poly(s, q, nvars=3) for s in ("x", "y")])
    # quotient is k[z], one monomial per degree
    for e in range(1, 5):
        assert hilbert_value(two, e) == 1


def test_hilbert_value_on_monomial_ideals_matches_counting(f101):
    gens = [parse_poly(s, f101, nvars=3) for s in ("x^2", "x*y", "y^3")]
    system = GradedSystem(gens)
    for e in range(1, 7):
        assert hilbert_value(system, e) == _monomial_quotient_count(gens, 3, e)


def test_hilbert_value_complete_intersection_frozen(f101):
    # three quadrics in 3 variables: 1, 3, 3, 1, 0, ... as a quotient
    gens = [parse_poly(s, f101, nvars=3) for s in ("x^2", "y^2", "z^2")]
    system = GradedSystem(gens)
    assert [hilbert_value(system, e) for e in range(1, 6)] == [3, 3, 1, 0, 0]


def test_hilbert_vanishing_persists_upward():
    rng = random.Random(61)
    f101 = FieldSpec.prime(101)
    for _ in range(5):
        gens = [random_homogeneous(f101, 3, rng.randint(1, 2), rng) for _ in range(4)]
        system = GradedSystem(gens)
        values = [hilbert_value(system, e) for e in range(1, 8)]
        seen_zero = False
        for v in values:
            if seen_zero:
                assert v == 0
            seen_zero = seen_zero or v == 0


def test_zero_dimensional_yes(q):
    system = GradedSystem([parse_poly(s, q, nvars=3) for s in ("x", "y", "z")])
    res = is_zero_dimensional(system, e_max=3)
    assert res.verdict == YES
    assert bool(res)
    assert res.e_witness == 1


def test_zero_dimensional_no_comes_with_a_checked_point(q):
    system = GradedSystem([parse_poly(s, q, nvars=3) for s in ("x", "y")])
    res = is_zero_dimensional(system, e_max=4)
    assert res.verdict == NO
    assert not bool(res)
    assert res.point is not None
    for g in system.generators:
        assert g.evaluate(res.point).is_zero
    assert any(not c.is_zero for c in res.point)


def test_zero_dimensional_inconclusive_then_yes(f101):
    system = GradedSystem([parse_poly(s, f101, nvars=3) for s in ("x^3", "y^3", "z^3")])
    early = is_zero_dimensional(system, e_max=6)
    assert early.verdict == INCONCLUSIVE
    assert not bool(early)
    late = is_zero_dimensional(system, e_max=7)
    assert late.verdict == YES
    assert late.e_witness == 7


def test_smooth_fermat_quartic(q, f101):
    for field in (q, f101):
        res = is_smooth_hypersurface(parse_poly("x^4 + y^4 + z^4", field))
        assert res.verdict == SMOOTH
        assert bool(res)
        assert res.e_used is not None


def test_singular_cubic_witness_is_verified(f101):
    f = parse_poly("x^2*y - z^3 + x*z^2", f101)
    res = is_smooth_hypersurface(f)
    assert res.verdict == SINGULAR
    assert not bool(res)
    point = res.witness
    assert point is not None
    assert f.evaluate(point).is_zero
    for g in f.gradient():
        assert g.evaluate(point).is_zero


def test_smooth_quadric_matches_gram_rank(q, f13):
    for field in (q, f13):
        assert is_smooth_hypersurface(parse_poly("x^2 + y^2 + z^2", field))
        res = is_smooth_hypersurface(parse_poly("x*y", field, nvars=3))
        assert res.verdict == SINGULAR
        assert [str(c) for c in res.witness] == ["0", "0", "1"]


def test_linear_forms_are_smooth(q):
    assert is_smooth_hypersurface(parse_poly("x + 2*y", q, nvars=3)).verdict == SMOOTH


def test_smoothness_refuses_bad_characteristic():
    f13 = FieldSpec.prime(13)
    with pytest.raises(ValueError):
        is_smooth_hypersurface(parse_poly("x^13 + y^13 + z^13", f13))


def test_smoothness_needs_homogeneous_nonzero(q):
    from ulrich_forge import Poly

    with pytest.raises(ValueError):
        is_smooth_hypersurface(Poly.zero(q, 3))
    with pytest.raises(ValueError):
        is_smooth_hypersurface(parse_poly("x^2", q, nvars=2) + parse_poly("y", q, nvars=2))


def test_jacobian_system_drops_zero_partials(q):
    f = parse_poly("x^3 + y^3", q, nvars=3)
    system = jacobian_system(f)
    assert len(system) == 2


def test_graded_system_rejects_mixed_rings(q, f13):
    with pytest.raises(ValueError):
        GradedSystem([parse_poly("x", q, nvars=2), parse_poly("y", f13, nvars=2)])


def test_zero_dimensional_deterministic_under_seed(f101):
    system = GradedSystem([parse_poly(s, f101, nvars=3) for s in ("x*y", "z^2")])
    a = is_zero_dimensional(system, e_max=4, seed=5)
    b = is_zero_dimensional(system, e_max=4, seed=5)
    assert a.verdict == b.verdict
    assert a.point == b.point


def _reduce_mod(form, field):
    """The image of a form over q in a prime field (no denominator divisible by p)."""
    p = field.p
    terms = {}
    for e, c in form.terms.items():
        residue = c.a.numerator * pow(c.a.denominator, -1, p) % p
        if residue:
            terms[e] = field.scalar(residue)
    return Poly(field, form.nvars, terms)


def _reduce_gaussian_mod(form, field):
    """The image of a form over qi in fp:p, p = 1 mod 4, with i sent to a root of -1."""
    p = field.p
    root = next(r for r in range(p) if r * r % p == p - 1)
    terms = {}
    for e, c in form.terms.items():
        a, b = (v.numerator * pow(v.denominator, -1, p) for v in (c.a, c.b))
        residue = (a + b * root) % p
        if residue:
            terms[e] = field.scalar(residue)
    return Poly(field, form.nvars, terms)


@pytest.mark.parametrize("degree, seed, budget", [(4, 5, 1.0), (5, 11, 1.0)])
def test_smooth_surface_over_q_within_budget(q, degree, seed, budget):
    form = random_homogeneous(q, 4, degree, random.Random(seed))
    # independent check: the reduction mod 32003 keeps every term and is
    # smooth, and the Macaulay matrix can only lose rank mod a prime, so
    # the surface is smooth over Q
    reduced = _reduce_mod(form, FieldSpec.prime(32003))
    assert len(reduced.terms) == len(form.terms)
    assert is_smooth_hypersurface(reduced).verdict == SMOOTH
    start = time.perf_counter()
    res = is_smooth_hypersurface(form)
    elapsed = time.perf_counter() - start
    assert res.verdict == SMOOTH and res.e_used == 4 * (degree - 2) + 1
    assert elapsed < budget, f"degree-{degree} surface over q took {elapsed:.2f}s"


def test_smooth_surface_over_qi_within_budget(qi):
    form = random_homogeneous(qi, 4, 4, random.Random(5), span=2)
    assert any(c.b for c in form.terms.values())
    # independent check as over q: the reduction mod 32009 = 1 mod 4, with
    # i sent to a square root of -1, keeps every term and is smooth
    reduced = _reduce_gaussian_mod(form, FieldSpec.prime(32009))
    assert len(reduced.terms) == len(form.terms)
    assert is_smooth_hypersurface(reduced).verdict == SMOOTH
    start = time.perf_counter()
    res = is_smooth_hypersurface(form)
    elapsed = time.perf_counter() - start
    assert res.verdict == SMOOTH and res.e_used == 9
    assert elapsed < 0.25, f"quartic surface over qi took {elapsed:.2f}s"


def _full_route(f):
    """Smoothness read off the full Macaulay matrix alone: (verdict, witness, e_used)."""
    system = jacobian_system(f)
    e = f.nvars * (f.homogeneous_degree() - 2) + 1
    if hilbert_value(system, e) == 0:
        return SMOOTH, None, e
    return SINGULAR, find_projective_zero(system, seed=0, trials=200), e


def _square_rank(f, order=None):
    """(prime rank, width) of the square Macaulay submatrix of the partials at the socle bound.

    The generator order is the library's unless ``order`` is given.
    """
    e = f.nvars * (f.homogeneous_degree() - 2) + 1
    order = graded._square_order(f) if order is None else order
    rows = macaulay_rows(jacobian_system(f), e, order=order)
    assert len(rows) == graded_dimension(f.nvars, e)
    return _prime_rank(_sparse(rows, f.field), f.field, len(rows)), len(rows)


def _count_hilbert_calls(monkeypatch):
    calls = []
    full = graded.hilbert_value
    monkeypatch.setattr(graded, "hilbert_value", lambda *args: calls.append(args) or full(*args))
    return calls


def _singular_plane_form(field, degree, rng, at_coordinate_point):
    """A form in the square of the ideal of one rational point, so singular there."""
    if at_coordinate_point:
        # the point (1, 0, 0), which the witness search tries first
        l1, l2 = parse_poly("y", field, nvars=3), parse_poly("z", field, nvars=3)
    else:
        l1, l2 = (random_homogeneous(field, 3, 1, rng, span=3) for _ in range(2))
    g, h, k = (random_homogeneous(field, 3, degree - 2, rng, span=3) for _ in range(3))
    return l1 * l1 * g + l1 * l2 * h + l2 * l2 * k


# Largest degree of the singular forms per field kind: a singular matrix
# is ranked in full, mod p over fp and fp2 (realified over fp2) but
# exactly over q and qi (Bareiss over Z and Z[i]), which takes seconds
# past degree 4.
_SINGULAR_DEGREE_MAX = {"fp": 8, "fp2": 8, "q": 4, "qi": 4}


@pytest.mark.parametrize("spec", ["fp:101", "fp:32003", "fp2:101", "q", "qi"])
def test_square_route_agrees_with_the_full_hilbert_value(spec, monkeypatch):
    field = FieldSpec.parse(spec)
    calls = _count_hilbert_calls(monkeypatch)
    rng = random.Random(89)
    for degree in (4, 6, 8):
        smooth = random_homogeneous(field, 3, degree, rng, span=3)
        if field.kind == "fp2":
            # genuine w coefficients: the realified square proves the form smooth
            assert any(c.b for c in smooth.terms.values())
            square, width = _square_rank(smooth)
            assert square == width
        forms = [(SMOOTH, False, smooth)]
        if degree <= _SINGULAR_DEGREE_MAX[field.kind]:
            forms += [(SINGULAR, at, _singular_plane_form(field, degree, rng, at)) for at in (True, False)]
        for verdict, at_coordinate_point, f in forms:
            calls.clear()
            res = is_smooth_hypersurface(f)
            assert res.verdict == verdict
            assert (res.verdict, res.witness, res.e_used) == _full_route(f)
            if at_coordinate_point:
                assert res.witness == (field.one, field.zero, field.zero)
            square, width = _square_rank(f)
            # the full matrix is ranked only when the square falls short
            assert len(calls) == (0 if square == width else 1)


@pytest.mark.parametrize(
    "spec, text",
    [
        # seed 41 draws a smooth quartic whose extraneous Macaulay minor vanishes mod 101
        ("fp:101", None),
        # the Klein quartic has no x_i^4 term, so its square submatrix is singular
        ("q", "x^3*y + y^3*z + z^3*x"),
    ],
)
def test_smooth_form_with_a_deficient_square_takes_the_full_route(spec, text, monkeypatch):
    field = FieldSpec.parse(spec)
    f = random_homogeneous(field, 3, 4, random.Random(41)) if text is None else parse_poly(text, field)
    square, width = _square_rank(f)
    assert square is not None and square < width
    calls = _count_hilbert_calls(monkeypatch)
    res = is_smooth_hypersurface(f)
    assert len(calls) == 1
    assert (res.verdict, res.witness, res.e_used) == (SMOOTH, None, 7) == _full_route(f)


def test_square_order_puts_missing_pure_powers_last(q):
    assert graded._square_order(parse_poly("x^4 + y^4 + z^4 + x*y*z^2", q)) == [0, 1, 2]
    assert graded._square_order(parse_poly("x^3*y + y^4 + z^4", q)) == [1, 2, 0]
    assert graded._square_order(parse_poly("x^4 + x*y^3 + z^4 + y*t^3", q, nvars=4)) == [0, 2, 1, 3]
    # the Klein quartic has no pure power at all, so the order stays
    assert graded._square_order(parse_poly("x^3*y + y^3*z + z^3*x", q)) == [0, 1, 2]


def test_square_with_the_missing_pure_power_last_proves_smoothness(q, monkeypatch):
    f = parse_poly("x^3*y + y^4 + z^4", q)
    # with x^4 missing, the square in the variable order x, y, z falls short
    assert _square_rank(f, order=[0, 1, 2]) == (32, 36)
    assert _square_rank(f) == (36, 36)
    calls = _count_hilbert_calls(monkeypatch)
    res = is_smooth_hypersurface(f)
    assert calls == []
    assert (res.verdict, res.witness, res.e_used) == (SMOOTH, None, 7) == _full_route(f)


def test_surface_missing_one_pure_power_is_proved_by_the_square(q, monkeypatch):
    # seed 0 draws a coefficient-span-1 quartic surface without x^4
    f = random_homogeneous(q, 4, 4, random.Random(0), span=1)
    assert graded._square_order(f) == [1, 2, 3, 0]
    assert _square_rank(f, order=[0, 1, 2, 3])[0] < 220
    calls = _count_hilbert_calls(monkeypatch)
    start = time.perf_counter()
    res = is_smooth_hypersurface(f)
    elapsed = time.perf_counter() - start
    assert calls == []
    assert (res.verdict, res.e_used) == (SMOOTH, 9)
    assert elapsed < 0.5, f"quartic surface over q took {elapsed:.2f}s"
    # independent check: the full Macaulay matrix at the socle bound
    assert hilbert_value(jacobian_system(f), 9) == 0


def _exact_route(f):
    """Smoothness from the full Macaulay matrix ranked densely in f's field: (verdict, witness, e_used).

    No prime enters: the reference for the image-first square.
    """
    system = jacobian_system(f)
    e = f.nvars * (f.homogeneous_degree() - 2) + 1
    dense = [[f.field.arith.box(v) for v in row] for row in macaulay_rows(system, e)]
    if rank_in_extension(dense, f.field) == graded_dimension(f.nvars, e):
        return SMOOTH, None, e
    return SINGULAR, find_projective_zero(system, seed=0, trials=200), e


def _hand_over_form(field, text):
    """The form of a text, or one of the two singular forms built by products."""
    x, y, z = (parse_poly(v, field, nvars=3) for v in "xyz")
    if text == "singular at (1, 1, 1)":
        # in the square of the ideal (x - y, y - z)
        return (x - y) ** 4 + (y - z) ** 2 * (x * x + y * y + z * z)
    if text == "singular at (i, 1, 0)":
        i = field.scalar(0, 1)
        return (x - i * y) ** 2 * (x * x + y * y) + i * z**4
    return parse_poly(text, field, nvars=3)


# a + b*i with a = -_I vanishes mod P, as P itself does over q
_VANISHING_I = f"({-_I}+i)"

_HAND_OVERS = [
    # a denominator divisible by P: the image is undefined
    ("q", f"1/{_CHECK_PRIME}*x^4 + y^4 + z^4", "no image", SMOOTH),
    ("qi", f"1/{_CHECK_PRIME}*x^4 + (2+i)*y^4 + z^4", "no image", SMOOTH),
    # x^4's coefficient vanishes mod P only, and with it the image's x partial
    ("q", f"{_CHECK_PRIME}*x^4 + y^4 + z^4", "no image", SMOOTH),
    ("qi", f"{_VANISHING_I}*x^4 + (i)*y^4 + z^4", "no image", SMOOTH),
    # the pure power x^4 vanishes mod P and the x partial lives on: the
    # square's order comes from F, so x goes first and the image falls short
    ("q", f"{_CHECK_PRIME}*x^4 + x^3*y + y^4 + z^4", "short", SMOOTH),
    ("qi", f"{_VANISHING_I}*x^4 + (1+i)*x^3*y + y^4 + (i)*z^4", "short", SMOOTH),
    # singular, with a rational witness
    ("q", "singular at (1, 1, 1)", "short", SINGULAR),
    ("qi", "singular at (1, 1, 1)", "short", SINGULAR),
    # imaginary coefficients, singular at (i, 1, 0) only: the witness search
    # finds it among its Gaussian points, as (1, -i, 0)
    ("qi", "singular at (i, 1, 0)", "short", SINGULAR),
]


@pytest.mark.parametrize("spec, text, hand_over, verdict", _HAND_OVERS)
def test_image_square_hands_over_to_the_exact_route(spec, text, hand_over, verdict, monkeypatch):
    field = FieldSpec.parse(spec)
    f = _hand_over_form(field, text)
    image = graded._image_system(f)
    if hand_over == "no image":
        assert image is None
    else:
        width = graded_dimension(3, 7)
        square = graded._macaulay_rows(image, 7, graded._square_order(f))
        assert image.field is _IMAGE_FIELD
        assert _prime_rank(square, _IMAGE_FIELD, width) < width
    calls = _count_hilbert_calls(monkeypatch)
    res = is_smooth_hypersurface(f)
    # the full matrix decides, once
    assert len(calls) == 1
    assert (res.verdict, res.witness, res.e_used) == _exact_route(f)
    assert res.verdict == verdict
    if verdict == SINGULAR:
        assert res.witness is not None
        assert all(not g.evaluate(res.witness) for g in f.gradient())
    if text == "singular at (i, 1, 0)":
        assert [str(c) for c in res.witness] == ["1", "-i", "0"]


@pytest.mark.parametrize("spec", ["q", "qi"])
def test_full_image_square_builds_no_exact_partials(spec, monkeypatch):
    field = FieldSpec.parse(spec)
    rng = random.Random(23)
    forms = [random_homogeneous(field, 3, degree, rng, span=3) for degree in (4, 6)]
    forms.append(random_homogeneous(field, 4, 4, rng, span=2))
    if field.kind == "qi":
        forms.append(parse_poly("(1+2i)*x^4 + (i)*y^4 + z^4 + x*y*z^2", field))
    # dense elimination over q and qi is slow past the quartic
    reference = _exact_route(forms[0])
    jacobians, gradients = [], []
    exact, gradient = graded.jacobian_system, Poly.gradient
    monkeypatch.setattr(graded, "jacobian_system", lambda f: jacobians.append(f) or exact(f))
    monkeypatch.setattr(Poly, "gradient", lambda f: gradients.append(f.field) or gradient(f))
    results = []
    for f in forms:
        gradients.clear()
        results.append(is_smooth_hypersurface(f))
        # one gradient, of the image in the check prime's field
        assert gradients == [_IMAGE_FIELD]
    assert jacobians == []
    assert (results[0].verdict, results[0].witness, results[0].e_used) == reference
    assert all(r.verdict == SMOOTH for r in results)


@pytest.mark.parametrize("spec", ["fp:101", "fp2:101"])
def test_finite_field_form_is_its_own_image(spec, monkeypatch):
    field = FieldSpec.parse(spec)
    rng = random.Random(41)
    # seed 41 draws a quartic over fp:101 whose square falls short
    forms = [random_homogeneous(field, 3, 4, rng), _singular_plane_form(field, 4, rng, True)]
    references = [_exact_route(f) for f in forms]
    gradients, gradient = [], Poly.gradient
    monkeypatch.setattr(Poly, "gradient", lambda f: gradients.append(f.field) or gradient(f))
    for f, reference in zip(forms, references):
        gradients.clear()
        res = is_smooth_hypersurface(f)
        assert (res.verdict, res.witness, res.e_used) == reference
        # one gradient, which the square and the full matrix share
        assert gradients == [field]


def _sparse(dense, field):
    return [{j: v for j, v in enumerate(row) if v != field.arith.zero} for row in dense]


def _image(rows, field):
    """The image mod the prime of sparse raw rows, entry by entry: the reference for ``_residue_rows``."""
    if field.p:
        # residues and residue pairs are their own image, in the subfield too
        return rows

    def residue(x):
        return x.numerator * pow(x.denominator, -1, _CHECK_PRIME) % _CHECK_PRIME

    def image(v):
        return (residue(v[0]) + _I * residue(v[1])) % _CHECK_PRIME if field.kind == "qi" else residue(v)

    return [{j: x for j, v in row.items() if (x := image(v))} for row in rows]


@pytest.mark.parametrize("nvars", [3, 4])
@pytest.mark.parametrize("spec", ["fp:101", "fp2:13", "q", "qi"])
def test_macaulay_rows_match_the_dense_builder(spec, nvars):
    field = FieldSpec.parse(spec)
    # fp2 forms drawn over the prime field lie in the subfield
    base = FieldSpec.prime(field.p) if field.kind == "fp2" else field
    rng = random.Random(nvars)
    forms = [
        parse_poly(str(random_homogeneous(base, nvars, d, rng, span=3)), field, nvars=nvars)
        for d in (3, 4)
    ]
    if not field.p:
        # a coefficient that vanishes mod P drops out of the image
        text = f"x^3 + {_CHECK_PRIME}*y^3 + z^3 + x*y*z" + (" + t^3" if nvars == 4 else "")
        forms.append(parse_poly(text, field, nvars=nvars))
        partials = graded._macaulay_rows(jacobian_system(forms[-1]), 2)
        assert [len(row) for row in partials][:2] == [2, 2]
        assert len(_residue_rows(partials, field)[1]) == 1
    systems = [
        (jacobian_system(f), nvars * (f.homogeneous_degree() - 2) + 1, graded._square_order(f))
        for f in forms
    ]
    # generators of mixed degrees, one of them above e
    x, y, z = (parse_poly(v, field, nvars=nvars) for v in "xyz")
    systems.append((GradedSystem([x * x + y * z, y**3 - x * z * z, z**5]), 4, None))
    for system, e, square in systems:
        for order in (None, square):
            dense = macaulay_rows(system, e, order=order)
            raw = graded._macaulay_rows(system, e, order)
            assert raw == _sparse(dense, field)
            assert _residue_rows(raw, field) == _image(raw, field)
    width = graded_dimension(nvars, 3)
    if field.kind == "fp2":
        # a genuine w coefficient has an image, ranked realified: the dense rank
        system = GradedSystem([x * x * field.scalar(0, 1) + y * y, x * z])
        dense = macaulay_rows(system, 3)
        expected = rank_in_extension([[field.arith.box(v) for v in row] for row in dense], field)
        rows = graded._macaulay_rows(system, 3)
        assert _prime_rank(rows, field, width) == _rank_raw(rows, field, width) == expected
        assert hilbert_value(system, 3) == width - expected
    elif field.kind != "fp":
        # no image: a denominator divisible by P; the exact rank decides
        bad = x * x * field.scalar(Fraction(1, _CHECK_PRIME))
        system = GradedSystem([bad + y * y, x * z])
        rows = graded._macaulay_rows(system, 3)
        assert _residue_rows(rows, field) is None
        assert _prime_rank(rows, field, width) is None
        dense = macaulay_rows(system, 3)
        expected = rank_in_extension([[field.arith.box(v) for v in row] for row in dense], field)
        assert hilbert_value(system, 3) == width - expected
