"""Sylvester resultants, squarefree tests, transversality certificates."""

from __future__ import annotations

import random
import time
from fractions import Fraction

import pytest

from ulrich_forge import (
    FieldSpec,
    Poly,
    apply_linear_change,
    certify_transversal,
    is_squarefree_univariate,
    parse_poly,
    random_homogeneous,
    sylvester_resultant,
)
from ulrich_forge import resultants
from ulrich_forge.linalg import _CHECK_PRIME as P
from ulrich_forge.resultants import (
    _IMAGE_FIELD,
    TRANSVERSAL,
    _chart_residues,
    _dense_squarefree,
    _random_change,
    _sylvester_rows,
)
from ulrich_forge.linalg import det, mat_mul


def test_resultant_detects_common_factor(q):
    f = parse_poly("x^2 - y^2", q)
    g = parse_poly("x - y", q)
    assert sylvester_resultant(f, g, 0).is_zero


def test_resultant_frozen_value(q):
    f = parse_poly("x^2 + y^2", q)
    g = parse_poly("x - y", q)
    assert str(sylvester_resultant(f, g, 0)) == "2*y^2"


def test_resultant_degree_of_generic_forms(f101):
    rng = random.Random(63)
    f = random_homogeneous(f101, 2, 3, rng)
    g = random_homogeneous(f101, 2, 2, rng)
    res = sylvester_resultant(f, g, 0)
    if not res.is_zero:
        assert res.homogeneous_degree() == 6


def test_resultant_vanishes_exactly_at_common_roots(f13):
    # res_x(f, g) in y,z vanishes where the two curves meet
    f = parse_poly("x^2 - y*z", f13)
    g = parse_poly("x - y", f13, nvars=3)
    res = sylvester_resultant(f, g, 0)
    # substituting x = y into f gives y^2 - y*z
    assert res.evaluate((f13.zero, f13.one, f13.one)).is_zero
    assert not res.evaluate((f13.zero, f13.one, f13.from_int(2))).is_zero


def test_squarefree_univariate(q, f13):
    assert is_squarefree_univariate(parse_poly("x^2 + 1", q, nvars=1))
    assert not is_squarefree_univariate(parse_poly("x^2", q))
    assert is_squarefree_univariate(parse_poly("x^3 - x", q, nvars=1))
    # derivative vanishes identically in characteristic p
    assert not is_squarefree_univariate(parse_poly("x^13", f13, nvars=1))
    with pytest.raises(ValueError):
        is_squarefree_univariate(parse_poly("x*y", q), 0)


def test_squarefree_constants_and_zero(q):
    from ulrich_forge import Poly

    assert is_squarefree_univariate(Poly.constant(q, 1, q.from_int(5)))
    with pytest.raises(ValueError):
        is_squarefree_univariate(Poly.zero(q, 1))


@pytest.mark.parametrize("spec", ["fp:3", "fp:13", "fp:101", "q", "qi"])
def test_squarefree_matches_sympy_sqf_list(spec, monkeypatch):
    # products of random factors with multiplicities, and over fp of p-th
    # powers (whose derivative vanishes), against sympy's sqf_list; its
    # Poly.is_sqf says True for x^13 mod 13, so multiplicities are read.
    # Over q and qi, multiples of P in numerators and denominators spoil
    # the image mod P, so the exact Euclid runs too.
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    p = field.characteristic
    if p:
        coefficient = st.integers(0, p - 1)
        unit = st.integers(1, p - 1)
    else:
        rational = st.builds(
            Fraction, st.integers(-9, 9) | st.sampled_from([P, -P]), st.integers(1, 5) | st.just(P)
        )
        coefficient = st.builds(field.scalar, rational, rational) if spec == "qi" else rational
        unit = coefficient.filter(bool)
    lower = st.lists(coefficient, min_size=1, max_size=3)
    factor = st.builds(lambda low, lead: [*low, lead], lower, unit)
    powers = st.lists(st.tuples(factor, st.sampled_from((1, 1, 1, 2, 3))), max_size=3)
    frobenius = st.lists(factor, max_size=1) if p else st.just([])

    def times(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] += a * b
        return [c % p for c in out] if p else out

    def rational(c):
        return sympy.Rational(c.numerator, c.denominator)

    def exact(c):
        return rational(c.a) + sympy.I * rational(c.b) if spec == "qi" else rational(c)

    # the fields whose Euclid ran: the image mod P alone, or the exact one
    routes = []
    original = resultants._dense_squarefree
    monkeypatch.setattr(resultants, "_dense_squarefree", lambda c, ar: routes.append(ar) or original(c, ar))

    @hypothesis.given(unit, powers, frobenius)
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    def check(constant, factors, pth):
        coeffs = [constant]
        for g, k in factors + [(g, p) for g in pth]:
            for _ in range(k):
                coeffs = times(coeffs, g)
        f = Poly(field, 1, {(i,): c for i, c in enumerate(coeffs)})
        x = sympy.Symbol("x")
        dense = [exact(c) if not p else c for c in coeffs]
        options = {"modulus": p} if p else {"domain": sympy.QQ_I if spec == "qi" else sympy.QQ}
        _, parts = sympy.Poly(dense[::-1], x, **options).sqf_list()
        assert is_squarefree_univariate(f) == all(k == 1 for _, k in parts)

    check()
    if not p:
        assert any(ar is _IMAGE_FIELD.arith for ar in routes)
        assert any(ar is field.arith for ar in routes)


def test_squarefree_image_mod_p_decides_only_when_it_proves(q, qi, monkeypatch):
    routes = []
    original = resultants._dense_squarefree
    monkeypatch.setattr(resultants, "_dense_squarefree", lambda c, ar: routes.append(ar) or original(c, ar))
    image = _IMAGE_FIELD.arith
    cases = [
        # a squarefree image of full degree decides alone
        (q, {(2,): 1, (0,): -1}, True, [image]),
        # the image x^2 is not squarefree, x^2 - P^2 is
        (q, {(2,): 1, (0,): -P * P}, True, [image, q.arith]),
        # the lead vanishes mod P, so the image has lost degree
        (q, {(2,): P, (1,): 1}, True, [q.arith]),
        # P divides a denominator: no image
        (q, {(2,): Fraction(1, P), (0,): 1}, True, [q.arith]),
        # (x + P*i)^2 goes to x^2 as well, and is a square
        (qi, {(2,): 1, (1,): qi.scalar(0, 2 * P), (0,): -P * P}, False, [image, qi.arith]),
    ]
    for field, raw, expected, route in cases:
        routes.clear()
        assert is_squarefree_univariate(Poly(field, 1, raw)) is expected
        assert routes == route


def test_apply_linear_change_is_a_ring_map(f101):
    rng = random.Random(67)
    m = _random_change(f101, rng)
    f = random_homogeneous(f101, 3, 2, rng)
    g = random_homogeneous(f101, 3, 2, rng)
    assert apply_linear_change(f * g, m) == apply_linear_change(f, m) * apply_linear_change(g, m)
    assert apply_linear_change(f + g, m) == apply_linear_change(f, m) + apply_linear_change(g, m)


def test_apply_linear_change_identity_and_composition(f101):
    rng = random.Random(71)
    f = random_homogeneous(f101, 3, 3, rng)
    eye = [[f101.one if i == j else f101.zero for j in range(3)] for i in range(3)]
    assert apply_linear_change(f, eye) == f
    m1 = _random_change(f101, rng)
    m2 = _random_change(f101, rng)
    combined = mat_mul(m2, m1, f101)
    assert apply_linear_change(apply_linear_change(f, m2), m1) == apply_linear_change(
        f, combined
    )


def test_transversal_lines_meet_once(q):
    res = certify_transversal(parse_poly("x", q, nvars=3), parse_poly("y", q, nvars=3))
    assert res.verdict == TRANSVERSAL
    assert bool(res)
    assert res.points == 1


def test_transversal_conics_meet_in_four_points(f101):
    res = certify_transversal(
        parse_poly("x^2 - y*z", f101), parse_poly("y^2 - x*z", f101)
    )
    assert res.verdict == TRANSVERSAL
    assert res.points == 4


def test_transversal_rejects_shared_component(f101):
    f = parse_poly("x^2 - y*z", f101)
    res = certify_transversal(f, f)
    assert not bool(res)
    assert res.reason == "curves share a component"


def test_transversal_rejects_tangency(q):
    res = certify_transversal(parse_poly("x^2", q, nvars=3), parse_poly("y^2", q, nvars=3))
    assert not bool(res)
    assert "repeated root" in res.reason


def test_transversal_tangent_conics(q):
    # y*z - x^2 and y*z - x^2 + y^2 touch at (0:0:1) to order two
    f = parse_poly("y*z - x^2", q)
    g = parse_poly("y*z - x^2 + y^2", q)
    res = certify_transversal(f, g)
    assert not bool(res)


def test_transversal_needs_three_variables(q):
    with pytest.raises(ValueError):
        certify_transversal(parse_poly("x^2 + y^2", q), parse_poly("x*y", q))


def test_transversal_is_deterministic(f101):
    f = parse_poly("x^2 - y*z", f101)
    g = parse_poly("x^2 + y^2 + z^2", f101)
    a = certify_transversal(f, g, seed=3)
    b = certify_transversal(f, g, seed=3)
    assert (a.verdict, a.points, a.trials) == (b.verdict, b.points, b.trials)


def test_transversal_random_conic_pairs_never_crash(f101):
    rng = random.Random(73)
    verdicts = set()
    for _ in range(10):
        f = random_homogeneous(f101, 3, 2, rng)
        g = random_homogeneous(f101, 3, 2, rng)
        res = certify_transversal(f, g)
        verdicts.add(res.verdict)
        if res.verdict == TRANSVERSAL:
            assert res.points == 4
    assert TRANSVERSAL in verdicts


def test_transversal_rejects_trial_counts_below_one(f101):
    f = parse_poly("x^2 - y*z", f101)
    g = parse_poly("y^2 - x*z", f101)
    for trials in (0, -3):
        with pytest.raises(ValueError):
            certify_transversal(f, g, max_trials=trials)


def test_transversal_rejects_constants(q):
    one = Poly.constant(q, 3, q.one)
    with pytest.raises(ValueError):
        certify_transversal(one, one)


# -- the chart resultant against independent oracles ----------------------


def _seeded_pairs(field, d, count, seed):
    """Pairs of plane forms of degree d with both x^d coefficients nonzero."""
    rng = random.Random(seed)
    lead = (d, 0, 0)
    pairs = []
    while len(pairs) < count:
        f = random_homogeneous(field, 3, d, rng, span=3)
        g = random_homogeneous(field, 3, d, rng, span=3)
        if f.coefficient(lead) and g.coefficient(lead):
            pairs.append((f, g))
    return pairs


def _raw(coeffs):
    """Scalar coefficients as the raw values the squarefree kernel reads."""
    return [c.field.arith.of(c) for c in coeffs]


def _padded(coeffs, d, field):
    return coeffs + [field.zero] * (d * d + 1 - len(coeffs))


def _chart(f, g, d):
    """Res_x(f, g)(y, 1) as the certificate takes it: z = 1 first, padded to d*d + 1."""
    res = sylvester_resultant(f.set_variable(2, 1), g.set_variable(2, 1), 0)
    return _padded(res.univariate_coefficients(1), d, f.field)


def _bivariate_chart(f, g, d):
    """Res_x(f, g)(y, 1) from the resultant of the forms, padded to d*d + 1."""
    res = sylvester_resultant(f, g, 0).set_variable(2, 1)
    return _padded(res.univariate_coefficients(1), d, f.field)


def _specialized_sylvester_det(f, g, d, t):
    """Res_x(f, g)(t, 1) as a scalar determinant: y = t, z = 1 before elimination."""
    field = f.field
    powers = [t**j for j in range(d + 1)]

    def in_x(h):
        coeffs = [field.zero] * (d + 1)
        for (i, j, _), c in h.terms.items():
            coeffs[i] = coeffs[i] + c * powers[j]
        return coeffs

    return det(_sylvester_rows(in_x(f), in_x(g), field.zero), field)


def _nodes(field, count):
    """count distinct scalars, genuine extension elements among them over fp2 and qi."""
    if field.characteristic:
        p = field.p
        return [field.scalar(k % p, k // p) for k in range(count)]
    return [field.scalar(Fraction(k, 2), k % 3) for k in range(count)]


@pytest.mark.parametrize(
    "text, d",
    [
        (text, d)
        for text in ("fp:101", "fp2:13", "q", "qi")
        for d in (1, 2, 3, 4)
        if (text, d) != ("fp2:13", 4)
    ]
    # characteristic in (d, d*d] or at most d; fp2:3 has nine elements
    + [("fp2:13", 4), ("fp:7", 3), ("fp:13", 4), ("fp:5", 4), ("fp2:3", 2), ("fp2:5", 3)],
)
def test_chart_resultant_matches_bivariate_resultant(text, d):
    # Over fp and q sympy's resultant of the two chart polynomials is the
    # oracle.  sympy has no fp2 or qi, so there r(y), of degree at most
    # d*d, must agree with the scalar 2d x 2d Sylvester determinants
    # (dense elimination, no packing) at d*d + 1 distinct nodes.
    field = FieldSpec.parse(text)
    count = 2 if d == 4 and text in ("q", "qi") else 3
    for f, g in _seeded_pairs(field, d, count, seed=100 * d + len(text)):
        coeffs = _chart(f, g, d)
        if field.kind in ("fp", "q"):
            assert coeffs == _padded(_sympy_chart(f, g), d, field)
            continue
        for t in _nodes(field, d * d + 1):
            value = sum((c * t**k for k, c in enumerate(coeffs)), field.zero)
            assert value == _specialized_sylvester_det(f, g, d, t)


def _common_factor_pair(field, d, seed):
    ((a, b),) = _seeded_pairs(field, d - 1, 1, seed)
    h = Poly.linear_form(field, [1, 2, -3])
    return a * h, b * h


def _tangent_pair(field, d, seed):
    # f and f + l^2*z^(d-2) meet on f = l = 0, each point with multiplicity >= 2
    ((f, _),) = _seeded_pairs(field, d, 1, seed)
    l = parse_poly("y + z", field, nvars=3)
    return f, f + l * l * parse_poly(f"z^{d - 2}", field, nvars=3)


@pytest.mark.parametrize(
    "text, d",
    [("fp:101", 3), ("q", 2), ("qi", 2), ("fp2:13", 3), ("fp:7", 3), ("fp:13", 4)],
)
def test_shared_component_and_tangency(text, d):
    field = FieldSpec.parse(text)
    f, g = _common_factor_pair(field, d, seed=d)
    assert _bivariate_chart(f, g, d) == [field.zero] * (d * d + 1)
    res = certify_transversal(f, g)
    assert not res and res.reason == "curves share a component"
    res = certify_transversal(*_tangent_pair(field, d, seed=d))
    assert not res and "repeated root" in res.reason


@pytest.mark.parametrize(
    "text, d", [("fp:7", 3), ("fp:13", 4), ("fp2:13", 4), ("fp:5", 4), ("fp2:3", 3)]
)
def test_small_characteristic_matches_the_bivariate_route(text, d):
    # characteristic <= d*d, too few distinct nodes for values and
    # interpolation: the verdicts match the resultant of the forms
    field = FieldSpec.parse(text)
    verdicts = set()
    for k, (f, g) in enumerate(_seeded_pairs(field, d, 4, seed=d)):
        res = certify_transversal(f, g, seed=k)
        verdicts.add(res.verdict)
        if res:
            assert res.points == d * d
        if res.trials == 1:
            coeffs = _bivariate_chart(f, g, d)
            expect_transversal = coeffs[-1] and _dense_squarefree(_raw(coeffs), field.arith)
            assert bool(res) == bool(expect_transversal)
    assert TRANSVERSAL in verdicts


def test_transversal_degree_eight_within_budget():
    field = FieldSpec.prime(32003)
    ((f, g),) = _seeded_pairs(field, 8, 1, seed=8)
    start = time.perf_counter()
    res = certify_transversal(f, g)
    elapsed = time.perf_counter() - start
    assert res.verdict == TRANSVERSAL and res.points == 64
    assert elapsed < 0.1, f"degree-8 certificate took {elapsed:.3f}s"


def test_small_characteristic_degree_six_within_budget():
    # 31 <= 36 = d*d leaves too few nodes in fp:31 for evaluation and
    # interpolation, and 5 <= d too few in fp2:5 as well; the Laplace
    # expansion took 1 to 2 s on each
    for p, seed in ((31, 616), (5, 6)):
        field = FieldSpec.prime(p)
        ((f, g),) = _seeded_pairs(field, 6, 1, seed=seed)
        start = time.perf_counter()
        res = certify_transversal(f, g)
        elapsed = time.perf_counter() - start
        assert res.verdict == TRANSVERSAL and res.points == 36
        assert elapsed < 0.25, f"fp:{p} degree-6 certificate took {elapsed:.2f}s"
        if res.change is not None:
            f, g = apply_linear_change(f, res.change), apply_linear_change(g, res.change)
        expected = _sympy_chart(f, g)
        assert len(expected) == 37 and _dense_squarefree(_raw(expected), field.arith)


# -- sympy as an independent oracle ----------------------------------------


def _sympy_chart(f, g):
    """Res_x(f, g)(y, 1) from sympy, ascending, over Q or mod p."""
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    field = f.field

    def expr(h):
        return sum(
            sympy.Rational(c.a.numerator, c.a.denominator) * x**i * y**j
            for (i, j, _), c in h.terms.items()
        )

    opts = {"domain": "QQ"} if field.kind == "q" else {"modulus": field.p}
    res = sympy.Poly(expr(f), x, y, **opts).resultant(sympy.Poly(expr(g), x, y, **opts))
    coeffs = sympy.Poly(res, y, **opts).all_coeffs()[::-1]
    return [field.scalar(Fraction(int(c.p), int(c.q))) for c in coeffs]


@pytest.mark.parametrize("text, d", [("q", 2), ("q", 3), ("fp:101", 4), ("fp:7", 3), ("fp:13", 4)])
def test_chart_agrees_with_sympy_resultant(text, d):
    # the resultant of the forms, then z = 1, against sympy
    field = FieldSpec.parse(text)
    for f, g in _seeded_pairs(field, d, 3, seed=31 * d):
        assert _bivariate_chart(f, g, d) == _padded(_sympy_chart(f, g), d, field)


def test_degree_eight_agrees_with_sympy_mod_p():
    field = FieldSpec.prime(32003)
    ((f, g),) = _seeded_pairs(field, 8, 1, seed=8)
    expected = _sympy_chart(f, g)
    assert _chart(f, g, 8) == expected
    assert len(expected) == 65 and _dense_squarefree(_raw(expected), field.arith)


# -- the chart resultant from values mod p ---------------------------------


def _without(h, exps):
    """h without its term at exps."""
    return h - Poly(h.field, 3, {exps: h.coefficient(exps)})


def _edge_pairs(field, d, seed):
    """Seeded pairs, a shared component, a pair both through (0:1:0), and a tangent pair."""
    pairs = _seeded_pairs(field, d, 2, seed)
    if d > 1:
        pairs.append(_common_factor_pair(field, d, seed))
    # no y^d term in either: r loses its top coefficient
    f, g = pairs[0]
    pairs.append((_without(f, (0, d, 0)), _without(g, (0, d, 0))))
    if d > 1:
        pairs.append(_tangent_pair(field, d, seed))
    return pairs


_WORD_PRIMES = ("fp:17", "fp:37", "fp:101", "fp:32003", "fp:2147483629")


@pytest.mark.parametrize(
    "text, d",
    [(text, d) for text in _WORD_PRIMES for d in range(1, 7) if FieldSpec.parse(text).p > d * d],
)
def test_chart_residues_match_the_sylvester_route(text, d):
    # values at y = 0..d*d, one Euclid resultant mod p each, then
    # interpolation, against the polynomial determinant of the charts;
    # fp:17 at d = 4 has exactly the d*d + 1 nodes it needs
    field = FieldSpec.parse(text)
    zero_seen = top_lost = False
    for f, g in _edge_pairs(field, d, seed=7 * d + len(text)):
        res = sylvester_resultant(f.set_variable(2, 1), g.set_variable(2, 1), 0)
        expected = res.univariate_raw(1)
        expected += [0] * (d * d + 1 - len(expected))
        got = _chart_residues(f.raw, g.raw, d, field.p)
        assert got == expected
        zero_seen |= not any(got)
        top_lost |= any(got) and not got[-1]
    assert top_lost and (zero_seen or d == 1)


@pytest.mark.parametrize("text, d", [("fp:17", 4), ("fp:37", 3), ("fp:101", 5), ("fp:2147483629", 4)])
def test_chart_residues_agree_with_sympy_mod_p(text, d):
    field = FieldSpec.parse(text)
    for f, g in _edge_pairs(field, d, seed=d):
        assert _chart_residues(f.raw, g.raw, d, field.p) == _raw(_padded(_sympy_chart(f, g), d, field))


def test_tangent_chart_residues_have_a_repeated_root():
    # g - f = (y + z)^2 * z has no x, so r = (y + 1)^6
    field = FieldSpec.prime(32003)
    f, g = _tangent_pair(field, 3, seed=3)
    coeffs = _chart_residues(f.raw, g.raw, 3, field.p)
    assert any(coeffs) and not _dense_squarefree(coeffs, field.arith)


# -- q and qi: the image mod P first, the exact route on hand-over ----------


def _transversal_cases(field, seed, top=4):
    """Seeded pairs of degree 1..top: plain, with no x^d term, tangent, with a shared component."""
    cases = []
    for d in range(1, top + 1):
        pairs = _seeded_pairs(field, d, 2 if d < 4 else 1, seed + d)
        f, g = pairs[0]
        pairs.append((_without(f, (d, 0, 0)), _without(g, (d, 0, 0))))
        if d > 1:
            pairs += [_tangent_pair(field, d, seed + d), _common_factor_pair(field, d, seed + d)]
        cases += [(f, g, k) for k, (f, g) in enumerate(pairs)]
    return cases


def _exact_only(monkeypatch):
    monkeypatch.setattr(resultants, "_image_proves", lambda images, change, d, field: False)


@pytest.mark.parametrize("text", ["q", "qi"])
def test_image_first_matches_the_exact_route(text, monkeypatch):
    field = FieldSpec.parse(text)
    cases = _transversal_cases(field, seed=40)
    results = [certify_transversal(f, g, seed=k) for f, g, k in cases]
    _exact_only(monkeypatch)
    assert results == [certify_transversal(f, g, seed=k) for f, g, k in cases]
    assert {res.reason for res in results} >= {
        None,
        "curves share a component",
        "resultant has a repeated root; intersection not transversal",
    }
    assert any(res and res.change is not None for res in results)


def _spy(monkeypatch, name):
    """Count the calls of one function of ``resultants``."""
    calls = []
    original = getattr(resultants, name)
    monkeypatch.setattr(resultants, name, lambda *args: calls.append(args) or original(*args))
    return calls


@pytest.mark.parametrize(
    "text, f_text, g_text",
    [
        # P divides a denominator: no image at all
        ("q", f"1/{P}*x^2 + y^2 - z^2", "x^2 + x*y - y*z"),
        ("qi", f"1/{P}*x^2 + (i)*y^2 - z^2", "x^2 + x*y - y*z"),
        # the x^2 coefficient vanishes mod P
        ("q", f"{P}*x^2 + y^2 - z^2", "x^2 + x*y - y*z"),
        ("qi", f"(-{P}+{P}i)*x^2 + y^2 - z^2", "x^2 + (1+i)*x*y - y*z"),
        # r = y(y - P)(y - 1)(y - 2): its image has the double root 0
        ("q", "x^2 - z^2", f"x^2 - {(P - 3) // 2}*x*y - x*z + y^2 - {(P + 3) // 2}*y*z"),
        ("qi", "x^2 - z^2", f"x^2 - {(P - 3) // 2}*x*y - x*z + y^2 - {(P + 3) // 2}*y*z"),
    ],
)
def test_images_that_prove_nothing_hand_over_to_the_exact_route(text, f_text, g_text, monkeypatch):
    field = FieldSpec.parse(text)
    f, g = parse_poly(f_text, field), parse_poly(g_text, field)
    calls = _spy(monkeypatch, "sylvester_resultant")
    res = certify_transversal(f, g)
    assert res.verdict == TRANSVERSAL and res.points == 4 and res.trials == 1
    assert calls
    _exact_only(monkeypatch)
    assert certify_transversal(f, g) == res


@pytest.mark.parametrize("text", ["q", "qi"])
def test_an_image_forced_non_squarefree_hands_over(text, monkeypatch):
    # every squarefree test then runs Euclid over q or qi, whose
    # coefficients swell at d = 4
    field = FieldSpec.parse(text)
    cases = _transversal_cases(field, seed=50, top=3)
    expected = [certify_transversal(f, g, seed=k) for f, g, k in cases]
    original = resultants._dense_squarefree
    monkeypatch.setattr(
        resultants, "_dense_squarefree", lambda c, ar: ar is not _IMAGE_FIELD.arith and original(c, ar)
    )
    calls = _spy(monkeypatch, "sylvester_resultant")
    assert [certify_transversal(f, g, seed=k) for f, g, k in cases] == expected
    # each transversal verdict came from a Sylvester resultant
    assert len(calls) >= sum(1 for res in expected if res) > 0


def test_word_size_charts_skip_the_polynomial_determinant(monkeypatch):
    calls = _spy(monkeypatch, "poly_matrix_det")
    field = FieldSpec.prime(32003)
    for d, seed in ((4, 4), (6, 6), (8, 8)):
        ((f, g),) = _seeded_pairs(field, d, 1, seed=seed)
        assert certify_transversal(f, g).points == d * d
    q = FieldSpec.rationals()
    assert certify_transversal(parse_poly("x^2 - y*z", q), parse_poly("y^2 - x*z", q)).points == 4
    assert not calls
    # fp:13 has 13 <= 16 = d*d elements: too few nodes for a quartic chart
    field = FieldSpec.prime(13)
    ((f, g),) = _seeded_pairs(field, 4, 1, seed=4)
    certify_transversal(f, g)
    assert calls
