"""Sparse homogeneous polynomials: parsing, printing, ring operations."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ulrich_forge import (
    FieldSpec,
    Poly,
    Scalar,
    gram_from_poly,
    infer_nvars,
    monomials_of_degree,
    parse_poly,
    random_homogeneous,
)


def _eval_explicit(p, point):
    """Term-by-term evaluation on ints and Fractions, written out here.

    A value is a pair (a, b) for a + b*g, with g*g = -1 over qi and g*g
    = nu, the smallest nonresidue by Euler's criterion, over fp2; q and
    fp have b = 0.  Over fp and fp2 every product is reduced mod p.
    """
    field = p.field
    m = field.characteristic
    square = -1
    if field.kind == "fp2":
        square = next(n for n in range(2, m) if pow(n, (m - 1) // 2, m) == m - 1)

    def times(x, y):
        a, b = x[0] * y[0] + square * x[1] * y[1], x[0] * y[1] + x[1] * y[0]
        return (a % m, b % m) if m else (a, b)

    def pair(v):
        v = field.scalar(v) if isinstance(v, int) else v
        return v.a, v.b

    coords = [pair(v) for v in point]
    total = (0, 0)
    for exps, coeff in p.terms.items():
        term = pair(coeff)
        for x, e in zip(coords, exps):
            for _ in range(e):
                term = times(term, x)
        total = (total[0] + term[0], total[1] + term[1])
    return field.scalar(*total)


def test_monomials_of_degree_graded_lex():
    assert monomials_of_degree(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert monomials_of_degree(3, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    ms = monomials_of_degree(3, 4)
    assert len(ms) == 15
    assert ms[0] == (4, 0, 0) and ms[-1] == (0, 0, 4)
    assert ms == sorted(ms, reverse=True)


def test_parse_basic_forms(q):
    p = parse_poly("x^2 + 2*x*y - y^2", q)
    assert p.nvars == 2
    assert p.coefficient((2, 0)) == q.one
    assert p.coefficient((1, 1)) == q.from_int(2)
    assert p.coefficient((0, 2)) == q.from_int(-2) + q.one
    assert p.homogeneous_degree() == 2


def test_str_orders_terms_graded_lex_descending(q):
    p = parse_poly("y^2 + x*y + x^2", q)
    assert str(p) == "x^2 + x*y + y^2"
    mixed = parse_poly("z^3 + x*y*z + y^3", q)
    assert str(mixed) == "x*y*z + y^3 + z^3"


def test_parse_str_round_trip_random():
    rng = random.Random(17)
    fields = [
        FieldSpec.rationals(),
        FieldSpec.gaussian_rationals(),
        FieldSpec.prime(101),
        FieldSpec.quadratic(13),
    ]
    for field in fields:
        for nvars, degree in ((2, 3), (3, 2), (4, 2), (6, 2)):
            for _ in range(10):
                p = random_homogeneous(field, nvars, degree, rng)
                assert parse_poly(str(p), field, nvars=nvars) == p


@pytest.mark.parametrize("spec", ["q", "qi", "fp:13", "fp:2147483629", "fp2:13"])
def test_parse_of_printed_polynomial_is_the_polynomial(spec):
    # any polynomial, not only forms: mixed degrees, constants, signs,
    # zero, and more variables than the aliases x y z t w cover
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    if field.characteristic:
        part = st.integers(-field.p, field.p)
    else:
        part = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    extension = field.kind in ("fp2", "qi")
    scalars = st.builds(field.scalar, part, part if extension else st.just(0))

    @st.composite
    def polys(draw):
        nvars = draw(st.integers(1, 7))
        exponents = st.tuples(*[st.integers(0, 3)] * nvars)
        return Poly(field, nvars, draw(st.dictionaries(exponents, scalars, max_size=5)))

    @hypothesis.given(polys())
    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    def check(p):
        assert parse_poly(str(p), field, nvars=p.nvars) == p

    check()


@pytest.mark.parametrize("spec", ["q", "qi", "fp:13", "fp2:13"])
def test_parse_without_nvars_reads_the_arity_of_the_printed_polynomial(spec):
    # the w of an fp2 coefficient, inside its parentheses, is no variable;
    # with nvars 5 the alias w is the last variable as well
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    if field.characteristic:
        part = st.integers(-field.p, field.p)
    else:
        part = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
    extension = field.kind in ("fp2", "qi")
    scalars = st.builds(field.scalar, part, part if extension else st.just(0))

    @st.composite
    def polys(draw):
        nvars = draw(st.integers(1, 5))
        exponents = st.tuples(*[st.integers(0, 3)] * nvars)
        terms = draw(st.dictionaries(exponents, scalars, max_size=4))
        # one term in the last variable, so the arity is nvars
        last = draw(st.tuples(*[st.integers(0, 3)] * (nvars - 1), st.integers(1, 3)))
        terms[last] = draw(scalars.filter(bool))
        return Poly(field, nvars, terms)

    @hypothesis.given(polys())
    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    def check(p):
        assert parse_poly(str(p), field) == p

    check()


def test_constructors_read_fractions_as_the_parser_does():
    f7 = FieldSpec.prime(7)
    assert Poly(f7, 1, {(1,): Fraction(1, 2)}).coefficient((1,)) == f7.from_int(4)
    assert Poly.constant(f7, 2, Fraction(1, 2)) == parse_poly("1/2", f7, nvars=2)
    assert Poly.monomial(f7, (1, 0), Fraction(1, 2)) == parse_poly("1/2*x", f7, nvars=2)
    assert Poly.linear_form(f7, [Fraction(1, 2), 1]) == parse_poly("1/2*x + y", f7)
    assert parse_poly("x", f7).scale(Fraction(1, 2)) == parse_poly("4*x", f7)
    with pytest.raises(ValueError, match="not invertible"):
        Poly(f7, 1, {(1,): Fraction(1, 7)})
    with pytest.raises(TypeError):
        Poly(f7, 1, {(1,): 2.7})


_FOREIGN = FieldSpec.prime(11).from_int(10)


@pytest.mark.parametrize(
    "build",
    [
        lambda f7: Poly(f7, 1, {(1,): _FOREIGN}),
        lambda f7: Poly.constant(f7, 2, _FOREIGN),
        lambda f7: Poly.monomial(f7, (1, 0), _FOREIGN),
        lambda f7: Poly.linear_form(f7, [f7.one, _FOREIGN]),
        lambda f7: parse_poly("x", f7).scale(_FOREIGN),
        lambda f7: parse_poly("x*y", f7).set_variable(0, _FOREIGN),
        lambda f7: parse_poly("x", f7).evaluate([_FOREIGN]),
    ],
    ids=["init", "constant", "monomial", "linear_form", "scale", "set_variable", "evaluate"],
)
def test_constructors_refuse_a_coefficient_of_another_field(build):
    with pytest.raises(ValueError, match="field mismatch"):
        build(FieldSpec.prime(7))


def test_parse_poly_rejects_arity_below_one(q):
    for nvars in (0, -1, -5):
        with pytest.raises(ValueError, match="at least one variable"):
            parse_poly("x", q, nvars=nvars)


def test_variable_aliases():
    q = FieldSpec.rationals()
    p = parse_poly("x + y + z + t + w", q)
    assert p.nvars == 5
    assert p == sum(
        (Poly.variable(q, 5, i) for i in range(5)), Poly.zero(q, 5)
    )
    indexed = parse_poly("x0 + x5", q)
    assert indexed.nvars == 6
    assert str(parse_poly("x0*x1", q, nvars=6)) == "x0*x1"


def test_infer_nvars():
    assert infer_nvars("x^2 + y^2") == 2
    assert infer_nvars("x*t") == 4
    assert infer_nvars("w") == 5
    assert infer_nvars("x3") == 4
    assert infer_nvars("x0 + x7") == 8


def test_parenthesized_scalar_literals(q, qi, e13):
    p = parse_poly("(3/2)*x^2", q)
    assert p.coefficient((2,)) == q.scalar(Fraction(3, 2))
    g = parse_poly("(1+2i)*x*y", qi)
    assert g.coefficient((1, 1)) == qi.scalar(1, 2)
    h = parse_poly("(w)*x + y", e13, nvars=2)
    assert h.coefficient((1, 0)) == e13.scalar(0, 1)


def test_bare_i_is_the_imaginary_unit(qi):
    p = parse_poly("i*x + y", qi)
    assert p.coefficient((1, 0)) == qi.imaginary_unit()
    assert parse_poly("x^2 - i*x*y", qi).coefficient((1, 1)) == -qi.imaginary_unit()


def test_bare_w_is_a_variable_not_a_scalar(e13):
    # in polynomial text w only ever names the fifth variable
    p = parse_poly("w^2", e13)
    assert p.nvars == 5
    assert p.coefficient((0, 0, 0, 0, 2)) == e13.one
    with pytest.raises(ValueError):
        parse_poly("w + x", e13, nvars=2)


def test_parse_errors(q):
    for text in ("x^2 +", "x^", "(3/2", "x**2", "", "x^2 + q"):
        with pytest.raises(ValueError):
            parse_poly(text, q)


@pytest.mark.parametrize("spec", ["q", "qi", "fp:13", "fp:101", "fp2:13"])
def test_parse_of_non_canonical_text_is_the_expanded_sum(spec, count_scalars):
    # repeated variables, several numeric factors in one term, terms that
    # cancel, a leading sign, x0..x7 mixed with the aliases and, over qi
    # and fp2, parenthesized coefficients; q is expanded by sympy, the
    # other fields by a term-by-term product of scalars
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")

    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    unit = {"qi": "i", "fp2": "w"}.get(field.kind)

    def fraction(n, d):
        return (str(n) if d == 1 else f"{n}/{d}"), Fraction(n, d)

    numbers = st.builds(fraction, st.integers(0, 40), st.integers(1, 12))
    signed = st.builds(fraction, st.integers(-40, 40), st.integers(1, 12))

    def group(real, imag, gap):
        (rt, rv), (it, iv) = real, imag
        plus = "" if it.startswith("-") else "+"
        return f"({gap}{rt}{gap}{plus}{it}{gap}{unit}{gap})", (rv, iv)

    literal = numbers.map(lambda n: ("num", n[0], (n[1], 0)))
    if unit:
        groups = st.builds(group, signed, signed, st.sampled_from(["", " "]))
        literal |= groups.map(lambda g: ("group", g[0], g[1]))
    if field.kind == "qi":
        literal |= st.just(("i", "i", (0, 1)))

    @st.composite
    def variable(draw):
        index = draw(st.integers(0, 7))
        names = [f"x{index}"] + (["xyztw"[index]] if index < 5 else [])
        exponent = draw(st.integers(0, 3))
        written = draw(st.sampled_from([f"^{exponent}"] + ([""] if exponent == 1 else [])))
        return ("var", draw(st.sampled_from(names)) + written, (index, exponent))

    term = st.tuples(st.sampled_from("+-"), st.lists(literal | variable(), min_size=1, max_size=5))

    @st.composite
    def texts(draw):
        terms = draw(st.lists(term, min_size=1, max_size=5))
        # the same products again with the other sign, factors reordered
        for sign, factors in draw(st.lists(st.sampled_from(terms), max_size=2)):
            terms.append(("-" if sign == "+" else "+", draw(st.permutations(factors))))
        pieces = []
        for k, (sign, factors) in enumerate(terms):
            body = draw(st.sampled_from(["*", " * "])).join(f[1] for f in factors)
            if k or sign == "-" or draw(st.booleans()):
                body = sign + draw(st.sampled_from(["", " "])) + body
            pieces.append(body)
        return " ".join(pieces), terms

    def expected(terms, nvars):
        total = {}
        if field.kind == "q":
            xs = sympy.symbols(f"v0:{nvars}")
            expr = 0
            for sign, factors in terms:
                product = sympy.Integer(-1 if sign == "-" else 1)
                for kind, _, value in factors:
                    if kind == "var":
                        product *= xs[value[0]] ** value[1]
                    else:
                        product *= sympy.Rational(value[0].numerator, value[0].denominator)
                expr += product
            for exps, c in sympy.Poly(sympy.expand(expr), *xs).terms():
                total[exps] = Fraction(int(c.p), int(c.q))
            return Poly(field, nvars, total)
        for sign, factors in terms:
            exps, coeff = [0] * nvars, field.from_int(-1 if sign == "-" else 1)
            for kind, _, value in factors:
                if kind == "var":
                    exps[value[0]] += value[1]
                else:
                    coeff = coeff * field.scalar(*value)
            key = tuple(exps)
            total[key] = total.get(key, field.zero) + coeff
        return Poly(field, nvars, total)

    three_terms = parse_poly("x + 2*y - 3*z", field)
    boxed = count_scalars()
    # positive controls, one per route: reading the terms boxes one scalar
    # per term, and field.scalar validates one
    assert len(three_terms.terms) == 3 and len(boxed) == 3
    assert field.scalar(5) and len(boxed) == 4

    @hypothesis.given(texts(), st.integers(0, 2))
    @hypothesis.settings(max_examples=120, deadline=None, derandomize=True)
    def check(drawn, extra):
        text, terms = drawn
        factors = [f for _, fs in terms for f in fs]
        arity = 1 + max([f[2][0] for f in factors if f[0] == "var"], default=0)
        nvars = None if extra == 2 else arity + extra
        literals = {f[1].replace(" ", "").strip("()") for f in factors if f[0] in ("num", "group")}
        boxed.clear()
        p = parse_poly(text, field, nvars)
        assert len(boxed) <= len(literals), (text, boxed)
        assert p.nvars == (nvars or arity)
        assert p == expected(terms, p.nvars), text
        _assert_raw_nonzero(p)

    check()


def _assert_raw_nonzero(*polys):
    # over qi and fp2 the raw zero (0, 0) is truthy, so only == ar.zero finds it
    for p in polys:
        assert all(v != p.field.arith.zero for v in p.raw.values()), p.raw


_FOUR_FIELDS = ("q", "qi", "fp:101", "fp2:13")


def test_ring_axioms_random():
    rng = random.Random(23)
    for field in map(FieldSpec.parse, _FOUR_FIELDS):
        zero = Poly.zero(field, 3)
        for _ in range(15):
            a = random_homogeneous(field, 3, 2, rng)
            b = random_homogeneous(field, 3, 2, rng)
            c = random_homogeneous(field, 3, 2, rng)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a - a == zero and (a - a).raw == {}
            assert (a * b) * c == a * (b * c)
            _assert_raw_nonzero(a + b, a * b - b * a, (a + b) * c - a * c)
        # w is the generator i or w where there is one, else 3
        w = field.scalar(0, 1) if field.kind in ("qi", "fp2") else field.from_int(3)
        x, y, z = (Poly.variable(field, 3, i) for i in range(3))
        s = x + y.scale(w)
        assert (s - s).raw == {} and (s + -s).raw == {} and s * s - s * s == zero
        assert (s + (z - y.scale(w))).raw.keys() == {(1, 0, 0), (0, 0, 1)}
        conj = x - y.scale(w)
        assert (s * conj).raw.keys() == {(2, 0, 0), (0, 2, 0)}
        _assert_raw_nonzero(s + (z - y.scale(w)), s * conj)


@pytest.mark.parametrize("spec", _FOUR_FIELDS)
def test_boxed_view_the_benchmark_reads(spec):
    # the benchmark reads c.a / c.b on terms and builds Poly(fp, n, {exps: int})
    field = FieldSpec.parse(spec)
    p = random_homogeneous(field, 3, 3, random.Random(53)) + parse_poly("x^3", field, nvars=3)
    box = field.arith.box
    assert p.terms == {e: box(v) for e, v in p.raw.items()}
    two = field.kind in ("qi", "fp2")
    for e, c in list(p.terms.items()) + p.sorted_terms():
        assert isinstance(c, Scalar) and c.field is field
        parts = p.raw[e] if two else (p.raw[e], 0)
        assert (c.a, c.b) == parts == (p.coefficient(e).a, p.coefficient(e).b)
    assert p.coefficient((0, 0, 0)) == field.zero and isinstance(p.coefficient((1, 1, 0)), Scalar)
    by_degree_then_lex = sorted(p.raw, key=lambda e: (sum(e), e), reverse=True)
    assert [e for e, _ in p.sorted_terms()] == by_degree_then_lex
    assert Poly(field, 3, p.terms) == p
    coeffs = parse_poly("x^3 - 2*x", field, nvars=1).univariate_coefficients()
    assert all(isinstance(c, Scalar) and c.field is field for c in coeffs)
    assert [(c.a, c.b) for c in coeffs] == [(c.a, c.b) for c in map(field.from_int, (0, -2, 0, 1))]
    fp = FieldSpec.prime(101)
    r = Poly(fp, 4, {(1, 0, 0, 1): 5, (0, 2, 0, 0): 200, (0, 0, 0, 2): 101})
    assert r.raw == {(1, 0, 0, 1): 5, (0, 2, 0, 0): 99}
    assert len(r.terms) == 2 and r.coefficient((0, 2, 0, 0)).a == 99


def test_poly_times_fraction_in_either_order():
    half = Fraction(1, 2)
    for spec, expected in (("q", "1/2*x"), ("fp:7", "4*x")):
        field = FieldSpec.parse(spec)
        x = parse_poly("x", field)
        assert x * half == half * x == x.scale(half) == parse_poly(expected, field)
        for junk in (2.5, "2", None):
            with pytest.raises(TypeError):
                x * junk
            with pytest.raises(TypeError):
                junk * x

    class Other:  # another type's reflected product still gets its turn
        def __rmul__(self, p):
            return "other"

    assert parse_poly("x", FieldSpec.rationals()) * Other() == "other"


def test_parsing_without_numbers_boxes_no_scalar(count_scalars):
    fields_used = [FieldSpec.rationals(), FieldSpec.gaussian_rationals(),
                   FieldSpec.prime(13), FieldSpec.quadratic(13)]
    three_terms = [parse_poly("x + 2*y - 3*z", field) for field in fields_used]
    built = count_scalars()
    # positive controls, one per route: reading the terms boxes one scalar
    # per term, and field.scalar validates one
    for p in three_terms:
        built.clear()
        assert len(p.terms) == 3 and len(built) == 3
        assert p.field.scalar(5) and len(built) == 4
    built.clear()
    for field in fields_used:
        p = parse_poly("x^2*y - y*z^3 + z^4 - x*y*z + x0^0", field, nvars=3)
        assert len(p.raw) == 5
    assert built == []
    # each distinct literal is boxed once per call: "(3/4)" reads as "3/4"
    for field in fields_used:
        p = parse_poly("2*x^2 - 2*y^2 + 3/4*x*y + 2*3/4*z^2 + (3/4)*z + ( 3/4 )", field)
        assert len(p.raw) == 6
        assert len(built) <= 2
        built.clear()


def test_product_degree_and_homogeneity():
    rng = random.Random(29)
    f101 = FieldSpec.prime(101)
    for _ in range(20):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = random_homogeneous(f101, 3, da, rng)
        b = random_homogeneous(f101, 3, db, rng)
        p = a * b
        if not p.is_zero:
            assert p.is_homogeneous()
            assert p.homogeneous_degree() == da + db


def test_degree_conventions(q):
    assert Poly.zero(q, 3).degree() == float("-inf")
    assert Poly.constant(q, 3, q.one).degree() == 0
    assert parse_poly("x^3*y", q).degree() == 4
    assert not (parse_poly("x^2", q, nvars=2) + parse_poly("y", q, nvars=2)).is_homogeneous()


def test_scale_and_neg(q):
    p = parse_poly("x^2 - y^2", q)
    assert p.scale(q.from_int(3)) == parse_poly("3*x^2 - 3*y^2", q)
    assert -p == parse_poly("y^2 - x^2", q)
    assert p.scale(q.zero).is_zero


def test_pow(q):
    p = parse_poly("x + y", q)
    assert p**0 == Poly.constant(q, 2, q.one)
    assert p**2 == parse_poly("x^2 + 2*x*y + y^2", q)
    assert p**3 == parse_poly("x^3 + 3*x^2*y + 3*x*y^2 + y^3", q)


@pytest.mark.parametrize("spec", ["fp:101", "fp2:13", "q", "qi"])
def test_pow_is_the_repeated_product_with_no_wasted_square(spec, monkeypatch):
    field = FieldSpec.parse(spec)
    p = random_homogeneous(field, 3, 1, random.Random(7)) + Poly.variable(field, 3, 2)
    one = Poly.constant(field, 3, field.one)
    products = [one]
    for _ in range(9):
        products.append(products[-1] * p)
    calls = []
    mul = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda a, b: calls.append(1) or mul(a, b))
    for n in range(10):
        calls.clear()
        assert p**n == products[n]
        # square and multiply: one product per set bit but the first and
        # one square per bit below the top one, none after it
        assert len(calls) == (n.bit_count() + n.bit_length() - 2 if n else 0)


def test_evaluate_matches_naive():
    # forms of degree 0 to 6 (exponents above 2 go through powers), the
    # zero polynomial, mixed degrees, and points with int coordinates
    rng = random.Random(31)
    for spec in ("fp:101", "qi", "q", "fp2:13"):
        field = FieldSpec.parse(spec)
        polys = [Poly.zero(field, 3), Poly.constant(field, 3, field.random_nonzero_scalar(rng))]
        for degree in range(7):
            polys += [random_homogeneous(field, 3, degree, rng) for _ in range(3)]
        polys.append(sum(polys[2:], Poly.zero(field, 3)))
        for p in polys:
            point = tuple(field.random_scalar(rng) for _ in range(3))
            assert p.evaluate(point) == _eval_explicit(p, point)
            ints = (rng.randint(-30, 30), point[1], rng.randint(-30, 30))
            assert p.evaluate(ints) == _eval_explicit(p, ints)


def test_partial_derivative_product_rule():
    rng = random.Random(37)
    for field in map(FieldSpec.parse, _FOUR_FIELDS + ("fp:13",)):
        for _ in range(10):
            f = random_homogeneous(field, 3, 2, rng)
            g = random_homogeneous(field, 3, 2, rng)
            for i in range(3):
                lhs = (f * g).partial_derivative(i)
                rhs = f.partial_derivative(i) * g + f * g.partial_derivative(i)
                assert lhs == rhs
                _assert_raw_nonzero(lhs, f.partial_derivative(i))
        # d/dx x^13 = 13 * x^12, which vanishes in characteristic 13
        f = parse_poly("x^13 + x*y", field)
        expected = "y" if field.characteristic == 13 else "13*x^12 + y"
        assert f.partial_derivative(0) == parse_poly(expected, field)
        _assert_raw_nonzero(f.partial_derivative(0))
        assert (parse_poly("x^13", field).partial_derivative(0).raw == {}) == (
            field.characteristic == 13
        )


def test_euler_identity():
    # sum x_i dF/dx_i = deg(F) * F for homogeneous F
    rng = random.Random(41)
    q = FieldSpec.rationals()
    for degree in (2, 3, 4):
        f = random_homogeneous(q, 3, degree, rng)
        total = Poly.zero(q, 3)
        for i, g in enumerate(f.gradient()):
            total = total + Poly.variable(q, 3, i) * g
        assert total == f.scale(q.from_int(degree))


def test_gradient_length(q):
    f = parse_poly("x^3 + y^3 + z^3", q)
    grads = f.gradient()
    assert len(grads) == 3
    assert grads[0] == parse_poly("3*x^2", q, nvars=3)


def test_set_variable():
    for field in map(FieldSpec.parse, _FOUR_FIELDS):
        f = parse_poly("x^2 + x*y + y^2", field)
        g = f.set_variable(1, field.from_int(2))
        assert g == parse_poly("x^2 + 2*x + 4", field, nvars=2)
        # x*y - x cancels at y = 1, and y = 0 kills x*y*z
        h = parse_poly("x*y - x + 2*z + x*y*z", field)
        assert h.set_variable(1, 1) == parse_poly("2*z + x*z", field, nvars=3)
        assert h.set_variable(1, 0) == parse_poly("-x + 2*z", field, nvars=3)
        _assert_raw_nonzero(g, h.set_variable(1, 1), h.set_variable(1, 0))


def test_univariate_coefficients(q):
    f = parse_poly("x^3 - 2*x", q, nvars=1)
    coeffs = f.univariate_coefficients()
    assert [str(c) for c in coeffs] == ["0", "-2", "0", "1"]
    with pytest.raises(ValueError):
        parse_poly("x*y", q).univariate_coefficients(0)


def test_substitute_monomials_veronese_relation():
    # y0*y2 - y1^2 dies under (x^2, x*y, y^2)
    images = ((2, 0), (1, 1), (0, 2))
    for field in map(FieldSpec.parse, _FOUR_FIELDS):
        rel = parse_poly("x0*x2 - x1^2", field, nvars=3)
        assert rel.substitute_monomials(images).is_zero
        lifted = parse_poly("x0 + x1", field, nvars=3).substitute_monomials(images)
        assert lifted == parse_poly("x^2 + x*y", field)
        partly = (rel + parse_poly("2*x0", field, nvars=3)).substitute_monomials(images)
        assert partly == parse_poly("2*x^2", field, nvars=2)
        _assert_raw_nonzero(lifted, partly)


def test_substitute_monomials_rejects_mixed_degrees(q):
    p = parse_poly("x0 + x1", q, nvars=2)
    with pytest.raises(ValueError):
        p.substitute_monomials(((1, 0), (2, 0)))


def test_embed_poly(q, qi):
    p = parse_poly("x^2 - y^2", q)
    lifted = p.embed(qi)
    assert lifted.field == qi
    assert str(lifted) == "x^2 - y^2"
    assert p.embed() == lifted


def test_linear_form(f13):
    coeffs = [f13.scalar(2), f13.zero, f13.scalar(12)]
    p = Poly.linear_form(f13, coeffs)
    assert str(p) == "2*x + 12*z"
    assert p.homogeneous_degree() == 1


def test_variables_used(q):
    p = parse_poly("x^2 + z^2", q, nvars=4)
    assert p.variables_used() == {0, 2}


def test_sorted_terms_descending(f101):
    rng = random.Random(43)
    p = random_homogeneous(f101, 4, 3, rng)
    keys = [e for e, _ in p.sorted_terms()]
    assert keys == sorted(keys, key=lambda e: (sum(e),) + tuple(e), reverse=True)


def test_random_homogeneous_contract():
    rng = random.Random(47)
    for field in (FieldSpec.rationals(), FieldSpec.prime(13)):
        for _ in range(10):
            p = random_homogeneous(field, 3, 2, rng)
            assert not p.is_zero
            assert p.is_homogeneous() and p.homogeneous_degree() == 2


def test_poly_hash_consistency(q):
    a = parse_poly("x^2 + y^2", q)
    b = parse_poly("y^2 + x^2", q)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_raw_is_read_only(f13):
    # a record built from p, and p's hash, must not go stale behind its back
    p = parse_poly("x*y + z^2", f13)
    key = hash(p)
    record = gram_from_poly(p)
    with pytest.raises(TypeError):
        del p.raw[(0, 0, 2)]
    with pytest.raises(TypeError):
        p.raw[(2, 0, 0)] = f13.arith.one
    assert hash(p) == key
    assert (str(record.poly), record.rank) == ("x*y + z^2", 3)
    # every constructor hands out a read-only map, and a proxy is not wrapped twice
    for q in (Poly(f13, 3, {(1, 0, 0): 2}), p + p, p * p, -p, Poly.variable(f13, 3, 1)):
        with pytest.raises(TypeError):
            q.raw[(0, 0, 0)] = f13.arith.one
    assert Poly._make(f13, 3, p.raw).raw is p.raw
