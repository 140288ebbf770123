"""Field parsing, exact arithmetic, and canonical square roots."""

from __future__ import annotations

import operator
import random
from fractions import Fraction

import pytest

from ulrich_forge import ExtensionNeeded, FieldSpec, is_square, sqrt_in_field
from ulrich_forge import fields
from ulrich_forge.fields import Scalar, _is_prime, legendre, smallest_nonresidue, sqrt_mod_p


def _all_fields():
    return [
        FieldSpec.rationals(),
        FieldSpec.gaussian_rationals(),
        FieldSpec.prime(13),
        FieldSpec.prime(101),
        FieldSpec.quadratic(13),
        FieldSpec.quadratic(17),
    ]


def test_parse_round_trip():
    for text in ("q", "qi", "fp:13", "fp:101", "fp2:13", "fp2:17"):
        field = FieldSpec.parse(text)
        assert str(field) == text
        assert FieldSpec.parse(str(field)) == field


def test_parse_rejects_bad_fields():
    for text in ("fp:2", "fp2:2", "fp:4", "fp:1", "r", "fp:", "fp:abc"):
        with pytest.raises(ValueError):
            FieldSpec.parse(text)


def test_field_equality_and_kind():
    assert FieldSpec.parse("fp:13") == FieldSpec.prime(13)
    assert FieldSpec.parse("fp:13") != FieldSpec.prime(17)
    assert FieldSpec.parse("fp2:13") != FieldSpec.prime(13)
    assert FieldSpec.rationals() != FieldSpec.gaussian_rationals()


def test_one_instance_per_field():
    assert FieldSpec.parse("q") is FieldSpec.rationals()
    assert FieldSpec.parse("qi") is FieldSpec.gaussian_rationals()
    assert FieldSpec.parse("fp:13") is FieldSpec.prime(13)
    assert FieldSpec.parse("fp2:13") is FieldSpec.quadratic(13)
    for field in _all_fields():
        assert FieldSpec.parse(str(field)) is field
        assert field.zero is field.zero and field.one is field.one
        assert field.zero.field is field and field.one == 1
    assert FieldSpec.prime(13).extension() is FieldSpec.quadratic(13)
    assert FieldSpec.rationals().extension() is FieldSpec.gaussian_rationals()


def test_field_cache_hit_skips_validation(monkeypatch):
    fresh = (FieldSpec.prime(13), FieldSpec.quadratic(13))

    def fail(n):
        raise AssertionError(f"primality of {n} tested again")

    monkeypatch.setattr(fields, "_is_prime", fail)
    assert (FieldSpec.parse("fp:13"), FieldSpec.parse("fp2:13")) == fresh


def test_fields_are_immutable():
    # every caller shares the one instance, so none may change it
    with pytest.raises(AttributeError):
        FieldSpec.prime(13).p = 17
    with pytest.raises(AttributeError):
        FieldSpec.prime(13).zero = FieldSpec.prime(13).one


def test_is_prime_matches_a_sieve():
    n = 200_000
    sieve = bytearray([1]) * n
    sieve[0] = sieve[1] = 0
    for i in range(2, int(n**0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, n, i)))
    assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]


def test_is_prime_rejects_strong_pseudoprimes():
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5, 7, and
    # one to every base 2..23
    for n in (561, 3215031751, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(100000000000000000039)


def test_is_prime_matches_sympy_below_the_limit():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(13)
    for _ in range(2000):
        n = rng.randrange(2**40, fields._PRIME_LIMIT) | 1
        assert _is_prime(n) == sympy.isprime(n)


def test_smallest_nonresidue():
    assert smallest_nonresidue(13) == 2
    assert smallest_nonresidue(17) == 3
    assert smallest_nonresidue(101) == 2
    for p in (13, 17, 101):
        assert legendre(smallest_nonresidue(p), p) == -1


def test_the_nonresidue_is_searched_once_per_prime(monkeypatch):
    # Tonelli-Shanks (every p here is 1 mod 8) needs a nonresidue; the
    # search for the smallest one runs once per prime, however many roots
    calls = []
    monkeypatch.setattr(fields, "legendre", lambda a, p: calls.append(p) or legendre(a, p))
    smallest_nonresidue.cache_clear()
    for p, nonresidue in ((41, 3), (73, 5), (97, 5)):
        squares = sorted({r * r % p for r in range(1, p)}) * 5
        calls.clear()
        assert [sqrt_mod_p(a, p) ** 2 % p for a in squares] == squares
        # one symbol per root, and one per candidate 2, ..., nonresidue of the one search
        assert len(calls) == len(squares) + nonresidue - 1
    assert smallest_nonresidue.cache_info().misses == 3


def test_sqrt_mod_p_against_brute_force():
    # every residue class, compared with the smaller explicit root
    for p in (3, 13, 17, 29):
        for a in range(p):
            roots = [r for r in range(p) if (r * r - a) % p == 0]
            expected = min(roots) if roots else None
            assert sqrt_mod_p(a, p) == expected


def test_arithmetic_axioms_random():
    rng = random.Random(42)
    for field in _all_fields():
        for _ in range(40):
            a = field.random_scalar(rng)
            b = field.random_scalar(rng)
            c = field.random_scalar(rng)
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert a - a == field.zero
            assert a + field.zero == a
            assert a * field.one == a
            if not b.is_zero:
                assert (a / b) * b == a
                assert b * b.inverse() == field.one


def _reference_arithmetic(field, sympy):
    """(to_ref, from_ref): raw values to and from arithmetic that shares no code with fields.

    sympy's QQ, QQ_I and GF(p) serve q, qi and fp.  fp2 is written out
    here as pairs: (a + b w)(c + d w) = (ac + nu bd) + (ad + bc) w, with
    nu the smallest quadratic nonresidue by sympy, the inverse found by
    search and powers by repeated products.
    """
    from sympy.polys.domains import GF, QQ, QQ_I

    p = field.p
    if field.kind == "q":
        return (
            lambda x: QQ(x.numerator, x.denominator),
            lambda r: Fraction(int(r.numerator), int(r.denominator)),
        )
    if field.kind == "qi":

        def to_q(x):
            return QQ(x.numerator, x.denominator)

        def back(r):
            return Fraction(int(r.numerator), int(r.denominator))

        return lambda x: QQ_I(to_q(x[0]), to_q(x[1])), lambda r: (back(r.x), back(r.y))
    if field.kind == "fp":
        K = GF(p)
        return K, lambda r: int(r) % p
    nu = next(n for n in range(2, p) if not sympy.is_quad_residue(n, p))

    class Pair:
        def __init__(self, x):
            self.a, self.b = x[0] % p, x[1] % p

        def __add__(self, o):
            return Pair((self.a + o.a, self.b + o.b))

        def __neg__(self):
            return Pair((-self.a, -self.b))

        def __sub__(self, o):
            return self + -o

        def __mul__(self, o):
            return Pair((self.a * o.a + nu * self.b * o.b, self.a * o.b + self.b * o.a))

        def __pow__(self, e):
            acc = Pair((1, 0))
            for _ in range(e):
                acc = acc * self
            return acc

        def __truediv__(self, o):
            # 1 / o by search over all p^2 pairs
            pairs = (Pair((c, d)) for c in range(p) for d in range(p))
            (inverse,) = [y for y in pairs if (o * y).key() == (1, 0)]
            return self * inverse

        def key(self):
            return self.a, self.b

    return Pair, Pair.key


@pytest.mark.parametrize("spec", ["q", "qi", "fp:13", "fp:2147483629", "fp2:13"])
def test_arith_record_matches_independent_arithmetic(spec):
    # each operation of field.arith on raw values, and each boxed Scalar
    # operation alone and mixed with ints and Fractions, against sympy QQ,
    # QQ_I and GF(p), or the fp2 product written out above; the ring laws
    # of test_arithmetic_axioms_random would also hold with a wrong nu
    hypothesis = pytest.importorskip("hypothesis")
    sympy = pytest.importorskip("sympy")
    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    ar = field.arith
    to_ref, from_ref = _reference_arithmetic(field, sympy)
    if field.characteristic:
        part = st.integers(0, field.p - 1)
    else:
        part = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**4))
    pair = field.kind in ("qi", "fp2")
    values = st.tuples(part, part) if pair else part
    rows = st.integers(1, 4).flatmap(
        lambda n: st.tuples(*[st.lists(values, min_size=n, max_size=n)] * 2)
    )
    ints = st.integers(-10**3, 10**3)
    # an int or a Fraction n/d enters as n * d^-1, so d must be prime to p
    fractions = st.builds(Fraction, ints, st.integers(1, 60)).filter(
        lambda f: not field.characteristic or f.denominator % field.p
    )

    def ref_int(k):
        return to_ref((k, 0) if pair else k)

    @hypothesis.given(values, values, st.integers(0, 40), rows, values, ints, fractions)
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    def check(x, y, e, xy_rows, t, k, frac):
        rx, ry = to_ref(x), to_ref(y)
        assert ar.of(ar.box(x)) == x
        assert ar.zero == from_ref(rx - rx) and ar.one == from_ref(rx**0)
        assert ar.add(x, y) == from_ref(rx + ry)
        assert ar.neg(x) == from_ref(-rx)
        assert ar.mul(x, y) == from_ref(rx * ry)
        assert ar.pow(x, e) == from_ref(rx**e)
        if x != ar.zero:
            assert ar.inv(x) == from_ref(to_ref(ar.one) / rx)
        xs, ys = xy_rows
        f = to_ref(xs[0]) * to_ref(t)
        assert ar.sub(xs, ys, t) == [from_ref(to_ref(u) - f * to_ref(v)) for u, v in zip(xs, ys)]
        bx, by = ar.box(x), ar.box(y)
        rk, rf = ref_int(k), ref_int(frac.numerator) / ref_int(frac.denominator)
        assert ar.of(bx + by) == from_ref(rx + ry)
        assert ar.of(bx - by) == from_ref(rx - ry)
        assert ar.of(-bx) == from_ref(-rx)
        assert ar.of(bx * by) == from_ref(rx * ry)
        assert ar.of(bx**e) == from_ref(rx**e)
        assert ar.of(bx + k) == ar.of(k + bx) == from_ref(rx + rk)
        assert ar.of(k - bx) == from_ref(rk - rx)
        assert ar.of(bx * frac) == ar.of(frac * bx) == from_ref(rx * rf)
        assert ar.of(bx - frac) == from_ref(rx - rf)
        assert ar.of(field.coerce(frac)) == from_ref(rf)
        if x != ar.zero:
            rinv = to_ref(ar.one) / rx
            assert ar.of(bx.inverse()) == from_ref(rinv)
            assert ar.of(by / bx) == from_ref(ry * rinv)
            assert ar.of(frac / bx) == from_ref(rf * rinv)
            assert ar.of(bx**-e) == from_ref(rinv**e)

    check()
    if field.kind == "fp2":
        nu = next(n for n in range(2, field.p) if not sympy.is_quad_residue(n, field.p))
        assert ar.mul((0, 1), (0, 1)) == (nu, 0)
    if field.kind == "qi":
        assert ar.mul((0, 1), (0, 1)) == (-1, 0)


def test_pow_matches_repeated_product():
    rng = random.Random(7)
    for field in _all_fields():
        a = field.random_nonzero_scalar(rng)
        acc = field.one
        for n in range(6):
            assert a**n == acc
            acc = acc * a
        assert a**-1 == a.inverse()


def test_scalar_str_parse_round_trip():
    rng = random.Random(3)
    for field in _all_fields():
        for _ in range(60):
            s = field.random_scalar(rng)
            assert field.parse_scalar(str(s)) == s


def test_rational_sqrt():
    q = FieldSpec.rationals()
    assert sqrt_in_field(q.scalar(Fraction(9, 4))) == q.scalar(Fraction(3, 2))
    assert sqrt_in_field(q.scalar(0)) == q.zero
    with pytest.raises(ExtensionNeeded) as info:
        sqrt_in_field(q.scalar(2))
    assert info.value.element == q.scalar(2)


def test_gaussian_sqrt_canonical():
    qi = FieldSpec.gaussian_rationals()
    i = qi.imaginary_unit()
    assert sqrt_in_field(qi.scalar(-1)) == i
    assert sqrt_in_field(qi.scalar(0, 2)) == qi.scalar(1, 1)
    assert sqrt_in_field(qi.scalar(0, -2)) == qi.scalar(1, -1)
    assert sqrt_in_field(qi.scalar(3, 4)) == qi.scalar(2, 1)
    with pytest.raises(ExtensionNeeded):
        sqrt_in_field(i)


def test_prime_field_sqrt():
    f13 = FieldSpec.prime(13)
    assert sqrt_in_field(f13.scalar(4)) == f13.scalar(2)
    assert sqrt_in_field(f13.scalar(3)) == f13.scalar(4)
    with pytest.raises(ExtensionNeeded) as info:
        sqrt_in_field(f13.scalar(2))
    assert info.value.element == f13.scalar(2)


def test_quadratic_extension_sqrt_total_on_base():
    # every base-field element gets a root inside fp2
    e13 = FieldSpec.quadratic(13)
    for a in range(13):
        s = e13.scalar(a)
        r = sqrt_in_field(s)
        assert r * r == s
    assert sqrt_in_field(e13.scalar(2)) == e13.scalar(0, 1)


def test_quadratic_extension_sqrt_canonical_choice():
    rng = random.Random(11)
    e13 = FieldSpec.quadratic(13)
    for _ in range(80):
        s = e13.random_scalar(rng)
        sq = s * s
        r = sqrt_in_field(sq)
        assert r * r == sq
        assert (r.a, r.b) <= ((-r).a, (-r).b)
    with pytest.raises(ExtensionNeeded):
        sqrt_in_field(e13.scalar(0, 1))


def _canonical_root(r):
    """Whether r is the root ``sqrt_in_field`` may return: the nonnegative one
    over q, residues in [0, (p-1)/2] over fp, the lexicographically smaller
    of (a, b) and (-a, -b) over fp2, and a > 0, or a = 0 and b >= 0, over qi."""
    kind, p = r.field.kind, r.field.p
    if kind == "q":
        return r.a >= 0
    if kind == "fp":
        return 2 * r.a < p
    if kind == "fp2":
        return (r.a, r.b) <= (-r.a % p, -r.b % p)
    return r.a > 0 or (r.a == 0 and r.b >= 0)


def _assert_sqrt(s, squares):
    """sqrt_in_field(s) is a canonical root when s is in ``squares``, else ExtensionNeeded on s."""
    if s in squares:
        r = sqrt_in_field(s)
        assert r * r == s and _canonical_root(r), (s, r)
        assert is_square(s)
    else:
        with pytest.raises(ExtensionNeeded) as info:
            sqrt_in_field(s)
        assert info.value.element == s
        assert not is_square(s)


@pytest.mark.parametrize("p", [3, 5, 7, 13])
def test_sqrt_in_field_is_exact_on_every_element_of_fp_and_fp2(p):
    for field in (FieldSpec.prime(p), FieldSpec.quadratic(p)):
        pairs = [(a, b) for a in range(p) for b in (range(p) if field.kind == "fp2" else (0,))]
        elements = [field.scalar(a, b) for a, b in pairs]
        squares = {s * s for s in elements}
        for s in elements:
            _assert_sqrt(s, squares)


def test_sqrt_in_field_over_qi_on_a_grid_of_squares():
    qi = FieldSpec.gaussian_rationals()
    parts = sorted({Fraction(n, d) for n in range(-4, 5) for d in (1, 2, 3)})
    for a in parts:
        for b in parts:
            z = qi.scalar(a, b)
            r = sqrt_in_field(z * z)
            assert r in (z, -z) and _canonical_root(r), (z, r)
    for s in (qi.scalar(2), qi.scalar(-3), qi.scalar(0, 1), qi.scalar(1, 1)):
        _assert_sqrt(s, set())


def test_sqrt_consistent_with_is_square():
    rng = random.Random(5)
    for field in _all_fields():
        for _ in range(30):
            s = field.random_scalar(rng)
            try:
                r = sqrt_in_field(s)
            except ExtensionNeeded:
                assert not is_square(s)
            else:
                assert is_square(s)
                assert r * r == s


def test_embed_extension_only():
    q = FieldSpec.rationals()
    qi = FieldSpec.gaussian_rationals()
    f13 = FieldSpec.prime(13)
    e13 = FieldSpec.quadratic(13)
    half = q.scalar(Fraction(1, 2))
    assert qi.embed(half) == qi.scalar(Fraction(1, 2))
    assert e13.embed(f13.scalar(7)) == e13.scalar(7)
    assert q.embed(half) == half
    with pytest.raises(ValueError):
        f13.embed(half)
    with pytest.raises(ValueError):
        q.embed(qi.imaginary_unit())
    with pytest.raises(ValueError):
        FieldSpec.quadratic(17).embed(f13.scalar(1))


def test_extension_helper():
    assert FieldSpec.rationals().extension() == FieldSpec.gaussian_rationals()
    assert FieldSpec.prime(13).extension() == FieldSpec.quadratic(13)
    assert FieldSpec.quadratic(13).extension() == FieldSpec.quadratic(13)


def test_imaginary_unit_needs_a_root():
    qi = FieldSpec.gaussian_rationals()
    assert qi.imaginary_unit() ** 2 == qi.scalar(-1)
    f13 = FieldSpec.prime(13)
    assert f13.imaginary_unit() == f13.scalar(5)
    with pytest.raises(ExtensionNeeded):
        FieldSpec.rationals().imaginary_unit()
    with pytest.raises(ExtensionNeeded):
        FieldSpec.prime(7).imaginary_unit()


def test_random_scalar_is_seed_deterministic():
    for field in _all_fields():
        first = [field.random_scalar(random.Random(99)) for _ in range(10)]
        second = [field.random_scalar(random.Random(99)) for _ in range(10)]
        assert first == second


def test_scalar_rejects_cross_field_mix():
    f13 = FieldSpec.prime(13)
    f17 = FieldSpec.prime(17)
    with pytest.raises(ValueError):
        f13.scalar(1) + f17.scalar(1)
    with pytest.raises(ValueError):
        f13.scalar(1, 5)


def test_coerce_reads_ints_and_fractions_as_the_parser_does():
    f7, f11, e7 = FieldSpec.prime(7), FieldSpec.prime(11), FieldSpec.quadratic(7)
    half = Fraction(1, 2)
    assert f7.scalar(half) == f7.parse_scalar("1/2") == f7.from_int(4)
    assert f7.coerce(half).a == 4 and f7.coerce(Fraction(-3, 4)) == f7.parse_scalar("-3/4")
    assert e7.scalar(half, Fraction(1, 3)) == e7.parse_scalar("1/2+1/3w")
    assert f7.coerce(-10) == f7.from_int(4)
    assert f7.one + half == f7.parse_scalar("3/2") and half * f7.from_int(2) == f7.one
    assert f7.coerce(f7.one) is f7.one
    for value in (Fraction(1, 7), Fraction(3, 14)):
        with pytest.raises(ValueError, match="not invertible"):
            f7.coerce(value)
        with pytest.raises(ValueError, match="not invertible"):
            f7.scalar(1, value)
    with pytest.raises(ValueError, match="field mismatch"):
        f7.coerce(f11.one)


@pytest.mark.parametrize("junk", [2.7, "3", None, 1j])
def test_coerce_refuses_other_types(junk):
    f7 = FieldSpec.prime(7)
    with pytest.raises(TypeError):
        f7.scalar(junk)
    with pytest.raises(TypeError):
        f7.coerce(junk)
    with pytest.raises(TypeError):
        f7.one + junk


def test_scalar_equality_never_raises():
    f7, f11 = FieldSpec.prime(7), FieldSpec.prime(11)
    assert f7.from_int(4) == Fraction(1, 2) and f7.from_int(4) == 11
    assert f7.one != Fraction(1, 7)
    assert f7.one != f11.one and f11.one != f7.one
    assert f7.one != "1" and f7.one != 1.0 and f7.one != None  # noqa: E711
    assert FieldSpec.rationals().scalar(Fraction(1, 2)) == Fraction(1, 2)


def test_scalar_refuses_a_polynomial_without_printing_it(monkeypatch):
    from ulrich_forge import Poly, parse_poly

    def no_repr(self):
        raise AssertionError("Poly.__repr__ called")

    for field in _all_fields():
        p = parse_poly("x^2 - 3*y*z + 2", field)
        monkeypatch.setattr(Poly, "__repr__", no_repr)
        assert field.one * p == p
        assert field.from_int(2) * p == p.scale(2)
        assert (field.one == p) is False
        assert field.one != p
        monkeypatch.undo()
    # a refused type still names itself in the public error
    with pytest.raises(TypeError, match="cannot bring Poly"):
        FieldSpec.prime(7).coerce(Poly.zero(FieldSpec.prime(7), 2))


def test_scalar_hash_agrees_with_equal_numbers():
    q, qi, f7 = FieldSpec.rationals(), FieldSpec.gaussian_rationals(), FieldSpec.prime(7)
    assert q.one in {1} and {q.one: "a"}.get(1) == "a"
    assert q.scalar(Fraction(-3, 4)) in {Fraction(-3, 4)}
    assert {Fraction(2, 3): "b"}.get(q.scalar(Fraction(2, 3))) == "b"
    assert qi.scalar(5) in {5} and qi.scalar(Fraction(1, 2)) in {Fraction(1, 2)}
    assert qi.scalar(0, 1) not in {0, 1}
    # one rule within a field: equal scalars hash alike
    for field in (q, qi, f7):
        assert len({field.coerce(2), field.from_int(2), field.one + field.one}) == 1


def test_zero_inverse_fails():
    for field in _all_fields():
        with pytest.raises(ZeroDivisionError):
            field.zero.inverse()


def _assert_canonical(s, field):
    """s is a Scalar of field whose parts have the canonical types and range."""
    assert type(s) is Scalar and s.field is field
    if field.p:
        assert all(type(v) is int and 0 <= v < field.p for v in (s.a, s.b))
    else:
        assert type(s.a) is Fraction and type(s.b) is Fraction
    if field.kind in ("q", "fp"):
        assert not s.b


@pytest.mark.parametrize("spec", ["fp:13", "fp2:13", "q", "qi"])
def test_box_agrees_with_the_validating_constructor(spec):
    # field.arith.box writes canonical raw values without Scalar.__init__;
    # what it makes must be the scalar the validating route makes
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    ar = field.arith
    if field.p:
        part = st.integers(0, field.p - 1)
    else:
        part = st.builds(Fraction, st.integers(-10**4, 10**4), st.integers(1, 10**3))
    values = st.tuples(part, part) if field.kind in ("qi", "fp2") else part

    @hypothesis.given(values, values, st.integers(0, 9))
    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True)
    def check(x, y, e):
        results = [x, y, ar.add(x, y), ar.neg(x), ar.mul(x, y), ar.pow(x, e), *ar.sub([x, y], [y, x], y)]
        if x != ar.zero:
            results.append(ar.inv(x))
        for r in results:
            boxed, made = ar.box(r), Scalar(field, *fields.raw_parts(field, r))
            _assert_canonical(boxed, field)
            _assert_canonical(made, field)
            assert (boxed.a, boxed.b) == (made.a, made.b)
            assert boxed == made and made == boxed and hash(boxed) == hash(made)
            assert str(boxed) == str(made)
            for s in (boxed, made):
                with pytest.raises(AttributeError):
                    s.a = s.b
                with pytest.raises(AttributeError):
                    setattr(s, "field", field)

    check()


def test_validation_stays_and_every_library_box_is_canonical():
    fp, q, qi = FieldSpec.prime(13), FieldSpec.rationals(), FieldSpec.gaussian_rationals()
    with pytest.raises(ValueError, match="prime-field scalar with extension part"):
        Scalar(fp, 3, 1)
    with pytest.raises(ValueError, match="rational scalar with imaginary part"):
        Scalar(q, 0, 1)
    with pytest.raises(TypeError):
        Scalar(fp, Fraction(1, 2))
    _assert_canonical(Scalar(fp, -1), fp)
    _assert_canonical(Scalar(q, 3), q)
    assert (Scalar(fp, -1).a, Scalar(q, 3).a) == (12, Fraction(3))
    # the library's own boxes are canonical too
    embedded = qi.embed(q.scalar(Fraction(3, 4)))
    _assert_canonical(embedded, qi)
    assert (embedded.a, embedded.b) == (Fraction(3, 4), Fraction(0))
    e13 = FieldSpec.quadratic(13)
    _assert_canonical(e13.embed(fp.from_int(-2)), e13)
    for field in _all_fields():
        rng = random.Random(7)
        for _ in range(20):
            s = field.random_scalar(rng)
            _assert_canonical(s, field)
            _assert_canonical(field.from_int(rng.randint(-99, 99)), field)
            if is_square(s):
                _assert_canonical(sqrt_in_field(s), field)
        texts = ["-3/4", "7", "-15/2"]
        if field.kind in ("qi", "fp2"):
            unit = "i" if field.kind == "qi" else "w"
            texts += [f"2-5/3{unit}", f"-{unit}", unit, f"-1/2{unit}", f"4+{unit}"]
        for text in texts:
            _assert_canonical(field.parse_scalar(text), field)


# Recorded on the implementation before Arith.box skipped Scalar.__init__.
# Each (field, operand y) with x = 3/4 over q, 3/4+2i over qi, 3 over fp:7
# and 3+2w over fp2:7: the outcomes of x+y, y+x, x-y, y-x, x*y, y*x, x/y,
# y/x, x==y and y==x, as the printed result or "Type: message".
_MIXED_OUTCOMES = {
    ("q", "8"): ("35/4", "35/4", "-29/4", "29/4", "6", "6", "3/32", "32/3", False, False),
    ("q", "10"): ("43/4", "43/4", "-37/4", "37/4", "15/2", "15/2", "3/40", "40/3", False, False),
    ("q", "0"): (
        "3/4", "3/4", "3/4", "-3/4", "0", "0", "ZeroDivisionError: scalar inverse of zero", "0",
        False, False,
    ),
    ("q", "3/4"): ("3/2", "3/2", "0", "0", "9/16", "9/16", "1", "1", True, True),
    ("q", "1/2"): ("5/4", "5/4", "1/4", "-1/4", "3/8", "3/8", "3/2", "2/3", False, False),
    ("q", "1/7"): (
        "25/28", "25/28", "17/28", "-17/28", "3/28", "3/28", "21/4", "4/21", False, False,
    ),
    ("q", "2.5"): (
        "TypeError: unsupported operand type(s) for +: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for +: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for -: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for -: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for *: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for *: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for /: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for /: 'float' and 'Scalar'", False, False,
    ),
    ("q", "5 here"): (
        "23/4", "23/4", "-17/4", "17/4", "15/4", "15/4", "3/20", "20/3", False, False,
    ),
    ("q", "0 here"): (
        "3/4", "3/4", "3/4", "-3/4", "0", "0", "ZeroDivisionError: scalar inverse of zero", "0",
        False, False,
    ),
    ("q", "2 in fp:11"): (
        "ValueError: field mismatch: q vs fp:11", "ValueError: field mismatch: fp:11 vs q",
        "ValueError: field mismatch: q vs fp:11", "ValueError: field mismatch: fp:11 vs q",
        "ValueError: field mismatch: q vs fp:11", "ValueError: field mismatch: fp:11 vs q",
        "ValueError: field mismatch: q vs fp:11", "ValueError: field mismatch: fp:11 vs q", False,
        False,
    ),
    ("qi", "8"): (
        "35/4+2i", "35/4+2i", "-29/4+2i", "29/4-2i", "6+16i", "6+16i", "3/32+1/4i",
        "96/73-256/73i", False, False,
    ),
    ("qi", "10"): (
        "43/4+2i", "43/4+2i", "-37/4+2i", "37/4-2i", "15/2+20i", "15/2+20i", "3/40+1/5i",
        "120/73-320/73i", False, False,
    ),
    ("qi", "0"): (
        "3/4+2i", "3/4+2i", "3/4+2i", "-3/4-2i", "0", "0",
        "ZeroDivisionError: scalar inverse of zero", "0", False, False,
    ),
    ("qi", "3/4"): (
        "3/2+2i", "3/2+2i", "2i", "-2i", "9/16+3/2i", "9/16+3/2i", "1+8/3i", "9/73-24/73i", False,
        False,
    ),
    ("qi", "1/2"): (
        "5/4+2i", "5/4+2i", "1/4+2i", "-1/4-2i", "3/8+i", "3/8+i", "3/2+4i", "6/73-16/73i", False,
        False,
    ),
    ("qi", "1/7"): (
        "25/28+2i", "25/28+2i", "17/28+2i", "-17/28-2i", "3/28+2/7i", "3/28+2/7i", "21/4+14i",
        "12/511-32/511i", False, False,
    ),
    ("qi", "2.5"): (
        "TypeError: unsupported operand type(s) for +: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for +: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for -: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for -: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for *: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for *: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for /: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for /: 'float' and 'Scalar'", False, False,
    ),
    ("qi", "5 here"): (
        "23/4+2i", "23/4+2i", "-17/4+2i", "17/4-2i", "15/4+10i", "15/4+10i", "3/20+2/5i",
        "60/73-160/73i", False, False,
    ),
    ("qi", "0 here"): (
        "3/4+2i", "3/4+2i", "3/4+2i", "-3/4-2i", "0", "0",
        "ZeroDivisionError: scalar inverse of zero", "0", False, False,
    ),
    ("qi", "2 in fp:11"): (
        "ValueError: field mismatch: qi vs fp:11", "ValueError: field mismatch: fp:11 vs qi",
        "ValueError: field mismatch: qi vs fp:11", "ValueError: field mismatch: fp:11 vs qi",
        "ValueError: field mismatch: qi vs fp:11", "ValueError: field mismatch: fp:11 vs qi",
        "ValueError: field mismatch: qi vs fp:11", "ValueError: field mismatch: fp:11 vs qi",
        False, False,
    ),
    ("fp:7", "8"): ("4", "4", "2", "5", "3", "3", "3", "5", False, False),
    ("fp:7", "10"): ("6", "6", "0", "0", "2", "2", "1", "1", True, True),
    ("fp:7", "0"): (
        "3", "3", "3", "4", "0", "0", "ZeroDivisionError: scalar inverse of zero", "0", False,
        False,
    ),
    ("fp:7", "3/4"): ("2", "2", "4", "3", "4", "4", "4", "2", False, False),
    ("fp:7", "1/2"): ("0", "0", "6", "1", "5", "5", "6", "6", False, False),
    ("fp:7", "1/7"): (
        "ValueError: denominator of 1/7 is not invertible over fp:7",
        "ValueError: denominator of 1/7 is not invertible over fp:7",
        "ValueError: denominator of 1/7 is not invertible over fp:7",
        "ValueError: denominator of 1/7 is not invertible over fp:7",
        "ValueError: denominator of 1/7 is not invertible over fp:7",
        "ValueError: denominator of 1/7 is not invertible over fp:7",
        "ValueError: denominator of 1/7 is not invertible over fp:7",
        "ValueError: denominator of 1/7 is not invertible over fp:7", False, False,
    ),
    ("fp:7", "2.5"): (
        "TypeError: unsupported operand type(s) for +: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for +: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for -: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for -: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for *: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for *: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for /: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for /: 'float' and 'Scalar'", False, False,
    ),
    ("fp:7", "5 here"): ("1", "1", "5", "2", "1", "1", "2", "4", False, False),
    ("fp:7", "0 here"): (
        "3", "3", "3", "4", "0", "0", "ZeroDivisionError: scalar inverse of zero", "0", False,
        False,
    ),
    ("fp:7", "2 in fp:11"): (
        "ValueError: field mismatch: fp:7 vs fp:11", "ValueError: field mismatch: fp:11 vs fp:7",
        "ValueError: field mismatch: fp:7 vs fp:11", "ValueError: field mismatch: fp:11 vs fp:7",
        "ValueError: field mismatch: fp:7 vs fp:11", "ValueError: field mismatch: fp:11 vs fp:7",
        "ValueError: field mismatch: fp:7 vs fp:11", "ValueError: field mismatch: fp:11 vs fp:7",
        False, False,
    ),
    ("fp2:7", "8"): ("4+2w", "4+2w", "2+2w", "5+5w", "3+2w", "3+2w", "3+2w", "6+3w", False, False),
    ("fp2:7", "10"): ("6+2w", "6+2w", "2w", "5w", "2+6w", "2+6w", "1+3w", "4+2w", False, False),
    ("fp2:7", "0"): (
        "3+2w", "3+2w", "3+2w", "4+5w", "0", "0", "ZeroDivisionError: scalar inverse of zero", "0",
        False, False,
    ),
    ("fp2:7", "3/4"): (
        "2+2w", "2+2w", "4+2w", "3+5w", "4+5w", "4+5w", "4+5w", "1+4w", False, False,
    ),
    ("fp2:7", "1/2"): ("2w", "2w", "6+2w", "1+5w", "5+w", "5+w", "6+4w", "3+5w", False, False),
    ("fp2:7", "1/7"): (
        "ValueError: denominator of 1/7 is not invertible over fp2:7",
        "ValueError: denominator of 1/7 is not invertible over fp2:7",
        "ValueError: denominator of 1/7 is not invertible over fp2:7",
        "ValueError: denominator of 1/7 is not invertible over fp2:7",
        "ValueError: denominator of 1/7 is not invertible over fp2:7",
        "ValueError: denominator of 1/7 is not invertible over fp2:7",
        "ValueError: denominator of 1/7 is not invertible over fp2:7",
        "ValueError: denominator of 1/7 is not invertible over fp2:7", False, False,
    ),
    ("fp2:7", "2.5"): (
        "TypeError: unsupported operand type(s) for +: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for +: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for -: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for -: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for *: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for *: 'float' and 'Scalar'",
        "TypeError: unsupported operand type(s) for /: 'Scalar' and 'float'",
        "TypeError: unsupported operand type(s) for /: 'float' and 'Scalar'", False, False,
    ),
    ("fp2:7", "5 here"): (
        "1+2w", "1+2w", "5+2w", "2+5w", "1+3w", "1+3w", "2+6w", "2+w", False, False,
    ),
    ("fp2:7", "0 here"): (
        "3+2w", "3+2w", "3+2w", "4+5w", "0", "0", "ZeroDivisionError: scalar inverse of zero", "0",
        False, False,
    ),
    ("fp2:7", "2 in fp:11"): (
        "ValueError: field mismatch: fp2:7 vs fp:11", "ValueError: field mismatch: fp:11 vs fp2:7",
        "ValueError: field mismatch: fp2:7 vs fp:11", "ValueError: field mismatch: fp:11 vs fp2:7",
        "ValueError: field mismatch: fp2:7 vs fp:11", "ValueError: field mismatch: fp:11 vs fp2:7",
        "ValueError: field mismatch: fp2:7 vs fp:11", "ValueError: field mismatch: fp:11 vs fp2:7",
        False, False,
    ),
}


_OPERATORS = (operator.add, operator.sub, operator.mul, operator.truediv, operator.eq)


def _mixed_outcomes():
    fp11 = FieldSpec.prime(11)
    table = {}
    for spec, a, b in (("q", Fraction(3, 4), 0), ("qi", Fraction(3, 4), 2), ("fp:7", 3, 0), ("fp2:7", 3, 2)):
        field = FieldSpec.parse(spec)
        x = field.scalar(a, b)
        operands = {
            "8": 8, "10": 10, "0": 0, "3/4": Fraction(3, 4), "1/2": Fraction(1, 2),
            "1/7": Fraction(1, 7), "2.5": 2.5, "5 here": field.from_int(5),
            "0 here": field.zero, "2 in fp:11": fp11.from_int(2),
        }
        for label, y in operands.items():
            outcomes = []
            for op in _OPERATORS:
                for left, right in ((x, y), (y, x)):
                    try:
                        r = op(left, right)
                    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
                        r = f"{type(exc).__name__}: {exc}"
                    else:
                        if isinstance(r, Scalar):
                            _assert_canonical(r, field)
                            r = str(r)
                    outcomes.append(r)
            table[spec, label] = tuple(outcomes)
    return table


def test_mixed_operands_keep_their_recorded_outcomes():
    assert _mixed_outcomes() == _MIXED_OUTCOMES
