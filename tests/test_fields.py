"""Field parsing, exact arithmetic, and canonical square roots."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ulrich_forge import ExtensionNeeded, FieldSpec, is_square, sqrt_in_field
from ulrich_forge import fields
from ulrich_forge.fields import _is_prime, legendre, smallest_nonresidue, sqrt_mod_p


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
