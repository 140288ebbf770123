"""Gram matrices, diagonalization, sums of products, pencil determinants."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ulrich_forge import (
    ExtensionNeeded,
    FieldSpec,
    GradedSystem,
    Poly,
    SumOfProducts,
    diagonalize,
    gram_from_poly,
    hilbert_value,
    is_square,
    is_squarefree_univariate,
    parse_poly,
    pencil_determinant,
    poly_from_gram,
    random_homogeneous,
    record_from_gram,
    sum_of_products,
)
from ulrich_forge.linalg import mat_mul, transpose
from ulrich_forge.linalg import rank as rank_of

from oracles import poly_det_cofactor


def _random_record(field, nvars, rng):
    while True:
        p = random_homogeneous(field, nvars, 2, rng)
        if not p.is_zero:
            return gram_from_poly(p)


def test_gram_frozen(q):
    rec = gram_from_poly(parse_poly("x*y - z^2", q))
    half = q.scalar(Fraction(1, 2))
    assert rec.rank == 3
    assert rec.gram == (
        (q.zero, half, q.zero),
        (half, q.zero, q.zero),
        (q.zero, q.zero, -q.one),
    )


def test_gram_is_symmetric_random():
    rng = random.Random(79)
    for field in (FieldSpec.rationals(), FieldSpec.prime(101)):
        rec = _random_record(field, 4, rng)
        assert [list(r) for r in rec.gram] == transpose([list(r) for r in rec.gram])


def test_gram_requires_a_quadric(q):
    with pytest.raises(ValueError):
        gram_from_poly(parse_poly("x^3", q))
    with pytest.raises(ValueError):
        gram_from_poly(parse_poly("x^2", q, nvars=2) + parse_poly("y", q, nvars=2))
    assert gram_from_poly(Poly.zero(q, 3)).rank == 0


def test_poly_gram_round_trip(f13):
    rng = random.Random(83)
    for _ in range(10):
        rec = _random_record(f13, 3, rng)
        assert poly_from_gram(f13, rec.gram) == rec.poly
        again = record_from_gram(f13, rec.gram)
        assert again.poly == rec.poly and again.rank == rec.rank


def test_diagonalize_frozen_hyperbolic(q):
    d = diagonalize(gram_from_poly(parse_poly("x*y", q)))
    assert [str(v) for v in d.diagonal] == ["1", "-1"]
    assert [str(l) for l in d.lambdas] == ["1/2*x + 1/2*y", "1/2*x - 1/2*y"]


def test_diagonalize_congruence_and_recombination():
    rng = random.Random(89)
    fields = [
        FieldSpec.rationals(),
        FieldSpec.gaussian_rationals(),
        FieldSpec.prime(101),
        FieldSpec.quadratic(13),
        FieldSpec.prime(3),
        FieldSpec.prime(7),
    ]
    for field in fields:
        records = [_random_record(field, nvars, rng) for nvars in (2, 3, 4)]
        # zero diagonal entries reach the swap and the split x_i -> u + v, x_j -> u - v
        records += [
            gram_from_poly(parse_poly(text, field))
            for text in ("x*y + y*z + z*t", "x*y", "x*z + y*t + x*t", "x*y + 2*z^2")
        ]
        for rec in records:
            nvars = rec.nvars
            diag = diagonalize(rec)
            p = diag.p_matrix
            lhs = mat_mul(mat_mul(transpose(p), [list(r) for r in rec.gram], field), p, field)
            for i in range(nvars):
                for j in range(nvars):
                    expected = diag.diagonal[i] if i == j else field.zero
                    assert lhs[i][j] == expected
            # the carried P^{-1} is the inverse of P, row by row: the
            # lambdas are linear forms whose coefficient matrix L has L*P = I
            units = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
            coeffs = [[form.coefficient(e) for e in units] for form in diag.lambdas]
            assert diag.lambdas == [Poly.linear_form(field, row) for row in coeffs]
            one = [[field.one if j == i else field.zero for j in range(nvars)] for i in range(nvars)]
            assert mat_mul(coeffs, p, field) == one
            # q = sum d_i * lambda_i^2 as polynomials
            total = Poly.zero(field, nvars)
            for value, lam in zip(diag.diagonal, diag.lambdas):
                total = total + (lam * lam).scale(value)
            assert total == rec.poly
            nonzero = sum(1 for v in diag.diagonal if not v.is_zero)
            assert nonzero == rec.rank


_CORPUS_FIELDS = ("fp:13", "fp:101", "fp:32003", "fp2:13", "q", "qi")
# no square terms, or a zero diagonal block: these reach the swap and the
# split x_k -> u + v, x_j -> u - v
_HOLLOW = ("x*y", "x*y + z*t", "x*y + y*z + z*t", "x*z + y*t + x*t", "x*y + 2*z^2", "y*z + x^2")


@pytest.mark.parametrize("text", _CORPUS_FIELDS)
def test_p_matrix_is_the_inverse_of_the_lambda_rows(text):
    field = FieldSpec.parse(text)
    rng = random.Random(61)
    records = [_random_record(field, nvars, rng) for nvars in (1, 3, 5)]
    records += [gram_from_poly(parse_poly(form, field, nvars=4)) for form in _HOLLOW]
    records.append(_record_of_rank(field, 5, 2, rng))
    for rec in records:
        n = rec.nvars
        diag = diagonalize(rec)
        p = diag.p_matrix
        units = [tuple(int(k == j) for k in range(n)) for j in range(n)]
        rows = [[form.coefficient(e) for e in units] for form in diag.lambdas]
        one = [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]
        assert mat_mul(p, rows, field) == one and mat_mul(rows, p, field) == one
        d = [[diag.diagonal[i] if i == j else field.zero for j in range(n)] for i in range(n)]
        assert mat_mul(mat_mul(transpose(p), [list(r) for r in rec.gram], field), p, field) == d
        # each read is a fresh matrix
        p[0][0] = p[0][0] + field.one
        assert diag.p_matrix != p and mat_mul(diag.p_matrix, rows, field) == one


def test_sum_of_products_refuses_pairs_one_coefficient_off(q, f13):
    for field in (q, f13, FieldSpec.quadratic(13)):
        x, y, z = (Poly.variable(field, 3, i) for i in range(3))
        cases = [
            ((x, y), (z, z)),
            ((x * x, y * z), (x * y, x * z - y * y)),  # degree 2 factors
            ((x * y * z, x), (z**3, y - x)),  # degrees 3 and 1
        ]
        for pairs in cases:
            total = Poly.zero(field, 3)
            for l, m in pairs:
                total = total + l * m
            sop = SumOfProducts(pairs, total)
            assert sop.recombine() == total
            for exps in total.raw:
                off = total + Poly.monomial(field, exps, 1)
                with pytest.raises(ValueError, match="recombine"):
                    SumOfProducts(pairs, off)
            with pytest.raises(ValueError, match="recombine"):
                SumOfProducts(pairs, total + Poly.monomial(field, (0, 0, 2), 1))


def test_recombination_codes_do_not_collide_at_the_base(q):
    # monomial codes sum a_i * b^i need b above every exponent, of the
    # products and of the quadric: x^2 against y (b = 2), x*y against x^4
    # (b = 3 from the products alone) and x^b against y for larger b
    x, y = Poly.variable(q, 2, 0), Poly.variable(q, 2, 1)
    with pytest.raises(ValueError, match="recombine"):
        SumOfProducts(((x, x),), y)
    with pytest.raises(ValueError, match="recombine"):
        SumOfProducts(((x, y),), x**4)
    for b in range(2, 7):
        with pytest.raises(ValueError, match="recombine"):
            SumOfProducts(((x ** (b - 1), x),), y)
        assert SumOfProducts(((x ** (b - 1), x),), x**b).recombine() == x**b
    # a factor from another ring is refused as before
    with pytest.raises(ValueError):
        SumOfProducts(((x, Poly.variable(q, 3, 0)),), x * x)


def test_square_flag_is_true_exactly_when_the_last_pair_is_equal(q):
    # the flag is read from the pairs, so no constructor input can contradict them
    x, y = Poly.variable(q, 2, 0), Poly.variable(q, 2, 1)
    assert SumOfProducts(((x, x),), x * x).square_term_flag is True
    assert SumOfProducts(((x, y), (y, y)), x * y + y * y).square_term_flag is True
    assert SumOfProducts(((y, y), (x, y)), x * y + y * y).square_term_flag is False
    assert SumOfProducts(((x, y),), x * y).square_term_flag is False
    # an equal pair whose factors are built apart is still a square
    assert SumOfProducts(((x + y, y + x),), (x + y) ** 2).square_term_flag is True
    with pytest.raises(TypeError):
        SumOfProducts(((x, x),), False, x * x)


def test_record_from_gram_checks_the_shape_and_coerces_entries(q, f13):
    for ragged in ([[1, 0], [0]], [[1, 0]], [[q.one, q.zero], [q.zero]]):
        with pytest.raises(ValueError):
            record_from_gram(q, ragged)
        with pytest.raises(ValueError):
            poly_from_gram(q, ragged)
    with pytest.raises(ValueError):
        record_from_gram(q, [[1, 2], [3, 1]])
    rec = record_from_gram(q, [[1, 2], [2, Fraction(1, 2)]])
    assert rec.rank == 2
    assert rec.poly == parse_poly("x^2 + 4*x*y + 1/2*y^2", q)
    assert rec.gram == ((q.one, q.from_int(2)), (q.from_int(2), q.scalar(Fraction(1, 2))))
    # over fp:13 the entries 14 and 1 are one element, so the matrix is symmetric
    rec = record_from_gram(f13, [[0, 14], [f13.one, 0]])
    assert rec.rank == 2 and rec.poly == parse_poly("2*x*y", f13)


@pytest.mark.parametrize("text", ["q", "qi", "fp:101", "fp2:13"])
def test_records_ranks_and_the_gcd_box_no_scalar(text, count_scalars):
    field = FieldSpec.parse(text)
    forms = ["x*y + y*z + z*t", "x^2 + 4*x*y + 3*y^2 + z^2"]
    small = [parse_poly(form, field) for form in forms]
    padded = [parse_poly(form, field, nvars=45) for form in forms]
    system = GradedSystem([parse_poly(t, field) for t in ("x^2 - y*z", "y^2 - x*z", "z^2 + x*y")])
    univariate = parse_poly("x^4 - 2*x^2 + 1", field, nvars=1)
    records = [gram_from_poly(p) for p in small + padded]
    three_terms = parse_poly("x + 2*y - 3*z", field)
    built = count_scalars()
    # positive controls, one per route: reading the terms boxes one scalar
    # per term, and field.scalar validates one
    assert len(three_terms.terms) == 3 and len(built) == 3
    assert field.scalar(5) and len(built) == 4
    built.clear()
    for p in small + padded:
        gram_from_poly(p)
    hilbert_value(system, 3)
    assert not is_squarefree_univariate(univariate)
    assert built == []
    # sum_of_products takes its roots on raw values too, so it boxes nothing
    counts = []
    for rec in records:
        built.clear()
        sum_of_products(rec)
        counts.append(len(built))
    assert counts == [0] * len(records)


def test_sum_of_products_frozen_odd_rank(f13):
    sop = sum_of_products(gram_from_poly(parse_poly("x^2 + y^2 + z^2", f13)))
    assert [(str(l), str(m)) for l, m in sop.pairs] == [
        ("x + 5*y", "x + 8*y"),
        ("z", "z"),
    ]
    assert sop.square_term_flag
    assert sop.s == 2
    # 1 and -1 = 5^2 both have roots in fp:13, so the work stays there
    assert sop.quadric.field is f13
    assert sop.recombine() == sop.quadric


def test_sum_of_products_frozen_even_rank(f13):
    sop = sum_of_products(gram_from_poly(parse_poly("x*y + z*t", f13)))
    assert [(str(l), str(m)) for l, m in sop.pairs] == [("x", "y"), ("z", "t")]
    assert not sop.square_term_flag
    assert sop.s == 2


def test_sum_of_products_needs_extension_over_q(q):
    with pytest.raises(ExtensionNeeded):
        sum_of_products(gram_from_poly(parse_poly("x^2 + y^2", q)))


def test_sum_of_products_gaussian(qi):
    sop = sum_of_products(gram_from_poly(parse_poly("x^2 + y^2", qi)))
    i = qi.imaginary_unit()
    assert len(sop.pairs) == 1
    l, m = sop.pairs[0]
    x, y = Poly.variable(qi, 2, 0), Poly.variable(qi, 2, 1)
    assert l * m == x * x + y * y
    assert l == x + y.scale(i) or l == x - y.scale(i)


def test_sum_of_products_properties_random():
    rng = random.Random(97)
    f101 = FieldSpec.prime(101)
    for _ in range(25):
        rec = _random_record(f101, rng.randint(2, 5), rng)
        sop = sum_of_products(rec)
        assert sop.s == (rec.rank + 1) // 2
        assert sop.square_term_flag == (rec.rank % 2 == 1)
        assert sop.recombine() == sop.quadric
        assert sop.quadric == rec.poly.embed(sop.quadric.field)
        assert sop.quadric.field in (f101, FieldSpec.quadratic(101))
        for l, m in sop.pairs:
            assert l.homogeneous_degree() == 1
            assert m.homogeneous_degree() == 1
        if sop.square_term_flag:
            last_l, last_m = sop.pairs[-1]
            assert last_l == last_m


def _record_of_rank(field, nvars, rank, rng):
    """The record of P^T D P with P random invertible and D of exactly ``rank`` nonzeros."""
    while True:
        p = [[field.random_scalar(rng) for _ in range(nvars)] for _ in range(nvars)]
        if rank_of([list(r) for r in p], field) == nvars:
            break
    d = [
        [field.random_nonzero_scalar(rng) if i == j < rank else field.zero for j in range(nvars)]
        for i in range(nvars)
    ]
    rec = record_from_gram(field, mat_mul(mat_mul(transpose(p), d, field), p, field))
    assert rec.rank == rank
    return rec


@pytest.mark.parametrize("p", [7, 13, 101, 103])
def test_sum_of_products_stays_in_fp_exactly_when_every_root_exists(p):
    # p = 13, 101 are 1 mod 4 (-1 is a square); p = 7, 103 are 3 mod 4
    fp, fp2 = FieldSpec.prime(p), FieldSpec.quadratic(p)
    rng = random.Random(p)
    outcomes = set()
    for rank in range(8):
        for _ in range(10):
            rec = _record_of_rank(fp, 7, rank, rng)
            sop = sum_of_products(rec)
            # the route that always works over fp2
            old = sum_of_products(gram_from_poly(rec.poly.embed(fp2)))
            assert [(l.embed(fp2), m.embed(fp2)) for l, m in sop.pairs] == list(old.pairs)
            assert sop.square_term_flag == old.square_term_flag
            assert sop.quadric.embed(fp2) == old.quadric
            # consecutive pairing needs roots of d1, -d2, d3, -d4, ...
            values = [d for d in diagonalize(rec).diagonal if d]
            needed = [-d if i % 2 else d for i, d in enumerate(values)]
            every_root = all(is_square(v) for v in needed)
            stays = sop.quadric.field is fp
            assert stays == every_root
            assert stays == all(c.b == 0 for pair in old.pairs for h in pair for c in h.terms.values())
            assert all(h.field is sop.quadric.field for pair in sop.pairs for h in pair)
            outcomes.add((rank > 1, stays))
    assert {(True, True), (True, False)} <= outcomes


def test_sum_of_products_takes_each_root_once():
    # 1, -2, 3, -5 over fp:13: 1 and 3 have roots there and 11 and 8 do
    # not, so the move to fp2:13 keeps the two roots found and takes two
    fp, fp2 = FieldSpec.prime(13), FieldSpec.quadratic(13)
    arith, calls = fp2.arith, []
    counting = arith._replace(sqrt=lambda x: calls.append(x) or arith.sqrt(x))
    object.__setattr__(fp2, "arith", counting)  # FieldSpec refuses setattr
    try:
        sop = sum_of_products(gram_from_poly(parse_poly("x^2 + 2*y^2 + 3*z^2 + 5*t^2", fp)))
    finally:
        object.__setattr__(fp2, "arith", arith)
    assert calls == [(11, 0), (8, 0)]
    assert sop.quadric.field is fp2
    always = sum_of_products(gram_from_poly(parse_poly("x^2 + 2*y^2 + 3*z^2 + 5*t^2", fp2)))
    assert sop.pairs == always.pairs


def test_pencil_determinant_frozen(q):
    r4 = gram_from_poly(parse_poly("t^2", q, nvars=4))
    q4 = gram_from_poly(parse_poly("x^2 + y^2 + z^2", q, nvars=4))
    pd = pencil_determinant(r4, q4)
    assert str(pd) == "-x^3"
    assert [str(c) for c in pd.univariate_coefficients()] == ["0", "0", "0", "-1"]


def test_pencil_determinant_matches_cofactor_oracle(f13):
    rng = random.Random(101)
    r_rec = _random_record(f13, 3, rng)
    q_rec = _random_record(f13, 3, rng)
    pd = pencil_determinant(r_rec, q_rec)
    alpha = Poly.variable(f13, 1, 0)
    rows = [
        [
            Poly.constant(f13, 1, r_rec.gram[i][j]) - alpha.scale(q_rec.gram[i][j])
            for j in range(3)
        ]
        for i in range(3)
    ]
    assert pd == poly_det_cofactor(rows)


def test_pencil_determinant_rejects_mismatched_sizes(q):
    r2 = gram_from_poly(parse_poly("x*y", q))
    q3 = gram_from_poly(parse_poly("x^2 + y^2 + z^2", q))
    with pytest.raises(ValueError):
        pencil_determinant(r2, q3)
