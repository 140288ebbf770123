"""Exact matrix routines checked against independent slow oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import permutations

import pytest

from ulrich_forge import FieldSpec, Poly, parse_poly
from ulrich_forge import linalg
from ulrich_forge.linalg import (
    _as_int_rows,
    _bareiss,
    _prime_rank,
    _rank_mod_p,
    _rank_raw,
    _residue_rows,
    det,
    invert,
    mat_mul,
    poly_matrix_det,
    rank,
    solve,
    transpose,
)

from oracles import poly_det_cofactor, rank_in_extension


def identity(field, n):
    return [[field.one if j == i else field.zero for j in range(n)] for i in range(n)]


def _det_permanent_style(rows, field):
    """Leibniz expansion; factorially slow but independent."""
    n = len(rows)
    total = field.zero
    for perm in permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = field.one if inversions % 2 == 0 else -field.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def _rank_fraction_oracle(int_rows):
    """Row reduction over Fraction, written from scratch."""
    rows = [[Fraction(v) for v in row] for row in int_rows]
    r = 0
    cols = len(rows[0]) if rows else 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [v * inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def _random_matrix(field, rng, m, n):
    return [[field.random_scalar(rng) for _ in range(n)] for _ in range(m)]


def _random_invertible(field, rng, n):
    while True:
        m = _random_matrix(field, rng, n, n)
        if det(m, field):
            return m


def _all_fields():
    return [
        FieldSpec.rationals(),
        FieldSpec.gaussian_rationals(),
        FieldSpec.prime(101),
        FieldSpec.quadratic(13),
    ]


def test_rank_small_frozen(q):
    one, zero = q.one, q.zero
    assert rank([[one, zero], [zero, one]], q) == 2
    assert rank([[one, one], [one, one]], q) == 1
    assert rank([[zero, zero], [zero, zero]], q) == 0
    assert rank([], q) == 0


def test_rank_against_fraction_oracle(q):
    rng = random.Random(19)
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        int_rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        rows = [[q.from_int(v) for v in row] for row in int_rows]
        assert rank(rows, q) == _rank_fraction_oracle(int_rows)


def test_rank_drops_after_duplicating_a_row():
    rng = random.Random(21)
    for field in _all_fields():
        m = _random_matrix(field, rng, 3, 4)
        r = rank([list(row) for row in m], field)
        extended = [list(row) for row in m] + [list(m[0])]
        assert rank(extended, field) == r


def test_det_against_leibniz_oracle():
    rng = random.Random(27)
    for field in _all_fields():
        for n in (1, 2, 3, 4):
            m = _random_matrix(field, rng, n, n)
            assert det([list(r) for r in m], field) == _det_permanent_style(m, field)
        # mostly zero entries: row swaps, zero columns and singular matrices
        for n in (2, 3, 4, 5):
            for _ in range(6):
                m = [
                    [field.random_scalar(rng) if rng.random() < 0.4 else field.zero for _ in range(n)]
                    for _ in range(n)
                ]
                assert det([list(r) for r in m], field) == _det_permanent_style(m, field)


def test_det_is_multiplicative():
    rng = random.Random(33)
    for field in _all_fields():
        a = _random_matrix(field, rng, 3, 3)
        b = _random_matrix(field, rng, 3, 3)
        ab = mat_mul(a, b, field)
        assert det(ab, field) == det(a, field) * det(b, field)


def test_det_rejects_non_square(q):
    with pytest.raises(ValueError):
        det([[q.one, q.zero]], q)


def test_rank_rejects_ragged_rows():
    fp7, q, qi, e13 = (FieldSpec.parse(s) for s in ("fp:7", "q", "qi", "fp2:13"))
    cases = [
        (fp7, [[1], [3, 5]]),
        (q, [[1, 2], []]),
        (qi, [[1, 2], []]),
        (q, [[], [1]]),
        (e13, [[(1, 1)], [(0, 1), (2, 0)]]),
    ]
    for field, values in cases:
        rows = [[field.scalar(*v) if isinstance(v, tuple) else field.scalar(v) for v in row] for row in values]
        with pytest.raises(ValueError):
            rank(rows, field)
    assert rank([[], []], q) == 0


def test_mat_mul_rejects_mismatched_shapes(q):
    one = q.one
    with pytest.raises(ValueError):
        mat_mul([[one, one]], [[one]], q)
    with pytest.raises(ValueError):
        mat_mul([[one]], [[one, one], [one]], q)
    with pytest.raises(ValueError):
        mat_mul([[one], [one, one]], [[one]], q)
    assert mat_mul([[one, one]], [[one], [one]], q) == [[q.from_int(2)]]


def test_solve_recovers_consistent_systems():
    rng = random.Random(39)
    for field in _all_fields():
        for _ in range(10):
            m, n = rng.randint(1, 4), rng.randint(1, 4)
            a = _random_matrix(field, rng, m, n)
            x0 = [field.random_scalar(rng) for _ in range(n)]
            rhs = [
                sum((a[i][j] * x0[j] for j in range(n)), field.zero)
                for i in range(m)
            ]
            sol = solve([list(r) for r in a], list(rhs), field)
            assert sol is not None
            for i in range(m):
                got = sum((a[i][j] * sol[j] for j in range(n)), field.zero)
                assert got == rhs[i]


def test_solve_reports_inconsistency(q):
    zero, one = q.zero, q.one
    a = [[one, one], [one, one]]
    assert solve(a, [one, q.from_int(2)], q) is None
    assert solve([[zero, zero]], [one], q) is None


def test_solve_is_complete_for_square_invertible():
    rng = random.Random(45)
    f101 = FieldSpec.prime(101)
    a = _random_invertible(f101, rng, 4)
    rhs = [f101.random_scalar(rng) for _ in range(4)]
    sol = solve([list(r) for r in a], list(rhs), f101)
    ainv = invert(a, f101)
    direct = [
        sum((ainv[i][j] * rhs[j] for j in range(4)), f101.zero) for i in range(4)
    ]
    assert sol == direct


def test_invert_round_trip():
    rng = random.Random(51)
    for field in _all_fields():
        a = _random_invertible(field, rng, 3)
        ainv = invert(a, field)
        assert mat_mul(a, ainv, field) == identity(field, 3)
        assert mat_mul(ainv, a, field) == identity(field, 3)


def test_invert_singular_raises(q):
    one = q.one
    with pytest.raises(ValueError):
        invert([[one, one], [one, one]], q)


def test_invert_rejects_non_square(q):
    rows = [[q.from_int(v) for v in row] for row in ([1, 0, 0], [0, 1, 0])]
    with pytest.raises(ValueError):
        invert(rows, q)


def test_solve_rejects_extra_right_hand_side_values(q):
    with pytest.raises(ValueError):
        solve([[q.one, q.zero]], [q.one, q.one], q)


def test_solve_rejects_missing_right_hand_side_values(q):
    with pytest.raises(ValueError):
        solve([[q.one], [q.one]], [q.one], q)


def test_transpose_and_identity(q):
    a = [[q.from_int(1), q.from_int(2)], [q.from_int(3), q.from_int(4)]]
    assert transpose(a) == [
        [q.from_int(1), q.from_int(3)],
        [q.from_int(2), q.from_int(4)],
    ]
    assert mat_mul(a, identity(q, 2), q) == [list(r) for r in a]


def test_poly_matrix_det_frozen(q):
    x, y = (Poly.variable(q, 4, i) for i in (0, 1))
    z, t = (Poly.variable(q, 4, i) for i in (2, 3))
    d = poly_matrix_det([[x, y], [z, t]])
    assert d == parse_poly("x*t - y*z", q)
    # empty, not square, two fields, two arities
    other_field, other_arity = Poly.variable(FieldSpec.prime(13), 4, 1), Poly.zero(q, 3)
    for rows in ([], [[x, y]], [[x, other_field], [z, t]], [[x, y], [z, other_arity]]):
        with pytest.raises(ValueError):
            poly_matrix_det(rows)


def test_poly_matrix_det_commutes_with_evaluation():
    rng = random.Random(57)
    f13 = FieldSpec.prime(13)
    from ulrich_forge import random_homogeneous

    m = [[random_homogeneous(f13, 3, 1, rng) for _ in range(3)] for _ in range(3)]
    symbolic = poly_matrix_det([list(r) for r in m])
    for _ in range(5):
        point = tuple(f13.random_scalar(rng) for _ in range(3))
        values = [[e.evaluate(point) for e in row] for row in m]
        assert symbolic.evaluate(point) == det(values, f13)


@pytest.mark.parametrize(
    "spec", ["fp:3", "fp:101", "fp:2147483629", "fp2:3", "fp2:7", "fp2:23", "fp2:2147483647", "q", "qi"]
)
def test_poly_matrix_det_matches_cofactor_expansion(spec):
    # Kronecker substitution into Bareiss against the cofactor expansion:
    # residues near p/2 and negative coefficients exercise the balanced
    # digits, large denominators over q the row scales, zero and
    # dependent rows the singular exit
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    if field.characteristic:
        p = field.p
        part = st.sampled_from([0, 1, -1, p // 2, p // 2 + 1]) | st.integers(-p, p)
    elif field.kind == "q":
        part = st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**9))
    else:
        part = st.builds(Fraction, st.integers(-99, 99), st.integers(1, 12))
    extension = field.kind in ("fp2", "qi")
    scalars = st.builds(field.scalar, part, part if extension else st.just(0))

    @st.composite
    def matrices(draw):
        n, nvars = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        exponents = st.tuples(*[st.integers(0, 2)] * nvars)

        def polys(size):
            return st.builds(
                lambda terms: Poly(field, nvars, terms),
                st.dictionaries(exponents, scalars, max_size=size),
            )

        rows = [[draw(polys(2)) for _ in range(n)] for _ in range(n)]
        shape = draw(st.sampled_from(["free", "zero row", "dependent"]))
        if shape == "zero row":
            rows[draw(st.integers(0, n - 1))] = [Poly.zero(field, nvars)] * n
        elif shape == "dependent":
            # the last row is a K[x]-combination of the others
            last = [Poly.zero(field, nvars)] * n
            for row in rows[:-1]:
                h = draw(polys(1))
                last = [a + h * b for a, b in zip(last, row)]
            rows[-1] = last
        return rows

    @hypothesis.given(matrices())
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    def check(rows):
        assert poly_matrix_det(rows) == poly_det_cofactor(rows)

    check()


# -- rank in the prime field: mod-p-first over q, subfield descent ---------

P = linalg._CHECK_PRIME


def _sparse_raw(rows, field):
    """Sparse raw rows column -> nonzero raw value of dense raw rows."""
    zero = field.arith.zero
    return [{j: v for j, v in enumerate(row) if v != zero} for row in rows]


def _dense_rank_mod_p(rows, p):
    """Dense Gaussian elimination mod p, the reference for the sparse kernel."""
    rows = [[v % p for v in row] for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv % p
            rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def _random_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def _seeded_rational_matrices():
    rng = random.Random(71)
    out = []
    # (m x r)(r x n) products: rank at most r, often deficient
    for _ in range(60):
        m, n = rng.randint(1, 9), rng.randint(1, 9)
        r = rng.randint(0, min(m, n))
        left = [[_random_fraction(rng, 5) for _ in range(r)] for _ in range(m)]
        right = [[_random_fraction(rng, 5) for _ in range(n)] for _ in range(r)]
        out.append(
            [
                [sum((left[i][t] * right[t][j] for t in range(r)), Fraction(0)) for j in range(n)]
                for i in range(m)
            ]
        )
    # sparse rows with zero columns and repeated rows
    for _ in range(20):
        m, n = rng.randint(2, 10), rng.randint(2, 10)
        rows = [
            [_random_fraction(rng) if rng.random() < 0.3 else Fraction(0) for _ in range(n)]
            for _ in range(m)
        ]
        out.append(rows + rows[: rng.randint(0, m)])
    return out


def test_rank_over_q_matches_bareiss(q):
    for values in _seeded_rational_matrices():
        rows = [[q.scalar(v) for v in row] for row in values]
        assert rank(rows, q) == _bareiss(_as_int_rows(values)[0])[0]


def test_rank_over_q_finishes_mod_p_when_full(q, monkeypatch):
    calls = []
    monkeypatch.setattr(linalg, "_bareiss", lambda rows: calls.append(rows) or (0, 0))
    rng = random.Random(73)
    rows = [[q.scalar(_random_fraction(rng)) for _ in range(6)] for _ in range(9)]
    assert rank(rows, q) == 6
    assert calls == []


def test_rank_over_q_falls_back_to_bareiss(q, monkeypatch):
    # P vanishes mod P, so only Bareiss sees the full rank
    assert rank([[q.from_int(P), q.zero], [q.zero, q.one]], q) == 2
    assert rank([[q.from_int(2 * P), q.from_int(P)], [q.from_int(4), q.from_int(2)]], q) == 1
    # a denominator divisible by P cannot be reduced at all
    inverse_p = [[q.scalar(Fraction(1, P)), q.zero], [q.zero, q.one]]
    assert _residue_rows([{0: Fraction(1, P)}, {1: Fraction(1)}], q) is None
    calls = []
    original = linalg._bareiss
    monkeypatch.setattr(linalg, "_bareiss", lambda rows: calls.append(rows) or original(rows))
    assert rank(inverse_p, q) == 2
    assert len(calls) == 1


def test_rank_descends_to_the_subfield():
    rng = random.Random(75)
    for base, ext in (
        (FieldSpec.prime(13), FieldSpec.quadratic(13)),
        (FieldSpec.rationals(), FieldSpec.gaussian_rationals()),
    ):
        for _ in range(15):
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [
                [base.random_scalar(rng) if rng.random() < 0.5 else base.zero for _ in range(n)]
                for _ in range(m)
            ]
            rows += rows[:1]
            embedded = [[ext.embed(c) for c in row] for row in rows]
            assert rank(embedded, ext) == rank(rows, base) == rank_in_extension(embedded, ext)


def test_rank_of_mixed_extension_matrices_is_unchanged():
    rng = random.Random(77)
    for ext in (FieldSpec.quadratic(13), FieldSpec.gaussian_rationals()):
        # u = w or i, u*u = s: the real parts alone would give other ranks
        u, s = ext.scalar(0, 1), ext.scalar(0, 1) * ext.scalar(0, 1)
        assert rank([[u]], ext) == 1
        assert rank([[ext.one, u], [u, s]], ext) == 1
        for _ in range(15):
            m, n = rng.randint(1, 5), rng.randint(1, 5)
            rows = _random_matrix(ext, rng, m, n)
            rows[0][0] = ext.scalar(1, 1)
            assert rank(rows, ext) == rank_in_extension(rows, ext)


def test_rank_over_qi_finishes_mod_p_when_full(qi, monkeypatch):
    calls = []
    original = linalg._bareiss_quadratic
    monkeypatch.setattr(linalg, "_bareiss_quadratic", lambda rows, nu: calls.append(rows) or original(rows, nu))
    rng = random.Random(81)
    rows = _random_matrix(qi, rng, 9, 6)
    assert rank(rows, qi) == 6 == rank_in_extension(rows, qi)
    assert calls == []


def test_rank_over_qi_falls_back_to_exact_elimination(qi, monkeypatch):
    s = linalg._I
    assert s * s % P == P - 1
    calls = []
    original = linalg._bareiss_quadratic
    monkeypatch.setattr(linalg, "_bareiss_quadratic", lambda rows, nu: calls.append(rows) or original(rows, nu))
    # i - s vanishes mod P, so only the exact elimination over Z[i] sees the full rank
    assert rank([[qi.one, qi.zero], [qi.zero, qi.scalar(-s, 1)]], qi) == 2
    assert len(calls) == 1
    # a denominator divisible by P cannot be reduced at all
    inverse_p = [[qi.scalar(Fraction(1, P), 1), qi.zero], [qi.zero, qi.one]]
    assert _residue_rows([{0: (Fraction(1, P), Fraction(1))}, {1: (Fraction(1), Fraction(0))}], qi) is None
    assert rank(inverse_p, qi) == 2
    assert len(calls) == 2


def test_rank_against_sympy_domain_matrix(q):
    pytest.importorskip("sympy")
    from sympy import GF, QQ
    from sympy.polys.matrices import DomainMatrix

    for values in _seeded_rational_matrices():
        rows = [[q.scalar(v) for v in row] for row in values]
        entries = [[QQ(v.numerator, v.denominator) for v in row] for row in values]
        shape = (len(values), len(values[0]))
        assert rank(rows, q) == DomainMatrix(entries, shape, QQ).rank()
    rng = random.Random(79)
    for p in (3, 13, 101):
        field, domain = FieldSpec.prime(p), GF(p)
        for _ in range(20):
            m, n = rng.randint(1, 8), rng.randint(1, 8)
            ints = [[rng.randrange(p) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(m)]
            rows = [[field.from_int(v) for v in row] for row in ints]
            entries = [[domain(v) for v in row] for row in ints]
            assert rank(rows, field) == DomainMatrix(entries, (m, n), domain).rank()


@pytest.mark.parametrize("spec", ["fp:7", "fp:101", "fp2:7", "fp2:101", "q", "qi"])
def test_prime_rank_against_sympy_domain_matrix(spec, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    pytest.importorskip("sympy")
    from sympy import GF, QQ
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix

    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    ar, p, pairs = field.arith, field.p, field.kind in ("fp2", "qi")
    if p:
        part = st.integers(0, p - 1)
    else:
        # multiples of P vanish mod P, so the prime rank can fall short
        part = st.builds(Fraction, st.integers(-3, 3) | st.sampled_from([P, -2 * P]), st.integers(1, 4))
    zero_part = ar.zero[0] if pairs else ar.zero
    # over fp2 and qi, drawn matrices lie in the subfield or (mostly) not
    entry = st.tuples(part, part | st.just(zero_part)) if pairs else part

    @st.composite
    def matrices(draw):
        if field.kind == "qi" and draw(st.booleans()):
            # A*B of genuine qi matrices through k < min(m, n) columns: rank <= k
            m, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
            k = draw(st.integers(1, min(m, n) - 1))
            a = [[draw(st.tuples(part, part)) for _ in range(k)] for _ in range(m)]
            b = [[draw(st.tuples(part, part)) for _ in range(n)] for _ in range(k)]
            return [[reduce(ar.add, map(ar.mul, row, col)) for col in zip(*b)] for row in a]
        m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        subfield = pairs and draw(st.booleans())
        rows = [
            [
                ar.zero if draw(st.booleans()) else (v[0], zero_part) if subfield else v
                for v in (draw(entry) for _ in range(n))
            ]
            for _ in range(m)
        ]
        if m > 2 and draw(st.booleans()):
            rows[-1] = [ar.add(a, b) for a, b in zip(rows[0], rows[1])]
        return rows

    def exact_rank(rows):
        def qq(x):
            return QQ(x.numerator, x.denominator)

        if pairs and any(v[1] for row in rows for v in row):
            if p:
                # sympy has no GF(p^2): the scalar dense reference decides
                return rank_in_extension([[ar.box(v) for v in row] for row in rows], field)
            domain, entries = QQ_I, [[QQ_I(qq(a), qq(b)) for a, b in row] for row in rows]
        else:
            real = [[v[0] for v in row] for row in rows] if pairs else rows
            domain = GF(p) if p else QQ
            entries = [[domain(v) if p else qq(v) for v in row] for row in real]
        return DomainMatrix(entries, (len(rows), len(rows[0])), domain).rank()

    # the genuine qi ranks the prime image leaves open reach Bareiss over Z[i]
    gaussian_ranks = []
    original = linalg._bareiss_quadratic

    def counted(rows, nu):
        assert nu == -1
        out = original(rows, nu)
        gaussian_ranks.append(out[0])
        return out

    monkeypatch.setattr(linalg, "_bareiss_quadratic", counted)

    @hypothesis.given(matrices(), st.data())
    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True)
    def check(rows, data):
        width = len(rows[0])
        sparse = _sparse_raw(rows, field)
        before = [dict(row) for row in sparse]
        r = _prime_rank(sparse, field, width)
        assert sparse == before
        exact = exact_rank(rows)
        assert _rank_raw(sparse, field, width) == exact
        if p:
            assert r == exact
            return
        assert r is not None and r <= exact
        # a denominator divisible by P, in either part, leaves no image mod P
        i, j = data.draw(st.integers(0, len(rows) - 1)), data.draw(st.integers(0, width - 1))
        bad = Fraction(1, P)
        if pairs:
            bad = data.draw(st.sampled_from([(bad, zero_part), (zero_part, bad)]))
        rows[i][j] = bad
        sparse = _sparse_raw(rows, field)
        assert _prime_rank(sparse, field, width) is None
        assert _rank_raw(sparse, field, width) == exact_rank(rows)

    check()
    if field.kind == "qi":
        # full-rank and rank-deficient matrices both took the Z[i] kernel
        assert min(gaussian_ranks) < max(gaussian_ranks)
    if not p:
        # the rank drops mod P on an entry that vanishes there: P, or i - _I
        one = (Fraction(1), Fraction(0)) if pairs else Fraction(1)
        vanishing = (Fraction(-linalg._I), Fraction(1)) if pairs else Fraction(P)
        assert _prime_rank([{0: vanishing}, {1: one}], field, 2) == 1
        assert rank([[ar.box(vanishing), field.zero], [field.zero, field.one]], field) == 2


@pytest.mark.parametrize("spec", ["q", "qi", "fp:13", "fp2:13"])
def test_rank_raw_on_sparse_rows(spec, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    ar, p, pairs = field.arith, field.p, field.kind in ("fp2", "qi")
    if p:
        part = st.integers(0, p - 1)
    else:
        # P and 2P vanish mod P; a denominator P leaves no image at all
        part = st.builds(
            Fraction, st.integers(-3, 3) | st.sampled_from([P, 2 * P]), st.sampled_from([1, 2, 3, P])
        )
    zero_part = ar.zero[0] if pairs else ar.zero
    value = st.tuples(part, part | st.just(zero_part)) if pairs else part
    if field.kind == "qi":
        # i - _I vanishes mod P
        value = value | st.just((Fraction(-linalg._I), Fraction(1)))

    @st.composite
    def sparse_rows(draw):
        m, n = draw(st.integers(0, 6)), draw(st.integers(1, 6))
        if draw(st.booleans()):
            # (m x k)(k x n) products: rank at most k
            k = draw(st.integers(0, min(m, n)))
            a = [[draw(value) for _ in range(k)] for _ in range(m)]
            b = [[draw(value) for _ in range(n)] for _ in range(k)]
            dense = [[reduce(ar.add, map(ar.mul, row, col), ar.zero) for col in zip(*b)] for row in a]
        else:
            dense = [[ar.zero if draw(st.booleans()) else draw(value) for _ in range(n)] for _ in range(m)]
        rows = _sparse_raw(dense, field)
        # repeated rows and empty rows
        rows += [dict(row) for row in rows[: draw(st.integers(0, 2))]]
        rows += [{} for _ in range(draw(st.integers(0, 1)))]
        return draw(st.permutations(rows)), n

    def undefined(rows):
        # some part of some entry has a denominator divisible by P
        return any(x.denominator % P == 0 for row in rows for v in row.values() for x in (v if pairs else (v,)))

    calls = []
    for name in ("_bareiss", "_bareiss_quadratic"):
        original = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda *args, original=original: calls.append(args) or original(*args))

    @hypothesis.given(sparse_rows())
    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True)
    def check(drawn):
        rows, width = drawn
        before = [dict(row) for row in rows]
        exact = rank_in_extension([[ar.box(row.get(j, ar.zero)) for j in range(width)] for row in rows], field)
        calls.clear()
        r = _prime_rank(rows, field, width)
        assert calls == []
        assert (r is None) == (not p and undefined(rows))
        assert r is None or r <= exact
        if p:
            assert r == exact
        assert _rank_raw(rows, field, width) == exact
        # Bareiss runs only when the image is neither exact nor full
        assert bool(calls) == (not p and r != min(len(rows), width))
        assert rows == before

    check()


def test_sparse_kernel_matches_dense_reference():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    matrices = st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-3, 3) | st.just(0), min_size=n, max_size=n), min_size=1, max_size=9
        )
    )

    @hypothesis.given(st.sampled_from([3, 7, 101, P]), matrices)
    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True)
    def check(p, ints):
        reduced = [[v % p for v in row] for row in ints]
        sparse = [{j: v for j, v in enumerate(row) if v} for row in reduced]
        assert _rank_mod_p(sparse, p, len(ints[0])) == _dense_rank_mod_p(reduced, p)

    check()


# -- the packed mod-p kernel against sympy -----------------------------------

_KERNEL_PRIMES = (7, 101, 32003, P)


def _sympy_rank_mod_p(rows, p, width):
    """Rank of sparse residue rows by sympy's ``DomainMatrix`` over GF(p)."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    domain = sympy.GF(p)
    entries = {i: {j: domain(v) for j, v in row.items()} for i, row in enumerate(rows) if row}
    return DomainMatrix(entries, (len(rows), width), domain).rank()


def _kernel_rank(rows, p, width):
    """``_rank_mod_p`` on copies, after checking that the rows are canonical residues."""
    assert all(type(v) is int and 0 < v < p and 0 <= j < width for row in rows for j, v in row.items())
    return _rank_mod_p([dict(row) for row in rows], p, width)


def _growth_rows(p, width):
    """Rows under which the last row is updated at every column, always by f * v = (p - 1)^2.

    Row c < width - 1 is e_c + e_last, the pivot of column c; scaled to
    lead -1 both its entries are p - 1.  The row L has every lead p - 1,
    so each update adds (p - 1)^2 to its last slot, which ends at
    width - 1 + (width - 1) * (p - 1)^2 before any reduction, the growth
    bound the slot width is taken from.  L = -(sum of the other rows), so
    its residues all vanish and the rank is width - 1; a slot too narrow
    for the sum leaves a nonzero residue behind.
    """
    last = width - 1
    assert last % p
    rows = [{**{k: p - 1 for k in range(last)}, last: -last % p}]
    rows += [{c: 1, last: 1} for c in range(last)]
    return rows


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_rank_kernel_worst_case_growth_matches_sympy(p):
    for width in (2, 5, 40, 250):
        rows = _growth_rows(p, width)
        assert _kernel_rank(rows, p, width) == _sympy_rank_mod_p(rows, p, width) == width - 1
    # two-word slots: the last slot's sum passes 2^64 mod the check prime
    assert 249 * (P - 1) ** 2 > 2**64 > 249 * (32003 - 1) ** 2


def _low_rank_rows(rng, p, m, n, density):
    """Residue rows of an m x n product (m x k)(k x n), k drawn up to min(m, n)."""
    k = rng.randint(0, min(m, n))
    left = [[rng.randrange(p) for _ in range(k)] for _ in range(m)]
    right = [[rng.randrange(p) if rng.random() < density else 0 for _ in range(n)] for _ in range(k)]
    rows = []
    for row in left:
        values = [sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] if k else [0] * n
        rows.append({j: v for j, v in enumerate(values) if v})
    return rows


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_rank_kernel_matches_sympy_on_dependent_rows(p):
    rng = random.Random(p)
    for m, n, density in ((3, 3, 1.0), (12, 9, 0.5), (30, 30, 0.3), (45, 60, 0.15), (70, 40, 0.6)):
        rows = _low_rank_rows(rng, p, m, n, density)
        # rows that vanish: duplicates, multiples and a zero row
        rows += [dict(rows[0]), {j: v * 3 % p for j, v in rows[-1].items()}, {}]
        rng.shuffle(rows)
        assert _kernel_rank(rows, p, n) == _sympy_rank_mod_p(rows, p, n)


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_rank_kernel_skips_slots_that_are_multiples_of_p(p):
    # with pivot e_0 + e_1 + e_2 (scaled: p - 1 in each slot) the update
    # of e_0 + e_1 + e_3 leaves p, a nonzero multiple of p, in column 1
    rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 1, 3: 1}, {2: 1, 3: 1}, {0: 1, 1: 1, 3: 1}]
    assert _kernel_rank(rows, p, 4) == _sympy_rank_mod_p(rows, p, 4) == 3
    # every slot of a duplicate becomes a nonzero multiple of p, and the row vanishes
    row = {j: p - 1 - j for j in range(6)}
    rows = [row, dict(row), {0: 1}, dict(row)]
    assert _kernel_rank(rows, p, 6) == _sympy_rank_mod_p(rows, p, 6) == 2


@pytest.mark.parametrize("p", _KERNEL_PRIMES)
def test_rank_kernel_stops_at_the_width(p):
    rng = random.Random(3 * p)
    for width in (1, 4, 50):
        # full column rank and more rows than columns: the rank stops at the width
        rows = [{j: rng.randrange(1, p)} for j in range(width)]
        rows += _low_rank_rows(rng, p, 2 * width, width, 0.7)
        rng.shuffle(rows)
        assert _kernel_rank(rows, p, width) == _sympy_rank_mod_p(rows, p, width) == width


def test_rank_kernel_receives_canonical_residues(monkeypatch):
    from ulrich_forge import is_smooth_hypersurface, random_homogeneous

    seen = set()

    def checking(rows, p, width):
        assert all(
            type(v) is int and 0 < v < p and type(j) is int and 0 <= j < width
            for row in rows
            for j, v in row.items()
        )
        seen.add(p)
        return original(rows, p, width)

    original = linalg._rank_mod_p
    # graded ranks its Macaulay matrices through linalg._prime_rank, so this sees them too
    monkeypatch.setattr(linalg, "_rank_mod_p", checking)
    rng = random.Random(5)
    for spec in ("fp:7", "fp:101", "fp2:13", "q", "qi"):
        field = FieldSpec.parse(spec)
        # fp2 forms in the subfield are ranked over fp, genuine ones realified
        bases = (FieldSpec.prime(field.p), field) if field.kind == "fp2" else (field,)
        for base in bases:
            for degree in (3, 4):
                form = parse_poly(str(random_homogeneous(base, 3, degree, rng, span=3)), field)
                is_smooth_hypersurface(form)
        rows = [[field.random_scalar(rng, 4) for _ in range(5)] for _ in range(4)]
        rank(rows + rows[:2], field)
    assert seen == {7, 101, 13, P}


@pytest.mark.parametrize("spec", ["q", "qi", "fp:13", "fp2:13"])
def test_dense_routines_match_oracles(spec, monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    field = FieldSpec.parse(spec)
    if field.kind in ("q", "qi"):
        part = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
    else:
        part = st.integers(0, field.p - 1)
    if field.kind in ("q", "fp"):
        entries = st.just(field.zero) | st.builds(field.scalar, part)
    else:
        entries = st.just(field.zero) | st.builds(field.scalar, part, part)

    def dot(u, v):
        return sum((x * y for x, y in zip(u, v)), field.zero)

    @st.composite
    def systems(draw):
        # (n x k)(k x n) products are singular for k < n; a dependent last
        # row also gives a right-hand side that no x can reach
        n = draw(st.integers(1, 4))
        k = draw(st.integers(0, n))
        left = [[draw(entries) for _ in range(k)] for _ in range(n)]
        right = [[draw(entries) for _ in range(n)] for _ in range(k)]
        a = [[dot(row, col) for col in zip(*right)] if k else [field.zero] * n for row in left]
        dependent = draw(st.booleans())
        if dependent:
            coeffs = [draw(entries) for _ in range(n - 1)]
            a[-1] = [dot(coeffs, col) for col in zip(*a[:-1])] if n > 1 else [field.zero]
        # a singular twin of a: its first row scaled into the last
        scale = draw(entries)
        twin = a[:-1] + [[scale * v for v in a[0]]] if n > 1 else [[field.zero]]
        return a, [draw(entries) for _ in range(n)], dependent, twin

    # every qi determinant goes through Bareiss over Z[i]
    gaussian_dets = []
    original = linalg._bareiss_quadratic
    monkeypatch.setattr(
        linalg, "_bareiss_quadratic", lambda rows, nu: gaussian_dets.append(len(rows)) or original(rows, nu)
    )

    @hypothesis.given(systems())
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    def check(system):
        a, x0, dependent, twin = system
        n = len(a)
        assert det(twin, field) == _det_permanent_style(twin, field) == field.zero
        d = det(a, field)
        assert d == _det_permanent_style(a, field)
        assert rank(a, field) == rank_in_extension(a, field)
        if d:
            assert mat_mul(invert(a, field), a, field) == identity(field, n)
        else:
            with pytest.raises(ValueError):
                invert(a, field)
        b = [dot(row, x0) for row in a]
        x = solve(a, b, field)
        assert x is not None and [dot(row, x) for row in a] == b
        if dependent:
            b[-1] = b[-1] + field.one
            assert solve(a, b, field) is None

    check()
    assert bool(gaussian_dets) == (field.kind == "qi")
