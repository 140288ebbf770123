"""Exact matrix routines checked against independent slow oracles."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import permutations

import pytest

from ulrich_forge import FieldSpec, Poly, parse_poly
from ulrich_forge import linalg
from ulrich_forge.linalg import (
    _as_int_rows,
    _bareiss,
    _rank_mod_p,
    _sparse_rows,
    det,
    identity,
    invert,
    mat_mul,
    poly_matrix_det,
    rank,
    solve,
    transpose,
)


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


# -- rank in the prime field: mod-p-first over q, subfield descent ---------

P = linalg._CHECK_PRIME


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


def _rank_in_extension(rows, field):
    """Dense Gaussian elimination on scalars, the reference for fp2 and qi rank."""
    rows = [list(row) for row in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c].inverse()
        for i in range(r + 1, len(rows)):
            f = rows[i][c] * inv
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
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
        assert rank(rows, q) == _bareiss(_as_int_rows(rows)[0])[0]


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
    assert _sparse_rows([[c.a for c in row] for row in inverse_p], P) is None
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
            assert rank(embedded, ext) == rank(rows, base) == _rank_in_extension(embedded, ext)


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
            assert rank(rows, ext) == _rank_in_extension(rows, ext)


def test_rank_over_qi_finishes_mod_p_when_full(qi, monkeypatch):
    calls = []
    original = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *args: calls.append(args) or original(*args))
    rng = random.Random(81)
    rows = _random_matrix(qi, rng, 9, 6)
    assert rank(rows, qi) == 6 == _rank_in_extension(rows, qi)
    assert calls == []


def test_rank_over_qi_falls_back_to_exact_elimination(qi, monkeypatch):
    s = linalg._I
    assert s * s % P == P - 1
    calls = []
    original = linalg._eliminate
    monkeypatch.setattr(linalg, "_eliminate", lambda *args: calls.append(args) or original(*args))
    # i - s vanishes mod P, so only the exact elimination sees the full rank
    assert rank([[qi.one, qi.zero], [qi.zero, qi.scalar(-s, 1)]], qi) == 2
    assert len(calls) == 1
    # a denominator divisible by P cannot be reduced at all
    inverse_p = [[qi.scalar(Fraction(1, P), 1), qi.zero], [qi.zero, qi.one]]
    assert _sparse_rows([[c.a for c in row] for row in inverse_p], P) is None
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


@pytest.mark.parametrize("spec", ["q", "qi", "fp:13", "fp2:13"])
def test_dense_routines_match_oracles(spec):
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
        return a, [draw(entries) for _ in range(n)], dependent

    @hypothesis.given(systems())
    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    def check(system):
        a, x0, dependent = system
        n = len(a)
        d = det(a, field)
        assert d == _det_permanent_style(a, field)
        assert rank(a, field) == _rank_in_extension(a, field)
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
