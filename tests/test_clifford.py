"""Clifford-style matrix factorizations and determinant certificates."""

from __future__ import annotations

import random

import pytest

from ulrich_forge import (
    DeterminantCertificate,
    FieldSpec,
    FormDecomposition,
    MatrixFactorization,
    Poly,
    SumOfProducts,
    build_clifford_factorization,
    determinant_certificate,
    gram_from_poly,
    parse_poly,
    random_homogeneous,
    sum_of_products,
    ulrich_presentation,
    verify_clifford,
)
from ulrich_forge import linalg
from ulrich_forge.clifford import _squares_to_quadric
from ulrich_forge.linalg import mat_mul, transpose
from ulrich_forge.poly import monomials_of_degree
from ulrich_forge.quadform import record_from_gram

from oracles import (
    clifford_entries,
    clifford_square,
    determinant_certificate_by_evaluation,
    is_ulrich_presentation,
    squares_to_quadric,
)


def _entry_strings(mf):
    return [[str(e) for e in row] for row in mf.entries]


def _sop_from_poly(text, field, nvars=None):
    return sum_of_products(gram_from_poly(parse_poly(text, field, nvars=nvars)))


def _random_gram_of_rank(field, nvars, target_rank, rng):
    """P^T D P with an invertible P and exactly target_rank diagonal units."""
    from ulrich_forge.linalg import det

    while True:
        p = [[field.random_scalar(rng) for _ in range(nvars)] for _ in range(nvars)]
        if det([list(r) for r in p], field):
            break
    d = [
        [
            field.random_nonzero_scalar(rng) if i == j and i < target_rank else field.zero
            for j in range(nvars)
        ]
        for i in range(nvars)
    ]
    return mat_mul(mat_mul(transpose(p), d, field), p, field)


def test_base_case_layouts(q):
    one_var = build_clifford_factorization(_sop_from_poly("x^2", q))
    assert _entry_strings(one_var) == [["0", "x"], ["x", "0"]]
    assert one_var.size == 2 and one_var.ulrich_rank == 1

    split = build_clifford_factorization(_sop_from_poly("x*y", q))
    assert _entry_strings(split) == [["0", "x"], ["y", "0"]]


def test_two_pair_layout_frozen(q):
    mf = build_clifford_factorization(_sop_from_poly("x*y + z*t", q))
    assert mf.size == 4
    assert _entry_strings(mf) == [
        ["0", "x", "z", "0"],
        ["y", "0", "0", "z"],
        ["t", "0", "0", "-x"],
        ["0", "t", "-y", "0"],
    ]
    assert verify_clifford(mf)


def test_square_identity_symbolically():
    f13 = FieldSpec.prime(13)
    mf = build_clifford_factorization(_sop_from_poly("x^2 + y^2 + z^2", f13))
    assert mf.size == 4
    n = mf.size
    for i in range(n):
        for j in range(n):
            acc = Poly.zero(mf.field, mf.nvars)
            for k in range(n):
                acc = acc + mf.entries[i][k] * mf.entries[k][j]
            expected = mf.quadric if i == j else Poly.zero(mf.field, mf.nvars)
            assert acc == expected


def test_build_rejects_bad_pairs(q):
    x = Poly.variable(q, 2, 0)
    quad = x * x
    with pytest.raises(ValueError):
        build_clifford_factorization(
            SumOfProducts(((x, Poly.zero(q, 2)),), quad)
        )
    with pytest.raises(ValueError):
        build_clifford_factorization(SumOfProducts(((x * x, x),), quad * x))
    with pytest.raises(ValueError):
        build_clifford_factorization(SumOfProducts((), quad))


def test_build_checks_its_own_output(q):
    # pairs that do not multiply back to the quadric are refused where the
    # decomposition is made, and a made one cannot change afterwards: the
    # build's proof rests on sum(l_i * m_i) = quadric
    x, y = Poly.variable(q, 2, 0), Poly.variable(q, 2, 1)
    with pytest.raises(ValueError, match="recombine"):
        SumOfProducts(((x, y),), x * x)
    pairs = [(x, y)]
    sop = SumOfProducts(pairs, x * y)
    pairs.append((x, x))
    assert sop.pairs == ((x, y),)
    with pytest.raises(AttributeError):
        sop.pairs = ((x, x),)
    with pytest.raises(TypeError):
        build_clifford_factorization(type("Fake", (), {"pairs": ((x, y),), "quadric": x * x})())


def test_verify_rejects_tampering(q):
    mf = build_clifford_factorization(_sop_from_poly("x*y + z*t", q))
    entries = [list(row) for row in mf.entries]
    entries[0][1] = -entries[0][1]
    assert not verify_clifford(MatrixFactorization(entries, mf.quadric))

    wrong_quadric = parse_poly("x^2", q, nvars=4)
    assert not verify_clifford(MatrixFactorization([list(r) for r in mf.entries], wrong_quadric))


def test_verify_rejects_nonlinear_entries(q):
    x = Poly.variable(q, 1, 0)
    bad = MatrixFactorization([[x * x, x], [x, x]], x * x)
    assert not verify_clifford(bad)


def test_matrix_factorization_validation(q):
    x = Poly.variable(q, 1, 0)
    with pytest.raises(ValueError):
        MatrixFactorization([[x, x]], x * x)
    y13 = Poly.variable(FieldSpec.prime(13), 1, 0)
    with pytest.raises(ValueError):
        MatrixFactorization([[x, x], [y13, x]], x * x)


def test_factorization_is_immutable(q):
    mf = build_clifford_factorization(_sop_from_poly("x^2", q))
    with pytest.raises(AttributeError):
        mf.size = 8


def test_source_keeps_the_pairs(f13):
    sop = _sop_from_poly("x*y + z*t", f13)
    mf = build_clifford_factorization(sop)
    assert mf.source is sop


def test_determinant_certificate_base(f13):
    mf = build_clifford_factorization(_sop_from_poly("x*y", f13))
    cert = determinant_certificate(mf, trials=30, seed=1)
    assert cert.ok
    assert cert.sign == -1
    assert (cert.tested, cert.skipped) == (0, 0)
    assert cert.sign == determinant_certificate_by_evaluation(mf, trials=30, seed=1).sign
    assert cert.proof
    assert cert.skipped >= 0
    assert cert.reason is None


def test_determinant_certificate_square_pair(f13):
    mf = build_clifford_factorization(_sop_from_poly("x^2", f13, nvars=1))
    cert = determinant_certificate(mf, trials=20, seed=2)
    assert cert.ok and cert.sign == -1


def test_determinant_certificate_four_by_four(f13):
    mf = build_clifford_factorization(_sop_from_poly("x*y + z*t", f13))
    cert = determinant_certificate(mf, trials=25, seed=3)
    assert cert.ok
    assert cert.sign in (-1, 1)
    assert (cert.tested, cert.skipped) == (0, 0)
    assert cert.sign == determinant_certificate_by_evaluation(mf, trials=25, seed=3).sign
    assert cert.proof


def test_determinant_certificate_rejects_wrong_quadric(f13):
    mf = build_clifford_factorization(_sop_from_poly("x*y", f13))
    wrong = MatrixFactorization(
        [list(r) for r in mf.entries], parse_poly("x^2", mf.field, nvars=2)
    )
    cert = determinant_certificate(wrong, trials=20, seed=4)
    assert not cert.ok
    assert cert.reason is not None


def test_determinant_certificate_refuses_odd_sizes(q):
    # [x] squares to x^2 and det [x] = x, which is no power q^(1/2)
    x = parse_poly("x", q)
    cert = determinant_certificate(MatrixFactorization([[x]], parse_poly("x^2", q)))
    assert cert == DeterminantCertificate(
        False, None, 0, 0, reason="odd size 1: det A = sign*q^(size/2) needs an even size"
    )
    rows = [[x if i == j else Poly.zero(q, 1) for j in range(3)] for i in range(3)]
    three = determinant_certificate(MatrixFactorization(rows, x * x))
    assert (three.ok, three.tested, three.skipped) == (False, 0, 0)
    assert three.reason.startswith("odd size 3:")


def test_determinant_certificate_deterministic(f13):
    mf = build_clifford_factorization(_sop_from_poly("x^2 + y^2 + z^2", f13))
    a = determinant_certificate(mf, trials=15, seed=9)
    b = determinant_certificate(mf, trials=15, seed=9)
    assert (a.ok, a.sign, a.tested, a.skipped) == (b.ok, b.sign, b.tested, b.skipped)


def test_random_ranks_build_verify_and_size():
    rng = random.Random(103)
    f101 = FieldSpec.prime(101)
    for _ in range(20):
        target = rng.randint(1, 6)
        gram = _random_gram_of_rank(f101, 6, target, rng)
        record = record_from_gram(f101, gram)
        assert record.rank == target
        sop = sum_of_products(record)
        mf = build_clifford_factorization(sop)
        assert verify_clifford(mf)
        assert mf.size == 2 ** ((target + 1) // 2)
        assert mf.ulrich_rank == mf.size // 2
        cert = determinant_certificate(mf, trials=10, seed=rng.randint(0, 99))
        assert cert.ok


def _random_sop(field, nvars, pairs, rng):
    """A sum of products of random nonzero linear forms, quadric included."""

    def linear():
        while True:
            coeffs = [field.random_scalar(rng, span=3) for _ in range(nvars)]
            if any(coeffs):
                return Poly.linear_form(field, coeffs)

    chosen = tuple((linear(), linear()) for _ in range(pairs))
    quadric = Poly.zero(field, nvars)
    for l, m in chosen:
        quadric = quadric + l * m
    return SumOfProducts(chosen, quadric)


def test_entries_match_the_polynomial_block_recursion():
    rng = random.Random(29)
    for spec in ("q", "qi", "fp:13", "fp2:13", "fp:101"):
        field = FieldSpec.parse(spec)
        for nvars, pairs in ((1, 1), (3, 2), (5, 3), (7, 4)):
            sop = _random_sop(field, nvars, pairs, rng)
            assert build_clifford_factorization(sop).entries == clifford_entries(sop.pairs)


_SHAPES = [
    "built",
    "changed coefficient",
    "flipped sign",
    "swapped entries",
    "square entry",
    "mixed entry",
    "constant entry",
    "zero quadric",
    "other quadric",
    "cubic quadric",
    "linear quadric",
    "constant quadric",
    "zero matrix",
    "traceless two by two",
    "substituted variables",
]


@pytest.mark.parametrize("shape", _SHAPES)
def test_pencil_verification_and_certificate_match_the_symbolic_oracles(shape):
    # the relation check and verify_clifford against the symbolic product,
    # determinant_certificate against Poly.evaluate of every entry and
    # linalg.det, on built factorizations, tampered ones, malformed matrices
    # and quadrics, and factorizations with entries of higher degree
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def factorizations(draw):
        field = FieldSpec.parse(draw(st.sampled_from(["q", "qi", "fp:13", "fp2:13"])))
        rng = random.Random(draw(st.integers(0, 2**32)))
        nvars = draw(st.integers(1, 4))
        zero = Poly.zero(field, nvars)
        if shape == "zero matrix":
            size = draw(st.integers(1, 4))
            quadric = zero if draw(st.booleans()) else random_homogeneous(field, nvars, 2, rng, 3)
            return MatrixFactorization([[zero] * size for _ in range(size)], quadric)
        if shape == "traceless two by two":
            # [[a, b], [c, -a]] squares to (a^2 + b*c) * Id for any a, b, c
            def mixed():
                degrees = [d for d in range(3) if rng.random() < 0.6]
                return sum((random_homogeneous(field, nvars, d, rng, 3) for d in degrees), zero)

            a, b, c = mixed(), mixed(), mixed()
            return MatrixFactorization([[a, b], [c, -a]], a * a + b * c)
        mf = build_clifford_factorization(_random_sop(field, nvars, draw(st.integers(1, 3)), rng))
        if shape == "built":
            return mf
        if shape == "substituted variables":
            # x_j -> a quadratic monomial keeps A * A = q * Id, with entries of
            # degree 2 whose monomial pairs can share a product
            images = [rng.choice(monomials_of_degree(nvars, 2)) for _ in range(nvars)]
            rows = [[e.substitute_monomials(images) for e in row] for row in mf.entries]
            return MatrixFactorization(rows, mf.quadric.substitute_monomials(images))
        quadric, rows, size = mf.quadric, [list(row) for row in mf.entries], mf.size
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        k, l = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        x = Poly.variable(field, nvars, draw(st.integers(0, nvars - 1)))
        c = Poly.constant(field, nvars, field.random_nonzero_scalar(rng, span=3))
        if shape == "changed coefficient":
            rows[i][j] = rows[i][j] + c * x
        elif shape == "flipped sign":
            rows[i][j] = -rows[i][j]
        elif shape == "swapped entries":
            rows[i][j], rows[k][l] = rows[k][l], rows[i][j]
        elif shape == "square entry":
            rows[i][j] = x * x
        elif shape == "mixed entry":
            rows[i][j] = rows[i][j] + x * x
        elif shape == "constant entry":
            rows[i][j] = c
        elif shape == "zero quadric":
            quadric = zero
        elif shape == "other quadric":
            quadric = random_homogeneous(field, nvars, 2, rng, 3)
        elif shape == "cubic quadric":
            quadric = quadric + x * x * x
        elif shape == "linear quadric":
            quadric = quadric + x
        else:
            quadric = quadric + c
        return MatrixFactorization(rows, quadric)

    @hypothesis.given(factorizations(), st.integers(0, 99))
    @hypothesis.settings(max_examples=25, deadline=None, derandomize=True)
    def check(mf, seed):
        squares = squares_to_quadric(mf)
        assert _squares_to_quadric(mf) == squares
        assert verify_clifford(mf) == clifford_square(mf)
        cert = determinant_certificate(mf, trials=6, seed=seed)
        sampled = determinant_certificate_by_evaluation(mf, trials=6, seed=seed)
        if squares:
            # a proof stops at the first point with q != 0, which fixes the sign
            assert (cert.ok, cert.sign, cert.reason) == (sampled.ok, sampled.sign, sampled.reason)
            assert cert.tested <= 1
            assert cert.proof == cert.ok
            if not cert.ok:  # odd size, or q = 0 at every point of the budget
                assert cert == sampled
        else:
            assert cert == sampled
            assert cert.proof is False

    check()


def test_certificate_matches_the_oracle_on_sign_flips_and_high_powers():
    # det = x^2 + x*y - y^2 is +-(x^2 + y^2) on F_3^2 with both signs; the
    # other matrices have entries of degree up to 9 and a constant
    cases = [
        ("fp:3", "x^2 + y^2", ["x + y", "y", "y", "x"]),
        ("fp:13", "x*y", ["x^9 + 2", "y^4", "x*y^3", "-y"]),
        ("fp2:13", "x^2", ["(1+w)*x^5*y^2", "3", "x", "y^9"]),
        ("qi", "x^2 - y^2", ["i*x^3", "1/2*y", "y^5", "x"]),
    ]
    reasons = set()
    for spec, quadric, entries in cases:
        field = FieldSpec.parse(spec)
        quadric = parse_poly(quadric, field, nvars=2)
        rows = [[parse_poly(t, field, nvars=2) for t in entries[k : k + 2]] for k in (0, 2)]
        mf = MatrixFactorization(rows, quadric)
        for seed in range(4):
            cert = determinant_certificate(mf, trials=8, seed=seed)
            assert cert == determinant_certificate_by_evaluation(mf, trials=8, seed=seed)
            reasons.add(cert.reason)
    assert "sign flipped between sample points" in reasons


def test_higher_degree_factorizations_are_proven(monkeypatch):
    # A * A = q * Id with entries of degree 2: verify_clifford refuses them
    # for their degree, the certificate proves them by the general relation
    # check, and one point gives the sign the evaluation oracle samples
    routines = []
    for name in ("_bareiss", "_bareiss_quadratic", "_eliminate"):
        original = getattr(linalg, name)
        monkeypatch.setattr(
            linalg, name, lambda *args, _name=name, _f=original: routines.append(_name) or _f(*args)
        )
    # the point determinants of a sampled certificate: Bareiss over Z or
    # Z[i] for q and qi, never the dense kernel
    routine = {"fp": "_eliminate", "qi": "_bareiss_quadratic", "q": "_bareiss"}
    rng = random.Random(11)
    f13, qi, q = FieldSpec.prime(13), FieldSpec.gaussian_rationals(), FieldSpec.rationals()
    f, g = (random_homogeneous(f13, 3, 2, rng, 5) for _ in range(2))
    i_xy = parse_poly("i*x*y", qi, nvars=3)
    a, b, c = (random_homogeneous(qi, 3, 2, rng, 3) + i_xy for _ in range(3))
    x2, y2, xy = (parse_poly(t, q, nvars=2) for t in ("x^2", "y^2", "x*y"))
    zero = Poly.zero(q, 2)
    cases = [
        # [[0, f], [g, 0]] with quadrics f, g: det = -f*g
        (MatrixFactorization([[Poly.zero(f13, 3), f], [g, Poly.zero(f13, 3)]], f * g), -1),
        # [[a, b], [c, -a]] with quadrics a, b, c: det = -(a^2 + b*c), of degree 4
        (MatrixFactorization([[a, b], [c, -a]], a * a + b * c), -1),
        # diag([[0, x^2], [y^2, 0]], [[0, x*y], [x*y, 0]]): at x^2*y^2 the pairs
        # (x^2, y^2) and (x*y, x*y) give diag(I, 0) and diag(0, I), neither
        # a multiple of I alone
        (
            MatrixFactorization(
                [
                    [zero, x2, zero, zero],
                    [y2, zero, zero, zero],
                    [zero, zero, zero, xy],
                    [zero, zero, xy, zero],
                ],
                x2 * y2,
            ),
            1,
        ),
    ]
    for mf, sign in cases:
        assert not verify_clifford(mf)
        assert squares_to_quadric(mf)
        for seed in range(3):
            cert = determinant_certificate(mf, trials=10, seed=seed)
            sampled = determinant_certificate_by_evaluation(mf, trials=10, seed=seed)
            assert (cert.ok, cert.sign, cert.proof, cert.tested) == (True, sign, True, 1)
            assert (sampled.ok, sampled.sign) == (True, sign)
        # one flipped entry breaks the relations: the certificate samples
        # as before and is no proof
        rows = [list(row) for row in mf.entries]
        rows[0][1] = -rows[0][1]
        tampered = MatrixFactorization(rows, mf.quadric)
        assert not squares_to_quadric(tampered)
        routines.clear()
        cert = determinant_certificate(tampered, trials=10, seed=0)
        assert set(routines) == {routine[mf.field.kind]}
        assert cert == determinant_certificate_by_evaluation(tampered, trials=10, seed=0)
        assert cert.proof is False


def test_a_determinant_without_the_relations_is_sampled(f13):
    # diag(x, y) has det = x*y = q but squares to diag(x^2, y^2): it is
    # certified by sampling, as a check and not as a proof
    x, y = parse_poly("x", f13, nvars=2), parse_poly("y", f13, nvars=2)
    mf = MatrixFactorization([[x, Poly.zero(f13, 2)], [Poly.zero(f13, 2), y]], x * y)
    assert not squares_to_quadric(mf)
    cert = determinant_certificate(mf, trials=12, seed=4)
    assert (cert.ok, cert.sign, cert.tested, cert.proof) == (True, 1, 12, False)
    assert cert == determinant_certificate_by_evaluation(mf, trials=12, seed=4)


def test_a_proof_keeps_the_skip_budget_of_the_requested_trials(q):
    # the zero matrix with q = 0 satisfies A * A = q * Id, but no point has
    # q != 0: the certificate fails after 20 * trials skipped points.  So
    # does a built matrix whose pairs cancel (x*y + x*(-y) = 0): either
    # sign holds, and its shape's sign is not reported
    zero = Poly.zero(q, 2)
    x, y = parse_poly("x", q, nvars=2), parse_poly("y", q, nvars=2)
    cancelled = build_clifford_factorization(SumOfProducts(((x, y), (x, -y)), zero))
    reason = "no sample point had q nonzero"
    for mf in (MatrixFactorization([[zero, zero], [zero, zero]], zero), cancelled):
        assert squares_to_quadric(mf)
        cert = determinant_certificate(mf, trials=7, seed=1)
        assert cert == DeterminantCertificate(False, None, 0, 140, reason=reason)
        assert cert == determinant_certificate_by_evaluation(mf, trials=7, seed=1)


def test_the_relation_check_runs_once_per_factorization(monkeypatch):
    # the relation check runs once per shape, on the generic pencil over q,
    # and never on a built matrix: build -> verify_clifford ->
    # determinant_certificate read the recorded proof, and the read-only
    # pencil and quadric keep it true
    import ulrich_forge.clifford as clifford

    calls = []
    kernel = clifford._squares_to_quadric

    def counted(mf):
        calls.append(mf)
        return kernel(mf)

    monkeypatch.setattr(clifford, "_squares_to_quadric", counted)
    clifford._generic_pencil.cache_clear()
    f13 = FieldSpec.prime(13)
    built = [
        build_clifford_factorization(_sop_from_poly(text, f13, nvars=4))
        for text in ("x*y + z*t + x^2", "x^2 + y^2 + z^2 + t^2", "x*y - z*t")
    ]
    assert {mf.size for mf in built} == {4}
    (generic,) = calls
    assert (generic.field, generic.nvars, generic.size) == (FieldSpec.rationals(), 4, 4)
    assert str(generic.quadric) == "x*y + z*t"
    for mf in built:
        assert verify_clifford(mf)
        cert = determinant_certificate(mf, trials=5, seed=2)
        assert (cert.ok, cert.proof, cert.tested, cert.skipped) == (True, True, 0, 0)
        assert cert.sign == determinant_certificate_by_evaluation(mf, trials=5, seed=2).sign
    assert calls == [generic]
    mf = built[0]
    exps = next(iter(mf.pencil))
    with pytest.raises(TypeError):
        mf.pencil[exps] = ()
    with pytest.raises(TypeError):
        del mf.pencil[exps]
    with pytest.raises(TypeError):
        mf.quadric.raw[exps] = f13.arith.one
    assert determinant_certificate(mf, trials=5, seed=3).proof
    assert calls == [generic]


@pytest.mark.parametrize("trials", [0, -4])
def test_determinant_certificate_refuses_a_trial_count_below_one(f13, trials):
    # with no trial no point is tested, so even a provable factorization
    # would end "no sample point had q nonzero"
    mf = build_clifford_factorization(_sop_from_poly("x*y + z^2", f13))
    with pytest.raises(ValueError, match="trials must be at least 1"):
        determinant_certificate(mf, trials=trials)


# presentations above these sizes take seconds in the Hilbert-function oracle;
# its rank-deficient q and qi matrices finish in Bareiss over Z and Z[i]
_ULRICH_ORACLE_MAX_SIZE = {"fp:3": 32, "fp:13": 32, "fp2:13": 16, "q": 8, "qi": 8}


@pytest.mark.parametrize("spec", sorted(_ULRICH_ORACLE_MAX_SIZE))
def test_built_matrices_match_the_independent_oracles(spec):
    # s = 1..5 pairs: factorizations with and without a square pair, and
    # presentations in case a, case b and the lone square; each squares to
    # its quadric by the entrywise Poly product, has the entries of the
    # polynomial block recursion, and each presentation has the Hilbert
    # function of an Ulrich module on T^2 = F
    field = FieldSpec.parse(spec)
    rng = random.Random(17)

    def form(nvars, degree):
        while True:
            h = random_homogeneous(field, nvars, degree, rng, 3)
            if h:
                return h

    def distinct_pairs(nvars, degree, count):
        pairs = []
        while len(pairs) < count:
            l, m = form(nvars, degree), form(nvars, degree)
            if l != m:
                pairs.append((l, m))
        return pairs

    def total(pairs):
        return sum((l * m for l, m in pairs), Poly.zero(field, pairs[0][0].nvars))

    for s in range(1, 6):
        pairs = distinct_pairs(4, 1, s)
        l = form(4, 1)
        for chosen in (pairs, pairs[:-1] + [(l, l)]):
            sop = SumOfProducts(chosen, total(chosen))
            mf = build_clifford_factorization(sop)
            assert mf.size == 2**s and squares_to_quadric(mf)
            assert mf.entries == clifford_entries(sop.pairs)

        d = 2 if s <= 2 else 1
        pairs, l = distinct_pairs(3, d, s), form(3, d)
        cases = [("a", pairs, None), ("b", pairs, l)]
        if s == 1:  # the lone square reports case b and keeps [[0, l], [l, 0]]
            cases.append(("b", [(l, l)], None))
        for case, chosen, start in cases:
            summands = chosen + ([(start, start)] if start is not None else [])
            F = total(summands)
            if not F:
                continue
            mf, report = ulrich_presentation(F, FormDecomposition(F, summands))
            assert (report.case, mf.size, mf.quadric) == (case, 2 ** len(chosen), F)
            assert squares_to_quadric(mf)
            assert mf.entries == clifford_entries(chosen, start)
            if mf.size <= _ULRICH_ORACLE_MAX_SIZE[spec]:
                assert is_ulrich_presentation(mf.entries, F, d)


def test_a_wrong_generic_sign_is_refused_and_not_kept(monkeypatch, f13):
    # one flipped sign in the generic recursion fails its proof: both
    # builders refuse, no shape is cached, and the true recursion comes
    # back once the flip is gone
    import ulrich_forge.clifford as clifford

    recursion = clifford._recursion

    def flipped(s, square):
        rows = recursion(s, square)
        j, a, negated = rows[-1][0]
        rows[-1][0] = (j, a, not negated)
        return rows

    sop = _sop_from_poly("x*y + z*t", f13)
    F = parse_poly("x^2 + y^2 + z^2", f13)
    clifford._generic_pencil.cache_clear()
    monkeypatch.setattr(clifford, "_recursion", flipped)
    with pytest.raises(AssertionError, match="generic"):
        build_clifford_factorization(sop)
    with pytest.raises(AssertionError, match="generic"):
        ulrich_presentation(F)
    assert clifford._generic_pencil.cache_info().currsize == 0
    monkeypatch.undo()
    mf = build_clifford_factorization(sop)
    assert squares_to_quadric(mf) and mf.entries == clifford_entries(sop.pairs)
    presentation, _ = ulrich_presentation(F)
    assert squares_to_quadric(presentation)


@pytest.mark.parametrize("spec", ["fp:13", "fp2:13", "q", "qi"])
def test_built_certificates_carry_the_shape_sign(monkeypatch, spec):
    # every shape with 1..5 pairs, with and without a square start (sizes
    # 2..32), and presentations of plane quartics in cases a and b: the
    # built certificate draws no point and computes no determinant, and
    # its sign is the one the evaluation oracle samples on the matrix and
    # on its read-back, whose certificate still tests one point
    import ulrich_forge.clifford as clifford

    calls = []

    def spied(name, original):
        return lambda *args, **kwargs: calls.append(name) or original(*args, **kwargs)

    monkeypatch.setattr(clifford, "_det_raw", spied("_det_raw", clifford._det_raw))
    monkeypatch.setattr(linalg, "_det_raw", spied("_det_raw", linalg._det_raw))
    monkeypatch.setattr(
        FieldSpec, "random_scalar", spied("random_scalar", FieldSpec.random_scalar)
    )
    field = FieldSpec.parse(spec)
    rng = random.Random(31)

    def form(nvars, degree):
        while True:
            h = random_homogeneous(field, nvars, degree, rng, 3)
            if h:
                return h

    def presentation(pairs, start=None):
        summands = pairs + ([(start, start)] if start is not None else [])
        F = sum((l * m for l, m in summands), Poly.zero(field, pairs[0][0].nvars))
        return ulrich_presentation(F, FormDecomposition(F, summands))[0]

    built = []
    for s in range(1, 6):
        pairs = [(form(4, 1), form(4, 1)) for _ in range(s)]
        quadric = sum((l * m for l, m in pairs), Poly.zero(field, 4))
        built.append(build_clifford_factorization(SumOfProducts(pairs, quadric)))
        built.append(presentation(pairs, form(4, 1)))
    quartic_a = presentation([(form(3, 2), form(3, 2)) for _ in range(3)])
    quartic_b = presentation([(form(3, 2), form(3, 2)) for _ in range(2)], form(3, 2))
    built += [quartic_a, quartic_b]
    assert sorted(mf.size for mf in built) == sorted([2, 4, 8, 16, 32] * 2 + [8, 4])
    for seed, mf in enumerate(built):
        calls.clear()
        cert = determinant_certificate(mf, trials=3, seed=seed)
        assert calls == []
        assert (cert.ok, cert.proof, cert.tested, cert.skipped) == (True, True, 0, 0)
        read = MatrixFactorization(mf.entries, mf.quadric)
        again = determinant_certificate(read, trials=3, seed=seed)
        assert {"_det_raw", "random_scalar"} <= set(calls)
        assert (again.ok, again.proof, again.tested, again.sign) == (True, True, 1, cert.sign)
        for matrix in (mf, read):
            sampled = determinant_certificate_by_evaluation(matrix, trials=2, seed=seed)
            assert (sampled.ok, sampled.sign) == (True, cert.sign)
