"""Cover genus bookkeeping, branch splitting, the pencil counterexample."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from ulrich_forge import (
    CoverProfile,
    FieldSpec,
    Poly,
    check_branch_splitting,
    keem_counterexample_certificate,
    parse_poly,
    random_homogeneous,
    riemann_hurwitz,
)
from ulrich_forge import cover
from ulrich_forge.quadform import gram_from_poly

from oracles import rank_in_extension


def test_riemann_hurwitz_table():
    assert riemann_hurwitz(0, 1).g == 0
    assert riemann_hurwitz(1, 3).g == 4
    assert riemann_hurwitz(2, 5).g == 8


def test_riemann_hurwitz_identity_holds_on_a_grid():
    for h in range(0, 6):
        for d in range(1, 8):
            profile = riemann_hurwitz(h, d)
            assert 2 * profile.g - 2 == 2 * (2 * h - 2) + 2 * d
            assert profile.branch_degree == 2 * d
            assert profile.hypothesis_flag == (profile.g >= 4 * h)


def test_cover_profile_guards():
    with pytest.raises(ValueError):
        CoverProfile(-1, 3)
    with pytest.raises(ValueError):
        CoverProfile(2, 0)
    with pytest.raises(AttributeError):
        riemann_hurwitz(1, 1).g = 5


def test_branch_splitting_witness_frozen(q):
    F1 = parse_poly("z", q, nvars=3)
    r = parse_poly("x*y + z^2", q)
    result = check_branch_splitting(
        F1, r, parse_poly("x", q, nvars=3), parse_poly("y", q, nvars=3), Poly.zero(q, 3)
    )
    assert bool(result)
    assert str(result.witness) == "z"


def test_branch_splitting_no_witness(q):
    F1 = parse_poly("z", q, nvars=3)
    r = parse_poly("x*y + x^2", q, nvars=3)
    result = check_branch_splitting(
        F1, r, parse_poly("x", q, nvars=3), parse_poly("y", q, nvars=3), Poly.zero(q, 3)
    )
    assert not bool(result)
    assert "not a multiple of F1" in result.reason


def test_branch_splitting_witness_is_verified(q):
    F1 = parse_poly("z", q, nvars=3)
    r = parse_poly("x*y + z^2", q)
    res = check_branch_splitting(
        F1, r, parse_poly("x", q, nvars=3), parse_poly("y", q, nvars=3), Poly.zero(q, 3)
    )
    a2 = Poly.zero(q, 3)
    assert res.witness * F1 == r - parse_poly("x*y", q, nvars=3) - a2


def test_branch_splitting_complete_on_forward_samples(f13):
    # the polynomial ring is a domain, so the witness is unique
    rng = random.Random(131)
    for degree in (1, 2, 3):
        for _ in range(5):
            F1 = random_homogeneous(f13, 3, degree, rng)
            h = random_homogeneous(f13, 3, degree, rng)
            l = random_homogeneous(f13, 3, degree, rng)
            m = random_homogeneous(f13, 3, degree, rng)
            a = random_homogeneous(f13, 3, degree, rng)
            r = l * m + a * a + h * F1
            res = check_branch_splitting(F1, r, l, m, a)
            assert bool(res)
            assert res.witness == h


def test_branch_splitting_allows_zero_a(f13):
    rng = random.Random(137)
    F1 = random_homogeneous(f13, 3, 2, rng)
    l = random_homogeneous(f13, 3, 2, rng)
    m = random_homogeneous(f13, 3, 2, rng)
    r = l * m
    res = check_branch_splitting(F1, r, l, m, Poly.zero(f13, 3))
    assert bool(res)
    assert res.witness.is_zero


def test_branch_splitting_degree_guards(q):
    F1 = parse_poly("z", q, nvars=3)
    with pytest.raises(ValueError):
        check_branch_splitting(
            F1,
            parse_poly("x^3", q, nvars=3),
            parse_poly("x", q, nvars=3),
            parse_poly("y", q, nvars=3),
            Poly.zero(q, 3),
        )
    with pytest.raises(ValueError):
        check_branch_splitting(
            Poly.zero(q, 3),
            parse_poly("x*y", q),
            parse_poly("x", q, nvars=3),
            parse_poly("y", q, nvars=3),
            Poly.zero(q, 3),
        )
    with pytest.raises(ValueError):
        check_branch_splitting(
            parse_poly("z", q, nvars=4),
            parse_poly("x*y", q, nvars=4),
            parse_poly("x", q, nvars=4),
            parse_poly("y", q, nvars=4),
            Poly.zero(q, 4),
        )


def test_keem_certificate_over_gaussian_rationals(qi):
    cert = keem_counterexample_certificate(qi, trials=25, seed=0)
    assert cert.ok
    assert cert.field == "qi"
    assert cert.i_value == "i"
    assert cert.pencil_determinant == "1/16"
    assert cert.profile.g == 8
    assert cert.profile.h == 2
    assert cert.profile.g == 4 * cert.profile.h
    names = [link["name"] for link in cert.chain]
    assert names == [
        "square-root-of-minus-one",
        "pencil-nonsingular",
        "split-rank-bound",
        "cover-profile",
        "no-splitting",
    ]
    assert all(link["ok"] for link in cert.chain)
    assert cert.dependencies
    assert "kernel relation" in cert.dependencies[0]


def test_keem_certificate_prime_fields_match():
    c13 = keem_counterexample_certificate(FieldSpec.prime(13), trials=25, seed=0)
    c17 = keem_counterexample_certificate(FieldSpec.prime(17), trials=25, seed=0)
    assert c13.ok and c17.ok
    # 1/16 reduced in each prime field
    f13, f17 = FieldSpec.prime(13), FieldSpec.prime(17)
    assert f13.parse_scalar(c13.pencil_determinant) == f13.from_int(16).inverse()
    assert f17.parse_scalar(c17.pencil_determinant) == f17.from_int(16).inverse()
    assert c13.pencil_determinant == "9"
    assert c17.pencil_determinant == "16"


def test_keem_determinant_is_universal():
    # same rational constant 1/16 lands in every admissible field
    qi = FieldSpec.gaussian_rationals()
    expected = Fraction(1, 16)
    assert keem_counterexample_certificate(qi, trials=5).pencil_determinant == "1/16"
    for p in (5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101):
        cert = keem_counterexample_certificate(FieldSpec.prime(p), trials=5)
        assert cert.ok
        field = FieldSpec.prime(p)
        value = field.parse_scalar(cert.pencil_determinant)
        assert value == field.scalar(expected.numerator) / field.scalar(expected.denominator)
        assert not value.is_zero


def test_keem_certificate_quadratic_extension_fields():
    cert = keem_counterexample_certificate(FieldSpec.quadratic(7), trials=10)
    assert cert.ok
    field = FieldSpec.quadratic(7)
    det_value = field.parse_scalar(cert.pencil_determinant)
    assert det_value == field.from_int(16).inverse()


def test_keem_refuses_fields_without_i():
    with pytest.raises(ValueError) as info:
        keem_counterexample_certificate(FieldSpec.rationals())
    assert "square root of -1" in str(info.value)
    with pytest.raises(ValueError):
        keem_counterexample_certificate(FieldSpec.prime(7))


def test_keem_no_splitting_samples_are_exhaustive_failures(qi):
    cert = keem_counterexample_certificate(qi, trials=40, seed=3)
    final = cert.chain[-1]
    assert final["name"] == "no-splitting"
    assert final["ok"]
    assert final["value"] == "contradiction"
    rank_link = cert.chain[2]
    assert rank_link["name"] == "split-rank-bound"
    assert rank_link["statement"].endswith("rank(l*m + a^2) <= 3 for every l, m, a")
    assert rank_link["value"] == "3"


def test_keem_deterministic(qi):
    a = keem_counterexample_certificate(qi, trials=15, seed=11)
    b = keem_counterexample_certificate(qi, trials=15, seed=11)
    assert a.ok == b.ok
    assert a.pencil_determinant == b.pencil_determinant
    assert [l["value"] for l in a.chain] == [l["value"] for l in b.chain]


@pytest.mark.parametrize(
    "spec, determinant",
    [("qi", "1/16"), ("fp:13", "9"), ("fp:17", "16"), ("fp:101", "19"), ("fp2:7", "4"), ("fp2:13", "9")],
)
def test_keem_certificate_draws_no_random_scalar(spec, determinant, monkeypatch):
    # the rank bound is a proof for every witness, so no witness is drawn
    drawn = []
    random_scalar = FieldSpec.random_scalar
    monkeypatch.setattr(
        FieldSpec, "random_scalar", lambda *args: drawn.append(args) or random_scalar(*args)
    )
    # trials and seed as bench/workloads.py passes them; neither is read
    cert = keem_counterexample_certificate(FieldSpec.parse(spec), trials=100, seed=7)
    assert (cert.ok, cert.pencil_determinant) == (True, determinant)
    assert drawn == []


def test_the_split_identity_is_checked_once_per_process():
    cover._split_gram_identity.cache_clear()
    for spec in ("qi", "fp:13", "fp2:7", "qi"):
        assert keem_counterexample_certificate(FieldSpec.parse(spec)).ok
    info = cover._split_gram_identity.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_a_failed_split_identity_fails_the_certificate(qi, monkeypatch):
    monkeypatch.setattr(cover, "_split_gram_identity", lambda: False)
    cert = keem_counterexample_certificate(qi)
    links = {link["name"]: link["ok"] for link in cert.chain}
    assert not cert.ok
    assert not links["split-rank-bound"] and not links["no-splitting"]
    assert links["square-root-of-minus-one"] and links["pencil-nonsingular"] and links["cover-profile"]


@pytest.mark.parametrize("spec", ["fp:13", "fp2:7", "qi", "q", "fp:3", "fp2:3"])
def test_split_rank_from_vectors_matches_the_gram_of_the_product(spec):
    """The lemma behind "split-rank-bound", against the Gram rank of the product polynomial.

    The rank the coefficient vectors give, at most 3 and 3 exactly when
    l, m and a are linearly independent (2*Gram = V J V^T with J
    invertible), is the Gram rank of l*m + a^2; in the small fields
    fp:3 and fp2:3 random witnesses are often dependent.
    """
    field = FieldSpec.parse(spec)
    rng = random.Random(19)
    zero = [field.zero] * 4
    witnesses = []
    for _ in range(60):
        l, m, a = ([field.random_scalar(rng) for _ in range(4)] for _ in range(3))
        c = field.random_nonzero_scalar(rng)
        witnesses += [(l, m, a), (zero, m, a), (l, m, zero), (l, [c * v for v in l], a)]
    # l = a and m = -a: l*m + a^2 is the zero form
    witnesses += [(a, [-v for v in a], a) for _, _, a in witnesses[:5]] + [(zero, zero, zero)]
    ranks, dependence = set(), set()
    for l, m, a in witnesses:
        lf, mf, af = (Poly.linear_form(field, v) for v in (l, m, a))
        rank = gram_from_poly(lf * mf + af * af).rank
        independent = rank_in_extension([l, m, a], field) == 3
        assert rank <= 3
        assert (rank == 3) == independent
        ranks.add(rank)
        dependence.add(independent)
    assert ranks == {0, 1, 2, 3}
    assert dependence == {False, True}
