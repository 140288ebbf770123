"""Hilbert function values, zero-dimensionality, smoothness checks."""

from __future__ import annotations

import random
import time
from math import comb

import pytest

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
from ulrich_forge.graded import INCONCLUSIVE, NO, SINGULAR, SMOOTH, YES
from ulrich_forge.poly import monomials_of_degree


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


@pytest.mark.parametrize("degree, seed, budget", [(4, 5, 1.0), (5, 11, 20.0)])
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
