"""Veronese lifts, form decompositions, presentations, rank bounds."""

from __future__ import annotations

import json
import random
from math import comb

import pytest

from ulrich_forge import (
    ExtensionNeeded,
    FieldSpec,
    FormDecomposition,
    Poly,
    VeroneseMap,
    decompose_form,
    is_smooth_hypersurface,
    lift_form,
    normalize_plane_decomposition,
    parse_poly,
    random_homogeneous,
    rank_bounds,
    sum_of_products,
    gram_from_poly,
    build_clifford_factorization,
    determinant_certificate,
    ulrich_presentation,
    verify_clifford,
)
from ulrich_forge.cli import main

from oracles import determinant_certificate_by_evaluation, is_ulrich_presentation


def test_veronese_map_basis_frozen():
    vm = VeroneseMap(2, 2)
    assert vm.N == 5
    assert vm.basis == (
        (2, 0, 0),
        (1, 1, 0),
        (1, 0, 1),
        (0, 2, 0),
        (0, 1, 1),
        (0, 0, 2),
    )


def test_veronese_map_counts():
    for n in (1, 2, 3):
        for d in (1, 2, 3):
            vm = VeroneseMap(n, d)
            assert len(vm.basis) == comb(n + d, d)
            assert vm.N == comb(n + d, d) - 1
    with pytest.raises(ValueError):
        VeroneseMap(0, 2)
    with pytest.raises(ValueError):
        VeroneseMap(2, 0)


def test_pullback_kills_the_conic_relation(q):
    vm = VeroneseMap(1, 2)
    rel = parse_poly("x0*x2 - x1^2", q, nvars=3)
    assert vm.pullback(rel).is_zero


def test_lift_form_frozen(q):
    fermat = lift_form(parse_poly("x^4 + y^4 + z^4", q))
    assert str(fermat.record.poly) == "x0^2 + x3^2 + x5^2"
    assert fermat.record.rank == 3
    cross = lift_form(parse_poly("x^3*y", q, nvars=3))
    assert str(cross.record.poly) == "x0*x1"
    assert cross.record.rank == 2


def test_lift_round_trip_random():
    rng = random.Random(107)
    fields = (FieldSpec.rationals(), FieldSpec.prime(101))
    for field in fields:
        for n, d in ((2, 1), (2, 2), (3, 1), (2, 3)):
            vm = VeroneseMap(n, d)
            for _ in range(12):
                F = random_homogeneous(field, n + 1, 2 * d, rng)
                lift = lift_form(F)
                assert vm.pullback(lift.record.poly) == F
                assert lift.source is F
                assert lift.vmap.basis == vm.basis


def test_lift_form_degree_checks(q):
    with pytest.raises(ValueError, match="form degree must be even"):
        lift_form(parse_poly("x^3", q, nvars=3))
    with pytest.raises(ValueError, match="need a nonzero homogeneous form"):
        lift_form(Poly.zero(q, 3))
    with pytest.raises(ValueError, match="need a nonzero homogeneous form"):
        lift_form(parse_poly("x^4 + y^2", q, nvars=3))


def test_form_decomposition_validation(q):
    F = parse_poly("x^2*y^2", q, nvars=3)
    xy = parse_poly("x*y", q, nvars=3)
    dec = FormDecomposition(F, ((xy, xy),))
    assert dec.square_term_flag
    assert dec.k == 1 and dec.secant_index == 0 and dec.d == 2
    with pytest.raises(ValueError):
        FormDecomposition(F, ())
    with pytest.raises(ValueError):
        FormDecomposition(F, ((xy, parse_poly("x", q, nvars=3)),))
    with pytest.raises(ValueError):
        FormDecomposition(F, ((xy, parse_poly("x^2", q, nvars=3)),))
    with pytest.raises(AttributeError):
        dec.summands = ()


def test_decompose_form_frozen_quartic(f13):
    F = parse_poly("x^4 + y^4 + z^4", f13)
    dec = decompose_form(lift_form(F))
    assert [(str(l), str(m)) for l, m in dec.summands] == [
        ("x^2 + 5*y^2", "x^2 + 8*y^2"),
        ("z^2", "z^2"),
    ]
    assert dec.square_term_flag
    assert dec.F.field == f13


def test_decompose_form_reuses_a_given_lift(f13):
    F = parse_poly("x^4 + y^4 + z^4", f13)
    lift = lift_form(F)
    dec = decompose_form(lift)
    assert dec.summands == decompose_form(lift_form(F)).summands
    assert dec.F == F


def test_decompose_form_descends_when_possible(f101):
    rng = random.Random(113)
    vm = VeroneseMap(2, 2)
    for _ in range(10):
        F = random_homogeneous(f101, 3, 4, rng)
        try:
            dec = decompose_form(lift_form(F))
        except ExtensionNeeded:
            continue
        total = Poly.zero(dec.F.field, 3)
        for l, m in dec.summands:
            total = total + l * m
        assert total == dec.F
        assert dec.k <= (vm.N + 2) // 2


def test_decompose_form_sticks_to_the_extension_when_needed(f13):
    F = parse_poly("2*x^2", f13, nvars=3)
    dec = decompose_form(lift_form(F))
    assert str(dec.F.field) == "fp2:13"
    assert [(str(l), str(m)) for l, m in dec.summands] == [("(w)*x", "(w)*x")]


def _decompose_over_fp2_then_descend(F):
    """The earlier route: decompose over fp2:p, map back to fp:p when no w part is left."""
    fp2 = F.field.extension()
    dec = decompose_form(lift_form(F.embed(fp2)))
    factors = [h for pair in dec.summands for h in pair]
    if any(b for h in factors for _, b in h.raw.values()):
        return dec
    down = [Poly(F.field, h.nvars, {e: a for e, (a, _) in h.raw.items()}) for h in factors]
    return FormDecomposition(F, zip(down[0::2], down[1::2]))


@pytest.mark.parametrize("p", [7, 13, 101])
def test_decompose_form_matches_the_fp2_then_descend_route(p):
    fp = FieldSpec.prime(p)
    rng = random.Random(1000 + p)
    fields_seen = set()
    for deg in (4, 6):
        for _ in range(12):
            F = random_homogeneous(fp, 3, deg, rng)
            F = Poly(fp, 3, {e: c for e, c in F.terms.items() if rng.random() < 0.5})
            if F.is_zero:
                continue
            dec = decompose_form(lift_form(F))
            old = _decompose_over_fp2_then_descend(F)
            assert dec.F == old.F and dec.F.field is old.F.field
            assert dec.summands == old.summands
            fields_seen.add(dec.F.field)
    assert fields_seen == {fp, FieldSpec.quadratic(p)}


def test_presentation_and_bounds_reject_a_decomposition_of_another_form(f13):
    F = parse_poly("x^4 + y^4 + z^4", f13)
    other = decompose_form(lift_form(parse_poly("x^4 + 2*y^4 + z^4", f13)))
    with pytest.raises(ValueError, match="does not present F"):
        ulrich_presentation(F, other)
    with pytest.raises(ValueError, match="does not present F"):
        rank_bounds(F, other)
    # a look-alike without FormDecomposition's recombination check proves nothing
    fake = type("Fake", (), {"F": F, "summands": other.summands, "square_term_flag": False})()
    with pytest.raises(TypeError, match="FormDecomposition"):
        ulrich_presentation(F, fake)
    # a decomposition over the extension of F's field presents F
    G = parse_poly("x^4 + 2*y^4 + z^4", f13)
    dec = decompose_form(lift_form(G))
    assert dec.F.field is FieldSpec.quadratic(13)
    assert ulrich_presentation(G, dec)[1].summand_count == dec.k
    assert rank_bounds(G, dec).summand_count == dec.k


def test_decompose_form_extension_error_over_q(q):
    with pytest.raises(ExtensionNeeded):
        decompose_form(lift_form(parse_poly("x^4 + y^4", q, nvars=3)))


def test_presentation_conic_frozen(f13):
    # F = (x + 5y)(x + 8y) + z^2, so N = z * diag(1, -1) + [[0, x + 5y], [x + 8y, 0]]
    F = parse_poly("x^2 + y^2 + z^2", f13)
    mf, rep = ulrich_presentation(F)
    assert rep.case == "b"
    assert rep.size == 2 and rep.ulrich_rank == 1
    assert rep.summand_count == 2 and rep.secant_index == 1
    assert [[str(e) for e in row] for row in mf.entries] == [
        ["z", "x + 5*y"],
        ["x + 8*y", "12*z"],
    ]
    assert mf.quadric == F
    assert rep.entries == [[str(e) for e in row] for row in mf.entries]
    assert mf.squares_to_quadric
    assert is_ulrich_presentation(mf.entries, F, 1)


def test_presentation_square_decomposition_halves(q):
    F = parse_poly("x^2*y^2", q, nvars=3)
    xy = parse_poly("x*y", q, nvars=3)
    mf, rep = ulrich_presentation(F, FormDecomposition(F, ((xy, xy),)))
    assert rep.case == "b" and rep.size == 2 and rep.ulrich_rank == 1
    assert rep.entries == [["0", "x*y"], ["x*y", "0"]]
    assert mf.quadric == F
    assert is_ulrich_presentation(mf.entries, F, 2)


def test_lone_square_keeps_the_plain_recursion(q):
    # folding the one square pair would leave the 1 x 1 matrix (l), of
    # rank 1/2; F = l^2 keeps [[0, l], [l, 0]] instead, size 2 and rank 1
    F = parse_poly("x^2", q, nvars=3)
    dec = decompose_form(lift_form(F))
    assert dec.k == 1 and dec.square_term_flag
    mf, rep = ulrich_presentation(F, dec)
    assert (rep.case, rep.size, rep.ulrich_rank) == ("b", 2, 1)
    assert rep.entries == [["0", "x"], ["x", "0"]]
    assert mf.squares_to_quadric
    assert rank_bounds(F, dec).achieved == 1
    assert is_ulrich_presentation(mf.entries, F, 1)


def test_presentation_case_a(q):
    F = parse_poly("x^3*y + x*y^3", q, nvars=3)
    xy = parse_poly("x*y", q, nvars=3)
    dec = FormDecomposition(F, ((xy, parse_poly("x^2 + y^2", q, nvars=3)),))
    assert not dec.square_term_flag
    mf, rep = ulrich_presentation(F, dec)
    assert rep.case == "a"
    assert rep.size == 2 and mf.ulrich_rank == 1
    assert rep.entries == [["0", "x*y"], ["x^2 + y^2", "0"]]
    assert mf.squares_to_quadric
    # the linear-entry gate of verify_clifford does not apply to degree-d entries
    assert not verify_clifford(mf)


def test_presentation_quadric_comes_from_the_decomposition(q):
    # a hand decomposition and the greedy one factor F differently; both
    # present F itself, in the source variables
    F = parse_poly("x^2*y^2", q, nvars=3)
    xy = parse_poly("x*y", q, nvars=3)
    hand, _ = ulrich_presentation(F, FormDecomposition(F, ((xy, xy),)))
    greedy, rep = ulrich_presentation(F)
    assert rep.entries == [["0", "x^2"], ["y^2", "0"]]
    assert hand.quadric == greedy.quadric == F
    assert hand.nvars == greedy.nvars == 3
    assert hand.entries != greedy.entries


def test_presentation_rejects_odd_degree(q):
    with pytest.raises(ValueError):
        ulrich_presentation(parse_poly("x^3 + y^3 + z^3", q))


def test_rank_bounds_certified(f13):
    F = parse_poly("x^4 + y^4 + z^4", f13)
    dec = decompose_form(lift_form(F))
    rb = rank_bounds(F, dec)
    assert rb.upper_bound == 4
    assert rb.achieved == 1
    assert rb.case == "b"
    assert rb.lower_check.status == "certified"
    assert rb.lower_check.zero_dimensional == "yes"
    assert rb.lower_check.e_witness == 4
    assert rb.lower_check.inequality_holds


def test_rank_bounds_case_a_certified():
    f101 = FieldSpec.prime(101)
    F = random_homogeneous(f101, 3, 4, random.Random(0))
    assert is_smooth_hypersurface(F).verdict == "smooth"
    dec = decompose_form(lift_form(F))
    assert not dec.square_term_flag
    rb = rank_bounds(F, dec)
    assert rb.case == "a"
    assert rb.achieved == 4
    assert rb.lower_check.status == "certified"
    mf, rep = ulrich_presentation(F, dec)
    assert rb.achieved == mf.ulrich_rank


@pytest.mark.parametrize("spec", ["fp:7", "fp:101", "fp2:13"])
def test_the_form_decides_smoothness_and_the_lower_check(spec):
    # at the socle bound a form is smooth or singular, never undecided, and
    # the factors of a smooth form share no zero, so their ideal vanishes
    # by (n+1)(d-1)+1 and the lower check is certified
    field = FieldSpec.parse(spec)
    rng = random.Random(38)
    seen = set()
    for nvars, degree in ((3, 2), (3, 4), (3, 6), (4, 2), (4, 4)):
        for shape in ("random", "integer", "sparse", "reducible"):
            F = random_homogeneous(field, nvars, degree, rng)
            if shape == "integer":
                # coefficients in the prime field, whose roots fp2 holds
                G = random_homogeneous(FieldSpec.prime(7), nvars, degree, rng)
                F = parse_poly(str(G), field, nvars=nvars)
            elif shape == "sparse":
                F = Poly(field, nvars, {e: c for e, c in F.terms.items() if rng.random() < 0.4})
            elif shape == "reducible":
                F = random_homogeneous(field, nvars, 1, rng) * random_homogeneous(field, nvars, degree - 1, rng)
            if F.is_zero:
                continue
            smooth = is_smooth_hypersurface(F)
            assert smooth.verdict in ("smooth", "singular")
            try:
                decomp = decompose_form(lift_form(F))
            except ExtensionNeeded:
                # over fp2 a missing root has no field to move to
                continue
            check = rank_bounds(F, decomp).lower_check
            if smooth.verdict == "smooth":
                assert check.status == "certified"
                assert check.e_witness <= nvars * (degree // 2 - 1) + 1
            else:
                assert check.status == "not applicable: F singular"
            seen.add(smooth.verdict)
    assert seen == {"smooth", "singular"}


def test_rank_bounds_singular_not_applicable(q):
    F = parse_poly("x^3*y + x*y^3", q, nvars=3)
    xy = parse_poly("x*y", q, nvars=3)
    dec = FormDecomposition(F, ((xy, parse_poly("x^2 + y^2", q, nvars=3)),))
    rb = rank_bounds(F, dec)
    assert rb.lower_check.status == "not applicable: F singular"
    assert rb.lower_check.witness is not None
    singular_point = rb.lower_check.witness
    assert F.evaluate(singular_point).is_zero
    for g in F.gradient():
        assert g.evaluate(singular_point).is_zero


def test_rank_bounds_degree_mismatch(q):
    F = parse_poly("x^2*y^2", q, nvars=3)
    xy = parse_poly("x*y", q, nvars=3)
    dec = FormDecomposition(F, ((xy, xy),))
    with pytest.raises(ValueError):
        rank_bounds(parse_poly("x^2 + y^2 + z^2", q), dec)


def test_achieved_rank_matches_factorization_random(f101):
    rng = random.Random(127)
    checked = 0
    while checked < 8:
        F = random_homogeneous(f101, 3, 4, rng)
        try:
            dec = decompose_form(lift_form(F))
        except ExtensionNeeded:
            continue
        mf, rep = ulrich_presentation(F, dec)
        rb = rank_bounds(F, dec)
        assert mf.squares_to_quadric
        assert rb.achieved == mf.ulrich_rank
        assert rb.achieved <= rb.upper_bound
        checked += 1


def test_conic_route_gives_the_rank_one_bundle(f13):
    F = parse_poly("x^2 + y^2 + z^2", f13)
    mf, _ = ulrich_presentation(F)
    assert mf.ulrich_rank == 1


def test_normalize_plane_decomposition_success(f13):
    F = parse_poly("x^4 + y^4 + z^4", f13)
    dec = decompose_form(lift_form(F))
    out = normalize_plane_decomposition(F, dec)
    certs = out.certificates
    assert certs["failed_certificate"] is None
    assert certs["alpha"] == f13.one and certs["beta"] == f13.one
    assert certs["input_smooth"].verdict == "smooth"
    assert certs["first_factor_smooth"].verdict == "smooth"
    assert certs["second_factor_smooth"].verdict == "smooth"
    assert certs["transversality"].points == 4
    assert out.F == F and out.k == 2
    (fa, gb), (fb, ga) = out.summands
    assert fa * gb + fb * ga == F


def test_normalize_retries_alpha_after_beta_dead_end(q):
    # alpha = 1 yields a first factor whose partner conic is singular at a
    # point every second factor passes through; the search must move on
    F = parse_poly(
        "x^3*z + x^2*y^2 + x^2*z^2 + x*y^2*z + x*z^3 + y^4 + y^2*z^2", q
    )
    dec = FormDecomposition(
        F,
        (
            (parse_poly("x^2", q, nvars=3), parse_poly("z^2", q, nvars=3)),
            (parse_poly("y^2 + x*z", q), parse_poly("x^2 + y^2 + z^2", q)),
        ),
    )
    out = normalize_plane_decomposition(F, dec)
    certs = out.certificates
    assert certs["failed_certificate"] is None
    assert certs["alpha"] == q.from_int(-1)
    assert certs["beta"] == q.zero
    assert certs["transversality"].points == 4
    (fa, gb), (fb, ga) = out.summands
    assert fa * gb + fb * ga == F


def test_normalize_exhausted_trials_reports_best_attempt(q):
    F = parse_poly(
        "x^3*z + x^2*y^2 + x^2*z^2 + x*y^2*z + x*z^3 + y^4 + y^2*z^2", q
    )
    dec = FormDecomposition(
        F,
        (
            (parse_poly("x^2", q, nvars=3), parse_poly("z^2", q, nvars=3)),
            (parse_poly("y^2 + x*z", q), parse_poly("x^2 + y^2 + z^2", q)),
        ),
    )
    out = normalize_plane_decomposition(F, dec, max_trials=1)
    assert out.certificates["failed_certificate"] == "first factor smoothness"
    assert out.certificates["input_smooth"].verdict == "smooth"


@pytest.mark.parametrize("max_trials", [0, -3])
def test_normalize_refuses_a_trial_count_below_one(f13, max_trials):
    # no alpha is tried, so no factor smoothness can be reported as failed
    F = parse_poly("x^4 + y^4 + z^4", f13)
    dec = decompose_form(lift_form(F))
    with pytest.raises(ValueError, match="max_trials must be at least 1"):
        normalize_plane_decomposition(F, dec, max_trials=max_trials)


def test_normalize_reports_the_deepest_attempt(capsys):
    # alpha = 0 keeps the smooth f1, but the only beta tried, 0, gives the
    # singular f2 = x*y: the best attempt stops at the second factor
    f101 = FieldSpec.prime(101)
    f1 = parse_poly("x^2 + y^2 + z^2", f101)
    f2 = parse_poly("x*y", f101, nvars=3)
    rng = random.Random(1)
    while True:
        g1, g2 = (random_homogeneous(f101, 3, 2, rng) for _ in range(2))
        F = f1 * g1 + f2 * g2
        if is_smooth_hypersurface(F).verdict == "smooth":
            break
    dec = FormDecomposition(F, ((f1, g1), (f2, g2)))
    out = normalize_plane_decomposition(F, dec, max_trials=1)
    certs = out.certificates
    assert certs["failed_certificate"] == "second factor smoothness"
    assert certs["alpha"] == f101.zero
    assert certs["first_factor_smooth"].verdict == "smooth"
    (fa, gb), (fb, ga) = out.summands
    assert fa * gb + fb * ga == F
    argv = ["ulrich", "normalize", *map(str, (F, f1, g1, f2, g2))]
    assert main([*argv, "--field", "fp:101", "--max-trials", "1"]) == 1
    assert '"failed_certificate": "second factor smoothness"' in capsys.readouterr().out


def test_normalize_reports_a_failed_transversality(capsys):
    # alpha = 0 and beta = 0 keep the smooth conics f1 and f2, but f2 and
    # g1 meet with a repeated point: the deepest attempt ends there, and
    # alpha = 0 leaves the input summands
    f7 = FieldSpec.prime(7)
    texts = [
        "x^2 + 4*x*z + 5*y^2 + z^2",
        "x^2 + 6*y^2 + 5*y*z + z^2",
        "6*x^2 + 5*x*y + 2*x*z + y^2 + 2*z^2",
        "3*x^2 + 5*x*y + 2*x*z + 2*y^2 + 3*y*z + 2*z^2",
    ]
    f1, g1, f2, g2 = (parse_poly(t, f7, nvars=3) for t in texts)
    F = f1 * g1 + f2 * g2
    out = normalize_plane_decomposition(F, FormDecomposition(F, ((f1, g1), (f2, g2))), seed=0, max_trials=1)
    certs = out.certificates
    assert certs["failed_certificate"] == "transversality"
    assert certs["alpha"] == f7.zero and "beta" not in certs
    assert certs["first_factor_smooth"].verdict == certs["second_factor_smooth"].verdict == "smooth"
    assert out.summands == ((f1, g1), (f2, g2))
    argv = ["ulrich", "normalize", str(F), *texts, "--field", "fp:7", "--max-trials", "1"]
    assert main(argv) == 1
    result = json.loads(capsys.readouterr().out)["result"]
    assert result == {
        "summands": [texts[:2], texts[2:]],
        "alpha": "0",
        "beta": None,
        "failed_certificate": "transversality",
        "transversality": {
            "verdict": "failed",
            "points": None,
            "reason": "resultant has a repeated root; intersection not transversal",
        },
    }


def test_normalize_rejects_mismatched_decomposition(q):
    F = parse_poly(
        "x^3*z + x^2*y^2 + x^2*z^2 + x*y^2*z + x*z^3 + y^4 + y^2*z^2", q
    )
    dec = FormDecomposition(
        F,
        (
            (parse_poly("x^2", q, nvars=3), parse_poly("z^2", q, nvars=3)),
            (parse_poly("y^2 + x*z", q), parse_poly("x^2 + y^2 + z^2", q)),
        ),
    )
    with pytest.raises(ValueError):
        normalize_plane_decomposition(parse_poly("x^4 + y^4 + z^4", q), dec)


def test_normalize_singular_form_fails_fast(f13):
    F = parse_poly("x^2*y^2 + z^4", f13)
    dec = decompose_form(lift_form(F))
    if dec.k == 2:
        out = normalize_plane_decomposition(F, dec)
        assert out.certificates["failed_certificate"] == "input smoothness"
        assert out.certificates["input_smooth"].verdict == "singular"


def test_normalize_requires_two_summands(f13):
    F = parse_poly("2*x^2", f13, nvars=3)
    dec = decompose_form(lift_form(F))
    with pytest.raises(ValueError):
        normalize_plane_decomposition(dec.F, dec)


def test_normalize_deterministic(f13):
    F = parse_poly("x^4 + y^4 + z^4", f13)
    dec = decompose_form(lift_form(F))
    a = normalize_plane_decomposition(F, dec, seed=7)
    b = normalize_plane_decomposition(F, dec, seed=7)
    assert [(str(l), str(m)) for l, m in a.summands] == [
        (str(l), str(m)) for l, m in b.summands
    ]


def _perturbed(entries, i, j, extra):
    rows = [list(row) for row in entries]
    rows[i][j] = rows[i][j] + extra
    return rows


def test_presentations_pass_the_hilbert_function_oracle():
    # coker(T * Id - N) over k[x, T]/(T^2 - F) has Hilbert function
    # size * C(t+2, 2), computed by ranks; one perturbed entry breaks it
    f101 = FieldSpec.prime(101)
    rng = random.Random(16)
    seen = set()
    for deg, count in ((4, 3), (6, 1)):
        for _ in range(count):
            F = random_homogeneous(f101, 3, deg, rng)
            dec = decompose_form(lift_form(F))
            mf, rep = ulrich_presentation(F, dec)
            assert is_ulrich_presentation(mf.entries, dec.F, deg // 2)
            seen.add((deg, rep.case, rep.size))
    assert seen == {(4, "a", 8), (6, "b", 16)}
    quartic = decompose_form(lift_form(random_homogeneous(f101, 3, 4, rng)))
    mf, _ = ulrich_presentation(quartic.F, quartic)
    x2 = Poly.monomial(mf.field, (2, 0, 0))
    assert is_ulrich_presentation(mf.entries, quartic.F, 2)
    assert not is_ulrich_presentation(_perturbed(mf.entries, 0, 1, x2), quartic.F, 2)


def test_case_b_over_q_passes_the_hilbert_function_oracle(q):
    # F = l^2 + f1*g1 + f2*g2: N = l * Gamma + M is 4 x 4, rank 2
    rng = random.Random(5)
    l, f1, g1, f2, g2 = (random_homogeneous(q, 3, 2, rng, 3) for _ in range(5))
    F = l * l + f1 * g1 + f2 * g2
    dec = FormDecomposition(F, ((f1, g1), (f2, g2), (l, l)))
    mf, rep = ulrich_presentation(F, dec)
    assert (rep.case, rep.size, rep.ulrich_rank) == ("b", 4, 2)
    assert is_ulrich_presentation(mf.entries, F, 2)
    y2 = Poly.monomial(q, (0, 2, 0))
    assert not is_ulrich_presentation(_perturbed(mf.entries, 2, 2, y2), F, 2)
    cert = determinant_certificate(mf, trials=5)
    assert cert.ok and cert.proof and (cert.tested, cert.skipped) == (0, 0)
    assert cert.sign == determinant_certificate_by_evaluation(mf, trials=5).sign
    # the greedy decomposition of a form over q with a square pair
    G = parse_poly("x^4 - y^4 + z^4", q)
    mf, rep = ulrich_presentation(G)
    assert (rep.case, rep.size) == ("b", 2)
    assert is_ulrich_presentation(mf.entries, G, 2)


@pytest.mark.parametrize("n, d", [(1, 2), (2, 1), (2, 2), (2, 3), (3, 2)])
def test_achieved_rank_stays_under_the_upper_bound(n, d):
    # at most ceil((N+1)/2) summands give size/2 <= 2^(ceil(N/2)-1), with
    # equality when the lift has full rank N+1
    f101 = FieldSpec.prime(101)
    rng = random.Random(16)
    vm = VeroneseMap(n, d)
    full = 0
    for _ in range(3):
        F = random_homogeneous(f101, n + 1, 2 * d, rng)
        lift = lift_form(F)
        dec = decompose_form(lift)
        rb = rank_bounds(dec.F, dec)
        assert rb.upper_bound == 2 ** ((vm.N + 1) // 2 - 1)
        assert rb.achieved <= rb.upper_bound
        if lift.record.rank == vm.N + 1:
            full += 1
            assert rb.achieved == rb.upper_bound
    # the greedy lift of a plane sextic misses full rank by one
    assert full == (0 if (n, d) == (2, 3) else 3)


def test_presentation_is_proved_once(monkeypatch, f13):
    # one relation check per shape, on the generic pencil over q: none on N,
    # none on the recursion M of case b, none on a second N of the same
    # shape, and the determinant certificate reads the recorded proof
    from ulrich_forge import clifford

    calls = []
    kernel = clifford._squares_to_quadric

    def counted(mf):
        calls.append(mf)
        return kernel(mf)

    monkeypatch.setattr(clifford, "_squares_to_quadric", counted)
    clifford._generic_pencil.cache_clear()
    F = parse_poly("x^2 + y^2 + z^2", f13)
    mf, rep = ulrich_presentation(F)
    other, _ = ulrich_presentation(parse_poly("x^2 - 2*y^2 + 3*z^2", f13))
    assert rep.case == "b" and other.size == mf.size == 2
    (generic,) = calls
    assert (generic.field, generic.nvars, generic.size) == (FieldSpec.rationals(), 3, 2)
    assert str(generic.quadric) == "x*y + z^2"
    for built in (mf, other):
        cert = determinant_certificate(built, trials=5)
        assert (cert.ok, cert.proof, cert.tested, cert.skipped) == (True, True, 0, 0)
        assert cert.sign == determinant_certificate_by_evaluation(built, trials=5).sign
    assert calls == [generic]
