"""Degree-d monomial embeddings and the double-cover pipeline.

A form F of degree 2d in n+1 variables is the restriction of a quadric
Q in the C(n+d,d) coordinates of the degree-d monomial embedding.  The
pipeline here lifts F to such a Q, rewrites Q as a sum of products of
linear forms, pulls the factors back to degree-d forms, so that
F = sum f_i * g_i, and builds from them a matrix N of degree-d forms
with N * N = F * Id: T * Id - N presents an Ulrich sheaf on the double
cover T^2 = F.  Rank reports carry the bound 2^(ceil(N/2)-1), the
achieved rank, and a lower-bound certificate based on
zero-dimensionality of the factor ideal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import comb

from .clifford import _clifford_image, _image_texts
from .graded import (
    NO,
    SMOOTH,
    YES,
    GradedSystem,
    is_smooth_hypersurface,
    is_zero_dimensional,
)
from .poly import Poly, _recombines, monomials_of_degree
from .quadform import gram_from_poly, sum_of_products
from .resultants import TRANSVERSAL, certify_transversal


class VeroneseMap:
    """The embedding of projective n-space by all degree-d monomials."""

    __slots__ = ("n", "d", "basis", "N", "_index")

    def __init__(self, n, d):
        if n < 1 or d < 1:
            raise ValueError("need n >= 1 and d >= 1")
        basis = tuple(monomials_of_degree(n + 1, d))
        if len(basis) != comb(n + d, d):
            raise AssertionError("monomial basis has the wrong length")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "N", len(basis) - 1)
        object.__setattr__(self, "_index", {m: i for i, m in enumerate(basis)})

    def __setattr__(self, *_):
        raise AttributeError("VeroneseMap is immutable")

    def __repr__(self):
        return f"VeroneseMap(n={self.n}, d={self.d}, N={self.N})"

    def pullback(self, p):
        """Substitute the basis monomials into a polynomial in N+1 variables."""
        return p.substitute_monomials(self.basis)


class QuadricLift:
    """A quadric in N+1 variables restricting to a given degree-2d form."""

    __slots__ = ("vmap", "record", "source")

    def __init__(self, vmap, record, source):
        if vmap.pullback(record.poly) != source:
            raise AssertionError("lift does not restrict to the source form")
        object.__setattr__(self, "vmap", vmap)
        object.__setattr__(self, "record", record)
        object.__setattr__(self, "source", source)

    def __setattr__(self, *_):
        raise AttributeError("QuadricLift is immutable")


def _greedy_half(alpha, d):
    # lexicographically largest beta <= alpha with |beta| = d
    beta = []
    left = d
    for a in alpha:
        take = a if a < left else left
        beta.append(take)
        left -= take
    return tuple(beta)


def _veronese_map(F):
    """The embedding F's degree fixes: VeroneseMap(n, deg F / 2) for F in n+1 variables."""
    if F.is_zero or not F.is_homogeneous():
        raise ValueError("need a nonzero homogeneous form")
    deg = F.homogeneous_degree()
    if deg % 2:
        raise ValueError("form degree must be even")
    return VeroneseMap(F.nvars - 1, deg // 2)


def lift_form(F):
    """Lift a degree-2d form to a quadric via greedy monomial splitting.

    The embedding is F's degree-d one (``_veronese_map``), the only one
    whose quadrics restrict to forms of degree 2d.  Each monomial x^alpha
    splits as x^beta * x^gamma with beta the
    lexicographically largest half; its coefficient becomes that of
    y_beta * y_gamma (distinct alphas give distinct products) in the
    quadric, whose Gram matrix ``gram_from_poly`` builds.  The round
    trip back through the basis monomials is checked exactly.
    """
    vmap = _veronese_map(F)
    size = vmap.N + 1
    raw = {}
    for alpha, v in F.raw.items():
        beta = _greedy_half(alpha, vmap.d)
        gamma = tuple(a - b for a, b in zip(alpha, beta))
        exps = [0] * size
        exps[vmap._index[beta]] += 1
        exps[vmap._index[gamma]] += 1
        raw[tuple(exps)] = v
    return QuadricLift(vmap, gram_from_poly(Poly._make(F.field, size, raw)), F)


class FormDecomposition:
    """F written exactly as a sum of products of degree-d forms.

    ``square_term_flag`` records that the last pair is (l, l); the
    secant index r is one less than the number of summands.  The
    ``certificates`` dict, empty at construction, is the one mutable
    slot, where ``normalize_plane_decomposition`` puts its results.
    """

    __slots__ = ("F", "summands", "square_term_flag", "certificates")

    def __init__(self, F, summands):
        summands = tuple((l, m) for l, m in summands)
        if not summands:
            raise ValueError("decomposition needs at least one summand")
        field, nvars = F.field, F.nvars
        degrees = set()
        for l, m in summands:
            for h in (l, m):
                if h.field != field or h.nvars != nvars:
                    raise ValueError("factor from the wrong ring")
                if h.is_zero or not h.is_homogeneous():
                    raise ValueError("factors must be nonzero homogeneous forms")
                degrees.add(h.homogeneous_degree())
        if len(degrees) != 1:
            raise ValueError("factors must share one degree")
        if not _recombines(summands, F):
            raise ValueError("summands do not recombine to F")
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "summands", summands)
        object.__setattr__(self, "square_term_flag", summands[-1][0] == summands[-1][1])
        object.__setattr__(self, "certificates", {})

    def __setattr__(self, name, value):
        raise AttributeError("FormDecomposition fields are fixed at construction")

    @property
    def d(self):
        return self.summands[0][0].homogeneous_degree()

    @property
    def k(self):
        return len(self.summands)

    @property
    def secant_index(self):
        return len(self.summands) - 1

    def __repr__(self):
        return (
            f"FormDecomposition({self.k} summands of degree {self.d}, "
            f"square={self.square_term_flag})"
        )


def _check_presents(decomp, F):
    """ValueError unless decomp decomposes F, over F's field or its extension.

    Only a ``FormDecomposition`` is accepted (TypeError otherwise): its
    exact recombination check is what a presentation's proof rests on.
    """
    if not isinstance(decomp, FormDecomposition):
        raise TypeError("need a FormDecomposition")
    field = decomp.F.field
    if field not in (F.field, F.field.extension()) or decomp.F != F.embed(field):
        raise ValueError("decomposition does not present F")


def decompose_form(lift):
    """Decompose the form of ``lift_form(F)`` into products of degree-d forms.

    The lift carries F and its embedding, the only one whose linear
    forms pull back to degree d.  Its quadric is rewritten as a sum of
    products and each linear factor pulled back.  The decomposition lives
    where ``sum_of_products`` finished: in F's field, or over fp2:p when
    a root is missing from fp:p.  The summand count is at most
    ceil((N+1)/2).
    """
    vmap = lift.vmap
    sop = sum_of_products(lift.record)
    pairs = [(vmap.pullback(l), vmap.pullback(m)) for l, m in sop.pairs]
    if len(pairs) > (vmap.N + 2) // 2:
        raise AssertionError("summand count escaped the ceil((N+1)/2) bound")
    return FormDecomposition(lift.source.embed(sop.quadric.field), pairs)


@dataclass
class PresentationReport:
    case: str
    size: int
    ulrich_rank: int
    secant_index: int
    summand_count: int
    entries: list


def _recursion_input(decomp):
    """The pairs the Clifford recursion of N runs on, and the form l it starts from.

    A square pair (l, l) is folded in as l * Gamma unless it is the only
    pair; then there is no start.
    """
    pairs = decomp.summands
    if decomp.square_term_flag and decomp.k > 1:
        return pairs[:-1], pairs[-1][0]
    return pairs, None


def ulrich_presentation(F, decomp=None):
    """A matrix N of degree-d forms with N * N = F * Id, from a decomposition of F.

    Without a square summand (case a) N is the Clifford recursion on the
    pairs (f_i, g_i), of size 2^k.  With one, F = l^2 + sum f_i g_i over
    the other k - 1 pairs (case b), N = l * Gamma + M for M the recursion
    on those pairs and Gamma = diag((-1)^popcount(i)), which anticommutes
    with M: size 2^(k-1).  A lone square F = l^2 keeps the recursion
    [[0, l], [l, 0]], of size 2.  As a module over k[x], coker(T * Id - N)
    is k[x]^size with T acting by N, so it is an Ulrich sheaf of rank
    size/2 on the double cover T^2 = F.  N * N = F * Id is proved, not
    checked on N: N is the image of the generic Clifford matrix U of its
    shape under the ring map sigma sending the formal pairs to the
    summands, U * U = Q * Id is proved once per shape over Z (see
    ``clifford``), and sigma(Q) = F is the exact recombination check of
    the immutable ``FormDecomposition``.  A given decomposition must
    present F, over F's field or its extension.
    """
    if decomp is None:
        decomp = decompose_form(lift_form(F))
    else:
        _veronese_map(F)
        _check_presents(decomp, F)
    pairs, start = _recursion_input(decomp)
    mf = _clifford_image(pairs, start, decomp.F, decomp)
    report = PresentationReport(
        case="b" if decomp.square_term_flag else "a",
        size=mf.size,
        ulrich_rank=mf.ulrich_rank,
        secant_index=decomp.secant_index,
        summand_count=decomp.k,
        entries=_image_texts(pairs, start),
    )
    return mf, report


@dataclass
class LowerBoundCheck:
    status: str
    zero_dimensional: str | None = None
    e_witness: int | None = None
    inequality_holds: bool | None = None
    witness: tuple | None = None


@dataclass
class RankBounds:
    upper_bound: int
    achieved: int
    case: str
    secant_index: int
    summand_count: int
    lower_check: LowerBoundCheck


def rank_bounds(F, decomp):
    """Upper bound, achieved rank, and the certified lower-bound check.

    The achieved rank is half the size of ``ulrich_presentation``'s N:
    2^(k-1) without a square pair (case a), 2^(k-2) with one (case b,
    k >= 2), and 1 for a lone square, for k summands.  The upper bound
    2^(ceil(N/2)-1) depends only on (n, d): the lift of F is a quadric of
    rank r <= N+1, and ``decompose_form`` writes it with k = ceil(r/2)
    summands, a square pair exactly when r is odd.  An even r <= N+1
    gives k = r/2 <= ceil(N/2) in case a, an odd r gives
    k = (r+1)/2 <= ceil(N/2) + 1 in case b, so the rank is at most
    2^(ceil(N/2)-1) either way (a lone square's 1 too, as N >= 1), with
    equality for a full-rank lift.
    When F is smooth the factor ideal must be zero-dimensional and
    2k >= n+1 must hold; a singular F downgrades the check to
    not-applicable with the witness attached.  The factor ideal is
    searched up to (n+1)(d-1)+1, the only degree that decides: a smooth
    F's factors share no zero, so their ideal vanishes from there on.
    Smoothness is decided in the field of the F given, and the witness
    is a point there; rank is unchanged by field extension, so F and its
    embedding get the same verdict.  The decomposition must present F,
    over F's field or its extension.
    """
    _check_presents(decomp, F)
    n = F.nvars - 1
    d = decomp.d
    N = comb(n + d, d) - 1
    k = decomp.k
    r = decomp.secant_index
    case = "b" if decomp.square_term_flag else "a"
    achieved = 2 ** len(_recursion_input(decomp)[0]) // 2
    smooth = is_smooth_hypersurface(F)
    if smooth.verdict == SMOOTH:
        factors = [h for pair in decomp.summands for h in pair]
        zd = is_zero_dimensional(GradedSystem(factors), e_max=(n + 1) * (d - 1) + 1)
        inequality = 2 * k >= n + 1
        if zd.verdict == YES and inequality:
            status = "certified"
        elif zd.verdict == YES:
            status = "failed: 2k >= n+1"
        elif zd.verdict == NO:
            status = "failed: factor ideal"
        else:
            status = "inconclusive: factor ideal"
        check = LowerBoundCheck(
            status=status,
            zero_dimensional=zd.verdict,
            e_witness=zd.e_witness,
            inequality_holds=inequality,
            witness=zd.point,
        )
    else:
        check = LowerBoundCheck(
            status="not applicable: F singular", witness=smooth.witness
        )
    return RankBounds(
        upper_bound=2 ** ((N + 1) // 2 - 1),
        achieved=achieved,
        case=case,
        secant_index=r,
        summand_count=k,
        lower_check=check,
    )


def _scalar_candidates(field, rng, max_trials):
    seen = set()
    k = 0
    canonical = [0]
    while len(canonical) < max_trials:
        k += 1
        canonical.extend((k, -k))
    for v in canonical:
        s = field.from_int(v)
        if s not in seen:
            seen.add(s)
            yield s
    while True:
        yield field.random_scalar(rng)


def normalize_plane_decomposition(F, decomp, seed=0, max_trials=20):
    """Rewrite a two-summand plane decomposition into normalized position.

    Searches scalars alpha then beta, smallest first (0, 1, -1, 2, ...),
    so that F = F_a * G_b + F_b * G_a with F_a and F_b smooth and
    (F_b, G_a) meeting transversally in d^2 distinct points.  Every
    rewrite is an exact identity.  One record holds the deepest attempt,
    by the checks in order (input smoothness, first factor, second
    factor, transversality): the summands it leaves, the check that
    failed it (``failed_certificate``, None once all pass) and the
    certificates it earned.
    """
    if F.nvars != 3:
        raise ValueError("normalization works with plane forms only")
    if decomp.k != 2:
        raise ValueError("need exactly two summands")
    if decomp.F != F:
        raise ValueError("decomposition does not present F")
    if max_trials < 1:
        raise ValueError(f"max_trials must be at least 1, got {max_trials}")
    (f1, g1), (f2, g2) = decomp.summands
    rng = random.Random(seed)
    input_smooth = is_smooth_hypersurface(F)
    summands, failed, earned = decomp.summands, "input smoothness", {"input_smooth": input_smooth}
    alphas = ()
    if input_smooth.verdict == SMOOTH:
        failed, alphas = "first factor smoothness", _scalar_candidates(F.field, rng, max_trials)
    # a smooth F_alpha can still dead-end (every F_beta through a singular
    # point of G_alpha), so exhausting beta moves on to the next alpha
    for _, alpha in zip(range(max_trials), alphas):
        f_alpha = f1 + f2.scale(alpha)
        if f_alpha.is_zero:
            continue
        first_smooth = is_smooth_hypersurface(f_alpha)
        if first_smooth.verdict != SMOOTH:
            continue
        g_alpha = g2 - g1.scale(alpha)
        if failed == "first factor smoothness":
            summands, failed = ((f_alpha, g1), (f2, g_alpha)), "second factor smoothness"
            earned.update(alpha=alpha, first_factor_smooth=first_smooth)
        for _, beta in zip(range(max_trials), _scalar_candidates(F.field, rng, max_trials)):
            f_beta = f2 + f_alpha.scale(beta)
            if f_beta.is_zero:
                continue
            second_smooth = is_smooth_hypersurface(f_beta)
            if second_smooth.verdict != SMOOTH:
                continue
            cross = certify_transversal(f_beta, g_alpha, seed=seed)
            if cross.verdict != TRANSVERSAL and failed != "second factor smoothness":
                continue
            earned.update(
                alpha=alpha, first_factor_smooth=first_smooth, second_factor_smooth=second_smooth, transversality=cross
            )
            if cross.verdict != TRANSVERSAL:
                summands, failed = ((f_alpha, g1), (f2, g_alpha)), "transversality"
                continue
            summands, failed = ((f_alpha, g1 - g_alpha.scale(beta)), (f_beta, g_alpha)), None
            earned["beta"] = beta
            break
        if failed is None:
            break
    out = FormDecomposition(F, summands)
    out.certificates.update(earned, failed_certificate=failed)
    return out
