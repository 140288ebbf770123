"""Matrix factorizations A with A * A = q * Id for quadrics q.

The build consumes a sum-of-products decomposition q = sum l_i * m_i
and assembles matrices of linear forms recursively:

    A_1 = [[0, l_1], [m_1, 0]],
    A_{k+1} = [[A_k, l_{k+1} * I], [m_{k+1} * I, -A_k]],

so s pairs give a 2^s by 2^s matrix presenting a sheaf of rank 2^(s-1)
on the quadric.  The same recursion on pairs of degree-d forms, started
from A_0 = (l) for a square summand l^2, gives the source-ring
presentations of ``veronese``.

Every matrix built this way is the image of one generic matrix per
shape.  Run the recursion on s formal pairs (y_0, y_1), ...,
(y_{2s-2}, y_{2s-1}), started from y_{2s} when there is a square: the
result U = sum_a y_a U_a has entries 0 and +-1, each entry holding at
most one y_a, and it is the Clifford module of the generic quadric
Q_s = sum_i y_{2i} y_{2i+1} (+ y_{2s}^2) (Buchweitz-Eisenbud-Herzog
1987).  U * U = Q_s * Id is checked exactly once per shape (s, square)
and process, over the rationals; as U has integer entries, the identity
then holds in Z[y] and so in every field.  The substitution sigma
sending y to the pairs (l_1, m_1, ..., l) is a ring map, so
N = sigma(U) satisfies N * N = sigma(Q_s) * Id, and sigma(Q_s) is the
quadric by the exact recombination check of the decomposition
(``SumOfProducts``, ``veronese.FormDecomposition``), which is
immutable.  That is the proof every build records: the substitution
writes c or -c for each coefficient c of each pair and multiplies
nothing, and no built matrix is checked again.

A matrix is kept as a pencil A = sum_m x^m A_m of scalar matrices, one
per monomial, whose entries are raw values (see ``fields``), and
``_substituted`` assembles every pencil: sigma(U) from the signed
positions of each U_a, a matrix read as entries from one unsigned
position per entry.  For any pencil,

    A * A = sum_mu x^mu sum_{m + m' = mu} A_m A_m',

so A * A = q * Id holds exactly when, for every monomial mu, the
products A_m A_m' with m + m' = mu sum to q_mu * I.  For a linear
pencil each mu = x_i x_j has one pair, and these are the Clifford
relations A_j^2 = q_jj * I and A_i A_j + A_j A_i = q_ij * I.  This
relation check proves the generic matrices, and it decides a matrix
read from text: the pencil and q are read-only, so each
``MatrixFactorization`` decides it at most once, on first use, and
keeps the answer, which a built matrix holds from its build.

The determinant certificate det A = sign * q^(size/2) has two routes.
A built matrix carries its sign from the build, fixed by its shape.
Write U_k for the recursion after k pairs and Q_k for its quadric;
U_k * U_k = Q_k * Id follows from the proved U * U = Q_s * Id by
setting the later pairs to zero, which leaves +-U_k in the diagonal
blocks.  In U_{k+1} = [[U_k, y * I], [y' * I, -U_k]] the lower-left
block commutes with -U_k, so (Silvester 2000, "Determinants of block
matrices")

    det U_{k+1} = det(-U_k^2 - y * y' * I) = det(-Q_{k+1} * I)
                = (-Q_{k+1})^(2^k),

that is det U = -Q_s at size 2 and Q_s^(size/2) from size 4 on.  As
sigma is a ring map, det sigma(U) = sigma(det U): every built matrix
has det N = sign * q^(size/2) with sign -1 at size 2 and +1 from size
4 on, in every field here (odd or zero characteristic), and its
certificate draws no point.  Only q = 0, where either sign holds, goes
the way of a matrix read as entries, and no point can fix a sign.

A matrix read as entries gets its sign from the relation check and
one point.  When the relations hold, det(A)^2 = q^size in the domain
k[x], so det A = sign * q^(size/2) with one sign everywhere (Eisenbud
1980), and one point with q != 0 fixes that sign: the certificate is a
proof.  A matrix that fails the relations is only sampled: random
points check det A = sign * q^(size/2) with one consistent sign.  At
each point q, and A summed from its pencil, are evaluated on raw
values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import add as _add
from types import MappingProxyType

from .fields import FieldSpec
from .linalg import _det_raw
from .poly import Poly, _term_values, _units
from .quadform import SumOfProducts

def _items(row):
    """The (column, value) pairs of a sparse row (c_0, v_0, c_1, v_1, ...)."""
    it = iter(row)
    return zip(it, it)


class MatrixFactorization:
    """A square matrix of polynomials, normally linear forms, with its target quadric.

    ``pencil`` is a read-only map from each monomial (an exponent tuple)
    to its coefficient matrix A_m, so that the matrix is sum_m x^m A_m.
    Each A_m is a tuple of sparse rows, a row being the flat tuple
    (c_0, v_0, c_1, v_1, ...) of its columns and nonzero raw values,
    which keeps a pencil small.  A matrix of linear forms has one A_m
    per variable that occurs; other monomials come only from matrices
    read as text, which ``verify_clifford`` rejects and
    ``determinant_certificate`` still checks exactly.
    ``quadric`` is a ``Poly``, read-only too, and ``squares_to_quadric``
    is the one answer to A * A = quadric * Id.  A matrix read as entries
    decides it by the relation check on its first read and keeps it; a
    built matrix holds it from its build, which proved its generic
    shape once and substituted exactly recombining pairs (see the
    module docstring), so the check never runs on it; it holds the sign
    of its determinant from the build as well.  ``source`` is the
    decomposition a built matrix came from, and None for one read as
    entries.  ``entries`` gives the matrix back as polynomials, computed
    on each read from the same raw values.
    """

    __slots__ = ("field", "nvars", "size", "pencil", "quadric", "source", "_squares", "_sign")

    def __init__(self, entries, quadric):
        size = len(entries)
        if size == 0 or any(len(row) != size for row in entries):
            raise ValueError("entries must form a square matrix")
        field, nvars = quadric.field, quadric.nvars
        flat = [e for row in entries for e in row]
        if any(e.field != field or e.nvars != nvars for e in flat):
            raise ValueError("entry from the wrong ring")
        positions = [((i, j, False),) for i in range(size) for j in range(size)]
        self._set(size, _substituted(positions, [e.raw for e in flat], field.arith, size), quadric, None)

    @classmethod
    def _from_pencil(cls, size, pencil, quadric, source, sign=None):
        """A factorization from its pencil; a ``sign`` records proofs made elsewhere.

        With a sign, A * A = quadric * Id and det A = sign * quadric^(size/2)
        are both taken as proved, as ``_clifford_image`` proves them.
        """
        self = object.__new__(cls)
        self._set(size, pencil, quadric, source, sign)
        return self

    def _set(self, size, pencil, quadric, source, sign=None):
        object.__setattr__(self, "field", quadric.field)
        object.__setattr__(self, "nvars", quadric.nvars)
        object.__setattr__(self, "size", size)
        # squares_to_quadric keeps its answer, so neither input may change;
        # a Poly is read-only already
        object.__setattr__(self, "pencil", MappingProxyType(pencil))
        object.__setattr__(self, "quadric", quadric)
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "_squares", None if sign is None else True)
        object.__setattr__(self, "_sign", sign)

    def __setattr__(self, *_):
        raise AttributeError("MatrixFactorization is immutable")

    @property
    def entries(self):
        """The matrix as rows of polynomials."""
        field, nvars, size = self.field, self.nvars, self.size
        raw = [[{} for _ in range(size)] for _ in range(size)]
        for exps, rows in self.pencil.items():
            for i, row in enumerate(rows):
                for j, v in _items(row):
                    raw[i][j][exps] = v
        return tuple(tuple(Poly._make(field, nvars, t) for t in row) for row in raw)

    @property
    def squares_to_quadric(self):
        """Whether A * A = quadric * Id; the relation check runs on the first read only.

        A built matrix was proved by its build, so no read checks it.
        """
        if self._squares is None:
            object.__setattr__(self, "_squares", _squares_to_quadric(self))
        return self._squares

    @property
    def ulrich_rank(self):
        return self.size // 2

    def __repr__(self):
        return f"MatrixFactorization({self.size}x{self.size} over {self.field})"


def _recursion(s, square):
    """The rows of U, the recursion on s formal pairs, as (column, variable, negated) triples.

    Pair i is (y_{2i}, y_{2i+1}), and A_0 is (y_{2s}) with ``square``,
    (0) without.  Each step keeps A_k in the top left and -A_k in the
    bottom right, so y_{2s} ends up as y_{2s} * Gamma with
    Gamma = diag((-1)^popcount(i)), which anticommutes with the
    recursion on the pairs: the square is Q_s * Id either way.  -A is
    carried along, so that no sign is flipped twice.
    """

    def shifted(row, n):
        return [(j + n, a, negated) for j, a, negated in row]

    plus = [[(0, 2 * s, False)] if square else []]
    minus = [[(0, 2 * s, True)] if square else []]
    for a in range(0, 2 * s, 2):
        n = len(plus)
        plus, minus = (
            [row + [(n + i, a, False)] for i, row in enumerate(plus)]
            + [[(i, a + 1, False)] + shifted(row, n) for i, row in enumerate(minus)],
            [row + [(n + i, a, True)] for i, row in enumerate(minus)]
            + [[(i, a + 1, True)] + shifted(row, n) for i, row in enumerate(plus)],
        )
    return plus


def _substituted(signed, forms, ar, size):
    """The pencil with the raw map forms[a] at the (row, column, negated) positions signed[a].

    For sigma(U) these are the positions of U_a, negated at its -1s; no
    two forms share a position, so nothing is multiplied or added.
    """
    neg = ar.neg
    pencil = {}
    for positions, form in zip(signed, forms, strict=True):
        for exps, c in form.items():
            rows = pencil.get(exps)
            if rows is None:
                rows = pencil[exps] = [[] for _ in range(size)]
            values = (c, neg(c))
            for i, j, negated in positions:
                rows[i] += (j, values[negated])
    return {exps: tuple(map(tuple, rows)) for exps, rows in pencil.items()}


@lru_cache(maxsize=None)
def _generic_pencil(s, square):
    """The signed entries of each U_a, once U * U = Q_s * Id is proved for the shape.

    For each formal variable y_a (a < 2s, and a = 2s with ``square``)
    the tuple of (row, column, negated) positions where U_a holds +1,
    or -1 when negated.  The relation check runs on U over q; U has
    integer entries, so the identity holds in Z[y] and in every field.
    A shape that fails raises AssertionError, which is not cached.
    """
    nvars = 2 * s + square
    signed = [[] for _ in range(nvars)]
    for i, row in enumerate(_recursion(s, square)):
        for j, a, negated in row:
            signed[a].append((i, j, negated))
    signed = tuple(map(tuple, signed))
    q = FieldSpec.rationals()
    one, units = q.arith.one, _units(nvars)
    halves = [(a, a + 1) for a in range(0, 2 * s, 2)] + ([(2 * s, 2 * s)] if square else [])
    generic = Poly._make(q, nvars, {tuple(map(_add, units[a], units[b])): one for a, b in halves})
    pencil = _substituted(signed, [{u: one} for u in units], q.arith, 2**s)
    if not _squares_to_quadric(MatrixFactorization._from_pencil(2**s, pencil, generic, None)):
        raise AssertionError(f"generic Clifford matrix of shape {(s, square)} fails U * U = Q * Id")
    return signed


def _clifford_image(pairs, start, quadric, source):
    """sigma(U) for the pairs (l_i, m_i) and, unless None, the square root ``start``.

    The caller vouches that sum l_i * m_i (+ start^2) is ``quadric``
    exactly; with the generic shape proved, the result records
    N * N = quadric * Id as proved, and with it the sign of
    det N = sign * quadric^(size/2) that the shape fixes: -1 at size 2,
    +1 from size 4 on (see the module docstring).
    """
    square = start is not None
    forms = [h.raw for pair in pairs for h in pair] + ([start.raw] if square else [])
    size = 2 ** len(pairs)
    signed = _generic_pencil(len(pairs), square)
    pencil = _substituted(signed, forms, quadric.field.arith, size)
    sign = -1 if size == 2 else 1
    return MatrixFactorization._from_pencil(size, pencil, quadric, source, sign)


def _image_texts(pairs, start):
    """The entries of sigma(U) as text, for the pairs and square root of ``_clifford_image``.

    Each form and its negation are rendered once and placed at the
    signed positions of U; every other entry is "0".  The texts are
    those of ``MatrixFactorization.entries``, as no two variables share
    a position.
    """
    square = start is not None
    forms = [h for pair in pairs for h in pair] + ([start] if square else [])
    size = 2 ** len(pairs)
    grid = [["0"] * size for _ in range(size)]
    for positions, form in zip(_generic_pencil(len(pairs), square), forms, strict=True):
        texts = (str(form), str(-form))
        for i, j, negated in positions:
            grid[i][j] = texts[negated]
    return grid


def build_clifford_factorization(sop):
    """The factorization of sop.quadric: sigma(U) for its pairs, proved.

    Every pair must consist of nonzero linear forms; the result is a
    2^s sized matrix whose square is the quadric times the identity.  A
    ``SumOfProducts`` recombines to its quadric exactly and cannot
    change, and the generic shape is proved once per process, so the
    built matrix is not checked again.
    """
    if not isinstance(sop, SumOfProducts):
        raise TypeError("need a SumOfProducts")
    if not sop.pairs:
        raise ValueError("need at least one pair of linear forms")
    for l, m in sop.pairs:
        for h in (l, m):
            if h.is_zero or not h.is_homogeneous() or h.homogeneous_degree() != 1:
                raise ValueError("pair entries must be nonzero linear forms")
    return _clifford_image(sop.pairs, None, sop.quadric, sop)


def _squares_to_quadric(mf):
    """Whether A * A equals quadric * Id exactly, for any pencil A = sum_m x^m A_m.

    A * A = sum_mu x^mu S_mu, where S_mu sums A_m A_m' over the ordered
    pairs with m + m' = mu.  So the identity holds exactly when every
    S_mu is q_mu * I (zero for a mu outside q) and every monomial of q
    is some m + m'.  Each S_mu is built row by row from the unordered
    pairs (A_m * A_m, or A_m A_m' + A_m' A_m) that share mu, and
    compared only once they are all in.  It proves each generic shape
    once, and it decides matrices read as entries; a built matrix never
    reaches it.
    """
    ar = mf.field.arith
    add, mul, zero = ar.add, ar.mul, ar.zero
    monomials = list(mf.pencil)
    groups = {}
    for k, m in enumerate(monomials):
        for l in range(k, len(monomials)):
            mu = tuple(map(_add, m, monomials[l]))
            groups.setdefault(mu, []).append((k, l))
    targets = mf.quadric.raw
    if any(mu not in groups for mu in targets):
        return False
    matrices = [[tuple(_items(row)) for row in rows] for rows in mf.pencil.values()]
    for mu, pairs in groups.items():
        c = targets.get(mu, zero)
        products = []
        for k, l in pairs:
            a, b = matrices[k], matrices[l]
            products += ((a, a),) if k == l else ((a, b), (b, a))
        for i in range(mf.size):
            acc = {}
            for x, y in products:
                for h, v in x[i]:
                    for j, w in y[h]:
                        u = mul(v, w)
                        acc[j] = add(acc[j], u) if j in acc else u
            if acc.pop(i, zero) != c or any(v != zero for v in acc.values()):
                return False
    return True


def verify_clifford(mf):
    """Exact check that A * A equals quadric * Id, by the Clifford relations.

    Every entry must be zero or homogeneous linear and the quadric a
    quadratic form, so a matrix read back from text is validated
    structurally first.  For such a pencil the relations of
    ``_squares_to_quadric`` are A_j^2 = q_jj * I and
    A_i A_j + A_j A_i = q_ij * I, which say, coefficient by coefficient,
    what the symbolic product says.  A built matrix passes the gate and
    reads the proof its build recorded.
    """
    if any(sum(exps) != 1 for exps in mf.pencil):
        return False
    if any(sum(exps) != 2 for exps in mf.quadric.raw):
        return False
    return mf.squares_to_quadric


@dataclass
class DeterminantCertificate:
    """The outcome of det A = sign * quadric^(size/2), and how it was reached.

    With ``proof`` true the identity is proved: a built matrix with
    q != 0 carries the sign its shape fixes (no point drawn, ``tested``
    and ``skipped`` 0), and a matrix read as entries that passes the
    relation check takes its sign from one point with q != 0
    (``tested`` 1).  Otherwise ``ok`` means that all ``tested`` points
    agreed on ``sign``, a sampled check.  ``skipped`` counts the points
    drawn with q = 0, and ``reason`` says why a failed certificate failed.
    """

    ok: bool
    sign: int | None
    tested: int
    skipped: int
    reason: str | None = None
    proof: bool = False


def determinant_certificate(mf, trials=50, seed=0):
    """Certificate that det A = sign * quadric^(size/2) with one sign.

    Only an even size is certified: for an odd one the certificate
    fails before any point is drawn.  A built matrix with q != 0 then
    returns the sign its build recorded, -1 at size 2 and +1 from size
    4 on, as a proof with no point drawn (see the module docstring).
    A matrix read as entries gets the exact relation check of
    ``mf.squares_to_quadric``.  When A * A = q * Id holds in k[x],
    det(A)^2 = q^size, and k[x] is a domain, so
    (det A - q^(size/2)) (det A + q^(size/2)) = 0 forces
    det A = sign * q^(size/2) with one sign for all x (Eisenbud 1980).
    One point with q != 0 then fixes the sign, and the certificate is a
    proof (``proof`` true, ``tested`` at most 1).  A matrix that fails the
    relations may still have det A = +-q^(size/2) (diag(x, y) with
    q = x*y), so it is sampled at ``trials`` points, and the sign must
    be the same at every one of them.  Points with q = 0 are skipped
    (the determinant vanishes there by design and certifies nothing),
    at most 20 * trials of them either way.  At each point q is
    evaluated on raw values and A is summed from its pencil,
    A(p)[i][j] = sum_m p^m A_m[i][j].  ``trials`` must be at least 1.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    size = mf.size
    if size % 2:
        reason = f"odd size {size}: det A = sign*q^(size/2) needs an even size"
        return DeterminantCertificate(False, None, 0, 0, reason=reason)
    if mf._sign is not None and mf.quadric.raw:
        # with q = 0 either sign holds, and the points below refuse it
        return DeterminantCertificate(True, mf._sign, 0, 0, proof=True)
    proof = mf.squares_to_quadric
    wanted = 1 if proof else trials
    field = mf.field
    ar = field.arith
    add, neg, mul, zero = ar.add, ar.neg, ar.mul, ar.zero
    monomials = dict.fromkeys(mf.pencil, ar.one)
    rng = random.Random(seed)
    half = size // 2
    sign = None
    tested = skipped = 0
    budget = 20 * trials
    while tested < wanted and budget:
        budget -= 1
        coords = [ar.of(field.random_scalar(rng)) for _ in range(mf.nvars)]
        qv = reduce(add, _term_values(mf.quadric.raw, coords, ar), zero)
        if qv == zero:
            skipped += 1
            continue
        numeric = [[zero] * size for _ in range(size)]
        for power, rows in zip(_term_values(monomials, coords, ar), mf.pencil.values()):
            for out, row in zip(numeric, rows):
                for j, v in _items(row):
                    out[j] = add(out[j], mul(power, v))
        dv = _det_raw(numeric, field)
        expected = ar.pow(qv, half)
        if dv == expected:
            point_sign = 1
        elif dv == neg(expected):
            point_sign = -1
        else:
            return DeterminantCertificate(
                False, None, tested, skipped, reason="determinant escaped sign*q^(size/2)"
            )
        if sign is None:
            sign = point_sign
        elif sign != point_sign:
            return DeterminantCertificate(
                False, None, tested, skipped, reason="sign flipped between sample points"
            )
        tested += 1
    if tested == 0:
        return DeterminantCertificate(
            False, None, 0, skipped, reason="no sample point had q nonzero"
        )
    return DeterminantCertificate(True, sign, tested, skipped, proof=proof)
