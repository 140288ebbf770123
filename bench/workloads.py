"""The three benchmark workloads: input generation, one item, output check.

Each workload turns a seed into a fixed batch of items.  ``run_item``
calls the library and nothing else; ``check_item`` runs outside the
timed region and returns a failure reason or None.  The checks use the
benchmark's own arithmetic or frozen expected values, not the
library's verdicts, and they test invariants rather than the exact
pairings a decomposition happens to choose.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------- helpers


def _fp2_mul(x, y, p, nu):
    return ((x[0] * y[0] + nu * x[1] * y[1]) % p, (x[0] * y[1] + x[1] * y[0]) % p)


def _fp2_add(x, y, p):
    return ((x[0] + y[0]) % p, (x[1] + y[1]) % p)


def _pair(c):
    return (c.a, c.b)


def _linear_value(form, point, p, nu):
    """Value of a linear form (zero included) at a point of fp2 pairs."""
    total = (0, 0)
    for exps, coeff in form.terms.items():
        total = _fp2_add(total, _fp2_mul(_pair(coeff), point[exps.index(1)], p, nu), p)
    return total


def _add_term(terms, exps, value, p):
    s = terms.get(exps, (0, 0))
    s = ((s[0] + value[0]) % p, (s[1] + value[1]) % p)
    if s == (0, 0):
        terms.pop(exps, None)
    else:
        terms[exps] = s


def _poly_mod(a, b, p):
    """Remainder of ascending coefficient lists mod p; b has a nonzero top."""
    a = a[:]
    inv = pow(b[-1], -1, p)
    while len(a) >= len(b):
        f = a[-1] * inv % p
        shift = len(a) - len(b)
        for i, c in enumerate(b):
            a[shift + i] = (a[shift + i] - f * c) % p
        while a and not a[-1]:
            a.pop()
    return a


def _resultant_mod_p(a, b, p):
    """Res(a, b) of trimmed ascending coefficient lists, by Euclid mod p."""
    acc = 1
    while len(b) > 1:
        r = _poly_mod(a, b, p)
        if not r:
            return 0
        da, db, dr = len(a) - 1, len(b) - 1, len(r) - 1
        acc = acc * pow(b[-1], da - dr, p) % p
        if da % 2 and db % 2:
            acc = -acc % p
        a, b = b, r
    return acc * pow(b[0], len(a) - 1, p) % p


def _interpolate_mod_p(ys, values, p):
    """Ascending coefficients of the polynomial through (ys, values) mod p."""
    coeffs = [0] * len(ys)
    for i, (yi, vi) in enumerate(zip(ys, values)):
        basis, denom = [1], 1
        for j, yj in enumerate(ys):
            if j != i:
                basis = [((basis[k - 1] if k else 0) - yj * (basis[k] if k < len(basis) else 0)) % p
                         for k in range(len(basis) + 1)]
                denom = denom * (yi - yj) % p
        scale = vi * pow(denom, -1, p) % p
        for k, c in enumerate(basis):
            coeffs[k] = (coeffs[k] + scale * c) % p
    return coeffs


def transversal_mod_p(f, g, degree, p):
    """True when the unchanged projection certifies f, g transversal mod p.

    f and g map (i, j, k) exponents of x, y, z to residues mod p.  With
    nonzero x^d coefficients, Res_x(f, g) on the chart z = 1 is a
    polynomial r(y) of degree at most d^2; it is found here from d^2+1
    values.  Full degree and gcd(r, r') = 1 mod p mean d^2 distinct
    transversal points mod p, and the same then holds over any field
    that reduces to these coefficients.
    """
    if not f.get((degree, 0, 0)) or not g.get((degree, 0, 0)):
        return False
    target = degree * degree
    ys = list(range(target + 1))
    values = []
    for y in ys:
        rows = []
        for h in (f, g):
            c = [0] * (degree + 1)
            for (i, j, _), v in h.items():
                c[i] = (c[i] + v * pow(y, j, p)) % p
            rows.append(c)
        values.append(_resultant_mod_p(rows[0], rows[1], p))
    r = _interpolate_mod_p(ys, values, p)
    if not r[target]:
        return False
    a, b = r, [k * c % p for k, c in enumerate(r)][1:]
    while len(b) > 1:
        a, b = b, _poly_mod(a, b, p)
        if not b:
            return False
    return True


# ---------------------------------------------------------- clifford_family


class Workload:
    """generate(lib, seed, smoke) -> items; run_item; check_item; kind."""

    # pace.py kernel parts that scale set-up times and, by default, items
    SETUP_PACE = ("alloc",)

    def output_bytes(self, out):
        """Bytes an item printed; only the CLI workload prints."""
        return 0

    def pace_parts(self, item):
        """pace.py kernel parts matching the work of ``item``."""
        return self.SETUP_PACE


class CliffordFamily(Workload):
    """fp:101 quadrics in 7 variables of exact rank 1..7, factored and certified.

    Inputs come from the acceptance generator: G = P^T D P with P a
    random invertible matrix and D diagonal with ``rank`` nonzero
    entries, so the rank is known by construction.
    """

    name = "clifford_family"
    NVARS = 7
    PER_RANK = 20

    def generate(self, lib, seed, smoke):
        field = lib.fields.FieldSpec.prime(101)
        rng = random.Random(seed)
        per_rank = 1 if smoke else self.PER_RANK
        items = []
        for rank in range(1, self.NVARS + 1):
            for _ in range(per_rank):
                gram = self._gram_of_exact_rank(lib, field, rank, rng)
                items.append((rank, gram, lib.quadform.record_from_gram(field, gram)))
        return items

    def _gram_of_exact_rank(self, lib, field, rank, rng):
        n = self.NVARS
        while True:
            p = [[field.random_scalar(rng) for _ in range(n)] for _ in range(n)]
            if lib.linalg.det([list(r) for r in p], field):
                break
        d = [
            [field.random_nonzero_scalar(rng) if i == j and i < rank else field.zero for j in range(n)]
            for i in range(n)
        ]
        mat_mul, transpose = lib.linalg.mat_mul, lib.linalg.transpose
        return mat_mul(mat_mul(transpose(p), d, field), p, field)

    def kind(self, item):
        return f"rank{item[0]}"

    def run_item(self, lib, item):
        rank, _, record = item
        sop = lib.uf.sum_of_products(record)
        mf = lib.uf.build_clifford_factorization(sop)
        cert = lib.uf.determinant_certificate(mf, trials=50, seed=rank)
        return sop, mf, cert

    def check_item(self, lib, item, out, rng):
        rank, gram, _ = item
        sop, mf, cert = out
        if not cert.ok:
            return f"determinant certificate failed: {cert.reason}"
        if mf.size != 2 ** ((rank + 1) // 2):
            return f"size {mf.size} for rank {rank}"
        field = mf.field
        p, nu = field.p, field.nu or 0
        # the quadric x^T G x, read straight off the generated Gram matrix
        quadric = {}
        n = self.NVARS
        for i in range(n):
            for j in range(i, n):
                v = gram[i][j].a * (1 if i == j else 2) % p
                if v:
                    exps = tuple((k == i) + (k == j) for k in range(n))
                    quadric[exps] = (v, 0)
        total = {}
        for l, m in sop.pairs:
            for e1, c1 in l.terms.items():
                for e2, c2 in m.terms.items():
                    exps = tuple(a + b for a, b in zip(e1, e2))
                    _add_term(total, exps, _fp2_mul(_pair(c1), _pair(c2), p, nu), p)
        if total != quadric:
            return "pairs do not recombine to the quadric"
        point = [(rng.randrange(p), rng.randrange(p)) for _ in range(n)]
        qv = (0, 0)
        for exps, coeff in quadric.items():
            v = coeff
            for k, e in enumerate(exps):
                for _ in range(e):
                    v = _fp2_mul(v, point[k], p, nu)
            qv = _fp2_add(qv, v, p)
        a = [[_linear_value(e, point, p, nu) for e in row] for row in mf.entries]
        size = mf.size
        for i in range(size):
            for j in range(size):
                s = (0, 0)
                for k in range(size):
                    s = _fp2_add(s, _fp2_mul(a[i][k], a[k][j], p, nu), p)
                if s != (qv if i == j else (0, 0)):
                    return f"A(p)*A(p) != Q(p)*I at entry ({i}, {j})"
        return None


# ----------------------------------------------------------- plane_pipeline


class PlanePipeline(Workload):
    """``ulrich pipeline`` through ``cli.main`` on seeded smooth plane forms."""

    name = "plane_pipeline"
    FIELDS = ("fp:101", "fp:32003")
    MIX = ((4, 16), (6, 6), (8, 1))
    SMOKE_MIX = ((4, 1),)

    def __init__(self):
        import jsonschema

        schema = json.loads((ROOT / "docs" / "schema.json").read_text())
        self._validator = jsonschema.Draft7Validator(schema)
        self._first = {}

    def generate(self, lib, seed, smoke):
        rng = random.Random(seed)
        items = []
        for text in self.FIELDS:
            field = lib.fields.FieldSpec.parse(text)
            for degree, count in self.SMOKE_MIX if smoke else self.MIX:
                for _ in range(count):
                    while True:
                        form = lib.uf.random_homogeneous(field, 3, degree, rng)
                        if lib.uf.is_smooth_hypersurface(form).verdict == "smooth":
                            break
                    items.append((text, degree, str(form)))
        return items

    def kind(self, item):
        return f"{item[0]}.deg{item[1]}"

    def output_bytes(self, out):
        return len(out[1].encode())

    def run_item(self, lib, item):
        field, _, form = item
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib.cli.main(["ulrich", "pipeline", "--field", field, form])
        return code, buf.getvalue()

    def check_item(self, lib, item, out, rng):
        code, stdout = out
        if code != 0:
            return f"exit code {code}"
        # later passes must print the bytes the checked first pass printed
        first = self._first.get(item)
        if first is not None:
            return None if stdout == first else "stdout differs from the first pass"
        envelope = json.loads(stdout)
        errors = [e.message for e in self._validator.iter_errors(envelope)]
        if errors:
            return f"envelope fails the schema: {errors[0]}"
        if envelope["ok"] is not True:
            return "envelope ok is not true"
        result = envelope["result"]
        field_text, _, form_text = item
        FieldSpec, parse = lib.fields.FieldSpec, lib.poly.parse_poly
        work = FieldSpec.parse(result["decomposition"]["field"])
        form = parse(form_text, FieldSpec.parse(field_text), nvars=3)
        if work != form.field:
            form = form.embed(work)
        total = lib.poly.Poly.zero(work, 3)
        for l, m in result["decomposition"]["summands"]:
            total = total + parse(l, work, nvars=3) * parse(m, work, nvars=3)
        if total != form:
            return "printed summands do not recombine to F"
        status = result["rank_report"]["lower_check"]["status"]
        if status != "certified":
            return f"lower check {status!r}"
        self._first[item] = stdout
        return None


# ------------------------------------------------------- large_certificates


class LargeCertificates(Workload):
    """Large exact certificates over q, qi and fp:32003.

    Frozen expectations, each backed by a check made while generating:
    quartic surfaces are drawn until smooth modulo 32003, and smooth
    reduction implies smoothness over Q (the Macaulay matrix can only
    lose rank mod p), so their verdict is "smooth"; transversal pairs
    are drawn until ``transversal_mod_p`` certifies them, so they meet
    in d^2 points; the Keem pencil determinant is 1/16.
    """

    name = "large_certificates"
    SETUP_PACE = ("alloc", "bigint")
    # (kind, count, degree) per batch.  The three big certificates set most
    # of wall_s.  The normalizations vary in time from one input to the
    # next, the degree-4 transversality certificates over fp:32003 hardly
    # at all, so those are the majority: both the median and the item with
    # ten items above it fall inside their tight cluster, which lies
    # between the normalizations and the two Keem certificates.
    MIX = (("normalize", 24, 2), ("transversal_fp", 36, 4), ("keem", 2, 0),
           ("surface", 1, 4), ("transversal_q", 1, 5), ("transversal_fp", 1, 6))
    SMOKE_MIX = (("normalize", 1, 2), ("keem", 1, 0), ("surface", 1, 3),
                 ("transversal_q", 1, 3), ("transversal_fp", 1, 3))
    PRIME = 32003

    def generate(self, lib, seed, smoke):
        FieldSpec = lib.fields.FieldSpec
        q, fp = FieldSpec.rationals(), FieldSpec.prime(self.PRIME)
        rng = random.Random(seed)
        items = []
        for kind, count, size in self.SMOKE_MIX if smoke else self.MIX:
            for k in range(count):
                if kind == "normalize":
                    data = self._c7_input(lib, q, rng) + (k,)
                elif kind == "keem":
                    data = (seed + k,)
                elif kind == "surface":
                    data = (self._smooth_surface(lib, q, fp, size, rng),)
                else:
                    data = self._transversal_pair(lib, q if kind == "transversal_q" else fp, size, rng)
                items.append((kind, size, data))
        return items

    def _residues(self, form):
        p = self.PRIME
        if form.field.kind == "fp":
            return {e: c.a for e, c in form.terms.items()}
        return {e: c.a.numerator * pow(c.a.denominator, -1, p) % p for e, c in form.terms.items()}

    def _c7_input(self, lib, q, rng):
        uf = lib.uf
        while True:
            f1, g1, f2, g2 = (uf.random_homogeneous(q, 3, 2, rng, span=3) for _ in range(4))
            form = f1 * g1 + f2 * g2
            if not form.is_zero and uf.is_smooth_hypersurface(form).verdict == "smooth":
                return form, uf.FormDecomposition(form, ((f1, g1), (f2, g2)))

    def _smooth_surface(self, lib, q, fp, degree, rng):
        uf = lib.uf
        while True:
            form = uf.random_homogeneous(q, 4, degree, rng, span=1)
            reduced = lib.poly.Poly(fp, 4, self._residues(form))
            if len(reduced.terms) == len(form.terms) and uf.is_smooth_hypersurface(reduced).verdict == "smooth":
                return form

    def _transversal_pair(self, lib, field, degree, rng):
        while True:
            pair = tuple(lib.uf.random_homogeneous(field, 3, degree, rng, span=3) for _ in range(2))
            if transversal_mod_p(*(self._residues(h) for h in pair), degree, self.PRIME):
                return pair

    def kind(self, item):
        return f"{item[0]}.{item[1]}"

    def pace_parts(self, item):
        # arithmetic mod p does not touch big integers
        return ("alloc",) if item[0] == "transversal_fp" else self.SETUP_PACE

    def run_item(self, lib, item):
        kind, _, data = item
        uf = lib.uf
        if kind == "normalize":
            form, decomp, k = data
            return uf.normalize_plane_decomposition(form, decomp, seed=k, max_trials=20)
        if kind == "keem":
            return uf.keem_counterexample_certificate(lib.fields.FieldSpec.gaussian_rationals(), trials=100, seed=data[0])
        if kind == "surface":
            return uf.is_smooth_hypersurface(data[0])
        return uf.certify_transversal(data[0], data[1])

    def check_item(self, lib, item, out, rng):
        kind, size, data = item
        if kind == "normalize":
            certs = out.certificates
            if certs.get("failed_certificate") is not None:
                return f"normalization failed at {certs['failed_certificate']}"
            for key in ("first_factor_smooth", "second_factor_smooth"):
                if certs[key].verdict != "smooth":
                    return f"{key} is {certs[key].verdict}"
            if certs["transversality"].points != 4:
                return f"transversality counted {certs['transversality'].points} points"
            (fa, gb), (fb, ga) = out.summands
            if fa * gb + fb * ga != data[0]:
                return "normalized summands do not recombine to F"
            return None
        if kind == "keem":
            if not out.ok or out.pencil_determinant != "1/16":
                return f"keem certificate ok={out.ok} pencil={out.pencil_determinant}"
            return None
        if kind == "surface":
            return None if out.verdict == "smooth" else f"surface verdict {out.verdict}"
        if out.verdict != "transversal" or out.points != size * size:
            return f"transversality {out.verdict} with {out.points} points"
        return None


WORKLOADS = {w.name: w for w in (CliffordFamily, PlanePipeline, LargeCertificates)}
