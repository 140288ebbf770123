"""Command-line front end emitting deterministic JSON reports.

Exit codes: 0 for a verified success, 1 for a mathematical failure
(a certificate that fails, a missing witness, a singular form, an
internal self-check that fails), 2 for usage and parse errors,
including a stray division by zero.  Reports carry {version, command, config, ok,
result|error}; the same argv always produces byte-identical output.
Each subcommand is one row of ``COMMANDS``, which gives it only the
options its handler reads, spelled in full; any other is a usage error.
``config`` echoes all six keys in every envelope, an absent option at
its default and ``e_max`` always null: the form fixes every degree bound.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, NamedTuple

from . import __version__
from .clifford import (
    MatrixFactorization,
    _image_texts,
    build_clifford_factorization,
    determinant_certificate,
    verify_clifford,
)
from .cover import (
    check_branch_splitting,
    keem_counterexample_certificate,
    riemann_hurwitz,
)
from .fields import ExtensionNeeded, FieldSpec
from .graded import SMOOTH, GradedSystem, hilbert_value, is_smooth_hypersurface
from .poly import Poly, infer_nvars, parse_poly
from .quadform import diagonalize, gram_from_poly, pencil_determinant, sum_of_products
from .resultants import certify_transversal
from .veronese import (
    FormDecomposition,
    decompose_form,
    lift_form,
    normalize_plane_decomposition,
    rank_bounds,
    ulrich_presentation,
)


def _read_polys(args, field, config, expected=None, minimum=None, floor_nvars=1):
    """The polynomials of the --file lines and positionals, by ``_parse_texts``."""
    texts = []
    if args.file:
        with open(args.file, encoding="utf-8") as fh:
            for line in fh:
                line = line.split("#", 1)[0].strip()
                if line:
                    texts.append(line)
    texts.extend(args.poly)
    if expected is not None and len(texts) != expected:
        raise ValueError(f"expected {expected} polynomial(s), got {len(texts)}")
    if minimum is not None and len(texts) < minimum:
        raise ValueError(f"expected at least {minimum} polynomial(s), got {len(texts)}")
    if not texts:
        raise ValueError("no polynomials given")
    return _parse_texts(texts, field, args.nvars, config, floor_nvars)


def _parse_texts(texts, field, nvars, config, floor_nvars=1):
    """The texts parsed once each; their arity then enters config.

    With ``nvars`` None (no --nvars) each text is parsed at the arity
    its own variables name, and all are padded to the largest of these
    and ``floor_nvars``.  When a text fails, a tokenization error in any
    text comes first if the arity is inferred, and leaves config as it
    was; otherwise the first error of the texts in order, at their
    common arity, is raised with that arity in config.  Only this error
    path reads a text twice.  A subcommand's default --max-trials is in
    config before any text is read, so every error envelope shows it.
    """
    try:
        polys = [parse_poly(t, field, nvars) for t in texts]
    except ValueError:
        if nvars is None:
            nvars = max(max(map(infer_nvars, texts)), floor_nvars)
        config["nvars"] = nvars
        for t in texts:
            parse_poly(t, field, nvars)
        raise
    if nvars is None:
        nvars = max(max(p.nvars for p in polys), floor_nvars)
        polys = [_padded(p, nvars) for p in polys]
    config["nvars"] = nvars
    return polys


def _padded(poly, nvars):
    """The polynomial in ``nvars`` variables, the ones it lacks unused."""
    pad = (0,) * (nvars - poly.nvars)
    if not pad:
        return poly
    return Poly._make(poly.field, nvars, {e + pad: v for e, v in poly.raw.items()})


def _gram_strings(gram):
    return [[str(v) for v in row] for row in gram]


def _point_strings(point):
    return None if point is None else [str(c) for c in point]


# ---------------------------------------------------------------- handlers


def _cmd_quad_rank(args, field, q):
    rec = gram_from_poly(q)
    return {"rank": rec.rank, "gram": _gram_strings(rec.gram)}, True


def _cmd_quad_diag(args, field, q):
    diag = diagonalize(gram_from_poly(q))
    return {
        "diagonal": [str(v) for v in diag.diagonal],
        "lambdas": [str(l) for l in diag.lambdas],
        "p_matrix": _gram_strings(diag.p_matrix),
    }, True


def _cmd_quad_sop(args, field, q):
    sop = sum_of_products(gram_from_poly(q))
    return {
        "pairs": [[str(l), str(m)] for l, m in sop.pairs],
        "square_term_flag": sop.square_term_flag,
        "working_field": str(sop.quadric.field),
        "quadric": str(sop.quadric),
    }, True


def _cmd_quad_pencil_det(args, field, r, q):
    det = pencil_determinant(gram_from_poly(r), gram_from_poly(q))
    coeffs = det.univariate_coefficients()
    return {
        "determinant": str(det),
        "coefficients": [str(c) for c in coeffs],
        "degree": None if det.is_zero else len(coeffs) - 1,
    }, True


def _cmd_mf_build(args, field, q):
    sop = sum_of_products(gram_from_poly(q))
    mf = build_clifford_factorization(sop)
    return {
        "size": mf.size,
        "ulrich_rank": mf.ulrich_rank,
        "working_field": str(mf.field),
        "quadric": str(mf.quadric),
        "pairs": [[str(l), str(m)] for l, m in sop.pairs],
        "entries": _image_texts(sop.pairs, None),
    }, True


def _matrix(quadric, entries):
    size = len(entries)
    side = int(round(size**0.5))
    if side * side != size:
        raise ValueError(f"entry count {size} is not a perfect square")
    rows = [entries[i * side : (i + 1) * side] for i in range(side)]
    return MatrixFactorization(rows, quadric)


def _cmd_mf_verify(args, field, quadric, *entries):
    mf = _matrix(quadric, entries)
    verified = verify_clifford(mf)
    return {"verified": verified, "size": mf.size}, verified


def _cmd_mf_det_cert(args, field, quadric, *entries):
    mf = _matrix(quadric, entries)
    cert = determinant_certificate(mf, trials=args.max_trials, seed=args.seed)
    return {
        "certified": cert.ok,
        "sign": cert.sign,
        "tested": cert.tested,
        "skipped": cert.skipped,
        "reason": cert.reason,
        "proof": cert.proof,
    }, cert.ok


def _decomposition_result(decomp):
    return {
        "summands": [[str(l), str(m)] for l, m in decomp.summands],
        "square_term_flag": decomp.square_term_flag,
        "field": str(decomp.F.field),
        "secant_index": decomp.secant_index,
    }


def _lower_check_result(check):
    return {
        "status": check.status,
        "zero_dimensional": check.zero_dimensional,
        "e_witness": check.e_witness,
        "inequality_holds": check.inequality_holds,
        "witness": _point_strings(check.witness),
    }


def _lower_check_ok(check):
    """A lower-bound check that failed or is inconclusive does not verify."""
    return not check.status.startswith(("failed", "inconclusive"))


def _bounds_result(bounds):
    return {
        "upper_bound": bounds.upper_bound,
        "achieved": bounds.achieved,
        "case": bounds.case,
        "secant_index": bounds.secant_index,
        "summand_count": bounds.summand_count,
        "lower_check": _lower_check_result(bounds.lower_check),
    }


def _cmd_ulrich_pipeline(args, field, F):
    lift = lift_form(F)
    decomp = decompose_form(lift)
    mf, report = ulrich_presentation(F, decomp)
    bounds = rank_bounds(F, decomp)
    ok = bounds.achieved == mf.ulrich_rank and _lower_check_ok(bounds.lower_check)
    return {
        "lift": {
            "n": lift.vmap.n,
            "d": lift.vmap.d,
            "N": lift.vmap.N,
            "rank": lift.record.rank,
            "gram": _gram_strings(lift.record.gram),
        },
        "decomposition": _decomposition_result(decomp),
        "factorization": {
            "size": report.size,
            "ulrich_rank": report.ulrich_rank,
            "case": report.case,
            "verified": True,
            "entries": report.entries,
        },
        "rank_report": _bounds_result(bounds),
    }, ok


def _cmd_ulrich_bounds(args, field, F):
    decomp = decompose_form(lift_form(F))
    bounds = rank_bounds(F, decomp)
    ok = _lower_check_ok(bounds.lower_check)
    return {
        "decomposition": _decomposition_result(decomp),
        "rank_report": _bounds_result(bounds),
    }, ok


def _cmd_ulrich_normalize(args, field, F, f1, g1, f2, g2):
    decomp = FormDecomposition(F, ((f1, g1), (f2, g2)))
    out = normalize_plane_decomposition(F, decomp, seed=args.seed, max_trials=args.max_trials)
    certs = out.certificates
    failed = certs.get("failed_certificate")
    tv = certs.get("transversality")
    result = {
        "summands": [[str(l), str(m)] for l, m in out.summands],
        "alpha": None if certs.get("alpha") is None else str(certs["alpha"]),
        "beta": None if certs.get("beta") is None else str(certs["beta"]),
        "failed_certificate": failed,
        "transversality": None
        if tv is None
        else {"verdict": tv.verdict, "points": tv.points, "reason": tv.reason},
    }
    return result, failed is None


def _cmd_hilbert_value(args, field, *gens):
    value = hilbert_value(GradedSystem(gens), args.degree)
    return {"degree": args.degree, "value": value}, True


def _cmd_smooth_check(args, field, F):
    res = is_smooth_hypersurface(F, seed=args.seed)
    return {
        "verdict": res.verdict,
        "e_used": res.e_used,
        "witness": _point_strings(res.witness),
    }, res.verdict == SMOOTH


def _profile_result(profile):
    return {
        "h": profile.h,
        "d": profile.d,
        "g": profile.g,
        "branch_degree": profile.branch_degree,
        "hypothesis_flag": profile.hypothesis_flag,
    }


def _cmd_cover_rh(args, field):
    profile = riemann_hurwitz(args.h, args.d)
    identity = f"2*{profile.g}-2 = 2*(2*{profile.h}-2)+2*{profile.d}"
    return {**_profile_result(profile), "identity": identity}, True


def _cmd_cover_split_check(args, field, F1, r, l, m, a):
    res = check_branch_splitting(F1, r, l, m, a)
    if res:
        return {"witness": str(res.witness)}, True
    return {"witness": None, "reason": res.reason}, False


def _cmd_cover_transversal(args, field, f, g):
    res = certify_transversal(f, g, seed=args.seed, max_trials=args.max_trials)
    return {
        "verdict": res.verdict,
        "points": res.points,
        "reason": res.reason,
        "trials": res.trials,
    }, res.verdict == "transversal"


def _cmd_cover_keem(args, field):
    cert = keem_counterexample_certificate(field)
    return {
        "certified": cert.ok,
        "field": cert.field,
        "i": cert.i_value,
        "pencil_determinant": cert.pencil_determinant,
        "chain": cert.chain,
        "profile": _profile_result(cert.profile),
        "dependencies": list(cert.dependencies),
    }, cert.ok


# ---------------------------------------------------------------- commands


class Command(NamedTuple):
    """A subcommand's ``handler(args, field, *polys)``, the ``_read_polys``
    arguments for its texts (None if it reads none, else it has --nvars and
    --file), the (flags, keywords) of its own options, --seed among them,
    and its default --max-trials (None: it has no --max-trials).
    """

    handler: Callable
    texts: dict | None = None
    options: tuple = ()
    budget: int | None = None


def _option(*flags, **kwargs):
    return flags, kwargs


GROUPS = {
    "quad": "quadratic form operations",
    "mf": "matrix factorizations",
    "ulrich": "double-cover pipelines",
    "hilbert": "graded dimensions",
    "smooth": "smoothness decision",
    "cover": "double covers of curves",
}

_ONE_TEXT = {"expected": 1}
_SEED = _option("--seed", type=int, default=0)

COMMANDS = {
    "quad rank": Command(_cmd_quad_rank, _ONE_TEXT),
    "quad diag": Command(_cmd_quad_diag, _ONE_TEXT),
    "quad sop": Command(_cmd_quad_sop, _ONE_TEXT),
    "quad pencil-det": Command(_cmd_quad_pencil_det, {"expected": 2}),
    "mf build": Command(_cmd_mf_build, _ONE_TEXT),
    "mf verify": Command(_cmd_mf_verify, {"minimum": 2}),
    "mf det-cert": Command(_cmd_mf_det_cert, {"minimum": 2}, (_SEED,), budget=50),
    "ulrich pipeline": Command(_cmd_ulrich_pipeline, _ONE_TEXT),
    "ulrich bounds": Command(_cmd_ulrich_bounds, _ONE_TEXT),
    "ulrich normalize": Command(_cmd_ulrich_normalize, {"expected": 5, "floor_nvars": 3}, (_SEED,), budget=20),
    "hilbert value": Command(
        _cmd_hilbert_value, {"minimum": 1}, (_option("-e", "--degree", type=int, required=True),)
    ),
    "smooth check": Command(_cmd_smooth_check, _ONE_TEXT, (_SEED,)),
    "cover rh": Command(
        _cmd_cover_rh,
        options=(_option("--h", type=int, required=True), _option("--d", type=int, required=True)),
    ),
    "cover split-check": Command(_cmd_cover_split_check, {"expected": 5, "floor_nvars": 3}),
    "cover transversal": Command(_cmd_cover_transversal, {"expected": 2, "floor_nvars": 3}, (_SEED,), budget=8),
    "cover keem-counterexample": Command(_cmd_cover_keem),
}


# ---------------------------------------------------------------- plumbing


def _add_common(sub, command):
    sub.add_argument("--field", default="q", help="q, qi, fp:P, or fp2:P")
    if command.texts is not None:
        sub.add_argument("--nvars", type=int, default=None)
        sub.add_argument("--file", default=None, help="one polynomial per line, # comments")
        sub.add_argument("poly", nargs="*", help="polynomial text")
    if command.budget is not None:
        sub.add_argument("--max-trials", dest="max_trials", type=int)
    sub.add_argument("--output", choices=("json", "text"), default="json")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ulrich-forge",
        description="exact matrix factorizations of quadrics and double-cover pipelines",
        allow_abbrev=False,
    )
    top = parser.add_subparsers(dest="group", required=True)
    groups = {
        group: top.add_parser(group, help=text, allow_abbrev=False).add_subparsers(dest="verb", required=True)
        for group, text in GROUPS.items()
    }
    for name, command in COMMANDS.items():
        group, verb = name.split(" ")
        sub = groups[group].add_parser(verb, allow_abbrev=False)
        _add_common(sub, command)
        for flags, kwargs in command.options:
            sub.add_argument(*flags, **kwargs)
        sub.set_defaults(command=name, seed=0, nvars=None, max_trials=command.budget)
    return parser


def _render_text(value, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {_scalar_text(v)}")
    elif isinstance(value, list):
        for v in value:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar_text(v)}")
    else:
        lines.append(f"{pad}{_scalar_text(value)}")
    return lines


def _scalar_text(v):
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    return str(v)


def _emit(payload, output):
    if output == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print("\n".join(_render_text(payload)))


@functools.cache
def _parser():
    """The argparse tree, built once per process; parsing leaves it unchanged."""
    return build_parser()


def _subcommands(parser):
    """The subcommand parsers of ``parser`` by name; empty for a leaf."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    return {}


def _mark_texts(argv):
    """argv with each polynomial text that starts with "-" kept positional.

    argparse takes any token that starts with "-" for an option, so
    ``quad rank -x^2`` would be a usage error.  A token is a polynomial
    text when it starts with a single "-" and is neither an option
    string of its subcommand, nor a short option with its value attached
    (``-e2``), nor the value of an option.  It gets a leading space,
    which argparse reads as positional and the polynomial parser skips.
    Everything after "--" is positional already.
    """
    parser, out, previous = _parser(), [], None
    for k, token in enumerate(argv):
        if token == "--":
            return out + argv[k:]
        options, subcommands = parser._option_string_actions, _subcommands(parser)
        if token in subcommands:
            parser = subcommands[token]
        elif (
            token.startswith("-")
            and not token.startswith("--")
            and len(token) > 1
            and token[:2] not in options
            and not (previous in options and options[previous].nargs is None)
        ):
            token = " " + token
        out.append(token)
        previous = token
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    args, unknown = _parser().parse_known_args(_mark_texts(argv))
    if unknown:
        # reported with the usage of the subcommand, which names the options it takes
        group, verb = args.command.split(" ")
        subcommand = _subcommands(_subcommands(_parser())[group])[verb]
        subcommand.error(f"unrecognized arguments: {' '.join(unknown)}")
    config = {
        "field": args.field,
        "seed": args.seed,
        "nvars": args.nvars,
        "e_max": None,
        "max_trials": args.max_trials,
        "output": args.output,
    }
    envelope = {"version": __version__, "command": args.command, "config": config}
    command = COMMANDS[args.command]
    try:
        for flag, value in (("--max-trials", args.max_trials), ("--nvars", args.nvars)):
            if value is not None and value < 1:
                raise ValueError(f"{flag} must be at least 1, got {value}")
        field = FieldSpec.parse(args.field)
        polys = () if command.texts is None else _read_polys(args, field, config, **command.texts)
        result, ok = command.handler(args, field, *polys)
    except ExtensionNeeded as exc:
        envelope["ok"] = False
        envelope["error"] = f"extension needed: no square root of {exc.element}"
        _emit(envelope, args.output)
        return 1
    except AssertionError as exc:
        # an internal self-check (e.g. the Clifford construction's) failed
        envelope["ok"] = False
        envelope["error"] = f"internal check failed: {exc}"
        _emit(envelope, args.output)
        return 1
    except ZeroDivisionError as exc:
        envelope["ok"] = False
        envelope["error"] = f"division by zero: {exc}"
        _emit(envelope, args.output)
        return 2
    except (ValueError, OSError) as exc:
        envelope["ok"] = False
        envelope["error"] = str(exc)
        _emit(envelope, args.output)
        return 2
    envelope["ok"] = ok
    envelope["result"] = result
    _emit(envelope, args.output)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
