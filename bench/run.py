"""Benchmark of ulrich-forge: one workload per process, end to end or traced.

    python3 bench/run.py --workload clifford_family --seed 2024 --seconds 30 --trace 0
    python3 bench/run.py --workload all

A run makes ``round(seconds / pass_seconds)`` passes (at least four)
over the workload's fixed batch.  ``pass_seconds`` in spec.json is the
share of ``--seconds`` one pass stands for, not its length: each
workload gets five passes at 30 seconds, so the certificates workload,
whose passes last about 10 seconds, runs longer than the others.  Items
run one after another in this process (a closed loop with one client),
and every output is checked outside the timed region.  Before each pass
the run sets the library up afresh (import, seeded inputs, one warm-up
item), at least ``MIN_SETUPS`` times in all, and ``setup_s`` is the
median of these set-ups.  The pass count depends only on ``--seconds``,
so the parent and a change run the same number of items; only a run
that would last longer than ``OVERRUN`` times ``--seconds`` stops early.

Every time is given at a fixed machine pace (see ``pace.py``): while
the runner times set-ups and items, a timer signal interrupts them
every 50 ms to time a small reference kernel, and each time is
reported without those interruptions and scaled by the kernel's
nominal over its measured time around it (the workload picks the
kernel parts that match each item's arithmetic).  The shared host drifts by
20-40 % over seconds to minutes, in CPU time as much as in wall time,
and the scaling takes that drift out while leaving any change of the
library's own speed in.

``--trace 0`` prints the end-to-end metrics.  Each item's time is the
median of its scaled runs in the passes, which are spread over the
whole run.  ``item_ms_p50`` is the median of these item times,
``item_ms_tail`` the one with ten items above it (its percentile and
the item count are in the report), and ``wall_s`` their sum, the time
one pass over the batch takes.  The report line also gives the raw
(unscaled) set-up times, pass walls and item times, and the pace.

``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics of the fastest traced pass, times scalar arithmetic
in its own untraced pass, and writes every span to ``.bench_out/``.
The last line of stdout is the result object; the line before it is a
report with the environment.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from contextlib import nullcontext

from pace import Pace
from tracer import PACKAGE, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((HERE / "spec.json").read_text())
OUT_DIR = ROOT / ".bench_out"

MODULES = ("cli", "clifford", "cover", "fields", "graded", "linalg", "poly", "quadform", "resultants", "veronese")

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("item_ms_p50", "ms"),
    ("item_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
)

FIELD_KINDS = ("fp", "fp2", "q", "qi")
PER_LAYER = (
    (("fields.scalar_new", "count"),)
    + tuple((f"fields.mul_ns.{k}", "ns") for k in FIELD_KINDS)
    + tuple((f"fields.inv_ns.{k}", "ns") for k in FIELD_KINDS)
    + (
        ("poly.mul.calls", "count"),
        ("poly.mul.self_s", "s"),
        ("poly.evaluate.calls", "count"),
        ("poly.evaluate.self_s", "s"),
        ("poly.parse.self_s", "s"),
        ("linalg.rank.calls", "count"),
        ("linalg.rank.cells", "cells"),
        ("linalg.rank.self_s", "s"),
        ("linalg.det.calls", "count"),
        ("linalg.det.self_s", "s"),
        ("linalg.poly_matrix_det.self_s", "s"),
        ("linalg.poly_matrix_det.max_n", "rows"),
        ("graded.hilbert_value.calls", "count"),
        ("graded.hilbert_value.self_s", "s"),
        ("graded.macaulay_cells_max", "cells"),
        ("graded.is_smooth_hypersurface.self_s", "s"),
        ("graded.find_projective_zero.calls", "count"),
        ("quadform.sum_of_products.self_s", "s"),
        ("quadform.gram_from_poly.self_s", "s"),
        ("quadform.field_moves", "count"),
        ("quadform.stay_ratio", "ratio"),
        ("clifford.build.self_s", "s"),
        ("clifford.verify.calls", "count"),
        ("clifford.verify.self_s", "s"),
        ("clifford.det_cert.self_s", "s"),
        ("clifford.det_cert.useful_ratio", "ratio"),
        ("clifford.size_max", "rows"),
        ("resultants.sylvester.calls", "count"),
        ("resultants.sylvester.self_s", "s"),
        ("resultants.transversal.trials", "count"),
        ("resultants.transversal.useful_ratio", "ratio"),
        ("veronese.lift_form.self_s", "s"),
        ("veronese.decompose_form.self_s", "s"),
        ("veronese.ulrich_presentation.self_s", "s"),
        ("veronese.rank_bounds.self_s", "s"),
        ("veronese.normalize.self_s", "s"),
        ("veronese.normalize.smooth_checks", "count"),
        ("cover.keem.self_s", "s"),
        ("cli.main.self_s", "s"),
        ("cli.stdout_bytes", "bytes"),
        ("trace.overhead_s", "s"),
    )
)

# passes a run makes at least, so that each item's median is taken over
# four or more runs
MIN_PASSES = 4

# set-ups a run makes at least: one before every pass, and a second one
# before the first passes of a run with fewer passes than this
MIN_SETUPS = 5

# no pass starts that would, at the mean pass time so far, end past this
# multiple of --seconds
OVERRUN = 2.0

# scalar micro-measurements: operands per field and timed repetitions
MICRO_OPERANDS = 2000
MICRO_REPEATS = 9


class Library:
    """The freshly imported package and its modules."""

    def __init__(self):
        for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        self.uf = importlib.import_module(PACKAGE)
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


class Raised:
    def __init__(self, text):
        self.text = text


def _median(values):
    return statistics.median(values) if values else 0.0


def _commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment():
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def _tail(times_ms):
    """The item time with ten items above it, its percentile, and the count above."""
    ordered = sorted(times_ms)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    beyond = n - 1 - index
    return ordered[index], 100.0 * (index + 1) / n, beyond


# ---------------------------------------------------------------- layers


def _has_ancestor(rows, index, name):
    parent = rows[index][3]
    while parent >= 0:
        if rows[parent][0] == name:
            return True
        parent = rows[parent][3]
    return False


def _layer_metrics(tracer, stdout_bytes):
    rows = tracer.span_rows()
    self_s, calls = {}, {}
    for name, *_, self_time in rows:
        self_s[name] = self_s.get(name, 0.0) + self_time
        calls[name] = calls.get(name, 0) + 1
    for _, name, n, seconds in tracer.leaf_rows():
        self_s[name] = self_s.get(name, 0.0) + seconds
        calls[name] = calls.get(name, 0) + n
    counts, maxima = tracer.counts, tracer.maxima

    def ratio(num, den):
        return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0

    metrics = {"fields.scalar_new": tracer.scalar_new[0], "cli.stdout_bytes": stdout_bytes}
    for name, unit in PER_LAYER:
        stem, _, last = name.rpartition(".")
        if last == "self_s":
            metrics[name] = self_s.get(stem, 0.0)
        elif last == "calls":
            metrics[name] = calls.get(stem, 0)
    metrics.update(
        {
            "linalg.rank.cells": counts.get("linalg.rank.cells", 0),
            "linalg.poly_matrix_det.max_n": maxima.get("linalg.poly_matrix_det.max_n", 0),
            "graded.macaulay_cells_max": maxima.get("graded.macaulay_cells_max", 0),
            "quadform.field_moves": counts.get("quadform.sum_of_products.attempted", 0)
            - counts.get("quadform.sum_of_products.stayed", 0),
            "quadform.stay_ratio": ratio("quadform.sum_of_products.stayed", "quadform.sum_of_products.attempted"),
            "clifford.det_cert.useful_ratio": ratio("clifford.det_cert.tested", "clifford.det_cert.drawn"),
            "clifford.size_max": maxima.get("clifford.size_max", 0),
            "resultants.transversal.trials": counts.get("resultants.transversal.trials", 0),
            "resultants.transversal.useful_ratio": ratio(
                "resultants.transversal.certified", "resultants.transversal.trials"
            ),
            "veronese.normalize.smooth_checks": sum(
                1
                for index, row in enumerate(rows)
                if row[0] == "graded.is_smooth_hypersurface" and _has_ancestor(rows, index, "veronese.normalize")
            ),
        }
    )
    return metrics


def _field_micro(lib, seed):
    """ns per scalar multiply and inverse, untraced, on seeded operands."""
    FieldSpec = lib.fields.FieldSpec
    fields = {
        "fp": FieldSpec.prime(101),
        "fp2": FieldSpec.quadratic(101),
        "q": FieldSpec.rationals(),
        "qi": FieldSpec.gaussian_rationals(),
    }
    out = {}
    for kind, field in fields.items():
        rng = random.Random(f"{seed}:{kind}")
        xs = [field.random_nonzero_scalar(rng) for _ in range(MICRO_OPERANDS)]
        ys = [field.random_nonzero_scalar(rng) for _ in range(MICRO_OPERANDS)]
        mul, inv = [], []
        for _ in range(MICRO_REPEATS):
            start = perf_counter()
            for a, b in zip(xs, ys):
                a * b
            mul.append(perf_counter() - start)
            start = perf_counter()
            for a in xs:
                a.inverse()
            inv.append(perf_counter() - start)
        out[f"fields.mul_ns.{kind}"] = _median(mul) / MICRO_OPERANDS * 1e9
        out[f"fields.inv_ns.{kind}"] = _median(inv) / MICRO_OPERANDS * 1e9
    return out


# ---------------------------------------------------------------- one run


def _set_up(workload, seed, smoke):
    """Import the library afresh, make the inputs and run one item."""
    with Pace() as pace:
        start = perf_counter()
        lib = Library()
        items = workload.generate(lib, seed, smoke)
        workload.run_item(lib, items[0])
        end = perf_counter()
    return (lib, items, *pace.scaled(start, end, workload.SETUP_PACE))


def measure(name, seed, seconds, trace, smoke):
    spec = SPEC["workloads"][name]
    workload = WORKLOADS[name]()

    passes = 1 if smoke else max(MIN_PASSES, round(seconds / spec["pass_seconds"]))
    if trace:
        passes = max(passes, 2)
    setups, raw_setups, walls = [], [], {False: [], True: []}
    item_ms, raw_item_ms, paces, failures, tracers, layer_rows = [], [], [], [], [], []
    attempted = 0
    run_start = perf_counter()
    for pass_no in range(passes):
        # a much slower machine or program stops before the next pass would
        # take the run past OVERRUN times --seconds
        elapsed = perf_counter() - run_start
        if pass_no >= (2 if trace else 1) and elapsed * (pass_no + 1) / pass_no > OVERRUN * seconds:
            break
        # a fresh set-up before every pass spreads the set-up samples over the run
        for _ in range(1 if smoke or pass_no >= MIN_SETUPS - passes else 2):
            lib, items, scaled, own = _set_up(workload, seed, smoke)
            setups.append(scaled)
            raw_setups.append(own)

        traced = bool(trace) and pass_no % 2 == 1
        tracer = Tracer() if traced else None
        if traced:
            tracer.install(lib)
        outs, stretches = [], []
        # traced passes report no times that need the pace
        with nullcontext() if traced else Pace() as pace:
            for index, item in enumerate(items):
                if traced:
                    tracer.begin_item(pass_no, index)
                start = perf_counter()
                try:
                    out = workload.run_item(lib, item)
                except Exception:  # a failed item is counted, the run goes on
                    out = Raised(traceback.format_exc())
                stretches.append((start, perf_counter()))
                if traced:
                    tracer.end_item()
                outs.append(out)
        if traced:
            times = [end - start for start, end in stretches]
        else:
            scaled = [pace.scaled(start, end, workload.pace_parts(item)) for (start, end), item in zip(stretches, items)]
            times = [own for _, own in scaled]
        walls[traced].append(sum(times))
        stdout_bytes = 0
        if traced:
            tracer.uninstall()
            tracers.append(tracer)
        else:
            item_ms.append([t * 1000.0 for t, _ in scaled])
            raw_item_ms.append([t * 1000.0 for t in times])
            paces.append(pace.ratio(workload.SETUP_PACE))

        for index, (item, out) in enumerate(zip(items, outs)):
            attempted += 1
            if isinstance(out, Raised):
                reason = "raised " + out.text.strip().splitlines()[-1]
                print(out.text, file=sys.stderr)
            else:
                stdout_bytes += workload.output_bytes(out)
                try:
                    reason = workload.check_item(lib, item, out, random.Random(f"{seed}:{pass_no}:{index}"))
                except Exception:
                    reason = "check raised " + traceback.format_exc().strip().splitlines()[-1]
            if reason:
                failures.append({"pass": pass_no, "item": index, "kind": workload.kind(item), "reason": reason})
        if traced:
            layer_rows.append(_layer_metrics(tracer, stdout_bytes))

    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "passes": len(walls[False]) + len(walls[True]),
        "items_per_pass": len(items),
        "environment": _environment(),
        "setup_runs_s": setups,
        "raw_setup_runs_s": raw_setups,
        "raw_pass_walls_s": walls[False],
        "failed_share": {"value": len(failures) / attempted, "unit": "ratio"},
        "failures": failures[:10],
    }
    if trace:
        fastest = min(range(len(walls[True])), key=walls[True].__getitem__)
        metrics = dict(layer_rows[fastest])
        metrics.update(_field_micro(lib, seed))
        metrics["trace.overhead_s"] = min(walls[True]) - min(walls[False])
        report["traced_pass_walls_s"] = walls[True]
        report["spans_file"] = str(_write_spans(name, seed, tracers).relative_to(ROOT))
        units = PER_LAYER
    else:
        per_item = [_median(runs) for runs in zip(*item_ms)]
        tail, percentile, beyond = _tail(per_item)
        metrics = {
            "setup_s": _median(setups),
            "wall_s": sum(per_item) / 1000.0,
            "item_ms_p50": _median(per_item),
            "item_ms_tail": tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        report["item_ms_tail"] = {"percentile": percentile, "items": len(per_item), "items_beyond": beyond}
        report["pace"] = {"parts": list(workload.SETUP_PACE), "measured_over_nominal": paces}
        report["raw_wall_s"] = sum(_median(runs) for runs in zip(*raw_item_ms)) / 1000.0
        report["pass_item_ms"] = item_ms
        report["raw_pass_item_ms"] = raw_item_ms
        units = END_TO_END
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units},
    }
    return report, result


def _write_spans(name, seed, tracers):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{name}-{seed}.json"
    payload = {
        "workload": name,
        "seed": seed,
        "span_columns": ["name", "start", "end", "parent", "item", "pass", "self_s"],
        "leaf_columns": ["span", "name", "calls", "seconds"],
        "passes": [{"spans": t.span_rows(), "leaves": t.leaf_rows()} for t in tracers],
    }
    path.write_text(json.dumps(payload))
    return path


# ---------------------------------------------------------------- all workloads


def run_all(args):
    """Each workload in its own process, one after another, as a table."""
    failed = False
    for name in SPEC["workloads"]:
        argv = [sys.executable, str(Path(__file__)), "--workload", name,
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            argv += ["--seed", str(args.seed)]
        if args.smoke:
            argv.append("--smoke")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit code {proc.returncode}")
            failed = True
            continue
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        failed |= not result["correct"]
        share = report["failed_share"]
        print(f"{name} (seed {report['seed']}, {result['attempted']} items)")
        for key, metric in result["metrics"].items():
            extra = ""
            if key == "item_ms_tail":
                tail = report["item_ms_tail"]
                extra = f"  (p{tail['percentile']:.1f} of {tail['items']} items, {tail['items_beyond']} beyond)"
            print(f"  {key:40s} {metric['value']:>14.6g} {metric['unit']}{extra}")
        print(f"  {'failed_share':40s} {share['value']:>14.6g} {share['unit']}")
    print(json.dumps({"environment": _environment()}))
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SPEC["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=None, help="default: the workload's seed in spec.json")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny batch, one pass (self-test)")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = ROOT / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"no {PACKAGE} sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    seed = SPEC["workloads"][args.workload]["default_seed"] if args.seed is None else args.seed
    report, result = measure(args.workload, seed, args.seconds, args.trace, args.smoke)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
