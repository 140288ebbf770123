"""Smoke self-test of the benchmark.

    python3 bench/selftest.py

Runs every workload on its tiny ``--smoke`` batch with tracing off and
on, each in its own process, and checks that

* the printed metrics are exactly those BENCHMARK.json names, each with
  its unit and a finite value, and no item failed;
* the report records the commit, the Python version and nproc;
* the spans of the traced run form a tree: children lie inside their
  parent and belong to the same item, self times are not negative, and
  in each item the self times plus the summed leaf times add up to the
  item's root span;
* BENCHMARK.json, spec.json and run.py name the same workloads and
  metrics;
* a copy holding only BENCHMARK.json and bench/ exits non-zero without
  printing a result.

Exits 0 when every check holds and prints each problem otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, OUT_DIR, PER_LAYER, SPEC, Library  # noqa: E402
from tracer import targets  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _traced_names():
    sys.path.insert(0, str(ROOT / "src"))
    rows = targets(Library())
    spans = {"item"} | {name for _, _, kind, name, _ in rows if kind == "span"}
    return spans, {name for _, _, kind, name, _ in rows if kind == "leaf"}


def _run(argv, cwd):
    return subprocess.run(
        [sys.executable, *argv], cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600
    )


def check_declarations():
    problems = []
    declared = {w["name"] for w in BENCHMARK["workloads"]}
    if declared != set(SPEC["workloads"]):
        problems.append(f"workloads differ: BENCHMARK.json {sorted(declared)}, spec.json {sorted(SPEC['workloads'])}")
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in BENCHMARK[key]]
        if declared != list(table):
            problems.append(f"{key} in BENCHMARK.json differs from run.py")
    mapped = [m for row in SPEC["layer_map"] for m in row["metrics"]]
    if sorted(mapped) != sorted(name for name, _ in PER_LAYER):
        problems.append("spec.json layer_map does not cover the per-layer metrics exactly once")
    return problems


def check_spans(path):
    span_names, leaf_names = _traced_names()
    problems = []
    data = json.loads(path.read_text())
    if not data["passes"]:
        return [f"{path.name}: no traced pass"]
    for number, traced in enumerate(data["passes"]):
        spans, leaves = traced["spans"], traced["leaves"]
        leaf_time = {}
        for index, name, calls, seconds in leaves:
            if name not in leaf_names or calls < 1 or seconds < 0:
                problems.append(f"pass {number}: bad leaf row {[index, name, calls, seconds]}")
            leaf_time[index] = leaf_time.get(index, 0.0) + seconds
        roots, summed = {}, {}
        for index, (name, start, end, parent, item, _, self_s) in enumerate(spans):
            where = f"pass {number} span {index} ({name})"
            if name not in span_names:
                problems.append(f"{where}: unknown name")
            if end < start:
                problems.append(f"{where}: ends before it starts")
            if self_s < -1e-9:
                problems.append(f"{where}: negative self time {self_s}")
            if parent < 0:
                if name != "item" or item in roots:
                    problems.append(f"{where}: unexpected root")
                roots[item] = end - start
            else:
                p_name, p_start, p_end, _, p_item, *_ = spans[parent]
                if parent >= index or start < p_start or end > p_end or p_item != item:
                    problems.append(f"{where}: not inside its parent {parent} ({p_name})")
            summed[item] = summed.get(item, 0.0) + self_s + leaf_time.get(index, 0.0)
        if not roots:
            problems.append(f"pass {number}: no item spans")
        for item, duration in roots.items():
            if abs(summed.get(item, 0.0) - duration) > 1e-9 + 1e-9 * duration:
                problems.append(f"pass {number} item {item}: self times sum to {summed[item]}, root lasts {duration}")
    return problems


def check_run(name, trace):
    label = f"{name} --trace {trace}"
    proc = _run([str(HERE / "run.py"), "--workload", name, "--trace", str(trace), "--smoke"], ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return [f"{label}: exit code {proc.returncode}\n{proc.stderr[-2000:]}"]
    report = json.loads(lines[-2])["report"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] != 0 or report["failed_share"]["value"] != 0:
        problems.append(f"{label}: failures {report['failures']}")
    if set(report["environment"]) != {"commit", "python", "nproc"}:
        problems.append(f"{label}: environment {report['environment']}")
    expected = END_TO_END if trace == 0 else PER_LAYER
    printed = [(key, metric["unit"]) for key, metric in result["metrics"].items()]
    if printed != list(expected):
        problems.append(f"{label}: metrics differ from the declared names and units")
    for key, metric in result["metrics"].items():
        value = metric["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{label}: {key} = {value!r}")
    if trace:
        problems += [f"{label}: {p}" for p in check_spans(ROOT / report["spans_file"])]
    return problems


def check_bare_copy():
    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = _run([*BENCHMARK["command"][1:], "--workload", BENCHMARK["workloads"][0]["name"],
                 "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare copy: exit code {proc.returncode}, stdout {proc.stdout[:200]!r}"]
    return []


def main():
    OUT_DIR.mkdir(exist_ok=True)
    problems = check_declarations() + check_bare_copy()
    for name in SPEC["workloads"]:
        for trace in (0, 1):
            found = check_run(name, trace)
            print(f"{name} trace={trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem)
    print("selftest", "passed" if not problems else f"failed with {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
