"""TT-SNN benchmark: compiled training and open-loop serving workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in a fresh interpreter
(``workload.py``) with BLAS pinned to BLAS_THREADS threads.  With
``--trace 0`` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json, with ``--trace 1`` its per-layer metrics; the lines
before it print every metric with its unit, the operation counts and the
environment record.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import measure
from workload import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = 1
#: Each workload must finish well inside the 180 s a run may take.
CHILD_TIMEOUT_S = 170

#: Workload-specific names printed next to the generic metric names.
ALIASES = {
    "train": {"throughput_per_s": "train_samples_per_s", "p50_ms": "step_p50_ms",
              "tail_ms": "step_tail_ms"},
    "serve": {"throughput_per_s": "serve_closed16_rps", "p50_ms": "serve_p50_ms.low",
              "tail_ms": "serve_tail_ms.low"},
}
#: Per-layer metrics that do not apply to a workload kind; reported as 0.
TRAIN_ONLY = ("data.", "optim.", "training.")
SERVE_ONLY = ("serve.",)


def not_applicable(kind: str, name: str) -> bool:
    return name.startswith(SERVE_ONLY if kind == "train" else TRAIN_ONLY)


def run_workload(name: str, args, spec_metrics) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(BLAS_THREADS, os.cpu_count() or 1))
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    command = [sys.executable, str(HERE / "workload.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(OUT)]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: workload {name} exceeded {CHILD_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: workload {name} exited with code {proc.returncode}")
    record = json.loads(lines[-1])
    kind = WORKLOADS[name]["kind"]
    metrics = record["metrics"]
    for metric in spec_metrics:
        if metric["name"] not in metrics:
            if not (args.trace and not_applicable(kind, metric["name"])):
                raise SystemExit(f"perfbench: workload {name} did not report {metric['name']}")
            metrics[metric["name"]] = 0.0
    record["metrics"] = {m["name"]: metrics[m["name"]] for m in spec_metrics}
    return record


def report(name: str, record: dict, spec_metrics, args) -> None:
    kind = WORKLOADS[name]["kind"]
    print(f"== {name}  seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env: " + json.dumps(record["env"], sort_keys=True))
    for metric in spec_metrics:
        value = record["metrics"][metric["name"]]
        alias = ALIASES[kind].get(metric["name"])
        label = f"{metric['name']} [{alias}]" if alias else metric["name"]
        print(f"  {label:<44} {value:>14.6g} {metric['unit']}  ({metric['better']} is better)")
    failed_frac = record["failed"] / max(record["attempted"], 1)
    print(f"  {'failed_frac':<44} {failed_frac:>14.6g} frac  "
          f"({record['failed']} of {record['attempted']} operations; "
          f"causes {record['failure_causes'] or 'none'})")
    for problem in record["violations"]:
        print(f"  violation: {problem}")
    print("info: " + json.dumps(record["info"], sort_keys=True))
    print(f"correct: {record['correct']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    problems = measure.selftest()
    if problems:
        print("perfbench: self-test failed: " + "; ".join(problems), file=sys.stderr)
        return 3
    spec_metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    records = {}
    for name in names:
        record = run_workload(name, args, spec_metrics)
        (OUT / f"result-{name}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, sort_keys=True))
        report(name, record, spec_metrics, args)
        records[name] = record

    units = {m["name"]: m["unit"] for m in spec_metrics}
    prefix = len(names) > 1
    print(json.dumps({
        "correct": all(r["correct"] for r in records.values()),
        "attempted": sum(r["attempted"] for r in records.values()),
        "failed": sum(r["failed"] for r in records.values()),
        "metrics": {(f"{name}/{metric}" if prefix else metric): {"value": value,
                                                                  "unit": units[metric]}
                    for name, record in records.items()
                    for metric, value in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
