#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the spamforest batch CLI.

    python3 perfbench/run.py --workload train_default --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, in turn
    python3 perfbench/run.py --smoke                      # tiny sizes, checks only

Run from the repository root. Each workload runs in two fresh processes
(set-up, then measurement) with the BLAS/OpenMP thread count pinned, and
calls ``spamforest.cli.main`` in-process from ``src/``. The load model is
one client in a closed loop: each command runs to completion before the
next starts. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Everything else
(machine facts, per-command times, output hashes, spans) goes to
``.perfbench_out/results/``. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")

sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import tracing  # noqa: E402
import workloads  # noqa: E402

# One BLAS/OpenMP thread, at or below nproc. OpenBLAS threads by default;
# on a small shared machine a second thread competes for the same CPU time
# and makes timings jumpy.
BLAS_THREADS = 1
DEADLINE_S = 170  # every run must end within 180 s

END_TO_END = [
    ("pass_ref", "ref"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
PER_LAYER = [(name, unit) for name, unit, _how, _key in tracing.LAYER_METRICS] \
    + tracing.TRACE_METRICS


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(mode, args, work, deadline, extra=()):
    result = os.path.join(work, f"{mode}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--work", work, "--src", SRC,
           "--result", result, *extra]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError(f"no time left for the {mode} process")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), timeout=remaining,
                              stdin=subprocess.DEVNULL, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process exceeded the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def machine_facts():
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict mode
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas,
            "blas_threads": min(BLAS_THREADS, os.cpu_count() or 1)}


def run_workload(args):
    """Set up and measure one workload; returns the full result record."""
    if not os.path.isfile(os.path.join(SRC, "spamforest", "cli.py")):
        raise BenchError(f"no spamforest package under {SRC}")
    deadline = time.monotonic() + DEADLINE_S
    results_dir = os.path.join(OUT, "results")
    os.makedirs(results_dir, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}-{args.workload}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    tag = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    try:
        setup = run_child("setup", args, work, deadline)
        measure = run_child("measure", args, work, deadline,
                            ["--seconds", str(args.seconds), "--trace", str(args.trace),
                             "--spans", os.path.join(results_dir, f"{tag}.spans.tsv.gz")])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = setup["checks"]["attempted"] + measure["checks"]["attempted"]
    failed = setup["checks"]["failed"] + measure["checks"]["failed"]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": machine_facts(),
        "inputs": measure["info"], "setup_times_s": setup["setup_times_s"],
        "setup_ref": setup["setup_ref"],
        "setup_reference_loop_s": setup["reference_loop_s"],
        "pass_times_s": measure["pass_times_s"],
        "round_pass_s": measure["round_pass_s"],
        "round_pass_ref": measure["round_pass_ref"],
        "reference_loop_s": measure["reference_loop_s"],
        "command_s": measure["command_s"],
        "sha256": measure["sha256"], "final_loss": measure.get("final_loss"),
        "heldout_accuracy": measure.get("heldout_accuracy"),
        "accuracy": measure.get("accuracy"),
        "attempted": attempted, "failed": failed,
        "ops_failed_ratio": failed / attempted,
        "failures": setup["checks"]["messages"] + measure["checks"]["messages"],
        "pass_s": statistics.median(measure["round_pass_s"]),
        "reference_s": statistics.median(measure["reference_loop_s"]),
        "end_to_end": {
            "pass_ref": statistics.median(measure["round_pass_ref"]),
            "peak_rss_mb": measure["peak_rss_mb"],
            "setup_s": setup["setup_s"],
        },
        "setup_wall_s": statistics.median(setup["setup_times_s"]),
    }
    if args.trace:
        record["layers"] = measure["trace"]
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def result_line(record):
    """The last stdout line: correct/attempted/failed plus the metrics."""
    if record["trace"]:
        values, names = record["layers"]["metrics"], PER_LAYER
    else:
        values, names = record["end_to_end"], END_TO_END
    return {"correct": record["failed"] == 0, "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {n: {"value": values[n], "unit": u} for n, u in names}}


def print_report(record):
    """Human-readable lines: every end-to-end figure with its unit."""
    w, info = record["workload"], record["inputs"]
    m = record["machine"]
    print(f"[{w}] seed {record['seed']}  nproc {m['nproc']}  cpu {m['cpu']}  "
          f"python {m['python']}  numpy {m['numpy']}  blas {m['blas']}  "
          f"threads {m['blas_threads']}")
    sizes = {k: v for k, v in info.items() if k != "setup_hashes"}
    print(f"[{w}] inputs {json.dumps(sizes, sort_keys=True)}")
    print(f"[{w}] {len(record['pass_times_s'])} passes in "
          f"{len(record['round_pass_s'])} rounds; median over rounds of the "
          f"mean pass in each round")
    e2e = record["end_to_end"]
    for name, unit in END_TO_END:
        print(f"[{w}] {name:18s} {e2e[name]:.6g} {unit}")
    print(f"[{w}] {'pass_s':18s} {record['pass_s']:.6g} s")
    print(f"[{w}] {'reference_s':18s} {record['reference_s']:.6g} s")
    print(f"[{w}] {'setup_wall_s':18s} {record['setup_wall_s']:.6g} s")
    for name, secs in record["command_s"].items():
        print(f"[{w}] {name + '_s':18s} {secs:.6g} s")
    for name in ("final_loss", "heldout_accuracy", "accuracy"):
        if record[name] is not None:
            unit = "nats+sq" if name == "final_loss" else "ratio"
            print(f"[{w}] {name:18s} {record[name]:.6g} {unit}")
    print(f"[{w}] {'ops_failed_ratio':18s} {record['ops_failed_ratio']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} commands and checks)")
    for rel, digest in sorted(record["sha256"].items()):
        print(f"[{w}] sha256 {rel} {digest}")
    for msg in record["failures"]:
        print(f"[{w}] FAILED {msg}")
    if record["trace"]:
        t = record["layers"]
        for name, unit in PER_LAYER:
            print(f"[{w}] {name:36s} {t['metrics'][name]:.6g} {unit}")
        print(f"[{w}] unattached hooks: {', '.join(t['unattached']) or 'none'}")


def smoke(args):
    """Tiny sizes: every metric printed with its unit, every hook attached."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    problems = []
    for key, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in declared[key]] != names:
            problems.append(f"BENCHMARK.json {key} differs from the code's list")
    if sorted(w["name"] for w in declared["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.py")
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            a = argparse.Namespace(workload=name, seed=args.seed, seconds=1,
                                   trace=trace, size="tiny")
            record = run_workload(a)
            line = result_line(record)
            expected = PER_LAYER if trace else END_TO_END
            for metric, unit in expected:
                got = line["metrics"].get(metric)
                if not got or got["unit"] != unit or not isinstance(got["value"], (int, float)):
                    problems.append(f"{name} trace={trace}: {metric} missing or without unit")
            if not line["correct"]:
                problems.append(f"{name} trace={trace}: failed checks {record['failures']}")
            if trace and record["layers"]["unattached"]:
                problems.append(f"{name}: unattached hooks {record['layers']['unattached']}")
            print(f"smoke {name} trace={trace}: {line['attempted']} checks, "
                  f"{line['failed']} failed")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    return not problems


def main():
    # SIGTERM unwinds like an exception: subprocess.run then kills and waits
    # for the running child, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes; check every metric and hook, then exit")
    args = parser.parse_args()
    args.size = "full"
    try:
        if args.smoke:
            ok = smoke(args)
            print(json.dumps({"smoke": "pass" if ok else "fail"}))
            return 0 if ok else 1
        if args.workload is None:
            parser.error("--workload is required")
        names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
        lines = {}
        for name in names:
            record = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
            print_report(record)
            lines[name] = result_line(record)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(lines[args.workload] if args.workload != "all" else lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
