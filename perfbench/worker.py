"""Child process of the benchmark: one workload's set-up or measurement.

    worker.py setup   --workload W --seed N --size full|tiny --work DIR --src SRC --result F
    worker.py measure --workload W --seed N --size full|tiny --work DIR --src SRC --seconds S --trace 0|1 --result F [--spans G]

``run.py`` starts a fresh process for each, so the measurement process's
peak RSS belongs to the timed commands alone. Results go to the JSON file
named by --result; stdout carries nothing the parent reads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

import checks
import tracing
import workloads


def _check_package(src):
    import spamforest
    where = os.path.realpath(os.path.dirname(spamforest.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"spamforest imported from {where}, not from {src}")


# Set-up is built this many times per run; setup_s is the median build.
SETUP_REPS = 3
# The reference loop's time on a quiet host of the kind described in
# README.md. Set-up times are measured in reference units, like pass_ref,
# and reported in seconds at this nominal speed, so that the host's speed
# drift cancels; the raw seconds are kept in the result file.
NOMINAL_REF_S = 0.055
# Host speed on a shared machine drifts in phases of a few seconds. A round
# is back-to-back passes lasting at least ROUND_S; the median over rounds
# of the mean pass time in each round is steadier than a median over passes.
ROUND_S = 2.5


def do_setup(args, wl):
    """Build the inputs SETUP_REPS times, timing each build against the
    reference loop run before and after it."""
    checker = checks.Checker()
    ref = ReferenceLoop()
    ref_s = [ref.seconds()]
    times, infos = [], []
    for rep in range(SETUP_REPS):
        d = os.path.join(args.work, f"setup{rep}")
        shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        infos.append(wl.setup(d, args.seed, args.size))
        times.append(time.perf_counter() - t0)
        ref_s.append(ref.seconds())
    checker.check("every set-up repetition writes the same inputs",
                  lambda: all(i["setup_hashes"] == infos[0]["setup_hashes"]
                              for i in infos))
    wl.check_setup(checker, os.path.join(args.work, "setup0"), infos[0])
    for rep in range(1, SETUP_REPS):
        shutil.rmtree(os.path.join(args.work, f"setup{rep}"), ignore_errors=True)
    setup_ref = [t / _mean(ref_s[i:i + 2]) for i, t in enumerate(times)]
    return {"setup_times_s": times, "setup_ref": setup_ref,
            "setup_s": statistics.median(setup_ref) * NOMINAL_REF_S,
            "reference_loop_s": ref_s, "info": infos[0],
            "checks": checker.as_dict()}


def _run_pass(wl, d, info, out, checker, tracer=None):
    """One pass over the workload's commands; returns per-command seconds."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    if tracer is not None:
        tracer.install()
    times, codes = {}, {}
    try:
        for name, argv in wl.commands(d, out, info):
            t0 = time.perf_counter()
            try:
                codes[name] = workloads.run_cli(argv, tracer)
            except Exception as exc:  # a crashing command is a failed operation
                codes[name] = f"{type(exc).__name__}: {exc}"
            times[name] = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    for name, code in codes.items():
        checker.check(f"{name} exits 0 (got {code})", lambda c=code: c == 0)
    return times


def do_measure(args, wl):
    setup = _read_json(os.path.join(args.work, "setup.json"))
    info = setup["info"]
    d = os.path.join(args.work, "setup0")
    out = os.path.join(args.work, "pass")
    checker = checks.Checker()
    result = {"info": info}

    # Pass 0 warms caches and lazy imports; it is checked but not timed.
    # Every later pass repeats it byte for byte, so the high-water mark read
    # here is the workload's peak, before the benchmark's own checks, the
    # held-out evaluation and the reference loop add to it.
    _run_pass(wl, d, info, out, checker)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result.update(wl.check(checker, d, out, info))
    reference = wl.hashes(out)
    result["sha256"] = reference
    if hasattr(wl, "heldout_accuracy"):
        result["heldout_accuracy"] = wl.heldout_accuracy(
            checker, out, os.path.join(args.work, "heldout_eval"))

    tracer = tracing.Tracer() if args.trace else None
    round_s = min(ROUND_S, args.seconds / 8)  # short runs still get rounds
    ref = ReferenceLoop()
    rounds = []
    ref_s = [ref.seconds()]
    t_start = time.perf_counter()
    while True:
        # A traced run alternates untraced and traced rounds.
        use_trace = tracer is not None and len(rounds) % 2 == 1
        r0 = time.perf_counter()
        passes = []
        while sum(p["wall"] for p in passes) < round_s or not passes:
            mark = tracer.mark() if use_trace else None
            times = _run_pass(wl, d, info, out, checker, tracer if use_trace else None)
            ref_s.append(ref.seconds())
            p = {"wall": sum(times.values()), "times": times}
            p["ref"] = p["wall"] / _mean(ref_s[-2:])
            if use_trace:
                p["reduced"] = tracer.reduce(mark)
                checker.check("each command's spans cover its wall time",
                              _spans_cover, p["reduced"]["roots"], times)
            passes.append(p)
            wl.check(checker, d, out, info)
            checker.check("outputs are byte-identical to the first pass",
                          lambda: wl.hashes(out) == reference)
        rounds.append({"traced": use_trace, "passes": passes,
                       "wall": _mean(p["wall"] for p in passes),
                       "ref": _mean(p["ref"] for p in passes)})
        now = time.perf_counter()
        # Stop before a further round would overrun --seconds.
        if (tracer is None or len(rounds) >= 2) \
                and now - t_start + (now - r0) > args.seconds:
            break

    plain = [r for r in rounds if not r["traced"]]
    result["pass_times_s"] = [p["wall"] for r in plain for p in r["passes"]]
    result["round_pass_s"] = [r["wall"] for r in plain]
    result["round_pass_ref"] = [r["ref"] for r in plain]
    result["reference_loop_s"] = ref_s
    result["command_s"] = {
        name: statistics.median(_mean(p["times"][name] for p in r["passes"])
                                for r in plain)
        for name in plain[0]["passes"][0]["times"]}
    if tracer is not None:
        result["trace"] = _trace_summary(tracer, rounds, checker, args)
    result["checks"] = checker.as_dict()
    return result


class ReferenceLoop:
    """A fixed mix of the kinds of work the program does: Python dict and
    list handling, many numpy calls on small arrays, and memory-bound numpy
    over arrays larger than the cache. It takes about 55 ms.

    It runs before the first pass and after every pass. Dividing a pass's
    time by the mean of the two reference times around it cancels most of
    the host's speed drift, which on a shared machine comes in phases of a
    few seconds.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np = np
        self.words = [str(v) for v in rng.integers(0, 10**9, 30000)]
        self.small = rng.random((50, 30))
        self.large = rng.random(1 << 20)

    def seconds(self) -> float:
        np = self.np
        t0 = time.perf_counter()
        groups: dict[str, list] = {}
        for i, w in enumerate(self.words):
            groups.setdefault(w[:3], []).append((w, i))
        sum(len(v) for _k, v in sorted(groups.items()))
        for _ in range(600):
            x = np.exp(-self.small)
            mask = x > 0.5
            x[mask] = 1.0 / (1.0 + x[mask])
            x.T @ self.small
        for _ in range(2):
            (np.exp(-self.large) * self.large).sum()
        return time.perf_counter() - t0


def _spans_cover(roots, times):
    """The self times in each command's span tree add up to the command's
    wall time as timed outside the tracer. Self times telescope to the root
    span's duration, so this tests that the root span (whose self time is
    cli.self_s) holds all of the command's time."""
    if sorted(name for name, _d, _s in roots) != sorted(f"cli.{c}" for c in times):
        raise ValueError(f"root spans {[r[0] for r in roots]} for commands {list(times)}")
    for name, _dur, self_sum in roots:
        wall = times[name[len("cli."):]]
        if abs(self_sum - wall) > 0.01 * wall + 0.01:
            raise ValueError(f"{name}: self times {self_sum:.6f} s, wall {wall:.6f} s")
    return True


def _mean(values):
    values = list(values)
    return sum(values) / len(values)


def _trace_summary(tracer, rounds, checker, args):
    traced = [p for r in rounds if r["traced"] for p in r["passes"]]
    per_pass = [tracing.layer_values(t["reduced"]) for t in traced]
    counts = [t["reduced"]["counts"] for t in traced]
    checker.check("work counts repeat exactly in every traced pass",
                  lambda: all(c == counts[0] for c in counts))
    metrics = {}
    for name, unit, how, _key in tracing.LAYER_METRICS:
        values = [p[name] for p in per_pass]
        metrics[name] = values[0] if how in ("count", "ratio") \
            else statistics.median(values)

    def median_of(kind, key):
        return statistics.median(r[key] for r in rounds if r["traced"] == kind)

    metrics["trace.traced_pass_s"] = median_of(True, "wall")
    metrics["trace.untraced_pass_s"] = median_of(False, "wall")
    # Compared in reference-loop units, so host drift between rounds cancels.
    metrics["trace.overhead_ratio"] = median_of(True, "ref") / median_of(False, "ref") - 1.0
    metrics["trace.unattached_hooks"] = len(tracer.unattached) + len(tracer.misread)
    tracer.dump(args.spans)
    unattached = tracer.unattached + [f"{k} (arguments changed)"
                                      for k in sorted(tracer.misread)]
    return {"metrics": metrics, "unattached": unattached,
            "traced_passes": len(traced), "spans": len(tracer.spans),
            "self_s_by_span": _median_tables([t["reduced"]["self_s"] for t in traced]),
            "counts": counts[0]}


def _median_tables(tables):
    keys = sorted({k for t in tables for k in t})
    return {k: statistics.median(t.get(k, 0.0) for t in tables) for k in keys}


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--src", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", help="where the traced run writes its spans")
    parser.add_argument("--seconds", type=float, help="measurement length")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _check_package(args.src)
    wl = workloads.WORKLOADS[args.workload]
    result = do_setup(args, wl) if args.mode == "setup" else do_measure(args, wl)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)


if __name__ == "__main__":
    sys.exit(main())
