#!/usr/bin/env python3
"""Compare two benchmark result files side by side.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Result files are written by run.py to .perfbench_out/results/. Prints each
figure of both files with the ratio after/before, then whether the output
hashes, the input sizes and the machine facts agree. A single pair of
files is one sample each: see README.md for how many runs a claim needs.
"""

from __future__ import annotations

import json
import sys


def _flat(record) -> dict:
    figures = dict(record["end_to_end"])
    for name in ("pass_s", "reference_s", "setup_wall_s"):
        figures[name] = record[name]
    figures.update({f"{k}_s": v for k, v in record["command_s"].items()})
    for name in ("final_loss", "heldout_accuracy", "accuracy", "ops_failed_ratio"):
        if record.get(name) is not None:
            figures[name] = record[name]
    if record.get("layers"):
        figures.update(record["layers"]["metrics"])
    return figures


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = (_load(p) for p in argv)
    if before["workload"] != after["workload"]:
        print(f"different workloads: {before['workload']} vs {after['workload']}")
    a, b = _flat(before), _flat(after)
    print(f"{'figure':40s} {'before':>14s} {'after':>14s} {'after/before':>12s}")
    for name in [k for k in a if k in b]:
        ratio = f"{b[name] / a[name]:.4f}" if a[name] else "-"
        print(f"{name:40s} {a[name]:14.6g} {b[name]:14.6g} {ratio:>12s}")
    for label, key in (("output sha256", "sha256"), ("inputs", "inputs"),
                       ("machine", "machine")):
        same = before.get(key) == after.get(key)
        print(f"{label}: {'same' if same else 'DIFFERENT'}")
        if not same and key != "inputs":
            for k in sorted(set(before.get(key, {})) | set(after.get(key, {}))):
                if before[key].get(k) != after[key].get(k):
                    print(f"  {k}: {before[key].get(k)} -> {after[key].get(k)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
