"""``python3 -m bench compare A B``: did B get worse than A?

``A`` and ``B`` are run directories (or directories of run directories)
written by ``python3 -m bench run``.  One row per (workload, end-to-end
metric): n, median and quartiles of both sets, the ratio of the medians
with its base, and a verdict against the bound ``BENCHMARK.json`` fixes
for the metric:

- ``unresolved`` — the run-to-run spread (interquartile range over the
  median) of either set is wider than the bound, so nothing is claimed;
- ``worse`` / ``better`` — B's median moved by more than the bound;
- ``same`` — anything else.

``failed_share`` (failed operations over attempted) is ``worse`` on any
increase.  Exit status 0 iff no row reads ``worse``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Tuple

from bench.spec import load_spec

__all__ = ["compare", "load_runs", "verdict"]

Samples = Dict[Tuple[str, str], List[float]]


def load_runs(root: str) -> Tuple[Samples, Dict[str, List[float]]]:
    """``{(workload, metric): values}`` and ``{workload: failed shares}``.

    Traced and smoke results are skipped: neither is evidence.
    """
    samples: Samples = {}
    failed: Dict[str, List[float]] = {}
    for path in sorted(Path(root).rglob("result-*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc.get("trace") or doc.get("smoke"):
            continue
        workload = doc["workload"]
        failed.setdefault(workload, []).append(doc["failed"] / doc["attempted"])
        for metric, entry in doc["end_to_end"].items():
            samples.setdefault((workload, metric), []).append(entry["value"])
    return samples, failed


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base: List[float], other: List[float], better: str, bound: float) -> str:
    b1, b_med, b3 = _quartiles(base)
    o1, o_med, o3 = _quartiles(other)
    if max((b3 - b1) / b_med, (o3 - o1) / o_med) > bound:
        return "unresolved"
    change = (o_med - b_med) / b_med
    if better == "higher":
        change = -change
    if change > bound:
        return "worse"
    if change < -bound:
        return "better"
    return "same"


def compare(base_dir: str, other_dir: str) -> int:
    spec = load_spec()
    base, base_failed = load_runs(base_dir)
    other, other_failed = load_runs(other_dir)
    worse = 0
    header = (
        f"{'workload':16s} {'metric':16s} {'n':>5s}  "
        f"{'base median [q1, q3]':>34s}  {'other median [q1, q3]':>34s}  {'other/base':>10s}  verdict"
    )
    print(header)
    for workload in spec.workloads:
        for name, metric in spec.end_to_end.items():
            a, b = base.get((workload, name)), other.get((workload, name))
            if not a or not b:
                print(f"{workload:16s} {name:16s} {'-':>5s}  missing in {'base' if not a else 'other'}")
                continue
            a1, a_med, a3 = _quartiles(a)
            b1, b_med, b3 = _quartiles(b)
            word = verdict(a, b, metric.better, metric.bound)
            worse += word == "worse"
            print(
                f"{workload:16s} {name:16s} {len(a):2d}/{len(b):<2d}  "
                f"{a_med:10.4g} [{a1:9.4g}, {a3:9.4g}]  {b_med:10.4g} [{b1:9.4g}, {b3:9.4g}]  "
                f"{b_med / a_med:6.3f} of {a_med:<.4g}  {word} (bound {metric.bound:g})"
            )
        fa = statistics.mean(base_failed.get(workload, [0.0]))
        fb = statistics.mean(other_failed.get(workload, [0.0]))
        word = "worse" if fb > fa else "same"
        worse += word == "worse"
        print(f"{workload:16s} {'failed_share':16s} {'':5s}  {fa:10.4g} {'':23s}  {fb:10.4g} {'':23s}  {'':10s}  {word}")
    print(f"\n{worse} row(s) worse")
    return 1 if worse else 0
