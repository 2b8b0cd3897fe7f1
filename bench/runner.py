"""One workload, one process: set-up, timed region, checks, metrics.

``run_workload`` is what ``python3 -m bench run --workload NAME`` does
after re-executing itself into a clean interpreter.  The end-to-end
metrics come from an untraced run only; ``--trace`` repeats the same
steps with spans on and adds the per-layer ladder.
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Any, Dict, List, Sequence, Tuple

from bench import scenarios
from bench.harness import (
    ProcSnapshot,
    Tracer,
    descendants,
    machine_facts,
    shm_segments,
    wait_no_descendants,
)
from bench.spec import ROOT, load_spec

__all__ = ["Region", "Unavailable", "run_workload", "run_region"]

#: Fresh set-ups per run, each followed by a third of the timed region:
#: ``setup_s`` is a median over them, and no single session's luck
#: (where its warm-up left the caches) decides a run.
SEGMENTS = 3


@dataclass(frozen=True)
class Unavailable:
    """A per-layer metric this run could not produce, and why."""

    reason: str


@dataclass(frozen=True)
class Round:
    """One closed-loop unit of work on the clock."""

    wall: float
    cpu_own: float
    cpu_children: float
    pairs: int


@dataclass
class Region:
    """What one stretch of the timed region measured (or several, merged).

    The box the benchmark runs on is a slice of a shared host whose
    speed wanders by tens of percent for seconds at a time, so nothing
    is a total over a run: throughput is the median over its rounds,
    which a slow stretch (or a session's first, slower jobs) moves far
    less than it moves a sum.
    """

    traced: bool = False
    rounds: List[Round] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    jobs: List[scenarios.Job] = field(default_factory=list)
    #: (before, after) snapshots of the program's own counters.
    counter_spans: List[Tuple[Dict[str, Any], Dict[str, Any]]] = field(default_factory=list)

    @property
    def measured(self) -> List[scenarios.Job]:
        return [j for j in self.jobs if j.measured]

    @property
    def wall(self) -> float:
        return sum(r.wall for r in self.rounds)

    @property
    def pairs(self) -> int:
        return sum(r.pairs for r in self.rounds)

    @property
    def cpu_own(self) -> float:
        return sum(r.cpu_own for r in self.rounds)

    @property
    def cpu_children(self) -> float:
        return sum(r.cpu_children for r in self.rounds)

    @property
    def pairs_per_s(self) -> float:
        return median([r.pairs / r.wall for r in self.rounds])

    @property
    def cpu_s_per_kpair(self) -> float:
        # Over the whole region, not per round: /proc counts CPU in 10 ms
        # ticks, a fortieth of a short round.
        return (self.cpu_own + self.cpu_children) / (self.pairs / 1000.0)

    @classmethod
    def merged(cls, regions: Sequence["Region"]) -> "Region":
        return cls(
            traced=all(r.traced for r in regions),
            rounds=[round_ for r in regions for round_ in r.rounds],
            peak_rss_mb=median([r.peak_rss_mb for r in regions]),
            jobs=[j for r in regions for j in r.jobs],
            counter_spans=[span for r in regions for span in r.counter_spans],
        )


def run_region(scenario: scenarios.Scenario, seconds: float, traced: bool) -> Region:
    """Closed loop: rounds back to back until ``seconds`` of them ran.

    Only the rounds are on the clock; preparation between rounds (the
    store workload derives its next edits and their reference there) is
    not.  A round is never cut short, so the loop stops after the round
    that brings the total closest to ``seconds``.
    """
    region = Region(traced=traced)
    first_job = len(scenario.jobs)
    counters_before = scenario.counters() if traced else {}
    pids = [os.getpid(), *descendants(os.getpid())]
    scenario.begin_region()
    wall = 0.0
    while True:
        scenario.prepare_round(len(region.rounds))
        scenario.check_new_jobs()
        gc.collect()  # off the clock: no round pays for another's garbage
        before = ProcSnapshot(pids=pids)
        t0 = time.perf_counter()
        pairs = scenario.run_round(len(region.rounds), traced)
        elapsed = time.perf_counter() - t0
        own, children = ProcSnapshot(pids=pids).cpu_since(before)
        region.rounds.append(Round(elapsed, own, children, pairs))
        wall += elapsed
        if wall + 0.5 * wall / len(region.rounds) > seconds:
            break
    scenario.end_region()
    region.peak_rss_mb = ProcSnapshot(pids=pids, memory=True).peak_rss_mb()
    if traced:
        region.counter_spans.append((counters_before, scenario.counters()))
    region.jobs = scenario.jobs[first_job:]
    return region


def _end_to_end(regions: List[Region], setups: List[float]) -> Dict[str, float]:
    """Every end-to-end metric is a median: over all the run's rounds or
    jobs where there are many, over its segments where there is one
    number per segment."""
    run = Region.merged(regions)
    return {
        "pairs_per_s": run.pairs_per_s,
        "job_s_p50": median([j.seconds for j in run.measured]),
        "cpu_s_per_kpair": median([r.cpu_s_per_kpair for r in regions]),
        "peak_rss_mb": run.peak_rss_mb,
        "setup_s": median(setups),
    }


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    smoke: bool,
    run_dir: Path,
) -> Dict[str, Any]:
    """Run one workload in this process; returns the full result document."""
    spec = load_spec()
    facts = machine_facts(ROOT)
    tracer = Tracer(trace, name)
    shm_before = shm_segments()
    failures: List[str] = []
    layer_values: Dict[str, Any] = {}

    # A traced run leaves one segment (never the last: the layer probes
    # follow it) untraced: same process, same loop, spans off -- the
    # difference is what tracing costs.
    segments = (2 if trace else 1) if smoke else SEGMENTS
    regions: List[Region] = []
    setups: List[float] = []
    with tracer.span("workload"):
        scenario = scenarios.build_scenario(name, seed, smoke, tracer)
        with tracer.span("oracle"):
            scenario.prepare_oracle()
        # The harness's own long-lived data (corpus, reference values)
        # leaves the collector's sight: the program's collections must
        # not pay for walking it.
        gc.freeze()
        for segment in range(segments):
            traced = trace and segment != segments - 2
            tracer.enabled = traced
            t0 = time.perf_counter()
            with tracer.span("setup"):
                scenario.setup()
            setups.append(time.perf_counter() - t0)
            try:
                with tracer.span("timed"):
                    regions.append(run_region(scenario, seconds / segments, traced))
                if trace and segment == segments - 1:
                    with tracer.span("layers"):
                        from bench import layers

                        layer_values = layers.collect(
                            scenario,
                            Region.merged([r for r in regions if r.traced]),
                            Region.merged([r for r in regions if not r.traced]),
                            tracer,
                        )
            finally:
                with tracer.span("teardown"):
                    scenario.teardown()

    # -- ops: every job against the oracle, then the three leak checks ---
    scenario.check_new_jobs()
    jobs = list(scenario.jobs)
    failures.extend(f"job {j.label}: {j.failure}" for j in jobs if j.failure is not None)
    leaked_pids = wait_no_descendants()
    if leaked_pids:
        failures.append(f"leak: live descendant processes {leaked_pids}")
    leaked_shm = sorted(shm_segments() - shm_before)
    if leaked_shm:
        failures.append(f"leak: new /dev/shm segments {leaked_shm}")
    leftover = [str(p) for p in scenario.temp_dirs() if p.exists()]
    if leftover:
        failures.append(f"leak: temp dirs not removed {leftover}")
    attempted = len(jobs) + 3

    end_to_end = _end_to_end(regions, setups)
    region = Region.merged(regions)
    result: Dict[str, Any] = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": {
            "measured_jobs": len(region.measured),
            "job_seconds": [j.seconds for j in region.measured],
            "round_seconds": [r.wall for r in region.rounds],
            "round_pairs": [r.pairs for r in region.rounds],
            "segments": segments,
            "rounds": len(region.rounds),
            "pairs": region.pairs,
            "timed_wall_s": region.wall,
            "setups_s": setups,
            "dataset_s": scenario.dataset_s,
            "oracle_s": scenario.oracle_s,
        },
        "end_to_end": {
            k: {"value": v, "unit": spec.end_to_end[k].unit} for k, v in end_to_end.items()
        },
        "machine": facts,
    }
    if trace:
        per_layer: Dict[str, Any] = {}
        for metric in spec.per_layer.values():
            value = layer_values.pop(
                metric.name, Unavailable("not measured on this workload")
            )
            if isinstance(value, Unavailable):
                per_layer[metric.name] = {
                    "value": None, "unit": metric.unit, "unavailable": value.reason,
                }
            else:
                per_layer[metric.name] = {"value": float(value), "unit": metric.unit}
        if layer_values:
            raise RuntimeError(f"undeclared per-layer metrics: {sorted(layer_values)}")
        result["per_layer"] = per_layer
        trace_path = run_dir / f"trace-{name}.json"
        tracer.write(trace_path)
        result["trace_file"] = str(trace_path)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / f"result-{name}.json").write_text(
        json.dumps(result, indent=1, sort_keys=True), encoding="utf-8"
    )
    return result

