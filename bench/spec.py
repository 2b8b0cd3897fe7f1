"""The declared benchmark contract: what ``BENCHMARK.json`` says.

Everything the harness prints is checked against this file, so a metric
or workload cannot be emitted without being declared (and vice versa).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

__all__ = ["ROOT", "BENCH_DIR", "OUT_DIR", "Metric", "Spec", "load_spec"]

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Everything a run writes (results, traces, temp store dirs) lands here.
OUT_DIR = BENCH_DIR / "out"


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    bound: Optional[float] = None  # end-to-end metrics only


@dataclass(frozen=True)
class Spec:
    command: List[str]
    run_seconds: int
    workloads: Dict[str, str]  # name -> why
    end_to_end: Dict[str, Metric]
    per_layer: Dict[str, Metric]


def load_spec(path: Path = ROOT / "BENCHMARK.json") -> Spec:
    doc = json.loads(path.read_text(encoding="utf-8"))

    def metrics(rows) -> Dict[str, Metric]:
        return {row["name"]: Metric(**row) for row in rows}

    return Spec(
        command=list(doc["command"]),
        run_seconds=int(doc["run_seconds"]),
        workloads={w["name"]: w["why"] for w in doc["workloads"]},
        end_to_end=metrics(doc["end_to_end"]),
        per_layer=metrics(doc["per_layer"]),
    )
