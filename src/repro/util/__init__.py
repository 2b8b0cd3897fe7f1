"""Shared utilities: seeded RNG, histograms, traces, tables, throughput series.

These helpers are deliberately dependency-light so that every other
subpackage (simulation, runtime, applications, benchmarks) can use them
without import cycles.
"""

from repro.util.rng import RngFactory, seeded_rng
from repro.util.histogram import Histogram, ascii_histogram
from repro.util.rolling import ThroughputSeries
from repro.util.trace import ProfileTrace, TraceEvent, TraceRecorder, lane_summary
from repro.util.stats import lognormal_params
from repro.util.tables import format_table, format_row

__all__ = [
    "RngFactory",
    "seeded_rng",
    "Histogram",
    "ascii_histogram",
    "ThroughputSeries",
    "TraceEvent",
    "TraceRecorder",
    "ProfileTrace",
    "lane_summary",
    "lognormal_params",
    "format_table",
    "format_row",
]
