"""Unit and property tests for repro.util (rng, histogram, throughput, trace, stats, tables)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.histogram import Histogram, ascii_histogram
from repro.util.rng import RngFactory, seeded_rng
from repro.util.rolling import ThroughputSeries
from repro.util.stats import lognormal_params
from repro.util.tables import format_table
from repro.util.trace import TraceEvent, TraceRecorder, ascii_timeline, lane_summary


class TestRng:
    def test_seeded_rng_reproducible(self):
        assert seeded_rng(7).integers(0, 1000) == seeded_rng(7).integers(0, 1000)

    def test_none_maps_to_default_seed(self):
        assert seeded_rng(None).integers(0, 10**9) == seeded_rng(None).integers(0, 10**9)

    def test_factory_streams_stable_and_independent(self):
        f1, f2 = RngFactory(5), RngFactory(5)
        a1 = f1.get("alpha").integers(0, 10**9)
        _ = f2.get("beta").integers(0, 10**9)  # consuming beta first...
        a2 = f2.get("alpha").integers(0, 10**9)
        assert a1 == a2  # ...must not perturb alpha

    def test_factory_different_names_differ(self):
        f = RngFactory(5)
        xs = f.get("a").integers(0, 10**9, 20)
        ys = f.get("b").integers(0, 10**9, 20)
        assert not np.array_equal(xs, ys)

    def test_child_factory_independent(self):
        f = RngFactory(5)
        child = f.child("sub")
        assert child.seed != f.seed

    def test_choice_and_shuffle(self):
        f = RngFactory(1)
        items = list(range(10))
        assert f.choice(items, "pick") in items
        with pytest.raises(ValueError):
            f.choice([], "empty")


class TestHistogram:
    def test_from_samples_counts_everything(self):
        h = Histogram.from_samples([1.0, 2.0, 2.5, 3.0], bins=4)
        assert h.total == 4

    def test_clamping_tracked(self):
        h = Histogram(lo=0.0, hi=1.0, bins=10)
        h.add(-5.0)
        h.add(5.0)
        assert h.n_clamped_low == 1
        assert h.n_clamped_high == 1
        assert h.total == 2

    def test_add_many_matches_add(self):
        xs = np.linspace(0, 1, 101)
        h1 = Histogram(0.0, 1.0, 7)
        h2 = Histogram(0.0, 1.0, 7)
        for x in xs:
            h1.add(float(x))
        h2.add_many(xs)
        assert np.array_equal(h1.counts, h2.counts)

    def test_quantile_monotone(self):
        rng = seeded_rng(0)
        h = Histogram.from_samples(rng.normal(10, 2, 5000), bins=50)
        assert h.quantile(0.1) <= h.quantile(0.5) <= h.quantile(0.9)

    def test_cv_distinguishes_regular_from_irregular(self):
        """The Fig. 7 signal: lognormal tail has much higher CV than a tight normal."""
        rng = seeded_rng(1)
        regular = Histogram.from_samples(rng.normal(1.0, 0.01, 4000), bins=60)
        irregular = Histogram.from_samples(rng.lognormal(0.0, 1.0, 4000), bins=60)
        assert regular.coefficient_of_variation() < 0.1
        assert irregular.coefficient_of_variation() > 0.5

    def test_empty_quantile_rejected(self):
        h = Histogram(0, 1, 4)
        with pytest.raises(ValueError):
            h.quantile(0.5)

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0, 4)

    def test_ascii_render(self):
        h = Histogram.from_samples([1, 1, 2, 3], bins=3)
        text = ascii_histogram(h)
        assert "#" in text
        assert text.count("\n") == 2


class TestRolling:
    def test_throughput_rate(self):
        ts = ThroughputSeries(window=10.0)
        for t in np.arange(0, 10, 0.5):  # 2 events/s
            ts.record(float(t))
        # Window is half-open (t - w, t]: the event exactly at t=0 falls out.
        assert ts.rate_at(10.0) == pytest.approx(1.9)
        assert ts.rate_at(9.9) == pytest.approx(2.0)

    def test_series_grid(self):
        ts = ThroughputSeries(window=2.0)
        for t in (0.5, 1.0, 1.5):
            ts.record(t)
        grid, rates = ts.series(step=0.5)
        assert len(grid) == len(rates)
        assert rates.max() > 0

    def test_empty_series(self):
        ts = ThroughputSeries()
        grid, rates = ts.series()
        assert grid.size == 0 and rates.size == 0
        assert ts.overall_rate() == 0.0


class TestTrace:
    def test_busy_time_per_lane(self):
        rec = TraceRecorder()
        rec.record("GPU", "compare", 0.0, 2.0)
        rec.record("GPU", "preprocess", 3.0, 4.0)
        rec.record("CPU", "parse", 0.0, 1.0)
        assert rec.busy_time("GPU") == pytest.approx(3.0)
        assert rec.makespan() == 4.0
        assert rec.lanes() == ["CPU", "GPU"]

    def test_disabled_recorder_swallows(self):
        rec = TraceRecorder(enabled=False)
        rec.record("GPU", "x", 0, 1)
        assert rec.events == []

    def test_invalid_interval_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent("GPU", "x", 2.0, 1.0)

    def test_lane_summary_utilisation(self):
        rec = TraceRecorder()
        rec.record("GPU", "c", 0.0, 5.0)
        rec.record("IO", "io", 0.0, 1.0)
        summary = lane_summary(rec)
        assert summary["GPU"]["utilization"] == pytest.approx(1.0)
        assert summary["IO"]["utilization"] == pytest.approx(0.2)

    def test_ascii_timeline_renders_lanes(self):
        rec = TraceRecorder()
        rec.record("GPU", "compare", 0.0, 1.0)
        text = ascii_timeline(rec, width=20)
        assert "GPU" in text and "C" in text

    def test_empty_timeline(self):
        assert "empty" in ascii_timeline(TraceRecorder())

    def test_clear(self):
        rec = TraceRecorder()
        rec.record("a", "b", 0, 1)
        rec.clear()
        assert rec.events == []


class TestLognormal:
    @given(mean=st.floats(0.01, 100), cv=st.one_of(st.just(0.0), st.floats(1e-6, 3.0)))
    @settings(max_examples=60, deadline=None)
    def test_moments_roundtrip(self, mean, cv):
        # cv below ~1e-8 underflows log1p((std/mean)^2) to sigma = 0,
        # a float-precision limit rather than a defect, so the strategy
        # draws either exactly 0 or a representable cv.
        std = mean * cv
        mu, sigma = lognormal_params(mean, std)
        got_mean = math.exp(mu + sigma**2 / 2)
        # expm1 keeps the reconstruction accurate for tiny sigma^2.
        got_var = math.expm1(sigma**2) * math.exp(2 * mu + sigma**2)
        assert got_mean == pytest.approx(mean, rel=1e-9)
        assert math.sqrt(got_var) == pytest.approx(std, rel=1e-6, abs=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            lognormal_params(0.0, 1.0)
        with pytest.raises(ValueError):
            lognormal_params(1.0, -1.0)


class TestTables:
    def test_basic_layout(self):
        text = format_table(["name", "value"], [["alpha", 1.5], ["b", 22]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert "alpha" in lines[4]

    def test_mismatched_row_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_float_formatting(self):
        text = format_table(["x"], [[1.23456789e-8], [123456.789]])
        assert "e-08" in text
        assert "e+05" in text or "123456" in text

    def test_bool_rendering(self):
        text = format_table(["flag"], [[True], [False]])
        assert "yes" in text and "no" in text
