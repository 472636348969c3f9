"""Fast shape checks for every figure module.

Each test runs the real figure code at a reduced virtual duration and a
trimmed sweep, then asserts the qualitative shape the paper reports.
Full-scale numbers live in EXPERIMENTS.md.
"""

import pytest

from repro.experiments import runner
from repro.experiments.figures import (
    ablation_rank_delay,
    ablation_rate_vs_buffer,
    ablation_unified,
    fig1_overflow_waste,
    fig2_overflow_loss,
    fig3_buffer_prefetch,
    fig4_expiration_waste,
    fig5_expiration_loss,
    fig6_expiration_threshold,
)
from repro.metrics.analytic import expected_overflow_waste
from repro.sim.engine import Simulator
from repro.units import DAY, HOUR
from repro.workload import scenario

DAYS_30 = 30 * DAY
DAYS_60 = 60 * DAY


class TestFig1:
    def test_waste_matches_formula(self):
        config = fig1_overflow_waste.Fig1Config(
            duration=DAYS_30, max_values=(4, 32), user_frequencies=(1.0, 2.0)
        )
        table = fig1_overflow_waste.run(config)
        rows = {row[0]: row[1] for row in table.rows}
        assert rows[4] == pytest.approx(87.5, abs=3.0)  # paper: "88 %"
        # Max = 32 at uf = 1 exactly balances the arrival rate; the unread
        # backlog is a random walk, so a 30-day run keeps a few percent
        # of end-of-run residue (the year-long run reaches ~1 %).
        assert rows[32] < 10.0
        # Every cell away from that balance point tracks 1 - uf*Max/ef.
        for row in table.rows:
            for uf, cell in zip(config.user_frequencies, row[1:-1]):
                if 0.7 <= uf * row[0] / 32.0 <= 1.5:
                    continue
                expected = 100.0 * expected_overflow_waste(uf, row[0], 32.0)
                assert cell == pytest.approx(expected, abs=3.0)


    def test_waste_decreases_with_max(self):
        config = fig1_overflow_waste.Fig1Config(
            duration=DAYS_30, max_values=(1, 8, 64), user_frequencies=(2.0,)
        )
        points = fig1_overflow_waste.run(config).column("uf=2")
        assert points[0] > points[1] > points[2]


class TestFig2:
    def test_loss_zero_at_endpoints(self):
        config = fig2_overflow_loss.Fig2Config(
            duration=DAYS_30, outage_fractions=(0.0, 1.0), user_frequencies=(2.0,)
        )
        losses = fig2_overflow_loss.run(config).column("uf=2")
        assert losses[0] == pytest.approx(0.0, abs=2.0)
        assert losses[1] == 0.0  # both policies equally powerless

    def test_loss_grows_with_outage(self):
        config = fig2_overflow_loss.Fig2Config(
            duration=DAYS_30, outage_fractions=(0.1, 0.5, 0.9), user_frequencies=(1.0,)
        )
        losses = fig2_overflow_loss.run(config).column("uf=1")
        assert losses[0] < losses[1] < losses[2]
        assert losses[1] > 20.0
        assert losses[2] > 50.0


class TestFig3:
    def test_loss_falls_and_waste_rises_with_limit(self):
        config = fig3_buffer_prefetch.Fig3Config(
            duration=DAYS_30, prefetch_limits=(1, 16, 4096), outage_fractions=(0.5,)
        )
        loss_table, waste_table = fig3_buffer_prefetch.run(config)
        losses = loss_table.column("outage=0.5")
        wastes = waste_table.column("outage=0.5")
        assert losses[0] > losses[1] >= losses[2] - 2.0
        assert losses[0] > 20.0
        assert losses[1] < 8.0   # loss collapses by limit 16 ...
        assert wastes[1] < 5.0   # ... before waste has grown
        assert wastes[0] <= wastes[1] <= wastes[2]
        assert wastes[2] > 20.0  # heading toward the 50 % plateau

    def test_sweet_spot_between_16_and_64(self):
        """'Between 16 and 64, both waste and loss are below 1 %' (we
        allow a few % at reduced duration — the exact figures shift
        slightly with the trace realization, i.e. across trace format
        versions)."""
        config = fig3_buffer_prefetch.Fig3Config(
            duration=DAYS_60, prefetch_limits=(16, 64), outage_fractions=(0.3,)
        )
        loss_table, waste_table = fig3_buffer_prefetch.run(config)
        for loss, waste in zip(
            loss_table.column("outage=0.3"), waste_table.column("outage=0.3")
        ):
            assert loss < 8.0
            assert waste < 8.0


class TestFig4:
    def test_waste_falls_with_expiration_time(self):
        config = fig4_expiration_waste.Fig4Config(
            duration=DAYS_30,
            expiration_means=(64.0, 16384.0, 262144.0),
            user_frequencies=(4.0,),
        )
        wastes = fig4_expiration_waste.run(config).column("uf=4")
        assert wastes[0] > 95.0          # short-lived: nearly all wasted
        assert wastes[0] > wastes[1] > wastes[2]

    def test_frequent_reader_wastes_less(self):
        config = fig4_expiration_waste.Fig4Config(
            duration=DAYS_30, expiration_means=(4096.0,), user_frequencies=(1.0, 32.0)
        )
        table = fig4_expiration_waste.run(config)
        assert table.column("uf=32")[0] < table.column("uf=1")[0]


class TestFig5:
    def test_loss_negligible_for_short_expirations(self):
        config = fig5_expiration_loss.Fig5Config(
            duration=DAYS_30, expiration_means=(16.0,), user_frequencies=(2.0,)
        )
        losses = fig5_expiration_loss.run(config).column("uf=2")
        assert losses[0] < 5.0

    def test_loss_rises_into_midrange(self):
        config = fig5_expiration_loss.Fig5Config(
            duration=DAYS_60, expiration_means=(64.0, 65536.0), user_frequencies=(2.0,)
        )
        losses = fig5_expiration_loss.run(config).column("uf=2")
        assert losses[0] < 10.0
        assert losses[1] > 40.0
        assert losses[1] > losses[0] + 30.0


def _fig6_points(config):
    """(waste %, loss %) per threshold of a one-curve Figure 6 run."""
    waste_table, loss_table = fig6_expiration_threshold.run(config)
    return [
        (waste_row[1], loss_row[1])
        for waste_row, loss_row in zip(waste_table.rows, loss_table.rows)
    ]


class TestFig6:
    def test_short_expiry_curve_shape(self):
        """The 4.2 h curve: waste high then drops; loss 0 then climbs."""
        config = fig6_expiration_threshold.Fig6Config(
            duration=DAYS_60,
            thresholds=(64.0, 262144.0),
            expiration_means=(15360.0,),
        )
        (short_waste, short_loss), (long_waste, long_loss) = _fig6_points(config)
        assert short_waste > 40.0
        assert short_loss < 5.0
        assert long_waste < 5.0
        assert long_loss > 30.0

    def test_long_expiry_gap_contains_read_interval(self):
        """For expirations an order of magnitude above the read interval,
        the 8 h and the ~3-day thresholds keep both waste and loss
        moderate."""
        config = fig6_expiration_threshold.Fig6Config(
            duration=DAYS_60,
            thresholds=(8 * HOUR, 262144.0),
            expiration_means=(3932160.0,),
        )
        for waste, loss in _fig6_points(config):
            assert waste < 10.0
            assert loss < 10.0


class TestAblations:
    def test_rate_and_buffer_both_beat_extremes(self):
        config = ablation_rate_vs_buffer.AblationRateConfig(
            duration=DAYS_60, outage_fractions=(0.5,)
        )
        table = ablation_rate_vs_buffer.run(config)
        cells = {row[0]: (row[2], row[3]) for row in table.rows}
        online_waste = cells["online"][0]
        on_demand_loss = cells["on-demand"][1]
        for policy in ("buffer-16", "rate", "unified"):
            waste, loss = cells[policy]
            assert waste < online_waste / 3
            assert loss < on_demand_loss / 3
        # "the buffer-based approach turned out to be more effective":
        # lower combined inefficiency than rate-based.
        buffer_combined = sum(cells["buffer-16"])
        rate_combined = sum(cells["rate"])
        assert buffer_combined < rate_combined
        assert rate_combined < sum(cells["online"]) / 3
        assert rate_combined < sum(cells["on-demand"]) / 3

    def test_delay_reduces_retractions(self):
        config = ablation_rank_delay.AblationDelayConfig(
            duration=DAYS_60, drop_fractions=(0.3,)
        )
        table = ablation_rank_delay.run(config)
        rows = {(row[0], row[1]): row for row in table.rows}
        without = rows[(0.3, "delay-off")]
        with_delay = rows[(0.3, "delay-2h")]
        assert with_delay[4] < without[4]  # fewer retraction messages
        assert with_delay[5] > without[5]  # more drops absorbed at proxy
        adaptive = rows[(0.3, "delay-adaptive")]
        assert adaptive[2] < without[2] / 2  # waste
        assert adaptive[4] < without[4] / 2  # retractions
        assert adaptive[5] > without[5]      # dropped before forwarding
        assert adaptive[6] >= without[6]     # read age pays for it

    def test_unified_tracks_tuned_buffer(self):
        config = ablation_unified.AblationUnifiedConfig(duration=DAYS_30)
        table = ablation_unified.run(config)
        by_policy = {}
        for workload, policy, waste, loss in table.rows:
            by_policy.setdefault(policy, []).append((workload, waste, loss))
        for workload, waste, loss in by_policy["unified"]:
            assert waste < 35.0, workload
            assert loss < 35.0, workload
            assert waste + loss < 50.0, workload

        # Averaged over the workloads, far better than both extremes.
        def mean(policy):
            rows = by_policy[policy]
            return sum(waste + loss for _, waste, loss in rows) / len(rows)

        assert mean("unified") < mean("online") / 2
        assert mean("unified") < mean("on-demand") / 2


class TestSharedWorkCounts:
    """How much simulation the default grids cost, counted not timed.

    ``figure_grid`` in ``bench/`` divides by these numbers; a change
    that quietly stops sharing baselines or traces between cells shows
    up here as a count instead of as a slower benchmark.
    """

    def test_default_grids_share_traces_and_baselines(self, monkeypatch):
        counts = {"runs": 0, "builds": 0, "cells": 0}
        sim_run, build_trace = Simulator.run, scenario.build_trace

        def counting_run(self, *args, **kwargs):
            counts["runs"] += 1
            return sim_run(self, *args, **kwargs)

        def counting_build(*args, **kwargs):
            counts["builds"] += 1
            return build_trace(*args, **kwargs)

        monkeypatch.setattr(Simulator, "run", counting_run)
        monkeypatch.setattr(scenario, "build_trace", counting_build)

        def counting_progress(_line):
            counts["cells"] += 1

        def count(module, config):
            before = dict(counts)
            module.run(config, progress=counting_progress)
            return tuple(counts[k] - before[k] for k in ("runs", "builds", "cells"))

        # Cold at the start only, as one figure_grid repetition is: fig3
        # finds two of its seven traces still in the LRU fig2 filled.
        runner.clear_baseline_cache()
        scenario.clear_trace_cache()
        try:
            per_figure = [
                count(fig2_overflow_loss,
                      fig2_overflow_loss.Fig2Config(duration=DAY, seeds=(0,))),
                count(fig3_buffer_prefetch,
                      fig3_buffer_prefetch.Fig3Config(duration=DAY, seeds=(0,))),
                count(fig6_expiration_threshold,
                      fig6_expiration_threshold.Fig6Config(duration=DAY, seeds=(0,))),
            ]
        finally:
            runner.clear_baseline_cache()
            scenario.clear_trace_cache()
        assert per_figure == [(216, 108, 108), (91, 5, 84), (45, 5, 40)]
        assert tuple(map(sum, zip(*per_figure))) == (352, 118, 232)
