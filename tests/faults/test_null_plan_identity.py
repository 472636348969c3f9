"""The fault layer's hard guarantee: a null plan changes nothing.

With ``--faults none`` (or no ``--faults`` at all) every figure table
and the validate scorecard must be byte-identical to a build without
the fault subsystem in the loop — across serial and parallel
execution. The "reliable" preset
(protocol engaged, zero fault rates) must converge to the same metrics.
Higher loss rates must never reduce retries or the loss metric
(pathwise metamorphic monotonicity).
"""

import pytest

from repro.experiments.figures import fig3_buffer_prefetch, fig6_expiration_threshold
from repro.experiments.export import export_tables
from repro.experiments.runner import clear_baseline_cache, run_paired
from repro.faults import PRESETS, FaultSpec
from repro.proxy.policies import PolicyConfig
from repro.units import DAY
from repro.workload.scenario import build_trace, clear_trace_cache

from tests.conftest import make_config


@pytest.fixture(autouse=True)
def _clean_state():
    clear_baseline_cache()
    clear_trace_cache()
    yield
    clear_baseline_cache()
    clear_trace_cache()


def _fig3_tables(jobs=1, faults=None):
    config = fig3_buffer_prefetch.Fig3Config(
        duration=2 * DAY, prefetch_limits=(1, 8), seeds=(0,), faults=faults
    )
    result = fig3_buffer_prefetch.run(config, jobs=jobs)
    tables = [result] if not isinstance(result, (list, tuple)) else list(result)
    return export_tables(tables, "text")


def _fig6_tables(faults=None):
    config = fig6_expiration_threshold.Fig6Config(
        duration=2 * DAY, seeds=(0,), faults=faults
    )
    result = fig6_expiration_threshold.run(config)
    tables = [result] if not isinstance(result, (list, tuple)) else list(result)
    return export_tables(tables, "text")


class TestNullPlanIdentity:
    def test_fig3_byte_identical_under_null_spec(self):
        baseline = _fig3_tables()
        assert _fig3_tables(faults=FaultSpec.none()) == baseline

    def test_fig3_byte_identical_under_null_spec_in_workers(self):
        # The spec rides to each worker inside the config of every cell.
        baseline = _fig3_tables()
        assert _fig3_tables(jobs=2, faults=FaultSpec.none()) == baseline

    def test_fig6_byte_identical_under_null_spec(self):
        baseline = _fig6_tables()
        assert _fig6_tables(faults=FaultSpec.none()) == baseline

    def test_validate_scorecard_identical_under_null_spec(self):
        from repro.experiments import validate as validate_module

        config = validate_module.ValidateConfig(duration=2 * DAY)
        baseline = validate_module.render(validate_module.run(config))
        null = validate_module.ValidateConfig(
            duration=2 * DAY, faults=FaultSpec.none()
        )
        assert validate_module.render(validate_module.run(null)) == baseline


class TestSpecAcrossWorkers:
    def test_chaos_fig3_identical_across_workers_and_not_clean(self):
        """A non-null spec reaches every worker through the cell's config:
        the chaos grid split over two processes matches the in-process
        grid, and both differ from the fault-free grid."""
        chaos = fig3_buffer_prefetch.Fig3Config(
            duration=2 * DAY, faults=PRESETS["chaos"]
        )
        clean = fig3_buffer_prefetch.Fig3Config(duration=2 * DAY)
        serial = export_tables(fig3_buffer_prefetch.run(chaos, jobs=1), "text")
        clear_baseline_cache()
        clear_trace_cache()
        parallel = export_tables(fig3_buffer_prefetch.run(chaos, jobs=2), "text")
        assert parallel == serial
        assert export_tables(fig3_buffer_prefetch.run(clean), "text") != serial


class TestReliablePresetConvergence:
    def test_reliable_preset_matches_fault_free_metrics(self):
        """Protocol on, nothing failing: identical waste/loss numbers."""
        trace = build_trace(make_config(days=3.0, outage_fraction=0.4), seed=2)
        clean = run_paired(trace, PolicyConfig.unified())
        clear_baseline_cache()
        retried = run_paired(
            trace, PolicyConfig.unified(), faults=PRESETS["reliable"]
        )
        assert retried.metrics == clean.metrics
        assert retried.policy.stats.delivery_drops == 0
        assert retried.policy.stats.delivery_failures == 0

    def test_reliable_preset_is_not_null(self):
        # If this ever becomes null, the test above stops exercising the
        # ack-retry path and silently proves nothing.
        assert not PRESETS["reliable"].is_null


class TestLossMonotonicity:
    RATES = (0.0, 0.05, 0.15, 0.3, 0.5)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_higher_loss_never_decreases_drops_or_loss(self, seed):
        """Faults on the policy run only, against one clean baseline.

        (Injecting into the baseline too moves the loss denominator,
        which can make the paired metric non-monotone even while every
        individual run strictly degrades.)
        """
        from repro.experiments.runner import run_scenario
        from repro.metrics.waste_loss import pair_metrics

        config = make_config(days=3.0, outage_fraction=0.3)
        trace = build_trace(config, seed=seed)
        baseline = run_scenario(trace, PolicyConfig.online())
        drops, losses = [], []
        for rate in self.RATES:
            spec = FaultSpec(loss_rate=rate) if rate else None
            candidate = run_scenario(trace, PolicyConfig.unified(), faults=spec)
            drops.append(candidate.stats.delivery_drops)
            losses.append(pair_metrics(baseline.stats, candidate.stats).loss)
        assert drops == sorted(drops)
        assert losses == sorted(losses)
        assert drops[-1] > 0  # the grid actually exercised loss
