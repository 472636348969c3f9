"""Fast shape checks for the extension ablations (schedule, cooperation)."""

import pytest

from repro.experiments.figures import ablation_cooperation, ablation_schedule
from repro.units import DAY


class TestAblationSchedule:
    def test_cap_limits_pushes_and_waste(self):
        config = ablation_schedule.AblationScheduleConfig(
            duration=45 * DAY, push_caps=(None, 8)
        )
        table = ablation_schedule.run(config)
        rows = {(row[0], row[1]): row for row in table.rows}
        uncapped = rows[("∞", "-")]
        capped = rows[(8, "-")]
        assert capped[2] <= 8.05          # pushes/day hits the cap
        assert uncapped[2] > 25.0
        assert capped[3] < uncapped[3] / 2  # waste falls
        assert capped[4] < 10.0           # loss stays moderate
        assert capped[5] >= uncapped[5]   # read age pays for it

    def test_quiet_rows_present(self):
        config = ablation_schedule.AblationScheduleConfig(
            duration=20 * DAY, push_caps=(4,)
        )
        table = ablation_schedule.run(config)
        kinds = {row[1] for row in table.rows}
        assert kinds == {"-", "night"}

    def test_progress_callback(self):
        lines = []
        config = ablation_schedule.AblationScheduleConfig(
            duration=10 * DAY, push_caps=(8,)
        )
        ablation_schedule.run(config, progress=lines.append)
        assert len(lines) == 2


class TestAblationCooperation:
    def test_peers_reduce_loss(self):
        config = ablation_cooperation.AblationCooperationConfig(
            duration=60 * DAY, peer_counts=(0, 1), adhoc_availabilities=(1.0,)
        )
        table = ablation_cooperation.run(config)
        by_peers = {row[0]: row for row in table.rows}
        assert by_peers[1][3] < by_peers[0][3]  # loss
        assert by_peers[1][4] > 0               # borrowed

    def test_unavailable_adhoc_borrows_less(self):
        config = ablation_cooperation.AblationCooperationConfig(
            duration=60 * DAY, peer_counts=(1,), adhoc_availabilities=(1.0, 0.5)
        )
        table = ablation_cooperation.run(config)
        by_adhoc = {row[1]: row for row in table.rows}
        assert by_adhoc[0.5][4] <= by_adhoc[1.0][4]
