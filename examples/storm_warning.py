#!/usr/bin/env python3
"""Ranks, expirations, and retractions on a weather topic (§2.1, §3.4).

"If, for example, a publisher of a weather topic fails to attach a high
priority to a storm warning, resulting in that message being lost among
other weather updates, a user would likely consider switching to a
different publisher."

A weather service publishes routine updates (low rank, short
expiration) and occasional storm warnings (rank 4.9, long expiration).
A mis-ranked warning is corrected upward after publication; a false
alarm is retracted by a rank drop. The device's Threshold-4 subscription
plus the proxy's rank-change handling make sure the user sees exactly
the warnings that matter.

Run:  python examples/storm_warning.py
"""

import dataclasses
import itertools

from repro import (
    LastHopProxy,
    Notification,
    PolicyConfig,
    RandomSource,
    RunStats,
    Simulator,
)
from repro.experiments.runner import wire_device
from repro.types import EventId, TopicId
from repro.units import DAY, HOUR

TOPIC = TopicId("news/weather/tromso")
THRESHOLD = 4.0


def main() -> None:
    sim = Simulator()
    stats = RunStats()
    rng = RandomSource(seed=3)

    proxy = LastHopProxy(sim, PolicyConfig.buffer(prefetch_limit=8))
    link, device, _ = wire_device(
        sim, proxy, TOPIC, THRESHOLD, stats, plan=None, recorder=None
    )

    # The routing substrate is a black box (§2): the weather service's
    # notifications reach the proxy as they are published.
    event_ids = itertools.count(1)
    published = {}

    def publish(rank, expires_in, payload):
        notification = Notification(
            event_id=EventId(next(event_ids)),
            topic=TOPIC,
            rank=rank,
            published_at=sim.now,
            expires_at=sim.now + expires_in,
            payload=payload,
        )
        published[payload] = notification
        proxy.on_notification(notification)

    def change_rank(payload, new_rank):
        # A rank change is re-announced under the original event id.
        update = dataclasses.replace(published[payload], rank=new_rank)
        proxy.on_notification(update)

    # A week of routine forecasts: rank ~2, valid for six hours.
    for day in range(7):
        for hour in range(0, 24, 3):
            time = day * DAY + hour * HOUR
            rank = rng.uniform(1.0, 3.0)
            sim.schedule_at(time, publish, rank, 6 * HOUR, "routine forecast")

    # Day 2: a storm warning, correctly ranked — goes straight through.
    sim.schedule_at(2 * DAY, publish, 4.9, 4 * DAY, "STORM WARNING")
    # Day 4: a mis-ranked warning (2.5), corrected to 4.8 an hour later.
    sim.schedule_at(4 * DAY, publish, 2.5, 4 * DAY, "gale warning")
    sim.schedule_at(4 * DAY + HOUR, change_rank, "gale warning", 4.8)
    # Day 5: a false alarm at 4.7, retracted below threshold an hour later.
    sim.schedule_at(5 * DAY, publish, 4.7, 4 * DAY, "false alarm")
    sim.schedule_at(5 * DAY + HOUR, change_rank, "false alarm", 0.5)

    # The user checks messages half a day after the false alarm was
    # retracted; both genuine warnings are still in force.
    sim.run(until=5 * DAY + 12 * HOUR)
    outcome = device.perform_read(TOPIC, 8)

    print(f"forecasts published        : {stats.arrivals}")
    print(f"accepted above threshold 4 : {stats.accepted}")
    print(f"rank changes processed     : {stats.rank_changes}")
    print(f"retractions over last hop  : {stats.retractions_sent}")
    print(f"retracted on device        : {stats.retracted_on_device}")
    print()
    print("what the user reads:")
    for message in outcome.consumed:
        print(f"  rank {message.rank:.1f}  {message.payload}")

    payloads = {m.payload for m in outcome.consumed}
    assert "STORM WARNING" in payloads
    assert "gale warning" in payloads       # boosted into view
    assert "false alarm" not in payloads    # retracted before reading
    assert "routine forecast" not in payloads


if __name__ == "__main__":
    main()
