#!/usr/bin/env python3
"""The paper's Slashdot example (§2.2), end to end through the last hop.

"If one wanted to subscribe to the 'Slashdot' topic, the two thresholds
used in concert would allow one to request the highest-ranked stories
and comments above threshold 4.5 (out of 5 maximum), but not more than
30 at a time. Provided that the stories do not expire too quickly, one
can come back from a month-long vacation and read the most important
bits from the past month."

This example wires a last-hop proxy and a mobile device; hands the proxy
a month of stories while the device is off the grid; and then performs
the single post-vacation read.

Run:  python examples/slashdot_vacation.py
"""

from repro import (
    LastHopProxy,
    NetworkStatus,
    Notification,
    PolicyConfig,
    RandomSource,
    RunStats,
    Simulator,
)
from repro.experiments.runner import wire_device
from repro.types import EventId, TopicId
from repro.units import DAY, HOUR

TOPIC = TopicId("news/slashdot")
THRESHOLD = 4.5
MAX_PER_READ = 30


def main() -> None:
    sim = Simulator()
    stats = RunStats()
    rng = RandomSource(seed=7)

    # The last hop: proxy -> link -> device.
    proxy = LastHopProxy(sim, PolicyConfig.on_demand())
    link, device, _ = wire_device(
        sim, proxy, TOPIC, THRESHOLD, stats, plan=None, recorder=None
    )

    # The user leaves on vacation: the device is unreachable for a month.
    link.set_status(NetworkStatus.DOWN)

    # A month of Slashdot: ~40 stories/day with uniform ranks and
    # week-long expirations for ordinary stories; editor's picks last.
    # The routing substrate is a black box (§2): each story reaches the
    # proxy as it is published.
    def publish_month():
        for day in range(30):
            for _ in range(40):
                rank = rng.uniform(0.0, 5.0)
                expires = None if rank > 4.0 else 7 * DAY
                yield day * DAY + rng.uniform(0.0, DAY), rank, expires

    published = 0
    for time, rank, expires in sorted(publish_month()):
        published += 1
        story = Notification(
            event_id=EventId(published),
            topic=TOPIC,
            rank=rank,
            published_at=time,
            expires_at=None if expires is None else time + expires,
        )
        sim.schedule_at(time, proxy.on_notification, story)

    # Back home after 30 days: the link returns, the user reads once.
    sim.schedule_at(30 * DAY + 1 * HOUR, link.set_status, NetworkStatus.UP)
    sim.run(until=30 * DAY + 2 * HOUR)
    outcome = device.perform_read(TOPIC, MAX_PER_READ)

    print(f"published stories          : {published}")
    print(f"accepted above threshold   : {stats.accepted}")
    print(f"filtered below threshold   : {stats.filtered}")
    print(f"stories read after vacation: {outcome.count}")
    ranks = [f"{m.rank:.2f}" for m in outcome.consumed[:10]]
    print(f"top ranks read             : {', '.join(ranks)} …")
    print(f"messages wasted            : {stats.wasted} "
          f"(pure on-demand guarantees zero)")
    assert outcome.count == MAX_PER_READ
    assert all(m.rank >= THRESHOLD for m in outcome.consumed)
    assert stats.wasted == 0


if __name__ == "__main__":
    main()
