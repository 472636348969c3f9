#!/usr/bin/env python3
"""A live newsroom: diurnal publishing, quiet hours, urgent interrupts.

Ties together the pieces the other examples use in isolation:

* a newsroom publishes stories with a working-day diurnal profile,
  each handed to the user's proxy as it is published;
* the user's topic is ON-LINE with a §2.2 delivery schedule — at most
  12 pushes per day, night quiet hours (23:00–07:00) — so routine
  stories never buzz the phone at 3 a.m.;
* stories ranked 4.5+ are *urgent* and break through both limits;
* everything the schedule holds back stays readable on demand.

Run:  python examples/live_newsroom.py
"""

from collections import Counter
import math

from repro import (
    DeliverySchedule,
    DiurnalProfile,
    LastHopProxy,
    Notification,
    PolicyConfig,
    QuietHours,
    RandomSource,
    RunStats,
    Simulator,
    TopicType,
)
from repro.experiments.runner import wire_device
from repro.types import DeliveryMode, TopicId
from repro.units import DAY, HOUR
from repro.workload.arrivals import ArrivalConfig
from repro.workload.diurnal import generate_diurnal_arrivals

TOPIC = TopicId("news/headlines")
DAYS = 30


def main() -> None:
    sim = Simulator()
    stats = RunStats()
    rng = RandomSource(seed=17)

    schedule = DeliverySchedule(
        quiet_hours=QuietHours(windows=((0.0, 7.0), (23.0, 24.0))),
        max_pushes_per_day=12,
        urgent_threshold=4.5,
    )
    proxy = LastHopProxy(sim, PolicyConfig.unified())
    link, device, _ = wire_device(
        sim, proxy, TOPIC, 0.0, stats, plan=None, recorder=None,
        topic_type=TopicType.ONLINE, schedule=schedule,
    )

    # Publishing: ~40 stories/day shaped by the working day.
    stories = generate_diurnal_arrivals(
        ArrivalConfig(events_per_day=40.0, expiring_fraction=1.0,
                      expiration_mean=2 * DAY),
        DiurnalProfile.working_day(),
        DAYS * DAY,
        rng.spawn("newsroom"),
    )
    for story in stories:
        sim.schedule_at(
            story.time,
            proxy.on_notification,
            Notification(
                event_id=story.event_id,
                topic=TOPIC,
                rank=story.rank,
                published_at=story.time,
                expires_at=story.expires_at,
            ),
        )

    # Observe when pushes land on the device, and which were urgent.
    push_hours = Counter()
    routine_pushes = 0
    night_routine_pushes = 0
    original_receive = device.receive

    def observing_receive(notification, mode):
        nonlocal routine_pushes, night_routine_pushes
        if mode is DeliveryMode.PUSHED:
            hour = int(math.fmod(sim.now, DAY) // HOUR)
            push_hours[hour] += 1
            if notification.rank < 4.5:
                routine_pushes += 1
                if hour >= 23 or hour < 7:
                    night_routine_pushes += 1
        original_receive(notification, mode)

    device.receive = observing_receive

    # The user checks headlines twice a day.
    for day in range(DAYS):
        for check_hour in (8.5, 19.0):
            sim.schedule_at(
                day * DAY + check_hour * HOUR,
                device.perform_read,
                TOPIC,
                8,
            )

    sim.run(until=DAYS * DAY)

    night_pushes = sum(push_hours[h] for h in (23, 0, 1, 2, 3, 4, 5, 6))
    urgent_pushes = stats.pushed - routine_pushes
    print(f"stories published          : {stats.arrivals}")
    print(f"routine pushes             : {routine_pushes} "
          f"({routine_pushes / DAYS:.1f}/day, cap 12)")
    print(f"urgent pushes (rank ≥ 4.5) : {urgent_pushes} "
          "(exempt from cap and quiet hours)")
    print(f"pushed during night quiet  : {night_pushes} (urgent stories only)")
    print(f"pulled on demand           : {stats.pulled}")
    print(f"read by the user           : {stats.messages_read}")
    print()
    print("pushes by hour of day:")
    peak = max(push_hours.values())
    for hour in range(24):
        bar = "#" * round(20 * push_hours[hour] / peak)
        print(f"  {hour:02d}:00 {push_hours[hour]:4d} {bar}")

    assert routine_pushes <= 12 * DAYS
    assert night_routine_pushes == 0  # quiet hours hold all routine stories


if __name__ == "__main__":
    main()
