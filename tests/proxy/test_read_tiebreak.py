"""Regression tests for the READ rank-tie-break (prefer client copies).

The READ merge ranks the proxy's best candidates against the (id, rank)
pairs the client already holds. On a rank tie the client's copy must win
the slot — re-sending an equally-ranked notification the device already
has wastes last-hop bytes without giving the user anything better.
"""

from repro.broker.message import Notification
from repro.metrics.accounting import RunStats
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.sim.engine import Simulator
from repro.types import DeliveryMode, EventId, TopicId

TOPIC = TopicId("t")


class FakeTransport:
    def __init__(self):
        self.delivered = []

    def deliver(self, notification, mode):
        self.delivered.append((notification, mode))

    def retract(self, event_id):  # pragma: no cover - not exercised here
        pass


def build_on_demand():
    sim = Simulator()
    transport = FakeTransport()
    proxy = LastHopProxy(sim, PolicyConfig.on_demand())
    proxy.add_binding(TOPIC, transport=transport, stats=RunStats())
    return sim, transport, proxy


def note(event_id, rank, published_at=0.0):
    return Notification(
        event_id=EventId(event_id), topic=TOPIC, rank=rank, published_at=published_at
    )


def test_rank_tie_keeps_client_copy():
    """An equally-ranked queued notification must not be re-sent."""
    _sim, transport, proxy = build_on_demand()
    proxy.on_notification(note(1, rank=2.0))
    response = proxy.on_read(TOPIC, n=1, queue_size=1, client_events=[(EventId(99), 2.0)])
    assert response.sent == ()
    assert transport.delivered == []
    # The candidate stays queued at the proxy for a later read.
    assert proxy.topic_state(TOPIC).queued_event_count() == 1


def test_strictly_better_candidate_still_ships():
    _sim, transport, proxy = build_on_demand()
    proxy.on_notification(note(1, rank=3.0))
    response = proxy.on_read(TOPIC, n=1, queue_size=1, client_events=[(EventId(99), 2.0)])
    assert [n.event_id for n in response.sent] == [1]
    assert transport.delivered[0][1] is DeliveryMode.PULLED


def test_tie_at_slot_boundary_prefers_all_client_copies():
    """With N slots and N equally-ranked client events, nothing ships."""
    _sim, transport, proxy = build_on_demand()
    proxy.on_notification(note(1, rank=2.0))
    proxy.on_notification(note(2, rank=2.0))
    client = [(EventId(90), 2.0), (EventId(91), 2.0)]
    response = proxy.on_read(TOPIC, n=2, queue_size=2, client_events=client)
    assert response.sent == ()
    assert response.candidates == 2


def test_spare_slot_still_ships_tied_candidate():
    """The tie-break protects client copies, it does not starve spare
    slots: with room left in N, an equally-ranked proxy candidate is
    still worth shipping (the client holds only one copy of that rank)."""
    _sim, transport, proxy = build_on_demand()
    proxy.on_notification(note(1, rank=2.0))
    proxy.on_notification(note(2, rank=1.0))
    response = proxy.on_read(TOPIC, n=2, queue_size=1, client_events=[(EventId(99), 2.0)])
    assert [n.event_id for n in response.sent] == [1]
