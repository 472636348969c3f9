"""Unit tests for the Notification message type."""

from repro.broker.message import DEFAULT_SIZE_BYTES, Notification
from repro.types import EventId, TopicId


def make(event_id=1, rank=3.0, published_at=100.0, expires_at=None):
    return Notification(
        event_id=EventId(event_id),
        topic=TopicId("t"),
        rank=rank,
        published_at=published_at,
        expires_at=expires_at,
    )


class TestExpiry:
    def test_never_expires_without_deadline(self):
        n = make()
        assert not n.is_expired(1e12)
        assert n.lifetime is None
        assert n.remaining_lifetime(500.0) is None

    def test_expired_at_and_after_deadline(self):
        n = make(expires_at=200.0)
        assert not n.is_expired(199.9)
        assert n.is_expired(200.0)
        assert n.is_expired(300.0)

    def test_lifetime_and_remaining(self):
        n = make(published_at=100.0, expires_at=250.0)
        assert n.lifetime == 150.0
        assert n.remaining_lifetime(180.0) == 70.0
        assert n.remaining_lifetime(300.0) == -50.0


class TestIdentity:
    def test_equality_follows_event_id(self):
        assert make(event_id=5, rank=1.0) == make(event_id=5, rank=4.0)
        assert make(event_id=5) != make(event_id=6)

    def test_hash_follows_event_id(self):
        a, b = make(event_id=7, rank=1.0), make(event_id=7, rank=2.0)
        assert len({a, b}) == 1

    def test_not_equal_to_other_types(self):
        assert make() != 1
        assert make() != "notification"


class TestRankTracking:
    def test_default_size(self):
        assert make().size_bytes == DEFAULT_SIZE_BYTES
