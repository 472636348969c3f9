"""The notification message carried through the system.

A publisher may attach two volume-limiting attributes to every event
notification (paper §2.1):

* **Rank** — importance relative to other notifications on its topic.
* **Expiration** — time after which the notification is no longer
  relevant and should be discarded from the queue.

Ranks may change after publication (§3.4), so ``rank`` is mutable; a
notification's identity is its ``event_id`` and equality/hash follow it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro._compat import DATACLASS_SLOTS
from repro.types import EventId, TopicId

#: Nominal payload size used for bandwidth accounting when the
#: publisher does not specify one. 512 bytes is in the ballpark of an
#: SMS-era notification with headers.
DEFAULT_SIZE_BYTES: int = 512


@dataclass(**DATACLASS_SLOTS)
class Notification:
    """One event notification.

    ``expires_at`` is the absolute simulation timestamp after which the
    notification must be discarded, or None for notifications that never
    expire.
    """

    event_id: EventId
    topic: TopicId
    rank: float
    published_at: float
    expires_at: Optional[float] = None
    payload: object = None
    size_bytes: int = DEFAULT_SIZE_BYTES

    def is_expired(self, now: float) -> bool:
        """Whether the notification has expired at time ``now``."""
        return self.expires_at is not None and now >= self.expires_at

    @property
    def lifetime(self) -> Optional[float]:
        """Lifetime granted by the publisher, or None if non-expiring."""
        if self.expires_at is None:
            return None
        return self.expires_at - self.published_at

    def remaining_lifetime(self, now: float) -> Optional[float]:
        """Seconds until expiry at ``now`` (may be negative), or None."""
        if self.expires_at is None:
            return None
        return self.expires_at - now

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Notification):
            return NotImplemented
        return self.event_id == other.event_id

    def __hash__(self) -> int:
        return hash(self.event_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        expiry = "never" if self.expires_at is None else f"{self.expires_at:.0f}"
        return (
            f"Notification(id={self.event_id}, topic={self.topic!r}, "
            f"rank={self.rank:.2f}, expires={expiry})"
        )
