"""The notification carried end to end through the routing substrate.

The paper treats the wide-area routing infrastructure as "a black box
that offers the standard pub/sub operations: advertising (or
withdrawing) topics, publishing notifications, and subscribing to (or
unsubscribing from) them", with the only requirement that notifications
and subscription notices carry the volume-limiting attribute pairs
(Rank/Expiration and Max/Threshold). The reproduction keeps only what
crosses that box into the last hop:

* :mod:`~repro.broker.message` — the :class:`Notification` carried end
  to end, annotated with rank and expiration.
"""

from repro.broker.message import Notification

__all__ = ["Notification"]
