"""Shared enums and type aliases.

These small vocabulary types are used across packages; keeping them in
one module avoids circular imports between the broker, proxy, and device
layers.
"""

from __future__ import annotations

import enum
from typing import NewType

#: Identifier of a notification. Unique per published event.
EventId = NewType("EventId", int)

#: Identifier of a topic, e.g. ``"news/weather/tromso"``.
TopicId = NewType("TopicId", str)


class TopicType(enum.Enum):
    """How the user wants notifications on a topic delivered (paper §2.2).

    ``ONLINE`` topics are forwarded over the last hop as soon as the
    connection allows; ``ON_DEMAND`` topics are optimized using the
    volume-limiting parameters and prefetching.
    """

    ONLINE = "on-line"
    ON_DEMAND = "on-demand"


class NetworkStatus(enum.Enum):
    """State of the last-hop link between the proxy and the device."""

    UP = "up"
    DOWN = "down"


class PolicyKind(enum.Enum):
    """Forwarding policy families evaluated in the paper (§3.1–§3.5)."""

    #: Forward every acceptable notification as soon as the network allows.
    #: Zero loss by definition; serves as the quality-of-service baseline.
    ONLINE = "online"

    #: Hold everything at the proxy until the user explicitly reads.
    #: Zero waste by definition.
    ON_DEMAND = "on-demand"

    #: Keep at most ``prefetch_limit`` unread notifications on the device.
    BUFFER = "buffer"

    #: Forward a fraction of arrivals matching the consumption/production
    #: rate ratio.
    RATE = "rate"

    #: The paper's Figure 7 algorithm: buffer-based prefetching with an
    #: adaptive limit, an adaptive expiration threshold with a holding
    #: queue, and an optional delay stage for rank-unstable topics.
    UNIFIED = "unified"


class DeliveryMode(enum.Enum):
    """Why a message crossed the last hop (used by accounting)."""

    PUSHED = "pushed"  #: forwarded proactively (on-line or prefetch)
    PULLED = "pulled"  #: shipped in response to a READ exchange
