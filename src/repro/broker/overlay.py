"""The broker overlay network.

Brokers are vertices of a weighted graph (edge weights are link
latencies in seconds). A notification published at one broker is routed
to every broker hosting a subscriber of its topic along shortest paths,
arriving after the accumulated latency. The overlay keeps a per-topic
set of interested brokers — the standard subscription-table approach of
topic-based systems, which the paper prefers over content-based routing
for its lower overhead.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.broker.broker import Broker
from repro.broker.message import Notification
from repro.broker.topics import TopicRegistry
from repro.errors import RoutingError
from repro.sim.engine import Simulator
from repro.types import EventId, NodeId, TopicId


class BrokerOverlay:
    """A set of brokers joined by latency-weighted links."""

    def __init__(self, sim: Simulator) -> None:
        # networkx is an optional dependency (the ``overlay`` extra) and
        # costs ~14 MB to import; only code that builds an overlay pays.
        import networkx as nx

        self._sim = sim
        self._graph = nx.Graph()
        self._brokers: Dict[NodeId, Broker] = {}
        self.registry = TopicRegistry()
        #: topic -> brokers with at least one local subscriber.
        self._interested: Dict[TopicId, Set[NodeId]] = {}
        self._path_cache: Dict[Tuple[NodeId, NodeId], float] = {}
        self._event_ids = itertools.count(1)
        self._routed_count = 0

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_broker(self, node_id: NodeId) -> Broker:
        """Create a broker and add it to the overlay graph."""
        if node_id in self._brokers:
            raise RoutingError(f"broker {node_id!r} already exists")
        broker = Broker(node_id, self)
        self._brokers[node_id] = broker
        self._graph.add_node(node_id)
        return broker

    def connect(self, a: NodeId, b: NodeId, latency: float = 0.010) -> None:
        """Join two brokers with a bidirectional link."""
        if a not in self._brokers or b not in self._brokers:
            raise RoutingError(f"cannot connect unknown brokers {a!r} and {b!r}")
        if latency < 0:
            raise RoutingError(f"latency must be non-negative, got {latency}")
        self._graph.add_edge(a, b, weight=latency)
        self._path_cache.clear()

    def broker(self, node_id: NodeId) -> Broker:
        try:
            return self._brokers[node_id]
        except KeyError:
            raise RoutingError(f"unknown broker {node_id!r}") from None

    @property
    def brokers(self) -> Iterable[Broker]:
        return self._brokers.values()

    @property
    def routed_count(self) -> int:
        """Total broker-to-broker deliveries performed."""
        return self._routed_count

    def next_event_id(self) -> EventId:
        """Allocate a globally unique event id for a new publication."""
        return EventId(next(self._event_ids))

    def latency_between(self, a: NodeId, b: NodeId) -> float:
        """Shortest-path latency between two brokers."""
        if a == b:
            return 0.0
        key = (a, b)
        cached = self._path_cache.get(key)
        if cached is not None:
            return cached
        import networkx as nx

        try:
            latency = nx.shortest_path_length(self._graph, a, b, weight="weight")
        except (nx.NetworkXNoPath, nx.NodeNotFound) as exc:
            raise RoutingError(f"no route between {a!r} and {b!r}") from exc
        self._path_cache[key] = latency
        self._path_cache[(b, a)] = latency
        return latency

    # ------------------------------------------------------------------
    # Subscription-table maintenance (called by brokers)
    # ------------------------------------------------------------------
    def note_subscription(self, topic: TopicId, node_id: NodeId) -> None:
        self._interested.setdefault(topic, set()).add(node_id)

    def note_unsubscription(self, topic: TopicId, node_id: NodeId) -> None:
        interested = self._interested.get(topic)
        if interested is not None:
            interested.discard(node_id)
            if not interested:
                del self._interested[topic]

    def interested_brokers(self, topic: TopicId) -> Set[NodeId]:
        """Brokers that currently host subscribers of ``topic``."""
        return set(self._interested.get(topic, set()))

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def route(self, origin: NodeId, notification: Notification) -> None:
        """Route a notification from its origin broker to all interested
        brokers, delivering after the shortest-path latency."""
        if origin not in self._brokers:
            raise RoutingError(f"publication from unknown broker {origin!r}")
        for node_id in self.interested_brokers(notification.topic):
            latency = self.latency_between(origin, node_id)
            broker = self._brokers[node_id]
            self._routed_count += 1
            self._sim.schedule(latency, broker.deliver_local, notification)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BrokerOverlay({len(self._brokers)} brokers, "
            f"{self._graph.number_of_edges()} links, "
            f"{len(self.registry)} topics)"
        )
