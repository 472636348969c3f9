"""Multi-device cache cooperation (the paper's §4 future work).

"In the future we want to look into cooperation among multiple devices
belonging to one user. Their interaction, perhaps with the aid of an
ad-hoc network, has the potential for reducing both loss and waste by
allowing one device to use the cache of another."

A :class:`DeviceGroup` joins the devices of one user over an
:class:`AdHocNetwork`. Reads are performed on one *reader* device; when
peers are reachable over the ad-hoc network, the read draws from the
union of all caches, so a notification prefetched to the laptop can be
read on the phone while the phone's own wide-area link is down —
reducing loss (more cache survives outages) and waste (messages on any
device can still be read).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.broker.message import Notification
from repro.device.device import ClientDevice
from repro.errors import ConfigurationError, DeviceError
from repro.metrics.accounting import RunStats
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource
from repro.types import TopicId


class AdHocNetwork:
    """Reachability between a user's co-located devices.

    ``availability`` is the probability that the ad-hoc hop works at the
    moment of a read (devices may be in different bags, Bluetooth may be
    off, …). 1.0 models devices that are always together.
    """

    def __init__(self, availability: float = 1.0, rng: Optional[RandomSource] = None):
        if not 0.0 <= availability <= 1.0:
            raise ConfigurationError(
                f"availability must be within [0, 1], got {availability}"
            )
        self._availability = availability
        self._rng = rng or RandomSource(0)

    @property
    def availability(self) -> float:
        return self._availability

    def reachable(self) -> bool:
        """Whether the ad-hoc hop works right now."""
        if self._availability >= 1.0:
            return True
        if self._availability <= 0.0:
            return False
        return self._rng.bernoulli(self._availability)


@dataclass(frozen=True)
class GroupReadOutcome:
    """What one cooperative read produced."""

    consumed: Tuple[Notification, ...]
    #: Notifications served from a peer's cache over the ad-hoc network.
    borrowed: int
    #: Notifications the reader's proxy shipped during the READ exchange.
    fetched: int
    #: Whether peers were reachable for this read.
    peers_reachable: bool

    @property
    def count(self) -> int:
        return len(self.consumed)


class DeviceGroup:
    """The devices of one user, cooperating on reads.

    The first device added is the *reader* — the one the user actually
    checks messages on (a phone). Peers (a laptop, a tablet) receive
    prefetched notifications through their own proxies and lend their
    caches to the reader's reads.
    """

    def __init__(
        self,
        sim: Simulator,
        stats: RunStats,
        adhoc: Optional[AdHocNetwork] = None,
    ) -> None:
        self._sim = sim
        self._stats = stats
        self._adhoc = adhoc or AdHocNetwork()
        self._devices: List[ClientDevice] = []
        self.borrowed_total = 0

    def add_device(self, device: ClientDevice) -> None:
        """Add a device; the first one becomes the reader."""
        self._devices.append(device)

    @property
    def reader(self) -> ClientDevice:
        if not self._devices:
            raise DeviceError("device group is empty")
        return self._devices[0]

    @property
    def devices(self) -> List[ClientDevice]:
        return list(self._devices)

    def queue_size(self, topic: TopicId) -> int:
        """Unread notifications across the whole group."""
        return sum(device.queue_size(topic) for device in self._devices)

    def perform_read(self, topic: TopicId, n: int) -> GroupReadOutcome:
        """One user read on the reader device, drawing on all caches.

        The reader first runs its normal READ exchange with its proxy
        (when its wide-area link is up); the consumption step then
        selects the N highest-ranked acceptable notifications across
        every reachable device and removes each from its owner.
        """
        reader = self.reader
        peers_reachable = len(self._devices) > 1 and self._adhoc.reachable()

        # The reader's own READ exchange (pulls "better" data if any).
        outcome = reader.perform_read(topic, n)
        consumed: List[Notification] = list(outcome.consumed)
        fetched = outcome.fetched
        borrowed = 0

        # Top up from peer caches over the ad-hoc network.
        if peers_reachable and len(consumed) < n:
            threshold = reader.threshold(topic)
            now = self._sim.now
            candidates: List[Tuple[Notification, ClientDevice]] = []
            for peer in self._devices[1:]:
                # Lazy iteration: the threshold cut-off stops after the
                # acceptable prefix instead of materializing (and rank-
                # sorting) the peer's whole cache on every read.
                for notification in peer.iter_unread(topic):
                    if notification.rank < threshold:
                        break  # iteration is rank-ordered
                    if notification.is_expired(now):
                        continue
                    if notification.event_id in self._stats.read_ids:
                        continue  # already read on another device
                    candidates.append((notification, peer))
            candidates.sort(key=lambda pair: -pair[0].rank)
            picked = {m.event_id for m in consumed}
            for notification, peer in candidates:
                if len(consumed) >= n:
                    break
                if notification.event_id in picked:
                    continue  # replicated onto several peers
                taken = peer.take(topic, notification.event_id)
                if taken is None:
                    continue
                picked.add(taken.event_id)
                self._stats.record_read(taken.event_id, now - taken.published_at)
                consumed.append(taken)
                borrowed += 1

        self.borrowed_total += borrowed
        return GroupReadOutcome(
            consumed=tuple(consumed),
            borrowed=borrowed,
            fetched=fetched,
            peers_reachable=peers_reachable,
        )
