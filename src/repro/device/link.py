"""The last-hop link between the proxy and the mobile device.

The link is the scarce resource the whole paper is about: it goes up and
down according to the outage schedule, carries proxy-to-device
deliveries and retractions, and meters every transfer. "We view periods
of unacceptably slow network performance as outages" — so the model has
only two states, UP and DOWN.

With a :class:`~repro.faults.FaultPlan` attached the link additionally
models a *lossy* last hop behind a reliable-delivery protocol: each
delivery is an acknowledged transfer attempt that the plan may drop,
duplicate, or jitter; lost attempts are retried with capped exponential
backoff, retries that fire during an outage are parked until the link
returns, and transfers that exhaust the retry budget are abandoned.
Without a plan (the default) every fault-aware path reduces to the
exact single-attempt behaviour — byte-identical runs.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.broker.message import Notification
from repro.errors import ConfigurationError, ProxyError
from repro.faults import FaultPlan
from repro.metrics.accounting import RunStats
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids an
    # import cycle: obs.__init__ -> obs.audit -> proxy -> ... -> link)
    from repro.obs.recorder import TraceRecorder
from repro.types import DeliveryMode, EventId, NetworkStatus

#: Size of a rank-drop retraction control message (an id plus headers).
RETRACTION_SIZE_BYTES: int = 32

StatusListener = Callable[[NetworkStatus], None]


class LastHopLink:
    """A metered, outage-prone downlink implementing the proxy's
    :class:`~repro.proxy.proxy.Transport` protocol."""

    def __init__(
        self,
        sim: Simulator,
        stats: Optional[RunStats] = None,
        faults: Optional[FaultPlan] = None,
        recorder: Optional["TraceRecorder"] = None,
    ) -> None:
        self._sim = sim
        self._stats = stats if stats is not None else RunStats()
        self._status = NetworkStatus.UP
        self._device = None
        self._listeners: List[StatusListener] = []
        #: Per-run fault realization; None = the reliable, single-attempt
        #: transport (the guaranteed-identity fast path).
        self._faults = faults
        self._recorder = recorder
        #: Retry attempts that fired while the link was down, resumed in
        #: arrival order when the link comes back up.
        self._parked: List[Tuple[Notification, DeliveryMode, int]] = []
        self.deliveries = 0
        self.retractions = 0
        self.bytes_carried = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach_device(self, device) -> None:
        """Connect the mobile device this link serves.

        A link carries exactly one device: attaching a second one would
        silently reroute deliveries scheduled for the first (jittered
        deliveries capture the device at send time, immediate ones at
        receive time — a split-brain bug). Re-attaching the same device
        is an idempotent no-op.
        """
        if self._device is not None and device is not self._device:
            raise ConfigurationError(
                "a device is already attached to this link; "
                "one LastHopLink serves exactly one device"
            )
        self._device = device

    def add_status_listener(self, listener: StatusListener) -> None:
        """Register a callback fired on every status transition (the
        proxy's ``NETWORK(status)`` handler, typically)."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    @property
    def status(self) -> NetworkStatus:
        return self._status

    @property
    def up(self) -> bool:
        return self._status is NetworkStatus.UP

    def set_status(self, status: NetworkStatus) -> None:
        """Transition the link; listeners fire only on actual change."""
        if status is self._status:
            return
        self._status = status
        if status is NetworkStatus.UP and self._parked:
            # Resume parked retries before the listeners run, so their
            # zero-delay events precede anything a listener schedules.
            parked, self._parked = self._parked, []
            for notification, mode, attempt in parked:
                self._sim.schedule(0.0, self._attempt, notification, mode, attempt)
        for listener in self._listeners:
            listener(status)

    # ------------------------------------------------------------------
    # Transport protocol (proxy -> device)
    # ------------------------------------------------------------------
    def deliver(self, notification: Notification, mode: DeliveryMode) -> None:
        """Carry one notification to the device.

        Raises :class:`ProxyError` if called while down — the proxy's
        ``try_forwarding`` must gate on the link status, and a violation
        is a bug worth failing loudly on.
        """
        self._require_up("deliver")
        if self._faults is None:
            self.deliveries += 1
            self.bytes_carried += notification.size_bytes
            self._device.receive(notification, mode)
            return
        self._attempt(notification, mode, 1)

    def _attempt(
        self, notification: Notification, mode: DeliveryMode, attempt: int
    ) -> None:
        """One acknowledged transfer attempt under the fault plan.

        In-simulation the proxy learns synchronously whether the attempt
        was lost (modelling the ack timeout having fired); a lost
        attempt is retried after a capped exponential backoff, a retry
        landing during an outage parks until reconnection, and the
        transfer is abandoned once the retry budget is spent.
        """
        if self._device is None:
            raise ProxyError("cannot deliver: no device attached to the link")
        if not self.up:
            self._parked.append((notification, mode, attempt))
            return
        plan = self._faults
        # Every attempt — lost or not — consumes last-hop bytes.
        self.bytes_carried += notification.size_bytes
        if plan.drop_delivery(notification.event_id, attempt):
            self._stats.delivery_drops += 1
            if self._recorder is not None:
                self._recorder.delivery_drop(
                    self._sim.now, notification.topic, notification.event_id,
                    attempt,
                )
            if attempt > plan.spec.max_retries:
                self._stats.delivery_failures += 1
                return
            self._stats.delivery_retries += 1
            self._sim.schedule(
                plan.retry_backoff(attempt), self._attempt,
                notification, mode, attempt + 1,
            )
            return
        self.deliveries += 1
        delay = plan.delivery_jitter(notification.event_id, attempt)
        if delay > 0:
            self._sim.schedule(delay, self._device.receive, notification, mode)
        else:
            self._device.receive(notification, mode)
        if plan.duplicate_delivery(notification.event_id):
            self.deliveries += 1
            self.bytes_carried += notification.size_bytes
            self._stats.duplicates_delivered += 1
            if self._recorder is not None:
                self._recorder.duplicate_delivery(
                    self._sim.now, notification.topic, notification.event_id
                )
            if delay > 0:
                self._sim.schedule(delay, self._device.receive, notification, mode)
            else:
                self._device.receive(notification, mode)

    def retract(self, event_id: EventId) -> None:
        """Carry a rank-drop retraction to the device.

        Retractions are tiny control messages; the fault plan leaves
        them reliable (the device-side retract is idempotent anyway, so
        a lost retraction would only convert to later waste, not an
        inconsistency).
        """
        self._require_up("retract")
        self.retractions += 1
        self.bytes_carried += RETRACTION_SIZE_BYTES
        self._device.retract(event_id)

    def _require_up(self, action: str) -> None:
        if self._device is None:
            raise ProxyError(f"cannot {action}: no device attached to the link")
        if not self.up:
            raise ProxyError(f"cannot {action}: the last-hop link is down")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"LastHopLink({self._status.value}, {self.deliveries} deliveries, "
            f"{self.bytes_carried} bytes)"
        )
