"""The last-hop proxy: the paper's Figure 7 algorithm.

The proxy relays notifications between the fixed pub/sub infrastructure
and mobile devices, one *binding* per (device, topic), registered with
:meth:`LastHopProxy.add_binding`. Its three entry points mirror the
pseudo-code's three main routines:

* :meth:`LastHopProxy.on_notification` — ``NOTIFICATION(event)``, called
  when a new outside event (or a rank change) arrives;
* :meth:`LastHopProxy.on_read` — ``READ(N, queue_size, client_events)``,
  called when the user reads; "essentially, a read is not a request for
  more data, but a request for 'better' data if it exists";
* :meth:`LastHopProxy.on_topic_network` — ``NETWORK(status)``, called
  when a binding's last-hop link goes up or down.

Like the pseudo-code, which "did not include garbage collection", the
proxy keeps every event's history entry for the whole run, so late rank
changes always find the event they name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Protocol, Sequence, Tuple

from repro.broker.message import Notification
from repro.errors import ConfigurationError, ProxyError
from repro.metrics.accounting import RunStats
from repro.obs.audit import Auditor
from repro.obs.recorder import TraceRecorder
from repro.proxy.delay import DelayTracker
from repro.proxy.policies import PolicyConfig
from repro.proxy.prefetch import BufferPrefetcher, RatePrefetcher
from repro.proxy.schedule import DeliverySchedule
from repro.proxy.queues import RankedQueue, highest_ranked
from repro.proxy.state import TopicState
from repro.sim.engine import Simulator
from repro.types import DeliveryMode, EventId, NetworkStatus, PolicyKind, TopicId, TopicType


class Transport(Protocol):
    """Last-hop downlink the proxy forwards through (implemented by
    :class:`repro.device.link.LastHopLink`)."""

    def deliver(self, notification: Notification, mode: DeliveryMode) -> None:
        """Ship one notification to the device."""

    def retract(self, event_id: EventId) -> None:
        """Tell the device a forwarded notification's rank dropped below
        the threshold and it should be discarded."""


@dataclass(frozen=True)
class ReadResponse:
    """Outcome of one READ exchange, for callers that want it."""

    #: Notifications shipped to the device because they beat what the
    #: client already held.
    sent: Tuple[Notification, ...]
    #: How many candidates the proxy considered across its queues.
    candidates: int


class LastHopProxy:
    """The last-hop proxy, serving one binding per (device, topic).

    Each binding is registered with :meth:`add_binding` and owns its
    :class:`~repro.proxy.state.TopicState`, downlink, statistics, moving
    averages and queues, all governed by the proxy's forwarding policy.
    A single-device run is a proxy with one binding; a fleet shard is
    one proxy with thousands. A device with several topics (our
    extension; the paper's evaluation uses one) has one binding per
    topic over the same link.
    """

    def __init__(
        self,
        sim: Simulator,
        policy: PolicyConfig,
        *,
        recorder: Optional[TraceRecorder] = None,
        auditor: Optional[Auditor] = None,
    ) -> None:
        policy.validate()
        self._sim = sim
        self._policy = policy
        #: Observability hooks (:mod:`repro.obs`): a bounded structured
        #: trace recorder and a sampled invariant auditor. Both default
        #: to None, in which case every instrumented site reduces to a
        #: single ``is not None`` check.
        self._recorder = recorder
        self._auditor = auditor
        self._states: Dict[TopicId, TopicState] = {}
        self._buffer = BufferPrefetcher(policy)
        #: Inert RATE credit shared by every binding of a non-RATE
        #: policy, which never consults it.
        self._rate = RatePrefetcher(policy)
        self._in_read = False

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------
    @property
    def policy(self) -> PolicyConfig:
        return self._policy

    def add_binding(
        self,
        topic: TopicId,
        *,
        transport: Transport,
        stats: RunStats,
        topic_type: TopicType = TopicType.ON_DEMAND,
        rank_threshold: float = 0.0,
        delay_tracker: Optional[DelayTracker] = None,
        schedule: Optional[DeliverySchedule] = None,
    ) -> TopicState:
        """Register a (device, topic) binding with its own machinery.

        The binding reaches its device over ``transport`` and is
        accounted in ``stats``. It also gets a private RATE credit line
        and delay tracker, so one device's behaviour never bleeds into
        another's adaptive knobs.

        ``schedule`` attaches §2.2 delivery refinements: quiet hours and
        a daily push cap (enforced on proactive pushes of on-line
        topics) and an urgent-interrupt threshold (notifications at or
        above it are pushed immediately even on an on-demand topic).
        """
        if topic in self._states:
            raise ConfigurationError(f"topic {topic!r} already registered at proxy")
        if schedule is not None:
            schedule.validate()
        policy = self._policy
        state = TopicState(
            topic=topic,
            topic_type=topic_type,
            rank_threshold=rank_threshold,
            ma_window=policy.ma_window,
            schedule=schedule,
        )
        state.transport = transport
        state.stats = stats
        # The credit line is only ever consulted under the RATE kind
        # (observe_arrival/earn); any other policy shares the proxy's
        # inert instance instead of paying one allocation per binding.
        state.rate = (
            RatePrefetcher(policy) if policy.kind is PolicyKind.RATE else self._rate
        )
        state.tracker = delay_tracker or DelayTracker()
        state.expiration_threshold = (
            policy.initial_expiration_threshold
            if policy.expiration_threshold is None
            else policy.expiration_threshold
        )
        state.delay = 0.0 if policy.delay is None else policy.delay
        state.prefetch_limit = self._buffer.effective_limit(state)
        self._states[topic] = state
        return state

    def topic_state(self, topic: TopicId) -> TopicState:
        try:
            return self._states[topic]
        except KeyError:
            raise ProxyError(f"topic {topic!r} is not registered at this proxy") from None

    @property
    def topics(self) -> List[TopicId]:
        return list(self._states)

    # ------------------------------------------------------------------
    # NOTIFICATION(event)
    # ------------------------------------------------------------------
    def on_notification(self, notification: Notification) -> None:
        """Handle a new outside event or a rank-change announcement."""
        state = self.topic_state(notification.topic)
        if state.crashed:
            # The binding's worker is down; the wide-area substrate has
            # no last-hop persistence, so the announcement is lost.
            state.stats.lost_in_crash += 1
            return
        existing = state.history.get(notification.event_id)
        if existing is not None:
            state.stats.rank_changes += 1
            self._handle_rank_change(state, existing, notification)
        else:
            state.stats.arrivals += 1
            self._handle_new_event(state, notification)
        self.try_forwarding(state)
        if self._auditor is not None:
            self._auditor.maybe_audit(self._sim, state)

    def _handle_rank_change(
        self, state: TopicState, existing: Notification, update: Notification
    ) -> None:
        """The pseudo-code's first branch: the rank of a known event moved."""
        tracker = state.tracker
        old_rank = existing.rank
        if update.rank < existing.rank:
            tracker.record_drop(self._sim.now - existing.published_at)
        existing.rank = update.rank

        if update.rank < state.rank_threshold:
            # "if rank has been lowered below the threshold"
            outcome = "dropped"
            was_queued = state.remove_everywhere(existing.event_id)
            delay_handle = state.delay_handles.pop(existing.event_id, None)
            if delay_handle is not None:
                delay_handle.cancel()
                was_queued = True
            if existing.event_id in state.forwarded:
                # "tell client of rank drop"
                outcome = "retracted"
                if existing.event_id not in state.retracted:
                    state.retracted.add(existing.event_id)
                    state.pending_retractions.append(existing.event_id)
            elif was_queued:
                # "don't bother client"
                state.stats.dropped_before_forward += 1
        else:
            # Boost or within-threshold adjustment: re-key the event in
            # whichever queue holds it so ranked selection stays correct.
            outcome = "reordered"
            for queue in (state.outgoing, state.prefetch, state.holding):
                queue.reorder(existing)
        if self._recorder is not None:
            self._recorder.rank_change(
                self._sim.now, state.topic, existing.event_id,
                old_rank, update.rank, outcome,
            )

    def _handle_new_event(self, state: TopicState, notification: Notification) -> None:
        """The pseudo-code's main branch: a genuinely new notification."""
        if notification.rank < state.rank_threshold:
            state.stats.filtered += 1
            return
        if notification.is_expired(self._sim.now):
            # Dead on arrival (possible after wide-area routing latency).
            state.stats.expired_at_proxy += 1
            if self._recorder is not None:
                self._recorder.expire_at_proxy(
                    self._sim.now, state.topic, notification.event_id, "arrival"
                )
            return
        state.stats.accepted += 1
        state.history[notification.event_id] = notification
        tracker = state.tracker
        tracker.record_publication()

        policy = self._policy
        online = (
            state.topic_type is TopicType.ONLINE or policy.kind is PolicyKind.ONLINE
        )
        if online:
            # "send to client ASAP"
            state.outgoing.add(notification)
            if notification.expires_at is not None:
                self._schedule_expiration(state, notification)
            return

        # On-demand path.
        lifetime = notification.remaining_lifetime(self._sim.now)
        if lifetime is not None:
            self._schedule_expiration(state, notification)
        if state.schedule is not None and state.schedule.is_urgent(notification.rank):
            # "an on-demand topic interrupts (e.g. a tornado warning)".
            state.outgoing.add(notification)
        elif lifetime is not None and lifetime < state.expiration_threshold:
            # Expires too soon to be worth prefetching.
            state.holding.add(notification)
        elif state.delay > 0:
            # Rank-instability delay stage (§3.4).
            handle = self._sim.schedule(state.delay, self._delay_timeout, state, notification)
            state.delay_handles[notification.event_id] = handle
        else:
            state.prefetch.add(notification)

        # "topic.delay ← delay_function(topic.history)"
        if policy.delay is None:
            state.delay = tracker.current_delay()

        if policy.kind is PolicyKind.RATE:
            state.rate.observe_arrival(self._sim.now)
            for _ in range(state.rate.earn(state)):
                event = state.prefetch.pop_highest()
                if event is None:
                    break
                state.outgoing.add(event)

    def _schedule_expiration(self, state: TopicState, notification: Notification) -> None:
        fire_at = max(self._sim.now, notification.expires_at or self._sim.now)
        handle = self._sim.schedule_at(
            fire_at, self._expiration_timeout, state, notification
        )
        state.expiration_handles[notification.event_id] = handle

    # ------------------------------------------------------------------
    # READ(N, queue_size, client_events)
    # ------------------------------------------------------------------
    def on_read(
        self,
        topic: TopicId,
        n: int,
        queue_size: int,
        client_events: Sequence[Tuple[EventId, float]] = (),
    ) -> ReadResponse:
        """Serve a user read: ship "better" data than the client holds.

        ``client_events`` carries up to N (event id, rank) pairs for the
        highest-ranked events already on the device — "with effective
        prefetching this set may be better than anything available in
        queues on the server, making any transfer unnecessary".
        """
        state = self.topic_state(topic)
        if state.crashed:
            # The device's READ request times out against a dead proxy;
            # it falls back to its local queue, exactly like an outage.
            return ReadResponse(sent=(), candidates=0)
        if state.network is not NetworkStatus.UP:
            raise ProxyError("READ reached the proxy while the link is down")
        if n < 0:
            raise ProxyError(f"READ with negative N: {n}")
        now = self._sim.now
        state.stats.read_requests += 1
        policy = self._policy

        # Bookkeeping that drives the adaptive knobs.
        state.old_reads.push(float(n))
        state.old_times.push(now)
        if policy.expiration_threshold is None:
            state.expiration_threshold = state.old_times.value_or(
                policy.initial_expiration_threshold
            )
        state.queue_size = queue_size

        # Expired notifications still sitting in the queues (e.g. a read
        # arriving on the expiry timestamp before the timer fires) are
        # pruned and accounted here, not merely filtered out of ``best``:
        # leaving them queued would let them crowd out live candidates
        # and escape the waste accounting.
        for queue in (state.outgoing, state.prefetch, state.holding):
            for stale in queue.prune_expired(now):
                state.stats.expired_at_proxy += 1
                self._forget_event(state, stale.event_id)
                if self._recorder is not None:
                    self._recorder.expire_at_proxy(
                        now, state.topic, stale.event_id, "read"
                    )

        # "best ← get_highest_ranked(N, outgoing ∪ prefetch ∪ holding)"
        best = highest_ranked(n, state.outgoing, state.prefetch, state.holding)
        candidates = len(best)

        # "difference ← get_highest_ranked(N, best ∪ client_events) \ client_events"
        # On a rank tie the client copy wins the slot (marker 0 sorts
        # first), so an equally-ranked notification the device already
        # holds is never re-sent over the last hop.
        client_ranks = [rank for _eid, rank in client_events]
        merged: List[Tuple[float, int, Optional[Notification]]] = []
        for rank in client_ranks:
            merged.append((rank, 0, None))  # prefer keeping client copies
        for item in best:
            merged.append((item.rank, 1, item))
        merged.sort(key=lambda entry: (-entry[0], entry[1]))
        difference = [
            entry[2] for entry in merged[:n] if entry[2] is not None
        ]

        for item in difference:
            state.remove_everywhere(item.event_id)
            state.outgoing.add(item)

        self._in_read = True
        try:
            self.try_forwarding(state)
        finally:
            self._in_read = False
        if self._recorder is not None:
            self._recorder.read_exchange(
                now, state.topic, n, candidates, len(difference), queue_size
            )
        if self._auditor is not None:
            self._auditor.maybe_audit(self._sim, state)
        return ReadResponse(sent=tuple(difference), candidates=candidates)

    def on_queue_report(self, topic: TopicId, queue_size: int) -> None:
        """Accept an out-of-band client queue-occupancy report.

        Devices announce themselves when the link returns (that is how
        the proxy learns the link is usable) and piggyback their queue
        occupancy; without this, the proxy's ``queue_size`` estimate can
        only be corrected by READ exchanges and goes stale across
        outages, starving the prefetch buffer.
        """
        if queue_size < 0:
            raise ProxyError(f"queue report with negative size: {queue_size}")
        state = self.topic_state(topic)
        if state.crashed:
            return
        state.queue_size = queue_size

    def on_read_report(
        self, topic: TopicId, reads: Sequence[Tuple[float, int]]
    ) -> None:
        """Accept a log of reads the device performed while offline.

        The adaptive prefetch limit and expiration threshold are moving
        averages over *user reads*; reads during outages never produce a
        READ exchange, so without this report the proxy would estimate
        the read interval from up-reads only and grossly overestimate it
        on mostly-disconnected links. The device piggybacks the log
        (a few bytes per read) on its reconnection announcement.

        Report timestamps are merged monotonically: the log is sorted,
        and entries that predate the newest timestamp already recorded
        (e.g. when the reconnection READ was processed before the
        report arrived) update the read-size average but are skipped by
        the interval average, whose window already covers that span. A
        reordered device log must never kill the run.
        """
        state = self.topic_state(topic)
        policy = self._policy
        for _time, n in reads:
            if n < 0:
                raise ProxyError(f"read report with negative N: {n}")
        if state.crashed:
            return
        for time, n in sorted(reads, key=lambda entry: entry[0]):
            state.old_reads.push(float(n))
            last = state.old_times.last
            if last is None or time >= last:
                state.old_times.push(time)
        if reads and policy.expiration_threshold is None:
            state.expiration_threshold = state.old_times.value_or(
                policy.initial_expiration_threshold
            )

    # ------------------------------------------------------------------
    # NETWORK(status)
    # ------------------------------------------------------------------
    def on_topic_network(self, topic: TopicId, status: NetworkStatus) -> None:
        """``NETWORK(status)`` for one binding's last hop.

        Each device has its own link with its own outage profile, so
        transitions arrive per binding. The status is tracked even while
        the binding is crashed (restart must see the current link
        state); forwarding resumes only on UP; the auditor sees both
        edges.
        """
        state = self.topic_state(topic)
        state.network = status
        if state.crashed:
            return
        if status is NetworkStatus.UP:
            self.try_forwarding(state)
        if self._auditor is not None:
            self._auditor.maybe_audit(self._sim, state)

    # ------------------------------------------------------------------
    # try_forwarding()
    # ------------------------------------------------------------------
    def try_forwarding(self, state: TopicState) -> None:
        """Flush the outgoing queue, then prefetch into spare client room."""
        if state.crashed or state.network is not NetworkStatus.UP:
            return
        now = self._sim.now

        # Rank-drop retractions ride the same link as soon as it is up,
        # in the order the drops arrived (FIFO).
        while state.pending_retractions:
            event_id = state.pending_retractions.pop(0)
            state.transport.retract(event_id)
            state.stats.retractions_sent += 1
            if self._recorder is not None:
                self._recorder.retract(now, state.topic, event_id)

        # "first empty the outgoing queue"
        while True:
            event = state.outgoing.pop_highest()
            if event is None:
                break
            if event.is_expired(now):
                state.stats.expired_at_proxy += 1
                self._forget_event(state, event.event_id)
                if self._recorder is not None:
                    self._recorder.expire_at_proxy(
                        now, state.topic, event.event_id, "outgoing"
                    )
                continue
            if not self._in_read and not self._push_allowed(state, event):
                if state.quiet_wakeup is not None:
                    break  # quiet window: outgoing resumes at its end
                continue  # budget exhausted: event moved to prefetch
            self._do_forward(state, event)

        # "then see if anything should be prefetched"
        state.prefetch_limit = self._buffer.effective_limit(state)
        while state.queue_size < state.prefetch_limit and state.prefetch:
            if (
                state.topic_type is TopicType.ONLINE
                and not self._in_read
                and self._defer_for_quiet(state)
            ):
                # On an on-line topic a prefetch push still displays;
                # hold it until the quiet window ends.
                break
            event = state.prefetch.pop_highest()
            if event is None:
                break
            if event.is_expired(now):
                state.stats.expired_at_proxy += 1
                self._forget_event(state, event.event_id)
                if self._recorder is not None:
                    self._recorder.expire_at_proxy(
                        now, state.topic, event.event_id, "prefetch"
                    )
                continue
            if (
                state.schedule is not None
                and state.schedule.max_pushes_per_day is not None
                and not state.push_budget.try_spend(now)
            ):
                state.prefetch.add(event)
                if self._recorder is not None:
                    self._recorder.budget_exhaust(now, state.topic, event.event_id)
                break  # today's push budget is spent
            self._do_forward(state, event)

    def _defer_for_quiet(self, state: TopicState) -> bool:
        """If the topic is inside a quiet window, arm the wake-up and
        return True."""
        schedule = state.schedule
        if schedule is None or schedule.quiet_hours is None:
            return False
        quiet_end = schedule.quiet_hours.quiet_end(self._sim.now)
        if quiet_end is None:
            return False
        if state.quiet_wakeup is None or state.quiet_wakeup.cancelled:
            state.quiet_wakeup = self._sim.schedule_at(
                quiet_end, self._quiet_timeout, state
            )
        if self._recorder is not None:
            self._recorder.quiet_defer(self._sim.now, state.topic, quiet_end)
        return True

    def _push_allowed(self, state: TopicState, event: Notification) -> bool:
        """Apply the §2.2 schedule to one proactive push from outgoing.

        Returns True if the event may be forwarded now. Otherwise the
        event has been re-queued appropriately: back into outgoing with
        a wake-up at the end of the quiet window, or into the prefetch
        queue when today's push budget is exhausted. Urgent events
        always pass.
        """
        schedule = state.schedule
        if schedule is None or schedule.is_urgent(event.rank):
            return True
        if self._defer_for_quiet(state):
            state.outgoing.add(event)
            return False
        if not state.push_budget.try_spend(self._sim.now):
            state.prefetch.add(event)
            if self._recorder is not None:
                self._recorder.budget_exhaust(
                    self._sim.now, state.topic, event.event_id
                )
            return False
        return True

    def _quiet_timeout(self, state: TopicState) -> None:
        """End of a quiet window: resume deferred pushes."""
        state.quiet_wakeup = None
        self.try_forwarding(state)
        if self._auditor is not None:
            self._auditor.maybe_audit(self._sim, state)

    def _do_forward(self, state: TopicState, event: Notification) -> None:
        """``do_forward(event)`` — ship one notification downlink."""
        mode = DeliveryMode.PULLED if self._in_read else DeliveryMode.PUSHED
        state.transport.deliver(event, mode)
        state.queue_size += 1
        state.forwarded.add(event.event_id)
        state.stats.record_forward(event.event_id, event.size_bytes, mode)
        if self._recorder is not None:
            self._recorder.forward(
                self._sim.now, state.topic, event.event_id, mode.name,
                state.queue_size,
            )
        # The device owns expiry from here on.
        handle = state.expiration_handles.pop(event.event_id, None)
        if handle is not None:
            handle.cancel()

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    def _expiration_timeout(self, state: TopicState, event: Notification) -> None:
        """``expiration_timeout(event)`` — remove from all queues."""
        state.expiration_handles.pop(event.event_id, None)
        removed = state.remove_everywhere(event.event_id)
        delay_handle = state.delay_handles.pop(event.event_id, None)
        if delay_handle is not None:
            delay_handle.cancel()
            removed = True
        if removed:
            state.stats.expired_at_proxy += 1
            if self._recorder is not None:
                self._recorder.expire_at_proxy(
                    self._sim.now, state.topic, event.event_id, "timer"
                )
        # History is retained so late rank changes still match.
        if self._auditor is not None:
            self._auditor.maybe_audit(self._sim, state)

    def _delay_timeout(self, state: TopicState, event: Notification) -> None:
        """``delay_timeout(event)`` — after the delay, allow prefetching."""
        state.delay_handles.pop(event.event_id, None)
        if event.is_expired(self._sim.now):
            return
        if event.rank < state.rank_threshold:
            return  # demoted while delayed; already accounted
        state.prefetch.add(event)
        self.try_forwarding(state)
        if self._auditor is not None:
            self._auditor.maybe_audit(self._sim, state)

    def _forget_event(self, state: TopicState, event_id: EventId) -> None:
        state.cancel_timers(event_id)

    # ------------------------------------------------------------------
    # Crash / restart (fault injection)
    # ------------------------------------------------------------------
    def crash_topic(self, topic: TopicId, restart_delay: float = 0.0) -> None:
        """Simulate a fail-stop crash of one binding's worker.

        The binding's timers (expirations, delay stage, quiet wake-ups)
        and in-flight volatile state (queues, pending retractions) are
        torn down; only the durable event history and forwarded set
        survive. Every other binding keeps running. With
        ``restart_delay`` > 0 the binding stays down for that long
        (arrivals are lost, reads come back empty) before
        :meth:`restart_topic` rebuilds it; with 0 it restarts at once.
        """
        state = self.topic_state(topic)
        if state.crashed:
            raise ProxyError("proxy crashed while already down")
        if restart_delay < 0:
            raise ConfigurationError(
                f"restart_delay must be non-negative, got {restart_delay}"
            )
        state.crashed = True
        state.crashed_at = self._sim.now
        state.stats.proxy_crashes += 1
        self._teardown_volatile(state)
        if self._recorder is not None:
            self._recorder.crash(self._sim.now, topic)
        if restart_delay > 0:
            self._sim.schedule(restart_delay, self.restart_topic, topic)
        else:
            self.restart_topic(topic)

    def crash_restart_topic(self, topic: TopicId, restart_delay: float = 0.0) -> None:
        """Crash now unless already down (the fault plan's crash hook;
        a crash event landing inside a pending restart window is
        absorbed by the outage already in progress)."""
        if self.topic_state(topic).crashed:
            return
        self.crash_topic(topic, restart_delay)

    def restart_topic(self, topic: TopicId) -> None:
        """Rebuild one binding's volatile state after :meth:`crash_topic`.

        Moving averages, the client queue-size estimate, the push budget
        and the retraction dedup set restart cold; the device's
        reconnection reports and later READs re-teach them.
        """
        old = self.topic_state(topic)
        if not old.crashed:
            raise ProxyError("restart called on a proxy that is not down")
        now = self._sim.now
        state, requeued = self._rebuild_state(old)
        state.stats.crash_downtime += now - old.crashed_at
        if self._recorder is not None:
            self._recorder.recover(now, topic, now - old.crashed_at, requeued)
        self.try_forwarding(state)
        if self._auditor is not None:
            self._auditor.maybe_audit(self._sim, state)

    def _teardown_volatile(self, state: TopicState) -> None:
        """Cancel a binding's timers and drop its in-flight state.

        The queues go too: with their expiration timers cancelled they
        would otherwise hold events past their deadlines for the whole
        downtime. Restart rebuilds them from the history.
        """
        for handle in state.expiration_handles.values():
            handle.cancel()
        state.expiration_handles.clear()
        for handle in state.delay_handles.values():
            handle.cancel()
        state.delay_handles.clear()
        if state.quiet_wakeup is not None:
            state.quiet_wakeup.cancel()
            state.quiet_wakeup = None
        state.pending_retractions.clear()
        state.outgoing = RankedQueue()
        state.prefetch = RankedQueue()
        state.holding = RankedQueue()

    def _rebuild_state(self, old: TopicState) -> Tuple[TopicState, int]:
        """Replace one binding's state from its durable history.

        Every retained event that is unforwarded, unexpired, and still
        above the rank threshold is re-classified exactly like a new
        arrival (minus the rank-instability delay stage, whose tracker
        died with the worker) and its expiration timer re-armed; history
        iterates in insertion (acceptance) order, so recovery re-enqueues
        deterministically. Returns the fresh state and requeue count.
        """
        policy = self._policy
        state = TopicState(
            topic=old.topic,
            topic_type=old.topic_type,
            rank_threshold=old.rank_threshold,
            ma_window=policy.ma_window,
            schedule=old.schedule,
        )
        state.transport = old.transport
        state.stats = old.stats
        state.rate = old.rate
        state.tracker = DelayTracker()
        state.expiration_threshold = (
            policy.initial_expiration_threshold
            if policy.expiration_threshold is None
            else policy.expiration_threshold
        )
        state.delay = 0.0 if policy.delay is None else policy.delay
        # Durable storage survives the crash: history + forwarded.
        state.history = old.history
        state.forwarded = old.forwarded
        state.network = old.network
        self._states[old.topic] = state
        requeued = 0
        now = self._sim.now
        online = (
            state.topic_type is TopicType.ONLINE
            or policy.kind is PolicyKind.ONLINE
        )
        for event in old.history.values():
            if event.event_id in state.forwarded:
                continue
            if event.rank < state.rank_threshold:
                continue
            if event.is_expired(now):
                continue
            requeued += 1
            lifetime = event.remaining_lifetime(now)
            if lifetime is not None:
                self._schedule_expiration(state, event)
            if online or (
                state.schedule is not None
                and state.schedule.is_urgent(event.rank)
            ):
                state.outgoing.add(event)
            elif lifetime is not None and lifetime < state.expiration_threshold:
                state.holding.add(event)
            else:
                state.prefetch.add(event)
        state.prefetch_limit = self._buffer.effective_limit(state)
        return state, requeued
