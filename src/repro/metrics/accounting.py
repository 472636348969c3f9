"""Raw per-run counters.

One :class:`RunStats` instance is threaded through the proxy, link, and
device of a scenario run. It records message identities (needed for the
paper's set-comparison loss metric) and volume/energy counters (needed
for the waste metric).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Set

from repro.types import DeliveryMode, EventId


@dataclass
class RunStats:
    """Counters collected during one scenario run."""

    # Arrival-side --------------------------------------------------------
    #: Notifications that arrived at the proxy from the wired network.
    arrivals: int = 0
    #: Arrivals accepted (rank at or above the subscription threshold).
    accepted: int = 0
    #: Arrivals filtered out at the proxy by the rank threshold.
    filtered: int = 0
    #: Rank-change announcements processed.
    rank_changes: int = 0

    # Last-hop traffic -----------------------------------------------------
    #: Identities of every notification forwarded proxy -> device.
    forwarded_ids: Set[EventId] = field(default_factory=set)
    #: Forwards initiated proactively (on-line forwarding or prefetch).
    pushed: int = 0
    #: Forwards shipped in response to a READ exchange.
    pulled: int = 0
    #: Rank-drop retraction control messages sent to the device.
    retractions_sent: int = 0
    #: Total last-hop payload bytes, device-bound.
    bytes_sent: int = 0
    #: READ request messages that reached the proxy.
    read_requests: int = 0

    # User-side ------------------------------------------------------------
    #: Identities of every notification the user actually read.
    read_ids: Set[EventId] = field(default_factory=set)
    #: User read attempts (including ones that found nothing).
    reads: int = 0
    #: Reads that found no acceptable message on the device.
    empty_reads: int = 0
    #: Reads attempted while the last-hop link was down.
    reads_during_outage: int = 0
    #: Sum over read messages of (read time - publication time); divide
    #: by len(read_ids) for the mean notification age at reading.
    read_delay_sum: float = 0.0

    # Inefficiency sources ---------------------------------------------------
    #: Forwarded notifications that expired on the device before reading.
    expired_on_device: int = 0
    #: Notifications that expired while still queued at the proxy.
    expired_at_proxy: int = 0
    #: Always 0: no device model evicts. Kept because every summed
    #: RunStats field lands in the fleet signature's ``int_counters``,
    #: so dropping it would move every stored digest and sweep row.
    displaced: int = 0
    #: Forwarded notifications removed from the device by a retraction.
    retracted_on_device: int = 0
    #: Notifications discarded at the proxy by rank drops before forwarding.
    dropped_before_forward: int = 0

    # Device constraints -------------------------------------------------
    #: Always 0.0: no device model drains a battery. Kept because every
    #: summed RunStats field lands in ``fleet --format json``'s
    #: ``counters``, so dropping it would change that output.
    battery_spent: float = 0.0

    # Fault injection (all zero unless a FaultPlan is active) -------------
    #: Last-hop delivery attempts lost by the fault plan.
    delivery_drops: int = 0
    #: Retry attempts scheduled by the ack–retry protocol.
    delivery_retries: int = 0
    #: Transfers abandoned after the retry budget was exhausted.
    delivery_failures: int = 0
    #: Extra copies the fault plan delivered to the device.
    duplicates_delivered: int = 0
    #: Duplicate copies the device recognized and discarded.
    duplicates_deduped: int = 0
    #: Proxy crash events injected.
    proxy_crashes: int = 0
    #: Total seconds the proxy spent down across all crashes.
    crash_downtime: float = 0.0
    #: Notifications that arrived while the proxy was down (lost).
    lost_in_crash: int = 0
    #: Offline-read log entries duplicated by the fault plan.
    report_entries_corrupted: int = 0

    # ------------------------------------------------------------------
    # Recording helpers (called by proxy / link / device)
    # ------------------------------------------------------------------
    def record_forward(self, event_id: EventId, size_bytes: int, mode: DeliveryMode) -> None:
        self.forwarded_ids.add(event_id)
        self.bytes_sent += size_bytes
        if mode is DeliveryMode.PUSHED:
            self.pushed += 1
        else:
            self.pulled += 1

    def record_read(self, event_id: EventId, age: float) -> None:
        self.read_ids.add(event_id)
        self.read_delay_sum += age

    # ------------------------------------------------------------------
    # Derived values
    # ------------------------------------------------------------------
    @property
    def forwarded(self) -> int:
        """Distinct notifications forwarded over the last hop."""
        return len(self.forwarded_ids)

    @property
    def messages_read(self) -> int:
        """Distinct notifications read by the user."""
        return len(self.read_ids)

    @property
    def wasted(self) -> int:
        """Forwarded notifications the user never read."""
        return len(self.forwarded_ids - self.read_ids)

    @property
    def mean_read_age(self) -> float:
        """Mean age (seconds since publication) of read notifications."""
        if not self.read_ids:
            return 0.0
        return self.read_delay_sum / len(self.read_ids)

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [
            f"arrivals            {self.arrivals}",
            f"accepted            {self.accepted}",
            f"forwarded           {self.forwarded} "
            f"(pushed {self.pushed}, pulled {self.pulled})",
            f"read                {self.messages_read} over {self.reads} reads "
            f"({self.empty_reads} empty, {self.reads_during_outage} during outage)",
            f"wasted              {self.wasted}",
            f"expired on device   {self.expired_on_device}",
            f"expired at proxy    {self.expired_at_proxy}",
            f"retractions sent    {self.retractions_sent}",
            f"bytes sent          {self.bytes_sent}",
        ]
        # Fault lines appear only when faults were injected, so the
        # fault-free summary stays byte-identical to the pre-fault one.
        if (
            self.delivery_drops
            or self.delivery_retries
            or self.delivery_failures
            or self.duplicates_delivered
            or self.proxy_crashes
            or self.lost_in_crash
            or self.report_entries_corrupted
        ):
            lines += [
                f"delivery drops      {self.delivery_drops} "
                f"({self.delivery_retries} retries, "
                f"{self.delivery_failures} abandoned)",
                f"duplicates          {self.duplicates_delivered} delivered, "
                f"{self.duplicates_deduped} deduplicated",
                f"proxy crashes       {self.proxy_crashes} "
                f"({self.crash_downtime:.0f} s down, "
                f"{self.lost_in_crash} arrivals lost)",
            ]
        return "\n".join(lines)


#: The :class:`RunStats` counters a crash-free fault spec moves: those
#: of the ack–retry delivery path (the link's drops, retries, abandons
#: and duplicates; the device's dedup) and the device's corrupted read
#: reports. A fleet shard under such a spec keeps them per row.
DELIVERY_FAULT_FIELDS = (
    "delivery_drops",
    "delivery_retries",
    "delivery_failures",
    "duplicates_delivered",
    "duplicates_deduped",
    "report_entries_corrupted",
)
