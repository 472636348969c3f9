"""Deterministic, seed-driven fault injection for the last hop.

The paper treats the last hop as a lossy, outage-prone scarce resource,
but the base model only covers binary UP/DOWN outages: every transfer
that starts, succeeds. This module adds the rest of the failure surface
— dropped, duplicated, and jittered deliveries, proxy crash/restart
cycles, and stale or duplicated offline read reports — while keeping
runs exactly reproducible.

Two layers:

* :class:`FaultSpec` — the frozen, hashable, picklable *description* of
  a fault regime (rates and retry knobs). It is what travels through
  CLI flags, figure and campaign configs, worker tasks, and cache keys.
* :class:`FaultPlan` — the per-run *realization* of a spec for one
  scenario seed. Every fault decision is a pure function of
  ``(seed, site, event id, attempt)`` via SHA-256 — no shared RNG state
  — so injecting faults cannot perturb the trace streams, paired
  baseline/policy runs see the same plan, and raising a rate strictly
  grows the set of dropped attempts (the metamorphic monotonicity the
  differential tests pin). Crash times come from a named
  :class:`~repro.sim.rng.RandomSource` substream of the scenario seed.

The hard guarantee: a null spec (``FaultSpec.none()`` or no ``--faults``
flag) builds no plan at all, and every fault-aware code path reduces to
the exact pre-fault behaviour — figure tables, the validate scorecard,
and cache keys stay byte-identical.

There is no process-wide spec: every run takes its spec as an argument
(a figure's or the scorecard's ``faults`` config field, a fleet
campaign's ``faults`` argument), so whatever a run injects is named in
what the run was given.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.sim.rng import RandomSource
from repro.units import DAY

_sha256 = hashlib.sha256


@dataclass(frozen=True)
class FaultSpec:
    """Frozen description of one fault regime.

    All-zero rates describe the fault-free world; such a spec with
    default retry knobs is *null* (:meth:`is_null`) and never builds a
    plan. A spec with zero rates but non-default retry knobs still
    engages the ack–retry delivery path — useful for proving the
    protocol is metrically transparent when nothing actually fails.
    """

    #: Probability that one delivery attempt is lost on the last hop.
    loss_rate: float = 0.0
    #: Probability that a successful delivery arrives twice.
    duplicate_rate: float = 0.0
    #: Mean of the exponential extra latency added per delivery (s).
    jitter_mean: float = 0.0
    #: Poisson rate of proxy crash events (per simulated day).
    crashes_per_day: float = 0.0
    #: Downtime before a crashed proxy restarts (seconds).
    restart_delay: float = 0.0
    #: Probability that one offline-read log entry is duplicated (the
    #: copy arrives late and out of order — stale by construction).
    report_duplicate_rate: float = 0.0
    #: Initial retry backoff after a lost delivery attempt (seconds).
    retry_base: float = 1.0
    #: Cap on the exponential backoff (seconds).
    retry_cap: float = 60.0
    #: Retries per notification before the transfer is abandoned.
    max_retries: int = 8

    def validate(self) -> None:
        for name in ("loss_rate", "duplicate_rate", "report_duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"{name} must be within [0, 1], got {value}"
                )
        for name in ("jitter_mean", "crashes_per_day", "restart_delay"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"{name} must be non-negative, got {value}"
                )
        if self.retry_base <= 0:
            raise ConfigurationError(
                f"retry_base must be positive, got {self.retry_base}"
            )
        if self.retry_cap < self.retry_base:
            raise ConfigurationError(
                f"retry_cap ({self.retry_cap}) must be >= retry_base "
                f"({self.retry_base})"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be non-negative, got {self.max_retries}"
            )

    @property
    def is_null(self) -> bool:
        """True when this spec injects nothing and tweaks nothing."""
        return self == FaultSpec()

    @classmethod
    def none(cls) -> "FaultSpec":
        """The canonical null spec (guaranteed byte-identity)."""
        return cls()

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Build a spec from a preset name or a JSON object string.

        Accepted forms (the CLI's ``--faults`` values)::

            FaultSpec.parse("lossy")
            FaultSpec.parse('{"loss_rate": 0.2, "max_retries": 4}')
        """
        text = text.strip()
        if text.startswith("{"):
            try:
                data = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(
                    f"--faults JSON is malformed: {exc}"
                ) from exc
            if not isinstance(data, dict):
                raise ConfigurationError(
                    "--faults JSON must be an object of FaultSpec fields"
                )
            known = {field.name for field in dataclasses.fields(cls)}
            unknown = sorted(set(data) - known)
            if unknown:
                raise ConfigurationError(
                    f"unknown fault field(s) {', '.join(unknown)} "
                    f"(known: {', '.join(sorted(known))})"
                )
            try:
                spec = cls(**data)
            except TypeError as exc:
                raise ConfigurationError(f"invalid fault spec: {exc}") from exc
            spec.validate()
            return spec
        try:
            return PRESETS[text]
        except KeyError:
            raise ConfigurationError(
                f"unknown fault preset {text!r} "
                f"(presets: {', '.join(sorted(PRESETS))}; or pass a JSON object)"
            ) from None


#: Named fault regimes for the CLI's ``--faults`` flag.
PRESETS: Dict[str, FaultSpec] = {
    # The guaranteed-identity regime.
    "none": FaultSpec(),
    # Zero rates but a non-default retry budget: the ack–retry protocol
    # runs on every delivery yet nothing fails — results must converge
    # to the fault-free metrics (pinned by the differential tests).
    "reliable": FaultSpec(max_retries=12),
    # A plausibly bad cellular last hop.
    "lossy": FaultSpec(loss_rate=0.15, duplicate_rate=0.05, jitter_mean=0.05),
    # Everything at once: heavy loss, duplicates, latency spikes, daily
    # proxy crashes with visible downtime, corrupted read reports.
    "chaos": FaultSpec(
        loss_rate=0.3,
        duplicate_rate=0.1,
        jitter_mean=0.5,
        crashes_per_day=1.0,
        restart_delay=30.0,
        report_duplicate_rate=0.2,
    ),
}


class FaultPlan:
    """The realization of a :class:`FaultSpec` for one scenario seed.

    Holds the pre-drawn proxy crash schedule and answers per-delivery
    fault questions as pure hash functions of the identifying tuple, so
    two runs over the same trace (e.g. the paired baseline and policy
    runs) see exactly the same faults, and no draw can perturb any
    other random stream.
    """

    __slots__ = ("spec", "seed", "crash_times", "_prefix")

    def __init__(
        self, spec: FaultSpec, seed: int, crash_times: Tuple[float, ...] = ()
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.crash_times = crash_times
        self._prefix = f"{seed}:faults:"

    @classmethod
    def build(
        cls, spec: Optional[FaultSpec], seed: int, duration: float
    ) -> Optional["FaultPlan"]:
        """Realize ``spec`` for a run, or None for a null spec.

        Returning None (rather than an inert plan) is the identity
        guarantee's mechanism: every fault-aware call site branches on
        ``plan is None`` and falls through to the exact pre-fault code.
        """
        if spec is None or spec.is_null:
            return None
        spec.validate()
        return cls.realize(spec, seed, duration)

    @classmethod
    def realize(cls, spec: FaultSpec, seed: int, duration: float) -> "FaultPlan":
        """:meth:`build` minus the null check and the validation, for a
        caller realizing one already-checked, non-null spec for many
        seeds (a fleet shard, once per device)."""
        crash_times: Tuple[float, ...] = ()
        if spec.crashes_per_day > 0 and duration > 0:
            rng = RandomSource(seed).spawn("faults:crashes")
            crash_times = tuple(
                rng.poisson_process(spec.crashes_per_day / DAY, 0.0, duration)
            )
        return cls(spec, seed, crash_times)

    @classmethod
    def none(cls) -> None:
        """The null plan: no faults, no protocol, byte-identical runs."""
        return None

    # ------------------------------------------------------------------
    # Hash-derived decisions
    # ------------------------------------------------------------------
    def _unit(self, site: str) -> float:
        """Uniform [0, 1) draw, a pure function of (seed, site).

        The hashed key is ``"<seed>:faults:<site>"``, where ``site`` is
        the draw's colon-joined identifying parts (``"drop:<event
        id>:<attempt>"``); the seed half is built once per plan.
        """
        digest = _sha256((self._prefix + site).encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2.0**64

    def drop_delivery(self, event_id: int, attempt: int) -> bool:
        """Whether this delivery attempt is lost on the last hop.

        The underlying uniform depends only on ``(event_id, attempt)``,
        so the dropped-attempt set under loss rate p is a subset of the
        set under any p' > p — delivery retries are pathwise monotone in
        the loss rate.
        """
        rate = self.spec.loss_rate
        return rate > 0.0 and self._unit(f"drop:{int(event_id)}:{attempt}") < rate

    def duplicate_delivery(self, event_id: int) -> bool:
        """Whether a successfully delivered notification arrives twice."""
        rate = self.spec.duplicate_rate
        return rate > 0.0 and self._unit(f"dup:{int(event_id)}") < rate

    def delivery_jitter(self, event_id: int, attempt: int) -> float:
        """Extra delivery latency (s), exponential with the spec's mean."""
        mean = self.spec.jitter_mean
        if mean <= 0.0:
            return 0.0
        u = self._unit(f"jitter:{int(event_id)}:{attempt}")
        return -mean * math.log(1.0 - u)

    def retry_backoff(self, attempt: int) -> float:
        """Capped exponential backoff before retry number ``attempt``."""
        spec = self.spec
        return min(spec.retry_base * (2.0 ** (attempt - 1)), spec.retry_cap)

    def corrupt_read_report(
        self, entries: Sequence[Tuple[float, int]]
    ) -> Tuple[List[Tuple[float, int]], int]:
        """Duplicate some offline-read log entries, appended at the end.

        The duplicated copies arrive after newer entries — stale,
        out-of-order, *and* duplicated — which is exactly what the
        proxy's monotone read-report merge must tolerate. Returns the
        corrupted log and how many entries were injected. The draw keys
        on the entry's time alone: the plan is already the device's, so
        a device corrupts the same entries under any topic name (a fleet
        binding's and ``run_scenario``'s).
        """
        rate = self.spec.report_duplicate_rate
        corrupted = list(entries)
        if rate <= 0.0:
            return corrupted, 0
        extras = [
            entry
            for entry in entries
            if self._unit(f"report:{float(entry[0])!r}") < rate
        ]
        corrupted.extend(extras)
        return corrupted, len(extras)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultPlan(seed={self.seed}, crashes={len(self.crash_times)}, "
            f"spec={self.spec})"
        )

