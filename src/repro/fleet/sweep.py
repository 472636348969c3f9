"""Fleet sweep campaigns: policy × heterogeneity grids over a store.

The paper's core results are *trade-off curves* — waste vs. loss as
volume limits, device constraints, and policy parameters vary. A single
fleet campaign (:func:`~repro.fleet.runner.run_fleet`) answers one point
of such a curve; this module runs the whole grid:

* :class:`FleetSweepConfig` grids :class:`~repro.fleet.config.
  FleetScenarioConfig` knobs (``devices``, heterogeneity sigmas,
  ``volume_limits`` mixes, ``threshold``, …) × named policy variants ×
  seeds;
* every ``(scenario, seed)`` cell group builds its fleet workload
  **once** and replays it against every policy variant through the
  existing shard executor (:func:`repro.experiments.parallel.
  run_fleet_policy_batch`) — the PR 3 grouped-sweep shape, lifted to
  fleets: shard columns are published to shared memory once per group,
  not once per policy;
* every completed cell's :meth:`~repro.metrics.streaming.
  FleetAccumulator.metrics_row` lands in an append-only sqlite store
  (:mod:`repro.fleet.store`), keyed by a canonical config hash, so a
  half-finished campaign resumes by skipping completed cells — and the
  resumed rows are bit-identical to an uninterrupted run's. The fault
  spec is the config's ``faults`` field and part of every key; nothing
  process-wide is consulted.

Loss at fleet scale
-------------------

The paper's loss metric compares *sets* of read message ids against the
on-line baseline (§3.1). Fleet aggregation is O(shards) streaming — the
per-device id sets do not survive the fold — so the sweep summary
reports the **count-based loss**: the relative shortfall of messages
read versus the ``online`` row of the same ``(scenario, seed)`` cell,
``max(0, online_read - read) / online_read``. It equals the paper's
metric whenever the candidate policy's reads are a subset of the
baseline's (the common case: prefetch policies can only miss messages
the on-line policy delivered) and is a lower bound otherwise. Include
the ``online`` preset in the grid to get loss columns; without it the
summary reports waste only.
"""

from __future__ import annotations

import itertools
import json
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.experiments import parallel
from repro.faults import FaultSpec
from repro.fleet.config import FleetScenarioConfig
from repro.fleet.store import (
    SweepRow,
    SweepStore,
    canonical_json,
    cell_key,
    _sha256,
)
from repro.fleet.workload import build_fleet_workload
from repro.metrics.streaming import FleetAccumulator
from repro.proxy.policies import PolicyConfig

#: Zero-argument policy presets a sweep can name directly. ``buffer``
#: needs a limit, so it is spelled ``buffer:N`` (see
#: :func:`parse_policy_token`).
SWEEP_POLICY_PRESETS: Dict[str, Callable[[], PolicyConfig]] = {
    "online": PolicyConfig.online,
    "on_demand": PolicyConfig.on_demand,
    "rate": PolicyConfig.rate,
    "unified": PolicyConfig.unified,
}

#: Default policy mix: the loss baseline, the zero-waste bound, and the
#: paper's unified algorithm.
DEFAULT_POLICIES = ("online", "on_demand", "unified")

#: The scenario knob the seed axis owns; it cannot double as a grid axis.
_SEED_FIELD = "seed"

_SCENARIO_FIELDS = frozenset(f.name for f in fields(FleetScenarioConfig))


@dataclass(frozen=True)
class PolicyVariant:
    """One named policy point of the sweep grid.

    The name is part of the cell identity (two parameterizations of the
    same preset must not collide) and is how summary tables and the
    loss join refer to the variant, so it must be unique per campaign.
    """

    name: str
    policy: PolicyConfig

    def validate(self) -> None:
        if not self.name:
            raise ConfigurationError("policy variant name must not be empty")
        self.policy.validate()


def parse_policy_token(token: str) -> PolicyVariant:
    """Parse one ``--policies`` token into a named variant.

    ``online`` / ``on_demand`` / ``rate`` / ``unified`` select presets;
    ``buffer:N`` is buffer-based prefetching with static limit ``N``.
    """
    token = token.strip()
    if token in SWEEP_POLICY_PRESETS:
        return PolicyVariant(name=token, policy=SWEEP_POLICY_PRESETS[token]())
    if token.startswith("buffer:"):
        raw = token[len("buffer:"):]
        # Only a bare non-negative integer without leading zeros: int()
        # would also accept "+3", " 3", "1_0" and "007", silently
        # minting variant names that differ from their canonical
        # spelling (and thus distinct store keys for the same policy).
        if not (
            raw.isascii() and raw.isdigit()
            and (raw == "0" or not raw.startswith("0"))
        ):
            raise ConfigurationError(
                f"buffer policy limit must be a bare non-negative "
                f"integer without leading zeros, got {raw!r}"
            )
        return PolicyVariant(
            name=token, policy=PolicyConfig.buffer(prefetch_limit=int(raw))
        )
    raise ConfigurationError(
        f"unknown policy {token!r}; expected one of "
        f"{', '.join(sorted(SWEEP_POLICY_PRESETS))}, or buffer:N"
    )


def policy_preset_constructor(preset: object) -> Callable[..., PolicyConfig]:
    """The :class:`PolicyConfig` constructor behind a preset name.

    The shared face of preset resolution for grid files *and* the tune
    layer (:mod:`repro.fleet.tune` maps its parameter space onto the
    constructor's keyword arguments): ``buffer`` resolves alongside the
    zero-argument presets, anything else is a typed error.
    """
    if preset == "buffer":
        return PolicyConfig.buffer
    if isinstance(preset, str) and preset in SWEEP_POLICY_PRESETS:
        return SWEEP_POLICY_PRESETS[preset]
    raise ConfigurationError(
        f"unknown policy preset {preset!r}; expected one of "
        f"{', '.join(sorted(SWEEP_POLICY_PRESETS))}, or buffer"
    )


def policy_variant_from_spec(spec: object) -> PolicyVariant:
    """Build a variant from a grid-file entry.

    A string is a :func:`parse_policy_token` token; an object is
    ``{"name": ..., "preset": ..., "params": {...}}`` where ``params``
    are keyword arguments of the preset's constructor (e.g.
    ``{"name": "u-delay", "preset": "unified", "params":
    {"delay": 60.0}}``). Without a ``name``, the variant is named by
    the canonical JSON of ``{preset: params}`` — the deterministic
    naming the tune layer relies on for its store keys.
    """
    if isinstance(spec, str):
        return parse_policy_token(spec)
    if not isinstance(spec, dict):
        raise ConfigurationError(
            f"policy spec must be a string or object, got {type(spec).__name__}"
        )
    unknown = set(spec) - {"name", "preset", "params"}
    if unknown:
        raise ConfigurationError(
            f"unknown policy spec keys: {', '.join(sorted(unknown))}"
        )
    preset = spec.get("preset")
    ctor = policy_preset_constructor(preset)
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ConfigurationError("policy spec 'params' must be an object")
    try:
        policy = ctor(**params)
    except TypeError as exc:
        raise ConfigurationError(
            f"invalid parameters for policy preset {preset!r}: {exc}"
        ) from exc
    name = spec.get("name")
    if name is None:
        name = preset if not params else canonical_json({preset: params})
    return PolicyVariant(name=str(name), policy=policy)


@dataclass(frozen=True)
class SweepCell:
    """One ``(scenario, seed, policy)`` point of the campaign grid.

    ``scenario`` already carries the cell's seed; ``key`` is its
    canonical store key (:func:`repro.fleet.store.cell_key`).
    """

    scenario: FleetScenarioConfig
    seed: int
    variant: PolicyVariant
    key: str


@dataclass(frozen=True)
class FleetSweepConfig:
    """Full description of one sweep campaign.

    ``axes`` is an ordered tuple of ``(field, values)`` pairs gridding
    :meth:`FleetScenarioConfig.with_changes` knobs; the cartesian
    product is taken in axis order, later axes varying fastest. Seeds
    replace the scenario's ``seed`` field, so they are an axis of their
    own and may not appear in ``axes``.
    """

    base: FleetScenarioConfig
    policies: Tuple[PolicyVariant, ...]
    seeds: Tuple[int, ...] = (0,)
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...] = ()
    faults: Optional[FaultSpec] = None

    def validate(self) -> None:
        if not self.policies:
            raise ConfigurationError("sweep needs at least one policy variant")
        names = [variant.name for variant in self.policies]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"duplicate policy variant names: {', '.join(dupes)}"
            )
        for variant in self.policies:
            variant.validate()
        if not self.seeds:
            raise ConfigurationError("sweep needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("sweep seeds must be unique")
        seen_axes = set()
        for field_name, values in self.axes:
            if field_name == _SEED_FIELD:
                raise ConfigurationError(
                    "the seed axis is spelled via 'seeds', not a scenario axis"
                )
            if field_name not in _SCENARIO_FIELDS:
                raise ConfigurationError(
                    f"unknown scenario axis {field_name!r}; expected a "
                    f"FleetScenarioConfig field"
                )
            if field_name in seen_axes:
                raise ConfigurationError(f"duplicate scenario axis {field_name!r}")
            seen_axes.add(field_name)
            if not values:
                raise ConfigurationError(
                    f"scenario axis {field_name!r} has no values"
                )
        grid = self.scenario_grid()
        for scenario in grid:
            scenario.validate()
        # Dataclass equality (so 0 == 0.0): a repeated value would run
        # one scenario twice, under one store key or under two.
        names = [name for name, _ in self.axes]
        seen = {}
        combos = itertools.product(*(values for _, values in self.axes))
        for combo, scenario in zip(combos, grid):
            label = ", ".join(f"{n}={v!r}" for n, v in zip(names, combo))
            if scenario in seen:
                raise ConfigurationError(
                    f"scenario axes repeat a value: {seen[scenario]} and "
                    f"{label} are the same scenario"
                )
            seen[scenario] = label

    # ------------------------------------------------------------------
    def scenario_grid(self) -> List[FleetScenarioConfig]:
        """Every scenario variant, in deterministic grid order."""
        if not self.axes:
            return [self.base]
        names = [name for name, _ in self.axes]
        grid = []
        for combo in itertools.product(*(values for _, values in self.axes)):
            changes = {
                name: tuple(value) if isinstance(value, list) else value
                for name, value in zip(names, combo)
            }
            grid.append(self.base.with_changes(**changes))
        return grid

    def cells(self) -> List[SweepCell]:
        """The full campaign grid: scenario-major, then seed, then policy.

        The order is deterministic and the grouping contract of
        :func:`run_fleet_sweep`: all policy cells of one ``(scenario,
        seed)`` are adjacent, so one workload build serves them all.
        """
        cells = []
        for scenario in self.scenario_grid():
            for seed in self.seeds:
                seeded = scenario.with_changes(seed=seed)
                for variant in self.policies:
                    cells.append(
                        SweepCell(
                            scenario=seeded,
                            seed=seed,
                            variant=variant,
                            key=cell_key(
                                seeded, variant.name, variant.policy,
                                faults=self.faults,
                            ),
                        )
                    )
        return cells

    def spec_json(self) -> str:
        """Canonical JSON of the whole campaign spec."""
        return canonical_json(
            {
                "base": self.base,
                "axes": [[name, list(values)] for name, values in self.axes],
                "policies": [
                    {"name": v.name, "policy": v.policy} for v in self.policies
                ],
                "seeds": list(self.seeds),
                "faults": self.faults,
            }
        )

    def campaign_key(self) -> str:
        return _sha256(self.spec_json())


@dataclass(frozen=True)
class SweepOutcome:
    """What one :func:`run_fleet_sweep` invocation did."""

    config: FleetSweepConfig
    campaign_key: str
    #: Cells simulated by this invocation.
    computed: int
    #: Cells skipped because the store already held them (``resume``).
    skipped: int
    #: Cells left for a later resume (``max_cells`` stopped the run).
    remaining: int
    #: Every row of this campaign currently in the store.
    rows: Tuple[SweepRow, ...]


def run_fleet_sweep(
    config: FleetSweepConfig,
    store: SweepStore,
    *,
    shards: int = 1,
    jobs: int = 1,
    resume: bool = False,
    max_cells: Optional[int] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> SweepOutcome:
    """Run (or resume) a sweep campaign into ``store``.

    ``shards``/``jobs`` are pure throughput levers: every stored metric
    is invariant to them (integer entries bit-identical, floats to the
    documented reassociation). ``resume`` skips cells the store already
    holds; without it, a store that already contains campaign cells is
    refused so an accidental re-run cannot silently mix state.
    ``max_cells`` stops after that many newly computed cells (the
    campaign stays resumable — the kill-and-resume smoke test and
    incremental runs use this).
    """
    config.validate()
    if max_cells is not None and max_cells < 1:
        raise ConfigurationError(f"max_cells must be >= 1, got {max_cells}")

    campaign = config.campaign_key()
    store.register_campaign(campaign, config.spec_json())
    cells = config.cells()
    done = store.existing_keys([cell.key for cell in cells])
    if done and not resume:
        raise ConfigurationError(
            f"store already holds {len(done)} of this campaign's "
            f"{len(cells)} cells; pass resume=True (--resume) to skip "
            f"them and continue"
        )

    groups: "OrderedDict[FleetScenarioConfig, List[SweepCell]]" = OrderedDict()
    for cell in cells:
        groups.setdefault(cell.scenario, []).append(cell)

    computed = 0
    skipped = len(done)
    budget = len(cells) if max_cells is None else max_cells
    for scenario, group in groups.items():
        pending = [cell for cell in group if cell.key not in done]
        if not pending:
            continue
        if computed >= budget:
            break
        pending = pending[: budget - computed]
        workload = build_fleet_workload(scenario)
        accumulators = parallel.run_fleet_policy_batch(
            workload,
            [cell.variant.policy for cell in pending],
            shards=shards,
            jobs=jobs,
            fault_spec=config.faults,
        )
        for cell, accumulator in zip(pending, accumulators):
            store.append(_build_row(campaign, cell, accumulator))
            computed += 1
            if progress is not None:
                progress(
                    f"[{computed + skipped}/{len(cells)}] "
                    f"devices={cell.scenario.devices} seed={cell.seed} "
                    f"policy={cell.variant.name}"
                )
    remaining = len(cells) - skipped - computed
    return SweepOutcome(
        config=config,
        campaign_key=campaign,
        computed=computed,
        skipped=skipped,
        remaining=remaining,
        rows=tuple(store.rows(campaign)),
    )


def _build_row(
    campaign: str, cell: SweepCell, accumulator: FleetAccumulator
) -> SweepRow:
    return SweepRow(
        cell_key=cell.key,
        campaign_key=campaign,
        scenario_json=canonical_json(cell.scenario),
        policy_name=cell.variant.name,
        policy_json=canonical_json(cell.variant.policy),
        seed=cell.seed,
        metrics_json=canonical_json(accumulator.metrics_row()),
    )


# ----------------------------------------------------------------------
# Pareto summary: waste vs. loss per scenario family
# ----------------------------------------------------------------------

#: Policy name whose rows anchor the count-based loss join.
LOSS_BASELINE = "online"


@dataclass(frozen=True)
class PolicyPoint:
    """One policy's averaged outcome within a scenario family."""

    name: str
    waste: float
    #: None when the campaign carries no ``online`` baseline rows.
    loss: Optional[float]
    mean_read_age: float
    forwarded: int
    messages_read: int
    #: On the Pareto front of (waste, loss) within the family.
    on_front: bool


@dataclass(frozen=True)
class FamilySummary:
    """All policies of one scenario family (scenario minus seed)."""

    label: str
    seeds: Tuple[int, ...]
    policies: Tuple[PolicyPoint, ...]


def summarize_pareto(
    config: FleetSweepConfig, rows: Sequence[SweepRow]
) -> List[FamilySummary]:
    """Per-family waste/loss averages with Pareto-front flags.

    A *family* is one scenario variant of the grid, aggregated across
    the seed axis. Loss joins each policy row against the family's
    ``online`` row of the same seed (see the module docstring for the
    count-based definition); families and policies keep campaign grid
    order, so the summary is deterministic.
    """
    by_key: Dict[str, SweepRow] = {row.cell_key: row for row in rows}
    labels = _family_labels(config)
    summaries = []
    for scenario, label in zip(config.scenario_grid(), labels):
        per_policy: "OrderedDict[str, List[SweepRow]]" = OrderedDict()
        baseline_reads: Dict[int, int] = {}
        seeds_present: List[int] = []
        for seed in config.seeds:
            seeded = scenario.with_changes(seed=seed)
            seed_rows = []
            for variant in config.policies:
                row = by_key.get(
                    cell_key(seeded, variant.name, variant.policy,
                             faults=config.faults)
                )
                if row is None:
                    continue
                seed_rows.append((variant.name, row))
                if variant.name == LOSS_BASELINE:
                    baseline_reads[seed] = int(row.metrics["messages_read"])
            if seed_rows:
                seeds_present.append(seed)
            for name, row in seed_rows:
                per_policy.setdefault(name, []).append(row)
        if not per_policy:
            continue
        points = []
        for name, policy_rows in per_policy.items():
            wastes = [float(row.metrics["waste"]) for row in policy_rows]
            ages = [float(row.metrics["mean_read_age"]) for row in policy_rows]
            losses: List[float] = []
            for row in policy_rows:
                base = baseline_reads.get(row.seed)
                if base is None:
                    continue
                read = int(row.metrics["messages_read"])
                losses.append(max(0, base - read) / base if base else 0.0)
            points.append(
                PolicyPoint(
                    name=name,
                    waste=sum(wastes) / len(wastes),
                    loss=(sum(losses) / len(losses)) if losses else None,
                    mean_read_age=sum(ages) / len(ages),
                    forwarded=sum(
                        int(row.metrics["forwarded"]) for row in policy_rows
                    ),
                    messages_read=sum(
                        int(row.metrics["messages_read"]) for row in policy_rows
                    ),
                    on_front=False,
                )
            )
        summaries.append(
            FamilySummary(
                label=label,
                seeds=tuple(seeds_present),
                policies=tuple(_flag_pareto_front(points)),
            )
        )
    return summaries


def _flag_pareto_front(points: List[PolicyPoint]) -> List[PolicyPoint]:
    """Mark the non-dominated (waste, loss) points.

    A point dominates another when both its waste and its loss are no
    worse and at least one is strictly better. Without loss columns
    (no ``online`` rows) the front degenerates to the minimum-waste
    points.
    """

    def coords(point: PolicyPoint) -> Tuple[float, float]:
        return (point.waste, 0.0 if point.loss is None else point.loss)

    flagged = []
    for point in points:
        w, l = coords(point)
        dominated = any(
            (ow <= w and ol <= l) and (ow < w or ol < l)
            for ow, ol in (coords(o) for o in points if o is not point)
        )
        flagged.append(replace(point, on_front=not dominated))
    return flagged


def _family_labels(config: FleetSweepConfig) -> List[str]:
    """Human labels for the scenario grid: the varying axis values."""
    grid = config.scenario_grid()
    if not config.axes:
        return ["base scenario"]
    names = [name for name, _ in config.axes]
    labels = []
    for scenario in grid:
        parts = [f"{name}={getattr(scenario, name)}" for name in names]
        labels.append(", ".join(parts))
    return labels


def render_summary_text(summaries: Sequence[FamilySummary]) -> str:
    """Plain-text Pareto summary, one table per scenario family."""
    if not summaries:
        return "no completed cells"
    lines = []
    for family in summaries:
        lines.append(f"scenario family: {family.label} "
                     f"(seeds {', '.join(map(str, family.seeds))})")
        has_loss = any(p.loss is not None for p in family.policies)
        width = max(len(p.name) for p in family.policies)
        width = max(width, len("policy"))
        loss_col = "   loss%" if has_loss else ""
        lines.append(f"  {'policy':<{width}}  waste%{loss_col}  "
                     f"read-age(s)  front")
        for point in family.policies:
            loss = (
                f"  {100 * point.loss:6.2f}" if point.loss is not None
                else ("      --" if has_loss else "")
            )
            front = "*" if point.on_front else ""
            lines.append(
                f"  {point.name:<{width}}  {100 * point.waste:6.2f}{loss}  "
                f"{point.mean_read_age:11.0f}  {front:>5}"
            )
        lines.append("")
    lines.append(
        "front: not dominated on (waste, loss); loss is the count-based "
        f"shortfall vs the {LOSS_BASELINE!r} rows (see README)."
    )
    return "\n".join(lines)


def render_summary_json(summaries: Sequence[FamilySummary]) -> str:
    """JSON Pareto summary (stable key order)."""
    payload = [
        {
            "family": family.label,
            "seeds": list(family.seeds),
            "policies": [
                {
                    "name": point.name,
                    "waste": point.waste,
                    "loss": point.loss,
                    "mean_read_age": point.mean_read_age,
                    "forwarded": point.forwarded,
                    "messages_read": point.messages_read,
                    "on_front": point.on_front,
                }
                for point in family.policies
            ],
        }
        for family in summaries
    ]
    return json.dumps(payload, indent=2, sort_keys=True)
