"""Append-only sqlite results store for fleet sweep campaigns.

A sweep campaign (:mod:`repro.fleet.sweep`) evaluates a grid of
``(scenario, seed, policy)`` cells, each an expensive fleet run. The
store makes campaigns *resumable* and their results *queryable*: every
completed cell lands as one immutable row keyed by a canonical config
hash (:func:`cell_key` over :func:`canonical_json`), so

* a cell's identity is a pure function of its configuration (scenario
  with the seed applied, policy variant, fault spec, store format
  version): two structurally equal cells collide on any machine, in any
  process, in any campaign;
* resuming a half-finished campaign is a set lookup — completed keys
  are skipped, pending ones run, and because every cell is
  deterministic in its config, the resumed rows are bit-identical to
  the ones an uninterrupted run would have written;
* the store is append-only: rows are never updated or deleted, a
  duplicate insert is an error rather than an overwrite, and several
  campaigns can share one store file without interfering.

Schema (``STORE_FORMAT_VERSION`` pins it; an *older* known format is
upgraded in place — every version step so far is purely additive — and
a *newer* format is refused with a typed error rather than
reinterpreted)::

    meta      (key TEXT PRIMARY KEY, value TEXT)
    campaigns (campaign_key TEXT PRIMARY KEY, spec_json TEXT)
    results   (cell_key TEXT PRIMARY KEY, campaign_key TEXT,
               scenario_json TEXT, policy_name TEXT, policy_json TEXT,
               seed INTEGER, metrics_json TEXT)
    best      (family_key TEXT PRIMARY KEY, label TEXT,
               campaign_key TEXT, variant_name TEXT, policy_json TEXT,
               params_json TEXT, objective REAL, objective_json TEXT,
               seeds_json TEXT)

``metrics_json`` is the canonical JSON of
:meth:`repro.metrics.streaming.FleetAccumulator.metrics_row` — the full
shard-invariant signature (counters, sketch bins) plus the derived
waste/read-age metrics.

``results`` is append-only. ``best`` (format 2, the tune layer's
regression-tracking index; see :mod:`repro.fleet.tune`) is the one
deliberate exception: it holds the best-known policy variant per
scenario family and is overwritten only by a strictly better objective
(:meth:`SweepStore.record_best`), so its content is monotone improving
and still deterministic for a deterministic campaign sequence.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Set, Union

from repro.errors import ConfigurationError, ExportError

#: Bumped whenever the schema grows; files written by an *older* format
#: upgrade in place on open (all steps so far add tables, never touch
#: rows), files written by a *newer* format are refused with
#: :class:`~repro.errors.ExportError`.
#:
#: Version history: 1 = meta/campaigns/results (PR 9); 2 = + ``best``.
STORE_FORMAT_VERSION = 2

#: Version pin folded into every :func:`cell_key`. Deliberately
#: independent of :data:`STORE_FORMAT_VERSION`: the v1→v2 schema step
#: did not change row content or key derivation, and keeping the key
#: pin at 1 is what lets an upgraded v1 store resume its campaigns —
#: the old rows still match the keys a new build derives. Bump it (and
#: the store version) only when the key derivation itself changes.
CELL_KEY_FORMAT_VERSION = 1


def canonical_json(payload: object) -> str:
    """Canonical (sorted, compact) JSON used for keys and stored rows.

    Dataclasses are serialized via ``asdict``. Enum members encode as
    ``ClassName.MEMBER`` (so two enums sharing a value string still key
    differently) and ``Path`` fields as their string.
    """
    def _default(value: object) -> object:
        # Dataclasses may sit anywhere in the payload (a campaign spec
        # nests configs inside plain dicts), so the encoder unwraps them
        # wherever it meets one.
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            return dataclasses.asdict(value)
        if isinstance(value, enum.Enum):
            return f"{type(value).__name__}.{value.name}"
        if isinstance(value, Path):
            return str(value)
        raise TypeError(
            f"Object of type {type(value).__name__} is not JSON serializable"
        )

    try:
        return json.dumps(
            payload,
            sort_keys=True,
            separators=(",", ":"),
            default=_default,
        )
    except TypeError as exc:
        raise ConfigurationError(
            f"sweep configuration is not content-hashable: {exc}"
        ) from exc


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def cell_key(
    scenario: object,
    policy_name: str,
    policy: object,
    faults: object = None,
) -> str:
    """Canonical content hash identifying one sweep cell.

    ``scenario`` is the :class:`~repro.fleet.config.FleetScenarioConfig`
    *with the cell's seed already applied* (the seed is a config field,
    so it needs no separate slot). The fault spec participates because
    it changes every metric; ``None`` and a null spec key identically
    to keep clean campaigns stable.
    """
    if faults is not None and getattr(faults, "is_null", False):
        faults = None
    # The JSON field keeps its historical name "store_format" (with the
    # pinned CELL_KEY_FORMAT_VERSION value) so every key minted by a
    # format-1 build stays byte-identical — see the pin's docstring.
    body = {
        "store_format": CELL_KEY_FORMAT_VERSION,
        "scenario": dataclasses.asdict(scenario),
        "policy_name": policy_name,
        "policy": dataclasses.asdict(policy),
        "faults": None if faults is None else dataclasses.asdict(faults),
    }
    return _sha256(canonical_json(body))


@dataclass(frozen=True)
class SweepRow:
    """One completed sweep cell, exactly as stored."""

    cell_key: str
    campaign_key: str
    scenario_json: str
    policy_name: str
    policy_json: str
    seed: int
    metrics_json: str

    @property
    def scenario(self) -> dict:
        return json.loads(self.scenario_json)

    @property
    def policy(self) -> dict:
        return json.loads(self.policy_json)

    @property
    def metrics(self) -> dict:
        return json.loads(self.metrics_json)

    def as_json(self) -> str:
        """One deterministic JSON line (the ``--dump-rows`` format)."""
        return canonical_json(
            {
                "cell_key": self.cell_key,
                "campaign_key": self.campaign_key,
                "scenario": self.scenario,
                "policy_name": self.policy_name,
                "policy": self.policy,
                "seed": self.seed,
                "metrics": self.metrics,
            }
        )


@dataclass(frozen=True)
class BestRow:
    """Best-known policy variant for one scenario family.

    ``family_key`` hashes everything that makes objectives comparable:
    the scenario minus its seed, the seed set, the objective spec, and
    the fault spec (:func:`repro.fleet.tune.family_key`). ``objective``
    is the scalarized value being minimized; ``objective_json`` records
    the spec it was computed under, so a report never compares numbers
    with different semantics.
    """

    family_key: str
    label: str
    campaign_key: str
    variant_name: str
    policy_json: str
    params_json: str
    objective: float
    objective_json: str
    seeds_json: str

    @property
    def params(self) -> dict:
        return json.loads(self.params_json)

    @property
    def seeds(self) -> list:
        return json.loads(self.seeds_json)

    def as_json(self) -> str:
        """One deterministic JSON line (fixture dumps and reports)."""
        return canonical_json(
            {
                "family_key": self.family_key,
                "label": self.label,
                "campaign_key": self.campaign_key,
                "variant_name": self.variant_name,
                "policy": json.loads(self.policy_json),
                "params": self.params,
                "objective": self.objective,
                "objective_spec": json.loads(self.objective_json),
                "seeds": self.seeds,
            }
        )


def dump_rows(rows: Iterable[SweepRow]) -> str:
    """Render rows as sorted JSONL — the byte-comparable store image.

    Rows sort by ``cell_key``, so two stores holding the same campaign
    dump byte-identically regardless of completion order (fresh vs
    killed-and-resumed runs included).
    """
    return "\n".join(
        row.as_json() for row in sorted(rows, key=lambda r: r.cell_key)
    )


class SweepStore:
    """Append-only sqlite store of sweep results.

    All write failures surface as :class:`~repro.errors.ExportError`
    (the store path is user input, not an internal bug). A file written
    by an older known :data:`STORE_FORMAT_VERSION` upgrades in place on
    open; one written by a newer (or unrecognizable) format raises
    :class:`~repro.errors.ExportError` — this build cannot know what it
    would be reinterpreting.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self._path = path
        try:
            self._conn = sqlite3.connect(str(path))
            self._ensure_schema()
        except sqlite3.Error as exc:
            raise ExportError(
                f"cannot open sweep store {path}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def _ensure_schema(self) -> None:
        conn = self._conn
        conn.execute(
            "CREATE TABLE IF NOT EXISTS meta ("
            "key TEXT PRIMARY KEY, value TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS campaigns ("
            "campaign_key TEXT PRIMARY KEY, spec_json TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS results ("
            "cell_key TEXT PRIMARY KEY, "
            "campaign_key TEXT NOT NULL, "
            "scenario_json TEXT NOT NULL, "
            "policy_name TEXT NOT NULL, "
            "policy_json TEXT NOT NULL, "
            "seed INTEGER NOT NULL, "
            "metrics_json TEXT NOT NULL)"
        )
        conn.execute(
            "CREATE INDEX IF NOT EXISTS results_campaign "
            "ON results (campaign_key)"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS best ("
            "family_key TEXT PRIMARY KEY, "
            "label TEXT NOT NULL, "
            "campaign_key TEXT NOT NULL, "
            "variant_name TEXT NOT NULL, "
            "policy_json TEXT NOT NULL, "
            "params_json TEXT NOT NULL, "
            "objective REAL NOT NULL, "
            "objective_json TEXT NOT NULL, "
            "seeds_json TEXT NOT NULL)"
        )
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'store_format'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('store_format', ?)",
                (str(STORE_FORMAT_VERSION),),
            )
            conn.commit()
            return
        try:
            found = int(row[0])
        except ValueError:
            found = -1
        if found == STORE_FORMAT_VERSION:
            return
        if 1 <= found < STORE_FORMAT_VERSION:
            # Every step so far only adds tables; the CREATE IF NOT
            # EXISTS statements above are the whole upgrade. Existing
            # rows (and their keys — see CELL_KEY_FORMAT_VERSION) are
            # untouched, so old campaigns stay resumable.
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'store_format'",
                (str(STORE_FORMAT_VERSION),),
            )
            conn.commit()
            return
        if found > STORE_FORMAT_VERSION:
            raise ExportError(
                f"sweep store {self._path} uses format {row[0]}, newer "
                f"than this build's format {STORE_FORMAT_VERSION}; "
                f"refusing to reinterpret it"
            )
        raise ExportError(
            f"sweep store {self._path} declares unrecognized format "
            f"{row[0]!r}; this build reads formats "
            f"1..{STORE_FORMAT_VERSION}"
        )

    # ------------------------------------------------------------------
    @property
    def path(self) -> Union[str, Path]:
        return self._path

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def register_campaign(self, campaign_key: str, spec_json: str) -> None:
        """Record the campaign spec (idempotent; keyed by its hash)."""
        try:
            self._conn.execute(
                "INSERT OR IGNORE INTO campaigns (campaign_key, spec_json) "
                "VALUES (?, ?)",
                (campaign_key, spec_json),
            )
            self._conn.commit()
        except sqlite3.Error as exc:
            raise ExportError(
                f"cannot write sweep store {self._path}: {exc}"
            ) from exc

    def existing_keys(self, keys: Sequence[str]) -> Set[str]:
        """The subset of ``keys`` already completed in this store."""
        found: Set[str] = set()
        chunk = 500  # stay far under sqlite's bound-variable limit
        for start in range(0, len(keys), chunk):
            part = list(keys[start : start + chunk])
            marks = ",".join("?" * len(part))
            rows = self._conn.execute(
                f"SELECT cell_key FROM results WHERE cell_key IN ({marks})",
                part,
            ).fetchall()
            found.update(key for (key,) in rows)
        return found

    def append(self, row: SweepRow) -> None:
        """Insert one completed cell; a duplicate key is an error."""
        try:
            self._conn.execute(
                "INSERT INTO results (cell_key, campaign_key, scenario_json, "
                "policy_name, policy_json, seed, metrics_json) "
                "VALUES (?, ?, ?, ?, ?, ?, ?)",
                (
                    row.cell_key,
                    row.campaign_key,
                    row.scenario_json,
                    row.policy_name,
                    row.policy_json,
                    row.seed,
                    row.metrics_json,
                ),
            )
            self._conn.commit()
        except sqlite3.IntegrityError as exc:
            raise ExportError(
                f"sweep store {self._path} already holds cell "
                f"{row.cell_key[:12]}…: {exc}"
            ) from exc
        except sqlite3.Error as exc:
            raise ExportError(
                f"cannot write sweep store {self._path}: {exc}"
            ) from exc

    def get(self, cell_key: str) -> Optional[SweepRow]:
        """The stored row for one cell key, from any campaign.

        Cell identity is content-addressed, so a row computed by one
        campaign is valid for every other campaign that derives the
        same key — the tune layer leans on this to reuse evaluations.
        """
        row = self._conn.execute(
            "SELECT cell_key, campaign_key, scenario_json, policy_name, "
            "policy_json, seed, metrics_json FROM results "
            "WHERE cell_key = ?",
            (cell_key,),
        ).fetchone()
        return None if row is None else SweepRow(*row)

    def rows(self, campaign_key: Optional[str] = None) -> List[SweepRow]:
        """All rows (of one campaign, if given), ordered by cell key."""
        query = (
            "SELECT cell_key, campaign_key, scenario_json, policy_name, "
            "policy_json, seed, metrics_json FROM results"
        )
        params: tuple = ()
        if campaign_key is not None:
            query += " WHERE campaign_key = ?"
            params = (campaign_key,)
        query += " ORDER BY cell_key"
        return [
            SweepRow(*fields)
            for fields in self._conn.execute(query, params).fetchall()
        ]

    # ------------------------------------------------------------------
    # Best-known variants (the tune layer's regression-tracking index)
    # ------------------------------------------------------------------
    _BEST_COLUMNS = (
        "family_key, label, campaign_key, variant_name, policy_json, "
        "params_json, objective, objective_json, seeds_json"
    )

    def record_best(self, row: BestRow) -> bool:
        """Install ``row`` if it beats the family's stored incumbent.

        Returns ``True`` when the row was written (family absent, or
        ``row.objective`` strictly smaller than the stored one). Ties
        keep the incumbent, so replaying a campaign that rediscovers
        the same optimum leaves the store byte-identical.
        """
        current = self.get_best(row.family_key)
        if current is not None and not row.objective < current.objective:
            return False
        try:
            self._conn.execute(
                f"INSERT OR REPLACE INTO best ({self._BEST_COLUMNS}) "
                "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    row.family_key,
                    row.label,
                    row.campaign_key,
                    row.variant_name,
                    row.policy_json,
                    row.params_json,
                    row.objective,
                    row.objective_json,
                    row.seeds_json,
                ),
            )
            self._conn.commit()
        except sqlite3.Error as exc:
            raise ExportError(
                f"cannot write sweep store {self._path}: {exc}"
            ) from exc
        return True

    def get_best(self, family_key: str) -> Optional[BestRow]:
        """The stored incumbent for one scenario family, if any."""
        row = self._conn.execute(
            f"SELECT {self._BEST_COLUMNS} FROM best WHERE family_key = ?",
            (family_key,),
        ).fetchone()
        return None if row is None else BestRow(*row)

    def best_rows(self) -> List[BestRow]:
        """Every family's incumbent, ordered by family key."""
        rows = self._conn.execute(
            f"SELECT {self._BEST_COLUMNS} FROM best ORDER BY family_key"
        ).fetchall()
        return [BestRow(*fields) for fields in rows]

    def __len__(self) -> int:
        (count,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(count)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SweepStore({str(self._path)!r}, rows={len(self)})"
