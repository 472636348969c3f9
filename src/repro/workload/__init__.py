"""Workload generation: the three event types the paper's simulator is
populated with (Section 3), plus rank-change events (Section 3.4).

* :mod:`~repro.workload.arrivals` — Poisson notification arrivals with
  rank and (optionally) expiration annotations.
* :mod:`~repro.workload.reads` — user reads, a per-day count drawn from a
  normal distribution and placed inside a jittered 16–17 h awake window.
* :mod:`~repro.workload.outages` — network outages with configurable
  cumulative downtime between 0 and 100 %.
* :mod:`~repro.workload.ranks` — rank distributions and rank-change
  (retraction/boost) event generation.
* :mod:`~repro.workload.scenario` — :class:`ScenarioConfig` tying it all
  together and :func:`build_trace` producing a replayable
  :class:`~repro.sim.trace.Trace`.

Every generator has a vectorized (numpy, default) and a scalar
(reference) implementation, selected per call by its ``method``
argument (:mod:`~repro.workload.methods` names them); the
``generate_*_columns`` variants return columnar arrays directly.
"""

from repro.workload.arrivals import (
    ArrivalConfig,
    ExpirationDistribution,
    generate_arrival_columns,
    generate_arrivals,
)
from repro.workload.methods import SCALAR, VECTORIZED
from repro.workload.outages import OutageConfig, generate_outage_columns, generate_outages
from repro.workload.ranks import (
    RankChangeConfig,
    RankDistribution,
    generate_rank_change_columns,
    generate_rank_changes,
)
from repro.workload.reads import ReadConfig, generate_read_columns, generate_reads
from repro.workload.scenario import ScenarioConfig, build_trace

__all__ = [
    "ArrivalConfig",
    "ExpirationDistribution",
    "OutageConfig",
    "RankChangeConfig",
    "RankDistribution",
    "ReadConfig",
    "SCALAR",
    "ScenarioConfig",
    "VECTORIZED",
    "build_trace",
    "generate_arrival_columns",
    "generate_arrivals",
    "generate_outage_columns",
    "generate_outages",
    "generate_rank_change_columns",
    "generate_rank_changes",
    "generate_read_columns",
    "generate_reads",
]
