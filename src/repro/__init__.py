"""repro — volume-limiting publish/subscribe with last-hop prefetching.

A production-quality reproduction of Zagorodnov & Johansen, *The Last
Hop of Global Notification Delivery to Mobile Users: Accommodating
Volume Limits and Device Constraints* (ICDCS 2005).

Quickstart::

    from repro import (PolicyConfig, ScenarioConfig, build_trace,
                       run_paired)

    config = ScenarioConfig()                 # paper defaults
    trace = build_trace(config, seed=42)
    result = run_paired(trace, PolicyConfig.unified())
    print(result.metrics.describe())

The layers, bottom-up:

* :mod:`repro.sim` — deterministic discrete-event engine, seeded RNG,
  frozen traces;
* :mod:`repro.workload` — arrival/read/outage/rank-change generators;
* :mod:`repro.broker` — the :class:`Notification` message type that
  crosses the routing substrate (the paper treats routing as a black
  box);
* :mod:`repro.proxy` — the volume-limiting last-hop proxy (the paper's
  Figure 7 algorithm and the forwarding-policy spectrum);
* :mod:`repro.device` — the mobile device and the last-hop link;
* :mod:`repro.metrics` — waste/loss accounting;
* :mod:`repro.experiments` — the harness regenerating every figure of
  the paper's evaluation.
"""

from repro.broker.message import Notification
from repro.device.cooperation import AdHocNetwork, DeviceGroup
from repro.device.device import ClientDevice
from repro.device.link import LastHopLink
from repro.errors import ExportError, ReproError
from repro.experiments.runner import (
    PairedResult,
    RunResult,
    run_paired,
    run_paired_config,
    run_scenario,
)
from repro.faults import PRESETS as FAULT_PRESETS
from repro.faults import FaultPlan, FaultSpec
from repro.metrics.accounting import RunStats
from repro.metrics.analytic import expected_expiration_waste, expected_overflow_waste
from repro.metrics.waste_loss import PairedMetrics, compute_loss, compute_waste
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy
from repro.proxy.schedule import DeliverySchedule, QuietHours
from repro.sim.engine import Simulator
from repro.sim.rng import RandomSource
from repro.sim.trace import Trace
from repro.sim.trace_io import load_trace, save_trace
from repro.types import NetworkStatus, PolicyKind, TopicType
from repro.workload.diurnal import DiurnalProfile
from repro.workload.scenario import ScenarioConfig, build_trace

__version__ = "1.0.0"

__all__ = [
    "AdHocNetwork",
    "ClientDevice",
    "DeliverySchedule",
    "DeviceGroup",
    "DiurnalProfile",
    "ExportError",
    "FAULT_PRESETS",
    "FaultPlan",
    "FaultSpec",
    "LastHopLink",
    "LastHopProxy",
    "NetworkStatus",
    "Notification",
    "PairedMetrics",
    "PairedResult",
    "PolicyConfig",
    "PolicyKind",
    "QuietHours",
    "RandomSource",
    "ReproError",
    "RunResult",
    "RunStats",
    "ScenarioConfig",
    "Simulator",
    "Trace",
    "TopicType",
    "build_trace",
    "compute_loss",
    "compute_waste",
    "expected_expiration_waste",
    "expected_overflow_waste",
    "load_trace",
    "run_paired",
    "run_paired_config",
    "run_scenario",
    "save_trace",
    "__version__",
]
