"""The mobile device side of the last hop.

Models the paper's §2.3 device:

* :mod:`~repro.device.device` — the client device with its notification
  queue and per-topic read behaviour (Max / Threshold ranked reads);
* :mod:`~repro.device.link` — the last-hop link whose availability is
  driven by the outage schedule and which meters every transfer;
* :mod:`~repro.device.cooperation` — multi-device cache sharing (the
  paper's §4 future work).
"""

from repro.device.device import ClientDevice, ReadOutcome
from repro.device.link import LastHopLink

__all__ = [
    "ClientDevice",
    "LastHopLink",
    "ReadOutcome",
]
