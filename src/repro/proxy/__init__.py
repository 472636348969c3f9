"""The volume-limiting last-hop proxy — the paper's core contribution.

The proxy sits between the wired pub/sub infrastructure and the mobile
device. It implements the unified prefetching algorithm of the paper's
Figure 7:

* three ranked queues per topic — *outgoing* (must be forwarded ASAP),
  *prefetch* (okay to push when the client has room), and *holding*
  (expires too soon to be worth prefetching);
* an adaptive **prefetch limit** — twice the moving average of the
  number of messages per user read (§3.2);
* an adaptive **expiration threshold** — the moving average of the
  interval between user reads (§3.3);
* an optional **delay stage** for topics whose publishers issue rank
  reductions (§3.4);
* the ``READ(N, queue_size, client_events)`` exchange, under which "a
  read is not a request for more data, but a request for better data if
  it exists" (§3.5).

Forwarding policies from the evaluation (on-line, pure on-demand,
buffer-based, rate-based, unified adaptive) are configured through
:class:`~repro.proxy.policies.PolicyConfig`.
"""

from repro.proxy.moving_average import IntervalAverage, MovingAverage
from repro.proxy.policies import PolicyConfig
from repro.proxy.proxy import LastHopProxy, ReadResponse
from repro.proxy.queues import RankedQueue

__all__ = [
    "IntervalAverage",
    "LastHopProxy",
    "MovingAverage",
    "PolicyConfig",
    "RankedQueue",
    "ReadResponse",
]
