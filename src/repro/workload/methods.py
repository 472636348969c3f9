"""Generation-method names for the workload generators.

Every generator has two implementations that draw from the same named
substreams but through different engines:

* ``vectorized`` (the default) — batch draws on
  :class:`numpy.random.Generator` substreams, producing columnar arrays.
* ``scalar`` — the original per-event :class:`random.Random` loops,
  kept as the reference implementation for equivalence tests and as a
  readable specification of each process; a caller selects it by
  passing ``method="scalar"``.

The two methods produce *different draws* (PCG64 vs Mersenne Twister)
but the same distributions; changing the default is a trace-format
event (see ``repro.sim.trace_io.FORMAT_VERSION``), never a silent one.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import ConfigurationError

VECTORIZED = "vectorized"
SCALAR = "scalar"

_METHODS = (VECTORIZED, SCALAR)


def resolve(method: Optional[str]) -> str:
    """Validate an explicit method; None means :data:`VECTORIZED`."""
    if method is None:
        return VECTORIZED
    if method not in _METHODS:
        raise ConfigurationError(
            f"unknown generation method {method!r}; expected one of {_METHODS}"
        )
    return method
