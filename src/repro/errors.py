"""Exception hierarchy for the repro library.

Every error raised intentionally by this package derives from
:class:`ReproError` so that callers can catch library failures without
masking genuine programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """The discrete-event engine was used incorrectly.

    Raised, for example, when scheduling an event in the past or when
    running a simulator that has already been exhausted.
    """


class ConfigurationError(ReproError):
    """A scenario, workload, or policy configuration is invalid."""


class DeviceError(ReproError):
    """The client device was driven into an invalid state."""


class ExportError(ReproError):
    """An export target (tables, trace JSONL) could not be written."""


class ProxyError(ReproError):
    """The last-hop proxy was driven into an invalid state."""
