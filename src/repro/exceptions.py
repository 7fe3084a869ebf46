"""Exception hierarchy for the PBS reproduction library.

All library-specific errors derive from :class:`PBSError` so callers can
catch a single base class at API boundaries while still being able to
distinguish configuration problems from simulation problems.
"""

from __future__ import annotations


class PBSError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(PBSError):
    """An invalid replica, quorum, or distribution configuration was supplied."""


class DistributionError(PBSError):
    """A latency distribution was mis-specified or could not be fit."""


class SimulationError(PBSError):
    """The discrete-event simulator reached an inconsistent internal state."""


class WorkloadError(PBSError):
    """A workload generator was configured with invalid parameters."""


class AnalysisError(PBSError):
    """A measurement or validation routine received unusable input."""


class ExperimentError(PBSError):
    """An experiment was requested that does not exist or failed to run."""


class ScenarioError(PBSError):
    """A hostile-conditions scenario was mis-specified or does not exist."""
