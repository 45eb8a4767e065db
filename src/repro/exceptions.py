"""Exception hierarchy for :mod:`repro`.

A single root type, :class:`ReproError`, lets callers catch everything the
library raises deliberately, while subclasses keep failure modes
distinguishable in tests and user code.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A simulation/model was configured inconsistently (bad shapes, CFL, ...)."""


class StabilityError(ReproError):
    """A numerical stability condition was violated (e.g. CFL limit)."""


class DecompositionError(ReproError):
    """Domain decomposition could not be constructed as requested."""


class CommunicationError(ReproError):
    """The simulated communicator was used incorrectly."""


class DiagnosticError(ReproError):
    """A diagnostic was asked for data that does not exist."""


class ProtocolError(CommunicationError):
    """The post-hoc comm-log checker found violations.

    Raised by :mod:`repro.analysis.commcheck` when a finished run left an
    injected fault or a rank failure unrecovered (RES001/RES002).
    """


class SanitizerError(ReproError):
    """A runtime invariant sanitizer tripped (non-finite field,
    out-of-domain particle, corrupted guard cells).

    Carries enough context (step, field/species name) to localize the
    failure; see :mod:`repro.analysis.sanitize`.
    """


class AnalysisError(ReproError):
    """The static-analysis driver itself was misused (bad path, bad rule id)."""


class PrecisionError(ReproError):
    """A mixed-precision kernel exceeded its documented error budget.

    Raised by :func:`repro.particles.kernels.validate_kernel_set` when a
    float32 kernel variant deviates from the float64 reference by more
    than :data:`repro.particles.kernels.FLOAT32_ERROR_BUDGET` allows —
    the contract that lets a run opt into single-precision fields
    without silently changing physics.
    """


class ObservabilityError(ReproError):
    """The tracing/metrics subsystem was misused or fed a malformed trace.

    Raised by :mod:`repro.observability` for metric type conflicts,
    unparsable trace files and invalid CLI arguments — never for
    instrumentation overhead concerns (a disabled tracer is silent).
    """


class ResilienceError(ReproError):
    """A fault could not be recovered.

    Raised by the resilience layer (:mod:`repro.resilience`) when an
    injected or detected fault — lost/corrupted message, failed rank —
    cannot be repaired under the active recovery policy: the run must
    stop with a typed error rather than continue to a silent wrong
    answer.
    """
