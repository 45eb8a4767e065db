"""PIC-specific lint rules.

Importing this package registers every rule with the linter registry.
Rule ids are stable and documented in the README:

======  ==================================================================
PIC001  no per-particle Python ``for`` loops in hot-path kernel modules
PIC002  ``np.zeros``/``np.empty`` must pass an explicit ``dtype`` (a
        dtype that provably resolves to ``None`` through a constant is
        flagged too, and numpy import aliases come from the module)
PIC003  only ``ReproError`` subclasses may be raised from library code
PIC004  no direct wall-clock calls outside ``diagnostics.timers``
PIC005  ``__all__`` must be consistent with the names a package binds
PIC006  kernel-phase calls in step drivers must run under a timer/span
PIC007  kernel-phase modules must not hard-code ``float64`` dtypes
        (silent upcasts of float32 mixed-precision pipelines); DP-by-
        design sites carry ``# repro: allow(PIC007)``
PIC008  no raw ``send``/``recv`` on a communicator: every phase is
        one ``comm.exchange``
======  ==================================================================
"""

from repro.analysis.rules import dtype
from repro.analysis.rules import exports
from repro.analysis.rules import hotloop
from repro.analysis.rules import protocol
from repro.analysis.rules import raises
from repro.analysis.rules import spans
from repro.analysis.rules import timing
from repro.analysis.rules import upcast

__all__ = [
    "dtype", "exports", "hotloop", "protocol", "raises", "spans", "timing",
    "upcast",
]
