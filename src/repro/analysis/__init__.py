"""PIC-aware static analysis and runtime sanitizers.

The paper's production runs lean on strict kernel and communication
discipline (guard-cell-only halo writes, every message of a phase
posted and received through one routine, no silent NaN propagation).
This subpackage machine-checks the same contracts for the reproduction:

``repro.analysis.linter``
    An AST lint pass with PIC-specific rules (no per-particle Python
    loops in hot kernels, explicit dtypes on field allocations,
    ``ReproError``-only exception discipline, timing through
    :class:`~repro.diagnostics.timers.Timers`, ``__all__`` consistency,
    no raw ``send``/``recv`` on a communicator outside ``SimComm`` —
    PIC008).
``repro.analysis.dataflow``
    The constant resolution behind the value-tracking rule PIC002:
    expression folding, module constant environments, and the same
    one-binding rule inside function bodies (a name bound once to a
    foldable value is that value; anything else is not a constant).
``repro.analysis.commcheck``
    A post-hoc checker over :class:`~repro.parallel.comm.SimComm`'s event
    log that pairs every injected fault with its recovery: unrecovered
    message faults (RES001) and rank failures (RES002), the two rules
    only a whole-run view can check.
``repro.analysis.sanitize``
    Opt-in runtime invariant sanitizers (``REPRO_SANITIZE=1``) wired into
    the PIC step: non-finite fields, out-of-domain particles, guard-cell
    consistency.

The exchange phases need no static pass and no replay:
``SimComm.exchange`` itself refuses a tag outside
:data:`~repro.parallel.comm.PHASE_TAGS` or one whose phase is open
already, a missing or stray payload and a self pair, delivers each
channel in send order, receives every pair it sends before its body
runs, and makes the phase's buffers read-only; ``ExchangePlan`` builds
its runs in canonical entry order.  A receive that finds nothing raises
naming the pair and the tags pending for it, and a collective a peer
never joins times out on the process transport.

Importing the package loads none of them: import the submodule you
need (the step drivers import only ``sanitize``).  Run the lint pass
from the command line::

    python -m repro.analysis src/repro
"""
