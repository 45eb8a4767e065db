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
    no raw ``send``/``recv``/``begin_phase``/``end_phase`` on a
    communicator outside ``SimComm`` — PIC008).
``repro.analysis.dataflow``
    The intraprocedural dataflow engine behind the value-tracking rules:
    a statement-level CFG with constant propagation, module constant
    environments, and array-allocation/alias tracking.
``repro.analysis.commstatic``
    A static verifier of the ``comm.exchange`` sites of the sources:
    unresolvable tags (COMM006 warnings), cross-phase tag collisions
    (COMM007) and outgoing buffers mutated inside the open phase
    (COMM010).
``repro.analysis.commcheck``
    A post-hoc protocol checker over :class:`~repro.parallel.comm.SimComm`'s
    event log: unreceived messages, tag mismatches, self-sends,
    collective/barrier divergence across ranks, and — over the
    schedule-structure events — the happens-before replay (phase
    overlap, non-canonical fold order, fold-before-arrival races).
``repro.analysis.sanitize``
    Opt-in runtime invariant sanitizers (``REPRO_SANITIZE=1``) wired into
    the PIC step: non-finite fields, out-of-domain particles, guard-cell
    consistency.

Importing the package loads none of them: import the submodule you
need (the step drivers import only ``sanitize``).  Run the static
passes from the command line::

    python -m repro.analysis src/repro
"""
