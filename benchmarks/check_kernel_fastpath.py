"""CI gate: every kernel tier computes the same physics.

The kernel table (:mod:`repro.particles.kernels`) holds one NumPy path
(``vectorized``) and one native path (``compiled``); switching between
them must be *safe*.  This script enforces that contract:

1. cross-validates ``compiled`` against ``vectorized`` with
   :func:`~repro.particles.kernels.validate_kernel_set` across all
   dimensionalities — any deviation beyond machine precision fails.  The
   independent check of ``vectorized`` itself (its histogram scatters
   against ``np.add.at``, its Esirkepov against a textbook evaluation, its
   gather against a scalar loop) lives in the test suite,
   ``tests/oracles.py``;
2. re-validates every variant on float32 field storage against the
   per-kernel :data:`~repro.particles.kernels.FLOAT32_ERROR_BUDGET`
   (``validate_kernel_set`` raises ``PrecisionError`` on a breach).

When no backend is usable the compiled tier is reported with its reason
and the variant ``kernels="compiled"`` falls back to, and the gate still
passes (exit 0) — the NumPy tier remains the contract.  Whether the
native tier pays is the repo benchmark's question (``uniform_compiled``
in ``benchmarks/perf``), not a stopwatch floor here.

Run:  PYTHONPATH=src python benchmarks/check_kernel_fastpath.py
"""

import sys

from repro.particles.kernels import (
    available_kernel_variants,
    resolve_kernel_set,
    validate_kernel_set,
)

#: worst scale-normalized deviation any variant may show vs. vectorized
NUMERIC_TOLERANCE = 1e-12
ORDER = 3


def main() -> int:
    failures = 0
    print("kernel variant cross-validation (worst deviation vs vectorized):")
    for name in available_kernel_variants():
        if name == "vectorized":
            continue
        for ndim in (1, 2, 3):
            errors = validate_kernel_set(name, ndim=ndim, order=ORDER)
            worst = max(errors.values())
            status = "ok" if worst < NUMERIC_TOLERANCE else "FAIL"
            if worst >= NUMERIC_TOLERANCE:
                failures += 1
            print(f"  {name:11s} ndim={ndim}: {worst:9.2e}  {status}")

    print("float32 storage vs per-kernel error budget:")
    for name in available_kernel_variants():
        for ndim in (1, 2, 3):
            try:
                errors = validate_kernel_set(
                    name, ndim=ndim, order=ORDER, precision="float32")
            except Exception as exc:  # PrecisionError carries the breach
                failures += 1
                print(f"  {name:11s} ndim={ndim}: FAIL ({exc})")
                continue
            worst = max(errors.values())
            print(f"  {name:11s} ndim={ndim}: {worst:9.2e}  ok")

    if "compiled" not in available_kernel_variants():
        ks, reason = resolve_kernel_set("compiled")
        print(f"\ncompiled tier unavailable ({reason}): kernels=\"compiled\" "
              f"runs {ks.name}")

    if failures:
        print(f"FAIL: {failures} variant/ndim combination(s) deviate beyond "
              f"{NUMERIC_TOLERANCE:.0e} or the float32 budget")
        return 1
    print(f"OK: {', '.join(available_kernel_variants())} agree at machine "
          "precision")
    return 0


if __name__ == "__main__":
    sys.exit(main())
