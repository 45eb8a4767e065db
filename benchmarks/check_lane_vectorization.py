"""CI gate: the lane loops of the fused particle pass are really vector code.

``advance`` (:mod:`repro.particles.compiled`) walks the particles in blocks
of ``LANES`` and does the per-particle arithmetic in ``#pragma omp simd``
loops over the lanes, kept in four out-of-line functions
(``repro_*_lanes``).  Whether the compiler turned a loop into vector code
changes no result — every test passes on a scalar build, bit for bit — so a
silent fall-back (a flag lost, an ``&&`` chain or a local array whose
address is taken inside the loop) shows nowhere but in the step time.

This script compiles the generated C to assembly with the tier's own flags
and counts, in every emitted copy of each lane function, the packed and
the scalar double-precision arithmetic (x86 mnemonics).  It reads the
assembly rather than ``-fopt-info-vec-optimized`` because that report was
seen claiming "loop vectorized" for a lane loop whose emitted copies were
all scalar (gcc 12, range checks spelled as an ``&&`` chain).

Run:  PYTHONPATH=src python benchmarks/check_lane_vectorization.py
"""

import os
import re
import subprocess
import sys
import tempfile

from repro.particles.compiled import SIMD_FLAGS, c_source, find_c_compiler

LANE_FUNCTIONS = (
    "repro_stencil_lanes", "repro_push_lanes", "repro_window_lanes",
    "repro_kvector_lanes",
)
ARITHMETIC = r"^\s+v?(?:add|sub|mul|div|sqrt)(p|s)d\s"


def arithmetic_per_function(asm: str):
    """{emitted function name: [packed, scalar]} double-precision op counts."""
    counts, current = {}, None
    for line in asm.splitlines():
        label = re.match(r"^([A-Za-z_][\w.]*):", line)
        if label:
            current = label[1]
        op = re.match(ARITHMETIC, line)
        if op and current:
            counts.setdefault(current, [0, 0])[op[1] == "s"] += 1
    return counts


def main() -> int:
    compiler = find_c_compiler()
    if compiler is None:
        print("no C compiler: nothing to check")
        return 0
    flags = [flag for flag in SIMD_FLAGS if flag != "-shared"]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "kernels.c")
        with open(path, "w", encoding="utf8") as fh:
            fh.write(c_source())
        done = subprocess.run(
            [compiler, *flags, "-S", "-o", os.path.join(tmp, "kernels.s"), path],
            capture_output=True, text=True, timeout=300,
        )
        if done.returncode != 0:
            print(f"build with {' '.join(flags)} failed:\n{done.stderr[:2000]}")
            return 1
        with open(os.path.join(tmp, "kernels.s"), encoding="utf8") as fh:
            counts = arithmetic_per_function(fh.read())
    print(f"{os.path.basename(compiler)} {' '.join(flags)} -S")
    if not counts:
        print("no x86 double-precision arithmetic in the assembly: cannot tell")
        return 0
    scalar_code = []
    for name in LANE_FUNCTIONS:
        # gcc emits one copy per order and lane count it can see
        # (`.constprop.N`); the one-lane copy is rightly scalar, so the
        # function passes on its best copy
        copies = {
            emitted: ops for emitted, ops in counts.items()
            if emitted == name or emitted.startswith(name + ".")
        }
        best = max(copies.values(), key=lambda ops: ops[0] - ops[1], default=[0, 0])
        ok = best[0] > 0 and 2 * best[0] >= best[1]
        if not ok:
            scalar_code.append(name)
        print(f"  {name:22s} {len(copies)} copies, best: {best[0]:4d} packed /"
              f" {best[1]:3d} scalar  {'vector code' if ok else 'SCALAR CODE'}")
    if scalar_code:
        print(f"FAIL: no vector copy of {', '.join(scalar_code)}")
        return 1
    print(f"OK: all {len(LANE_FUNCTIONS)} lane functions are vector code")
    return 0


if __name__ == "__main__":
    sys.exit(main())
