"""CI gate: the lane loops of the fused particle pass are really vector
code, and the library contains no fused multiply-add.

``advance`` (:mod:`repro.particles.compiled`) walks the particles in blocks
of ``LANES`` and does the per-particle arithmetic in ``#pragma omp simd``
loops over the lanes, kept in out-of-line functions (``repro_*_lanes``):
four shared by both precisions, and the field gather once per precision
(``repro_gather_lanes_f64`` / ``_f32``), whose lane loops read each lane's
own samples with hardware gathers.  Whether the compiler turned a loop into vector code
changes no result — every test passes on a scalar build, bit for bit — so a
silent fall-back (a flag lost, an ``&&`` chain or a local array whose
address is taken inside the loop) shows nowhere but in the step time.

This script compiles the generated C to assembly with the tier's own flags,
except that ``-march=native`` becomes :data:`PROBE_MARCH`, and counts, in
every emitted copy of each lane function, the packed and the scalar
double-precision arithmetic (x86 mnemonics); a gather function must in
addition contain vector gathers (``vgather*``), which its scalar fall-back —
one lane at a time, plain loads — has none of.  It reads the assembly rather
than ``-fopt-info-vec-optimized`` because that report was seen claiming
"loop vectorized" for a lane loop whose emitted copies were all scalar (gcc
12, range checks spelled as an ``&&`` chain).

The PSATD update (:mod:`repro.grid.compiled`, ``psatd_update``) is held to
the same test: its blocks are vector code.  And no function may contain a
fused multiply-add (``vfmadd``, ``vfmaddsub``, ...): the numerics contract
rounds every product, and gcc 12's vectoriser was seen emitting
``vfmaddsub`` for an interleaved complex product under
``-ffp-contract=off``, a change no test on an FMA-less build would see.

The gate checks the code, not the runner's compiler tuning: which loops gcc
vectorises depends on the CPU model ``-march=native`` resolves to, not only
on its ISA.  gcc 12 on a ``cooperlake`` host leaves both gathers scalar
(0 ``vgather*``), while the same source for ``icelake-server`` gets 94 / 86
gathers; so the probe compiles for one fixed AVX-512 target and prints what
``native`` resolves to on the runner next to it.

Run:  PYTHONPATH=src python benchmarks/check_lane_vectorization.py
"""

import os
import re
import subprocess
import sys
import tempfile

from repro.native import SIMD_FLAGS, c_source, find_c_compiler

LANE_FUNCTIONS = (
    "repro_stencil_lanes", "repro_push_lanes", "repro_window_lanes",
    "repro_kvector_lanes",
)
#: the field gathers of the fused pass: vector code with vector gathers
GATHER_FUNCTIONS = ("repro_gather_lanes_f64", "repro_gather_lanes_f32")
#: the functions whose loops must be vector code
VECTOR_FUNCTIONS = LANE_FUNCTIONS + GATHER_FUNCTIONS + ("psatd_update_f64",)
ARITHMETIC = r"^\s+v?(?:add|sub|mul|div|sqrt)(p|s)d\s"
GATHER = r"^\s+vp?gather\w+\s"
FUSED = r"^\s+vf(?:n?m(?:add|sub)|maddsub|msubadd)\d*[ps][sd]\s"
#: the target the probe compiles for in place of the tier's -march=native
PROBE_MARCH = "-march=icelake-server"


def native_march(compiler: str) -> str:
    """What ``-march=native`` resolves to here (gcc's ``cc1`` line, or
    clang's ``-target-cpu``) as the compiler would run it; ``-###`` runs
    nothing."""
    probe = subprocess.run(
        [compiler, "-###", "-march=native", "-E", "-x", "c", os.devnull],
        capture_output=True, text=True, timeout=60,
    )
    found = re.findall(
        r'"-march=(?!native)([\w-]+)"|"-target-cpu" "([\w-]+)"', probe.stderr
    )
    return next((a or b for a, b in found), "unknown")


def arithmetic_per_function(asm: str):
    """({emitted function name: [packed, scalar, gathers]} double-precision
    op and vector-gather counts, {emitted function name: fused
    multiply-adds})."""
    counts, fused, current = {}, {}, None
    for line in asm.splitlines():
        label = re.match(r"^([A-Za-z_][\w.]*):", line)
        if label:
            current = label[1]
        if not current:
            continue
        op = re.match(ARITHMETIC, line)
        if op:
            counts.setdefault(current, [0, 0, 0])[op[1] == "s"] += 1
        if re.match(GATHER, line):
            counts.setdefault(current, [0, 0, 0])[2] += 1
        if re.match(FUSED, line):
            fused[current] = fused.get(current, 0) + 1
    return counts, fused


def main() -> int:
    compiler = find_c_compiler()
    if compiler is None:
        print("no C compiler: nothing to check")
        return 0
    flags = [
        PROBE_MARCH if flag == "-march=native" else flag
        for flag in SIMD_FLAGS if flag != "-shared"
    ]
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
            counts, fused = arithmetic_per_function(fh.read())
    print(f"{os.path.basename(compiler)} {' '.join(flags)} -S"
          f"  (the tier builds with -march=native = {native_march(compiler)})")
    if not counts:
        print("no x86 double-precision arithmetic in the assembly: cannot tell")
        return 0
    scalar_code = []
    for name in VECTOR_FUNCTIONS:
        # gcc emits one copy per order and lane count it can see
        # (`.constprop.N`); the one-lane copy is rightly scalar, so the
        # function passes on its best copy
        copies = {
            emitted: ops for emitted, ops in counts.items()
            if emitted == name or emitted.startswith(name + ".")
        }
        best = max(copies.values(), key=lambda ops: ops[0] - ops[1],
                   default=[0, 0, 0])
        ok = best[0] > 0 and 2 * best[0] >= best[1]
        if name in GATHER_FUNCTIONS:
            ok = ok and best[2] > 0
        if not ok:
            scalar_code.append(name)
        print(f"  {name:22s} {len(copies)} copies, best: {best[0]:4d} packed /"
              f" {best[1]:3d} scalar / {best[2]:3d} gathers"
              f"  {'vector code' if ok else 'SCALAR CODE'}")
    for name, n in sorted(fused.items()):
        print(f"  {name:22s} {n} fused multiply-adds  FUSED")
    if scalar_code:
        print(f"FAIL: no vector copy of {', '.join(scalar_code)}")
    if fused:
        print(f"FAIL: fused multiply-adds in {', '.join(sorted(fused))}")
    if scalar_code or fused:
        return 1
    print(f"OK: all {len(VECTOR_FUNCTIONS)} functions are vector code, "
          "no fused multiply-add")
    return 0


if __name__ == "__main__":
    sys.exit(main())
