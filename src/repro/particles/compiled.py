"""The compiled kernel tier: generated C driven through ctypes.

The paper's headline FOM comes from hand-tuned gather/deposit inner
loops; the WarpX GPU port (arXiv:2101.12149) showed that the winning
recipe is *same kernel semantics, new backend behind a dispatch seam,
cross-validated against an independent implementation* — and that the
largest single win is one streamed pass that keeps a particle's fields
and momentum in registers.  This module is that recipe for the Python reproduction: the
native tier (``kernels="compiled"``) whose per-particle inner loops run
as native code.

There is one backend.  :func:`build_kernel_tier` runs once, when
:mod:`repro.particles.kernels` is imported, and wraps the library of
:func:`repro.native.library` — the particle kernels below and the field
entries of :mod:`repro.grid.compiled`, compiled together once with the
system C compiler — as the ``compiled`` ``KernelSet``, driven through
ctypes.  Without a library (no compiler, or
``REPRO_COMPILED_BACKEND=none``) it returns the reason instead, which
:func:`repro.particles.kernels.kernel_tier_status` reports, and dispatch
falls through to ``vectorized``.  How the library is built, flagged and
cached is :mod:`repro.native`'s business; this module holds only the
particle part of its source (:func:`c_source`) and the wrappers.

Entry points (each emitted twice over a ``real`` typedef, for float64
and float32 field storage), all built from the same routines, each
written once — shape weights, ``gather6``, push, Esirkepov K-vectors and
scatter:

``advance``
    the fused particle pass, :data:`LANES` particles at a time: the nodal
    and half-shifted shape weights once per axis, all six field
    components gathered as row sums, the Boris or Vay momentum update,
    the position advance, the Esirkepov deposit on the ``order + 2``
    window *reusing the nodal weights* as the old shape, and the
    periodic wrap.  What is the same arithmetic for every particle —
    lattice coordinates and weights, the push, the new shape and its
    placement in the window (offset 0 or 1: a select), the ``cum`` /
    ``T`` / ``U`` K-vectors — runs in ``#pragma omp simd`` loops over the
    lanes of SoA stack tables (the paper's Sec. V.A.1 transposed
    layout); what addresses the grid — the gather, the scatter, lane by
    lane in particle order — and the wrap + stores stay per particle.
    Needs ``c dt < min(dx)`` (every move sub-cell), which
    :func:`repro.particles.advance.advance_particles` checks before it
    calls this slot.  The current may land on a second grid of the gather
    grid's layout, and a keep box leaves out (and flags) the particles
    whose new position left it: an MR patch's members gather its
    auxiliary grid, deposit on its fine grid and hand the crossers of its
    interior back to the driver.  The box test runs once per block, after
    the range masks; a block with a leaver goes to the scalar loop, which
    flags it, so a pass without a box pays one pointer test per block.
    A ``switch`` instantiates the block loop with literal ``(ndim,
    order)``; the lane loops are out-of-line functions shared by all of
    them, and nothing else is specialised.
``advance_scalar``
    the same pass one lane at a time at run-time ``(ndim, order)``: the
    ``n mod LANES`` tail and every block with a refused lane go through
    it.  Exported so the tests can hold ``advance`` against it, bit for
    bit; not a kernel-set slot.
``gather`` / ``deposit_esirkepov``
    the standalone slots at run-time ``(ndim, order, K)``, for what the
    fused pass leaves to the composed route on this tier: the
    crossers of an MR patch interior (``Simulation._deposit``, a few
    particles a step), ``c dt >= dx`` (either slot; the gather also with
    ``deposition="direct"``), the benchmark's per-kernel probes and
    cross-validation.  The nodal deposits (charge, direct current) have
    no native entry: no driver dispatches them through a kernel set.

Field reads/accumulates happen in the grid dtype; shape weights,
coordinates and every particle quantity stay double, matching the
paper's Table III "MP mode" (SP fields, DP particle ops).

Memory safety: every kernel compares each particle's stencil
``[base, base + K)`` against the array extent *as a float, before the
integer cast* (so NaN, inf and 1e9 are caught too), and a shape that
would be placed outside its deposit window is refused the same way; the
kernel stops at the first offender and the wrapper raises
``SanitizerError("SAN005 ...")`` — a stray particle is an error, never a
segfault or a silent write outside ``J``, with or without
``REPRO_SANITIZE``.  In ``advance`` each check is a per-lane mask (a
product of 0.0 / 1.0 selects) and a block writes nothing until all its
masks are 1.0; a block with a refused lane is re-run by the scalar loop,
which finds the offender after the particles before it have deposited:
the species is untouched, ``J`` may be partial — exactly the particle,
axis and ``J`` of a per-particle loop.

Numerics contract: no ``-ffast-math``, no FMA contraction, no
reassociation, the pushers term by term as in NumPy — so a lane of a
vector loop performs the IEEE operations of the scalar loop, on any ISA,
and ``advance`` is ``array_equal`` to ``advance_scalar`` and to a build
with the plain flags (``test_blocked_advance_is_the_scalar_loop_bit_for_
bit``).  The deposit shares its factorisation
(``cum`` / ``T`` / ``U`` K-vectors over placed closed-form shapes) with
``vectorized``: the standalone ``deposit_esirkepov`` agrees with it to
8e-16 of max |J| (ndim 1-3 x order 1-3, five seeds), the residue being
``k qw cumsum(DS)`` against ``cumsum(k qw DS)`` and the histogram's
summation order.  The gather still sums by rows (7e-16), and ``advance``
— its own gather feeding its own push — deviates by up to 1.5e-13 of
max |J| on float64 grids, where cancellation in ``S1 - S0`` amplifies the
last bit of the new position.  So the tier agrees with ``vectorized`` to
machine precision, not bit for bit, and the float32 variants stay within
:data:`repro.particles.kernels.FLOAT32_ERROR_BUDGET` — both enforced by
``validate_kernel_set`` and ``check_kernel_fastpath.py``.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Optional, Tuple

import numpy as np

from repro import native
from repro.native import _ptr
from repro.constants import c
from repro.exceptions import ConfigurationError, SanitizerError
from repro.grid.yee import FIELD_COMPONENTS, STAGGER, YeeGrid
from repro.particles.deposit import (
    deposit_current_esirkepov,
    sized_esirkepov_window,
)
from repro.particles.pusher import PUSHERS

#: widest Esirkepov window the compiled kernels handle on-stack; larger
#: displacements (deep-MR subcycling) fall back to the vectorized kernel
KMAX = 8

#: particles per block of the fused pass, REPRO_RB in the C: 8 lanes of
#: 256-bit vectors are two vector iterations per lane loop; 16 measure the
#: same within the host's noise, 4 slower (BENCH_kernel_optimization.json,
#: "speed-up vs vector length")
LANES = 8

# =========================================================================
# generated C: the kernels over a `real` typedef, compiled once
# =========================================================================

_C_HEADER = r"""
#include <stdint.h>
#include <math.h>

typedef int64_t i64;

#define REPRO_KMAX 8
/* What a block of the fused pass returns when a lane left the keep box:
   not an axis, never a refusal; the scalar loop takes the block over. */
#define REPRO_LEAVES 3
/* Particles per block ("lanes") of the fused pass: every per-particle
   quantity of a block lives in a [..][REPRO_RB] stack array whose last
   index is the lane.  (-DREPRO_RB=n: the vector-length table of
   bench_kernel_optimization.py.) */
#ifndef REPRO_RB
#define REPRO_RB @LANES@
#endif
/* The per-particle pieces.  Forced inline: `advance` calls them with
   literal (ndim, order) and needs every stencil loop unrolled; the
   standalone entries call the same routines at their run-time values. */
#define REPRO_INLINE static inline __attribute__((always_inline))
/* The lane loops.  Out of line: none depends on the field precision and
   at most on the order, so one copy serves all 18 `advance` bodies, and
   gcc vectorises a small function over `restrict` pointers where the same
   loop inlined into the big body is "control flow in loop". */
#define REPRO_LANES static __attribute__((noinline))
/* The entries at run-time (ndim, order).  Their stencil loops run
   order + 1 <= 4 times, and what the auto-vectoriser makes of such a loop
   once -march=native hands it AVX (in-order reductions, peeled and
   versioned) measures up to 1.35x slower than the scalar loop. */
#if defined(__GNUC__) && !defined(__clang__)
#define REPRO_GENERIC __attribute__((optimize("no-tree-vectorize")))
#else
#define REPRO_GENERIC
#endif

/* stagger of Ex, Ey, Ez, Bx, By, Bz (generated from repro.grid.yee) */
static const int repro_stagger[6][3] = {@STAGGER@};

/* geom = {lo[3], dx[3], guards}: nodal lattice coordinate along axis d */
REPRO_INLINE double repro_lattice(double x, const double *geom, int d) {
    return (x - geom[d]) / geom[3 + d] + geom[6];
}

/* A range check as a float, 1.0 or 0.0: the lane loops multiply the masks
   of their lanes.  One select over the `&&` of comparisons already
   evaluated — gcc turns that into vector compares, ands and a blend; a
   check that *returns* from the middle of a routine, or an `&&` chain across
   routine calls, is control flow to the vectoriser and the loop stays
   scalar (benchmarks/check_lane_vectorization.py looks at the assembly). */
REPRO_INLINE double repro_all4(int a, int b, int c, int d) {
    return (a && b && c && d) ? 1.0 : 0.0;
}

/* Does [base, base + width) fit in [0, extent), and is base = trunc(x) -
   const the floor it stands for (x >= 0; trunc is defined for NaN, inf and
   1e300 where a cast through i64 is not, so a lane may compute it before
   anybody has looked at the answer)?  x and base are still floats: NaN,
   inf and values beyond the integer range all answer 0.0. */
REPRO_INLINE double repro_in_range(double x, double base, int width,
                                   double extent) {
    return repro_all4(x >= 0.0, x < extent, base >= 0.0,
                      base <= extent - width);
}

/* Weights w[k * st] and first point (*base, a float until the caller has
   seen the answer) of the order+1 stencil around lattice coordinate x.
   Returns 1.0, or 0.0 when the stencil leaves [0, extent). */
REPRO_INLINE double repro_shape_weights(double x, int order, double extent,
                                        double *base, double *w, int st) {
    double floored = order == 2 ? x + 0.5 : x;
    double cell = __builtin_trunc(floored);
    if (order == 1) {
        double f = x - cell;
        w[0] = 1.0 - f; w[st] = f;
        *base = cell;
    } else if (order == 2) {
        double d = x - cell;
        w[0] = 0.5 * (0.5 - d) * (0.5 - d);
        w[st] = 0.75 - d * d;
        w[2 * st] = 0.5 * (0.5 + d) * (0.5 + d);
        *base = cell - 1.0;
    } else {
        double f = x - cell;
        double omf = 1.0 - f;
        w[0] = omf * omf * omf / 6.0;
        w[st] = (3.0 * f * f * f - 6.0 * f * f + 4.0) / 6.0;
        w[2 * st] = (-3.0 * f * f * f + 3.0 * f * f + 3.0 * f + 1.0) / 6.0;
        w[3 * st] = f * f * f / 6.0;
        *base = cell - 1.0;
    }
    return repro_in_range(floored, *base, order + 1, extent);
}

/* A particle's gather stencils, lane stride st: lattice coordinate
   xl[d * st]; first point b[(3 s + d) * st] and weights
   w[((3 s + d) * 4 + k) * st] of the nodal (s = 0) and the
   half-cell-shifted (s = 1) stencil.  One axis of one particle: */
REPRO_INLINE double repro_stencil_axis(double x, const double *geom,
    const i64 *shape, int d, int order, int st, double *xl, double *b,
    double *w) {
    double extent = (double)shape[d];
    double c = xl[d * st] = repro_lattice(x, geom, d);
    return repro_shape_weights(c, order, extent, b + d * st,
                               w + 4 * d * st, st)
         * repro_shape_weights(c - 0.5, order, extent, b + (3 + d) * st,
                               w + 4 * (3 + d) * st, st);
}

/* The first points as integers, once every mask of the block is 1.0. */
REPRO_INLINE void repro_stencil_first(const double *b, int ndim, int st,
                                      int nl, i64 *i0) {
    for (int s = 0; s < 6; s += 3)
        for (int d = 0; d < ndim; ++d)
            for (int l = 0; l < nl; ++l)
                i0[(s + d) * st + l] = (i64)b[(s + d) * st + l];
}

/* Momentum update u -> un, operation order of push_boris / push_vay term
   by term; kq = q dt / (2 m c), hq = q dt / (2 m).  Vectors travel by
   value as three scalars: a local array whose address is taken inside an
   `omp simd` loop is privatised per lane and the loop stays scalar. */
typedef struct { double x, y, z; } repro_vec3;

REPRO_INLINE double repro_norm2(repro_vec3 a) {
    return a.x * a.x + a.y * a.y + a.z * a.z;
}

REPRO_INLINE repro_vec3 repro_push(int vay, repro_vec3 u, repro_vec3 e,
    repro_vec3 b, double kq, double hq, double clight) {
    repro_vec3 un;
    if (!vay) {
        repro_vec3 um = {u.x + kq * e.x, u.y + kq * e.y, u.z + kq * e.z};
        double gm = sqrt(1.0 + repro_norm2(um));
        repro_vec3 t = {hq * b.x / gm, hq * b.y / gm, hq * b.z / gm};
        double t2 = repro_norm2(t);
        repro_vec3 s = {2.0 * t.x / (1.0 + t2), 2.0 * t.y / (1.0 + t2),
                        2.0 * t.z / (1.0 + t2)};
        repro_vec3 up = {um.x + (um.y * t.z - um.z * t.y),
                         um.y + (um.z * t.x - um.x * t.z),
                         um.z + (um.x * t.y - um.y * t.x)};
        un.x = um.x + (up.y * s.z - up.z * s.y) + kq * e.x;
        un.y = um.y + (up.z * s.x - up.x * s.z) + kq * e.y;
        un.z = um.z + (up.x * s.y - up.y * s.x) + kq * e.z;
    } else {
        double gn = sqrt(1.0 + repro_norm2(u));
        repro_vec3 v = {u.x * (clight / gn), u.y * (clight / gn),
                        u.z * (clight / gn)};
        repro_vec3 up = {
            u.x + kq * (e.x + (v.y * b.z - v.z * b.y)) + kq * e.x,
            u.y + kq * (e.y + (v.z * b.x - v.x * b.z)) + kq * e.y,
            u.z + kq * (e.z + (v.x * b.y - v.y * b.x)) + kq * e.z};
        repro_vec3 tau = {hq * b.x, hq * b.y, hq * b.z};
        double tau2 = repro_norm2(tau);
        double ustar = up.x * tau.x + up.y * tau.y + up.z * tau.z;
        double gp2 = 1.0 + repro_norm2(up);
        double sigma = gp2 - tau2;
        double gnew = sqrt(0.5 * (sigma + sqrt(sigma * sigma
                           + 4.0 * (tau2 + ustar * ustar))));
        repro_vec3 tv = {tau.x / gnew, tau.y / gnew, tau.z / gnew};
        double sfac = 1.0 / (1.0 + repro_norm2(tv));
        double dot = up.x * tv.x + up.y * tv.y + up.z * tv.z;
        un.x = sfac * (up.x + dot * tv.x + (up.y * tv.z - up.z * tv.y));
        un.y = sfac * (up.y + dot * tv.y + (up.z * tv.x - up.x * tv.z));
        un.z = sfac * (up.z + dot * tv.z + (up.x * tv.y - up.y * tv.x));
    }
    return un;
}

/* One axis of the Esirkepov window for the move a -> b (lattice
   coordinates): its first point (the minimal order+2 window of an odd
   order is centred on round(xm), see deposit._esirkepov_shapes), the old
   shape s0 and ds = new - old over its K points.  A shape *is* the
   closed-form weight vector placed at (its first point - base), zero
   elsewhere; w_old / i_old are the nodal weights the caller already has.
   Returns 0 when the window leaves the array or a stencil the window. */
REPRO_INLINE int repro_esirkepov_axis(double a, double b,
    const double *w_old, i64 i_old, int order, int K, double extent,
    i64 *base, double *s0, double *ds) {
    double b_new, w_new[4];
    double xm = 0.5 * (a + b);
    double floored = (K == order + 2 && (order & 1)) ? xm + 0.5 : xm;
    double first = __builtin_trunc(floored) - (K - 1) / 2;
    if (repro_in_range(floored, first, K, extent) == 0.0
        || repro_shape_weights(b, order, extent, &b_new, w_new, 1) == 0.0)
        return 0;
    *base = (i64)first;
    i64 off0 = i_old - *base, off1 = (i64)b_new - *base;
    if (off0 < 0 || off0 + order >= K || off1 < 0 || off1 + order >= K)
        return 0;
    for (int k = 0; k < K; ++k) {
        i64 m0 = k - off0, m1 = k - off1;
        s0[k] = (m0 >= 0 && m0 <= order) ? w_old[m0] : 0.0;
        ds[k] = ((m1 >= 0 && m1 <= order) ? w_new[m1] : 0.0) - s0[k];
    }
    return 1;
}

/* The same axis in the fused pass, where the window is order+2 points and
   every move sub-cell: both shapes sit at offset 0 or 1, so placing them
   is a select per window point, not an index.  x + step is the new
   position (*xn); a / w_old / b_old the lattice coordinate, nodal weights
   and first point of the old one; s0 / ds as above, stride st; *first the
   window's first point, a float until the mask (returned) has been seen. */
REPRO_INLINE double repro_window_axis(double x, double step, double a,
    const double *w_old, double b_old, const double *geom, int d,
    double extent, int order, int st, double *xn, double *first,
    double *s0, double *ds) {
    const int K = order + 2;
    double b_new, w_new[4];
    double b = repro_lattice(*xn = x + step, geom, d);
    double xm = 0.5 * (a + b);
    double floored = (order & 1) ? xm + 0.5 : xm;
    double f = *first = __builtin_trunc(floored) - (K - 1) / 2;
    double ok = repro_in_range(floored, f, K, extent)
        * repro_shape_weights(b, order, extent, &b_new, w_new, 1);
    double off0 = b_old - f, off1 = b_new - f;
    ok *= repro_all4(off0 >= 0.0, off0 <= 1.0, off1 >= 0.0, off1 <= 1.0);
    for (int k = 0; k < K; ++k) {
        double old_at0 = k <= order ? w_old[k * st] : 0.0;
        double old_at1 = k ? w_old[(k - 1) * st] : 0.0;
        double new_at0 = k <= order ? w_new[k] : 0.0;
        double new_at1 = k ? w_new[k - 1] : 0.0;
        double old = s0[k * st] = off0 == 0.0 ? old_at0 : old_at1;
        ds[k * st] = (off1 == 0.0 ? new_at0 : new_at1) - old;
    }
    return ok;
}

/* Per-call factors of the current: -q/(dt dA) along the axes the
   continuity equation drives, q/dV (times the velocity, per particle)
   along the invariant ones. */
static inline void repro_current_factors(int ndim, double charge, double dt,
    const double *dx, double *k) {
    if (ndim == 3) {
        k[0] = -charge / (dt * dx[1] * dx[2]);
        k[1] = -charge / (dt * dx[0] * dx[2]);
        k[2] = -charge / (dt * dx[0] * dx[1]);
    } else if (ndim == 2) {
        k[0] = -charge / (dt * dx[1]);
        k[1] = -charge / (dt * dx[0]);
        k[2] = charge / (dx[0] * dx[1]);
    } else {
        k[0] = -charge / dt;
        k[1] = k[2] = charge / dx[0];
    }
}

/* The K-vectors of the Esirkepov currents of nl particles, every table
   [3][REPRO_KMAX][st] with the lane last: per axis cum = k qw cumsum(DS),
   T = S0 + DS/2 and U = S0/2 + DS/3 (U of axis 0 is never used). */
REPRO_INLINE void repro_kvectors(int ndim, int K, int nl, int st,
    const double *k, const double *restrict qw, const double *restrict s0,
    const double *restrict ds, double *restrict cum, double *restrict t,
    double *restrict u) {
    for (int d = 0; d < ndim; ++d) {
        double acc[REPRO_RB] = {0.0};
        for (int i = 0; i < K; ++i) {
            const int row = (d * REPRO_KMAX + i) * st;
#pragma omp simd
            for (int l = 0; l < nl; ++l) {
                acc[l] += ds[row + l];
                cum[row + l] = k[d] * qw[l] * acc[l];
                t[row + l] = s0[row + l] + 0.5 * ds[row + l];
            }
            if (d) {
#pragma omp simd
                for (int l = 0; l < nl; ++l)
                    u[row + l] = 0.5 * s0[row + l] + ds[row + l] / 3.0;
            }
        }
    }
}

/* 1.0 when the new position of every lane, xn[d * REPRO_RB + l], lies in
   the keep box {lo[3], hi[3]}: x >= lo && x < hi on each axis, the
   comparisons MRPatch.contains makes against the same bounds. */
REPRO_INLINE double repro_in_box(int ndim, int nl, const double *xn,
                                 const double *box) {
    double in = 1.0;
    for (int d = 0; d < ndim; ++d)
        for (int l = 0; l < nl; ++l) {
            double x = xn[d * REPRO_RB + l];
            in *= (x >= box[d] && x < box[3 + d]) ? 1.0 : 0.0;
        }
    return in;
}

/* The periodic wrap of wrap_positions_periodic (repro.particles.pusher),
   with np.mod's arithmetic: fmod only for a coordinate that left
   [lo, lo + length), the remainder taking the sign of the divisor. */
static inline double repro_wrap(double x, double lo, double length) {
    double a = x - lo;
    if (a < 0.0 || a >= length) {
        a = fmod(a, length);
        if (a < 0.0) a += length;
    }
    return a + lo;
}

/* ---- the lane loops of the fused pass: nl <= REPRO_RB particles, SoA
   tables of lane stride REPRO_RB.  Each returns the product of its lanes'
   masks where there is something to refuse. ---- */

/* run `loop` with the order as a literal: the branches on it fold away */
#define REPRO_AT_ORDER(loop, ...) switch (order) { \
    case 1: return loop(1, __VA_ARGS__); \
    case 2: return loop(2, __VA_ARGS__); \
    default: return loop(3, __VA_ARGS__); }

REPRO_INLINE double repro_stencil_loop(int order, int nl,
    const double *restrict pos, int ndim, const double *geom,
    const i64 *shape, int d, double *restrict x, double *restrict xl,
    double *restrict b, double *restrict w) {
    double ok = 1.0;
#pragma omp simd reduction(*:ok)
    for (int l = 0; l < nl; ++l) {
        x[d * REPRO_RB + l] = pos[l * ndim + d];
        ok *= repro_stencil_axis(pos[l * ndim + d], geom, shape, d, order,
                                 REPRO_RB, xl + l, b + l, w + l);
    }
    return ok;
}

/* Positions (AoS, axis d) -> x, lattice coordinate, both stencils. */
REPRO_LANES double repro_stencil_lanes(int order, int nl,
    const double *restrict pos, int ndim, const double *geom,
    const i64 *shape, int d, double *restrict x, double *restrict xl,
    double *restrict b, double *restrict w) {
    REPRO_AT_ORDER(repro_stencil_loop, nl, pos, ndim, geom, shape, d, x, xl, b, w)
}

REPRO_INLINE void repro_push_loop(int vay, int nl,
    const double *restrict mom, const double *restrict f, double kq,
    double hq, double clight, double cdt, double *restrict un,
    double *restrict vel, double *restrict step) {
#pragma omp simd
    for (int l = 0; l < nl; ++l) {
        const double *fl = f + l;
        repro_vec3 u = {mom[3 * l], mom[3 * l + 1], mom[3 * l + 2]};
        repro_vec3 e = {fl[0], fl[REPRO_RB], fl[2 * REPRO_RB]};
        repro_vec3 b = {fl[3 * REPRO_RB], fl[4 * REPRO_RB], fl[5 * REPRO_RB]};
        repro_vec3 v = repro_push(vay, u, e, b, kq, hq, clight);
        double gamma = sqrt(1.0 + repro_norm2(v));
        un[l] = v.x;
        un[REPRO_RB + l] = v.y;
        un[2 * REPRO_RB + l] = v.z;
        step[l] = (v.x / gamma) * cdt;
        step[REPRO_RB + l] = (v.y / gamma) * cdt;
        step[2 * REPRO_RB + l] = (v.z / gamma) * cdt;
        vel[l] = v.x * (clight / gamma);
        vel[REPRO_RB + l] = v.y * (clight / gamma);
        vel[2 * REPRO_RB + l] = v.z * (clight / gamma);
    }
}

/* Momenta (AoS) and gathered fields f[6][lanes] -> new momenta un, the
   velocity and the displacement step = (un / gamma) c dt, all [3][lanes]. */
REPRO_LANES void repro_push_lanes(int vay, int nl,
    const double *restrict mom, const double *restrict f, double kq,
    double hq, double clight, double cdt, double *restrict un,
    double *restrict vel, double *restrict step) {
    if (vay) repro_push_loop(1, nl, mom, f, kq, hq, clight, cdt, un, vel, step);
    else repro_push_loop(0, nl, mom, f, kq, hq, clight, cdt, un, vel, step);
}

REPRO_INLINE double repro_window_loop(int order, int nl,
    const double *restrict x, const double *restrict step,
    const double *restrict xl, const double *restrict w_old,
    const double *restrict b_old, const double *geom, int d, double extent,
    double *restrict xn, double *restrict first, double *restrict s0,
    double *restrict ds) {
    double ok = 1.0;
#pragma omp simd reduction(*:ok)
    for (int l = 0; l < nl; ++l)
        ok *= repro_window_axis(x[l], step[l], xl[l], w_old + l, b_old[l],
                                geom, d, extent, order, REPRO_RB, xn + l,
                                first + l, s0 + l, ds + l);
    return ok;
}

/* Axis d of the move: new position, new shape, window placement. */
REPRO_LANES double repro_window_lanes(int order, int nl,
    const double *restrict x, const double *restrict step,
    const double *restrict xl, const double *restrict w_old,
    const double *restrict b_old, const double *geom, int d, double extent,
    double *restrict xn, double *restrict first, double *restrict s0,
    double *restrict ds) {
    REPRO_AT_ORDER(repro_window_loop, nl, x, step, xl, w_old, b_old, geom, d,
                   extent, xn, first, s0, ds)
}

REPRO_LANES void repro_kvector_lanes(int ndim, int K, int nl,
    const double *k, const double *restrict qw, const double *restrict s0,
    const double *restrict ds, double *restrict cum, double *restrict t,
    double *restrict u) {
    repro_kvectors(ndim, K, nl, REPRO_RB, k, qw, s0, ds, cum, t, u);
}
"""

# Every kernel returns -1, or the index of the first particle whose
# stencil leaves the array with the offending axis in *bad_axis.  Rows
# (the last axis) are contiguous: CBackend.call checks it.
_C_KERNELS = r"""
/* All six field components at one particle, f = {Ex, Ey, Ez, Bx, By, Bz}:
   each picks per axis the nodal or the shifted stencil (i0, w: layout of
   repro_stencil_axis, lane stride st) by its stagger and is summed row by
   row along the contiguous last axis. */
REPRO_INLINE void gather6_@SUF@(const @REAL@ *const *fields,
    const i64 *strides, int ndim, int order, const i64 *i0, const double *w,
    int st, double *f) {
    const int K = order + 1;
    for (int c = 0; c < 6; ++c) {
        const int *sg = repro_stagger[c];
        const double *w0 = w + 4 * 3 * sg[0] * st,
                     *w1 = w + 4 * (3 * sg[1] + 1) * st,
                     *w2 = w + 4 * (3 * sg[2] + 2) * st;
        const @REAL@ *first = fields[c] + i0[3 * sg[0] * st] * strides[0];
        double acc = 0.0;
        if (ndim == 3) {
            first += i0[(3 * sg[1] + 1) * st] * strides[1]
                   + i0[(3 * sg[2] + 2) * st];
            for (int i = 0; i < K; ++i) {
                double plane = 0.0;
                for (int j = 0; j < K; ++j) {
                    const @REAL@ *row = first + i * strides[0] + j * strides[1];
                    double sum = 0.0;
                    for (int k = 0; k < K; ++k)
                        sum += w2[k * st] * (double)row[k];
                    plane += w1[j * st] * sum;
                }
                acc += w0[i * st] * plane;
            }
        } else if (ndim == 2) {
            first += i0[(3 * sg[1] + 1) * st];
            for (int i = 0; i < K; ++i) {
                const @REAL@ *row = first + i * strides[0];
                double sum = 0.0;
                for (int j = 0; j < K; ++j) sum += w1[j * st] * (double)row[j];
                acc += w0[i * st] * sum;
            }
        } else {
            for (int i = 0; i < K; ++i) acc += w0[i * st] * (double)first[i];
        }
        f[c] = acc;
    }
}

/* Esirkepov currents of one particle of charge weight qw over its
   K-point window: one pass over the window rows, all three components
   per cell, from the K-vectors of repro_kvectors (tables
   [3][REPRO_KMAX][st], this particle's lane).  The time-averaged shape
   product of two axes factors as S0a Tb + DSa Ub, so nothing but
   K-vectors is prepared per particle (3D: one K x K table).  vel
   supplies the invariant-axis velocities. */
REPRO_INLINE void esirkepov_scatter_@SUF@(@REAL@ *const *jxyz,
    const i64 *strides, int ndim, int K, const i64 *base, int st,
    const double *s0, const double *ds, const double *cum, const double *t,
    const double *u, const double *k, double qw, const double *vel) {
#define AT(table, d, i) table[((d) * REPRO_KMAX + (i)) * st]
    i64 first = base[0] * strides[0];
    if (ndim == 3) {
        double wyz[REPRO_KMAX][REPRO_KMAX];
        first += base[1] * strides[1] + base[2];
        for (int j = 0; j < K; ++j)
            for (int l = 0; l < K; ++l)
                wyz[j][l] = AT(s0, 1, j) * AT(t, 2, l) + AT(ds, 1, j) * AT(u, 2, l);
        for (int i = 0; i < K; ++i) {
            double wxz[REPRO_KMAX];
            for (int l = 0; l < K; ++l)
                wxz[l] = AT(s0, 0, i) * AT(t, 2, l) + AT(ds, 0, i) * AT(u, 2, l);
            for (int j = 0; j < K; ++j) {
                i64 row = first + i * strides[0] + j * strides[1];
                @REAL@ *jx = jxyz[0] + row;
                @REAL@ *jy = jxyz[1] + row;
                @REAL@ *jz = jxyz[2] + row;
                double wxy = AT(s0, 0, i) * AT(t, 1, j) + AT(ds, 0, i) * AT(u, 1, j);
                for (int l = 0; l < K; ++l) {
                    jx[l] += (@REAL@)(AT(cum, 0, i) * wyz[j][l]);
                    jy[l] += (@REAL@)(AT(cum, 1, j) * wxz[l]);
                    jz[l] += (@REAL@)(wxy * AT(cum, 2, l));
                }
            }
        }
    } else if (ndim == 2) {
        double cz = k[2] * qw * vel[2];
        first += base[1];
        for (int i = 0; i < K; ++i) {
            @REAL@ *jx = jxyz[0] + first + i * strides[0];
            @REAL@ *jy = jxyz[1] + first + i * strides[0];
            @REAL@ *jz = jxyz[2] + first + i * strides[0];
            double zs = cz * AT(s0, 0, i), zd = cz * AT(ds, 0, i);
            for (int j = 0; j < K; ++j) {
                jx[j] += (@REAL@)(AT(cum, 0, i) * AT(t, 1, j));
                jy[j] += (@REAL@)(AT(t, 0, i) * AT(cum, 1, j));
                jz[j] += (@REAL@)(zs * AT(t, 1, j) + zd * AT(u, 1, j));
            }
        }
    } else {
        double cy = k[1] * qw * vel[1], cz = k[2] * qw * vel[2];
        for (int i = 0; i < K; ++i) {
            jxyz[0][first + i] += (@REAL@)AT(cum, 0, i);
            jxyz[1][first + i] += (@REAL@)(cy * AT(t, 0, i));
            jxyz[2][first + i] += (@REAL@)(cz * AT(t, 0, i));
        }
    }
#undef AT
}

/* e_out, b_out: (n, 3) */
REPRO_GENERIC i64 gather_@SUF@(const @REAL@ *const *fields, const i64 *strides,
    const i64 *shape, const double *geom, int ndim, int order, i64 n,
    const double *pos, double *e_out, double *b_out, int *bad_axis) {
    for (i64 p = 0; p < n; ++p) {
        double xl[3], b[6], w[24], f[6];
        i64 i0[6];
        for (int d = 0; d < ndim; ++d)
            if (repro_stencil_axis(pos[p * ndim + d], geom, shape, d, order,
                                   1, xl, b, w) == 0.0) {
                *bad_axis = d;
                return p;
            }
        repro_stencil_first(b, ndim, 1, 1, i0);
        gather6_@SUF@(fields, strides, ndim, order, i0, w, 1, f);
        for (int j = 0; j < 3; ++j) {
            e_out[3 * p + j] = f[j];
            b_out[3 * p + j] = f[3 + j];
        }
    }
    return -1;
}

/* The standalone Esirkepov deposit over a K-point window sized by the
   caller from the actual displacement (three-phase route). */
REPRO_GENERIC i64 deposit_esirkepov_@SUF@(@REAL@ *const *jxyz, const i64 *strides,
    const i64 *shape, const double *geom, int ndim, int order, i64 n, int K,
    const double *pos_old, const double *pos_new, const double *vel,
    const double *weights, double charge, double dt, int *bad_axis) {
    double k[3], s0[3][REPRO_KMAX], ds[3][REPRO_KMAX];
    double cum[3][REPRO_KMAX], t[3][REPRO_KMAX], u[3][REPRO_KMAX];
    i64 base[3] = {0, 0, 0};
    repro_current_factors(ndim, charge, dt, geom + 3, k);
    for (i64 p = 0; p < n; ++p) {
        for (int d = 0; d < ndim; ++d) {
            double extent = (double)shape[d];
            double a = repro_lattice(pos_old[p * ndim + d], geom, d);
            double b = repro_lattice(pos_new[p * ndim + d], geom, d);
            double w_old[4], b_old;
            if (repro_shape_weights(a, order, extent, &b_old, w_old, 1) == 0.0
                || !repro_esirkepov_axis(a, b, w_old, (i64)b_old, order, K,
                                         extent, &base[d], s0[d], ds[d])) {
                *bad_axis = d;
                return p;
            }
        }
        repro_kvectors(ndim, K, 1, 1, k, weights + p, s0[0], ds[0], cum[0],
                       t[0], u[0]);
        esirkepov_scatter_@SUF@(jxyz, strides, ndim, K, base, 1, s0[0], ds[0],
                                cum[0], t[0], u[0], k, weights[p],
                                vel + 3 * p);
    }
    return -1;
}

/* The fused particle pass over nl <= REPRO_RB particles ("lanes"):
   stencils -> gather6 -> Boris/Vay -> position -> Esirkepov deposit on
   the order+2 window -> periodic wrap.  The arithmetic that is the same
   for every particle runs in the lane loops above, over SoA stack tables;
   what addresses the grid — the gather, the scatter (lane 0 .. nl-1, i.e.
   particle order) — and the wrap + stores stay one lane at a time.
   Every range check is a per-lane mask, and *nothing is written* until
   all of them are 1.0: returns -1, or the first axis on which some lane's
   stencil (checked first, all axes) or window leaves the array.  The
   window width is a precondition, c dt < min(dx) (advance_particles
   checks it): every move is then sub-cell, so the old shape is the nodal
   gather stencil at offset 0 or 1 in the window and no shape function is
   evaluated twice; a move that breaks it is refused like a stray
   particle, never truncated.  wrap = {lo[3], length[3]}, length 0 on a
   non-periodic axis; k: repro_current_factors; cdt = c dt.  jxyz may
   belong to another grid of the same shape, indexed through strides + 3
   (an MR patch deposits on its fine grid and gathers from its auxiliary
   one; a decomposed box gathers from its view into its rank's tile).  keep = {lo[3],
   hi[3]} or NULL: a lane whose new position left that box deposits
   nothing and is flagged in leaving[lane].  The test runs once the
   masks are 1.0; a block of several lanes in which one left returns
   REPRO_LEAVES, writing nothing, and the scalar loop flags the lane — so
   the unboxed pass pays one pointer test per block, and the scatter loop
   has no per-lane branch. */
REPRO_INLINE int advance_lanes_@SUF@(const @REAL@ *const *fields,
    @REAL@ *const *jxyz, const i64 *strides, const i64 *shape,
    const double *geom, int ndim, int order, int nl, int vay,
    const double *pos, const double *mom, const double *weights,
    const double *k, double kq, double hq, double clight, double cdt,
    const double *wrap, const double *keep, unsigned char *leaving,
    double *pos_new, double *mom_new) {
    enum { RB = REPRO_RB, KM = REPRO_KMAX };
    const int K = order + 2;
    double x[3][RB], xl[3][RB], b[2][3][RB], w[2][3][4][RB], f[6][RB];
    double un[3][RB], vel[3][RB], step[3][RB], xn[3][RB], first[3][RB];
    double s0[3][KM][RB], ds[3][KM][RB];
    double cum[3][KM][RB], t[3][KM][RB], u[3][KM][RB];
    i64 i0[2][3][RB];
    for (int d = 0; d < ndim; ++d)
        if (repro_stencil_lanes(order, nl, pos, ndim, geom, shape, d, x[0],
                                xl[0], b[0][0], w[0][0][0]) == 0.0)
            return d;
    repro_stencil_first(b[0][0], ndim, RB, nl, i0[0][0]);
    for (int l = 0; l < nl; ++l) {
        double fl[6];
        gather6_@SUF@(fields, strides, ndim, order, &i0[0][0][l],
                      &w[0][0][0][l], RB, fl);
        for (int c = 0; c < 6; ++c) f[c][l] = fl[c];
    }
    repro_push_lanes(vay, nl, mom, f[0], kq, hq, clight, cdt, un[0], vel[0],
                     step[0]);
#ifndef REPRO_GATHER_PUSH_ONLY  /* the "gather + push part" bench rows */
    for (int d = 0; d < ndim; ++d)
        if (repro_window_lanes(order, nl, x[d], step[d], xl[d], w[0][d][0],
                               b[0][d], geom, d, (double)shape[d], xn[d],
                               first[d], s0[d][0], ds[d][0]) == 0.0)
            return d;
    if (keep && repro_in_box(ndim, nl, xn[0], keep) == 0.0) {
        if (nl > 1) return REPRO_LEAVES;
        *leaving = 1;
    } else {
        repro_kvector_lanes(ndim, K, nl, k, weights, s0[0][0], ds[0][0],
                            cum[0][0], t[0][0], u[0][0]);
        for (int l = 0; l < nl; ++l) {
            i64 base[3] = {0, 0, 0};
            double v[3] = {vel[0][l], vel[1][l], vel[2][l]};
            for (int d = 0; d < ndim; ++d) base[d] = (i64)first[d][l];
            esirkepov_scatter_@SUF@(jxyz, strides + 3, ndim, K, base, RB,
                                    &s0[0][0][l], &ds[0][0][l],
                                    &cum[0][0][l], &t[0][0][l],
                                    &u[0][0][l], k, weights[l], v);
        }
    }
    for (int l = 0; l < nl; ++l)
        for (int d = 0; d < ndim; ++d)
            pos_new[l * ndim + d] = wrap[3 + d] > 0.0
                ? repro_wrap(xn[d][l], wrap[d], wrap[3 + d]) : xn[d][l];
#endif
    for (int l = 0; l < nl; ++l)
        for (int j = 0; j < 3; ++j) mom_new[3 * l + j] = un[j][l];
    return -1;
}

/* The scalar loop: the same pass one lane at a time, at run-time
   (ndim, order); one copy per precision.  It owns the n mod REPRO_RB
   tail and every block in which a lane was refused, so the first
   offender, its axis and the partial J are those of a per-particle
   loop — and it is exported: the blocked entry below must reproduce it
   bit for bit (test_blocked_advance_is_the_scalar_loop_bit_for_bit). */
REPRO_GENERIC __attribute__((noinline)) i64 advance_scalar_@SUF@(
    @REAL@ *const *arrays, const i64 *strides, const i64 *shape,
    const double *geom, int ndim, int order, i64 n, int vay,
    const double *pos, const double *mom, const double *weights,
    double charge, double dt, double kq, double hq, double clight,
    const double *wrap, const double *keep, unsigned char *leaving,
    double *pos_new, double *mom_new, int *bad_axis) {
    double k[3];
    repro_current_factors(ndim, charge, dt, geom + 3, k);
    for (i64 p = 0; p < n; ++p) {
        *bad_axis = advance_lanes_@SUF@((const @REAL@ *const *)arrays,
            arrays + 6, strides, shape, geom, ndim, order, 1, vay,
            pos + p * ndim, mom + 3 * p, weights + p, k, kq, hq, clight,
            clight * dt, wrap, keep, keep ? leaving + p : 0,
            pos_new + p * ndim, mom_new + 3 * p);
        if (*bad_axis >= 0) return p;
    }
    return -1;
}

/* The blocked loop with literal (ndim, order): REPRO_RB particles at a
   time; a refused block and the tail go to the scalar loop. */
REPRO_INLINE i64 advance_body_@SUF@(@REAL@ *const *arrays,
    const i64 *strides, const i64 *shape, const double *geom, int ndim,
    int order, i64 n, int vay, const double *pos, const double *mom,
    const double *weights, double charge, double dt, double kq, double hq,
    double clight, const double *wrap, const double *keep,
    unsigned char *leaving, double *pos_new, double *mom_new,
    int *bad_axis) {
    double k[3];
    i64 p = 0;
    repro_current_factors(ndim, charge, dt, geom + 3, k);
    while (p < n) {
        i64 todo = n - p < REPRO_RB ? n - p : REPRO_RB;
        unsigned char *flags = keep ? leaving + p : 0;
        if (todo < REPRO_RB || advance_lanes_@SUF@(
                (const @REAL@ *const *)arrays, arrays + 6, strides, shape,
                geom, ndim, order, REPRO_RB, vay, pos + p * ndim,
                mom + 3 * p, weights + p, k, kq, hq, clight, clight * dt,
                wrap, keep, flags, pos_new + p * ndim, mom_new + 3 * p) >= 0) {
            i64 bad = advance_scalar_@SUF@(arrays, strides, shape, geom,
                ndim, order, todo, vay, pos + p * ndim, mom + 3 * p,
                weights + p, charge, dt, kq, hq, clight, wrap, keep, flags,
                pos_new + p * ndim, mom_new + 3 * p, bad_axis);
            if (bad >= 0) return p + bad;
        }
        p += todo;
    }
    return -1;
}

/* Dispatch on (ndim, order) so the blocked body is compiled with both as
   literals.  Only that is specialised: the pusher stays a run-time
   branch (hoisted out of its lane loop), and the scalar loop and the
   standalone entries stay generic (measured: no gain, and every further
   instantiation is paid in build time). */
i64 advance_@SUF@(@REAL@ *const *arrays, const i64 *strides,
    const i64 *shape, const double *geom, int ndim, int order, i64 n,
    int vay, const double *pos, const double *mom, const double *weights,
    double charge, double dt, double kq, double hq, double clight,
    const double *wrap, const double *keep, unsigned char *leaving,
    double *pos_new, double *mom_new, int *bad_axis) {
    /* arrays = {Ex, Ey, Ez, Bx, By, Bz, Jx, Jy, Jz}, strides = {the
       fields' [3], the currents' [3]} */
#define REPRO_CASE(D, O) case 4 * D + O: return advance_body_@SUF@( \
        arrays, strides, shape, geom, D, O, n, vay, pos, mom, weights, \
        charge, dt, kq, hq, clight, wrap, keep, leaving, pos_new, mom_new, \
        bad_axis)
    switch (4 * ndim + order) {
        REPRO_CASE(1, 1); REPRO_CASE(1, 2); REPRO_CASE(1, 3);
        REPRO_CASE(2, 1); REPRO_CASE(2, 2); REPRO_CASE(2, 3);
        REPRO_CASE(3, 1); REPRO_CASE(3, 2); REPRO_CASE(3, 3);
    }
#undef REPRO_CASE
    return -1;  /* unreachable: CBackend.call admits orders 1-3 only */
}
"""


def c_source() -> str:
    """The particle kernels' part of the library source (double + float
    variants); :func:`repro.native.c_source` appends the field entries."""
    stagger = ", ".join(
        "{%d, %d, %d}" % STAGGER[comp] for comp in FIELD_COMPONENTS
    )
    parts = [
        _C_HEADER.replace("@STAGGER@", stagger).replace("@LANES@", str(LANES))
    ]
    for real, suf in (("double", "f64"), ("float", "f32")):
        parts.append(_C_KERNELS.replace("@REAL@", real).replace("@SUF@", suf))
    return "".join(parts)


def _f64(arr: np.ndarray) -> np.ndarray:  # repro: allow(PIC007)
    """Particle-side arrays cross the ctypes boundary as contiguous DP."""
    return np.ascontiguousarray(arr, dtype=np.float64)


class CBackend:
    """ctypes driver of the generated-C kernels (f64 + f32 symbols)."""

    name = "c"

    def __init__(self, lib: ctypes.CDLL, build: str) -> None:
        #: what `native.compile_library` built (lanes and flags), for the status
        self.build = build
        vp, ci, c64, cd = (
            ctypes.c_void_p, ctypes.c_int, ctypes.c_int64, ctypes.c_double,
        )
        # every kernel: (table of field arrays, strides, shape, geom,
        # ndim, order, n), its own arguments, the bad_axis out-parameter
        common = [vp, vp, vp, vp, ci, ci, c64]
        signatures = {
            "gather": [vp, vp, vp],
            "advance": [ci, vp, vp, vp, cd, cd, cd, cd, cd, vp, vp, vp, vp,
                        vp],
            "deposit_esirkepov": [ci, vp, vp, vp, vp, cd, cd],
        }
        # the per-particle loop `advance` hands refused blocks and its tail
        # to, exported so that tests can hold the blocked entry against it
        signatures["advance_scalar"] = signatures["advance"]
        self._fn = {}
        for kernel, argtypes in signatures.items():
            for suf, itemsize in (("f64", 8), ("f32", 4)):
                fn = getattr(lib, f"{kernel}_{suf}")
                fn.argtypes = common + argtypes + [vp]
                fn.restype = c64
                self._fn[kernel, itemsize] = fn

    def call(self, kernel: str, grid: YeeGrid, fields, order: int,  # repro: allow(PIC007)
             n: int, *args) -> None:
        """Run ``kernel`` over ``n`` particles on ``fields``, a dict
        ``{component: array}`` of arrays of ``grid``'s geometry.

        The kernels index the arrays through element strides (rows, the
        last axis, contiguous) and check every stencil against the
        extents; an out-of-range one comes back as a particle index and
        is raised as SAN005.  The strides come per group of arrays, three
        entries each: the fused pass's six fields, then its three
        currents; a standalone entry's one group.  Every array must have
        its group's strides and the first array's shape and dtype, else
        ConfigurationError names it.
        """
        names, arrays = list(fields), list(fields.values())
        sample = arrays[0]
        ndim = grid.ndim
        cuts = (0, 6, 9) if kernel.startswith("advance") else (0, len(arrays))
        strides = []
        for lo, hi in zip(cuts, cuts[1:]):
            head = (sample.shape, sample.dtype, arrays[lo].strides)
            for name, arr in zip(names[lo:hi], arrays[lo:hi]):
                if (arr.shape, arr.dtype, arr.strides) != head:
                    raise ConfigurationError(
                        f"compiled {kernel}: {name} (shape, dtype, strides "
                        f"{(arr.shape, arr.dtype, arr.strides)}) is not laid "
                        f"out like {names[lo]} {head}"
                    )
            strides.append([s // sample.itemsize for s in head[2]])
        if order not in (1, 2, 3) or any(st[-1] != 1 for st in strides):
            raise ConfigurationError(
                f"compiled {kernel} needs shape order 1-3 and C-contiguous "
                f"field rows (order {order}, strides {strides})"
            )
        flat = [s for st in strides for s in st + [0] * (3 - ndim)]
        # {lo[3], dx[3], guards}: particle position -> lattice coordinate
        pad = (1.0,) * (3 - ndim)
        geom = (ctypes.c_double * 7)(
            *grid.lo, *pad, *grid.dx, *pad, grid.guards
        )
        bad_axis = ctypes.c_int(-1)
        table = (ctypes.c_void_p * len(arrays))(*map(_ptr, arrays))
        p = self._fn[kernel, sample.dtype.itemsize](
            table, (ctypes.c_int64 * len(flat))(*flat),
            (ctypes.c_int64 * ndim)(*sample.shape), geom,
            ndim, order, n, *args, ctypes.byref(bad_axis),
        )
        if p >= 0:
            axis = bad_axis.value
            raise SanitizerError(
                f"SAN005: stencil of particle {p} out of range in compiled "
                f"{kernel} for {'/'.join(fields)} on axis {axis} (array "
                f"extent {sample.shape[axis]}); the kernel stopped before "
                "addressing memory outside the padded field array"
            )


# =========================================================================
# the compiled KernelSet: python wrappers around the backend
# =========================================================================

def run_advance(  # repro: allow(PIC007)
    backend: CBackend,
    entry: str,
    grid: YeeGrid,
    positions: np.ndarray,
    momenta: np.ndarray,
    weights: np.ndarray,
    charge: float,
    mass: float,
    dt: float,
    order: int = 1,
    pusher: str = "boris",
    periodic=None,
    deposit_grid: Optional[YeeGrid] = None,
    keep=None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """The fused pass (module docstring); needs ``c dt < min(dx)``.

    ``entry`` is ``"advance"`` (blocks of :data:`LANES` particles; the
    kernel set's slot) or ``"advance_scalar"`` (one particle at a time; the
    loop the blocked entry falls back to and is tested against).

    The fields are gathered from ``grid`` and the current lands in the
    ``J`` of ``deposit_grid`` (default ``grid``), which must have
    ``grid``'s shape, dtype and placement: an MR patch gathers from its
    auxiliary grid and deposits on its fine one.  ``periodic`` is ``(lo,
    hi, axes)`` as ``wrap_positions_periodic`` takes them.  ``keep =
    (lo, hi)`` is a box: a particle whose new position is not in
    ``[lo, hi)`` on every axis (the comparisons of
    :meth:`~repro.core.mr_level.MRPatch.contains`) deposits nothing.

    Returns ``(positions, momenta, leaving)`` in fresh arrays, ``leaving``
    the boolean mask of the particles that left the keep box (None
    without one) — the inputs are not modified, so on an error the
    species stands.
    """
    if pusher not in PUSHERS:
        raise ConfigurationError(f"unknown pusher {pusher!r}")
    target = grid if deposit_grid is None else deposit_grid
    if target is not grid and (target.shape, target.dtype, target.lo,
                               target.dx) != (grid.shape, grid.dtype,
                                              grid.lo, grid.dx):
        raise ConfigurationError(
            f"the deposit grid ({target.shape}, {target.dtype}, lo "
            f"{target.lo}) is not laid out like the gather grid "
            f"({grid.shape}, {grid.dtype}, lo {grid.lo})"
        )
    pos, mom, weights = _f64(positions), _f64(momenta), _f64(weights)
    pos_new, mom_new = np.empty_like(pos), np.empty_like(mom)
    # {lo[3], length[3]}; length 0: the axis is not periodic
    wrap = np.zeros(6, dtype=np.float64)
    if periodic is not None:
        lo, hi, axes = periodic
        for d in axes:
            wrap[d], wrap[3 + d] = lo[d], hi[d] - lo[d]
    box = leaving = None
    if keep is not None:
        box = np.zeros(6, dtype=np.float64)
        box[: grid.ndim], box[3 : 3 + grid.ndim] = keep
        leaving = np.zeros(pos.shape[0], dtype=np.bool_)
    fields = {comp: grid.fields[comp] for comp in FIELD_COMPONENTS}
    fields.update((comp, target.fields[comp]) for comp in ("Jx", "Jy", "Jz"))
    backend.call(
        entry, grid, fields, order,
        pos.shape[0], int(pusher == "vay"), _ptr(pos), _ptr(mom),
        _ptr(weights), charge, float(dt),
        charge * dt / (2.0 * mass * c), charge * dt / (2.0 * mass), c,
        _ptr(wrap), None if box is None else _ptr(box),
        None if leaving is None else _ptr(leaving), _ptr(pos_new),
        _ptr(mom_new),
    )
    return pos_new, mom_new, leaving


def _gather(backend: CBackend, grid: YeeGrid, positions: np.ndarray,  # repro: allow(PIC007)
            order: int = 1) -> Tuple[np.ndarray, np.ndarray]:
    pos = _f64(positions)
    n = pos.shape[0]
    # gather output is always double — particle-side quantities stay
    # DP under the mixed-precision policy even when the field storage
    # being read is float32
    e_out = np.empty((n, 3), dtype=np.float64)
    b_out = np.empty((n, 3), dtype=np.float64)
    backend.call(
        "gather", grid, {comp: grid.fields[comp] for comp in FIELD_COMPONENTS},
        order, n,
        _ptr(pos), _ptr(e_out), _ptr(b_out),
    )
    return e_out, b_out


def _deposit_current(
    backend: CBackend,
    grid: YeeGrid,
    positions_old: np.ndarray,
    positions_new: np.ndarray,
    velocities: np.ndarray,
    weights: np.ndarray,
    charge: float,
    dt: float,
    order: int = 1,
) -> None:
    """Size the window from the actual displacement [cells], deposit."""
    if positions_old.shape[0] == 0:
        return
    K = sized_esirkepov_window(
        grid, positions_old, positions_new, order,
        "compiled deposit_esirkepov",
    )
    if K > KMAX:
        # windows this wide (deep-MR subcycled displacements) are not
        # worth native stack buffers; the vectorized kernel handles
        # them with identical mathematics
        deposit_current_esirkepov(
            grid, positions_old, positions_new, velocities, weights,
            charge, dt, order,
        )
        return
    pos_old, pos_new = _f64(positions_old), _f64(positions_new)
    vel, weights = _f64(velocities), _f64(weights)
    backend.call(
        "deposit_esirkepov", grid,
        {comp: grid.fields[comp] for comp in ("Jx", "Jy", "Jz")}, order,
        pos_old.shape[0], K, _ptr(pos_old), _ptr(pos_new), _ptr(vel),
        _ptr(weights), charge, float(dt),
    )


def build_kernel_tier():
    """The compiled tier's ``KernelSet`` on this process's
    :func:`repro.native.library`, or the reason there is none.

    :mod:`repro.particles.kernels` stores the result under ``"compiled"``
    when it is imported: a string is what :func:`~repro.particles.kernels.
    kernel_tier_status` reports and ``kernels="compiled"`` falls back to
    ``vectorized`` with.
    """
    from repro.particles.kernels import KernelSet

    built = native.library()
    if isinstance(built, str):
        return built
    backend = CBackend(*built)
    return KernelSet(
        name="compiled",
        gather=functools.partial(_gather, backend),
        deposit_current=functools.partial(_deposit_current, backend),
        advance=functools.partial(run_advance, backend, "advance"),
        backend=f"{backend.name}; {backend.build}",
    )
