"""The compiled kernel tier: generated C driven through ctypes.

The paper's headline FOM comes from hand-tuned gather/deposit inner
loops; the WarpX GPU port (arXiv:2101.12149) showed that the winning
recipe is *same kernel semantics, new backend behind a dispatch seam,
cross-validated against the reference* — and that the largest single
win is one streamed pass that keeps a particle's fields and momentum in
registers.  This module is that recipe for the Python reproduction: the
native registry tier (``kernels="compiled"``) whose per-particle inner
loops run as native code.

There is one backend.  When a C compiler (``cc``/``gcc``/``clang``) is
on ``PATH`` the kernels below are compiled into a shared library cached
by source hash and driven through ctypes; without one (or with
``REPRO_COMPILED_BACKEND=none``) the tier is *not* registered, the
registry reports why (:func:`repro.particles.kernels.
kernel_tier_status`) and dispatch falls through to ``vectorized``.

Entry points (each emitted twice over a ``real`` typedef, for float64
and float32 field storage), all built from the same routines, each
written once — shape weights, ``gather6``, push, Esirkepov scatter:

``advance``
    the fused particle pass, one loop per particle: the nodal and
    half-shifted shape weights once per axis, all six field components
    gathered into locals as row sums, the Boris or Vay momentum update,
    the position advance, the Esirkepov deposit on the ``order + 2``
    window *reusing the nodal weights* as the old shape, and the
    periodic wrap.  Needs ``c dt < min(dx)`` (every move sub-cell), which
    :func:`repro.particles.advance.advance_particles` checks before
    taking this route.  A ``switch`` instantiates the loop with literal
    ``(ndim, order)``; nothing else is specialised (cold build 2.3x the
    all-generic one; every entry instantiated per pusher too was 9x).
``gather`` / ``deposit_nodal`` / ``deposit_esirkepov``
    the standalone slots at run-time ``(ndim, order, K)``: the
    three-phase route (mesh-refined runs, ``c dt >= dx``),
    diagnostics, cross-validation.

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
``REPRO_SANITIZE``.  ``advance`` finds it after the particles before it
have deposited: the species is untouched, ``J`` may be partial.

Numerics contract: no ``-ffast-math``, no FMA contraction, the pushers
term by term as in NumPy.  The deposit shares its factorisation
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
import hashlib
import os
import shutil
import subprocess
import tempfile
from typing import Optional, Tuple

import numpy as np

from repro.constants import c
from repro.exceptions import ConfigurationError, SanitizerError
from repro.grid.yee import FIELD_COMPONENTS, STAGGER, YeeGrid
from repro.particles.deposit import deposit_current_esirkepov, esirkepov_window
from repro.particles.pusher import PUSHERS

#: widest Esirkepov window the compiled kernels handle on-stack; larger
#: displacements (deep-MR subcycling) fall back to the vectorized kernel
KMAX = 8

#: environment override: "c", "auto" (default, same as "c") or "none"
BACKEND_ENV = "REPRO_COMPILED_BACKEND"

# =========================================================================
# generated C: the kernels over a `real` typedef, compiled once
# =========================================================================

_C_HEADER = r"""
#include <stdint.h>
#include <math.h>

typedef int64_t i64;

#define REPRO_KMAX 8
/* The pieces of the particle pass.  Forced inline: `advance` calls them
   with literal (ndim, order) and needs every stencil loop unrolled; the
   standalone entries call the same routines at their run-time values. */
#define REPRO_INLINE static inline __attribute__((always_inline))

/* stagger of Ex, Ey, Ez, Bx, By, Bz (generated from repro.grid.yee) */
static const int repro_stagger[6][3] = {@STAGGER@};

/* geom = {lo[3], dx[3], guards}: nodal lattice coordinate along axis d */
static inline double repro_lattice(double x, const double *geom, int d) {
    return (x - geom[d]) / geom[3 + d] + geom[6];
}

/* Does [base, base + width) fit in [0, extent)?  `base` is still a float:
   NaN, inf and values beyond the integer range all answer no. */
static inline int repro_in_range(double base, int width, i64 extent) {
    return base >= 0.0 && base <= (double)(extent - width);
}

/* floor(x) without libm: for 0 <= x < extent the truncating cast is an
   exact floor.  Every stencil that fits the array lies in that range;
   outside it (NaN included) nothing is cast and 0 is returned. */
static inline int repro_floor(double x, i64 extent, double *fl) {
    if (!(x >= 0.0 && x < (double)extent)) return 0;
    *fl = (double)(i64)x;
    return 1;
}

/* Weights and first point of the order+1 stencil around lattice
   coordinate x; returns 0 (nothing cast, *base untouched) when the
   stencil leaves the array. */
REPRO_INLINE int repro_shape_weights(double x, int order, i64 extent,
                                     i64 *base, double *w) {
    double b;
    if (order == 1) {
        if (!repro_floor(x, extent, &b)) return 0;
        double f = x - b;
        w[0] = 1.0 - f; w[1] = f;
    } else if (order == 2) {
        double nearest;
        if (!repro_floor(x + 0.5, extent, &nearest)) return 0;
        double d = x - nearest;
        w[0] = 0.5 * (0.5 - d) * (0.5 - d);
        w[1] = 0.75 - d * d;
        w[2] = 0.5 * (0.5 + d) * (0.5 + d);
        b = nearest - 1.0;
    } else {
        double cell;
        if (!repro_floor(x, extent, &cell)) return 0;
        double f = x - cell;
        double omf = 1.0 - f;
        w[0] = omf * omf * omf / 6.0;
        w[1] = (3.0 * f * f * f - 6.0 * f * f + 4.0) / 6.0;
        w[2] = (-3.0 * f * f * f + 3.0 * f * f + 3.0 * f + 1.0) / 6.0;
        w[3] = f * f * f / 6.0;
        b = cell - 1.0;
    }
    if (!repro_in_range(b, order + 1, extent)) return 0;
    *base = (i64)b;
    return 1;
}

/* One particle's gather stencils per axis: lattice coordinate, then first
   point and weights of the nodal [0] and half-cell-shifted [1] stencil. */
typedef struct {
    double x[3];
    i64 i0[2][3];
    double w[2][3][4];
} repro_stencils;

/* Returns the axis whose stencil leaves the array, or -1. */
REPRO_INLINE int repro_stencils_at(const double *pos, const double *geom,
    const i64 *shape, int ndim, int order, repro_stencils *s) {
    for (int d = 0; d < ndim; ++d) {
        double xl = s->x[d] = repro_lattice(pos[d], geom, d);
        if (!repro_shape_weights(xl, order, shape[d], &s->i0[0][d], s->w[0][d])
            || !repro_shape_weights(xl - 0.5, order, shape[d],
                                    &s->i0[1][d], s->w[1][d]))
            return d;
    }
    return -1;
}

/* Momentum update u -> un, operation order of push_boris / push_vay term
   by term; kq = q dt / (2 m c), hq = q dt / (2 m).  Returns gamma(un).
   Not inlined: nothing in it depends on (ndim, order), and one copy
   instead of one per `advance` instantiation is 10 % of the build. */
static __attribute__((noinline)) double repro_push(int vay,
    const double *u, const double *e, const double *b, double kq, double hq,
    double clight, double *un) {
    if (!vay) {
        double um[3], t[3], s[3], up[3];
        for (int j = 0; j < 3; ++j) um[j] = u[j] + kq * e[j];
        double gm = sqrt(1.0 + (um[0] * um[0] + um[1] * um[1]
                                + um[2] * um[2]));
        for (int j = 0; j < 3; ++j) t[j] = hq * b[j] / gm;
        double t2 = t[0] * t[0] + t[1] * t[1] + t[2] * t[2];
        for (int j = 0; j < 3; ++j) s[j] = 2.0 * t[j] / (1.0 + t2);
        up[0] = um[0] + (um[1] * t[2] - um[2] * t[1]);
        up[1] = um[1] + (um[2] * t[0] - um[0] * t[2]);
        up[2] = um[2] + (um[0] * t[1] - um[1] * t[0]);
        un[0] = um[0] + (up[1] * s[2] - up[2] * s[1]) + kq * e[0];
        un[1] = um[1] + (up[2] * s[0] - up[0] * s[2]) + kq * e[1];
        un[2] = um[2] + (up[0] * s[1] - up[1] * s[0]) + kq * e[2];
    } else {
        double v[3], up[3], tau[3], tv[3];
        double gn = sqrt(1.0 + (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]));
        for (int j = 0; j < 3; ++j) v[j] = u[j] * (clight / gn);
        up[0] = u[0] + kq * (e[0] + (v[1] * b[2] - v[2] * b[1])) + kq * e[0];
        up[1] = u[1] + kq * (e[1] + (v[2] * b[0] - v[0] * b[2])) + kq * e[1];
        up[2] = u[2] + kq * (e[2] + (v[0] * b[1] - v[1] * b[0])) + kq * e[2];
        for (int j = 0; j < 3; ++j) tau[j] = hq * b[j];
        double tau2 = tau[0] * tau[0] + tau[1] * tau[1] + tau[2] * tau[2];
        double ustar = up[0] * tau[0] + up[1] * tau[1] + up[2] * tau[2];
        double gp2 = 1.0 + (up[0] * up[0] + up[1] * up[1] + up[2] * up[2]);
        double sigma = gp2 - tau2;
        double gnew = sqrt(0.5 * (sigma + sqrt(sigma * sigma
                           + 4.0 * (tau2 + ustar * ustar))));
        for (int j = 0; j < 3; ++j) tv[j] = tau[j] / gnew;
        double sfac = 1.0 / (1.0 + (tv[0] * tv[0] + tv[1] * tv[1]
                                    + tv[2] * tv[2]));
        double dot = up[0] * tv[0] + up[1] * tv[1] + up[2] * tv[2];
        un[0] = sfac * (up[0] + dot * tv[0] + (up[1] * tv[2] - up[2] * tv[1]));
        un[1] = sfac * (up[1] + dot * tv[1] + (up[2] * tv[0] - up[0] * tv[2]));
        un[2] = sfac * (up[2] + dot * tv[2] + (up[0] * tv[1] - up[1] * tv[0]));
    }
    return sqrt(1.0 + (un[0] * un[0] + un[1] * un[1] + un[2] * un[2]));
}

/* One axis of the Esirkepov window for the move a -> b (lattice
   coordinates): its first point (the tight order+2 window of an odd
   order is centred on round(xm), see deposit._esirkepov_shapes), the old
   shape s0 and ds = new - old over its K points.  A shape *is* the
   closed-form weight vector placed at (its first point - base), zero
   elsewhere; w_old / i_old are the nodal weights the caller already has.
   Returns 0 when the window leaves the array or a stencil the window. */
REPRO_INLINE int repro_esirkepov_axis(double a, double b,
    const double *w_old, i64 i_old, int order, int K, i64 extent,
    i64 *base, double *s0, double *ds) {
    double xm = 0.5 * (a + b), first, w_new[4];
    i64 i_new;
    if (!repro_floor((K == order + 2 && (order & 1)) ? xm + 0.5 : xm,
                     extent, &first))
        return 0;
    first -= (K - 1) / 2;
    if (!repro_in_range(first, K, extent)
        || !repro_shape_weights(b, order, extent, &i_new, w_new))
        return 0;
    *base = (i64)first;
    i64 off0 = i_old - *base, off1 = i_new - *base;
    if (off0 < 0 || off0 + order >= K || off1 < 0 || off1 + order >= K)
        return 0;
    for (int k = 0; k < K; ++k) {
        i64 m0 = k - off0, m1 = k - off1;
        s0[k] = (m0 >= 0 && m0 <= order) ? w_old[m0] : 0.0;
        ds[k] = ((m1 >= 0 && m1 <= order) ? w_new[m1] : 0.0) - s0[k];
    }
    return 1;
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
"""

# Every kernel returns -1, or the index of the first particle whose
# stencil leaves the array with the offending axis in *bad_axis.  Rows
# (the last axis) are contiguous: CBackend.call checks it.
_C_KERNELS = r"""
/* All six field components at one particle, f = {Ex, Ey, Ez, Bx, By, Bz}:
   each picks per axis the nodal or the shifted stencil by its stagger
   and is summed row by row along the contiguous last axis. */
REPRO_INLINE void gather6_@SUF@(const @REAL@ *const *fields,
    const i64 *strides, int ndim, int order, const repro_stencils *s,
    double *f) {
    const int K = order + 1;
    for (int c = 0; c < 6; ++c) {
        const int *sg = repro_stagger[c];
        const double *w0 = s->w[sg[0]][0], *w1 = s->w[sg[1]][1],
                     *w2 = s->w[sg[2]][2];
        const @REAL@ *first = fields[c] + s->i0[sg[0]][0] * strides[0];
        double acc = 0.0;
        if (ndim == 3) {
            first += s->i0[sg[1]][1] * strides[1] + s->i0[sg[2]][2];
            for (int i = 0; i < K; ++i) {
                double plane = 0.0;
                for (int j = 0; j < K; ++j) {
                    const @REAL@ *row = first + i * strides[0] + j * strides[1];
                    double sum = 0.0;
                    for (int k = 0; k < K; ++k) sum += w2[k] * (double)row[k];
                    plane += w1[j] * sum;
                }
                acc += w0[i] * plane;
            }
        } else if (ndim == 2) {
            first += s->i0[sg[1]][1];
            for (int i = 0; i < K; ++i) {
                const @REAL@ *row = first + i * strides[0];
                double sum = 0.0;
                for (int j = 0; j < K; ++j) sum += w1[j] * (double)row[j];
                acc += w0[i] * sum;
            }
        } else {
            for (int i = 0; i < K; ++i) acc += w0[i] * (double)first[i];
        }
        f[c] = acc;
    }
}

/* Esirkepov currents of one particle of charge weight qw over its
   K-point window: one pass over the window rows, all three components
   per cell.  Per axis cum = k * cumsum(DS), T = S0 + DS/2 and
   U = S0/2 + DS/3; the time-averaged shape product of two axes factors
   as S0a Tb + DSa Ub, so nothing but K-vectors is prepared per particle
   (3D: one K x K table).  vel supplies the invariant-axis velocities. */
REPRO_INLINE void esirkepov_scatter_@SUF@(@REAL@ *const *jxyz,
    const i64 *strides, int ndim, int K, const i64 *base,
    double s0[3][REPRO_KMAX], double ds[3][REPRO_KMAX], const double *k,
    double qw, const double *vel) {
    double cum[3][REPRO_KMAX], t[3][REPRO_KMAX], u[3][REPRO_KMAX];
    for (int d = 0; d < ndim; ++d) {
        double acc = 0.0;
        for (int i = 0; i < K; ++i) {
            acc += ds[d][i];
            cum[d][i] = k[d] * qw * acc;
            t[d][i] = s0[d][i] + 0.5 * ds[d][i];
            if (d) u[d][i] = 0.5 * s0[d][i] + ds[d][i] / 3.0;  /* U0: unused */
        }
    }
    i64 first = base[0] * strides[0];
    if (ndim == 3) {
        double wyz[REPRO_KMAX][REPRO_KMAX];
        first += base[1] * strides[1] + base[2];
        for (int j = 0; j < K; ++j)
            for (int l = 0; l < K; ++l)
                wyz[j][l] = s0[1][j] * t[2][l] + ds[1][j] * u[2][l];
        for (int i = 0; i < K; ++i) {
            double wxz[REPRO_KMAX];
            for (int l = 0; l < K; ++l)
                wxz[l] = s0[0][i] * t[2][l] + ds[0][i] * u[2][l];
            for (int j = 0; j < K; ++j) {
                i64 row = first + i * strides[0] + j * strides[1];
                @REAL@ *jx = jxyz[0] + row;
                @REAL@ *jy = jxyz[1] + row;
                @REAL@ *jz = jxyz[2] + row;
                double wxy = s0[0][i] * t[1][j] + ds[0][i] * u[1][j];
                for (int l = 0; l < K; ++l) {
                    jx[l] += (@REAL@)(cum[0][i] * wyz[j][l]);
                    jy[l] += (@REAL@)(cum[1][j] * wxz[l]);
                    jz[l] += (@REAL@)(wxy * cum[2][l]);
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
            double zs = cz * s0[0][i], zd = cz * ds[0][i];
            for (int j = 0; j < K; ++j) {
                jx[j] += (@REAL@)(cum[0][i] * t[1][j]);
                jy[j] += (@REAL@)(t[0][i] * cum[1][j]);
                jz[j] += (@REAL@)(zs * t[1][j] + zd * u[1][j]);
            }
        }
    } else {
        double cy = k[1] * qw * vel[1], cz = k[2] * qw * vel[2];
        for (int i = 0; i < K; ++i) {
            jxyz[0][first + i] += (@REAL@)cum[0][i];
            jxyz[1][first + i] += (@REAL@)(cy * t[0][i]);
            jxyz[2][first + i] += (@REAL@)(cz * t[0][i]);
        }
    }
}

/* e_out, b_out: (n, 3) */
i64 gather_@SUF@(const @REAL@ *const *fields, const i64 *strides,
    const i64 *shape, const double *geom, int ndim, int order, i64 n,
    const double *pos, double *e_out, double *b_out, int *bad_axis) {
    for (i64 p = 0; p < n; ++p) {
        repro_stencils s;
        double f[6];
        *bad_axis = repro_stencils_at(pos + p * ndim, geom, shape, ndim,
                                      order, &s);
        if (*bad_axis >= 0) return p;
        gather6_@SUF@(fields, strides, ndim, order, &s, f);
        for (int j = 0; j < 3; ++j) {
            e_out[3 * p + j] = f[j];
            b_out[3 * p + j] = f[3 + j];
        }
    }
    return -1;
}

/* `shift`: the component's half-cell stagger per axis (0.0 or 0.5) */
i64 deposit_nodal_@SUF@(@REAL@ *const *target, const i64 *strides,
    const i64 *shape, const double *geom, int ndim, int order, i64 n,
    const double *pos, const double *shift, const double *vals,
    int *bad_axis) {
    @REAL@ *field = target[0];
    int K = order + 1;
    for (i64 p = 0; p < n; ++p) {
        i64 i0[3] = {0, 0, 0};
        double w[3][4];
        for (int d = 0; d < ndim; ++d) {
            double x = repro_lattice(pos[p * ndim + d], geom, d) - shift[d];
            if (!repro_shape_weights(x, order, shape[d], &i0[d], w[d])) {
                *bad_axis = d;
                return p;
            }
        }
        double v = vals[p];
        if (ndim == 3) {
            for (int a = 0; a < K; ++a) {
                i64 base_a = (i0[0] + a) * strides[0];
                for (int b = 0; b < K; ++b) {
                    i64 base_b = base_a + (i0[1] + b) * strides[1];
                    double vab = v * w[0][a] * w[1][b];
                    for (int c = 0; c < K; ++c)
                        field[base_b + (i0[2] + c) * strides[2]]
                            += (@REAL@)(vab * w[2][c]);
                }
            }
        } else if (ndim == 2) {
            for (int a = 0; a < K; ++a) {
                i64 base_a = (i0[0] + a) * strides[0];
                double va = v * w[0][a];
                for (int b = 0; b < K; ++b)
                    field[base_a + (i0[1] + b) * strides[1]]
                        += (@REAL@)(va * w[1][b]);
            }
        } else {
            for (int a = 0; a < K; ++a)
                field[(i0[0] + a) * strides[0]] += (@REAL@)(v * w[0][a]);
        }
    }
    return -1;
}

/* The standalone Esirkepov deposit over a K-point window sized by the
   caller from the actual displacement (three-phase route). */
i64 deposit_esirkepov_@SUF@(@REAL@ *const *jxyz, const i64 *strides,
    const i64 *shape, const double *geom, int ndim, int order, i64 n, int K,
    const double *pos_old, const double *pos_new, const double *vel,
    const double *weights, double charge, double dt, int *bad_axis) {
    double k[3], s0[3][REPRO_KMAX], ds[3][REPRO_KMAX];
    i64 base[3] = {0, 0, 0};
    repro_current_factors(ndim, charge, dt, geom + 3, k);
    for (i64 p = 0; p < n; ++p) {
        for (int d = 0; d < ndim; ++d) {
            double a = repro_lattice(pos_old[p * ndim + d], geom, d);
            double b = repro_lattice(pos_new[p * ndim + d], geom, d);
            double w_old[4];
            i64 i_old;
            if (!repro_shape_weights(a, order, shape[d], &i_old, w_old)
                || !repro_esirkepov_axis(a, b, w_old, i_old, order, K,
                                         shape[d], &base[d], s0[d], ds[d])) {
                *bad_axis = d;
                return p;
            }
        }
        esirkepov_scatter_@SUF@(jxyz, strides, ndim, K, base, s0, ds, k,
                                weights[p], vel + 3 * p);
    }
    return -1;
}

/* The fused particle pass, one loop per particle: stencils -> gather6 ->
   Boris/Vay -> position -> Esirkepov deposit on the order+2 window ->
   periodic wrap.  The window width is a precondition, c dt < min(dx)
   (advance_particles checks it): every move is then sub-cell, so the
   old shape is the nodal gather stencil at offset 0 or 1 in the window
   and no shape function is evaluated twice.  A move that breaks it is
   reported like a stray particle, never truncated.  wrap = {lo[3],
   length[3]}, length 0 on a non-periodic axis. */
REPRO_INLINE i64 advance_body_@SUF@(const @REAL@ *const *fields,
    @REAL@ *const *jxyz, const i64 *strides, const i64 *shape,
    const double *geom, int ndim, int order, i64 n, int vay,
    const double *pos, const double *mom, const double *weights,
    double charge, double dt, double kq, double hq, double clight,
    const double *wrap, double *pos_new, double *mom_new, int *bad_axis) {
    const int K = order + 2;
    double k[3], s0[3][REPRO_KMAX], ds[3][REPRO_KMAX];
    i64 base[3] = {0, 0, 0};
    repro_current_factors(ndim, charge, dt, geom + 3, k);
    for (i64 p = 0; p < n; ++p) {
        repro_stencils s;
        double f[6], un[3], vel[3], x_new[3];
        const double *x = pos + p * ndim;
        *bad_axis = repro_stencils_at(x, geom, shape, ndim, order, &s);
        if (*bad_axis >= 0) return p;
        gather6_@SUF@(fields, strides, ndim, order, &s, f);
        double gamma = repro_push(vay, mom + 3 * p, f, f + 3, kq, hq, clight,
                                  un);
        for (int d = 0; d < ndim; ++d) {
            x_new[d] = x[d] + (un[d] / gamma) * (clight * dt);
            if (!repro_esirkepov_axis(s.x[d], repro_lattice(x_new[d], geom, d),
                                      s.w[0][d], s.i0[0][d], order, K,
                                      shape[d], &base[d], s0[d], ds[d])) {
                *bad_axis = d;
                return p;
            }
        }
        for (int j = 0; j < 3; ++j) vel[j] = un[j] * (clight / gamma);
        esirkepov_scatter_@SUF@(jxyz, strides, ndim, K, base, s0, ds, k,
                                weights[p], vel);
        for (int j = 0; j < 3; ++j) mom_new[3 * p + j] = un[j];
        for (int d = 0; d < ndim; ++d)
            pos_new[p * ndim + d] = wrap[3 + d] > 0.0
                ? repro_wrap(x_new[d], wrap[d], wrap[3 + d]) : x_new[d];
    }
    return -1;
}

/* Dispatch on (ndim, order) so the body is compiled with both as
   literals.  Only that is specialised: the pusher stays a run-time
   branch and the standalone entries stay generic (measured: no gain,
   and every further instantiation is paid in build time). */
i64 advance_@SUF@(@REAL@ *const *arrays, const i64 *strides,
    const i64 *shape, const double *geom, int ndim, int order, i64 n,
    int vay, const double *pos, const double *mom, const double *weights,
    double charge, double dt, double kq, double hq, double clight,
    const double *wrap, double *pos_new, double *mom_new, int *bad_axis) {
    /* arrays = {Ex, Ey, Ez, Bx, By, Bz, Jx, Jy, Jz} */
#define REPRO_CASE(D, O) case 4 * D + O: return advance_body_@SUF@( \
        (const @REAL@ *const *)arrays, arrays + 6, strides, shape, geom, \
        D, O, n, vay, pos, mom, weights, charge, dt, kq, hq, clight, wrap, \
        pos_new, mom_new, bad_axis)
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
    """The full generated C translation unit (double + float variants)."""
    stagger = ", ".join(
        "{%d, %d, %d}" % STAGGER[comp] for comp in FIELD_COMPONENTS
    )
    parts = [_C_HEADER.replace("@STAGGER@", stagger)]
    for real, suf in (("double", "f64"), ("float", "f32")):
        parts.append(_C_KERNELS.replace("@REAL@", real).replace("@SUF@", suf))
    return "".join(parts)


def find_c_compiler() -> Optional[str]:
    """Path of the first of cc/gcc/clang on PATH, or None."""
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path:
            return path
    return None


def _cache_dir() -> str:
    uid = getattr(os, "getuid", lambda: 0)()
    return os.path.join(tempfile.gettempdir(), f"repro-kernels-{uid}")


#: -ffp-contract=off: on targets with FMA in the baseline ISA the compiler
#: would otherwise fuse a*b+c and break the same-rounding-as-NumPy contract
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")


def compile_c_library(compiler: str) -> ctypes.CDLL:
    """Compile (or reuse a cached build of) the generated kernels."""
    src = c_source()
    digest = hashlib.sha256(
        (src + " ".join(_CFLAGS)).encode("utf8")
    ).hexdigest()[:16]
    cache = _cache_dir()
    os.makedirs(cache, exist_ok=True)
    lib_path = os.path.join(cache, f"kernels-{digest}.so")
    if not os.path.exists(lib_path):
        src_path = os.path.join(cache, f"kernels-{digest}.c")
        with open(src_path, "w", encoding="utf8") as fh:
            fh.write(src)
        tmp_path = f"{lib_path}.{os.getpid()}.tmp"
        cmd = [compiler, *_CFLAGS, "-o", tmp_path, src_path]
        proc = subprocess.run(
            cmd, capture_output=True, text=True, timeout=120
        )
        if proc.returncode != 0:
            raise ConfigurationError(
                f"C kernel build failed ({' '.join(cmd)}): "
                f"{proc.stderr.strip()[:500]}"
            )
        os.replace(tmp_path, lib_path)  # atomic vs concurrent builders
    return ctypes.CDLL(lib_path)


def _ptr(arr: np.ndarray) -> ctypes.c_void_p:
    return arr.ctypes.data_as(ctypes.c_void_p)


def _f64(arr: np.ndarray) -> np.ndarray:  # repro: allow(PIC007)
    """Particle-side arrays cross the ctypes boundary as contiguous DP."""
    return np.ascontiguousarray(arr, dtype=np.float64)


class CBackend:
    """ctypes driver of the generated-C kernels (f64 + f32 symbols)."""

    name = "c"

    def __init__(self, lib: ctypes.CDLL) -> None:
        vp, ci, c64, cd = (
            ctypes.c_void_p, ctypes.c_int, ctypes.c_int64, ctypes.c_double,
        )
        # every kernel: (table of field arrays, strides, shape, geom,
        # ndim, order, n), its own arguments, the bad_axis out-parameter
        common = [vp, vp, vp, vp, ci, ci, c64]
        signatures = {
            "gather": [vp, vp, vp],
            "deposit_nodal": [vp, vp, vp],
            "advance": [ci, vp, vp, vp, cd, cd, cd, cd, cd, vp, vp, vp],
            "deposit_esirkepov": [ci, vp, vp, vp, vp, cd, cd],
        }
        self._fn = {}
        for kernel, argtypes in signatures.items():
            for suf, itemsize in (("f64", 8), ("f32", 4)):
                fn = getattr(lib, f"{kernel}_{suf}")
                fn.argtypes = common + argtypes + [vp]
                fn.restype = c64
                self._fn[kernel, itemsize] = fn

    def call(self, kernel: str, grid: YeeGrid, components, order: int,  # repro: allow(PIC007)
             n: int, *args) -> None:
        """Run ``kernel`` over ``n`` particles on ``grid``'s ``components``.

        The kernels index the arrays through element strides (rows, the
        last axis, contiguous) and check every stencil against the
        extents; an out-of-range one comes back as a particle index and
        is raised as SAN005.
        """
        arrays = [grid.fields[comp] for comp in components]
        sample = arrays[0]
        strides = np.array(
            [s // sample.itemsize for s in sample.strides], dtype=np.int64
        )
        if order not in (1, 2, 3) or strides[-1] != 1:
            raise ConfigurationError(
                f"compiled {kernel} needs shape order 1-3 and C-contiguous "
                f"field rows (order {order}, strides {sample.strides})"
            )
        extents = np.array(sample.shape, dtype=np.int64)
        # {lo[3], dx[3], guards}: particle position -> lattice coordinate
        geom = np.ones(7, dtype=np.float64)
        geom[: grid.ndim] = grid.lo
        geom[3 : 3 + grid.ndim] = grid.dx
        geom[6] = grid.guards
        bad_axis = ctypes.c_int(-1)
        table = (ctypes.c_void_p * len(arrays))(*(a.ctypes.data for a in arrays))
        p = self._fn[kernel, sample.dtype.itemsize](
            table, _ptr(strides), _ptr(extents), _ptr(geom),
            grid.ndim, order, n, *args, ctypes.byref(bad_axis),
        )
        if p >= 0:
            axis = bad_axis.value
            raise SanitizerError(
                f"SAN005: stencil of particle {p} out of range in compiled "
                f"{kernel} for {'/'.join(components)} on axis {axis} (array "
                f"extent {sample.shape[axis]}); the kernel stopped before "
                "addressing memory outside the padded field array"
            )


def build_c_backend() -> Tuple[Optional[CBackend], str]:
    """(backend, detail): compile the generated C if a compiler exists."""
    compiler = find_c_compiler()
    if compiler is None:
        return None, "no C compiler (cc/gcc/clang) on PATH"
    try:
        backend = CBackend(compile_c_library(compiler))
    except Exception as exc:
        return None, f"C backend build failed: {exc}"
    return backend, f"generated C via {os.path.basename(compiler)}"


# =========================================================================
# the compiled KernelSet: python wrappers around the backend
# =========================================================================

def make_compiled_kernel_set(backend: CBackend):
    """Bundle ``backend`` into a registry-ready compiled KernelSet."""
    from repro.particles.kernels import KernelSet

    def gather(grid: YeeGrid, positions: np.ndarray, order: int = 1):  # repro: allow(PIC007)
        pos = _f64(positions)
        n = pos.shape[0]
        # gather output is always double — particle-side quantities stay
        # DP under the mixed-precision policy even when the field storage
        # being read is float32
        e_out = np.empty((n, 3), dtype=np.float64)
        b_out = np.empty((n, 3), dtype=np.float64)
        backend.call(
            "gather", grid, FIELD_COMPONENTS, order, n,
            _ptr(pos), _ptr(e_out), _ptr(b_out),
        )
        return e_out, b_out

    def _deposit_nodal(grid, positions, vals, order, target):  # repro: allow(PIC007)
        pos, vals = _f64(positions), _f64(vals)
        shift = 0.5 * np.array(STAGGER[target], dtype=np.float64)
        backend.call(
            "deposit_nodal", grid, (target,), order, pos.shape[0],
            _ptr(pos), _ptr(shift), _ptr(vals),
        )

    def deposit_charge(
        grid: YeeGrid,
        positions: np.ndarray,
        weights: np.ndarray,
        charge: float,
        order: int = 1,
        target: str = "rho",
    ) -> None:
        qw = charge * weights / float(np.prod(grid.dx))
        _deposit_nodal(grid, positions, qw, order, target)

    def deposit_current_direct(
        grid: YeeGrid,
        positions_mid: np.ndarray,
        velocities: np.ndarray,
        weights: np.ndarray,
        charge: float,
        order: int = 1,
    ) -> None:
        cell_volume = float(np.prod(grid.dx))
        for ci, comp in enumerate(("Jx", "Jy", "Jz")):
            qwv = charge * weights * velocities[:, ci] / cell_volume
            _deposit_nodal(grid, positions_mid, qwv, order, comp)

    def deposit_current(
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
        max_disp = max(
            float(
                np.max(np.abs(positions_new[:, d] - positions_old[:, d]))
            ) / grid.dx[d]
            for d in range(grid.ndim)
        )
        K = esirkepov_window(order, max_disp, tight=True)
        if K > KMAX:
            # windows this wide (deep-MR subcycled displacements) are not
            # worth native stack buffers; the vectorized kernel handles
            # them with identical mathematics
            deposit_current_esirkepov(
                grid, positions_old, positions_new, velocities, weights,
                charge, dt, order,
            )
            return
        if (K + 1) // 2 > grid.guards:
            raise ConfigurationError(
                f"particle displacement of {max_disp:.2f} cells needs a "
                f"{K}-point deposition window but only {grid.guards} guard "
                f"cells are available"
            )
        pos_old, pos_new = _f64(positions_old), _f64(positions_new)
        vel, weights = _f64(velocities), _f64(weights)
        backend.call(
            "deposit_esirkepov", grid, ("Jx", "Jy", "Jz"), order,
            pos_old.shape[0], K, _ptr(pos_old), _ptr(pos_new), _ptr(vel),
            _ptr(weights), charge, float(dt),
        )

    def advance(  # repro: allow(PIC007)
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
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The fused pass (module docstring); needs ``c dt < min(dx)``.

        ``periodic`` is ``(lo, hi, axes)`` as ``wrap_positions_periodic``
        takes them.  Returns the new ``(positions, momenta)`` in fresh
        arrays — the inputs are not modified, so on an error the species
        stands; the current lands in ``grid``'s ``J``.
        """
        if pusher not in PUSHERS:
            raise ConfigurationError(f"unknown pusher {pusher!r}")
        pos, mom, weights = _f64(positions), _f64(momenta), _f64(weights)
        pos_new, mom_new = np.empty_like(pos), np.empty_like(mom)
        # {lo[3], length[3]}; length 0: the axis is not periodic
        wrap = np.zeros(6, dtype=np.float64)
        if periodic is not None:
            lo, hi, axes = periodic
            for d in axes:
                wrap[d], wrap[3 + d] = lo[d], hi[d] - lo[d]
        backend.call(
            "advance", grid, FIELD_COMPONENTS + ("Jx", "Jy", "Jz"), order,
            pos.shape[0], int(pusher == "vay"), _ptr(pos), _ptr(mom),
            _ptr(weights), charge, float(dt),
            charge * dt / (2.0 * mass * c), charge * dt / (2.0 * mass), c,
            _ptr(wrap), _ptr(pos_new), _ptr(mom_new),
        )
        return pos_new, mom_new

    return KernelSet(
        name="compiled",
        gather=gather,
        deposit_charge=deposit_charge,
        deposit_current=deposit_current,
        deposit_current_direct=deposit_current_direct,
        advance=advance,
        backend=backend.name,
    )


def build_kernel_tier(choice: Optional[str] = None):
    """Probe for a compiler and build the compiled tier.

    Returns ``(kernel_set, detail)``; ``kernel_set`` is None when the
    backend is unusable, with ``detail`` explaining why (the string the
    registry surfaces for the unavailable tier).  ``choice`` overrides
    the ``REPRO_COMPILED_BACKEND`` environment selection.
    """
    if choice is None:
        choice = os.environ.get(BACKEND_ENV, "auto").strip().lower() or "auto"
    if choice not in ("auto", "c", "none"):
        raise ConfigurationError(
            f"unknown {BACKEND_ENV} value {choice!r}; "
            "expected auto, c or none (generated C is the only backend)"
        )
    if choice == "none":
        return None, f"disabled via {BACKEND_ENV}=none"
    backend, detail = build_c_backend()
    if backend is None:
        return None, detail
    return make_compiled_kernel_set(backend), detail


def install_compiled_tier() -> None:
    """Register the compiled tier, or mark it unavailable with the reason.

    Called from :mod:`repro.particles.kernels` at import; safe to call
    again (tests re-run it after monkeypatching the probes).
    """
    from repro.particles.kernels import (
        available_kernel_variants,
        mark_tier_unavailable,
        register_kernel_set,
    )

    if "compiled" in available_kernel_variants():
        return
    kernel_set, detail = build_kernel_tier()
    if kernel_set is not None:
        register_kernel_set(kernel_set)
    else:
        mark_tier_unavailable("compiled", detail)
