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
and float32 field storage):

``advance``
    the fused particle pass: per particle, the nodal and half-shifted
    shape weights once per axis, all six field components gathered into
    locals, the Boris or Vay momentum update, the position advance — new
    positions, momenta, velocities and the per-axis maximum displacement
    come back, and the displacement sizes the ``deposit_esirkepov`` call
    that follows on the same buffers.  No NumPy temporaries in between.
``gather`` / ``deposit_nodal`` / ``deposit_esirkepov``
    the unfused slots (mesh-refined runs, diagnostics, cross-validation).

Field reads/accumulates happen in the grid dtype; shape weights,
coordinates and every particle quantity stay double, matching the
paper's Table III "MP mode" (SP fields, DP particle ops).

Memory safety: every kernel compares each particle's stencil
``[base, base + K)`` against the array extent *as a float, before the
integer cast* (so NaN, inf and 1e9 are caught too), stops at the first
offender and the wrapper raises ``SanitizerError("SAN005 ...")`` — a
stray particle is an error, never a segfault or a silent write outside
``J``, with or without ``REPRO_SANITIZE``.

Numerics contract: no ``-ffast-math`` and no FMA contraction, same
operation order as the NumPy kernels and pushers.  On float64 grids the
compiled kernels match ``vectorized`` to machine precision (the fused
pass reproduces positions bit-identically), and the float32 variants
stay within :data:`repro.particles.kernels.FLOAT32_ERROR_BUDGET` — both
enforced by ``validate_kernel_set`` and ``check_kernel_fastpath.py``.
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

/* stagger of Ex, Ey, Ez, Bx, By, Bz (generated from repro.grid.yee) */
static const int repro_stagger[6][3] = {@STAGGER@};

static double repro_bspline(int order, double s) {
    s = fabs(s);
    if (order == 1) return s < 1.0 ? 1.0 - s : 0.0;
    if (order == 2) {
        if (s <= 0.5) return 0.75 - s * s;
        if (s < 1.5)  { double t = 1.5 - s; return 0.5 * t * t; }
        return 0.0;
    }
    if (s <= 1.0) return (4.0 - 6.0 * s * s + 3.0 * s * s * s) / 6.0;
    if (s < 2.0)  { double t = 2.0 - s; return t * t * t / 6.0; }
    return 0.0;
}

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
static inline int repro_shape_weights(double x, int order, i64 extent,
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
"""

# Every kernel returns -1, or the index of the first particle whose
# stencil leaves the array with the offending axis in *bad_axis.
_C_KERNELS = r"""
static inline double stencil_sum_@SUF@(const @REAL@ *field,
    const i64 *strides, int ndim, int K, const i64 *i0,
    const double *const *w) {
    double acc = 0.0;
    if (ndim == 3) {
        for (int a = 0; a < K; ++a) {
            i64 base_a = (i0[0] + a) * strides[0];
            for (int b = 0; b < K; ++b) {
                i64 base_b = base_a + (i0[1] + b) * strides[1];
                double wab = w[0][a] * w[1][b];
                for (int c = 0; c < K; ++c)
                    acc += wab * w[2][c]
                         * (double)field[base_b + (i0[2] + c) * strides[2]];
            }
        }
    } else if (ndim == 2) {
        for (int a = 0; a < K; ++a) {
            i64 base_a = (i0[0] + a) * strides[0];
            for (int b = 0; b < K; ++b)
                acc += w[0][a] * w[1][b]
                     * (double)field[base_a + (i0[1] + b) * strides[1]];
        }
    } else {
        for (int a = 0; a < K; ++a)
            acc += w[0][a] * (double)field[(i0[0] + a) * strides[0]];
    }
    return acc;
}

/* All six field components at one particle: the nodal and the
   half-cell-shifted shape weights are evaluated once per axis and each
   component picks per axis by its stagger.  f = {Ex, Ey, Ez, Bx, By, Bz};
   returns the offending axis, or -1. */
static inline int gather6_@SUF@(const @REAL@ *const *fields,
    const i64 *strides, const i64 *shape, int ndim, int order,
    const double *x, const double *geom, double *f) {
    /* [0]: nodal stencil, [1]: half-cell-shifted stencil */
    i64 i0[2][3] = {{0, 0, 0}, {0, 0, 0}};
    double w[2][3][4];
    for (int d = 0; d < ndim; ++d) {
        double xl = repro_lattice(x[d], geom, d);
        if (!repro_shape_weights(xl, order, shape[d], &i0[0][d], w[0][d])
            || !repro_shape_weights(xl - 0.5, order, shape[d],
                                    &i0[1][d], w[1][d]))
            return d;
    }
    for (int c = 0; c < 6; ++c) {
        i64 ic[3] = {0, 0, 0};
        const double *wc[3] = {0, 0, 0};
        for (int d = 0; d < ndim; ++d) {
            int s = repro_stagger[c][d];
            ic[d] = i0[s][d];
            wc[d] = w[s][d];
        }
        f[c] = stencil_sum_@SUF@(fields[c], strides, ndim, order + 1, ic, wc);
    }
    return -1;
}

/* e_out, b_out: (n, 3) */
i64 gather_@SUF@(const @REAL@ *ex, const @REAL@ *ey, const @REAL@ *ez,
    const @REAL@ *bx, const @REAL@ *by, const @REAL@ *bz,
    const i64 *strides, const i64 *shape, const double *geom, int ndim,
    int order, i64 n, const double *pos, double *e_out, double *b_out,
    int *bad_axis) {
    const @REAL@ *fields[6] = {ex, ey, ez, bx, by, bz};
    for (i64 p = 0; p < n; ++p) {
        double f[6];
        *bad_axis = gather6_@SUF@(fields, strides, shape, ndim, order,
                                  pos + p * ndim, geom, f);
        if (*bad_axis >= 0) return p;
        for (int j = 0; j < 3; ++j) {
            e_out[3 * p + j] = f[j];
            b_out[3 * p + j] = f[3 + j];
        }
    }
    return -1;
}

/* `shift`: the component's half-cell stagger per axis (0.0 or 0.5) */
i64 deposit_nodal_@SUF@(@REAL@ *field, const i64 *strides,
    const i64 *shape, const double *geom, int ndim, int order, i64 n,
    const double *pos, const double *shift, const double *vals,
    int *bad_axis) {
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

/* The gather -> momentum -> position stage of the fused particle pass.
   Operation order follows push_boris / push_vay / push_positions term by
   term; kq = q dt / (2 m c), hq = q dt / (2 m), cdt = c dt. */
i64 advance_@SUF@(const @REAL@ *ex, const @REAL@ *ey, const @REAL@ *ez,
    const @REAL@ *bx, const @REAL@ *by, const @REAL@ *bz,
    const i64 *strides, const i64 *shape, const double *geom, int ndim,
    int order, i64 n, int vay, const double *pos, const double *mom,
    double kq, double hq, double clight, double cdt,
    double *pos_new, double *mom_new, double *vel, double *max_disp,
    int *bad_axis) {
    const @REAL@ *fields[6] = {ex, ey, ez, bx, by, bz};
    for (i64 p = 0; p < n; ++p) {
        double f[6];
        *bad_axis = gather6_@SUF@(fields, strides, shape, ndim, order,
                                  pos + p * ndim, geom, f);
        if (*bad_axis >= 0) return p;
        const double *e = f, *b = f + 3, *u = mom + 3 * p;
        double un[3];
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
        double gamma = sqrt(1.0 + (un[0] * un[0] + un[1] * un[1]
                                   + un[2] * un[2]));
        for (int j = 0; j < 3; ++j) {
            mom_new[3 * p + j] = un[j];
            vel[3 * p + j] = un[j] * (clight / gamma);
        }
        for (int d = 0; d < ndim; ++d) {
            double x_old = pos[p * ndim + d];
            double x_new = x_old + (un[d] / gamma) * cdt;
            pos_new[p * ndim + d] = x_new;
            double disp = fabs(x_new - x_old);
            if (disp > max_disp[d]) max_disp[d] = disp;
        }
    }
    return -1;
}

/* Per-particle Esirkepov deposition over a K-point window: identical
   decomposition to repro.particles.deposit._deposit_current_esirkepov_impl
   (including the tight odd-order window re-centering), the vectorized
   cumsums unrolled into per-particle running sums. */
i64 deposit_esirkepov_@SUF@(@REAL@ *jx, @REAL@ *jy, @REAL@ *jz,
    const i64 *strides, const i64 *shape, const double *geom, int ndim,
    int order, i64 n, int K, int tight, const double *pos_old,
    const double *pos_new, const double *vel, const double *weights,
    double charge, double dt, int *bad_axis) {
    const double *dx = geom + 3;
    i64 base[3] = {0, 0, 0};
    double s0[3][REPRO_KMAX], ds[3][REPRO_KMAX];
    double t_a[REPRO_KMAX][REPRO_KMAX];
    double t_b[REPRO_KMAX][REPRO_KMAX];
    double t_c[REPRO_KMAX][REPRO_KMAX];
    int half = (K - 1) / 2;
    for (i64 p = 0; p < n; ++p) {
        for (int d = 0; d < ndim; ++d) {
            double a = repro_lattice(pos_old[p * ndim + d], geom, d);
            double b = repro_lattice(pos_new[p * ndim + d], geom, d);
            double xm = 0.5 * (a + b);
            double bb;
            if (!repro_floor((tight && (order & 1)) ? xm + 0.5 : xm,
                             shape[d], &bb)
                || !repro_in_range(bb - half, K, shape[d])) {
                *bad_axis = d;
                return p;
            }
            i64 bi = (i64)bb - half;
            base[d] = bi;
            for (int k = 0; k < K; ++k) {
                double pt = (double)(bi + k);
                double s0v = repro_bspline(order, pt - a);
                s0[d][k] = s0v;
                ds[d][k] = repro_bspline(order, pt - b) - s0v;
            }
        }
        double q = charge * weights[p];
        if (ndim == 3) {
            double cx = -q / (dt * dx[1] * dx[2]);
            double cy = -q / (dt * dx[0] * dx[2]);
            double cz = -q / (dt * dx[0] * dx[1]);
            for (int j = 0; j < K; ++j)
                for (int k = 0; k < K; ++k)
                    t_a[j][k] = s0[1][j] * s0[2][k]
                              + 0.5 * ds[1][j] * s0[2][k]
                              + 0.5 * s0[1][j] * ds[2][k]
                              + ds[1][j] * ds[2][k] / 3.0;
            for (int i = 0; i < K; ++i)
                for (int k = 0; k < K; ++k)
                    t_b[i][k] = s0[0][i] * s0[2][k]
                              + 0.5 * ds[0][i] * s0[2][k]
                              + 0.5 * s0[0][i] * ds[2][k]
                              + ds[0][i] * ds[2][k] / 3.0;
            for (int i = 0; i < K; ++i)
                for (int j = 0; j < K; ++j)
                    t_c[i][j] = s0[0][i] * s0[1][j]
                              + 0.5 * ds[0][i] * s0[1][j]
                              + 0.5 * s0[0][i] * ds[1][j]
                              + ds[0][i] * ds[1][j] / 3.0;
            for (int j = 0; j < K; ++j)
                for (int k = 0; k < K; ++k) {
                    i64 addr_jk = (base[1] + j) * strides[1]
                                + (base[2] + k) * strides[2];
                    double acc = 0.0;
                    for (int i = 0; i < K; ++i) {
                        acc += ds[0][i] * t_a[j][k];
                        jx[(base[0] + i) * strides[0] + addr_jk]
                            += (@REAL@)(cx * acc);
                    }
                }
            for (int i = 0; i < K; ++i)
                for (int k = 0; k < K; ++k) {
                    i64 addr_ik = (base[0] + i) * strides[0]
                                + (base[2] + k) * strides[2];
                    double acc = 0.0;
                    for (int j = 0; j < K; ++j) {
                        acc += ds[1][j] * t_b[i][k];
                        jy[addr_ik + (base[1] + j) * strides[1]]
                            += (@REAL@)(cy * acc);
                    }
                }
            for (int i = 0; i < K; ++i)
                for (int j = 0; j < K; ++j) {
                    i64 addr_ij = (base[0] + i) * strides[0]
                                + (base[1] + j) * strides[1];
                    double acc = 0.0;
                    for (int k = 0; k < K; ++k) {
                        acc += ds[2][k] * t_c[i][j];
                        jz[addr_ij + (base[2] + k) * strides[2]]
                            += (@REAL@)(cz * acc);
                    }
                }
        } else if (ndim == 2) {
            double cx = -q / (dt * dx[1]);
            double cy = -q / (dt * dx[0]);
            double cz = q * vel[p * 3 + 2] / (dx[0] * dx[1]);
            for (int j = 0; j < K; ++j) {
                i64 addr_j = (base[1] + j) * strides[1];
                double ty = s0[1][j] + 0.5 * ds[1][j];
                double acc = 0.0;
                for (int i = 0; i < K; ++i) {
                    acc += ds[0][i] * ty;
                    jx[(base[0] + i) * strides[0] + addr_j]
                        += (@REAL@)(cx * acc);
                }
            }
            for (int i = 0; i < K; ++i) {
                i64 addr_i = (base[0] + i) * strides[0];
                double tx = s0[0][i] + 0.5 * ds[0][i];
                double acc = 0.0;
                for (int j = 0; j < K; ++j) {
                    acc += ds[1][j] * tx;
                    jy[addr_i + (base[1] + j) * strides[1]]
                        += (@REAL@)(cy * acc);
                }
            }
            for (int i = 0; i < K; ++i) {
                i64 addr_i = (base[0] + i) * strides[0];
                for (int j = 0; j < K; ++j) {
                    double wz = s0[0][i] * s0[1][j]
                              + 0.5 * ds[0][i] * s0[1][j]
                              + 0.5 * s0[0][i] * ds[1][j]
                              + ds[0][i] * ds[1][j] / 3.0;
                    jz[addr_i + (base[1] + j) * strides[1]]
                        += (@REAL@)(cz * wz);
                }
            }
        } else {
            double cx = -q / dt;
            double cy = q * vel[p * 3 + 1] / dx[0];
            double cz = q * vel[p * 3 + 2] / dx[0];
            double acc = 0.0;
            for (int i = 0; i < K; ++i) {
                i64 addr = (base[0] + i) * strides[0];
                acc += ds[0][i];
                jx[addr] += (@REAL@)(cx * acc);
                double tx = s0[0][i] + 0.5 * ds[0][i];
                jy[addr] += (@REAL@)(cy * tx);
                jz[addr] += (@REAL@)(cz * tx);
            }
        }
    }
    return -1;
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
        # every kernel: field arrays, then (strides, shape, geom, ndim,
        # order, n), its own arguments, and the bad_axis out-parameter
        common = [vp, vp, vp, ci, ci, c64]
        signatures = {
            "gather": [vp] * 6 + common + [vp, vp, vp, vp],
            "deposit_nodal": [vp] + common + [vp, vp, vp, vp],
            "advance": [vp] * 6 + common
            + [ci, vp, vp, cd, cd, cd, cd, vp, vp, vp, vp, vp],
            "deposit_esirkepov": [vp] * 3 + common
            + [ci, ci, vp, vp, vp, vp, cd, cd, vp],
        }
        self._fn = {}
        for kernel, argtypes in signatures.items():
            for suf, itemsize in (("f64", 8), ("f32", 4)):
                fn = getattr(lib, f"{kernel}_{suf}")
                fn.argtypes = argtypes
                fn.restype = c64
                self._fn[kernel, itemsize] = fn

    def call(self, kernel: str, grid: YeeGrid, components, order: int,  # repro: allow(PIC007)
             n: int, *args) -> None:
        """Run ``kernel`` over ``n`` particles on ``grid``'s ``components``.

        The kernels index the arrays through element strides and check
        every stencil against the extents; an out-of-range one comes
        back as a particle index and is raised as SAN005.
        """
        arrays = [grid.fields[comp] for comp in components]
        sample = arrays[0]
        strides = np.array(
            [s // sample.itemsize for s in sample.strides], dtype=np.int64
        )
        extents = np.array(sample.shape, dtype=np.int64)
        # {lo[3], dx[3], guards}: particle position -> lattice coordinate
        geom = np.ones(7, dtype=np.float64)
        geom[: grid.ndim] = grid.lo
        geom[3 : 3 + grid.ndim] = grid.dx
        geom[6] = grid.guards
        bad_axis = ctypes.c_int(-1)
        p = self._fn[kernel, sample.dtype.itemsize](
            *map(_ptr, arrays), _ptr(strides), _ptr(extents), _ptr(geom),
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

    def _esirkepov(grid, pos_old, pos_new, vel, weights, charge, dt, order,
                   max_disp):
        """Size the window from the actual displacement [cells] and
        deposit; the particle arrays are contiguous float64 already."""
        K = esirkepov_window(order, max_disp, tight=True)
        if K > KMAX:
            # windows this wide (deep-MR subcycled displacements) are not
            # worth native stack buffers; the vectorized kernel handles
            # them with identical mathematics
            deposit_current_esirkepov(
                grid, pos_old, pos_new, vel, weights, charge, dt, order,
            )
            return
        if (K + 1) // 2 > grid.guards:
            raise ConfigurationError(
                f"particle displacement of {max_disp:.2f} cells needs a "
                f"{K}-point deposition window but only {grid.guards} guard "
                f"cells are available"
            )
        weights = _f64(weights)
        backend.call(
            "deposit_esirkepov", grid, ("Jx", "Jy", "Jz"), order,
            pos_old.shape[0], K, int(K == order + 2), _ptr(pos_old),
            _ptr(pos_new), _ptr(vel), _ptr(weights), charge, float(dt),
        )

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
        if positions_old.shape[0] == 0:
            return
        max_disp = max(
            float(
                np.max(np.abs(positions_new[:, d] - positions_old[:, d]))
            ) / grid.dx[d]
            for d in range(grid.ndim)
        )
        _esirkepov(
            grid, _f64(positions_old), _f64(positions_new), _f64(velocities),
            weights, charge, dt, order, max_disp,
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
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Fused gather -> Boris/Vay -> position -> Esirkepov deposit.

        Returns the new ``(positions, momenta)``; the current lands in
        ``grid``'s ``J``.  The inputs are not modified.
        """
        if pusher not in PUSHERS:
            raise ConfigurationError(f"unknown pusher {pusher!r}")
        pos, mom = _f64(positions), _f64(momenta)
        n = pos.shape[0]
        pos_new = np.empty_like(pos)
        mom_new = np.empty_like(mom)
        vel = np.empty_like(mom)
        max_disp = np.zeros(3, dtype=np.float64)
        backend.call(
            "advance", grid, FIELD_COMPONENTS, order, n,
            int(pusher == "vay"), _ptr(pos), _ptr(mom),
            charge * dt / (2.0 * mass * c), charge * dt / (2.0 * mass),
            c, c * dt,
            _ptr(pos_new), _ptr(mom_new), _ptr(vel), _ptr(max_disp),
        )
        if n:
            _esirkepov(
                grid, pos, pos_new, vel, weights, charge, dt, order,
                max(max_disp[d] / grid.dx[d] for d in range(grid.ndim)),
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
