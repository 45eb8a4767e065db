"""The compiled field entries: generated C for the field solvers' work.

On small grids — an MR patch's fine and coarse companions, the parent of
a 2D deck, a decomposed spectral box — every NumPy statement of a field
update is a call of a few microseconds over a few thousand cells, and a
step makes hundreds of them.  Following the recipe of the WarpX GPU port
(Myers et al., arXiv:2101.12149: same kernel semantics, new backend
behind the dispatch seam, cross-validated against the old code), seven
entries run those updates as one C loop nest each:

``yee_step``
    :meth:`repro.grid.maxwell.MaxwellSolver.step`: half B, full E, half B.
``pml_step``
    :meth:`repro.grid.pml.PMLMaxwellSolver.step`: the same on the
    Berenger split parts, with the solver's decay / weight tables.
``damp``
    :func:`repro.grid.boundary.apply_damping`: the low-side layer, then
    the high-side one.
``assemble_aux``
    :meth:`repro.core.mr_level.MRPatch.assemble_aux`: ``aux = fine +
    prolong(parent section - coarse)`` for all six components.
``smooth``
    :meth:`repro.core.simulation.StepDriver._smooth_sources`: the
    binomial J filter, ``smooth_binomial`` per component, axis and pass.
``restrict_currents``
    :meth:`repro.core.mr_level.MRPatch.accumulate_restricted_currents`:
    the restriction of a patch's fine J onto its coarse companion's J,
    stored (the step's first call) or added, times a weight.
``psatd_update``
    :meth:`repro.grid.psatd.PSATDMaxwellSolver.step` between its
    transforms, which stay ``np.fft``: the nine raw half spectra times
    their staggering phases, the analytic update, the six results times
    their unphase tables, written in place over the E and B spectra
    (every point is read in full before it is written).

The two patch transfers run on the patch's one :class:`TransferPlan`: the
per-axis maps of :func:`~repro.grid.interpolation.prolong_map` and
:func:`~repro.grid.interpolation.restrict_map`, built once per
``region_lo``.  The entries are part of the one library :mod:`repro.native`
builds (the particle kernels of :mod:`repro.particles.compiled` are the
other part), emitted over a ``real`` type for float64 and float32 grids
and for 1D, 2D and 3D at run time.  The curl wiring is generated from
:data:`repro.grid.stencils.CURL_TERMS` and the staggering from
:data:`repro.grid.yee.STAGGER`, so the C cannot drift from the NumPy
stencils.  :func:`backend` hands a site its entries, or None when there
is no library (``REPRO_COMPILED_BACKEND=none``, no compiler) or the grid
dtype is neither: the site then runs its NumPy body, which is also the
oracle the tests hold every entry against, byte for byte.

Numerics contract: each entry performs the IEEE operations of its NumPy
body, in the same order — ``(a - b) / dx`` as a division; a curl summed
from ``0.0`` term by term; ``F + dt * (c2 * curl - J / eps0)``; the PML's
``(coeff * sign) * r``, then ``P * decay``, then ``+ weight * r``, then
the parts summed from ``0.0``; the filter's ``(0.25 * lo + 0.5 * mid) +
0.25 * hi`` from the old values; the restriction's terms summed from the
first, ``w * x`` on a nodal axis and ``x / ratio`` on a staggered one,
each axis's result rounded to the grid's precision.  On float32 grids it
follows NumPy 2's promotion: a Python-float scalar (``dt``, ``dx``,
``c2``, ``eps0``, the filter's 0.25 / 0.5, the restriction's weights,
divisor and ``weight``) is rounded to float32 and the operation runs in
float32, while a product with a float64 table (PML decay / weight, the
damping factors, the prolongation weights) runs in double and is rounded
once, on the store.  The library is built with ``-ffp-contract=off`` and
no reassociation.  Every ladder deck without a spectral solver is
therefore bit-identical with and without the library.

The one exception is ``psatd_update``.  It keeps the NumPy body's
operations and their order, but a complex product is the textbook ``(ac
- bd, ad + bc)``, each product rounded, and a real table (cos, 1 - cos,
k_hat) times a complex value is ``(xa, xb)``.  NumPy's SIMD complex
multiply uses fused multiply-adds on hosts that have them, so its
rounding depends on the host.  The two agree to about 1e-15 of a field's largest value in float64
and a few ulp in float32; with ``REPRO_COMPILED_BACKEND=none`` a spectral
deck runs the NumPy body, bit for bit as before.  GCC's vectoriser fuses
an interleaved complex product into ``vfmaddsub`` even under
``-ffp-contract=off``, so the entry works on blocks of points in planar
(re, im) scratch on the stack and stores no interleaved pair it
computes: its loops are vector code, and its result is the same with
the SIMD and the plain flags (``benchmarks/check_lane_vectorization.py``
fails on any fused multiply-add in the library).  A decomposed spectral
run also depends on its field tiling, whose windows the transforms
follow: a run re-tiled mid-run (rebalance, evacuation) stays within the
guard tolerance of ``boosted_lwfa.GUARD_TOLERANCES``, not bit for bit.

Memory safety: the entries index through the shapes they are given and
trust them, so the wrappers check first — every array C-contiguous, of
its grid's shape and dtype, writable where written (pointer tables are
built per call from the live arrays); a spectrum or k-space table of the
half-spectrum shape and the solver's complex (or real) dtype (the tables
checked once, on the solver's first native step, and cached with it);
the damping layer inside the axis;
a transfer plan built for the patch's grid shapes; the parent section of
a patch inside the parent — and raise
:class:`~repro.exceptions.ConfigurationError` before anything is
written.
"""

from __future__ import annotations

import ctypes
import functools
from typing import Dict, Optional, Tuple

import numpy as np

from repro import native
from repro.exceptions import ConfigurationError
from repro.grid.interpolation import prolong_map, restrict_map
from repro.grid.stencils import CURL_TERMS
from repro.grid.yee import FIELD_COMPONENTS, STAGGER

_C_FIELDS_HEADER = r"""
/* ================= field entries (repro.grid.compiled) ================= */
#include <stdint.h>

/* CURL_TERMS of repro.grid.stencils per component (Ex Ey Ez Bx By Bz):
   {source component, derivative axis, sign}; terms along an axis the grid
   does not have are skipped */
typedef struct { int src, axis, sign; } repro_curl_term;
static const repro_curl_term repro_curl[6][2] = {@CURL@};
/* STAGGER of repro.grid.yee, same component order, then Jx Jy Jz */
static const int repro_field_stagger[9][3] = {@STAGGER@};

/* Rows (the contiguous last axis) are processed this many points at a
   time: no run is longer than the zero row of repro_zeros. */
#define REPRO_FCHUNK 256

/* Every array of one entry has the shape n[3]: the grid's shape padded
   with leading 1s, so a grid axis d is padded axis d + 3 - ndim.  A loop
   over the rows visits (i, j) = padded indices of axes 0 and 1. */
#define REPRO_ROWS(n) \
    for (int64_t i = 0; i < (n)[0]; ++i) \
        for (int64_t j = 0; j < (n)[1]; ++j) \
            for (int64_t k0 = 0, p = (i * (n)[1] + j) * (n)[2]; \
                 k0 < (n)[2]; k0 += REPRO_FCHUNK)
#define REPRO_CHUNK_END(n) (k0 + REPRO_FCHUNK < (n)[2] ? k0 + REPRO_FCHUNK : (n)[2])

/* Points of the half spectrum per block of the PSATD update. */
#define REPRO_PBLOCK 64

/* Split [k0, k1) of a row into runs, at most three: the plane where a
   last-axis term of component comp vanishes (the row's last point for B,
   its first for E) is a run of its own, flagged in zero[].  Returns the
   number of runs. */
static int repro_runs(int comp, int e, const int64_t *n, int ndim,
    int64_t k0, int64_t k1, int64_t *ka, int64_t *kb, int *zero) {
    int64_t edge = -1;
    int nr = 0;
    for (int t = 0; t < 2; ++t)
        if (repro_curl[comp][t].axis == ndim - 1) edge = e ? 0 : n[2] - 1;
    if (edge < k0 || edge >= k1) {
        ka[0] = k0; kb[0] = k1; zero[0] = 0;
        return 1;
    }
    if (edge > k0) { ka[nr] = k0; kb[nr] = edge; zero[nr++] = 0; }
    ka[nr] = edge; kb[nr] = edge + 1; zero[nr++] = 1;
    if (edge + 1 < k1) { ka[nr] = edge + 1; kb[nr] = k1; zero[nr++] = 0; }
    return nr;
}

"""

_C_FIELDS = r"""
/* A run of a row on which every curl term of a component is a plain
   difference: (h[t][k] - l[t][k]) / dx[t] for k < len.  A term whose
   stencil the NumPy code leaves zero at this point (repro.grid.stencils:
   the last plane along its axis for a forward difference, the first for a
   backward one) reads h = l = repro_zeros: (0 - 0) / dx is the +0 it
   stores there. */
static const @REAL@ repro_zeros_@SUF@[REPRO_FCHUNK];

typedef struct {
    int nt;                 /* terms along axes the grid has: 0, 1, 2 */
    int last;               /* the term along the last axis, or -1 */
    const @REAL@ *h[2], *l[2];
    @REAL@ dx[2];
    int sign[2];
    int slot[2];            /* its index in repro_curl[comp] */
} repro_run_@SUF@;

/* The terms of component comp on the run [ka, kb) of row p (padded
   indices i, j of axes 0, 1): forward differences for B (e = 0),
   backward for E; zero_last: the point is the plane where the
   last-axis term vanishes. */
static void repro_run_setup_@SUF@(repro_run_@SUF@ *run, @REAL@ *const *f,
    int comp, int e, const int64_t *n, int ndim, const @REAL@ *dx,
    int64_t p, int64_t ka, int64_t i, int64_t j, int zero_last) {
    const int64_t stride[3] = {n[1] * n[2], n[2], 1};
    run->nt = 0;
    run->last = -1;
    for (int t = 0; t < 2; ++t) {
        const repro_curl_term term = repro_curl[comp][t];
        if (term.axis >= ndim) continue;
        const int pa = term.axis + 3 - ndim, u = run->nt++;
        const int64_t at = pa == 0 ? i : pa == 1 ? j : -1;
        int zero = pa == 2 ? zero_last : e ? at == 0 : at == n[pa] - 1;
        const @REAL@ *src = f[term.src] + p + ka;
        if (pa == 2) run->last = u;
        if (zero) {
            run->h[u] = run->l[u] = repro_zeros_@SUF@;
        } else {
            run->h[u] = e ? src : src + stride[pa];
            run->l[u] = e ? src - stride[pa] : src;
        }
        run->dx[u] = dx[pa];
        run->sign[u] = term.sign;
        run->slot[u] = t;
    }
}

/* The curl of a run at k: 0 plus or minus each term in CURL_TERMS order,
   as curl_term sums it.  Inlined with a literal nt. */
static inline __attribute__((always_inline)) @REAL@ repro_curl_at_@SUF@(
    const repro_run_@SUF@ *run, int nt, int64_t k) {
    @REAL@ tot = 0;
    for (int u = 0; u < nt; ++u) {
        const @REAL@ d = (run->h[u][k] - run->l[u][k]) / run->dx[u];
        tot = run->sign[u] > 0 ? tot + d : tot - d;
    }
    return tot;
}

static inline __attribute__((always_inline)) void repro_yee_apply_@SUF@(
    const repro_run_@SUF@ *run, int nt, int e, int64_t len,
    @REAL@ *restrict F, const @REAL@ *restrict J, @REAL@ dt, @REAL@ c2,
    @REAL@ eps0) {
    if (e)
        for (int64_t k = 0; k < len; ++k)
            F[k] = F[k] + dt * (c2 * repro_curl_at_@SUF@(run, nt, k)
                                - J[k] / eps0);
    else
        for (int64_t k = 0; k < len; ++k)
            F[k] = F[k] + dt * repro_curl_at_@SUF@(run, nt, k);
}

/* One family of the Yee update over every row: B += dt * curl E (e = 0)
   or E += dt * (c2 * curl B - J / eps0) (e = 1). */
static void repro_yee_family_@SUF@(@REAL@ *const *f, const int64_t *n,
    int ndim, int e, @REAL@ dt, @REAL@ c2, @REAL@ eps0, const @REAL@ *dx) {
    REPRO_ROWS(n) {
        const int64_t k1 = REPRO_CHUNK_END(n);
        for (int c = 0; c < 3; ++c) {
            const int comp = e ? c : 3 + c;
            int64_t ka_[3], kb_[3];
            int zero[3];
            const int nr = repro_runs(comp, e, n, ndim, k0, k1, ka_, kb_, zero);
            for (int r = 0; r < nr; ++r) {
                const int64_t ka = ka_[r], kb = kb_[r];
                repro_run_@SUF@ run;
                repro_run_setup_@SUF@(&run, f, comp, e, n, ndim, dx, p, ka, i,
                                      j, zero[r]);
                @REAL@ *F = f[comp] + p + ka;
                const @REAL@ *J = f[6 + c] + p + ka;
                const int64_t len = kb - ka;
                if (run.nt == 2)
                    repro_yee_apply_@SUF@(&run, 2, e, len, F, J, dt, c2, eps0);
                else if (run.nt == 1)
                    repro_yee_apply_@SUF@(&run, 1, e, len, F, J, dt, c2, eps0);
                else
                    repro_yee_apply_@SUF@(&run, 0, e, len, F, J, dt, c2, eps0);
            }
        }
    }
}

/* f = {Ex, Ey, Ez, Bx, By, Bz, Jx, Jy, Jz}; dt_half, dt_full, c2, eps0
   and dx (per grid axis) as NumPy has them before it rounds them to the
   grid's precision. */
void yee_step_@SUF@(@REAL@ *const *f, const int64_t *n, int ndim,
    double dt_half, double dt_full, double c2, double eps0,
    const double *dx) {
    @REAL@ dxr[3] = {1, 1, 1};
    for (int d = 0; d < ndim; ++d) dxr[d + 3 - ndim] = (@REAL@)dx[d];
    repro_yee_family_@SUF@(f, n, ndim, 0, (@REAL@)dt_half, (@REAL@)c2,
                           (@REAL@)eps0, dxr);
    repro_yee_family_@SUF@(f, n, ndim, 1, (@REAL@)dt_full, (@REAL@)c2,
                           (@REAL@)eps0, dxr);
    repro_yee_family_@SUF@(f, n, ndim, 0, (@REAL@)dt_half, (@REAL@)c2,
                           (@REAL@)eps0, dxr);
}

/* One split part: P * decay, then + weight * r, each product with a
   double table in double and rounded on the store. */
static inline __attribute__((always_inline)) @REAL@ repro_pml_part_@SUF@(
    @REAL@ part, @REAL@ r, double decay, double weight) {
    part = (@REAL@)((double)part * decay);
    return (@REAL@)((double)part + weight * (double)r);
}

/* A run of the split-field update of component comp (present terms u <
   nt, 1 or 2; the one along the last axis u = last, or none): per term
   r = cs * diff (minus J / eps0 on the first E term) and the part's
   update, the tables read per point along the last axis and once per row
   along the others; then F = 0 + P0 (+ P1).  Inlined with literal nt,
   last and e. */
static inline __attribute__((always_inline)) void repro_pml_apply_@SUF@(
    const repro_run_@SUF@ *run, int nt, int last, int e, int64_t len,
    @REAL@ *const *P, const double *const *decay, const double *const *weight,
    const @REAL@ *cs, @REAL@ *restrict F, const @REAL@ *restrict J,
    @REAL@ eps0) {
    /* every table in a local: a pointer loaded inside the loop keeps it
       scalar */
    const @REAL@ *h0 = run->h[0], *l0 = run->l[0];
    const @REAL@ *h1 = nt > 1 ? run->h[1] : 0, *l1 = nt > 1 ? run->l[1] : 0;
    @REAL@ *restrict P0 = P[0];
    @REAL@ *restrict P1 = nt > 1 ? P[1] : 0;
    const double *d0 = decay[0], *w0 = weight[0];
    const double *d1 = nt > 1 ? decay[1] : 0, *w1 = nt > 1 ? weight[1] : 0;
    const @REAL@ dx0 = run->dx[0], dx1 = nt > 1 ? run->dx[1] : 1;
    const @REAL@ cs0 = cs[0], cs1 = nt > 1 ? cs[1] : 0;
    /* the values of a table along an axis other than the last */
    const double dr0 = d0[0], wr0 = w0[0];
    const double dr1 = nt > 1 ? d1[0] : 0, wr1 = nt > 1 ? w1[0] : 0;
    for (int64_t k = 0; k < len; ++k) {
        @REAL@ r = cs0 * ((h0[k] - l0[k]) / dx0);
        if (e) r = r - J[k] / eps0;
        @REAL@ part = repro_pml_part_@SUF@(P0[k], r, last == 0 ? d0[k] : dr0,
                                           last == 0 ? w0[k] : wr0);
        @REAL@ tot = 0;
        P0[k] = part;
        tot = tot + part;
        if (nt > 1) {
            r = cs1 * ((h1[k] - l1[k]) / dx1);
            part = repro_pml_part_@SUF@(P1[k], r, last == 1 ? d1[k] : dr1,
                                        last == 1 ? w1[k] : wr1);
            P1[k] = part;
            tot = tot + part;
        }
        F[k] = tot;
    }
}

/* One family of the split-field update (PMLMaxwellSolver._push_family)
   over every row; a component without a term keeps F (B) or takes F - dt
   * J / eps0 (E). */
static void repro_pml_family_@SUF@(@REAL@ *const *f, @REAL@ *const *parts,
    const double *const *coef, const int64_t *n, int ndim, int e,
    double coeff, @REAL@ dt, @REAL@ eps0, const @REAL@ *dx) {
    REPRO_ROWS(n) {
        const int64_t k1 = REPRO_CHUNK_END(n);
        for (int c = 0; c < 3; ++c) {
            const int comp = e ? c : 3 + c;
            int64_t ka_[3], kb_[3];
            int zero[3];
            const int nr = repro_runs(comp, e, n, ndim, k0, k1, ka_, kb_, zero);
            for (int r = 0; r < nr; ++r) {
                const int64_t ka = ka_[r], kb = kb_[r];
                repro_run_@SUF@ run;
                repro_run_setup_@SUF@(&run, f, comp, e, n, ndim, dx, p, ka, i,
                                      j, zero[r]);
                @REAL@ *F = f[comp] + p + ka;
                const @REAL@ *J = f[6 + c] + p + ka;
                const int64_t len = kb - ka;
                @REAL@ *P[2];
                const double *decay[2], *weight[2];
                @REAL@ cs[2];
                for (int u = 0; u < run.nt; ++u) {
                    const int slot = 2 * comp + run.slot[u];
                    const int pa = repro_curl[comp][run.slot[u]].axis + 3 - ndim;
                    const int64_t at = pa == 2 ? ka : pa == 1 ? j : i;
                    P[u] = parts[slot] + p + ka;
                    decay[u] = coef[2 * slot] + at;
                    weight[u] = coef[2 * slot + 1] + at;
                    cs[u] = (@REAL@)(coeff * (double)run.sign[u]);
                }
                if (run.nt == 0) {
                    if (e)
                        for (int64_t k = 0; k < len; ++k)
                            F[k] = F[k] - dt * J[k] / eps0;
                } else if (run.nt == 1) {
                    if (run.last == 0)
                        repro_pml_apply_@SUF@(&run, 1, 0, e, len, P, decay,
                                              weight, cs, F, J, eps0);
                    else
                        repro_pml_apply_@SUF@(&run, 1, -1, e, len, P, decay,
                                              weight, cs, F, J, eps0);
                } else if (run.last == 0) {
                    repro_pml_apply_@SUF@(&run, 2, 0, e, len, P, decay, weight,
                                          cs, F, J, eps0);
                } else if (run.last == 1) {
                    repro_pml_apply_@SUF@(&run, 2, 1, e, len, P, decay, weight,
                                          cs, F, J, eps0);
                } else {
                    repro_pml_apply_@SUF@(&run, 2, -1, e, len, P, decay, weight,
                                          cs, F, J, eps0);
                }
            }
        }
    }
}

/* parts[2 * comp + t]: the split part of term t of component comp (NULL
   where the term is absent); coef[(2 * comp + t) * 2 + {0, 1}]: its decay
   and weight tables, at dt_full for E and dt_half for B. */
void pml_step_@SUF@(@REAL@ *const *f, @REAL@ *const *parts,
    const double *const *coef, const int64_t *n, int ndim, double dt_half,
    double dt_full, double c2, double eps0, const double *dx) {
    @REAL@ dxr[3] = {1, 1, 1};
    for (int d = 0; d < ndim; ++d) dxr[d + 3 - ndim] = (@REAL@)dx[d];
    repro_pml_family_@SUF@(f, parts, coef, n, ndim, 0, 1.0,
                           (@REAL@)dt_half, (@REAL@)eps0, dxr);
    repro_pml_family_@SUF@(f, parts, coef, n, ndim, 1, c2,
                           (@REAL@)dt_full, (@REAL@)eps0, dxr);
    repro_pml_family_@SUF@(f, parts, coef, n, ndim, 0, 1.0,
                           (@REAL@)dt_half, (@REAL@)eps0, dxr);
}

/* f = the six field components; the planes [0, n_layer) along padded
   axis pa (low) and then [n[pa] - n_layer, n[pa]) (high), plane k from
   its outer edge times factors[k], in double, rounded on the store. */
void damp_@SUF@(@REAL@ *const *f, const int64_t *n, int pa,
    const double *factors, int64_t n_layer, int low, int high) {
    for (int c = 0; c < 6; ++c)
        for (int side = 0; side < 2; ++side) {
            if (!(side ? high : low)) continue;
            int64_t lo[3] = {0, 0, 0}, hi[3] = {n[0], n[1], n[2]};
            if (side) lo[pa] = n[pa] - n_layer; else hi[pa] = n_layer;
            for (int64_t i = lo[0]; i < hi[0]; ++i)
                for (int64_t j = lo[1]; j < hi[1]; ++j) {
                    @REAL@ *row = f[c] + (i * n[1] + j) * n[2];
                    if (pa == 2) {
                        for (int64_t k = lo[2]; k < hi[2]; ++k)
                            row[k] = (@REAL@)((double)row[k]
                                * factors[side ? n[2] - 1 - k : k]);
                    } else {
                        const int64_t at = pa == 0 ? i : j;
                        const double fk = factors[side ? n[pa] - 1 - at : at];
                        for (int64_t k = 0; k < n[2]; ++k)
                            row[k] = (@REAL@)((double)row[k] * fk);
                    }
                }
        }
}

/* The patch's auxiliary field, per component: aux = 0 outside the valid
   region, inside it aux = fine + I[parent section - coarse], I the
   separable linear prolongation of repro.grid.interpolation (grid axis 0
   first): along each axis lo * (1 - w) + hi * w over the samples
   imap[.., 0 / 1, jf], weight wmap[.., jf], in double — so a float32
   difference is widened, exactly, before the first product — and the sum
   with fine rounded once on the store.  Per fine row the axes before the
   last are interpolated first, into row[] over the coarse samples of the
   last axis; the last axis then reads row[].  Shapes pn (parent), cn
   (coarse), fn (fine and aux), all padded; origin: the parent index of the
   section's first sample per padded axis; g: the patch grids' guards;
   maps: imap[((pa * 2 + s) * 2 + {0, 1}) * m + jf], wmap[(pa * 2 + s) * m
   + jf] for stagger s; row: cn[2] doubles of scratch. */
void assemble_aux_@SUF@(const @REAL@ *const *par, const @REAL@ *const *crs,
    const @REAL@ *const *fin, @REAL@ *const *aux, const int64_t *pn,
    const int64_t *cn, const int64_t *fn, int ndim, const int64_t *origin,
    int64_t g, const int64_t *imap, const double *wmap, int64_t m,
    double *row) {
    const int64_t size = fn[0] * fn[1] * fn[2];
    const int off = 3 - ndim;
    for (int c = 0; c < 6; ++c) {
        const @REAL@ *P = par[c], *C = crs[c], *Fn = fin[c];
        @REAL@ *A = aux[c];
        const int64_t *i0[3] = {0, 0, 0}, *i1[3] = {0, 0, 0};
        const double *w[3] = {0, 0, 0};
        int64_t nf[3] = {1, 1, 1}, lo[3] = {0, 0, 0}, nc = 0;
        /* a parent / coarse sample (a, b, e) of the section; padded axes
           before the grid's have extent 1 */
        int64_t po = 0, co = 0;
        const int64_t ps[3] = {pn[1] * pn[2], pn[2], 1};
        const int64_t cs[3] = {cn[1] * cn[2], cn[2], 1};
        for (int pa = off; pa < 3; ++pa) {
            const int s = repro_field_stagger[c][pa - off];
            const int64_t *maps = imap + (pa * 2 + s) * 2 * m;
            i0[pa] = maps; i1[pa] = maps + m;
            w[pa] = wmap + (pa * 2 + s) * m;
            nf[pa] = fn[pa] - 2 * g - s;
            nc = cn[2] - 2 * g - s;  /* coarse samples of the last axis */
            lo[pa] = g;
            po += origin[pa] * ps[pa];
            co += g * cs[pa];
        }
        for (int64_t q = 0; q < size; ++q) A[q] = 0;
#define D(a, b, e) ((double)(@REAL@)(P[po + (a) * ps[0] + (b) * ps[1] + (e)] \
                                    - C[co + (a) * cs[0] + (b) * cs[1] + (e)]))
#define LERP(x, y, wt) ((x) * (1.0 - (wt)) + (y) * (wt))
#define AX(bb, ee) LERP(D(a0, bb, ee), D(a1, bb, ee), wa)
        for (int64_t a = 0; a < nf[0]; ++a)
            for (int64_t b = 0; b < nf[1]; ++b) {
                const int64_t q = ((lo[0] + a) * fn[1] + lo[1] + b) * fn[2] + lo[2];
                if (ndim == 1) {
                    for (int64_t e = 0; e < nc; ++e) row[e] = D(0, 0, e);
                } else if (ndim == 2) {
                    const int64_t b0 = i0[1][b], b1 = i1[1][b];
                    const double wb = w[1][b];
                    for (int64_t e = 0; e < nc; ++e)
                        row[e] = LERP(D(0, b0, e), D(0, b1, e), wb);
                } else {
                    const int64_t a0 = i0[0][a], a1 = i1[0][a];
                    const int64_t b0 = i0[1][b], b1 = i1[1][b];
                    const double wa = w[0][a], wb = w[1][b];
                    for (int64_t e = 0; e < nc; ++e)
                        row[e] = LERP(AX(b0, e), AX(b1, e), wb);
                }
                for (int64_t e = 0; e < nf[2]; ++e)
                    A[q + e] = (@REAL@)((double)Fn[q + e]
                        + LERP(row[i0[2][e]], row[i1[2][e]], w[2][e]));
            }
#undef AX
#undef LERP
#undef D
    }
}
/* The binomial current filter (repro.core.simulation.smooth_binomial) on
   j = {Jx, Jy, Jz}: per component, per grid axis in order, per pass,
   planes 1 .. m - 2 along the axis become (0.25 * lo + 0.5 * mid) + 0.25
   * hi, each from the old values — NumPy evaluates the right-hand side
   before it stores — so the old plane below the one written is kept in
   save, one plane of scratch (n[1] * n[2] values; a row along the last
   axis).  An axis shorter than 3 is left alone. */
void smooth_@SUF@(@REAL@ *const *j, const int64_t *n, int ndim,
    int64_t passes, @REAL@ *save) {
    const @REAL@ q = (@REAL@)0.25, h = (@REAL@)0.5;
    for (int c = 0; c < 3; ++c)
        for (int pa = 3 - ndim; pa < 3; ++pa) {
            const int64_t m = n[pa];
            if (m < 3) continue;
            int64_t outer = 1, inner = 1;
            for (int d = 0; d < pa; ++d) outer *= n[d];
            for (int d = pa + 1; d < 3; ++d) inner *= n[d];
            for (int64_t it = 0; it < passes; ++it)
                for (int64_t o = 0; o < outer; ++o) {
                    @REAL@ *L = j[c] + o * m * inner;
                    if (inner == 1) {
                        for (int64_t k = 0; k < m; ++k) save[k] = L[k];
                        for (int64_t k = 1; k < m - 1; ++k)
                            L[k] = (q * save[k - 1] + h * save[k])
                                + q * save[k + 1];
                        continue;
                    }
                    for (int64_t e = 0; e < inner; ++e) save[e] = L[e];
                    for (int64_t k = 1; k < m - 1; ++k) {
                        @REAL@ *mid = L + k * inner;
                        const @REAL@ *hi = mid + inner;
                        for (int64_t e = 0; e < inner; ++e) {
                            const @REAL@ old = mid[e];
                            mid[e] = (q * save[e] + h * old) + q * hi[e];
                            save[e] = old;
                        }
                    }
                }
        }
}

/* One term of a restricted row: o[e] (= or +=) w * v on a nodal axis, v
   / w on a staggered one (div), v = row[ix[e]] (ix: the samples along the
   last axis) or row[e].  Inlined with literal div, first and ix. */
static inline __attribute__((always_inline)) void repro_restrict_term_@SUF@(
    @REAL@ *restrict o, const @REAL@ *restrict row, const int64_t *ix,
    int64_t len, @REAL@ w, int div, int first) {
    for (int64_t e = 0; e < len; ++e) {
        const @REAL@ v = ix ? row[ix[e]] : row[e];
        const @REAL@ term = div ? v / w : w * v;
        o[e] = first ? term : o[e] + term;
    }
}

/* One axis of the restriction (repro.grid.interpolation.restrict) along
   padded axis pa: out (dense, shape on) from in (strides is, unit along
   the last axis; the other axes indexed as out's).  Coarse sample x sums
   the terms t < nt over the fine samples idx[t * m + x], from the first
   term: w[t] * v on a nodal axis, v / w[t] on a staggered one (div), each
   operation rounded to the grid's precision. */
static void repro_restrict_axis_@SUF@(const @REAL@ *in, const int64_t *is,
    @REAL@ *out, const int64_t *on, int pa, const int64_t *idx, int64_t m,
    const double *w, int64_t nt, int div) {
    for (int64_t a = 0; a < on[0]; ++a)
        for (int64_t b = 0; b < on[1]; ++b) {
            @REAL@ *o = out + (a * on[1] + b) * on[2];
            for (int64_t t = 0; t < nt; ++t) {
                const @REAL@ wt = (@REAL@)w[t];
                const @REAL@ *row;
                const int64_t *ix = 0;
                if (pa == 2) {
                    row = in + a * is[0] + b * is[1];
                    ix = idx + t * m;
                } else {
                    const int64_t src = idx[t * m + (pa == 0 ? a : b)];
                    row = in + (pa == 0 ? src * is[0] + b * is[1]
                                        : a * is[0] + src * is[1]);
                }
#define TERM(d, f) (ix ? repro_restrict_term_@SUF@(o, row, ix, on[2], wt, d, f) \
                       : repro_restrict_term_@SUF@(o, row, 0, on[2], wt, d, f))
                if (div) { if (t) TERM(1, 0); else TERM(1, 1); }
                else { if (t) TERM(0, 0); else TERM(0, 1); }
#undef TERM
            }
        }
}

/* A patch's fine J restricted onto its coarse companion
   (MRPatch.accumulate_restricted_currents), per component: R = the
   restriction of the fine grid's valid samples, grid axis 0 first, each
   axis's result in scratch; then, over the coarse grid's valid samples, C
   = weight * R if first, else C + weight * R.  fn, cn: the padded shapes
   of fine and coarse; g: their guards; maps per padded axis pa and
   stagger s: ridx[((pa * 2 + s) * tmax + t) * m + x], rw[(pa * 2 + s) *
   tmax + t], nterms[pa * 2 + s]; scratch: two buffers of fn[0] * fn[1] *
   fn[2] values. */
void restrict_currents_@SUF@(const @REAL@ *const *fin, @REAL@ *const *crs,
    const int64_t *fn, const int64_t *cn, int ndim, int64_t g,
    const int64_t *ridx, const double *rw, const int64_t *nterms,
    int64_t tmax, int64_t m, double weight, int first, @REAL@ *scratch) {
    const int off = 3 - ndim;
    const int64_t size = fn[0] * fn[1] * fn[2];
    const @REAL@ wt = (@REAL@)weight;
    for (int c = 0; c < 3; ++c) {
        int64_t shape[3] = {1, 1, 1}, is[3] = {fn[1] * fn[2], fn[2], 1};
        int64_t cshape[3] = {1, 1, 1}, fo = 0, co = 0;
        int s[3] = {0, 0, 0};
        for (int pa = off; pa < 3; ++pa) {
            s[pa] = repro_field_stagger[6 + c][pa - off];
            shape[pa] = fn[pa] - 2 * g - s[pa];
            cshape[pa] = cn[pa] - 2 * g - s[pa];
            fo += g * is[pa];
        }
        const @REAL@ *in = fin[c] + fo;
        for (int pa = off; pa < 3; ++pa) {
            @REAL@ *out = scratch + (pa - off) % 2 * size;
            const int64_t slot = pa * 2 + s[pa];
            shape[pa] = cshape[pa];
            repro_restrict_axis_@SUF@(in, is, out, shape, pa,
                ridx + slot * tmax * m, m, rw + slot * tmax, nterms[slot],
                s[pa]);
            in = out;
            is[0] = shape[1] * shape[2];
            is[1] = shape[2];
        }
        const int64_t cs[3] = {cn[1] * cn[2], cn[2], 1};
        for (int pa = off; pa < 3; ++pa) co += g * cs[pa];
        @REAL@ *C = crs[c] + co;
        for (int64_t a = 0; a < cshape[0]; ++a)
            for (int64_t b = 0; b < cshape[1]; ++b) {
                const @REAL@ *R = in + (a * cshape[1] + b) * cshape[2];
                @REAL@ *row = C + a * cs[0] + b * cs[1];
                if (first)
                    for (int64_t e = 0; e < cshape[2]; ++e) row[e] = wt * R[e];
                else
                    for (int64_t e = 0; e < cshape[2]; ++e)
                        row[e] = row[e] + wt * R[e];
            }
    }
}
"""

#: the PSATD entry, emitted after both precisions of the other entries so
#: that its code sits at the end of the library, away from theirs
_C_PSATD = r"""
/* PSATD's k-space update: one complex sample, as NumPy lays it out. */
typedef struct { @REAL@ re, im; } repro_cx_@SUF@;

static inline repro_cx_@SUF@ repro_cmul_@SUF@(repro_cx_@SUF@ a,
                                              repro_cx_@SUF@ b) {
    const repro_cx_@SUF@ r = {a.re * b.re - a.im * b.im,
                              a.re * b.im + a.im * b.re};
    return r;
}

/* a real table times a complex value: NumPy promotes x to x + 0i, and
   for finite values (x a - 0 b, x b + 0 a) is (x a, x b) but for the
   sign of a zero */
static inline repro_cx_@SUF@ repro_rmul_@SUF@(@REAL@ x, repro_cx_@SUF@ b) {
    const repro_cx_@SUF@ r = {x * b.re, x * b.im};
    return r;
}

static inline repro_cx_@SUF@ repro_cadd_@SUF@(repro_cx_@SUF@ a,
                                              repro_cx_@SUF@ b) {
    const repro_cx_@SUF@ r = {a.re + b.re, a.im + b.im};
    return r;
}

static inline repro_cx_@SUF@ repro_csub_@SUF@(repro_cx_@SUF@ a,
                                              repro_cx_@SUF@ b) {
    const repro_cx_@SUF@ r = {a.re - b.re, a.im - b.im};
    return r;
}

/* k_hat x a at point k of a block, k_hat's rows from the block's first
   point.  An axis the grid lacks has a row of zeros: its terms add a
   signed zero to what PSATDMaxwellSolver._k_cross and _k_dot compute
   without them, which leaves every nonzero value as it is. */
static inline void repro_kcross_@SUF@(repro_cx_@SUF@ *out,
    const @REAL@ *const *kh, int64_t k, const repro_cx_@SUF@ *a) {
    for (int i = 0; i < 3; ++i) {
        const int j = (i + 1) % 3, l = (i + 2) % 3;
        out[i] = repro_csub_@SUF@(repro_rmul_@SUF@(kh[j][k], a[l]),
                                  repro_rmul_@SUF@(kh[l][k], a[j]));
    }
}

/* k_hat . a at point k of a block */
static inline repro_cx_@SUF@ repro_kdot_@SUF@(const @REAL@ *const *kh,
    int64_t k, const repro_cx_@SUF@ *a) {
    return repro_cadd_@SUF@(
        repro_cadd_@SUF@(repro_rmul_@SUF@(kh[0][k], a[0]),
                         repro_rmul_@SUF@(kh[1][k], a[1])),
        repro_rmul_@SUF@(kh[2][k], a[2]));
}

/* Blocks of the PSATD update work on planar scratch, re[c][k] and
   im[c][k] for the k < n points from p0: no loop stores an interleaved
   (a c - b d, a d + b c) pair, the pattern GCC's vectoriser fuses into
   vfmaddsub even under -ffp-contract=off. */
typedef @REAL@ repro_prow_@SUF@[REPRO_PBLOCK];

/* the k_hat row of an axis the grid lacks */
static const repro_prow_@SUF@ repro_pzero_@SUF@;

/* nc raw spectra times their staggering phases, into planar rows */
static __attribute__((noinline)) void repro_psatd_phase_@SUF@(
    const repro_cx_@SUF@ *const *spec, const repro_cx_@SUF@ *const *ph,
    int nc, int64_t p0, int64_t n, repro_prow_@SUF@ *restrict re,
    repro_prow_@SUF@ *restrict im) {
    for (int c = 0; c < nc; ++c) {
        const repro_cx_@SUF@ *s = spec[c] + p0, *f = ph[c] + p0;
        for (int64_t k = 0; k < n; ++k) {
            const repro_cx_@SUF@ r = repro_cmul_@SUF@(s[k], f[k]);
            re[c][k] = r.re;
            im[c][k] = r.im;
        }
    }
}

/* the six new planar rows times their unphase tables, stored over the E
   and B spectra */
static __attribute__((noinline)) void repro_psatd_unphase_@SUF@(
    repro_cx_@SUF@ *const *out, const repro_cx_@SUF@ *const *un, int64_t p0,
    int64_t n, repro_prow_@SUF@ *restrict re, repro_prow_@SUF@ *restrict im) {
    for (int c = 0; c < 6; ++c) {
        const repro_cx_@SUF@ *u = un[c] + p0;
        repro_cx_@SUF@ *o = out[c] + p0;
        for (int64_t k = 0; k < n; ++k) {
            const repro_cx_@SUF@ a = {re[c][k], im[c][k]};
            const repro_cx_@SUF@ r = repro_cmul_@SUF@(a, u[k]);
            re[c][k] = r.re;
            im[c][k] = r.im;
        }
        for (int64_t k = 0; k < n; ++k) {
            o[k].re = re[c][k];
            o[k].im = im[c][k];
        }
    }
}

/* PSATDMaxwellSolver.step between its transforms, over the size points
   of the half spectrum a block at a time: eb = the raw spectra of Ex Ey
   Ez Bx By Bz, overwritten with the new E and cB times their unphase
   tables; jh = those of Jx Jy Jz, read only.  tab: the phases of the
   nine (E, B, J; B's carry c), the unphases of the six, k_hat per axis
   (null past ndim), cos, 1 - cos, then i sin, xb, xe_t, xe_lmt (complex
   on both closures). */
void psatd_update_@SUF@(void *const *eb, const void *const *jh,
    const void *const *tab, int64_t size, int nd) {
    repro_cx_@SUF@ *const *out = (repro_cx_@SUF@ *const *)eb;
    const repro_cx_@SUF@ *const *ph = (const repro_cx_@SUF@ *const *)tab;
    const @REAL@ *const *kh = (const @REAL@ *const *)tab + 15;
    const @REAL@ *cosw = tab[18], *omc = tab[19];
    const repro_cx_@SUF@ *isin = tab[20], *xb = tab[21], *xe_t = tab[22],
                         *xe_lmt = tab[23];
    repro_prow_@SUF@ in_re[9], in_im[9], out_re[6], out_im[6];
    for (int64_t p0 = 0; p0 < size; p0 += REPRO_PBLOCK) {
        const int64_t n = size - p0 < REPRO_PBLOCK ? size - p0 : REPRO_PBLOCK;
        const @REAL@ *kb[3];
        for (int d = 0; d < 3; ++d)
            kb[d] = d < nd ? kh[d] + p0 : repro_pzero_@SUF@;
        repro_psatd_phase_@SUF@((const repro_cx_@SUF@ *const *)eb, ph, 6, p0,
                                n, in_re, in_im);
        repro_psatd_phase_@SUF@((const repro_cx_@SUF@ *const *)jh, ph + 6, 3,
                                p0, n, in_re + 6, in_im + 6);
        for (int64_t k = 0; k < n; ++k) {
            const int64_t p = p0 + k;
            repro_cx_@SUF@ v[9], kxcb[3], src[3], kxs[3];
            for (int c = 0; c < 9; ++c) {
                v[c].re = in_re[c][k];
                v[c].im = in_im[c][k];
            }
            const repro_cx_@SUF@ *E = v, *CB = v + 3, *J = v + 6;
            const repro_cx_@SUF@ is = isin[p];
            const @REAL@ cs = cosw[p];
            repro_kcross_@SUF@(kxcb, kb, k, CB);
            /* (1 - C) k_hat . E + xe_lmt k_hat . J */
            const repro_cx_@SUF@ lng = repro_cadd_@SUF@(
                repro_rmul_@SUF@(omc[p], repro_kdot_@SUF@(kb, k, E)),
                repro_cmul_@SUF@(xe_lmt[p], repro_kdot_@SUF@(kb, k, J)));
            /* k_hat x (xb J - i S E) */
            for (int i = 0; i < 3; ++i)
                src[i] = repro_csub_@SUF@(repro_cmul_@SUF@(xb[p], J[i]),
                                          repro_cmul_@SUF@(is, E[i]));
            repro_kcross_@SUF@(kxs, kb, k, src);
            for (int i = 0; i < 3; ++i) {
                const repro_cx_@SUF@ ne = repro_cadd_@SUF@(
                    repro_cadd_@SUF@(
                        repro_cadd_@SUF@(repro_rmul_@SUF@(cs, E[i]),
                                         repro_cmul_@SUF@(is, kxcb[i])),
                        repro_cmul_@SUF@(xe_t[p], J[i])),
                    repro_rmul_@SUF@(kb[i][k], lng));
                const repro_cx_@SUF@ nb = repro_cadd_@SUF@(
                    repro_rmul_@SUF@(cs, CB[i]), kxs[i]);
                out_re[i][k] = ne.re;
                out_im[i][k] = ne.im;
                out_re[3 + i][k] = nb.re;
                out_im[3 + i][k] = nb.im;
            }
        }
        repro_psatd_unphase_@SUF@(out, ph + 9, p0, n, out_re, out_im);
    }
}
"""

#: grid dtype -> suffix of its entries
_SUFFIX = {np.dtype(np.float64): "f64", np.dtype(np.float32): "f32"}


def c_source() -> str:
    """The field entries' part of the library source (double + float
    variants); :func:`repro.native.c_source` puts it after the particle
    kernels."""
    curl = ", ".join(
        "{%s}" % ", ".join(
            "{%d, %d, %d}" % (FIELD_COMPONENTS.index(src), axis, int(sign))
            for src, axis, sign in CURL_TERMS[comp]
        )
        for comp in FIELD_COMPONENTS
    )
    stagger = ", ".join("{%d, %d, %d}" % STAGGER[comp] for comp in _YEE_ARRAYS)
    parts = [_C_FIELDS_HEADER.replace("@CURL@", curl).replace("@STAGGER@", stagger)]
    for template in (_C_FIELDS, _C_PSATD):
        for real, suf in (("double", "f64"), ("float", "f32")):
            parts.append(template.replace("@REAL@", real).replace("@SUF@", suf))
    return "".join(parts)


@functools.lru_cache(maxsize=None)
def _padded(shape: Tuple[int, ...]):
    """``shape`` with leading 1s to three axes, as the C takes it."""
    return (ctypes.c_int64 * 3)(*(1,) * (3 - len(shape)), *shape)


@functools.lru_cache(maxsize=None)
def _spacing(dx: Tuple[float, ...]):
    """A grid's cell sizes as the C takes them (three doubles)."""
    return (ctypes.c_double * 3)(*dx)


_addressof = ctypes.addressof
_from_buffer = ctypes.c_char.from_buffer


def _refuse(what: str, arr: np.ndarray, shape, dtype, written: bool):
    raise ConfigurationError(
        f"native {what} needs C-contiguous{' writable' if written else ''} "
        f"{dtype} arrays of shape {shape}; got {arr.dtype} {arr.shape} "
        f"(contiguous: {arr.flags.c_contiguous}, writable: "
        f"{arr.flags.writeable})"
    )


def _table(arrays, shape, dtype, what: str, written: bool = True):
    """Pointer table of ``arrays`` (None: a null entry) once each is
    C-contiguous, of ``shape`` and ``dtype`` and, if ``written``,
    writable; ConfigurationError first otherwise, so a bad layout never
    reaches the C.  Built per call from the live arrays."""
    ptrs = []
    for arr in arrays:
        if arr is None:
            ptrs.append(None)
            continue
        if (arr.shape != shape or arr.dtype != dtype
                or not arr.flags.c_contiguous):
            _refuse(what, arr, shape, dtype, written)
        try:  # a ctypes view of the buffer: writable arrays only
            ptrs.append(_addressof(_from_buffer(arr)))
        except TypeError:
            if written:
                _refuse(what, arr, shape, dtype, written)
            ptrs.append(arr.ctypes.data)
    return (ctypes.c_void_p * len(ptrs))(*ptrs)


class TransferPlan:
    """A patch's transfer maps, built once for one ``region_lo``
    (:meth:`MRPatch.transfer_plan` rebuilds it when that changes: a window
    shift, a checkpoint restore).

    For :meth:`FieldBackend.assemble_aux`, per grid axis and stagger the
    prolongation's sample indices and weights (:func:`prolong_map`) plus
    the parent index of the section's first sample; for
    :meth:`FieldBackend.restrict_currents`, per grid axis and stagger the
    restriction's clipped sample indices and per-term weights
    (:func:`restrict_map`), which depend only on the ratio and the grid
    shapes.  Also the scratch both entries write."""

    def __init__(self, patch) -> None:
        parent, fine, coarse = patch.parent, patch.fine, patch.coarse
        ndim, off = parent.ndim, 3 - parent.ndim
        if coarse.guards != fine.guards:
            raise ConfigurationError(
                "native patch transfers need the fine and coarse grids of a "
                f"patch to share their guards ({fine.guards} vs {coarse.guards})"
            )
        self.region_lo = tuple(patch.region_lo)
        #: the grid shapes the maps and the scratch are sized for
        self.shapes = (parent.shape, coarse.shape, fine.shape)
        m = max(fine.n_cells) + 1
        self.imap = np.zeros((3, 2, 2, m), dtype=np.int64)
        self.wmap = np.zeros((3, 2, m), dtype=np.float64)  # repro: allow(PIC007)
        #: the restriction's maps: up to 2 r - 1 terms over the coarse samples
        self.tmax, self.mc = 2 * patch.ratio - 1, max(coarse.n_cells) + 1
        self.ridx = np.zeros((3, 2, self.tmax, self.mc), dtype=np.int64)
        self.rw = np.zeros((3, 2, self.tmax), dtype=np.float64)  # repro: allow(PIC007)
        self.nterms = np.zeros((3, 2), dtype=np.int64)
        origin = [0, 0, 0]
        for d in range(ndim):
            origin[d + off] = parent.guards + patch.region_lo[d]
            # the section must lie inside the parent array
            if origin[d + off] < 0 or (
                origin[d + off] + coarse.n_cells[d] + 1 > parent.shape[d]
            ):
                raise ConfigurationError(
                    f"patch region {patch.region_lo}..{patch.region_hi} "
                    f"reaches outside the parent array on axis {d}"
                )
            for s in (0, 1):
                n_fine = fine.n_cells[d] + 1 - s
                n_coarse = coarse.n_cells[d] + 1 - s
                i0, i1, w = prolong_map(patch.ratio, s, n_fine, n_coarse)
                self.imap[d + off, s, 0, :n_fine] = i0
                self.imap[d + off, s, 1, :n_fine] = i1
                self.wmap[d + off, s, :n_fine] = w
                idx, rw = restrict_map(patch.ratio, s, n_fine, n_coarse)
                self.ridx[d + off, s, :len(rw), :n_coarse] = idx
                self.rw[d + off, s, :len(rw)] = rw
                self.nterms[d + off, s] = len(rw)
        self.m = m
        self.origin = (ctypes.c_int64 * 3)(*origin)
        #: assemble_aux's scratch: one coarse row of the last axis
        self.row = np.empty(coarse.shape[-1], dtype=np.float64)  # repro: allow(PIC007)
        #: restrict_currents' scratch: two fine-sized arrays of either dtype
        self.scratch = np.empty(2 * int(np.prod(fine.shape)), dtype=np.float64)  # repro: allow(PIC007)
        self.ptrs = {
            name: getattr(self, name).ctypes.data
            for name in ("imap", "wmap", "row", "ridx", "rw", "nterms",
                         "scratch")
        }

    def check(self, what: str, patch) -> None:
        """Refuse ``patch`` unless its grids have the shapes the maps and
        the scratch were built for."""
        shapes = (patch.parent.shape, patch.coarse.shape, patch.fine.shape)
        if shapes != self.shapes:
            raise ConfigurationError(
                f"native {what}: maps built for grids of shapes "
                f"{self.shapes}, the patch has {shapes}"
            )


class FieldBackend:
    """ctypes driver of the seven field entries (f64 + f32 symbols)."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        vp, ci, c64, cd = (
            ctypes.c_void_p, ctypes.c_int, ctypes.c_int64, ctypes.c_double,
        )
        signatures = {
            "yee_step": [vp, vp, ci, cd, cd, cd, cd, vp],
            "pml_step": [vp, vp, vp, vp, ci, cd, cd, cd, cd, vp],
            "damp": [vp, vp, ci, vp, c64, ci, ci],
            "assemble_aux": [vp, vp, vp, vp, vp, vp, vp, ci, vp, c64, vp, vp,
                             c64, vp],
            "smooth": [vp, vp, ci, c64, vp],
            "restrict_currents": [vp, vp, vp, vp, ci, c64, vp, vp, vp, c64,
                                  c64, cd, ci, vp],
            "psatd_update": [vp, vp, vp, c64, ci],
        }
        self._fn: Dict[tuple, object] = {}
        for entry, argtypes in signatures.items():
            for dtype, suf in _SUFFIX.items():
                fn = getattr(lib, f"{entry}_{suf}")
                fn.argtypes = argtypes
                fn.restype = None
                self._fn[entry, dtype] = fn

    def yee_step(self, grid, dt: float, c2: float, eps0: float) -> None:
        """Half B, full E, half B on ``grid`` (``MaxwellSolver.step``)."""
        arrays = [grid.fields[name] for name in _YEE_ARRAYS]
        table = _table(arrays, grid.shape, grid.dtype, "yee_step")
        self._fn["yee_step", grid.dtype](
            table, _padded(grid.shape), grid.ndim, dt * 0.5, dt * 1.0, c2,
            eps0, _spacing(grid.dx),
        )

    def pml_step(self, solver, c2: float, eps0: float) -> None:
        """``PMLMaxwellSolver.step`` of ``solver``: its split parts, and
        its decay / weight tables as a pointer table cached per ``dt``
        (those arrays are the solver's own, whatever the field layout)."""
        grid = solver.grid
        coef = solver._native_coeffs.get(solver.dt)
        if coef is None:
            coef = solver._native_coeffs[solver.dt] = _coeff_table(solver)
        fields = _table([grid.fields[name] for name in _YEE_ARRAYS],
                        grid.shape, grid.dtype, "pml_step")
        parts = _table(_split_parts(solver), grid.shape, grid.dtype,
                       "pml_step")
        self._fn["pml_step", grid.dtype](
            fields, parts, coef[0], _padded(grid.shape), grid.ndim,
            solver.dt * 0.5, solver.dt * 1.0, c2, eps0, _spacing(grid.dx),
        )

    def damp(self, grid, axis: int, factors: np.ndarray, low: bool,
             high: bool) -> None:
        """``apply_damping``'s layers along ``axis``: ``factors`` (float64,
        contiguous) from the outer plane inward, at most the axis long."""
        if (factors.dtype != np.float64 or not factors.flags.c_contiguous
                or not 0 <= len(factors) <= grid.shape[axis]):
            raise ConfigurationError(
                f"native damp needs at most {grid.shape[axis]} contiguous "
                f"float64 factors; got {len(factors)} {factors.dtype}"
            )
        arrays = [grid.fields[name] for name in FIELD_COMPONENTS]
        table = _table(arrays, grid.shape, grid.dtype, "damp")
        self._fn["damp", grid.dtype](
            table, _padded(grid.shape), axis + 3 - grid.ndim,
            native._ptr(factors), len(factors), int(low), int(high),
        )

    def assemble_aux(self, patch, plan: TransferPlan) -> None:
        """``aux = fine + prolong(parent section - coarse)`` of ``patch``,
        all six components, from ``plan`` (the maps of its region)."""
        parent, coarse, fine = patch.parent, patch.coarse, patch.fine
        dtype = parent.dtype
        plan.check("assemble_aux", patch)

        def table(grid, shape, written):
            return _table([grid.fields[c] for c in FIELD_COMPONENTS], shape,
                          dtype, "assemble_aux", written)

        ptrs = plan.ptrs
        self._fn["assemble_aux", dtype](
            table(parent, parent.shape, False),
            table(coarse, coarse.shape, False),
            table(fine, fine.shape, False),
            table(patch.aux, fine.shape, True),  # indexed like the fine grid
            _padded(parent.shape), _padded(coarse.shape), _padded(fine.shape),
            parent.ndim, plan.origin, fine.guards, ptrs["imap"],
            ptrs["wmap"], plan.m, ptrs["row"],
        )

    def smooth(self, grid, passes: int) -> None:
        """``passes`` binomial passes along every axis of ``grid``'s Jx,
        Jy, Jz (``smooth_binomial`` per component and axis)."""
        table = _table([grid.fields[c] for c in _J], grid.shape, grid.dtype,
                       "smooth")
        n = _padded(grid.shape)
        save = np.empty(n[1] * n[2], dtype=grid.dtype)  # one plane
        self._fn["smooth", grid.dtype](
            table, n, grid.ndim, passes, _addressof(_from_buffer(save))
        )

    def restrict_currents(self, patch, plan: TransferPlan, weight: float,
                          first: bool) -> None:
        """The coarse companion's J interior of ``patch`` becomes ``weight``
        times the restriction of its fine J (``first``), or adds it."""
        coarse, fine = patch.coarse, patch.fine
        dtype = patch.parent.dtype
        plan.check("restrict_currents", patch)
        fin = _table([fine.fields[c] for c in _J], fine.shape, dtype,
                     "restrict_currents", False)
        crs = _table([coarse.fields[c] for c in _J], coarse.shape, dtype,
                     "restrict_currents")
        ptrs = plan.ptrs
        self._fn["restrict_currents", dtype](
            fin, crs, _padded(fine.shape), _padded(coarse.shape), fine.ndim,
            fine.guards, ptrs["ridx"], ptrs["rw"], ptrs["nterms"], plan.tmax,
            plan.mc, weight, int(first), ptrs["scratch"],
        )

    def psatd_update(self, solver, spectra) -> None:
        """``PSATDMaxwellSolver.step`` of ``solver`` between its transforms:
        ``spectra`` are the raw half spectra of Ex Ey Ez Bx By Bz Jx Jy Jz;
        the first six become the new E and cB, unphased, in place."""
        if len(spectra) != 9:
            raise ConfigurationError(
                f"native psatd_update needs 9 spectra; got {len(spectra)}"
            )
        if solver._native_tables is None:
            solver._native_tables = _psatd_tables(solver)
        shape, dtype = solver.cos.shape, solver.cdtype
        eb = _table(spectra[:6], shape, dtype, "psatd_update")
        jh = _table(spectra[6:], shape, dtype, "psatd_update", False)
        self._fn["psatd_update", solver.rdtype](
            eb, jh, solver._native_tables[0], solver.cos.size,
            solver.grid.ndim,
        )


#: the currents of the smoothing and restriction entries
_J = ("Jx", "Jy", "Jz")
#: the arrays of the Yee and PML entries, in the order the C indexes them
_YEE_ARRAYS = FIELD_COMPONENTS + _J
#: the split parts of the PML entry, (component, curl-term axis) in the
#: order the C indexes them (absent ones are null)
_PART_KEYS = tuple(
    (comp, axis) for comp in FIELD_COMPONENTS for _, axis, _ in CURL_TERMS[comp]
)


def _split_parts(solver):
    """``solver``'s split parts in ``_PART_KEYS`` order, None for a term
    along an axis the grid lacks; a missing one is refused, never a null
    the C would read."""
    ndim = solver.grid.ndim
    try:
        return [solver.split[key] if key[1] < ndim else None
                for key in _PART_KEYS]
    except KeyError as exc:
        raise ConfigurationError(
            f"native pml_step: the solver has no split part {exc}"
        ) from None


def _coeff_table(solver):
    """(pointer table, the arrays it points into) of ``solver``'s decay /
    weight tables per component and curl term: ``dt`` for E, ``dt / 2``
    for B — the two fractions its ``step`` pushes."""
    arrays = []
    for key, part in zip(_PART_KEYS, _split_parts(solver)):
        dt = solver.dt * (1.0 if key[0].startswith("E") else 0.5)
        arrays.extend((None, None) if part is None else solver._coeffs(key, dt))
    table = (ctypes.c_void_p * len(arrays))(
        *(None if arr is None else arr.ctypes.data for arr in arrays)
    )
    return table, arrays


def _psatd_tables(solver):
    """(pointer table, the arrays it points into) of ``solver``'s k-space
    tables in the order ``psatd_update`` reads them, each checked like a
    spectrum: of the half-spectrum shape, C-contiguous, complex or real
    in the solver's precision."""
    shape, real, cplx = solver.cos.shape, solver.rdtype, solver.cdtype
    k_hat = list(solver.k_hat) + [None] * (3 - len(solver.k_hat))
    groups = (
        ([solver._phase[c] for c in _YEE_ARRAYS], cplx),
        ([solver._unphase[c] for c in FIELD_COMPONENTS], cplx),
        (k_hat + [solver.cos, solver._one_minus_cos], real),
        ([solver._isin, solver.xb, solver.xe_t, solver.xe_lmt], cplx),
    )
    arrays, ptrs = [], []
    for group, dtype in groups:
        ptrs.extend(_table(group, shape, dtype, "psatd_update", False))
        arrays.extend(group)
    return (ctypes.c_void_p * len(ptrs))(*ptrs), arrays


@functools.lru_cache(maxsize=None)
def _loaded() -> Optional[FieldBackend]:
    built = native.library()
    return None if isinstance(built, str) else FieldBackend(built[0])


def backend(dtype) -> Optional[FieldBackend]:
    """The field entries for grids of ``dtype``, or None: no library here,
    or a dtype other than float64 / float32 — the site runs NumPy."""
    fields = _loaded()
    return fields if fields is not None and dtype in _SUFFIX else None
