//! Register-blocked tree-convolution kernels for [`KernelMode::Simd`].
//!
//! Two kernels, selected by the input representation:
//!
//! - **Dense, output-blocked** ([`conv_node_dense`]): computes four outputs
//!   of one node at a time, each with its own 4-lane accumulator held in a
//!   128-bit SSE2 register, so every 4-column load of the node's feature row
//!   is reused across four weight rows. On `x86_64`, SSE2 is part of the
//!   baseline ISA — no runtime feature detection; elsewhere the kernel falls
//!   back to the reference per-output dot loop.
//! - **Sparse** ([`conv_node_sparse`]): flips the loop nest of the CSR
//!   kernel. Instead of one branchy `sparse_dot` per output (od passes over
//!   the nonzero list), the stored nonzeros stream sequential multiply-adds
//!   against rows of the *transposed* weights. On `x86_64` this is the
//!   *register-strip* kernel: nonzeros are bucketed by position lane
//!   (`c % 4`, CSR order preserved) and each 32-float output strip holds
//!   all four lanes in eight SSE registers — one weight load per
//!   multiply-add, no scratch-row loads or stores, lane combine done
//!   register-to-register. Elsewhere it is the portable *lane-rows*
//!   fallback: four output-wide lane rows in scratch, one `axpy` per
//!   nonzero, auto-vectorized.
//!
//! ## Bit-identity
//!
//! Both kernels reproduce the reference semantics exactly — per output `j`:
//! four accumulator lanes indexed by column position (`c % 4`) over the
//! unrolled head `c < id - id % 4`, combined as `((s0+s1)+(s2+s3))`, tail
//! columns appended sequentially in ascending order, and the three weight
//! matrices accumulated in self → left → right order before bias and ReLU.
//!
//! For the SSE2 kernel the argument is direct: one `__m128` accumulator *is*
//! the four lanes (`_mm_add_ps`/`_mm_mul_ps` are lane-wise IEEE single
//! operations, identical to the scalar ones), and the blocked loop only
//! changes which outputs share an input load — never the per-output
//! operation sequence. Wider accumulators (8 lanes) or FMA would change the
//! reduction tree or the rounding and are deliberately not used.
//!
//! For the sparse kernels: lane `k` of output `j` receives exactly the
//! products `v·wᵀ[c][j]` of the stored nonzeros with `c % 4 == k`, in
//! ascending column order — the same additions `sparse_dot`'s lane `k`
//! performs for output `j`, because CSR columns are stored ascending and
//! bucketing by `c % 4` preserves that order within each lane. Whether the
//! lane accumulator lives in a scratch row (lane-rows) or an SSE register
//! lane (strip) changes nothing: both start at `+0.0` and receive the same
//! addition sequence. The lane combine and the sequential tail writes then
//! mirror the scalar epilogue element by element. Transposing the weights
//! is a pure data movement (no arithmetic), so feeding `wᵀ[c][j]` instead
//! of `w[j][c]` cannot perturb a single bit.
//!
//! [`KernelMode::Simd`]: crate::kernels::KernelMode::Simd

use crate::mat::{dot, Mat};

/// Transposed copies of one tree-conv layer's three weight matrices
/// (`id × od` each), kept in the caller's workspace so the sparse kernels
/// can stream weight *rows* per feature column. Rebuilt only when the
/// layer's weight-state stamp changes (see `WeightsGen` in the `param`
/// module) — at inference the weights are static, so after the first call
/// the transpose is pure reuse: zero copies, zero allocation. The rebuild
/// itself costs `3·id·od` strided copies.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvTransposes {
    /// Stamp of the weight state the buffers were built from (0 = never).
    key: u64,
    wst: Mat,
    wlt: Mat,
    wrt: Mat,
}

impl ConvTransposes {
    /// Fills the transposes from the layer's row-major weights, skipping
    /// the work entirely when `key` matches the last build (stamps are
    /// globally unique per weight state, so a match proves the sources are
    /// unchanged).
    pub(crate) fn prepare(&mut self, key: u64, ws: &Mat, wl: &Mat, wr: &Mat) {
        if self.key == key {
            debug_assert_eq!(
                (self.wst.rows, self.wst.cols),
                (ws.cols, ws.rows),
                "stamp matched but shapes differ"
            );
            return;
        }
        for (dst, src) in [
            (&mut self.wst, ws),
            (&mut self.wlt, wl),
            (&mut self.wrt, wr),
        ] {
            let (od, id) = (src.rows, src.cols);
            dst.resize_in_place(id, od);
            for c in 0..id {
                let drow = &mut dst.data[c * od..(c + 1) * od];
                for (j, d) in drow.iter_mut().enumerate() {
                    *d = src.data[j * id + c];
                }
            }
        }
        self.key = key;
    }

    /// The three transposed matrices as raw slices, self/left/right order.
    pub(crate) fn slices(&self) -> [&[f32]; 3] {
        [&self.wst.data, &self.wlt.data, &self.wrt.data]
    }

    /// Heap bytes held by the transpose buffers.
    pub(crate) fn bytes(&self) -> usize {
        (self.wst.data.capacity() + self.wlt.data.capacity() + self.wrt.data.capacity())
            * std::mem::size_of::<f32>()
    }
}

/// Per-thread scratch of the sparse convolution kernels: `5·od` of row
/// scratch (the portable lane-rows kernel uses four lane rows plus a combine
/// row; the register-strip kernel only the combine row) and the four
/// per-lane nonzero buckets of the strip kernel. Grows to the largest shape
/// seen and is then allocation-free.
pub(crate) struct SparseScratch {
    rows: Vec<f32>,
    buckets: [Vec<(u32, f32)>; 4],
}

thread_local! {
    /// One scratch per thread — the row-parallel dispatch means concurrent
    /// node blocks, each on its own pool thread.
    static SCRATCH: std::cell::RefCell<SparseScratch> = const {
        std::cell::RefCell::new(SparseScratch {
            rows: Vec::new(),
            buckets: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
        })
    };
}

/// Runs `f` with this thread's sparse-kernel scratch, row scratch sized to
/// `5 * od`.
pub(crate) fn with_sparse_scratch<R>(od: usize, f: impl FnOnce(&mut SparseScratch) -> R) -> R {
    SCRATCH.with(|l| {
        let mut s = l.borrow_mut();
        if s.rows.len() < 5 * od {
            s.rows.resize(5 * od, 0.0);
        }
        f(&mut s)
    })
}

/// One node of the dense fused convolution:
/// `out[j] = relu(dot(xi, ws_j) + dot(xl, wl_j) + dot(xr, wr_j) + bias[j])`,
/// output-blocked four at a time (see the module docs). `ws`/`wl`/`wr` are
/// the row-major `od × id` weights; `out` is the node's `od`-wide output row.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_node_dense(
    xi: &[f32],
    xl: Option<&[f32]>,
    xr: Option<&[f32]>,
    ws: &[f32],
    wl: &[f32],
    wr: &[f32],
    bias: &[f32],
    id: usize,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is unconditionally available on x86_64.
        unsafe { conv_node_dense_sse2(xi, xl, xr, ws, wl, wr, bias, id, out) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        conv_node_dense_ref(xi, xl, xr, ws, wl, wr, bias, id, out)
    }
}

/// The reference per-output loop: one `dot` per output per present child.
/// `KernelMode::Scalar`'s dense kernel, the tail of the blocked kernel, and
/// the blocked kernel itself off `x86_64`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_node_dense_ref(
    xi: &[f32],
    xl: Option<&[f32]>,
    xr: Option<&[f32]>,
    ws: &[f32],
    wl: &[f32],
    wr: &[f32],
    bias: &[f32],
    id: usize,
    out: &mut [f32],
) {
    for (j, (o, &bj)) in out.iter_mut().zip(bias).enumerate() {
        let mut s = dot(xi, &ws[j * id..(j + 1) * id]);
        if let Some(x) = xl {
            s += dot(x, &wl[j * id..(j + 1) * id]);
        }
        if let Some(x) = xr {
            s += dot(x, &wr[j * id..(j + 1) * id]);
        }
        *o = (s + bj).max(0.0);
    }
}

/// The SSE2 output-blocked kernel: four outputs per iteration, one 4-lane
/// accumulator register each, sharing every 4-column load of the input row.
/// Per-output accumulation order (lanes, lane combine, column tail, matrix
/// order) is exactly the reference's — see the module docs.
///
/// # Safety
///
/// Requires SSE2 (baseline on `x86_64`). All pointer arithmetic stays inside
/// the passed slices: `w*` hold `out.len() * id` elements and `x*` hold `id`.
#[cfg(target_arch = "x86_64")]
#[allow(clippy::too_many_arguments)]
unsafe fn conv_node_dense_sse2(
    xi: &[f32],
    xl: Option<&[f32]>,
    xr: Option<&[f32]>,
    ws: &[f32],
    wl: &[f32],
    wr: &[f32],
    bias: &[f32],
    id: usize,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let od = out.len();
    let main_j = od - od % 4;
    let main4 = id - id % 4;
    let mut j = 0;
    while j < main_j {
        // tot[k] accumulates output j+k across the three weight matrices in
        // self → left → right order, exactly like the reference's `s`.
        let mut tot = [0.0f32; 4];
        for (w, xo) in [(ws, Some(xi)), (wl, xl), (wr, xr)] {
            let Some(x) = xo else { continue };
            let mut a0 = _mm_setzero_ps();
            let mut a1 = _mm_setzero_ps();
            let mut a2 = _mm_setzero_ps();
            let mut a3 = _mm_setzero_ps();
            let w0 = w.as_ptr().add(j * id);
            let w1 = w.as_ptr().add((j + 1) * id);
            let w2 = w.as_ptr().add((j + 2) * id);
            let w3 = w.as_ptr().add((j + 3) * id);
            let mut c = 0;
            while c < main4 {
                let xv = _mm_loadu_ps(x.as_ptr().add(c));
                a0 = _mm_add_ps(a0, _mm_mul_ps(xv, _mm_loadu_ps(w0.add(c))));
                a1 = _mm_add_ps(a1, _mm_mul_ps(xv, _mm_loadu_ps(w1.add(c))));
                a2 = _mm_add_ps(a2, _mm_mul_ps(xv, _mm_loadu_ps(w2.add(c))));
                a3 = _mm_add_ps(a3, _mm_mul_ps(xv, _mm_loadu_ps(w3.add(c))));
                c += 4;
            }
            let accs = [a0, a1, a2, a3];
            let mut l = [0.0f32; 4];
            for (k, acc) in accs.into_iter().enumerate() {
                _mm_storeu_ps(l.as_mut_ptr(), acc);
                let mut s = (l[0] + l[1]) + (l[2] + l[3]);
                for cc in main4..id {
                    s += x[cc] * w[(j + k) * id + cc];
                }
                tot[k] += s;
            }
        }
        for k in 0..4 {
            out[j + k] = (tot[k] + bias[j + k]).max(0.0);
        }
        j += 4;
    }
    // od % 4 tail outputs: the reference loop over the remaining rows.
    let w = main_j * id;
    conv_node_dense_ref(
        xi,
        xl,
        xr,
        &ws[w..],
        &wl[w..],
        &wr[w..],
        &bias[main_j..],
        id,
        &mut out[main_j..],
    );
}

/// One node of the sparse fused convolution (see the module docs). `rows`
/// holds the node's and its children's CSR rows in self/left/right order
/// (`None` = missing child); `wts` are the matching transposed weights
/// (`id × od` row-major); `scratch` is this thread's kernel scratch; `out`
/// is the node's output row. Dispatches to the register-strip kernel on
/// `x86_64` and the portable lane-rows kernel elsewhere — bit-identical
/// either way.
pub(crate) fn conv_node_sparse(
    rows: [Option<(&[u32], &[f32])>; 3],
    wts: [&[f32]; 3],
    bias: &[f32],
    id: usize,
    od: usize,
    scratch: &mut SparseScratch,
    out: &mut [f32],
) {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: SSE2 is unconditionally available on x86_64.
        unsafe { conv_node_sparse_strips(rows, wts, bias, id, od, scratch, out) }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        conv_node_sparse_lanes(rows, wts, bias, id, od, &mut scratch.rows, out)
    }
}

/// The register-strip sparse kernel: per weight matrix, the row's head
/// nonzeros are bucketed by lane (`c % 4`, CSR order preserved), then each
/// 32-float output strip accumulates every lane's nonzeros in eight 4-lane
/// SSE registers (zero-initialized — no lane-row fills) and the lane combine
/// happens register-to-register before one store per strip. One weight load
/// per multiply-add instead of the lane-row kernel's load/load/store
/// triple — the sparse path's throughput win on wide output rows. The
/// per-(lane, output) addition sequence is exactly the lane-rows kernel's,
/// so bits never change (see the module docs).
///
/// # Safety
///
/// Requires SSE2 (baseline on `x86_64`). Stored CSR columns are `< id` and
/// each `wts` slice holds `id * od` elements, so every weight access
/// `c * od + j` with `j < od` stays in bounds; `scratch.rows` holds at
/// least `5 * od` and `out` exactly `od`.
#[cfg(target_arch = "x86_64")]
unsafe fn conv_node_sparse_strips(
    rows: [Option<(&[u32], &[f32])>; 3],
    wts: [&[f32]; 3],
    bias: &[f32],
    id: usize,
    od: usize,
    scratch: &mut SparseScratch,
    out: &mut [f32],
) {
    use std::arch::x86_64::*;
    let main4 = id - id % 4;
    let mut first = true;
    for (wt, row) in wts.into_iter().zip(rows) {
        let Some((cols, vals)) = row else { continue };
        let tmp = &mut scratch.rows[4 * od..5 * od];
        let buckets = &mut scratch.buckets;
        for b in buckets.iter_mut() {
            b.clear();
        }
        let mut k = 0;
        while k < cols.len() && (cols[k] as usize) < main4 {
            let c = cols[k];
            buckets[(c % 4) as usize].push((c, vals[k]));
            k += 1;
        }
        let wp = wt.as_ptr();
        let mut j = 0;
        while j + 32 <= od {
            let tp = tmp.as_mut_ptr().add(j);
            let mut l = [[_mm_setzero_ps(); 8]; 4];
            for (lane, b) in l.iter_mut().zip(buckets.iter()) {
                for &(c, v) in b.iter() {
                    let w = wp.add(c as usize * od + j);
                    let vv = _mm_set1_ps(v);
                    for (s, acc) in lane.iter_mut().enumerate() {
                        *acc = _mm_add_ps(*acc, _mm_mul_ps(vv, _mm_loadu_ps(w.add(4 * s))));
                    }
                }
            }
            let [l0, l1, l2, l3] = l;
            for (s, ((a0, a1), (a2, a3))) in l0
                .into_iter()
                .zip(l1)
                .zip(l2.into_iter().zip(l3))
                .enumerate()
            {
                let c01 = _mm_add_ps(a0, a1);
                let c23 = _mm_add_ps(a2, a3);
                _mm_storeu_ps(tp.add(4 * s), _mm_add_ps(c01, c23));
            }
            j += 32;
        }
        // Sub-strip output tail: per-lane scalar accumulators per element —
        // the same per-(lane, j) add sequence, one element at a time.
        while j < od {
            let mut l = [0.0f32; 4];
            for (lk, b) in l.iter_mut().zip(buckets.iter()) {
                for &(c, v) in b.iter() {
                    *lk += v * *wp.add(c as usize * od + j);
                }
            }
            tmp[j] = (l[0] + l[1]) + (l[2] + l[3]);
            j += 1;
        }
        // Tail columns (`c >= main4`), ascending, one sequential add each —
        // the scalar kernel's tail order, replicated per output element.
        while k < cols.len() {
            let c = cols[k] as usize;
            let v = vals[k];
            let wrow = &wt[c * od..(c + 1) * od];
            for (t, &w) in tmp.iter_mut().zip(wrow) {
                *t += v * w;
            }
            k += 1;
        }
        if first {
            out.copy_from_slice(tmp);
            first = false;
        } else {
            for (o, &t) in out.iter_mut().zip(tmp.iter()) {
                *o += t;
            }
        }
    }
    for (o, &bj) in out.iter_mut().zip(bias) {
        *o = (*o + bj).max(0.0);
    }
}

/// The portable lane-rows sparse kernel (non-`x86_64` fallback): four
/// output-wide lane rows in scratch, one sequential axpy against a
/// transposed weight row per stored nonzero. `lanes` is `5 * od` scratch
/// (four lane rows + the combine row).
#[cfg(not(target_arch = "x86_64"))]
fn conv_node_sparse_lanes(
    rows: [Option<(&[u32], &[f32])>; 3],
    wts: [&[f32]; 3],
    bias: &[f32],
    id: usize,
    od: usize,
    lanes: &mut [f32],
    out: &mut [f32],
) {
    let main4 = id - id % 4;
    let mut first = true;
    for (wt, row) in wts.into_iter().zip(rows) {
        let Some((cols, vals)) = row else { continue };
        let (lane_rows, tmp) = lanes.split_at_mut(4 * od);
        lane_rows.fill(0.0);
        let mut k = 0;
        // Head: route each stored nonzero to its positional lane row.
        while k < cols.len() && (cols[k] as usize) < main4 {
            let c = cols[k] as usize;
            let v = vals[k];
            let lane = &mut lane_rows[(c % 4) * od..(c % 4 + 1) * od];
            let wrow = &wt[c * od..(c + 1) * od];
            for (l, &w) in lane.iter_mut().zip(wrow) {
                *l += v * w;
            }
            k += 1;
        }
        // Lane combine, elementwise across the output row.
        {
            let (l0, rest) = lane_rows.split_at(od);
            let (l1, rest) = rest.split_at(od);
            let (l2, l3) = rest.split_at(od);
            for (j, t) in tmp.iter_mut().enumerate() {
                *t = (l0[j] + l1[j]) + (l2[j] + l3[j]);
            }
        }
        // Tail columns, ascending, one sequential add each — the scalar
        // kernel's tail order, replicated per output element.
        while k < cols.len() {
            let c = cols[k] as usize;
            let v = vals[k];
            let wrow = &wt[c * od..(c + 1) * od];
            for (t, &w) in tmp.iter_mut().zip(wrow) {
                *t += v * w;
            }
            k += 1;
        }
        if first {
            out.copy_from_slice(&tmp[..od]);
            first = false;
        } else {
            for (o, &t) in out.iter_mut().zip(tmp.iter()) {
                *o += t;
            }
        }
    }
    for (o, &bj) in out.iter_mut().zip(bias) {
        *o = (*o + bj).max(0.0);
    }
}
