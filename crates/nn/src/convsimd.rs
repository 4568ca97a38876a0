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
//!   (`c % 4`, CSR order preserved) and each output strip holds all four
//!   lanes in vector registers — one weight load per multiply-add, no
//!   scratch-row loads or stores, lane combine done register-to-register.
//!   Its body is written once, generic over the register type, and compiled
//!   twice: with eight 4-float SSE2 registers per lane (32-float strips)
//!   for every `x86_64` CPU, and with four 16-float AVX-512 registers per
//!   lane (64-float strips) inside a `#[target_feature(enable =
//!   "avx512f")]` wrapper. Each call picks the AVX-512 instance when
//!   `is_x86_feature_detected!` finds AVX-512F; [`conv_kernel`] names the
//!   one this host runs. Elsewhere it is the portable *lane-rows*
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
//! operation sequence.
//!
//! Which way a kernel widens decides whether the bits can move. Widening
//! along *outputs* is bit-safe: a wider register, or more of them, covers
//! more outputs `j` per instruction, and no operation ever combines two
//! outputs, so each output's sequence of lane-wise IEEE operations is
//! unchanged — this is how the AVX-512 strip instance goes sixteen lanes
//! wide. Widening along *columns* (8 accumulator lanes per output instead
//! of 4) changes the reduction tree, and FMA drops the product's rounding;
//! either changes the bits, so neither is used. Rust never contracts a
//! multiply and an add into an FMA, and SSE and AVX-512 obey the same
//! MXCSR rounding mode.
//!
//! For the sparse kernels: lane `k` of output `j` receives exactly the
//! products `v·wᵀ[c][j]` of the stored nonzeros with `c % 4 == k`, in
//! ascending column order — the same additions `sparse_dot`'s lane `k`
//! performs for output `j`, because CSR columns are stored ascending and
//! bucketing by `c % 4` preserves that order within each lane. Whether the
//! lane accumulator lives in a scratch row (lane-rows) or a register lane
//! of either strip instance changes nothing: each starts at `+0.0` and
//! receives the same addition sequence. The lane combine and the
//! sequential tail writes then mirror the scalar epilogue element by
//! element. Transposing the weights is a pure data movement (no
//! arithmetic), so feeding `wᵀ[c][j]` instead of `w[j][c]` cannot perturb
//! a single bit.
//!
//! [`KernelMode::Simd`]: crate::kernels::KernelMode::Simd

use crate::mat::{dot, Mat};
use crate::sparse::sparse_dot;

/// Transposed copies of one tree-conv layer's three weight matrices
/// (`id × od` each), so the sparse kernels can stream weight *rows* per
/// feature column. The layer owns them (see `TreeConvLayer` in the `tcn`
/// module): the first SIMD sparse forward after a weight change builds
/// them, `adam_step` and a trainer's fused fold refill them in place, and
/// every other weight write drops them. At inference the weights are
/// static, so after the first call the transposes are pure reuse: zero
/// copies, zero allocation. A fill costs `3·id·od` strided copies.
#[derive(Debug, Clone, Default)]
pub(crate) struct ConvTransposes {
    wst: Mat,
    wlt: Mat,
    wrt: Mat,
}

impl ConvTransposes {
    /// Refills the transposes from the layer's row-major weights, reusing
    /// the buffers' capacity.
    pub(crate) fn fill(&mut self, ws: &Mat, wl: &Mat, wr: &Mat) {
        for (dst, src) in [
            (&mut self.wst, ws),
            (&mut self.wlt, wl),
            (&mut self.wrt, wr),
        ] {
            src.transpose_into(dst);
        }
    }

    /// The three transposed matrices as raw slices, self/left/right order.
    pub(crate) fn slices(&self) -> [&[f32]; 3] {
        [&self.wst.data, &self.wlt.data, &self.wrt.data]
    }

    /// The three transposed matrices, self/left/right order, for a fold
    /// that refills them in place.
    pub(crate) fn mats_mut(&mut self) -> [&mut Mat; 3] {
        [&mut self.wst, &mut self.wlt, &mut self.wrt]
    }

    /// Heap bytes held by the transpose buffers.
    #[cfg(test)]
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
/// is the node's output row. Dispatches to the AVX-512 instance of the
/// register-strip kernel on `x86_64` CPUs with AVX-512F, to its SSE2
/// instance on other `x86_64` CPUs, and to the portable lane-rows kernel
/// elsewhere — bit-identical every way.
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
        if avx512() {
            // SAFETY: `avx512()` has just detected AVX-512F.
            unsafe { conv_node_sparse_avx512(rows, wts, bias, id, od, scratch, out) }
        } else {
            // SAFETY: SSE2 is unconditionally available on x86_64.
            unsafe { conv_node_sparse_sse2(rows, wts, bias, id, od, scratch, out) }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        conv_node_sparse_lanes(rows, wts, bias, id, od, &mut scratch.rows, out)
    }
}

/// The scalar CSR kernel of one node, `KernelMode::Scalar`'s sparse
/// forward and the reference of the strip and lane-rows kernels: one
/// [`sparse_dot`] per output per present row against the row-major
/// `od × id` weights, accumulated self → left → right, then bias and ReLU.
#[allow(clippy::too_many_arguments)]
pub(crate) fn conv_node_sparse_ref(
    xi: (&[u32], &[f32]),
    xl: Option<(&[u32], &[f32])>,
    xr: Option<(&[u32], &[f32])>,
    ws: &[f32],
    wl: &[f32],
    wr: &[f32],
    bias: &[f32],
    id: usize,
    out: &mut [f32],
) {
    for (j, (o, &bj)) in out.iter_mut().zip(bias).enumerate() {
        let mut s = sparse_dot(xi.0, xi.1, &ws[j * id..(j + 1) * id]);
        if let Some((cl, vl)) = xl {
            s += sparse_dot(cl, vl, &wl[j * id..(j + 1) * id]);
        }
        if let Some((cr, vr)) = xr {
            s += sparse_dot(cr, vr, &wr[j * id..(j + 1) * id]);
        }
        *o = (s + bj).max(0.0);
    }
}

/// True when this CPU runs the AVX-512 instance of the register-strip
/// kernel. `is_x86_feature_detected!` caches its answer after the first
/// call.
#[cfg(target_arch = "x86_64")]
#[inline]
fn avx512() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Which sparse tree-convolution kernel [`KernelMode::Simd`] runs on this
/// host: `"avx512"` (the 64-float-strip instance of the register-strip
/// kernel, on `x86_64` CPUs with AVX-512F), `"sse2"` (its 32-float-strip
/// instance, on every other `x86_64` CPU) or `"portable"` (the lane-rows
/// kernel, off `x86_64`). All three compute the same bits; the name says
/// which one a run's timings covered.
///
/// [`KernelMode::Simd`]: crate::kernels::KernelMode::Simd
pub fn conv_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if avx512() {
            "avx512"
        } else {
            "sse2"
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "portable"
    }
}

/// One vector register of the register-strip kernel: `N` `f32` lanes and
/// the lane-wise IEEE single operations the kernel uses. There is no fused
/// multiply-add: `mul` then `add` rounds twice, like the scalar kernels.
///
/// # Safety
///
/// Every method needs the instruction set its register type belongs to,
/// and `load`/`store` need `N` readable/writable floats at the pointer.
#[cfg(target_arch = "x86_64")]
trait F32Lanes: Copy {
    /// Floats per register.
    const N: usize;
    unsafe fn zero() -> Self;
    unsafe fn splat(v: f32) -> Self;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn add(self, b: Self) -> Self;
    unsafe fn mul(self, b: Self) -> Self;
    unsafe fn store(self, p: *mut f32);
}

#[cfg(target_arch = "x86_64")]
impl F32Lanes for std::arch::x86_64::__m128 {
    const N: usize = 4;
    #[inline(always)]
    unsafe fn zero() -> Self {
        std::arch::x86_64::_mm_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        std::arch::x86_64::_mm_set1_ps(v)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        std::arch::x86_64::_mm_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        std::arch::x86_64::_mm_add_ps(self, b)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        std::arch::x86_64::_mm_mul_ps(self, b)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        std::arch::x86_64::_mm_storeu_ps(p, self)
    }
}

#[cfg(target_arch = "x86_64")]
impl F32Lanes for std::arch::x86_64::__m512 {
    const N: usize = 16;
    #[inline(always)]
    unsafe fn zero() -> Self {
        std::arch::x86_64::_mm512_setzero_ps()
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        std::arch::x86_64::_mm512_set1_ps(v)
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        std::arch::x86_64::_mm512_loadu_ps(p)
    }
    #[inline(always)]
    unsafe fn add(self, b: Self) -> Self {
        std::arch::x86_64::_mm512_add_ps(self, b)
    }
    #[inline(always)]
    unsafe fn mul(self, b: Self) -> Self {
        std::arch::x86_64::_mm512_mul_ps(self, b)
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        std::arch::x86_64::_mm512_storeu_ps(p, self)
    }
}

/// The register-strip kernel's SSE2 instance: 32-float strips, eight
/// 4-float registers per lane.
///
/// # Safety
///
/// Requires SSE2 (baseline on `x86_64`) and the slice contract of
/// [`conv_node_sparse_strips`].
#[cfg(target_arch = "x86_64")]
unsafe fn conv_node_sparse_sse2(
    rows: [Option<(&[u32], &[f32])>; 3],
    wts: [&[f32]; 3],
    bias: &[f32],
    id: usize,
    od: usize,
    scratch: &mut SparseScratch,
    out: &mut [f32],
) {
    conv_node_sparse_strips::<std::arch::x86_64::__m128, 8>(rows, wts, bias, id, od, scratch, out)
}

/// The register-strip kernel's AVX-512 instance: 64-float strips, four
/// 16-float registers per lane.
///
/// # Safety
///
/// Requires AVX-512F and the slice contract of [`conv_node_sparse_strips`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn conv_node_sparse_avx512(
    rows: [Option<(&[u32], &[f32])>; 3],
    wts: [&[f32]; 3],
    bias: &[f32],
    id: usize,
    od: usize,
    scratch: &mut SparseScratch,
    out: &mut [f32],
) {
    conv_node_sparse_strips::<std::arch::x86_64::__m512, 4>(rows, wts, bias, id, od, scratch, out)
}

/// The register-strip sparse kernel, written once and compiled into each
/// instance: per weight matrix, the row's head nonzeros are bucketed by
/// lane (`c % 4`, CSR order preserved), then each `R · V::N`-float output
/// strip accumulates every lane's nonzeros in `R` registers per lane
/// (zero-initialized — no lane-row fills) and the lane combine happens
/// register-to-register before one store per register. One weight load per
/// multiply-add instead of the lane-row kernel's load/load/store triple —
/// the sparse path's throughput win on wide output rows. The
/// per-(lane, output) addition sequence is exactly the lane-rows kernel's
/// whatever the strip width, so bits never change (see the module docs).
///
/// # Safety
///
/// Requires the instruction set of `V`. Stored CSR columns are `< id` and
/// each `wts` slice holds `id * od` elements, so every weight access
/// `c * od + j` with `j < od` stays in bounds; `scratch.rows` holds at
/// least `5 * od` and `out` exactly `od`.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
unsafe fn conv_node_sparse_strips<V: F32Lanes, const R: usize>(
    rows: [Option<(&[u32], &[f32])>; 3],
    wts: [&[f32]; 3],
    bias: &[f32],
    id: usize,
    od: usize,
    scratch: &mut SparseScratch,
    out: &mut [f32],
) {
    let strip = R * V::N;
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
        while j + strip <= od {
            let tp = tmp.as_mut_ptr().add(j);
            let mut l = [[V::zero(); R]; 4];
            for (lane, b) in l.iter_mut().zip(buckets.iter()) {
                for &(c, v) in b.iter() {
                    let w = wp.add(c as usize * od + j);
                    let vv = V::splat(v);
                    for (s, acc) in lane.iter_mut().enumerate() {
                        *acc = acc.add(vv.mul(V::load(w.add(V::N * s))));
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
                a0.add(a1).add(a2.add(a3)).store(tp.add(V::N * s));
            }
            j += strip;
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

/// The strip kernel's instances exist only on `x86_64`; elsewhere the tree
/// convolution tests hold the lane-rows kernel to the scalar one.
#[cfg(all(test, target_arch = "x86_64"))]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One CSR row: ascending columns and their stored values.
    type Row = (Vec<u32>, Vec<f32>);

    /// CSR rows over `id` columns that reach every branch of the strip
    /// kernel: no nonzeros; only tail columns (`c >= id - id % 4`); one
    /// lane only; uneven lanes (lane 0 full, one lane-3 entry, a tail
    /// column); and random rows with negative values and stored `-0.0`.
    fn rows(id: usize, rng: &mut StdRng) -> Vec<Row> {
        let main4 = id - id % 4;
        let mut out: Vec<Vec<u32>> = vec![Vec::new()];
        out.push((main4 as u32..id as u32).collect());
        out.push((1..main4 as u32).step_by(4).collect());
        let mut uneven: Vec<u32> = (0..main4 as u32).step_by(4).collect();
        if main4 >= 4 {
            uneven.push(3);
        }
        uneven.extend((main4 < id).then_some(id as u32 - 1));
        uneven.sort_unstable();
        uneven.dedup();
        out.push(uneven);
        for _ in 0..3 {
            let mut cols: Vec<u32> = (0..13).map(|_| rng.gen_range(0..id) as u32).collect();
            cols.sort_unstable();
            cols.dedup();
            out.push(cols);
        }
        out.into_iter()
            .map(|cols| {
                let vals = cols
                    .iter()
                    .map(|_| match rng.gen_range(0..8) {
                        0 => -0.0,
                        1 => rng.gen_range(-2.0..-0.5f32),
                        _ => rng.gen_range(-1.5..1.5f32),
                    })
                    .collect();
                (cols, vals)
            })
            .collect()
    }

    /// The dense `id`-wide row of a CSR row.
    fn dense(row: &Row, id: usize) -> Vec<f32> {
        let mut x = vec![0.0; id];
        for (&c, &v) in row.0.iter().zip(&row.1) {
            x[c as usize] = v;
        }
        x
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every strip-kernel instance this CPU can run must equal the scalar
    /// CSR kernel and the dense reference bit for bit, over output widths
    /// on both sides of every strip and register boundary, input widths
    /// with and without tail columns, rows with no nonzeros or only tail
    /// columns, uneven lane buckets, negative values and `-0.0`, and nodes
    /// missing either child or both. The SSE2 instance always runs; the
    /// AVX-512 instance runs where the CPU has AVX-512F.
    #[test]
    fn strip_instances_match_the_scalar_kernels_bitwise() {
        let avx512 = avx512();
        println!(
            "strip instances checked: sse2{}",
            if avx512 {
                ", avx512"
            } else {
                " (no AVX-512F on this CPU)"
            }
        );
        let mut rng = StdRng::seed_from_u64(97);
        let mut checked = 0usize;
        for od in [1, 4, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129, 200] {
            for id in [3, 4, 5, 127, 128, 169] {
                let w: Vec<Mat> = (0..3).map(|_| Mat::randn(od, id, 0.5, &mut rng)).collect();
                let bias: Vec<f32> = (0..od).map(|_| rng.gen_range(-0.5..0.5f32)).collect();
                let mut wt = ConvTransposes::default();
                wt.fill(&w[0], &w[1], &w[2]);
                let rows = rows(id, &mut rng);
                let n = rows.len();
                let csr = |k: usize| (rows[k].0.as_slice(), rows[k].1.as_slice());
                for i in 0..n {
                    let (l, r) = (Some(csr((i + 1) % n)), Some(csr((i + 2) % n)));
                    for [xl, xr] in [[None, None], [l, None], [None, r], [l, r]] {
                        let node = [Some(csr(i)), xl, xr];
                        let mut scalar = vec![f32::NAN; od];
                        conv_node_sparse_ref(
                            csr(i),
                            xl,
                            xr,
                            &w[0].data,
                            &w[1].data,
                            &w[2].data,
                            &bias,
                            id,
                            &mut scalar,
                        );
                        let dx = |k: Option<usize>| k.map(|k| dense(&rows[k], id));
                        let (dl, dr) = (dx(xl.map(|_| (i + 1) % n)), dx(xr.map(|_| (i + 2) % n)));
                        let mut reference = vec![f32::NAN; od];
                        conv_node_dense_ref(
                            &dense(&rows[i], id),
                            dl.as_deref(),
                            dr.as_deref(),
                            &w[0].data,
                            &w[1].data,
                            &w[2].data,
                            &bias,
                            id,
                            &mut reference,
                        );
                        assert_eq!(
                            bits(&scalar),
                            bits(&reference),
                            "scalar CSR vs dense, od {od} id {id} row {i}"
                        );
                        with_sparse_scratch(od, |scratch| {
                            let mut out = vec![f32::NAN; od];
                            // SAFETY: SSE2 is baseline on x86_64; `wt` holds
                            // `id * od` floats per matrix, every stored
                            // column is `< id`, and `out` is `od` wide.
                            unsafe {
                                conv_node_sparse_sse2(
                                    node,
                                    wt.slices(),
                                    &bias,
                                    id,
                                    od,
                                    scratch,
                                    &mut out,
                                )
                            };
                            assert_eq!(bits(&out), bits(&scalar), "sse2, od {od} id {id} row {i}");
                            if avx512 {
                                let mut out = vec![f32::NAN; od];
                                // SAFETY: `avx512()` detected AVX-512F; the
                                // slices are as for the SSE2 call.
                                unsafe {
                                    conv_node_sparse_avx512(
                                        node,
                                        wt.slices(),
                                        &bias,
                                        id,
                                        od,
                                        scratch,
                                        &mut out,
                                    )
                                };
                                assert_eq!(
                                    bits(&out),
                                    bits(&scalar),
                                    "avx512, od {od} id {id} row {i}"
                                );
                            }
                        });
                        checked += 1;
                    }
                }
            }
        }
        println!("{checked} nodes checked");
    }
}
