//! Runtime-selectable tree-convolution kernels: the scalar 4-lane reference
//! kernels vs the register-blocked kernels of the `convsimd` module.
//!
//! The mode selects only the tree convolution: conv1's CSR forward (the
//! scalar sparse dot vs the register-strip kernel, whose SSE2 or AVX-512
//! instance [`crate::conv_kernel`] names), the dense per-node
//! forward (the reference per-output dot loop vs the output-blocked SSE2
//! kernel), and conv2's sparse/dense density gate in the forest forward.
//! Everything else runs one kernel in both modes: the four-lane `dot`
//! under every `matmul_nt`, the plain `axpy` under every backward matmul,
//! and the elementwise epilogues (ReLU clamp, softmax scaling). Hand-
//! unrolled versions of those measured no faster than the plain loops,
//! which the compiler vectorizes itself.
//!
//! The SIMD kernels are **bit-identical** to the reference by construction:
//! they keep the reference's four accumulator lanes and feed each lane the
//! same elements in the same order (lane 0 still sees
//! `x[0]·y[0], x[4]·y[4], x[8]·y[8], …` sequentially) and combine them as
//! `((s0 + s1) + (s2 + s3)) + tail`. The blocked kernels keep one 4-lane
//! accumulator per output (a 128-bit vector register holds exactly the four
//! lanes) and only restructure *which outputs* share each input load.
//! Lane-wise IEEE adds/multiplies are the same operations in the same order,
//! so not a single rounding step changes. An 8-accumulator dot or an FMA
//! kernel would be faster still but changes the reduction tree or the
//! rounding — and with it the bits — so they are deliberately not offered.
//!
//! `std::simd` would express the same thing more directly but is
//! nightly-only; baseline-`x86_64` SSE2 intrinsics (with portable
//! fallbacks) keep the crate on stable.
//!
//! The mode is a process-wide atomic so benchmarks can compare both paths on
//! identical inputs and tests can assert their bitwise equality.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which tree-convolution kernels the encoder runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelMode {
    /// The reference kernels: 4 accumulator lanes, 4 elements per iteration.
    Scalar,
    /// The register-blocked tree-convolution kernels of the `convsimd`
    /// module. Bit-identical to [`KernelMode::Scalar`]; the default.
    Simd,
}

/// `KernelMode::Simd` encoded for the atomic.
const MODE_SIMD: u8 = 1;

static KERNEL_MODE: AtomicU8 = AtomicU8::new(MODE_SIMD);

/// The currently selected kernel mode.
#[inline]
pub fn kernel_mode() -> KernelMode {
    if KERNEL_MODE.load(Ordering::Relaxed) == MODE_SIMD {
        KernelMode::Simd
    } else {
        KernelMode::Scalar
    }
}

/// Selects the kernel mode process-wide and returns the previous mode (so
/// benchmarks and tests can restore it). Both modes produce bit-identical
/// results; this knob exists to measure the difference, not to trade it.
pub fn set_kernel_mode(mode: KernelMode) -> KernelMode {
    let raw = match mode {
        KernelMode::Scalar => 0,
        KernelMode::Simd => MODE_SIMD,
    };
    if KERNEL_MODE.swap(raw, Ordering::Relaxed) == MODE_SIMD {
        KernelMode::Simd
    } else {
        KernelMode::Scalar
    }
}

/// Serializes unit tests that toggle the process-wide mode and then read it
/// back; value-level assertions never need this (both modes produce the same
/// bits), only assertions on [`kernel_mode`] itself do.
#[cfg(test)]
pub(crate) static MODE_TEST_MUTEX: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_round_trips_and_reports_previous() {
        let _guard = MODE_TEST_MUTEX.lock().unwrap_or_else(|e| e.into_inner());
        let initial = kernel_mode();
        let prev = set_kernel_mode(KernelMode::Scalar);
        assert_eq!(prev, initial);
        assert_eq!(kernel_mode(), KernelMode::Scalar);
        let prev = set_kernel_mode(KernelMode::Simd);
        assert_eq!(prev, KernelMode::Scalar);
        assert_eq!(kernel_mode(), KernelMode::Simd);
        set_kernel_mode(initial);
    }
}
