//! Fast numeric kernels: im2col + register-tiled GEMM convolution,
//! blocked matmul/matvec, and a thread-local scratch arena for
//! zero-allocation inference paths.
//!
//! Every fast kernel here accumulates in **exactly the same order** as
//! its naive reference (`k` strictly increasing per output element, the
//! bias seeded first), so the fast paths reproduce the plain nested
//! loops — the speedup comes from removing per-element bounds checks
//! and branches, keeping accumulators in registers and using SIMD lanes
//! across *independent* output elements, never from re-associating
//! floating-point sums. That property is what lets [`crate::Conv2d`]
//! switch paths by problem size without perturbing training
//! trajectories, and what keeps parallel evaluation byte-identical to
//! sequential evaluation downstream.
//!
//! **Kernel tiers.** On x86-64 the GEMM and the stride-2 convolutions
//! run on the fastest [`KernelTier`] the CPU supports, chosen from
//! CPUID alone (std caches the probe): AVX-512 (F and VL) or AVX2. The
//! GEMM is a register-tiled micro-kernel that holds its C tile in
//! registers for the whole `k` loop (up to 8×32 on AVX-512, 6×16 on
//! AVX2), and stride-2 convolutions never build the im2col matrix: their
//! B vectors are even-lane picks of a zero-bordered copy of the input
//! (one `vpermt2ps` of two 16-float loads on AVX-512, a shuffle and a
//! permute of two 8-float loads on AVX2). The tiers share the staging,
//! the lane-group geometry and the row tiling; only the register tiles
//! and the even-lane pick differ. Each lane of each accumulator still
//! adds its `a·b` terms in strictly increasing `p`, as a separate
//! multiply then add: a fused multiply-add rounds once instead of twice
//! and would change bits, so no tier uses FMA. Other CPUs run the
//! portable code, which also stays public as the oracle every tier is
//! tested against ([`matmul_portable`], [`conv2d_gemm_portable`]).
//!
//! The naive references stay exported ([`conv2d_naive`],
//! [`matmul_naive`]) as the oracle the proptest equivalence suite and
//! the `kernels` bench bin compare against. A GEMM convolution adds an
//! exact `w·0.0` for every padding tap that the naive loop skips, so
//! the two agree under `==` but may differ in the sign of a zero; GEMM
//! paths agree with one another bit for bit.
//!
//! **Backward.** [`conv2d_backward_on`] runs a convolution's backward pass
//! on the same tiers, bit-identical to the scalar scatter loop
//! (`Conv2d::backward_reference`) on every one: lanes hold output
//! channels for the kernel and bias gradients and input columns of one
//! stride residue for the input gradient, and every sum keeps the
//! loop's order (see `backward`'s module docs for the `±0` argument).

use crate::tensor::{BatchTensor3, Tensor3};
use std::cell::RefCell;

mod backward;

pub use backward::{conv2d_backward_on, ConvGrads};

/// A pool of reusable `f32` buffers.
///
/// Inference paths call [`Scratch::take`] for every temporary they
/// need and [`Scratch::put`] the buffer back when done; after the first
/// call at a given set of shapes ("warm-up") the pool serves every
/// request from retained capacity and the path performs no heap
/// allocation. Access goes through the thread-local [`with_scratch`],
/// so `&self` inference stays `Sync` and each evaluation-pool worker
/// warms its own arena.
#[derive(Debug, Default)]
pub struct Scratch {
    pool: Vec<Vec<f32>>,
}

/// Retained buffers per thread; beyond this, returned buffers are freed.
const SCRATCH_POOL_CAP: usize = 32;

impl Scratch {
    /// Take a zeroed buffer of length `len` from the pool (allocating
    /// only if the pool is empty or every pooled buffer is too small).
    ///
    /// Picks the smallest pooled buffer that already fits `len`, so that
    /// small temporaries never consume the large im2col buffers; when
    /// nothing fits, the largest buffer is grown in place.
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        let mut v = self.take_unzeroed(len);
        v.fill(0.0);
        v
    }

    /// [`Self::take`] without the zero pass: the buffer holds stale
    /// values from its last use (only a grown tail is zeroed), so the
    /// caller must overwrite every element before reading any.
    pub fn take_unzeroed(&mut self, len: usize) -> Vec<f32> {
        let mut best: Option<(usize, usize)> = None; // (index, capacity)
        for (i, v) in self.pool.iter().enumerate() {
            let cap = v.capacity();
            best = Some(match best {
                None => (i, cap),
                Some((bi, bcap)) => {
                    let better = match (cap >= len, bcap >= len) {
                        (true, true) => cap < bcap,
                        (true, false) => true,
                        (false, true) => false,
                        (false, false) => cap > bcap,
                    };
                    if better {
                        (i, cap)
                    } else {
                        (bi, bcap)
                    }
                }
            });
        }
        let mut v = match best {
            Some((i, _)) => self.pool.swap_remove(i),
            None => Vec::new(),
        };
        v.resize(len, 0.0);
        v
    }

    /// Return a buffer to the pool for reuse.
    pub fn put(&mut self, v: Vec<f32>) {
        if self.pool.len() < SCRATCH_POOL_CAP && v.capacity() > 0 {
            self.pool.push(v);
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// Run `f` with this thread's scratch arena.
///
/// Nested calls are fine as long as inner buffers are taken after (and
/// returned before) outer ones or simply taken in any order — the pool
/// hands out owned `Vec`s, so there is no aliasing to manage.
pub fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}

/// Take a zeroed buffer from this thread's scratch pool.
pub fn take_buf(len: usize) -> Vec<f32> {
    with_scratch(|s| s.take(len))
}

/// Take a buffer with stale contents from this thread's scratch pool
/// (see [`Scratch::take_unzeroed`]).
pub fn take_buf_unzeroed(len: usize) -> Vec<f32> {
    with_scratch(|s| s.take_unzeroed(len))
}

/// Return a buffer to this thread's scratch pool.
pub fn put_buf(v: Vec<f32>) {
    with_scratch(|s| s.put(v));
}

// ---------------------------------------------------------------------------
// matvec / matmul
// ---------------------------------------------------------------------------

/// `y[r] += Σ_c w[r][c] · x[c]` for a row-major `rows × cols` matrix.
///
/// Accumulates into whatever `y` already holds (callers seed it with the
/// bias), strictly in increasing-`c` order per row — the same order as a
/// plain nested loop. The zipped-slice form carries no bounds checks in
/// the inner loop.
#[inline]
pub fn matvec_acc(w: &[f32], x: &[f32], y: &mut [f32]) {
    let cols = x.len();
    debug_assert_eq!(w.len(), y.len() * cols, "matvec shape mismatch");
    for (r, yr) in y.iter_mut().enumerate() {
        let row = &w[r * cols..(r + 1) * cols];
        let mut acc = *yr;
        for (wv, xv) in row.iter().zip(x.iter()) {
            acc += wv * xv;
        }
        *yr = acc;
    }
}

/// Naive reference matmul: `c[m][n] = Σ_k a[m][k] · b[k][n]`
/// (row-major, `c` pre-seeded by the caller, e.g. with a bias).
pub fn matmul_naive(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul A shape");
    assert_eq!(b.len(), k * n, "matmul B shape");
    assert_eq!(c.len(), m * n, "matmul C shape");
    for i in 0..m {
        for j in 0..n {
            let mut acc = c[i * n + j];
            for p in 0..k {
                acc += a[i * k + p] * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// A set of GEMM and convolution kernels. [`matmul_blocked`],
/// [`conv2d_gemm`] and the batched convolutions run the fastest tier
/// this CPU supports ([`KernelTier::detect`], from CPUID alone); every
/// tier stays callable through [`matmul_on`], [`conv2d_gemm_on`] and
/// [`conv2d_gemm_batched_on`], so tests and the `kernels` bench compare
/// each against the portable oracle. Every tier is bit-identical to the
/// others: they differ only in how many independent sums share a
/// register, never in the order a sum adds its terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTier {
    /// 16-lane zmm register tiles on AVX-512 F (VL for the half-vector
    /// stores of narrow rows). Input staging and the narrow-row gathers
    /// are the AVX2 tier's, so this tier also needs AVX2.
    Avx512,
    /// 8-lane ymm register tiles on AVX2.
    Avx2,
    /// The portable loops ([`matmul_portable`], im2col); runs on every CPU.
    Portable,
}

impl KernelTier {
    /// Every tier, fastest first.
    pub const ALL: [KernelTier; 3] = [KernelTier::Avx512, KernelTier::Avx2, KernelTier::Portable];

    /// Whether this CPU runs `self` (std caches the CPUID probe).
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                KernelTier::Avx512 => has!("avx2") && has!("avx512f") && has!("avx512vl"),
                KernelTier::Avx2 => has!("avx2"),
                KernelTier::Portable => true,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == KernelTier::Portable
        }
    }

    /// The fastest tier this CPU runs: the one the kernels dispatch to.
    pub fn detect() -> KernelTier {
        KernelTier::ALL
            .into_iter()
            .find(|t| t.supported())
            .unwrap_or(KernelTier::Portable)
    }

    /// Short lowercase name, for bench tables and test notes.
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Avx512 => "avx512",
            KernelTier::Avx2 => "avx2",
            KernelTier::Portable => "portable",
        }
    }

    /// The vector kernels of `self`, or `None` for the portable tier.
    ///
    /// # Panics
    /// If this CPU does not run `self`.
    fn simd(self) -> Option<Simd> {
        assert!(
            self.supported(),
            "this CPU does not run the {} kernel tier",
            self.name()
        );
        match self {
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => Some(Simd::Avx512(x86::Avx512(()))),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => Some(Simd::Avx2(x86::Avx2(()))),
            _ => None,
        }
    }
}

/// A vector tier checked against this CPU: only [`KernelTier::simd`]
/// builds the tokens it holds, so holding one is what makes the tier's
/// kernels safe to call.
#[derive(Debug, Clone, Copy)]
enum Simd {
    #[cfg(target_arch = "x86_64")]
    Avx512(x86::Avx512),
    #[cfg(target_arch = "x86_64")]
    Avx2(x86::Avx2),
}

/// Matmul `c[m][n] += Σ_k a[m][k] · b[k][n]` on the fastest kernel tier
/// this CPU runs ([`KernelTier::detect`]). Bit-identical to
/// [`matmul_naive`] on every tier.
pub fn matmul_blocked(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_with(KernelTier::detect().simd(), a, b, c, m, k, n);
}

/// [`matmul_blocked`] on `tier`.
///
/// # Panics
/// If this CPU does not run `tier`.
pub fn matmul_on(
    tier: KernelTier,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    matmul_with(tier.simd(), a, b, c, m, k, n);
}

fn matmul_with(
    simd: Option<Simd>,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    match simd {
        #[cfg(target_arch = "x86_64")]
        Some(cpu) => x86::matmul(cpu, a, b, c, m, k, n),
        _ => matmul_portable(a, b, c, m, k, n),
    }
}

/// Column-tile width for [`matmul_portable`]: 1024 f32 ≈ 4 KiB per B
/// row, so a full k-strip of B tiles stays L1/L2-resident for typical k.
const GEMM_N_BLOCK: usize = 1024;

/// Portable cache-blocked matmul: `c[m][n] += Σ_k a[m][k] · b[k][n]`.
/// The [`KernelTier::Portable`] GEMM, and the oracle the vector tiers
/// are tested and benchmarked against.
///
/// Loop order is `i, jj, p, j` (an axpy over each B-row tile), which
/// keeps every inner access contiguous and accumulates each `c[i][j]`
/// in strictly increasing `p` — bit-identical to [`matmul_naive`].
pub fn matmul_portable(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul A shape");
    assert_eq!(b.len(), k * n, "matmul B shape");
    assert_eq!(c.len(), m * n, "matmul C shape");
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let c_row = &mut c[i * n..(i + 1) * n];
        let mut jj = 0;
        while jj < n {
            let jw = GEMM_N_BLOCK.min(n - jj);
            let c_tile = &mut c_row[jj..jj + jw];
            for (p, &av) in a_row.iter().enumerate() {
                let b_tile = &b[p * n + jj..p * n + jj + jw];
                for (cv, bv) in c_tile.iter_mut().zip(b_tile.iter()) {
                    *cv += av * bv;
                }
            }
            jj += jw;
        }
    }
}

/// The vector kernel tiers. Everything but the register tiles and the
/// even-lane pick is shared: input staging, the group geometry of
/// [`x86::direct`], row tiling and the narrow-row gathers are generic
/// over a [`x86::Tile`] token and `#[inline(always)]`, so each tier
/// compiles them inside its own `#[target_feature]` entry points.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{ConvShape, Input, Simd};
    use std::arch::x86_64::*;

    /// Proof that the running CPU has AVX2 (see [`super::KernelTier::simd`]).
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Avx2(pub(super) ());

    /// Proof that the running CPU has AVX-512 F and VL, and AVX2.
    #[derive(Debug, Clone, Copy)]
    pub(super) struct Avx512(pub(super) ());

    /// One vector tier: its register tiles, and its entry points, which
    /// compile the shared code with the tier's CPU features. The
    /// implementors are the CPU tokens, so holding a value proves the
    /// features.
    ///
    /// Every tile seeds each lane with its C value (or bias) and adds the
    /// lane's `a·b` terms in strictly increasing `p`, as a separate
    /// multiply then add: a fused multiply-add rounds once instead of
    /// twice and would change bits, so no tier uses FMA.
    trait Tile: Copy {
        /// Outputs per half of a [`direct`] group. A group's B vector is
        /// the even lanes of two `2·HALF`-float loads, one per half.
        const HALF: usize;
        /// Most rows in one register tile.
        const MR: usize;
        /// Columns in one GEMM register tile.
        const NR: usize;

        /// [`matmul_tiles`] with this tier's CPU features.
        ///
        /// # Safety
        /// `self` proves the features; callers only re-state it.
        unsafe fn matmul(self, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize);

        /// [`conv_stride2_body`] with this tier's CPU features.
        ///
        /// # Safety
        /// As [`Self::matmul`].
        #[allow(clippy::too_many_arguments)]
        unsafe fn conv_stride2(
            self,
            shape: &ConvShape,
            weight: &[f32],
            bias: &[f32],
            input: Input,
            items: usize,
            hw: (usize, usize),
            out: &mut [f32],
        );

        /// [`direct`] with this tier's group count for `shape.out_ch` rows.
        #[allow(clippy::too_many_arguments)]
        fn direct(
            self,
            shape: &ConvShape,
            weight: &[f32],
            bias: &[f32],
            stage: &[f32],
            geom: Staged,
            out: &mut [f32],
            cols: (usize, usize),
        );

        /// One `rows × cols` GEMM register tile, `rows <= MR` and
        /// `cols <= NR`: `c[r][j] += Σ_p a[r][p] · b[p][j]`.
        ///
        /// # Safety
        /// The CPU runs this tier; `a` addresses `rows` rows of `k` floats
        /// (row stride `k`); `b` addresses `k` rows and `c` `rows` rows of
        /// at least `cols` floats each, both with row stride `n`.
        unsafe fn gemm_tile(
            rows: usize,
            a: *const f32,
            b: *const f32,
            c: *mut f32,
            k: usize,
            n: usize,
            cols: usize,
        );

        /// One `rows`-row × `G`-group tile of [`direct`]: each lane adds
        /// `w[r][p] · b` in increasing `p` onto its bias, with B from the
        /// staged input, and C is written once, through lane masks.
        ///
        /// # Safety
        /// The CPU runs this tier; `rows <= MR`; `w` addresses `rows` rows
        /// of `kk` weights (row stride `kk`) and `bias` `rows` floats; for
        /// each group `g`, `c[g]` addresses `rows` rows (stride `n`) of at
        /// least `lanes[g][0] + lanes[g][1]` floats, with `lanes[g][0] ==
        /// HALF` or `lanes[g][1] == 0` on AVX2, and `2·HALF` floats are
        /// readable at both halves of `s[g]` plus every tap offset of
        /// `taps`.
        #[allow(clippy::too_many_arguments)]
        unsafe fn conv_tile<const G: usize>(
            rows: usize,
            w: *const f32,
            bias: *const f32,
            kk: usize,
            taps: Taps,
            s: [[*const f32; 2]; G],
            c: [*mut f32; G],
            n: usize,
            lanes: [[usize; 2]; G],
        );
    }

    /// The tiled [`super::matmul_blocked`].
    pub(super) fn matmul(
        cpu: Simd,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        // SAFETY: the token proves the tier's features.
        unsafe {
            match cpu {
                Simd::Avx512(t) => t.matmul(a, b, c, m, k, n),
                Simd::Avx2(t) => t.matmul(a, b, c, m, k, n),
            }
        }
    }

    /// Stride-2 convolution: fills `out` (`out_ch × items·oh·ow`) with
    /// the bias plus `Σ_p weight[oc][p] · col[p][j]`, where `col` is
    /// [`super::im2col`]'s matrix, each sum formed exactly as
    /// [`matmul_tiles`] forms it on a bias-seeded C.
    ///
    /// Each input plane is first copied into a zero-bordered staging
    /// plane, so that every im2col value is an unconditional even-lane
    /// pick from a staged row. Layers with output rows of 4 or more never
    /// build the im2col matrix: [`direct`] makes each B vector on the
    /// fly. Narrower layers (the last layers of small windows) fill it
    /// with [`gather_table`] and run the GEMM.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn conv_stride2(
        cpu: Simd,
        shape: &ConvShape,
        weight: &[f32],
        bias: &[f32],
        input: Input,
        items: usize,
        (h, w): (usize, usize),
        out: &mut [f32],
    ) {
        let (k, pad) = (shape.ksize, shape.pad);
        let (oh, ow) = shape.out_size(h, w);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        assert!(
            shape.stride == 2 && shape.in_ch >= 1 && k >= 1 && hp >= k && wp >= k,
            "stride-2 conv geometry"
        );
        let kk = shape.in_ch * k * k;
        assert_eq!(weight.len(), shape.out_ch * kk, "conv weight shape");
        assert_eq!(bias.len(), shape.out_ch, "conv bias shape");
        assert_eq!(out.len(), shape.out_ch * items * oh * ow, "conv out shape");
        if out.is_empty() {
            return;
        }
        let hw = (h, w);
        // SAFETY: the token proves the tier's features. `direct` and
        // `gather_table` check their own bounds from the shapes asserted
        // here, and `input` from the caller's asserts.
        unsafe {
            match cpu {
                Simd::Avx512(t) => t.conv_stride2(shape, weight, bias, input, items, hw, out),
                Simd::Avx2(t) => t.conv_stride2(shape, weight, bias, input, items, hw, out),
            }
        }
    }

    /// Split `m` rows into `⌈m / mr⌉` near-equal register tiles (8 rows
    /// at `mr = 6` run as 4 + 4, not 6 + 2) and call `f(first_row, rows)`
    /// for each.
    #[inline(always)]
    fn row_tiles(m: usize, mr: usize, mut f: impl FnMut(usize, usize)) {
        let tiles = m.div_ceil(mr);
        let mut i = 0;
        for t in 0..tiles {
            let rows = (m - i).div_ceil(tiles - t);
            f(i, rows);
            i += rows;
        }
    }

    /// Walk C in `NR`-column panels and each panel in row tiles, so each
    /// `k × NR` B panel is loaded from L1 once per row tile.
    #[inline(always)]
    fn matmul_tiles<T: Tile>(
        _cpu: T,
        a: &[f32],
        b: &[f32],
        c: &mut [f32],
        m: usize,
        k: usize,
        n: usize,
    ) {
        assert_eq!(a.len(), m * k, "matmul A shape");
        assert_eq!(b.len(), k * n, "matmul B shape");
        assert_eq!(c.len(), m * n, "matmul C shape");
        let (a, b, c) = (a.as_ptr(), b.as_ptr(), c.as_mut_ptr());
        for j in (0..n).step_by(T::NR) {
            let cols = T::NR.min(n - j);
            row_tiles(m, T::MR, |i, rows| {
                // SAFETY: the token proves the tier's features. `i + rows
                // <= m` and `j + cols <= n`, so rows `i..i + rows` of A (k
                // floats each), columns `j..j + cols` of every B row and
                // of C rows `i..i + rows` lie inside the asserted shapes;
                // every offset formed here is at most one past the end.
                unsafe { T::gemm_tile(rows, a.add(i * k), b.add(j), c.add(i * n + j), k, n, cols) }
            });
        }
    }

    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn conv_stride2_body<T: Tile>(
        cpu: T,
        shape: &ConvShape,
        weight: &[f32],
        bias: &[f32],
        input: Input,
        items: usize,
        (h, w): (usize, usize),
        out: &mut [f32],
    ) {
        let (oh, ow) = shape.out_size(h, w);
        let (m, pad) = (shape.out_ch, shape.pad);
        let (hp, wp) = (h + 2 * pad, w + 2 * pad);
        let n = items * oh * ow;
        // The direct path stages and convolves a block of items at a
        // time, sized so that the block's staged input and output stay
        // in L1 (a whole 12-window batch would not).
        let per_item = shape.in_ch * hp * wp + m * oh * ow;
        let block = if ow >= 4 {
            (L1_FLOATS / per_item).clamp(1, items)
        } else {
            items
        };
        // The last row's final group may load up to `4·HALF - 1` floats
        // past its staged plane (see `direct`); they come from this slack.
        let slack = 4 * T::HALF;
        let mut stage = super::take_buf_unzeroed(shape.in_ch * block * hp * wp + slack);
        for first in (0..items).step_by(block) {
            let count = block.min(items - first);
            // Channel `ic` of item `first + i` becomes staged plane
            // `ic·count + i`, then the zero slack.
            let staged = shape.in_ch * count * hp * wp;
            let stage = &mut stage[..staged + slack];
            stage[staged..].fill(0.0);
            let mut planes = stage[..staged].chunks_exact_mut(hp * wp);
            for ic in 0..shape.in_ch {
                for i in first..first + count {
                    let src = input.plane(ic, i, items, h * w);
                    let dst = planes.next().expect("one staged plane per input plane");
                    let (top, rest) = dst.split_at_mut(pad * wp);
                    let (mid, bottom) = rest.split_at_mut(h * wp);
                    top.fill(0.0);
                    bottom.fill(0.0);
                    for (s_row, d_row) in src.chunks_exact(w).zip(mid.chunks_exact_mut(wp)) {
                        // SAFETY: every tier's token proves AVX2.
                        unsafe { stage_row(s_row, d_row, pad) };
                    }
                }
            }
            let geom = Staged {
                items: count,
                out: (oh, ow),
                padded: (hp, wp),
            };
            let cols = (n, first * oh * ow);
            if ow >= 4 {
                cpu.direct(shape, weight, bias, stage, geom, out, cols);
            } else {
                let kk = shape.in_ch * shape.ksize * shape.ksize;
                let mut col = super::take_buf_unzeroed(kk * n);
                // SAFETY: every tier's token proves AVX2.
                unsafe { gather_table(shape, stage, geom, &mut col) };
                for (row, b) in out.chunks_exact_mut(n).zip(bias) {
                    row.fill(*b);
                }
                // one block holds every item, so `col` is `kk × n`
                matmul_tiles(cpu, weight, &col, out, m, kk, n);
                super::put_buf(col);
            }
        }
        super::put_buf(stage);
    }

    /// Floats of staged input plus output that one block of
    /// [`direct`] works on: 32 KiB, a typical L1 data cache.
    const L1_FLOATS: usize = 8 * 1024;

    /// Geometry of the staged input of a stride-2 layer.
    #[derive(Clone, Copy)]
    struct Staged {
        /// Items stacked per channel.
        items: usize,
        /// Output rows and columns per item.
        out: (usize, usize),
        /// Staged (zero-bordered) plane rows and columns.
        padded: (usize, usize),
    }

    /// `dst = [0; pad] ++ src ++ [0; pad]`, inlined: a `memcpy` and two
    /// `memset` calls per 4–32 float row would cost more than the row.
    #[target_feature(enable = "avx2")]
    #[inline]
    fn stage_row(src: &[f32], dst: &mut [f32], pad: usize) {
        let (left, rest) = dst.split_at_mut(pad);
        let (mid, right) = rest.split_at_mut(src.len());
        for edge in [left, right] {
            if edge.len() <= 8 {
                // SAFETY: the mask enables only the first `edge.len()`
                // lanes, all inside `edge`.
                unsafe {
                    _mm256_maskstore_ps(
                        edge.as_mut_ptr(),
                        avx2::lane_mask(edge.len()),
                        _mm256_setzero_ps(),
                    )
                };
            } else {
                edge.fill(0.0);
            }
        }
        let mut to = mid.chunks_exact_mut(8);
        let mut from = src.chunks_exact(8);
        for (d, s) in (&mut to).zip(&mut from) {
            // SAFETY: `s` and `d` are exactly 8 floats each.
            unsafe { _mm256_storeu_ps(d.as_mut_ptr(), _mm256_loadu_ps(s.as_ptr())) };
        }
        let (d, s) = (to.into_remainder(), from.remainder());
        let mask = avx2::lane_mask(s.len());
        // SAFETY: the mask enables only the first `s.len() == d.len()`
        // lanes, inside both slices.
        unsafe { _mm256_maskstore_ps(d.as_mut_ptr(), mask, _mm256_maskload_ps(s.as_ptr(), mask)) };
    }

    /// Up to `2·HALF` consecutive im2col columns, the vector lane unit
    /// of [`direct`], as two halves of at most `HALF` outputs, each
    /// within one output row: `(item, oy, ox0..ox0 + 2·HALF)` of a row
    /// wider than `HALF`, or two whole consecutive rows otherwise. Either
    /// way the second half's outputs follow the first's in C.
    #[derive(Clone, Copy)]
    struct Group {
        /// For each half, the offset of its first output's tap-(0, 0)
        /// input in the staged planes of input channel 0.
        src: [usize; 2],
        /// Its first im2col column, `(item·oh + oy)·ow + ox0`.
        col: usize,
        /// Outputs each half holds (at most `HALF`).
        lanes: [usize; 2],
    }

    /// The stride-2 GEMM with the im2col matrix left implicit, for output
    /// rows of 4 or more: the B vector of tap `p = (ic, ky, kx)` for a
    /// lane group is the even lanes of the staged input at its halves'
    /// offsets plus the tap's. Groups are taken `G` at a time into tiles
    /// in column order (a tile may straddle rows or items, and the last
    /// one is padded with empty groups), and each tile runs through the
    /// row tiles of [`matmul_tiles`]. This block's outputs are columns
    /// `first_col..` of the `m × n` matrix `out`.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn direct<T: Tile, const G: usize>(
        _cpu: T,
        shape: &ConvShape,
        weight: &[f32],
        bias: &[f32],
        stage: &[f32],
        geom: Staged,
        out: &mut [f32],
        (n, first_col): (usize, usize),
    ) {
        let Staged {
            items,
            out: (oh, ow),
            padded: (hp, wp),
        } = geom;
        let (m, k, half) = (shape.out_ch, shape.ksize, T::HALF);
        let (kk, plane) = (shape.in_ch * k * k, hp * wp);
        assert!(ow >= 4, "direct stride-2 row width");
        let wide = ow > half;
        let groups_per_row = ow.div_ceil(2 * half);
        // The furthest read: last channel's tap (k-1, k-1) of the last
        // group's second half, `2·HALF` floats from there.
        let last_tap = (shape.in_ch - 1) * items * plane + (k - 1) * (wp + 1);
        let last_row = (items - 1) * plane + 2 * (oh - 1) * wp;
        let last_half = last_row
            + if wide {
                4 * half * (groups_per_row - 1) + 2 * half
            } else {
                0
            };
        assert!(
            last_tap + last_half + 2 * half <= stage.len(),
            "staged input too short"
        );
        assert!(
            weight.len() == m * kk && bias.len() == m && out.len() == m * n,
            "conv shapes"
        );
        assert!(
            first_col + items * oh * ow <= n,
            "output block out of range"
        );
        let taps = Taps {
            in_ch: shape.in_ch,
            k,
            channel: items * plane,
            row: wp,
        };
        let (wt, bs, st) = (weight.as_ptr(), bias.as_ptr(), stage.as_ptr());
        let c = out[first_col..].as_mut_ptr();
        let run = |gs: [Group; G]| {
            row_tiles(m, T::MR, |i, rows| {
                // SAFETY: the token proves the tier's features. Rows `i..i
                // + rows` of the `m × kk` weights, the `m` biases and the
                // `m × n` output exist; each group's columns `first_col +
                // col..` (`lanes` of them) lie within `n`, and on AVX2 a
                // group's first half is full unless its second is empty
                // (`half == 4`: 4-wide rows pair whole); every B read,
                // `2·HALF` floats from at most `last_tap + last_half`, is
                // inside `stage` (asserted above).
                unsafe {
                    let (w, b) = (wt.add(i * kk), bs.add(i));
                    let s = gs.map(|g| g.src.map(|h| st.add(h)));
                    let cs = gs.map(|g| c.add(i * n + g.col));
                    let lanes = gs.map(|g| g.lanes);
                    T::conv_tile::<G>(rows, w, b, kk, taps, s, cs, n, lanes)
                }
            })
        };
        let empty = Group {
            src: [0; 2],
            col: 0,
            lanes: [0; 2],
        };
        let mut tile = [empty; G];
        let mut filled = 0;
        let mut emit = |g: Group| {
            tile[filled] = g;
            filled += 1;
            if filled == G {
                run(tile);
                filled = 0;
            }
        };
        let rows = items * oh;
        let row_src = |row: usize| (row / oh) * plane + 2 * (row % oh) * wp;
        if wide {
            for row in 0..rows {
                for x in 0..groups_per_row {
                    let (src, ox) = (row_src(row) + 4 * half * x, 2 * half * x);
                    let first = (ow - ox).min(half);
                    emit(Group {
                        src: [src, src + 2 * half],
                        col: row * ow + ox,
                        lanes: [first, (ow - ox - first).min(half)],
                    });
                }
            }
        } else {
            for row in (0..rows).step_by(2) {
                let next = (row + 1).min(rows - 1);
                emit(Group {
                    src: [row_src(row), row_src(next)],
                    col: row * ow,
                    lanes: [ow, if next > row { ow } else { 0 }],
                });
            }
        }
        if filled > 0 {
            tile[filled..].fill(empty);
            run(tile);
        }
    }

    /// Where tap `(ic, ky, kx)` sits relative to a group's source
    /// offset: `ic·channel + ky·row + kx`.
    #[derive(Clone, Copy)]
    struct Taps {
        in_ch: usize,
        k: usize,
        /// Staged floats per input channel (all items).
        channel: usize,
        /// Staged row length.
        row: usize,
    }

    /// The im2col matrix of a stride-2 layer whose output rows are
    /// narrower than 4, from the staged input. One table holds, for
    /// every im2col column, its offset from the tap's origin in the
    /// staged planes, the same for every tap. Each im2col row is then a
    /// run of 8-lane hardware gathers across row and item boundaries,
    /// with no per-row work at all.
    #[target_feature(enable = "avx2")]
    fn gather_table(shape: &ConvShape, stage: &[f32], geom: Staged, col: &mut [f32]) {
        let Staged {
            items,
            out: (oh, ow),
            padded: (hp, wp),
        } = geom;
        let (k, plane) = (shape.ksize, hp * wp);
        let cols = items * oh * ow;
        assert_eq!(col.len(), shape.in_ch * k * k * cols, "im2col shape");
        // offsets are stored as f32, exact below 2^24, and gathered as i32
        assert!(
            stage.len() < 1 << 24,
            "staged input too large for f32 offsets"
        );
        let mut offs = super::take_buf_unzeroed(cols.next_multiple_of(8));
        let mut next = offs.iter_mut();
        for i in 0..items {
            for oy in 0..oh {
                for (ox, o) in (0..ow).zip(&mut next) {
                    *o = (i * plane + 2 * oy * wp + 2 * ox) as f32;
                }
            }
        }
        // the padding lanes gather the tap's origin, then go unstored
        next.for_each(|o| *o = 0.0);
        let last_tap = (shape.in_ch - 1) * items * plane + (k - 1) * (wp + 1);
        let last_off = (items - 1) * plane + 2 * (oh - 1) * wp + 2 * (ow - 1);
        assert!(
            last_tap + last_off < stage.len(),
            "gather offsets out of range"
        );
        let mut rows = col.chunks_exact_mut(cols);
        for ic in 0..shape.in_ch {
            for ky in 0..k {
                for kx in 0..k {
                    let dst = rows.next().expect("one im2col row per tap");
                    let base = stage[(ic * items) * plane + ky * wp + kx..].as_ptr();
                    let gather = |o: &[f32]| {
                        // SAFETY: `o` is 8 floats; each holds an offset
                        // `<= last_off`, and the origin `base` is at most
                        // `last_tap`, so every lane reads inside `stage`
                        // (asserted above).
                        unsafe {
                            let vi = _mm256_cvttps_epi32(_mm256_loadu_ps(o.as_ptr()));
                            _mm256_i32gather_ps::<4>(base, vi)
                        }
                    };
                    let mut full = dst.chunks_exact_mut(8);
                    let mut from = offs.chunks_exact(8);
                    for (d, o) in (&mut full).zip(&mut from) {
                        // SAFETY: `d` is exactly 8 floats.
                        unsafe { _mm256_storeu_ps(d.as_mut_ptr(), gather(o)) };
                    }
                    let tail = full.into_remainder();
                    if let Some(o) = from.next() {
                        // SAFETY: the mask enables only the first
                        // `tail.len()` lanes, all inside `tail`.
                        unsafe {
                            _mm256_maskstore_ps(
                                tail.as_mut_ptr(),
                                avx2::lane_mask(tail.len()),
                                gather(o),
                            )
                        };
                    }
                }
            }
        }
        super::put_buf(offs);
    }

    /// The AVX2 tier: 8-lane ymm tiles of up to 6 rows.
    mod avx2 {
        use super::{conv_stride2_body, direct, matmul_tiles, Avx2, Input, Staged, Taps, Tile};
        use crate::kernels::ConvShape;
        use std::arch::x86_64::*;

        impl Tile for Avx2 {
            const HALF: usize = 4;
            /// 6 rows × 2 vectors = 12 accumulators, plus two B vectors
            /// and a broadcast, fill the 16 ymm registers.
            const MR: usize = 6;
            const NR: usize = 16;

            #[target_feature(enable = "avx2")]
            unsafe fn matmul(
                self,
                a: &[f32],
                b: &[f32],
                c: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
            ) {
                matmul_tiles(self, a, b, c, m, k, n)
            }

            #[target_feature(enable = "avx2")]
            unsafe fn conv_stride2(
                self,
                shape: &ConvShape,
                weight: &[f32],
                bias: &[f32],
                input: Input,
                items: usize,
                hw: (usize, usize),
                out: &mut [f32],
            ) {
                conv_stride2_body(self, shape, weight, bias, input, items, hw, out)
            }

            #[inline(always)]
            fn direct(
                self,
                shape: &ConvShape,
                weight: &[f32],
                bias: &[f32],
                stage: &[f32],
                geom: Staged,
                out: &mut [f32],
                cols: (usize, usize),
            ) {
                if shape.out_ch <= 3 {
                    // few rows: three groups per tile keep 3·rows
                    // independent sums in flight to hide the add latency
                    // (four would spill: 12 sums + 4 B vectors + a
                    // broadcast and a product exceed the 16 registers)
                    direct::<Self, 3>(self, shape, weight, bias, stage, geom, out, cols)
                } else {
                    direct::<Self, 2>(self, shape, weight, bias, stage, geom, out, cols)
                }
            }

            #[target_feature(enable = "avx2")]
            #[inline]
            unsafe fn gemm_tile(
                rows: usize,
                a: *const f32,
                b: *const f32,
                c: *mut f32,
                k: usize,
                n: usize,
                cols: usize,
            ) {
                // SAFETY: the caller's contract is `tile`'s.
                unsafe {
                    match rows {
                        1 => tile::<1>(a, b, c, k, n, cols),
                        2 => tile::<2>(a, b, c, k, n, cols),
                        3 => tile::<3>(a, b, c, k, n, cols),
                        4 => tile::<4>(a, b, c, k, n, cols),
                        5 => tile::<5>(a, b, c, k, n, cols),
                        _ => tile::<6>(a, b, c, k, n, cols),
                    }
                }
            }

            #[target_feature(enable = "avx2")]
            #[inline]
            unsafe fn conv_tile<const G: usize>(
                rows: usize,
                w: *const f32,
                bias: *const f32,
                kk: usize,
                taps: Taps,
                s: [[*const f32; 2]; G],
                c: [*mut f32; G],
                n: usize,
                lanes: [[usize; 2]; G],
            ) {
                // SAFETY: the caller's contract is `conv_tile`'s.
                unsafe {
                    match rows {
                        1 => conv_tile::<1, G>(w, bias, kk, taps, s, c, n, lanes),
                        2 => conv_tile::<2, G>(w, bias, kk, taps, s, c, n, lanes),
                        3 => conv_tile::<3, G>(w, bias, kk, taps, s, c, n, lanes),
                        4 => conv_tile::<4, G>(w, bias, kk, taps, s, c, n, lanes),
                        5 => conv_tile::<5, G>(w, bias, kk, taps, s, c, n, lanes),
                        _ => conv_tile::<6, G>(w, bias, kk, taps, s, c, n, lanes),
                    }
                }
            }
        }

        /// Lanes `0..8` of `MASKS[8 - c..]` are all-ones exactly for the
        /// first `c` lanes.
        const MASKS: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];

        /// A load/store mask selecting the first `c <= 8` lanes.
        #[target_feature(enable = "avx2")]
        pub(super) fn lane_mask(c: usize) -> __m256i {
            let tail = &MASKS[8 - c.min(8)..][..8];
            // SAFETY: `tail` is 8 `i32`s, exactly one 256-bit load.
            unsafe { _mm256_loadu_si256(tail.as_ptr().cast()) }
        }

        /// One `R × cols` register tile of [`Tile::gemm_tile`], `cols <=
        /// 16`, as two 8-lane vectors per row. A full 16-column tile uses
        /// plain loads; a narrower one masked loads and stores, so the
        /// partial panel at `n mod 16` runs the same vector code.
        ///
        /// # Safety
        /// As [`Tile::gemm_tile`].
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn tile<const R: usize>(
            a: *const f32,
            b: *const f32,
            c: *mut f32,
            k: usize,
            n: usize,
            cols: usize,
        ) {
            let mut lo = [_mm256_setzero_ps(); R];
            let mut hi = [_mm256_setzero_ps(); R];
            if cols == 16 {
                // SAFETY: all 16 columns of every addressed row are in
                // bounds (caller contract).
                unsafe {
                    for r in 0..R {
                        lo[r] = _mm256_loadu_ps(c.add(r * n));
                        hi[r] = _mm256_loadu_ps(c.add(r * n + 8));
                    }
                    for p in 0..k {
                        let b_lo = _mm256_loadu_ps(b.add(p * n));
                        let b_hi = _mm256_loadu_ps(b.add(p * n + 8));
                        for r in 0..R {
                            let av = _mm256_set1_ps(*a.add(r * k + p));
                            lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, b_lo));
                            hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, b_hi));
                        }
                    }
                    for r in 0..R {
                        _mm256_storeu_ps(c.add(r * n), lo[r]);
                        _mm256_storeu_ps(c.add(r * n + 8), hi[r]);
                    }
                }
            } else {
                // The high half starts at column `min(cols, 8)`: in bounds
                // (at most one past a row's last valid column), and its
                // mask is empty when `cols <= 8`.
                let off = cols.min(8);
                let (m_lo, m_hi) = (lane_mask(cols), lane_mask(cols - off));
                // SAFETY: masked lanes are neither read nor written, and
                // the unmasked ones are columns `< cols` of addressed rows
                // (caller contract); every pointer formed is at most one
                // past a row.
                unsafe {
                    for r in 0..R {
                        lo[r] = _mm256_maskload_ps(c.add(r * n), m_lo);
                        hi[r] = _mm256_maskload_ps(c.add(r * n + off), m_hi);
                    }
                    for p in 0..k {
                        let b_lo = _mm256_maskload_ps(b.add(p * n), m_lo);
                        let b_hi = _mm256_maskload_ps(b.add(p * n + off), m_hi);
                        for r in 0..R {
                            let av = _mm256_set1_ps(*a.add(r * k + p));
                            lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(av, b_lo));
                            hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(av, b_hi));
                        }
                    }
                    for r in 0..R {
                        _mm256_maskstore_ps(c.add(r * n), m_lo, lo[r]);
                        _mm256_maskstore_ps(c.add(r * n + off), m_hi, hi[r]);
                    }
                }
            }
        }

        /// `[a[0], a[2], a[4], a[6], b[0], b[2], b[4], b[6]]`.
        ///
        /// # Safety
        /// AVX2, and 8 floats readable at each of `a` and `b`.
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn even_lanes(a: *const f32, b: *const f32) -> __m256 {
            // SAFETY: 8 readable floats at each (caller contract).
            let (v0, v1) = unsafe { (_mm256_loadu_ps(a), _mm256_loadu_ps(b)) };
            // Even lanes per 128-bit half: [v0₀ v0₂ v1₀ v1₂ | v0₄ v0₆ v1₄ v1₆];
            // then swap the middle 64-bit pairs into v0's evens, v1's evens.
            let evens = _mm256_shuffle_ps::<0b10_00_10_00>(v0, v1);
            _mm256_castpd_ps(_mm256_permute4x64_pd::<0b11_01_10_00>(_mm256_castps_pd(
                evens,
            )))
        }

        /// One `R`-row × `G`-group tile of [`Tile::conv_tile`]: B is
        /// [`even_lanes`] of the two halves, and C takes one masked store
        /// of both halves' lanes per row.
        ///
        /// # Safety
        /// As [`Tile::conv_tile`].
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn conv_tile<const R: usize, const G: usize>(
            w: *const f32,
            bias: *const f32,
            kk: usize,
            taps: Taps,
            s: [[*const f32; 2]; G],
            c: [*mut f32; G],
            n: usize,
            lanes: [[usize; 2]; G],
        ) {
            // SAFETY: every pointer below is covered by the caller
            // contract; masked-off lanes of C are not written.
            unsafe {
                let mut acc = [[_mm256_setzero_ps(); R]; G];
                for a in &mut acc {
                    for (r, v) in a.iter_mut().enumerate() {
                        *v = _mm256_set1_ps(*bias.add(r));
                    }
                }
                let mut p = 0;
                for ic in 0..taps.in_ch {
                    for ky in 0..taps.k {
                        for kx in 0..taps.k {
                            let o = ic * taps.channel + ky * taps.row + kx;
                            let b = s.map(|[h0, h1]| even_lanes(h0.add(o), h1.add(o)));
                            // (indexed: every group shares row r's broadcast)
                            #[allow(clippy::needless_range_loop)]
                            for r in 0..R {
                                let av = _mm256_set1_ps(*w.add(r * kk + p));
                                for g in 0..G {
                                    acc[g][r] = _mm256_add_ps(acc[g][r], _mm256_mul_ps(av, b[g]));
                                }
                            }
                            p += 1;
                        }
                    }
                }
                for ((a, cg), [l0, l1]) in acc.iter().zip(c).zip(lanes) {
                    let mask = lane_mask(l0 + l1);
                    for (r, v) in a.iter().enumerate() {
                        _mm256_maskstore_ps(cg.add(r * n), mask, *v);
                    }
                }
            }
        }
    }

    /// The AVX-512 tier: 16-lane zmm tiles of up to 8 rows.
    mod avx512 {
        use super::{
            conv_stride2_body, direct, matmul_tiles, Avx2, Avx512, Input, Staged, Taps, Tile,
        };
        use crate::kernels::ConvShape;
        use std::arch::x86_64::*;

        impl Tile for Avx512 {
            const HALF: usize = 8;
            /// 8 rows × 2 vectors = 16 accumulators, plus two B vectors
            /// and a broadcast, leave half the 32 zmm registers free.
            const MR: usize = 8;
            const NR: usize = 32;

            #[target_feature(enable = "avx2,avx512f,avx512vl")]
            unsafe fn matmul(
                self,
                a: &[f32],
                b: &[f32],
                c: &mut [f32],
                m: usize,
                k: usize,
                n: usize,
            ) {
                matmul_tiles(self, a, b, c, m, k, n)
            }

            #[target_feature(enable = "avx2,avx512f,avx512vl")]
            unsafe fn conv_stride2(
                self,
                shape: &ConvShape,
                weight: &[f32],
                bias: &[f32],
                input: Input,
                items: usize,
                hw: (usize, usize),
                out: &mut [f32],
            ) {
                conv_stride2_body(self, shape, weight, bias, input, items, hw, out)
            }

            #[inline(always)]
            fn direct(
                self,
                shape: &ConvShape,
                weight: &[f32],
                bias: &[f32],
                stage: &[f32],
                geom: Staged,
                out: &mut [f32],
                cols: (usize, usize),
            ) {
                if geom.out.1 == 4 {
                    // 16 lanes would pair 4-wide rows half empty; the
                    // AVX2 tile pairs them whole (this token proves AVX2)
                    return Avx2(()).direct(shape, weight, bias, stage, geom, out, cols);
                }
                // Up to 3 rows: four groups keep 12 sums in flight (six
                // measured slower on the proxy's 1→3 layer). More rows:
                // two groups, 8 rows × 2 = 16 sums (three measured no
                // faster on its 3→6 and 6→6 layers).
                if shape.out_ch <= 3 {
                    direct::<Self, 4>(self, shape, weight, bias, stage, geom, out, cols)
                } else {
                    direct::<Self, 2>(self, shape, weight, bias, stage, geom, out, cols)
                }
            }

            #[target_feature(enable = "avx512f")]
            #[inline]
            unsafe fn gemm_tile(
                rows: usize,
                a: *const f32,
                b: *const f32,
                c: *mut f32,
                k: usize,
                n: usize,
                cols: usize,
            ) {
                // SAFETY: the caller's contract is `tile`'s, and `V` is
                // the vectors `cols` needs.
                unsafe {
                    match (rows, cols > 16) {
                        (1, false) => tile::<1, 1>(a, b, c, k, n, cols),
                        (2, false) => tile::<2, 1>(a, b, c, k, n, cols),
                        (3, false) => tile::<3, 1>(a, b, c, k, n, cols),
                        (4, false) => tile::<4, 1>(a, b, c, k, n, cols),
                        (5, false) => tile::<5, 1>(a, b, c, k, n, cols),
                        (6, false) => tile::<6, 1>(a, b, c, k, n, cols),
                        (7, false) => tile::<7, 1>(a, b, c, k, n, cols),
                        (_, false) => tile::<8, 1>(a, b, c, k, n, cols),
                        (1, true) => tile::<1, 2>(a, b, c, k, n, cols),
                        (2, true) => tile::<2, 2>(a, b, c, k, n, cols),
                        (3, true) => tile::<3, 2>(a, b, c, k, n, cols),
                        (4, true) => tile::<4, 2>(a, b, c, k, n, cols),
                        (5, true) => tile::<5, 2>(a, b, c, k, n, cols),
                        (6, true) => tile::<6, 2>(a, b, c, k, n, cols),
                        (7, true) => tile::<7, 2>(a, b, c, k, n, cols),
                        (_, true) => tile::<8, 2>(a, b, c, k, n, cols),
                    }
                }
            }

            #[target_feature(enable = "avx512f,avx512vl")]
            #[inline]
            unsafe fn conv_tile<const G: usize>(
                rows: usize,
                w: *const f32,
                bias: *const f32,
                kk: usize,
                taps: Taps,
                s: [[*const f32; 2]; G],
                c: [*mut f32; G],
                n: usize,
                lanes: [[usize; 2]; G],
            ) {
                // SAFETY: the caller's contract is `conv_tile`'s.
                unsafe {
                    match rows {
                        1 => conv_tile::<1, G>(w, bias, kk, taps, s, c, n, lanes),
                        2 => conv_tile::<2, G>(w, bias, kk, taps, s, c, n, lanes),
                        3 => conv_tile::<3, G>(w, bias, kk, taps, s, c, n, lanes),
                        4 => conv_tile::<4, G>(w, bias, kk, taps, s, c, n, lanes),
                        5 => conv_tile::<5, G>(w, bias, kk, taps, s, c, n, lanes),
                        6 => conv_tile::<6, G>(w, bias, kk, taps, s, c, n, lanes),
                        7 => conv_tile::<7, G>(w, bias, kk, taps, s, c, n, lanes),
                        _ => conv_tile::<8, G>(w, bias, kk, taps, s, c, n, lanes),
                    }
                }
            }
        }

        /// A mask selecting the first `c <= 16` lanes.
        #[inline]
        fn mask16(c: usize) -> __mmask16 {
            ((1u32 << c.min(16)) - 1) as __mmask16
        }

        /// One `R × cols` register tile of [`Tile::gemm_tile`] as `V`
        /// 16-lane vectors per row, `16·(V - 1) < cols <= 16·V`: a panel
        /// of 16 columns or fewer (the 1×1 decoder layers, the narrow-row
        /// gathers) runs one vector per row, not a second empty one.
        /// Loads and stores go through lane masks, all-ones on a full
        /// vector, so the partial panel at `n mod 32` runs the same code.
        ///
        /// # Safety
        /// As [`Tile::gemm_tile`].
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn tile<const R: usize, const V: usize>(
            a: *const f32,
            b: *const f32,
            c: *mut f32,
            k: usize,
            n: usize,
            cols: usize,
        ) {
            let masks: [__mmask16; V] = std::array::from_fn(|v| mask16(cols - 16 * v));
            let mut acc = [[_mm512_setzero_ps(); V]; R];
            // SAFETY: vector `v` starts at column `16·v < cols`, inside
            // every addressed row; masked lanes are neither read nor
            // written, and the unmasked ones are columns `< cols` of
            // addressed rows (caller contract).
            unsafe {
                for (r, acc) in acc.iter_mut().enumerate() {
                    for (v, x) in acc.iter_mut().enumerate() {
                        *x = _mm512_maskz_loadu_ps(masks[v], c.add(r * n + 16 * v));
                    }
                }
                for p in 0..k {
                    let bv: [__m512; V] = std::array::from_fn(|v| {
                        _mm512_maskz_loadu_ps(masks[v], b.add(p * n + 16 * v))
                    });
                    for (r, acc) in acc.iter_mut().enumerate() {
                        let av = _mm512_set1_ps(*a.add(r * k + p));
                        for (x, bv) in acc.iter_mut().zip(bv) {
                            *x = _mm512_add_ps(*x, _mm512_mul_ps(av, bv));
                        }
                    }
                }
                for (r, acc) in acc.iter().enumerate() {
                    for (v, x) in acc.iter().enumerate() {
                        _mm512_mask_storeu_ps(c.add(r * n + 16 * v), masks[v], *x);
                    }
                }
            }
        }

        /// One `R`-row × `G`-group tile of [`Tile::conv_tile`]. B is one
        /// `vpermt2ps` of the two halves' 16-float loads: lane `i` takes
        /// float `2i` of their concatenation. A group whose first half is
        /// full stores both halves' lanes with one masked store per row;
        /// otherwise (rows of 4 to 7 outputs, paired) each half goes out
        /// as its own masked 8-lane store, the second right after the
        /// first's outputs.
        ///
        /// # Safety
        /// As [`Tile::conv_tile`].
        #[allow(clippy::too_many_arguments)]
        #[target_feature(enable = "avx512f,avx512vl")]
        #[inline]
        unsafe fn conv_tile<const R: usize, const G: usize>(
            w: *const f32,
            bias: *const f32,
            kk: usize,
            taps: Taps,
            s: [[*const f32; 2]; G],
            c: [*mut f32; G],
            n: usize,
            lanes: [[usize; 2]; G],
        ) {
            let evens =
                _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
            // SAFETY: every pointer below is covered by the caller
            // contract; masked-off lanes of C are not written.
            unsafe {
                let mut acc = [[_mm512_setzero_ps(); R]; G];
                for a in &mut acc {
                    for (r, v) in a.iter_mut().enumerate() {
                        *v = _mm512_set1_ps(*bias.add(r));
                    }
                }
                let mut p = 0;
                for ic in 0..taps.in_ch {
                    for ky in 0..taps.k {
                        for kx in 0..taps.k {
                            let o = ic * taps.channel + ky * taps.row + kx;
                            let b = s.map(|[h0, h1]| {
                                let (v0, v1) =
                                    (_mm512_loadu_ps(h0.add(o)), _mm512_loadu_ps(h1.add(o)));
                                _mm512_permutex2var_ps(v0, evens, v1)
                            });
                            // (indexed: every group shares row r's broadcast)
                            #[allow(clippy::needless_range_loop)]
                            for r in 0..R {
                                let av = _mm512_set1_ps(*w.add(r * kk + p));
                                for g in 0..G {
                                    acc[g][r] = _mm512_add_ps(acc[g][r], _mm512_mul_ps(av, b[g]));
                                }
                            }
                            p += 1;
                        }
                    }
                }
                for ((a, cg), [l0, l1]) in acc.iter().zip(c).zip(lanes) {
                    if l0 == 8 {
                        let mask = mask16(l0 + l1);
                        for (r, v) in a.iter().enumerate() {
                            _mm512_mask_storeu_ps(cg.add(r * n), mask, *v);
                        }
                    } else {
                        let (m0, m1) = (mask16(l0) as __mmask8, mask16(l1) as __mmask8);
                        for (r, v) in a.iter().enumerate() {
                            let hi = _mm512_extractf64x4_pd::<1>(_mm512_castps_pd(*v));
                            _mm256_mask_storeu_ps(cg.add(r * n), m0, _mm512_castps512_ps256(*v));
                            _mm256_mask_storeu_ps(cg.add(r * n + l0), m1, _mm256_castpd_ps(hi));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// convolution
// ---------------------------------------------------------------------------

/// Static shape of a 2-D convolution (square kernel, symmetric stride
/// and zero padding), shared by the naive and GEMM paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvShape {
    /// Input channels.
    pub in_ch: usize,
    /// Output channels.
    pub out_ch: usize,
    /// Square kernel side.
    pub ksize: usize,
    /// Stride in both dimensions.
    pub stride: usize,
    /// Zero padding on each border.
    pub pad: usize,
}

impl ConvShape {
    /// Output spatial size for an input of `(h, w)`.
    pub fn out_size(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.pad).saturating_sub(self.ksize) / self.stride + 1;
        let ow = (w + 2 * self.pad).saturating_sub(self.ksize) / self.stride + 1;
        (oh, ow)
    }

    /// Multiply–accumulates of one forward pass on an `(h, w)` input.
    pub fn macs(&self, h: usize, w: usize) -> usize {
        let (oh, ow) = self.out_size(h, w);
        self.out_ch * self.in_ch * self.ksize * self.ksize * oh * ow
    }
}

/// Which convolution kernel to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelPath {
    /// Pick by problem size ([`conv_path_for`]).
    #[default]
    Auto,
    /// The plain nested loops (reference oracle).
    Naive,
    /// im2col + GEMM (on the fastest [`KernelTier`] the CPU runs).
    Gemm,
}

/// MAC threshold from which the GEMM path wins, read off the `kernels`
/// bench's crossover table on the AVX-512 tier (single items, the
/// smallest problems `Auto` decides; 2-vCPU AVX-512 Xeon). A 1×1 layer
/// skips im2col and wins from the smallest measured size: 48 MACs
/// (`WindowNet`'s first decoder layer on a 1×1 map) naive 0.56 µs vs
/// GEMM 0.10 µs, and the proxy's 168-MAC last decoder layer 1.65 vs
/// 0.05 µs. A stride-2 3×3 layer wins at 108 MACs (0.56 vs 0.37 µs) and
/// 576 (1.97 vs 1.30 µs). A stride-1 3×3 layer, which still builds an
/// im2col matrix, loses at 36 MACs (0.16 vs 0.42 µs) and 9 (0.08 vs
/// 0.34 µs). The AVX2 tier reads the same way (0.11, 0.07, 0.40, 1.48,
/// 0.44 and 0.37 µs for those six).
const GEMM_MIN_MACS: usize = 48;

/// Resolve [`KernelPath::Auto`] for a given problem size.
pub fn conv_path_for(shape: &ConvShape, h: usize, w: usize, path: KernelPath) -> KernelPath {
    match path {
        KernelPath::Auto => {
            if shape.macs(h, w) >= GEMM_MIN_MACS {
                KernelPath::Gemm
            } else {
                KernelPath::Naive
            }
        }
        forced => forced,
    }
}

/// Resolve [`KernelPath::Auto`] for a batched problem. The whole stack
/// feeds one im2col + one GEMM, so the threshold compares the *stacked*
/// MAC count: batching pushes per-item problems over the GEMM cliff
/// that are too small to clear it alone — which is precisely where the
/// batched path earns its wall-clock win. The choice can never affect
/// results: every kernel path accumulates in the same per-element
/// order and is bit-identical to the others.
pub fn conv_path_for_batched(
    shape: &ConvShape,
    n: usize,
    h: usize,
    w: usize,
    path: KernelPath,
) -> KernelPath {
    match path {
        KernelPath::Auto => {
            if shape.macs(h, w).saturating_mul(n) >= GEMM_MIN_MACS {
                KernelPath::Gemm
            } else {
                KernelPath::Naive
            }
        }
        forced => forced,
    }
}

/// Reference convolution: plain nested loops with per-element bounds
/// branches. `weight` is `[out_ch][in_ch][ky][kx]` row-major; `out` must
/// be pre-sized to `(out_ch, oh, ow)` and is fully overwritten with the
/// **pre-activation** result (bias included).
pub fn conv2d_naive(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &Tensor3,
    out: &mut Tensor3,
) {
    assert_eq!(x.c, shape.in_ch, "conv input channels");
    assert_out_shape(shape, (x.h, x.w), out);
    naive(shape, weight, bias, &x.data, (x.h, x.w), &mut out.data);
}

fn assert_out_shape(shape: &ConvShape, (h, w): (usize, usize), out: &Tensor3) {
    let (oh, ow) = shape.out_size(h, w);
    assert_eq!(
        (out.c, out.h, out.w),
        (shape.out_ch, oh, ow),
        "conv out shape"
    );
}

/// [`conv2d_naive`] on one `in_ch × h × w` input slice into an
/// `out_ch × oh × ow` output slice.
fn naive(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &[f32],
    (h, w): (usize, usize),
    out: &mut [f32],
) {
    let (oh, ow) = shape.out_size(h, w);
    assert_eq!(x.len(), shape.in_ch * h * w, "conv input shape");
    assert_eq!(out.len(), shape.out_ch * oh * ow, "conv out shape");
    let k = shape.ksize;
    for oc in 0..shape.out_ch {
        let b = bias[oc];
        for oy in 0..oh {
            for ox in 0..ow {
                let mut acc = b;
                let iy0 = (oy * shape.stride) as isize - shape.pad as isize;
                let ix0 = (ox * shape.stride) as isize - shape.pad as isize;
                for ic in 0..shape.in_ch {
                    for ky in 0..k {
                        let iy = iy0 + ky as isize;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = ix0 + kx as isize;
                            if ix < 0 || ix >= w as isize {
                                continue;
                            }
                            acc += weight[((oc * shape.in_ch + ic) * k + ky) * k + kx]
                                * x[(ic * h + iy as usize) * w + ix as usize];
                        }
                    }
                }
                out[(oc * oh + oy) * ow + ox] = acc;
            }
        }
    }
}

/// Where the `items` inputs of a convolution, `C × H × W` each, come
/// from.
#[derive(Clone, Copy)]
enum Input<'a> {
    /// Stacked channel-major, `C × N × H × W`, as a [`BatchTensor3`]
    /// (or, at `N = 1`, a [`Tensor3`]) holds them.
    Stacked(&'a [f32]),
    /// Item `i` is `item(i)`, its channels one after another.
    Items(&'a dyn Fn(usize) -> &'a [f32]),
}

impl<'a> Input<'a> {
    /// Assert that the input holds `items` items of `in_ch × hw` floats.
    fn check(self, in_ch: usize, items: usize, hw: usize) {
        match self {
            Input::Stacked(data) => assert_eq!(data.len(), in_ch * items * hw, "conv input shape"),
            Input::Items(item) => {
                for i in 0..items {
                    assert_eq!(item(i).len(), in_ch * hw, "conv input shape");
                }
            }
        }
    }

    /// Channel `ic` of item `i`: `hw` floats.
    #[inline]
    fn plane(self, ic: usize, i: usize, items: usize, hw: usize) -> &'a [f32] {
        match self {
            Input::Stacked(data) => &data[(ic * items + i) * hw..][..hw],
            Input::Items(item) => &item(i)[ic * hw..][..hw],
        }
    }
}

/// Fill the im2col matrix of `items` inputs: row
/// `r = (ic·k + ky)·k + kx` holds, at column `i·oh·ow + oy·ow + ox`, the
/// value of item `i` under kernel tap `(ky, kx)` for output position
/// `(oy, ox)`, and zero where the tap falls in the padding. Because
/// [`BatchTensor3`] output data is laid out the same way, one GEMM over
/// the widened column dimension computes every item's convolution with
/// exactly the per-item accumulation order.
///
/// Every element of `col` is written, padding included, so `col` may
/// hold stale values on entry. Unit-stride rows are slice copies, other
/// strides a scalar loop. (The vector tiers bypass this for stride-2
/// layers: see `x86::conv_stride2`.)
fn im2col(shape: &ConvShape, input: Input, items: usize, (h, w): (usize, usize), col: &mut [f32]) {
    let (oh, ow) = shape.out_size(h, w);
    let (k, s, pad) = (shape.ksize, shape.stride, shape.pad);
    let cols = items * oh * ow;
    assert_eq!(col.len(), shape.in_ch * k * k * cols, "im2col shape");
    if cols == 0 {
        return;
    }
    let mut rows = col.chunks_exact_mut(cols);
    for ic in 0..shape.in_ch {
        for ky in 0..k {
            for kx in 0..k {
                let dst = rows.next().expect("one im2col row per tap");
                // valid ox range: 0 <= ox·s + kx − pad < w
                let ox_lo = if kx >= pad { 0 } else { (pad - kx).div_ceil(s) }.min(ow);
                let ox_hi = if w + pad > kx {
                    ((w + pad - kx - 1) / s + 1).min(ow)
                } else {
                    0
                }
                .max(ox_lo);
                for (i, item) in dst.chunks_exact_mut(oh * ow).enumerate() {
                    let plane = input.plane(ic, i, items, h * w);
                    for (oy, d_row) in item.chunks_exact_mut(ow).enumerate() {
                        // wraps to >= h for a row above the input
                        let iy = (oy * s + ky).wrapping_sub(pad);
                        if iy >= h {
                            d_row.fill(0.0);
                            continue;
                        }
                        d_row[..ox_lo].fill(0.0);
                        d_row[ox_hi..].fill(0.0);
                        let d = &mut d_row[ox_lo..ox_hi];
                        if d.is_empty() {
                            continue;
                        }
                        let src = &plane[iy * w + ox_lo * s + kx - pad..];
                        if s == 1 {
                            d.copy_from_slice(&src[..d.len()]);
                        } else {
                            for (dv, sv) in d.iter_mut().zip(src.iter().step_by(s)) {
                                *dv = *sv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// im2col + GEMM convolution of `items` inputs into `out` (`out_ch × N ×
/// oh × ow`, pre-activation, bias included). A 1×1 unit-stride unpadded
/// layer over stacked input skips im2col: its im2col matrix is its
/// input. On the vector tiers a stride-2 layer runs `x86::conv_stride2`.
#[allow(clippy::too_many_arguments)]
fn conv_gemm(
    simd: Option<Simd>,
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    input: Input,
    items: usize,
    (h, w): (usize, usize),
    out: &mut [f32],
) {
    let (oh, ow) = shape.out_size(h, w);
    let n = items * oh * ow;
    input.check(shape.in_ch, items, h * w);
    if n == 0 {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if let Some(cpu) = simd {
        let k = shape.ksize;
        if shape.stride == 2 && h + 2 * shape.pad >= k && w + 2 * shape.pad >= k {
            return x86::conv_stride2(cpu, shape, weight, bias, input, items, (h, w), out);
        }
    }
    let kk = shape.in_ch * shape.ksize * shape.ksize;
    for (row, b) in out.chunks_exact_mut(n).zip(bias) {
        row.fill(*b);
    }
    if let (1, 1, 0, Input::Stacked(data)) = (shape.ksize, shape.stride, shape.pad, input) {
        return matmul_with(simd, weight, data, out, shape.out_ch, kk, n);
    }
    let mut col = take_buf_unzeroed(kk * n);
    im2col(shape, input, items, (h, w), &mut col);
    matmul_with(simd, weight, &col, out, shape.out_ch, kk, n);
    put_buf(col);
}

/// im2col + GEMM convolution on the fastest kernel tier this CPU runs.
/// Same contract as [`conv2d_naive`] (pre-activation output, bias
/// included) and equal to it under `==`: the GEMM accumulates taps in
/// the same strictly increasing order the nested loops visit them, and
/// padding taps contribute exact `± 0.0` terms. Bit-identical to
/// [`conv2d_gemm_portable`].
///
/// The im2col matrix lives in the thread-local scratch pool, so the
/// call performs no heap allocation after warm-up.
pub fn conv2d_gemm(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &Tensor3,
    out: &mut Tensor3,
) {
    conv2d_gemm_on(KernelTier::detect(), shape, weight, bias, x, out);
}

/// [`conv2d_gemm`] on the portable kernels only: the oracle and baseline
/// for the vector tiers.
pub fn conv2d_gemm_portable(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &Tensor3,
    out: &mut Tensor3,
) {
    conv2d_gemm_on(KernelTier::Portable, shape, weight, bias, x, out);
}

/// [`conv2d_gemm`] on `tier`.
///
/// # Panics
/// If this CPU does not run `tier`.
pub fn conv2d_gemm_on(
    tier: KernelTier,
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &Tensor3,
    out: &mut Tensor3,
) {
    assert_eq!(x.c, shape.in_ch, "conv input channels");
    assert_out_shape(shape, (x.h, x.w), out);
    let input = Input::Stacked(&x.data);
    conv_gemm(
        tier.simd(),
        shape,
        weight,
        bias,
        input,
        1,
        (x.h, x.w),
        &mut out.data,
    );
}

/// Run the selected convolution path into `out` (pre-activation).
pub fn conv2d(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &Tensor3,
    out: &mut Tensor3,
    path: KernelPath,
) {
    assert_eq!(x.c, shape.in_ch, "conv input channels");
    conv2d_data(shape, weight, bias, &x.data, (x.h, x.w), out, path);
}

/// [`conv2d`] on an input given as its `in_ch × h × w` values, so a
/// caller holding them in another container (a rendered image) need not
/// copy them into a [`Tensor3`] first.
pub fn conv2d_data(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &[f32],
    (h, w): (usize, usize),
    out: &mut Tensor3,
    path: KernelPath,
) {
    assert_out_shape(shape, (h, w), out);
    match conv_path_for(shape, h, w, path) {
        KernelPath::Gemm => {
            let simd = KernelTier::detect().simd();
            conv_gemm(
                simd,
                shape,
                weight,
                bias,
                Input::Stacked(x),
                1,
                (h, w),
                &mut out.data,
            )
        }
        _ => naive(shape, weight, bias, x, (h, w), &mut out.data),
    }
}

// ---------------------------------------------------------------------------
// batched convolution / matmul
// ---------------------------------------------------------------------------

/// Batched im2col + GEMM convolution over `x.n` same-shape items:
/// **one** im2col buffer stacking every item's columns and **one** GEMM
/// whose column dimension is `batch · oh · ow`, so the
/// `out_ch × in_ch·k²` weight matrix is streamed once per *batch*
/// instead of once per item.
///
/// Bit-identical to `x.n` separate [`conv2d_gemm`] calls: item `i`
/// occupies columns `[i·oh·ow, (i+1)·oh·ow)` of both the im2col matrix
/// and the output, so each output element accumulates its taps in
/// exactly the per-item order (`p` strictly increasing, bias seeded
/// first). The GEMM's column tiling never reorders accumulation, so
/// where tile boundaries fall is irrelevant to bits.
///
/// `out` must be pre-sized to `(x.n, out_ch, oh, ow)` and is fully
/// overwritten with the pre-activation result.
pub fn conv2d_gemm_batched(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &BatchTensor3,
    out: &mut BatchTensor3,
) {
    conv2d_gemm_batched_on(KernelTier::detect(), shape, weight, bias, x, out);
}

/// [`conv2d_gemm_batched`] on `tier`.
///
/// # Panics
/// If this CPU does not run `tier`.
pub fn conv2d_gemm_batched_on(
    tier: KernelTier,
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &BatchTensor3,
    out: &mut BatchTensor3,
) {
    assert_eq!(x.c, shape.in_ch, "conv input channels");
    assert_batch_out_shape(shape, x.n, (x.h, x.w), out);
    let input = Input::Stacked(&x.data);
    conv_gemm(
        tier.simd(),
        shape,
        weight,
        bias,
        input,
        x.n,
        (x.h, x.w),
        &mut out.data,
    );
}

fn assert_batch_out_shape(shape: &ConvShape, n: usize, (h, w): (usize, usize), out: &BatchTensor3) {
    let (oh, ow) = shape.out_size(h, w);
    assert_eq!(
        (out.n, out.c, out.h, out.w),
        (n, shape.out_ch, oh, ow),
        "conv out shape"
    );
}

/// Run the selected convolution path over a batch (pre-activation).
///
/// `Auto` resolves by the stacked problem size
/// ([`conv_path_for_batched`]); every path is bit-identical, so a
/// batched forward stays bit-identical to its looped counterpart. On
/// the naive path items are processed one at a time through scratch
/// buffers (there is nothing to fold; the reference loops already touch
/// each element once).
pub fn conv2d_batched(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    x: &BatchTensor3,
    out: &mut BatchTensor3,
    path: KernelPath,
) {
    assert_eq!(x.c, shape.in_ch, "conv input channels");
    let input = Input::Stacked(&x.data);
    conv_batched(shape, weight, bias, input, x.n, (x.h, x.w), out, path);
}

/// [`conv2d_batched`] over `n` inputs given as item `i`'s `in_ch × h ×
/// w` values, `item(i)`, so that separately held inputs (rendered
/// images, window tensors) need not be stacked into a [`BatchTensor3`]
/// first: the vector tiers' stride-2 layers stage straight from them.
#[allow(clippy::too_many_arguments)]
pub fn conv2d_items<'a>(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    item: &'a dyn Fn(usize) -> &'a [f32],
    n: usize,
    hw: (usize, usize),
    out: &mut BatchTensor3,
    path: KernelPath,
) {
    conv_batched(shape, weight, bias, Input::Items(item), n, hw, out, path);
}

#[allow(clippy::too_many_arguments)]
fn conv_batched(
    shape: &ConvShape,
    weight: &[f32],
    bias: &[f32],
    input: Input,
    n: usize,
    (h, w): (usize, usize),
    out: &mut BatchTensor3,
    path: KernelPath,
) {
    assert_batch_out_shape(shape, n, (h, w), out);
    match conv_path_for_batched(shape, n, h, w, path) {
        KernelPath::Gemm => {
            let simd = KernelTier::detect().simd();
            conv_gemm(simd, shape, weight, bias, input, n, (h, w), &mut out.data)
        }
        _ => {
            input.check(shape.in_ch, n, h * w);
            let (hw, ohw) = (h * w, out.h * out.w);
            let mut xi = take_buf_unzeroed(shape.in_ch * hw);
            let mut oi = take_buf_unzeroed(shape.out_ch * ohw);
            for i in 0..n {
                for (ic, dst) in xi.chunks_exact_mut(hw).enumerate() {
                    dst.copy_from_slice(input.plane(ic, i, n, hw));
                }
                naive(shape, weight, bias, &xi, (h, w), &mut oi);
                for (oc, src) in oi.chunks_exact(ohw).enumerate() {
                    out.data[(oc * n + i) * ohw..][..ohw].copy_from_slice(src);
                }
            }
            put_buf(oi);
            put_buf(xi);
        }
    }
}

/// Batched matmul: for each item `i`, `cs_i[m][n] += Σ_k a[m][k] ·
/// bs_i[k][n]`, where `bs` holds `batch` consecutive `k × n` blocks and
/// `cs` holds `batch` consecutive pre-seeded `m × n` blocks.
///
/// The per-item B matrices are restacked column-wise into one
/// `k × batch·n` scratch matrix (item `i` at columns `[i·n, (i+1)·n)`),
/// the seeded C blocks likewise, and a single [`matmul_blocked`] call
/// runs over the widened column dimension — per-element accumulation
/// order is untouched, so the result is bit-identical to `batch`
/// separate `matmul_blocked` calls. Scratch comes from the thread-local
/// pool: zero heap allocation after warm-up.
pub fn matmul_batched(
    a: &[f32],
    bs: &[f32],
    cs: &mut [f32],
    batch: usize,
    m: usize,
    k: usize,
    n: usize,
) {
    assert_eq!(a.len(), m * k, "matmul A shape");
    assert_eq!(bs.len(), batch * k * n, "batched matmul B shape");
    assert_eq!(cs.len(), batch * m * n, "batched matmul C shape");
    if batch == 0 || m * k * n == 0 {
        return;
    }
    let bn = batch * n;
    let mut col = take_buf_unzeroed(k * bn);
    for p in 0..k {
        for i in 0..batch {
            col[p * bn + i * n..p * bn + (i + 1) * n]
                .copy_from_slice(&bs[(i * k + p) * n..(i * k + p + 1) * n]);
        }
    }
    let mut out = take_buf_unzeroed(m * bn);
    for r in 0..m {
        for i in 0..batch {
            out[r * bn + i * n..r * bn + (i + 1) * n]
                .copy_from_slice(&cs[(i * m + r) * n..(i * m + r + 1) * n]);
        }
    }
    matmul_blocked(a, &col, &mut out, m, k, bn);
    for r in 0..m {
        for i in 0..batch {
            cs[(i * m + r) * n..(i * m + r + 1) * n]
                .copy_from_slice(&out[r * bn + i * n..r * bn + (i + 1) * n]);
        }
    }
    put_buf(out);
    put_buf(col);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg_fill(seed: u64, buf: &mut [f32]) {
        let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        for v in buf.iter_mut() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            *v = ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
        }
    }

    #[test]
    fn gemm_conv_bit_identical_to_naive() {
        for (in_ch, out_ch, k, s, pad, h, w) in [
            (1, 3, 3, 2, 1, 17, 23),
            (3, 6, 3, 2, 1, 12, 9),
            (8, 6, 1, 1, 0, 7, 12),
            (2, 4, 5, 3, 2, 21, 16),
            (1, 1, 3, 1, 0, 3, 3),
        ] {
            let shape = ConvShape {
                in_ch,
                out_ch,
                ksize: k,
                stride: s,
                pad,
            };
            let mut x = Tensor3::zeros(in_ch, h, w);
            lcg_fill(1, &mut x.data);
            let mut weight = vec![0.0; out_ch * in_ch * k * k];
            let mut bias = vec![0.0; out_ch];
            lcg_fill(2, &mut weight);
            lcg_fill(3, &mut bias);
            let (oh, ow) = shape.out_size(h, w);
            let mut a = Tensor3::zeros(out_ch, oh, ow);
            let mut b = Tensor3::zeros(out_ch, oh, ow);
            conv2d_naive(&shape, &weight, &bias, &x, &mut a);
            conv2d_gemm(&shape, &weight, &bias, &x, &mut b);
            assert_eq!(a.data, b.data, "paths diverge at shape {shape:?} {h}x{w}");
        }
    }

    #[test]
    fn blocked_matmul_bit_identical_to_naive() {
        for (m, k, n) in [(3, 9, 300), (5, 40, 1500), (1, 1, 1), (4, 7, 2049)] {
            let mut a = vec![0.0; m * k];
            let mut b = vec![0.0; k * n];
            lcg_fill(7, &mut a);
            lcg_fill(8, &mut b);
            let mut c1 = vec![0.5; m * n];
            let mut c2 = vec![0.5; m * n];
            matmul_naive(&a, &b, &mut c1, m, k, n);
            matmul_blocked(&a, &b, &mut c2, m, k, n);
            assert_eq!(c1, c2, "matmul paths diverge at {m}x{k}x{n}");
        }
    }

    #[test]
    fn matvec_acc_matches_manual_dot() {
        let w = [1.0, 2.0, 3.0, -1.0, 0.5, 4.0];
        let x = [2.0, -1.0, 1.0];
        let mut y = [10.0, 20.0];
        matvec_acc(&w, &x, &mut y);
        assert_eq!(y, [10.0 + 2.0 - 2.0 + 3.0, 20.0 - 2.0 - 0.5 + 4.0]);
    }

    #[test]
    fn auto_path_switches_on_problem_size() {
        let tiny = ConvShape {
            in_ch: 1,
            out_ch: 1,
            ksize: 1,
            stride: 1,
            pad: 0,
        };
        assert_eq!(
            conv_path_for(&tiny, 2, 2, KernelPath::Auto),
            KernelPath::Naive
        );
        let big = ConvShape {
            in_ch: 3,
            out_ch: 6,
            ksize: 3,
            stride: 2,
            pad: 1,
        };
        assert_eq!(
            conv_path_for(&big, 112, 192, KernelPath::Auto),
            KernelPath::Gemm
        );
        assert_eq!(
            conv_path_for(&big, 112, 192, KernelPath::Naive),
            KernelPath::Naive
        );
    }

    #[test]
    fn batched_conv_bit_identical_to_looped_gemm() {
        for (in_ch, out_ch, k, s, pad, h, w, batch) in [
            (1, 3, 3, 2, 1, 17, 23, 4),
            (3, 6, 3, 2, 1, 12, 9, 3),
            (8, 6, 1, 1, 0, 7, 12, 5),
            (2, 4, 5, 3, 2, 21, 16, 2),
            (1, 1, 3, 1, 0, 3, 3, 1),
        ] {
            let shape = ConvShape {
                in_ch,
                out_ch,
                ksize: k,
                stride: s,
                pad,
            };
            let mut items = Vec::new();
            for i in 0..batch {
                let mut x = Tensor3::zeros(in_ch, h, w);
                lcg_fill(100 + i as u64, &mut x.data);
                items.push(x);
            }
            let mut weight = vec![0.0; out_ch * in_ch * k * k];
            let mut bias = vec![0.0; out_ch];
            lcg_fill(2, &mut weight);
            lcg_fill(3, &mut bias);
            let (oh, ow) = shape.out_size(h, w);
            let refs: Vec<&Tensor3> = items.iter().collect();
            let x_b = BatchTensor3::from_items(&refs);
            let mut out_b = BatchTensor3::zeros(batch, out_ch, oh, ow);
            conv2d_gemm_batched(&shape, &weight, &bias, &x_b, &mut out_b);
            let mut got = Tensor3::zeros(out_ch, oh, ow);
            let mut want = Tensor3::zeros(out_ch, oh, ow);
            for (i, x) in items.iter().enumerate() {
                conv2d_gemm(&shape, &weight, &bias, x, &mut want);
                out_b.item_into(i, &mut got);
                assert_eq!(
                    got.data, want.data,
                    "batched conv diverges at item {i}, shape {shape:?} {h}x{w}"
                );
            }
            // the batched Auto dispatcher (stacked-MAC threshold) may
            // pick a different kernel than per-item Auto, but outputs
            // stay bit-identical — every path accumulates identically
            let mut out_d = BatchTensor3::zeros(batch, out_ch, oh, ow);
            conv2d_batched(&shape, &weight, &bias, &x_b, &mut out_d, KernelPath::Auto);
            for (i, x) in items.iter().enumerate() {
                conv2d(&shape, &weight, &bias, x, &mut want, KernelPath::Auto);
                out_d.item_into(i, &mut got);
                assert_eq!(got.data, want.data, "Auto dispatch diverges at item {i}");
            }
        }
    }

    #[test]
    fn batched_matmul_bit_identical_to_looped() {
        for (batch, m, k, n) in [
            (3, 3, 9, 300),
            (2, 5, 40, 700),
            (1, 1, 1, 1),
            (4, 4, 7, 1100),
        ] {
            let mut a = vec![0.0; m * k];
            lcg_fill(7, &mut a);
            let mut bs = vec![0.0; batch * k * n];
            lcg_fill(8, &mut bs);
            let mut cs = vec![0.25; batch * m * n];
            let mut want = cs.clone();
            matmul_batched(&a, &bs, &mut cs, batch, m, k, n);
            for i in 0..batch {
                matmul_blocked(
                    &a,
                    &bs[i * k * n..(i + 1) * k * n],
                    &mut want[i * m * n..(i + 1) * m * n],
                    m,
                    k,
                    n,
                );
            }
            assert_eq!(cs, want, "batched matmul diverges at {batch}x{m}x{k}x{n}");
        }
    }

    #[test]
    fn scratch_reuses_buffers() {
        let mut s = Scratch::default();
        let b1 = s.take(100);
        let p1 = b1.as_ptr();
        s.put(b1);
        let b2 = s.take(64);
        assert_eq!(b2.as_ptr(), p1, "pool should hand back the same buffer");
        assert!(b2.iter().all(|&v| v == 0.0));
        s.put(b2);
    }
}
