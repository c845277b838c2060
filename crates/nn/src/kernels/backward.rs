//! The convolution backward pass on the kernel tiers.
//!
//! [`conv2d_backward_on`] computes exactly the sums the scalar scatter
//! loop of [`crate::Conv2d::backward_reference`] computes, each with the
//! same roundings in the same order, with `d = dL/d(pre-activation)`:
//!
//! - `bias.g[oc]` adds `d` over `(oy, ox)` in row-major order;
//! - `weight.g[oc][ic][ky][kx]` adds `d·x` over `(oy, ox)` in row-major
//!   order;
//! - `dL/dx[ic][iy][ix]` starts at `+0.0` and adds `d·w` in `oc` order,
//!   then in row-major `(oy, ox)` order;
//!
//! each term a separate multiply then add, never a fused multiply-add.
//! A tier changes only which of these independent sums share a
//! register:
//!
//! - *Weight and bias gradients.* Lanes hold output channels. One sweep
//!   over the output positions keeps [`TAPS`] tap accumulators live
//!   (the nine taps of one input channel of a 3×3 layer), plus the bias
//!   on the first sweep; each step adds `d[oc]` (the output gradient
//!   transposed to position-major rows) times one broadcast input value.
//! - *Input gradient.* Lanes hold input columns of one residue modulo
//!   the stride (stride 2: even columns take one tap, odd columns two),
//!   so every term of a vector is a contiguous load of an output-gradient
//!   row times one broadcast weight.
//!
//! **Zero terms.** The scatter loop skips every `d == 0` term and every
//! tap that falls in the padding; the kernels instead add them as exact
//! `±0` products: the input is staged into zero-bordered planes and the
//! output gradient into zero-bordered rows. That changes no bits. A sum
//! that starts at `+0.0` never becomes `−0.0` under round-to-nearest
//! (`x + (−x)` is `+0.0`, and `+0.0 + −0.0` is `+0.0`), and adding `±0`
//! to any value other than `−0.0` returns it unchanged. The argument
//! needs finite inputs and weights (`0·∞` is NaN) and gradient buffers
//! that do not hold `−0.0`: `Param` starts and clears them at `+0.0`,
//! and the sums never make one.

use super::{ConvShape, KernelTier};

/// Tap accumulators one weight-gradient sweep keeps live: the nine taps
/// of one input channel of a 3×3 layer. A last, partial group is padded
/// with taps that read a zero plane (staged after the input planes)
/// into accumulators that are dropped.
const TAPS: usize = 9;

/// Most vectors one input-gradient tile keeps live.
const MAX_TILE: usize = 4;

/// Lanes of the vector tiers: staged rows are padded for them.
const LANES: usize = 8;

/// Where a layer's gradients go.
pub struct ConvGrads<'a> {
    /// The kernel gradient, `[out_ch][in_ch][ky][kx]`, accumulated into.
    pub weight: &'a mut [f32],
    /// The bias gradient, accumulated into.
    pub bias: &'a mut [f32],
    /// `dL/dx`, `in_ch × h × w`, overwritten; `None` skips computing it
    /// (a first layer, whose input is data).
    pub input: Option<&'a mut [f32]>,
}

/// Backward pass of a convolution on `tier`: given its `in_ch × h × w`
/// input `x` and `d = dL/d(pre-activation)` (`out_ch × oh × ow`), add
/// the kernel and bias gradients into `grads.weight` and `grads.bias`
/// and, if asked, write `dL/dx` into `grads.input`. Bit-identical to the
/// scalar scatter loop on every tier (see the module docs). Its staging
/// buffers are allocated per call rather than taken from the thread's
/// scratch pool, so training leaves nothing in the pool inference uses.
///
/// # Panics
/// If a buffer's length does not match the shape, or this CPU does not
/// run `tier`.
pub fn conv2d_backward_on(
    tier: KernelTier,
    shape: &ConvShape,
    weight: &[f32],
    x: &[f32],
    (h, w): (usize, usize),
    d: &[f32],
    grads: ConvGrads,
) {
    let ConvShape {
        in_ch,
        out_ch,
        ksize: k,
        stride: s,
        pad,
    } = *shape;
    assert!(k >= 1 && s >= 1, "conv geometry");
    let (oh, ow) = shape.out_size(h, w);
    let kk = in_ch * k * k;
    assert_eq!(weight.len(), out_ch * kk, "conv weight shape");
    assert_eq!(x.len(), in_ch * h * w, "conv input shape");
    assert_eq!(d.len(), out_ch * oh * ow, "conv output gradient shape");
    assert_eq!(grads.weight.len(), out_ch * kk, "weight gradient shape");
    assert_eq!(grads.bias.len(), out_ch, "bias gradient shape");
    if let Some(dx) = &grads.input {
        assert_eq!(dx.len(), in_ch * h * w, "input gradient shape");
    }
    let simd = tier.simd();
    // the vector tiers run 8 lanes (see `x86::run`), the portable one 1
    let lanes = if simd.is_some() { LANES } else { 1 };

    // Weight and bias gradients: zero-bordered input planes (each of
    // `hs × ws`, exactly the rows and columns some tap reads), then a
    // zero plane when the taps do not fill whole groups; the output
    // gradient transposed to one `ocp`-lane row per position; and the
    // accumulators transposed to one row per tap.
    let (hs, ws) = ((oh - 1) * s + k, (ow - 1) * s + k);
    let plane = hs * ws;
    let taps = kk.next_multiple_of(TAPS);
    let zero_plane = usize::from(taps > kk);
    let mut xs = vec![0.0; (in_ch + zero_plane) * plane];
    let (rows_in, cols_in) = (h.min(hs.saturating_sub(pad)), w.min(ws.saturating_sub(pad)));
    for (ic, dst) in xs.chunks_exact_mut(plane).take(in_ch).enumerate() {
        for (iy, row) in dst.chunks_exact_mut(ws).skip(pad).take(rows_in).enumerate() {
            row[pad.min(ws)..][..cols_in].copy_from_slice(&x[(ic * h + iy) * w..][..cols_in]);
        }
    }
    let tap_off: Vec<usize> = (0..taps)
        .map(|p| {
            if p < kk {
                let (ic, t) = (p / (k * k), p % (k * k));
                ic * plane + (t / k) * ws + t % k
            } else {
                in_ch * plane
            }
        })
        .collect();
    let ocp = out_ch.next_multiple_of(lanes);
    let positions = oh * ow;
    let mut dt = vec![0.0; positions * ocp];
    for (oc, src) in d.chunks_exact(positions).enumerate() {
        for (row, &v) in dt[oc..].chunks_mut(ocp).zip(src) {
            row[0] = v;
        }
    }
    let mut wt = vec![0.0; taps * ocp];
    for (oc, g) in grads.weight.chunks_exact(kk.max(1)).enumerate() {
        for (p, &v) in g.iter().enumerate() {
            wt[p * ocp + oc] = v;
        }
    }
    let mut bt = vec![0.0; ocp];
    bt[..out_ch].copy_from_slice(grads.bias);
    // Input gradient: per residue, its taps `(offset, kx)` in increasing
    // output column `j + offset`, and the output gradient in
    // zero-bordered rows of `len`, output column `ox` at `lead + ox`,
    // wide enough for every vector load of every residue.
    let span = w.div_ceil(s).next_multiple_of(LANES);
    let staged = grads.input.is_some().then(|| {
        let cols_of: Vec<Vec<(isize, usize)>> = (0..s)
            .map(|c| {
                (0..k)
                    .rev()
                    .filter(|&kx| (c + pad).abs_diff(kx) % s == 0)
                    .map(|kx| (((c + pad) as isize - kx as isize) / s as isize, kx))
                    .collect()
            })
            .collect();
        let offs = cols_of.iter().flatten().map(|&(o, _)| o);
        let lead = offs.clone().map(|o| (-o).max(0)).max().unwrap_or(0) as usize;
        let trail = offs.map(|o| o.max(0)).max().unwrap_or(0) as usize;
        let len = lead + ow.max(span + trail);
        let mut rows = vec![0.0; out_ch * oh * len];
        for (src, dst) in d.chunks_exact(ow).zip(rows.chunks_exact_mut(len)) {
            dst[lead..lead + ow].copy_from_slice(src);
        }
        (cols_of, rows, len, lead)
    });
    let mut par = vec![0.0; if staged.is_some() { s * span } else { 0 }];
    let mut plan = Plan {
        shape: *shape,
        in_hw: (h, w),
        out_hw: (oh, ow),
        weight,
        xs: &xs,
        xs_row: ws,
        tap_off: &tap_off,
        dt: &dt,
        ocp,
        wt: &mut wt,
        bt: &mut bt,
        rows: staged.as_ref().map(|(cols_of, d, len, lead)| Rows {
            d,
            len: *len,
            lead: *lead,
            cols_of,
            span,
        }),
    };
    let dx = grads.input;

    match simd {
        #[cfg(target_arch = "x86_64")]
        Some(cpu) => x86::run(cpu, &mut plan, dx, &mut par),
        _ => {
            wgrad::<One>(&mut plan);
            if let Some(dx) = dx {
                input_grad::<One>(&plan, dx, &mut par);
            }
        }
    }

    for (oc, g) in grads.weight.chunks_exact_mut(kk.max(1)).enumerate() {
        for (p, v) in g.iter_mut().enumerate() {
            *v = wt[p * ocp + oc];
        }
    }
    grads.bias.copy_from_slice(&bt[..out_ch]);
}

/// A layer's staged backward problem.
struct Plan<'a> {
    shape: ConvShape,
    in_hw: (usize, usize),
    out_hw: (usize, usize),
    weight: &'a [f32],
    /// Zero-bordered input planes, then one zero plane.
    xs: &'a [f32],
    /// Staged input row length.
    xs_row: usize,
    /// For each tap `p = (ic·k + ky)·k + kx`, rounded up to [`TAPS`],
    /// its offset from an output position's origin in `xs`.
    tap_off: &'a [usize],
    /// The output gradient, one row of `ocp` lanes per position.
    dt: &'a [f32],
    /// Output channels padded to the weight-gradient lanes.
    ocp: usize,
    /// The weight gradient, one row of `ocp` lanes per tap.
    wt: &'a mut [f32],
    /// The bias gradient, `ocp` lanes.
    bt: &'a mut [f32],
    /// The input gradient's staged rows, if it is computed.
    rows: Option<Rows<'a>>,
}

/// The output gradient staged for the input gradient.
struct Rows<'a> {
    /// `out_ch × oh` zero-bordered rows.
    d: &'a [f32],
    /// Row length.
    len: usize,
    /// Output column 0's index in a row.
    lead: usize,
    /// Per residue, its taps `(offset, kx)` in increasing offset.
    cols_of: &'a [Vec<(isize, usize)>],
    /// Columns per residue, rounded up to [`LANES`].
    span: usize,
}

/// One vector width: a separate multiply then add per term, loads and
/// stores of `L` contiguous floats, and broadcasts.
trait Lanes: Copy {
    type V: Copy;
    const L: usize;

    /// # Safety
    /// The CPU runs this width (as for every method).
    unsafe fn zero() -> Self::V;
    /// # Safety
    /// `L` floats are readable at `p`.
    unsafe fn load(p: *const f32) -> Self::V;
    /// # Safety
    /// `L` floats are writable at `p`.
    unsafe fn store(p: *mut f32, v: Self::V);
    /// # Safety
    /// `p` is readable.
    unsafe fn splat(p: *const f32) -> Self::V;
    /// `acc + a·b`, rounded twice.
    ///
    /// # Safety
    /// As [`Self::zero`].
    unsafe fn mul_add(acc: Self::V, a: Self::V, b: Self::V) -> Self::V;
    /// `a + b`.
    ///
    /// # Safety
    /// As [`Self::zero`].
    unsafe fn add(a: Self::V, b: Self::V) -> Self::V;
}

/// The portable width: one lane.
#[derive(Clone, Copy)]
struct One;

impl Lanes for One {
    type V = f32;
    const L: usize = 1;

    #[inline(always)]
    unsafe fn zero() -> f32 {
        0.0
    }
    #[inline(always)]
    unsafe fn load(p: *const f32) -> f32 {
        // SAFETY: the caller's contract.
        unsafe { *p }
    }
    #[inline(always)]
    unsafe fn store(p: *mut f32, v: f32) {
        // SAFETY: the caller's contract.
        unsafe { *p = v }
    }
    #[inline(always)]
    unsafe fn splat(p: *const f32) -> f32 {
        // SAFETY: the caller's contract.
        unsafe { *p }
    }
    #[inline(always)]
    unsafe fn mul_add(acc: f32, a: f32, b: f32) -> f32 {
        acc + a * b
    }
    #[inline(always)]
    unsafe fn add(a: f32, b: f32) -> f32 {
        a + b
    }
}

/// Every weight- and bias-gradient sweep of the plan, `T::L` output
/// channels at a time.
#[inline(always)]
fn wgrad<T: Lanes>(plan: &mut Plan) {
    let taps = plan.tap_off.len();
    assert!(
        plan.ocp.is_multiple_of(T::L) && taps.is_multiple_of(TAPS),
        "staged lanes"
    );
    let (oh, ow) = plan.out_hw;
    let s = plan.shape.stride;
    // the furthest position's origin plus any tap offset stays in `xs`
    assert!(
        plan.dt.len() == oh * ow * plan.ocp
            && plan.wt.len() == taps * plan.ocp
            && plan.bt.len() == plan.ocp
            && plan
                .tap_off
                .iter()
                .all(|&o| o + (oh - 1) * s * plan.xs_row + (ow - 1) * s < plan.xs.len()),
        "staged backward shapes"
    );
    for ocb in (0..plan.ocp).step_by(T::L) {
        for p0 in (0..taps).step_by(TAPS) {
            // SAFETY: asserted above: every tap of every position reads
            // inside `xs`, every position's `ocp`-lane row is in `dt`,
            // and `ocb + L <= ocp` lanes of each tap row of `wt` and of
            // `bt` exist.
            unsafe {
                if p0 == 0 {
                    wgrad_sweep::<T, true>(plan, ocb, p0)
                } else {
                    wgrad_sweep::<T, false>(plan, ocb, p0)
                }
            }
        }
    }
}

/// Add, over every output position in row-major order, `d·x` into the
/// [`TAPS`] tap accumulators from `p0` and, with `BIAS`, `d` into the
/// bias, for output-channel lanes `ocb..ocb + L`.
///
/// # Safety
/// The CPU runs `T`, and the bounds [`wgrad`] asserts hold.
#[inline(always)]
unsafe fn wgrad_sweep<T: Lanes, const BIAS: bool>(plan: &mut Plan, ocb: usize, p0: usize) {
    let (oh, ow) = plan.out_hw;
    let (s, ocp, row) = (plan.shape.stride, plan.ocp, plan.xs_row);
    let off: [usize; TAPS] = std::array::from_fn(|j| plan.tap_off[p0 + j]);
    let wt = plan.wt.as_mut_ptr();
    let bt = plan.bt.as_mut_ptr();
    // SAFETY: the caller's contract covers every pointer formed here.
    unsafe {
        let mut acc: [T::V; TAPS] = std::array::from_fn(|j| T::load(wt.add((p0 + j) * ocp + ocb)));
        let mut bias = if BIAS {
            T::load(bt.add(ocb))
        } else {
            T::zero()
        };
        let mut dp = plan.dt.as_ptr().add(ocb);
        for oy in 0..oh {
            let xrow = plan.xs.as_ptr().add(oy * s * row);
            for ox in 0..ow {
                let xp = xrow.add(ox * s);
                let dv = T::load(dp);
                for j in 0..TAPS {
                    acc[j] = T::mul_add(acc[j], dv, T::splat(xp.add(off[j])));
                }
                if BIAS {
                    bias = T::add(bias, dv);
                }
                dp = dp.add(ocp);
            }
        }
        for (j, a) in acc.iter().enumerate() {
            T::store(wt.add((p0 + j) * ocp + ocb), *a);
        }
        if BIAS {
            T::store(bt.add(ocb), bias);
        }
    }
}

/// The input gradient: for each input row and residue, tiles of up to
/// [`MAX_TILE`] vectors of `T::L` columns into `par`, then interleaved
/// into `dx`.
#[inline(always)]
fn input_grad<T: Lanes>(plan: &Plan, dx: &mut [f32], par: &mut [f32]) {
    let rows = plan.rows.as_ref().expect("staged input-gradient rows");
    let ConvShape {
        in_ch,
        out_ch,
        ksize: k,
        stride: s,
        pad,
    } = plan.shape;
    let ((h, w), (oh, _)) = (plan.in_hw, plan.out_hw);
    assert!(
        rows.span.is_multiple_of(LANES) && LANES.is_multiple_of(T::L),
        "staged lanes"
    );
    assert!(
        par.len() == s * rows.span
            && rows.d.len() == out_ch * oh * rows.len
            && rows.cols_of.iter().flatten().all(|&(o, _)| {
                rows.lead as isize + o >= 0
                    && rows.lead as isize + o + rows.span as isize <= rows.len as isize
            }),
        "staged input-gradient shapes"
    );
    let mut taps_y: Vec<(usize, usize)> = Vec::with_capacity(k);
    for ic in 0..in_ch {
        for iy in 0..h {
            // the (oy, ky) that reach row iy, in increasing oy
            let top = iy + pad;
            taps_y.clear();
            taps_y.extend(
                ((top + 1).saturating_sub(k).div_ceil(s)..oh.min(top / s + 1))
                    .map(|oy| (oy, top - oy * s)),
            );
            for (c, cols) in rows.cols_of.iter().enumerate() {
                let jc = w.saturating_sub(c).div_ceil(s);
                let out = &mut par[c * rows.span..][..rows.span];
                let mut jb = 0;
                while jb < jc {
                    let vectors = (jc - jb).div_ceil(T::L).min(MAX_TILE);
                    let tile = Tile {
                        ic,
                        taps_y: &taps_y,
                        cols,
                        jb,
                    };
                    // SAFETY: asserted above: each tap's loads, from
                    // `lead + offset + jb` for `vectors·L <= span - jb`
                    // floats, stay inside their staged row, `par`'s
                    // residue row holds `span` floats, and the weight
                    // index is that of a real tap.
                    unsafe {
                        let o = out.as_mut_ptr().add(jb);
                        match vectors {
                            1 => dx_tile::<T, 1>(plan, rows, tile, o),
                            2 => dx_tile::<T, 2>(plan, rows, tile, o),
                            3 => dx_tile::<T, 3>(plan, rows, tile, o),
                            _ => dx_tile::<T, MAX_TILE>(plan, rows, tile, o),
                        }
                    }
                    jb += vectors * T::L;
                }
            }
            let dst = &mut dx[(ic * h + iy) * w..][..w];
            if s == 2 {
                // (the common case, as a loop the compiler vectorizes)
                let (even, odd) = par.split_at(rows.span);
                for (pair, (&e, &o)) in dst.chunks_mut(2).zip(even.iter().zip(odd)) {
                    pair[0] = e;
                    if let Some(v) = pair.get_mut(1) {
                        *v = o;
                    }
                }
            } else {
                for (c, src) in par.chunks_exact(rows.span).enumerate() {
                    for (v, &p) in dst[c.min(w)..].iter_mut().step_by(s).zip(src) {
                        *v = p;
                    }
                }
            }
        }
    }
}

/// One input-gradient tile's row, residue and first column.
#[derive(Clone, Copy)]
struct Tile<'a> {
    ic: usize,
    /// `(oy, ky)` reaching the input row, in increasing `oy`.
    taps_y: &'a [(usize, usize)],
    /// `(offset, kx)` of the residue, in increasing offset.
    cols: &'a [(isize, usize)],
    /// First column index within the residue.
    jb: usize,
}

/// `G` vectors of input gradient: from `+0.0`, add `d·w` for each output
/// channel, then each reaching output row, then each reaching output
/// column, and store them at `out`.
///
/// # Safety
/// The CPU runs `T`, and the bounds [`input_grad`] asserts hold.
#[inline(always)]
unsafe fn dx_tile<T: Lanes, const G: usize>(plan: &Plan, rows: &Rows, t: Tile, out: *mut f32) {
    let ConvShape {
        in_ch,
        out_ch,
        ksize: k,
        ..
    } = plan.shape;
    let oh = plan.out_hw.0;
    // SAFETY: the caller's contract covers every pointer formed here.
    unsafe {
        let mut acc = [T::zero(); G];
        for oc in 0..out_ch {
            let wrow = plan.weight.as_ptr().add((oc * in_ch + t.ic) * k * k);
            for &(oy, ky) in t.taps_y {
                let drow = rows
                    .d
                    .as_ptr()
                    .add((oc * oh + oy) * rows.len + rows.lead + t.jb);
                for &(off, kx) in t.cols {
                    let wv = T::splat(wrow.add(ky * k + kx));
                    let dp = drow.offset(off);
                    for (g, a) in acc.iter_mut().enumerate() {
                        *a = T::mul_add(*a, T::load(dp.add(g * T::L)), wv);
                    }
                }
            }
        }
        for (g, a) in acc.iter().enumerate() {
            T::store(out.add(g * T::L), *a);
        }
    }
}

/// The 8-lane width, which the AVX2 and AVX-512 tiers both run.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{input_grad, wgrad, Lanes, Plan};
    use crate::kernels::Simd;
    use std::arch::x86_64::*;

    /// 8 lanes in a ymm register.
    #[derive(Clone, Copy)]
    struct Ymm;

    impl Lanes for Ymm {
        type V = __m256;
        const L: usize = 8;

        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn zero() -> __m256 {
            _mm256_setzero_ps()
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn load(p: *const f32) -> __m256 {
            // SAFETY: the caller's contract.
            unsafe { _mm256_loadu_ps(p) }
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn store(p: *mut f32, v: __m256) {
            // SAFETY: the caller's contract.
            unsafe { _mm256_storeu_ps(p, v) }
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn splat(p: *const f32) -> __m256 {
            // SAFETY: the caller's contract.
            unsafe { _mm256_broadcast_ss(&*p) }
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn mul_add(acc: __m256, a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(acc, _mm256_mul_ps(a, b))
        }
        #[target_feature(enable = "avx2")]
        #[inline]
        unsafe fn add(a: __m256, b: __m256) -> __m256 {
            _mm256_add_ps(a, b)
        }
    }

    /// Run the plan on `cpu`. Both tiers run the 8-lane code: the
    /// proxy's layers have at most 8 output channels.
    pub(super) fn run(cpu: Simd, plan: &mut Plan, dx: Option<&mut [f32]>, par: &mut [f32]) {
        // SAFETY: either token proves AVX2.
        unsafe {
            match cpu {
                Simd::Avx512(_) | Simd::Avx2(_) => avx2(plan, dx, par),
            }
        }
    }

    #[target_feature(enable = "avx2")]
    fn avx2(plan: &mut Plan, dx: Option<&mut [f32]>, par: &mut [f32]) {
        wgrad::<Ymm>(plan);
        if let Some(dx) = dx {
            input_grad::<Ymm>(plan, dx, par);
        }
    }
}
