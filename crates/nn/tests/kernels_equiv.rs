//! Property-based equivalence suite for the fast kernel layer.
//!
//! GEMM paths must agree **bit for bit**: every kernel tier
//! (`KernelTier`: AVX-512, AVX2, portable), the dispatched kernels and
//! `matmul_naive` all add each output's terms in the same order. The
//! per-tier tests run each tier this CPU supports against the portable
//! oracle, and print a note to stderr for each tier it lacks. The GEMM convolution is
//! compared with the naive loops under `==` instead: the naive loop
//! skips padding taps while the GEMM adds `w·0.0`, so the two may differ
//! in the sign of a zero, which `==` ignores.
//!
//! The convolution backward pass must agree bit for bit with the scalar
//! scatter loop it replaced (`Conv2d::backward_reference`) on every
//! tier, portable included: kernel, bias and input gradients alike.
//!
//! The vendored proptest has no `prop_flat_map`, so data arrays are not
//! generated as strategies: each case draws dimensions plus a `u64`
//! seed and fills the arrays with a deterministic LCG.

use otif_nn::kernels::{
    conv2d, conv2d_batched, conv2d_gemm, conv2d_gemm_batched, conv2d_gemm_batched_on,
    conv2d_gemm_portable, conv2d_items, conv2d_naive, matmul_batched, matmul_blocked, matmul_naive,
    matmul_on, matmul_portable, ConvShape, KernelPath, KernelTier,
};
use otif_nn::{Activation, BatchTensor3, Conv2d, Tensor3, XavierInit};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::io::Write;
use std::sync::Once;

fn lcg_fill(seed: u64, buf: &mut [f32]) {
    let mut s = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    for v in buf.iter_mut() {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *v = ((s >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Run the three matmuls on one problem; all must agree bitwise.
fn check_matmul(m: usize, k: usize, n: usize, c0: f32, seed: u64) -> Result<(), TestCaseError> {
    let mut a = vec![0.0; m * k];
    let mut b = vec![0.0; k * n];
    lcg_fill(seed, &mut a);
    lcg_fill(seed ^ 0xabcd_ef12, &mut b);
    // every path accumulates on top of a caller-seeded C
    let mut naive = vec![c0; m * n];
    let mut portable = naive.clone();
    let mut dispatched = naive.clone();
    matmul_naive(&a, &b, &mut naive, m, k, n);
    matmul_portable(&a, &b, &mut portable, m, k, n);
    matmul_blocked(&a, &b, &mut dispatched, m, k, n);
    prop_assert_eq!(
        bits(&portable),
        bits(&naive),
        "portable vs naive at {}x{}x{}",
        m,
        k,
        n
    );
    prop_assert_eq!(
        bits(&dispatched),
        bits(&naive),
        "dispatched vs naive at {}x{}x{}",
        m,
        k,
        n
    );
    Ok(())
}

/// Convolve `batch` random items: the batched and per-item dispatched
/// GEMM convolutions must equal the portable one bitwise, and the naive
/// loops under `==`.
fn check_conv(
    shape: ConvShape,
    (h, w): (usize, usize),
    batch: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut weight = vec![0.0; shape.out_ch * shape.in_ch * shape.ksize * shape.ksize];
    let mut bias = vec![0.0; shape.out_ch];
    lcg_fill(seed ^ 0xdead_beef, &mut weight);
    lcg_fill(seed ^ 0x5eed_cafe, &mut bias);
    let items: Vec<Tensor3> = (0..batch)
        .map(|i| {
            let mut x = Tensor3::zeros(shape.in_ch, h, w);
            lcg_fill(seed.wrapping_add(i as u64), &mut x.data);
            x
        })
        .collect();
    let (oh, ow) = shape.out_size(h, w);
    let refs: Vec<&Tensor3> = items.iter().collect();
    let mut stacked = BatchTensor3::zeros(batch, shape.out_ch, oh, ow);
    conv2d_gemm_batched(
        &shape,
        &weight,
        &bias,
        &BatchTensor3::from_items(&refs),
        &mut stacked,
    );
    let mut got = Tensor3::zeros(0, 0, 0);
    for (i, x) in items.iter().enumerate() {
        let mut naive = Tensor3::zeros(shape.out_ch, oh, ow);
        let mut portable = naive.clone();
        let mut dispatched = naive.clone();
        conv2d_naive(&shape, &weight, &bias, x, &mut naive);
        conv2d_gemm_portable(&shape, &weight, &bias, x, &mut portable);
        conv2d_gemm(&shape, &weight, &bias, x, &mut dispatched);
        stacked.item_into(i, &mut got);
        let at = format!("{shape:?} input {h}x{w}, item {i} of {batch}");
        prop_assert_eq!(
            bits(&dispatched.data),
            bits(&portable.data),
            "dispatched vs portable at {}",
            at
        );
        prop_assert_eq!(
            bits(&got.data),
            bits(&portable.data),
            "batched vs portable at {}",
            at
        );
        prop_assert_eq!(&portable.data, &naive.data, "portable vs naive at {}", at);
    }
    Ok(())
}

/// Whether this CPU runs `tier`. If not, says so once per tier on the
/// process's stderr (the harness hides `eprintln!` of passing tests), so
/// a host without a vector tier does not pass silently.
fn host_runs(tier: KernelTier) -> bool {
    static NOTED: [Once; 3] = [const { Once::new() }; 3];
    let runs = tier.supported();
    if !runs {
        NOTED[tier as usize].call_once(|| {
            let note = format!(
                "note: this CPU lacks the {} kernel tier; not tested\n",
                tier.name()
            );
            let _ = std::io::stderr().write_all(note.as_bytes());
        });
    }
    runs
}

/// The vector tiers this CPU runs.
fn vector_tiers() -> impl Iterator<Item = KernelTier> {
    KernelTier::ALL
        .into_iter()
        .filter(|&t| t != KernelTier::Portable && host_runs(t))
}

/// The matmul on every vector tier this CPU runs against the portable
/// kernel, bitwise, on a C seeded with `c0`.
fn check_matmul_tiers(
    (m, k, n): (usize, usize, usize),
    c0: f32,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut a = vec![0.0; m * k];
    let mut b = vec![0.0; k * n];
    lcg_fill(seed, &mut a);
    lcg_fill(seed ^ 0x1234_5678, &mut b);
    let mut want = vec![c0; m * n];
    matmul_portable(&a, &b, &mut want, m, k, n);
    for tier in vector_tiers() {
        let mut got = vec![c0; m * n];
        matmul_on(tier, &a, &b, &mut got, m, k, n);
        prop_assert_eq!(
            bits(&got),
            bits(&want),
            "{} matmul vs portable at {}x{}x{}",
            tier.name(),
            m,
            k,
            n
        );
    }
    Ok(())
}

/// `items` random inputs convolved on every vector tier this CPU runs,
/// stacked and (at `items > 1`) through the per-item input, against the
/// portable kernels, bitwise.
fn check_conv_tiers(
    shape: ConvShape,
    (h, w): (usize, usize),
    items: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let mut weight = vec![0.0; shape.out_ch * shape.in_ch * shape.ksize * shape.ksize];
    let mut bias = vec![0.0; shape.out_ch];
    lcg_fill(seed ^ 0xdead_beef, &mut weight);
    lcg_fill(seed ^ 0x5eed_cafe, &mut bias);
    let xs: Vec<Tensor3> = (0..items)
        .map(|i| {
            let mut x = Tensor3::zeros(shape.in_ch, h, w);
            lcg_fill(seed.wrapping_add(i as u64), &mut x.data);
            x
        })
        .collect();
    let refs: Vec<&Tensor3> = xs.iter().collect();
    let x = BatchTensor3::from_items(&refs);
    let (oh, ow) = shape.out_size(h, w);
    let mut want = BatchTensor3::zeros(items, shape.out_ch, oh, ow);
    conv2d_gemm_batched_on(KernelTier::Portable, &shape, &weight, &bias, &x, &mut want);
    let at = format!("{shape:?} input {h}x{w} (output {oh}x{ow}), {items} items");
    for tier in vector_tiers() {
        let mut got = BatchTensor3::zeros(items, shape.out_ch, oh, ow);
        conv2d_gemm_batched_on(tier, &shape, &weight, &bias, &x, &mut got);
        prop_assert_eq!(
            bits(&got.data),
            bits(&want.data),
            "{} conv vs portable at {}",
            tier.name(),
            at
        );
    }
    // the per-item input (on the dispatched tier) stages the same values
    let item = |i: usize| xs[i].data.as_slice();
    let mut got = BatchTensor3::zeros(items, shape.out_ch, oh, ow);
    conv2d_items(
        &shape,
        &weight,
        &bias,
        &item,
        items,
        (h, w),
        &mut got,
        KernelPath::Gemm,
    );
    prop_assert_eq!(
        bits(&got.data),
        bits(&want.data),
        "per-item input vs portable at {}",
        at
    );
    Ok(())
}

/// The input width at which a `k`-wide stride-2 kernel with padding
/// `pad` makes output rows of `ow` (`extra` adds the column a stride-2
/// layer drops).
fn stride2_input(ow: usize, k: usize, pad: usize, extra: usize) -> usize {
    (2 * (ow - 1) + k + extra)
        .saturating_sub(2 * pad)
        .max(k.saturating_sub(2 * pad))
        .max(1)
}

proptest! {
    // Every vector tier's stride-2 kernels: direct lane groups on rows
    // of 4 or more (two half-groups per row on wide rows, two rows per
    // group on narrow ones, across item boundaries) and gathers below
    // 4, at every channel count the models use and then some.
    #[test]
    fn stride2_conv_tiers_match_portable(
        chans in ((1usize..9), (1usize..10)),
        out in ((1usize..41), (1usize..7)),
        geom in ((1usize..4), (0usize..2), (0usize..2)),
        items in 1usize..17,
        seed in 0u64..u64::MAX,
    ) {
        let (in_ch, out_ch) = chans;
        let (ow, oh) = out;
        let (ksize, pad, extra) = geom;
        let shape = ConvShape { in_ch, out_ch, ksize, stride: 2, pad };
        let (h, w) = (stride2_input(oh, ksize, pad, extra), stride2_input(ow, ksize, pad, extra));
        check_conv_tiers(shape, (h, w), items, seed)?;
    }

    // Other strides and 1×1 layers run im2col (or nothing) and each
    // tier's GEMM.
    #[test]
    fn other_conv_tiers_match_portable(
        chans in ((1usize..9), (1usize..10)),
        geom in ((1usize..4), (1usize..4), (0usize..2)),
        dims in ((1usize..21), (1usize..41)),
        items in 1usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let (in_ch, out_ch) = chans;
        let (ksize, stride, pad) = geom;
        let (h, w) = (dims.0.max(ksize), dims.1.max(ksize));
        let shape = ConvShape { in_ch, out_ch, ksize, stride, pad };
        check_conv_tiers(shape, (h, w), items, seed)?;
    }

    #[test]
    fn matmul_tiers_match_portable(
        m in 1usize..21,
        k in 1usize..41,
        n in 1usize..101,
        c0 in -2.0f32..2.0,
        seed in 0u64..u64::MAX,
    ) {
        check_matmul_tiers((m, k, n), c0, seed)?;
    }
}

/// The output row widths where lane groups change shape on some tier:
/// around the AVX2 half (4) and group (8) and the AVX-512 half (8) and
/// group (16), at one and several items, unpadded and padded.
#[test]
fn conv_tiers_match_portable_at_named_row_widths() {
    for ow in [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 40] {
        for (in_ch, out_ch) in [(1, 3), (3, 6), (6, 8), (8, 9)] {
            for items in [1, 3, 16] {
                for pad in [0, 1] {
                    let shape = ConvShape {
                        in_ch,
                        out_ch,
                        ksize: 3,
                        stride: 2,
                        pad,
                    };
                    let (h, w) = (stride2_input(3, 3, pad, 1), stride2_input(ow, 3, pad, 1));
                    let seed = (ow * 1000 + in_ch * 100 + items * 10 + pad) as u64;
                    check_conv_tiers(shape, (h, w), items, seed).unwrap();
                }
            }
        }
    }
}

/// Every edge of each tier's GEMM register tile: rows that split into
/// uneven tiles of up to 6 (AVX2) or 8 (AVX-512), columns either side of
/// the 8- and 16-lane vectors and the 16- and 32-column panels.
#[test]
fn matmul_tiers_match_portable_at_register_tile_edges() {
    for m in 1..=17 {
        for n in [1, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 47, 48, 49, 64, 65] {
            for k in [1, 2, 9] {
                check_matmul_tiers((m, k, n), 0.25, (m * 1000 + n * 10 + k) as u64).unwrap();
            }
        }
    }
}

/// The segmentation proxy's and `WindowNet`'s whole layer stacks (five
/// 3×3 stride-2 encoder layers, then the 1×1 decoders), every layer on
/// every tier: the proxy at `ingest-proxy`'s 224×128 scoring input and
/// at full Warsaw size, and windows from the smallest surrogate input
/// (8×8) to the largest (96×96), single and batched.
#[test]
fn model_layer_stacks_match_portable_on_every_tier() {
    let encoder = [(1, 3), (3, 6), (6, 6), (6, 8), (8, 8)];
    let decoder = [(8, 6), (6, 1)];
    for ((w, h), items) in [
        ((224, 128), 1),
        ((640, 384), 1),
        ((8, 8), 12),
        ((32, 32), 12),
        ((64, 48), 4),
        ((96, 96), 2),
        ((45, 37), 3),
    ] {
        let (mut h, mut w) = (h, w);
        for (in_ch, out_ch) in encoder {
            let shape = ConvShape {
                in_ch,
                out_ch,
                ksize: 3,
                stride: 2,
                pad: 1,
            };
            check_conv_tiers(shape, (h, w), items, (h * w + in_ch) as u64).unwrap();
            (h, w) = shape.out_size(h, w);
        }
        for (in_ch, out_ch) in decoder {
            let shape = ConvShape {
                in_ch,
                out_ch,
                ksize: 1,
                stride: 1,
                pad: 0,
            };
            check_conv_tiers(shape, (h, w), items, (h * w + in_ch) as u64).unwrap();
        }
    }
}

proptest! {
    #[test]
    fn gemm_conv_matches_naive(
        chans in ((1usize..5), (1usize..14)),
        geom in ((1usize..5), (1usize..4), (0usize..3)),
        dims in ((1usize..24), (1usize..24)),
        seed in 0u64..u64::MAX,
    ) {
        let (in_ch, out_ch) = chans;
        let (ksize, stride, pad) = geom;
        // guarantee at least one valid output position
        let h = dims.0.max(ksize);
        let w = dims.1.max(ksize);
        let shape = ConvShape { in_ch, out_ch, ksize, stride, pad };
        check_conv(shape, (h, w), 1, seed)?;

        // the auto dispatcher must resolve to one of the two paths, not
        // some third behaviour
        let mut x = Tensor3::zeros(in_ch, h, w);
        let mut weight = vec![0.0; out_ch * in_ch * ksize * ksize];
        let mut bias = vec![0.0; out_ch];
        lcg_fill(seed, &mut x.data);
        lcg_fill(seed ^ 0xdead_beef, &mut weight);
        lcg_fill(seed ^ 0x5eed_cafe, &mut bias);
        let (oh, ow) = shape.out_size(h, w);
        let mut naive = Tensor3::zeros(out_ch, oh, ow);
        let mut auto = Tensor3::zeros(out_ch, oh, ow);
        conv2d_naive(&shape, &weight, &bias, &x, &mut naive);
        conv2d(&shape, &weight, &bias, &x, &mut auto, KernelPath::Auto);
        prop_assert_eq!(&auto.data, &naive.data);
    }

    // Stride 2 has its own vector kernels: a direct convolution for
    // output rows of 4 or more (lane groups pair across rows and items)
    // and a gather-table im2col below that. Odd and even widths, every padding
    // the proxy could use, and stacked items exercise both.
    #[test]
    fn stride2_conv_is_bitwise_across_paths(
        chans in ((1usize..4), (1usize..10)),
        ksize in 1usize..5,
        pad in 0usize..3,
        half_h in 0usize..20,
        half_w in 0usize..24,
        odd in 0usize..2,
        batch in 1usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let (in_ch, out_ch) = chans;
        let h = (2 * half_h + 1).max(ksize);
        let w = (2 * half_w + odd).max(ksize);
        let shape = ConvShape { in_ch, out_ch, ksize, stride: 2, pad };
        check_conv(shape, (h, w), batch, seed)?;
    }

    #[test]
    fn blocked_matmul_matches_naive(
        m in 1usize..32,
        k in 1usize..48,
        n in 1usize..96,
        c0 in -2.0f32..2.0,
        seed in 0u64..u64::MAX,
    ) {
        check_matmul(m, k, n, c0, seed)?;
    }

    #[test]
    fn blocked_matmul_matches_naive_across_column_tiles(
        m in 1usize..4,
        k in 1usize..8,
        extra in 0usize..600,
        seed in 0u64..u64::MAX,
    ) {
        // n spans the portable kernel's 1024-wide tile boundary, which
        // the small-n property above never reaches
        check_matmul(m, k, 900 + extra, 0.0, seed)?;
    }

    // The batched convolution must be *bitwise* identical to N looped
    // calls — for every kernel path, every randomized shape and batch
    // size, and regardless of which path runs first (the thread-local
    // scratch pool is reused across calls in whatever order, and its
    // state must never leak into results).
    #[test]
    fn batched_conv_bitwise_equals_looped(
        chans in ((1usize..5), (1usize..5)),
        geom in ((1usize..4), (1usize..3), (0usize..2)),
        dims in ((1usize..16), (1usize..16)),
        batch in 1usize..6,
        path_sel in 0usize..3,
        batched_first in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let (in_ch, out_ch) = chans;
        let (ksize, stride, pad) = geom;
        let h = dims.0.max(ksize);
        let w = dims.1.max(ksize);
        let shape = ConvShape { in_ch, out_ch, ksize, stride, pad };
        let path = [KernelPath::Auto, KernelPath::Naive, KernelPath::Gemm][path_sel];
        let batched_first = batched_first == 1;

        let mut items = Vec::new();
        for i in 0..batch {
            let mut x = Tensor3::zeros(in_ch, h, w);
            lcg_fill(seed.wrapping_add(i as u64), &mut x.data);
            items.push(x);
        }
        let mut weight = vec![0.0; out_ch * in_ch * ksize * ksize];
        let mut bias = vec![0.0; out_ch];
        lcg_fill(seed ^ 0xdead_beef, &mut weight);
        lcg_fill(seed ^ 0x5eed_cafe, &mut bias);

        let (oh, ow) = shape.out_size(h, w);
        let refs: Vec<&Tensor3> = items.iter().collect();
        let xb = BatchTensor3::from_items(&refs);
        let mut out_b = BatchTensor3::zeros(batch, out_ch, oh, ow);
        let mut looped: Vec<Tensor3> = (0..batch).map(|_| Tensor3::zeros(out_ch, oh, ow)).collect();

        let run_looped = |outs: &mut Vec<Tensor3>| {
            for (x, out) in items.iter().zip(outs.iter_mut()) {
                conv2d(&shape, &weight, &bias, x, out, path);
            }
        };
        if batched_first {
            conv2d_batched(&shape, &weight, &bias, &xb, &mut out_b, path);
            run_looped(&mut looped);
        } else {
            run_looped(&mut looped);
            conv2d_batched(&shape, &weight, &bias, &xb, &mut out_b, path);
        }

        let mut got = Tensor3::zeros(0, 0, 0);
        for (i, want) in looped.iter().enumerate() {
            out_b.item_into(i, &mut got);
            let got_bits: Vec<u32> = got.data.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u32> = want.data.iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(
                got_bits, want_bits,
                "batched conv not bitwise at item {} ({:?}, {:?}, {}x{}, batch {}, batched_first {})",
                i, shape, path, h, w, batch, batched_first
            );
        }
    }

    // Same contract for the batched matmul: one widened GEMM over
    // column-stacked B/C blocks, bitwise-equal to per-item
    // `matmul_blocked` calls in either execution order.
    #[test]
    fn batched_matmul_bitwise_equals_looped(
        m in 1usize..6,
        k in 1usize..12,
        n in 1usize..64,
        batch in 1usize..6,
        batched_first in 0usize..2,
        c0 in -2.0f32..2.0,
        seed in 0u64..u64::MAX,
    ) {
        let batched_first = batched_first == 1;
        let mut a = vec![0.0; m * k];
        lcg_fill(seed, &mut a);
        let mut bs = vec![0.0; batch * k * n];
        lcg_fill(seed ^ 0xabcd_ef12, &mut bs);
        let mut cs = vec![c0; batch * m * n];
        let mut want = cs.clone();

        let run_looped = |want: &mut Vec<f32>| {
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
        };
        if batched_first {
            matmul_batched(&a, &bs, &mut cs, batch, m, k, n);
            run_looped(&mut want);
        } else {
            run_looped(&mut want);
            matmul_batched(&a, &bs, &mut cs, batch, m, k, n);
        }
        let got_bits: Vec<u32> = cs.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u32> = want.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(
            got_bits, want_bits,
            "batched matmul not bitwise at {}x{}x{} batch {} batched_first {}",
            m, k, n, batch, batched_first
        );
    }
}

/// Every edge of the dispatched tier's register tile (up to 6 × 16 on
/// AVX2, 8 × 32 on AVX-512): row counts split into uneven tiles, column
/// counts one either side of a vector or tile boundary, and `k = 1`.
#[test]
fn matmul_register_tile_edges_are_bitwise() {
    for m in 1..=13 {
        for n in [1, 2, 7, 8, 9, 12, 15, 16, 17, 28, 31, 33] {
            for k in [1, 2, 9] {
                check_matmul(m, k, n, 0.25, (m * 1000 + n * 10 + k) as u64).unwrap();
            }
        }
    }
}

/// The proxy's and `WindowNet`'s own stride-2 layers, at shapes whose
/// output rows fall on and off the 8-lane groups, plus 4-wide rows in an
/// odd count (the last row-pair group is half empty).
#[test]
fn model_layer_shapes_are_bitwise() {
    for (in_ch, out_ch, h, w, batch) in [
        (1, 3, 128, 224, 1),
        (3, 6, 64, 112, 1),
        (6, 6, 32, 56, 1),
        (6, 8, 16, 28, 1),
        (8, 8, 8, 14, 1),
        (1, 3, 32, 32, 12),
        (3, 6, 16, 16, 12),
        (6, 6, 8, 8, 12),
        (6, 8, 4, 4, 12),
        (8, 8, 2, 2, 12),
        (1, 3, 37, 45, 3),
        (6, 6, 9, 8, 3),
    ] {
        let shape = ConvShape {
            in_ch,
            out_ch,
            ksize: 3,
            stride: 2,
            pad: 1,
        };
        check_conv(shape, (h, w), batch, (h * w) as u64).unwrap();
    }
}

const ACTS: [Activation; 5] = [
    Activation::LeakyRelu,
    Activation::Linear,
    Activation::Relu,
    Activation::Tanh,
    Activation::Sigmoid,
];

/// A `shape` layer with activation `act` after a forward pass on a
/// random `h × w` input, holding prior gradients (`+0.0` or random), and
/// an output gradient with `+0.0` and `−0.0` among its values: the
/// backward pass on every tier this CPU runs must equal the scatter
/// loop's kernel, bias and input gradients bitwise, and without the
/// input gradient its kernel and bias gradients.
fn check_backward_tiers(
    shape: ConvShape,
    act: Activation,
    (h, w): (usize, usize),
    seed: u64,
) -> Result<(), TestCaseError> {
    let ConvShape {
        in_ch,
        out_ch,
        ksize,
        stride,
        pad,
    } = shape;
    let mut layer = Conv2d::new(
        in_ch,
        out_ch,
        ksize,
        stride,
        pad,
        act,
        &mut XavierInit::new(seed),
    );
    // biases either side of zero, so LeakyReLU and ReLU outputs <= 0
    // occur on every layer
    lcg_fill(seed ^ 0x5eed_cafe, &mut layer.bias.w);
    let mut x = Tensor3::zeros(in_ch, h, w);
    lcg_fill(seed, &mut x.data);
    let y = layer.forward(&x);
    let mut noise = vec![0.0; y.len() + layer.weight.len() + out_ch];
    lcg_fill(seed ^ 0x0bad_f00d, &mut noise);
    let (gy_noise, prior) = noise.split_at(y.len());
    let mut gy = Tensor3::zeros(y.c, y.h, y.w);
    lcg_fill(seed ^ 0x1357_9bdf, &mut gy.data);
    for (g, &r) in gy.data.iter_mut().zip(gy_noise) {
        // a quarter +0.0, a quarter −0.0
        if r < -0.25 {
            *g = 0.0;
        } else if r < 0.0 {
            *g = -0.0;
        }
    }
    if seed.is_multiple_of(2) {
        let (pw, pb) = prior.split_at(layer.weight.len());
        layer.weight.g.copy_from_slice(pw);
        layer.bias.g.copy_from_slice(pb);
    }
    let mut want = layer.clone();
    let want_dx = want.backward_reference(&gy);
    let at = format!("{shape:?} {act:?} input {h}x{w}");
    for tier in KernelTier::ALL.into_iter().filter(|&t| host_runs(t)) {
        let mut got = layer.clone();
        let mut dx = Tensor3::zeros(in_ch, h, w);
        dx.data.fill(f32::NAN);
        got.backward_on(tier, &gy, Some(&mut dx));
        let mut params = layer.clone();
        params.backward_on(tier, &gy, None);
        for (l, what) in [(&got, "with"), (&params, "without")] {
            prop_assert_eq!(
                bits(&l.weight.g),
                bits(&want.weight.g),
                "{} kernel gradient ({} dL/dx) at {}",
                tier.name(),
                what,
                at
            );
            prop_assert_eq!(
                bits(&l.bias.g),
                bits(&want.bias.g),
                "{} bias gradient ({} dL/dx) at {}",
                tier.name(),
                what,
                at
            );
        }
        prop_assert_eq!(
            bits(&dx.data),
            bits(&want_dx.data),
            "{} input gradient at {}",
            tier.name(),
            at
        );
    }
    Ok(())
}

proptest! {
    // The proxy's two layer kinds, 3×3 stride-2 pad-1 and 1×1, at odd,
    // even and sub-3 input sizes.
    #[test]
    fn backward_tiers_match_scatter_loop(
        chans in ((1usize..9), (1usize..10)),
        dims in ((1usize..24), (1usize..40)),
        one_by_one in 0usize..4,
        act in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let (in_ch, out_ch) = chans;
        let (ksize, stride, pad) = if one_by_one == 0 { (1, 1, 0) } else { (3, 2, 1) };
        let shape = ConvShape { in_ch, out_ch, ksize, stride, pad };
        check_backward_tiers(shape, ACTS[act], dims, seed)?;
    }

    // Every other geometry the layer allows.
    #[test]
    fn backward_tiers_match_scatter_loop_at_other_geometries(
        chans in ((1usize..5), (1usize..18)),
        geom in ((1usize..5), (1usize..4), (0usize..3)),
        dims in ((1usize..16), (1usize..24)),
        seed in 0u64..u64::MAX,
    ) {
        let (in_ch, out_ch) = chans;
        let (ksize, stride, pad) = geom;
        let shape = ConvShape { in_ch, out_ch, ksize, stride, pad };
        check_backward_tiers(shape, Activation::LeakyRelu, dims, seed)?;
    }
}

/// The segmentation proxy's whole layer stack at `ingest-proxy`'s
/// 224×128 input and at the smallest proxy input, on every tier.
#[test]
fn proxy_layer_stack_backward_matches_scatter_loop_on_every_tier() {
    let encoder = [(1, 3), (3, 6), (6, 6), (6, 8), (8, 8)];
    for (w, h) in [(224, 128), (32, 32)] {
        let (mut h, mut w) = (h, w);
        for (in_ch, out_ch) in encoder {
            let shape = ConvShape {
                in_ch,
                out_ch,
                ksize: 3,
                stride: 2,
                pad: 1,
            };
            let seed = (h * w + in_ch) as u64;
            check_backward_tiers(shape, Activation::LeakyRelu, (h, w), seed).unwrap();
            (h, w) = shape.out_size(h, w);
        }
        for (in_ch, out_ch, act) in [(8, 6, Activation::LeakyRelu), (6, 1, Activation::Linear)] {
            let shape = ConvShape {
                in_ch,
                out_ch,
                ksize: 1,
                stride: 1,
                pad: 0,
            };
            check_backward_tiers(shape, act, (h, w), (h * w + in_ch) as u64).unwrap();
        }
    }
}
