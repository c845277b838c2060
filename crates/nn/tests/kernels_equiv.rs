//! Property-based equivalence suite for the fast kernel layer.
//!
//! GEMM paths must agree **bit for bit**: the dispatched kernels (AVX2
//! where the CPU has it), the portable oracles and `matmul_naive` all
//! add each output's terms in the same order. The GEMM convolution is
//! compared with the naive loops under `==` instead: the naive loop
//! skips padding taps while the GEMM adds `w·0.0`, so the two may differ
//! in the sign of a zero, which `==` ignores.
//!
//! The vendored proptest has no `prop_flat_map`, so data arrays are not
//! generated as strategies: each case draws dimensions plus a `u64`
//! seed and fills the arrays with a deterministic LCG.

use otif_nn::kernels::{
    conv2d, conv2d_batched, conv2d_gemm, conv2d_gemm_batched, conv2d_gemm_portable, conv2d_naive,
    matmul_batched, matmul_blocked, matmul_naive, matmul_portable, ConvShape, KernelPath,
};
use otif_nn::{BatchTensor3, Tensor3};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

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

    // Stride 2 has its own AVX2 kernels: a direct convolution for output
    // rows of 8 or more (lane groups pair across rows and items) and a
    // gather-table im2col below that. Odd and even widths, every padding
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

/// Every edge of the AVX2 register tile (up to 6 rows × 16 columns):
/// row counts split into uneven tiles, column counts one either side of
/// a vector or tile boundary, and `k = 1`.
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
