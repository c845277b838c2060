//! Wall-clock micro-bench of the `otif_nn::kernels` layer: naive
//! reference loops vs the portable GEMM kernels vs each vector kernel
//! tier this CPU runs (`KernelTier`: AVX-512, AVX2), plus the frame renderer that
//! feeds them (`Renderer::render_region_on` at each sensor-noise tier
//! this CPU runs vs the per-pixel `render_region_naive` reference).
//!
//! Unlike every other bench binary, this one reports **wall-clock
//! seconds on the current machine** — the kernels are a real-CPU
//! optimization, invisible to the simulated V100 cost model. The proxy
//! runs at Warsaw's 640×384 frame scaled by `PROXY_SCALES[3]` (224×128),
//! the shape `perfbench ingest-proxy` scores every sampled frame at.
//! Sections:
//!
//! - the whole proxy forward pass, naive vs GEMM vs `Auto`;
//! - each proxy layer's convolution, portable vs every kernel tier, and
//!   each encoder layer's GEMM alone, plus the recurrent tracker's GEMM
//!   shapes;
//! - the naive/GEMM crossover that `GEMM_MIN_MACS` is read from: the
//!   1×1 decoder layers, the late encoder layers and small-window
//!   layers;
//! - a proxy training step's backward pass, layer by layer: the scalar
//!   scatter loop (`Conv2d::backward_reference`) vs each kernel tier,
//!   portable included; the first layer skips `dL/dx` on the tiers, as
//!   training does;
//! - batched vs looped forwards (one looped per-window baseline, timed
//!   interleaved with every batch size), and the renderer;
//! - recurrent-tracker inference, looped (`TrackerModel`, one pair or
//!   GRU step per call) vs packed (`PackedTracker`, one batch), per pair
//!   and per step;
//! - frame-limit queries on one clip's tracks, a track-span sweep that
//!   matches each frame as it reaches it vs `FrameLimitQuery::table_matches`
//!   on the clip's prebuilt `FrameTable` (with the table's build time and
//!   bytes), and `select_frames` alone vs a stable-sort greedy selection
//!   that checks every taken frame.
//!
//! Every pair of paths is checked before timing, on every run: GEMM
//! paths, backward passes, renderers and tracker paths must agree bit
//! for bit, GEMM and
//! naive convolutions under `==` (they may differ in the sign of a
//! zero), query paths in their answers. So a speedup never comes at the
//! cost of divergent results.
//!
//! Usage: `cargo run --release -p otif-bench --bin kernels [tiny|small|experiment]`
//!
//! `tiny` is the CI smoke mode: a reduced input and rep count, written
//! to the git-ignored `target/bench-smoke/BENCH_kernels_smoke.json` so
//! it never rewrites the real `results/BENCH_kernels.json` produced by
//! the full mode.

use otif_bench::report::{print_table, write_report};
use otif_core::proxy::proxy_input_dims;
use otif_core::{SegProxyModel, WindowNet, PROXY_SCALES};
use otif_cv::{Detection, DetectorArch, DetectorConfig, APPEARANCE_DIM};
use otif_geom::{Point, Polygon, Rect};
use otif_nn::kernels::{
    conv2d_gemm_on, conv2d_gemm_portable, conv2d_naive, conv_path_for, matmul_naive, matmul_on,
    matmul_portable, ConvShape, KernelTier,
};
use otif_nn::{Activation, BatchTensor3, Conv2d, KernelPath, Tensor3, XavierInit};
use otif_query::{is_car, ClipMatches, FrameLimitQuery, FrameQueryKind, FrameRef, FrameTable};
use otif_sim::{Clip, DatasetKind, GrayImage, NoiseTier, ObjectClass, Renderer};
use otif_track::recurrent::{DET_FEAT_DIM, HEAD_HIDDEN, HIDDEN, PAIR_FEAT_DIM};
use otif_track::{PairBatch, StepBatch, Track, TrackerModel};
use serde::Serialize;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

#[derive(Serialize)]
struct ProxyBench {
    in_w: usize,
    in_h: usize,
    reps: usize,
    naive_seconds_per_pass: f64,
    gemm_seconds_per_pass: f64,
    auto_seconds_per_pass: f64,
    speedup_gemm_over_naive: f64,
}

/// One vector kernel tier's time on a problem.
#[derive(Serialize)]
struct TierTime {
    /// `KernelTier::name`.
    tier: String,
    us: f64,
    speedup_over_portable: f64,
}

/// One convolution layer, naive vs portable GEMM vs each vector tier.
#[derive(Serialize)]
struct ConvBench {
    layer: String,
    in_w: usize,
    in_h: usize,
    macs: usize,
    reps: usize,
    naive_us: f64,
    portable_us: f64,
    /// Every vector tier this CPU runs, fastest first.
    tiers: Vec<TierTime>,
    /// The path `KernelPath::Auto` resolves to at this shape.
    auto_path: String,
}

/// One kernel tier's backward pass on a layer.
#[derive(Serialize)]
struct BackwardTier {
    /// `KernelTier::name`.
    tier: String,
    us: f64,
    speedup_over_scatter: f64,
}

/// One proxy layer's backward pass (or, as `step`, their sum): the
/// scalar scatter loop vs every kernel tier this CPU runs.
#[derive(Serialize)]
struct BackwardBench {
    layer: String,
    in_w: usize,
    in_h: usize,
    /// Whether the tiers compute `dL/dx` (the scatter loop always does).
    input_grad: bool,
    reps: usize,
    scatter_us: f64,
    /// Every tier this CPU runs, fastest first, portable last.
    tiers: Vec<BackwardTier>,
}

/// One GEMM shape, naive vs portable vs each vector tier.
#[derive(Serialize)]
struct MatmulBench {
    /// What the shape is (a proxy layer, a tracker GEMM).
    label: String,
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    naive_us: f64,
    portable_us: f64,
    tiers: Vec<TierTime>,
}

/// One batch size of a batched-vs-looped sweep. The looped time is the
/// sweep's one shared per-window baseline.
#[derive(Serialize)]
struct BatchedBench {
    shape: String,
    in_w: usize,
    in_h: usize,
    batch: usize,
    reps: usize,
    looped_seconds_per_window: f64,
    batched_seconds_per_window: f64,
    speedup_batched_over_looped: f64,
}

#[derive(Serialize)]
struct RenderBench {
    shape: String,
    /// The sensor-noise tier of the fast path (`NoiseTier::name`).
    tier: String,
    out_w: usize,
    out_h: usize,
    frames: usize,
    reps: usize,
    naive_us_per_render: f64,
    fast_us_per_render: f64,
    speedup_fast_over_naive: f64,
}

/// Looped vs packed tracker inference on one frame's worth of tracks
/// and candidates, every pair inside the spatial gate.
#[derive(Serialize)]
struct TrackerBench {
    tracks: usize,
    dets: usize,
    reps: usize,
    looped_us_per_pair: f64,
    packed_us_per_pair: f64,
    looped_us_per_step: f64,
    packed_us_per_step: f64,
}

/// One frame-limit query on one clip: the track-span sweep vs a read of
/// the prebuilt frame table, and the table's build time and size.
#[derive(Serialize)]
struct QueryBench {
    query: String,
    dataset: String,
    frames: usize,
    tracks: usize,
    matches: usize,
    reps: usize,
    sweep_us_per_clip: f64,
    table_us_per_clip: f64,
    speedup_table_over_sweep: f64,
    build_us_per_clip: f64,
    table_bytes_per_clip: usize,
}

/// `select_frames` over many clips' matches vs the stable-sort greedy
/// selection.
#[derive(Serialize)]
struct SelectBench {
    clips: usize,
    matches: usize,
    limit: usize,
    reps: usize,
    greedy_us: f64,
    select_us: f64,
    speedup_select_over_greedy: f64,
}

#[derive(Serialize)]
struct KernelsReport {
    mode: String,
    proxy: ProxyBench,
    proxy_layers: Vec<ConvBench>,
    proxy_backward: Vec<BackwardBench>,
    matmul: Vec<MatmulBench>,
    crossover: Vec<ConvBench>,
    batched_vs_looped: Vec<BatchedBench>,
    render: Vec<RenderBench>,
    tracker: Vec<TrackerBench>,
    queries: Vec<QueryBench>,
    select: SelectBench,
}

/// Best-of-3 timing of `reps` calls to `f`, in seconds per call.
fn time_per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t = Instant::now();
        for _ in 0..reps {
            f();
        }
        best = best.min(t.elapsed().as_secs_f64() / reps.max(1) as f64);
    }
    best
}

/// Best-of-3 timing of `reps` calls to each of `fs`, interleaved call by
/// call (rotating which goes first), in seconds per call of each. Clock
/// and cache drift over the run land on every function alike, so their
/// ratios are steadier than separate [`time_per_call`] blocks'.
fn time_rotating(reps: usize, fs: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut best = vec![f64::INFINITY; fs.len()];
    for _ in 0..3 {
        let mut sum = vec![0.0; fs.len()];
        for rep in 0..reps {
            for j in 0..fs.len() {
                let i = (rep + j) % fs.len();
                let t = Instant::now();
                fs[i]();
                sum[i] += t.elapsed().as_secs_f64();
            }
        }
        for (b, s) in best.iter_mut().zip(sum) {
            *b = b.min(s / reps.max(1) as f64);
        }
    }
    best
}

/// [`time_rotating`] of two functions.
fn time_interleaved(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let t = time_rotating(reps, &mut [&mut a, &mut b]);
    (t[0], t[1])
}

/// The vector kernel tiers this CPU runs, fastest first.
fn vector_tiers() -> Vec<KernelTier> {
    KernelTier::ALL
        .into_iter()
        .filter(|t| *t != KernelTier::Portable && t.supported())
        .collect()
}

/// Deterministic values in `[-0.5, 0.5)`.
fn fill(len: usize, salt: u64) -> Vec<f32> {
    let mut state = salt | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 40) as f32) / (1u64 << 24) as f32 - 0.5
        })
        .collect()
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn bench_proxy(model: &SegProxyModel, reps: usize) -> ProxyBench {
    let mut img = GrayImage::new(model.in_w, model.in_h);
    for (i, v) in img.data.iter_mut().enumerate() {
        *v = ((i % 251) as f32) / 251.0;
    }

    // Correctness gate before timing: the two paths must agree (`==`:
    // a padding tap may leave a zero of the other sign).
    let mut naive_out = Tensor3::zeros(0, 0, 0);
    let mut gemm_out = Tensor3::zeros(0, 0, 0);
    model.infer_logits_into(&img, KernelPath::Naive, &mut naive_out);
    model.infer_logits_into(&img, KernelPath::Gemm, &mut gemm_out);
    assert_eq!(
        naive_out, gemm_out,
        "GEMM proxy forward diverged from the naive reference"
    );

    let mut out = Tensor3::zeros(0, 0, 0);
    let naive = time_per_call(reps, || {
        model.infer_logits_into(&img, KernelPath::Naive, &mut out)
    });
    let gemm = time_per_call(reps, || {
        model.infer_logits_into(&img, KernelPath::Gemm, &mut out)
    });
    let auto = time_per_call(reps, || {
        model.infer_logits_into(&img, KernelPath::Auto, &mut out)
    });
    ProxyBench {
        in_w: model.in_w,
        in_h: model.in_h,
        reps,
        naive_seconds_per_pass: naive,
        gemm_seconds_per_pass: gemm,
        auto_seconds_per_pass: auto,
        speedup_gemm_over_naive: naive / gemm,
    }
}

/// The proxy architecture's layers (`SegProxyModel::new`) on an
/// `in_w × in_h` input: five 3×3 stride-2 encoder layers, then the two
/// 1×1 decoder layers, each with its input size.
fn proxy_arch(in_w: usize, in_h: usize) -> Vec<(String, ConvShape, usize, usize)> {
    let chans = [1usize, 3, 6, 6, 8, 8];
    let (mut h, mut w) = (in_h, in_w);
    let mut layers = Vec::new();
    for i in 0..5 {
        let shape = ConvShape {
            in_ch: chans[i],
            out_ch: chans[i + 1],
            ksize: 3,
            stride: 2,
            pad: 1,
        };
        layers.push((format!("enc{}", i + 1), shape, h, w));
        (h, w) = shape.out_size(h, w);
    }
    for (i, (in_ch, out_ch)) in [(8, 6), (6, 1)].into_iter().enumerate() {
        let shape = ConvShape {
            in_ch,
            out_ch,
            ksize: 1,
            stride: 1,
            pad: 0,
        };
        layers.push((format!("dec{}", i + 1), shape, h, w));
    }
    layers
}

/// One convolution, bit-gated (every vector tier vs portable by
/// `to_bits`, naive under `==`), then timed on every path.
fn bench_conv(layer: &str, shape: ConvShape, h: usize, w: usize, reps: usize) -> ConvBench {
    let x = Tensor3::from_vec(shape.in_ch, h, w, fill(shape.in_ch * h * w, 1));
    let weight = fill(shape.out_ch * shape.in_ch * shape.ksize * shape.ksize, 2);
    let bias = fill(shape.out_ch, 3);
    let (oh, ow) = shape.out_size(h, w);
    let mut naive = Tensor3::zeros(shape.out_ch, oh, ow);
    let mut portable = naive.clone();
    let mut fast = naive.clone();
    conv2d_naive(&shape, &weight, &bias, &x, &mut naive);
    conv2d_gemm_portable(&shape, &weight, &bias, &x, &mut portable);
    assert_eq!(
        naive.data, portable.data,
        "GEMM conv diverged from the naive reference at {layer} {shape:?} {w}x{h}"
    );
    for tier in vector_tiers() {
        conv2d_gemm_on(tier, &shape, &weight, &bias, &x, &mut fast);
        assert_eq!(
            bits(&fast.data),
            bits(&portable.data),
            "{} conv diverged from the portable oracle at {layer} {shape:?} {w}x{h}",
            tier.name()
        );
    }
    let x = black_box(&x);
    let naive_s = time_per_call(reps, || conv2d_naive(&shape, &weight, &bias, x, &mut naive));
    let portable_s = time_per_call(reps, || {
        conv2d_gemm_portable(&shape, &weight, &bias, x, &mut portable)
    });
    let tiers = vector_tiers()
        .into_iter()
        .map(|tier| {
            let s = time_per_call(reps, || {
                conv2d_gemm_on(tier, &shape, &weight, &bias, x, &mut fast)
            });
            TierTime {
                tier: tier.name().to_string(),
                us: s * 1e6,
                speedup_over_portable: portable_s / s,
            }
        })
        .collect();
    ConvBench {
        layer: layer.to_string(),
        in_w: w,
        in_h: h,
        macs: shape.macs(h, w),
        reps,
        naive_us: naive_s * 1e6,
        portable_us: portable_s * 1e6,
        tiers,
        auto_path: format!("{:?}", conv_path_for(&shape, h, w, KernelPath::Auto)),
    }
}

/// One proxy layer's backward pass after a forward on a deterministic
/// input: every tier this CPU runs is bit-gated against the scatter loop
/// (kernel, bias and, when computed, input gradients), then all are
/// timed in one rotation.
fn bench_backward(
    layer: &str,
    shape: ConvShape,
    (h, w): (usize, usize),
    input_grad: bool,
    reps: usize,
) -> BackwardBench {
    let act = if shape.out_ch == 1 {
        Activation::Linear
    } else {
        Activation::LeakyRelu
    };
    let ConvShape {
        in_ch,
        out_ch,
        ksize,
        stride,
        pad,
    } = shape;
    let mut conv = Conv2d::new(
        in_ch,
        out_ch,
        ksize,
        stride,
        pad,
        act,
        &mut XavierInit::new(7),
    );
    conv.bias.w = fill(out_ch, 3);
    let y = conv.forward(&Tensor3::from_vec(in_ch, h, w, fill(in_ch * h * w, 1)));
    let gy = Tensor3::from_vec(y.c, y.h, y.w, fill(y.len(), 4));
    let tiers: Vec<KernelTier> = KernelTier::ALL
        .into_iter()
        .filter(|t| t.supported())
        .collect();
    let mut want = conv.clone();
    let want_dx = want.backward_reference(&gy);
    for &tier in &tiers {
        let mut got = conv.clone();
        let mut dx = Tensor3::zeros(in_ch, h, w);
        got.backward_on(tier, &gy, input_grad.then_some(&mut dx));
        let at = format!("{layer} {shape:?} {w}x{h}");
        assert_eq!(
            (bits(&got.weight.g), bits(&got.bias.g)),
            (bits(&want.weight.g), bits(&want.bias.g)),
            "{} backward diverged from the scatter loop at {at}",
            tier.name()
        );
        if input_grad {
            assert_eq!(
                bits(&dx.data),
                bits(&want_dx.data),
                "{} input gradient diverged from the scatter loop at {at}",
                tier.name()
            );
        }
    }
    let gy = black_box(&gy);
    let mut scatter = conv.clone();
    let mut fast: Vec<(Conv2d, Tensor3)> = tiers
        .iter()
        .map(|_| (conv.clone(), Tensor3::zeros(in_ch, h, w)))
        .collect();
    let mut fns: Vec<Box<dyn FnMut() + '_>> = vec![Box::new(|| {
        black_box(scatter.backward_reference(gy));
    })];
    for ((l, dx), &tier) in fast.iter_mut().zip(&tiers) {
        fns.push(Box::new(move || {
            l.backward_on(tier, gy, input_grad.then_some(&mut *dx));
        }));
    }
    let mut refs: Vec<&mut dyn FnMut()> = fns.iter_mut().map(|f| f.as_mut() as _).collect();
    let t = time_rotating(reps, &mut refs);
    BackwardBench {
        layer: layer.to_string(),
        in_w: w,
        in_h: h,
        input_grad,
        reps,
        scatter_us: t[0] * 1e6,
        tiers: tiers
            .iter()
            .zip(&t[1..])
            .map(|(tier, s)| BackwardTier {
                tier: tier.name().to_string(),
                us: s * 1e6,
                speedup_over_scatter: t[0] / s,
            })
            .collect(),
    }
}

fn bench_matmul(label: &str, (m, k, n): (usize, usize, usize), reps: usize) -> MatmulBench {
    let a = fill(m * k, 3);
    let b = fill(k * n, 5);
    let mut c_naive = vec![0.0f32; m * n];
    let mut c_portable = vec![0.0f32; m * n];
    matmul_naive(&a, &b, &mut c_naive, m, k, n);
    matmul_portable(&a, &b, &mut c_portable, m, k, n);
    assert_eq!(
        bits(&c_portable),
        bits(&c_naive),
        "portable matmul diverged from the naive reference at {m}x{k}x{n}"
    );
    let mut c_fast = vec![0.0f32; m * n];
    for tier in vector_tiers() {
        c_fast.fill(0.0);
        matmul_on(tier, &a, &b, &mut c_fast, m, k, n);
        assert_eq!(
            bits(&c_fast),
            bits(&c_naive),
            "{} matmul diverged from the naive reference at {m}x{k}x{n}",
            tier.name()
        );
    }
    let b = black_box(&b);
    let naive = time_per_call(reps, || matmul_naive(&a, b, &mut c_naive, m, k, n));
    let portable = time_per_call(reps, || matmul_portable(&a, b, &mut c_portable, m, k, n));
    let tiers = vector_tiers()
        .into_iter()
        .map(|tier| {
            let s = time_per_call(reps, || matmul_on(tier, &a, b, &mut c_fast, m, k, n));
            TierTime {
                tier: tier.name().to_string(),
                us: s * 1e6,
                speedup_over_portable: portable / s,
            }
        })
        .collect();
    MatmulBench {
        label: label.to_string(),
        m,
        k,
        n,
        reps,
        naive_us: naive * 1e6,
        portable_us: portable * 1e6,
        tiers,
    }
}

/// A batched-vs-looped sweep at batch sizes `batches`: `looped` runs
/// one forward per window over `batches`' largest size, and `batched[i]`
/// one batched forward over `batches[i]` windows. All are timed in one
/// rotation, so every batch size is compared with the same looped
/// per-window baseline.
fn sweep_batches(
    (shape, in_w, in_h): (String, usize, usize),
    batches: &[usize],
    reps: usize,
    looped: &mut dyn FnMut(),
    batched: Vec<Box<dyn FnMut() + '_>>,
) -> Vec<BatchedBench> {
    let windows = batches.iter().copied().max().unwrap_or(1);
    let mut batched = batched;
    let mut fs: Vec<&mut dyn FnMut()> = vec![looped];
    fs.extend(batched.iter_mut().map(|f| &mut **f as &mut dyn FnMut()));
    let times = time_rotating(reps, &mut fs);
    let looped = times[0] / windows as f64;
    batches
        .iter()
        .zip(&times[1..])
        .map(|(&batch, t)| {
            let batched = t / batch as f64;
            BatchedBench {
                shape: shape.clone(),
                in_w,
                in_h,
                batch,
                reps,
                looped_seconds_per_window: looped,
                batched_seconds_per_window: batched,
                speedup_batched_over_looped: looped / batched,
            }
        })
        .collect()
}

/// Batched vs looped forward of the segmentation-proxy architecture at
/// a window-scale input — the shape the engine's detect stages feed the
/// cross-stream batcher. Per-window wall-clock, bitwise-gated first.
fn bench_proxy_batched(
    native_w: usize,
    native_h: usize,
    batches: &[usize],
    reps: usize,
) -> Vec<BatchedBench> {
    let model = SegProxyModel::new(native_w, native_h, 1.0, 42);
    let windows = batches.iter().copied().max().unwrap_or(1);
    let imgs: Vec<GrayImage> = (0..windows)
        .map(|i| {
            let mut img = GrayImage::new(model.in_w, model.in_h);
            for (j, v) in img.data.iter_mut().enumerate() {
                *v = (((j + 13 * i) % 251) as f32) / 251.0;
            }
            img
        })
        .collect();
    let refs: Vec<&GrayImage> = imgs.iter().collect();

    // Correctness gate: every batched item must equal its looped twin
    // bitwise before any timing happens.
    let mut outs: Vec<BatchTensor3> = batches
        .iter()
        .map(|_| BatchTensor3::zeros(0, 0, 0, 0))
        .collect();
    let mut item = Tensor3::zeros(0, 0, 0);
    let mut looped_out = Tensor3::zeros(0, 0, 0);
    for (&batch, out) in batches.iter().zip(&mut outs) {
        model.infer_logits_batched_into(&refs[..batch], KernelPath::Auto, out);
        for (i, img) in imgs[..batch].iter().enumerate() {
            model.infer_logits_into(img, KernelPath::Auto, &mut looped_out);
            out.item_into(i, &mut item);
            assert_eq!(
                looped_out, item,
                "batched proxy forward diverged from looped at item {i} (batch {batch})"
            );
        }
    }

    let mut looped = || {
        for img in &imgs {
            model.infer_logits_into(img, KernelPath::Auto, &mut looped_out);
        }
    };
    let batched = batches
        .iter()
        .zip(&mut outs)
        .map(|(&batch, out)| {
            let (model, refs) = (&model, &refs);
            Box::new(move || model.infer_logits_batched_into(&refs[..batch], KernelPath::Auto, out))
                as Box<dyn FnMut()>
        })
        .collect();
    let shape = ("proxy-window".to_string(), model.in_w, model.in_h);
    sweep_batches(shape, batches, reps, &mut looped, batched)
}

/// Batched vs looped forward of the detector surrogate (`WindowNet`) at
/// the input shape a YOLO window of the given rounded size produces.
fn bench_windownet_batched(
    window: (u32, u32),
    batches: &[usize],
    reps: usize,
) -> Vec<BatchedBench> {
    let net = WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 42);
    let (iw, ih) = net.input_dims(window);
    let windows = batches.iter().copied().max().unwrap_or(1);
    let xs: Vec<Tensor3> = (0..windows)
        .map(|i| {
            let mut t = Tensor3::zeros(1, ih, iw);
            for (j, v) in t.data.iter_mut().enumerate() {
                *v = (((j + 31 * i) % 257) as f32) / 257.0;
            }
            t
        })
        .collect();
    let refs: Vec<&Tensor3> = xs.iter().collect();

    let mut y = Tensor3::zeros(0, 0, 0);
    for &batch in batches {
        let outs = net.forward_batched(&refs[..batch]);
        for (i, x) in xs[..batch].iter().enumerate() {
            net.forward_into(x, &mut y);
            assert_eq!(
                y, outs[i],
                "batched WindowNet forward diverged from looped at item {i} (batch {batch})"
            );
        }
    }

    let mut looped = || {
        for x in &xs {
            net.forward_into(x, &mut y);
        }
    };
    let batched = batches
        .iter()
        .map(|&batch| {
            let (net, refs) = (&net, &refs);
            Box::new(move || {
                black_box(net.forward_batched(&refs[..batch]));
            }) as Box<dyn FnMut()>
        })
        .collect();
    let shape = (format!("yolo-window-{}x{}", window.0, window.1), iw, ih);
    sweep_batches(shape, batches, reps, &mut looped, batched)
}

/// Fast vs per-pixel rendering of one native region of a Warsaw clip
/// at `out_w × out_h`, over `frames` frames per rep: one row per noise
/// tier this CPU runs, each bitwise-gated on every frame before timing.
fn bench_render(
    clip: &Clip,
    shape: &str,
    region: (f32, f32, f32, f32),
    out_w: usize,
    out_h: usize,
    frames: usize,
    reps: usize,
) -> Vec<RenderBench> {
    let r = Renderer::new(clip);
    let (rx, ry, rw, rh) = region;
    let naive = time_per_call(reps, || {
        for f in 0..frames {
            black_box(r.render_region_naive(f, rx, ry, rw, rh, out_w, out_h));
        }
    }) / frames as f64;
    NoiseTier::ALL
        .into_iter()
        .filter(|t| t.supported())
        .map(|tier| {
            for f in 0..frames {
                let fast = r.render_region_on(tier, f, rx, ry, rw, rh, out_w, out_h);
                let naive = r.render_region_naive(f, rx, ry, rw, rh, out_w, out_h);
                assert!(
                    fast.data.len() == naive.data.len()
                        && fast
                            .data
                            .iter()
                            .zip(&naive.data)
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    "{} render diverged from the per-pixel reference ({shape}, frame {f})",
                    tier.name()
                );
            }
            let fast = time_per_call(reps, || {
                for f in 0..frames {
                    black_box(r.render_region_on(tier, f, rx, ry, rw, rh, out_w, out_h));
                }
            }) / frames as f64;
            RenderBench {
                shape: shape.to_string(),
                tier: tier.name().to_string(),
                out_w,
                out_h,
                frames,
                reps,
                naive_us_per_render: naive * 1e6,
                fast_us_per_render: fast * 1e6,
                speedup_fast_over_naive: naive / fast,
            }
        })
        .collect()
}

/// A detection centred at `(x, y)` with an appearance from `salt`.
fn tracker_det(x: f32, y: f32, salt: u64) -> Detection {
    Detection {
        rect: Rect::new(x - 12.0, y - 7.0, 24.0, 14.0),
        class: ObjectClass::Car,
        confidence: 0.9,
        appearance: fill(APPEARANCE_DIM, salt),
        debug_gt: None,
    }
}

/// `tracks` tracks 8 px apart, each two GRU steps old, scored against
/// `dets` candidates a few px from them (every pair inside every gate),
/// then advanced by one detection each. Bitwise-gated against
/// `TrackerModel::match_prob` / `advance` before timing.
fn bench_tracker(model: &TrackerModel, tracks: usize, dets: usize, reps: usize) -> TrackerBench {
    let packed = model.packed();
    let mut steps = StepBatch::default();
    let mut state = vec![(vec![0.0; HIDDEN], vec![0.0; 0], tracker_det(0.0, 0.0, 0)); tracks];
    for (i, (h, prefix, last)) in state.iter_mut().enumerate() {
        for s in 0..2 {
            *last = tracker_det(100.0 + 8.0 * i as f32 + 4.0 * s as f32, 120.0, i as u64);
            steps.clear();
            steps.push(packed, last, 2 * s, h);
            packed.advance(&mut steps);
            (*h, *prefix) = (steps.state(0).to_vec(), steps.prefix(0).to_vec());
        }
    }
    let cands: Vec<Detection> = (0..dets)
        .map(|j| tracker_det(107.0 + 8.0 * (j % tracks) as f32, 123.0, 99 + j as u64))
        .collect();
    let te = 4;

    let looped_pairs = || -> Vec<f32> {
        let mut probs = Vec::with_capacity(tracks * dets);
        for c in &cands {
            for (h, _, last) in &state {
                probs.push(model.match_prob(h, last, c, te));
            }
        }
        probs
    };
    let mut pairs = PairBatch::default();
    let packed_pairs = |pairs: &mut PairBatch| {
        pairs.clear();
        for c in &cands {
            for (_, prefix, last) in &state {
                pairs.push(packed, prefix, last, c, te);
            }
        }
        packed.score(pairs);
    };
    packed_pairs(&mut pairs);
    assert_eq!(pairs.len(), tracks * dets, "a pair fell outside the gate");
    assert_eq!(
        bits(pairs.probs()),
        bits(&looped_pairs()),
        "packed pair scores diverged from TrackerModel::match_prob ({tracks}x{dets})"
    );
    let looped_steps = || -> Vec<Vec<f32>> {
        state
            .iter()
            .zip(&cands)
            .map(|((h, _, _), c)| model.advance(h, c, te))
            .collect()
    };
    let packed_steps = |steps: &mut StepBatch| {
        steps.clear();
        for ((h, _, _), c) in state.iter().zip(&cands) {
            steps.push(packed, c, te, h);
        }
        packed.advance(steps);
    };
    packed_steps(&mut steps);
    for (i, want) in looped_steps().iter().enumerate() {
        assert_eq!(
            bits(steps.state(i)),
            bits(want),
            "packed GRU step {i} diverged from TrackerModel::advance"
        );
    }

    let (n_pairs, n_steps) = ((tracks * dets) as f64, tracks.min(dets) as f64);
    let (looped_pair, packed_pair) = time_interleaved(
        reps,
        || {
            black_box(looped_pairs());
        },
        || packed_pairs(&mut pairs),
    );
    let (looped_step, packed_step) = time_interleaved(
        reps,
        || {
            black_box(looped_steps());
        },
        || packed_steps(&mut steps),
    );
    TrackerBench {
        tracks,
        dets,
        reps,
        looped_us_per_pair: looped_pair / n_pairs * 1e6,
        packed_us_per_pair: packed_pair / n_pairs * 1e6,
        looped_us_per_step: looped_step / n_steps * 1e6,
        packed_us_per_step: packed_step / n_steps * 1e6,
    }
}

/// Reference predicate: a square root per pair and no early stop, as
/// `positions_match` ran before the frame table.
fn sweep_positions_match(q: &FrameLimitQuery, positions: &[Point]) -> bool {
    match &q.kind {
        FrameQueryKind::Count => positions.len() >= q.n,
        FrameQueryKind::Region(poly) => {
            positions.iter().filter(|p| poly.contains(p)).count() >= q.n
        }
        FrameQueryKind::HotSpot { radius } => positions
            .iter()
            .any(|c| positions.iter().filter(|p| p.dist(c) <= *radius).count() >= q.n),
    }
}

/// Reference track-span sweep: the car tracks visible at each frame
/// kept in an active list with forward detection cursors, each frame
/// matched as the sweep reaches it, as `clip_matches` ran before the
/// frame table.
fn sweep_clip_matches(
    q: &FrameLimitQuery,
    tracks: &[Track],
    num_frames: usize,
) -> Vec<(usize, usize)> {
    let mut spans: Vec<&Track> = tracks
        .iter()
        .filter(|t| is_car(t.class) && !t.is_empty())
        .collect();
    spans.sort_unstable_by_key(|t| t.first_frame());
    let mut entering = spans.into_iter().peekable();
    // (track, last frame, duration, detection cursor)
    let mut active: Vec<(&Track, usize, usize, usize)> = Vec::new();
    let mut pts: Vec<Point> = Vec::new();
    let mut out = Vec::new();
    for f in 0..num_frames {
        while let Some(t) = entering.next_if(|t| t.first_frame() <= f) {
            active.push((t, t.last_frame(), t.last_frame() - t.first_frame(), 0));
        }
        active.retain(|a| a.1 >= f);
        pts.clear();
        for (t, _, _, cursor) in active.iter_mut() {
            while *cursor + 1 < t.dets.len() && t.dets[*cursor + 1].0 <= f {
                *cursor += 1;
            }
            pts.push(t.center_from(*cursor, f));
        }
        if sweep_positions_match(q, &pts) {
            out.push((active.iter().map(|a| a.2).min().unwrap_or(0), f));
        }
    }
    out
}

/// Reference selection: a stable sort on (highest minimum duration,
/// clip), then a greedy pass checking each candidate against every
/// frame taken so far.
fn greedy_select_frames(q: &FrameLimitQuery, per_clip: &[ClipMatches]) -> Vec<FrameRef> {
    let mut ranked: Vec<(usize, f32, FrameRef)> = per_clip
        .iter()
        .flat_map(|(clip, fps, ms)| {
            ms.iter()
                .map(move |&(min_dur, frame)| (min_dur, *fps, FrameRef { clip: *clip, frame }))
        })
        .collect();
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then(a.2.clip.cmp(&b.2.clip)));
    let mut out: Vec<FrameRef> = Vec::new();
    for (_, fps, r) in ranked {
        if out.len() >= q.limit {
            break;
        }
        let sep = (q.min_separation_s * fps) as usize;
        if !out
            .iter()
            .any(|o| o.clip == r.clip && o.frame.abs_diff(r.frame) < sep)
        {
            out.push(r);
        }
    }
    out
}

/// A clip's ground-truth tracks sampled at every 4th frame, so query
/// positions between samples are interpolated.
fn sampled_tracks(clip: &Clip) -> Vec<Track> {
    clip.gt_tracks
        .iter()
        .map(|g| {
            let mut t = Track::new(g.id, g.class);
            for (f, r) in g.states.iter().filter(|(f, _)| f % 4 == 0) {
                t.push(
                    *f,
                    Detection {
                        rect: *r,
                        class: g.class,
                        confidence: 0.9,
                        appearance: vec![],
                        debug_gt: None,
                    },
                );
            }
            t
        })
        .collect()
}

/// The serving mix's frame-count scan: any car, 25 frames, 5 s apart.
fn count_query() -> FrameLimitQuery {
    FrameLimitQuery {
        kind: FrameQueryKind::Count,
        n: 1,
        limit: 25,
        min_separation_s: 5.0,
    }
}

/// Frame-limit predicates for a `w × h` scene: any car, one car in the
/// central quarter, two cars within 8 % of the short side.
fn bench_queries(w: f32, h: f32) -> Vec<(&'static str, FrameLimitQuery)> {
    let (x0, y0, x1, y1) = (w * 0.25, h * 0.25, w * 0.75, h * 0.75);
    let query = |kind, n| FrameLimitQuery {
        kind,
        n,
        ..count_query()
    };
    vec![
        ("count n=1", count_query()),
        (
            "region n=1",
            query(
                FrameQueryKind::Region(Polygon::new(vec![
                    Point::new(x0, y0),
                    Point::new(x1, y0),
                    Point::new(x1, y1),
                    Point::new(x0, y1),
                ])),
                1,
            ),
        ),
        (
            "hotspot n=2",
            query(
                FrameQueryKind::HotSpot {
                    radius: (w.min(h) * 0.08).max(8.0),
                },
                2,
            ),
        ),
    ]
}

/// Track-span sweep vs a read of the clip's prebuilt frame table for
/// one query on one clip, gated on equal matches before timing, plus
/// the table's build time and size.
fn bench_query(
    label: &str,
    q: &FrameLimitQuery,
    clip: &Clip,
    tracks: &[Track],
    reps: usize,
) -> QueryBench {
    let frames = clip.num_frames();
    let table = FrameTable::build(tracks, frames);
    let matches = q.table_matches(&table);
    assert_eq!(
        matches,
        sweep_clip_matches(q, tracks, frames),
        "{label} on {}: frame table diverged from the track-span sweep",
        clip.scene.name
    );
    let (sweep, read) = time_interleaved(
        reps,
        || {
            black_box(sweep_clip_matches(q, tracks, frames));
        },
        || {
            black_box(q.table_matches(&table));
        },
    );
    let build = time_per_call(reps, || {
        black_box(FrameTable::build(tracks, frames));
    });
    QueryBench {
        query: label.to_string(),
        dataset: clip.scene.name.clone(),
        frames,
        tracks: tracks.len(),
        matches: matches.len(),
        reps,
        sweep_us_per_clip: sweep * 1e6,
        table_us_per_clip: read * 1e6,
        speedup_table_over_sweep: sweep / read,
        build_us_per_clip: build * 1e6,
        table_bytes_per_clip: table.bytes(),
    }
}

/// `select_frames` vs the greedy reference over `per_clip`, gated on
/// equal output before timing.
fn bench_select(q: &FrameLimitQuery, per_clip: &[ClipMatches], reps: usize) -> SelectBench {
    assert_eq!(
        q.select_frames(per_clip),
        greedy_select_frames(q, per_clip),
        "select_frames diverged from the stable-sort greedy selection"
    );
    let (greedy, select) = time_interleaved(
        reps,
        || {
            black_box(greedy_select_frames(q, per_clip));
        },
        || {
            black_box(q.select_frames(per_clip));
        },
    );
    SelectBench {
        clips: per_clip.len(),
        matches: per_clip.iter().map(|c| c.2.len()).sum(),
        limit: q.limit,
        reps,
        greedy_us: greedy * 1e6,
        select_us: select * 1e6,
        speedup_select_over_greedy: greedy / select,
    }
}

fn main() {
    let smoke = matches!(std::env::args().nth(1).as_deref(), Some("tiny"));
    let warsaw = Clip::simulate(Arc::new(DatasetKind::Warsaw.scene()), 0, 2.0, 7);
    let (fw, fh) = (warsaw.scene.width as f32, warsaw.scene.height as f32);
    let (pw, ph) = proxy_input_dims(fw as usize, fh as usize, PROXY_SCALES[3]);
    let (mode, model, proxy_reps, reps) = if smoke {
        ("smoke", SegProxyModel::new(96, 64, 1.0, 42), 3, 3)
    } else {
        (
            "full",
            SegProxyModel::new(fw as usize, fh as usize, PROXY_SCALES[3], 42),
            100,
            200,
        )
    };
    let proxy = bench_proxy(&model, proxy_reps);
    let layers = proxy_arch(model.in_w, model.in_h);
    let proxy_layers: Vec<ConvBench> = layers
        .iter()
        .map(|(name, shape, h, w)| bench_conv(name, *shape, *h, *w, reps))
        .collect();
    // A training step's backward pass, layer by layer, and summed.
    let mut proxy_backward: Vec<BackwardBench> = layers
        .iter()
        .enumerate()
        .map(|(i, (name, shape, h, w))| bench_backward(name, *shape, (*h, *w), i > 0, reps))
        .collect();
    proxy_backward.push(BackwardBench {
        layer: "step".into(),
        in_w: model.in_w,
        in_h: model.in_h,
        input_grad: true,
        reps,
        scatter_us: proxy_backward.iter().map(|b| b.scatter_us).sum(),
        tiers: (0..proxy_backward[0].tiers.len())
            .map(|t| {
                let us: f64 = proxy_backward.iter().map(|b| b.tiers[t].us).sum();
                let scatter: f64 = proxy_backward.iter().map(|b| b.scatter_us).sum();
                BackwardTier {
                    tier: proxy_backward[0].tiers[t].tier.clone(),
                    us,
                    speedup_over_scatter: scatter / us,
                }
            })
            .collect(),
    });
    // Each encoder layer's GEMM alone, `out_ch × in_ch·9 × oh·ow`, a
    // larger square for headroom, and the packed tracker's four GEMMs
    // (`PackedTracker`: pair scoring, the two GRU gates, the head
    // prefix) on a typical frame's 16 pairs or tracks.
    let mut matmul_shapes: Vec<(String, (usize, usize, usize))> = layers
        .iter()
        .filter(|(_, shape, ..)| shape.ksize == 3)
        .map(|(name, shape, h, w)| {
            let (oh, ow) = shape.out_size(*h, *w);
            (name.clone(), (shape.out_ch, shape.in_ch * 9, oh * ow))
        })
        .collect();
    matmul_shapes.push((
        "square".into(),
        if smoke { (16, 64, 128) } else { (64, 64, 4096) },
    ));
    let gate_in = DET_FEAT_DIM + HIDDEN;
    for (label, shape) in [
        (
            "track-score",
            (16, DET_FEAT_DIM + PAIR_FEAT_DIM, HEAD_HIDDEN),
        ),
        ("track-gates", (16, gate_in, 2 * HIDDEN)),
        ("track-cand", (16, gate_in, HIDDEN)),
        ("track-head", (16, HIDDEN, HEAD_HIDDEN)),
    ] {
        matmul_shapes.push((label.into(), shape));
    }
    let matmul: Vec<MatmulBench> = matmul_shapes
        .into_iter()
        .map(|(label, shape)| bench_matmul(&label, shape, reps))
        .collect();

    // The naive/GEMM crossover behind `GEMM_MIN_MACS`: the proxy's 1×1
    // decoder layers and late encoder layers at this input, and one
    // `WindowNet` 32×32 window's late layers, single item (the smallest
    // problems `Auto` decides on), plus three tiny 3×3 shapes.
    let tail = layers.len() - 4;
    let mut crossover: Vec<ConvBench> = layers[tail..]
        .iter()
        .map(|(name, shape, h, w)| bench_conv(&format!("proxy-{name}"), *shape, *h, *w, reps * 10))
        .collect();
    for (name, shape, h, w) in proxy_arch(32, 32).into_iter().skip(3) {
        crossover.push(bench_conv(
            &format!("window32-{name}"),
            shape,
            h,
            w,
            reps * 10,
        ));
    }
    for (name, in_ch, out_ch, stride, pad, h, w) in [
        ("tiny-3x3-s2", 1, 3, 2, 1, 4, 4),
        ("tiny-3x3-s1", 1, 1, 1, 0, 3, 3),
        ("tiny-3x3-s1p1", 1, 1, 1, 1, 2, 2),
    ] {
        let shape = ConvShape {
            in_ch,
            out_ch,
            ksize: 3,
            stride,
            pad,
        };
        crossover.push(bench_conv(name, shape, h, w, reps * 10));
    }

    // Batched-vs-looped sweep: per-window wall-clock of one batched
    // forward over N same-size windows against N single forwards, at
    // the proxy architecture (window-scale input) and the detector
    // surrogate at a typical YOLO window. Smoke mode shrinks shapes and
    // reps; the sweep itself covers the same batch sizes.
    // The gated proxy entry runs at the window-scale 32×32 input (a
    // 64×64 detector window at scale 0.5): small per-item problems are
    // where looped forwards can't amortize and batching genuinely pays.
    let (proxy_window, yolo_window, batched_reps) = if smoke {
        ((48usize, 32usize), (96u32, 64u32), 3usize)
    } else {
        ((48usize, 32usize), (128u32, 96u32), 30usize)
    };
    let batches = [1usize, 2, 4, 8, 16];
    let mut batched_vs_looped =
        bench_proxy_batched(proxy_window.0, proxy_window.1, &batches, batched_reps);
    batched_vs_looped.extend(bench_windownet_batched(yolo_window, &batches, batched_reps));

    // Renderer: Warsaw's full frame at its 0.375 proxy input (the
    // ingest-proxy scoring shape) and two detector-window crops at
    // fractional native origins, resampled to 32×32 and 96×64.
    let (render_frames, render_reps) = if smoke { (2, 3) } else { (20, 20) };
    let render: Vec<RenderBench> = [
        bench_render(
            &warsaw,
            "warsaw-frame-0.375",
            (0.0, 0.0, fw, fh),
            pw,
            ph,
            render_frames,
            render_reps,
        ),
        bench_render(
            &warsaw,
            "window-32x32",
            (201.3, 117.6, 64.0, 64.0),
            32,
            32,
            render_frames,
            render_reps * 10,
        ),
        bench_render(
            &warsaw,
            "window-96x64",
            (333.7, 150.2, 192.0, 128.0),
            96,
            64,
            render_frames,
            render_reps * 10,
        ),
    ]
    .into_iter()
    .flatten()
    .collect();

    // Recurrent tracker: a sparse frame, a typical one and a dense one.
    // The model gets a few training steps so its biases are not zero.
    let mut tracker_model = TrackerModel::new(fw, fh, 42);
    let prefix: Vec<(usize, Detection)> = (0..3)
        .map(|i| (2 * i, tracker_det(100.0 + 20.0 * i as f32, 120.0, 1)))
        .collect();
    let (pos, neg) = (tracker_det(160.0, 120.0, 1), tracker_det(400.0, 300.0, 2));
    for _ in 0..3 {
        tracker_model.train_example(&prefix, &[(&pos, 2, true), (&neg, 2, false)], 0.05, true);
    }
    let tracker_reps = if smoke { 3 } else { 2000 };
    let tracker: Vec<TrackerBench> = [(1, 1), (4, 4), (12, 12)]
        .into_iter()
        .map(|(tracks, dets)| bench_tracker(&tracker_model, tracks, dets, tracker_reps))
        .collect();

    // Frame-limit queries over the serve-mixed datasets' tracks, then
    // the serving mix's count query selected across many clips.
    let (query_seconds, query_reps) = if smoke { (12.0, 3) } else { (60.0, 50) };
    let mut queries: Vec<QueryBench> = Vec::new();
    let mut per_clip: Vec<ClipMatches> = Vec::new();
    for kind in [DatasetKind::Caldot1, DatasetKind::Amsterdam] {
        let clip = Clip::simulate(Arc::new(kind.scene()), 0, query_seconds, 5);
        let tracks = sampled_tracks(&clip);
        let (w, h) = (clip.scene.width as f32, clip.scene.height as f32);
        for (label, q) in bench_queries(w, h) {
            queries.push(bench_query(label, &q, &clip, &tracks, query_reps));
        }
        let ms = count_query().clip_matches(&tracks, clip.num_frames());
        for _ in 0..4 {
            per_clip.push((per_clip.len(), clip.scene.fps as f32, ms.clone()));
        }
    }
    let select = bench_select(&count_query(), &per_clip, query_reps * 10);

    print_table(
        "Proxy forward pass — naive vs GEMM kernel path (wall clock)",
        &["input", "reps", "naive s", "gemm s", "auto s", "speedup"],
        &[vec![
            format!("{}x{}", proxy.in_w, proxy.in_h),
            proxy.reps.to_string(),
            format!("{:.6}", proxy.naive_seconds_per_pass),
            format!("{:.6}", proxy.gemm_seconds_per_pass),
            format!("{:.6}", proxy.auto_seconds_per_pass),
            format!("{:.2}x", proxy.speedup_gemm_over_naive),
        ]],
    );
    // One column per vector tier this CPU runs, `-` where a row lacks it.
    let tier_names: Vec<&str> = vector_tiers().into_iter().map(KernelTier::name).collect();
    let tier_cells = |tiers: &[TierTime]| -> Vec<String> {
        let mut cells: Vec<String> = tier_names
            .iter()
            .map(|name| {
                tiers
                    .iter()
                    .find(|t| t.tier == *name)
                    .map_or("-".into(), |t| format!("{:.2}", t.us))
            })
            .collect();
        cells.push(
            tiers
                .first()
                .map_or("-".into(), |t| format!("{:.2}x", t.speedup_over_portable)),
        );
        cells
    };
    let tier_headers: Vec<String> = tier_names.iter().map(|n| format!("{n} us")).collect();
    let conv_rows = |benches: &[ConvBench]| -> Vec<Vec<String>> {
        benches
            .iter()
            .map(|b| {
                let mut row = vec![
                    b.layer.clone(),
                    format!("{}x{}", b.in_w, b.in_h),
                    b.macs.to_string(),
                    format!("{:.2}", b.naive_us),
                    format!("{:.2}", b.portable_us),
                ];
                row.extend(tier_cells(&b.tiers));
                row.push(b.auto_path.clone());
                row
            })
            .collect()
    };
    let mut conv_headers = vec!["layer", "input", "MACs", "naive us", "portable us"];
    conv_headers.extend(tier_headers.iter().map(String::as_str));
    conv_headers.extend(["speedup", "auto"]);
    print_table(
        "Proxy layers — portable vs each kernel tier's convolution (wall clock, bit-identical)",
        &conv_headers,
        &conv_rows(&proxy_layers),
    );
    println!(
        "conv2d_gemm dispatches to the {} kernel tier on this CPU",
        KernelTier::detect().name()
    );
    let backward_rows: Vec<Vec<String>> = proxy_backward
        .iter()
        .map(|b| {
            let mut row = vec![
                b.layer.clone(),
                format!("{}x{}", b.in_w, b.in_h),
                if b.input_grad { "yes" } else { "no" }.into(),
                format!("{:.2}", b.scatter_us),
            ];
            for t in &b.tiers {
                row.push(format!("{:.2}", t.us));
                row.push(format!("{:.1}x", t.speedup_over_scatter));
            }
            row
        })
        .collect();
    let mut backward_headers = vec![
        "layer".to_string(),
        "input".into(),
        "dL/dx".into(),
        "scatter us".into(),
    ];
    for t in &proxy_backward[0].tiers {
        backward_headers.push(format!("{} us", t.tier));
        backward_headers.push("speedup".into());
    }
    print_table(
        "Proxy train-step backward — scatter loop vs each kernel tier (wall clock, bit-identical)",
        &backward_headers
            .iter()
            .map(String::as_str)
            .collect::<Vec<_>>(),
        &backward_rows,
    );
    let rows: Vec<Vec<String>> = matmul
        .iter()
        .map(|b| {
            let mut row = vec![
                b.label.clone(),
                format!("{}x{}x{}", b.m, b.k, b.n),
                b.reps.to_string(),
                format!("{:.2}", b.naive_us),
                format!("{:.2}", b.portable_us),
            ];
            row.extend(tier_cells(&b.tiers));
            row
        })
        .collect();
    let mut matmul_headers = vec!["shape", "m x k x n", "reps", "naive us", "portable us"];
    matmul_headers.extend(tier_headers.iter().map(String::as_str));
    matmul_headers.push("speedup");
    print_table(
        "GEMM — naive vs portable vs each kernel tier (wall clock, bit-identical)",
        &matmul_headers,
        &rows,
    );
    print_table(
        "Naive/GEMM crossover behind GEMM_MIN_MACS (wall clock)",
        &conv_headers,
        &conv_rows(&crossover),
    );
    let rows: Vec<Vec<String>> = batched_vs_looped
        .iter()
        .map(|b| {
            vec![
                b.shape.clone(),
                format!("{}x{}", b.in_w, b.in_h),
                b.batch.to_string(),
                format!("{:.2}", b.looped_seconds_per_window * 1e6),
                format!("{:.2}", b.batched_seconds_per_window * 1e6),
                format!("{:.2}x", b.speedup_batched_over_looped),
            ]
        })
        .collect();
    print_table(
        "Batched vs looped forward — per-window wall clock, one looped baseline per sweep",
        &[
            "shape",
            "input",
            "batch",
            "looped us/win",
            "batched us/win",
            "speedup",
        ],
        &rows,
    );

    let rows: Vec<Vec<String>> = render
        .iter()
        .map(|b| {
            vec![
                b.shape.clone(),
                b.tier.clone(),
                format!("{}x{}", b.out_w, b.out_h),
                format!("{:.1}", b.naive_us_per_render),
                format!("{:.1}", b.fast_us_per_render),
                format!("{:.2}x", b.speedup_fast_over_naive),
            ]
        })
        .collect();
    print_table(
        "Renderer — per-pixel reference vs block-hash path per noise tier (wall clock, bit-identical)",
        &["shape", "tier", "output", "naive us", "fast us", "speedup"],
        &rows,
    );
    println!(
        "render_region dispatches to the {} noise tier on this CPU",
        NoiseTier::detect().name()
    );

    let rows: Vec<Vec<String>> = tracker
        .iter()
        .map(|b| {
            vec![
                format!("{}x{}", b.tracks, b.dets),
                format!("{:.3}", b.looped_us_per_pair),
                format!("{:.3}", b.packed_us_per_pair),
                format!("{:.3}", b.looped_us_per_step),
                format!("{:.3}", b.packed_us_per_step),
            ]
        })
        .collect();
    print_table(
        "Recurrent tracker — looped TrackerModel vs packed batches (wall clock, bit-identical)",
        &[
            "tracks x dets",
            "looped us/pair",
            "packed us/pair",
            "looped us/step",
            "packed us/step",
        ],
        &rows,
    );

    let rows: Vec<Vec<String>> = queries
        .iter()
        .map(|b| {
            vec![
                b.dataset.clone(),
                b.query.clone(),
                format!("{}/{}", b.frames, b.tracks),
                b.matches.to_string(),
                format!("{:.1}", b.sweep_us_per_clip),
                format!("{:.1}", b.table_us_per_clip),
                format!("{:.2}x", b.speedup_table_over_sweep),
                format!("{:.1}", b.build_us_per_clip),
                b.table_bytes_per_clip.to_string(),
            ]
        })
        .collect();
    print_table(
        "Frame-limit queries — track-span sweep vs frame table, one clip (wall clock, equal answers)",
        &[
            "dataset",
            "query",
            "frames/tracks",
            "matches",
            "sweep us",
            "table us",
            "speedup",
            "build us",
            "table B",
        ],
        &rows,
    );
    print_table(
        "select_frames — stable-sort greedy vs run-ranked selection (wall clock, equal answers)",
        &[
            "clips",
            "matches",
            "limit",
            "greedy us",
            "select us",
            "speedup",
        ],
        &[vec![
            select.clips.to_string(),
            select.matches.to_string(),
            select.limit.to_string(),
            format!("{:.1}", select.greedy_us),
            format!("{:.1}", select.select_us),
            format!("{:.2}x", select.speedup_select_over_greedy),
        ]],
    );

    let proxy_speedup = proxy.speedup_gemm_over_naive;
    let batched_speedups: Vec<(usize, f64)> = batched_vs_looped
        .iter()
        .filter(|b| b.batch >= 4 && b.shape == "proxy-window")
        .map(|b| (b.batch, b.speedup_batched_over_looped))
        .collect();
    // The report is written before the speed gates below, so a failing
    // gate still leaves its numbers behind.
    write_report(
        "BENCH_kernels",
        smoke,
        &KernelsReport {
            mode: mode.to_string(),
            proxy,
            proxy_layers,
            proxy_backward,
            matmul,
            crossover,
            batched_vs_looped,
            render,
            tracker,
            queries,
            select,
        },
    );

    if !smoke {
        // Regression guard for the tentpole claim (the recorded full
        // runs show >3x; 1.5x allows for noisy shared machines).
        assert!(
            proxy_speedup > 1.5,
            "GEMM proxy speedup regressed to {proxy_speedup:.2}x"
        );
    }
    // Batched-vs-looped gate: at batch >= 4 the batched forward must
    // actually pay off per window. Full mode holds the tentpole claim
    // (>= 1.5x on the proxy shape); smoke mode only guards against the
    // batched path regressing below the looped one on tiny shapes and
    // rep counts, where timing noise dominates.
    let gate = if smoke { 1.0 } else { 1.5 };
    for (batch, speedup) in batched_speedups {
        assert!(
            speedup >= gate,
            "batched proxy-window at batch {batch} regressed to {speedup:.2}x (gate {gate:.1}x)"
        );
    }
}
