//! Wall-clock micro-bench of the `otif_nn::kernels` layer: naive
//! reference loops vs the im2col/GEMM and blocked-matmul fast paths,
//! plus the frame renderer that feeds them (`Renderer::render_region`
//! vs its per-pixel `render_region_naive` reference).
//!
//! Unlike every other bench binary, this one reports **wall-clock
//! seconds on the current machine** — the kernels are a real-CPU
//! optimization, invisible to the simulated V100 cost model. The
//! headline number is the speedup of the GEMM path over the naive path
//! on one full proxy forward pass at the native 384×224 input, the
//! exact shape `SegProxyModel` runs in production.
//!
//! Both paths are verified bit-identical on every run before timing, so
//! the speedup never comes at the cost of divergent results.
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
use otif_cv::{DetectorArch, DetectorConfig};
use otif_nn::kernels::{matmul_blocked, matmul_naive};
use otif_nn::{BatchTensor3, KernelPath, Tensor3};
use otif_sim::{Clip, DatasetKind, GrayImage, Renderer};
use serde::Serialize;
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

#[derive(Serialize)]
struct MatmulBench {
    m: usize,
    k: usize,
    n: usize,
    reps: usize,
    naive_seconds: f64,
    blocked_seconds: f64,
    speedup: f64,
}

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
    out_w: usize,
    out_h: usize,
    frames: usize,
    reps: usize,
    naive_us_per_render: f64,
    fast_us_per_render: f64,
    speedup_fast_over_naive: f64,
}

#[derive(Serialize)]
struct KernelsReport {
    mode: String,
    proxy: ProxyBench,
    matmul: Vec<MatmulBench>,
    batched_vs_looped: Vec<BatchedBench>,
    render: Vec<RenderBench>,
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

fn bench_proxy(native_w: usize, native_h: usize, reps: usize) -> ProxyBench {
    let model = SegProxyModel::new(native_w, native_h, 1.0, 42);
    let mut img = GrayImage::new(model.in_w, model.in_h);
    for (i, v) in img.data.iter_mut().enumerate() {
        *v = ((i % 251) as f32) / 251.0;
    }

    // Correctness gate before timing: the two paths must agree bitwise.
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

fn bench_matmul(m: usize, k: usize, n: usize, reps: usize) -> MatmulBench {
    let fill = |len: usize, salt: u64| -> Vec<f32> {
        let mut state = salt | 1;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) as f32) / (1u64 << 24) as f32 - 0.5
            })
            .collect()
    };
    let a = fill(m * k, 3);
    let b = fill(k * n, 5);
    let mut c_naive = vec![0.0f32; m * n];
    let mut c_blocked = vec![0.0f32; m * n];
    matmul_naive(&a, &b, &mut c_naive, m, k, n);
    matmul_blocked(&a, &b, &mut c_blocked, m, k, n);
    assert_eq!(
        c_naive, c_blocked,
        "blocked matmul diverged from the naive reference at {m}x{k}x{n}"
    );

    let naive = time_per_call(reps, || matmul_naive(&a, &b, &mut c_naive, m, k, n));
    let blocked = time_per_call(reps, || matmul_blocked(&a, &b, &mut c_blocked, m, k, n));
    MatmulBench {
        m,
        k,
        n,
        reps,
        naive_seconds: naive,
        blocked_seconds: blocked,
        speedup: naive / blocked,
    }
}

/// Batched vs looped forward of the segmentation-proxy architecture at
/// a window-scale input — the shape the engine's detect stages feed the
/// cross-stream batcher. Per-window wall-clock, bitwise-gated first.
fn bench_proxy_batched(
    native_w: usize,
    native_h: usize,
    batch: usize,
    reps: usize,
) -> BatchedBench {
    let model = SegProxyModel::new(native_w, native_h, 1.0, 42);
    let imgs: Vec<GrayImage> = (0..batch)
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
    let mut batched_out = BatchTensor3::zeros(0, 0, 0, 0);
    model.infer_logits_batched_into(&refs, KernelPath::Auto, &mut batched_out);
    let mut item = Tensor3::zeros(0, 0, 0);
    let mut looped_out = Tensor3::zeros(0, 0, 0);
    for (i, img) in imgs.iter().enumerate() {
        model.infer_logits_into(img, KernelPath::Auto, &mut looped_out);
        batched_out.item_into(i, &mut item);
        assert_eq!(
            looped_out, item,
            "batched proxy forward diverged from looped at item {i} (batch {batch})"
        );
    }

    let looped = time_per_call(reps, || {
        for img in &imgs {
            model.infer_logits_into(img, KernelPath::Auto, &mut looped_out);
        }
    }) / batch as f64;
    let batched = time_per_call(reps, || {
        model.infer_logits_batched_into(&refs, KernelPath::Auto, &mut batched_out)
    }) / batch as f64;
    BatchedBench {
        shape: "proxy-window".to_string(),
        in_w: model.in_w,
        in_h: model.in_h,
        batch,
        reps,
        looped_seconds_per_window: looped,
        batched_seconds_per_window: batched,
        speedup_batched_over_looped: looped / batched,
    }
}

/// Batched vs looped forward of the detector surrogate (`WindowNet`) at
/// the input shape a YOLO window of the given rounded size produces.
fn bench_windownet_batched(window: (u32, u32), batch: usize, reps: usize) -> BatchedBench {
    let net = WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 42);
    let (iw, ih) = net.input_dims(window);
    let xs: Vec<Tensor3> = (0..batch)
        .map(|i| {
            let mut t = Tensor3::zeros(1, ih, iw);
            for (j, v) in t.data.iter_mut().enumerate() {
                *v = (((j + 31 * i) % 257) as f32) / 257.0;
            }
            t
        })
        .collect();
    let refs: Vec<&Tensor3> = xs.iter().collect();

    let outs = net.forward_batched(&refs);
    let mut y = Tensor3::zeros(0, 0, 0);
    for (i, x) in xs.iter().enumerate() {
        net.forward_into(x, &mut y);
        assert_eq!(
            y, outs[i],
            "batched WindowNet forward diverged from looped at item {i} (batch {batch})"
        );
    }

    let looped = time_per_call(reps, || {
        for x in &xs {
            net.forward_into(x, &mut y);
        }
    }) / batch as f64;
    let batched = time_per_call(reps, || {
        let _ = net.forward_batched(&refs);
    }) / batch as f64;
    BatchedBench {
        shape: format!("yolo-window-{}x{}", window.0, window.1),
        in_w: iw,
        in_h: ih,
        batch,
        reps,
        looped_seconds_per_window: looped,
        batched_seconds_per_window: batched,
        speedup_batched_over_looped: looped / batched,
    }
}

/// Fast vs per-pixel rendering of one native region of a Warsaw clip
/// at `out_w × out_h`, over `frames` frames per rep. Bitwise-gated on
/// every frame before timing.
fn bench_render(
    clip: &Clip,
    shape: &str,
    region: (f32, f32, f32, f32),
    out_w: usize,
    out_h: usize,
    frames: usize,
    reps: usize,
) -> RenderBench {
    let r = Renderer::new(clip);
    let (rx, ry, rw, rh) = region;
    for f in 0..frames {
        let fast = r.render_region(f, rx, ry, rw, rh, out_w, out_h);
        let naive = r.render_region_naive(f, rx, ry, rw, rh, out_w, out_h);
        assert!(
            fast.data.len() == naive.data.len()
                && fast
                    .data
                    .iter()
                    .zip(&naive.data)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            "render_region diverged from the per-pixel reference ({shape}, frame {f})"
        );
    }
    let naive = time_per_call(reps, || {
        for f in 0..frames {
            std::hint::black_box(r.render_region_naive(f, rx, ry, rw, rh, out_w, out_h));
        }
    }) / frames as f64;
    let fast = time_per_call(reps, || {
        for f in 0..frames {
            std::hint::black_box(r.render_region(f, rx, ry, rw, rh, out_w, out_h));
        }
    }) / frames as f64;
    RenderBench {
        shape: shape.to_string(),
        out_w,
        out_h,
        frames,
        reps,
        naive_us_per_render: naive * 1e6,
        fast_us_per_render: fast * 1e6,
        speedup_fast_over_naive: naive / fast,
    }
}

fn main() {
    let smoke = matches!(std::env::args().nth(1).as_deref(), Some("tiny"));
    let (mode, proxy, matmul_shapes, reps) = if smoke {
        (
            "smoke",
            bench_proxy(96, 64, 3),
            vec![(6, 27, 256), (16, 64, 128)],
            3,
        )
    } else {
        (
            "full",
            bench_proxy(384, 224, 100),
            // The proxy's own GEMM shapes (encoder layers 1–3 at native
            // input) plus a larger square for headroom.
            vec![(3, 9, 21504), (6, 27, 5376), (6, 54, 1344), (64, 64, 4096)],
            200,
        )
    };
    let matmul: Vec<MatmulBench> = matmul_shapes
        .into_iter()
        .map(|(m, k, n)| bench_matmul(m, k, n, reps))
        .collect();

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
    let mut batched_vs_looped: Vec<BatchedBench> = Vec::new();
    for &batch in &[1usize, 2, 4, 8, 16] {
        batched_vs_looped.push(bench_proxy_batched(
            proxy_window.0,
            proxy_window.1,
            batch,
            batched_reps,
        ));
    }
    for &batch in &[1usize, 2, 4, 8, 16] {
        batched_vs_looped.push(bench_windownet_batched(yolo_window, batch, batched_reps));
    }

    // Renderer: Warsaw's full frame at its 0.375 proxy input (the
    // ingest-proxy scoring shape) and two detector-window crops at
    // fractional native origins, resampled to 32×32 and 96×64.
    let (render_frames, render_reps) = if smoke { (2, 3) } else { (20, 20) };
    let warsaw = Clip::simulate(Arc::new(DatasetKind::Warsaw.scene()), 0, 2.0, 7);
    let (fw, fh) = (warsaw.scene.width as f32, warsaw.scene.height as f32);
    let (pw, ph) = proxy_input_dims(fw as usize, fh as usize, PROXY_SCALES[3]);
    let render = vec![
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
    ];

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
    let rows: Vec<Vec<String>> = matmul
        .iter()
        .map(|b| {
            vec![
                format!("{}x{}x{}", b.m, b.k, b.n),
                b.reps.to_string(),
                format!("{:.6}", b.naive_seconds),
                format!("{:.6}", b.blocked_seconds),
                format!("{:.2}x", b.speedup),
            ]
        })
        .collect();
    print_table(
        "Blocked matmul vs naive (wall clock)",
        &["m x k x n", "reps", "naive s", "blocked s", "speedup"],
        &rows,
    );
    let rows: Vec<Vec<String>> = batched_vs_looped
        .iter()
        .map(|b| {
            vec![
                b.shape.clone(),
                format!("{}x{}", b.in_w, b.in_h),
                b.batch.to_string(),
                format!("{:.6}", b.looped_seconds_per_window),
                format!("{:.6}", b.batched_seconds_per_window),
                format!("{:.2}x", b.speedup_batched_over_looped),
            ]
        })
        .collect();
    print_table(
        "Batched vs looped forward — per-window wall clock",
        &[
            "shape",
            "input",
            "batch",
            "looped s/win",
            "batched s/win",
            "speedup",
        ],
        &rows,
    );

    let rows: Vec<Vec<String>> = render
        .iter()
        .map(|b| {
            vec![
                b.shape.clone(),
                format!("{}x{}", b.out_w, b.out_h),
                format!("{:.1}", b.naive_us_per_render),
                format!("{:.1}", b.fast_us_per_render),
                format!("{:.2}x", b.speedup_fast_over_naive),
            ]
        })
        .collect();
    print_table(
        "Renderer — per-pixel reference vs block-hash path (wall clock, bit-identical)",
        &["shape", "output", "naive us", "fast us", "speedup"],
        &rows,
    );

    if !smoke {
        // Regression guard for the tentpole claim (the recorded full
        // runs show >3x; 1.5x allows for noisy shared machines).
        assert!(
            proxy.speedup_gemm_over_naive > 1.5,
            "GEMM proxy speedup regressed to {:.2}x",
            proxy.speedup_gemm_over_naive
        );
    }
    // Batched-vs-looped gate: at batch >= 4 the batched forward must
    // actually pay off per window. Full mode holds the tentpole claim
    // (>= 1.5x on the proxy shape); smoke mode only guards against the
    // batched path regressing below the looped one on tiny shapes and
    // rep counts, where timing noise dominates.
    let gate = if smoke { 1.0 } else { 1.5 };
    for b in &batched_vs_looped {
        if b.batch >= 4 && b.shape == "proxy-window" {
            assert!(
                b.speedup_batched_over_looped >= gate,
                "batched {} at batch {} regressed to {:.2}x (gate {:.1}x)",
                b.shape,
                b.batch,
                b.speedup_batched_over_looped,
                gate
            );
        }
    }

    write_report(
        "BENCH_kernels",
        smoke,
        &KernelsReport {
            mode: mode.to_string(),
            proxy,
            matmul,
            batched_vs_looped,
            render,
        },
    );
}
