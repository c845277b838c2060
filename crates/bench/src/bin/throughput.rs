//! Streams-vs-throughput scaling of the multi-stream engine (§3.2's
//! cross-stream detector batching, the mechanism behind the paper's
//! "process many streams per GPU" deployment numbers), plus a decode
//! prefetch sweep exercising the pipelined virtual-time model.
//!
//! Part 1 runs the same clip pool through `otif_engine::Engine` at 1,
//! 2, 4, 8 and 16 streams and reports simulated throughput, per-frame
//! detector cost and mean batch occupancy. Per-clip outputs are
//! identical at every stream count (the engine's determinism
//! guarantee), so the curve isolates pure scheduling/batching effects:
//! as streams grow, same-size windows from different streams share
//! detector launches and the per-frame launch overhead amortizes away.
//!
//! Part 2 fixes 4 streams and sweeps `prefetch_frames` ∈ {1, 4, 16,
//! 64} at a decode-heavy proxy-enabled operating point (the paper's
//! Figure 6 regime, where per-stream CPU work — decode + proxy — is
//! comparable to the shared detector rounds). Charges never move:
//! every `CostLedger` component sum is asserted bitwise identical
//! across prefetch settings; only the critical-path makespan and the
//! per-stage stall accounts change.
//!
//! Simulated seconds come from the cost model (V100-calibrated); each
//! point also records `wall_seconds`, the wall-clock time the run took
//! on this machine, so kernel-level speedups show up alongside the
//! simulated numbers without being conflated with them.
//!
//! Usage: `cargo run --release -p otif-bench --bin throughput [tiny|small|experiment]`
//! — `tiny` is the smoke mode of `scripts/check.sh`: its report goes to
//! the git-ignored `target/bench-smoke/BENCH_throughput_smoke.json`
//! instead of `results/BENCH_throughput.json`.

use otif_bench::harness::{make_dataset, scale_from_args, SEED};
use otif_bench::report::{print_table, write_report};
use otif_core::config::{OtifConfig, ProxyParams, TrackerKind};
use otif_core::pipeline::ExecutionContext;
use otif_core::windows::cells_of_rects;
use otif_core::{select_window_sizes, SegProxyModel};
use otif_cv::{
    Component, CostLedger, CostModel, Detection, DetectorArch, DetectorConfig, SimDetector,
};
use otif_engine::{Engine, EngineOptions, StallSeconds};
use otif_sim::{Dataset, DatasetKind, DatasetScale};
use serde::Serialize;

const STREAM_COUNTS: [usize; 5] = [1, 2, 4, 8, 16];
const PREFETCH_WINDOWS: [usize; 4] = [1, 4, 16, 64];
const PREFETCH_STREAMS: usize = 4;

/// Part 3 (elastic scheduler): stream counts swept on a fixed worker
/// pool — the thousand-stream regime the task engine exists for.
const ELASTIC_STREAMS: [usize; 4] = [16, 64, 256, 1000];
const ELASTIC_WORKERS: usize = 4;
/// OS threads allowed beyond the pool: the main thread, the stall
/// watchdog, and a little platform slack.
const THREAD_SLACK: u64 = 4;

/// Makespan improvement the prefetch sweep must demonstrate at
/// `prefetch=16` over `prefetch=1` (the PR's acceptance bar).
const REQUIRED_PIPELINE_SPEEDUP: f64 = 1.5;

#[derive(Serialize)]
struct ThroughputPoint {
    streams: usize,
    frames: u64,
    /// Critical-path makespan of the pipelined virtual-time model.
    execution_seconds: f64,
    /// Plain sum of all stage charges (prefetch-independent).
    serial_seconds: f64,
    /// Wall-clock seconds the run actually took on this machine — the
    /// real cost of producing the simulated numbers, *not* comparable
    /// to the paper's V100 seconds.
    wall_seconds: f64,
    /// Simulated frames per simulated (makespan) second.
    throughput_fps: f64,
    /// Detector seconds per processed frame (launch overhead + pixels).
    per_frame_detector_seconds: f64,
    detector_batches: u64,
    mean_batch_occupancy: f64,
    max_frames_in_flight: u64,
    speedup_vs_serial: f64,
    stall_seconds: StallSeconds,
}

#[derive(Serialize)]
struct PrefetchPoint {
    prefetch_frames: usize,
    frames: u64,
    /// Plain sum of all stage charges — bitwise identical in every row.
    serial_seconds: f64,
    /// Critical-path makespan under this prefetch window.
    execution_seconds: f64,
    wall_seconds: f64,
    speedup_vs_serial: f64,
    stall_seconds: StallSeconds,
}

#[derive(Serialize)]
struct ElasticPoint {
    streams: usize,
    workers: usize,
    frames: u64,
    /// Critical-path makespan of the virtual-time model —
    /// worker-count-independent by construction.
    execution_seconds: f64,
    serial_seconds: f64,
    wall_seconds: f64,
    throughput_fps: f64,
    /// Peak length of the pool's runnable-task backlog.
    peak_runnable_tasks: u64,
    /// Peak `/proc/self/task` count sampled during the run — the
    /// oversubscription guard (must stay ≤ workers + `THREAD_SLACK`).
    peak_os_threads: u64,
    task_polls: u64,
    task_steals: u64,
    mean_batch_occupancy: f64,
}

#[derive(Serialize)]
struct ThroughputReport {
    stream_scaling: Vec<ThroughputPoint>,
    prefetch_sweep: Vec<PrefetchPoint>,
    elastic_scaling: Vec<ElasticPoint>,
}

fn main() {
    // Fixed 16-clip pool so the largest stream count is fully occupied;
    // the scale argument only controls clip length.
    let scale = DatasetScale {
        clips_per_split: 16,
        clip_seconds: scale_from_args().clip_seconds,
    };
    let dataset = make_dataset(DatasetKind::Caldot1, scale);

    let stream_scaling = stream_scaling_sweep(&dataset);
    let prefetch_sweep = prefetch_sweep(&dataset);
    let elastic_scaling = elastic_sweep();

    let smoke = matches!(std::env::args().nth(1).as_deref(), Some("tiny"));
    write_report(
        "BENCH_throughput",
        smoke,
        &ThroughputReport {
            stream_scaling,
            prefetch_sweep,
            elastic_scaling,
        },
    );
}

/// Part 3: up to a thousand streams on a fixed 4-thread worker pool.
/// Each row runs `streams` one-second clips, one clip per stream. Hard
/// gates: every clip completes, the OS thread count never exceeds the
/// pool (+ slack) at 64+ streams, all outputs are bitwise identical
/// across worker counts {1, 2, 8} at 64 streams, and the virtual-time
/// makespan at 16 streams is bit-equal between a 4-worker and a
/// 64-worker pool (worker count is an execution resource, not part of
/// the run's identity).
fn elastic_sweep() -> Vec<ElasticPoint> {
    let config = OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.25),
        proxy: None,
        gap: 2,
        tracker: TrackerKind::Sort,
        refine: false,
    };
    let ctx = ExecutionContext::bare(CostModel::default(), SEED);
    let pool = make_dataset(
        DatasetKind::Caldot1,
        DatasetScale {
            clips_per_split: *ELASTIC_STREAMS.iter().max().unwrap(),
            clip_seconds: 1.0,
        },
    )
    .test;

    const COMPONENTS: [Component; 4] = [
        Component::Decode,
        Component::Proxy,
        Component::Detector,
        Component::Tracker,
    ];
    let run_at = |streams: usize, workers: usize| {
        let clips = &pool[..streams];
        let ledger = CostLedger::new();
        let opts = EngineOptions {
            streams,
            workers,
            ..EngineOptions::default()
        };
        let started = std::time::Instant::now();
        let run = Engine::run(&config, &ctx, clips, &opts, &ledger);
        let wall_seconds = started.elapsed().as_secs_f64();
        assert_eq!(
            run.stats.failed_clips, 0,
            "elastic sweep must run fault-free ({streams} streams, {workers} workers)"
        );
        let bits: Vec<u64> = COMPONENTS
            .iter()
            .map(|&c| ledger.get(c).to_bits())
            .collect();
        let tracks = serde_json::to_string(&run.tracks).expect("tracks serialize");
        (run, wall_seconds, bits, tracks)
    };

    let mut points = Vec::new();
    for streams in ELASTIC_STREAMS {
        let (run, wall_seconds, bits, tracks) = run_at(streams, ELASTIC_WORKERS);
        let cap = ELASTIC_WORKERS as u64 + THREAD_SLACK;
        if streams >= 64 {
            assert!(
                run.stats.peak_os_threads <= cap,
                "{streams} streams oversubscribed the pool: peak {} OS threads > cap {cap}",
                run.stats.peak_os_threads
            );
        }
        if streams == 64 {
            // Worker-count elasticity: same bits at 1, 2 and 8 workers.
            for workers in [1usize, 2, 8] {
                let (other, _, other_bits, other_tracks) = run_at(streams, workers);
                assert_eq!(
                    other_bits, bits,
                    "ledger bits diverged at {workers} workers (64 streams)"
                );
                assert_eq!(
                    other.rounds, run.rounds,
                    "round log diverged at {workers} workers (64 streams)"
                );
                assert_eq!(
                    other.stats.execution_seconds.to_bits(),
                    run.stats.execution_seconds.to_bits(),
                    "makespan diverged at {workers} workers (64 streams)"
                );
                assert_eq!(
                    other_tracks, tracks,
                    "tracks diverged at {workers} workers (64 streams)"
                );
            }
        }
        if streams == 16 {
            // Makespan neutrality: the virtual-time model must not see
            // the pool, even wildly oversubscribed.
            let (wide, _, _, _) = run_at(streams, 64);
            assert_eq!(
                wide.stats.execution_seconds.to_bits(),
                run.stats.execution_seconds.to_bits(),
                "virtual makespan at 16 streams must be bit-equal on 4 vs 64 workers"
            );
        }
        points.push(ElasticPoint {
            streams,
            workers: run.stats.workers,
            frames: run.stats.frames,
            execution_seconds: run.stats.execution_seconds,
            serial_seconds: run.stats.serial_seconds,
            wall_seconds,
            throughput_fps: run.stats.frames as f64 / run.stats.execution_seconds,
            peak_runnable_tasks: run.stats.peak_runnable_tasks,
            peak_os_threads: run.stats.peak_os_threads,
            task_polls: run.stats.task_polls,
            task_steals: run.stats.task_steals,
            mean_batch_occupancy: run.stats.mean_batch_occupancy,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.streams.to_string(),
                p.workers.to_string(),
                p.frames.to_string(),
                format!("{:.2}", p.execution_seconds),
                format!("{:.1}", p.throughput_fps),
                p.peak_runnable_tasks.to_string(),
                p.peak_os_threads.to_string(),
                p.task_polls.to_string(),
                p.task_steals.to_string(),
                format!("{:.2}", p.mean_batch_occupancy),
                format!("{:.3}", p.wall_seconds),
            ]
        })
        .collect();
    print_table(
        "Elastic scheduler — streams on a fixed 4-worker pool (Caldot1, 1 s clips)",
        &[
            "streams",
            "workers",
            "frames",
            "makespan s",
            "frames/sim-s",
            "peak runnable",
            "peak OS threads",
            "polls",
            "steals",
            "batch occupancy",
            "wall s",
        ],
        &rows,
    );

    let big = points
        .iter()
        .find(|p| p.streams == 256)
        .expect("256-stream row");
    println!(
        "elastic smoke: 256 streams on {} workers, peak {} OS threads (cap {}), \
         outputs bitwise identical across 1/2/8 workers at 64 streams",
        big.workers,
        big.peak_os_threads,
        ELASTIC_WORKERS as u64 + THREAD_SLACK
    );

    points
}

fn stream_scaling_sweep(dataset: &Dataset) -> Vec<ThroughputPoint> {
    // A lean operating point (low detector resolution, moderate gap) so
    // the per-invocation launch overhead is a visible share of detector
    // cost — the share batching can actually remove.
    let config = OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.25),
        proxy: None,
        gap: 2,
        tracker: TrackerKind::Sort,
        refine: false,
    };
    let ctx = ExecutionContext::bare(CostModel::default(), SEED);

    let mut points = Vec::new();
    for streams in STREAM_COUNTS {
        let ledger = CostLedger::new();
        let opts = EngineOptions {
            streams,
            ..EngineOptions::default()
        };
        let started = std::time::Instant::now();
        let run = Engine::run(&config, &ctx, &dataset.test, &opts, &ledger);
        let wall_seconds = started.elapsed().as_secs_f64();
        let frames = run.stats.frames;
        points.push(ThroughputPoint {
            streams: run.stats.streams,
            frames,
            execution_seconds: run.stats.execution_seconds,
            serial_seconds: run.stats.serial_seconds,
            wall_seconds,
            throughput_fps: frames as f64 / run.stats.execution_seconds,
            per_frame_detector_seconds: run.stats.stage_seconds.detector / frames as f64,
            detector_batches: run.stats.batches,
            mean_batch_occupancy: run.stats.mean_batch_occupancy,
            max_frames_in_flight: run.stats.max_frames_in_flight,
            speedup_vs_serial: run.stats.pipeline_speedup,
            stall_seconds: run.stats.stall_seconds,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.streams.to_string(),
                p.frames.to_string(),
                format!("{:.2}", p.execution_seconds),
                format!("{:.3}", p.wall_seconds),
                format!("{:.1}", p.throughput_fps),
                format!("{:.6}", p.per_frame_detector_seconds),
                format!("{:.2}", p.mean_batch_occupancy),
                p.max_frames_in_flight.to_string(),
                format!("{:.2}", p.speedup_vs_serial),
            ]
        })
        .collect();
    print_table(
        "Engine scaling — streams vs simulated throughput (Caldot1, 16 clips)",
        &[
            "streams",
            "frames",
            "makespan s",
            "wall s",
            "frames/sim-s",
            "detector s/frame",
            "batch occupancy",
            "peak in-flight",
            "vs serial",
        ],
        &rows,
    );

    // The whole point of cross-stream batching: per-frame detector cost
    // must fall monotonically as streams share launches.
    for w in points.windows(2) {
        if w[1].streams <= 8 {
            assert!(
                w[1].per_frame_detector_seconds < w[0].per_frame_detector_seconds,
                "per-frame detector cost must strictly decrease from {} to {} streams \
                 ({} vs {})",
                w[0].streams,
                w[1].streams,
                w[0].per_frame_detector_seconds,
                w[1].per_frame_detector_seconds
            );
        }
    }

    points
}

/// Build the decode-heavy proxy operating point: a briefly trained
/// segmentation proxy plus a window set derived from full-resolution
/// detections on the training split — the same recipe as
/// `Otif::prepare`, but at a fixed configuration so the sweep measures
/// scheduling, not tuning.
fn proxy_operating_point(dataset: &Dataset) -> (SegProxyModel, otif_core::WindowSet, f32) {
    let scene = &dataset.scene;
    let (fw, fh) = (scene.width as f32, scene.height as f32);

    // Pseudo-labels from a full-resolution detector on a few training
    // clips (accuracy is irrelevant here; determinism and realistic
    // window geometry are what matter).
    let labeler = SimDetector::new(DetectorConfig::new(DetectorArch::YoloV3, 1.0), SEED);
    let scratch = CostLedger::new();
    let clips: Vec<_> = dataset.train.iter().take(4).collect();
    let labels: Vec<Vec<Vec<Detection>>> = clips
        .iter()
        .map(|clip| {
            (0..clip.num_frames())
                .map(|f| labeler.detect_frame(clip, f, &scratch))
                .collect()
        })
        .collect();

    let mut proxy = SegProxyModel::new(scene.width as usize, scene.height as usize, 0.375, SEED);
    proxy.train(&clips, &labels, 800, 0.01, SEED ^ 0x9E37);

    let frames_cells: Vec<Vec<(usize, usize)>> = labels
        .iter()
        .flat_map(|per_frame| {
            per_frame.iter().filter(|d| !d.is_empty()).map(|dets| {
                cells_of_rects(&dets.iter().map(|d| d.rect).collect::<Vec<_>>(), fw, fh)
            })
        })
        .take(120)
        .collect();
    let arch = DetectorArch::YoloV3;
    let ws = select_window_sizes(fw, fh, &frames_cells, 4, arch.per_px(), arch.per_call());

    // Calibrate the positive-cell threshold to the trained model's own
    // score distribution (the 85th percentile over sampled training
    // frames, i.e. ~15 % of cells fire). A fixed absolute threshold is
    // brittle: depending on how far this particular init converged it
    // can flip between "every cell positive" (full-frame windows, the
    // detector dominates and pipelining has nothing to overlap) and "no
    // cell positive" (the detector never runs at all).
    let cm = CostModel::default();
    let scratch2 = CostLedger::new();
    let mut scores: Vec<f32> = Vec::new();
    for clip in &clips {
        for f in (0..clip.num_frames()).step_by(7) {
            let img = otif_sim::Renderer::new(clip).render(f, proxy.in_w, proxy.in_h);
            let grid = proxy.score_cells(&img, &cm, &scratch2);
            for cy in 0..grid.rows {
                for cx in 0..grid.cols {
                    scores.push(grid.get(cx, cy));
                }
            }
        }
    }
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let threshold = scores[(scores.len() as f64 * 0.85) as usize];

    (proxy, ws, threshold)
}

fn prefetch_sweep(dataset: &Dataset) -> Vec<PrefetchPoint> {
    let (proxy, window_set, threshold) = proxy_operating_point(dataset);

    // Decode-heavy operating point: proxy on every frame plus a higher
    // detector input resolution keep per-stream CPU/proxy work
    // comparable to the shared detector rounds, so prefetch has real
    // overlap to expose (with a tiny detector the rounds dominate and
    // pipelining can only shave the fill/drain).
    let config = OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
        proxy: Some(ProxyParams {
            resolution_idx: 0,
            threshold,
        }),
        gap: 2,
        tracker: TrackerKind::Sort,
        refine: false,
    };
    let proxies = [proxy];
    let ctx = ExecutionContext {
        cost: CostModel::default(),
        detector_seed: SEED,
        proxies: Some(&proxies),
        window_set: Some(&window_set),
        tracker_model: None,
        refine_index: None,
    };

    const COMPONENTS: [Component; 4] = [
        Component::Decode,
        Component::Proxy,
        Component::Detector,
        Component::Tracker,
    ];

    let mut points: Vec<PrefetchPoint> = Vec::new();
    let mut baseline_bits: Option<(u64, Vec<u64>)> = None;
    for prefetch in PREFETCH_WINDOWS {
        let ledger = CostLedger::new();
        let opts = EngineOptions {
            streams: PREFETCH_STREAMS,
            prefetch_frames: prefetch,
            ..EngineOptions::default()
        };
        let started = std::time::Instant::now();
        let run = Engine::run(&config, &ctx, &dataset.test, &opts, &ledger);
        let wall_seconds = started.elapsed().as_secs_f64();
        assert!(
            run.stats.failed_clips == 0,
            "prefetch sweep must run fault-free"
        );

        // Charges never move: the serial sum and every component sum
        // must be bitwise identical across prefetch settings.
        let bits = (
            run.stats.serial_seconds.to_bits(),
            COMPONENTS
                .iter()
                .map(|&c| ledger.get(c).to_bits())
                .collect::<Vec<u64>>(),
        );
        match &baseline_bits {
            None => baseline_bits = Some(bits),
            Some(base) => assert_eq!(
                *base, bits,
                "ledger sums must be bitwise identical across prefetch settings"
            ),
        }

        points.push(PrefetchPoint {
            prefetch_frames: prefetch,
            frames: run.stats.frames,
            serial_seconds: run.stats.serial_seconds,
            execution_seconds: run.stats.execution_seconds,
            wall_seconds,
            speedup_vs_serial: run.stats.pipeline_speedup,
            stall_seconds: run.stats.stall_seconds,
        });
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.prefetch_frames.to_string(),
                format!("{:.3}", p.serial_seconds),
                format!("{:.3}", p.execution_seconds),
                format!("{:.2}", p.speedup_vs_serial),
                format!("{:.3}", p.stall_seconds.decode_starved),
                format!("{:.3}", p.stall_seconds.batcher_wait),
                format!("{:.3}", p.stall_seconds.channel_backpressure),
                format!("{:.3}", p.wall_seconds),
            ]
        })
        .collect();
    print_table(
        "Pipelining — decode prefetch vs makespan (Caldot1, 4 streams, proxy on)",
        &[
            "prefetch",
            "serial s",
            "makespan s",
            "vs serial",
            "decode-starved s",
            "batcher-wait s",
            "backpressure s",
            "wall s",
        ],
        &rows,
    );

    // Deeper prefetch can only help (the replay model is monotone in
    // the decode-ahead budget).
    for w in points.windows(2) {
        assert!(
            w[1].execution_seconds <= w[0].execution_seconds,
            "makespan must not regress from prefetch {} to {} ({} vs {})",
            w[0].prefetch_frames,
            w[1].prefetch_frames,
            w[0].execution_seconds,
            w[1].execution_seconds
        );
    }
    let p1 = points
        .iter()
        .find(|p| p.prefetch_frames == 1)
        .expect("prefetch=1 row");
    let p16 = points
        .iter()
        .find(|p| p.prefetch_frames == 16)
        .expect("prefetch=16 row");
    let speedup = p1.execution_seconds / p16.execution_seconds;
    assert!(
        speedup >= REQUIRED_PIPELINE_SPEEDUP,
        "prefetch=16 must beat prefetch=1 by ≥{REQUIRED_PIPELINE_SPEEDUP}× (got {speedup:.3}×: \
         {} s vs {} s)",
        p1.execution_seconds,
        p16.execution_seconds
    );
    println!(
        "pipelining smoke: makespan prefetch=1 {:.6} s vs prefetch=16 {:.6} s \
         ({speedup:.2}x speedup), ledger sums bitwise identical",
        p1.execution_seconds, p16.execution_seconds
    );

    points
}
