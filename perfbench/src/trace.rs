//! The traced run: per-layer numbers from spans the benchmark records
//! around each public stage call, never from inside the program.
//!
//! Each source's ingest clips are replayed sequentially through the
//! stage functions the engine runs, in the engine's round order (every
//! stream's next sampled frame, then one batched surrogate forward per
//! window size and chunk, then every tracker step). The same replay runs
//! untraced to price the spans. Layers a source's operating point does
//! not route through (the proxy path and the surrogate detector when
//! the proxy is off) are probed by replaying a few of the same clips
//! with the proxy on. Engine, store and server layers are timed around
//! their public calls on the same set-up.

use crate::host;
use crate::setup::{self, engine_options, Setup, Source, WORKERS};
use crate::summary::{median, quantile, Metric};
use crate::timed::{self, Class, Ops, Serving};
use otif_core::stages::{charge_decode, charge_tracker_step, finalize_tracks};
use otif_core::{group_cells, FrameTracker, OtifConfig, Pipeline, ProxyParams, WindowNet};
use otif_cv::{CostLedger, SimDetector};
use otif_engine::{DetectorExec, Engine};
use otif_nn::Tensor3;
use otif_sim::{Clip, Renderer};
use otif_track::Track;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Sampled frames the proxy-path probe replays per source.
const PROBE_FRAMES: usize = 400;

/// Accumulated spans of one layer.
#[derive(Debug, Default, Clone, Copy)]
struct Span {
    calls: u64,
    /// Work items the calls covered (windows, for per-window layers).
    items: u64,
    nanos: u64,
}

/// Span recorder; with `on == false` it only runs the closures, which
/// is the untraced baseline the overhead is measured against.
#[derive(Default)]
struct Tracer {
    on: bool,
    layers: BTreeMap<&'static str, Span>,
}

impl Tracer {
    fn traced() -> Tracer {
        Tracer {
            on: true,
            layers: BTreeMap::new(),
        }
    }

    fn span<R>(&mut self, layer: &'static str, items: usize, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let nanos = t0.elapsed().as_nanos() as u64;
        let s = self.layers.entry(layer).or_default();
        s.calls += 1;
        s.items += items as u64;
        s.nanos += nanos;
        out
    }

    fn get(&self, layer: &str) -> Span {
        self.layers.get(layer).copied().unwrap_or_default()
    }

    fn total_nanos(&self) -> u64 {
        self.layers.values().map(|s| s.nanos).sum()
    }

    fn absorb(&mut self, other: &Tracer) {
        for (k, v) in &other.layers {
            let s = self.layers.entry(k).or_default();
            s.calls += v.calls;
            s.items += v.items;
            s.nanos += v.nanos;
        }
    }
}

/// Replay `clips` through the stage functions in engine round order:
/// clips are dealt to `streams` round-robin, and round `r` takes every
/// stream's `r`-th sampled frame. Returns per-clip tracks, which equal
/// the engine's.
fn replay(
    src: &Source,
    config: &OtifConfig,
    surrogate: bool,
    clips: &[Clip],
    tracer: &mut Tracer,
) -> Vec<Vec<Track>> {
    let ctx = src.otif.context();
    let ledger = CostLedger::new();
    let detector = SimDetector::new(config.detector, ctx.detector_seed);
    let net = surrogate.then(|| WindowNet::new(&config.detector, ctx.detector_seed));
    let max_batch = engine_options(1, DetectorExec::Off).max_batch;
    let renderers: Vec<Renderer> = clips.iter().map(Renderer::new).collect();
    let mut trackers: Vec<FrameTracker> = clips
        .iter()
        .map(|_| FrameTracker::new(config, &ctx))
        .collect();
    let streams = src.spec.streams.clamp(1, clips.len().max(1));
    let mut sequences: Vec<Vec<(usize, usize)>> = vec![Vec::new(); streams];
    for (ci, clip) in clips.iter().enumerate() {
        let frames = (0..clip.num_frames()).step_by(config.gap.max(1));
        sequences[ci % streams].extend(frames.map(|f| (ci, f)));
    }
    let rounds = sequences.iter().map(Vec::len).max().unwrap_or(0);
    for r in 0..rounds {
        let mut inputs: BTreeMap<(u32, u32), Vec<Tensor3>> = BTreeMap::new();
        let mut dets_per_clip = Vec::with_capacity(streams);
        for &(ci, f) in sequences.iter().filter_map(|seq| seq.get(r)) {
            let clip = &clips[ci];
            let renderer = &renderers[ci];
            let native_px = clip.scene.width as f64 * clip.scene.height as f64;
            charge_decode(config, &ctx, native_px, &ledger);
            let windows = match (&config.proxy, ctx.proxies, ctx.window_set) {
                (Some(p), Some(proxies), Some(ws)) => {
                    let proxy = &proxies[p.resolution_idx];
                    let img = tracer.span("sim.render", 1, || {
                        renderer.render(f, proxy.in_w, proxy.in_h)
                    });
                    let grid = tracer.span("core.proxy_score", 1, || {
                        proxy.score_cells(&img, &ctx.cost, &ledger)
                    });
                    tracer.span("core.group", 1, || {
                        group_cells(&grid.positive_cells(p.threshold), ws)
                    })
                }
                _ => vec![clip.scene.frame_rect()],
            };
            let dets = if windows.is_empty() {
                Vec::new()
            } else {
                tracer.span("cv.detect", windows.len(), || {
                    detector.detect_windows(clip, f, &windows, &ledger)
                })
            };
            charge_tracker_step(&ctx, dets.len(), &ledger);
            if let Some(net) = &net {
                for w in &windows {
                    let rounded = (w.w.round() as u32, w.h.round() as u32);
                    let x = tracer.span("sim.render_region", 1, || {
                        net.materialize(renderer, f, w, rounded)
                    });
                    inputs.entry(rounded).or_default().push(x);
                }
            }
            dets_per_clip.push((ci, f, dets));
        }
        if let Some(net) = &net {
            for xs in inputs.values() {
                for chunk in xs.chunks(max_batch) {
                    let refs: Vec<&Tensor3> = chunk.iter().collect();
                    tracer.span("core.windownet", chunk.len(), || {
                        black_box(net.forward_batched(&refs))
                    });
                }
            }
        }
        for (ci, f, dets) in dets_per_clip {
            tracer.span("track.step", 1, || trackers[ci].step(f, dets));
        }
    }
    clips
        .iter()
        .zip(trackers)
        .map(|(clip, t)| {
            tracer.span("track.finalize", 1, || {
                finalize_tracks(config, &ctx, clip, t.finish(), &ledger)
            })
        })
        .collect()
}

/// Clips from the front of `clips` holding about `PROBE_FRAMES`
/// sampled frames.
fn probe_clips(clips: &[Clip], gap: usize) -> &[Clip] {
    let mut frames = 0;
    for (i, c) in clips.iter().enumerate() {
        frames += c.num_frames().div_ceil(gap.max(1));
        if frames >= PROBE_FRAMES {
            return &clips[..=i];
        }
    }
    clips
}

/// Run the traced mode; returns the per-layer metrics.
pub fn run(
    setup: &Setup,
    work: &std::path::Path,
    seed: u64,
    seconds: f64,
    ops: &mut Ops,
) -> Vec<Metric> {
    let steal0 = host::CpuTicks::now();
    let budget = Duration::from_secs_f64(seconds / 3.0);

    // Sequential replay, untraced and traced alternately, after one
    // untimed replay that warms caches and the allocator. Which of the
    // two runs first swaps every pair.
    let replay_all = |tracer: &mut Tracer| -> Vec<Vec<Vec<Track>>> {
        setup
            .sources
            .iter()
            .map(|src| {
                replay(
                    src,
                    &src.config,
                    src.spec.exec != DetectorExec::Off,
                    &src.ingest,
                    tracer,
                )
            })
            .collect()
    };
    black_box(replay_all(&mut Tracer::default()));
    let mut replay_layers = Tracer::traced();
    let (mut plain_s, mut traced_s, mut traced_span_s) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while traced_s.len() < 2 || started.elapsed() < budget {
        let mut tracer = Tracer::traced();
        let mut outputs = Vec::new();
        let traced_first = traced_s.len() % 2 == 0;
        for traced in [traced_first, !traced_first] {
            if traced {
                let t0 = Instant::now();
                outputs = replay_all(&mut tracer);
                traced_s.push(t0.elapsed().as_secs_f64());
                traced_span_s.push(tracer.total_nanos() as f64 / 1e9);
            } else {
                let t0 = Instant::now();
                black_box(replay_all(&mut Tracer::default()));
                plain_s.push(t0.elapsed().as_secs_f64());
            }
        }
        if traced_s.len() == 1 {
            // The replay must reproduce the engine's tracks.
            for (src, tracks) in setup.sources.iter().zip(&outputs) {
                let mut acc = otif_core::DIGEST_SEED;
                for t in tracks {
                    let json = serde_json::to_string(t).expect("tracks serialize");
                    acc = otif_core::fold_digest(acc, otif_core::fnv1a(json.as_bytes()));
                }
                ops.check(if acc == src.reference.tracks_fp {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: traced replay tracks differ from the engine",
                        src.spec.kind.name()
                    ))
                });
            }
        }
        replay_layers.absorb(&tracer);
    }
    let coverage: Vec<f64> = traced_span_s
        .iter()
        .zip(&traced_s)
        .map(|(a, b)| 100.0 * a / b)
        .collect();
    let overhead_pct = 100.0 * (median(&traced_s) - median(&plain_s)) / median(&plain_s);

    // Probe the proxy path and the surrogate where the operating point
    // skips them.
    let mut probe = Tracer::traced();
    for src in &setup.sources {
        if src.config.proxy.is_none() || src.spec.exec == DetectorExec::Off {
            let config = OtifConfig {
                proxy: Some(ProxyParams {
                    resolution_idx: 0,
                    threshold: src.threshold,
                }),
                ..src.config
            };
            black_box(replay(
                src,
                &config,
                true,
                probe_clips(&src.ingest, config.gap),
                &mut probe,
            ));
        }
    }
    let layer = |name: &str| {
        let s = replay_layers.get(name);
        if s.calls > 0 {
            s
        } else {
            probe.get(name)
        }
    };

    // Engine against the sequential pipeline on the same clips and threads.
    let (mut engine_s, mut pipeline_s, mut cpu_s) = (Vec::new(), Vec::new(), 0.0);
    let (mut polls, mut occupancy, mut detector_wall, mut wall_fps, mut sim, mut threads) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        0u64,
    );
    let started = Instant::now();
    while engine_s.is_empty() || started.elapsed() < budget {
        let (mut e, mut p, mut poll, mut fr, mut occ, mut dw) = (0.0, 0.0, 0u64, 0u64, 0.0, 0.0);
        let (mut video_frames, mut video_s, mut sim_s) = (0usize, 0.0, 0.0);
        for src in &setup.sources {
            let ctx = src.otif.context();
            let cpu0 = host::process_cpu_s();
            let t0 = Instant::now();
            let run = Engine::run(
                &src.config,
                &ctx,
                &src.ingest,
                &engine_options(src.spec.streams, src.spec.exec),
                &CostLedger::new(),
            );
            e += t0.elapsed().as_secs_f64();
            cpu_s += host::process_cpu_s() - cpu0;
            video_frames += src.ingest.iter().map(Clip::num_frames).sum::<usize>();
            video_s += src
                .ingest
                .iter()
                .map(|c| c.num_frames() as f64 / c.scene.fps as f64)
                .sum::<f64>();
            sim_s += run.stats.execution_seconds;
            poll += run.stats.task_polls;
            fr += run.stats.frames;
            occ += run.stats.mean_batch_occupancy / setup.sources.len() as f64;
            dw += run.stats.detector_wall_seconds;
            threads = threads.max(run.stats.peak_os_threads);
            let t0 = Instant::now();
            black_box(otif_core::par_map(
                WORKERS,
                src.ingest.iter().collect(),
                |_, clip| Pipeline::run_clip(&src.config, &ctx, clip, &CostLedger::new()),
            ));
            p += t0.elapsed().as_secs_f64();
            if src.spec.exec == DetectorExec::Off {
                // The surrogate's wall where the timed pass runs none.
                let run = Engine::run(
                    &src.config,
                    &ctx,
                    &src.ingest,
                    &engine_options(src.spec.streams, DetectorExec::Batched),
                    &CostLedger::new(),
                );
                dw += run.stats.detector_wall_seconds;
            }
        }
        wall_fps.push(video_frames as f64 / e);
        sim.push(sim_s / video_s * 3600.0);
        engine_s.push(e);
        pipeline_s.push(p);
        polls.push(poll as f64 / fr.max(1) as f64);
        occupancy.push(occ);
        detector_wall.push(dw);
    }
    let engine_total: f64 = engine_s.iter().sum();

    // Store and server: serving rounds, then cold loads after eviction.
    // The ingest workloads serve their own reference output over an
    // otherwise empty store.
    if !setup.workload.serves() {
        if let Err(why) = setup::build_template(&setup.template, &setup.sources) {
            ops.check(Err(why));
        }
    }
    let mut serving = Serving::new(work);
    let mut rounds = Vec::new();
    for _ in 0..2 {
        match timed::round(setup, &mut serving, seed, ops) {
            Ok(r) => rounds.push(r),
            Err(why) => ops.check(Err(why)),
        }
    }
    let queries: Vec<_> = rounds.iter().flat_map(|r| r.queries()).collect();
    let misses = |class: Class| -> Vec<f64> {
        queries
            .iter()
            .filter(|q| q.class == class && !q.hit)
            .map(|q| q.ms)
            .collect()
    };
    let scan_per_clip: Vec<f64> = queries
        .iter()
        .filter(|q| q.class == Class::Scan && !q.hit)
        .map(|q| q.ms / q.clips_evaluated.max(1) as f64)
        .collect();
    let evaluated: u64 = queries.iter().map(|q| q.clips_evaluated).sum();
    let pruned: u64 = queries.iter().map(|q| q.clips_pruned).sum();
    let skipped: u64 = queries.iter().map(|q| q.frame_scans_skipped).sum();
    let hits = queries.iter().filter(|q| q.hit).count();

    let frames = replay_layers.get("track.step").calls.max(1) as f64;
    let us_per_call = |name: &str| {
        let s = layer(name);
        s.nanos as f64 / 1e3 / s.calls.max(1) as f64
    };
    let us_per_item = |name: &str| {
        let s = layer(name);
        s.nanos as f64 / 1e3 / s.items.max(1) as f64
    };
    let us_per_frame = |name: &str| layer(name).nanos as f64 / 1e3 / frames;
    let prepare_s: f64 = setup.sources.iter().map(|s| s.prepare_s).sum();
    vec![
        Metric::new(
            "sim.render_us_per_frame",
            us_per_call("sim.render"),
            "us",
            "proxy-input render",
        ),
        Metric::new(
            "sim.render_region_us_per_window",
            us_per_call("sim.render_region"),
            "us",
            "WindowNet::materialize",
        ),
        Metric::new(
            "core.proxy_score_us_per_frame",
            us_per_call("core.proxy_score"),
            "us",
            "SegProxyModel::score_cells",
        ),
        Metric::new(
            "core.windownet_us_per_window",
            us_per_item("core.windownet"),
            "us",
            format!("forward_batched, {} batches", layer("core.windownet").calls),
        ),
        Metric::new(
            "core.group_us_per_frame",
            us_per_call("core.group"),
            "us",
            "group_cells",
        ),
        Metric::new(
            "core.windows_per_frame",
            replay_layers.get("cv.detect").items as f64 / frames,
            "windows",
            "detector windows per sampled frame",
        ),
        Metric::new(
            "core.prepare_s",
            prepare_s,
            "s",
            "Otif::prepare + operating point",
        ),
        Metric::new(
            "cv.detect_us_per_frame",
            us_per_frame("cv.detect"),
            "us",
            "SimDetector::detect_windows",
        ),
        Metric::new(
            "track.step_us_per_frame",
            us_per_frame("track.step"),
            "us",
            "FrameTracker::step",
        ),
        Metric::new(
            "track.finalize_us_per_clip",
            us_per_call("track.finalize"),
            "us",
            "finish + stages::finalize_tracks",
        ),
        Metric::new(
            "engine.sim_s_per_video_h",
            median(&sim),
            "s/h",
            "simulated V100 makespan per video hour",
        ),
        Metric::new(
            "engine.overhead_ratio",
            median(&engine_s) / median(&pipeline_s),
            "ratio",
            format!(
                "Engine::run / Pipeline on {WORKERS} threads, {} passes",
                engine_s.len()
            ),
        ),
        Metric::new(
            "engine.wall_fps",
            median(&wall_fps),
            "frames/s",
            "video frames per Engine::run wall second",
        ),
        Metric::new(
            "engine.cpu_util",
            cpu_s / (WORKERS as f64 * engine_total),
            "ratio",
            "process CPU / (workers x wall)",
        ),
        Metric::new(
            "engine.polls_per_frame",
            median(&polls),
            "polls",
            "task polls per sampled frame",
        ),
        Metric::new(
            "engine.batch_occupancy",
            median(&occupancy),
            "windows",
            "mean windows per detector batch",
        ),
        Metric::new(
            "engine.detector_wall_s",
            median(&detector_wall),
            "s",
            "surrogate forward wall per pass",
        ),
        Metric::new(
            "engine.peak_os_threads",
            threads as f64,
            "count",
            "peak /proc/self/task",
        ),
        Metric::new(
            "store.append_ms",
            median(
                &rounds
                    .iter()
                    .flat_map(|r| r.append_ms.iter().copied())
                    .collect::<Vec<_>>(),
            ),
            "ms",
            "wall of a durable ingest_clip_keyed, fsyncs included",
        ),
        Metric::new(
            "store.open_ms",
            median(&rounds.iter().map(|r| r.open_ms).collect::<Vec<_>>()),
            "ms",
            "TrackStore::open",
        ),
        Metric::new(
            "store.load_ms_per_clip",
            median(
                &rounds
                    .iter()
                    .map(|r| r.load_ms_per_clip)
                    .collect::<Vec<_>>(),
            ),
            "ms",
            "cold load of every clip after TrackStore::open",
        ),
        Metric::new(
            "serve.scan_ms_per_clip",
            median(&scan_per_clip),
            "ms",
            "warm count scans that missed the cache",
        ),
        Metric::new(
            "serve.scan_p95_ms",
            median(
                &rounds
                    .iter()
                    .map(|r| quantile(&r.scan_ms(), 0.95))
                    .collect::<Vec<_>>(),
            ),
            "ms",
            "median over rounds of each round's distinct-scan p95",
        ),
        Metric::new(
            "serve.prune_ratio",
            pruned as f64 / (pruned + evaluated).max(1) as f64,
            "ratio",
            "clips pruned / clips considered",
        ),
        Metric::new(
            "serve.frame_scans_skipped",
            skipped as f64 / rounds.len().max(1) as f64,
            "count",
            "per round, by the spatial index",
        ),
        Metric::new(
            "serve.qps",
            median(
                &rounds
                    .iter()
                    .map(|r| {
                        let ms: f64 = r.mixed.iter().map(|q| q.ms).sum();
                        r.mixed.len() as f64 / (ms / 1e3)
                    })
                    .collect::<Vec<_>>(),
            ),
            "1/s",
            "serving-mix queries per wall second, 1 client",
        ),
        Metric::new(
            "serve.cache_hit_ratio",
            hits as f64 / queries.len().max(1) as f64,
            "ratio",
            "answer-cache hits / queries",
        ),
        Metric::new(
            "serve.track_p50_ms",
            median(&misses(Class::Track)),
            "ms",
            "track and aggregate queries",
        ),
        Metric::new(
            "serve.catalog_p50_ms",
            median(&misses(Class::Catalog)),
            "ms",
            "catalog-pruned region queries",
        ),
        Metric::new(
            "host.peak_rss_mb",
            host::peak_rss_mb(),
            "MB",
            "VmHWM of the traced run's process",
        ),
        Metric::new(
            "host.steal_pct",
            host::CpuTicks::now().steal_pct_since(&steal0),
            "%",
            "steal share, whole traced run",
        ),
        Metric::new(
            "trace.coverage_pct",
            median(&coverage),
            "%",
            "layer spans / traced replay wall",
        ),
        Metric::new(
            "trace.overhead_pct",
            overhead_pct,
            "%",
            format!("traced vs untraced replay, {} pairs", traced_s.len()),
        ),
    ]
}
