//! Serving-tier benchmark: latency percentiles and QPS of
//! `otif_serve::QueryServer` under a mixed read workload — repeated
//! aggregates, scan-heavy frame-limit queries, prunable region and
//! hot-spot queries — at 1, 4 and 8 concurrent clients, cold versus
//! warm answer cache, with index-driven clip pruning on versus off.
//!
//! Hard assertions (the PR's acceptance bar, checked at every client
//! count):
//!
//! - **byte identity** — every configuration (full scan, pruned, cold
//!   cache, warm cache, any concurrency) produces byte-identical
//!   answers, compared via a fingerprint over all answer bytes in
//!   workload order;
//! - **pruning beats full scans** — the pruned run evaluates strictly
//!   fewer clips than the full-scan run and skips at least one clip at
//!   the catalog (never deserializing it) and at least one per-frame
//!   scan via the spatial index; an isolated cold-store region query
//!   must also touch strictly fewer clip files with pruning on;
//! - **the warm cache is a cache** — the warm pass answers every query
//!   from the cache and completes faster than the cold pass.
//!
//! Tracks are extracted once by the multi-stream engine (untrained
//! operating point: no proxy, SORT, no refinement — deterministic and
//! fast) and ingested into a throwaway `TrackStore`; all reported time
//! is wall-clock over that store.
//!
//! Usage: `cargo run --release -p otif-bench --bin serving
//! [tiny|small|experiment|smoke]` — `smoke` is the CI entry: tiny
//! scale, results to the git-ignored
//! `target/bench-smoke/BENCH_serving_smoke.json` instead of
//! `results/BENCH_serving.json`.

use otif_bench::harness::SEED;
use otif_bench::report::{print_table, write_report};
use otif_core::config::{OtifConfig, TrackerKind};
use otif_core::pipeline::ExecutionContext;
use otif_cv::{CostLedger, CostModel, DetectorArch, DetectorConfig};
use otif_engine::{Engine, EngineOptions};
use otif_serve::{
    mixed_workload, run_workload, CacheMode, ClipInfo, QueryServer, ServeOptions, ServeQuery,
    TrackStore, WorkloadRun,
};
use otif_sim::{DatasetConfig, DatasetKind, DatasetScale};
use serde::Serialize;
use std::path::Path;
use std::sync::Arc;

const CLIENT_COUNTS: [usize; 3] = [1, 4, 8];

#[derive(Serialize)]
struct ClientPoint {
    clients: usize,
    /// Pruning off, cache off, cold clip cache — the full-scan baseline.
    full_scan: WorkloadRun,
    /// Pruning on, cache off, cold clip cache.
    pruned: WorkloadRun,
    /// Pruning on, cache on, cold caches.
    cache_cold: WorkloadRun,
    /// Same server again — every repeat served from the answer cache.
    cache_warm: WorkloadRun,
    /// Clips evaluated by the full-scan run (server counter).
    full_clips_evaluated: u64,
    /// Clips evaluated / pruned by the pruned run.
    pruned_clips_evaluated: u64,
    clips_pruned: u64,
    frame_scans_skipped: u64,
    cache_hits: u64,
    cache_misses: u64,
}

#[derive(Serialize)]
struct PruneMicro {
    /// Clip files read by the isolated cold-store region query, pruning off.
    full_scan_clip_loads: u64,
    /// Same query, cold store, pruning on.
    pruned_clip_loads: u64,
}

#[derive(Serialize)]
struct ServingReport {
    scale: String,
    datasets: Vec<String>,
    clips: usize,
    tracks: usize,
    queries: usize,
    /// All runs at all client counts produced byte-identical answers.
    answers_identical: bool,
    prune_micro: PruneMicro,
    points: Vec<ClientPoint>,
}

fn extract_into_store(dir: &Path, scale: DatasetScale) -> (TrackStore, Vec<String>, usize) {
    let cfg = OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
        proxy: None,
        gap: 4,
        tracker: TrackerKind::Sort,
        refine: false,
    };
    let ctx = ExecutionContext::bare(CostModel::default(), SEED);
    let mut store = TrackStore::create(dir).expect("create bench store");
    let mut names = Vec::new();
    let mut tracks_total = 0usize;
    for kind in [DatasetKind::Caldot1, DatasetKind::Amsterdam] {
        names.push(kind.name().to_string());
        let clips = DatasetConfig::new(kind, scale, SEED ^ kind.name().len() as u64)
            .generate()
            .test;
        let run = Engine::run(
            &cfg,
            &ctx,
            &clips,
            &EngineOptions::with_streams(4),
            &CostLedger::new(),
        );
        for (clip, outcome) in clips.iter().zip(&run.tracks) {
            let tracks = outcome.tracks().expect("healthy engine run");
            tracks_total += tracks.len();
            let info = ClipInfo {
                num_frames: clip.num_frames(),
                fps: clip.scene.fps as f32,
                width: clip.scene.width as f32,
                height: clip.scene.height as f32,
            };
            store.ingest_clip(&info, tracks).expect("ingest clip");
        }
    }
    (store, names, tracks_total)
}

/// The isolated pruning micro-comparison: one prunable corner-region
/// query against a cold store, counting clip files actually read.
fn prune_micro(store: &Arc<TrackStore>, workload: &[ServeQuery]) -> PruneMicro {
    let region = workload
        .iter()
        .find(|q| q.label().starts_with("frames:region"))
        .expect("mixed workload contains a region query")
        .clone();
    let mut loads = [0u64; 2];
    for (i, pruning) in [false, true].into_iter().enumerate() {
        store.evict_clips();
        let before = store.clip_loads();
        let server = QueryServer::new(Arc::clone(store), 0);
        server
            .execute_bytes(
                &region,
                &ServeOptions {
                    threads: 1,
                    pruning,
                    cache: CacheMode::Off,
                },
            )
            .expect("region query");
        loads[i] = store.clip_loads() - before;
    }
    PruneMicro {
        full_scan_clip_loads: loads[0],
        pruned_clip_loads: loads[1],
    }
}

fn main() {
    let arg = std::env::args().nth(1);
    let (scale, smoke) = match arg.as_deref() {
        Some("tiny") => (DatasetScale::TINY, false),
        Some("smoke") => (DatasetScale::TINY, true),
        Some("small") => (
            DatasetScale {
                clips_per_split: 4,
                clip_seconds: 10.0,
            },
            false,
        ),
        Some("experiment") | None => (DatasetScale::EXPERIMENT, false),
        Some(other) => panic!("unknown scale '{other}' (expected tiny|small|experiment|smoke)"),
    };
    let scale_name = if smoke {
        "smoke".to_string()
    } else {
        format!("{}x{:.0}s", scale.clips_per_split, scale.clip_seconds)
    };

    let dir = std::env::temp_dir().join(format!("otif-serving-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (store, datasets, tracks_total) = extract_into_store(&dir, scale);
    let store = Arc::new(store);

    let repeats = if smoke || scale.clips_per_split <= DatasetScale::TINY.clips_per_split {
        3
    } else {
        6
    };
    let workload = mixed_workload(store.metas(), repeats, SEED);
    let micro = prune_micro(&store, &workload);
    assert!(
        micro.pruned_clip_loads < micro.full_scan_clip_loads,
        "indexed pruning must beat the full scan: region query read {} clip files with \
         pruning on vs {} with pruning off",
        micro.pruned_clip_loads,
        micro.full_scan_clip_loads
    );

    let mut points = Vec::new();
    let mut fingerprints = Vec::new();
    for clients in CLIENT_COUNTS {
        // per-query evaluation stays single-threaded here so concurrency
        // comes purely from clients; intra-query par_map identity is
        // covered by the thread sweep in crates/serve/tests
        let opts = |pruning, cache| ServeOptions {
            threads: 1,
            pruning,
            cache,
        };

        store.evict_clips();
        let full_server = QueryServer::new(Arc::clone(&store), 0);
        let full_scan = run_workload(
            &full_server,
            &workload,
            clients,
            &opts(false, CacheMode::Off),
        )
        .expect("full-scan run");
        let full_clips_evaluated = full_server.stats().clips_evaluated;

        store.evict_clips();
        let pruned_server = QueryServer::new(Arc::clone(&store), 0);
        let pruned = run_workload(
            &pruned_server,
            &workload,
            clients,
            &opts(true, CacheMode::Off),
        )
        .expect("pruned run");
        let pstats = pruned_server.stats();

        store.evict_clips();
        let cache_server = QueryServer::new(Arc::clone(&store), 256);
        let cache_cold = run_workload(
            &cache_server,
            &workload,
            clients,
            &opts(true, CacheMode::On),
        )
        .expect("cold-cache run");
        let cache_warm = run_workload(
            &cache_server,
            &workload,
            clients,
            &opts(true, CacheMode::On),
        )
        .expect("warm-cache run");
        let cstats = cache_server.stats();

        // byte identity across every configuration at this client count
        for run in [&full_scan, &pruned, &cache_cold, &cache_warm] {
            fingerprints.push(run.answers_fingerprint);
        }
        // pruning strictly reduces evaluated clips and provably skips work
        assert!(
            pstats.clips_evaluated < full_clips_evaluated,
            "pruned run must evaluate fewer clips ({} vs {})",
            pstats.clips_evaluated,
            full_clips_evaluated
        );
        assert!(pstats.clips_pruned > 0, "catalog pruning never fired");
        assert!(
            pstats.frame_scans_skipped > 0,
            "spatial-index hot-spot prefilter never fired"
        );
        // the warm pass is answered from the cache, faster than cold
        assert!(
            cstats.cache.hits >= workload.len() as u64,
            "warm pass must hit the cache for every query (hits={})",
            cstats.cache.hits
        );
        assert!(
            cache_warm.latency.wall_seconds < cache_cold.latency.wall_seconds,
            "warm cache ({}s) must beat cold cache ({}s)",
            cache_warm.latency.wall_seconds,
            cache_cold.latency.wall_seconds
        );

        points.push(ClientPoint {
            clients,
            full_scan,
            pruned,
            cache_cold,
            cache_warm,
            full_clips_evaluated,
            pruned_clips_evaluated: pstats.clips_evaluated,
            clips_pruned: pstats.clips_pruned,
            frame_scans_skipped: pstats.frame_scans_skipped,
            cache_hits: cstats.cache.hits,
            cache_misses: cstats.cache.misses,
        });
    }

    assert!(
        fingerprints.windows(2).all(|w| w[0] == w[1]),
        "answers must be byte-identical across pruning, cache state and concurrency"
    );

    let report = ServingReport {
        scale: scale_name,
        datasets,
        clips: store.len(),
        tracks: tracks_total,
        queries: workload.len(),
        answers_identical: true,
        prune_micro: micro,
        points,
    };

    let rows: Vec<Vec<String>> = report
        .points
        .iter()
        .map(|p| {
            vec![
                p.clients.to_string(),
                format!("{:.1}", p.full_scan.latency.qps),
                format!("{:.1}", p.pruned.latency.qps),
                format!("{:.1}", p.cache_warm.latency.qps),
                format!("{:.3}", p.pruned.latency.p50_ms),
                format!("{:.3}", p.pruned.latency.p99_ms),
                format!("{:.3}", p.cache_warm.latency.p50_ms),
                format!("{}/{}", p.pruned_clips_evaluated, p.full_clips_evaluated),
            ]
        })
        .collect();
    print_table(
        "Serving: mixed workload (full scan vs pruned vs warm cache)",
        &[
            "clients",
            "full QPS",
            "pruned QPS",
            "warm QPS",
            "pruned p50 ms",
            "pruned p99 ms",
            "warm p50 ms",
            "clips eval (pruned/full)",
        ],
        &rows,
    );
    println!(
        "\nregion-query clip loads: {} pruned vs {} full; answers byte-identical: {}",
        report.prune_micro.pruned_clip_loads,
        report.prune_micro.full_scan_clip_loads,
        report.answers_identical
    );

    write_report("BENCH_serving", smoke, &report);
    std::fs::remove_dir_all(&dir).ok();
}
