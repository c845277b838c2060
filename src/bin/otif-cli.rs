//! `otif-cli` — a small command-line front end for the OTIF workflow.
//!
//! ```text
//! otif-cli generate --dataset warsaw --clips 4 --seconds 10 --seed 7
//! otif-cli prepare  --dataset warsaw --clips 4 --seconds 10 --seed 7 --out model.json
//! otif-cli curve    --model model.json
//! otif-cli execute  --model model.json --dataset warsaw --clips 4 --seconds 10 \
//!                   --seed 7 --pick 0.05 --out tracks.json
//! otif-cli query    --tracks tracks.json --dataset warsaw --clips 4 --seconds 10 \
//!                   --seed 7 --query breakdown|count|braking|volume
//! ```
//!
//! Datasets are synthetic and regenerated deterministically from
//! `(dataset, clips, seconds, seed)`, so artifacts stay small: the model
//! file carries only trained weights, window sizes, the refinement
//! clusters and the tuned curve.

use otif::core::durable::RealIo;
use otif::core::workflow::OtifArtifacts;
use otif::core::{Otif, OtifOptions};
use otif::engine::{
    run_manifest, DetectorExec, Engine, EngineOptions, FaultPlan, RunJournal, RunSession,
};
use otif::geom::{Point, Polygon};
use otif::query::{AggregateQuery, FrameLimitQuery, FrameQueryKind, TrackQuery};
use otif::serve::{
    fsck, mixed_workload, run_workload_traced, Answer, CacheMode, ClipInfo, OverloadPolicy,
    QueryServer, ServeOptions, ServeQuery, TrackStore,
};
use otif::sim::{Dataset, DatasetConfig, DatasetKind, DatasetScale};
use otif::track::Track;
use std::collections::HashMap;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const DATASET_FLAGS: [&str; 4] = ["dataset", "clips", "seconds", "seed"];

/// Parse `--key value` pairs, rejecting anything else: positional
/// arguments, flags outside `allowed`, and flags with a missing value
/// (trailing, or directly followed by another flag) are all hard errors
/// naming the offending argument. Flags listed in `switches` are
/// boolean and take no value.
fn parse_flags(
    args: &[String],
    allowed: &[&str],
    switches: &[&str],
) -> Result<HashMap<String, String>, String> {
    let mut out = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            return Err(format!(
                "unexpected positional argument {:?} (flags are --key value pairs)",
                args[i]
            ));
        };
        if !allowed.contains(&key) {
            return Err(format!(
                "unknown flag --{key}; expected one of {}",
                allowed
                    .iter()
                    .map(|a| format!("--{a}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
        }
        if switches.contains(&key) {
            out.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("flag --{key} is missing a value"));
        };
        if value.starts_with("--") {
            return Err(format!(
                "flag --{key} is missing a value (found {value:?} instead)"
            ));
        }
        out.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(out)
}

fn dataset_kind(name: &str) -> Result<DatasetKind, String> {
    DatasetKind::ALL
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            format!(
                "unknown dataset {name:?}; expected one of {}",
                DatasetKind::ALL
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })
}

fn dataset_from_flags(flags: &HashMap<String, String>) -> Result<Dataset, String> {
    let kind = dataset_kind(
        flags
            .get("dataset")
            .map(String::as_str)
            .unwrap_or("caldot1"),
    )?;
    let clips: usize = flags
        .get("clips")
        .map(|s| s.parse().map_err(|e| format!("bad --clips: {e}")))
        .transpose()?
        .unwrap_or(3);
    let seconds: f32 = flags
        .get("seconds")
        .map(|s| s.parse().map_err(|e| format!("bad --seconds: {e}")))
        .transpose()?
        .unwrap_or(8.0);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(7);
    Ok(DatasetConfig::new(
        kind,
        DatasetScale {
            clips_per_split: clips,
            clip_seconds: seconds,
        },
        seed,
    )
    .generate())
}

fn track_query(dataset: &Dataset) -> TrackQuery {
    match dataset.kind {
        DatasetKind::Amsterdam | DatasetKind::Jackson => TrackQuery::Count,
        _ => TrackQuery::path_breakdown(&dataset.scene),
    }
}

fn cmd_generate(flags: HashMap<String, String>) -> Result<(), String> {
    let dataset = dataset_from_flags(&flags)?;
    println!("dataset: {}", dataset.kind.name());
    println!(
        "scene: {}x{} @ {} fps, {} paths, camera {}",
        dataset.scene.width,
        dataset.scene.height,
        dataset.scene.fps,
        dataset.scene.paths.len(),
        if dataset.kind.fixed_camera() {
            "fixed"
        } else {
            "moving"
        }
    );
    for (name, split) in [
        ("train", &dataset.train),
        ("val", &dataset.val),
        ("test", &dataset.test),
    ] {
        let frames: usize = split.iter().map(|c| c.num_frames()).sum();
        let tracks: usize = split.iter().map(|c| c.gt_tracks.len()).sum();
        println!(
            "{name}: {} clips, {frames} frames, {tracks} ground-truth tracks",
            split.len()
        );
    }
    Ok(())
}

fn cmd_prepare(flags: HashMap<String, String>) -> Result<(), String> {
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "otif-model.json".to_string());
    let dataset = dataset_from_flags(&flags)?;
    let query = track_query(&dataset);
    let val = dataset.val.clone();
    let metric = move |tracks: &[Vec<Track>]| query.accuracy(tracks, &val);
    eprintln!(
        "preparing OTIF on {} (this trains models)...",
        dataset.kind.name()
    );
    let otif = Otif::prepare(&dataset, &metric, OtifOptions::fast_test());
    let artifacts = otif.to_artifacts();
    let json = serde_json::to_string(&artifacts).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    println!("wrote {out}");
    println!("curve ({} points):", otif.curve.len());
    for p in &otif.curve {
        println!(
            "  {:>9.3} s/val-split  acc {:>5.1}%  {}",
            p.val_seconds,
            p.accuracy * 100.0,
            p.config.describe()
        );
    }
    Ok(())
}

fn load_model(flags: &HashMap<String, String>) -> Result<Otif, String> {
    let path = flags
        .get("model")
        .cloned()
        .unwrap_or_else(|| "otif-model.json".to_string());
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let artifacts: OtifArtifacts = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    Ok(Otif::from_artifacts(artifacts, OtifOptions::fast_test()))
}

fn cmd_curve(flags: HashMap<String, String>) -> Result<(), String> {
    let otif = load_model(&flags)?;
    println!("theta_best: {}", otif.theta_best.describe());
    for (i, p) in otif.curve.iter().enumerate() {
        println!(
            "[{i}] {:>9.3} s/val-split  acc {:>5.1}%  {}",
            p.val_seconds,
            p.accuracy * 100.0,
            p.config.describe()
        );
    }
    Ok(())
}

fn cmd_execute(flags: HashMap<String, String>) -> Result<(), String> {
    let otif = load_model(&flags)?;
    let dataset = dataset_from_flags(&flags)?;
    let pick: f32 = flags
        .get("pick")
        .map(|s| s.parse().map_err(|e| format!("bad --pick: {e}")))
        .transpose()?
        .unwrap_or(0.05);
    let streams: usize = flags
        .get("streams")
        .map(|s| s.parse().map_err(|e| format!("bad --streams: {e}")))
        .transpose()?
        .unwrap_or(1);
    let prefetch: Option<usize> = flags
        .get("prefetch")
        .map(|s| s.parse().map_err(|e| format!("bad --prefetch: {e}")))
        .transpose()?;
    let workers: usize = flags
        .get("workers")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|e| format!("bad --workers: {e}"))
                .and_then(|v| {
                    if v > 0 {
                        Ok(v)
                    } else {
                        Err("bad --workers 0: need at least one worker thread".to_string())
                    }
                })
        })
        .transpose()?
        .unwrap_or(0);
    let max_active_streams: usize = flags
        .get("max-active-streams")
        .map(|s| {
            s.parse::<usize>()
                .map_err(|e| format!("bad --max-active-streams: {e}"))
                .and_then(|v| {
                    if v > 0 {
                        Ok(v)
                    } else {
                        Err(
                            "bad --max-active-streams 0: need at least one admitted stream"
                                .to_string(),
                        )
                    }
                })
        })
        .transpose()?
        .unwrap_or(0);
    let faults = flags
        .get("inject-fault")
        .map(|s| FaultPlan::parse(s))
        .transpose()?
        .unwrap_or_default();
    let fail_fast = flags.contains_key("fail-fast");
    let stats_out = flags.get("stats");
    let run_dir = flags.get("run-dir");
    let resume_dir = flags.get("resume");
    if run_dir.is_some() && resume_dir.is_some() {
        return Err(
            "--run-dir starts a fresh journaled run and --resume continues one; pass one, not both"
                .to_string(),
        );
    }
    let stage_timeout: Option<f64> = flags
        .get("stage-timeout-secs")
        .map(|s| {
            s.parse::<f64>()
                .map_err(|e| format!("bad --stage-timeout-secs: {e}"))
                .and_then(|v| {
                    if v > 0.0 && v.is_finite() {
                        Ok(v)
                    } else {
                        Err(format!("bad --stage-timeout-secs {v}: must be > 0"))
                    }
                })
        })
        .transpose()?;
    let detector_exec = flags
        .get("detector-exec")
        .map(|s| {
            DetectorExec::parse(s)
                .ok_or_else(|| format!("bad --detector-exec {s:?} (off|looped|batched)"))
        })
        .transpose()?
        .unwrap_or(DetectorExec::Off);
    let point = otif.pick_config(pick);
    eprintln!("executing {}", point.config.describe());
    // Streaming engine: same per-clip output as the sequential path,
    // but detector launches are batched across streams and failures are
    // isolated per clip/stream. Stats, fault injection or a detector
    // execution mode force the engine path even single-stream.
    let use_engine = streams > 1
        || !faults.is_empty()
        || stats_out.is_some()
        || prefetch.is_some()
        || detector_exec != DetectorExec::Off
        || run_dir.is_some()
        || resume_dir.is_some()
        || stage_timeout.is_some()
        || workers > 0
        || max_active_streams > 0;
    let (tracks, ledger, failures) = if use_engine {
        let ledger = otif::cv::CostLedger::new();
        let mut opts = EngineOptions {
            streams,
            faults,
            detector_exec,
            workers,
            max_active_streams,
            ..EngineOptions::default()
        };
        if let Some(p) = prefetch {
            opts.prefetch_frames = p;
        }
        if let Some(secs) = stage_timeout {
            opts.stage_timeout = Some(Duration::from_secs_f64(secs));
        }
        let ctx = otif.context();
        // A journaled run checkpoints every completed clip durably; a
        // resumed one ghost-replays the journal's clips bit-exactly and
        // recomputes only the rest.
        let session = if let Some(dir) = run_dir {
            let manifest = run_manifest(&point.config, &ctx, &dataset.test, &opts);
            let journal = RunJournal::create(Path::new(dir), Arc::new(RealIo), &manifest)
                .map_err(|e| e.to_string())?;
            eprintln!("journaling run -> {dir}");
            Some(RunSession::fresh(Arc::new(journal)))
        } else if let Some(dir) = resume_dir {
            let manifest = run_manifest(&point.config, &ctx, &dataset.test, &opts);
            let (journal, replayed) = RunJournal::open(Path::new(dir), Arc::new(RealIo), &manifest)
                .map_err(|e| e.to_string())?;
            let journal = Arc::new(journal);
            let recovered = journal.recover(&replayed, dataset.test.len());
            let session = RunSession::resumed(journal, recovered);
            eprintln!(
                "resuming {dir}: {} of {} clip(s) recovered from the run journal{}",
                session.recovered_clips(),
                dataset.test.len(),
                if replayed.torn_tail {
                    " (torn tail dropped)"
                } else {
                    ""
                }
            );
            Some(session)
        } else {
            None
        };
        let run = Engine::run_with_session(
            &point.config,
            &ctx,
            &dataset.test,
            &opts,
            &ledger,
            session.as_ref(),
        );
        eprintln!(
            "engine: {} streams, {} frames, {} detector batches \
             (mean occupancy {:.2}), peak {} frames in flight",
            run.stats.streams,
            run.stats.frames,
            run.stats.batches,
            run.stats.mean_batch_occupancy,
            run.stats.max_frames_in_flight
        );
        eprintln!(
            "scheduler: {} workers ({} stream(s) admitted at once), peak {} runnable \
             tasks, {} polls ({} stolen), {} yields, peak {} OS threads",
            run.stats.workers,
            run.stats.max_active_streams,
            run.stats.peak_runnable_tasks,
            run.stats.task_polls,
            run.stats.task_steals,
            run.stats.stream_yields,
            run.stats.peak_os_threads,
        );
        eprintln!(
            "pipeline: prefetch {} frames, makespan {:.3} s vs serial {:.3} s \
             ({:.2}x); stalls decode-starved {:.3} s, batcher-wait {:.3} s, \
             backpressure {:.3} s",
            run.stats.prefetch_frames,
            run.stats.execution_seconds,
            run.stats.serial_seconds,
            run.stats.pipeline_speedup,
            run.stats.stall_seconds.decode_starved,
            run.stats.stall_seconds.batcher_wait,
            run.stats.stall_seconds.channel_backpressure,
        );
        if detector_exec != DetectorExec::Off {
            eprintln!(
                "detector exec: {} mode, {} windows in {} forwards, \
                 {:.3} s wall, digest {:#018x}",
                run.stats.detector_exec,
                run.stats.detector_exec_windows,
                run.stats.detector_forwards,
                run.stats.detector_wall_seconds,
                run.stats.detector_digest,
            );
        }
        if session.is_some() {
            eprintln!(
                "run journal: {} clip(s) checkpointed ({} checkpoint failure(s)); \
                 resume skipped {}, recomputed {}",
                run.stats.clips_checkpointed,
                run.stats.checkpoint_failures,
                run.stats.resumed_clips_skipped,
                run.stats.resumed_clips_recomputed
            );
        }
        if !run.stats.healthy() {
            eprintln!(
                "engine health: {} failed clip(s), {} recovered by retry, {} panic(s)",
                run.stats.failed_clips, run.stats.retried_clips, run.stats.panics
            );
            for f in &run.stats.failures {
                eprintln!(
                    "  clip {} (stream {}) failed in {}: {}{}",
                    f.clip,
                    f.stream,
                    f.stage,
                    f.reason,
                    if f.recovered { " [recovered]" } else { "" }
                );
            }
        }
        if let Some(path) = stats_out {
            let json = serde_json::to_string(&run.stats).map_err(|e| e.to_string())?;
            std::fs::write(path, json).map_err(|e| e.to_string())?;
            eprintln!("wrote engine stats -> {path}");
        }
        let failures: Vec<String> = run
            .failures()
            .into_iter()
            .map(|(clip, stage, reason)| format!("clip {clip} failed in {stage}: {reason}"))
            .collect();
        if fail_fast && !failures.is_empty() {
            return Err(format!(
                "{} clip(s) failed (--fail-fast, no tracks written): {}",
                failures.len(),
                failures.join("; ")
            ));
        }
        // Partial results: unrecovered clips contribute empty track
        // lists, so downstream tooling keeps a slot per clip.
        let tracks: Vec<Vec<Track>> = run
            .tracks
            .into_iter()
            .map(|o| match o {
                otif::engine::ClipOutcome::Ok(tracks) => tracks,
                otif::engine::ClipOutcome::Failed { .. } => Vec::new(),
            })
            .collect();
        (tracks, ledger, failures)
    } else {
        let (tracks, ledger) = otif.execute(&point.config, &dataset.test);
        (tracks, ledger, Vec::new())
    };
    let out = flags
        .get("out")
        .cloned()
        .unwrap_or_else(|| "tracks.json".to_string());
    let json = serde_json::to_string(&tracks).map_err(|e| e.to_string())?;
    std::fs::write(&out, json).map_err(|e| e.to_string())?;
    let n: usize = tracks.iter().map(|t| t.len()).sum();
    println!(
        "extracted {n} tracks in {:.3} simulated seconds -> {out}",
        ledger.execution_total()
    );
    if !failures.is_empty() {
        return Err(format!(
            "partial results: {} clip(s) failed: {}",
            failures.len(),
            failures.join("; ")
        ));
    }
    Ok(())
}

fn cmd_query(flags: HashMap<String, String>) -> Result<(), String> {
    let path = flags
        .get("tracks")
        .cloned()
        .unwrap_or_else(|| "tracks.json".to_string());
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let tracks: Vec<Vec<Track>> = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let dataset = dataset_from_flags(&flags)?;
    if tracks.len() != dataset.test.len() {
        return Err(format!(
            "tracks file has {} clips but the dataset's test split has {} — \
             regenerate with matching --dataset/--clips/--seconds/--seed",
            tracks.len(),
            dataset.test.len()
        ));
    }
    let which = flags
        .get("query")
        .cloned()
        .unwrap_or_else(|| "breakdown".to_string());
    let fps = dataset.scene.fps as f32;
    match which.as_str() {
        "count" => {
            let q = TrackQuery::Count;
            for (i, ts) in tracks.iter().enumerate() {
                println!("clip {i}: {} unique cars", q.run(ts, fps)[0]);
            }
            println!(
                "accuracy vs ground truth: {:.1}%",
                q.accuracy(&tracks, &dataset.test) * 100.0
            );
        }
        "breakdown" => {
            let q = TrackQuery::path_breakdown(&dataset.scene);
            if let TrackQuery::PathBreakdown { patterns, .. } = &q {
                let mut totals = vec![0.0; patterns.len()];
                for ts in &tracks {
                    for (i, v) in q.run(ts, fps).iter().enumerate() {
                        totals[i] += v;
                    }
                }
                for (p, t) in patterns.iter().zip(&totals) {
                    println!("{:<10} {t}", p.id);
                }
            }
            println!(
                "accuracy vs ground truth: {:.1}%",
                q.accuracy(&tracks, &dataset.test) * 100.0
            );
        }
        "braking" => {
            let q = TrackQuery::HardBraking { decel: 60.0 };
            let total: f32 = tracks.iter().map(|ts| q.run(ts, fps)[0]).sum();
            println!("hard-braking cars: {total}");
            println!(
                "accuracy vs ground truth: {:.1}%",
                q.accuracy(&tracks, &dataset.test) * 100.0
            );
        }
        "volume" => {
            let q = AggregateQuery::TrafficVolume;
            for (i, (ts, clip)) in tracks.iter().zip(&dataset.test).enumerate() {
                println!(
                    "clip {i}: {:.1} cars/minute",
                    q.run(ts, clip.num_frames(), fps)
                );
            }
            println!(
                "accuracy vs ground truth: {:.1}%",
                q.accuracy(&tracks, &dataset.test) * 100.0
            );
        }
        other => {
            return Err(format!(
                "unknown --query {other:?} (count|breakdown|braking|volume)"
            ))
        }
    }
    Ok(())
}

fn cmd_ingest(flags: HashMap<String, String>) -> Result<(), String> {
    let path = flags
        .get("tracks")
        .cloned()
        .unwrap_or_else(|| "tracks.json".to_string());
    let json = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let tracks: Vec<Vec<Track>> = serde_json::from_str(&json).map_err(|e| e.to_string())?;
    let dataset = dataset_from_flags(&flags)?;
    if tracks.len() != dataset.test.len() {
        return Err(format!(
            "tracks file has {} clips but the dataset's test split has {} — \
             regenerate with matching --dataset/--clips/--seconds/--seed",
            tracks.len(),
            dataset.test.len()
        ));
    }
    let dir = flags
        .get("store")
        .cloned()
        .unwrap_or_else(|| "otif-store".to_string());
    let dir = Path::new(&dir);
    // append to an existing store (journal-bearing or legacy
    // catalog-only), create otherwise
    let mut store = if dir.join(otif::serve::journal::JOURNAL_FILE).exists()
        || dir.join("catalog.json").exists()
    {
        TrackStore::open(dir)?
    } else {
        TrackStore::create(dir)?
    };
    // Keyed ingest makes re-runs idempotent: a clip already stored
    // under the same source key with the same content is skipped, so
    // resuming a crashed ingest never duplicates store entries.
    let mut deduped = 0usize;
    for (idx, (clip, ts)) in dataset.test.iter().zip(&tracks).enumerate() {
        let info = ClipInfo {
            num_frames: clip.num_frames(),
            fps: dataset.scene.fps as f32,
            width: dataset.scene.width as f32,
            height: dataset.scene.height as f32,
        };
        let source = format!("{}/{idx}", dataset.kind.name());
        let (id, fresh) = store.ingest_clip_keyed(&info, ts, &source)?;
        if fresh {
            println!(
                "ingested clip {id}: {} tracks, {} frames (source {source})",
                ts.len(),
                clip.num_frames()
            );
        } else {
            deduped += 1;
            println!("clip {id} already stored for source {source} — skipped");
        }
    }
    println!(
        "store {}: {} clips, fingerprint {:016x}{}",
        dir.display(),
        store.len(),
        store.fingerprint(),
        if deduped > 0 {
            format!(", {deduped} duplicate ingest(s) skipped")
        } else {
            String::new()
        }
    );
    Ok(())
}

/// Shared serve flags: store path + execution options.
fn serve_options(flags: &HashMap<String, String>) -> Result<ServeOptions, String> {
    let threads: usize = flags
        .get("threads")
        .map(|s| s.parse().map_err(|e| format!("bad --threads: {e}")))
        .transpose()?
        .unwrap_or(0);
    Ok(ServeOptions {
        threads,
        pruning: !flags.contains_key("no-prune"),
        cache: CacheMode::On,
    })
}

/// Overload policy from the shared serve flags; all absent = the
/// permissive default (unbounded admission, no deadline).
fn overload_policy(flags: &HashMap<String, String>) -> Result<OverloadPolicy, String> {
    let max_concurrent: usize = flags
        .get("max-concurrent")
        .map(|s| s.parse().map_err(|e| format!("bad --max-concurrent: {e}")))
        .transpose()?
        .unwrap_or(0);
    let max_queue: usize = flags
        .get("queue")
        .map(|s| s.parse().map_err(|e| format!("bad --queue: {e}")))
        .transpose()?
        .unwrap_or(0);
    let deadline = flags
        .get("deadline-ms")
        .map(|s| {
            s.parse::<f64>()
                .map_err(|e| format!("bad --deadline-ms: {e}"))
        })
        .transpose()?
        .map(|ms| Duration::from_secs_f64(ms / 1e3));
    Ok(OverloadPolicy {
        max_concurrent,
        max_queue,
        deadline,
    })
}

fn open_store(flags: &HashMap<String, String>) -> Result<Arc<TrackStore>, String> {
    let dir = flags
        .get("store")
        .cloned()
        .unwrap_or_else(|| "otif-store".to_string());
    Ok(Arc::new(TrackStore::open(Path::new(&dir))?))
}

fn serve_query_from_flags(flags: &HashMap<String, String>) -> Result<ServeQuery, String> {
    let n: usize = flags
        .get("n")
        .map(|s| s.parse().map_err(|e| format!("bad --n: {e}")))
        .transpose()?
        .unwrap_or(2);
    let limit: usize = flags
        .get("limit")
        .map(|s| s.parse().map_err(|e| format!("bad --limit: {e}")))
        .transpose()?
        .unwrap_or(25);
    let min_separation_s: f32 = flags
        .get("sep")
        .map(|s| s.parse().map_err(|e| format!("bad --sep: {e}")))
        .transpose()?
        .unwrap_or(5.0);
    let which = flags
        .get("query")
        .cloned()
        .unwrap_or_else(|| "avg".to_string());
    Ok(match which.as_str() {
        "avg" => ServeQuery::Aggregate(AggregateQuery::AvgVisible),
        "volume" => ServeQuery::Aggregate(AggregateQuery::TrafficVolume),
        "peak" => ServeQuery::Aggregate(AggregateQuery::PeakOccupancy),
        "count" => ServeQuery::Track(TrackQuery::Count),
        "braking" => ServeQuery::Track(TrackQuery::HardBraking { decel: 60.0 }),
        "busy" => ServeQuery::FrameLimit(FrameLimitQuery {
            kind: FrameQueryKind::Count,
            n,
            limit,
            min_separation_s,
        }),
        "hotspot" => {
            let radius: f32 = flags
                .get("radius")
                .map(|s| s.parse().map_err(|e| format!("bad --radius: {e}")))
                .transpose()?
                .unwrap_or(40.0);
            ServeQuery::FrameLimit(FrameLimitQuery {
                kind: FrameQueryKind::HotSpot { radius },
                n,
                limit,
                min_separation_s,
            })
        }
        "region" => {
            let rect = flags
                .get("rect")
                .ok_or_else(|| "--query region needs --rect x,y,w,h".to_string())?;
            let parts: Vec<f32> = rect
                .split(',')
                .map(|p| p.trim().parse().map_err(|e| format!("bad --rect: {e}")))
                .collect::<Result<_, _>>()?;
            let [x, y, w, h] = parts[..] else {
                return Err(format!("bad --rect {rect:?}: expected x,y,w,h"));
            };
            ServeQuery::FrameLimit(FrameLimitQuery {
                kind: FrameQueryKind::Region(Polygon::new(vec![
                    Point { x, y },
                    Point { x: x + w, y },
                    Point { x: x + w, y: y + h },
                    Point { x, y: y + h },
                ])),
                n,
                limit,
                min_separation_s,
            })
        }
        other => {
            return Err(format!(
                "unknown --query {other:?} (avg|volume|peak|count|braking|busy|hotspot|region)"
            ))
        }
    })
}

fn print_rows(store: &TrackStore, rows: &[Vec<f32>]) {
    for (m, row) in store.metas().iter().zip(rows) {
        let vals: Vec<String> = row.iter().map(|v| format!("{v}")).collect();
        println!("clip {}: {}", m.id, vals.join(" "));
    }
}

fn cmd_serve_query(flags: HashMap<String, String>) -> Result<(), String> {
    let store = open_store(&flags)?;
    let opts = serve_options(&flags)?;
    let q = serve_query_from_flags(&flags)?;
    let policy = overload_policy(&flags)?;
    let server = QueryServer::with_policy(Arc::clone(&store), 64, policy);
    let outcome = server.execute_robust(&q, &opts)?;
    match Answer::from_bytes(&outcome.bytes) {
        Answer::PerClip(rows) => print_rows(&store, &rows),
        Answer::Frames(frames) => {
            if frames.is_empty() {
                println!("no matching frames");
            }
            for f in &frames {
                println!("clip {} frame {}", f.clip, f.frame);
            }
        }
        Answer::Approximate {
            reason,
            rows,
            frames,
        } => {
            println!("[approximate] {reason}");
            print_rows(&store, &rows);
            for f in &frames {
                println!("clip {} frame {}", f.clip, f.frame);
            }
        }
    }
    let s = server.stats();
    eprintln!(
        "{}: evaluated {} clip(s), pruned {} at the catalog, skipped {} frame scan(s), \
         loaded {} clip file(s), {} quarantined, {} read retr(ies)",
        q.label(),
        s.clips_evaluated,
        s.clips_pruned,
        s.frame_scans_skipped,
        s.clip_loads,
        s.quarantined_clips,
        s.read_retries
    );
    Ok(())
}

fn cmd_store_fsck(flags: HashMap<String, String>) -> Result<(), String> {
    let dir = flags
        .get("store")
        .cloned()
        .unwrap_or_else(|| "otif-store".to_string());
    let repair = flags.contains_key("repair");
    let report_only = flags.contains_key("report-only");
    if repair && report_only {
        return Err("--report-only never modifies or fails; drop it to use --repair".to_string());
    }
    let report = fsck(Path::new(&dir), repair)?;
    println!(
        "journal: {} entr(ies), checkpoint {} entr(ies){}{}",
        report.journal_entries,
        report.checkpoint_entries,
        if report.torn_tail { ", torn tail" } else { "" },
        if report.torn_tail_truncated {
            " (truncated)"
        } else {
            ""
        }
    );
    if report.invalid_records > 0 {
        println!("invalid journal records: {}", report.invalid_records);
    }
    if !report.missing_clips.is_empty() {
        println!("missing clip files: {:?}", report.missing_clips);
    }
    if !report.corrupt_quarantined.is_empty() {
        println!(
            "corrupt clips quarantined: {:?}",
            report.corrupt_quarantined
        );
    }
    if !report.already_quarantined.is_empty() {
        println!("already quarantined: {:?}", report.already_quarantined);
    }
    if !report.orphan_files.is_empty() {
        println!(
            "orphan files{}: {:?}",
            if report.orphan_files_removed > 0 {
                " (removed)"
            } else {
                ""
            },
            report.orphan_files
        );
    }
    if report.checkpoint_rewritten {
        println!("checkpoint rewritten from journal");
    }
    if let Some(path) = flags.get("report") {
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        eprintln!("wrote fsck report -> {path}");
    }
    // Exit policy: report-only always exits 0 (observation never
    // fails); otherwise a nonzero exit means issues remain *after* this
    // invocation — unrepaired debris without --repair, or damage repair
    // could not undo (lost payloads, corrupt records, quarantines).
    if report_only {
        println!(
            "report only: store is {}",
            if report.healthy() {
                "healthy"
            } else {
                "unhealthy"
            }
        );
    } else if repair {
        if !report.consistent() {
            return Err(format!(
                "unrepairable: {} acknowledged clip(s) have no payload on disk, \
                 {} corrupt journal record(s)",
                report.missing_clips.len(),
                report.invalid_records
            ));
        }
        if !report.corrupt_quarantined.is_empty() || !report.already_quarantined.is_empty() {
            return Err(format!(
                "repaired with data loss: {} clip(s) quarantined ({} newly)",
                report.corrupt_quarantined.len() + report.already_quarantined.len(),
                report.corrupt_quarantined.len()
            ));
        }
        println!("store repaired: {} clip(s) intact", report.journal_entries);
    } else if !report.healthy() {
        return Err("store is unhealthy — re-run with --repair".to_string());
    } else {
        println!("store healthy: {} clip(s)", report.journal_entries);
    }
    Ok(())
}

fn cmd_serve_bench(flags: HashMap<String, String>) -> Result<(), String> {
    let store = open_store(&flags)?;
    let opts = serve_options(&flags)?;
    let clients: usize = flags
        .get("clients")
        .map(|s| s.parse().map_err(|e| format!("bad --clients: {e}")))
        .transpose()?
        .unwrap_or(4);
    let repeats: usize = flags
        .get("repeats")
        .map(|s| s.parse().map_err(|e| format!("bad --repeats: {e}")))
        .transpose()?
        .unwrap_or(4);
    let seed: u64 = flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?
        .unwrap_or(2022);
    if store.is_empty() {
        return Err("store is empty — run `otif-cli ingest` first".to_string());
    }
    let workload = mixed_workload(store.metas(), repeats, seed);
    let policy = overload_policy(&flags)?;
    let server = QueryServer::with_policy(Arc::clone(&store), 256, policy);
    let (cold, cold_traces) = run_workload_traced(&server, &workload, clients, &opts)?;
    let (warm, warm_traces) = run_workload_traced(&server, &workload, clients, &opts)?;
    // Byte identity holds per query over the non-degraded subset: which
    // queries get shed or deadlined under an overload policy is
    // timing-dependent, but every exact answer's bytes are not.
    for (i, (c, w)) in cold_traces.iter().zip(&warm_traces).enumerate() {
        if !c.degraded && !w.degraded && c.fingerprint != w.fingerprint {
            return Err(format!(
                "query {i}: cold and warm exact answers diverged — cache corruption"
            ));
        }
    }
    for (name, run) in [("cold", &cold), ("warm", &warm)] {
        println!(
            "{name}: {} queries, {} clients, {:.1} qps, p50 {:.3} ms, p90 {:.3} ms, \
             p99 {:.3} ms, max {:.3} ms, {} degraded",
            run.latency.count,
            run.clients,
            run.latency.qps,
            run.latency.p50_ms,
            run.latency.p90_ms,
            run.latency.p99_ms,
            run.latency.max_ms,
            run.degraded
        );
    }
    let s = server.stats();
    println!(
        "cache: {} hits, {} misses, {} evictions; pruned {} clip(s), \
         skipped {} frame scan(s), loaded {} clip file(s); \
         shed {} quer(ies), {} degraded answer(s)",
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.clips_pruned,
        s.frame_scans_skipped,
        s.clip_loads,
        s.shed_queries,
        s.degraded_answers
    );
    if let Some(path) = flags.get("stats") {
        let json = serde_json::to_string(&s).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| e.to_string())?;
        eprintln!("wrote serve stats -> {path}");
    }
    Ok(())
}

const USAGE: &str = "usage: otif-cli <generate|prepare|curve|execute|query|ingest|serve-query|serve-bench|store-fsck> [--flag value ...]
  generate --dataset <name> [--clips N --seconds S --seed N]
  prepare  --dataset <name> [--clips N --seconds S --seed N] [--out model.json]
  curve    --model model.json
  execute  --model model.json --dataset <name> [... same dataset flags] [--pick 0.05] [--streams N]
           [--prefetch N] [--out tracks.json] [--stats stats.json] [--fail-fast]
           [--workers N]             (fixed worker-pool size, one task per stream; default min(cores, streams))
           [--max-active-streams N]  (admission control: streams admitted concurrently; default all)
           [--detector-exec off|looped|batched]   (run the detector surrogate per window, looped or batched)
           [--inject-fault stage:kind:clip:frame[,...]]   (stage: decode|window|detect|track; kind: panic|error|stall)
           [--run-dir DIR]    (journal the run: checkpoint each completed clip durably into DIR)
           [--resume DIR]     (resume a crashed journaled run; outputs are bitwise identical)
           [--stage-timeout-secs S]   (watchdog: a stage step stalled > S becomes a recoverable clip failure)
  query    --tracks tracks.json --dataset <name> [... same dataset flags] --query <count|breakdown|braking|volume>
  ingest       --tracks tracks.json --dataset <name> [... same dataset flags] [--store otif-store]
  serve-query  --store otif-store --query <avg|volume|peak|count|braking|busy|hotspot|region>
               [--n N --limit N --sep S] [--radius R] [--rect x,y,w,h] [--threads N] [--no-prune]
               [--deadline-ms MS --max-concurrent N --queue N]   (overload policy; degraded answers print [approximate])
  serve-bench  --store otif-store [--clients N --repeats N --seed N] [--threads N] [--no-prune]
               [--deadline-ms MS --max-concurrent N --queue N] [--stats stats.json]
  store-fsck   --store otif-store [--repair] [--report-only] [--report report.json]
               (journal replay; verifies every clip payload; exits nonzero while issues remain
                unless --report-only)";

/// Boolean flags (no value) across all commands.
const SWITCH_FLAGS: [&str; 4] = ["fail-fast", "no-prune", "repair", "report-only"];

/// Flags each command accepts (beyond the shared dataset flags).
fn allowed_flags(cmd: &str) -> Option<Vec<&'static str>> {
    let mut allowed: Vec<&'static str> = DATASET_FLAGS.to_vec();
    match cmd {
        "generate" => {}
        "prepare" => allowed.push("out"),
        "curve" => allowed = vec!["model"],
        "execute" => allowed.extend([
            "model",
            "pick",
            "streams",
            "prefetch",
            "out",
            "stats",
            "detector-exec",
            "inject-fault",
            "fail-fast",
            "run-dir",
            "resume",
            "stage-timeout-secs",
            "workers",
            "max-active-streams",
        ]),
        "query" => allowed.extend(["tracks", "query"]),
        "ingest" => allowed.extend(["tracks", "store"]),
        "serve-query" => {
            allowed = vec![
                "store",
                "query",
                "n",
                "limit",
                "sep",
                "radius",
                "rect",
                "threads",
                "no-prune",
                "deadline-ms",
                "max-concurrent",
                "queue",
            ]
        }
        "serve-bench" => {
            allowed = vec![
                "store",
                "clients",
                "repeats",
                "seed",
                "threads",
                "no-prune",
                "stats",
                "deadline-ms",
                "max-concurrent",
                "queue",
            ]
        }
        "store-fsck" => allowed = vec!["store", "repair", "report", "report-only"],
        _ => return None,
    }
    Some(allowed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match allowed_flags(cmd) {
        None => Err(format!("unknown command {cmd:?}\n{USAGE}")),
        Some(allowed) => {
            parse_flags(rest, &allowed, &SWITCH_FLAGS).and_then(|flags| match cmd.as_str() {
                "generate" => cmd_generate(flags),
                "prepare" => cmd_prepare(flags),
                "curve" => cmd_curve(flags),
                "execute" => cmd_execute(flags),
                "query" => cmd_query(flags),
                "ingest" => cmd_ingest(flags),
                "serve-query" => cmd_serve_query(flags),
                "serve-bench" => cmd_serve_bench(flags),
                "store-fsck" => cmd_store_fsck(flags),
                _ => unreachable!("allowed_flags gates the command set"),
            })
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
