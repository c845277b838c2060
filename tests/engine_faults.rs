//! Fault-tolerance guarantees of the multi-stream engine: an injected
//! panic in any stage kills at most its own stream (no deadlock, no
//! propagation), healthy clips stay byte-identical to the sequential
//! `Pipeline` with their cost charges intact, recoverable errors poison
//! exactly one clip and are healed by the sequential retry, and faulted
//! runs are as deterministic as healthy ones.

use otif::core::config::{OtifConfig, TrackerKind};
use otif::core::pipeline::ExecutionContext;
use otif::core::Pipeline;
use otif::cv::{Component, CostLedger, CostModel, DetectorArch, DetectorConfig};
use otif::engine::{ClipOutcome, Engine, EngineOptions, FaultPlan, StageName};
use otif::sim::{Clip, DatasetConfig, DatasetKind, DatasetScale};
use otif::track::Track;

fn config() -> OtifConfig {
    OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
        proxy: None,
        gap: 4,
        tracker: TrackerKind::Sort,
        refine: false,
    }
}

/// Five clips so that with two streams each stream owns several clips
/// (stream 0: clips 0, 2, 4; stream 1: clips 1, 3).
fn clips() -> Vec<Clip> {
    DatasetConfig::new(
        DatasetKind::Caldot1,
        DatasetScale {
            clips_per_split: 5,
            clip_seconds: 5.0,
        },
        29,
    )
    .generate()
    .test
}

/// Sequential reference: per-clip tracks and per-clip ledgers.
fn sequential(
    cfg: &OtifConfig,
    ctx: &ExecutionContext,
    clips: &[Clip],
) -> (Vec<Vec<Track>>, Vec<CostLedger>) {
    let mut tracks = Vec::new();
    let mut ledgers = Vec::new();
    for clip in clips {
        let ledger = CostLedger::new();
        tracks.push(Pipeline::run_clip(cfg, ctx, clip, &ledger));
        ledgers.push(ledger);
    }
    (tracks, ledgers)
}

/// Per-clip detector *pixel* cost: the sequential charge minus the
/// per-frame launch overhead (the engine charges launches through the
/// shared batcher instead).
fn pixel_cost(cfg: &OtifConfig, clip: &Clip, ledger: &CostLedger) -> f64 {
    let sampled = clip.num_frames().div_ceil(cfg.gap.max(1)) as f64;
    ledger.get(Component::Detector) - sampled * cfg.detector.arch.per_call()
}

/// A panic injected into any of the four stages kills only its own
/// stream: the run drains without deadlock, the other stream's clips
/// are byte-identical to sequential with their per-component charges
/// intact, and the stats name exactly the dead stream's clips.
#[test]
fn panic_in_each_stage_is_isolated_to_its_stream() {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let clips = clips();
    let (seq_tracks, seq_ledgers) = sequential(&cfg, &ctx, &clips);
    let streams = 2usize;
    // clip 1 lives on stream 1; frame ordinal 1 so the clip has already
    // charged some work (→ wasted_seconds must be discarded, not kept)
    let target_clip = 1usize;
    let expected_failed: Vec<usize> = (0..clips.len())
        .filter(|i| i % streams == target_clip % streams && *i >= target_clip)
        .collect();

    for stage in StageName::ALL {
        let eng = CostLedger::new();
        let opts = EngineOptions {
            faults: FaultPlan::panic_at(stage, target_clip, 1),
            ..EngineOptions::with_streams(streams)
        };
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &eng);
        let stats = &run.stats;

        // exactly the dead stream's unfinished clips failed
        let failed: Vec<usize> = run.failures().iter().map(|(i, _, _)| *i).collect();
        assert_eq!(failed, expected_failed, "stage={stage}");
        for (_, failed_stage, _) in run.failures() {
            assert_eq!(
                failed_stage, stage,
                "failure attributed to the panicking stage"
            );
        }
        assert_eq!(stats.failed_clips, expected_failed.len(), "stage={stage}");
        assert_eq!(stats.panics, 1, "stage={stage}");
        assert_eq!(stats.retried_clips, 0, "panics are not recoverable");
        assert!(!stats.healthy());
        assert!(stats.wasted_seconds > 0.0, "discarded charges are reported");

        // per-stream health: stream 1 panicked in the injected stage,
        // stream 0 is untouched
        assert!(stats.stream_status[0].healthy(), "stage={stage}");
        let sick = &stats.stream_status[1];
        assert_eq!(sick.clips_failed, expected_failed.len());
        assert_eq!(sick.panicked.as_ref().expect("panic recorded").stage, stage);

        // healthy clips: byte-identical tracks...
        let mut ok_pixel = 0.0f64;
        for (i, outcome) in run.tracks.iter().enumerate() {
            if expected_failed.contains(&i) {
                assert!(!outcome.is_ok(), "clip {i} must fail (stage={stage})");
                continue;
            }
            let got = serde_json::to_string(outcome.tracks().expect("healthy clip")).unwrap();
            let want = serde_json::to_string(&seq_tracks[i]).unwrap();
            assert_eq!(got, want, "clip {i} tracks drifted (stage={stage})");
            ok_pixel += pixel_cost(&cfg, &clips[i], &seq_ledgers[i]);
        }
        // ...and byte-identical per-component charges: every non-detector
        // component equals the sequential sum over surviving clips, and
        // the detector splits into those clips' pixel cost plus the
        // shared batched launches
        for c in [
            Component::Decode,
            Component::Proxy,
            Component::Tracker,
            Component::Refinement,
        ] {
            let want: f64 = (0..clips.len())
                .filter(|i| !expected_failed.contains(i))
                .map(|i| seq_ledgers[i].get(c))
                .sum();
            assert!(
                (eng.get(c) - want).abs() < 1e-9,
                "{c:?} stage={stage}: engine {} vs sequential-over-healthy {want}",
                eng.get(c)
            );
        }
        assert!(
            (eng.get(Component::Detector) - stats.launch_seconds - ok_pixel).abs() < 1e-9,
            "stage={stage}: detector pixel share {} vs sequential {ok_pixel}",
            eng.get(Component::Detector) - stats.launch_seconds
        );
    }
}

/// The same fault plan perturbs the run identically every time: two
/// runs under an injected detect-stage panic serialize to the same
/// outcomes and the same accounting, bit for bit — the discarded-work
/// total (`wasted_seconds`) included, since each stream runs its frames
/// in order and so stops at the fault coordinates. Scheduler
/// observations (peak in-flight frames, which depends on how streams
/// interleave, and the pool's poll/steal/yield/thread counts) are
/// masked before comparing.
#[test]
fn faulted_runs_are_deterministic() {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let clips = clips();
    let run_once = || {
        let opts = EngineOptions {
            faults: FaultPlan::panic_at(StageName::Detect, 1, 1),
            ..EngineOptions::with_streams(2)
        };
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &CostLedger::new());
        let mut stats = run.stats.clone();
        stats.max_frames_in_flight = 0;
        stats.task_polls = 0;
        stats.task_steals = 0;
        stats.stream_yields = 0;
        stats.peak_runnable_tasks = 0;
        stats.peak_os_threads = 0;
        (
            serde_json::to_string(&run.tracks).unwrap(),
            serde_json::to_string(&stats).unwrap(),
        )
    };
    let (tracks_a, stats_a) = run_once();
    let (tracks_b, stats_b) = run_once();
    assert_eq!(
        tracks_a, tracks_b,
        "outcomes must not depend on interleaving"
    );
    assert_eq!(
        stats_a, stats_b,
        "accounting must not depend on interleaving"
    );
}

/// A recoverable error poisons one clip, the sequential retry heals it:
/// every clip's tracks end up identical to sequential, the failure is
/// reported as recovered, and the healed clip's charges (re-run
/// sequentially) land in the same ledger.
#[test]
fn recoverable_error_is_healed_by_sequential_retry() {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let clips = clips();
    let (seq_tracks, seq_ledgers) = sequential(&cfg, &ctx, &clips);

    let eng = CostLedger::new();
    let opts = EngineOptions {
        faults: FaultPlan::error_at(StageName::Decode, 0, 2),
        ..EngineOptions::with_streams(2)
    };
    let run = Engine::run(&cfg, &ctx, &clips, &opts, &eng);
    let stats = run.stats.clone();

    // the retry restored every clip
    let got = serde_json::to_string(&run.expect_tracks()).unwrap();
    let want = serde_json::to_string(&seq_tracks).unwrap();
    assert_eq!(got, want, "retried run must equal sequential everywhere");

    assert_eq!(stats.failed_clips, 1);
    assert_eq!(stats.retried_clips, 1);
    // the bounded backoff schedule: one attempt, base * 2^0 virtual
    // seconds accounted in the makespan (never in the ledger)
    assert_eq!(stats.retry_attempts, 1);
    let expected_backoff = otif_engine::retry_backoff(opts.retry_backoff_base, 0);
    assert!(
        (stats.retry_backoff_seconds - expected_backoff).abs() < 1e-12,
        "backoff {} != schedule {}",
        stats.retry_backoff_seconds,
        expected_backoff
    );
    assert_eq!(stats.panics, 0);
    assert_eq!(stats.failures.len(), 1);
    assert_eq!(stats.failures[0].clip, 0);
    assert_eq!(stats.failures[0].stage, StageName::Decode);
    assert!(stats.failures[0].recovered);
    // the two decoded-then-discarded frames are accounted as waste
    assert!(stats.wasted_seconds > 0.0);

    // the retry charged the healed clip's full sequential cost into the
    // same ledger: non-detector components match the all-clips totals
    for c in [
        Component::Decode,
        Component::Proxy,
        Component::Tracker,
        Component::Refinement,
    ] {
        let want: f64 = seq_ledgers.iter().map(|l| l.get(c)).sum();
        assert!(
            (eng.get(c) - want).abs() < 1e-9,
            "{c:?}: engine {} vs sequential {want}",
            eng.get(c)
        );
    }
}

/// With the retry disabled, a recoverable error in any stage fails
/// exactly the targeted clip — same-stream siblings (before and after
/// it) still complete byte-identically.
#[test]
fn error_without_retry_poisons_exactly_one_clip() {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let clips = clips();
    let (seq_tracks, _) = sequential(&cfg, &ctx, &clips);
    // clip 2 sits between clips 0 and 4 on stream 0
    let target_clip = 2usize;

    for stage in StageName::ALL {
        let opts = EngineOptions {
            faults: FaultPlan::error_at(stage, target_clip, 0),
            no_retry: true,
            ..EngineOptions::with_streams(2)
        };
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &CostLedger::new());
        let stats = &run.stats;

        assert_eq!(stats.failed_clips, 1, "stage={stage}");
        assert_eq!(stats.retried_clips, 0, "retry disabled");
        assert_eq!(stats.retry_attempts, 0, "no attempts when disabled");
        assert_eq!(stats.retry_backoff_seconds, 0.0, "no backoff scheduled");
        assert_eq!(stats.panics, 0, "errors must not panic (stage={stage})");
        assert_eq!(stats.stream_status[0].clips_failed, 1);
        assert!(stats.stream_status[0].panicked.is_none());
        assert!(stats.stream_status[1].healthy());

        for (i, outcome) in run.tracks.iter().enumerate() {
            if i == target_clip {
                let ClipOutcome::Failed {
                    stage: failed_stage,
                    ..
                } = outcome
                else {
                    panic!("clip {i} must fail (stage={stage})");
                };
                assert_eq!(*failed_stage, stage);
                continue;
            }
            let got = serde_json::to_string(outcome.tracks().expect("sibling clip")).unwrap();
            let want = serde_json::to_string(&seq_tracks[i]).unwrap();
            assert_eq!(got, want, "clip {i} tracks drifted (stage={stage})");
        }
    }
}
