//! Worker-count elasticity of the task-pool engine: the same run —
//! healthy, faulted, or resumed from a cut journal — produces
//! bitwise-identical ledgers, round logs, deterministic stats and
//! tracks whether it is polled by 1, 2, 4 or 8 worker threads, at
//! every stream count. Worker count is an execution resource, never a
//! run identity.

use otif::core::durable::{Io, RealIo};
use otif::core::pipeline::ExecutionContext;
use otif::cv::{Component, CostLedger, CostModel, DetectorArch, DetectorConfig};
use otif::engine::{
    run_manifest, Engine, EngineOptions, FaultKind, FaultPlan, FaultSpec, RunJournal, RunSession,
    StageName, RUN_JOURNAL_FILE,
};
use otif::sim::{Clip, DatasetConfig, DatasetKind, DatasetScale};
use std::sync::Arc;

const COMPONENTS: [Component; 5] = [
    Component::Decode,
    Component::Proxy,
    Component::Detector,
    Component::Tracker,
    Component::Refinement,
];

fn config() -> otif::core::config::OtifConfig {
    otif::core::config::OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.25),
        proxy: None,
        gap: 4,
        tracker: otif::core::config::TrackerKind::Sort,
        refine: false,
    }
}

/// 64 short clips so a 64-stream run is not clamped down.
fn clips() -> Vec<Clip> {
    DatasetConfig::new(
        DatasetKind::Caldot1,
        DatasetScale {
            clips_per_split: 64,
            clip_seconds: 1.0,
        },
        61,
    )
    .generate()
    .test
}

/// Everything a run exposes that must not depend on worker count:
/// per-component ledger bit patterns, the batcher round log, the
/// deterministic stats projection (which includes the virtual-time
/// makespan `execution_seconds` bit-for-bit) and the serialized
/// per-clip outcomes.
type Fingerprint = (Vec<u64>, Vec<otif::engine::RoundRecord>, String, String);

fn run_fingerprint(
    cfg: &otif::core::config::OtifConfig,
    ctx: &ExecutionContext,
    clips: &[Clip],
    opts: &EngineOptions,
) -> Fingerprint {
    let ledger = CostLedger::new();
    let run = Engine::run(cfg, ctx, clips, opts, &ledger);
    // scheduler observability must reflect the requested pool
    if opts.workers > 0 {
        assert_eq!(run.stats.workers, opts.workers);
    }
    assert!(run.stats.task_polls > 0, "the pool must have polled tasks");
    assert!(
        run.stats.peak_runnable_tasks <= run.stats.streams as u64,
        "runnable tasks are bounded by the one task per stream"
    );
    let bits = COMPONENTS
        .iter()
        .map(|&c| ledger.get(c).to_bits())
        .collect();
    (
        bits,
        run.rounds.clone(),
        run.stats.deterministic_projection(),
        serde_json::to_string(&run.tracks).unwrap(),
    )
}

/// Healthy runs: for each stream count, every worker count reproduces
/// the 4-worker baseline byte-for-byte. `execution_seconds` living in
/// the deterministic projection makes this the makespan-neutrality
/// check too: the virtual-time pipeline model must not see the pool.
#[test]
fn outputs_bitwise_identical_across_worker_counts() {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let clips = clips();
    for streams in [1usize, 16, 64] {
        let opts_at = |workers: usize| EngineOptions {
            workers,
            ..EngineOptions::with_streams(streams)
        };
        let baseline = run_fingerprint(&cfg, &ctx, &clips, &opts_at(4));
        for workers in [1usize, 2, 8] {
            let got = run_fingerprint(&cfg, &ctx, &clips, &opts_at(workers));
            assert_eq!(
                got, baseline,
                "workers={workers} streams={streams} diverged from the 4-worker run"
            );
        }
    }
}

/// Admission control composes with elasticity: capping the number of
/// concurrently admitted streams changes the round log (it is run
/// identity) but the capped run itself is still worker-count
/// invariant, and its tracks still match the uncapped run's.
#[test]
fn admission_capped_runs_are_worker_count_invariant() {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let clips = clips();
    let opts_at = |workers: usize| EngineOptions {
        workers,
        max_active_streams: 4,
        ..EngineOptions::with_streams(16)
    };
    let uncapped = run_fingerprint(
        &cfg,
        &ctx,
        &clips,
        &EngineOptions {
            workers: 4,
            ..EngineOptions::with_streams(16)
        },
    );
    let baseline = run_fingerprint(&cfg, &ctx, &clips, &opts_at(4));
    assert_eq!(baseline.3, uncapped.3, "admission must not change tracks");
    // The Detector component is excluded: admission reshapes the
    // batcher's round composition, so its per-call overhead legitimately
    // differs (which is why max_active_streams is part of the run
    // manifest). Every other component must not see the cap.
    for (i, &c) in COMPONENTS.iter().enumerate() {
        if c != Component::Detector {
            assert_eq!(
                baseline.0[i], uncapped.0[i],
                "admission must not change {c:?} charges"
            );
        }
    }
    for workers in [1usize, 2, 8] {
        let got = run_fingerprint(&cfg, &ctx, &clips, &opts_at(workers));
        assert_eq!(got, baseline, "workers={workers} capped run diverged");
    }
}

/// Faulted runs: a deterministic fault plan (a detect-stage panic plus
/// a recoverable decode error) perturbs the run identically at every
/// worker count.
#[test]
fn faulted_outputs_bitwise_identical_across_worker_counts() {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let clips = clips();
    let opts_at = |workers: usize| {
        let faults = FaultPlan::panic_at(StageName::Detect, 1, 1).with(FaultSpec {
            stage: StageName::Decode,
            kind: FaultKind::Error,
            clip: 3,
            frame: 2,
            reason: "injected error in decode (clip 3, frame 2)".to_string(),
        });
        EngineOptions {
            workers,
            faults,
            ..EngineOptions::with_streams(16)
        }
    };
    let baseline = run_fingerprint(&cfg, &ctx, &clips, &opts_at(4));
    for workers in [1usize, 2, 8] {
        let got = run_fingerprint(&cfg, &ctx, &clips, &opts_at(workers));
        assert_eq!(got, baseline, "workers={workers} faulted run diverged");
    }
}

/// Kill + `--resume` across worker counts: a journaled 8-worker run is
/// cut mid-journal (crash simulation), resumed on 2 workers, and the
/// stitched result is byte-identical to an uninterrupted 4-worker run.
/// The journal records virtual time, not wall time, so the ghost
/// replay cannot tell the pools apart.
#[test]
fn journal_cut_resume_is_bitwise_identical_across_worker_counts() {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let clips: Vec<Clip> = clips().into_iter().take(16).collect();
    let opts_at = |workers: usize| EngineOptions {
        workers,
        ..EngineOptions::with_streams(8)
    };

    // Uninterrupted, unjournaled baseline on 4 workers.
    let baseline = run_fingerprint(&cfg, &ctx, &clips, &opts_at(4));

    // Journaled run on 8 workers. The manifest is derived from options
    // with workers=2 to prove worker count is no part of run identity.
    let io: Arc<dyn Io> = Arc::new(RealIo);
    let dir = std::env::temp_dir().join(format!("otif-sched-resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = run_manifest(&cfg, &ctx, &clips, &opts_at(2));
    let journal = Arc::new(RunJournal::create(&dir, Arc::clone(&io), &manifest).unwrap());
    let session = RunSession::fresh(Arc::clone(&journal));
    let led = CostLedger::new();
    let fresh = Engine::run_with_session(&cfg, &ctx, &clips, &opts_at(8), &led, Some(&session));
    assert_eq!(fresh.stats.clips_checkpointed, clips.len() as u64);
    drop(fresh);

    // Crash: keep only the first half of the acknowledged records.
    let journal_path = dir.join(RUN_JOURNAL_FILE);
    let full = std::fs::read(&journal_path).unwrap();
    let lines: Vec<&[u8]> = full.split_inclusive(|&b| b == b'\n').collect();
    assert_eq!(lines.len(), clips.len());
    let k = clips.len() / 2;
    std::fs::write(&journal_path, lines[..k].concat()).unwrap();

    // Resume on 2 workers: half ghost-replayed, half recomputed, all
    // bitwise equal to the uninterrupted baseline.
    let (reopened, replayed) = RunJournal::open(&dir, Arc::clone(&io), &manifest).unwrap();
    let reopened = Arc::new(reopened);
    let recovered = reopened.recover(&replayed, clips.len());
    let session = RunSession::resumed(Arc::clone(&reopened), recovered);
    let led = CostLedger::new();
    let run = Engine::run_with_session(&cfg, &ctx, &clips, &opts_at(2), &led, Some(&session));
    assert_eq!(run.stats.resumed_clips_skipped, k);
    assert_eq!(run.stats.resumed_clips_recomputed, clips.len() - k);
    let bits: Vec<u64> = COMPONENTS.iter().map(|&c| led.get(c).to_bits()).collect();
    assert_eq!(bits, baseline.0, "resumed ledger bits diverged");
    assert_eq!(run.rounds, baseline.1, "resumed round log diverged");
    assert_eq!(
        run.stats.deterministic_projection(),
        baseline.2,
        "resumed deterministic stats diverged"
    );
    assert_eq!(
        serde_json::to_string(&run.tracks).unwrap(),
        baseline.3,
        "resumed tracks diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}
