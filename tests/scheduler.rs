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
    run_manifest, DetectorExec, Engine, EngineOptions, FaultKind, FaultPlan, FaultSpec, RunJournal,
    RunSession, StageName, RUN_JOURNAL_FILE,
};
use otif::sim::{Clip, DatasetConfig, DatasetKind, DatasetScale};
use std::sync::Arc;
use std::time::Duration;

/// A stage timeout far above any single stage step of these runs.
const STAGE_TIMEOUT: Duration = Duration::from_millis(250);

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
    clips_of(64, 1.0)
}

fn clips_of(clips_per_split: usize, clip_seconds: f32) -> Vec<Clip> {
    DatasetConfig::new(
        DatasetKind::Caldot1,
        DatasetScale {
            clips_per_split,
            clip_seconds,
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

/// Journal a run of `clips` on 8 workers, resume it on
/// `resume_workers` with `stage_timeout`, and assert the stitched result
/// is byte-identical to an uninterrupted 4-worker run. The resume
/// recovers the `journaled` clips, or, if `None`, the first half of the
/// acknowledged records (the journal cut as by a crash). The manifest is
/// derived from options with workers=2 to prove worker count is no part
/// of run identity.
fn cut_and_resume(
    clips: &[Clip],
    opts_at: impl Fn(usize) -> EngineOptions,
    resume_workers: usize,
    stage_timeout: Option<Duration>,
    journaled: Option<&[usize]>,
    case: &str,
) {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let baseline = run_fingerprint(&cfg, &ctx, clips, &opts_at(4));

    let io: Arc<dyn Io> = Arc::new(RealIo);
    let dir = std::env::temp_dir().join(format!(
        "otif-sched-resume-{}-{}",
        std::process::id(),
        case.replace([' ', ','], "")
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = run_manifest(&cfg, &ctx, clips, &opts_at(2));
    let journal = Arc::new(RunJournal::create(&dir, Arc::clone(&io), &manifest).unwrap());
    let session = RunSession::fresh(Arc::clone(&journal));
    let led = CostLedger::new();
    let fresh = Engine::run_with_session(&cfg, &ctx, clips, &opts_at(8), &led, Some(&session));
    assert_eq!(fresh.stats.clips_checkpointed, clips.len() as u64, "{case}");
    drop(fresh);

    if journaled.is_none() {
        // Crash: keep only the first half of the acknowledged records.
        let journal_path = dir.join(RUN_JOURNAL_FILE);
        let full = std::fs::read(&journal_path).unwrap();
        let lines: Vec<&[u8]> = full.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), clips.len(), "{case}");
        std::fs::write(&journal_path, lines[..clips.len() / 2].concat()).unwrap();
    }

    // Resume: the recovered clips spliced from the journal, the rest
    // recomputed, all bitwise equal to the uninterrupted baseline.
    let (reopened, replayed) = RunJournal::open(&dir, Arc::clone(&io), &manifest).unwrap();
    let reopened = Arc::new(reopened);
    let mut recovered = reopened.recover(&replayed, clips.len());
    if let Some(keep) = journaled {
        for (idx, r) in recovered.iter_mut().enumerate() {
            if !keep.contains(&idx) {
                *r = None;
            }
        }
    }
    let k = recovered.iter().flatten().count();
    let session = RunSession::resumed(Arc::clone(&reopened), recovered);
    let led = CostLedger::new();
    let opts = EngineOptions {
        stage_timeout,
        ..opts_at(resume_workers)
    };
    let run = Engine::run_with_session(&cfg, &ctx, clips, &opts, &led, Some(&session));
    assert!(
        run.stats.failures.is_empty(),
        "{case}: the resumed run failed clips: {:?}",
        run.stats.failures
    );
    assert_eq!(run.stats.resumed_clips_skipped, k, "{case}");
    assert_eq!(
        run.stats.resumed_clips_recomputed,
        clips.len() - k,
        "{case}"
    );
    let bits: Vec<u64> = COMPONENTS.iter().map(|&c| led.get(c).to_bits()).collect();
    assert_eq!(bits, baseline.0, "{case}: resumed ledger bits diverged");
    assert_eq!(run.rounds, baseline.1, "{case}: resumed round log diverged");
    assert_eq!(
        run.stats.deterministic_projection(),
        baseline.2,
        "{case}: resumed deterministic stats diverged"
    );
    assert_eq!(
        serde_json::to_string(&run.tracks).unwrap(),
        baseline.3,
        "{case}: resumed tracks diverged"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// Kill + `--resume` across worker counts: a journaled 8-worker run is
/// cut mid-journal, resumed on 2 workers, and the stitched result is
/// byte-identical to an uninterrupted 4-worker run — with the detector
/// off and batched, uncapped and under an admission cap (a resumed
/// stream splices its journaled clips, so it reaches its live clips,
/// and finishes, at a different wall time). The journal records virtual
/// time, not wall time, so the resume cannot tell the pools apart.
#[test]
fn journal_cut_resume_is_bitwise_identical_across_worker_counts() {
    let clips: Vec<Clip> = clips().into_iter().take(16).collect();
    for detector_exec in [DetectorExec::Off, DetectorExec::Batched] {
        for max_active_streams in [0usize, 3] {
            let opts_at = |workers: usize| EngineOptions {
                workers,
                detector_exec,
                max_active_streams,
                ..EngineOptions::with_streams(8)
            };
            let case = format!("{detector_exec:?}, cap {max_active_streams}");
            cut_and_resume(&clips, opts_at, 2, None, None, &case);
        }
    }
}

/// A resumed batched stream's next live ticket waits out the rounds of
/// a spliced backlog in one park. Uncapped, stream 0 splices its first
/// clip and its second clip's first ticket parks until all seven
/// siblings have computed a clip's frames. Under a cap of 4, stream 0
/// splices both its clips and finishes at once; the stream it admits
/// parks until the three others have used up that backlog. On one
/// worker either park far outlasts any single stage step, but the round
/// sequence is progressing the whole time, so the stage watchdog must
/// not read it as a wedge: the resume retires no stream and stays
/// bitwise identical to the uninterrupted run.
#[test]
fn resumed_batched_parks_are_not_watchdog_stalls() {
    let clips = clips_of(16, 8.0);
    for (max_active_streams, journaled) in [(0usize, &[0][..]), (4, &[0, 8][..])] {
        let opts_at = |workers: usize| EngineOptions {
            workers,
            detector_exec: DetectorExec::Batched,
            max_active_streams,
            ..EngineOptions::with_streams(8)
        };
        let case = format!("Batched, cap {max_active_streams}, stage timeout");
        cut_and_resume(
            &clips,
            opts_at,
            1,
            Some(STAGE_TIMEOUT),
            Some(journaled),
            &case,
        );
    }
}
