//! Engine orchestration: clip assignment, the fixed worker pool over
//! one stream task per stream, fault handling, retry and stats
//! collection.
//!
//! [`Engine::run`] assigns clips round-robin to `streams` streams and
//! gives each stream one resumable task ([`crate::tasks::StreamTask`])
//! that runs decode → window → detect → track frame by frame. The
//! `streams` tasks are polled by one fixed work-stealing worker pool
//! ([`otif_core::evalpool::TaskPool`]) of [`EngineOptions::workers`] OS
//! threads, so a thousand streams run on a handful of workers with
//! bounded memory (at most one frame in flight per stream).
//! [`EngineOptions::max_active_streams`] adds admission control —
//! deferred streams park behind the batcher's admission gate and are
//! admitted (in stream order) as running streams finish. All streams
//! share one [`DetectorBatcher`], which is the only cross-stream
//! coupling: it records each stream's detector tickets, and once the
//! pool drains [`DetectorBatcher::settle`] forms the remaining batch
//! rounds and charges their launch overhead. Only a
//! [`DetectorExec::Batched`] run forms rounds during the run (a task
//! waiting for its round parks without holding a thread).
//! Everything else is per-stream and therefore produces the exact
//! per-clip output of the sequential [`Pipeline`](otif_core::Pipeline)
//! — at any worker count.
//!
//! Fault tolerance (supervision tree, per poll):
//!
//! ```text
//! Engine::run — TaskPool(workers)
//! ├─ stream 0: StreamTask (supervised poll: decode → window → detect → track)
//! ├─ stream 1: …
//! └─ retry: sequential Pipeline over recoverably-failed clips
//! ```
//!
//! Every stream task polls under the supervision shim
//! (`fault::supervise`): a panic is recorded on the health board
//! against the stage step that was running and the task retires,
//! finishing its stream at the batcher so sibling streams keep
//! draining. Each clip charges into a private ledger; failed clips'
//! charges are discarded (reported as `wasted_seconds`), which keeps
//! the surviving clips' accounting identical to a fault-free run.
//! `Engine::run` never panics on a failed clip — it reports a
//! [`ClipOutcome::Failed`] and per-stream status in [`EngineStats`],
//! and re-runs recoverably failed clips once through the sequential
//! pipeline.

use crate::batcher::{DetectorBatcher, RoundRecord};
use crate::exec::{DetectorExec, DetectorExecHarness};
use crate::fault::{FaultPlan, HealthBoard, StageName};
use crate::journal::{Checkpointer, ClipRecord, RunJournal, RunManifest};
use crate::stage::{GhostMode, StageCtx};
use crate::stats::{EngineCounters, EngineStats, FailedClip, StreamStatus};
use crate::tasks::StreamTask;
use crate::timeline::{self, ClipTimeline};
use otif_core::config::OtifConfig;
use otif_core::evalpool::{PollTask, TaskPool};
use otif_core::pipeline::ExecutionContext;
use otif_core::{fnv1a, fold_digest, Pipeline, WindowNet, DIGEST_SEED};
use otif_cv::{Component, CostLedger};
use otif_sim::Clip;
use otif_track::Track;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

/// Tunables for an engine run.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Number of concurrent streams (clamped to the clip count, min 1).
    pub streams: usize,
    /// OS worker threads polling the stream tasks. `0` (the default)
    /// auto-sizes to the machine's available parallelism, capped at
    /// `streams` (more workers than tasks is pure overhead). Any
    /// worker count produces bitwise-identical ledgers, rounds,
    /// timelines and digests — it only changes wall-clock speed.
    pub workers: usize,
    /// Admission control: at most this many streams run concurrently;
    /// the rest park until a running stream finishes its clips, and are
    /// admitted in stream-index order. `0` (the default) admits every
    /// stream immediately. Bounds batcher rounds (a round takes a
    /// ticket from admitted live streams only) and per-run memory.
    pub max_active_streams: usize,
    /// Decode-ahead window per stream (clamped to ≥ 1) of the pipelined
    /// virtual-time model: frame `j` may be decoded as soon as frame
    /// `j - prefetch_frames` has left the pipeline, instead of
    /// rendezvousing with the tracker each frame. `1` reproduces the
    /// serial rendezvous, larger windows let decode run ahead of the
    /// detector. Charges are unaffected — only the reported makespan
    /// and stalls change.
    pub prefetch_frames: usize,
    /// Maximum windows per batched detector invocation.
    pub max_batch: usize,
    /// Deterministic fault-injection schedule (empty: no faults).
    pub faults: FaultPlan,
    /// Skip the sequential retry of recoverably-failed clips.
    pub no_retry: bool,
    /// Retry budget per recoverably-failed clip: at most this many
    /// sequential re-runs (0 behaves like `no_retry`).
    pub retry_attempts: usize,
    /// Base of the deterministic retry backoff schedule: attempt `k`
    /// (0-based) schedules `retry_backoff_base * 2^k` *virtual* seconds
    /// before re-running — accounted in `EngineStats` and the makespan,
    /// never slept, never charged to the cost ledger.
    pub retry_backoff_base: f64,
    /// How to execute the surrogate detector forward pass ([`Off`]
    /// runs no surrogate at all — the historical behaviour).
    ///
    /// [`Off`]: DetectorExec::Off
    pub detector_exec: DetectorExec,
    /// Stage watchdog (wall-clock): how long one stage step may run, or
    /// a stream stay parked on a wedged batcher rendezvous (batched
    /// detector execution only), before the wedge is converted into a
    /// typed, recoverable stall failure and the stream retires (letting
    /// its clips be healed by the sequential retry). `None` (the
    /// default) never times out.
    pub stage_timeout: Option<Duration>,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineOptions {
    /// The default tunables (2 streams, a 16-frame decode prefetch
    /// window, batches of up to 16 windows, no faults, a 3-attempt
    /// retry budget with 50 ms backoff base).
    pub fn new() -> Self {
        EngineOptions {
            streams: 2,
            workers: 0,
            max_active_streams: 0,
            prefetch_frames: 16,
            max_batch: 16,
            faults: FaultPlan::none(),
            no_retry: false,
            retry_attempts: 3,
            retry_backoff_base: 0.05,
            detector_exec: DetectorExec::Off,
            stage_timeout: None,
        }
    }

    /// `new()` with a different stream count.
    pub fn with_streams(streams: usize) -> Self {
        EngineOptions {
            streams,
            ..EngineOptions::new()
        }
    }
}

/// Resolve the worker-thread count for a run: an explicit request wins;
/// `0` auto-sizes to the machine's available parallelism, capped at
/// `streams` (one task per stream — extra workers would only spin).
fn resolve_workers(requested: usize, streams: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(streams)
        .max(1)
}

/// Resolve the admitted-stream cap: `0` admits every stream; anything
/// else is clamped to `[1, streams]`. Part of the run identity — rounds
/// depend on which streams batch together — so it lands in the
/// [`RunManifest`].
fn resolve_max_active(requested: usize, streams: usize) -> usize {
    if requested == 0 {
        streams
    } else {
        requested.clamp(1, streams)
    }
}

/// The deterministic retry backoff schedule: attempt `attempt`
/// (0-based) waits `base * 2^attempt` virtual seconds. Pure — the same
/// (base, attempt) always yields the same delay, so retry accounting is
/// reproducible run-to-run.
pub fn retry_backoff(base: f64, attempt: u32) -> f64 {
    base * f64::from(2u32.saturating_pow(attempt))
}

/// The result of one clip in an engine run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum ClipOutcome {
    /// The clip completed (in-stream or via the sequential retry).
    Ok(Vec<Track>),
    /// The clip failed and was not recovered.
    Failed {
        /// Stage the failure is attributed to.
        stage: StageName,
        /// Failure description (injected reason or panic payload).
        reason: String,
    },
}

impl ClipOutcome {
    /// The extracted tracks, if the clip completed.
    pub fn tracks(&self) -> Option<&[Track]> {
        match self {
            ClipOutcome::Ok(tracks) => Some(tracks),
            ClipOutcome::Failed { .. } => None,
        }
    }

    /// Whether the clip completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, ClipOutcome::Ok(_))
    }
}

/// The result of an engine run: per-clip outcomes (in input clip
/// order) plus run statistics.
pub struct EngineRun {
    /// Per-clip outcome, indexed like the input clip slice.
    pub tracks: Vec<ClipOutcome>,
    /// Counters, batch occupancy, health, scheduler and simulated
    /// seconds.
    pub stats: EngineStats,
    /// The batcher's settled round log in round order — which frames
    /// each cross-stream detector round coalesced. Round contents are a
    /// pure function of the per-stream submission sequences.
    pub rounds: Vec<RoundRecord>,
}

impl EngineRun {
    /// Unwrap every outcome into its tracks, panicking with the first
    /// failure if any clip failed. For callers (benches, determinism
    /// tests) that run without fault injection and treat a failure as
    /// a harness bug.
    pub fn expect_tracks(self) -> Vec<Vec<Track>> {
        self.tracks
            .into_iter()
            .enumerate()
            .map(|(i, outcome)| match outcome {
                ClipOutcome::Ok(tracks) => tracks,
                ClipOutcome::Failed { stage, reason } => {
                    panic!("clip {i} failed in {stage}: {reason}")
                }
            })
            .collect()
    }

    /// `(clip index, stage, reason)` of every unrecovered failure.
    pub fn failures(&self) -> Vec<(usize, StageName, &str)> {
        self.tracks
            .iter()
            .enumerate()
            .filter_map(|(i, o)| match o {
                ClipOutcome::Ok(_) => None,
                ClipOutcome::Failed { stage, reason } => Some((i, *stage, reason.as_str())),
            })
            .collect()
    }
}

/// Build the [`RunManifest`] identifying an engine run: everything that
/// shapes per-clip results, ledger bits or batcher rounds. Resuming is
/// only valid against a bitwise-equal manifest.
pub fn run_manifest(
    config: &OtifConfig,
    ctx: &ExecutionContext,
    clips: &[Clip],
    opts: &EngineOptions,
) -> RunManifest {
    let config_json = serde_json::to_string(config).expect("config serializes");
    let cost_json = serde_json::to_string(&ctx.cost).expect("cost model serializes");
    let config_fingerprint =
        fnv1a(format!("{config_json}|{cost_json}|{}", ctx.detector_seed).as_bytes());
    let mut dataset = format!("{}", clips.len());
    for c in clips {
        dataset.push_str(&format!(
            "|{}:{}:{}:{}x{}",
            c.id,
            c.seed,
            c.num_frames(),
            c.scene.width,
            c.scene.height
        ));
    }
    let streams = opts.streams.min(clips.len()).max(1);
    RunManifest {
        version: 1,
        config_fingerprint,
        dataset_fingerprint: fnv1a(dataset.as_bytes()),
        clips: clips.len(),
        streams,
        max_active_streams: resolve_max_active(opts.max_active_streams, streams),
        max_batch: opts.max_batch,
        prefetch_frames: opts.prefetch_frames.max(1),
        detector_exec: opts.detector_exec.as_str().to_string(),
    }
}

/// A journaled run's durable state: the open [`RunJournal`] plus what a
/// resume recovered from it. Pass to [`Engine::run_with_session`] to
/// checkpoint completed clips (fresh or resumed) and ghost-replay the
/// recovered ones (resumed).
pub struct RunSession {
    journal: Arc<RunJournal>,
    recovered: Vec<Option<(ClipRecord, Vec<Track>)>>,
    resumed: bool,
}

impl RunSession {
    /// A fresh journaled run: every clip computes live and checkpoints.
    pub fn fresh(journal: Arc<RunJournal>) -> RunSession {
        RunSession {
            journal,
            recovered: Vec::new(),
            resumed: false,
        }
    }

    /// A resumed run: recovered clips (from [`RunJournal::recover`])
    /// ghost-replay; the rest compute live and checkpoint.
    pub fn resumed(
        journal: Arc<RunJournal>,
        recovered: Vec<Option<(ClipRecord, Vec<Track>)>>,
    ) -> RunSession {
        RunSession {
            journal,
            recovered,
            resumed: true,
        }
    }

    /// Number of clips this session recovered from the journal.
    pub fn recovered_clips(&self) -> usize {
        self.recovered.iter().filter(|r| r.is_some()).count()
    }
}

/// The multi-stream streaming executor.
pub struct Engine;

impl Engine {
    /// Process `clips` with `opts.streams` concurrent streams, charging
    /// all simulated cost into `ledger`.
    ///
    /// Per-clip output is identical to
    /// `Pipeline::run_clip(config, ctx, clip, …)`; with one stream the
    /// charged cost is identical too, and with more streams only the
    /// detector launch overhead shrinks (shared batches).
    ///
    /// Never panics on stage failures: a panicking stage step is
    /// isolated to its stream, a recoverable fault fails only its clip
    /// (and is retried once through the sequential pipeline unless
    /// `opts.no_retry`), and every unfinished clip is reported as
    /// [`ClipOutcome::Failed`] with per-stream status in the stats.
    /// Only charges of clips that completed are folded into `ledger`
    /// (plus the shared batched launch overhead), so healthy clips'
    /// accounting is unaffected by faults elsewhere.
    pub fn run(
        config: &OtifConfig,
        ctx: &ExecutionContext,
        clips: &[Clip],
        opts: &EngineOptions,
        ledger: &CostLedger,
    ) -> EngineRun {
        Self::run_with_session(config, ctx, clips, opts, ledger, None)
    }

    /// [`Engine::run`] with an optional journaled [`RunSession`]: every
    /// completed clip is durably checkpointed before its result is
    /// acknowledged, and clips the session recovered from a previous
    /// (crashed) run are *ghost-replayed* — their recorded charges,
    /// timelines, batcher tickets and tracks are replayed bit-exactly
    /// without recomputation, so the final ledgers, deterministic stats
    /// and detector digests equal an uninterrupted run's.
    pub fn run_with_session(
        config: &OtifConfig,
        ctx: &ExecutionContext,
        clips: &[Clip],
        opts: &EngineOptions,
        ledger: &CostLedger,
        session: Option<&RunSession>,
    ) -> EngineRun {
        let streams = opts.streams.min(clips.len()).max(1);
        let prefetch = opts.prefetch_frames.max(1);
        let gap = config.gap.max(1);
        let frame_counts: Vec<usize> = clips.iter().map(|c| c.num_frames().div_ceil(gap)).collect();

        // Round-robin assignment keeps stream loads balanced without
        // knowing clip lengths: stream i gets clips i, i+streams, ….
        let assignments: Vec<Vec<(usize, &Clip)>> = (0..streams)
            .map(|s| clips.iter().enumerate().skip(s).step_by(streams).collect())
            .collect();

        // Cost accounting: every per-frame charge lands in the ledger
        // of its clip; only completed clips are absorbed into the run's
        // private ledger (in clip order — making the f64 sums
        // independent of thread interleaving), and the batcher's shared
        // launch overhead accrues in its own ledger.
        let inner = CostLedger::new();
        let clip_ledgers: Vec<CostLedger> = (0..clips.len()).map(|_| CostLedger::new()).collect();
        let timelines: Vec<Mutex<ClipTimeline>> = (0..clips.len())
            .map(|_| Mutex::new(ClipTimeline::default()))
            .collect();
        let launch = CostLedger::new();
        // The surrogate harness is shared by every stream (identical
        // weights, one set of wall-clock counters); in batched mode the
        // batcher's thread that forms a round runs its forwards.
        let harness = (opts.detector_exec != DetectorExec::Off).then(|| {
            Arc::new(DetectorExecHarness::new(
                WindowNet::new(&config.detector, ctx.detector_seed),
                opts.detector_exec,
            ))
        });
        let max_active = resolve_max_active(opts.max_active_streams, streams);
        let mut batcher = DetectorBatcher::new(
            streams,
            config.detector.arch.per_call(),
            opts.max_batch,
            launch.clone(),
        )
        .with_max_active(max_active);
        if let Some(h) = &harness {
            batcher = batcher.with_exec(Arc::clone(h));
        }
        let counters = EngineCounters::default();
        let health = HealthBoard::new(streams);
        let results: Mutex<Vec<Option<Vec<Track>>>> =
            Mutex::new((0..clips.len()).map(|_| None).collect());

        // Resume ghosting: classify every clip the session recovered.
        // In-stream checkpoints with a full frame recording are spliced
        // into their stream's batcher log (ledger pre-charged with the
        // recorded component totals as exact bits — re-accumulating
        // per-frame deltas would not reproduce IEEE sums — timeline
        // pre-populated, result pre-deposited); retried checkpoints skip streaming entirely
        // and replay in the retry section; anything malformed stays
        // Live and is recomputed (self-healing).
        let mut ghost = vec![GhostMode::Live; clips.len()];
        let mut skip_replay: Vec<(usize, ClipRecord, Vec<Track>)> = Vec::new();
        if let Some(session) = session {
            for (idx, rec) in session.recovered.iter().enumerate().take(clips.len()) {
                let Some((record, tracks)) = rec else {
                    continue;
                };
                if record.retried {
                    ghost[idx] = GhostMode::Skip;
                    skip_replay.push((idx, record.clone(), tracks.clone()));
                } else if record.frames.len() == frame_counts[idx] {
                    ghost[idx] = GhostMode::Stream;
                    clip_ledgers[idx].charge_slice_bits(&record.ledger);
                    *timelines[idx].lock() = record.timeline();
                    results.lock()[idx] = Some(tracks.clone());
                }
            }
        }
        let checkpointer = session.map(|s| Checkpointer::new(Arc::clone(&s.journal)));

        // The fixed worker pool: one task per stream (task id = stream
        // index, round-robin pre-distributed over the workers). The
        // stream's batcher waker makes the admission gate and, in
        // batched mode, the stream's unformed ticket its only park/wake
        // points — no task ever holds an OS thread while waiting.
        let workers = resolve_workers(opts.workers, streams);
        let pool = TaskPool::new(streams, opts.stage_timeout);
        let mut tasks: Vec<Box<dyn PollTask + '_>> = Vec::with_capacity(streams);
        for (s, assigned) in assignments.iter().enumerate() {
            batcher.set_waker(s, pool.waker(s));
            let stage_ctx = StageCtx {
                config,
                exec: ctx,
                stream: s,
                clips: assigned,
                counters: &counters,
                clip_ledgers: &clip_ledgers,
                timelines: &timelines,
                faults: &opts.faults,
                health: &health,
                detector_exec: harness.as_deref(),
                ghost: &ghost,
                checkpoint: checkpointer.as_ref(),
                stage_timeout: opts.stage_timeout,
            };
            tasks.push(Box::new(StreamTask::new(stage_ctx, &batcher, &results)));
        }
        counters.sample_os_threads();
        let metrics = pool.run(workers, tasks);
        counters.sample_os_threads();
        // Every stream has finished: settle the batch rounds, charging
        // their launch overhead into `launch`.
        let rounds = batcher.settle();

        // Outcomes: a clip either deposited tracks, or it failed —
        // attribute the failure (recorded per-clip error, else the
        // owning stream's panic) instead of panicking.
        let mut outcomes: Vec<ClipOutcome> = Vec::with_capacity(clips.len());
        let mut failures: Vec<FailedClip> = Vec::new();
        let mut wasted = 0.0f64;
        let mut retryable: Vec<usize> = Vec::new();
        // Clips that completed in-stream — the set the pipelined replay
        // covers (retried clips run sequentially afterwards; failed
        // clips' charges are discarded, so they shape neither the
        // ledger nor the makespan).
        let mut completed = vec![false; clips.len()];
        for (idx, slot) in results.into_inner().into_iter().enumerate() {
            let stream = idx % streams;
            if ghost[idx] == GhostMode::Skip {
                // Replayed retry clip: never streamed this run; the
                // retry-replay section below deposits its recorded
                // tracks and accounting. Placeholder outcome, no
                // failure entry, no wasted accrual.
                outcomes.push(ClipOutcome::Ok(Vec::new()));
                continue;
            }
            match slot {
                Some(tracks) => {
                    completed[idx] = true;
                    inner.absorb(&clip_ledgers[idx]);
                    outcomes.push(ClipOutcome::Ok(tracks));
                }
                None => {
                    wasted += clip_ledgers[idx].total();
                    let (stage, reason, recoverable) = match health.failure_of(idx) {
                        Some(f) => (f.stage, f.reason, f.recoverable),
                        None => match health.panic_of(stream) {
                            Some(p) => (
                                p.stage,
                                format!("stream {stream} died: {}", p.reason),
                                false,
                            ),
                            None => match health.stall_of(stream) {
                                // A watchdogged stall is recoverable:
                                // the wedged stream's unfinished clips
                                // all heal through the sequential retry.
                                Some(st) => (
                                    st.stage,
                                    format!("stream {stream} stalled: {}", st.reason),
                                    true,
                                ),
                                None => (
                                    StageName::Track,
                                    "clip was never finalized".to_string(),
                                    false,
                                ),
                            },
                        },
                    };
                    if recoverable && !opts.no_retry && opts.retry_attempts > 0 {
                        retryable.push(idx);
                    }
                    failures.push(FailedClip {
                        clip: idx,
                        stream,
                        stage,
                        reason: reason.clone(),
                        recovered: false,
                    });
                    outcomes.push(ClipOutcome::Failed { stage, reason });
                }
            }
        }

        // Absorb the shared batched launch overhead (and its occupancy
        // counters) after the per-clip charges: a fixed order keeps the
        // run's f64 sums deterministic.
        inner.absorb(&launch);

        // Pipelined virtual-time replay: recompute completion times of
        // the streaming portion from the recorded per-frame charges and
        // batcher rounds. Charges don't move — the ledger above is
        // already final — this only models *when* they complete.
        let assignment_idx: Vec<Vec<usize>> = assignments
            .iter()
            .map(|a| a.iter().map(|(i, _)| *i).collect())
            .collect();
        let replayed = timeline::replay(
            &assignment_idx,
            &completed,
            &frame_counts,
            &timelines,
            &rounds,
            prefetch,
        );

        // Failed-clip retry: clips that failed recoverably re-run
        // through the sequential pipeline under a bounded deterministic
        // backoff schedule — attempt k schedules retry_backoff_base*2^k
        // *virtual* seconds before running, accounted in the makespan
        // and the retry counters but never slept and never charged to
        // the ledger (sums stay bitwise identical). The sequential
        // fallback is infallible today, so each clip recovers on
        // attempt 0 and the rest of the `retry_attempts` budget stays
        // unused; charges land on the same ledger — one flaky clip
        // degrades throughput, not results. Retries run after the
        // streaming portion, so they extend the makespan serially.
        let mut retried = 0usize;
        let mut retry_attempts = 0u64;
        let mut retry_seconds = 0.0f64;
        let mut retry_backoff_seconds = 0.0f64;
        // Merge freshly-failed clips with recovered retry checkpoints
        // (ghost Skip) in clip-index order, so the retry accounting's
        // f64 sums accrue in the same deterministic order every run.
        enum RetryWork {
            Live,
            Replay(ClipRecord, Vec<Track>),
        }
        let mut retry_plan: Vec<(usize, RetryWork)> = retryable
            .into_iter()
            .map(|idx| (idx, RetryWork::Live))
            .chain(
                skip_replay
                    .into_iter()
                    .map(|(idx, rec, tracks)| (idx, RetryWork::Replay(rec, tracks))),
            )
            .collect();
        retry_plan.sort_by_key(|(idx, _)| *idx);
        for (idx, work) in retry_plan {
            match work {
                RetryWork::Live => {
                    retry_backoff_seconds += retry_backoff(opts.retry_backoff_base, 0);
                    retry_attempts += 1;
                    let retry_ledger = CostLedger::new();
                    let tracks = Pipeline::run_clip(config, ctx, &clips[idx], &retry_ledger);
                    retry_seconds += retry_ledger.execution_total();
                    inner.absorb(&retry_ledger);
                    // Checkpoint the recovered clip as a retry record:
                    // slice-only accounting (no frame recordings — a
                    // resume replays it without streaming).
                    if let Some(cp) = &checkpointer {
                        cp.checkpoint_clip(
                            idx,
                            &tracks,
                            &ClipTimeline::default(),
                            &retry_ledger,
                            true,
                            1,
                            retry_backoff(opts.retry_backoff_base, 0),
                        );
                    }
                    outcomes[idx] = ClipOutcome::Ok(tracks);
                    if let Some(f) = failures.iter_mut().find(|f| f.clip == idx) {
                        f.recovered = true;
                    }
                    retried += 1;
                }
                RetryWork::Replay(rec, tracks) => {
                    // Replay the recorded retry bit-exactly: charge the
                    // recorded component totals into a fresh ledger (the
                    // same order an actual retry charges), accrue the
                    // recorded backoff and attempts, deposit the
                    // recorded tracks.
                    retry_backoff_seconds += f64::from_bits(rec.retry_backoff);
                    retry_attempts += rec.retry_attempts;
                    let retry_ledger = CostLedger::new();
                    retry_ledger.charge_slice_bits(&rec.ledger);
                    retry_seconds += retry_ledger.execution_total();
                    inner.absorb(&retry_ledger);
                    outcomes[idx] = ClipOutcome::Ok(tracks);
                    retried += 1;
                }
            }
        }

        let mut stats = EngineStats::snapshot(streams, clips.len(), &counters, &inner);
        stats.workers = metrics.workers;
        stats.max_active_streams = max_active;
        stats.peak_runnable_tasks = metrics.peak_runnable;
        stats.task_steals = metrics.steals;
        stats.task_polls = metrics.polls;
        stats.execution_seconds = replayed.makespan + retry_seconds + retry_backoff_seconds;
        stats.retry_attempts = retry_attempts;
        stats.retry_backoff_seconds = retry_backoff_seconds;
        stats.prefetch_frames = prefetch;
        stats.stall_seconds = replayed.stalls;
        stats.pipeline_speedup = if stats.execution_seconds > 0.0 {
            stats.serial_seconds / stats.execution_seconds
        } else {
            1.0
        };
        stats.failed_clips = failures.len();
        stats.retried_clips = retried;
        stats.panics = health.panic_count();
        stats.wasted_seconds = wasted;
        stats.launch_seconds = launch.get(Component::Detector);
        stats.detector_exec = opts.detector_exec.as_str().to_string();
        if session.is_some_and(|s| s.resumed) {
            stats.resumed_clips_skipped = ghost.iter().filter(|g| **g != GhostMode::Live).count();
            stats.resumed_clips_recomputed =
                ghost.iter().filter(|g| **g == GhostMode::Live).count();
        }
        if let Some(cp) = &checkpointer {
            stats.clips_checkpointed = cp.acked.load(std::sync::atomic::Ordering::Relaxed);
            stats.checkpoint_failures = cp.ack_failures.load(std::sync::atomic::Ordering::Relaxed);
        }
        if let Some(h) = &harness {
            stats.detector_wall_seconds = h.wall_seconds();
            stats.detector_forwards = h.forwards();
            stats.detector_exec_windows = h.windows();
            // Run digest: completed clips' surrogate digests folded in
            // clip order — the set and the per-clip values are
            // deterministic, so looped and batched runs (at any stream
            // count, under any fault plan) must agree exactly.
            let mut d = DIGEST_SEED;
            for (idx, done) in completed.iter().enumerate() {
                if *done {
                    d = fold_digest(d, timelines[idx].lock().detect_digest);
                }
            }
            stats.detector_digest = d;
        }
        stats.stream_status = (0..streams)
            .map(|s| {
                let assigned = assignments[s].len();
                let failed = failures.iter().filter(|f| f.stream == s).count();
                StreamStatus {
                    stream: s,
                    clips_assigned: assigned,
                    clips_completed: assigned - failed,
                    clips_failed: failed,
                    panicked: health.panic_of(s),
                }
            })
            .collect();
        stats.failures = failures;

        ledger.absorb(&inner);
        EngineRun {
            tracks: outcomes,
            stats,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_core::config::TrackerKind;
    use otif_core::Pipeline;
    use otif_cv::{Component, CostModel, DetectorArch, DetectorConfig};
    use otif_sim::{DatasetConfig, DatasetKind};

    fn config() -> OtifConfig {
        OtifConfig {
            detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
            proxy: None,
            gap: 4,
            tracker: TrackerKind::Sort,
            refine: false,
        }
    }

    fn clips() -> Vec<otif_sim::Clip> {
        DatasetConfig::small(DatasetKind::Caldot1, 71)
            .generate()
            .test
    }

    #[test]
    fn one_stream_matches_sequential_cost_exactly() {
        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();

        let seq = CostLedger::new();
        let mut expected = Vec::new();
        for clip in &clips {
            expected.push(Pipeline::run_clip(&cfg, &ctx, clip, &seq));
        }

        let eng = CostLedger::new();
        let opts = EngineOptions::with_streams(1);
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &eng);
        assert!(run.stats.healthy());

        let a = serde_json::to_string(&expected).unwrap();
        let b = serde_json::to_string(&run.expect_tracks()).unwrap();
        assert_eq!(a, b, "1-stream engine output must equal sequential");
        for c in [
            Component::Decode,
            Component::Proxy,
            Component::Detector,
            Component::Tracker,
            Component::Refinement,
        ] {
            assert!(
                (seq.get(c) - eng.get(c)).abs() < 1e-9,
                "{c:?}: sequential {} vs engine {}",
                seq.get(c),
                eng.get(c)
            );
        }
    }

    #[test]
    fn multi_stream_output_matches_and_detector_cost_drops() {
        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        assert!(clips.len() >= 2, "need multiple clips for multi-stream");

        let seq = CostLedger::new();
        let mut expected = Vec::new();
        for clip in &clips {
            expected.push(Pipeline::run_clip(&cfg, &ctx, clip, &seq));
        }

        for streams in [2usize, 4] {
            let eng = CostLedger::new();
            let opts = EngineOptions::with_streams(streams);
            let run = Engine::run(&cfg, &ctx, &clips, &opts, &eng);
            let stats = run.stats.clone();
            let a = serde_json::to_string(&expected).unwrap();
            let b = serde_json::to_string(&run.expect_tracks()).unwrap();
            assert_eq!(a, b, "{streams}-stream output must equal sequential");
            assert!(
                eng.get(Component::Detector) < seq.get(Component::Detector),
                "{streams} streams must shrink detector cost via batching"
            );
            assert!(stats.mean_batch_occupancy > 1.0);
            assert_eq!(stats.streams, streams.min(clips.len()));
            // the detector split adds up: pixel charges + shared launches
            assert!(stats.launch_seconds > 0.0);
            assert!(stats.launch_seconds < stats.stage_seconds.detector);
            // every stream reports healthy completion status
            assert_eq!(stats.stream_status.len(), stats.streams);
            for st in &stats.stream_status {
                assert!(st.healthy(), "{st:?}");
                assert_eq!(st.clips_completed, st.clips_assigned);
            }
        }
    }

    #[test]
    fn stats_count_every_frame_and_drain_in_flight() {
        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        let expected_frames: u64 = clips
            .iter()
            .map(|c| c.num_frames().div_ceil(cfg.gap) as u64)
            .sum();
        let run = Engine::run(
            &cfg,
            &ctx,
            &clips,
            &EngineOptions::new(),
            &CostLedger::new(),
        );
        assert_eq!(run.stats.frames, expected_frames);
        assert!(run.stats.max_frames_in_flight >= 1);
        // a stream task finishes each frame before decoding the next:
        // at most one frame in flight per stream
        assert!(run.stats.max_frames_in_flight <= run.stats.streams as u64);
        assert!((run.stats.wasted_seconds - 0.0).abs() < 1e-15);
    }

    /// `prefetch_frames = 1` degenerates the pipelined model to the
    /// serial rendezvous: with a single stream the makespan equals the
    /// serial charge sum (same charges, different summation order).
    #[test]
    fn single_stream_prefetch_one_makespan_is_serial() {
        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        let opts = EngineOptions {
            streams: 1,
            prefetch_frames: 1,
            ..EngineOptions::new()
        };
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &CostLedger::new());
        let s = &run.stats;
        assert!(
            (s.execution_seconds - s.serial_seconds).abs() < 1e-9 * s.serial_seconds.max(1.0),
            "serial {} vs makespan {}",
            s.serial_seconds,
            s.execution_seconds
        );
        // fully serial: decode stalls on the rendezvous every frame
        assert!(s.stall_seconds.channel_backpressure > 0.0);
    }

    /// A deeper prefetch window strictly improves the makespan while
    /// leaving every ledger component bitwise unchanged.
    #[test]
    fn prefetch_overlaps_without_moving_charges() {
        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        let run_at = |prefetch: usize| {
            let ledger = CostLedger::new();
            let opts = EngineOptions {
                streams: 4,
                prefetch_frames: prefetch,
                ..EngineOptions::new()
            };
            let run = Engine::run(&cfg, &ctx, &clips, &opts, &ledger);
            (run, ledger)
        };
        let (serial, serial_ledger) = run_at(1);
        let (deep, deep_ledger) = run_at(16);
        assert!(
            deep.stats.execution_seconds < serial.stats.execution_seconds,
            "prefetch=16 makespan {} must beat prefetch=1 {}",
            deep.stats.execution_seconds,
            serial.stats.execution_seconds
        );
        assert!(deep.stats.pipeline_speedup > serial.stats.pipeline_speedup);
        // serial sums and every component are bitwise identical
        assert_eq!(serial.stats.serial_seconds, deep.stats.serial_seconds);
        for c in [
            Component::Decode,
            Component::Proxy,
            Component::Detector,
            Component::Tracker,
            Component::Refinement,
        ] {
            assert_eq!(
                serial_ledger.get(c).to_bits(),
                deep_ledger.get(c).to_bits(),
                "{c:?} must be bitwise identical across prefetch settings"
            );
        }
        // and so are the round contents
        assert_eq!(serial.rounds, deep.rounds);
    }

    const COMPONENTS: [Component; 5] = [
        Component::Decode,
        Component::Proxy,
        Component::Detector,
        Component::Tracker,
        Component::Refinement,
    ];

    fn temp_run_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("otif-engine-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Tentpole contract: a fresh journaled run is bitwise identical to
    /// an unjournaled one, and resuming after a crash at several
    /// acknowledgement counts reproduces the uninterrupted run's
    /// tracks, ledger bits, deterministic stats and batcher rounds
    /// byte-for-byte while recomputing only the unacknowledged clips.
    #[test]
    fn journaled_run_and_every_resume_are_bitwise_identical() {
        use crate::journal::RUN_JOURNAL_FILE;
        use otif_core::durable::{Io, RealIo};

        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        let opts = EngineOptions {
            streams: 2,
            detector_exec: DetectorExec::Batched,
            ..EngineOptions::new()
        };

        // Uninterrupted, unjournaled baseline.
        let base_ledger = CostLedger::new();
        let base = Engine::run(&cfg, &ctx, &clips, &opts, &base_ledger);
        let base_proj = base.stats.deterministic_projection();
        let base_rounds = base.rounds.clone();
        let base_tracks = serde_json::to_string(&base.expect_tracks()).unwrap();

        // Fresh journaled run: identical outputs, every clip durably
        // acknowledged.
        let io: Arc<dyn Io> = Arc::new(RealIo);
        let dir = temp_run_dir("resume");
        let manifest = run_manifest(&cfg, &ctx, &clips, &opts);
        let journal = Arc::new(RunJournal::create(&dir, Arc::clone(&io), &manifest).unwrap());
        let session = RunSession::fresh(Arc::clone(&journal));
        let fresh_ledger = CostLedger::new();
        let fresh =
            Engine::run_with_session(&cfg, &ctx, &clips, &opts, &fresh_ledger, Some(&session));
        assert_eq!(fresh.stats.clips_checkpointed, clips.len() as u64);
        assert_eq!(fresh.stats.checkpoint_failures, 0);
        assert_eq!(fresh.stats.resumed_clips_skipped, 0);
        assert_eq!(fresh.stats.deterministic_projection(), base_proj);
        assert_eq!(fresh.rounds, base_rounds);
        for c in COMPONENTS {
            assert_eq!(
                fresh_ledger.get(c).to_bits(),
                base_ledger.get(c).to_bits(),
                "{c:?}"
            );
        }
        assert_eq!(
            serde_json::to_string(&fresh.expect_tracks()).unwrap(),
            base_tracks
        );

        // Crash simulation: keep only the first k acknowledged records
        // (append order is the crash order), resume, and demand byte
        // identity plus bounded recomputation.
        let journal_path = dir.join(RUN_JOURNAL_FILE);
        let full = std::fs::read(&journal_path).unwrap();
        let lines: Vec<&[u8]> = full.split_inclusive(|&b| b == b'\n').collect();
        assert_eq!(lines.len(), clips.len());
        for k in [0usize, 1, clips.len() - 1, clips.len()] {
            std::fs::write(&journal_path, lines[..k].concat()).unwrap();
            let (reopened, replayed) = RunJournal::open(&dir, Arc::clone(&io), &manifest).unwrap();
            let reopened = Arc::new(reopened);
            let recovered = reopened.recover(&replayed, clips.len());
            let session = RunSession::resumed(Arc::clone(&reopened), recovered);
            assert_eq!(session.recovered_clips(), k);
            let led = CostLedger::new();
            let run = Engine::run_with_session(&cfg, &ctx, &clips, &opts, &led, Some(&session));
            assert_eq!(run.stats.resumed_clips_skipped, k, "k={k}");
            assert_eq!(run.stats.resumed_clips_recomputed, clips.len() - k, "k={k}");
            assert_eq!(run.stats.deterministic_projection(), base_proj, "k={k}");
            assert_eq!(run.rounds, base_rounds, "k={k}");
            for c in COMPONENTS {
                assert_eq!(
                    led.get(c).to_bits(),
                    base_ledger.get(c).to_bits(),
                    "k={k} {c:?}"
                );
            }
            assert_eq!(
                serde_json::to_string(&run.expect_tracks()).unwrap(),
                base_tracks,
                "k={k}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A corrupt checkpoint payload self-heals: the clip recomputes
    /// live and the final outputs still match the baseline.
    #[test]
    fn tampered_checkpoint_payload_recomputes_and_matches() {
        use crate::journal::RUN_CLIPS_DIR;
        use otif_core::durable::{Io, RealIo};

        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        let opts = EngineOptions::with_streams(2);

        let base_ledger = CostLedger::new();
        let base = Engine::run(&cfg, &ctx, &clips, &opts, &base_ledger);
        let base_proj = base.stats.deterministic_projection();
        let base_tracks = serde_json::to_string(&base.expect_tracks()).unwrap();

        let io: Arc<dyn Io> = Arc::new(RealIo);
        let dir = temp_run_dir("selfheal");
        let manifest = run_manifest(&cfg, &ctx, &clips, &opts);
        let journal = Arc::new(RunJournal::create(&dir, Arc::clone(&io), &manifest).unwrap());
        let session = RunSession::fresh(Arc::clone(&journal));
        Engine::run_with_session(
            &cfg,
            &ctx,
            &clips,
            &opts,
            &CostLedger::new(),
            Some(&session),
        );

        std::fs::write(dir.join(RUN_CLIPS_DIR).join("clip_0.json"), b"garbage").unwrap();
        let (reopened, replayed) = RunJournal::open(&dir, Arc::clone(&io), &manifest).unwrap();
        let reopened = Arc::new(reopened);
        let recovered = reopened.recover(&replayed, clips.len());
        assert!(
            recovered[0].is_none(),
            "tampered payload must drop the record"
        );
        let session = RunSession::resumed(Arc::clone(&reopened), recovered);
        let led = CostLedger::new();
        let run = Engine::run_with_session(&cfg, &ctx, &clips, &opts, &led, Some(&session));
        assert_eq!(run.stats.resumed_clips_recomputed, 1);
        assert_eq!(run.stats.resumed_clips_skipped, clips.len() - 1);
        assert_eq!(run.stats.deterministic_projection(), base_proj);
        for c in COMPONENTS {
            assert_eq!(led.get(c).to_bits(), base_ledger.get(c).to_bits(), "{c:?}");
        }
        assert_eq!(
            serde_json::to_string(&run.expect_tracks()).unwrap(),
            base_tracks
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Without a watchdog an injected stall only slows the run down —
    /// it still completes healthy.
    #[test]
    fn stall_fault_without_watchdog_completes_healthy() {
        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        let opts = EngineOptions {
            streams: 1,
            faults: FaultPlan::stall_at(StageName::Detect, 0, 1),
            ..EngineOptions::new()
        };
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &CostLedger::new());
        assert!(run.stats.healthy(), "{:?}", run.stats.failures);
        assert_eq!(run.expect_tracks().len(), clips.len());
    }

    /// With a stage watchdog shorter than the stall, the wedge becomes
    /// typed recoverable stall failures and the sequential retry heals
    /// every clip — the run completes instead of hanging.
    #[test]
    fn watchdog_converts_wedge_into_recoverable_stalls() {
        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        let opts = EngineOptions {
            streams: 1,
            stage_timeout: Some(std::time::Duration::from_millis(40)),
            faults: FaultPlan::stall_at(StageName::Detect, 0, 1),
            ..EngineOptions::new()
        };
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &CostLedger::new());
        assert!(run.stats.failed_clips > 0, "the wedge must fail clips");
        assert!(
            run.stats
                .failures
                .iter()
                .any(|f| f.reason.contains("watchdog")),
            "{:?}",
            run.stats.failures
        );
        assert!(
            run.stats.failures.iter().all(|f| f.recovered),
            "every stalled clip must heal via the sequential retry: {:?}",
            run.stats.failures
        );
        assert_eq!(run.stats.retried_clips, run.stats.failed_clips);
        assert!(run.tracks.iter().all(ClipOutcome::is_ok));
    }

    /// Batched mode: a sibling wedged mid-stream stops the round
    /// sequence, so the stream parked on its ticket sees no round form
    /// for a whole timeout and expires as a batcher stall; the
    /// sequential retry heals both streams' clips.
    #[test]
    fn watchdog_expires_a_park_behind_a_wedged_sibling() {
        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        let opts = EngineOptions {
            streams: 2,
            workers: 2,
            detector_exec: DetectorExec::Batched,
            stage_timeout: Some(std::time::Duration::from_millis(40)),
            faults: FaultPlan::stall_at(StageName::Detect, 0, 1),
            ..EngineOptions::new()
        };
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &CostLedger::new());
        assert!(
            run.stats
                .failures
                .iter()
                .any(|f| f.reason.contains("batcher_wait")),
            "{:?}",
            run.stats.failures
        );
        assert!(run.stats.failures.iter().all(|f| f.recovered));
        assert!(run.tracks.iter().all(ClipOutcome::is_ok));
    }

    #[test]
    fn more_streams_than_clips_is_clamped() {
        let cfg = config();
        let ctx = ExecutionContext::bare(CostModel::default(), 7);
        let clips = clips();
        let opts = EngineOptions::with_streams(clips.len() + 50);
        let run = Engine::run(&cfg, &ctx, &clips, &opts, &CostLedger::new());
        assert_eq!(run.stats.streams, clips.len());
        assert_eq!(run.tracks.len(), clips.len());
    }
}
