//! Shared context for the per-stream pipeline: decode → window →
//! detect → track, run in frame order by one resumable
//! [`StreamTask`](crate::tasks::StreamTask) per stream and polled by a
//! fixed worker pool.
//!
//! All cost charging goes through the same `otif_core::stages`
//! functions the sequential pipeline uses, but every charge lands in
//! the *per-clip* ledger of the frame being processed: a clip that
//! later fails simply has its ledger discarded, so the surviving clips'
//! accounting is byte-identical to a fault-free run. The only shared
//! charge is the detector launch overhead, applied by the
//! [`DetectorBatcher`](crate::batcher::DetectorBatcher) per cross-stream
//! batch instead of per frame.
//!
//! Fault handling: a stage step hitting a recoverable fault records it
//! on the [`HealthBoard`] and the stream task moves on to its next
//! clip. Injected panics unwind for real and are caught by the per-poll
//! supervision in [`crate::tasks`].

use crate::exec::DetectorExecHarness;
use crate::fault::{FaultKind, FaultPlan, HealthBoard, StageName, STALL_SLEEP};
use crate::journal::Checkpointer;
use crate::stats::EngineCounters;
use crate::timeline::ClipTimeline;
use otif_core::config::OtifConfig;
use otif_core::pipeline::ExecutionContext;
use otif_cv::CostLedger;
use otif_sim::Clip;
use parking_lot::Mutex;
use std::time::Duration;

/// How a clip is processed on this run: live, or replayed from a run
/// journal checkpoint without recomputation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum GhostMode {
    /// Normal processing — decode, window, detect and track for real.
    #[default]
    Live,
    /// The clip completed in-stream in a previous (crashed) run and was
    /// checkpointed: its ledger, timeline and result are pre-loaded by
    /// the scheduler, and the stream task splices its recorded batcher
    /// tickets in one call — so the cross-stream round sequence (and
    /// every sibling's accounting) reproduces bitwise — without walking,
    /// recomputing or re-charging anything.
    Stream,
    /// The clip completed via the sequential retry path in a previous
    /// run: it is not streamed at all; the scheduler replays its
    /// recorded retry accounting directly.
    Skip,
}

/// Everything a stream task needs besides the batcher: the run
/// configuration, this stream's clip assignment, the shared counters,
/// the per-clip cost ledgers and the fault machinery.
#[derive(Clone, Copy)]
pub(crate) struct StageCtx<'a> {
    pub config: &'a OtifConfig,
    pub exec: &'a ExecutionContext<'a>,
    /// This stream's index (for stream-level health reporting).
    pub stream: usize,
    /// This stream's assigned clips as `(global clip index, clip)`.
    pub clips: &'a [(usize, &'a Clip)],
    pub counters: &'a EngineCounters,
    /// One ledger per clip in the engine's global clip list; charges
    /// for a clip that ends up failing are discarded with it.
    pub clip_ledgers: &'a [CostLedger],
    /// Per-clip, per-frame charge recordings for the pipelined replay
    /// (parallel to `clip_ledgers`). Each stage step appends to its own
    /// field, in frame-ordinal order.
    pub timelines: &'a [Mutex<ClipTimeline>],
    pub faults: &'a FaultPlan,
    pub health: &'a HealthBoard,
    /// Surrogate detector execution harness; `None` (or mode `Off`)
    /// means the detect step computes accounting only.
    pub detector_exec: Option<&'a DetectorExecHarness>,
    /// Per-clip ghost modes (indexed by global clip index) — how much
    /// of each clip's work this run actually performs.
    pub ghost: &'a [GhostMode],
    /// Run-journal checkpoint sink; `None` for unjournaled runs.
    pub checkpoint: Option<&'a Checkpointer>,
    /// Stage watchdog: how long one stage step may run, or the task
    /// stay parked on its batcher ticket, before the wedge becomes
    /// a typed, recoverable stall failure and the stream retires.
    pub stage_timeout: Option<Duration>,
}

impl StageCtx<'_> {
    /// Consult the fault plan for `(stage, clip, ordinal)`. Returns
    /// `true` if a recoverable error fired (the caller fails the clip);
    /// panics for real if a panic fault fired — the per-poll
    /// supervision catches it. A stall fault sleeps [`STALL_SLEEP`] and then
    /// lets the frame proceed normally.
    pub fn fire(&self, stage: StageName, clip: usize, ordinal: usize) -> bool {
        match self.faults.fire(stage, clip, ordinal) {
            None => false,
            Some(spec) => match spec.kind {
                FaultKind::Panic => panic!("{}", spec.reason),
                FaultKind::Error => {
                    self.health
                        .record_clip_failure(clip, stage, spec.reason.clone(), true);
                    true
                }
                FaultKind::Stall => {
                    std::thread::sleep(STALL_SLEEP);
                    false
                }
            },
        }
    }

    /// Record a stage-watchdog overrun: one step of `stage` ran longer
    /// than the timeout. The stream retires; its unfinished clips fail
    /// recoverably and the sequential retry heals them.
    pub fn record_overrun(&self, stage: StageName) {
        let timeout = self.stage_timeout.unwrap_or_default();
        let reason = format!(
            "watchdog: {stage} ran >{:.3}s on one frame (stage_overrun)",
            timeout.as_secs_f64()
        );
        self.health.record_stall(self.stream, stage, reason);
    }

    /// Record a batcher-rendezvous watchdog timeout (batched mode: a
    /// sibling stream wedged the cross-stream rendezvous) before the
    /// stream task is retired.
    pub fn record_batcher_stall(&self, clip: usize) {
        let timeout = self.stage_timeout.unwrap_or_default();
        let reason = format!(
            "watchdog: detect stalled >{:.3}s in the batcher rendezvous \
             (batcher_wait)",
            timeout.as_secs_f64()
        );
        self.health
            .record_stall(self.stream, StageName::Detect, reason.clone());
        self.health
            .record_clip_failure(clip, StageName::Detect, reason, true);
    }
}
