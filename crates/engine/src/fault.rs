//! Fault tolerance for the streaming engine: deterministic fault
//! injection, panic-isolating stage supervision and per-run health
//! accounting.
//!
//! The engine's deployment regime (OTIF §6: long-running multi-camera
//! ingest) must survive a bad clip or a dying stream without
//! losing the rest of the fleet. Three pieces make that testable:
//!
//! * [`FaultPlan`] — a deterministic schedule of injected faults,
//!   addressed by `(stage, clip, sampled-frame ordinal)`. Because every
//!   stage sees a clip's sampled frames in the same order, a plan fires
//!   at exactly the same point of the computation on every run, so
//!   faulted runs are as reproducible as healthy ones.
//! * [`supervise`] — the shim every stream-task poll runs under. It
//!   catches panics (`catch_unwind`); the task records them on the
//!   [`HealthBoard`] against the stage step that was running and
//!   retires. Dropping the task finishes its stream at the batcher, so
//!   sibling streams keep flowing instead of deadlocking or aborting.
//! * [`HealthBoard`] — shared per-run record of stream panics and
//!   per-clip recoverable failures, folded into
//!   [`EngineStats`](crate::stats::EngineStats) at the end of a run.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Once;

/// The four per-stream engine stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum StageName {
    /// Frame sampling + decode accounting.
    Decode,
    /// Segmentation proxy / window selection.
    Window,
    /// Detector inference (the batched stage).
    Detect,
    /// Tracker stepping + clip finalization.
    Track,
}

impl StageName {
    /// All stages, in pipeline order.
    pub const ALL: [StageName; 4] = [
        StageName::Decode,
        StageName::Window,
        StageName::Detect,
        StageName::Track,
    ];

    /// Lowercase label used in reports and the CLI fault syntax.
    pub fn name(&self) -> &'static str {
        match self {
            StageName::Decode => "decode",
            StageName::Window => "window",
            StageName::Detect => "detect",
            StageName::Track => "track",
        }
    }

    /// Parse the lowercase label.
    pub fn parse(s: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|st| st.name() == s)
            .ok_or_else(|| format!("unknown stage {s:?} (decode|window|detect|track)"))
    }
}

impl fmt::Display for StageName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How long an injected [`FaultKind::Stall`] blocks its stage step.
/// Finite, so an un-watchdogged run still terminates — just slowly; a
/// stage watchdog with a shorter timeout converts the wedge into typed
/// stall failures instead.
pub const STALL_SLEEP: std::time::Duration = std::time::Duration::from_millis(400);

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Panic in the stage step. The whole stream dies (its remaining
    /// clips fail, non-recoverably); sibling streams are unaffected.
    Panic,
    /// Recoverable error. Only the targeted clip is poisoned — the
    /// stream skips its remaining frames and continues with its next
    /// clips — and the clip is re-run through the sequential fallback
    /// after the streaming run.
    Error,
    /// Wedge the stage: sleep [`STALL_SLEEP`] wall-clock before
    /// processing the frame, then continue normally. Without a stage
    /// watchdog the run completes (slowly); with
    /// [`EngineOptions::stage_timeout`](crate::EngineOptions) set below
    /// the sleep, the stream sees its own step overrun the timeout and
    /// retires with a typed, recoverable stall failure that the
    /// sequential retry heals (siblings left waiting on its batcher
    /// round past the timeout expire the same way).
    Stall,
}

impl FaultKind {
    /// Lowercase label used in the CLI fault syntax.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Error => "error",
            FaultKind::Stall => "stall",
        }
    }

    /// Parse the lowercase label.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "panic" => Ok(FaultKind::Panic),
            "error" => Ok(FaultKind::Error),
            "stall" => Ok(FaultKind::Stall),
            other => Err(format!("unknown fault kind {other:?} (panic|error|stall)")),
        }
    }
}

/// One injected fault: fire `kind` in `stage` when it is about to
/// process the `frame`-th sampled frame (0-based arrival ordinal) of
/// clip `clip`. Firing happens *before* any cost is charged for that
/// frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Stage the fault targets.
    pub stage: StageName,
    /// Panic (stream-fatal) or error (clip-fatal, recoverable).
    pub kind: FaultKind,
    /// Global clip index (position in the clip slice given to the
    /// engine).
    pub clip: usize,
    /// 0-based ordinal of the clip's sampled frames at that stage.
    pub frame: usize,
    /// Human-readable reason carried into `ClipOutcome` / stats.
    pub reason: String,
}

/// A deterministic schedule of injected faults (empty by default).
///
/// Plans address computation points, not wall-clock: the same plan over
/// the same inputs perturbs the run identically every time, which is
/// what lets the determinism test suite extend to faulted runs.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    specs: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Convenience: a single stream-fatal panic at
    /// `(stage, clip, frame)`.
    pub fn panic_at(stage: StageName, clip: usize, frame: usize) -> Self {
        FaultPlan::none().with(FaultSpec {
            stage,
            kind: FaultKind::Panic,
            clip,
            frame,
            reason: format!("injected panic in {stage} (clip {clip}, frame {frame})"),
        })
    }

    /// Convenience: a single recoverable error at
    /// `(stage, clip, frame)`.
    pub fn error_at(stage: StageName, clip: usize, frame: usize) -> Self {
        FaultPlan::none().with(FaultSpec {
            stage,
            kind: FaultKind::Error,
            clip,
            frame,
            reason: format!("injected error in {stage} (clip {clip}, frame {frame})"),
        })
    }

    /// Convenience: a single [`STALL_SLEEP`]-long stall at
    /// `(stage, clip, frame)`.
    pub fn stall_at(stage: StageName, clip: usize, frame: usize) -> Self {
        FaultPlan::none().with(FaultSpec {
            stage,
            kind: FaultKind::Stall,
            clip,
            frame,
            reason: format!("injected stall in {stage} (clip {clip}, frame {frame})"),
        })
    }

    /// Add `spec` to the plan (builder style).
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Whether the plan contains no faults.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// The scheduled faults.
    pub fn specs(&self) -> &[FaultSpec] {
        &self.specs
    }

    /// Parse the CLI syntax `stage:kind:clip:frame`
    /// (e.g. `decode:error:0:2`). Multiple specs separated by commas.
    pub fn parse(s: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for part in s.split(',') {
            let fields: Vec<&str> = part.split(':').collect();
            let [stage, kind, clip, frame] = fields[..] else {
                return Err(format!(
                    "bad fault spec {part:?}; expected stage:kind:clip:frame \
                     (e.g. decode:error:0:2)"
                ));
            };
            let stage = StageName::parse(stage)?;
            let kind = FaultKind::parse(kind)?;
            let clip: usize = clip
                .parse()
                .map_err(|e| format!("bad clip index {clip:?}: {e}"))?;
            let frame: usize = frame
                .parse()
                .map_err(|e| format!("bad frame ordinal {frame:?}: {e}"))?;
            plan = plan.with(FaultSpec {
                stage,
                kind,
                clip,
                frame,
                reason: format!(
                    "injected {} in {stage} (clip {clip}, frame {frame})",
                    kind.name()
                ),
            });
        }
        Ok(plan)
    }

    /// The fault (if any) scheduled for `stage` processing the
    /// `frame`-th sampled frame of `clip`. Pure: the same inputs always
    /// return the same answer.
    pub(crate) fn fire(&self, stage: StageName, clip: usize, frame: usize) -> Option<&FaultSpec> {
        self.specs
            .iter()
            .find(|s| s.stage == stage && s.clip == clip && s.frame == frame)
    }
}

/// A stream panic captured by the supervision shim.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanicReport {
    /// Stage step that panicked.
    pub stage: StageName,
    /// The panic payload, stringified.
    pub reason: String,
}

/// A recoverable per-clip failure recorded by a stage.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ClipFailure {
    pub stage: StageName,
    pub reason: String,
    pub recoverable: bool,
}

/// A stream-level stall detected by the stage watchdog: a stage step
/// of the stream overran the timeout, or the stream gave up on a wedged
/// batcher rendezvous, and it retired. Clips the stream never finalized
/// because of it are recoverable (the work itself is healthy — only the
/// timing wedged).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct StallReport {
    pub stage: StageName,
    pub reason: String,
}

/// Shared per-run health record: which streams panicked (and where),
/// and which clips failed recoverably.
#[derive(Debug)]
pub(crate) struct HealthBoard {
    /// First captured panic per stream.
    panics: Mutex<Vec<Option<PanicReport>>>,
    /// Total panics captured.
    panic_count: Mutex<usize>,
    /// First recorded failure per clip.
    clip_failures: Mutex<BTreeMap<usize, ClipFailure>>,
    /// First watchdog stall per stream.
    stalls: Mutex<Vec<Option<StallReport>>>,
}

impl HealthBoard {
    pub fn new(streams: usize) -> Self {
        HealthBoard {
            panics: Mutex::new((0..streams).map(|_| None).collect()),
            panic_count: Mutex::new(0),
            clip_failures: Mutex::new(BTreeMap::new()),
            stalls: Mutex::new((0..streams).map(|_| None).collect()),
        }
    }

    /// Record a watchdog stall of `stream` (first one wins).
    pub fn record_stall(&self, stream: usize, stage: StageName, reason: String) {
        self.stalls.lock()[stream].get_or_insert(StallReport { stage, reason });
    }

    /// The first recorded watchdog stall of `stream`, if any.
    pub fn stall_of(&self, stream: usize) -> Option<StallReport> {
        self.stalls.lock()[stream].clone()
    }

    /// Record a captured stage panic for `stream` (first one wins for
    /// attribution; all are counted).
    pub fn record_panic(&self, stream: usize, stage: StageName, reason: String) {
        *self.panic_count.lock() += 1;
        let mut panics = self.panics.lock();
        panics[stream].get_or_insert(PanicReport { stage, reason });
    }

    /// Record a recoverable failure of `clip` (first one wins).
    pub fn record_clip_failure(
        &self,
        clip: usize,
        stage: StageName,
        reason: String,
        recoverable: bool,
    ) {
        self.clip_failures
            .lock()
            .entry(clip)
            .or_insert(ClipFailure {
                stage,
                reason,
                recoverable,
            });
    }

    /// The captured panic of `stream`, if any.
    pub fn panic_of(&self, stream: usize) -> Option<PanicReport> {
        self.panics.lock()[stream].clone()
    }

    /// The recorded failure of `clip`, if any.
    pub fn failure_of(&self, clip: usize) -> Option<ClipFailure> {
        self.clip_failures.lock().get(&clip).cloned()
    }

    /// Total captured panics.
    pub fn panic_count(&self) -> usize {
        *self.panic_count.lock()
    }
}

thread_local! {
    /// Whether the current thread is running a supervised poll: its
    /// panics are captured and reported through the health board, so
    /// the default print-to-stderr panic hook is suppressed for it.
    static SUPERVISED: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that stays silent for
/// supervised polls and delegates to the previous hook for
/// everything else — `#[should_panic]` tests and genuine crashes keep
/// their diagnostics.
fn install_supervised_panic_hook() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !SUPERVISED.with(Cell::get) {
                prev(info);
            }
        }));
    });
}

/// Stringify a caught panic payload.
fn payload_message(payload: Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run one stream-task poll under panic supervision: a panic is caught
/// (the default hook stays silent for it) and returned as its
/// stringified payload, so the caller can record it on the health board
/// against the running stage step and retire the task; a clean poll's
/// result passes through.
pub(crate) fn supervise<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_supervised_panic_hook();
    SUPERVISED.with(|s| s.set(true));
    let result = catch_unwind(AssertUnwindSafe(f));
    SUPERVISED.with(|s| s.set(false));
    result.map_err(payload_message)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_fires_at_exact_coordinates_only() {
        let plan = FaultPlan::panic_at(StageName::Detect, 2, 5);
        assert!(plan.fire(StageName::Detect, 2, 5).is_some());
        assert!(plan.fire(StageName::Detect, 2, 4).is_none());
        assert!(plan.fire(StageName::Detect, 1, 5).is_none());
        assert!(plan.fire(StageName::Window, 2, 5).is_none());
        assert!(FaultPlan::none().fire(StageName::Decode, 0, 0).is_none());
    }

    #[test]
    fn plan_parse_round_trips_the_cli_syntax() {
        let plan = FaultPlan::parse("decode:error:0:2,track:panic:3:1").unwrap();
        assert_eq!(plan.specs().len(), 2);
        assert_eq!(plan.specs()[0].stage, StageName::Decode);
        assert_eq!(plan.specs()[0].kind, FaultKind::Error);
        assert_eq!(plan.specs()[0].clip, 0);
        assert_eq!(plan.specs()[0].frame, 2);
        assert_eq!(plan.specs()[1].kind, FaultKind::Panic);
        assert!(FaultPlan::parse("decode:error:0").is_err());
        assert!(FaultPlan::parse("decode:boom:0:1").is_err());
        assert!(FaultPlan::parse("nostage:error:0:1").is_err());
        assert!(FaultPlan::parse("decode:error:x:1").is_err());
    }

    #[test]
    fn supervise_captures_panics_without_propagating() {
        let outcome = supervise(|| -> usize {
            panic!("boom in window");
        });
        assert!(outcome.unwrap_err().contains("boom in window"));
        assert_eq!(supervise(|| 7usize), Ok(7));
    }

    #[test]
    fn first_clip_failure_wins_but_all_panics_count() {
        let health = HealthBoard::new(1);
        health.record_clip_failure(3, StageName::Decode, "first".into(), true);
        health.record_clip_failure(3, StageName::Track, "second".into(), false);
        let f = health.failure_of(3).unwrap();
        assert_eq!(f.stage, StageName::Decode);
        assert!(f.recoverable);
        health.record_panic(0, StageName::Decode, "a".into());
        health.record_panic(0, StageName::Track, "b".into());
        assert_eq!(health.panic_count(), 2);
        assert_eq!(health.panic_of(0).unwrap().stage, StageName::Decode);
    }
}
