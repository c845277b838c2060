//! # otif-engine — multi-stream streaming execution engine
//!
//! OTIF's deployment setting (§3.2) processes *many* video streams at
//! once on shared GPUs, and gets its throughput from batching detector
//! invocations across streams. This crate is that executor for the
//! simulated pipeline: each stream is one resumable task (`tasks`)
//! that runs decode → window selection → detection → tracking frame by
//! frame, polled by a fixed work-stealing worker pool
//! ([`otif_core::evalpool`]) — a thousand streams run on
//! [`EngineOptions::workers`] OS threads with bounded memory, and
//! [`EngineOptions::max_active_streams`] caps how many streams are
//! admitted concurrently. All streams share a [`DetectorBatcher`] that
//! coalesces same-size windows into batched invocations — charging one
//! launch overhead per batch instead of per frame through the
//! [`CostLedger`](otif_cv::CostLedger) batched path.
//!
//! Determinism is the design constraint: every per-clip result is
//! byte-identical to the sequential [`Pipeline`](otif_core::Pipeline),
//! and all cost accounting is independent of scheduling interleaving —
//! worker count included (the batcher settles its rounds after the run
//! from the per-stream ticket sequences — round *r* takes the next
//! ticket of every live admitted stream — so round contents are a pure
//! function of those sequences).
//!
//! The engine is fault-tolerant: every stream task is polled under a
//! panic-isolating supervisor, a panicking stage step takes down at
//! most its own stream, recoverable per-clip failures are retried
//! through the sequential pipeline, and [`Engine::run`] reports per-clip
//! [`ClipOutcome`]s and per-stream health instead of panicking.
//! Deterministic fault injection ([`FaultPlan`]) makes all of this
//! testable: the determinism guarantees extend to faulted runs.
//!
//! Execution time is reported two ways: `serial_seconds` is the plain
//! sum of all stage charges, while `execution_seconds` is the
//! *makespan* of the pipelined virtual-time model ([`timeline`]): the
//! decode stage runs ahead of the detector by a per-stream prefetch
//! window ([`EngineOptions::prefetch_frames`]), each stage's clock
//! advances independently, and batcher rounds stamp detector completion
//! times. The gap between the two is accounted per stage in
//! [`StallSeconds`]. Charges never move, so every ledger sum is bitwise
//! identical across prefetch settings.
//!
//! Entry point: [`Engine::run`]. Observability: [`EngineStats`].

pub mod batcher;
pub mod exec;
pub mod fault;
pub mod journal;
pub mod scheduler;
pub(crate) mod stage;
pub mod stats;
pub(crate) mod tasks;
pub mod timeline;

pub use batcher::{DetectorBatcher, PollSubmit, RoundRecord, SubmitError, Ticket};
pub use exec::{DetectorExec, DetectorExecHarness};
pub use fault::{FaultKind, FaultPlan, FaultSpec, PanicReport, StageName};
pub use journal::replay as replay_run_journal;
pub use journal::{
    ClipRecord, FrameRecord, RunJournal, RunManifest, RunReplay, RUN_CLIPS_DIR, RUN_JOURNAL_FILE,
    RUN_MANIFEST_FILE,
};
pub use scheduler::{
    retry_backoff, run_manifest, ClipOutcome, Engine, EngineOptions, EngineRun, RunSession,
};
pub use stats::{EngineCounters, EngineStats, FailedClip, StageSeconds, StreamStatus};
pub use timeline::StallSeconds;
