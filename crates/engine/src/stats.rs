//! Engine observability: lock-free counters updated by the stream
//! tasks, snapshotted into a serializable [`EngineStats`] at
//! the end of a run — including per-stream health and the exact list
//! of failed clips.

use crate::fault::{PanicReport, StageName};
use crate::timeline::StallSeconds;
use otif_cv::{Component, CostLedger};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Live atomic counters shared by all stream tasks of a run.
#[derive(Debug, Default)]
pub struct EngineCounters {
    /// Frames consumed by the tracker (pipeline exit), journaled clips'
    /// frames included.
    pub frames_tracked: AtomicU64,
    /// Cooperative yields — a budget-exhausted stream task handing its
    /// worker back.
    pub stream_yields: AtomicU64,
    in_flight: AtomicU64,
    max_in_flight: AtomicU64,
    peak_os_threads: AtomicU64,
    clips_finished: AtomicU64,
}

impl EngineCounters {
    /// Record a clip finishing in-stream. The 1st, 2nd, 4th, 8th, …
    /// finished clip samples the OS thread count: the worker pool is
    /// fixed for the run, so a few samples see it whole, while each
    /// sample reads `/proc`.
    pub fn clip_finished(&self) {
        let done = self.clips_finished.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_power_of_two() {
            self.sample_os_threads();
        }
    }

    /// Record a frame entering the pipeline (decoded).
    pub fn frame_entered(&self) {
        let now = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_in_flight.fetch_max(now, Ordering::Relaxed);
    }

    /// Record a frame leaving the pipeline (tracked or dropped).
    pub fn frame_exited(&self) {
        self.in_flight.fetch_sub(1, Ordering::Relaxed);
    }

    /// Sample the process's current OS thread count into the peak
    /// gauge — the oversubscription guard for the fixed worker pool.
    /// One /proc readdir (a few µs), taken around the pool's run and at
    /// about log₂(clips) clip ends ([`Self::clip_finished`]).
    pub fn sample_os_threads(&self) {
        #[cfg(target_os = "linux")]
        if let Ok(entries) = std::fs::read_dir("/proc/self/task") {
            let n = entries.count() as u64;
            self.peak_os_threads.fetch_max(n, Ordering::Relaxed);
        }
    }

    /// Peak sampled OS thread count (0 if never sampled or unsupported).
    pub fn peak_os_threads(&self) -> u64 {
        self.peak_os_threads.load(Ordering::Relaxed)
    }
}

/// Simulated seconds spent per execution stage.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct StageSeconds {
    /// Video decode (CPU).
    pub decode: f64,
    /// Segmentation proxy inference (GPU).
    pub proxy: f64,
    /// Detector inference (GPU) — pixel cost plus batched launches.
    pub detector: f64,
    /// Tracker matching + stitch (CPU).
    pub tracker: f64,
    /// Track refinement (CPU).
    pub refinement: f64,
}

impl StageSeconds {
    /// Sum over all stages.
    pub fn total(&self) -> f64 {
        self.decode + self.proxy + self.detector + self.tracker + self.refinement
    }
}

/// Per-stream completion status for one engine run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StreamStatus {
    /// Stream index.
    pub stream: usize,
    /// Clips assigned to this stream (round-robin).
    pub clips_assigned: usize,
    /// Clips the stream completed during the streaming run.
    pub clips_completed: usize,
    /// Clips the stream failed (before any sequential retry).
    pub clips_failed: usize,
    /// The first captured stage panic of this stream, if any.
    pub panicked: Option<PanicReport>,
}

impl StreamStatus {
    /// Whether the stream completed every assigned clip without a
    /// panic.
    pub fn healthy(&self) -> bool {
        self.clips_failed == 0 && self.panicked.is_none()
    }
}

/// One clip that failed during the streaming run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailedClip {
    /// Global clip index.
    pub clip: usize,
    /// Stream the clip was assigned to.
    pub stream: usize,
    /// Stage the failure is attributed to.
    pub stage: StageName,
    /// Failure description (injected reason or panic payload).
    pub reason: String,
    /// Whether the sequential fallback retry recovered the clip.
    pub recovered: bool,
}

/// Snapshot of one engine run, serializable into bench artifacts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineStats {
    /// Number of streams the run used.
    pub streams: usize,
    /// Number of clips processed.
    pub clips: usize,
    /// Frames that completed the whole pipeline.
    pub frames: u64,
    /// Peak number of frames in flight across all streams.
    pub max_frames_in_flight: u64,
    /// Batched detector invocations.
    pub batches: u64,
    /// Windows carried by those invocations.
    pub batch_items: u64,
    /// Mean windows per batched invocation (flushed chunks only;
    /// discarded tickets are excluded and counted separately).
    pub mean_batch_occupancy: f64,
    /// Tickets submitted but never flushed (stream died while its
    /// ticket was pending) — excluded from occupancy and charges.
    pub discarded_tickets: u64,
    /// Windows carried by those discarded tickets.
    pub discarded_items: u64,
    /// Simulated seconds per stage.
    pub stage_seconds: StageSeconds,
    /// Critical-path makespan of the run under the pipelined
    /// virtual-time model (plus sequential retry seconds, which run
    /// after the streaming portion). This is the headline throughput
    /// number; the serial charge sum is `serial_seconds`.
    pub execution_seconds: f64,
    /// Serial sum of all execution-stage charges — the ledger's
    /// `execution_total`, identical to the pre-pipelining
    /// `execution_seconds` and bitwise independent of `prefetch_frames`.
    pub serial_seconds: f64,
    /// Decode-ahead window the run used (frames per stream).
    pub prefetch_frames: usize,
    /// Per-stage stall accounts from the pipelined replay.
    pub stall_seconds: StallSeconds,
    /// `serial_seconds / execution_seconds` (1.0 when degenerate).
    pub pipeline_speedup: f64,
    /// Clips that failed during the streaming run (counted before any
    /// sequential retry; a retried clip still counts here).
    pub failed_clips: usize,
    /// Failed clips recovered by the sequential fallback retry.
    pub retried_clips: usize,
    /// Individual retry attempts run (today the sequential fallback is
    /// infallible, so this equals `retried_clips`; the backoff budget
    /// allows more).
    pub retry_attempts: u64,
    /// Virtual seconds of deterministic retry backoff scheduled
    /// (`retry_backoff_base * 2^k` per attempt k) — included in
    /// `execution_seconds`, never in the ledger sums.
    pub retry_backoff_seconds: f64,
    /// Stage panics captured by the supervision shim.
    pub panics: usize,
    /// Exactly which clips failed, where, and whether they recovered.
    pub failures: Vec<FailedClip>,
    /// Per-stream completion status.
    pub stream_status: Vec<StreamStatus>,
    /// Simulated seconds charged by clips that then failed — work the
    /// run performed but discarded from the cost accounting.
    pub wasted_seconds: f64,
    /// Share of `stage_seconds.detector` that is batched launch
    /// overhead (the cross-stream shared cost; the rest is per-clip
    /// pixel cost).
    pub launch_seconds: f64,
    /// Detector execution mode the run used (`"off"`, `"looped"` or
    /// `"batched"` — see [`DetectorExec`](crate::exec::DetectorExec)).
    pub detector_exec: String,
    /// Wall-clock (not simulated) seconds spent in surrogate detector
    /// forward passes; 0 when execution is off.
    pub detector_wall_seconds: f64,
    /// Surrogate forward passes run (a batched pass counts once).
    pub detector_forwards: u64,
    /// Windows executed across those forward passes.
    pub detector_exec_windows: u64,
    /// FNV-1a digest over the surrogate outputs of all completed clips
    /// (clip order, then frame-ordinal, then window order). Identical
    /// between looped and batched runs by the bitwise-kernel contract;
    /// 0 when execution is off.
    pub detector_digest: u64,
    /// Clips a resumed run replayed from the run journal instead of
    /// recomputing (0 on fresh runs).
    pub resumed_clips_skipped: usize,
    /// Clips a resumed run had to recompute (they were unacknowledged
    /// at the crash, or their checkpoint failed recovery; 0 on fresh
    /// runs).
    pub resumed_clips_recomputed: usize,
    /// Clips durably checkpointed to the run journal this run (0 when
    /// the run is unjournaled).
    pub clips_checkpointed: u64,
    /// Checkpoint attempts that failed (the clip still completes
    /// in-memory; it is simply not acknowledged and will be recomputed
    /// by a future resume).
    pub checkpoint_failures: u64,
    /// Worker threads the task pool used (0 for pre-task-engine stats).
    pub workers: usize,
    /// Admission cap on concurrently active streams (equals `streams`
    /// when admission control is off).
    pub max_active_streams: usize,
    /// Peak number of runnable (queued) tasks observed by the worker
    /// pool — how deep the ready queue got.
    pub peak_runnable_tasks: u64,
    /// Tasks stolen across worker-local deques.
    pub task_steals: u64,
    /// Total task polls the pool executed.
    pub task_polls: u64,
    /// Cooperative yields of the stream tasks.
    pub stream_yields: u64,
    /// Peak OS thread count sampled during the run (the
    /// oversubscription guard; 0 when never sampled).
    pub peak_os_threads: u64,
}

/// The deterministic subset of [`EngineStats`], with every `f64` as its
/// exact bit pattern: what an interrupted-and-resumed run must
/// reproduce byte-for-byte against an uninterrupted run (for
/// healthy-compute runs). Excludes inherently racy observability
/// (in-flight peaks, wall-clock surrogate timings) and
/// the resume/checkpoint bookkeeping itself.
#[derive(Debug, PartialEq, Eq, Serialize, Deserialize)]
struct DeterministicStats {
    streams: usize,
    clips: usize,
    frames: u64,
    batches: u64,
    batch_items: u64,
    mean_batch_occupancy: u64,
    stage_seconds: [u64; 5],
    execution_seconds: u64,
    serial_seconds: u64,
    prefetch_frames: usize,
    stall_seconds: [u64; 3],
    pipeline_speedup: u64,
    failed_clips: usize,
    retried_clips: usize,
    retry_attempts: u64,
    retry_backoff_seconds: u64,
    launch_seconds: u64,
    detector_exec: String,
    detector_digest: u64,
}

impl EngineStats {
    /// Build a snapshot from a run's counters and its private ledger.
    pub fn snapshot(
        streams: usize,
        clips: usize,
        counters: &EngineCounters,
        ledger: &CostLedger,
    ) -> Self {
        let batch = ledger.batch_stats();
        EngineStats {
            streams,
            clips,
            frames: counters.frames_tracked.load(Ordering::Relaxed),
            max_frames_in_flight: counters.max_in_flight.load(Ordering::Relaxed),
            batches: batch.batches,
            batch_items: batch.items,
            mean_batch_occupancy: batch.mean_occupancy(),
            discarded_tickets: batch.discarded_tickets,
            discarded_items: batch.discarded_items,
            stage_seconds: StageSeconds {
                decode: ledger.get(Component::Decode),
                proxy: ledger.get(Component::Proxy),
                detector: ledger.get(Component::Detector),
                tracker: ledger.get(Component::Tracker),
                refinement: ledger.get(Component::Refinement),
            },
            execution_seconds: ledger.execution_total(),
            serial_seconds: ledger.execution_total(),
            prefetch_frames: 1,
            stall_seconds: StallSeconds::default(),
            pipeline_speedup: 1.0,
            failed_clips: 0,
            retried_clips: 0,
            retry_attempts: 0,
            retry_backoff_seconds: 0.0,
            panics: 0,
            failures: Vec::new(),
            stream_status: Vec::new(),
            wasted_seconds: 0.0,
            launch_seconds: 0.0,
            detector_exec: crate::exec::DetectorExec::Off.as_str().to_string(),
            detector_wall_seconds: 0.0,
            detector_forwards: 0,
            detector_exec_windows: 0,
            detector_digest: 0,
            resumed_clips_skipped: 0,
            resumed_clips_recomputed: 0,
            clips_checkpointed: 0,
            checkpoint_failures: 0,
            workers: 0,
            max_active_streams: 0,
            peak_runnable_tasks: 0,
            task_steals: 0,
            task_polls: 0,
            stream_yields: counters.stream_yields.load(Ordering::Relaxed),
            peak_os_threads: counters.peak_os_threads(),
        }
    }

    /// Whether every clip completed in the streaming run (no failures,
    /// no panics).
    pub fn healthy(&self) -> bool {
        self.failed_clips == 0 && self.panics == 0
    }

    /// Serialize the deterministic subset of this snapshot (every `f64`
    /// as its exact bit pattern). Two healthy-compute runs over the same
    /// inputs — including a crashed-and-resumed run against its
    /// uninterrupted twin — must produce byte-identical projections.
    pub fn deterministic_projection(&self) -> String {
        let s = &self.stage_seconds;
        let st = &self.stall_seconds;
        serde_json::to_string(&DeterministicStats {
            streams: self.streams,
            clips: self.clips,
            frames: self.frames,
            batches: self.batches,
            batch_items: self.batch_items,
            mean_batch_occupancy: self.mean_batch_occupancy.to_bits(),
            stage_seconds: [
                s.decode.to_bits(),
                s.proxy.to_bits(),
                s.detector.to_bits(),
                s.tracker.to_bits(),
                s.refinement.to_bits(),
            ],
            execution_seconds: self.execution_seconds.to_bits(),
            serial_seconds: self.serial_seconds.to_bits(),
            prefetch_frames: self.prefetch_frames,
            stall_seconds: [
                st.decode_starved.to_bits(),
                st.batcher_wait.to_bits(),
                st.channel_backpressure.to_bits(),
            ],
            pipeline_speedup: self.pipeline_speedup.to_bits(),
            failed_clips: self.failed_clips,
            retried_clips: self.retried_clips,
            retry_attempts: self.retry_attempts,
            retry_backoff_seconds: self.retry_backoff_seconds.to_bits(),
            launch_seconds: self.launch_seconds.to_bits(),
            detector_exec: self.detector_exec.clone(),
            detector_digest: self.detector_digest,
        })
        .expect("deterministic stats projection serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_gauge_tracks_peak() {
        let c = EngineCounters::default();
        c.frame_entered();
        c.frame_entered();
        c.frame_entered();
        c.frame_exited();
        assert_eq!(c.in_flight.load(Ordering::Relaxed), 2);
        c.frame_entered();
        let s = EngineStats::snapshot(1, 1, &c, &CostLedger::new());
        assert_eq!(s.max_frames_in_flight, 3);
    }

    #[test]
    fn snapshot_reads_ledger_components() {
        let c = EngineCounters::default();
        let l = CostLedger::new();
        l.charge(Component::Decode, 1.0);
        l.charge_batch(Component::Detector, 0.5, 4);
        l.charge_batch(Component::Detector, 0.5, 2);
        let s = EngineStats::snapshot(2, 3, &c, &l);
        assert_eq!(s.streams, 2);
        assert_eq!(s.batches, 2);
        assert!((s.mean_batch_occupancy - 3.0).abs() < 1e-12);
        assert!((s.stage_seconds.decode - 1.0).abs() < 1e-12);
        assert!((s.execution_seconds - 2.0).abs() < 1e-12);
        assert!((s.stage_seconds.total() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn stats_serialize_round_trip() {
        let mut s = EngineStats::snapshot(4, 8, &EngineCounters::default(), &CostLedger::new());
        assert!(s.healthy());
        s.failed_clips = 1;
        s.retried_clips = 1;
        s.panics = 1;
        s.failures.push(FailedClip {
            clip: 3,
            stream: 1,
            stage: StageName::Decode,
            reason: "injected".into(),
            recovered: true,
        });
        s.stream_status.push(StreamStatus {
            stream: 1,
            clips_assigned: 2,
            clips_completed: 1,
            clips_failed: 1,
            panicked: Some(PanicReport {
                stage: StageName::Detect,
                reason: "boom".into(),
            }),
        });
        assert!(!s.healthy());
        assert!(!s.stream_status[0].healthy());
        let json = serde_json::to_string(&s).unwrap();
        // exact key:value shapes keep the stats JSON greppable from CI
        assert!(json.contains("\"failed_clips\":1"), "{json}");
        assert!(json.contains("\"stage\":\"Decode\""), "{json}");
        let back: EngineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back.streams, 4);
        assert_eq!(back.clips, 8);
        assert_eq!(back.failures, s.failures);
        assert_eq!(back.stream_status, s.stream_status);
    }
}
