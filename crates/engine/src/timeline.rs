//! Pipelined virtual-time model: a deterministic post-run replay that
//! turns the per-frame charges recorded during a run into the
//! *makespan* of an overlapped pipeline, plus per-stage stall accounts.
//!
//! The engine's ledger sums are a serial total — every stage's charge
//! added up as if nothing overlapped. Real deployments (PAPER §3.2)
//! overlap decode, proxy and detector work, so the number that matters
//! for throughput is the critical path: per stream and per stage, each
//! clock advances independently and a frame's completion time is
//! `max(ready_time_of_inputs, stage_clock) + charge`.
//!
//! The replay is *not* computed by the live stream tasks (wall-clock
//! interleaving must never leak into reported seconds). Instead the
//! stage steps record their per-frame charges (see
//! [`ClipTimeline`]) and the batcher records each stream's tickets;
//! after the worker pool drains, the batcher settles them into rounds
//! (see [`RoundRecord`](crate::batcher::RoundRecord)) and [`replay`]
//! recomputes completion times single-threadedly from
//! those records, which are themselves pure functions of the inputs.
//! Charges never move — only the completion-time model is new — so
//! every ledger sum stays bitwise identical to the serial model.
//!
//! Model, per stream:
//!
//! - **decode**: frame `j` may not start decoding until frame
//!   `j - prefetch` has left the pipeline (been tracked) — the decode
//!   prefetch window. `prefetch = 1` degenerates to today's serial
//!   rendezvous; larger windows let decode run ahead of the detector.
//!   Time decode spends blocked on that gate is
//!   [`StallSeconds::channel_backpressure`].
//! - **window**: starts at `max(window_clock, decode_done)`; time spent
//!   idle awaiting a decoded frame is [`StallSeconds::decode_starved`].
//! - **detect**: ticketed frames complete when their batch round does.
//!   A round starts at `max(detector_clock, latest member's
//!   window_done)` and runs for its recorded launch + pixel charges;
//!   each member's wait from window_done to round start is
//!   [`StallSeconds::batcher_wait`]. Frames with no windows pass
//!   through with zero charge, in stream order.
//! - **track**: starts at `max(track_clock, detect_done)`; clip
//!   finalization (stitch + refine) extends the track clock before the
//!   next clip's frames are consumed.
//!
//! Only clips that completed *in-stream* are replayed: a failed clip's
//! charges are discarded from the ledger (`wasted_seconds`), so they
//! must not shape the reported makespan either — the replay models the
//! work the run kept, and the completed set and the surviving ticket
//! sequences are deterministic under injected faults.

use crate::batcher::RoundRecord;
use serde::{Deserialize, Serialize};

/// Per-frame charges recorded by the stage loops for one clip, indexed
/// by sampled-frame ordinal. Only complete recordings (every frame of
/// the clip passed every stage) are replayed, so all vectors have the
/// clip's sampled-frame length for any clip the replay looks at.
#[derive(Debug, Default)]
pub struct ClipTimeline {
    /// Decode seconds per frame.
    pub decode: Vec<f64>,
    /// Window-selection (proxy) seconds per frame.
    pub window: Vec<f64>,
    /// Detector pixel seconds per frame; `None` for frames with no
    /// windows (they bypass the batcher entirely).
    pub detect_px: Vec<Option<f64>>,
    /// Rounded detector window sizes per frame — the sizes the frame's
    /// batcher ticket carried (empty for ticketless frames). Not part
    /// of the replay; recorded so a run-journal checkpoint can
    /// reproduce the ticket stream on resume.
    pub sizes: Vec<Vec<(u32, u32)>>,
    /// Tracker step seconds per frame.
    pub track: Vec<f64>,
    /// Clip finalization seconds (track stitch + refinement), charged
    /// after the last frame.
    pub finalize: f64,
    /// Running FNV-1a digest over the clip's surrogate detector outputs
    /// (frame-ordinal, then window order), recorded by the detect stage
    /// when a [`DetectorExec`](crate::exec::DetectorExec) mode is on;
    /// stays 0 when execution is off. Not part of the replay — it is
    /// the per-clip half of the batched≡looped bitwise contract.
    pub detect_digest: u64,
}

impl ClipTimeline {
    /// Whether every per-frame vector recorded exactly `frames` frames.
    pub(crate) fn complete(&self, frames: usize) -> bool {
        self.decode.len() == frames
            && self.window.len() == frames
            && self.detect_px.len() == frames
            && self.sizes.len() == frames
            && self.track.len() == frames
    }
}

/// Simulated seconds each stage spent stalled — the gap between the
/// serial charge sum and the pipelined makespan, attributed to the
/// three ways a stage goes idle. These are per-stage accounts, not a
/// partition of `serial - makespan` (overlapped work also shrinks the
/// gap without stalling anything).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StallSeconds {
    /// Window stage idle, waiting for a decoded frame.
    pub decode_starved: f64,
    /// Detector tickets waiting for their cross-stream batch round to
    /// gather (in virtual time, whatever the detector mode).
    pub batcher_wait: f64,
    /// Decode idle because its prefetch window was full — the frame
    /// `prefetch` positions back had not yet left the pipeline.
    pub channel_backpressure: f64,
}

impl StallSeconds {
    /// Sum over all stall accounts.
    pub fn total(&self) -> f64 {
        self.decode_starved + self.batcher_wait + self.channel_backpressure
    }
}

/// The replay's outputs: the critical-path makespan of the streaming
/// portion of a run, and where time stalled.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOutcome {
    /// Completion time of the last stage clock (simulated seconds).
    pub makespan: f64,
    /// Per-stage stall accounts.
    pub stalls: StallSeconds,
}

/// One frame of a stream's flattened (clip-concatenated) frame
/// sequence.
struct FrameSim {
    decode: f64,
    window: f64,
    detect_px: Option<f64>,
    track: f64,
    /// Finalization charge applied after this frame's track step
    /// (non-zero only on a clip's last frame).
    finalize: f64,
}

/// Per-stream virtual clocks and completion times, advanced lazily as
/// the round log demands.
struct StreamSim {
    frames: Vec<FrameSim>,
    decode_clock: f64,
    window_clock: f64,
    detect_clock: f64,
    track_clock: f64,
    next_window: usize,
    next_detect: usize,
    next_track: usize,
    window_done: Vec<f64>,
    detect_done: Vec<f64>,
    track_done: Vec<f64>,
}

impl StreamSim {
    fn new(frames: Vec<FrameSim>) -> Self {
        let n = frames.len();
        StreamSim {
            frames,
            decode_clock: 0.0,
            window_clock: 0.0,
            detect_clock: 0.0,
            track_clock: 0.0,
            next_window: 0,
            next_detect: 0,
            next_track: 0,
            window_done: vec![0.0; n],
            detect_done: vec![0.0; n],
            track_done: vec![0.0; n],
        }
    }

    /// Advance decode + window through frame `upto` (inclusive).
    fn ensure_windowed(&mut self, upto: usize, prefetch: usize, stalls: &mut StallSeconds) {
        while self.next_window <= upto {
            let k = self.next_window;
            // Decode-ahead gate: frame k may not be decoded before
            // frame k - prefetch has left the pipeline.
            let gate = if k >= prefetch {
                self.ensure_tracked(k - prefetch, stalls);
                self.track_done[k - prefetch]
            } else {
                0.0
            };
            if gate > self.decode_clock {
                stalls.channel_backpressure += gate - self.decode_clock;
            }
            let decode_done = gate.max(self.decode_clock) + self.frames[k].decode;
            self.decode_clock = decode_done;
            if decode_done > self.window_clock {
                stalls.decode_starved += decode_done - self.window_clock;
            }
            self.window_done[k] = decode_done.max(self.window_clock) + self.frames[k].window;
            self.window_clock = self.window_done[k];
            self.next_window = k + 1;
        }
    }

    /// Advance detect through frame `upto` (inclusive) for frames that
    /// carry no ticket (pass-through, zero charge). Ticketed frames are
    /// completed by their round in [`replay`], never here.
    fn ensure_detected(&mut self, upto: usize) {
        while self.next_detect <= upto {
            let k = self.next_detect;
            debug_assert!(
                self.frames[k].detect_px.is_none(),
                "ticketed frame must be completed by its batch round"
            );
            let done = self.detect_clock.max(self.window_done[k]);
            self.detect_done[k] = done;
            self.detect_clock = done;
            self.next_detect = k + 1;
        }
    }

    /// Advance track through frame `upto` (inclusive).
    fn ensure_tracked(&mut self, upto: usize, _stalls: &mut StallSeconds) {
        while self.next_track <= upto {
            let k = self.next_track;
            if k >= self.next_detect {
                self.ensure_detected(k);
            }
            // A clip's finalization (stitch + refine) happens in the
            // track stage before it consumes anything further, so the
            // last frame's exit — which the decode prefetch gate
            // watches — includes it. This is also what makes
            // `prefetch = 1` degenerate exactly to the serial sum.
            // Track starts at the frame's *own* detect completion (the
            // per-stream `detect_done` is monotone, and `track_clock`
            // already enforces in-order consumption); gating on the
            // stream's latest detect event instead would let lazy
            // evaluation order leak into the model.
            self.track_done[k] = self.detect_done[k].max(self.track_clock)
                + self.frames[k].track
                + self.frames[k].finalize;
            self.track_clock = self.track_done[k];
            self.next_track = k + 1;
        }
    }
}

/// Replay a run's recorded charges under the pipelined model.
///
/// `assignments[s]` lists stream `s`'s clips as global indices in
/// processing order; `completed[clip]` marks clips that finished
/// in-stream (failed clips are excluded from the replay exactly as
/// their charges are excluded from the ledger); `frame_counts[clip]`
/// is the clip's sampled-frame count; `rounds` is the batcher's
/// settled round log in round order. `prefetch` is clamped to ≥ 1.
pub(crate) fn replay(
    assignments: &[Vec<usize>],
    completed: &[bool],
    frame_counts: &[usize],
    timelines: &[parking_lot::Mutex<ClipTimeline>],
    rounds: &[RoundRecord],
    prefetch: usize,
) -> ReplayOutcome {
    let prefetch = prefetch.max(1);
    // clip → (stream, flattened index of its first frame) for surviving
    // clips, so round tickets can be mapped back onto stream clocks.
    let mut located: Vec<Option<(usize, usize)>> = vec![None; frame_counts.len()];
    let mut sims: Vec<StreamSim> = Vec::with_capacity(assignments.len());
    for (s, assigned) in assignments.iter().enumerate() {
        let mut frames: Vec<FrameSim> = Vec::new();
        for &clip in assigned {
            if !completed[clip] {
                continue;
            }
            let t = timelines[clip].lock();
            if !t.complete(frame_counts[clip]) {
                // Defensive: a clip marked completed must have a full
                // recording; skip rather than misalign the replay.
                debug_assert!(false, "completed clip {clip} has a partial timeline");
                continue;
            }
            located[clip] = Some((s, frames.len()));
            for o in 0..frame_counts[clip] {
                frames.push(FrameSim {
                    decode: t.decode[o],
                    window: t.window[o],
                    detect_px: t.detect_px[o],
                    track: t.track[o],
                    finalize: if o + 1 == frame_counts[clip] {
                        t.finalize
                    } else {
                        0.0
                    },
                });
            }
        }
        sims.push(StreamSim::new(frames));
    }

    let mut stalls = StallSeconds::default();
    let mut detector_clock = 0.0f64;
    for round in rounds {
        // Tickets of failed clips contributed no surviving pixel
        // charges (their ledgers were discarded), but the round's
        // launch overhead was charged to the shared ledger and is
        // replayed as recorded.
        let members: Vec<(usize, usize)> = round
            .tickets
            .iter()
            .filter_map(|t| {
                let (s, base) = (*located.get(t.clip)?)?;
                (t.ordinal < frame_counts[t.clip]).then_some((s, base + t.ordinal))
            })
            .collect();
        let mut start = detector_clock;
        for &(s, j) in &members {
            sims[s].ensure_windowed(j, prefetch, &mut stalls);
            start = start.max(sims[s].window_done[j]);
        }
        let pixel: f64 = members
            .iter()
            .map(|&(s, j)| {
                sims[s].frames[j]
                    .detect_px
                    .expect("round member frame carries a pixel charge")
            })
            .sum();
        let end = start + round.launch_seconds + pixel;
        for &(s, j) in &members {
            stalls.batcher_wait += start - sims[s].window_done[j];
            if j > 0 {
                sims[s].ensure_detected(j - 1);
            }
            sims[s].detect_done[j] = end;
            sims[s].detect_clock = sims[s].detect_clock.max(end);
            sims[s].next_detect = j + 1;
        }
        detector_clock = end;
    }

    // Drain: trailing frames (after each stream's last ticket) and
    // streams that never ticketed at all.
    let mut makespan = detector_clock;
    for sim in &mut sims {
        if let Some(last) = sim.frames.len().checked_sub(1) {
            sim.ensure_windowed(last, prefetch, &mut stalls);
            sim.ensure_tracked(last, &mut stalls);
        }
        makespan = makespan.max(sim.track_clock);
    }
    ReplayOutcome { makespan, stalls }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{RoundRecord, Ticket};
    use parking_lot::Mutex;

    fn timeline(decode: f64, window: f64, px: Option<f64>, track: f64, n: usize) -> ClipTimeline {
        ClipTimeline {
            decode: vec![decode; n],
            window: vec![window; n],
            detect_px: vec![px; n],
            sizes: vec![Vec::new(); n],
            track: vec![track; n],
            finalize: 0.0,
            detect_digest: 0,
        }
    }

    /// One stream at prefetch=1 with a per-frame round degenerates to
    /// the serial sum: every stage waits for the previous frame to
    /// fully exit.
    #[test]
    fn single_stream_prefetch_one_is_serial() {
        let n = 5usize;
        let t = timeline(2.0, 1.0, Some(3.0), 0.5, n);
        let timelines = vec![Mutex::new(t)];
        let rounds: Vec<RoundRecord> = (0..n)
            .map(|o| RoundRecord {
                tickets: vec![Ticket {
                    stream: 0,
                    clip: 0,
                    ordinal: o,
                    items: 1,
                    pixel_seconds: 3.0,
                }],
                launch_seconds: 0.25,
            })
            .collect();
        let out = replay(&[vec![0]], &[true], &[n], &timelines, &rounds, 1);
        let serial = n as f64 * (2.0 + 1.0 + 3.0 + 0.25 + 0.5);
        assert!(
            (out.makespan - serial).abs() < 1e-9,
            "makespan {} vs serial {serial}",
            out.makespan
        );
        // fully serial: decode waits for each frame to exit
        assert!(out.stalls.channel_backpressure > 0.0);
    }

    /// With a deep prefetch window the same stream overlaps decode
    /// against the detector: the makespan approaches the bottleneck
    /// stage instead of the sum.
    #[test]
    fn prefetch_overlaps_decode_with_detector() {
        let n = 8usize;
        let t = timeline(2.0, 0.0, Some(3.0), 0.1, n);
        let timelines = vec![Mutex::new(t)];
        let rounds: Vec<RoundRecord> = (0..n)
            .map(|o| RoundRecord {
                tickets: vec![Ticket {
                    stream: 0,
                    clip: 0,
                    ordinal: o,
                    items: 1,
                    pixel_seconds: 3.0,
                }],
                launch_seconds: 0.0,
            })
            .collect();
        let serial = replay(&[vec![0]], &[true], &[n], &timelines, &rounds, 1);
        let deep = replay(&[vec![0]], &[true], &[n], &timelines, &rounds, 64);
        assert!(
            deep.makespan < serial.makespan * 0.7,
            "{deep:?} vs {serial:?}"
        );
        // detector-bound: decode finishes ahead, tickets never wait on
        // a sibling, the window stage is the starved one
        assert!(deep.stalls.channel_backpressure < serial.stalls.channel_backpressure);
        // lower bound: the bottleneck stage's total work
        assert!(deep.makespan >= n as f64 * 3.0);
    }

    /// Failed clips are excluded: their frames shape neither the
    /// makespan nor the stalls, even when their tickets appear in the
    /// recorded rounds.
    #[test]
    fn failed_clips_are_excluded_from_replay() {
        let n = 4usize;
        let timelines = vec![
            Mutex::new(timeline(1.0, 0.0, Some(2.0), 0.5, n)),
            // failed clip recorded only partially
            Mutex::new(ClipTimeline {
                decode: vec![1.0; 2],
                ..ClipTimeline::default()
            }),
        ];
        let rounds: Vec<RoundRecord> = (0..n)
            .map(|o| RoundRecord {
                tickets: vec![
                    Ticket {
                        stream: 0,
                        clip: 0,
                        ordinal: o,
                        items: 1,
                        pixel_seconds: 2.0,
                    },
                    Ticket {
                        stream: 1,
                        clip: 1,
                        ordinal: o,
                        items: 1,
                        pixel_seconds: 2.0,
                    },
                ],
                launch_seconds: 0.5,
            })
            .collect();
        let with_failed = replay(
            &[vec![0], vec![1]],
            &[true, false],
            &[n, n],
            &timelines,
            &rounds,
            4,
        );
        // identical to a run where the failed clip's stream was empty
        let rounds_alone: Vec<RoundRecord> = (0..n)
            .map(|o| RoundRecord {
                tickets: vec![Ticket {
                    stream: 0,
                    clip: 0,
                    ordinal: o,
                    items: 1,
                    pixel_seconds: 2.0,
                }],
                launch_seconds: 0.5,
            })
            .collect();
        let timelines_alone = vec![Mutex::new(timeline(1.0, 0.0, Some(2.0), 0.5, n))];
        let alone = replay(
            &[vec![0]],
            &[true],
            &[n],
            &timelines_alone,
            &rounds_alone,
            4,
        );
        assert_eq!(with_failed.makespan, alone.makespan);
        assert_eq!(with_failed.stalls, alone.stalls);
    }

    /// Two streams sharing rounds: the batcher rendezvous shows up as
    /// batcher_wait on the faster stream.
    #[test]
    fn uneven_streams_accumulate_batcher_wait() {
        let n = 6usize;
        let timelines = vec![
            Mutex::new(timeline(1.0, 0.0, Some(1.0), 0.1, n)),
            Mutex::new(timeline(3.0, 0.0, Some(1.0), 0.1, n)),
        ];
        let rounds: Vec<RoundRecord> = (0..n)
            .map(|o| RoundRecord {
                tickets: (0..2)
                    .map(|s| Ticket {
                        stream: s,
                        clip: s,
                        ordinal: o,
                        items: 1,
                        pixel_seconds: 1.0,
                    })
                    .collect(),
                launch_seconds: 0.2,
            })
            .collect();
        let out = replay(
            &[vec![0], vec![1]],
            &[true, true],
            &[n, n],
            &timelines,
            &rounds,
            16,
        );
        // stream 0 decodes 3× faster; its tickets wait for stream 1
        assert!(out.stalls.batcher_wait > 0.0, "{:?}", out.stalls);
    }
}
