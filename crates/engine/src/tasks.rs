//! One resumable task per stream.
//!
//! A [`StreamTask`] walks its stream's clips in order and runs every
//! sampled frame through decode → window selection → detection →
//! tracking before it touches the next frame, handing each frame's
//! detector windows to the shared [`DetectorBatcher`] as a ticket. A
//! clip journaled by a previous run (`GhostMode::Stream`) is not walked:
//! the task splices its recorded tickets into the batcher in one call
//! and moves on. Outside `Batched` the batcher only records tickets —
//! the cross-stream rounds are settled after the run — so the task
//! runs up to [`FRAMES_PER_POLL`] frames per poll and then yields, and
//! a thousand streams share a handful of workers round-robin. It parks
//! ([`Polled::Pending`]) behind the admission gate while
//! `max_active_streams` defers the stream, and, only under
//! [`DetectorExec::Batched`], on a ticket whose round has not formed
//! (the batched surrogate forward needs the round's windows together).
//! The batcher wakes it through the one waker it holds per stream.
//!
//! Running one stream's stages in order costs no reported throughput:
//! makespan, stalls and prefetch come from the post-run
//! [`crate::timeline`] replay of the recorded charges, never from how
//! the host interleaves work. The charging code is the sequential
//! pipeline's (`otif_core::stages`); each charge lands in its frame's
//! per-clip ledger and timeline in ordinal order, so ledgers, round logs,
//! timelines and digests are bitwise independent of the worker count.
//!
//! Faults are addressed by `(stage, clip, ordinal)` at the start of each
//! stage step. A recoverable error fails its clip and moves the task on
//! to the stream's next clip. A panic is caught per poll, recorded
//! against the step that was running, and retires the stream. With a
//! stage timeout set, a step that runs past it is a watchdog stall: the
//! stream retires and the sequential retry heals its unfinished clips. In
//! `Batched` mode the pool's watchdog expires a task parked on its
//! ticket through [`PollTask::on_stall`] once no round has formed for a
//! whole timeout (a sibling wedged the round sequence). Dropping the
//! task, on completion, panic or expiry, finishes the stream at the
//! batcher.

use crate::batcher::{DetectorBatcher, PollSubmit};
use crate::exec::{DetectorExec, DetectorExecHarness};
use crate::fault::{supervise, StageName};
use crate::stage::{GhostMode, StageCtx};
use otif_core::evalpool::{PollTask, Polled};
use otif_core::stages::{
    charge_decode, charge_tracker_step, finalize_tracks, select_windows, FrameTracker,
};
use otif_core::{digest_tensor, fold_digest};
use otif_cv::{Component, Detection, SimDetector};
use otif_geom::Rect;
use otif_nn::Tensor3;
use otif_sim::{Clip, Renderer};
use otif_track::Track;
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Fairness budget: frames a stream task may process in one `poll`
/// before yielding the worker back to the pool.
const FRAMES_PER_POLL: usize = 32;

/// The sampled frame being processed.
#[derive(Clone, Copy)]
struct Frame<'a> {
    /// Index of the clip in the engine's global clip list.
    idx: usize,
    clip: &'a Clip,
    /// Frame number within the clip.
    frame: usize,
    /// 0-based ordinal of the clip's sampled frames.
    ordinal: usize,
    /// Whether this is the clip's last sampled frame.
    last: bool,
}

/// A frame parked on its unresolved batched-mode ticket.
struct Parked<'a> {
    at: Frame<'a>,
    windows: Vec<Rect>,
    /// Rounds formed at the park or at the watchdog's last look.
    rounds: usize,
}

/// How a frame's decode → window → detect steps ended.
enum Front<'a> {
    /// Detection finished; the frame goes on to the tracker.
    Detected(Vec<Detection>),
    /// The frame waits for its batched-mode round to form.
    Parked(Parked<'a>),
    /// A recoverable fault failed the clip.
    Dropped,
}

/// One stream's whole pipeline as a pollable state machine.
pub(crate) struct StreamTask<'a> {
    ctx: StageCtx<'a>,
    batcher: &'a DetectorBatcher,
    results: &'a Mutex<Vec<Option<Vec<Track>>>>,
    detector: SimDetector,
    /// Index into `ctx.clips` of the clip being streamed.
    clip_i: usize,
    /// Frame number and ordinal of the clip's next sampled frame.
    frame: usize,
    ordinal: usize,
    /// The current clip's tracker, created at its first tracked frame.
    tracker: Option<FrameTracker<'a>>,
    parked: Option<Parked<'a>>,
    /// Whether a frame holds an entry in the in-flight gauge.
    in_flight: bool,
    /// The stage step running now: a panic or stall is recorded
    /// against it.
    stage: StageName,
    /// When the running step began (tracked only with a stage timeout).
    step_start: Option<Instant>,
    /// First step that ran past the stage timeout.
    overrun: Option<StageName>,
}

impl<'a> StreamTask<'a> {
    pub(crate) fn new(
        ctx: StageCtx<'a>,
        batcher: &'a DetectorBatcher,
        results: &'a Mutex<Vec<Option<Vec<Track>>>>,
    ) -> Self {
        StreamTask {
            detector: SimDetector::new(ctx.config.detector, ctx.exec.detector_seed),
            ctx,
            batcher,
            results,
            clip_i: 0,
            frame: 0,
            ordinal: 0,
            tracker: None,
            parked: None,
            in_flight: false,
            stage: StageName::Decode,
            step_start: None,
            overrun: None,
        }
    }

    /// Enter `stage`'s step of the current frame.
    fn begin(&mut self, stage: StageName) {
        self.check_overrun();
        self.stage = stage;
    }

    /// Latch a watchdog overrun if the running step has taken longer
    /// than the stage timeout, and restart the step clock.
    fn check_overrun(&mut self) {
        let Some(limit) = self.ctx.stage_timeout else {
            return;
        };
        let now = Instant::now();
        if self.step_start.is_some_and(|start| now - start > limit) {
            self.overrun.get_or_insert(self.stage);
        }
        self.step_start = Some(now);
    }

    /// Whether a step overran the stage timeout; records the stall the
    /// first time. The caller retires the stream.
    fn wedged(&mut self) -> bool {
        self.check_overrun();
        match self.overrun {
            Some(stage) => {
                self.ctx.record_overrun(stage);
                true
            }
            None => false,
        }
    }

    /// The next sampled frame to process, splicing journaled clips and
    /// skipping clips that are not streamed this run; `None` once every
    /// clip is done.
    fn next_frame(&mut self) -> Option<Frame<'a>> {
        let gap = self.ctx.config.gap.max(1);
        loop {
            let &(idx, clip) = self.ctx.clips.get(self.clip_i)?;
            match self.ctx.ghost[idx] {
                GhostMode::Live if self.frame < clip.num_frames() => {
                    return Some(Frame {
                        idx,
                        clip,
                        frame: self.frame,
                        ordinal: self.ordinal,
                        last: self.frame + gap >= clip.num_frames(),
                    });
                }
                GhostMode::Stream => self.splice(idx),
                // A replayed retry clip is not streamed at all: the
                // scheduler replays its recorded accounting directly.
                GhostMode::Live | GhostMode::Skip => {}
            }
            self.next_clip();
        }
    }

    /// A journaled clip, whose ledger, timeline and result the scheduler
    /// pre-loaded: append its recorded tickets to the stream's batcher
    /// log, so the round sequence reproduces bitwise, and count its
    /// frames as tracked.
    fn splice(&mut self, idx: usize) {
        self.begin(StageName::Detect);
        let t = self.ctx.timelines[idx].lock();
        let recorded = (t.detect_px.iter().zip(&t.sizes).enumerate())
            .filter_map(|(ordinal, (px, sizes))| px.map(|px| (ordinal, sizes.clone(), px)))
            .collect();
        let frames = t.detect_px.len() as u64;
        drop(t);
        self.batcher
            .splice(self.ctx.stream, idx, recorded)
            .unwrap_or_else(|e| panic!("detect stage cannot batch: {e}"));
        let tracked = &self.ctx.counters.frames_tracked;
        tracked.fetch_add(frames, Ordering::Relaxed);
    }

    fn next_clip(&mut self) {
        self.clip_i += 1;
        self.frame = 0;
        self.ordinal = 0;
    }

    /// Release the current frame's in-flight gauge entry.
    fn exit_frame(&mut self) {
        if std::mem::take(&mut self.in_flight) {
            self.ctx.counters.frame_exited();
        }
    }

    /// A recoverable fault failed the current clip: drop its state and
    /// continue with the stream's next clip.
    fn drop_clip(&mut self) {
        self.exit_frame();
        self.tracker = None;
        self.next_clip();
    }

    fn advance(&mut self) -> Polled {
        if !self.batcher.is_admitted(self.ctx.stream) {
            return Polled::Pending;
        }
        self.step_start = self.ctx.stage_timeout.map(|_| Instant::now());
        let mut budget = FRAMES_PER_POLL;
        loop {
            if self.wedged() {
                return Polled::Done;
            }
            // A parked frame owns the task until its round forms
            // (batched mode only).
            let (at, dets) = if let Some(p) = self.parked.take() {
                match self.batcher.poll_pending(self.ctx.stream) {
                    Ok(PollSubmit::Pending) => {
                        self.parked = Some(p);
                        return Polled::Pending;
                    }
                    Ok(PollSubmit::Ready(formed)) => {
                        (p.at, self.detections(p.at, &p.windows, formed))
                    }
                    // A protocol violation is an engine bug and the
                    // stream cannot continue coherently: fail the whole
                    // stream (recorded as a panic; siblings keep going).
                    Err(e) => panic!("detect stage cannot batch: {e}"),
                }
            } else {
                if budget == 0 {
                    return Polled::Yielded;
                }
                let Some(at) = self.next_frame() else {
                    return Polled::Done;
                };
                budget -= 1;
                match self.front(at) {
                    Front::Detected(dets) => (at, dets),
                    Front::Parked(p) => {
                        self.parked = Some(p);
                        if self.wedged() {
                            return Polled::Done;
                        }
                        return Polled::Pending;
                    }
                    Front::Dropped => {
                        self.drop_clip();
                        continue;
                    }
                }
            };
            if !self.track(at, dets) {
                self.drop_clip();
                continue;
            }
            if at.last {
                self.next_clip();
            } else {
                self.frame += self.ctx.config.gap.max(1);
                self.ordinal += 1;
            }
        }
    }

    /// Decode and window the frame, then take it to the batcher.
    fn front(&mut self, at: Frame<'a>) -> Front<'a> {
        self.begin(StageName::Decode);
        if self.ctx.fire(StageName::Decode, at.idx, at.ordinal) {
            return Front::Dropped;
        }
        let ledger = &self.ctx.clip_ledgers[at.idx];
        let native_px = (at.clip.scene.width as f64) * (at.clip.scene.height as f64);
        let before = ledger.get(Component::Decode);
        charge_decode(self.ctx.config, self.ctx.exec, native_px, ledger);
        self.ctx.timelines[at.idx]
            .lock()
            .decode
            .push(ledger.get(Component::Decode) - before);
        self.ctx.counters.frame_entered();
        self.in_flight = true;

        self.begin(StageName::Window);
        if self.ctx.fire(StageName::Window, at.idx, at.ordinal) {
            return Front::Dropped;
        }
        let before = ledger.get(Component::Proxy);
        let windows = select_windows(
            self.ctx.config,
            self.ctx.exec,
            &Renderer::new(at.clip),
            at.clip.scene.frame_rect(),
            at.frame,
            ledger,
        );
        self.ctx.timelines[at.idx]
            .lock()
            .window
            .push(ledger.get(Component::Proxy) - before);

        self.begin(StageName::Detect);
        self.detect(at, windows)
    }

    /// Charge the frame's detector pixels to its clip and submit its
    /// batcher ticket (the launch overhead is shared per round).
    fn detect(&mut self, at: Frame<'a>, windows: Vec<Rect>) -> Front<'a> {
        if self.ctx.fire(StageName::Detect, at.idx, at.ordinal) {
            return Front::Dropped;
        }
        if windows.is_empty() {
            // No windows, no ticket: the replay passes the frame
            // through the detect stage with zero charge.
            let mut t = self.ctx.timelines[at.idx].lock();
            t.detect_px.push(None);
            t.sizes.push(Vec::new());
            return Front::Detected(Vec::new());
        }
        let px: f64 = windows
            .iter()
            .map(|r| self.detector.window_px_cost(r.w, r.h))
            .sum();
        self.ctx.clip_ledgers[at.idx].charge(Component::Detector, px);
        let sizes: Vec<(u32, u32)> = windows
            .iter()
            .map(|r| (r.w.round() as u32, r.h.round() as u32))
            .collect();
        {
            let mut t = self.ctx.timelines[at.idx].lock();
            t.detect_px.push(Some(px));
            t.sizes.push(sizes.clone());
        }
        let (inputs, outs) = self.run_surrogate(at, &windows, &sizes);
        match self
            .batcher
            .poll_submit_exec(self.ctx.stream, sizes, inputs, at.idx, at.ordinal, px)
        {
            Ok(PollSubmit::Ready(formed)) => {
                // Looped mode computed its outputs before the submit;
                // batched mode gets them from the formed round.
                let outputs = if outs.is_empty() { formed } else { outs };
                Front::Detected(self.detections(at, &windows, outputs))
            }
            Ok(PollSubmit::Pending) => Front::Parked(Parked {
                at,
                windows,
                rounds: self.batcher.rounds_formed(),
            }),
            Err(e) => panic!("detect stage cannot batch: {e}"),
        }
    }

    /// Surrogate execution: materialize the window crops at the net's
    /// input resolution (identically for both modes: the shapes depend
    /// only on the rounded sizes the ticket carries). Looped mode runs
    /// one forward per window here and returns `(no inputs, outputs)`;
    /// batched mode returns `(inputs, no outputs)` for the batcher.
    fn run_surrogate(
        &self,
        at: Frame<'a>,
        windows: &[Rect],
        sizes: &[(u32, u32)],
    ) -> (Vec<Tensor3>, Vec<Tensor3>) {
        let Some(h) = self.harness() else {
            return (Vec::new(), Vec::new());
        };
        let renderer = Renderer::new(at.clip);
        let inputs: Vec<Tensor3> = windows
            .iter()
            .zip(sizes)
            .map(|(w, &sz)| h.net().materialize(&renderer, at.frame, w, sz))
            .collect();
        if h.mode() != DetectorExec::Looped {
            return (inputs, Vec::new());
        }
        // Wall-clock baseline: timed around the forwards only.
        let start = Instant::now();
        let outs: Vec<Tensor3> = inputs
            .iter()
            .map(|x| {
                let mut y = Tensor3::zeros(0, 0, 0);
                h.net().forward_into(x, &mut y);
                y
            })
            .collect();
        h.record(start.elapsed(), outs.len() as u64, outs.len() as u64);
        (Vec::new(), outs)
    }

    fn harness(&self) -> Option<&'a DetectorExecHarness> {
        self.ctx
            .detector_exec
            .filter(|h| h.mode() != DetectorExec::Off)
    }

    /// Detections of a frame whose ticket resolved: fold the surrogate
    /// outputs into the clip digest (window order; frames arrive in
    /// ordinal order, so the fold is deterministic) and run the pure
    /// (uncharged) detector path.
    fn detections(&self, at: Frame<'a>, windows: &[Rect], outputs: Vec<Tensor3>) -> Vec<Detection> {
        if self.harness().is_some() {
            let mut t = self.ctx.timelines[at.idx].lock();
            for out in &outputs {
                t.detect_digest = fold_digest(t.detect_digest, digest_tensor(out));
            }
        }
        self.detector
            .detect_windows_pure(at.clip, at.frame, windows)
    }

    /// Step the clip's tracker with the frame's detections, finalizing
    /// (stitch + refine), checkpointing and depositing the clip at its
    /// last frame. Returns `false` if a recoverable fault failed the
    /// clip.
    fn track(&mut self, at: Frame<'a>, dets: Vec<Detection>) -> bool {
        let counters = self.ctx.counters;
        self.begin(StageName::Track);
        if self.ctx.fire(StageName::Track, at.idx, at.ordinal) {
            return false;
        }
        let ledger = &self.ctx.clip_ledgers[at.idx];
        let before = ledger.get(Component::Tracker);
        charge_tracker_step(self.ctx.exec, dets.len(), ledger);
        self.ctx.timelines[at.idx]
            .lock()
            .track
            .push(ledger.get(Component::Tracker) - before);
        let (config, exec) = (self.ctx.config, self.ctx.exec);
        self.tracker
            .get_or_insert_with(|| FrameTracker::new(config, exec))
            .step(at.frame, dets);
        counters.frames_tracked.fetch_add(1, Ordering::Relaxed);
        self.exit_frame();
        if at.last {
            let finished = self
                .tracker
                .take()
                .expect("tracker exists for the clip being finalized");
            let before = ledger.get(Component::Tracker) + ledger.get(Component::Refinement);
            let tracks = finalize_tracks(config, exec, at.clip, finished.finish(), ledger);
            self.ctx.timelines[at.idx].lock().finalize =
                ledger.get(Component::Tracker) + ledger.get(Component::Refinement) - before;
            // Acknowledgement point: checkpoint the finished clip to the
            // run journal *before* depositing the result. A checkpoint
            // failure is counted but never fails the clip — the run
            // continues in memory and a future resume recomputes it.
            if let Some(cp) = self.ctx.checkpoint {
                let timeline = self.ctx.timelines[at.idx].lock();
                cp.checkpoint_clip(at.idx, &tracks, &timeline, ledger, false, 0, 0.0);
            }
            self.results.lock()[at.idx] = Some(tracks);
            // Clip boundaries are where the worker population is
            // interesting: some of them sample the thread count for the
            // oversubscription gauge.
            counters.clip_finished();
        }
        true
    }
}

impl PollTask for StreamTask<'_> {
    /// Advance under panic supervision: a caught panic is recorded
    /// against the running step and retires the stream.
    fn poll(&mut self) -> Polled {
        match supervise(|| self.advance()) {
            Ok(Polled::Yielded) => {
                self.ctx
                    .counters
                    .stream_yields
                    .fetch_add(1, Ordering::Relaxed);
                Polled::Yielded
            }
            Ok(polled) => polled,
            Err(reason) => {
                self.ctx
                    .health
                    .record_panic(self.ctx.stream, self.stage, reason);
                Polled::Done
            }
        }
    }

    /// Waited past the stage timeout. A frame parked on its ticket
    /// expires with a batcher stall if no round formed since it parked
    /// or since the watchdog last looked; while rounds form it waits out
    /// those ahead of it, such as a spliced clip's. Any other stream
    /// waits for admission or a worker and is not wedged: its own polls
    /// time their steps.
    fn on_stall(&mut self) -> bool {
        let Some(p) = &mut self.parked else {
            return false;
        };
        let rounds = self.batcher.rounds_formed();
        if rounds > p.rounds {
            p.rounds = rounds;
            return false;
        }
        self.ctx.record_batcher_stall(p.at.idx);
        true
    }
}

impl Drop for StreamTask<'_> {
    /// Finish the stream at the batcher on completion, panic or expiry:
    /// the next deferred stream is admitted, and in batched mode a
    /// ticket still pending is discarded (counted, never charged) and
    /// the round sequence stops waiting for this stream.
    fn drop(&mut self) {
        self.exit_frame();
        self.batcher.finish(self.ctx.stream);
    }
}
