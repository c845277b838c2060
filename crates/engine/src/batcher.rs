//! Cross-stream detector batching (§3.2's "batched inference across
//! streams" scaled out to the multi-stream engine).
//!
//! Every stream submits one *ticket* per processed frame — the rounded
//! sizes of that frame's detector windows — and parks until the ticket
//! is part of a flushed batch round.
//! [`DetectorBatcher::poll_submit_exec`] deposits the ticket and
//! reports whether its round flushed inline; otherwise the stream's
//! waker fires when a later flush (or finish) resolves it, and
//! [`DetectorBatcher::poll_pending`] collects it. A round flushes at the
//! ticket-deadline watermark: the moment every live stream has a
//! ticket pending (in virtual time, no stream's detector is allowed to
//! run ahead of the others, which is what makes the accounting
//! deterministic). Within a round, windows are grouped by size — the
//! fixed window-size set W is what makes same-size groups common — and
//! each group is split into chunks of at most `max_batch` windows; one
//! launch overhead (`per_call`) is charged per chunk through
//! [`CostLedger::charge_batch`], which also records batch occupancy.
//!
//! Determinism: a stream's j-th ticket is always flushed in the j-th
//! round it participates in, and round contents are a pure function of
//! the per-stream ticket sequences (which are themselves deterministic).
//! Thread interleaving can change *when* a round flushes, never what it
//! contains, so charges and occupancy stats are reproducible — and with
//! one stream they equal the sequential pipeline's per-frame
//! `windows_cost` accounting exactly (one `per_call` per distinct
//! window size per frame, as long as `max_batch` exceeds the per-frame
//! same-size window count).
//!
//! Fault tolerance: protocol violations (double ticket, submit after
//! finish) are checked errors in every build profile, and
//! [`DetectorBatcher::finish`] handles a stream dying with a ticket
//! still pending — the orphaned ticket is discarded (its charges never
//! happen), a later poll of it reports [`SubmitError::Interrupted`],
//! and the watermark is re-evaluated so the remaining streams keep
//! draining.

use crate::exec::{DetectorExec, DetectorExecHarness};
use otif_core::evalpool::TaskWaker;
use otif_cv::{Component, CostLedger};
use otif_nn::Tensor3;
use parking_lot::Mutex;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A rejected or abandoned [`DetectorBatcher::poll_submit_exec`].
///
/// `TicketPending` and `Finished` are protocol violations (engine
/// bugs): they are hard errors in release builds too, because silently
/// overwriting a ticket or resurrecting a finished stream would corrupt
/// the round accounting for every stream. `Interrupted` is a
/// fault-tolerance signal: the stream was finished (its task dropped)
/// while the ticket waited, and the ticket was discarded unflushed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The stream already has a ticket awaiting a flush.
    TicketPending {
        /// Offending stream.
        stream: usize,
    },
    /// The stream was already marked finished.
    Finished {
        /// Offending stream.
        stream: usize,
    },
    /// The stream was finished while this ticket was pending; the
    /// ticket was discarded without being flushed or charged.
    Interrupted {
        /// Interrupted stream.
        stream: usize,
    },
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::TicketPending { stream } => write!(
                f,
                "batcher protocol violation: stream {stream} submitted a second \
                 ticket while one was still pending"
            ),
            SubmitError::Finished { stream } => write!(
                f,
                "batcher protocol violation: stream {stream} submitted after finish"
            ),
            SubmitError::Interrupted { stream } => write!(
                f,
                "stream {stream} was finished while its ticket was pending; \
                 the ticket was discarded"
            ),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Identity and cost of one submitted ticket, recorded into the round
/// log so the pipelined replay (`crate::timeline`) can stamp detector
/// completion times per round. Submissions without frame identity (unit
/// tests, ad-hoc callers) carry the `UNTAGGED` clip marker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ticket {
    /// Submitting stream.
    pub stream: usize,
    /// Global clip index of the frame (or [`Ticket::UNTAGGED`]).
    pub clip: usize,
    /// Sampled-frame ordinal within the clip.
    pub ordinal: usize,
    /// Windows carried by the ticket.
    pub items: usize,
    /// Detector pixel seconds charged for the frame's windows (to the
    /// clip's ledger, by the detect stage, before submitting).
    pub pixel_seconds: f64,
}

impl Ticket {
    /// Clip marker for submissions without frame identity.
    pub const UNTAGGED: usize = usize::MAX;
}

/// One flushed batch round: which tickets it coalesced (in stream
/// order) and the launch overhead it charged (`per_call` × number of
/// size-group chunks).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Member tickets, ordered by stream index.
    pub tickets: Vec<Ticket>,
    /// Launch seconds charged for this round's chunks.
    pub launch_seconds: f64,
}

/// A pending submission: the rounded window sizes of the frame the
/// stream is parked on, the materialized window inputs
/// (empty unless the run executes the surrogate detector in batched
/// mode), plus its identity for the round log.
type PendingTicket = (Vec<(u32, u32)>, Vec<Tensor3>, Ticket);

struct BatchState {
    /// One pending ticket per stream.
    tickets: Vec<Option<PendingTicket>>,
    /// Surrogate outputs scattered back per stream by a batched-exec
    /// flush, collected by the stream's next poll.
    outputs: Vec<Option<Vec<Tensor3>>>,
    /// Which streams still have frames to submit. A finished stream no
    /// longer gates the flush watermark.
    live: Vec<bool>,
    /// Set when `finish` discards a stream's pending ticket, so its
    /// next poll reports `SubmitError::Interrupted` instead of assuming
    /// the ticket was flushed.
    interrupted: Vec<bool>,
    /// Admission queue: streams not yet admitted (in index order).
    /// `finish` pops the front each time an active stream completes, so
    /// the admitted set at any round is a pure function of which streams
    /// have finished — never of thread timing.
    deferred: VecDeque<usize>,
    /// Per-stream task wakers: fired when a flush or finish resolves
    /// the stream's pending ticket, and when the stream is admitted.
    wakers: Vec<Option<TaskWaker>>,
    /// Completed flush rounds.
    rounds: u64,
    /// Flush log in round order, consumed by the pipelined replay.
    log: Vec<RoundRecord>,
}

/// Outcome of a non-blocking batcher submit poll.
#[derive(Debug)]
pub enum PollSubmit {
    /// The ticket's round flushed: the per-window surrogate outputs
    /// (empty unless a batched-execution harness is attached).
    Ready(Vec<Tensor3>),
    /// The ticket is deposited but its round has not flushed yet; the
    /// stream's waker fires when it does. Re-poll with
    /// [`DetectorBatcher::poll_pending`].
    Pending,
}

/// Coalesces same-size detector windows from all streams into batched
/// invocations, charging launch overhead per batch instead of per
/// frame — and, when a batched-execution harness is attached, actually
/// running **one** surrogate forward per (size, chunk) of each round.
pub struct DetectorBatcher {
    state: Mutex<BatchState>,
    per_call: f64,
    max_batch: usize,
    ledger: CostLedger,
    exec: Option<Arc<DetectorExecHarness>>,
    /// Per-stream admission flags, readable without the state lock
    /// (stream tasks and the stall watchdog check these on hot paths).
    admitted: Vec<AtomicBool>,
}

impl DetectorBatcher {
    /// A batcher for `streams` streams charging `per_call` simulated
    /// seconds per batched invocation of at most `max_batch` windows.
    pub fn new(streams: usize, per_call: f64, max_batch: usize, ledger: CostLedger) -> Self {
        DetectorBatcher {
            state: Mutex::new(BatchState {
                tickets: (0..streams).map(|_| None).collect(),
                outputs: (0..streams).map(|_| None).collect(),
                live: vec![true; streams],
                interrupted: vec![false; streams],
                deferred: VecDeque::new(),
                wakers: (0..streams).map(|_| None).collect(),
                rounds: 0,
                log: Vec::new(),
            }),
            per_call,
            max_batch: max_batch.max(1),
            ledger,
            exec: None,
            admitted: (0..streams).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Admission control: only the first `max_active` streams start
    /// active; streams `max_active..` are *deferred* — not live (they
    /// don't gate the flush watermark) and not admitted (their tasks
    /// wait). Each [`Self::finish`] of an active stream admits the
    /// next deferred stream in index order, so at most `max_active`
    /// streams are ever in flight and the admission sequence is
    /// deterministic.
    pub fn with_max_active(self, max_active: usize) -> Self {
        let streams = self.admitted.len();
        let max_active = max_active.clamp(1, streams.max(1));
        {
            let mut st = self.state.lock();
            for s in max_active..streams {
                st.live[s] = false;
                st.deferred.push_back(s);
                self.admitted[s].store(false, Ordering::SeqCst);
            }
        }
        self
    }

    /// Whether `stream` has been admitted (always true without
    /// [`Self::with_max_active`]).
    pub fn is_admitted(&self, stream: usize) -> bool {
        self.admitted[stream].load(Ordering::SeqCst)
    }

    /// Register `stream`'s task waker, fired when a flush or finish
    /// resolves its pending ticket and when the stream is admitted.
    pub fn set_waker(&self, stream: usize, waker: TaskWaker) {
        self.state.lock().wakers[stream] = Some(waker);
    }

    /// Attach a detector-execution harness. When its mode is
    /// [`DetectorExec::Batched`], each flush runs the surrogate forward
    /// over the round's same-size chunks (exactly the chunks the launch
    /// accounting charges for) and scatters per-window outputs back to
    /// the submitting streams.
    pub fn with_exec(mut self, exec: Arc<DetectorExecHarness>) -> Self {
        self.exec = Some(exec);
        self
    }

    /// Submit one frame's ticket for `stream`: its rounded window
    /// sizes, the materialized window inputs (one per size, or empty
    /// unless the run executes the surrogate in batched mode), and its
    /// identity and detector pixel charge for the round log (identity
    /// never affects batching). Deposits the ticket, flushes if the
    /// watermark is met, and reports [`PollSubmit::Ready`] with the
    /// frame's surrogate outputs (round flushed inline; empty unless a
    /// batched-execution harness is attached) or [`PollSubmit::Pending`]
    /// (the stream's waker fires when a later flush or finish resolves
    /// the ticket; re-poll with [`Self::poll_pending`]).
    ///
    /// Each stream may have at most one ticket outstanding; a stream's
    /// tickets flush strictly in submission order. Protocol violations
    /// (a second pending ticket, submit after finish) are checked errors
    /// in every build profile; see [`SubmitError`].
    pub fn poll_submit_exec(
        &self,
        stream: usize,
        sizes: Vec<(u32, u32)>,
        inputs: Vec<Tensor3>,
        clip: usize,
        ordinal: usize,
        pixel_seconds: f64,
    ) -> Result<PollSubmit, SubmitError> {
        debug_assert!(
            inputs.is_empty() || inputs.len() == sizes.len(),
            "one input tensor per window"
        );
        let mut st = self.state.lock();
        if !st.live[stream] {
            return Err(SubmitError::Finished { stream });
        }
        if st.tickets[stream].is_some() {
            return Err(SubmitError::TicketPending { stream });
        }
        let ticket = Ticket {
            stream,
            clip,
            ordinal,
            items: sizes.len(),
            pixel_seconds,
        };
        st.tickets[stream] = Some((sizes, inputs, ticket));
        self.flush_if_ready(&mut st);
        Self::poll_state(&mut st, stream)
    }

    /// Re-poll a ticket left [`PollSubmit::Pending`] by
    /// [`Self::poll_submit_exec`].
    pub fn poll_pending(&self, stream: usize) -> Result<PollSubmit, SubmitError> {
        let mut st = self.state.lock();
        Self::poll_state(&mut st, stream)
    }

    /// Shared resolution step: interrupted → error; ticket gone → the
    /// round flushed (collect outputs); ticket still present → pending.
    fn poll_state(st: &mut BatchState, stream: usize) -> Result<PollSubmit, SubmitError> {
        if st.interrupted[stream] {
            st.interrupted[stream] = false;
            return Err(SubmitError::Interrupted { stream });
        }
        if st.tickets[stream].is_none() {
            return Ok(PollSubmit::Ready(
                st.outputs[stream].take().unwrap_or_default(),
            ));
        }
        Ok(PollSubmit::Pending)
    }

    /// Mark `stream` as done (idempotent). Finished streams stop gating
    /// the flush watermark, so remaining streams keep batching among
    /// themselves. If the stream still had a ticket pending (its task
    /// died mid-submit), the ticket is discarded — never flushed or
    /// charged — and its next poll reports [`SubmitError::Interrupted`].
    pub fn finish(&self, stream: usize) {
        let mut st = self.state.lock();
        if !st.live[stream] && self.is_admitted(stream) {
            return;
        }
        let was_active = st.live[stream];
        st.live[stream] = false;
        st.outputs[stream] = None;
        // A deferred stream finishing without ever being admitted (its
        // tasks shut down early) must still vacate the admission queue.
        if !self.is_admitted(stream) {
            st.deferred.retain(|&s| s != stream);
            self.admitted[stream].store(true, Ordering::SeqCst);
        }
        let mut wake = Vec::new();
        if let Some((sizes, _, _)) = st.tickets[stream].take() {
            st.interrupted[stream] = true;
            // Count the orphan explicitly: it was never flushed or
            // charged, and `mean_batch_occupancy` must neither include
            // it nor hide that it was dropped.
            self.ledger.record_batch_discard(sizes.len());
            wake.extend(st.wakers[stream].clone());
        }
        // Admission hand-off happens BEFORE re-evaluating the watermark:
        // the newly-admitted stream gates every round flushed from this
        // point on, which is what keeps round contents a pure function
        // of the finish set rather than of flush timing. Only an active
        // stream finishing frees an admission slot — a deferred stream
        // that shut down before admission never held one.
        if was_active {
            if let Some(next) = st.deferred.pop_front() {
                st.live[next] = true;
                self.admitted[next].store(true, Ordering::SeqCst);
                wake.extend(st.wakers[next].clone());
            }
        }
        self.flush_if_ready(&mut st);
        drop(st);
        for w in wake {
            w.wake();
        }
    }

    /// Number of flush rounds completed so far.
    pub fn rounds(&self) -> u64 {
        self.state.lock().rounds
    }

    /// The flush log in round order. Round contents are a pure function
    /// of the per-stream submission sequences, so the log is as
    /// deterministic as the charges themselves.
    pub fn round_log(&self) -> Vec<RoundRecord> {
        self.state.lock().log.clone()
    }

    /// Flush one round if every live stream has a pending ticket (and
    /// at least one ticket exists). Must be called with the state lock
    /// held; wakes every member stream.
    fn flush_if_ready(&self, st: &mut BatchState) {
        let ready = st
            .tickets
            .iter()
            .zip(&st.live)
            .all(|(t, live)| !*live || t.is_some());
        let any = st.tickets.iter().any(Option::is_some);
        if !ready || !any {
            return;
        }
        // Group windows by size across all streams (stream order is
        // irrelevant for the *charges*: only per-size counts matter).
        let n_streams = st.tickets.len();
        let mut by_size: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut members: Vec<Ticket> = Vec::new();
        let mut member_streams: Vec<usize> = Vec::new();
        let mut sizes_by_stream: Vec<Vec<(u32, u32)>> = vec![Vec::new(); n_streams];
        let mut inputs_by_stream: Vec<Vec<Tensor3>> = Vec::new();
        inputs_by_stream.resize_with(n_streams, Vec::new);
        for (stream, slot) in st.tickets.iter_mut().enumerate() {
            if let Some((sizes, inputs, ticket)) = slot.take() {
                members.push(ticket);
                member_streams.push(stream);
                for s in &sizes {
                    *by_size.entry(*s).or_insert(0) += 1;
                }
                sizes_by_stream[stream] = sizes;
                inputs_by_stream[stream] = inputs;
            }
        }
        let mut launch_seconds = 0.0f64;
        for (_, count) in by_size {
            let mut remaining = count;
            while remaining > 0 {
                let occupancy = remaining.min(self.max_batch);
                self.ledger
                    .charge_batch(Component::Detector, self.per_call, occupancy);
                launch_seconds += self.per_call;
                remaining -= occupancy;
            }
        }
        // Batched surrogate execution: one forward per (size, chunk) —
        // the same chunks the launch accounting charged for — with
        // outputs scattered back to the submitting streams. Chunk
        // membership is deterministic (sizes in BTreeMap order, windows
        // in stream-then-window order within a size), and chunk
        // boundaries cannot affect bits anyway: the batched kernels
        // accumulate each window's elements in exactly the looped order.
        if let Some(exec) = self
            .exec
            .as_ref()
            .filter(|e| e.mode() == DetectorExec::Batched)
        {
            let start = Instant::now();
            let mut forwards = 0u64;
            let mut windows = 0u64;
            // Only windows that carry materialized inputs participate in
            // the forwards: a ghost-replay ticket submits sizes without
            // inputs (its outputs were digested in the original run), so
            // it shapes the launch accounting above but not the
            // execution. Excluding it cannot perturb live outputs — the
            // batched kernels accumulate each window's elements in
            // exactly the looped order, so chunk membership never
            // affects bits.
            let mut groups: BTreeMap<(u32, u32), Vec<(usize, usize)>> = BTreeMap::new();
            for &stream in &member_streams {
                let with_inputs = inputs_by_stream[stream].len();
                for (w, s) in sizes_by_stream[stream].iter().take(with_inputs).enumerate() {
                    groups.entry(*s).or_default().push((stream, w));
                }
            }
            let mut outs: Vec<Vec<Tensor3>> = inputs_by_stream
                .iter()
                .map(|v| vec![Tensor3::zeros(0, 0, 0); v.len()])
                .collect();
            for refs in groups.values() {
                for chunk in refs.chunks(self.max_batch) {
                    let xs: Vec<&Tensor3> = chunk
                        .iter()
                        .map(|&(s, w)| &inputs_by_stream[s][w])
                        .collect();
                    let ys = exec.net().forward_batched(&xs);
                    forwards += 1;
                    windows += xs.len() as u64;
                    for (&(s, w), y) in chunk.iter().zip(ys) {
                        outs[s][w] = y;
                    }
                }
            }
            exec.record(start.elapsed(), forwards, windows);
            for &stream in &member_streams {
                st.outputs[stream] = Some(std::mem::take(&mut outs[stream]));
            }
        }
        st.log.push(RoundRecord {
            tickets: members,
            launch_seconds,
        });
        st.rounds += 1;
        // A member stream's task may be parked on its now-resolved
        // ticket. Waking under the batcher lock is safe (the pool's wake
        // path never takes this lock) and a wake racing the member's own
        // in-progress poll just latches harmlessly.
        for &stream in &member_streams {
            if let Some(w) = &st.wakers[stream] {
                w.wake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_core::evalpool::{PollTask, Polled, TaskPool};

    const CALL: f64 = 1.0;

    /// Submit one untagged ticket without surrogate inputs.
    fn submit(b: &DetectorBatcher, stream: usize, sizes: Vec<(u32, u32)>) -> PollSubmit {
        b.poll_submit_exec(stream, sizes, Vec::new(), Ticket::UNTAGGED, 0, 0.0)
            .unwrap()
    }

    /// One stream on a task pool: submits its tickets in order through
    /// the poll API, parking on each unresolved one, logs the flushed
    /// round count after each resolves, and finishes when done.
    struct Submitter<'a> {
        b: &'a DetectorBatcher,
        stream: usize,
        tickets: std::vec::IntoIter<Vec<(u32, u32)>>,
        waiting: bool,
        seen: &'a Mutex<Vec<u64>>,
    }

    impl PollTask for Submitter<'_> {
        fn poll(&mut self) -> Polled {
            loop {
                if self.waiting {
                    match self.b.poll_pending(self.stream).unwrap() {
                        PollSubmit::Pending => return Polled::Pending,
                        PollSubmit::Ready(_) => self.waiting = false,
                    }
                    self.seen.lock().push(self.b.rounds());
                }
                let Some(sizes) = self.tickets.next() else {
                    self.b.finish(self.stream);
                    return Polled::Done;
                };
                match submit(self.b, self.stream, sizes) {
                    PollSubmit::Ready(_) => self.seen.lock().push(self.b.rounds()),
                    PollSubmit::Pending => self.waiting = true,
                }
            }
        }
    }

    /// Run one submitter per entry of `tickets` (stream `s` submits
    /// `tickets[s]`) on a `workers`-thread pool; returns each stream's
    /// log of flushed-round counts observed as its tickets resolved.
    fn drive(
        b: &DetectorBatcher,
        tickets: Vec<Vec<Vec<(u32, u32)>>>,
        workers: usize,
    ) -> Vec<Vec<u64>> {
        let pool = TaskPool::new(tickets.len(), None);
        let seen: Vec<Mutex<Vec<u64>>> = tickets.iter().map(|_| Mutex::new(Vec::new())).collect();
        let tasks: Vec<Box<dyn PollTask + '_>> = tickets
            .into_iter()
            .enumerate()
            .map(|(stream, t)| {
                b.set_waker(stream, pool.waker(stream));
                Box::new(Submitter {
                    b,
                    stream,
                    tickets: t.into_iter(),
                    waiting: false,
                    seen: &seen[stream],
                }) as Box<dyn PollTask + '_>
            })
            .collect();
        pool.run(workers, tasks);
        seen.into_iter().map(Mutex::into_inner).collect()
    }

    #[test]
    fn single_stream_charges_per_distinct_size_per_round() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(1, CALL, 16, ledger.clone());
        assert!(matches!(
            submit(&b, 0, vec![(64, 64), (64, 64), (128, 96)]),
            PollSubmit::Ready(_)
        ));
        b.finish(0);
        // one round: two distinct sizes → two batch charges
        assert_eq!(b.rounds(), 1);
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.items, 3);
        assert!((ledger.get(Component::Detector) - 2.0 * CALL).abs() < 1e-12);
    }

    #[test]
    fn two_streams_share_launch_overhead() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(2, CALL, 16, ledger.clone());
        let frames = 5usize;
        drive(&b, vec![vec![vec![(64, 64)]; frames]; 2], 2);
        // 5 rounds × 1 size group of 2 windows → 5 charges, occupancy 2
        assert_eq!(b.rounds(), frames as u64);
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, frames as u64);
        assert!((stats.mean_occupancy() - 2.0).abs() < 1e-12);
        assert!((ledger.get(Component::Detector) - frames as f64 * CALL).abs() < 1e-12);
    }

    #[test]
    fn uneven_stream_lengths_drain_without_deadlock() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(3, CALL, 16, ledger.clone());
        let tickets = [8usize, 3, 5]
            .iter()
            .map(|&frames| vec![vec![(32, 32)]; frames])
            .collect();
        drive(&b, tickets, 2);
        // the longest stream dictates the number of rounds
        assert_eq!(b.rounds(), 8);
        assert_eq!(ledger.batch_stats().items, 8 + 3 + 5);
    }

    #[test]
    fn max_batch_splits_oversized_groups() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(1, CALL, 4, ledger.clone());
        submit(&b, 0, vec![(64, 64); 10]);
        b.finish(0);
        // 10 windows in chunks of ≤4 → 3 batches (4+4+2)
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.items, 10);
    }

    #[test]
    fn finished_stream_stops_gating_the_watermark() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(2, CALL, 16, ledger.clone());
        // stream 1 never submits; its finish must let stream 0 flush
        b.finish(1);
        assert!(matches!(
            submit(&b, 0, vec![(64, 64)]),
            PollSubmit::Ready(_)
        ));
        b.finish(0);
        assert_eq!(b.rounds(), 1);
        assert_eq!(ledger.batch_stats().batches, 1);
    }

    #[test]
    fn submit_after_finish_is_a_checked_error() {
        let b = DetectorBatcher::new(2, CALL, 16, CostLedger::new());
        b.finish(1);
        assert_eq!(
            b.poll_submit_exec(1, vec![(64, 64)], Vec::new(), Ticket::UNTAGGED, 0, 0.0)
                .unwrap_err(),
            SubmitError::Finished { stream: 1 }
        );
        // the healthy stream is unaffected
        submit(&b, 0, vec![(64, 64)]);
        assert_eq!(b.rounds(), 1);
    }

    #[test]
    fn double_ticket_is_a_checked_error() {
        let b = DetectorBatcher::new(2, CALL, 16, CostLedger::new());
        // stream 1's ticket waits: stream 0 has none yet
        assert!(matches!(submit(&b, 1, vec![(32, 32)]), PollSubmit::Pending));
        // a second submit for stream 1 must be rejected, not corrupt the
        // pending ticket
        assert_eq!(
            b.poll_submit_exec(1, vec![(64, 64)], Vec::new(), Ticket::UNTAGGED, 0, 0.0)
                .unwrap_err(),
            SubmitError::TicketPending { stream: 1 }
        );
        // releasing the watermark flushes the original ticket
        assert!(matches!(
            submit(&b, 0, vec![(32, 32)]),
            PollSubmit::Ready(_)
        ));
        assert!(matches!(b.poll_pending(1), Ok(PollSubmit::Ready(_))));
        assert_eq!(b.rounds(), 1);
        assert_eq!(b.round_log()[0].tickets.len(), 2);
    }

    #[test]
    fn finish_with_pending_ticket_releases_waiter_and_drains_others() {
        // Regression (fault tolerance): finishing a stream while its
        // ticket is outstanding must (a) report Interrupted to the
        // waiting stream and wake it, (b) discard the ticket uncharged,
        // and (c) let the remaining streams keep draining.
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(3, CALL, 16, ledger.clone());
        let pool = TaskPool::new(1, None);
        let woken = std::sync::atomic::AtomicBool::new(false);
        struct Waiter<'a>(&'a std::sync::atomic::AtomicBool);
        impl PollTask for Waiter<'_> {
            fn poll(&mut self) -> Polled {
                if self.0.swap(true, Ordering::SeqCst) {
                    Polled::Done
                } else {
                    Polled::Pending
                }
            }
        }
        b.set_waker(2, pool.waker(0));
        // stream 2's ticket waits: streams 0 and 1 have no tickets
        assert!(matches!(submit(&b, 2, vec![(99, 99)]), PollSubmit::Pending));
        std::thread::scope(|scope| {
            // the waiter parks once; only the finish's wake can revive it
            scope.spawn(|| pool.run(1, vec![Box::new(Waiter(&woken)) as Box<dyn PollTask>]));
            while !woken.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            b.finish(2);
        });
        assert_eq!(
            b.poll_pending(2).unwrap_err(),
            SubmitError::Interrupted { stream: 2 }
        );
        // remaining streams drain normally and the orphaned (99, 99)
        // ticket was never flushed or charged
        drive(&b, vec![vec![vec![(64, 64)]; 3]; 2], 2);
        assert_eq!(b.rounds(), 3);
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.items, 6);
        assert!((ledger.get(Component::Detector) - 3.0 * CALL).abs() < 1e-12);
    }

    #[test]
    fn charges_are_interleaving_independent() {
        let run = |workers: usize| {
            let ledger = CostLedger::new();
            let b = DetectorBatcher::new(3, CALL, 4, ledger.clone());
            let tickets = (0..3usize)
                .map(|stream| {
                    (0..6usize)
                        .map(|f| {
                            // deterministic per-stream size sequence
                            let size = (32 * (1 + ((f + stream) % 2) as u32), 32);
                            vec![size; 1 + (f % 3)]
                        })
                        .collect()
                })
                .collect();
            drive(&b, tickets, workers);
            (
                ledger.get(Component::Detector),
                ledger.batch_stats(),
                b.round_log(),
            )
        };
        let (cost_a, stats_a, log_a) = run(1);
        for workers in [2, 3] {
            let (cost_b, stats_b, log_b) = run(workers);
            assert_eq!(stats_a, stats_b);
            assert_eq!(log_a, log_b);
            assert_eq!(cost_a.to_bits(), cost_b.to_bits());
        }
    }

    #[test]
    fn orphaned_tickets_are_counted_not_averaged() {
        // Regression: an orphaned ticket (stream finished while its
        // ticket was pending) must be excluded from mean_batch_occupancy
        // *and* explicitly counted as discarded — not silently vanish.
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(2, CALL, 16, ledger.clone());
        // stream 1 waits with a 7-window ticket; stream 0 never submits
        assert!(matches!(
            submit(&b, 1, vec![(64, 64); 7]),
            PollSubmit::Pending
        ));
        b.finish(1);
        assert_eq!(
            b.poll_pending(1).unwrap_err(),
            SubmitError::Interrupted { stream: 1 }
        );
        // stream 0 then flushes two clean 2-window rounds on its own
        submit(&b, 0, vec![(32, 32); 2]);
        submit(&b, 0, vec![(32, 32); 2]);
        b.finish(0);
        let stats = ledger.batch_stats();
        assert_eq!(stats.discarded_tickets, 1);
        assert_eq!(stats.discarded_items, 7);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.items, 4);
        // occupancy reflects only flushed chunks: (2+2)/2, not (2+2+7)/2
        assert!((stats.mean_occupancy() - 2.0).abs() < 1e-12);
        // the orphan was never charged either
        assert!((ledger.get(Component::Detector) - 2.0 * CALL).abs() < 1e-12);
    }

    #[test]
    fn batched_exec_scatters_outputs_bitwise_equal_to_looped() {
        use otif_core::WindowNet;
        use otif_cv::{DetectorArch, DetectorConfig};

        let net = WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 3);
        let exec = Arc::new(DetectorExecHarness::new(net.clone(), DetectorExec::Batched));
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(2, CALL, 2, ledger.clone()).with_exec(Arc::clone(&exec));
        // two streams, mixed window sizes; inputs are small deterministic
        // tensors whose dims come from the rounded sizes
        let make_inputs = |stream: usize, sizes: &[(u32, u32)]| -> Vec<Tensor3> {
            sizes
                .iter()
                .enumerate()
                .map(|(w, s)| {
                    let (iw, ih) = net.input_dims(*s);
                    let mut t = Tensor3::zeros(1, ih, iw);
                    for (j, v) in t.data.iter_mut().enumerate() {
                        *v = ((j + 7 * stream + w) as f32 * 0.031).sin() * 0.5 + 0.5;
                    }
                    t
                })
                .collect()
        };
        let looped = |inputs: &[Tensor3]| -> Vec<Tensor3> {
            inputs
                .iter()
                .map(|x| {
                    let mut y = Tensor3::zeros(0, 0, 0);
                    net.forward_into(x, &mut y);
                    y
                })
                .collect()
        };
        let sizes0 = vec![(64, 64), (64, 64), (128, 96)];
        let sizes1 = vec![(64, 64), (128, 96)];
        let inputs0 = make_inputs(0, &sizes0);
        let inputs1 = make_inputs(1, &sizes1);
        let expected0 = looped(&inputs0);
        let expected1 = looped(&inputs1);
        // stream 1 waits for stream 0; stream 0's submit flushes the
        // round inline and gets its outputs, stream 1 collects its own
        assert!(matches!(
            b.poll_submit_exec(1, sizes1, inputs1, 0, 0, 0.0),
            Ok(PollSubmit::Pending)
        ));
        let Ok(PollSubmit::Ready(out0)) = b.poll_submit_exec(0, sizes0, inputs0, 0, 0, 0.0) else {
            panic!("stream 0's submit completes the round");
        };
        let Ok(PollSubmit::Ready(out1)) = b.poll_pending(1) else {
            panic!("stream 1's ticket flushed with the round");
        };
        b.finish(0);
        b.finish(1);
        // outputs arrive per stream, in window order, bitwise equal to
        // the looped forward of the same inputs
        assert_eq!(out0.len(), 3);
        assert_eq!(out1.len(), 2);
        for (got, want) in out0.iter().zip(&expected0) {
            assert_eq!(got.data, want.data);
        }
        for (got, want) in out1.iter().zip(&expected1) {
            assert_eq!(got.data, want.data);
        }
        // max_batch=2 split the 3-window (64,64) group into 2 chunks,
        // plus 1 chunk for the (128,96) group → 3 forwards, 5 windows
        assert_eq!(exec.forwards(), 3);
        assert_eq!(exec.windows(), 5);
        assert!(exec.wall_seconds() > 0.0);
        // charges are untouched by execution: same as accounting-only
        assert_eq!(ledger.batch_stats().items, 5);
    }

    #[test]
    fn exec_off_returns_no_outputs() {
        let b = DetectorBatcher::new(1, CALL, 16, CostLedger::new());
        let PollSubmit::Ready(out) = submit(&b, 0, vec![(64, 64)]) else {
            panic!("a lone stream's round flushes inline");
        };
        assert!(out.is_empty());
        b.finish(0);
    }

    #[test]
    fn round_log_records_members_and_launch() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(1, CALL, 4, ledger.clone());
        b.poll_submit_exec(0, vec![(64, 64); 6], Vec::new(), 3, 0, 1.5)
            .unwrap();
        submit(&b, 0, vec![(32, 32)]);
        b.finish(0);
        let log = b.round_log();
        assert_eq!(log.len(), 2);
        // 6 same-size windows in chunks of ≤4 → 2 launches
        assert!((log[0].launch_seconds - 2.0 * CALL).abs() < 1e-12);
        assert_eq!(
            log[0].tickets,
            vec![Ticket {
                stream: 0,
                clip: 3,
                ordinal: 0,
                items: 6,
                pixel_seconds: 1.5,
            }]
        );
        assert_eq!(log[1].tickets[0].clip, Ticket::UNTAGGED);
        assert!((log[1].launch_seconds - CALL).abs() < 1e-12);
    }

    #[test]
    fn admission_hand_off_wakes_the_admitted_stream() {
        // Stream 1 is deferred behind stream 0; finishing stream 0
        // admits stream 1 and fires its waker, and from then on stream
        // 1 gates the watermark alone.
        let b = DetectorBatcher::new(2, CALL, 16, CostLedger::new()).with_max_active(1);
        assert!(b.is_admitted(0));
        assert!(!b.is_admitted(1));
        let pool = TaskPool::new(1, None);
        b.set_waker(1, pool.waker(0));
        struct Gate<'a>(&'a DetectorBatcher);
        impl PollTask for Gate<'_> {
            fn poll(&mut self) -> Polled {
                if self.0.is_admitted(1) {
                    assert!(matches!(
                        submit(self.0, 1, vec![(8, 8)]),
                        PollSubmit::Ready(_)
                    ));
                    self.0.finish(1);
                    Polled::Done
                } else {
                    Polled::Pending
                }
            }
        }
        std::thread::scope(|scope| {
            scope.spawn(|| pool.run(1, vec![Box::new(Gate(&b)) as Box<dyn PollTask>]));
            assert!(matches!(submit(&b, 0, vec![(8, 8)]), PollSubmit::Ready(_)));
            b.finish(0);
        });
        assert!(b.is_admitted(1));
        assert_eq!(b.rounds(), 2);
    }
}
