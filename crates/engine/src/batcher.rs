//! Cross-stream detector batching (§3.2's "batched inference across
//! streams" scaled out to the multi-stream engine).
//!
//! Every stream submits one *ticket* per processed frame that has
//! detector windows: the rounded sizes of those windows plus the
//! frame's identity ([`Ticket`]). The batcher records each stream's
//! ticket sequence, and after the run [`DetectorBatcher::settle`]
//! replays the lockstep batching rule over those sequences:
//!
//! - round *r* takes the next ticket of every live stream, in stream
//!   order (in virtual time no stream's detector runs ahead of the
//!   others');
//! - a stream that runs out of tickets finishes, and its finish admits
//!   the next deferred stream ([`DetectorBatcher::with_max_active`])
//!   before the next round;
//! - within a round, windows are grouped by size — the fixed
//!   window-size set W is what makes same-size groups common — and each
//!   group is split into chunks of at most `max_batch` windows; one
//!   launch overhead (`per_call`) is charged per chunk, in size order,
//!   through [`CostLedger::charge_batch`], which also records batch
//!   occupancy.
//!
//! Settling is the only accounting path. Round contents are a pure
//! function of the per-stream ticket sequences (which are themselves
//! deterministic), so charges, occupancy stats and the [`RoundRecord`]
//! log are bitwise independent of thread interleaving — and with one
//! stream they equal the sequential pipeline's per-frame `windows_cost`
//! accounting exactly (one `per_call` per distinct window size per
//! frame, as long as `max_batch` exceeds the per-frame same-size window
//! count).
//!
//! A live rendezvous exists only under [`DetectorExec::Batched`], whose
//! surrogate forwards need a round's windows together: a submitted
//! ticket stays [`PollSubmit::Pending`] until every live stream has one
//! pending, the last submit (or a finish) flushes the round — one
//! forward per (size, chunk), the chunks `settle` charges — and the
//! members' wakers fire so [`DetectorBatcher::poll_pending`] can collect
//! the outputs. The flush charges nothing; its round is kept only as a
//! witness that `settle` reproduces. Under `Off` and `Looped`,
//! [`DetectorBatcher::poll_submit_exec`] records the ticket and returns
//! [`PollSubmit::Ready`] at once: a stream never parks on the batcher,
//! only behind the admission gate.
//!
//! Fault tolerance: protocol violations (double ticket, submit after
//! finish) are checked errors in every build profile. In `Batched`
//! mode [`DetectorBatcher::finish`] handles a stream dying with a
//! ticket still pending: the orphaned ticket is removed from its
//! stream's sequence (so `settle` never charges it) and counted through
//! [`CostLedger::record_batch_discard`], a later poll of it reports
//! [`SubmitError::Interrupted`], and the remaining streams keep
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
    /// The stream is not live: it was already marked finished, or it
    /// has not been admitted yet.
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

/// One batch round: which tickets it coalesced (in stream order) and
/// the launch overhead it charged (`per_call` × number of size-group
/// chunks).
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRecord {
    /// Member tickets, ordered by stream index.
    pub tickets: Vec<Ticket>,
    /// Launch seconds charged for this round's chunks.
    pub launch_seconds: f64,
}

/// A recorded ticket with its rounded window sizes.
type Logged = (Vec<(u32, u32)>, Ticket);

/// One stream's submissions in order — the input of
/// [`DetectorBatcher::settle`]. Only the stream's own task touches it
/// during a run, so its lock is uncontended.
#[derive(Default)]
struct StreamLog {
    tickets: Vec<Logged>,
    finished: bool,
}

/// Admission state, plus the rendezvous of [`DetectorExec::Batched`].
struct BatchState {
    /// Admission queue: streams not yet admitted (in index order).
    /// `finish` pops the front each time an active stream completes, so
    /// the admitted set is a pure function of which streams have
    /// finished — never of thread timing.
    deferred: VecDeque<usize>,
    /// Admitted streams not yet finished: the rendezvous flushes once
    /// this many tickets are pending.
    live: usize,
    /// Per-stream task wakers: fired when a flush or finish resolves
    /// the stream's pending ticket, and when the stream is admitted.
    wakers: Vec<Option<TaskWaker>>,
    /// Batched mode: the materialized window inputs of each stream's
    /// pending ticket (the ticket itself is the last of its stream's
    /// log). `Some` while the ticket waits for its round.
    pending: Vec<Option<Vec<Tensor3>>>,
    /// Streams with a pending ticket.
    waiting: Vec<usize>,
    /// Surrogate outputs scattered back per stream by a flush,
    /// collected by the stream's next poll.
    outputs: Vec<Option<Vec<Tensor3>>>,
    /// Set when `finish` discards a stream's pending ticket, so its
    /// next poll reports `SubmitError::Interrupted` instead of assuming
    /// the ticket was flushed.
    interrupted: Vec<bool>,
    /// The rounds the rendezvous flushed, in order: a witness that
    /// `settle` reproduces.
    flushed: Vec<RoundRecord>,
}

/// Outcome of a non-blocking batcher submit poll.
#[derive(Debug)]
pub enum PollSubmit {
    /// The ticket is recorded and, in batched mode, its round flushed:
    /// the per-window surrogate outputs (empty unless the batcher
    /// executes the surrogate).
    Ready(Vec<Tensor3>),
    /// Batched mode: the ticket is deposited but its round has not
    /// flushed yet; the stream's waker fires when it does. Re-poll with
    /// [`DetectorBatcher::poll_pending`].
    Pending,
}

/// Coalesces same-size detector windows from all streams into batched
/// invocations, charging launch overhead per batch instead of per
/// frame — and, when a batched-execution harness is attached, actually
/// running **one** surrogate forward per (size, chunk) of each round.
pub struct DetectorBatcher {
    streams: Vec<Mutex<StreamLog>>,
    state: Mutex<BatchState>,
    per_call: f64,
    max_batch: usize,
    max_active: usize,
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
            streams: (0..streams).map(|_| Mutex::default()).collect(),
            state: Mutex::new(BatchState {
                deferred: VecDeque::new(),
                live: streams,
                wakers: (0..streams).map(|_| None).collect(),
                pending: (0..streams).map(|_| None).collect(),
                waiting: Vec::new(),
                outputs: (0..streams).map(|_| None).collect(),
                interrupted: vec![false; streams],
                flushed: Vec::new(),
            }),
            per_call,
            max_batch: max_batch.max(1),
            max_active: streams,
            ledger,
            exec: None,
            admitted: (0..streams).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Admission control: only the first `max_active` streams start
    /// active; streams `max_active..` are *deferred* — not live and not
    /// admitted (their tasks wait). Each [`Self::finish`] of an active
    /// stream admits the next deferred stream in index order, so at
    /// most `max_active` streams are ever in flight and the admission
    /// sequence is deterministic.
    pub fn with_max_active(mut self, max_active: usize) -> Self {
        let streams = self.admitted.len();
        self.max_active = max_active.clamp(1, streams.max(1)).min(streams);
        let st = self.state.get_mut();
        st.live = self.max_active;
        for s in self.max_active..streams {
            st.deferred.push_back(s);
            self.admitted[s].store(false, Ordering::SeqCst);
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
    /// [`DetectorExec::Batched`], tickets rendezvous across streams and
    /// each flush runs the surrogate forward over the round's same-size
    /// chunks (exactly the chunks [`Self::settle`] charges for),
    /// scattering per-window outputs back to the submitting streams.
    pub fn with_exec(mut self, exec: Arc<DetectorExecHarness>) -> Self {
        self.exec = Some(exec);
        self
    }

    /// The harness whose forwards the rendezvous runs, if the batcher
    /// executes the surrogate in batched mode.
    fn batched(&self) -> Option<&DetectorExecHarness> {
        self.exec
            .as_deref()
            .filter(|e| e.mode() == DetectorExec::Batched)
    }

    /// Submit one frame's ticket for `stream`: its rounded window
    /// sizes, the materialized window inputs (one per size, or empty
    /// unless the run executes the surrogate in batched mode), and its
    /// identity and detector pixel charge for the round log (identity
    /// never affects batching). Records the ticket in the stream's
    /// sequence and reports [`PollSubmit::Ready`] — at once unless the
    /// batcher executes the surrogate in batched mode, where the ticket
    /// joins the rendezvous: `Ready` carries the frame's outputs if the
    /// submit completed its round, and [`PollSubmit::Pending`] means
    /// the stream's waker fires when a later flush or finish resolves
    /// the ticket (re-poll with [`Self::poll_pending`]).
    ///
    /// A stream may have at most one ticket pending. Protocol
    /// violations (a second pending ticket, submit after finish or
    /// before admission) are checked errors in every build profile; see
    /// [`SubmitError`].
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
        let ticket = Ticket {
            stream,
            clip,
            ordinal,
            items: sizes.len(),
            pixel_seconds,
        };
        if self.batched().is_none() {
            let mut log = self.streams[stream].lock();
            self.check_live(&log, stream)?;
            log.tickets.push((sizes, ticket));
            return Ok(PollSubmit::Ready(Vec::new()));
        }
        let mut st = self.state.lock();
        {
            let mut log = self.streams[stream].lock();
            self.check_live(&log, stream)?;
            if st.pending[stream].is_some() {
                return Err(SubmitError::TicketPending { stream });
            }
            log.tickets.push((sizes, ticket));
        }
        st.pending[stream] = Some(inputs);
        st.waiting.push(stream);
        self.flush_if_ready(&mut st);
        Self::poll_state(&mut st, stream)
    }

    fn check_live(&self, log: &StreamLog, stream: usize) -> Result<(), SubmitError> {
        if log.finished || !self.is_admitted(stream) {
            return Err(SubmitError::Finished { stream });
        }
        Ok(())
    }

    /// Re-poll a ticket left [`PollSubmit::Pending`] by
    /// [`Self::poll_submit_exec`].
    pub fn poll_pending(&self, stream: usize) -> Result<PollSubmit, SubmitError> {
        let mut st = self.state.lock();
        Self::poll_state(&mut st, stream)
    }

    /// Shared resolution step: interrupted → error; no ticket pending →
    /// the round flushed (collect outputs); ticket still pending →
    /// pending.
    fn poll_state(st: &mut BatchState, stream: usize) -> Result<PollSubmit, SubmitError> {
        if st.interrupted[stream] {
            st.interrupted[stream] = false;
            return Err(SubmitError::Interrupted { stream });
        }
        if st.pending[stream].is_none() {
            return Ok(PollSubmit::Ready(
                st.outputs[stream].take().unwrap_or_default(),
            ));
        }
        Ok(PollSubmit::Pending)
    }

    /// Mark `stream` as done (idempotent). Its finish frees an
    /// admission slot for the next deferred stream, and a finished
    /// stream stops gating the rendezvous, so the remaining streams
    /// keep batching among themselves. If the stream still had a ticket
    /// pending (its task died mid-submit), the ticket is discarded —
    /// removed from the stream's sequence, never flushed or charged —
    /// and its next poll reports [`SubmitError::Interrupted`].
    pub fn finish(&self, stream: usize) {
        let mut st = self.state.lock();
        let mut wake = Vec::new();
        {
            let mut log = self.streams[stream].lock();
            if log.finished {
                return;
            }
            log.finished = true;
            if st.pending[stream].take().is_some() {
                let (sizes, _) = log
                    .tickets
                    .pop()
                    .expect("a pending ticket is its stream's last");
                st.waiting.retain(|&s| s != stream);
                st.interrupted[stream] = true;
                // Count the orphan explicitly: it was never flushed or
                // charged, and `mean_batch_occupancy` must neither
                // include it nor hide that it was dropped.
                self.ledger.record_batch_discard(sizes.len());
                wake.extend(st.wakers[stream].clone());
            }
        }
        st.outputs[stream] = None;
        if self.is_admitted(stream) {
            // Admission hand-off happens BEFORE the rendezvous
            // re-checks readiness: the newly admitted stream gates every
            // round flushed from this point on, as it does in `settle`.
            st.live -= 1;
            if let Some(next) = st.deferred.pop_front() {
                st.live += 1;
                self.admitted[next].store(true, Ordering::SeqCst);
                wake.extend(st.wakers[next].clone());
            }
        } else {
            // A deferred stream finishing without ever being admitted
            // (its task shut down early) vacates the admission queue
            // but frees no slot: it never held one.
            st.deferred.retain(|&s| s != stream);
            self.admitted[stream].store(true, Ordering::SeqCst);
        }
        if self.batched().is_some() {
            self.flush_if_ready(&mut st);
        }
        drop(st);
        for w in wake {
            w.wake();
        }
    }

    /// The rounds the batched-mode rendezvous flushed so far, in order
    /// (empty in other modes). [`Self::settle`] reproduces them
    /// exactly; they are never charged.
    pub fn flushed_rounds(&self) -> Vec<RoundRecord> {
        self.state.lock().flushed.clone()
    }

    /// Settle the run's accounting: replay the lockstep rule (module
    /// docs) over the recorded ticket sequences, charge one `per_call`
    /// per (size, chunk) of every round into the batcher's ledger, and
    /// return the round log in round order. Call once every stream's
    /// task has finished.
    pub fn settle(self) -> Vec<RoundRecord> {
        let logs: Vec<Vec<Logged>> = self
            .streams
            .iter()
            .map(|log| std::mem::take(&mut log.lock().tickets))
            .collect();
        let n = logs.len();
        let mut next = vec![0usize; n];
        // Live streams in stream order: admission is in index order, so
        // newly admitted streams always sort after every earlier one.
        let mut active: Vec<usize> = (0..self.max_active).collect();
        let mut admit_from = self.max_active;
        let mut log = Vec::new();
        loop {
            // Streams out of tickets finish; each finish admits the
            // next deferred stream, which may have no tickets either.
            loop {
                let before = active.len();
                active.retain(|&s| next[s] < logs[s].len());
                let admitted = (before - active.len()).min(n - admit_from);
                if admitted == 0 {
                    break;
                }
                active.extend(admit_from..admit_from + admitted);
                admit_from += admitted;
            }
            if active.is_empty() {
                break;
            }
            let mut by_size: BTreeMap<(u32, u32), usize> = BTreeMap::new();
            let mut tickets = Vec::with_capacity(active.len());
            for &s in &active {
                let (sizes, ticket) = &logs[s][next[s]];
                next[s] += 1;
                for size in sizes {
                    *by_size.entry(*size).or_insert(0) += 1;
                }
                tickets.push(*ticket);
            }
            let chunks = self.chunks(&by_size);
            for &occupancy in &chunks {
                self.ledger
                    .charge_batch(Component::Detector, self.per_call, occupancy);
            }
            log.push(RoundRecord {
                tickets,
                launch_seconds: self.launch_seconds(&chunks),
            });
        }
        debug_assert!(
            self.batched().is_none() || log == self.state.lock().flushed,
            "settled rounds must equal the rendezvous flushes"
        );
        log
    }

    /// Occupancies of one round's launch chunks: each size group (in
    /// ascending size order) split into chunks of at most `max_batch`.
    fn chunks(&self, by_size: &BTreeMap<(u32, u32), usize>) -> Vec<usize> {
        let mut chunks = Vec::new();
        for &count in by_size.values() {
            let mut remaining = count;
            while remaining > 0 {
                let occupancy = remaining.min(self.max_batch);
                chunks.push(occupancy);
                remaining -= occupancy;
            }
        }
        chunks
    }

    /// One `per_call` per chunk, summed in chunk order.
    fn launch_seconds(&self, chunks: &[usize]) -> f64 {
        chunks.iter().fold(0.0, |sum, _| sum + self.per_call)
    }

    /// Batched mode: flush one round if every live stream has a ticket
    /// pending (and at least one does). Runs one surrogate forward per
    /// (size, chunk) of the round, scatters the outputs to the member
    /// streams and wakes them. Must be called with the state lock held.
    fn flush_if_ready(&self, st: &mut BatchState) {
        if st.waiting.is_empty() || st.waiting.len() < st.live {
            return;
        }
        let Some(exec) = self.batched() else {
            return;
        };
        let mut members = std::mem::take(&mut st.waiting);
        members.sort_unstable();
        let inputs: Vec<Vec<Tensor3>> = members
            .iter()
            .map(|&s| st.pending[s].take().unwrap_or_default())
            .collect();
        // Group windows by size across the members. Every window counts
        // towards the launch chunks; only windows that carry
        // materialized inputs join the forwards: a ghost-replay ticket
        // submits sizes without inputs (its outputs were digested in
        // the original run). Excluding it cannot perturb live outputs —
        // the batched kernels accumulate each window's elements in
        // exactly the looped order, so chunk membership never affects
        // bits.
        let mut by_size: BTreeMap<(u32, u32), usize> = BTreeMap::new();
        let mut groups: BTreeMap<(u32, u32), Vec<(usize, usize)>> = BTreeMap::new();
        let mut tickets = Vec::with_capacity(members.len());
        for (m, &s) in members.iter().enumerate() {
            let log = self.streams[s].lock();
            let (sizes, ticket) = log.tickets.last().expect("a pending ticket is logged");
            tickets.push(*ticket);
            for (w, size) in sizes.iter().enumerate() {
                *by_size.entry(*size).or_insert(0) += 1;
                if w < inputs[m].len() {
                    groups.entry(*size).or_default().push((m, w));
                }
            }
        }
        st.flushed.push(RoundRecord {
            tickets,
            launch_seconds: self.launch_seconds(&self.chunks(&by_size)),
        });
        // One forward per (size, chunk), sizes in BTreeMap order and
        // windows in stream-then-window order within a size.
        let start = Instant::now();
        let mut forwards = 0u64;
        let mut windows = 0u64;
        let mut outs: Vec<Vec<Tensor3>> = inputs
            .iter()
            .map(|v| vec![Tensor3::zeros(0, 0, 0); v.len()])
            .collect();
        for refs in groups.values() {
            for chunk in refs.chunks(self.max_batch) {
                let xs: Vec<&Tensor3> = chunk.iter().map(|&(m, w)| &inputs[m][w]).collect();
                let ys = exec.net().forward_batched(&xs);
                forwards += 1;
                windows += xs.len() as u64;
                for (&(m, w), y) in chunk.iter().zip(ys) {
                    outs[m][w] = y;
                }
            }
        }
        exec.record(start.elapsed(), forwards, windows);
        // A member stream's task may be parked on its now-resolved
        // ticket. Waking under the batcher lock is safe (the pool's wake
        // path never takes this lock) and a wake racing the member's own
        // in-progress poll just latches harmlessly.
        for (&s, out) in members.iter().zip(outs) {
            st.outputs[s] = Some(out);
            if let Some(w) = &st.wakers[s] {
                w.wake();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_core::evalpool::{PollTask, Polled, TaskPool};
    use otif_core::WindowNet;
    use otif_cv::{DetectorArch, DetectorConfig};
    use proptest::prelude::*;

    const CALL: f64 = 1.0;

    /// Submit one untagged ticket without surrogate inputs.
    fn submit(b: &DetectorBatcher, stream: usize, sizes: Vec<(u32, u32)>) -> PollSubmit {
        b.poll_submit_exec(stream, sizes, Vec::new(), Ticket::UNTAGGED, 0, 0.0)
            .unwrap()
    }

    /// A batcher that rendezvouses as in a batched-exec run. Tickets
    /// submitted without inputs run no forwards.
    fn batched(streams: usize, max_batch: usize, ledger: CostLedger) -> DetectorBatcher {
        let net = WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 3);
        DetectorBatcher::new(streams, CALL, max_batch, ledger).with_exec(Arc::new(
            DetectorExecHarness::new(net, DetectorExec::Batched),
        ))
    }

    /// One stream on a task pool: waits for admission, submits its
    /// tickets in order through the poll API (tagged with the stream as
    /// clip and the submission index as ordinal), parks on each
    /// unresolved one, and finishes when done — or right after
    /// submitting the ticket numbered `abandon_at`, pending or not.
    struct Submitter<'a> {
        b: &'a DetectorBatcher,
        stream: usize,
        tickets: std::vec::IntoIter<Vec<(u32, u32)>>,
        ordinal: usize,
        waiting: bool,
        abandon_at: Option<usize>,
    }

    impl PollTask for Submitter<'_> {
        fn poll(&mut self) -> Polled {
            if !self.b.is_admitted(self.stream) {
                return Polled::Pending;
            }
            loop {
                if self.waiting {
                    match self.b.poll_pending(self.stream).unwrap() {
                        PollSubmit::Pending => return Polled::Pending,
                        PollSubmit::Ready(_) => self.waiting = false,
                    }
                }
                let Some(sizes) = self.tickets.next() else {
                    self.b.finish(self.stream);
                    return Polled::Done;
                };
                let ordinal = self.ordinal;
                self.ordinal += 1;
                let polled = self
                    .b
                    .poll_submit_exec(self.stream, sizes, Vec::new(), self.stream, ordinal, 0.0)
                    .unwrap();
                if self.abandon_at == Some(ordinal) {
                    self.b.finish(self.stream);
                    return Polled::Done;
                }
                self.waiting = matches!(polled, PollSubmit::Pending);
            }
        }
    }

    /// Run one submitter per entry of `tickets` (stream `s` submits
    /// `tickets[s]`, abandoning at `abandon[s]`) on a `workers`-thread
    /// pool.
    fn drive_abandoning(
        b: &DetectorBatcher,
        tickets: Vec<Vec<Vec<(u32, u32)>>>,
        abandon: &[Option<usize>],
        workers: usize,
    ) {
        let pool = TaskPool::new(tickets.len(), None);
        let tasks: Vec<Box<dyn PollTask + '_>> = tickets
            .into_iter()
            .enumerate()
            .map(|(stream, t)| {
                b.set_waker(stream, pool.waker(stream));
                Box::new(Submitter {
                    b,
                    stream,
                    tickets: t.into_iter(),
                    ordinal: 0,
                    waiting: false,
                    abandon_at: abandon[stream],
                }) as Box<dyn PollTask + '_>
            })
            .collect();
        pool.run(workers, tasks);
    }

    fn drive(b: &DetectorBatcher, tickets: Vec<Vec<Vec<(u32, u32)>>>, workers: usize) {
        let abandon = vec![None; tickets.len()];
        drive_abandoning(b, tickets, &abandon, workers);
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
        assert_eq!(b.settle().len(), 1);
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
        assert_eq!(b.settle().len(), frames);
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, frames as u64);
        assert!((stats.mean_occupancy() - 2.0).abs() < 1e-12);
        assert!((ledger.get(Component::Detector) - frames as f64 * CALL).abs() < 1e-12);
    }

    #[test]
    fn uneven_stream_lengths_drain_without_deadlock() {
        let ledger = CostLedger::new();
        let b = batched(3, 16, ledger.clone());
        let tickets = [8usize, 3, 5]
            .iter()
            .map(|&frames| vec![vec![(32, 32)]; frames])
            .collect();
        drive(&b, tickets, 2);
        // the longest stream dictates the number of rounds
        assert_eq!(b.flushed_rounds().len(), 8);
        assert_eq!(b.settle().len(), 8);
        assert_eq!(ledger.batch_stats().items, 8 + 3 + 5);
    }

    #[test]
    fn max_batch_splits_oversized_groups() {
        let ledger = CostLedger::new();
        let b = DetectorBatcher::new(1, CALL, 4, ledger.clone());
        submit(&b, 0, vec![(64, 64); 10]);
        b.finish(0);
        b.settle();
        // 10 windows in chunks of ≤4 → 3 batches (4+4+2)
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.items, 10);
    }

    #[test]
    fn finished_stream_stops_gating_the_watermark() {
        let ledger = CostLedger::new();
        let b = batched(2, 16, ledger.clone());
        // stream 1 never submits; its finish must let stream 0 flush
        b.finish(1);
        assert!(matches!(
            submit(&b, 0, vec![(64, 64)]),
            PollSubmit::Ready(_)
        ));
        b.finish(0);
        assert_eq!(b.settle().len(), 1);
        assert_eq!(ledger.batch_stats().batches, 1);
    }

    #[test]
    fn unbatched_submits_never_wait() {
        // Without a batched rendezvous a ticket is Ready at once, even
        // while a sibling stream has submitted nothing.
        for exec in [None, Some(DetectorExec::Looped)] {
            let mut b = DetectorBatcher::new(2, CALL, 16, CostLedger::new());
            if let Some(mode) = exec {
                let net = WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 3);
                b = b.with_exec(Arc::new(DetectorExecHarness::new(net, mode)));
            }
            for _ in 0..3 {
                assert!(matches!(
                    submit(&b, 1, vec![(32, 32)]),
                    PollSubmit::Ready(_)
                ));
            }
            assert!(b.flushed_rounds().is_empty());
            b.finish(1);
            b.finish(0);
            assert_eq!(b.settle().len(), 3);
        }
    }

    #[test]
    fn submit_after_finish_is_a_checked_error() {
        let b = batched(2, 16, CostLedger::new());
        b.finish(1);
        assert_eq!(
            b.poll_submit_exec(1, vec![(64, 64)], Vec::new(), Ticket::UNTAGGED, 0, 0.0)
                .unwrap_err(),
            SubmitError::Finished { stream: 1 }
        );
        // the healthy stream is unaffected
        submit(&b, 0, vec![(64, 64)]);
        assert_eq!(b.flushed_rounds().len(), 1);
        assert_eq!(b.settle().len(), 1);
    }

    #[test]
    fn double_ticket_is_a_checked_error() {
        let b = batched(2, 16, CostLedger::new());
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
        assert_eq!(b.flushed_rounds().len(), 1);
        b.finish(0);
        b.finish(1);
        let log = b.settle();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].tickets.len(), 2);
        assert_eq!(log[0].tickets[1].items, 1);
    }

    #[test]
    fn finish_with_pending_ticket_releases_waiter_and_drains_others() {
        // Regression (fault tolerance): finishing a stream while its
        // ticket is outstanding must (a) report Interrupted to the
        // waiting stream and wake it, (b) discard the ticket uncharged,
        // and (c) let the remaining streams keep draining.
        let ledger = CostLedger::new();
        let b = batched(3, 16, ledger.clone());
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
        assert_eq!(b.flushed_rounds().len(), 3);
        assert_eq!(b.settle().len(), 3);
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.items, 6);
        assert!((ledger.get(Component::Detector) - 3.0 * CALL).abs() < 1e-12);
    }

    #[test]
    fn charges_are_interleaving_independent() {
        let run = |workers: usize, rendezvous: bool| {
            let ledger = CostLedger::new();
            let b = if rendezvous {
                batched(3, 4, ledger.clone())
            } else {
                DetectorBatcher::new(3, CALL, 4, ledger.clone())
            };
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
            let log = b.settle();
            (ledger.get(Component::Detector), ledger.batch_stats(), log)
        };
        let (cost_a, stats_a, log_a) = run(1, false);
        for workers in [1, 2, 3] {
            for rendezvous in [false, true] {
                let (cost_b, stats_b, log_b) = run(workers, rendezvous);
                assert_eq!(stats_a, stats_b);
                assert_eq!(log_a, log_b);
                assert_eq!(cost_a.to_bits(), cost_b.to_bits());
            }
        }
    }

    #[test]
    fn orphaned_tickets_are_counted_not_averaged() {
        // Regression: an orphaned ticket (stream finished while its
        // ticket was pending) must be excluded from mean_batch_occupancy
        // *and* explicitly counted as discarded — not silently vanish.
        let ledger = CostLedger::new();
        let b = batched(2, 16, ledger.clone());
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
        assert_eq!(b.settle().len(), 2);
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
        // the flush charged nothing; settling charges the same chunks
        assert_eq!(ledger.batch_stats().items, 0);
        b.settle();
        assert_eq!(ledger.batch_stats().items, 5);
        assert_eq!(ledger.batch_stats().batches, 3);
    }

    #[test]
    fn exec_off_returns_no_outputs() {
        let b = DetectorBatcher::new(1, CALL, 16, CostLedger::new());
        let PollSubmit::Ready(out) = submit(&b, 0, vec![(64, 64)]) else {
            panic!("an unbatched submit is ready at once");
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
        let log = b.settle();
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
        assert_eq!(b.settle().len(), 2);
    }

    #[test]
    fn settle_admits_a_deferred_stream_when_one_runs_out() {
        // Streams of 2, 0 and 3 tickets under a cap of 2: stream 1 has
        // nothing to submit, so it finishes before the first round and
        // admits stream 2 into it.
        let b = DetectorBatcher::new(3, CALL, 16, CostLedger::new()).with_max_active(2);
        for _ in 0..2 {
            submit(&b, 0, vec![(8, 8)]);
        }
        b.finish(0);
        b.finish(1);
        for _ in 0..3 {
            submit(&b, 2, vec![(8, 8)]);
        }
        b.finish(2);
        let members: Vec<Vec<usize>> = b
            .settle()
            .iter()
            .map(|r| r.tickets.iter().map(|t| t.stream).collect())
            .collect();
        assert_eq!(members, vec![vec![0, 2], vec![0, 2], vec![2]]);
    }

    // Settling replays the rendezvous: for 1–4 streams of uneven
    // lengths, any admission cap and any worker count, with one stream
    // possibly finishing while its ticket is pending, the settled round
    // log equals the rounds the batched rendezvous flushed — members
    // and launch bits — and every submitted ticket is either settled or
    // counted as discarded.
    proptest! {
        #[test]
        fn settled_rounds_equal_batched_rendezvous_flushes(
            lengths in proptest::collection::vec(0usize..7, 4),
            streams in 1usize..5,
            cap in 0usize..4,
            abandon in 0usize..10,
            workers in 1usize..4,
            salt in 0usize..1000,
        ) {
            let cap = 1 + cap % streams;
            let ledger = CostLedger::new();
            let b = batched(streams, 3, ledger.clone()).with_max_active(cap);
            let tickets: Vec<Vec<Vec<(u32, u32)>>> = (0..streams)
                .map(|s| {
                    (0..lengths[s])
                        .map(|f| {
                            let n = 1 + (f + s + salt) % 4;
                            let side = 16 * (1 + ((f * 7 + s + salt) % 3) as u32);
                            vec![(side, side); n]
                        })
                        .collect()
                })
                .collect();
            // stream `abandon % streams` finishes right after its ticket
            // `abandon / streams` (no abandon if it has fewer tickets)
            let mut abandon_at = vec![None; streams];
            abandon_at[abandon % streams] = Some(abandon / streams);
            let submitted: usize = tickets
                .iter()
                .zip(&abandon_at)
                .map(|(t, a)| a.map_or(t.len(), |j| t.len().min(j + 1)))
                .sum();
            drive_abandoning(&b, tickets, &abandon_at, workers);
            let flushed = b.flushed_rounds();
            let settled = b.settle();
            prop_assert_eq!(settled.len(), flushed.len());
            for (r, (s, f)) in settled.iter().zip(&flushed).enumerate() {
                prop_assert_eq!(&s.tickets, &f.tickets, "round {}", r);
                prop_assert_eq!(s.launch_seconds.to_bits(), f.launch_seconds.to_bits());
            }
            let settled_tickets: usize = settled.iter().map(|r| r.tickets.len()).sum();
            let stats = ledger.batch_stats();
            prop_assert_eq!(settled_tickets + stats.discarded_tickets as usize, submitted);
        }
    }
}
