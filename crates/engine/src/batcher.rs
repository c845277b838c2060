//! Cross-stream detector batching (§3.2's "batched inference across
//! streams" scaled out to the multi-stream engine).
//!
//! Every stream submits one *ticket* per processed frame that has
//! detector windows: the rounded sizes of those windows plus the
//! frame's identity ([`Ticket`]); a resumed stream appends a journaled
//! clip's recorded tickets in one call ([`DetectorBatcher::splice`]).
//! One function, the round former, forms rounds from the per-stream
//! ticket sequences by the lockstep rule:
//!
//! - round *r* takes the next ticket of every stream in the round
//!   sequence, in stream order (in virtual time no stream's detector
//!   runs ahead of the others'), once each has logged it or has
//!   finished with its log used up;
//! - such a finished stream leaves the sequence and admits the next
//!   deferred stream ([`DetectorBatcher::with_max_active`]) before the
//!   next round forms;
//! - within a round, windows are grouped by size — the fixed
//!   window-size set W is what makes same-size groups common — and each
//!   group is split into chunks of at most `max_batch` windows; one
//!   launch overhead (`per_call`) is charged per chunk, in size order,
//!   through [`CostLedger::charge_batch`], which also records batch
//!   occupancy.
//!
//! [`DetectorBatcher::settle`] forms the rounds still unformed and
//! charges every round in round order: it is the only accounting path.
//! Round contents are a pure function of the per-stream ticket
//! sequences (which are themselves deterministic), so charges,
//! occupancy stats and the [`RoundRecord`] log are bitwise independent
//! of thread interleaving — and with one stream they equal the
//! sequential pipeline's per-frame `windows_cost` accounting exactly
//! (one `per_call` per distinct window size per frame, as long as
//! `max_batch` exceeds the per-frame same-size window count).
//!
//! Only [`DetectorExec::Batched`], whose surrogate forwards need a
//! round's windows together, forms rounds during the run: after every
//! submit and finish, with readiness an O(1) count of the streams the
//! sequence waits for. A submitted ticket stays [`PollSubmit::Pending`]
//! until its round forms and runs one forward per (size, chunk) over
//! the windows that carry inputs. Spliced tickets carry none: a splice
//! never parks, but the stream's next live ticket waits for their
//! rounds too. Under `Off` and `Looped` a submit is a push onto the
//! stream's uncontended log and returns [`PollSubmit::Ready`] at once.
//!
//! Fault tolerance: protocol violations (double ticket, submit after
//! finish) are checked errors in every build profile. In `Batched`
//! mode [`DetectorBatcher::finish`] handles a stream dying with a
//! ticket still pending: the orphaned ticket is removed from its
//! stream's sequence (so no round takes it) and counted through
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
/// while the ticket waited, and the ticket was discarded unformed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The stream already has a ticket waiting for its round.
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
    /// ticket was discarded without joining a round or being charged.
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
/// completion times per round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ticket {
    /// Submitting stream.
    pub stream: usize,
    /// Global clip index of the frame.
    pub clip: usize,
    /// Sampled-frame ordinal within the clip.
    pub ordinal: usize,
    /// Windows carried by the ticket.
    pub items: usize,
    /// Detector pixel seconds charged for the frame's windows (to the
    /// clip's ledger, by the detect stage, before submitting).
    pub pixel_seconds: f64,
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

/// A frame's ticket as a clip records it: sampled-frame ordinal,
/// rounded window sizes and detector pixel seconds.
type Recorded = (usize, Vec<(u32, u32)>, f64);

/// One stream's submissions in order — the round former's input.
/// Outside `Batched` only the stream's own task touches it during a
/// run, so its lock is uncontended.
#[derive(Default)]
struct StreamLog {
    tickets: Vec<Logged>,
    finished: bool,
}

/// Admission state, the round sequence as far as it has formed, and
/// the parked tickets of [`DetectorExec::Batched`].
struct BatchState {
    /// Admission queue: streams not yet admitted (in index order).
    /// `finish` pops the front each time an active stream completes, so
    /// the admitted set is a pure function of which streams have
    /// finished — never of thread timing.
    deferred: VecDeque<usize>,
    /// The round sequence's streams, in stream order (it admits in
    /// index order), and the next stream it admits.
    active: Vec<usize>,
    admit_from: usize,
    /// Per stream: tickets taken by formed rounds.
    taken: Vec<usize>,
    /// Streams of the sequence that are unfinished with every logged
    /// ticket taken, kept under `Batched`: no round forms while any is.
    blocking: usize,
    /// Formed rounds in order, with the chunk occupancies to charge.
    formed: Vec<(RoundRecord, Vec<usize>)>,
    /// Per-stream task wakers: fired when a round or finish resolves
    /// the stream's pending ticket, and when the stream is admitted.
    wakers: Vec<Option<TaskWaker>>,
    /// Batched mode: the window inputs of each stream's pending ticket
    /// (the last of its log), `Some` while the ticket waits for its
    /// round.
    pending: Vec<Option<Vec<Tensor3>>>,
    /// Surrogate outputs scattered back per stream by a formed round,
    /// collected by the stream's next poll.
    outputs: Vec<Option<Vec<Tensor3>>>,
    /// Set when `finish` discards a stream's pending ticket, so its
    /// next poll reports `SubmitError::Interrupted` instead of assuming
    /// the ticket joined a round.
    interrupted: Vec<bool>,
}

impl BatchState {
    /// Whether round formation waits for `stream`.
    fn blocks(&self, stream: usize, log: &StreamLog) -> bool {
        stream < self.admit_from && !log.finished && self.taken[stream] == log.tickets.len()
    }
}

/// Outcome of a non-blocking batcher submit poll.
#[derive(Debug)]
pub enum PollSubmit {
    /// The ticket is recorded and, in batched mode, its round formed:
    /// the per-window surrogate outputs (empty unless the batcher
    /// executes the surrogate).
    Ready(Vec<Tensor3>),
    /// Batched mode: the ticket is logged but its round has not formed
    /// yet; the stream's waker fires when it does. Re-poll with
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
                active: (0..streams).collect(),
                admit_from: streams,
                taken: vec![0; streams],
                blocking: streams,
                formed: Vec::new(),
                wakers: (0..streams).map(|_| None).collect(),
                pending: (0..streams).map(|_| None).collect(),
                outputs: (0..streams).map(|_| None).collect(),
                interrupted: vec![false; streams],
            }),
            per_call,
            max_batch: max_batch.max(1),
            ledger,
            exec: None,
            admitted: (0..streams).map(|_| AtomicBool::new(true)).collect(),
        }
    }

    /// Admission control: only the first `max_active` streams start
    /// active; streams `max_active..` are *deferred* — not in the round
    /// sequence and not admitted (their tasks wait). Each
    /// [`Self::finish`] of an active stream admits the next deferred
    /// stream in index order, so at most `max_active` streams are ever
    /// in flight and the admission sequence is deterministic.
    pub fn with_max_active(mut self, max_active: usize) -> Self {
        let streams = self.admitted.len();
        let max_active = max_active.clamp(1, streams.max(1)).min(streams);
        let st = self.state.get_mut();
        st.active.truncate(max_active);
        st.admit_from = max_active;
        st.blocking = max_active;
        for s in max_active..streams {
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

    /// Rounds formed so far: the stall watchdog's progress measure.
    pub fn rounds_formed(&self) -> usize {
        self.state.lock().formed.len()
    }

    /// Register `stream`'s task waker, fired when a round or finish
    /// resolves its pending ticket and when the stream is admitted.
    pub fn set_waker(&self, stream: usize, waker: TaskWaker) {
        self.state.lock().wakers[stream] = Some(waker);
    }

    /// Attach a detector-execution harness. When its mode is
    /// [`DetectorExec::Batched`], rounds form as soon as they are ready
    /// and run the surrogate forward over their same-size chunks
    /// (exactly the chunks [`Self::settle`] charges for), scattering
    /// per-window outputs back to the submitting streams.
    pub fn with_exec(mut self, exec: Arc<DetectorExecHarness>) -> Self {
        self.exec = Some(exec);
        self
    }

    /// The harness whose forwards formed rounds run, if the batcher
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
    /// never affects batching). Reports [`PollSubmit::Ready`] at once
    /// unless the batcher executes the surrogate in batched mode, where
    /// it carries the frame's outputs if its round has formed, and
    /// [`PollSubmit::Pending`] means the waker fires when it forms.
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
        let recorded = std::iter::once((ordinal, sizes, pixel_seconds));
        self.append(stream, clip, recorded, Some(inputs))?;
        match self.batched() {
            Some(_) => self.poll_pending(stream),
            None => Ok(PollSubmit::Ready(Vec::new())),
        }
    }

    /// Append a journaled clip's recorded tickets — `(ordinal, sizes,
    /// pixel seconds)` in ordinal order — to `stream`'s log in one call.
    /// They carry no inputs, so the stream never waits for their rounds,
    /// which form exactly as in the run that recorded them. Protocol
    /// violations are checked as for [`Self::poll_submit_exec`].
    pub fn splice(
        &self,
        stream: usize,
        clip: usize,
        recorded: Vec<Recorded>,
    ) -> Result<(), SubmitError> {
        self.append(stream, clip, recorded, None)
    }

    /// Log `recorded` tickets of `clip` for `stream`; in batched mode
    /// `inputs` marks the last one pending and the former runs.
    fn append(
        &self,
        stream: usize,
        clip: usize,
        recorded: impl IntoIterator<Item = Recorded>,
        inputs: Option<Vec<Tensor3>>,
    ) -> Result<(), SubmitError> {
        let tickets = recorded.into_iter().map(|(ordinal, sizes, pixel_seconds)| {
            let items = sizes.len();
            let ticket = Ticket {
                stream,
                clip,
                ordinal,
                items,
                pixel_seconds,
            };
            (sizes, ticket)
        });
        let batched = self.batched().is_some();
        let mut st = batched.then(|| self.state.lock());
        let mut log = self.streams[stream].lock();
        if log.finished || !self.is_admitted(stream) {
            return Err(SubmitError::Finished { stream });
        }
        let Some(st) = st.as_deref_mut() else {
            log.tickets.extend(tickets);
            return Ok(());
        };
        if st.pending[stream].is_some() {
            return Err(SubmitError::TicketPending { stream });
        }
        let before = log.tickets.len();
        let was_blocking = st.blocks(stream, &log);
        log.tickets.extend(tickets);
        if was_blocking && log.tickets.len() > before {
            st.blocking -= 1;
        }
        drop(log);
        st.pending[stream] = inputs;
        self.form(st);
        Ok(())
    }

    /// Re-poll a ticket left [`PollSubmit::Pending`] by
    /// [`Self::poll_submit_exec`]: interrupted → error; no ticket
    /// pending → its round formed (collect outputs); else pending.
    pub fn poll_pending(&self, stream: usize) -> Result<PollSubmit, SubmitError> {
        let mut st = self.state.lock();
        if std::mem::take(&mut st.interrupted[stream]) {
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
    /// admission slot for the next deferred stream, and once its log is
    /// used up it stops gating the round sequence, so the remaining
    /// streams keep batching among themselves. If the stream still had
    /// a ticket pending (its task died mid-submit), the ticket is
    /// discarded — removed from the stream's sequence, never joining a
    /// round or charged — and its next poll reports
    /// [`SubmitError::Interrupted`].
    pub fn finish(&self, stream: usize) {
        let mut st = self.state.lock();
        let mut wake = Vec::new();
        {
            let mut log = self.streams[stream].lock();
            if log.finished {
                return;
            }
            if self.batched().is_some() && st.blocks(stream, &log) {
                st.blocking -= 1;
            }
            log.finished = true;
            if st.pending[stream].take().is_some() {
                let (sizes, _) = log
                    .tickets
                    .pop()
                    .expect("a pending ticket is its stream's last");
                st.interrupted[stream] = true;
                // Count the orphan explicitly: no round took or charged
                // it, and `mean_batch_occupancy` must neither include it
                // nor hide that it was dropped.
                self.ledger.record_batch_discard(sizes.len());
                wake.extend(st.wakers[stream].clone());
            }
        }
        st.outputs[stream] = None;
        if self.is_admitted(stream) {
            if let Some(next) = st.deferred.pop_front() {
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
            self.form(&mut st);
        }
        drop(st);
        for w in wake {
            w.wake();
        }
    }

    /// Settle the run's accounting: form the rounds still unformed,
    /// charge one `per_call` per (size, chunk) of every round into the
    /// batcher's ledger in round order, and return the round log. Call
    /// once every stream's task has finished; a stream not marked
    /// finished counts as finished with its log as it stands.
    pub fn settle(self) -> Vec<RoundRecord> {
        let mut st = self.state.lock();
        for log in &self.streams {
            log.lock().finished = true;
        }
        st.blocking = 0;
        self.form(&mut st);
        let charge = |(round, chunks): (RoundRecord, Vec<usize>)| {
            for occupancy in chunks {
                self.ledger
                    .charge_batch(Component::Detector, self.per_call, occupancy);
            }
            round
        };
        st.formed.drain(..).map(charge).collect()
    }

    /// The round former: forms, in order, every round the lockstep rule
    /// (module docs) makes ready, and in batched mode runs each round's
    /// forwards as it forms. Must be called with the state lock held.
    fn form(&self, st: &mut BatchState) {
        let n = self.streams.len();
        while st.blocking == 0 {
            // Streams finished with their log used up leave the
            // sequence; each admits the next stream, whose log may be
            // used up too.
            loop {
                let before = st.active.len();
                st.active.retain(|&s| {
                    let log = self.streams[s].lock();
                    !log.finished || st.taken[s] < log.tickets.len()
                });
                let admitted = (before - st.active.len()).min(n - st.admit_from);
                if admitted == 0 {
                    break;
                }
                let from = st.admit_from;
                st.admit_from += admitted;
                for s in from..st.admit_from {
                    st.active.push(s);
                    st.blocking += usize::from(st.blocks(s, &self.streams[s].lock()));
                }
            }
            if st.blocking > 0 || st.active.is_empty() {
                return;
            }
            let mut by_size: BTreeMap<(u32, u32), usize> = BTreeMap::new();
            // Windows that carry inputs, by size, as (fed member, window).
            let mut groups: BTreeMap<(u32, u32), Vec<(usize, usize)>> = BTreeMap::new();
            // Members whose pending ticket the round takes, with inputs.
            let mut fed: Vec<(usize, Vec<Tensor3>)> = Vec::new();
            let mut tickets = Vec::with_capacity(st.active.len());
            for &s in &st.active {
                let log = self.streams[s].lock();
                let (sizes, ticket) = &log.tickets[st.taken[s]];
                st.taken[s] += 1;
                tickets.push(*ticket);
                for size in sizes {
                    *by_size.entry(*size).or_insert(0) += 1;
                }
                // Only a stream's last ticket can be pending; a spliced
                // one never is.
                let last = st.taken[s] == log.tickets.len();
                if let Some(inputs) = st.pending[s].take_if(|_| last) {
                    for (w, size) in sizes.iter().enumerate().take(inputs.len()) {
                        groups.entry(*size).or_default().push((fed.len(), w));
                    }
                    fed.push((s, inputs));
                }
                st.blocking += usize::from(last && !log.finished);
            }
            let chunks = self.chunks(&by_size);
            let launch_seconds = self.launch_seconds(&chunks);
            st.formed.push((
                RoundRecord {
                    tickets,
                    launch_seconds,
                },
                chunks,
            ));
            // One forward per (size, chunk), sizes in BTreeMap order and
            // windows in stream-then-window order within a size. Windows
            // without inputs count towards the launch chunks but join no
            // forward; that cannot perturb live outputs — the batched
            // kernels accumulate each window's elements in exactly the
            // looped order, so chunk membership never affects bits.
            let mut outs: Vec<Vec<Tensor3>> = fed
                .iter()
                .map(|(_, v)| vec![Tensor3::zeros(0, 0, 0); v.len()])
                .collect();
            if let Some(exec) = self.batched().filter(|_| !groups.is_empty()) {
                let start = Instant::now();
                let mut forwards = 0u64;
                for refs in groups.values() {
                    for chunk in refs.chunks(self.max_batch) {
                        let xs: Vec<&Tensor3> = chunk.iter().map(|&(m, w)| &fed[m].1[w]).collect();
                        for (&(m, w), y) in chunk.iter().zip(exec.net().forward_batched(&xs)) {
                            outs[m][w] = y;
                        }
                        forwards += 1;
                    }
                }
                let windows = groups.values().map(|g| g.len() as u64).sum();
                exec.record(start.elapsed(), forwards, windows);
            }
            // A member stream's task may be parked on its now-resolved
            // ticket. Waking under the batcher lock is safe (the pool's
            // wake path never takes this lock) and a wake racing the
            // member's own in-progress poll just latches harmlessly.
            for ((s, _), out) in fed.into_iter().zip(outs) {
                st.outputs[s] = Some(out);
                if let Some(w) = &st.wakers[s] {
                    w.wake();
                }
            }
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_core::evalpool::{PollTask, Polled, TaskPool};
    use otif_core::WindowNet;
    use otif_cv::{DetectorArch, DetectorConfig};
    use proptest::prelude::*;

    const CALL: f64 = 1.0;

    /// Submit one ticket without surrogate inputs, tagged with the
    /// stream as clip and its position in the stream's log as ordinal.
    fn submit(b: &DetectorBatcher, stream: usize, sizes: Vec<(u32, u32)>) -> PollSubmit {
        let ordinal = b.streams[stream].lock().tickets.len();
        b.poll_submit_exec(stream, sizes, Vec::new(), stream, ordinal, 0.0)
            .unwrap()
    }

    /// The settle oracle: the lockstep rule replayed in one pass over
    /// the per-stream logs as they stand, as if every stream had
    /// finished and no round had formed during the run.
    fn replay(b: &DetectorBatcher, max_active: usize) -> Vec<RoundRecord> {
        let logs: Vec<Vec<Logged>> = b.streams.iter().map(|l| l.lock().tickets.clone()).collect();
        let n = logs.len();
        let mut next = vec![0usize; n];
        let mut active: Vec<usize> = (0..max_active).collect();
        let mut admit_from = max_active;
        let mut rounds = Vec::new();
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
                return rounds;
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
            rounds.push(RoundRecord {
                tickets,
                launch_seconds: b.launch_seconds(&b.chunks(&by_size)),
            });
        }
    }

    /// A batcher that forms rounds during the run, as in a batched-exec
    /// run. Tickets submitted without inputs run no forwards.
    fn batched(streams: usize, max_batch: usize, ledger: CostLedger) -> DetectorBatcher {
        let net = WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 3);
        DetectorBatcher::new(streams, CALL, max_batch, ledger).with_exec(Arc::new(
            DetectorExecHarness::new(net, DetectorExec::Batched),
        ))
    }

    /// One stream on a task pool: waits for admission, splices its
    /// first `spliced` tickets in one call (a resumed clip's shape),
    /// submits the rest in order through the poll API (all tagged with
    /// the stream as clip and the ticket index as ordinal), parks on
    /// each unresolved one, and finishes when done — or right after
    /// submitting the ticket numbered `abandon_at`, pending or not.
    struct Submitter<'a> {
        b: &'a DetectorBatcher,
        stream: usize,
        spliced: usize,
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
            if self.spliced > 0 {
                let recorded = (0..std::mem::take(&mut self.spliced))
                    .map_while(|ordinal| Some((ordinal, self.tickets.next()?, 0.0)))
                    .collect::<Vec<_>>();
                self.ordinal = recorded.len();
                self.b.splice(self.stream, self.stream, recorded).unwrap();
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

    /// Run one submitter per entry of `tickets` (stream `s` splices
    /// the first `spliced[s]` of `tickets[s]`, submits the rest and
    /// abandons at `abandon[s]`) on a `workers`-thread pool.
    fn drive_abandoning(
        b: &DetectorBatcher,
        tickets: Vec<Vec<Vec<(u32, u32)>>>,
        spliced: &[usize],
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
                    spliced: spliced[stream],
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
        let (spliced, abandon) = (vec![0; tickets.len()], vec![None; tickets.len()]);
        drive_abandoning(b, tickets, &spliced, &abandon, workers);
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
        // the longest stream dictates the number of rounds, all formed
        // during the run
        assert_eq!(b.rounds_formed(), 8);
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
        // stream 1 never submits; its finish must let stream 0's round form
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
        // Without batched execution a ticket is Ready at once, even
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
            assert_eq!(b.rounds_formed(), 0);
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
            b.poll_submit_exec(1, vec![(64, 64)], Vec::new(), 1, 0, 0.0)
                .unwrap_err(),
            SubmitError::Finished { stream: 1 }
        );
        assert_eq!(
            b.splice(1, 1, vec![(0, vec![(64, 64)], 0.0)]).unwrap_err(),
            SubmitError::Finished { stream: 1 }
        );
        // the healthy stream is unaffected
        submit(&b, 0, vec![(64, 64)]);
        assert_eq!(b.rounds_formed(), 1);
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
            b.poll_submit_exec(1, vec![(64, 64)], Vec::new(), 1, 1, 0.0)
                .unwrap_err(),
            SubmitError::TicketPending { stream: 1 }
        );
        assert_eq!(
            b.splice(1, 1, vec![(1, vec![(64, 64)], 0.0)]).unwrap_err(),
            SubmitError::TicketPending { stream: 1 }
        );
        // stream 0's ticket completes the round with the original one
        assert!(matches!(
            submit(&b, 0, vec![(32, 32)]),
            PollSubmit::Ready(_)
        ));
        assert!(matches!(b.poll_pending(1), Ok(PollSubmit::Ready(_))));
        assert_eq!(b.rounds_formed(), 1);
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
        // ticket was never formed or charged
        drive(&b, vec![vec![vec![(64, 64)]; 3]; 2], 2);
        assert_eq!(b.rounds_formed(), 3);
        assert_eq!(b.settle().len(), 3);
        let stats = ledger.batch_stats();
        assert_eq!(stats.batches, 3);
        assert_eq!(stats.items, 6);
        assert!((ledger.get(Component::Detector) - 3.0 * CALL).abs() < 1e-12);
    }

    #[test]
    fn charges_are_interleaving_independent() {
        let run = |workers: usize, live: bool| {
            let ledger = CostLedger::new();
            let b = if live {
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
            for live in [false, true] {
                let (cost_b, stats_b, log_b) = run(workers, live);
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
        // stream 0 then forms two clean 2-window rounds on its own
        submit(&b, 0, vec![(32, 32); 2]);
        submit(&b, 0, vec![(32, 32); 2]);
        b.finish(0);
        assert_eq!(b.settle().len(), 2);
        let stats = ledger.batch_stats();
        assert_eq!(stats.discarded_tickets, 1);
        assert_eq!(stats.discarded_items, 7);
        assert_eq!(stats.batches, 2);
        assert_eq!(stats.items, 4);
        // occupancy reflects only formed chunks: (2+2)/2, not (2+2+7)/2
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
        // stream 1 waits for stream 0; stream 0's submit forms the
        // round inline and gets its outputs, stream 1 collects its own
        assert!(matches!(
            b.poll_submit_exec(1, sizes1, inputs1, 0, 0, 0.0),
            Ok(PollSubmit::Pending)
        ));
        let Ok(PollSubmit::Ready(out0)) = b.poll_submit_exec(0, sizes0, inputs0, 0, 0, 0.0) else {
            panic!("stream 0's submit completes the round");
        };
        let Ok(PollSubmit::Ready(out1)) = b.poll_pending(1) else {
            panic!("stream 1's ticket formed with the round");
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
        // forming charged nothing; settling charges the same chunks
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
        assert_eq!((log[1].tickets[0].clip, log[1].tickets[0].ordinal), (0, 1));
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

    #[test]
    fn spliced_tickets_never_park() {
        // Stream 0 splices three recorded tickets; stream 1's live
        // tickets form rounds with them at once, and only its fourth
        // waits — for stream 0's next ticket or finish.
        let b = batched(2, 16, CostLedger::new());
        let recorded = (0..3).map(|o| (o, vec![(32, 32)], 0.5)).collect();
        b.splice(0, 7, recorded).unwrap();
        for _ in 0..3 {
            assert!(matches!(
                submit(&b, 1, vec![(32, 32)]),
                PollSubmit::Ready(_)
            ));
        }
        assert_eq!(b.rounds_formed(), 3);
        assert!(matches!(submit(&b, 1, vec![(64, 64)]), PollSubmit::Pending));
        b.finish(0);
        assert!(matches!(b.poll_pending(1), Ok(PollSubmit::Ready(_))));
        b.finish(1);
        let log = b.settle();
        assert_eq!(log.len(), 4);
        assert_eq!(
            log[2].tickets[0],
            Ticket {
                stream: 0,
                clip: 7,
                ordinal: 2,
                items: 1,
                pixel_seconds: 0.5,
            }
        );
        assert_eq!(log[3].tickets.len(), 1);
    }

    // The round former matches the settle oracle: for 1–4 streams of
    // uneven lengths, some with a spliced prefix, any admission cap and
    // any worker count, with one stream possibly finishing right after
    // a live submit, the settled round log — formed live under
    // `Batched`, at settle otherwise — equals the oracle's replay of the
    // final logs, members and launch bits, and every logged ticket is
    // either settled or counted as discarded.
    proptest! {
        #[test]
        fn formed_rounds_equal_the_settle_oracle(
            lengths in proptest::collection::vec(0usize..7, 4),
            spliced in proptest::collection::vec(0usize..4, 4),
            streams in 1usize..5,
            cap in 0usize..4,
            abandon in 0usize..10,
            workers in 1usize..4,
            salt in 0usize..1000,
        ) {
            let cap = 1 + cap % streams;
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
            // `abandon / streams` if that one is submitted live
            let mut abandon_at = vec![None; streams];
            abandon_at[abandon % streams] = Some(abandon / streams);
            let logged: usize = (0..streams)
                .map(|s| match abandon_at[s] {
                    Some(j) if j >= spliced[s] => tickets[s].len().min(j + 1),
                    _ => tickets[s].len(),
                })
                .sum();
            for live in [false, true] {
                let ledger = CostLedger::new();
                let b = if live {
                    batched(streams, 3, ledger.clone())
                } else {
                    DetectorBatcher::new(streams, CALL, 3, ledger.clone())
                }
                .with_max_active(cap);
                drive_abandoning(&b, tickets.clone(), &spliced, &abandon_at, workers);
                let oracle = replay(&b, cap);
                let settled = b.settle();
                prop_assert_eq!(settled.len(), oracle.len());
                for (r, (s, o)) in settled.iter().zip(&oracle).enumerate() {
                    prop_assert_eq!(&s.tickets, &o.tickets, "round {}", r);
                    prop_assert_eq!(s.launch_seconds.to_bits(), o.launch_seconds.to_bits());
                }
                let settled_tickets: usize = settled.iter().map(|r| r.tickets.len()).sum();
                let stats = ledger.batch_stats();
                prop_assert_eq!(settled_tickets + stats.discarded_tickets as usize, logged);
            }
        }
    }
}
