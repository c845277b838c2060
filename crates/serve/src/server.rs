//! The concurrent query front-end: cache lookup, index-driven clip
//! pruning, parallel per-clip evaluation over the evalpool — and, since
//! the robustness PR, overload safety: a bounded admission queue with
//! load shedding, per-query deadlines, and degraded catalog-only
//! answers when the exact path is unavailable.
//!
//! Determinism contract: for a fixed store state, an *exact* answer's
//! canonical bytes are identical at any `threads` setting (per-clip
//! results are reassembled in clip-id order, the `par_map` guarantee),
//! any cache state (cached bytes are exactly what evaluation produced;
//! the fingerprint key can never serve an answer from a different clip
//! set), and with pruning on or off (pruning only skips clips that
//! provably contribute nothing). Degraded answers are self-marking
//! ([`Answer::Approximate`]) and excluded from both the cache and the
//! byte-identity contract — which queries get shed under overload is
//! timing-dependent, but a non-shed answer's bytes never are.
//!
//! Overload semantics ([`OverloadPolicy`], DESIGN.md §13): at most
//! `max_concurrent` queries evaluate at once; up to `max_queue` more
//! wait (bounded by the per-query deadline when one is set); anything
//! beyond that is **shed** — answered immediately from the catalog
//! summaries alone. A query whose deadline expires mid-evaluation, or
//! that touches a quarantined clip, degrades the same way instead of
//! failing.
//!
//! Pruning rules (all *necessary* conditions — see DESIGN.md §11):
//!
//! - aggregate and track queries answer one row per clip, so every clip
//!   participates — no pruning;
//! - any frame-limit query demanding ≥ n objects skips clips whose
//!   catalog `max_concurrent_tracks < n` (temporal interval summary);
//! - region queries additionally skip clips whose occupied geometry
//!   cells miss the polygon's bounding rectangle (catalog spatial
//!   summary — the clip file is never deserialized);
//! - hot-spot queries additionally skip the per-frame scan of loaded
//!   clips whose spatial index proves no `radius`-cluster of `n`
//!   distinct tracks exists anywhere, ignoring time
//!   ([`LoadedClip::hotspot_candidate`]).

use crate::cache::{AnswerCache, CacheStats};
use crate::io::StoreError;
use crate::query::{Answer, ServeQuery};
use crate::store::{LoadedClip, TrackStore};
use otif_core::evalpool::par_map;
use otif_query::{FrameLimitQuery, FrameQueryKind};
use serde::Serialize;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// A typed serving failure.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// The store failed in a way degradation could not absorb.
    Store(StoreError),
    /// Verify-mode cache hit whose bytes no longer match fresh
    /// evaluation.
    CacheVerify {
        /// The query's label.
        label: String,
        /// Cached byte length.
        cached: usize,
        /// Freshly evaluated byte length.
        fresh: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Store(e) => write!(f, "{e}"),
            ServeError::CacheVerify {
                label,
                cached,
                fresh,
            } => write!(
                f,
                "cache verification failed for {label}: cached {cached} bytes != fresh {fresh} bytes"
            ),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<StoreError> for ServeError {
    fn from(e: StoreError) -> ServeError {
        ServeError::Store(e)
    }
}

impl From<ServeError> for String {
    fn from(e: ServeError) -> String {
        e.to_string()
    }
}

/// How the answer cache participates in a query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    /// Bypass the cache entirely (no lookups, no inserts).
    Off,
    /// Normal operation: serve hits, fill on miss.
    On,
    /// Serve hits, but re-evaluate every hit and fail if the cached
    /// bytes differ from fresh evaluation (the byte-identity assertion).
    Verify,
}

/// Per-query execution options.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Worker threads for per-clip evaluation (0 = auto, the
    /// [`par_map`] convention).
    pub threads: usize,
    /// Enable index-driven clip pruning.
    pub pruning: bool,
    /// Cache participation.
    pub cache: CacheMode,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            threads: 0,
            pruning: true,
            cache: CacheMode::On,
        }
    }
}

/// Server-wide overload policy: admission bounds and the per-query
/// deadline. The default is fully permissive (unbounded concurrency, no
/// deadline) — the pre-robustness behaviour.
#[derive(Debug, Clone, Copy, Default)]
pub struct OverloadPolicy {
    /// Queries evaluating concurrently before new arrivals queue
    /// (0 = unbounded; admission control disabled).
    pub max_concurrent: usize,
    /// Arrivals allowed to wait for an evaluation slot; anything beyond
    /// is shed immediately.
    pub max_queue: usize,
    /// Per-query deadline, measured from arrival: bounds both queue
    /// wait and evaluation. Expiry degrades the answer to catalog-only.
    pub deadline: Option<Duration>,
}

/// Point-in-time serving counters.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct ServeStats {
    /// Queries executed (including cache hits and shed queries).
    pub queries: u64,
    /// Answer-cache counters.
    pub cache: CacheStats,
    /// Clips skipped before their file was touched (catalog pruning).
    pub clips_pruned: u64,
    /// Clips evaluated (loaded and run through an operator).
    pub clips_evaluated: u64,
    /// Loaded clips whose per-frame scan was skipped by the spatial
    /// index (hot-spot prefilter).
    pub frame_scans_skipped: u64,
    /// Clip files deserialized by the store so far.
    pub clip_loads: u64,
    /// Queries shed at admission (answered catalog-only).
    pub shed_queries: u64,
    /// Degraded answers produced (shed + deadline + quarantine).
    pub degraded_answers: u64,
    /// Clips currently quarantined in the store.
    pub quarantined_clips: u64,
    /// Transient read failures the store retried.
    pub read_retries: u64,
    /// Virtual seconds of deterministic retry backoff scheduled.
    pub retry_backoff_seconds: f64,
}

/// An answer plus its degradation marker (`None` = exact).
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// Canonical answer bytes.
    pub bytes: Arc<Vec<u8>>,
    /// Why the answer is degraded, if it is.
    pub degraded: Option<String>,
}

/// A per-clip evaluation failure inside the parallel map.
enum EvalFail {
    /// The query's deadline expired before this clip was evaluated.
    Deadline,
    /// This clip's payload could not be served.
    Clip(usize, StoreError),
}

#[derive(Default)]
struct Admission {
    running: usize,
    queued: usize,
}

/// The serving front-end over one [`TrackStore`].
pub struct QueryServer {
    store: Arc<TrackStore>,
    cache: AnswerCache,
    policy: OverloadPolicy,
    admission: Mutex<Admission>,
    admit_cv: Condvar,
    queries: AtomicU64,
    clips_pruned: AtomicU64,
    clips_evaluated: AtomicU64,
    frame_scans_skipped: AtomicU64,
    shed_queries: AtomicU64,
    degraded_answers: AtomicU64,
}

impl QueryServer {
    /// A server over `store` with an answer cache of `cache_capacity`
    /// entries and the permissive default [`OverloadPolicy`].
    pub fn new(store: Arc<TrackStore>, cache_capacity: usize) -> QueryServer {
        Self::with_policy(store, cache_capacity, OverloadPolicy::default())
    }

    /// A server with an explicit overload policy.
    pub fn with_policy(
        store: Arc<TrackStore>,
        cache_capacity: usize,
        policy: OverloadPolicy,
    ) -> QueryServer {
        QueryServer {
            store,
            cache: AnswerCache::new(cache_capacity),
            policy,
            admission: Mutex::new(Admission::default()),
            admit_cv: Condvar::new(),
            queries: AtomicU64::new(0),
            clips_pruned: AtomicU64::new(0),
            clips_evaluated: AtomicU64::new(0),
            frame_scans_skipped: AtomicU64::new(0),
            shed_queries: AtomicU64::new(0),
            degraded_answers: AtomicU64::new(0),
        }
    }

    /// The underlying store.
    pub fn store(&self) -> &Arc<TrackStore> {
        &self.store
    }

    /// The active overload policy.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// Try to win an evaluation slot, queueing (bounded by `deadline`)
    /// when the server is saturated. `false` = shed.
    fn admit(&self, deadline: Option<Instant>) -> bool {
        if self.policy.max_concurrent == 0 {
            return true;
        }
        let mut st = self.admission.lock().unwrap();
        if st.running < self.policy.max_concurrent {
            st.running += 1;
            return true;
        }
        if st.queued >= self.policy.max_queue {
            return false;
        }
        st.queued += 1;
        loop {
            if st.running < self.policy.max_concurrent {
                st.queued -= 1;
                st.running += 1;
                return true;
            }
            match deadline {
                None => st = self.admit_cv.wait(st).unwrap(),
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        st.queued -= 1;
                        return false;
                    }
                    let (guard, _timeout) = self.admit_cv.wait_timeout(st, d - now).unwrap();
                    st = guard;
                }
            }
        }
    }

    /// Release an evaluation slot and wake one queued waiter.
    fn release(&self) {
        if self.policy.max_concurrent == 0 {
            return;
        }
        let mut st = self.admission.lock().unwrap();
        st.running -= 1;
        drop(st);
        self.admit_cv.notify_one();
    }

    /// Execute a query under the overload policy. Never fails for
    /// overload or quarantine reasons — those degrade the answer to a
    /// marked catalog-only approximation instead. Hard failures
    /// (unreadable store, verify mismatch) still error.
    pub fn execute_robust(
        &self,
        q: &ServeQuery,
        opts: &ServeOptions,
    ) -> Result<QueryOutcome, ServeError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let deadline = self.policy.deadline.map(|d| Instant::now() + d);
        if !self.admit(deadline) {
            self.shed_queries.fetch_add(1, Ordering::Relaxed);
            self.degraded_answers.fetch_add(1, Ordering::Relaxed);
            self.cache.record_bypass();
            let reason = "shed: admission queue full";
            let ans = q.approximate_answer(self.store.metas(), reason);
            return Ok(QueryOutcome {
                bytes: Arc::new(ans.to_bytes()),
                degraded: Some(reason.to_string()),
            });
        }
        let result = self.execute_admitted(q, opts, deadline);
        self.release();
        result
    }

    /// The admitted path: cache for exact answers, degraded evaluation
    /// for deadline expiry and quarantined clips.
    fn execute_admitted(
        &self,
        q: &ServeQuery,
        opts: &ServeOptions,
        deadline: Option<Instant>,
    ) -> Result<QueryOutcome, ServeError> {
        let key = (q.canonical_key(), self.store.fingerprint());
        if opts.cache != CacheMode::Off {
            if let Some(hit) = self.cache.get(&key) {
                if opts.cache == CacheMode::Verify {
                    self.verify_hit(q, opts, &hit)?;
                }
                return Ok(QueryOutcome {
                    bytes: hit,
                    degraded: None,
                });
            }
        }
        let (answer, degraded) = self.evaluate_robust(q, opts, deadline)?;
        let bytes = Arc::new(answer.to_bytes());
        match &degraded {
            None => {
                if opts.cache != CacheMode::Off {
                    self.cache.insert(key, Arc::clone(&bytes));
                }
            }
            Some(_) => {
                self.degraded_answers.fetch_add(1, Ordering::Relaxed);
                self.cache.record_bypass();
            }
        }
        Ok(QueryOutcome { bytes, degraded })
    }

    /// Execute a query, returning the canonical answer bytes (the form
    /// cached, compared, and shipped to clients). This is the *strict*
    /// path: no admission control, no deadline, and any clip the exact
    /// evaluation cannot serve — including quarantined ones — is an
    /// error rather than a degraded answer.
    pub fn execute_bytes(
        &self,
        q: &ServeQuery,
        opts: &ServeOptions,
    ) -> Result<Arc<Vec<u8>>, ServeError> {
        self.queries.fetch_add(1, Ordering::Relaxed);
        let key = (q.canonical_key(), self.store.fingerprint());
        if opts.cache != CacheMode::Off {
            if let Some(hit) = self.cache.get(&key) {
                if opts.cache == CacheMode::Verify {
                    self.verify_hit(q, opts, &hit)?;
                }
                return Ok(hit);
            }
        }
        let bytes = Arc::new(self.evaluate(q, opts)?.to_bytes());
        if opts.cache != CacheMode::Off {
            self.cache.insert(key, Arc::clone(&bytes));
        }
        Ok(bytes)
    }

    /// Execute a query and decode the answer (strict path).
    pub fn execute(&self, q: &ServeQuery, opts: &ServeOptions) -> Result<Answer, ServeError> {
        Ok(Answer::from_bytes(&self.execute_bytes(q, opts)?))
    }

    /// Re-evaluate a cache hit and assert byte identity (verify mode).
    fn verify_hit(
        &self,
        q: &ServeQuery,
        opts: &ServeOptions,
        hit: &Arc<Vec<u8>>,
    ) -> Result<(), ServeError> {
        let fresh = self.evaluate(q, opts)?.to_bytes();
        if fresh != *hit.as_slice() {
            return Err(ServeError::CacheVerify {
                label: q.label(),
                cached: hit.len(),
                fresh: fresh.len(),
            });
        }
        self.cache.record_verified();
        Ok(())
    }

    /// Counter snapshot (server + cache + store).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            queries: self.queries.load(Ordering::Relaxed),
            cache: self.cache.stats(),
            clips_pruned: self.clips_pruned.load(Ordering::Relaxed),
            clips_evaluated: self.clips_evaluated.load(Ordering::Relaxed),
            frame_scans_skipped: self.frame_scans_skipped.load(Ordering::Relaxed),
            clip_loads: self.store.clip_loads(),
            shed_queries: self.shed_queries.load(Ordering::Relaxed),
            degraded_answers: self.degraded_answers.load(Ordering::Relaxed),
            quarantined_clips: self.store.quarantined().len() as u64,
            read_retries: self.store.read_retry_count(),
            retry_backoff_seconds: self.store.retry_backoff_seconds(),
        }
    }

    /// Per-clip rows for an aggregate/track query, in clip-id order.
    fn eval_rows(
        &self,
        q: &ServeQuery,
        opts: &ServeOptions,
        deadline: Option<Instant>,
    ) -> Vec<Result<Vec<f32>, EvalFail>> {
        let ids: Vec<usize> = self.store.metas().iter().map(|m| m.id).collect();
        self.clips_evaluated
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        let q = q.clone();
        par_map(opts.threads, ids, move |_, id| {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(EvalFail::Deadline);
            }
            let clip = self.store.load(id).map_err(|e| EvalFail::Clip(id, e))?;
            Ok(match &q {
                ServeQuery::Aggregate(a) => {
                    vec![a.run(&clip.tracks, clip.meta.num_frames, clip.meta.fps)]
                }
                ServeQuery::Track(t) => t.run(&clip.tracks, clip.meta.fps),
                ServeQuery::FrameLimit(_) => unreachable!("rows are aggregate/track only"),
            })
        })
    }

    /// Per-candidate frame matches for a frame-limit query.
    fn eval_matches(
        &self,
        f: &FrameLimitQuery,
        opts: &ServeOptions,
        deadline: Option<Instant>,
    ) -> Vec<Result<otif_query::ClipMatches, EvalFail>> {
        let candidates = self.prune_frame_limit(f, opts.pruning);
        par_map(opts.threads, candidates, move |_, id| {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(EvalFail::Deadline);
            }
            let clip = self.store.load(id).map_err(|e| EvalFail::Clip(id, e))?;
            Ok((id, clip.meta.fps, self.clip_frame_matches(f, &clip, opts)))
        })
    }

    /// Strict exact evaluation: any unavailable clip is an error.
    fn evaluate(&self, q: &ServeQuery, opts: &ServeOptions) -> Result<Answer, ServeError> {
        match q {
            ServeQuery::Aggregate(_) | ServeQuery::Track(_) => {
                let mut rows = Vec::with_capacity(self.store.len());
                for r in self.eval_rows(q, opts, None) {
                    match r {
                        Ok(row) => rows.push(row),
                        Err(EvalFail::Clip(_, e)) => return Err(e.into()),
                        Err(EvalFail::Deadline) => unreachable!("strict path has no deadline"),
                    }
                }
                Ok(Answer::PerClip(rows))
            }
            ServeQuery::FrameLimit(f) => {
                let mut per_clip = Vec::new();
                for r in self.eval_matches(f, opts, None) {
                    match r {
                        Ok(m) => per_clip.push(m),
                        Err(EvalFail::Clip(_, e)) => return Err(e.into()),
                        Err(EvalFail::Deadline) => unreachable!("strict path has no deadline"),
                    }
                }
                Ok(Answer::Frames(f.select_frames(&per_clip)))
            }
        }
    }

    /// Robust evaluation: deadline expiry degrades the whole answer to
    /// catalog-only; a quarantined/corrupt clip degrades just that
    /// clip's contribution (approximate row, or skipped matches); any
    /// other store failure — already past the store's own bounded
    /// retries — is a hard error.
    fn evaluate_robust(
        &self,
        q: &ServeQuery,
        opts: &ServeOptions,
        deadline: Option<Instant>,
    ) -> Result<(Answer, Option<String>), ServeError> {
        let quarantine_like = |e: &StoreError| {
            matches!(
                e,
                StoreError::Quarantined { .. } | StoreError::Corrupt { .. }
            )
        };
        match q {
            ServeQuery::Aggregate(_) | ServeQuery::Track(_) => {
                let metas = self.store.metas();
                let mut rows = Vec::with_capacity(metas.len());
                let mut reason: Option<String> = None;
                for (idx, r) in self.eval_rows(q, opts, deadline).into_iter().enumerate() {
                    match r {
                        Ok(row) => rows.push(row),
                        Err(EvalFail::Deadline) => {
                            let reason = "deadline: evaluation exceeded the per-query deadline";
                            return Ok((q.approximate_answer(metas, reason), Some(reason.into())));
                        }
                        Err(EvalFail::Clip(id, e)) if quarantine_like(&e) => {
                            rows.push(q.approximate_row(&metas[idx]));
                            reason = Some(format!("quarantine: clip {id} served from catalog"));
                        }
                        Err(EvalFail::Clip(_, e)) => return Err(e.into()),
                    }
                }
                Ok(match reason {
                    None => (Answer::PerClip(rows), None),
                    Some(r) => (
                        Answer::Approximate {
                            reason: r.clone(),
                            rows,
                            frames: Vec::new(),
                        },
                        Some(r),
                    ),
                })
            }
            ServeQuery::FrameLimit(f) => {
                let mut per_clip = Vec::new();
                let mut reason: Option<String> = None;
                for r in self.eval_matches(f, opts, deadline) {
                    match r {
                        Ok(m) => per_clip.push(m),
                        Err(EvalFail::Deadline) => {
                            let reason = "deadline: evaluation exceeded the per-query deadline";
                            return Ok((
                                q.approximate_answer(self.store.metas(), reason),
                                Some(reason.into()),
                            ));
                        }
                        Err(EvalFail::Clip(id, e)) if quarantine_like(&e) => {
                            reason = Some(format!("quarantine: clip {id} excluded from frames"));
                        }
                        Err(EvalFail::Clip(_, e)) => return Err(e.into()),
                    }
                }
                let frames = f.select_frames(&per_clip);
                Ok(match reason {
                    None => (Answer::Frames(frames), None),
                    Some(r) => (
                        Answer::Approximate {
                            reason: r.clone(),
                            rows: Vec::new(),
                            frames,
                        },
                        Some(r),
                    ),
                })
            }
        }
    }

    /// Catalog-level pruning for a frame-limit query: returns candidate
    /// clip ids in ascending order.
    fn prune_frame_limit(&self, f: &FrameLimitQuery, pruning: bool) -> Vec<usize> {
        let metas = self.store.metas();
        let mut out = Vec::with_capacity(metas.len());
        for m in metas {
            let keep = !pruning
                || (m.max_concurrent_tracks >= f.n
                    && match &f.kind {
                        FrameQueryKind::Count => true,
                        FrameQueryKind::Region(poly) => m.geometry_intersects(&poly.bounds()),
                        // spatial side handled post-load by the per-clip
                        // index (hotspot_candidate)
                        FrameQueryKind::HotSpot { .. } => true,
                    });
            if keep {
                out.push(m.id);
            }
        }
        self.clips_pruned
            .fetch_add((metas.len() - out.len()) as u64, Ordering::Relaxed);
        self.clips_evaluated
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        out
    }

    /// Per-clip frame matching, with the index-driven hot-spot
    /// prefilter in front of a read of the clip's frame table
    /// ([`FrameLimitQuery::table_matches`]).
    fn clip_frame_matches(
        &self,
        f: &FrameLimitQuery,
        clip: &LoadedClip,
        opts: &ServeOptions,
    ) -> Vec<(usize, usize)> {
        if opts.pruning {
            if let FrameQueryKind::HotSpot { radius } = &f.kind {
                if !clip.hotspot_candidate(*radius, f.n) {
                    self.frame_scans_skipped.fetch_add(1, Ordering::Relaxed);
                    return Vec::new();
                }
            }
        }
        f.table_matches(&clip.frames)
    }
}
