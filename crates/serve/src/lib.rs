#![warn(missing_docs)]

//! # otif-serve — the query-serving tier over the extracted track store
//!
//! OTIF's value proposition (§1) is that once tracks are extracted,
//! *any* query answers in milliseconds by post-processing tracks. The
//! rest of this workspace ends at track files plus one-shot evaluation
//! runs; this crate is the read path that turns those files into a
//! persistent, indexed, cache-fronted serving tier — the first subsystem
//! on the *query* side of the ingest/query split that Focus pioneered
//! (cheap index at ingest time, refinement only for the clips a query
//! actually touches).
//!
//! Components:
//!
//! - [`TrackStore`] — an on-disk clip catalog. Ingest writes one JSON
//!   track file per clip plus a catalog entry holding a compact spatial
//!   summary (occupied grid cells of the track geometry, rasterized so
//!   interpolated positions are covered), a temporal summary (the
//!   maximum number of concurrently alive tracks) and a content
//!   fingerprint. Clip payloads — tracks plus their per-clip
//!   [`GridIndex`](otif_geom::GridIndex) and
//!   [`FrameTable`](otif_query::FrameTable) — are deserialized lazily on
//!   first touch and cached.
//! - [`QueryServer`] — a concurrent front-end executing the existing
//!   `otif-query` aggregate / track / frame-limit operators across clips
//!   via `otif_core::evalpool::par_map`, with **index-driven clip
//!   pruning**: region and hot-spot limit queries only deserialize clips
//!   whose catalog cells intersect the predicate, and hot-spot queries
//!   additionally skip the frame-table read of loaded clips whose spatial
//!   index proves no radius-cluster of `n` distinct tracks exists
//!   (via [`GridIndex::query_circle`](otif_geom::GridIndex::query_circle)).
//! - [`AnswerCache`] — an LRU answer cache keyed by `(canonical query,
//!   clip-set fingerprint)` with hit/miss/eviction stats; in
//!   [`CacheMode::Verify`] every hit is re-evaluated and asserted
//!   byte-identical to the cached answer.
//! - [`workload`] — a deterministic mixed read workload plus a
//!   multi-client runner reporting latency percentiles and QPS, used by
//!   the `serving` bench and `otif-cli serve-bench`.
//!
//! The determinism contract mirrors the extraction side: an *exact*
//! answer's serialized bytes are identical at any worker-thread count,
//! any cache state, and with pruning on or off (pruning only ever skips
//! clips that provably contribute nothing).
//!
//! The robustness layer (DESIGN.md §13) adds durability and overload
//! safety on top:
//!
//! - [`io`] — typed [`StoreError`]s over the shared filesystem seam
//!   ([`otif_core::durable`]) every store read/write flows through, with
//!   its deterministic `(operation, ordinal)`-addressed fault plans for
//!   torn writes, failed renames, read errors, and crash points.
//! - [`journal`] — the append-only checksummed ingest journal whose
//!   append is the acknowledgement point; `catalog.json` becomes a
//!   rewritable checkpoint and [`store::fsck`] replays/repairs.
//! - Overload safety in [`QueryServer`]: a bounded admission queue with
//!   load shedding, per-query deadlines, and self-marking catalog-only
//!   [`Answer::Approximate`] answers for shed/deadlined queries and
//!   quarantined clips.

pub mod cache;
pub mod io;
pub mod journal;
pub mod query;
pub mod server;
pub mod store;
pub mod workload;

pub use cache::{AnswerCache, CacheStats};
pub use io::StoreError;
pub use query::{Answer, ServeQuery};
pub use server::{
    CacheMode, OverloadPolicy, QueryOutcome, QueryServer, ServeError, ServeOptions, ServeStats,
};
pub use store::{
    fsck, fsck_with, retry_backoff, ClipInfo, ClipMeta, FsckReport, LoadedClip, StoreOptions,
    TrackStore,
};
pub use workload::{
    mixed_workload, run_workload, run_workload_traced, LatencyStats, QueryTrace, WorkloadRun,
};
