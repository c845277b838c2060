//! The durability and overload-robustness contract, end to end:
//!
//! - **journal-replay round-trip (property)** — a random ingest
//!   sequence crashed at a random I/O point always recovers via
//!   `fsck --repair` to a consistent store holding every acknowledged
//!   clip byte-identically;
//! - **threads × shed-policy matrix** — per-query answer bytes of every
//!   non-degraded answer are identical across worker-thread counts and
//!   overload policies;
//! - **quarantine** — a corrupted clip file degrades robust execution
//!   to a self-marking approximate answer, hard-errors strict
//!   execution, and stays quarantined across reopen;
//! - **transient reads** — bounded deterministic retry heals transient
//!   faults and charges the virtual backoff schedule, never wall-clock.

use otif_core::durable::{FaultyIo, Io, IoFaultPlan, IoOp, RealIo};
use otif_cv::Detection;
use otif_geom::Rect;
use otif_serve::{
    fsck, mixed_workload, run_workload_traced, Answer, CacheMode, ClipInfo, OverloadPolicy,
    QueryServer, ServeError, ServeOptions, ServeQuery, StoreError, StoreOptions, TrackStore,
};
use otif_sim::ObjectClass;
use otif_track::Track;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("otif-robust-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Random-walk synthetic tracks from a seeded LCG.
fn synth_tracks(seed: u64, n_tracks: usize) -> Vec<Track> {
    let (w, h) = (640.0f32, 352.0f32);
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as f32 / (1u64 << 31) as f32
    };
    (0..n_tracks)
        .map(|id| {
            let mut t = Track::new(id as u32, ObjectClass::Car);
            let mut x = next() * w;
            let mut y = next() * h;
            let start = (next() * 20.0) as usize;
            for k in 0..2 + (next() * 6.0) as usize {
                t.push(
                    start + k * 3,
                    Detection {
                        rect: Rect::new(x, y, 12.0, 8.0),
                        class: ObjectClass::Car,
                        confidence: 0.9,
                        appearance: vec![],
                        debug_gt: None,
                    },
                );
                x = (x + (next() - 0.5) * 60.0).clamp(0.0, w);
                y = (y + (next() - 0.5) * 60.0).clamp(0.0, h);
            }
            t
        })
        .collect()
}

fn info() -> ClipInfo {
    ClipInfo {
        num_frames: 60,
        fps: 10.0,
        width: 640.0,
        height: 352.0,
    }
}

/// Build a clean store at `dir` holding `per_clip` (pre-generated
/// per-clip track lists).
fn build_store(dir: &Path, per_clip: &[Vec<Track>]) -> TrackStore {
    let mut store = TrackStore::create(dir).unwrap();
    for tracks in per_clip {
        store.ingest_clip(&info(), tracks).unwrap();
    }
    store
}

// A random ingest sequence crashed at a random point of its I/O trace
// recovers through journal replay to exactly the acknowledged prefix
// (or the durable superset of it — a record can land before the ack
// returns), byte for byte.
proptest! {
    #[test]
    fn crashed_ingests_recover_to_a_consistent_store(
        seed in 0u64..u64::MAX,
        n_clips in 1usize..5,
        op_pick in 0usize..3,
        ordinal_pick in 0u64..10_000,
    ) {
        let per_clip: Vec<Vec<Track>> = (0..n_clips)
            .map(|c| synth_tracks(seed ^ (c as u64).wrapping_mul(0x517c_c1b7_2722_0a95), 1 + c % 4))
            .collect();

        // fault-free counting run: the I/O trace the crash indexes into
        let count_dir = temp_dir(&format!("count-{seed:x}"));
        let counter = Arc::new(FaultyIo::new(RealIo, IoFaultPlan::none()));
        {
            let mut store = TrackStore::create_with(
                &count_dir, Arc::clone(&counter) as Arc<dyn Io>, StoreOptions::default(),
            ).unwrap();
            for tracks in &per_clip {
                store.ingest_clip(&info(), tracks).unwrap();
            }
        }
        let op = [IoOp::Write, IoOp::Rename, IoOp::Append][op_pick];
        let total = counter.ops()[&op];
        let ordinal = ordinal_pick % total;

        // the crashed run
        let dir = temp_dir(&format!("crash-{seed:x}"));
        let mut acked = 0usize;
        if let Ok(mut store) = TrackStore::create_with(
            &dir,
            Arc::new(FaultyIo::new(RealIo, IoFaultPlan::crash_at(op, ordinal))),
            StoreOptions::default(),
        ) {
            for tracks in &per_clip {
                match store.ingest_clip(&info(), tracks) {
                    Ok(_) => acked += 1,
                    Err(_) => break,
                }
            }
        }

        // recovery: repair, reopen, compare payloads to the originals
        let report = fsck(&dir, true).unwrap();
        prop_assert!(report.missing_clips.is_empty(),
            "acknowledged clips lost: {:?}", report.missing_clips);
        if dir.join("journal.log").exists() {
            let store = TrackStore::open(&dir).unwrap();
            prop_assert!(store.len() >= acked,
                "{acked} acked but only {} recovered", store.len());
            for (id, tracks) in per_clip.iter().take(store.len()).enumerate() {
                let loaded = store.load(id).unwrap();
                prop_assert_eq!(
                    serde_json::to_string(&loaded.tracks).unwrap(),
                    serde_json::to_string(tracks).unwrap(),
                    "clip {} drifted through crash recovery", id
                );
            }
            // a second fsck over the repaired store finds nothing
            let clean = fsck(&dir, false).unwrap();
            prop_assert!(clean.healthy(), "repair must converge");
        } else {
            prop_assert_eq!(acked, 0, "journal gone but ingests were acked");
        }
        std::fs::remove_dir_all(&count_dir).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Non-degraded answers are byte-identical per query across worker
/// thread counts and overload policies (shed-capable or permissive),
/// cold or warm.
#[test]
fn thread_and_shed_matrix_preserves_exact_answer_bytes() {
    let dir = temp_dir("matrix");
    let per_clip: Vec<Vec<Track>> = (0..3).map(|c| synth_tracks(977 + c as u64, 3)).collect();
    let store = Arc::new(build_store(&dir, &per_clip));
    let workload = mixed_workload(store.metas(), 2, 7);

    // reference: permissive policy, single client, single thread
    let ref_server = QueryServer::new(Arc::clone(&store), 64);
    let (ref_run, ref_traces) = run_workload_traced(
        &ref_server,
        &workload,
        1,
        &ServeOptions {
            threads: 1,
            pruning: true,
            cache: CacheMode::On,
        },
    )
    .unwrap();
    assert_eq!(ref_run.degraded, 0, "permissive run must not degrade");

    let policies = [
        OverloadPolicy::default(),
        OverloadPolicy {
            max_concurrent: 1,
            max_queue: 2,
            deadline: Some(Duration::from_millis(250)),
        },
        OverloadPolicy {
            max_concurrent: 2,
            max_queue: 0,
            deadline: None,
        },
    ];
    for (pi, policy) in policies.iter().enumerate() {
        for threads in [1usize, 2, 8] {
            let server = QueryServer::with_policy(Arc::clone(&store), 64, *policy);
            for pass in ["cold", "warm"] {
                let (run, traces) = run_workload_traced(
                    &server,
                    &workload,
                    4,
                    &ServeOptions {
                        threads,
                        pruning: true,
                        cache: CacheMode::On,
                    },
                )
                .unwrap();
                let exact = traces.iter().filter(|t| !t.degraded).count();
                assert!(
                    exact > 0,
                    "policy {pi} threads {threads} {pass}: every answer degraded"
                );
                for (i, (t, r)) in traces.iter().zip(&ref_traces).enumerate() {
                    if !t.degraded {
                        assert_eq!(
                            t.fingerprint, r.fingerprint,
                            "policy {pi} threads {threads} {pass} query {i}: \
                             exact answer bytes drifted"
                        );
                    }
                }
                if policy.max_concurrent == 0 {
                    assert_eq!(
                        run.answers_fingerprint, ref_run.answers_fingerprint,
                        "permissive runs must be byte-identical wholesale"
                    );
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A corrupt clip payload: strict execution errors, robust execution
/// degrades to a self-marking approximate answer, and the quarantine
/// marker survives reopen.
#[test]
fn corrupt_clip_quarantines_and_degrades() {
    let dir = temp_dir("quarantine");
    let per_clip: Vec<Vec<Track>> = (0..2).map(|c| synth_tracks(31 + c as u64, 2)).collect();
    build_store(&dir, &per_clip);
    // flip the payload of clip 0 behind the store's back
    let victim = dir.join("clips").join("clip_0.json");
    let mut bytes = std::fs::read(&victim).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&victim, &bytes).unwrap();

    let store = Arc::new(TrackStore::open(&dir).unwrap());
    let server = QueryServer::new(Arc::clone(&store), 64);
    let q = ServeQuery::Track(otif_query::TrackQuery::Count);
    let opts = ServeOptions {
        threads: 1,
        pruning: true,
        cache: CacheMode::On,
    };

    let outcome = server.execute_robust(&q, &opts).unwrap();
    let reason = outcome.degraded.expect("corrupt clip must degrade");
    assert!(reason.contains("quarantine"), "reason was {reason:?}");
    match Answer::from_bytes(&outcome.bytes) {
        Answer::Approximate { rows, .. } => assert_eq!(rows.len(), 2, "one row per clip"),
        other => panic!("degraded answer must self-mark, got {other:?}"),
    }
    assert!(store.is_quarantined(0));
    assert!(!store.is_quarantined(1));

    // strict path refuses
    match server.execute_bytes(&q, &opts) {
        Err(ServeError::Store(StoreError::Quarantined { clip })) => assert_eq!(clip, 0),
        other => panic!("strict execution must error on quarantine, got {other:?}"),
    }

    // the marker is a directory entry, not in-memory state
    drop(server);
    let reopened = TrackStore::open(&dir).unwrap();
    assert!(reopened.is_quarantined(0), "quarantine must survive reopen");
    // fsck reports it without declaring data loss
    let report = fsck(&dir, false).unwrap();
    assert!(report.consistent(), "quarantine is not an inconsistency");
    assert_eq!(report.already_quarantined, vec![0]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Transient read faults heal through the bounded deterministic
/// retry/backoff schedule; exhausted retries surface the error.
#[test]
fn transient_reads_heal_within_the_retry_budget() {
    let dir = temp_dir("transient");
    let per_clip = vec![synth_tracks(5, 2)];
    build_store(&dir, &per_clip);

    // read 0 is the journal on open; the clip read fails twice, healing
    // on the third attempt — inside the default budget of 2 retries
    let opts = StoreOptions::default();
    let store = TrackStore::open_with(
        &dir,
        Arc::new(FaultyIo::new(RealIo, IoFaultPlan::transient_reads(1, 2))),
        opts,
    )
    .unwrap();
    let loaded = store.load(0).unwrap();
    assert_eq!(
        serde_json::to_string(&loaded.tracks).unwrap(),
        serde_json::to_string(&per_clip[0]).unwrap()
    );
    assert_eq!(store.read_retry_count(), 2);
    let expected: f64 = (0..2u32)
        .map(|a| otif_serve::retry_backoff(opts.backoff_base_seconds, a))
        .sum();
    assert!(
        (store.retry_backoff_seconds() - expected).abs() < 1e-12,
        "virtual backoff {} != schedule {expected}",
        store.retry_backoff_seconds()
    );

    // three consecutive failures exhaust the budget
    let store = TrackStore::open_with(
        &dir,
        Arc::new(FaultyIo::new(RealIo, IoFaultPlan::transient_reads(1, 3))),
        StoreOptions::default(),
    )
    .unwrap();
    assert!(matches!(store.load(0), Err(StoreError::Io { .. })));
    std::fs::remove_dir_all(&dir).ok();
}

/// A zero deadline degrades every query to a catalog-only answer that
/// decodes as approximate — and is never cached.
#[test]
fn expired_deadline_degrades_and_bypasses_the_cache() {
    let dir = temp_dir("deadline");
    let per_clip = vec![synth_tracks(11, 2)];
    let store = Arc::new(build_store(&dir, &per_clip));
    let server = QueryServer::with_policy(
        Arc::clone(&store),
        64,
        OverloadPolicy {
            max_concurrent: 0,
            max_queue: 0,
            deadline: Some(Duration::ZERO),
        },
    );
    let q = ServeQuery::Aggregate(otif_query::AggregateQuery::PeakOccupancy);
    let opts = ServeOptions {
        threads: 1,
        pruning: true,
        cache: CacheMode::On,
    };
    let outcome = server.execute_robust(&q, &opts).unwrap();
    assert!(outcome.degraded.unwrap().contains("deadline"));
    assert!(Answer::from_bytes(&outcome.bytes).is_approximate());
    // a repeat of the same query must not be served from the cache —
    // the degraded answer was never inserted
    let again = server.execute_robust(&q, &opts).unwrap();
    assert!(again.degraded.is_some());
    let stats = server.stats();
    assert_eq!(stats.degraded_answers, 2);
    assert_eq!(stats.cache.bypasses, 2, "degraded answers are never cached");
    assert_eq!(stats.cache.hits, 0, "nothing was cached to hit");
    std::fs::remove_dir_all(&dir).ok();
}
