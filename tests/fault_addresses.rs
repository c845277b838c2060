//! Pins the fault-address protocol of the two durable directories.
//!
//! Fault plans address an operation by `(kind, ordinal)`, and the
//! crash-point sweeps (the `robustness` and `chaos` benches, the serve
//! tier's crash proptest) enumerate exactly the per-kind operation
//! counts recorded here. A change to the durability layer that adds,
//! drops or reorders a read, write, rename or append moves every one of
//! those addresses, so it has to show up in this test first.

use otif::core::durable::{FaultyIo, IoFaultPlan, RealIo};
use otif::engine::{ClipRecord, RunJournal, RunManifest};
use otif::serve::{ClipInfo, TrackStore};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("otif-fault-addr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Per-kind operation counts, by the kinds' stable labels.
fn counts(io: &FaultyIo<RealIo>) -> Vec<(&'static str, u64)> {
    io.ops().into_iter().map(|(op, n)| (op.name(), n)).collect()
}

#[test]
fn store_create_plus_one_ingest() {
    let dir = scratch("store");
    let io = Arc::new(FaultyIo::new(RealIo, IoFaultPlan::default()));
    let mut store =
        TrackStore::create_with(&dir, Arc::clone(&io) as _, Default::default()).unwrap();
    // create: the empty journal append, then the catalog checkpoint
    assert_eq!(
        counts(&io),
        [("read", 0), ("write", 1), ("rename", 1), ("append", 1)]
    );
    let info = ClipInfo {
        num_frames: 10,
        fps: 10.0,
        width: 64.0,
        height: 64.0,
    };
    store.ingest_clip(&info, &[]).unwrap();
    // ingest: payload write + rename, journal append, checkpoint
    // write + rename
    assert_eq!(
        counts(&io),
        [("read", 0), ("write", 3), ("rename", 3), ("append", 2)]
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_journal_create_plus_one_checkpoint() {
    let dir = scratch("run");
    let io = Arc::new(FaultyIo::new(RealIo, IoFaultPlan::default()));
    let manifest = RunManifest {
        version: 1,
        config_fingerprint: 1,
        dataset_fingerprint: 2,
        clips: 1,
        streams: 1,
        max_active_streams: 1,
        max_batch: 16,
        prefetch_frames: 16,
        detector_exec: "off".to_string(),
    };
    let journal = RunJournal::create(&dir, Arc::clone(&io) as _, &manifest).unwrap();
    // create: manifest write + rename, then the empty journal append
    assert_eq!(
        counts(&io),
        [("read", 0), ("write", 1), ("rename", 1), ("append", 1)]
    );
    let record = ClipRecord {
        clip: 0,
        fingerprint: 0,
        ledger: Vec::new(),
        frames: Vec::new(),
        finalize: 0,
        detect_digest: 0,
        retried: false,
        retry_attempts: 0,
        retry_backoff: 0,
    };
    journal.checkpoint(&record, "[]").unwrap();
    // checkpoint: payload write + rename, then the journal append
    assert_eq!(
        counts(&io),
        [("read", 0), ("write", 2), ("rename", 2), ("append", 2)]
    );
    std::fs::remove_dir_all(&dir).ok();
}
