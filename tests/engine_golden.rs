//! Golden bit fingerprint of the streaming engine.
//!
//! The other engine tests compare runs *within* one build: worker counts,
//! prefetch windows and detector execution modes against each other. This
//! test pins what the engine produces to a constant, so a rewrite of the
//! engine's scheduling can be checked against the code it replaces. It
//! folds one FNV-1a digest over, for each case below:
//!
//! - the run ledger's per-component bit patterns,
//! - the batcher round log (every ticket and each round's launch bits),
//! - `EngineStats::deterministic_projection()`,
//! - the serialized per-clip outcomes (tracks, or the failure reason).
//!
//! Cases: 1 and 16 streams; detector execution off and batched; no
//! fault, a recoverable decode error, a window panic and a detect panic;
//! an admission cap; and a journaled run killed after half its clips and
//! resumed. Faults whose surviving ticket sequence depends on timing
//! (a track-stage fault: how far upstream stages ran ahead) are left out.

use otif::core::config::{OtifConfig, TrackerKind};
use otif::core::durable::{Io, RealIo};
use otif::core::fnv1a;
use otif::core::pipeline::ExecutionContext;
use otif::cv::{Component, CostLedger, CostModel, DetectorArch, DetectorConfig};
use otif::engine::{
    run_manifest, DetectorExec, Engine, EngineOptions, EngineRun, FaultPlan, RunJournal,
    RunSession, StageName, RUN_JOURNAL_FILE,
};
use otif::sim::{Clip, DatasetConfig, DatasetKind, DatasetScale};
use std::fmt::Write;
use std::sync::Arc;

/// Digest of the engine on this input set, recorded on the four-stage
/// engine (one task per stage per stream) before the single in-order
/// stream task replaced it; the two must agree bit for bit.
const GOLDEN: u64 = 0x036a46007fab4a17;

const COMPONENTS: [Component; 5] = [
    Component::Decode,
    Component::Proxy,
    Component::Detector,
    Component::Tracker,
    Component::Refinement,
];

fn config() -> OtifConfig {
    OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.25),
        proxy: None,
        gap: 4,
        tracker: TrackerKind::Sort,
        refine: false,
    }
}

/// Sixteen short clips, so a 16-stream run is not clamped down.
fn clips() -> Vec<Clip> {
    DatasetConfig::new(
        DatasetKind::Caldot1,
        DatasetScale {
            clips_per_split: 16,
            clip_seconds: 2.0,
        },
        53,
    )
    .generate()
    .test
}

/// Everything the run exposes that must not depend on scheduling.
fn fingerprint(run: &EngineRun, ledger: &CostLedger) -> String {
    let mut s = String::new();
    for c in COMPONENTS {
        write!(s, "{:x},", ledger.get(c).to_bits()).unwrap();
    }
    for round in &run.rounds {
        write!(s, "|{:x}", round.launch_seconds.to_bits()).unwrap();
        for t in &round.tickets {
            write!(
                s,
                ";{},{},{},{},{:x}",
                t.stream,
                t.clip,
                t.ordinal,
                t.items,
                t.pixel_seconds.to_bits()
            )
            .unwrap();
        }
    }
    s.push('\n');
    s.push_str(&run.stats.deterministic_projection());
    s.push('\n');
    s.push_str(&serde_json::to_string(&run.tracks).unwrap());
    s
}

fn run_case(clips: &[Clip], opts: &EngineOptions) -> String {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let ledger = CostLedger::new();
    let run = Engine::run(&cfg, &ctx, clips, opts, &ledger);
    fingerprint(&run, &ledger)
}

/// A journaled run cut to its first half of acknowledged clips, then
/// resumed: the fingerprint of the resumed run.
fn resumed_case(clips: &[Clip], opts: &EngineOptions) -> String {
    let cfg = config();
    let ctx = ExecutionContext::bare(CostModel::default(), 7);
    let io: Arc<dyn Io> = Arc::new(RealIo);
    let dir = std::env::temp_dir().join(format!("otif-engine-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let manifest = run_manifest(&cfg, &ctx, clips, opts);
    let journal = Arc::new(RunJournal::create(&dir, Arc::clone(&io), &manifest).unwrap());
    let session = RunSession::fresh(journal);
    let fresh =
        Engine::run_with_session(&cfg, &ctx, clips, opts, &CostLedger::new(), Some(&session));
    assert_eq!(fresh.stats.clips_checkpointed, clips.len() as u64);

    let journal_path = dir.join(RUN_JOURNAL_FILE);
    let full = std::fs::read(&journal_path).unwrap();
    let lines: Vec<&[u8]> = full.split_inclusive(|&b| b == b'\n').collect();
    let k = clips.len() / 2;
    std::fs::write(&journal_path, lines[..k].concat()).unwrap();

    let (reopened, replayed) = RunJournal::open(&dir, Arc::clone(&io), &manifest).unwrap();
    let reopened = Arc::new(reopened);
    let recovered = reopened.recover(&replayed, clips.len());
    let session = RunSession::resumed(Arc::clone(&reopened), recovered);
    let ledger = CostLedger::new();
    let run = Engine::run_with_session(&cfg, &ctx, clips, opts, &ledger, Some(&session));
    assert_eq!(run.stats.resumed_clips_skipped, k);
    std::fs::remove_dir_all(&dir).ok();
    fingerprint(&run, &ledger)
}

#[test]
fn engine_outputs_match_golden_fingerprint() {
    let clips = clips();
    assert_eq!(clips.len(), 16);
    let opts = |streams: usize, exec: DetectorExec, faults: FaultPlan| EngineOptions {
        streams,
        detector_exec: exec,
        faults,
        ..EngineOptions::new()
    };
    let none = FaultPlan::none;
    let cases: Vec<(&str, String)> = vec![
        (
            "1 stream, off",
            run_case(&clips, &opts(1, DetectorExec::Off, none())),
        ),
        (
            "1 stream, batched",
            run_case(&clips, &opts(1, DetectorExec::Batched, none())),
        ),
        (
            "16 streams, off",
            run_case(&clips, &opts(16, DetectorExec::Off, none())),
        ),
        (
            "16 streams, batched",
            run_case(&clips, &opts(16, DetectorExec::Batched, none())),
        ),
        (
            "decode error, retried",
            run_case(
                &clips,
                &opts(
                    4,
                    DetectorExec::Off,
                    FaultPlan::error_at(StageName::Decode, 3, 2),
                ),
            ),
        ),
        (
            "window panic",
            run_case(
                &clips,
                &opts(
                    4,
                    DetectorExec::Batched,
                    FaultPlan::panic_at(StageName::Window, 1, 1),
                ),
            ),
        ),
        (
            "detect panic",
            run_case(
                &clips,
                &opts(
                    4,
                    DetectorExec::Off,
                    FaultPlan::panic_at(StageName::Detect, 2, 1),
                ),
            ),
        ),
        (
            "admission cap 4 of 16",
            run_case(
                &clips,
                &EngineOptions {
                    max_active_streams: 4,
                    ..opts(16, DetectorExec::Off, none())
                },
            ),
        ),
        (
            "journaled kill + resume",
            resumed_case(&clips, &opts(8, DetectorExec::Batched, none())),
        ),
    ];
    let mut h = String::new();
    for (name, fp) in &cases {
        writeln!(h, "{name}: {:#018x}", fnv1a(fp.as_bytes())).unwrap();
    }
    let got = fnv1a(h.as_bytes());
    assert_eq!(
        got, GOLDEN,
        "engine fingerprint {got:#018x} != golden {GOLDEN:#018x}; per case:\n{h}"
    );
}
