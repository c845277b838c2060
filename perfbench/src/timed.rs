//! The timed phase: back-to-back ingest passes on the ingest workloads;
//! on the serving workload, rounds of durable appends followed by a
//! reopened store serving one closed-loop client. Every output is
//! checked against a reference; a mismatch counts as a failed
//! operation.

use crate::host;
use crate::setup::{engine_options, ledger_bits, tracks_fingerprint, Setup};
use otif_core::fnv1a;
use otif_cv::CostLedger;
use otif_engine::Engine;
use otif_query::{FrameLimitQuery, FrameQueryKind};
use otif_serve::{mixed_workload, CacheMode, QueryServer, ServeOptions, ServeQuery, TrackStore};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Answer-cache entries: room for every distinct query of a round.
const CACHE_CAPACITY: usize = 256;

/// Query evaluation runs on the client's thread only.
const SERVE: ServeOptions = ServeOptions {
    threads: 1,
    pruning: true,
    cache: CacheMode::On,
};

/// Counts of attempted and failed operations.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    /// Record one operation; `Err` counts it as failed and reports the
    /// first few on standard error.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failed <= 8 {
                eprintln!("failed: {why}");
            }
        }
    }
}

/// One ingest pass over every source's clips.
pub struct PassSample {
    /// Process CPU seconds, all threads.
    pub cpu_s: f64,
    /// Video frames in the pass (all frames, sampled or not).
    pub video_frames: u64,
}

/// Cost classes of a query; latencies are only pooled within a class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A frame-level count scan over every clip.
    Scan,
    /// A hot-spot frame query (the spatial index may skip clip scans).
    HotSpot,
    /// A per-clip track or aggregate query.
    Track,
    /// A region frame query that catalog pruning answers mostly unread.
    Catalog,
}

impl Class {
    pub fn of(q: &ServeQuery) -> Class {
        match q {
            ServeQuery::Aggregate(_) | ServeQuery::Track(_) => Class::Track,
            ServeQuery::FrameLimit(f) => match f.kind {
                FrameQueryKind::Count => Class::Scan,
                FrameQueryKind::HotSpot { .. } => Class::HotSpot,
                FrameQueryKind::Region(_) => Class::Catalog,
            },
        }
    }
}

pub struct QuerySample {
    pub class: Class,
    /// Wall time.
    pub ms: f64,
    /// CPU time of the client thread, which evaluates the query.
    pub cpu_ms: f64,
    /// Answered from the answer cache.
    pub hit: bool,
    pub clips_evaluated: u64,
    pub clips_pruned: u64,
    pub frame_scans_skipped: u64,
}

pub struct RoundSample {
    /// Wall time of each durable append.
    pub append_ms: Vec<f64>,
    pub open_ms: f64,
    /// Wall time of loading every clip after the open, per clip.
    pub load_ms_per_clip: f64,
    /// The distinct-parameter count scans.
    pub scans: Vec<QuerySample>,
    /// Every session of the serving mix.
    pub mixed: Vec<QuerySample>,
}

impl RoundSample {
    /// The round's distinct count scans that missed the cache (all of
    /// them, unless the program's cache changes).
    fn scan_misses(&self) -> impl Iterator<Item = &QuerySample> {
        self.scans.iter().filter(|q| !q.hit)
    }

    /// Wall latencies of the scans that missed the cache.
    pub fn scan_ms(&self) -> Vec<f64> {
        self.scan_misses().map(|q| q.ms).collect()
    }

    /// CPU latencies of the scans that missed the cache.
    pub fn scan_cpu_ms(&self) -> Vec<f64> {
        self.scan_misses().map(|q| q.cpu_ms).collect()
    }

    /// Every query the round ran.
    pub fn queries(&self) -> impl Iterator<Item = &QuerySample> {
        self.scans.iter().chain(&self.mixed)
    }
}

/// The serving side of a run: the query lists, the store they run
/// over, and each query's answer fingerprint from the first round.
pub struct Serving {
    pub live: PathBuf,
    scans: Vec<ServeQuery>,
    mixed: Vec<ServeQuery>,
    answers: Vec<u64>,
    store_fp: Option<u64>,
}

impl Serving {
    pub fn new(work: &Path) -> Serving {
        Serving {
            live: work.join("live"),
            scans: Vec::new(),
            mixed: Vec::new(),
            answers: Vec::new(),
            store_fp: None,
        }
    }

    /// A round's queries in order: the scans, then every session of
    /// the mix.
    fn queries(&self) -> impl Iterator<Item = &ServeQuery> {
        let mix = (0..MIX_SESSIONS).flat_map(|_| self.mixed.iter());
        self.scans.iter().chain(mix)
    }
}

/// Run one ingest pass over every source's clips and check its output
/// against the set-up's reference pass.
pub fn ingest_pass(setup: &Setup, ops: &mut Ops) -> PassSample {
    let mut sample = PassSample {
        cpu_s: 0.0,
        video_frames: 0,
    };
    for src in &setup.sources {
        let ctx = src.otif.context();
        let ledger = CostLedger::new();
        let opts = engine_options(src.spec.streams, src.spec.exec);
        let cpu0 = host::process_cpu_s();
        let run = Engine::run(&src.config, &ctx, &src.ingest, &opts, &ledger);
        sample.cpu_s += host::process_cpu_s() - cpu0;
        sample.video_frames += src
            .ingest
            .iter()
            .map(|c| c.num_frames() as u64)
            .sum::<u64>();
        let name = src.spec.kind.name();
        let reference = &src.reference;
        ops.check(match tracks_fingerprint(&run) {
            None => Err(format!("{name}: engine pass failed a clip")),
            Some(fp) if fp != reference.tracks_fp => Err(format!(
                "{name}: pass tracks differ from the reference pass"
            )),
            Some(_) => Ok(()),
        });
        ops.check(if ledger_bits(&ledger) == reference.ledger_bits {
            Ok(())
        } else {
            Err(format!(
                "{name}: pass ledger bits differ from the reference pass"
            ))
        });
        ops.check(if run.stats.detector_digest == reference.detector_digest {
            Ok(())
        } else {
            Err(format!(
                "{name}: detector digest differs from the reference pass"
            ))
        });
    }
    sample
}

/// Distinct count scans per round. Each round's p95 then has 6 scans
/// beyond it.
const SCANS: usize = 120;

/// Passes over the serving bench's query mix per session: the first
/// pass misses the answer cache, the rest hit it.
const MIX_REPEATS: usize = 8;

/// Sessions of the mix per round, each on a new `QueryServer` (an empty
/// answer cache) over the same opened store, so every session has the
/// same hits and misses and a round's throughput rests on more than
/// nine misses.
const MIX_SESSIONS: usize = 10;

/// Count scans with distinct parameters, so none hits the cache or
/// repeats one of the mix. `n = 1` keeps every clip a candidate, so all
/// scans cost alike.
fn distinct_scans(seed: u64) -> Vec<ServeQuery> {
    let mut rng = Lcg(seed ^ 0x5EED_5E7E);
    (0..SCANS)
        .map(|i| {
            ServeQuery::FrameLimit(FrameLimitQuery {
                kind: FrameQueryKind::Count,
                n: 1,
                limit: 30 + i,
                min_separation_s: 1.0 + rng.unit() * 4.0,
            })
        })
        .collect()
}

/// A small deterministic generator for scan parameters.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) % 1_000_000) as f32 / 1_000_000.0
    }
}

/// Copy a directory tree (the template store) to `dst`.
fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

/// A clip a round appended: its store id and its serialized tracks.
pub type Appended = (usize, String);

/// A round's durable appends.
pub struct AppendPhase {
    /// Wall time of each append.
    pub append_ms: Vec<f64>,
    pub appended: Vec<Appended>,
}

/// Reset the live store to the template (untimed), then durably append
/// every source's set-up extracted clips, each one timed.
pub fn append_round(
    setup: &Setup,
    serving: &Serving,
    ops: &mut Ops,
) -> Result<AppendPhase, String> {
    if serving.live.exists() {
        std::fs::remove_dir_all(&serving.live).map_err(|e| format!("reset store: {e}"))?;
    }
    copy_dir(&setup.template, &serving.live).map_err(|e| format!("copy template: {e}"))?;
    let mut store = TrackStore::open(&serving.live).map_err(|e| format!("open writer: {e}"))?;
    let mut append_ms = Vec::new();
    let mut appended = Vec::new();
    for src in &setup.sources {
        for (i, s) in src.appends.iter().enumerate() {
            let key = format!("ingest/{}/{i}", src.spec.kind.name());
            let t0 = Instant::now();
            let result = store.ingest_clip_keyed(&s.info, &s.tracks, &key);
            append_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            match result {
                Ok((id, true)) => {
                    appended.push((id, s.json.clone()));
                    ops.check(Ok(()));
                }
                Ok((id, false)) => {
                    ops.check(Err(format!("append {key} deduplicated as clip {id}")))
                }
                Err(e) => ops.check(Err(format!("append {key}: {e}"))),
            }
        }
    }
    Ok(AppendPhase {
        append_ms,
        appended,
    })
}

/// Every appended clip reloads, after `TrackStore::open`, with the
/// catalog fingerprint of the bytes that were appended.
fn check_reloads(store: &TrackStore, appended: &[Appended], ops: &mut Ops) {
    for (id, json) in appended {
        ops.check((|| {
            let meta = store
                .metas()
                .get(*id)
                .ok_or(format!("clip {id} missing after reopen"))?;
            if meta.fingerprint != fnv1a(json.as_bytes()) {
                return Err(format!(
                    "clip {id}: catalog fingerprint differs from the appended bytes"
                ));
            }
            let loaded = store
                .load(*id)
                .map_err(|e| format!("reload clip {id}: {e}"))?;
            let again = serde_json::to_string(&loaded.tracks).expect("tracks serialize");
            if &again != json {
                return Err(format!(
                    "clip {id}: reloaded tracks differ from the appended tracks"
                ));
            }
            Ok(())
        })());
    }
}

/// Reopen the store, load every clip, then run the round's distinct
/// scans and the sessions of the serving mix on one closed-loop client
/// with the answer cache on.
pub fn serve_round(
    serving: &mut Serving,
    appended: &[Appended],
    seed: u64,
    ops: &mut Ops,
) -> Result<RoundSample, String> {
    let t0 = Instant::now();
    let store = TrackStore::open(&serving.live).map_err(|e| format!("open reader: {e}"))?;
    let open_ms = t0.elapsed().as_secs_f64() * 1e3;
    if serving.mixed.is_empty() {
        serving.scans = distinct_scans(seed);
        serving.mixed = mixed_workload(store.metas(), MIX_REPEATS, seed);
    }
    let store_fp = store.fingerprint();
    ops.check(match serving.store_fp.replace(store_fp) {
        Some(fp) if fp != store_fp => Err("store fingerprint differs between rounds".into()),
        _ => Ok(()),
    });
    // Cold loads are a cost mode of their own: take them before any
    // timed query.
    let t0 = Instant::now();
    for id in 0..store.len() {
        ops.check(
            store
                .load(id)
                .map(|_| ())
                .map_err(|e| format!("load clip {id}: {e}")),
        );
    }
    let load_ms_per_clip = t0.elapsed().as_secs_f64() * 1e3 / store.len().max(1) as f64;
    let store = Arc::new(store);
    let mut samples = Vec::new();
    let mut answers = Vec::new();
    let sessions =
        std::iter::once(&serving.scans).chain(std::iter::repeat_n(&serving.mixed, MIX_SESSIONS));
    for queries in sessions {
        let server = QueryServer::new(Arc::clone(&store), CACHE_CAPACITY);
        for q in queries {
            let before = server.stats();
            let cpu0 = host::thread_cpu_ms();
            let t0 = Instant::now();
            let result = server.execute_bytes(q, &SERVE);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            let cpu_ms = host::thread_cpu_ms() - cpu0;
            let after = server.stats();
            match result {
                Ok(bytes) => {
                    answers.push(fnv1a(&bytes));
                    ops.check(Ok(()));
                }
                Err(e) => {
                    ops.check(Err(format!("query {}: {e}", q.label())));
                    answers.push(0);
                }
            }
            samples.push(QuerySample {
                class: Class::of(q),
                ms,
                cpu_ms,
                hit: after.cache.hits > before.cache.hits,
                clips_evaluated: after.clips_evaluated - before.clips_evaluated,
                clips_pruned: after.clips_pruned - before.clips_pruned,
                frame_scans_skipped: after.frame_scans_skipped - before.frame_scans_skipped,
            });
        }
    }
    check_reloads(&store, appended, ops);
    if serving.answers.is_empty() {
        serving.answers = answers;
    } else {
        for (i, (a, b)) in serving.answers.iter().zip(&answers).enumerate() {
            ops.check(if a == b {
                Ok(())
            } else {
                Err(format!(
                    "query {i} answered differently than in the first round"
                ))
            });
        }
    }
    let mixed = samples.split_off(serving.scans.len());
    Ok(RoundSample {
        append_ms: Vec::new(),
        open_ms,
        load_ms_per_clip,
        scans: samples,
        mixed,
    })
}

/// One serving round: appends, then reads.
pub fn round(
    setup: &Setup,
    serving: &mut Serving,
    seed: u64,
    ops: &mut Ops,
) -> Result<RoundSample, String> {
    let phase = append_round(setup, serving, ops)?;
    let mut r = serve_round(serving, &phase.appended, seed, ops)?;
    r.append_ms = phase.append_ms;
    Ok(r)
}

/// Every answer of the first round equals a cache-off, single-thread
/// evaluation on a freshly opened store (later rounds were compared to
/// the first one as they ran).
pub fn check_answers(serving: &Serving, ops: &mut Ops) {
    let store = match TrackStore::open(&serving.live) {
        Ok(s) => s,
        Err(e) => return ops.check(Err(format!("open for reference answers: {e}"))),
    };
    let server = QueryServer::new(Arc::new(store), 0);
    let reference = ServeOptions {
        threads: 1,
        pruning: false,
        cache: CacheMode::Off,
    };
    for (q, &answer) in serving.queries().zip(&serving.answers) {
        ops.check(match server.execute_bytes(q, &reference) {
            Ok(bytes) if fnv1a(&bytes) == answer => Ok(()),
            Ok(_) => Err(format!(
                "{}: answer differs from the reference evaluation",
                q.label()
            )),
            Err(e) => Err(format!("{}: reference evaluation failed: {e}", q.label())),
        });
    }
}

/// Everything the timed phase measured: ingest passes or serving
/// rounds, whichever the workload runs.
pub struct Timed {
    pub passes: Vec<PassSample>,
    pub rounds: Vec<RoundSample>,
}

/// The timed phase: for `seconds` (and at least three times), back-to-
/// back ingest passes, or serving rounds when the workload serves.
pub fn run(setup: &Setup, serving: &mut Serving, seed: u64, seconds: f64, ops: &mut Ops) -> Timed {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let more = |n: usize| n < 3 || started.elapsed() < budget;
    let mut timed = Timed {
        passes: Vec::new(),
        rounds: Vec::new(),
    };
    if !setup.workload.serves() {
        while more(timed.passes.len()) {
            timed.passes.push(ingest_pass(setup, ops));
        }
        return timed;
    }
    while more(timed.rounds.len()) {
        match round(setup, serving, seed, ops) {
            Ok(r) => timed.rounds.push(r),
            Err(why) => {
                ops.check(Err(why));
                break;
            }
        }
    }
    timed
}
