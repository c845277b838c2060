//! Workload definitions and set-up: train and configure each source's
//! model, generate the video to pre-process from the seed, run the
//! reference pass, and build the template track store every serving
//! round starts from.

use otif_core::{Otif, OtifConfig, OtifOptions, ProxyParams, TrackerKind, TunerOptions};
use otif_cv::{Component, CostLedger, DetectorArch, DetectorConfig};
use otif_engine::{DetectorExec, Engine, EngineOptions, EngineRun};
use otif_query::TrackQuery;
use otif_serve::{ClipInfo, TrackStore};
use otif_sim::{Clip, DatasetConfig, DatasetKind, DatasetScale, Renderer};
use otif_track::{Track, TrainConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Engine worker threads: the benchmark host's core count is the
/// budget, so no phase runs more threads than two.
pub const WORKERS: usize = 2;

/// Seed of the training split. Fixed, so every `--seed` pre-processes
/// its own video with the same deployed model and operating point.
const TRAIN_SEED: u64 = 2022;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    IngestProxy,
    IngestFanout,
    ServeMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "ingest-proxy" => Some(Workload::IngestProxy),
            "ingest-fanout" => Some(Workload::IngestFanout),
            "serve-mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestProxy => "ingest-proxy",
            Workload::IngestFanout => "ingest-fanout",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Whether the timed phase serves queries; otherwise it runs ingest
    /// passes.
    pub fn serves(self) -> bool {
        self == Workload::ServeMixed
    }

    /// The video sources a workload pre-processes and serves.
    pub fn sources(self) -> Vec<SourceSpec> {
        match self {
            // Kernel and render bound: the segmentation proxy and the
            // batched surrogate detector run on every sampled frame.
            // Warsaw's traffic sits in the frame centre with empty
            // margins, the case the proxy exists for, and is dense
            // enough that a pass's 8 minutes of video hold seed-to-seed
            // variation in traffic to a few percent.
            Workload::IngestProxy => vec![SourceSpec {
                kind: DatasetKind::Warsaw,
                operating: Operating::ProxyOn,
                train: DatasetScale {
                    clips_per_split: 2,
                    clip_seconds: 8.0,
                },
                ingest: (24, 20.0),
                streams: 8,
                base: (0, 0.0),
                exec: DetectorExec::Batched,
                appends: 12,
            }],
            // Scheduler bound: a thousand short clips, one stream each.
            Workload::IngestFanout => vec![SourceSpec {
                kind: DatasetKind::Caldot2,
                operating: Operating::Picked,
                train: DatasetScale {
                    clips_per_split: 2,
                    clip_seconds: 10.0,
                },
                ingest: (1000, 4.0),
                streams: 1000,
                base: (0, 0.0),
                exec: DetectorExec::Off,
                appends: 24,
            }],
            // Store and query bound: minute-long clips, all extracted at
            // set-up; half are stored there, half appended every round
            // before the queries.
            Workload::ServeMixed => [DatasetKind::Caldot1, DatasetKind::Amsterdam]
                .into_iter()
                .map(|kind| SourceSpec {
                    kind,
                    operating: Operating::Extract,
                    train: DatasetScale {
                        clips_per_split: 3,
                        clip_seconds: 10.0,
                    },
                    ingest: (6, 60.0),
                    streams: 6,
                    base: (6, 60.0),
                    exec: DetectorExec::Off,
                    appends: 6,
                })
                .collect(),
        }
    }
}

/// How a source's operating point is chosen after `Otif::prepare`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operating {
    /// A fixed proxy-on configuration with a calibrated threshold: at
    /// this training scale the tuner picks `proxy=off` everywhere.
    ProxyOn,
    /// `Otif::pick_config(0.05)`, the path `otif-cli prepare`/`execute`
    /// takes.
    Picked,
    /// The serving bench's extraction point (YOLOv3@0.5, no proxy, gap
    /// 4, SORT): cheap, so the serving side dominates. The prepared
    /// model still feeds the traced run's proxy-path probe.
    Extract,
}

/// One video source of a workload.
#[derive(Debug, Clone)]
pub struct SourceSpec {
    pub kind: DatasetKind,
    pub operating: Operating,
    /// Training split scale for `Otif::prepare`.
    pub train: DatasetScale,
    /// Clips pre-processed per ingest pass (the reference pass at
    /// set-up, then every timed pass): `(count, seconds)`.
    pub ingest: (usize, f32),
    /// Engine streams of a pass; clips are dealt to them round-robin.
    pub streams: usize,
    /// Clips in the template store: `(count, seconds)`.
    pub base: (usize, f32),
    pub exec: DetectorExec,
    /// Clips of the reference pass's output each serving round appends.
    pub appends: usize,
}

/// A clip's tracks ready for `TrackStore` ingest.
pub struct Stored {
    pub info: ClipInfo,
    pub tracks: Vec<Track>,
    /// Serialized tracks, the bytes the store fingerprints.
    pub json: String,
}

impl Stored {
    pub fn new(clip: &Clip, tracks: Vec<Track>) -> Stored {
        let json = serde_json::to_string(&tracks).expect("tracks serialize");
        Stored {
            info: ClipInfo {
                num_frames: clip.num_frames(),
                fps: clip.scene.fps as f32,
                width: clip.scene.width as f32,
                height: clip.scene.height as f32,
            },
            tracks,
            json,
        }
    }
}

/// What every later pass over a source's ingest clips must reproduce.
pub struct PassReference {
    /// FNV-1a over the serialized tracks of every clip, in clip order.
    pub tracks_fp: u64,
    /// Bit patterns of the ledger's execution components.
    pub ledger_bits: Vec<u64>,
    pub detector_digest: u64,
}

/// A prepared source: model, operating point, inputs and reference.
pub struct Source {
    pub spec: SourceSpec,
    pub otif: Otif,
    pub config: OtifConfig,
    /// Positive-cell threshold calibrated on training frames (used by
    /// the proxy-on operating point and by the traced-run probes).
    pub threshold: f32,
    pub ingest: Vec<Clip>,
    pub base: Vec<Stored>,
    /// The first `spec.appends` clips of the reference pass, as a
    /// serving round appends them.
    pub appends: Vec<Stored>,
    pub reference: PassReference,
    pub prepare_s: f64,
}

pub const COMPONENTS: [Component; 5] = [
    Component::Decode,
    Component::Proxy,
    Component::Detector,
    Component::Tracker,
    Component::Refinement,
];

/// A fully set-up workload.
pub struct Setup {
    pub sources: Vec<Source>,
    pub workload: Workload,
    /// Store directory holding every source's base clips; built at
    /// set-up when the timed phase serves, and by the traced run
    /// otherwise.
    pub template: PathBuf,
    /// Process CPU seconds the set-up took (all threads).
    pub cpu_s: f64,
    pub wall_s: f64,
}

fn prepare_options() -> OtifOptions {
    OtifOptions {
        seed: TRAIN_SEED,
        proxy_train_steps: 150,
        // 0.375 of native resolution, the proxy input throughput.rs uses
        proxy_scale_indices: vec![3],
        tracker_train: TrainConfig {
            steps: 150,
            ..TrainConfig::default()
        },
        tuner: TunerOptions {
            max_iters: 6,
            threads: WORKERS,
            ..TunerOptions::default()
        },
        ..OtifOptions::default()
    }
}

/// Generate `count` clips of `seconds` each for `kind`, from `seed`.
fn clips(kind: DatasetKind, count: usize, seconds: f32, seed: u64) -> Vec<Clip> {
    let scene = Arc::new(kind.scene());
    (0..count)
        .map(|i| {
            Clip::simulate(
                Arc::clone(&scene),
                i,
                seconds,
                seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i as u64 * 1_000_003),
            )
        })
        .collect()
}

/// The threshold at the 85th percentile of the proxy's cell scores on
/// training frames (~15 % of cells fire), as `throughput.rs` calibrates
/// its proxy operating point: a fixed absolute threshold flips between
/// "every cell" and "no cell" depending on how training converged.
fn calibrate_threshold(otif: &Otif, train: &[Clip]) -> f32 {
    let proxy = &otif.proxies[0];
    let scratch = CostLedger::new();
    let mut scores: Vec<f32> = Vec::new();
    for clip in train {
        let renderer = Renderer::new(clip);
        for f in (0..clip.num_frames()).step_by(7) {
            let img = renderer.render(f, proxy.in_w, proxy.in_h);
            let grid = proxy.score_cells(&img, &otif.options.cost, &scratch);
            for cy in 0..grid.rows {
                for cx in 0..grid.cols {
                    scores.push(grid.get(cx, cy));
                }
            }
        }
    }
    scores.sort_by(f32::total_cmp);
    scores[(scores.len() as f64 * 0.85) as usize]
}

/// Engine options of every timed pass.
pub fn engine_options(streams: usize, exec: DetectorExec) -> EngineOptions {
    EngineOptions {
        streams,
        workers: WORKERS,
        detector_exec: exec,
        ..EngineOptions::default()
    }
}

/// FNV-1a over every clip's serialized tracks, in clip order; `None`
/// when a clip failed.
pub fn tracks_fingerprint(run: &EngineRun) -> Option<u64> {
    let mut acc = otif_core::DIGEST_SEED;
    for outcome in &run.tracks {
        let json = serde_json::to_string(outcome.tracks()?).expect("tracks serialize");
        acc = otif_core::fold_digest(acc, otif_core::fnv1a(json.as_bytes()));
    }
    Some(acc)
}

pub fn ledger_bits(ledger: &CostLedger) -> Vec<u64> {
    COMPONENTS
        .iter()
        .map(|&c| ledger.get(c).to_bits())
        .collect()
}

fn prepare_source(spec: SourceSpec, seed: u64) -> Result<Source, String> {
    let kind = spec.kind;
    let started = Instant::now();
    let train =
        DatasetConfig::new(kind, spec.train, TRAIN_SEED ^ kind.name().len() as u64).generate();
    let query = TrackQuery::path_breakdown(&train.scene);
    let val = &train.val;
    let metric = move |tracks: &[Vec<Track>]| query.accuracy(tracks, val);
    let otif = Otif::prepare(&train, &metric, prepare_options());
    let threshold = calibrate_threshold(&otif, &train.train);
    let config = match spec.operating {
        Operating::ProxyOn => OtifConfig {
            detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
            proxy: Some(ProxyParams {
                resolution_idx: 0,
                threshold,
            }),
            gap: 2,
            tracker: TrackerKind::Recurrent,
            refine: otif.refine_index.is_some(),
        },
        Operating::Picked => otif.pick_config(0.05).config,
        Operating::Extract => OtifConfig {
            detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
            proxy: None,
            gap: 4,
            tracker: TrackerKind::Sort,
            refine: false,
        },
    };
    let prepare_s = started.elapsed().as_secs_f64();

    // The video this seed pre-processes; base clips come from another
    // stream of the same seed.
    let salt = seed ^ (kind as u64) << 32;
    let ingest = clips(kind, spec.ingest.0, spec.ingest.1, salt);
    let ctx = otif.context();
    let ledger = CostLedger::new();
    let run = Engine::run(
        &config,
        &ctx,
        &ingest,
        &engine_options(spec.streams, spec.exec),
        &ledger,
    );
    let tracks_fp = tracks_fingerprint(&run)
        .ok_or_else(|| format!("{}: reference pass failed a clip", kind.name()))?;
    let reference = PassReference {
        tracks_fp,
        ledger_bits: ledger_bits(&ledger),
        detector_digest: run.stats.detector_digest,
    };
    let mut run = run;
    run.tracks.truncate(spec.appends);
    let appends = stored(&ingest[..spec.appends.min(ingest.len())], run)?;
    let base = if spec.base.0 == 0 {
        Vec::new()
    } else {
        let base_clips = clips(kind, spec.base.0, spec.base.1, salt ^ 0xBA5E);
        let base_run = Engine::run(
            &config,
            &ctx,
            &base_clips,
            &engine_options(base_clips.len(), DetectorExec::Off),
            &CostLedger::new(),
        );
        stored(&base_clips, base_run)?
    };
    Ok(Source {
        spec,
        otif,
        config,
        threshold,
        ingest,
        base,
        appends,
        reference,
        prepare_s,
    })
}

/// Pair each clip with its extracted tracks.
pub fn stored(clips: &[Clip], run: EngineRun) -> Result<Vec<Stored>, String> {
    clips
        .iter()
        .zip(run.tracks)
        .map(|(clip, outcome)| match outcome.tracks() {
            Some(t) => Ok(Stored::new(clip, t.to_vec())),
            None => Err(format!("clip {} failed to extract", clip.id)),
        })
        .collect()
}

/// Durably append every source's base clips into a fresh store.
pub fn build_template(dir: &Path, sources: &[Source]) -> Result<(), String> {
    let mut store = TrackStore::create(dir).map_err(|e| format!("create template: {e}"))?;
    for src in sources {
        for (i, s) in src.base.iter().enumerate() {
            let key = format!("base/{}/{i}", src.spec.kind.name());
            store
                .ingest_clip_keyed(&s.info, &s.tracks, &key)
                .map_err(|e| format!("template append {key}: {e}"))?;
        }
    }
    Ok(())
}

/// One complete set-up into `dir`, timed.
pub fn set_up(workload: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let started = Instant::now();
    let cpu0 = crate::host::process_cpu_s();
    let sources = workload
        .sources()
        .into_iter()
        .map(|spec| prepare_source(spec, seed))
        .collect::<Result<Vec<_>, _>>()?;
    if workload.serves() {
        build_template(dir, &sources)?;
    }
    Ok(Setup {
        sources,
        workload,
        template: dir.to_path_buf(),
        cpu_s: crate::host::process_cpu_s() - cpu0,
        wall_s: started.elapsed().as_secs_f64(),
    })
}
