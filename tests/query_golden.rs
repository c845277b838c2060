//! Golden answer fingerprint of the frame-level and aggregate queries.
//!
//! The serving determinism suite and the perfbench answer checks compare
//! query answers only with answers of the same build. This test pins
//! them to a constant, so a rewrite of the query evaluation can be
//! checked against the code it replaces. For SORT tracks of five
//! datasets at sampling gaps 1 and 3, ingested into a fresh
//! `TrackStore`, it folds one FNV-1a digest over the canonical `Answer`
//! bytes of:
//!
//! - the serving mix (`mixed_workload`), two shuffled passes;
//! - count, region and hot-spot frame-limit queries at every
//!   `n` × `limit` × separation of the grid below;
//! - all three aggregates.
//!
//! The constant was recorded on the per-frame scan (every track probed
//! at every frame) and the stable-sort greedy selection before the
//! track-span sweep replaced them; the two must agree bit for bit.

use otif::core::config::{OtifConfig, TrackerKind};
use otif::core::pipeline::{ExecutionContext, Pipeline};
use otif::core::{fnv1a, fold_digest, DIGEST_SEED};
use otif::cv::{CostLedger, CostModel, DetectorArch, DetectorConfig};
use otif::geom::{Point, Polygon};
use otif::query::{AggregateQuery, FrameLimitQuery, FrameQueryKind};
use otif::serve::{
    mixed_workload, CacheMode, ClipInfo, QueryServer, ServeOptions, ServeQuery, TrackStore,
};
use otif::sim::{DatasetConfig, DatasetKind, DatasetScale};
use std::sync::Arc;

/// Digest of the query answers on this input set.
const GOLDEN: u64 = 0x3a30c7dc6f9acac5;

const DATASETS: [DatasetKind; 5] = [
    DatasetKind::Caldot1,
    DatasetKind::Tokyo,
    DatasetKind::Uav,
    DatasetKind::Warsaw,
    DatasetKind::Amsterdam,
];
const GAPS: [usize; 2] = [1, 3];
const NS: [usize; 5] = [0, 1, 2, 3, 5];
const LIMITS: [usize; 4] = [0, 1, 25, 200];
const SEPARATIONS_S: [f32; 3] = [0.0, 1.0, 5.0];

fn sort_config(gap: usize) -> OtifConfig {
    OtifConfig {
        detector: DetectorConfig::new(DetectorArch::YoloV3, 0.5),
        proxy: None,
        gap,
        tracker: TrackerKind::Sort,
        refine: false,
    }
}

/// Frame-limit predicates for a `w × h` scene: whole-frame count, the
/// central quarter of the frame, and a hot spot of 8 % of the short
/// side.
fn kinds(w: f32, h: f32) -> [FrameQueryKind; 3] {
    let (x0, y0, x1, y1) = (w * 0.25, h * 0.25, w * 0.75, h * 0.75);
    [
        FrameQueryKind::Count,
        FrameQueryKind::Region(Polygon::new(vec![
            Point { x: x0, y: y0 },
            Point { x: x1, y: y0 },
            Point { x: x1, y: y1 },
            Point { x: x0, y: y1 },
        ])),
        FrameQueryKind::HotSpot {
            radius: (w.min(h) * 0.08).max(8.0),
        },
    ]
}

#[test]
fn query_answers_match_golden_fingerprint() {
    let scale = DatasetScale {
        clips_per_split: 3,
        clip_seconds: 8.0,
    };
    let opts = ServeOptions {
        threads: 1,
        pruning: true,
        cache: CacheMode::Off,
    };
    let mut h = DIGEST_SEED;
    for kind in DATASETS {
        let d = DatasetConfig::new(kind, scale, 83).generate();
        for gap in GAPS {
            let dir = std::env::temp_dir().join(format!(
                "otif-query-golden-{}-{gap}-{}",
                kind.name(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut store = TrackStore::create(&dir).unwrap();
            let ctx = ExecutionContext::bare(CostModel::default(), 5);
            let cfg = sort_config(gap);
            for clip in &d.test {
                let tracks = Pipeline::run_clip(&cfg, &ctx, clip, &CostLedger::new());
                let info = ClipInfo {
                    num_frames: clip.num_frames(),
                    fps: clip.scene.fps as f32,
                    width: clip.scene.width as f32,
                    height: clip.scene.height as f32,
                };
                store.ingest_clip(&info, &tracks).unwrap();
            }
            let store = Arc::new(store);
            let server = QueryServer::new(Arc::clone(&store), 0);
            let mut queries = mixed_workload(store.metas(), 2, 17);
            for agg in [
                AggregateQuery::AvgVisible,
                AggregateQuery::TrafficVolume,
                AggregateQuery::PeakOccupancy,
            ] {
                queries.push(ServeQuery::Aggregate(agg));
            }
            let (w, hgt) = (d.scene.width as f32, d.scene.height as f32);
            for kind in kinds(w, hgt) {
                for n in NS {
                    for limit in LIMITS {
                        for min_separation_s in SEPARATIONS_S {
                            queries.push(ServeQuery::FrameLimit(FrameLimitQuery {
                                kind: kind.clone(),
                                n,
                                limit,
                                min_separation_s,
                            }));
                        }
                    }
                }
            }
            for q in &queries {
                let answer = server.execute(q, &opts).unwrap();
                h = fold_digest(h, fnv1a(&answer.to_bytes()));
            }
            drop(server);
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        }
    }
    assert_eq!(
        h, GOLDEN,
        "query answers drifted: fingerprint {h:#018x}, golden {GOLDEN:#018x}"
    );
}
