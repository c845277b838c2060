//! Criterion microbenchmarks for the hot algorithmic paths of the OTIF
//! pipeline: cell grouping, window-size selection, tracker matching
//! steps, refinement index construction/lookup, codec decode, and
//! track-query post-processing latency (the "answer queries in
//! milliseconds" claim from §1).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use otif_codec::{Decoder, EncodedClip, EncoderConfig};
use otif_core::grouping::group_cells;
use otif_core::refine::RefineIndex;
use otif_core::windows::{select_window_sizes, WindowSet};
use otif_cv::{CostLedger, Detection, DetectorArch, DetectorConfig, SimDetector};
use otif_geom::Rect;
use otif_query::{FrameLimitQuery, FrameQueryKind, TrackQuery};
use otif_sim::{DatasetConfig, DatasetKind, DatasetScale, ObjectClass};
use otif_track::{RecurrentTracker, SortTracker, Track, TrackerModel};

fn det(x: f32, y: f32) -> Detection {
    Detection {
        rect: Rect::new(x, y, 24.0, 14.0),
        class: ObjectClass::Car,
        confidence: 0.9,
        appearance: vec![0.3; otif_cv::APPEARANCE_DIM],
        debug_gt: None,
    }
}

fn window_set() -> WindowSet {
    WindowSet::new(
        384.0,
        224.0,
        vec![(384.0, 224.0), (128.0, 96.0), (64.0, 64.0)],
        6.2e-8,
        8.0e-4,
    )
}

fn bench_grouping(c: &mut Criterion) {
    let ws = window_set();
    let sparse: Vec<(usize, usize)> = vec![(1, 1), (2, 1), (8, 5), (11, 2)];
    let dense: Vec<(usize, usize)> = (0..12).flat_map(|x| (0..7).map(move |y| (x, y))).collect();
    c.bench_function("group_cells/sparse_4_cells", |b| {
        b.iter(|| group_cells(std::hint::black_box(&sparse), &ws))
    });
    c.bench_function("group_cells/dense_84_cells", |b| {
        b.iter(|| group_cells(std::hint::black_box(&dense), &ws))
    });
}

fn bench_window_selection(c: &mut Criterion) {
    let frames: Vec<Vec<(usize, usize)>> = (0..30)
        .map(|i| {
            vec![
                ((i * 3) % 12, (i * 2) % 7),
                ((i * 5 + 3) % 12, (i * 3 + 1) % 7),
            ]
        })
        .collect();
    c.bench_function("select_window_sizes/k3_30_frames", |b| {
        b.iter(|| {
            select_window_sizes(
                384.0,
                224.0,
                std::hint::black_box(&frames),
                3,
                6.2e-8,
                8.0e-4,
            )
        })
    });
}

fn bench_trackers(c: &mut Criterion) {
    // 12 objects per frame
    let frame_dets = |f: usize| -> Vec<Detection> {
        (0..12)
            .map(|k| {
                det(
                    10.0 + (f * 4 + k * 30) as f32 % 360.0,
                    10.0 + (k * 17) as f32 % 200.0,
                )
            })
            .collect()
    };
    c.bench_function("sort_tracker/step_12_dets", |b| {
        b.iter_batched(
            || {
                let mut t = SortTracker::default();
                for f in 0..5 {
                    t.step(f, frame_dets(f));
                }
                t
            },
            |mut t| t.step(5, frame_dets(5)),
            BatchSize::SmallInput,
        )
    });
    let model = TrackerModel::new(384.0, 224.0, 1);
    c.bench_function("recurrent_tracker/step_12_dets", |b| {
        b.iter_batched(
            || {
                let mut t = RecurrentTracker::new(&model);
                t.match_threshold = 0.0;
                for f in 0..5 {
                    t.step(f, frame_dets(f));
                }
                t
            },
            |mut t| t.step(5, frame_dets(5)),
            BatchSize::SmallInput,
        )
    });
}

fn training_tracks() -> Vec<Track> {
    let mut out = Vec::new();
    for i in 0..120u32 {
        let mut t = Track::new(i, ObjectClass::Car);
        let y = 40.0 + (i % 5) as f32 * 35.0;
        for f in 0..20usize {
            t.push(f, det(f as f32 * 18.0, y + (i % 3) as f32));
        }
        out.push(t);
    }
    out
}

fn bench_refinement(c: &mut Criterion) {
    let tracks = training_tracks();
    c.bench_function("refine_index/build_120_tracks", |b| {
        b.iter(|| RefineIndex::build(std::hint::black_box(&tracks), 384.0, 224.0, None))
    });
    let idx = RefineIndex::build(&tracks, 384.0, 224.0, None);
    let mut partial = Track::new(999, ObjectClass::Car);
    for f in 0..5usize {
        partial.push(f * 4, det(100.0 + f as f32 * 40.0, 75.0));
    }
    c.bench_function("refine_index/refine_one_track", |b| {
        b.iter_batched(
            || partial.clone(),
            |mut t| idx.refine(&mut t),
            BatchSize::SmallInput,
        )
    });
}

fn bench_detector(c: &mut Criterion) {
    let d = DatasetConfig::small(DatasetKind::Caldot1, 5).generate();
    let clip = &d.test[0];
    let detector = SimDetector::new(DetectorConfig::new(DetectorArch::YoloV3, 1.0), 5);
    let ledger = CostLedger::new();
    c.bench_function("sim_detector/full_frame", |b| {
        b.iter(|| detector.detect_frame(std::hint::black_box(clip), 3, &ledger))
    });
}

fn bench_codec(c: &mut Criterion) {
    let d = DatasetConfig::new(
        DatasetKind::Caldot2,
        DatasetScale {
            clips_per_split: 1,
            clip_seconds: 4.0,
        },
        5,
    )
    .generate();
    let enc = EncodedClip::encode_clip(&d.test[0], EncoderConfig::default());
    c.bench_function("codec/decode_sequential_40_frames", |b| {
        b.iter(|| {
            let mut dec = Decoder::new(&enc);
            for f in 0..enc.num_frames() {
                std::hint::black_box(dec.decode(f));
            }
        })
    });
    c.bench_function("codec/seek_decode_every_8th", |b| {
        b.iter(|| {
            let mut dec = Decoder::new(&enc);
            let mut f = 0;
            while f < enc.num_frames() {
                std::hint::black_box(dec.decode(f));
                f += 8;
            }
        })
    });
}

fn bench_query_latency(c: &mut Criterion) {
    // the sub-second query claim: post-process a realistic track set
    let d = DatasetConfig::new(
        DatasetKind::Caldot1,
        DatasetScale {
            clips_per_split: 4,
            clip_seconds: 10.0,
        },
        5,
    )
    .generate();
    // ground-truth tracks as stand-ins for extracted tracks
    let tracks: Vec<Vec<Track>> = d
        .test
        .iter()
        .map(|c| {
            c.gt_tracks
                .iter()
                .map(|g| {
                    let mut t = Track::new(g.id, g.class);
                    for (f, r) in &g.states {
                        t.push(*f, det(r.x, r.y));
                    }
                    t
                })
                .collect()
        })
        .collect();
    let q = TrackQuery::path_breakdown(&d.scene);
    c.bench_function("query/path_breakdown_split", |b| {
        b.iter(|| q.accuracy(std::hint::black_box(&tracks), &d.test))
    });
    let fq = FrameLimitQuery {
        kind: FrameQueryKind::Count,
        n: 3,
        limit: 25,
        min_separation_s: 5.0,
    };
    c.bench_function("query/frame_limit_split", |b| {
        b.iter(|| fq.execute_on_tracks(std::hint::black_box(&tracks), &d.test))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_grouping,
        bench_window_selection,
        bench_trackers,
        bench_refinement,
        bench_detector,
        bench_codec,
        bench_query_latency
);
criterion_main!(benches);
