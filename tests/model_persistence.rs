//! Trained models must serialize/deserialize losslessly so a deployment
//! can train once and ship artifacts — the paper's workflow trains per
//! dataset during pre-processing and reuses the models for all execution.

use otif::core::proxy::SegProxyModel;
use otif::cv::{CostLedger, CostModel, Detection};
use otif::geom::Rect;
use otif::sim::{DatasetConfig, DatasetKind, GrayImage, ObjectClass, Renderer};
use otif::track::{RecurrentTracker, Track, TrackerModel};

fn det(x: f32, y: f32) -> Detection {
    Detection {
        rect: Rect::new(x, y, 24.0, 14.0),
        class: ObjectClass::Car,
        confidence: 0.9,
        appearance: vec![0.2; otif::cv::APPEARANCE_DIM],
        debug_gt: None,
    }
}

#[test]
fn proxy_model_roundtrips_through_json() {
    let d = DatasetConfig::small(DatasetKind::Caldot1, 401).generate();
    let clips: Vec<&otif::sim::Clip> = d.train.iter().collect();
    let labels: Vec<Vec<Vec<Detection>>> = d
        .train
        .iter()
        .map(|c| {
            (0..c.num_frames())
                .map(|f| {
                    c.gt_boxes(f)
                        .into_iter()
                        .map(|(_, _, r)| det(r.x, r.y))
                        .collect()
                })
                .collect()
        })
        .collect();
    let mut m = SegProxyModel::new(384, 224, 0.375, 11);
    m.train(&clips, &labels, 150, 0.01, 11);

    let json = serde_json::to_string(&m).expect("serialize proxy");
    let restored: SegProxyModel = serde_json::from_str(&json).expect("deserialize proxy");

    // identical scores on a held-out frame
    let img: GrayImage = Renderer::new(&d.val[0]).render(0, m.in_w, m.in_h);
    let cm = CostModel::default();
    let ledger = CostLedger::new();
    let a = m.score_cells(&img, &cm, &ledger);
    let b = restored.score_cells(&img, &cm, &ledger);
    assert_eq!(a.scores, b.scores);
}

#[test]
fn tracker_model_roundtrips_through_json() {
    let mut model = TrackerModel::new(384.0, 224.0, 12);
    // give it a few gradient steps so weights are non-trivial
    let prefix: Vec<(usize, Detection)> = (0..4)
        .map(|i| (i * 2, det(10.0 + i as f32 * 20.0, 60.0)))
        .collect();
    let pos = det(90.0, 60.0);
    let neg = det(300.0, 180.0);
    for _ in 0..20 {
        model.train_example(&prefix, &[(&pos, 2, true), (&neg, 2, false)], 0.01, true);
    }

    let json = serde_json::to_string(&model).expect("serialize tracker");
    let restored: TrackerModel = serde_json::from_str(&json).expect("deserialize tracker");

    // identical behaviour when driving a tracker
    let run = |m: &TrackerModel| -> Vec<Track> {
        let mut t = RecurrentTracker::new(m);
        t.match_threshold = 0.3;
        for f in 0..6usize {
            t.step(
                f * 2,
                vec![
                    det(10.0 + f as f32 * 20.0, 60.0),
                    det(350.0 - f as f32 * 15.0, 150.0),
                ],
            );
        }
        t.finish()
    };
    let a = run(&model);
    let b = run(&restored);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.dets.len(), y.dets.len());
        for ((fa, da), (fb, db)) in x.dets.iter().zip(&y.dets) {
            assert_eq!(fa, fb);
            assert_eq!(da.rect, db.rect);
        }
    }
}

#[test]
fn detections_and_tracks_serialize() {
    let mut t = Track::new(3, ObjectClass::Bus);
    t.push(0, det(1.0, 2.0));
    t.push(5, det(20.0, 2.0));
    let json = serde_json::to_string(&t).unwrap();
    let back: Track = serde_json::from_str(&json).unwrap();
    assert_eq!(back.id, 3);
    assert_eq!(back.class, ObjectClass::Bus);
    assert_eq!(back.dets.len(), 2);
    assert_eq!(back.dets[1].0, 5);
}
