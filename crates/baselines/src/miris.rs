//! Miris (Bastani et al., SIGMOD 2020): fast object track queries with
//! variable-rate tracking.
//!
//! Miris processes video at a reduced sampling rate when the tracker is
//! confident, dropping to finer rates when matching is uncertain, and
//! *refines* tracks that may match the query by decoding extra frames
//! around their endpoints. Two properties matter for the comparison with
//! OTIF (§3.4, §4.1):
//!
//! - its matcher compares detections in **two consecutive processed
//!   frames only** (no recurrent state), so accuracy degrades at large
//!   gaps;
//! - refinement decodes and detects extra frames **per query**, which is
//!   cost-prohibitive when extracting all tracks — Miris's whole
//!   execution is query-driven, so multi-query workloads pay it again
//!   ([`Baseline::per_query_execution`] returns `true`).
//!
//! The original uses a GNN pairwise matcher; we use an equivalent
//! pairwise score (predicted-position distance + appearance cosine),
//! which shares the GNN's defining limitation of seeing only one frame
//! pair at a time.

use crate::common::Baseline;
use otif_cv::{Component, CostLedger, CostModel, Detection, DetectorConfig, SimDetector};
use otif_geom::{Hungarian, Rect};
use otif_sim::Clip;
use otif_track::{Track, TrackId};

/// One Miris error-tolerance level.
#[derive(Debug, Clone, Copy)]
pub struct MirisConfig {
    /// Maximum sampling gap when confident.
    pub max_gap: usize,
    /// Pairwise-score threshold below which the gap is halved.
    pub uncertainty: f32,
}

/// The Miris baseline.
pub struct MirisBaseline {
    /// Detector configuration (Miris tunes rate, not resolution).
    pub detector: DetectorConfig,
    /// Detector noise seed.
    pub detector_seed: u64,
    /// Simulated cost-model constants.
    pub cost: CostModel,
    /// Error-tolerance levels forming the speed-accuracy curve.
    pub configs: Vec<MirisConfig>,
    /// Frames decoded around each track endpoint during refinement.
    pub refine_frames: usize,
}

impl MirisBaseline {
    /// Build Miris with the default tolerance ladder.
    pub fn new(detector: DetectorConfig, detector_seed: u64, cost: CostModel) -> Self {
        MirisBaseline {
            detector,
            detector_seed,
            cost,
            configs: vec![
                MirisConfig {
                    max_gap: 1,
                    uncertainty: 0.0,
                },
                MirisConfig {
                    max_gap: 2,
                    uncertainty: 0.4,
                },
                MirisConfig {
                    max_gap: 4,
                    uncertainty: 0.4,
                },
                MirisConfig {
                    max_gap: 8,
                    uncertainty: 0.35,
                },
                MirisConfig {
                    max_gap: 16,
                    uncertainty: 0.3,
                },
                MirisConfig {
                    max_gap: 32,
                    uncertainty: 0.25,
                },
            ],
            refine_frames: 6,
        }
    }

    /// Pairwise match score between a track's last detection and a new
    /// detection, `gap` frames later — the stand-in for the Miris GNN.
    fn pair_score(last: &Detection, vel: (f32, f32), cand: &Detection, gap: f32) -> f32 {
        let pred = otif_geom::Point::new(
            last.rect.center().x + vel.0 * gap,
            last.rect.center().y + vel.1 * gap,
        );
        let dist = pred.dist(&cand.rect.center());
        let scale = (last.rect.w + last.rect.h) * 0.75 + 8.0;
        let spatial = (-dist / scale).exp();
        let app = {
            let a = &last.appearance;
            let b = &cand.appearance;
            let n = a.len().min(b.len());
            if n == 0 {
                0.5
            } else {
                let dot: f32 = (0..n).map(|i| a[i] * b[i]).sum();
                let na: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
                let nb: f32 = b.iter().map(|x| x * x).sum::<f32>().sqrt();
                (dot / (na * nb + 1e-6) + 1.0) / 2.0
            }
        };
        0.7 * spatial + 0.3 * app
    }

    fn run_clip(&self, cfg: MirisConfig, clip: &Clip, ledger: &CostLedger) -> Vec<Track> {
        struct Active {
            track: Track,
            vel: (f32, f32),
            last_frame: usize,
            misses: u32,
        }
        let detector = SimDetector::new(self.detector, self.detector_seed);
        let native_px = (clip.scene.width as f64) * (clip.scene.height as f64);
        let mut active: Vec<Active> = Vec::new();
        let mut done: Vec<Track> = Vec::new();
        let mut next_id: TrackId = 0;
        let mut gap = cfg.max_gap;
        let mut f = 0usize;
        let (mut scores, mut cost, mut solver) = (Vec::new(), Vec::new(), Hungarian::default());

        while f < clip.num_frames() {
            ledger.charge(
                Component::Decode,
                otif_core::pipeline::decode_cost(&self.cost, native_px, self.detector.scale, gap),
            );
            let dets = detector.detect_frame(clip, f, ledger);
            ledger.charge(
                Component::Tracker,
                self.cost.tracker_per_frame + dets.len() as f64 * self.cost.tracker_per_det,
            );

            // pairwise scores against active tracks, `dets × tracks`
            let nt = active.len();
            scores.clear();
            for d in &dets {
                scores.extend(active.iter().map(|t| {
                    let last = &t.track.dets.last().unwrap().1;
                    let g = (f - t.last_frame) as f32;
                    Self::pair_score(last, t.vel, d, g)
                }));
            }
            let assign = if !dets.is_empty() && !active.is_empty() {
                cost.clear();
                cost.extend(scores.iter().map(|s| 1.0 - s));
                solver.solve(&cost, dets.len(), nt).to_vec()
            } else {
                vec![None; dets.len()]
            };

            let mut matched = vec![false; active.len()];
            let mut min_accepted: f32 = 1.0;
            let mut new_dets = Vec::new();
            for (di, det) in dets.into_iter().enumerate() {
                let ti = assign[di].filter(|&ti| scores[di * nt + ti] >= 0.25);
                match ti {
                    Some(ti) => {
                        min_accepted = min_accepted.min(scores[di * nt + ti]);
                        let t = &mut active[ti];
                        let g = (f - t.last_frame).max(1) as f32;
                        let lc = t.track.dets.last().unwrap().1.rect.center();
                        let cc = det.rect.center();
                        t.vel = ((cc.x - lc.x) / g, (cc.y - lc.y) / g);
                        t.track.push(f, det);
                        t.last_frame = f;
                        t.misses = 0;
                        matched[ti] = true;
                    }
                    None => new_dets.push(det),
                }
            }
            let mut idx = 0;
            active.retain_mut(|t| {
                let was = matched[idx];
                idx += 1;
                if was {
                    return true;
                }
                t.misses += 1;
                if t.misses > 2 {
                    done.push(std::mem::replace(
                        &mut t.track,
                        Track::new(0, otif_sim::ObjectClass::Car),
                    ));
                    false
                } else {
                    true
                }
            });
            for det in new_dets {
                let id = next_id;
                next_id += 1;
                let mut track = Track::new(id, det.class);
                track.push(f, det);
                active.push(Active {
                    track,
                    vel: (0.0, 0.0),
                    last_frame: f,
                    misses: 0,
                });
            }

            // variable-rate control: uncertain matches → finer rate
            if min_accepted < cfg.uncertainty {
                gap = (gap / 2).max(1);
            } else {
                gap = (gap * 2).min(cfg.max_gap);
            }
            f += gap;
        }
        for t in active {
            done.push(t.track);
        }
        done.retain(|t| t.len() >= 2);

        // Query-driven refinement: decode extra frames around each
        // candidate track's endpoints and extend with detections there.
        let refine_window = 64.0;
        for t in done.iter_mut() {
            for end in [false, true] {
                let (frame0, det0) = if end {
                    t.dets.last().unwrap().clone()
                } else {
                    t.dets.first().unwrap().clone()
                };
                let mut anchor = det0.rect;
                let mut anchor_frame = frame0;
                for k in 1..=self.refine_frames {
                    let f = if end {
                        anchor_frame + 1
                    } else if anchor_frame == 0 {
                        break;
                    } else {
                        anchor_frame - 1
                    };
                    if f >= clip.num_frames() {
                        break;
                    }
                    ledger.charge(
                        Component::Decode,
                        otif_core::pipeline::decode_cost(
                            &self.cost,
                            native_px,
                            self.detector.scale,
                            1,
                        ),
                    );
                    let win = Rect::new(
                        anchor.center().x - refine_window / 2.0,
                        anchor.center().y - refine_window / 2.0,
                        refine_window,
                        refine_window,
                    )
                    .clamp_to(&clip.scene.frame_rect());
                    if win.is_empty() {
                        break;
                    }
                    let dets = detector.detect_windows(clip, f, &[win], ledger);
                    let best = dets
                        .into_iter()
                        .filter(|d| {
                            d.rect.iou(&anchor) > 0.1
                                || d.rect.center().dist(&anchor.center()) < 24.0
                        })
                        .max_by(|a, b| a.confidence.partial_cmp(&b.confidence).unwrap());
                    match best {
                        Some(d) => {
                            anchor = d.rect;
                            anchor_frame = f;
                            if end {
                                t.dets.push((f, d));
                            } else {
                                t.dets.insert(0, (f, d));
                            }
                        }
                        None => break,
                    }
                    let _ = k;
                }
            }
        }
        done.sort_by_key(|t| t.id);
        done
    }
}

impl Baseline for MirisBaseline {
    fn name(&self) -> &'static str {
        "miris"
    }

    fn num_configs(&self) -> usize {
        self.configs.len()
    }

    fn describe(&self, i: usize) -> String {
        let c = self.configs[i];
        format!("miris max_gap={} uncert={:.2}", c.max_gap, c.uncertainty)
    }

    fn run(&self, i: usize, clips: &[Clip], ledger: &CostLedger) -> Vec<Vec<Track>> {
        clips
            .iter()
            .map(|c| self.run_clip(self.configs[i], c, ledger))
            .collect()
    }

    fn per_query_execution(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_cv::DetectorArch;
    use otif_sim::{DatasetConfig, DatasetKind};

    fn baseline() -> MirisBaseline {
        MirisBaseline::new(
            DetectorConfig::new(DetectorArch::YoloV3, 0.75),
            7,
            CostModel::default(),
        )
    }

    #[test]
    fn extracts_tracks_and_charges_costs() {
        let d = DatasetConfig::small(DatasetKind::Caldot1, 71).generate();
        let b = baseline();
        let ledger = CostLedger::new();
        let tracks = b.run(2, &d.test, &ledger);
        assert_eq!(tracks.len(), d.test.len());
        assert!(tracks.iter().any(|t| !t.is_empty()));
        assert!(ledger.get(Component::Detector) > 0.0);
        assert!(ledger.get(Component::Decode) > 0.0);
    }

    #[test]
    fn higher_tolerance_is_faster() {
        let d = DatasetConfig::small(DatasetKind::Caldot2, 72).generate();
        let b = baseline();
        let l0 = CostLedger::new();
        b.run(0, &d.test, &l0); // gap 1
        let l5 = CostLedger::new();
        b.run(5, &d.test, &l5); // gap 32
        assert!(
            l5.execution_total() < l0.execution_total() * 0.6,
            "gap32 {} vs gap1 {}",
            l5.execution_total(),
            l0.execution_total()
        );
    }

    #[test]
    fn refinement_extends_track_endpoints() {
        let d = DatasetConfig::small(DatasetKind::Caldot1, 73).generate();
        let mut with = baseline();
        with.configs = vec![MirisConfig {
            max_gap: 8,
            uncertainty: 0.0,
        }];
        let mut without = baseline();
        without.configs = vec![MirisConfig {
            max_gap: 8,
            uncertainty: 0.0,
        }];
        without.refine_frames = 0;
        let t_with = with.run(0, &d.test[..1], &CostLedger::new());
        let t_without = without.run(0, &d.test[..1], &CostLedger::new());
        let span = |ts: &Vec<Vec<Track>>| -> usize { ts[0].iter().map(|t| t.dets.len()).sum() };
        assert!(
            span(&t_with) > span(&t_without),
            "refinement should add detections: {} vs {}",
            span(&t_with),
            span(&t_without)
        );
    }

    #[test]
    fn is_marked_query_specific() {
        assert!(baseline().per_query_execution());
    }
}
