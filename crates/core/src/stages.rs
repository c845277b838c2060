//! Per-frame pipeline stages, factored out of [`crate::Pipeline`] so
//! the streaming engine (`otif-engine`) can run the same computation
//! spread across threads — decode accounting, window selection,
//! detection and tracking — with results identical to the sequential
//! executor.
//!
//! Each function is pure with respect to ordering: given the same
//! `(config, context, clip, frame)` it charges the same simulated
//! seconds and produces the same outputs regardless of which thread
//! calls it, which is what makes the engine's per-stream determinism
//! guarantee (engine output ≡ sequential `Pipeline` output) possible.

use crate::config::{OtifConfig, TrackerKind};
use crate::pipeline::{decode_cost, ExecutionContext};
use otif_cv::{Component, CostLedger, Detection};
use otif_geom::Rect;
use otif_sim::{Clip, Renderer};
use otif_track::{RecurrentTracker, SortTracker, Track};

/// The tracker variant selected by a configuration — SORT or the
/// trained recurrent tracker — behind one `step`/`finish` interface.
pub enum FrameTracker<'a> {
    /// IoU/Kalman SORT tracker (no trained model).
    Sort(Box<SortTracker>),
    /// GRU-based recurrent tracker (requires `ctx.tracker_model`).
    Recurrent(Box<RecurrentTracker<'a>>),
}

impl<'a> FrameTracker<'a> {
    /// Instantiate the tracker `config` asks for. A recurrent tracker
    /// borrows the context model's packed weights; nothing is copied.
    ///
    /// # Panics
    /// If `config.tracker` is `Recurrent` and the context has no
    /// trained tracker model.
    pub fn new(config: &OtifConfig, ctx: &ExecutionContext<'a>) -> Self {
        match config.tracker {
            TrackerKind::Sort => FrameTracker::Sort(Box::default()),
            TrackerKind::Recurrent => {
                let model = ctx
                    .tracker_model
                    .expect("recurrent tracker requires a trained model");
                FrameTracker::Recurrent(Box::new(RecurrentTracker::new(model)))
            }
        }
    }

    /// Feed one frame's detections.
    pub fn step(&mut self, frame: usize, dets: Vec<Detection>) {
        match self {
            FrameTracker::Sort(t) => t.step(frame, dets),
            FrameTracker::Recurrent(t) => t.step(frame, dets),
        }
    }

    /// Terminate all live tracks and return them.
    pub fn finish(self) -> Vec<Track> {
        match self {
            FrameTracker::Sort(t) => t.finish(),
            FrameTracker::Recurrent(t) => t.finish(),
        }
    }
}

/// Charge the simulated decode cost of one sampled frame.
pub fn charge_decode(
    config: &OtifConfig,
    ctx: &ExecutionContext,
    native_px: f64,
    ledger: &CostLedger,
) {
    ledger.charge(
        Component::Decode,
        decode_cost(&ctx.cost, native_px, config.detector.scale, config.gap),
    );
}

/// Select the detector windows for one frame: run the segmentation
/// proxy and group its positive cells when a proxy is configured
/// (charging proxy cost), else the full frame.
///
/// # Panics
/// If `config.proxy` is set but the context lacks trained proxies or
/// the window set.
pub fn select_windows(
    config: &OtifConfig,
    ctx: &ExecutionContext,
    renderer: &Renderer,
    frame_rect: Rect,
    frame: usize,
    ledger: &CostLedger,
) -> Vec<Rect> {
    match (&config.proxy, ctx.proxies, ctx.window_set) {
        (Some(p), Some(proxies), Some(ws)) => {
            let proxy = &proxies[p.resolution_idx];
            let img = renderer.render(frame, proxy.in_w, proxy.in_h);
            let grid = proxy.score_cells(&img, &ctx.cost, ledger);
            crate::grouping::group_cells(&grid.positive_cells(p.threshold), ws)
        }
        (Some(_), _, _) => {
            panic!("config has a proxy but context lacks proxies/window set")
        }
        (None, _, _) => vec![frame_rect],
    }
}

/// Charge the tracker's per-frame matching cost for `n_dets`
/// detections.
pub fn charge_tracker_step(ctx: &ExecutionContext, n_dets: usize, ledger: &CostLedger) {
    ledger.charge(
        Component::Tracker,
        ctx.cost.tracker_per_frame + n_dets as f64 * ctx.cost.tracker_per_det,
    );
}

/// Post-tracking finalization shared by the sequential pipeline and
/// the engine: stitch fragments (window scaled by the sampling gap),
/// charge the stitch pass, and refine endpoints when configured.
pub fn finalize_tracks(
    config: &OtifConfig,
    ctx: &ExecutionContext,
    clip: &Clip,
    mut tracks: Vec<Track>,
    ledger: &CostLedger,
) -> Vec<Track> {
    // Stitch fragments split by occlusion/miss streaks. The stitch
    // window is in *frames*, so scale it with the sampling gap.
    let stitch_cfg = otif_track::StitchConfig {
        max_frame_gap: 14 * config.gap.max(1),
        per_frame_dist_diag: 0.35 / config.gap.max(1) as f32,
        frame: Some(clip.scene.frame_rect()),
        ..otif_track::StitchConfig::default()
    };
    tracks = otif_track::stitch_tracks(tracks, stitch_cfg);
    ledger.charge(
        Component::Tracker,
        tracks.len() as f64 * ctx.cost.tracker_per_det,
    );
    if config.refine {
        if let Some(idx) = ctx.refine_index {
            for t in tracks.iter_mut() {
                idx.refine(t);
            }
            ledger.charge(
                Component::Refinement,
                tracks.len() as f64 * ctx.cost.refine_per_track,
            );
        }
    }
    tracks
}

#[cfg(test)]
mod tests {
    use super::*;
    use otif_cv::{CostModel, DetectorArch, DetectorConfig};
    use otif_sim::{DatasetConfig, DatasetKind};

    fn config() -> OtifConfig {
        OtifConfig {
            detector: DetectorConfig::new(DetectorArch::YoloV3, 1.0),
            proxy: None,
            gap: 2,
            tracker: TrackerKind::Sort,
            refine: false,
        }
    }

    #[test]
    fn select_windows_without_proxy_is_full_frame() {
        let d = DatasetConfig::small(DatasetKind::Caldot1, 9).generate();
        let clip = &d.test[0];
        let ctx = ExecutionContext::bare(CostModel::default(), 1);
        let renderer = Renderer::new(clip);
        let ledger = CostLedger::new();
        let ws = select_windows(
            &config(),
            &ctx,
            &renderer,
            clip.scene.frame_rect(),
            0,
            &ledger,
        );
        assert_eq!(ws, vec![clip.scene.frame_rect()]);
        // full-frame path must not charge proxy time
        assert_eq!(ledger.get(Component::Proxy), 0.0);
    }

    #[test]
    fn stage_charges_match_direct_formulas() {
        let ctx = ExecutionContext::bare(CostModel::default(), 1);
        let cfg = config();
        let ledger = CostLedger::new();
        charge_decode(&cfg, &ctx, 100_000.0, &ledger);
        assert!(
            (ledger.get(Component::Decode)
                - decode_cost(&ctx.cost, 100_000.0, cfg.detector.scale, cfg.gap))
            .abs()
                < 1e-15
        );
        charge_tracker_step(&ctx, 5, &ledger);
        assert!(
            (ledger.get(Component::Tracker)
                - (ctx.cost.tracker_per_frame + 5.0 * ctx.cost.tracker_per_det))
                .abs()
                < 1e-15
        );
    }

    #[test]
    #[should_panic(expected = "requires a trained model")]
    fn recurrent_tracker_needs_model() {
        let ctx = ExecutionContext::bare(CostModel::default(), 1);
        let mut cfg = config();
        cfg.tracker = TrackerKind::Recurrent;
        let _ = FrameTracker::new(&cfg, &ctx);
    }
}
