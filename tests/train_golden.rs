//! Golden bit fingerprint of segmentation proxy training.
//!
//! `tests/render_golden.rs` hashes *untrained* proxies and
//! `tests/engine_golden.rs` runs without a proxy, so neither sees a
//! training step. This test trains two proxies, at two `PROXY_SCALES`
//! input sizes, on ground-truth labels over a small Warsaw dataset, and
//! folds one FNV-1a digest over every trained weight and bias
//! (`to_bits`, layer by layer) and the loss `train` returns.
//!
//! The constant was recorded on the scalar scatter-loop backward pass
//! before the tiered, order-preserving kernels replaced it; the two must
//! agree bit for bit.

use otif::core::{fold_digest, SegProxyModel, DIGEST_SEED, PROXY_SCALES};
use otif::cv::Detection;
use otif::sim::{Clip, DatasetConfig, DatasetKind, ObjectClass};

/// Digest of the scalar backward pass's training on this input set.
const GOLDEN: u64 = 0x5ce760149304a367;

const STEPS: usize = 40;

#[test]
fn proxy_training_matches_golden_fingerprint() {
    let d = DatasetConfig::small(DatasetKind::Warsaw, 5).generate();
    let clips: Vec<&Clip> = d.train.iter().collect();
    let labels: Vec<Vec<Vec<Detection>>> = d
        .train
        .iter()
        .map(|c| {
            (0..c.num_frames())
                .map(|f| {
                    c.gt_boxes(f)
                        .into_iter()
                        .map(|(_, _, rect)| Detection {
                            rect,
                            class: ObjectClass::Car,
                            confidence: 0.9,
                            appearance: vec![],
                            debug_gt: None,
                        })
                        .collect()
                })
                .collect()
        })
        .collect();
    let (nw, nh) = (d.scene.width as usize, d.scene.height as usize);
    let mut h = DIGEST_SEED;
    for (i, &scale) in [PROXY_SCALES[2], PROXY_SCALES[4]].iter().enumerate() {
        let mut m = SegProxyModel::new(nw, nh, scale, 11 + i as u64);
        let loss = m.train(&clips, &labels, STEPS, 0.01, 3 + i as u64);
        assert!(loss.is_finite(), "scale {scale}: loss {loss}");
        h = fold_digest(h, loss.to_bits() as u64);
        for layer in m.layers() {
            for v in layer.weight.w.iter().chain(&layer.bias.w) {
                h = fold_digest(h, v.to_bits() as u64);
            }
        }
    }
    assert_eq!(
        h, GOLDEN,
        "proxy training digest moved: got {h:#018x}, want {GOLDEN:#018x}"
    );
}
