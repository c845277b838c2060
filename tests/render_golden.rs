//! Golden bit fingerprint of the frame renderer and the models it feeds.
//!
//! Every proxy score, proxy training step and detector-window digest in
//! the system starts from `Renderer` pixels, so a renderer change that
//! moves a single bit moves the reproduction's numbers. This test folds
//! one FNV-1a digest over, for all seven datasets:
//!
//! - `render` at every `PROXY_SCALES` input size,
//! - `render_region` windows with non-integer origins, windows partly
//!   outside the frame, and windows resampled up and down,
//! - `SegProxyModel` logits on each proxy-scale frame,
//! - `WindowNet` output digests on materialized detector windows,
//!
//! and pins it to a constant. The constant was recorded on the per-pixel
//! renderer (one block hash per output pixel) before the block-hash
//! renderer replaced it; the two must agree bit for bit.

use otif::core::proxy::proxy_input_dims;
use otif::core::{digest_tensor, fold_digest, SegProxyModel, WindowNet, DIGEST_SEED, PROXY_SCALES};
use otif::cv::{DetectorArch, DetectorConfig};
use otif::geom::Rect;
use otif::nn::{KernelPath, Tensor3};
use otif::sim::{Clip, DatasetKind, GrayImage, Renderer};
use std::sync::Arc;

/// Digest of the pre-optimisation per-pixel renderer on this input set.
const GOLDEN: u64 = 0xafd6e5dd6d9d20fc;

fn fold_image(mut h: u64, img: &GrayImage) -> u64 {
    h = fold_digest(h, img.w as u64);
    h = fold_digest(h, img.h as u64);
    for v in &img.data {
        h = fold_digest(h, v.to_bits() as u64);
    }
    h
}

/// Frame 0 and the frame with the most objects on screen.
fn frames(clip: &Clip) -> [usize; 2] {
    let busiest = (0..clip.num_frames())
        .max_by_key(|&f| (clip.frames[f].objs.len(), std::cmp::Reverse(f)))
        .unwrap_or(0);
    [0, busiest]
}

#[test]
fn renderer_and_model_inputs_match_golden_fingerprint() {
    let net = WindowNet::new(&DetectorConfig::new(DetectorArch::YoloV3, 0.5), 42);
    let mut h = DIGEST_SEED;
    for kind in DatasetKind::ALL {
        let clip = Clip::simulate(Arc::new(kind.scene()), 0, 6.0, 1_234);
        let (nw, nh) = (clip.scene.width as usize, clip.scene.height as usize);
        let (fw, fh) = (nw as f32, nh as f32);
        let r = Renderer::new(&clip);
        let proxies: Vec<SegProxyModel> = PROXY_SCALES
            .iter()
            .map(|&s| SegProxyModel::new(nw, nh, s, 7))
            .collect();
        // (x, y, w, h, out_w, out_h): aligned, fractional, clipped on
        // each side, upsampled and downsampled.
        let regions = [
            (64.0, 32.0, 128.0, 96.0, 128, 96),
            (10.25, 5.5, 50.0, 40.0, 25, 20),
            (-13.7, -9.1, 96.0, 64.0, 48, 32),
            (fw - 40.3, fh - 21.9, 96.0, 64.0, 96, 64),
            (fw * 0.5 - 7.1, 3.3, 20.5, 17.25, 41, 35),
            (0.0, 0.0, fw, fh, 37, 23),
        ];
        let mut logits = Tensor3::zeros(0, 0, 0);
        let mut y = Tensor3::zeros(0, 0, 0);
        for f in frames(&clip) {
            for (&s, proxy) in PROXY_SCALES.iter().zip(&proxies) {
                let (w, ih) = proxy_input_dims(nw, nh, s);
                let img = r.render(f, w, ih);
                h = fold_image(h, &img);
                proxy.infer_logits_into(&img, KernelPath::Auto, &mut logits);
                h = fold_digest(h, digest_tensor(&logits));
            }
            for &(x, yy, w, ht, ow, oh) in &regions {
                h = fold_image(h, &r.render_region(f, x, yy, w, ht, ow, oh));
            }
            for (i, &(x, yy, w, ht, _, _)) in regions.iter().enumerate() {
                let rounded = [(64, 64), (128, 96), (96, 64)][i % 3];
                let window = Rect::new(x, yy, w, ht);
                net.forward_into(&net.materialize(&r, f, &window, rounded), &mut y);
                h = fold_digest(h, digest_tensor(&y));
            }
        }
    }
    assert_eq!(
        h, GOLDEN,
        "renderer bits drifted: fingerprint {h:#018x}, golden {GOLDEN:#018x}"
    );
}
