//! Frame rendering: turn simulated object states into grayscale pixels.
//!
//! The renderer produces frames at any requested resolution directly (the
//! scene is vector data), so the proxy model can be trained and run on
//! real pixels without paying for full-resolution rendering. Backgrounds
//! use stable block noise anchored in native coordinates so the same scene
//! content appears at every resolution, as a camera would see it.

use crate::clip::Clip;
use serde::{Deserialize, Serialize};

/// A grayscale image with `f32` intensities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GrayImage {
    /// Width in pixels.
    pub w: usize,
    /// Height in pixels.
    pub h: usize,
    /// Row-major intensities in [0, 1].
    pub data: Vec<f32>,
}

impl GrayImage {
    /// All-black image.
    pub fn new(w: usize, h: usize) -> Self {
        GrayImage {
            w,
            h,
            data: vec![0.0; w * h],
        }
    }

    #[inline]
    /// Read pixel (x, y).
    pub fn get(&self, x: usize, y: usize) -> f32 {
        self.data[y * self.w + x]
    }

    #[inline]
    /// Write pixel (x, y).
    pub fn set(&mut self, x: usize, y: usize, v: f32) {
        self.data[y * self.w + x] = v;
    }

    /// Mean intensity over a pixel rectangle (clamped to bounds).
    pub fn mean_in(&self, x0: usize, y0: usize, x1: usize, y1: usize) -> f32 {
        let x1 = x1.min(self.w);
        let y1 = y1.min(self.h);
        if x0 >= x1 || y0 >= y1 {
            return 0.0;
        }
        let mut acc = 0.0;
        for y in y0..y1 {
            for x in x0..x1 {
                acc += self.get(x, y);
            }
        }
        acc / ((x1 - x0) * (y1 - y0)) as f32
    }

    /// Quantize to `u8` (for the codec).
    pub fn to_u8(&self) -> Vec<u8> {
        self.data
            .iter()
            .map(|v| (v.clamp(0.0, 1.0) * 255.0).round() as u8)
            .collect()
    }

    /// Build from quantized bytes.
    pub fn from_u8(w: usize, h: usize, data: &[u8]) -> Self {
        assert_eq!(data.len(), w * h);
        GrayImage {
            w,
            h,
            data: data.iter().map(|&b| b as f32 / 255.0).collect(),
        }
    }
}

// SplitMix64 multipliers of `hash01`'s three inputs.
const K1: u64 = 0x9E3779B97F4A7C15;
const K2: u64 = 0xBF58476D1CE4E5B9;
const K3: u64 = 0x94D049BB133111EB;

/// Deterministic integer hash → `[0, 1)` (SplitMix64 finalizer).
#[inline]
pub fn hash01(a: u64, b: u64, c: u64) -> f32 {
    mix01(
        a.wrapping_mul(K1)
            .wrapping_add(b.wrapping_mul(K2))
            .wrapping_add(c.wrapping_mul(K3)),
    )
}

/// The finalizer half of [`hash01`], on the already-combined inputs.
/// Wrapping `u64` sums are exact, so callers may hoist and regroup the
/// `a·K1 + b·K2 + c·K3` terms without changing a bit.
#[inline]
fn mix01(mut z: u64) -> f32 {
    z = (z ^ (z >> 30)).wrapping_mul(K2);
    z = (z ^ (z >> 27)).wrapping_mul(K3);
    z ^= z >> 31;
    (z >> 40) as f32 / (1u64 << 24) as f32
}

/// Index of the 8×8 native background block containing coordinate `n`.
#[inline]
fn block_of(n: f32) -> u64 {
    (n / 8.0).floor() as i64 as u64
}

/// Renders frames of a [`Clip`].
pub struct Renderer<'a> {
    clip: &'a Clip,
}

impl<'a> Renderer<'a> {
    /// Create a renderer for a clip.
    pub fn new(clip: &'a Clip) -> Self {
        Renderer { clip }
    }

    /// Seeds the background texture and sensor noise (from the scene name).
    fn bg_seed(&self) -> u64 {
        self.clip
            .scene
            .name
            .bytes()
            .fold(0u64, |acc, b| acc.wrapping_mul(31).wrapping_add(b as u64))
    }

    /// Render frame `frame` at `w × h` pixels.
    pub fn render(&self, frame: usize, w: usize, h: usize) -> GrayImage {
        let scene = &self.clip.scene;
        let (fw, fh) = (scene.width as f32, scene.height as f32);
        self.render_region(frame, 0.0, 0.0, fw, fh, w, h)
    }

    /// Render the native-coordinate region `(rx, ry, rw, rh)` of frame
    /// `frame` at `w × h` pixels — the crop a detector sees for one
    /// window, resampled to its input resolution.
    ///
    /// Background: level + vertical gradient + 8×8 native-block static
    /// noise (shifted by camera motion so drone footage "moves"). Objects:
    /// filled boxes with per-object tone and a two-band texture (roof vs
    /// body) so appearance features carry signal. Then per-frame sensor
    /// noise. Deterministic per `(frame, region, resolution)`.
    ///
    /// Bit-identical to [`Self::render_region_naive`]: each block hash is
    /// computed once per run of output pixels sharing a block, and the
    /// per-row and per-column terms are hoisted, but every pixel sees the
    /// same `f32` operations in the same order.
    #[allow(clippy::too_many_arguments)]
    pub fn render_region(
        &self,
        frame: usize,
        rx: f32,
        ry: f32,
        rw: f32,
        rh: f32,
        w: usize,
        h: usize,
    ) -> GrayImage {
        let scene = &self.clip.scene;
        let sx = rw / w as f32; // native px per target px
        let sy = rh / h as f32;
        let bg_seed = self.bg_seed();
        let cam = self.clip.frames[frame].cam_offset;
        let mut img = GrayImage::new(w, h);

        let block_cols: Vec<u64> = (0..w)
            .map(|x| block_of(rx + x as f32 * sx + cam.0))
            .collect();
        let seed_term = bg_seed.wrapping_mul(K3);
        let mut blocks = vec![0.0f32; w];
        let mut cached_block_row = None;
        for (y, row) in img.data.chunks_exact_mut(w.max(1)).enumerate() {
            let ny = ry + y as f32 * sy + cam.1;
            let by = block_of(ny);
            if cached_block_row != Some(by) {
                let row_term = by.wrapping_mul(K2).wrapping_add(seed_term);
                let mut last = None;
                for (b, &bx) in blocks.iter_mut().zip(&block_cols) {
                    *b = match last {
                        Some((lx, v)) if lx == bx => v,
                        _ => mix01(bx.wrapping_mul(K1).wrapping_add(row_term)),
                    };
                    last = Some((bx, *b));
                }
                cached_block_row = Some(by);
            }
            let base = scene.background_level + 0.10 * (ny / scene.height as f32);
            for (p, &b) in row.iter_mut().zip(&blocks) {
                *p = base + 0.08 * b;
            }
        }

        self.paint_objects(&mut img, frame, rx, ry, sx, sy);

        if scene.noise_sigma > 0.0 {
            let amp = scene.noise_sigma;
            let frame_term = (frame as u64 ^ (bg_seed << 1)).wrapping_mul(K3);
            for (y, row) in img.data.chunks_exact_mut(w.max(1)).enumerate() {
                let mut z = (y as u64).wrapping_mul(K2).wrapping_add(frame_term);
                for p in row {
                    let n = mix01(z) - 0.5;
                    *p = (*p + 2.0 * amp * n).clamp(0.0, 1.0);
                    z = z.wrapping_add(K1);
                }
            }
        }
        img
    }

    /// Per-pixel reference for [`Self::render_region`]: one block hash
    /// and one noise hash per output pixel, straight from the scene
    /// definition. Kept as the oracle the fast path is tested and
    /// benchmarked against; the object fill, untouched by the fast path,
    /// is shared.
    #[allow(clippy::too_many_arguments)]
    pub fn render_region_naive(
        &self,
        frame: usize,
        rx: f32,
        ry: f32,
        rw: f32,
        rh: f32,
        w: usize,
        h: usize,
    ) -> GrayImage {
        let scene = &self.clip.scene;
        let sx = rw / w as f32;
        let sy = rh / h as f32;
        let bg_seed = self.bg_seed();
        let cam = self.clip.frames[frame].cam_offset;

        let mut img = GrayImage::new(w, h);
        for y in 0..h {
            let ny = ry + y as f32 * sy + cam.1;
            for x in 0..w {
                let nx = rx + x as f32 * sx + cam.0;
                let block = hash01(
                    (nx / 8.0).floor() as i64 as u64,
                    (ny / 8.0).floor() as i64 as u64,
                    bg_seed,
                );
                let v = scene.background_level + 0.10 * (ny / scene.height as f32) + 0.08 * block;
                img.set(x, y, v);
            }
        }

        self.paint_objects(&mut img, frame, rx, ry, sx, sy);

        if scene.noise_sigma > 0.0 {
            let amp = scene.noise_sigma;
            for y in 0..h {
                for x in 0..w {
                    let n = hash01(x as u64, y as u64, frame as u64 ^ (bg_seed << 1)) - 0.5;
                    let i = y * w + x;
                    img.data[i] = (img.data[i] + 2.0 * amp * n).clamp(0.0, 1.0);
                }
            }
        }
        img
    }

    /// Paint frame `frame`'s objects over `img`, which samples the native
    /// region at origin `(rx, ry)` with `(sx, sy)` native px per pixel.
    fn paint_objects(&self, img: &mut GrayImage, frame: usize, rx: f32, ry: f32, sx: f32, sy: f32) {
        let (w, h) = (img.w, img.h);
        let bg_seed = self.bg_seed();
        for o in &self.clip.frames[frame].objs {
            let tone = o.class.intensity() * (0.85 + 0.3 * hash01(o.track_id as u64, 17, bg_seed));
            let ox = (o.rect.x - rx) / sx;
            let oy = (o.rect.y - ry) / sy;
            let x0 = ox.floor().max(0.0) as usize;
            let y0 = oy.floor().max(0.0) as usize;
            let x1 = (((o.rect.x1() - rx) / sx).ceil().min(w as f32).max(0.0)) as usize;
            let y1 = (((o.rect.y1() - ry) / sy).ceil().min(h as f32).max(0.0)) as usize;
            for y in y0..y1 {
                let band = if (y as f32 - oy) < (o.rect.h / sy) * 0.4 {
                    0.85
                } else {
                    1.0
                };
                for x in x0..x1 {
                    img.set(x, y, (tone * band).clamp(0.0, 1.0));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::{PathSpec, ScaleProfile};
    use crate::scene::{CameraMotion, SceneSpec};
    use proptest::prelude::*;
    use std::sync::{Arc, OnceLock};

    fn clip() -> Clip {
        clip_with(CameraMotion::Fixed, 0.0)
    }

    fn clip_with(camera: CameraMotion, noise_sigma: f32) -> Clip {
        let scene = Arc::new(SceneSpec {
            name: "render-test".into(),
            width: 320,
            height: 192,
            fps: 10,
            camera,
            paths: vec![PathSpec::straight(
                "w->e",
                (-40.0, 96.0),
                (360.0, 96.0),
                ScaleProfile::uniform(1.0),
                40.0,
                80.0,
            )],
            background_level: 0.3,
            noise_sigma,
            hard_brake_prob: 0.0,
            signal_cycle_s: 0.0,
        });
        Clip::simulate(scene, 0, 6.0, 21)
    }

    #[test]
    fn rendering_is_deterministic() {
        let c = clip();
        let r = Renderer::new(&c);
        let a = r.render(3, 160, 96);
        let b = r.render(3, 160, 96);
        assert_eq!(a, b);
    }

    #[test]
    fn objects_are_brighter_than_background() {
        let c = clip();
        let r = Renderer::new(&c);
        // find a frame with an object well inside the frame
        let (f, rect) = c
            .frames
            .iter()
            .enumerate()
            .find_map(|(f, fs)| {
                fs.objs
                    .iter()
                    .find(|o| o.rect.x > 40.0 && o.rect.x1() < 280.0)
                    .map(|o| (f, o.rect))
            })
            .expect("an interior object");
        let img = r.render(f, 320, 192);
        let obj_mean = img.mean_in(
            rect.x as usize + 1,
            rect.y as usize + 1,
            rect.x1() as usize - 1,
            rect.y1() as usize - 1,
        );
        // background patch far from the road
        let bg_mean = img.mean_in(10, 10, 40, 30);
        assert!(
            obj_mean > bg_mean + 0.2,
            "object {obj_mean} vs background {bg_mean}"
        );
    }

    #[test]
    fn low_resolution_preserves_scene_content() {
        let c = clip();
        let r = Renderer::new(&c);
        let hi = r.render(2, 320, 192);
        let lo = r.render(2, 80, 48);
        // Same scene: overall brightness should be close.
        let mean = |img: &GrayImage| img.data.iter().sum::<f32>() / img.data.len() as f32;
        assert!((mean(&hi) - mean(&lo)).abs() < 0.05);
    }

    #[test]
    fn u8_roundtrip_is_close() {
        let c = clip();
        let img = Renderer::new(&c).render(0, 64, 48);
        let bytes = img.to_u8();
        let back = GrayImage::from_u8(64, 48, &bytes);
        for (a, b) in img.data.iter().zip(&back.data) {
            assert!((a - b).abs() < 1.0 / 255.0 + 1e-6);
        }
    }

    #[test]
    fn region_render_matches_full_frame_content() {
        let c = clip();
        let r = Renderer::new(&c);
        // full frame at native resolution (one block hash per 8×8 pixels)
        // is bitwise the per-pixel reference
        let full = r.render(2, 320, 192);
        assert!(same_bits(
            &full,
            &r.render_region_naive(2, 0.0, 0.0, 320.0, 192.0, 320, 192)
        ));
        // a native-aligned crop at native sampling equals the same pixels
        // of the full frame
        let crop = r.render_region(2, 64.0, 32.0, 128.0, 96.0, 128, 96);
        for y in 0..96 {
            for x in 0..128 {
                assert_eq!(
                    crop.get(x, y),
                    full.get(x + 64, y + 32),
                    "crop diverges at ({x},{y})"
                );
            }
        }
        // deterministic
        assert_eq!(
            r.render_region(1, 10.0, 5.0, 50.0, 40.0, 25, 20),
            r.render_region(1, 10.0, 5.0, 50.0, 40.0, 25, 20)
        );
    }

    /// Bitwise equality: `GrayImage`'s `PartialEq` compares `f32` values,
    /// under which -0.0 == 0.0.
    fn same_bits(a: &GrayImage, b: &GrayImage) -> bool {
        (a.w, a.h) == (b.w, b.h)
            && a.data
                .iter()
                .zip(&b.data)
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    /// A fixed-camera and a drifting-camera clip, both with sensor noise.
    fn noisy_clips() -> &'static [Clip; 2] {
        static CLIPS: OnceLock<[Clip; 2]> = OnceLock::new();
        CLIPS.get_or_init(|| {
            let drift = CameraMotion::Drift {
                amp_x: 13.3,
                amp_y: 7.1,
                period_s: 4.0,
            };
            [clip_with(CameraMotion::Fixed, 0.03), clip_with(drift, 0.03)]
        })
    }

    proptest! {
        #[test]
        fn fast_render_is_bit_identical_to_naive(
            scene in (0usize..2, 0usize..60),
            origin in (-80.0f32..360.0, -60.0f32..230.0),
            extent in (0.5f32..400.0, 0.5f32..260.0),
            out in (1usize..129, 1usize..129),
        ) {
            let c = &noisy_clips()[scene.0];
            let r = Renderer::new(c);
            let f = scene.1;
            let (rx, ry) = origin;
            let (rw, rh) = extent;
            let (w, h) = out;
            // arbitrary windows: fractional origins, partly outside the
            // frame, resampled up or down
            prop_assert!(
                same_bits(
                    &r.render_region(f, rx, ry, rw, rh, w, h),
                    &r.render_region_naive(f, rx, ry, rw, rh, w, h),
                ),
                "region ({rx}, {ry}, {rw}, {rh}) at {w}x{h}, frame {f}, scene {}",
                scene.0
            );
            // the full frame at an arbitrary output size
            prop_assert!(
                same_bits(
                    &r.render(f, w, h),
                    &r.render_region_naive(f, 0.0, 0.0, 320.0, 192.0, w, h),
                ),
                "full frame at {w}x{h}, frame {f}, scene {}",
                scene.0
            );
        }
    }

    #[test]
    fn hash01_in_range_and_deterministic() {
        for i in 0..1000u64 {
            let v = hash01(i, i * 3, 7);
            assert!((0.0..1.0).contains(&v));
        }
        assert_eq!(hash01(1, 2, 3), hash01(1, 2, 3));
        assert_ne!(hash01(1, 2, 3), hash01(1, 2, 4));
    }
}
