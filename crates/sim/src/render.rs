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

/// The noise hash's input at pixel `(0, y)` of a frame whose
/// `c·K3` term is `frame_term`; pixel `x` of the row adds `x·K1`.
#[inline]
fn row_z(y: usize, frame_term: u64) -> u64 {
    (y as u64).wrapping_mul(K2).wrapping_add(frame_term)
}

/// A sensor-noise kernel. [`Renderer::render_region`] runs the fastest
/// one this CPU supports ([`NoiseTier::detect`]); every tier stays
/// callable through [`Renderer::render_region_on`], so tests and the
/// `kernels` bench compare each against [`Renderer::render_region_naive`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseTier {
    /// Eight 64-bit lanes on AVX-512 F, DQ and VL: `vpmullq` multiplies,
    /// `vcvtqq2ps` converts, a masked load and store take the row's tail.
    Avx512,
    /// Four 64-bit lanes on AVX2, each multiply built from three
    /// `vpmuludq`; the row's tail runs on the scalar kernel.
    Avx2,
    /// One pixel at a time; runs on every CPU.
    Scalar,
}

impl NoiseTier {
    /// Every tier, fastest first.
    pub const ALL: [NoiseTier; 3] = [NoiseTier::Avx512, NoiseTier::Avx2, NoiseTier::Scalar];

    /// Whether this CPU runs `self` (std caches the CPUID probe).
    pub fn supported(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            match self {
                NoiseTier::Avx512 => has!("avx512f") && has!("avx512dq") && has!("avx512vl"),
                NoiseTier::Avx2 => has!("avx2"),
                NoiseTier::Scalar => true,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            self == NoiseTier::Scalar
        }
    }

    /// The fastest tier this CPU runs: the one `render_region` uses.
    pub fn detect() -> NoiseTier {
        NoiseTier::ALL
            .into_iter()
            .find(|t| t.supported())
            .unwrap_or(NoiseTier::Scalar)
    }

    /// Short lowercase name, for bench tables and test notes.
    pub fn name(self) -> &'static str {
        match self {
            NoiseTier::Avx512 => "avx512",
            NoiseTier::Avx2 => "avx2",
            NoiseTier::Scalar => "scalar",
        }
    }
}

/// Add sensor noise to the `w`-pixel rows of `data` on `tier`: pixel
/// `(x, y)` becomes `(p + two_amp·n).clamp(0, 1)` with
/// `n = mix01(x·K1 + row_z(y)) - 0.5`.
///
/// # Panics
/// If this CPU does not run `tier`.
fn add_noise(tier: NoiseTier, data: &mut [f32], w: usize, frame_term: u64, two_amp: f32) {
    assert!(
        tier.supported(),
        "this CPU does not run the {} noise tier",
        tier.name()
    );
    match tier {
        // SAFETY: the assert above checked the tier's CPU features.
        #[cfg(target_arch = "x86_64")]
        NoiseTier::Avx512 => unsafe { x86::noise_avx512(data, w, frame_term, two_amp) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        NoiseTier::Avx2 => unsafe { x86::noise_avx2(data, w, frame_term, two_amp) },
        _ => {
            for (y, row) in data.chunks_exact_mut(w.max(1)).enumerate() {
                noise_row_scalar(row, row_z(y, frame_term), two_amp);
            }
        }
    }
}

/// One background block row on `tier`: `blocks[x] = mix01(terms[r] +
/// add)` with `r = run_of[x]`, each run's hash computed once into
/// `hashes` (scratch of at least `terms.len() + 16` floats). `run_of`
/// starts at run 0 and steps by 0 or 1 per column.
///
/// # Panics
/// If this CPU does not run `tier`.
fn block_row(
    tier: NoiseTier,
    (terms, add): (&[u64], u64),
    run_of: &[u32],
    hashes: &mut [f32],
    blocks: &mut [f32],
) {
    assert!(
        tier.supported(),
        "this CPU does not run the {} noise tier",
        tier.name()
    );
    assert_eq!(run_of.len(), blocks.len(), "one run per column");
    assert!(hashes.len() >= terms.len() + 16, "hash scratch too short");
    match tier {
        // SAFETY: the assert above checked the tier's CPU features.
        #[cfg(target_arch = "x86_64")]
        NoiseTier::Avx512 => unsafe { x86::block_row_avx512(terms, add, run_of, hashes, blocks) },
        // SAFETY: as above.
        #[cfg(target_arch = "x86_64")]
        NoiseTier::Avx2 => unsafe { x86::block_row_avx2(terms, add, run_of, hashes, blocks) },
        _ => {
            for (h, &z) in hashes.iter_mut().zip(terms) {
                *h = mix01(z.wrapping_add(add));
            }
            for (b, &r) in blocks.iter_mut().zip(run_of) {
                *b = hashes[r as usize];
            }
        }
    }
}

/// The scalar noise kernel on one row whose first pixel hashes `z`.
#[inline]
fn noise_row_scalar(row: &mut [f32], mut z: u64, two_amp: f32) {
    for p in row {
        let n = mix01(z) - 0.5;
        *p = (*p + two_amp * n).clamp(0.0, 1.0);
        z = z.wrapping_add(K1);
    }
}

/// The vector noise and block-hash kernels. All hash eight values per
/// step; the noise kernels finish them with the scalar kernel's `f32`
/// operations in the same order, so every lane reproduces
/// [`noise_row_scalar`] (and the hash kernels [`mix01`]) bit for bit:
///
/// - wrapping `u64` arithmetic is exact in any lane, and the
///   finalizer's last xor-shift is skipped because it cannot reach the
///   bits kept: `(z ^ (z >> 31)) >> 40 == z >> 40`;
/// - `z >> 40` is below 2^24, so it converts to `f32` exactly, and the
///   2^-24 scale (the scalar division) is exact;
/// - `p + two_amp·n` stays a separate multiply and add, never an FMA;
/// - the clamp is `min(1, max(0, v))` with the constant as the first
///   operand: `maxps`/`minps` return their second operand unless the
///   first compares strictly greater (less), so `-0.0` and NaN pass
///   through as under `f32::clamp`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{mix01, noise_row_scalar, row_z, K1, K2, K3};
    use std::arch::x86_64::*;

    /// `K1·i` for `i = 0..8`: the hash offsets of a step's pixels.
    const LANES: [u64; 8] = {
        let mut l = [0u64; 8];
        let mut i = 0;
        while i < 8 {
            l[i] = K1.wrapping_mul(i as u64);
            i += 1;
        }
        l
    };

    /// Noise on eight pixels `p` whose hashes are `u` in `[0, 1)`.
    ///
    /// # Safety
    /// The CPU supports AVX.
    #[inline]
    #[target_feature(enable = "avx")]
    unsafe fn finish(p: __m256, u: __m256, two_amp: __m256) -> __m256 {
        let n = _mm256_sub_ps(u, _mm256_set1_ps(0.5));
        let v = _mm256_add_ps(p, _mm256_mul_ps(two_amp, n));
        _mm256_min_ps(_mm256_set1_ps(1.0), _mm256_max_ps(_mm256_setzero_ps(), v))
    }

    /// `mix01` for eight lanes.
    ///
    /// # Safety
    /// The CPU supports AVX-512 F and DQ.
    #[inline]
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn mix8(z: __m512i) -> __m256 {
        let k2 = _mm512_set1_epi64(K2 as i64);
        let k3 = _mm512_set1_epi64(K3 as i64);
        let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<30>(z)), k2);
        let z = _mm512_mullo_epi64(_mm512_xor_si512(z, _mm512_srli_epi64::<27>(z)), k3);
        let u = _mm512_cvtepi64_ps(_mm512_srli_epi64::<40>(z));
        _mm256_mul_ps(u, _mm256_set1_ps(1.0 / (1u64 << 24) as f32))
    }

    /// The AVX-512 tier of `add_noise`.
    ///
    /// # Safety
    /// The CPU supports AVX-512 F, DQ and VL.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn noise_avx512(data: &mut [f32], w: usize, frame_term: u64, two_amp: f32) {
        // `LANES` is 64 bytes: one unaligned vector
        let lanes = _mm512_loadu_si512(LANES.as_ptr().cast());
        let step = _mm512_set1_epi64(K1.wrapping_mul(8) as i64);
        let two_amp = _mm256_set1_ps(two_amp);
        for (y, row) in data.chunks_exact_mut(w.max(1)).enumerate() {
            let mut z = _mm512_add_epi64(_mm512_set1_epi64(row_z(y, frame_term) as i64), lanes);
            let mut px = row.chunks_exact_mut(8);
            for p in &mut px {
                // `p` holds eight pixels: one unaligned vector
                let v = finish(_mm256_loadu_ps(p.as_ptr()), mix8(z), two_amp);
                _mm256_storeu_ps(p.as_mut_ptr(), v);
                z = _mm512_add_epi64(z, step);
            }
            let rest = px.into_remainder();
            if !rest.is_empty() {
                // lanes from `rest.len()` on are masked off: never read
                // (they load 0.0) and never stored
                let m = (1u8 << rest.len()) - 1;
                let p = _mm256_maskz_loadu_ps(m, rest.as_ptr());
                _mm256_mask_storeu_ps(rest.as_mut_ptr(), m, finish(p, mix8(z), two_amp));
            }
        }
    }

    /// The AVX-512 tier of `block_row`: eight hashes per step, then
    /// sixteen columns per step. Sixteen consecutive columns span at most
    /// sixteen runs, so one `vpermps` of the sixteen hashes from the
    /// first column's run on spreads them.
    ///
    /// # Safety
    /// The CPU supports AVX-512 F, DQ and VL, and `hashes` holds at
    /// least `terms.len() + 16` floats.
    #[target_feature(enable = "avx512f,avx512dq,avx512vl")]
    pub(super) unsafe fn block_row_avx512(
        terms: &[u64],
        add: u64,
        run_of: &[u32],
        hashes: &mut [f32],
        blocks: &mut [f32],
    ) {
        let add = _mm512_set1_epi64(add as i64);
        for (z, h) in terms.chunks(8).zip(hashes.chunks_mut(8)) {
            // lanes from `z.len()` on are masked off: never read or stored
            let m = ((1u16 << z.len()) - 1) as u8;
            let v = _mm512_add_epi64(_mm512_maskz_loadu_epi64(m, z.as_ptr().cast()), add);
            _mm256_mask_storeu_ps(h.as_mut_ptr(), m, mix8(v));
        }
        for (r, b) in run_of.chunks(16).zip(blocks.chunks_mut(16)) {
            let m = ((1u32 << r.len()) - 1) as u16;
            let r0 = r[0] as usize;
            // the permute reads only each index's low four bits, so the
            // masked-off lanes' indices do not matter
            let idx = _mm512_sub_epi32(
                _mm512_maskz_loadu_epi32(m, r.as_ptr().cast()),
                _mm512_set1_epi32(r0 as i32),
            );
            let h = &hashes[r0..][..16];
            let v = _mm512_permutexvar_ps(idx, _mm512_loadu_ps(h.as_ptr()));
            _mm512_mask_storeu_ps(b.as_mut_ptr(), m, v);
        }
    }

    /// The AVX2 tier of `block_row`: each hash step hashes two vectors
    /// of four and, as in `noise_avx2`, blends their 24 kept bits into
    /// one vector, `[z0 z4 z1 z5 z2 z6 z3 z7]`, then puts it in order;
    /// then one `vpermps` spreads eight columns, as in the AVX-512 tier.
    /// Both tails run scalar.
    ///
    /// # Safety
    /// The CPU supports AVX2, and `hashes` holds at least `terms.len() +
    /// 16` floats.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn block_row_avx2(
        terms: &[u64],
        add: u64,
        run_of: &[u32],
        hashes: &mut [f32],
        blocks: &mut [f32],
    ) {
        let add_v = _mm256_set1_epi64x(add as i64);
        let scale = _mm256_set1_ps(1.0 / (1u64 << 24) as f32);
        let order = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        let mut zs = terms.chunks_exact(8);
        let mut hs = hashes[..terms.len()].chunks_exact_mut(8);
        for (z, h) in (&mut zs).zip(&mut hs) {
            // `z` holds eight `u64`s: two unaligned vectors
            let (lo, hi) = (
                _mm256_add_epi64(_mm256_loadu_si256(z.as_ptr().cast()), add_v),
                _mm256_add_epi64(_mm256_loadu_si256(z[4..].as_ptr().cast()), add_v),
            );
            let q = _mm256_blend_epi32::<0b1010_1010>(
                _mm256_srli_epi64::<40>(mix4(lo)),
                _mm256_srli_epi64::<8>(mix4(hi)),
            );
            let q = _mm256_permutevar8x32_epi32(q, order);
            _mm256_storeu_ps(h.as_mut_ptr(), _mm256_mul_ps(_mm256_cvtepi32_ps(q), scale));
        }
        for (h, &z) in hs.into_remainder().iter_mut().zip(zs.remainder()) {
            *h = mix01(z.wrapping_add(add));
        }
        let mut rs = run_of.chunks_exact(8);
        let mut bs = blocks.chunks_exact_mut(8);
        for (r, b) in (&mut rs).zip(&mut bs) {
            let r0 = r[0] as usize;
            // `r` holds eight `u32`s: one unaligned vector
            let idx = _mm256_sub_epi32(
                _mm256_loadu_si256(r.as_ptr().cast()),
                _mm256_set1_epi32(r0 as i32),
            );
            let h = &hashes[r0..][..8];
            let v = _mm256_permutevar8x32_ps(_mm256_loadu_ps(h.as_ptr()), idx);
            _mm256_storeu_ps(b.as_mut_ptr(), v);
        }
        for (b, &r) in bs.into_remainder().iter_mut().zip(rs.remainder()) {
            *b = hashes[r as usize];
        }
    }

    /// Wrapping `a·k` in each 64-bit lane, from three 32×32→64-bit
    /// multiplies: `lo·lo + ((hi(a)·lo(k) + lo(a)·hi(k)) << 32)`.
    ///
    /// # Safety
    /// The CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mul64(a: __m256i, k: u64) -> __m256i {
        let k_lo = _mm256_set1_epi64x(k as u32 as i64);
        let k_hi = _mm256_set1_epi64x((k >> 32) as i64);
        let lo = _mm256_mul_epu32(a, k_lo);
        let cross = _mm256_add_epi64(
            _mm256_mul_epu32(_mm256_srli_epi64::<32>(a), k_lo),
            _mm256_mul_epu32(a, k_hi),
        );
        _mm256_add_epi64(lo, _mm256_slli_epi64::<32>(cross))
    }

    /// `mix01`'s two multiply rounds for four lanes: bits 40..64 of the
    /// result are `mix01`'s `z >> 40`.
    ///
    /// # Safety
    /// The CPU supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn mix4(z: __m256i) -> __m256i {
        let z = mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<30>(z)), K2);
        mul64(_mm256_xor_si256(z, _mm256_srli_epi64::<27>(z)), K3)
    }

    /// The AVX2 tier of `add_noise`: each eight-pixel step hashes the
    /// even pixels in one vector and the odd ones in another. Shifting
    /// the even lanes' 24 bits right by 40 puts them in the low dword of
    /// each lane, the odd lanes' right by 8 in the high dword, so one
    /// blend puts all eight in pixel order.
    ///
    /// # Safety
    /// The CPU supports AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn noise_avx2(data: &mut [f32], w: usize, frame_term: u64, two_amp: f32) {
        let [l0, l1, l2, l3, l4, l5, l6, l7] = LANES.map(|l| l as i64);
        let (even, odd) = (
            _mm256_setr_epi64x(l0, l2, l4, l6),
            _mm256_setr_epi64x(l1, l3, l5, l7),
        );
        let step = _mm256_set1_epi64x(K1.wrapping_mul(8) as i64);
        let scale = _mm256_set1_ps(1.0 / (1u64 << 24) as f32);
        let two_amp_v = _mm256_set1_ps(two_amp);
        for (y, row) in data.chunks_exact_mut(w.max(1)).enumerate() {
            let z0 = row_z(y, frame_term);
            let base = _mm256_set1_epi64x(z0 as i64);
            let (mut ze, mut zo) = (_mm256_add_epi64(base, even), _mm256_add_epi64(base, odd));
            let mut px = row.chunks_exact_mut(8);
            for p in &mut px {
                let q = _mm256_blend_epi32::<0b1010_1010>(
                    _mm256_srli_epi64::<40>(mix4(ze)),
                    _mm256_srli_epi64::<8>(mix4(zo)),
                );
                let u = _mm256_mul_ps(_mm256_cvtepi32_ps(q), scale);
                // `p` holds eight pixels: one unaligned vector
                let v = finish(_mm256_loadu_ps(p.as_ptr()), u, two_amp_v);
                _mm256_storeu_ps(p.as_mut_ptr(), v);
                ze = _mm256_add_epi64(ze, step);
                zo = _mm256_add_epi64(zo, step);
            }
            let rest = px.into_remainder();
            let done = w - rest.len();
            noise_row_scalar(rest, z0.wrapping_add(K1.wrapping_mul(done as u64)), two_amp);
        }
    }
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
    /// noise, on the fastest [`NoiseTier`] this CPU runs. Deterministic
    /// per `(frame, region, resolution)`.
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
        self.render_region_on(NoiseTier::detect(), frame, rx, ry, rw, rh, w, h)
    }

    /// [`Self::render_region`] with its sensor noise on `tier`.
    ///
    /// Bit-identical to [`Self::render_region_naive`] on every tier:
    /// each block hash is computed once per run of output columns
    /// sharing a block and once per block row (a block row's hashes in
    /// one pass on `tier`), the per-row and per-column terms are hoisted,
    /// and the noise tiers keep the per-pixel `f32` operations and their
    /// order (see `x86`).
    ///
    /// # Panics
    /// If this CPU does not run `tier`.
    #[allow(clippy::too_many_arguments)]
    pub fn render_region_on(
        &self,
        tier: NoiseTier,
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

        // Runs of output columns in one block column: `(block, length)`,
        // the same for every row.
        // Runs of output columns in one block column, the same for every
        // row: each run's hash term `bx·K1`, and each column's run.
        let mut terms: Vec<u64> = Vec::new();
        let run_of: Vec<u32> = (0..w)
            .map(|x| {
                let term = block_of(rx + x as f32 * sx + cam.0).wrapping_mul(K1);
                if terms.last() != Some(&term) {
                    terms.push(term);
                }
                (terms.len() - 1) as u32
            })
            .collect();
        let seed_term = bg_seed.wrapping_mul(K3);
        let mut hashes = vec![0.0f32; terms.len() + 16];
        let mut blocks = vec![0.0f32; w];
        let mut cached_block_row = None;
        // every pixel is written once here, so the image is never zeroed
        let mut data = Vec::with_capacity(w * h);
        for y in 0..h {
            let ny = ry + y as f32 * sy + cam.1;
            let by = block_of(ny);
            if cached_block_row != Some(by) {
                let row_term = by.wrapping_mul(K2).wrapping_add(seed_term);
                block_row(tier, (&terms, row_term), &run_of, &mut hashes, &mut blocks);
                cached_block_row = Some(by);
            }
            let base = scene.background_level + 0.10 * (ny / scene.height as f32);
            data.extend(blocks.iter().map(|&b| base + 0.08 * b));
        }
        let mut img = GrayImage { w, h, data };

        self.paint_objects(&mut img, frame, rx, ry, sx, sy);

        if scene.noise_sigma > 0.0 {
            let frame_term = (frame as u64 ^ (bg_seed << 1)).wrapping_mul(K3);
            add_noise(tier, &mut img.data, w, frame_term, 2.0 * scene.noise_sigma);
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
    use proptest::test_runner::TestCaseError;
    use std::io::Write;
    use std::sync::{Arc, Once, OnceLock};

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

    /// Fixed- and drifting-camera clips at noise sigmas 0, 0.03 and
    /// 0.05; drift moves the origin below zero, so block indices go
    /// negative.
    fn noisy_clips() -> &'static [Clip] {
        static CLIPS: OnceLock<Vec<Clip>> = OnceLock::new();
        CLIPS.get_or_init(|| {
            let drift = CameraMotion::Drift {
                amp_x: 13.3,
                amp_y: 7.1,
                period_s: 4.0,
            };
            [0.0, 0.03, 0.05]
                .into_iter()
                .flat_map(|sigma| {
                    [
                        clip_with(CameraMotion::Fixed, sigma),
                        clip_with(drift, sigma),
                    ]
                })
                .collect()
        })
    }

    /// Whether this CPU runs `tier`. If not, says so once per tier on
    /// the process's stderr (the harness hides `eprintln!` of passing
    /// tests), so a host without a vector tier does not pass silently.
    fn host_runs(tier: NoiseTier) -> bool {
        static NOTED: [Once; 3] = [const { Once::new() }; 3];
        let runs = tier.supported();
        if !runs {
            NOTED[tier as usize].call_once(|| {
                let note = format!(
                    "note: this CPU lacks the {} noise tier; not tested\n",
                    tier.name()
                );
                let _ = std::io::stderr().write_all(note.as_bytes());
            });
        }
        runs
    }

    /// One random window of one random clip and frame on `tier`, and the
    /// full frame at the same output size, against the per-pixel oracle.
    fn tier_matches_naive(
        tier: NoiseTier,
        scene: (usize, usize),
        origin: (f32, f32),
        extent: (f32, f32),
        out: (usize, usize),
    ) -> Result<(), TestCaseError> {
        let c = &noisy_clips()[scene.0];
        let r = Renderer::new(c);
        let f = scene.1;
        let (rx, ry) = origin;
        let (rw, rh) = extent;
        let (w, h) = out;
        let name = tier.name();
        // arbitrary windows: fractional origins, partly outside the
        // frame, resampled up or down
        prop_assert!(
            same_bits(
                &r.render_region_on(tier, f, rx, ry, rw, rh, w, h),
                &r.render_region_naive(f, rx, ry, rw, rh, w, h),
            ),
            "{name}: region ({rx}, {ry}, {rw}, {rh}) at {w}x{h}, frame {f}, scene {}",
            scene.0
        );
        prop_assert!(
            same_bits(
                &r.render_region_on(tier, f, 0.0, 0.0, 320.0, 192.0, w, h),
                &r.render_region_naive(f, 0.0, 0.0, 320.0, 192.0, w, h),
            ),
            "{name}: full frame at {w}x{h}, frame {f}, scene {}",
            scene.0
        );
        Ok(())
    }

    proptest! {
        #[test]
        fn scalar_tier_is_bit_identical_to_naive(
            scene in (0usize..6, 0usize..60),
            origin in (-80.0f32..360.0, -60.0f32..230.0),
            extent in (0.5f32..400.0, 0.5f32..260.0),
            out in (1usize..130, 1usize..130),
        ) {
            tier_matches_naive(NoiseTier::Scalar, scene, origin, extent, out)?;
        }

        #[test]
        fn avx2_tier_is_bit_identical_to_naive(
            scene in (0usize..6, 0usize..60),
            origin in (-80.0f32..360.0, -60.0f32..230.0),
            extent in (0.5f32..400.0, 0.5f32..260.0),
            out in (1usize..130, 1usize..130),
        ) {
            if host_runs(NoiseTier::Avx2) {
                tier_matches_naive(NoiseTier::Avx2, scene, origin, extent, out)?;
            }
        }

        #[test]
        fn avx512_tier_is_bit_identical_to_naive(
            scene in (0usize..6, 0usize..60),
            origin in (-80.0f32..360.0, -60.0f32..230.0),
            extent in (0.5f32..400.0, 0.5f32..260.0),
            out in (1usize..130, 1usize..130),
        ) {
            if host_runs(NoiseTier::Avx512) {
                tier_matches_naive(NoiseTier::Avx512, scene, origin, extent, out)?;
            }
        }
    }

    /// Every output width from 1 to 129 (every tail length of an
    /// eight-pixel step, several times over) on every clip and tier.
    #[test]
    fn every_tier_matches_naive_at_every_width() {
        for tier in NoiseTier::ALL.into_iter().filter(|&t| host_runs(t)) {
            for (i, c) in noisy_clips().iter().enumerate() {
                let r = Renderer::new(c);
                for w in 1..=129 {
                    let f = (w * 7) % c.num_frames();
                    assert!(
                        same_bits(
                            &r.render_region_on(tier, f, -20.5, 3.25, 300.0, 20.0, w, 3),
                            &r.render_region_naive(f, -20.5, 3.25, 300.0, 20.0, w, 3),
                        ),
                        "{}: width {w}, frame {f}, clip {i}",
                        tier.name()
                    );
                }
            }
        }
    }

    /// The noise kernels on edge pixels: zeros of both signs, one, and
    /// values just outside `[0, 1]`, at a zero amplitude (so the clamp
    /// alone decides) and a large one, against `f32::clamp` per pixel.
    #[test]
    fn noise_kernels_clamp_like_f32_clamp() {
        let edge = [0.0f32, -0.0, 1.0, -1e-7, 1.000_000_1, 0.5, f32::NAN];
        // 3 rows of 29: a full eight-pixel step and a tail on every row
        let (w, h) = (29, 3);
        let data: Vec<f32> = (0..w * h).map(|i| edge[i % edge.len()]).collect();
        let c = 0x1234_5678_9abc_def0u64;
        for two_amp in [0.0f32, 0.06, 3.0] {
            let want: Vec<u32> = data
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    let n = hash01((i % w) as u64, (i / w) as u64, c) - 0.5;
                    (p + two_amp * n).clamp(0.0, 1.0).to_bits()
                })
                .collect();
            for tier in NoiseTier::ALL.into_iter().filter(|&t| host_runs(t)) {
                let mut got = data.clone();
                add_noise(tier, &mut got, w, c.wrapping_mul(K3), two_amp);
                let got: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "{} at amplitude {two_amp}", tier.name());
            }
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
