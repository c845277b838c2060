//! A minimal 3-D tensor (channels × height × width) for convolutional
//! layers.

use serde::{Deserialize, Serialize};

/// A dense `C × H × W` tensor of `f32`, stored row-major per channel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor3 {
    /// Channels.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// Row-major per-channel data (length `c * h * w`).
    pub data: Vec<f32>,
}

impl Tensor3 {
    /// All-zero tensor.
    pub fn zeros(c: usize, h: usize, w: usize) -> Self {
        Tensor3 {
            c,
            h,
            w,
            data: vec![0.0; c * h * w],
        }
    }

    /// Wrap existing data; panics on a length mismatch.
    pub fn from_vec(c: usize, h: usize, w: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), c * h * w, "tensor data length mismatch");
        Tensor3 { c, h, w, data }
    }

    #[inline]
    /// Flat index of element (c, y, x).
    ///
    /// Bounds are checked by `debug_assert!` only: release builds pay no
    /// per-element comparison, so kernel inner loops built on these
    /// accessors are not gated on index arithmetic. The assertions fire
    /// in debug builds (including the test profile), which is where the
    /// equivalence suites exercise every shape.
    pub fn idx(&self, c: usize, y: usize, x: usize) -> usize {
        debug_assert!(
            c < self.c && y < self.h && x < self.w,
            "tensor index ({c},{y},{x}) out of bounds for {}x{}x{}",
            self.c,
            self.h,
            self.w
        );
        (c * self.h + y) * self.w + x
    }

    #[inline]
    /// Read element (c, y, x).
    pub fn get(&self, c: usize, y: usize, x: usize) -> f32 {
        let i = self.idx(c, y, x);
        debug_assert!(i < self.data.len());
        // SAFETY: `idx` is < c*h*w = data.len() whenever the per-axis
        // bounds hold, which `idx`'s debug assertion enforces; callers
        // stay inside the tensor's declared shape.
        unsafe { *self.data.get_unchecked(i) }
    }

    #[inline]
    /// Write element (c, y, x).
    pub fn set(&mut self, c: usize, y: usize, x: usize, v: f32) {
        let i = self.idx(c, y, x);
        debug_assert!(i < self.data.len());
        // SAFETY: as in `get`.
        unsafe {
            *self.data.get_unchecked_mut(i) = v;
        }
    }

    #[inline]
    /// Add to element (c, y, x).
    pub fn add_at(&mut self, c: usize, y: usize, x: usize, v: f32) {
        let i = self.idx(c, y, x);
        debug_assert!(i < self.data.len());
        // SAFETY: as in `get`.
        unsafe {
            *self.data.get_unchecked_mut(i) += v;
        }
    }

    #[inline]
    /// The contiguous row `(c, y, 0..w)` as a slice.
    pub fn row(&self, c: usize, y: usize) -> &[f32] {
        let i = self.idx(c, y, 0);
        &self.data[i..i + self.w]
    }

    /// Reshape in place to `(c, h, w)`, reusing the allocation; data is
    /// zeroed. Grows the buffer only when the new shape needs more room.
    pub fn reset(&mut self, c: usize, h: usize, w: usize) {
        self.c = c;
        self.h = h;
        self.w = w;
        self.data.clear();
        self.data.resize(c * h * w, 0.0);
    }

    /// [`Self::reset`] without the zero pass: the data keeps stale
    /// values (only a grown tail is zeroed), so the caller must
    /// overwrite every element before reading any.
    pub fn reset_unzeroed(&mut self, c: usize, h: usize, w: usize) {
        self.c = c;
        self.h = h;
        self.w = w;
        self.data.resize(c * h * w, 0.0);
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Elementwise map in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        self.data.iter_mut().for_each(|v| *v = f(*v));
    }
}

/// A batch of `n` same-shape `C × H × W` tensors stored **channel-major**
/// (`C × N × H × W`): for each channel, the `n` item planes sit
/// consecutively, so item `i`'s plane for channel `c` is the contiguous
/// slice `data[(c*n + i)*h*w ..][..h*w]`.
///
/// This layout is what makes batched convolution bitwise-identical to
/// the looped kernel *by construction*: the im2col matrix for the whole
/// batch is the per-item matrices placed side by side column-wise, so a
/// single cache-blocked GEMM over the widened column dimension performs
/// exactly the per-element accumulation the per-item GEMM would — and
/// its output matrix *is* the next layer's `BatchTensor3`, so multi-layer
/// forwards chain with no per-layer gather/scatter.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTensor3 {
    /// Batch size (number of items).
    pub n: usize,
    /// Channels per item.
    pub c: usize,
    /// Height.
    pub h: usize,
    /// Width.
    pub w: usize,
    /// `C × N × H × W` data (length `c * n * h * w`).
    pub data: Vec<f32>,
}

impl BatchTensor3 {
    /// All-zero batch.
    pub fn zeros(n: usize, c: usize, h: usize, w: usize) -> Self {
        BatchTensor3 {
            n,
            c,
            h,
            w,
            data: vec![0.0; n * c * h * w],
        }
    }

    /// Gather `items` (all the same shape) into a fresh batch.
    pub fn from_items(items: &[&Tensor3]) -> Self {
        assert!(!items.is_empty(), "cannot batch zero items");
        let (c, h, w) = (items[0].c, items[0].h, items[0].w);
        let mut b = BatchTensor3::zeros(items.len(), c, h, w);
        for (i, t) in items.iter().enumerate() {
            b.set_item(i, t);
        }
        b
    }

    /// Copy item `i` out into `t` (reshaped to fit).
    pub fn item_into(&self, i: usize, t: &mut Tensor3) {
        assert!(i < self.n, "item index out of range");
        t.reset(self.c, self.h, self.w);
        let plane = self.h * self.w;
        for c in 0..self.c {
            let src = (c * self.n + i) * plane;
            t.data[c * plane..(c + 1) * plane].copy_from_slice(&self.data[src..src + plane]);
        }
    }

    /// Overwrite item `i` from `t`; shape must match.
    pub fn set_item(&mut self, i: usize, t: &Tensor3) {
        assert!(i < self.n, "item index out of range");
        assert_eq!(
            (t.c, t.h, t.w),
            (self.c, self.h, self.w),
            "item shape mismatch"
        );
        let plane = self.h * self.w;
        for c in 0..self.c {
            let dst = (c * self.n + i) * plane;
            self.data[dst..dst + plane].copy_from_slice(&t.data[c * plane..(c + 1) * plane]);
        }
    }

    #[inline]
    /// The contiguous row `(c, i, y, 0..w)` as a slice.
    pub fn row(&self, c: usize, i: usize, y: usize) -> &[f32] {
        debug_assert!(c < self.c && i < self.n && y < self.h);
        let start = ((c * self.n + i) * self.h + y) * self.w;
        &self.data[start..start + self.w]
    }

    #[inline]
    /// Read element (c, i, y, x).
    pub fn get(&self, c: usize, i: usize, y: usize, x: usize) -> f32 {
        debug_assert!(x < self.w);
        self.row(c, i, y)[x]
    }

    /// Reshape in place, reusing the allocation; data is zeroed.
    pub fn reset(&mut self, n: usize, c: usize, h: usize, w: usize) {
        self.n = n;
        self.c = c;
        self.h = h;
        self.w = w;
        self.data.clear();
        self.data.resize(n * c * h * w, 0.0);
    }

    /// [`Self::reset`] without the zero pass (see
    /// [`Tensor3::reset_unzeroed`]).
    pub fn reset_unzeroed(&mut self, n: usize, c: usize, h: usize, w: usize) {
        self.n = n;
        self.c = c;
        self.h = h;
        self.w = w;
        self.data.resize(n * c * h * w, 0.0);
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the batch holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexing_roundtrip() {
        let mut t = Tensor3::zeros(2, 3, 4);
        t.set(1, 2, 3, 7.5);
        assert_eq!(t.get(1, 2, 3), 7.5);
        assert_eq!(t.data[t.idx(1, 2, 3)], 7.5);
        assert_eq!(t.len(), 24);
    }

    #[test]
    fn channel_layout_is_contiguous() {
        let mut t = Tensor3::zeros(2, 2, 2);
        t.set(0, 0, 0, 1.0);
        t.set(1, 0, 0, 2.0);
        assert_eq!(t.idx(1, 0, 0), 4);
        assert_eq!(t.data[0], 1.0);
        assert_eq!(t.data[4], 2.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn from_vec_checks_len() {
        Tensor3::from_vec(1, 2, 2, vec![0.0; 3]);
    }

    #[test]
    fn row_and_reset() {
        let mut t = Tensor3::from_vec(2, 2, 3, (0..12).map(|i| i as f32).collect());
        assert_eq!(t.row(1, 0), &[6.0, 7.0, 8.0]);
        let cap = t.data.capacity();
        t.reset(1, 2, 2);
        assert_eq!((t.c, t.h, t.w), (1, 2, 2));
        assert!(t.data.iter().all(|&v| v == 0.0));
        assert_eq!(t.data.capacity(), cap, "reset must reuse the allocation");
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "out of bounds")]
    fn debug_bounds_assert_fires() {
        let t = Tensor3::zeros(1, 2, 2);
        t.get(0, 2, 0);
    }

    #[test]
    fn map_inplace_applies() {
        let mut t = Tensor3::from_vec(1, 1, 3, vec![1.0, -2.0, 3.0]);
        t.map_inplace(|v| v.abs());
        assert_eq!(t.data, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn batch_gather_scatter_roundtrip() {
        let a = Tensor3::from_vec(2, 2, 2, (0..8).map(|i| i as f32).collect());
        let b = Tensor3::from_vec(2, 2, 2, (100..108).map(|i| i as f32).collect());
        let batch = BatchTensor3::from_items(&[&a, &b]);
        assert_eq!((batch.n, batch.c, batch.h, batch.w), (2, 2, 2, 2));
        // channel-major: channel 0 holds item 0's plane then item 1's
        assert_eq!(&batch.data[0..4], &a.data[0..4]);
        assert_eq!(&batch.data[4..8], &b.data[0..4]);
        assert_eq!(&batch.data[8..12], &a.data[4..8]);
        assert_eq!(batch.get(1, 1, 0, 1), b.get(1, 0, 1));
        let mut out = Tensor3::zeros(1, 1, 1);
        batch.item_into(0, &mut out);
        assert_eq!(out, a);
        batch.item_into(1, &mut out);
        assert_eq!(out, b);
    }

    #[test]
    fn batch_set_item_overwrites_one_plane_set() {
        let a = Tensor3::zeros(1, 2, 2);
        let mut batch = BatchTensor3::from_items(&[&a, &a, &a]);
        let b = Tensor3::from_vec(1, 2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        batch.set_item(1, &b);
        let mut out = Tensor3::zeros(1, 1, 1);
        batch.item_into(0, &mut out);
        assert_eq!(out, a);
        batch.item_into(1, &mut out);
        assert_eq!(out, b);
    }

    #[test]
    fn batch_reset_reuses_allocation() {
        let mut b = BatchTensor3::zeros(4, 2, 3, 3);
        let cap = b.data.capacity();
        b.reset(2, 1, 2, 2);
        assert_eq!(b.len(), 8);
        assert_eq!(b.data.capacity(), cap, "reset must reuse the allocation");
        assert!(!b.is_empty());
    }
}
