//! A GRU cell with backpropagation through time.
//!
//! The recurrent tracking model (§3.4) summarizes a track prefix — a
//! sequence of detection-level feature vectors — into a track-level feature
//! vector. A GRU is a standard choice; the paper cites Bilinear-LSTM-style
//! recurrent trackers.

use crate::kernels::{self, matvec_acc};
use crate::{OptimKind, Param, XavierInit};
use serde::{Deserialize, Serialize};

fn sigmoid(x: f32) -> f32 {
    crate::loss::sigmoid(x)
}

/// Per-timestep cache used by BPTT.
#[derive(Debug, Clone)]
struct StepCache {
    x: Vec<f32>,
    h_prev: Vec<f32>,
    z: Vec<f32>,
    r: Vec<f32>,
    hcand: Vec<f32>,
}

/// Gated recurrent unit:
///
/// ```text
/// z = σ(Wz x + Uz h + bz)        (update gate)
/// r = σ(Wr x + Ur h + br)        (reset gate)
/// ĥ = tanh(Wh x + Uh (r ⊙ h) + bh)
/// h' = (1 − z) ⊙ h + z ⊙ ĥ
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GruCell {
    /// Input feature dimension.
    pub in_dim: usize,
    /// Hidden-state width.
    pub hidden: usize,
    /// Input kernels `[Wz; Wr; Wh]`, each `hidden × in_dim`.
    pub w: Param,
    /// Recurrent kernels `[Uz; Ur; Uh]`, each `hidden × hidden`.
    pub u: Param,
    /// Biases `[bz; br; bh]`.
    pub b: Param,
    #[serde(skip)]
    caches: Vec<StepCache>,
}

impl GruCell {
    /// Build a cell with Xavier-initialized kernels.
    pub fn new(in_dim: usize, hidden: usize, init: &mut XavierInit) -> Self {
        GruCell {
            in_dim,
            hidden,
            w: Param::new(init.sample(3 * hidden * in_dim, in_dim, hidden)),
            u: Param::new(init.sample(3 * hidden * hidden, hidden, hidden)),
            b: Param::zeros(3 * hidden),
            caches: Vec::new(),
        }
    }

    /// The all-zero initial hidden state.
    pub fn zero_state(&self) -> Vec<f32> {
        vec![0.0; self.hidden]
    }

    /// `out[o] = b[o] + Σ_i W[o][i]·x[i] + Σ_j U[o][j]·h[j]` for one gate,
    /// written into a caller-owned buffer (cleared and refilled). The
    /// two fused [`matvec_acc`] calls keep each element's accumulation
    /// order identical to the historical per-row loop (bias, then `W x`
    /// in increasing `i`, then `U h` in increasing `j`).
    fn gate_matvec_into(&self, gate: usize, x: &[f32], h: &[f32], out: &mut Vec<f32>) {
        let hd = self.hidden;
        let w = &self.w.w[gate * hd * self.in_dim..(gate + 1) * hd * self.in_dim];
        let u = &self.u.w[gate * hd * hd..(gate + 1) * hd * hd];
        let b = &self.b.w[gate * hd..(gate + 1) * hd];
        out.clear();
        out.extend_from_slice(b);
        matvec_acc(w, x, out);
        matvec_acc(u, h, out);
    }

    /// One recurrent step during training (caches for BPTT).
    pub fn forward(&mut self, x: &[f32], h_prev: &[f32]) -> Vec<f32> {
        self.step_impl(x, h_prev, true)
    }

    /// One recurrent step during inference (no cache).
    pub fn infer(&self, x: &[f32], h_prev: &[f32]) -> Vec<f32> {
        let mut h = vec![0.0; self.hidden];
        self.infer_into(x, h_prev, &mut h);
        h
    }

    /// One inference step into a caller-owned state buffer. All gate
    /// temporaries come from the thread-local scratch pool, so the step
    /// performs zero heap allocations after warm-up.
    pub fn infer_into(&self, x: &[f32], h_prev: &[f32], h_out: &mut Vec<f32>) {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(h_prev.len(), self.hidden);
        let mut z = kernels::take_buf(0);
        let mut r = kernels::take_buf(0);
        let mut hcand = kernels::take_buf(0);
        self.gate_matvec_into(0, x, h_prev, &mut z);
        z.iter_mut().for_each(|v| *v = sigmoid(*v));
        self.gate_matvec_into(1, x, h_prev, &mut r);
        r.iter_mut().for_each(|v| *v = sigmoid(*v));
        // reuse r's buffer pattern: rh = r ⊙ h_prev into a fourth buffer
        let mut rh = kernels::take_buf(self.hidden);
        for ((d, rv), hv) in rh.iter_mut().zip(r.iter()).zip(h_prev.iter()) {
            *d = rv * hv;
        }
        self.gate_matvec_into(2, x, &rh, &mut hcand);
        hcand.iter_mut().for_each(|v| *v = v.tanh());
        h_out.clear();
        h_out.extend((0..self.hidden).map(|i| (1.0 - z[i]) * h_prev[i] + z[i] * hcand[i]));
        kernels::put_buf(z);
        kernels::put_buf(r);
        kernels::put_buf(rh);
        kernels::put_buf(hcand);
    }

    fn step_impl(&mut self, x: &[f32], h_prev: &[f32], cache: bool) -> Vec<f32> {
        debug_assert_eq!(x.len(), self.in_dim);
        debug_assert_eq!(h_prev.len(), self.hidden);
        let mut z = vec![0.0; self.hidden];
        let mut r = vec![0.0; self.hidden];
        let mut hcand = vec![0.0; self.hidden];
        self.gate_matvec_into(0, x, h_prev, &mut z);
        z.iter_mut().for_each(|v| *v = sigmoid(*v));
        self.gate_matvec_into(1, x, h_prev, &mut r);
        r.iter_mut().for_each(|v| *v = sigmoid(*v));
        let rh: Vec<f32> = r.iter().zip(h_prev).map(|(r, h)| r * h).collect();
        self.gate_matvec_into(2, x, &rh, &mut hcand);
        hcand.iter_mut().for_each(|v| *v = v.tanh());
        let h: Vec<f32> = (0..self.hidden)
            .map(|i| (1.0 - z[i]) * h_prev[i] + z[i] * hcand[i])
            .collect();
        if cache {
            self.caches.push(StepCache {
                x: x.to_vec(),
                h_prev: h_prev.to_vec(),
                z,
                r,
                hcand,
            });
        }
        h
    }

    /// Run a whole sequence from the zero state, returning the final hidden
    /// state (training mode: caches each step).
    pub fn forward_sequence(&mut self, xs: &[Vec<f32>]) -> Vec<f32> {
        let mut h = self.zero_state();
        for x in xs {
            h = self.forward(x, &h);
        }
        h
    }

    /// Inference over a whole sequence from the zero state.
    pub fn infer_sequence(&self, xs: &[Vec<f32>]) -> Vec<f32> {
        let mut h = self.zero_state();
        for x in xs {
            h = self.infer(x, &h);
        }
        h
    }

    /// Backprop through all cached steps given dL/dh_final. Returns
    /// dL/dx for each step (in forward order) and clears the caches.
    pub fn backward_sequence(&mut self, grad_h_final: &[f32]) -> Vec<Vec<f32>> {
        let hd = self.hidden;
        let mut grad_h = grad_h_final.to_vec();
        let mut grad_xs: Vec<Vec<f32>> = Vec::with_capacity(self.caches.len());
        let caches = std::mem::take(&mut self.caches);
        for c in caches.iter().rev() {
            // h = (1 - z) h_prev + z ĥ
            let mut d_z = vec![0.0; hd];
            let mut d_hcand = vec![0.0; hd];
            let mut d_hprev = vec![0.0; hd];
            for i in 0..hd {
                d_z[i] = grad_h[i] * (c.hcand[i] - c.h_prev[i]);
                d_hcand[i] = grad_h[i] * c.z[i];
                d_hprev[i] = grad_h[i] * (1.0 - c.z[i]);
            }
            // pre-activation grads
            let d_z_pre: Vec<f32> = (0..hd).map(|i| d_z[i] * c.z[i] * (1.0 - c.z[i])).collect();
            let d_hcand_pre: Vec<f32> = (0..hd)
                .map(|i| d_hcand[i] * (1.0 - c.hcand[i] * c.hcand[i]))
                .collect();

            let rh: Vec<f32> = c.r.iter().zip(&c.h_prev).map(|(r, h)| r * h).collect();
            let mut grad_x = vec![0.0; self.in_dim];

            // ĥ gate (index 2): inputs are x and r ⊙ h_prev
            let mut d_rh = vec![0.0; hd];
            self.accumulate_gate(2, &d_hcand_pre, &c.x, &rh, &mut grad_x, &mut d_rh);
            // propagate through r ⊙ h_prev
            let mut d_r = vec![0.0; hd];
            for i in 0..hd {
                d_r[i] = d_rh[i] * c.h_prev[i];
                d_hprev[i] += d_rh[i] * c.r[i];
            }
            let d_r_pre: Vec<f32> = (0..hd).map(|i| d_r[i] * c.r[i] * (1.0 - c.r[i])).collect();

            // r gate (index 1) and z gate (index 0): inputs are x and h_prev
            self.accumulate_gate(1, &d_r_pre, &c.x, &c.h_prev, &mut grad_x, &mut d_hprev);
            self.accumulate_gate(0, &d_z_pre, &c.x, &c.h_prev, &mut grad_x, &mut d_hprev);

            grad_xs.push(grad_x);
            grad_h = d_hprev;
        }
        grad_xs.reverse();
        grad_xs
    }

    /// Accumulate parameter grads for one gate and add the contributions to
    /// dL/dx and dL/d(recurrent input).
    fn accumulate_gate(
        &mut self,
        gate: usize,
        d_pre: &[f32],
        x: &[f32],
        hin: &[f32],
        grad_x: &mut [f32],
        grad_hin: &mut [f32],
    ) {
        let hd = self.hidden;
        let woff = gate * hd * self.in_dim;
        let uoff = gate * hd * hd;
        let boff = gate * hd;
        for (o, &d) in d_pre.iter().enumerate().take(hd) {
            if d == 0.0 {
                continue;
            }
            self.b.g[boff + o] += d;
            for (i, xi) in x.iter().enumerate() {
                self.w.g[woff + o * self.in_dim + i] += d * xi;
                grad_x[i] += d * self.w.w[woff + o * self.in_dim + i];
            }
            for (j, hj) in hin.iter().enumerate() {
                self.u.g[uoff + o * hd + j] += d * hj;
                grad_hin[j] += d * self.u.w[uoff + o * hd + j];
            }
        }
    }

    /// Apply one optimizer step to all kernels and biases.
    pub fn step(&mut self, lr: f32, kind: OptimKind) {
        self.w.step(lr, kind);
        self.u.step(lr, kind);
        self.b.step(lr, kind);
    }

    /// Clear accumulated gradients and cached steps.
    pub fn zero_grad(&mut self) {
        self.w.zero_grad();
        self.u.zero_grad();
        self.b.zero_grad();
        self.caches.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mse, mse_grad};

    #[test]
    fn infer_matches_forward() {
        let mut init = XavierInit::new(5);
        let mut g = GruCell::new(3, 4, &mut init);
        let xs = vec![vec![0.1, 0.2, 0.3], vec![-0.5, 0.0, 0.5]];
        let a = g.forward_sequence(&xs);
        let b = g.infer_sequence(&xs);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn hidden_state_bounded() {
        let mut init = XavierInit::new(6);
        let g = GruCell::new(2, 8, &mut init);
        let xs: Vec<Vec<f32>> = (0..50).map(|i| vec![i as f32, -(i as f32)]).collect();
        let h = g.infer_sequence(&xs);
        // GRU state is a convex combination of tanh outputs, so |h| <= 1.
        assert!(h.iter().all(|v| v.abs() <= 1.0 + 1e-5));
    }

    #[test]
    fn gradient_check_input_kernel() {
        let mut init = XavierInit::new(8);
        let mut g = GruCell::new(2, 3, &mut init);
        let xs = vec![vec![0.4, -0.2], vec![0.1, 0.9], vec![-0.6, 0.3]];
        let target = vec![0.2, -0.1, 0.4];

        let h = g.forward_sequence(&xs);
        let gh = mse_grad(&h, &target);
        g.backward_sequence(&gh);
        let analytic = g.w.g.clone();

        let eps = 1e-3;
        #[allow(clippy::needless_range_loop)]
        for i in 0..g.w.w.len() {
            let orig = g.w.w[i];
            g.w.w[i] = orig + eps;
            let lp = mse(&g.infer_sequence(&xs), &target);
            g.w.w[i] = orig - eps;
            let lm = mse(&g.infer_sequence(&xs), &target);
            g.w.w[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[i] - numeric).abs() < 2e-2,
                "w[{i}] analytic {} numeric {}",
                analytic[i],
                numeric
            );
        }
    }

    #[test]
    fn gradient_check_recurrent_kernel() {
        let mut init = XavierInit::new(9);
        let mut g = GruCell::new(2, 3, &mut init);
        let xs = vec![vec![0.4, -0.2], vec![0.1, 0.9], vec![-0.6, 0.3]];
        let target = vec![0.0, 0.5, -0.5];
        let h = g.forward_sequence(&xs);
        let gh = mse_grad(&h, &target);
        g.backward_sequence(&gh);
        let analytic = g.u.g.clone();
        let eps = 1e-3;
        #[allow(clippy::needless_range_loop)]
        for i in 0..g.u.w.len() {
            let orig = g.u.w[i];
            g.u.w[i] = orig + eps;
            let lp = mse(&g.infer_sequence(&xs), &target);
            g.u.w[i] = orig - eps;
            let lm = mse(&g.infer_sequence(&xs), &target);
            g.u.w[i] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic[i] - numeric).abs() < 2e-2,
                "u[{i}] analytic {} numeric {}",
                analytic[i],
                numeric
            );
        }
    }

    #[test]
    fn learns_to_remember_first_input() {
        // Task: output h ≈ sign of the first element of the first input,
        // regardless of later inputs. Requires carrying state.
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(10);
        let mut init = XavierInit::new(10);
        let mut g = GruCell::new(1, 6, &mut init);
        let mut head_w = Param::new(init.sample(6, 6, 1));

        let make_seq = |rng: &mut rand_chacha::ChaCha8Rng| -> (Vec<Vec<f32>>, f32) {
            let first: f32 = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
            let mut xs = vec![vec![first]];
            for _ in 0..4 {
                xs.push(vec![rng.gen_range(-0.3..0.3)]);
            }
            (xs, (first + 1.0) / 2.0)
        };

        let mut last_losses = Vec::new();
        for epoch in 0..400 {
            let mut epoch_loss = 0.0;
            for _ in 0..8 {
                let (xs, t) = make_seq(&mut rng);
                let h = g.forward_sequence(&xs);
                let logit: f32 = h.iter().zip(&head_w.w).map(|(h, w)| h * w).sum();
                epoch_loss += crate::bce_with_logits(&[logit], &[t]);
                let dlogit = crate::bce_with_logits_grad(&[logit], &[t])[0];
                let gh: Vec<f32> = head_w.w.iter().map(|w| dlogit * w).collect();
                for (i, h_i) in h.iter().enumerate() {
                    head_w.g[i] += dlogit * h_i;
                }
                g.backward_sequence(&gh);
            }
            g.step(0.02, OptimKind::Adam);
            head_w.step(0.02, OptimKind::Adam);
            if epoch >= 390 {
                last_losses.push(epoch_loss / 8.0);
            }
        }
        let final_loss = last_losses.iter().sum::<f32>() / last_losses.len() as f32;
        assert!(final_loss < 0.25, "final loss {final_loss}");
    }
}
