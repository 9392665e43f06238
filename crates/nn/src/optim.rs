//! The Adam optimizer.

use crate::param::Param;
use crate::tensor::Tensor;

/// Adam (Kingma & Ba) with bias correction — the optimizer used to train
/// OrgLinear and all forecasting baselines.
#[derive(Debug)]
pub struct Adam {
    params: Vec<Param>,
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl Adam {
    /// Creates Adam with the standard hyper-parameters
    /// (`β₁ = 0.9`, `β₂ = 0.999`, `ε = 1e-8`).
    #[must_use]
    pub fn new(params: Vec<Param>, lr: f64) -> Self {
        let zeros: Vec<Tensor> = params
            .iter()
            .map(|p| {
                let (r, c) = p.shape();
                Tensor::zeros(r, c)
            })
            .collect();
        Adam {
            params,
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: zeros.clone(),
            v: zeros,
        }
    }

    /// Number of steps taken so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.t
    }

    /// Applies one update step using the accumulated gradients, then
    /// clears them.
    pub fn step(&mut self) {
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        // algebraically identical reformulation of
        // `lr · (m/bc1) / (sqrt(v/bc2) + ε)` with the per-element divisions
        // by the bias corrections hoisted out of the loop: one sqrt and one
        // divide per weight instead of three divides and a sqrt
        let step_size = self.lr / bc1;
        let inv_sqrt_bc2 = 1.0 / bc2.sqrt();
        for ((p, m), v) in self.params.iter().zip(&mut self.m).zip(&mut self.v) {
            // single fused pass over raw slices: moments, bias correction
            // and the weight update vectorize together, with no tensor
            // clones on the per-batch hot path
            let (beta1, beta2) = (self.beta1, self.beta2);
            let eps = self.eps;
            let ms = m.as_mut_slice();
            let vs = v.as_mut_slice();
            p.update_slices(|vals, grads| {
                let n = vals.len();
                assert!(grads.len() == n && ms.len() == n && vs.len() == n);
                for i in 0..n {
                    let gi = grads[i];
                    let mi = beta1 * ms[i] + (1.0 - beta1) * gi;
                    let vi = beta2 * vs[i] + (1.0 - beta2) * gi * gi;
                    ms[i] = mi;
                    vs[i] = vi;
                    vals[i] -= step_size * mi / (vi.sqrt() * inv_sqrt_bc2 + eps);
                }
            });
            p.zero_grad();
        }
    }

    /// Clears all accumulated gradients without updating.
    pub fn zero_grad(&mut self) {
        for p in &self.params {
            p.zero_grad();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;

    /// Minimise f(x) = (x - 3)² with `opt`; return final x.
    fn minimise(opt: &mut Adam, x: &Param, iters: usize) -> f64 {
        for _ in 0..iters {
            let mut g = Graph::new();
            let xv = g.param(x);
            let three = g.constant(Tensor::scalar(3.0));
            let c = g.sub(xv, three);
            let sq = g.mul(c, c);
            g.backward(sq);
            opt.step();
        }
        x.value().item()
    }

    #[test]
    fn adam_converges_on_quadratic() {
        let x = Param::new(Tensor::scalar(0.0));
        let mut opt = Adam::new(vec![x.clone()], 0.2);
        let final_x = minimise(&mut opt, &x, 200);
        assert!((final_x - 3.0).abs() < 1e-2, "got {final_x}");
        assert_eq!(opt.steps(), 200);
    }

    #[test]
    fn step_clears_gradients() {
        let x = Param::new(Tensor::scalar(1.0));
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        x.accumulate_grad(&Tensor::scalar(1.0));
        opt.step();
        assert_eq!(x.grad().item(), 0.0);
    }

    #[test]
    fn zero_grad_without_step() {
        let x = Param::new(Tensor::scalar(1.0));
        let before = x.value().item();
        let mut opt = Adam::new(vec![x.clone()], 0.1);
        x.accumulate_grad(&Tensor::scalar(5.0));
        opt.zero_grad();
        assert_eq!(x.grad().item(), 0.0);
        assert_eq!(x.value().item(), before, "zero_grad must not update");
    }
}
