//! Loss functions composed from graph primitives.

use crate::graph::{Graph, Var};

/// Mean squared error between `pred` and `target` (same shapes).
pub fn mse(g: &mut Graph, pred: Var, target: Var) -> Var {
    let d = g.sub(pred, target);
    let sq = g.mul(d, d);
    g.mean_all(sq)
}

/// Gaussian negative log-likelihood of `target` under `N(mu, sigma²)`,
/// averaged over all elements — the distributional objective of Eq. 8:
///
/// `L = mean( ln σ + ((y − μ)/σ)²/2 ) + ln(2π)/2`.
///
/// `sigma` must be strictly positive (use a softplus head as in Eq. 7).
pub fn gaussian_nll(g: &mut Graph, mu: Var, sigma: Var, target: Var) -> Var {
    // fused single-node implementation: one forward pass and closed-form
    // gradients instead of an eight-op elementwise chain
    g.gaussian_nll(mu, sigma, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::Param;
    use crate::tensor::Tensor;

    #[test]
    fn mse_zero_at_match() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::row(&[1.0, 2.0]));
        let b = g.constant(Tensor::row(&[1.0, 2.0]));
        let l = mse(&mut g, a, b);
        assert_eq!(g.value(l).item(), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let mut g = Graph::new();
        let a = g.constant(Tensor::row(&[0.0, 0.0]));
        let b = g.constant(Tensor::row(&[3.0, 4.0]));
        let l = mse(&mut g, a, b);
        assert_eq!(g.value(l).item(), 12.5);
    }

    #[test]
    fn gaussian_nll_matches_closed_form() {
        // NLL of y=0 under N(0, 1) is 0.5 ln(2π)
        let mut g = Graph::new();
        let mu = g.constant(Tensor::scalar(0.0));
        let sigma = g.constant(Tensor::scalar(1.0));
        let y = g.constant(Tensor::scalar(0.0));
        let l = gaussian_nll(&mut g, mu, sigma, y);
        let expected = 0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((g.value(l).item() - expected).abs() < 1e-12);
    }

    #[test]
    fn gaussian_nll_penalises_distance_and_overconfidence() {
        let nll = |mu: f64, sigma: f64, y: f64| {
            let mut g = Graph::new();
            let m = g.constant(Tensor::scalar(mu));
            let s = g.constant(Tensor::scalar(sigma));
            let t = g.constant(Tensor::scalar(y));
            let l = gaussian_nll(&mut g, m, s, t);
            g.value(l).item()
        };
        assert!(nll(0.0, 1.0, 2.0) > nll(0.0, 1.0, 0.5));
        // being overconfident (small sigma) about a wrong mean is worse
        assert!(nll(0.0, 0.1, 2.0) > nll(0.0, 1.0, 2.0));
    }

    #[test]
    fn gaussian_nll_gradient_pulls_mu_toward_target() {
        let mu = Param::new(Tensor::scalar(0.0));
        let mut g = Graph::new();
        let m = g.param(&mu);
        let s = g.constant(Tensor::scalar(1.0));
        let y = g.constant(Tensor::scalar(5.0));
        let l = gaussian_nll(&mut g, m, s, y);
        g.backward(l);
        assert!(
            mu.grad().item() < 0.0,
            "gradient must push mu upward via -grad"
        );
    }
}
