//! Loss functions composed from graph primitives.

use crate::graph::{Graph, Var};

/// Mean squared error between `pred` and `target` (same shapes).
pub fn mse(g: &mut Graph, pred: Var, target: Var) -> Var {
    let d = g.sub(pred, target);
    let sq = g.mul(d, d);
    g.mean_all(sq)
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
