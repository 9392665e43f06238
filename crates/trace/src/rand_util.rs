//! Distribution sampling helpers (kept local so `gfs-trace` does not pull
//! in the neural-network crate).

use rand::Rng;

/// Standard-normal sample via Box–Muller.
pub fn randn<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal sample parameterised by the median and the shape `sigma`.
pub fn lognormal<R: Rng>(median: f64, sigma: f64, rng: &mut R) -> f64 {
    (median.ln() + sigma * randn(rng)).exp()
}

/// Pareto sample with scale `xm` and shape `alpha`.
pub fn pareto<R: Rng>(xm: f64, alpha: f64, rng: &mut R) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    xm / u.powf(1.0 / alpha)
}

/// Samples an index from a discrete weight table.
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn weighted_index<R: Rng>(weights: &[f64], rng: &mut R) -> usize {
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "weights must be non-empty with positive sum");
    let mut draw = rng.gen_range(0.0..total);
    for (i, &w) in weights.iter().enumerate() {
        if draw < w {
            return i;
        }
        draw -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(123)
    }

    #[test]
    fn randn_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| randn(&mut r)).collect();
        let m = xs.iter().sum::<f64>() / xs.len() as f64;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!(m.abs() < 0.03, "mean {m}");
        assert!((v - 1.0).abs() < 0.05, "var {v}");
    }

    #[test]
    fn lognormal_median() {
        let mut r = rng();
        let mut xs: Vec<f64> = (0..20_000).map(|_| lognormal(5.0, 1.0, &mut r)).collect();
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let med = xs[xs.len() / 2];
        assert!((med - 5.0).abs() < 0.3, "median {med}");
    }

    #[test]
    fn pareto_min_respected() {
        let mut r = rng();
        for _ in 0..1_000 {
            assert!(pareto(2.0, 1.5, &mut r) >= 2.0);
        }
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = rng();
        let mut counts = [0usize; 3];
        for _ in 0..30_000 {
            counts[weighted_index(&[0.2, 0.3, 0.5], &mut r)] += 1;
        }
        assert!((counts[0] as f64 / 30_000.0 - 0.2).abs() < 0.02);
        assert!((counts[2] as f64 / 30_000.0 - 0.5).abs() < 0.02);
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn weighted_index_rejects_empty() {
        let mut r = rng();
        let _ = weighted_index(&[], &mut r);
    }
}
