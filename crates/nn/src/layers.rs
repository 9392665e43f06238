//! Reusable building blocks: linear projections, embeddings, GRU cells and
//! single-head attention.

use rand::Rng;

use crate::graph::{Graph, Var};
use crate::init::xavier;
use crate::param::Param;
use crate::tensor::Tensor;

/// A dense affine projection `y = xW + b`.
///
/// # Examples
///
/// ```
/// use gfs_nn::{Graph, Linear, Tensor};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let layer = Linear::new(4, 2, &mut rng);
/// let mut g = Graph::new();
/// let x = g.constant(Tensor::zeros(3, 4));
/// let y = layer.forward(&mut g, x);
/// assert_eq!(g.value(y).shape(), (3, 2));
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    w: Param,
    b: Param,
}

impl Linear {
    /// Creates a layer with Xavier-uniform weights and zero bias.
    pub fn new<R: Rng>(in_dim: usize, out_dim: usize, rng: &mut R) -> Self {
        Linear {
            w: Param::new(xavier(in_dim, out_dim, rng)),
            b: Param::new(Tensor::zeros(1, out_dim)),
        }
    }

    /// Applies the projection to an `n × in_dim` input via the fused
    /// `xW + b` kernel.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        self.forward_cat(g, &[x])
    }

    /// Applies the projection to the column concatenation of `parts`
    /// (their widths sum to `in_dim`) through [`Graph::affine_cat`]: no
    /// concatenation is built, and values and gradients are bit-identical
    /// to [`Linear::forward`] on [`Graph::concat_cols`] of the parts.
    pub fn forward_cat(&self, g: &mut Graph, parts: &[Var]) -> Var {
        let w = g.param(&self.w);
        let b = g.param(&self.b);
        g.affine_cat(parts, w, b)
    }

    /// The trainable parameters `[W, b]`.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        vec![self.w.clone(), self.b.clone()]
    }

    /// Input dimension.
    #[must_use]
    pub fn in_dim(&self) -> usize {
        self.w.shape().0
    }

    /// Output dimension.
    #[must_use]
    pub fn out_dim(&self) -> usize {
        self.w.shape().1
    }
}

/// A learnable lookup table mapping categorical indices to dense vectors
/// (the `Emb(·)` blocks of Eq. 3 and Eq. 4).
#[derive(Debug, Clone)]
pub struct Embedding {
    table: Param,
}

impl Embedding {
    /// Creates a `vocab × dim` table with Xavier-uniform entries.
    pub fn new<R: Rng>(vocab: usize, dim: usize, rng: &mut R) -> Self {
        Embedding {
            table: Param::new(xavier(vocab, dim, rng)),
        }
    }

    /// Gathers the vectors for `indices`, producing `len(indices) × dim`.
    pub fn forward(&self, g: &mut Graph, indices: &[usize]) -> Var {
        let t = g.param(&self.table);
        g.embedding(t, indices)
    }

    /// The trainable table.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        vec![self.table.clone()]
    }

    /// `(vocab, dim)` of the table.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        self.table.shape()
    }
}

/// A gated recurrent unit cell (used by the DeepAR baseline).
#[derive(Debug, Clone)]
pub struct GruCell {
    wz: Param,
    uz: Param,
    bz: Param,
    wr: Param,
    ur: Param,
    br: Param,
    wh: Param,
    uh: Param,
    bh: Param,
    hidden: usize,
}

impl GruCell {
    /// Creates a cell mapping `in_dim` inputs to a `hidden`-sized state.
    pub fn new<R: Rng>(in_dim: usize, hidden: usize, rng: &mut R) -> Self {
        GruCell {
            wz: Param::new(xavier(in_dim, hidden, rng)),
            uz: Param::new(xavier(hidden, hidden, rng)),
            bz: Param::new(Tensor::zeros(1, hidden)),
            wr: Param::new(xavier(in_dim, hidden, rng)),
            ur: Param::new(xavier(hidden, hidden, rng)),
            br: Param::new(Tensor::zeros(1, hidden)),
            wh: Param::new(xavier(in_dim, hidden, rng)),
            uh: Param::new(xavier(hidden, hidden, rng)),
            bh: Param::new(Tensor::zeros(1, hidden)),
            hidden,
        }
    }

    /// Hidden state size.
    #[must_use]
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// An all-zero initial state for a batch of `n` sequences.
    pub fn initial_state(&self, g: &mut Graph, n: usize) -> Var {
        g.constant(Tensor::zeros(n, self.hidden))
    }

    /// Registers the cell's parameters on `g` once, so a long unrolled
    /// recurrence shares nine param nodes instead of creating nine per
    /// step. Call once per graph, then drive [`GruCell::step_bound`].
    pub fn bind(&self, g: &mut Graph) -> GruCellNodes {
        GruCellNodes {
            wz: g.param(&self.wz),
            uz: g.param(&self.uz),
            bz: g.param(&self.bz),
            wr: g.param(&self.wr),
            ur: g.param(&self.ur),
            br: g.param(&self.br),
            wh: g.param(&self.wh),
            uh: g.param(&self.uh),
            bh: g.param(&self.bh),
        }
    }

    /// One recurrence step: consumes input `x` (`n × in_dim`) and previous
    /// state `h` (`n × hidden`), returns the next state.
    pub fn step(&self, g: &mut Graph, x: Var, h: Var) -> Var {
        let nodes = self.bind(g);
        self.step_bound(g, &nodes, x, h)
    }

    /// One recurrence step over pre-bound parameter nodes, built from the
    /// fused kernels: each gate is one [`Graph::affine2`] node and the
    /// state update one [`Graph::blend`] node — eight nodes per step where
    /// the op-by-op construction needed twenty (the recurrent hot path is
    /// tape-overhead-bound, not flop-bound).
    pub fn step_bound(&self, g: &mut Graph, n: &GruCellNodes, x: Var, h: Var) -> Var {
        let z_pre = g.affine2(x, n.wz, h, n.uz, n.bz);
        let z = g.sigmoid(z_pre);
        let r_pre = g.affine2(x, n.wr, h, n.ur, n.br);
        let r = g.sigmoid(r_pre);
        let rh = g.mul(r, h);
        let cand_pre = g.affine2(x, n.wh, rh, n.uh, n.bh);
        let cand = g.tanh(cand_pre);
        // h' = (1 - z) ⊙ h + z ⊙ cand
        g.blend(z, h, cand)
    }

    /// Runs the whole unrolled recurrence as one fused tape entry (see
    /// [`Graph::gru_scan`]): `xs` packs the step inputs time-major
    /// (`(steps·batch) × in_dim`, rows `[t·batch, (t+1)·batch)` are step
    /// `t`), the initial state is zero, and the returned node holds the
    /// final hidden state. Bit-identical to driving
    /// [`GruCell::step_bound`] `steps` times from
    /// [`GruCell::initial_state`].
    pub fn scan(&self, g: &mut Graph, xs: Var, steps: usize) -> Var {
        let nodes = self.bind(g);
        g.gru_scan(xs, steps, &nodes)
    }

    /// All trainable parameters of the cell.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        vec![
            self.wz.clone(),
            self.uz.clone(),
            self.bz.clone(),
            self.wr.clone(),
            self.ur.clone(),
            self.br.clone(),
            self.wh.clone(),
            self.uh.clone(),
            self.bh.clone(),
        ]
    }
}

/// Parameter nodes of a [`GruCell`] registered on one graph via
/// [`GruCell::bind`].
#[derive(Debug, Clone, Copy)]
pub struct GruCellNodes {
    pub(crate) wz: Var,
    pub(crate) uz: Var,
    pub(crate) bz: Var,
    pub(crate) wr: Var,
    pub(crate) ur: Var,
    pub(crate) br: Var,
    pub(crate) wh: Var,
    pub(crate) uh: Var,
    pub(crate) bh: Var,
}

/// Single-head scaled dot-product self-attention over a `L × d` sequence.
///
/// Used (with different windowing) by the Transformer, Informer, Autoformer
/// and FEDformer baselines, and by OrgLinear's business-attribute fusion
/// (Eq. 4).
#[derive(Debug, Clone)]
pub struct Attention {
    wq: Linear,
    wk: Linear,
    wv: Linear,
    dim: usize,
}

impl Attention {
    /// Creates an attention block over `dim`-sized token vectors.
    pub fn new<R: Rng>(dim: usize, rng: &mut R) -> Self {
        Attention {
            wq: Linear::new(dim, dim, rng),
            wk: Linear::new(dim, dim, rng),
            wv: Linear::new(dim, dim, rng),
            dim,
        }
    }

    /// Applies self-attention: `softmax(QKᵀ/√d)·V`.
    pub fn forward(&self, g: &mut Graph, x: Var) -> Var {
        let q = self.wq.forward(g, x);
        let k = self.wk.forward(g, x);
        let v = self.wv.forward(g, x);
        let kt = g.transpose(k);
        let scores = g.matmul(q, kt);
        let scaled = g.scale(scores, 1.0 / (self.dim as f64).sqrt());
        let attn = g.softmax_rows(scaled);
        g.matmul(attn, v)
    }

    /// All trainable parameters.
    #[must_use]
    pub fn params(&self) -> Vec<Param> {
        let mut p = self.wq.params();
        p.extend(self.wk.params());
        p.extend(self.wv.params());
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn linear_shapes() {
        let layer = Linear::new(3, 5, &mut rng());
        assert_eq!(layer.in_dim(), 3);
        assert_eq!(layer.out_dim(), 5);
        let mut g = Graph::new();
        let x = g.constant(Tensor::zeros(2, 3));
        let y = layer.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (2, 5));
        assert_eq!(layer.params().len(), 2);
    }

    #[test]
    fn linear_learns_identity_direction() {
        // one gradient step on y = xW + b must reduce a simple MSE
        let layer = Linear::new(1, 1, &mut rng());
        let mut prev_loss = f64::INFINITY;
        for _ in 0..100 {
            let mut g = Graph::new();
            let x = g.constant(Tensor::col(&[1.0, 2.0, 3.0]));
            let target = g.constant(Tensor::col(&[2.0, 4.0, 6.0]));
            let y = layer.forward(&mut g, x);
            let d = g.sub(y, target);
            let sq = g.mul(d, d);
            let loss = g.mean_all(sq);
            let lv = g.value(loss).item();
            assert!(
                lv <= prev_loss + 1e-9,
                "loss must not increase: {lv} > {prev_loss}"
            );
            prev_loss = lv;
            g.backward(loss);
            for p in layer.params() {
                p.update(|v, gr| v - 0.05 * gr);
                p.zero_grad();
            }
        }
        assert!(prev_loss < 0.05, "did not converge: {prev_loss}");
    }

    #[test]
    fn embedding_gathers() {
        let emb = Embedding::new(10, 4, &mut rng());
        assert_eq!(emb.shape(), (10, 4));
        let mut g = Graph::new();
        let e = emb.forward(&mut g, &[1, 1, 7]);
        assert_eq!(g.value(e).shape(), (3, 4));
        assert_eq!(g.value(e).row_slice(0), g.value(e).row_slice(1));
    }

    #[test]
    fn gru_step_shapes_and_bounded_state() {
        let cell = GruCell::new(2, 6, &mut rng());
        assert_eq!(cell.hidden_size(), 6);
        let mut g = Graph::new();
        let mut h = cell.initial_state(&mut g, 1);
        for t in 0..5 {
            let x = g.constant(Tensor::row(&[t as f64, 1.0]));
            h = cell.step(&mut g, x, h);
        }
        assert_eq!(g.value(h).shape(), (1, 6));
        // GRU state is a convex mix of tanh outputs: bounded by 1
        for &v in g.value(h).as_slice() {
            assert!(v.abs() <= 1.0 + 1e-9);
        }
        assert_eq!(cell.params().len(), 9);
    }

    #[test]
    fn attention_preserves_shape_and_rows_mix() {
        let att = Attention::new(4, &mut rng());
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(&[
            &[1.0, 0.0, 0.0, 0.0],
            &[0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, 1.0, 0.0],
        ]));
        let y = att.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (3, 4));
        assert_eq!(att.params().len(), 6);
    }

    #[test]
    fn attention_gradients_flow() {
        let att = Attention::new(3, &mut rng());
        let mut g = Graph::new();
        let x = g.constant(Tensor::from_rows(&[&[0.5, -0.2, 0.1], &[0.3, 0.8, -0.4]]));
        let y = att.forward(&mut g, x);
        let loss = g.mean_all(y);
        g.backward(loss);
        let total_grad: f64 = att.params().iter().map(|p| p.grad().norm()).sum();
        assert!(total_grad > 0.0, "some gradient must reach the projections");
    }
}
