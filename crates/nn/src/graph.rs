//! Reverse-mode automatic differentiation over an index-based tape arena.
//!
//! A [`Graph`] records a forward pass as a flat `Vec` of heap-free ops plus
//! a parallel `Vec<Tensor>` of forward values, addressed by [`TapeIndex`]
//! (the [`Var`] handle). Nodes only ever reference earlier nodes, so the
//! reverse insertion order is a valid reverse topological order —
//! backpropagation is one linear sweep.
//!
//! Unlike the per-node allocated graph this replaced, the arena is
//! **reusable**: [`Graph::reset`] rewinds the tape without dropping any
//! buffer, so a trainer that replays the same graph shape every batch
//! reaches a steady state with zero allocations per step (see the
//! crate-level docs for the lifecycle and float-ordering contract, and the
//! `alloc_gate` test lane in `gfs-forecast` that enforces it).

use crate::layers::GruCellNodes;
use crate::param::Param;
use crate::tensor::{matmul_slices, matmul_transa_slices, transpose_slices, Tensor};

/// Index of a node on a [`Graph`] tape.
///
/// Invariants: a `TapeIndex` is only meaningful on the graph that returned
/// it, and only until the next [`Graph::reset`]; an op's operands always
/// have strictly smaller indices than the op itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TapeIndex(u32);

impl TapeIndex {
    #[inline]
    fn ix(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a node in a [`Graph`] (alias of [`TapeIndex`]).
pub type Var = TapeIndex;

/// A recorded tape operation. Operand references are [`TapeIndex`]es and
/// variable-length operand lists live in the graph's shared `aux` pool, so
/// no variant owns heap storage (`Param` is an `Rc` handle bump).
#[derive(Debug)]
enum Op {
    /// Constant leaf: no gradient.
    Const,
    /// Trainable leaf: gradient flushes into the shared [`Param`].
    Param(Param),
    Add(TapeIndex, TapeIndex),
    Sub(TapeIndex, TapeIndex),
    Mul(TapeIndex, TapeIndex),
    MatMul(TapeIndex, TapeIndex),
    /// Fused `[parts…] · w + b` with a broadcast bias row: an affine map
    /// over the column concatenation of `aux[aux_start..aux_start + parts]`
    /// (one part is the plain `x · w + b`).
    AffineCat {
        aux_start: u32,
        parts: u32,
        w: TapeIndex,
        b: TapeIndex,
    },
    Scale(TapeIndex, f64),
    Tanh(TapeIndex),
    Sigmoid(TapeIndex),
    Relu(TapeIndex),
    MeanAll(TapeIndex),
    Transpose(TapeIndex),
    SoftmaxRows(TapeIndex),
    /// Parts live in `aux[aux_start..aux_start + parts]`.
    ConcatCols {
        aux_start: u32,
        parts: u32,
    },
    /// Row-gather from a table node; indices live in the `aux` pool.
    Embedding {
        table: TapeIndex,
        aux_start: u32,
        len: u32,
    },
    /// Fused `x · w + h · u + b` (the GRU gate pre-activation).
    Affine2 {
        x: TapeIndex,
        w: TapeIndex,
        h: TapeIndex,
        u: TapeIndex,
        b: TapeIndex,
    },
    /// Fused `(1 − gate) ⊙ a + gate ⊙ b` (the GRU state blend).
    Blend {
        gate: TapeIndex,
        a: TapeIndex,
        b: TapeIndex,
    },
    /// Fused heteroscedastic Gaussian NLL,
    /// `mean(ln σ + ((y−μ)/σ)²/2) + ln(2π)/2` with `σ = softplus(pre) +
    /// floor`; the forward σ is kept in `saved[sigma]`.
    GaussianNllSoftplus {
        mu: TapeIndex,
        pre: TapeIndex,
        target: TapeIndex,
        sigma: u32,
    },
    /// Multiply row `r` of `x` by `col[r]` (`col` is `n × 1`).
    ScaleRows(TapeIndex, TapeIndex),
    /// Columns `[start, start + out.cols)` of `x`.
    SliceCols {
        x: TapeIndex,
        start: u32,
    },
    /// A whole unrolled GRU recurrence as one tape entry; all per-step
    /// state lives in `scans[state]`.
    GruScan {
        state: u32,
    },
}

/// Saved forward activations and backward scratch of one [`Graph::gru_scan`]
/// call. Everything is preallocated and reshaped in place, so replaying a
/// scan of the same shape allocates nothing.
#[derive(Debug)]
struct GruScanState {
    xs: TapeIndex,
    steps: u32,
    batch: u32,
    in_dim: u32,
    hidden: u32,
    wz: TapeIndex,
    uz: TapeIndex,
    bz: TapeIndex,
    wr: TapeIndex,
    ur: TapeIndex,
    br: TapeIndex,
    wh: TapeIndex,
    uh: TapeIndex,
    bh: TapeIndex,
    /// Hidden states `h_0..h_steps`, `(steps+1)·batch × hidden`.
    hs: Tensor,
    /// Post-sigmoid update gates per step, `steps·batch × hidden`.
    zs: Tensor,
    /// Post-sigmoid reset gates per step.
    rs: Tensor,
    /// Post-tanh candidates per step.
    cands: Tensor,
    /// `r ⊙ h_prev` scratch (`batch × hidden`), recomputed per step.
    rh: Tensor,
    // BPTT scratch, all `batch × hidden` unless noted.
    gh: Tensor,
    ghp: Tensor,
    gz: Tensor,
    gr: Tensor,
    gcand: Tensor,
    gtmp: Tensor,
    /// Transposed recurrent weights, computed once per backward.
    uzt: Tensor,
    urt: Tensor,
    uht: Tensor,
    /// Per-step weight-gradient scratch (`in_dim × hidden`), accumulated
    /// into the tape grad slot step by step to keep the unfused float
    /// order.
    step_gw: Tensor,
    /// Per-step recurrent-weight-gradient scratch (`hidden × hidden`).
    step_gu: Tensor,
    /// Per-step bias-gradient scratch (`1 × hidden`).
    step_gb: Tensor,
}

impl GruScanState {
    fn empty() -> Self {
        let z = TapeIndex(0);
        let t = || Tensor::zeros(0, 0);
        GruScanState {
            xs: z,
            steps: 0,
            batch: 0,
            in_dim: 0,
            hidden: 0,
            wz: z,
            uz: z,
            bz: z,
            wr: z,
            ur: z,
            br: z,
            wh: z,
            uh: z,
            bh: z,
            hs: t(),
            zs: t(),
            rs: t(),
            cands: t(),
            rh: t(),
            gh: t(),
            ghp: t(),
            gz: t(),
            gr: t(),
            gcand: t(),
            gtmp: t(),
            uzt: t(),
            urt: t(),
            uht: t(),
            step_gw: t(),
            step_gu: t(),
            step_gb: t(),
        }
    }
}

/// State of one node's gradient slot during a backward sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grad {
    /// The node depends on no parameter: every contribution to it is
    /// skipped and its slot is never read.
    Pruned,
    /// No contribution yet this sweep; the slot holds stale values.
    Empty,
    /// The slot holds this sweep's gradient.
    Live,
}

/// The gradient slots below the node being differentiated, with their
/// states: the destination of every backward contribution.
struct Slots<'a> {
    grads: &'a mut [Tensor],
    state: &'a mut [Grad],
}

/// A dynamic computation graph (tape) backed by a reusable arena.
///
/// # Examples
///
/// ```
/// use gfs_nn::{Graph, Param, Tensor};
///
/// let w = Param::new(Tensor::scalar(3.0));
/// let mut g = Graph::new();
/// let x = g.constant(Tensor::scalar(2.0));
/// let wv = g.param(&w);
/// let y = g.mul(x, wv); // y = 2w
/// g.backward(y);
/// assert_eq!(w.grad().item(), 2.0);
/// ```
///
/// Reusing the arena across batches:
///
/// ```
/// use gfs_nn::{Graph, Param, Tensor};
///
/// let w = Param::new(Tensor::scalar(3.0));
/// let mut g = Graph::new();
/// for step in 0..2 {
///     g.reset(); // rewinds the tape, keeps every buffer
///     let x = g.constant_slot(1, 1);
///     g.slot_mut(x)[0] = step as f64;
///     let wv = g.param(&w);
///     let y = g.mul(x, wv);
///     g.backward(y);
/// }
/// assert_eq!(w.grad().item(), 1.0); // 0 + 1
/// ```
#[derive(Debug)]
pub struct Graph {
    ops: Vec<Op>,
    /// Forward value of each op; `values.len() >= ops.len()` and surplus
    /// entries are retired buffers awaiting reuse.
    values: Vec<Tensor>,
    /// Whether each op depends on a [`Param`] (the requires-grad flag,
    /// recorded by `commit`); parallel to `ops`.
    needs_grad: Vec<bool>,
    /// Gradient slot per op, reshaped in place every backward sweep.
    grads: Vec<Tensor>,
    /// State of each gradient slot this sweep.
    grad_state: Vec<Grad>,
    /// Shared pool for variable-length operand lists (concat parts,
    /// embedding indices); rewound by `reset`, never shrunk.
    aux: Vec<u32>,
    aux_len: usize,
    /// Arena of GRU scan states; rewound by `reset`, never shrunk.
    scans: Vec<GruScanState>,
    scan_count: usize,
    /// Forward activations kept for the backward sweep (the fused NLL's
    /// σ); rewound by `reset`, never shrunk.
    saved: Vec<Tensor>,
    saved_count: usize,
    /// General backward scratch (revisit products, scatter buffers).
    scratch: Tensor,
    /// Transpose scratch for `∂x = ∂y · Wᵀ` backward kernels.
    scratch_t: Tensor,
    /// The shared 0×0 tensor parked in released parameter slots.
    empty: Tensor,
}

impl Graph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Graph {
            ops: Vec::new(),
            values: Vec::new(),
            needs_grad: Vec::new(),
            grads: Vec::new(),
            grad_state: Vec::new(),
            aux: Vec::new(),
            aux_len: 0,
            scans: Vec::new(),
            scan_count: 0,
            saved: Vec::new(),
            saved_count: 0,
            scratch: Tensor::zeros(0, 0),
            scratch_t: Tensor::zeros(0, 0),
            empty: Tensor::zeros(0, 0),
        }
    }

    /// Number of recorded nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the tape is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Rewinds the tape for the next forward pass without dropping any
    /// buffer: values, gradient slots, the aux pool and scan states all
    /// keep their allocations and are reshaped in place by the replay.
    /// Also releases parameter value shares (see [`Graph::finish`]).
    pub fn reset(&mut self) {
        self.release_params();
        self.ops.clear();
        self.needs_grad.clear();
        self.aux_len = 0;
        self.scan_count = 0;
        self.saved_count = 0;
    }

    /// Ensures `values[ops.len()]` exists and returns that index. Pushes a
    /// placeholder only when the arena has never been this deep (cold
    /// path); at steady state the retired buffer already there is reused.
    fn reserve(&mut self) -> usize {
        let i = self.ops.len();
        assert!(u32::try_from(i).is_ok(), "tape overflow");
        if i == self.values.len() {
            self.values.push(self.empty.clone());
        }
        i
    }

    fn commit(&mut self, op: Op) -> Var {
        let needs = self.requires_grad(&op);
        self.needs_grad.push(needs);
        self.ops.push(op);
        TapeIndex((self.ops.len() - 1) as u32)
    }

    /// The requires-grad rule: a `Const` leaf needs no gradient, a `Param`
    /// leaf does, and an op needs one iff an operand it differentiates
    /// does (a loss target and a GRU scan's input receive none).
    fn requires_grad(&self, op: &Op) -> bool {
        let n = |v: &TapeIndex| self.needs_grad[v.ix()];
        let any = |start: u32, len: u32| {
            self.aux[start as usize..(start + len) as usize]
                .iter()
                .any(|&p| self.needs_grad[p as usize])
        };
        match op {
            Op::Const => false,
            Op::Param(_) => true,
            Op::Add(a, b)
            | Op::Sub(a, b)
            | Op::Mul(a, b)
            | Op::MatMul(a, b)
            | Op::ScaleRows(a, b)
            | Op::GaussianNllSoftplus { mu: a, pre: b, .. } => n(a) || n(b),
            Op::Scale(x, _)
            | Op::Tanh(x)
            | Op::Sigmoid(x)
            | Op::Relu(x)
            | Op::MeanAll(x)
            | Op::Transpose(x)
            | Op::SoftmaxRows(x)
            | Op::SliceCols { x, .. }
            | Op::Embedding { table: x, .. } => n(x),
            Op::Blend { gate, a, b } => n(gate) || n(a) || n(b),
            Op::Affine2 { x, w, h, u, b } => n(x) || n(w) || n(h) || n(u) || n(b),
            Op::ConcatCols { aux_start, parts } => any(*aux_start, *parts),
            Op::AffineCat {
                aux_start,
                parts,
                w,
                b,
            } => any(*aux_start, *parts) || n(w) || n(b),
            Op::GruScan { state } => {
                let st = &self.scans[*state as usize];
                [
                    st.wz, st.uz, st.bz, st.wr, st.ur, st.br, st.wh, st.uh, st.bh,
                ]
                .iter()
                .any(n)
            }
        }
    }

    /// Index of a fresh saved-activation slot (contents stale). Pushes a
    /// placeholder only the first time the arena is this deep.
    fn save_slot(&mut self) -> usize {
        let s = self.saved_count;
        if s == self.saved.len() {
            self.saved.push(self.empty.clone());
        }
        self.saved_count += 1;
        s
    }

    /// Reshapes the output slot at `i` (contents stale, caller overwrites)
    /// and returns `(earlier values, output)` — the split is sound because
    /// operands always precede their op.
    fn out_slot(
        values: &mut [Tensor],
        i: usize,
        rows: usize,
        cols: usize,
    ) -> (&[Tensor], &mut Tensor) {
        let (head, tail) = values.split_at_mut(i);
        let out = &mut tail[0];
        if out.is_shared() {
            *out = Tensor::zeros(rows, cols);
        } else {
            out.resize_reuse(rows, cols);
        }
        (head, out)
    }

    fn aux_push(&mut self, v: u32) {
        if self.aux_len == self.aux.len() {
            self.aux.push(v);
        } else {
            self.aux[self.aux_len] = v;
        }
        self.aux_len += 1;
    }

    /// The forward value of a variable.
    ///
    /// Parameter values are only live until [`Graph::backward`],
    /// [`Graph::finish`] or [`Graph::reset`] releases them.
    #[must_use]
    pub fn value(&self, v: Var) -> &Tensor {
        &self.values[v.ix()]
    }

    /// Records a constant (non-trainable) leaf from an owned tensor.
    ///
    /// For steady-state allocation-free replay prefer
    /// [`Graph::constant_slot`], which reuses the arena buffer in place.
    pub fn constant(&mut self, t: Tensor) -> Var {
        let i = self.reserve();
        self.values[i] = t;
        self.commit(Op::Const)
    }

    /// Records a constant leaf of shape `rows × cols` whose contents are
    /// **stale** until the caller overwrites them through
    /// [`Graph::slot_mut`]. Reuses the retired buffer in the slot, so a
    /// replayed tape performs no allocation.
    pub fn constant_slot(&mut self, rows: usize, cols: usize) -> Var {
        let i = self.reserve();
        let v = &mut self.values[i];
        if v.is_shared() {
            *v = Tensor::zeros(rows, cols);
        } else {
            v.resize_reuse(rows, cols);
        }
        self.commit(Op::Const)
    }

    /// Mutable view of a constant slot's buffer, for filling inputs in
    /// place. The caller must overwrite every element (the buffer holds
    /// stale values from the previous replay).
    pub fn slot_mut(&mut self, v: Var) -> &mut [f64] {
        self.values[v.ix()].as_mut_slice()
    }

    /// Mutable views of two distinct slots at once (e.g. writing a trend
    /// row and a cyclical row of a decomposition in one pass).
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` are the same variable.
    pub fn two_slots_mut(&mut self, a: Var, b: Var) -> (&mut [f64], &mut [f64]) {
        let (ai, bi) = (a.ix(), b.ix());
        assert_ne!(ai, bi, "two_slots_mut requires distinct variables");
        if ai < bi {
            let (lo, hi) = self.values.split_at_mut(bi);
            (lo[ai].as_mut_slice(), hi[0].as_mut_slice())
        } else {
            let (lo, hi) = self.values.split_at_mut(ai);
            (hi[0].as_mut_slice(), lo[bi].as_mut_slice())
        }
    }

    /// Records a trainable parameter leaf; gradients accumulate into `p`.
    ///
    /// The slot holds a copy-on-write share of the parameter's buffer (no
    /// copy); the share is released by [`Graph::backward`],
    /// [`Graph::finish`] or [`Graph::reset`] so optimizer updates stay
    /// in place.
    pub fn param(&mut self, p: &Param) -> Var {
        let i = self.reserve();
        self.values[i] = p.value();
        self.commit(Op::Param(p.clone()))
    }

    /// Re-records every constant leaf on the tape so far as a fresh
    /// parameter leaf holding the same value, and returns those parameters
    /// in tape order. The next [`Graph::backward`] then also differentiates
    /// with respect to the former constants (input gradients), so it
    /// computes every contribution the requires-grad rule would otherwise
    /// skip — which is how the pruning is tested against the full sweep.
    pub fn promote_constants(&mut self) -> Vec<Param> {
        let mut promoted = Vec::new();
        for i in 0..self.ops.len() {
            if matches!(self.ops[i], Op::Const) {
                let p = Param::new(self.values[i].clone());
                self.ops[i] = Op::Param(p.clone());
                promoted.push(p);
            }
            let needs = self.requires_grad(&self.ops[i]);
            self.needs_grad[i] = needs;
        }
        promoted
    }

    /// Releases parameter value shares after a forward-only pass (predict
    /// paths). [`Graph::backward`] does this automatically; without it the
    /// next optimizer update would copy every shared weight buffer.
    pub fn finish(&mut self) {
        self.release_params();
    }

    fn release_params(&mut self) {
        for (i, op) in self.ops.iter().enumerate() {
            if matches!(op, Op::Param(_)) {
                self.values[i] = self.empty.clone();
            }
        }
    }

    fn binary_ew(&mut self, a: Var, b: Var, op: Op, f: impl Fn(f64, f64) -> f64) -> Var {
        let i = self.reserve();
        let (rows, cols) = self.values[a.ix()].shape();
        assert_eq!(
            (rows, cols),
            self.values[b.ix()].shape(),
            "elementwise shape mismatch"
        );
        let (head, out) = Self::out_slot(&mut self.values, i, rows, cols);
        let (av, bv) = (head[a.ix()].as_slice(), head[b.ix()].as_slice());
        for ((o, x), y) in out.as_mut_slice().iter_mut().zip(av).zip(bv) {
            *o = f(*x, *y);
        }
        self.commit(op)
    }

    fn unary_ew(&mut self, x: Var, op: Op, f: impl Fn(f64) -> f64) -> Var {
        let i = self.reserve();
        let (rows, cols) = self.values[x.ix()].shape();
        let (head, out) = Self::out_slot(&mut self.values, i, rows, cols);
        let xv = head[x.ix()].as_slice();
        for (o, v) in out.as_mut_slice().iter_mut().zip(xv) {
            *o = f(*v);
        }
        self.commit(op)
    }

    /// Element-wise sum. Shapes must match.
    pub fn add(&mut self, a: Var, b: Var) -> Var {
        self.binary_ew(a, b, Op::Add(a, b), |x, y| x + y)
    }

    /// Element-wise difference. Shapes must match.
    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        self.binary_ew(a, b, Op::Sub(a, b), |x, y| x - y)
    }

    /// Element-wise (Hadamard) product. Shapes must match.
    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        self.binary_ew(a, b, Op::Mul(a, b), |x, y| x * y)
    }

    /// Matrix product.
    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let i = self.reserve();
        let (head, tail) = self.values.split_at_mut(i);
        head[a.ix()].matmul_into(&head[b.ix()], &mut tail[0]);
        self.commit(Op::MatMul(a, b))
    }

    /// Fused affine map over a column concatenation, `[p₀ p₁ …] · w + b`,
    /// without building the concatenation: part `pᵢ` multiplies the rows
    /// of `w` at its column offset. With one part this is the plain
    /// `x · w + b` of every linear layer. Every output element accumulates
    /// the parts in column order, the same chain as [`Graph::concat_cols`]
    /// followed by a one-part `affine_cat`, so values and parameter
    /// gradients are bit-identical to that pair; the backward sweep
    /// computes `∂pᵢ` only for parts that need a gradient.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, the parts' row counts differ, their
    /// column counts do not sum to `w`'s rows, or `b` is not `1 × m`.
    pub fn affine_cat(&mut self, parts: &[Var], w: Var, b: Var) -> Var {
        assert!(!parts.is_empty(), "affine_cat requires at least one part");
        let i = self.reserve();
        let aux_start = self.aux_len as u32;
        for p in parts {
            self.aux_push(p.0);
        }
        let rows = self.values[parts[0].ix()].rows();
        let (k, n) = self.values[w.ix()].shape();
        let (head, out) = Self::out_slot(&mut self.values, i, rows, n);
        let (wv, bias) = (head[w.ix()].as_slice(), &head[b.ix()]);
        assert_eq!(bias.shape(), (1, n), "affine_cat bias shape");
        let os = out.as_mut_slice();
        for r in 0..rows {
            os[r * n..(r + 1) * n].copy_from_slice(bias.as_slice());
        }
        let mut offset = 0;
        for p in parts {
            let x = &head[p.ix()];
            assert_eq!(x.rows(), rows, "affine_cat row count mismatch");
            let c = x.cols();
            assert!(offset + c <= k, "affine_cat parts wider than w");
            let w_rows = &wv[offset * n..(offset + c) * n];
            matmul_slices(x.as_slice(), rows, c, w_rows, n, os, true);
            offset += c;
        }
        assert_eq!(offset, k, "affine_cat parts narrower than w");
        self.commit(Op::AffineCat {
            aux_start,
            parts: parts.len() as u32,
            w,
            b,
        })
    }

    /// Multiplies by a compile-time constant.
    pub fn scale(&mut self, x: Var, k: f64) -> Var {
        self.unary_ew(x, Op::Scale(x, k), |a| a * k)
    }

    /// Element-wise `tanh`.
    pub fn tanh(&mut self, x: Var) -> Var {
        self.unary_ew(x, Op::Tanh(x), f64::tanh)
    }

    /// Element-wise logistic sigmoid.
    pub fn sigmoid(&mut self, x: Var) -> Var {
        self.unary_ew(x, Op::Sigmoid(x), sigmoid)
    }

    /// Element-wise rectified linear unit.
    pub fn relu(&mut self, x: Var) -> Var {
        self.unary_ew(x, Op::Relu(x), |a| a.max(0.0))
    }

    /// Fused gate pre-activation `x · w + h · u + b` — one node for the
    /// recurrent double projection, its sum and the broadcast bias row.
    /// Element order: `(xW + hU) + b`.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent shapes.
    pub fn affine2(&mut self, x: Var, w: Var, h: Var, u: Var, b: Var) -> Var {
        let i = self.reserve();
        let (head, tail) = self.values.split_at_mut(i);
        let out = &mut tail[0];
        head[x.ix()].matmul_into(&head[w.ix()], out);
        out.add_matmul(&head[h.ix()], &head[u.ix()]);
        let bias = &head[b.ix()];
        assert_eq!(bias.rows(), 1, "affine2 expects a 1×m bias row");
        assert_eq!(bias.cols(), out.cols(), "affine2 bias width mismatch");
        let cols = out.cols();
        for r in 0..out.rows() {
            let row = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
            for (o, bv) in row.iter_mut().zip(bias.as_slice()) {
                *o += bv;
            }
        }
        self.commit(Op::Affine2 { x, w, h, u, b })
    }

    /// Fused convex state blend `(1 − gate) ⊙ a + gate ⊙ b` — one node for
    /// the GRU output mix that previously took five elementwise ops.
    ///
    /// # Panics
    ///
    /// Panics if the three shapes differ.
    pub fn blend(&mut self, gate: Var, a: Var, b: Var) -> Var {
        let i = self.reserve();
        let (rows, cols) = self.values[gate.ix()].shape();
        assert_eq!(
            (rows, cols),
            self.values[a.ix()].shape(),
            "blend shape mismatch"
        );
        assert_eq!(
            (rows, cols),
            self.values[b.ix()].shape(),
            "blend shape mismatch"
        );
        let (head, out) = Self::out_slot(&mut self.values, i, rows, cols);
        let gv = head[gate.ix()].as_slice();
        let av = head[a.ix()].as_slice();
        let bv = head[b.ix()].as_slice();
        for (j, o) in out.as_mut_slice().iter_mut().enumerate() {
            *o = (1.0 - gv[j]) * av[j] + gv[j] * bv[j];
        }
        self.commit(Op::Blend { gate, a, b })
    }

    /// Fused Gaussian negative log-likelihood of a heteroscedastic head,
    /// `mean(ln σ + ((y−μ)/σ)²/2) + ln(2π)/2` with `σ = softplus(pre) +
    /// floor` (Eq. 7 + Eq. 8 as one node): a single pass with closed-form
    /// gradients to `mu` and `pre` instead of an elementwise chain. The
    /// backward sweep reuses the forward σ instead of recomputing the
    /// softplus. `target` is treated as a constant (no gradient).
    ///
    /// # Panics
    ///
    /// Panics if the three shapes differ.
    pub fn gaussian_nll_softplus(&mut self, mu: Var, pre: Var, target: Var, floor: f64) -> Var {
        let i = self.reserve();
        let shape = self.values[mu.ix()].shape();
        assert_eq!(
            shape,
            self.values[pre.ix()].shape(),
            "gaussian_nll_softplus shape mismatch"
        );
        assert_eq!(
            shape,
            self.values[target.ix()].shape(),
            "gaussian_nll_softplus shape mismatch"
        );
        let sigma = self.save_slot();
        let saved = &mut self.saved[sigma];
        saved.resize_reuse(shape.0, shape.1);
        let (head, out) = Self::out_slot(&mut self.values, i, 1, 1);
        let mv = head[mu.ix()].as_slice();
        let pv = head[pre.ix()].as_slice();
        let tv = head[target.ix()].as_slice();
        let mut acc = 0.0;
        for (((m, p), y), sv) in mv.iter().zip(pv).zip(tv).zip(saved.as_mut_slice()) {
            let s = softplus(*p) + floor;
            *sv = s;
            let z = (y - m) / s;
            acc += s.ln() + 0.5 * z * z;
        }
        let n = mv.len().max(1) as f64;
        out.as_mut_slice()[0] = acc / n + 0.5 * (2.0 * std::f64::consts::PI).ln();
        self.commit(Op::GaussianNllSoftplus {
            mu,
            pre,
            target,
            sigma: sigma as u32,
        })
    }

    /// Mean of all elements, as a `1 × 1` scalar.
    pub fn mean_all(&mut self, x: Var) -> Var {
        let i = self.reserve();
        let (head, out) = Self::out_slot(&mut self.values, i, 1, 1);
        out.as_mut_slice()[0] = head[x.ix()].mean();
        self.commit(Op::MeanAll(x))
    }

    /// Matrix transpose.
    pub fn transpose(&mut self, x: Var) -> Var {
        let i = self.reserve();
        let (head, tail) = self.values.split_at_mut(i);
        head[x.ix()].transpose_into(&mut tail[0]);
        self.commit(Op::Transpose(x))
    }

    /// Row-wise softmax (used by every attention block).
    pub fn softmax_rows(&mut self, x: Var) -> Var {
        let i = self.reserve();
        let (rows, cols) = self.values[x.ix()].shape();
        let (head, out) = Self::out_slot(&mut self.values, i, rows, cols);
        out.as_mut_slice().copy_from_slice(head[x.ix()].as_slice());
        for r in 0..rows {
            let row = &mut out.as_mut_slice()[r * cols..(r + 1) * cols];
            let max = row.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let mut sum = 0.0;
            for v in row.iter_mut() {
                *v = (*v - max).exp();
                sum += *v;
            }
            for v in row.iter_mut() {
                *v /= sum;
            }
        }
        self.commit(Op::SoftmaxRows(x))
    }

    /// Concatenates variables left-to-right (matching row counts).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let i = self.reserve();
        let aux_start = self.aux_len as u32;
        for p in parts {
            self.aux_push(p.0);
        }
        let rows = self.values[parts[0].ix()].rows();
        let total: usize = parts.iter().map(|p| self.values[p.ix()].cols()).sum();
        let (head, out) = Self::out_slot(&mut self.values, i, rows, total);
        let os = out.as_mut_slice();
        let mut offset = 0;
        for p in parts {
            let t = &head[p.ix()];
            assert_eq!(t.rows(), rows, "concat_cols row count mismatch");
            let c = t.cols();
            let ts = t.as_slice();
            for r in 0..rows {
                os[r * total + offset..r * total + offset + c]
                    .copy_from_slice(&ts[r * c..(r + 1) * c]);
            }
            offset += c;
        }
        self.commit(Op::ConcatCols {
            aux_start,
            parts: parts.len() as u32,
        })
    }

    /// Gathers rows `indices` from an embedding `table` (a `vocab × dim`
    /// variable, usually a parameter), producing `len(indices) × dim`.
    ///
    /// # Panics
    ///
    /// Panics if any index is out of range.
    pub fn embedding(&mut self, table: Var, indices: &[usize]) -> Var {
        let i = self.reserve();
        let aux_start = self.aux_len as u32;
        for &idx in indices {
            self.aux_push(idx as u32);
        }
        let dim = self.values[table.ix()].cols();
        let (head, out) = Self::out_slot(&mut self.values, i, indices.len(), dim);
        let tv = &head[table.ix()];
        let os = out.as_mut_slice();
        for (r, &idx) in indices.iter().enumerate() {
            assert!(
                idx < tv.rows(),
                "embedding index {idx} out of range ({})",
                tv.rows()
            );
            os[r * dim..(r + 1) * dim].copy_from_slice(tv.row_slice(idx));
        }
        self.commit(Op::Embedding {
            table,
            aux_start,
            len: indices.len() as u32,
        })
    }

    /// Multiplies every row `r` of the `n × m` matrix `x` by the scalar
    /// `col[r]` taken from an `n × 1` column vector.
    ///
    /// # Panics
    ///
    /// Panics if `col` is not `n × 1` with matching `n`.
    pub fn scale_rows(&mut self, x: Var, col: Var) -> Var {
        let i = self.reserve();
        {
            let cv = &self.values[col.ix()];
            let xv = &self.values[x.ix()];
            assert_eq!(cv.cols(), 1, "scale_rows expects an n×1 column vector");
            assert_eq!(cv.rows(), xv.rows(), "scale_rows row mismatch");
        }
        let (rows, cols) = self.values[x.ix()].shape();
        let (head, out) = Self::out_slot(&mut self.values, i, rows, cols);
        let xs = head[x.ix()].as_slice();
        let cs = head[col.ix()].as_slice();
        let os = out.as_mut_slice();
        for r in 0..rows {
            let k = cs[r];
            for c in 0..cols {
                os[r * cols + c] = xs[r * cols + c] * k;
            }
        }
        self.commit(Op::ScaleRows(x, col))
    }

    /// Extracts columns `[start, start + len)` of `x`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the column count.
    pub fn slice_cols(&mut self, x: Var, start: usize, len: usize) -> Var {
        let i = self.reserve();
        let (rows, cols) = self.values[x.ix()].shape();
        assert!(start + len <= cols, "slice_cols out of range");
        let (head, out) = Self::out_slot(&mut self.values, i, rows, len);
        let xs = head[x.ix()].as_slice();
        let os = out.as_mut_slice();
        for r in 0..rows {
            os[r * len..(r + 1) * len]
                .copy_from_slice(&xs[r * cols + start..r * cols + start + len]);
        }
        self.commit(Op::SliceCols {
            x,
            start: start as u32,
        })
    }

    /// A whole unrolled GRU recurrence as **one** tape entry: forward and
    /// backward run as tight loops over preallocated scratch instead of
    /// `8 × steps` tape nodes (the recurrent hot path was tape-overhead
    /// bound, not flop-bound).
    ///
    /// `xs` packs the step inputs row-major by time: rows
    /// `[t·batch, (t+1)·batch)` are the batch's inputs at step `t`, so
    /// `xs` is `(steps·batch) × in_dim`. The initial state is zero (the
    /// same contract as [`crate::GruCell::initial_state`]) and the node's
    /// value is the final hidden state (`batch × hidden`).
    ///
    /// Float order is bit-identical to the equivalent
    /// [`crate::GruCell::step_bound`] chain: per step the gate
    /// pre-activations are `xW` then `+hU` then `+b` with the same blocked
    /// kernels, and the backward pass accumulates per-step weight
    /// gradients through per-step scratch in the same reverse-time order
    /// the node-per-step tape used.
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not a constant leaf (the scan produces no input
    /// gradient), `steps` is zero, or the row count is not a multiple of
    /// `steps`.
    pub fn gru_scan(&mut self, xs: Var, steps: usize, nodes: &GruCellNodes) -> Var {
        assert!(steps > 0, "gru_scan needs at least one step");
        assert!(
            matches!(self.ops[xs.ix()], Op::Const),
            "gru_scan input must be a constant leaf (it receives no gradient)"
        );
        let (xrows, in_dim) = self.values[xs.ix()].shape();
        assert_eq!(xrows % steps, 0, "gru_scan rows not divisible by steps");
        let b = xrows / steps;
        let hidden = self.values[nodes.uz.ix()].cols();
        let i = self.reserve();
        let s_idx = self.scan_count;
        if s_idx == self.scans.len() {
            self.scans.push(GruScanState::empty());
        }
        self.scan_count += 1;
        let bh = b * hidden;
        {
            let st = &mut self.scans[s_idx];
            st.xs = xs;
            st.steps = steps as u32;
            st.batch = b as u32;
            st.in_dim = in_dim as u32;
            st.hidden = hidden as u32;
            st.wz = nodes.wz;
            st.uz = nodes.uz;
            st.bz = nodes.bz;
            st.wr = nodes.wr;
            st.ur = nodes.ur;
            st.br = nodes.br;
            st.wh = nodes.wh;
            st.uh = nodes.uh;
            st.bh = nodes.bh;
            st.hs.resize_reuse((steps + 1) * b, hidden);
            st.zs.resize_reuse(steps * b, hidden);
            st.rs.resize_reuse(steps * b, hidden);
            st.cands.resize_reuse(steps * b, hidden);
            st.rh.resize_reuse(b, hidden);
            let values = &self.values;
            let xsv = values[xs.ix()].as_slice();
            let wzv = values[nodes.wz.ix()].as_slice();
            let uzv = values[nodes.uz.ix()].as_slice();
            let bzv = values[nodes.bz.ix()].as_slice();
            let wrv = values[nodes.wr.ix()].as_slice();
            let urv = values[nodes.ur.ix()].as_slice();
            let brv = values[nodes.br.ix()].as_slice();
            let whv = values[nodes.wh.ix()].as_slice();
            let uhv = values[nodes.uh.ix()].as_slice();
            let bhv = values[nodes.bh.ix()].as_slice();
            let hs = st.hs.as_mut_slice();
            let zs = st.zs.as_mut_slice();
            let rs = st.rs.as_mut_slice();
            let cs = st.cands.as_mut_slice();
            let rhb = st.rh.as_mut_slice();
            hs[..bh].iter_mut().for_each(|v| *v = 0.0);
            for t in 0..steps {
                let x_t = &xsv[t * b * in_dim..(t + 1) * b * in_dim];
                let (h_lo, h_hi) = hs.split_at_mut((t + 1) * bh);
                let hp = &h_lo[t * bh..];
                let hn = &mut h_hi[..bh];
                // update gate: z = σ(xW_z + hU_z + b_z)
                let zb = &mut zs[t * bh..(t + 1) * bh];
                matmul_slices(x_t, b, in_dim, wzv, hidden, zb, false);
                matmul_slices(hp, b, hidden, uzv, hidden, zb, true);
                add_bias_rows(zb, bzv, b, hidden);
                zb.iter_mut().for_each(|v| *v = sigmoid(*v));
                // reset gate: r = σ(xW_r + hU_r + b_r)
                let rb = &mut rs[t * bh..(t + 1) * bh];
                matmul_slices(x_t, b, in_dim, wrv, hidden, rb, false);
                matmul_slices(hp, b, hidden, urv, hidden, rb, true);
                add_bias_rows(rb, brv, b, hidden);
                rb.iter_mut().for_each(|v| *v = sigmoid(*v));
                // candidate: c = tanh(xW_h + (r ⊙ h)U_h + b_h)
                for j in 0..bh {
                    rhb[j] = rb[j] * hp[j];
                }
                let cb = &mut cs[t * bh..(t + 1) * bh];
                matmul_slices(x_t, b, in_dim, whv, hidden, cb, false);
                matmul_slices(rhb, b, hidden, uhv, hidden, cb, true);
                add_bias_rows(cb, bhv, b, hidden);
                cb.iter_mut().for_each(|v| *v = f64::tanh(*v));
                // blend: h' = (1 − z) ⊙ h + z ⊙ c
                for j in 0..bh {
                    hn[j] = (1.0 - zb[j]) * hp[j] + zb[j] * cb[j];
                }
            }
        }
        {
            let st = &self.scans[s_idx];
            let out = &mut self.values[i];
            if out.is_shared() {
                *out = Tensor::zeros(b, hidden);
            } else {
                out.resize_reuse(b, hidden);
            }
            out.as_mut_slice()
                .copy_from_slice(&st.hs.as_slice()[steps * bh..]);
        }
        self.commit(Op::GruScan {
            state: s_idx as u32,
        })
    }

    /// Runs backpropagation from `output`, accumulating gradients into every
    /// [`Param`] reachable from it, then releases parameter value shares
    /// (so the optimizer's in-place update does not copy). `output` is
    /// typically a scalar loss; for non-scalars the seed gradient is
    /// all-ones.
    ///
    /// Contributions to nodes that depend on no parameter (the
    /// requires-grad rule, see `requires_grad`) are skipped: such a
    /// node's gradient reaches no `Param`, and its slot is never read.
    // gfs-lint: hot(tape)
    pub fn backward(&mut self, output: Var) {
        let n = self.ops.len();
        if self.grads.len() < n {
            self.grads.resize_with(n, || Tensor::zeros(0, 0));
        }
        self.grad_state.clear();
        self.grad_state.extend(self.needs_grad.iter().map(|&needs| {
            if needs {
                Grad::Empty
            } else {
                Grad::Pruned
            }
        }));
        if self.needs_grad[output.ix()] {
            let (orows, ocols) = self.values[output.ix()].shape();
            let seed = &mut self.grads[output.ix()];
            seed.resize_reuse(orows, ocols);
            seed.as_mut_slice().iter_mut().for_each(|v| *v = 1.0);
            self.grad_state[output.ix()] = Grad::Live;
        }

        for i in (0..n).rev() {
            if self.grad_state[i] != Grad::Live {
                continue;
            }
            let (glo, ghi) = self.grads.split_at_mut(i);
            let gy: &Tensor = &ghi[0];
            let gys = gy.as_slice();
            let to = &mut Slots {
                grads: glo,
                state: &mut self.grad_state[..i],
            };
            let values = &self.values;
            match &self.ops[i] {
                Op::Const => {}
                Op::Param(p) => {
                    p.accumulate_grad(gy);
                }
                Op::Add(a, b) => {
                    let (rows, cols) = gy.shape();
                    to.map(a.ix(), rows, cols, |j| gys[j]);
                    to.map(b.ix(), rows, cols, |j| gys[j]);
                }
                Op::Sub(a, b) => {
                    let (rows, cols) = gy.shape();
                    to.map(a.ix(), rows, cols, |j| gys[j]);
                    to.map(b.ix(), rows, cols, |j| -gys[j]);
                }
                Op::Mul(a, b) => {
                    let (rows, cols) = gy.shape();
                    let av = values[a.ix()].as_slice();
                    let bv = values[b.ix()].as_slice();
                    to.map(a.ix(), rows, cols, |j| gys[j] * bv[j]);
                    to.map(b.ix(), rows, cols, |j| gys[j] * av[j]);
                }
                Op::MatMul(a, b) => {
                    let bm = &values[b.ix()];
                    let (scr_t, scr) = (&mut self.scratch_t, &mut self.scratch);
                    to.matmul_transb(a.ix(), gy, bm.as_slice(), bm.rows(), scr_t, scr);
                    to.matmul_transa(b.ix(), &values[a.ix()], gy, &mut self.scratch);
                }
                Op::AffineCat {
                    aux_start,
                    parts,
                    w,
                    b,
                } => {
                    let parts = &self.aux[*aux_start as usize..(*aux_start + *parts) as usize];
                    let (k, n) = values[w.ix()].shape();
                    let wv = values[w.ix()].as_slice();
                    // ∂pᵢ = ∂y · w[rows of pᵢ]ᵀ, for the parts that need it
                    let mut offset = 0;
                    for &p in parts {
                        let c = values[p as usize].cols();
                        let w_rows = &wv[offset * n..(offset + c) * n];
                        let (scr_t, scr) = (&mut self.scratch_t, &mut self.scratch);
                        to.matmul_transb(p as usize, gy, w_rows, c, scr_t, scr);
                        offset += c;
                    }
                    // ∂w = [p₀ p₁ …]ᵀ · ∂y, written part by part into its rows
                    if let Some(first) = to.prep(w.ix(), k, n) {
                        let dst = if first {
                            to.grads[w.ix()].as_mut_slice()
                        } else {
                            self.scratch.resize_reuse(k, n);
                            self.scratch.as_mut_slice()
                        };
                        let mut offset = 0;
                        for &p in parts {
                            let x = &values[p as usize];
                            let (m, c) = x.shape();
                            let rows = &mut dst[offset * n..(offset + c) * n];
                            matmul_transa_slices(x.as_slice(), m, c, gys, n, rows, false);
                            offset += c;
                        }
                        if !first {
                            to.grads[w.ix()].add_scaled(&self.scratch, 1.0);
                        }
                    }
                    to.colsum(b.ix(), gy, &mut self.scratch);
                }
                Op::Scale(x, k) => {
                    let (rows, cols) = gy.shape();
                    let k = *k;
                    to.map(x.ix(), rows, cols, |j| gys[j] * k);
                }
                Op::Tanh(x) => {
                    let (rows, cols) = gy.shape();
                    let ys = values[i].as_slice();
                    to.map(x.ix(), rows, cols, |j| gys[j] * (1.0 - ys[j] * ys[j]));
                }
                Op::Sigmoid(x) => {
                    let (rows, cols) = gy.shape();
                    let ys = values[i].as_slice();
                    to.map(x.ix(), rows, cols, |j| gys[j] * ys[j] * (1.0 - ys[j]));
                }
                Op::Relu(x) => {
                    let (rows, cols) = gy.shape();
                    let xs = values[x.ix()].as_slice();
                    to.map(
                        x.ix(),
                        rows,
                        cols,
                        |j| if xs[j] > 0.0 { gys[j] } else { 0.0 },
                    );
                }
                Op::MeanAll(x) => {
                    let (rows, cols) = values[x.ix()].shape();
                    let s = gy.item() / (rows * cols) as f64;
                    to.map(x.ix(), rows, cols, |_| s);
                }
                Op::Transpose(x) => {
                    let (rows, cols) = values[x.ix()].shape();
                    gy.transpose_into(&mut self.scratch);
                    let ss = self.scratch.as_slice();
                    to.map(x.ix(), rows, cols, |j| ss[j]);
                }
                Op::SoftmaxRows(x) => {
                    let (rows, cols) = gy.shape();
                    let ys = values[i].as_slice();
                    if let Some(first) = to.prep(x.ix(), rows, cols) {
                        let s = to.grads[x.ix()].as_mut_slice();
                        for r in 0..rows {
                            let base = r * cols;
                            let mut dot = 0.0;
                            for c in 0..cols {
                                dot += gys[base + c] * ys[base + c];
                            }
                            for c in 0..cols {
                                let v = (gys[base + c] - dot) * ys[base + c];
                                if first {
                                    s[base + c] = v;
                                } else {
                                    s[base + c] += v;
                                }
                            }
                        }
                    }
                }
                Op::ConcatCols { aux_start, parts } => {
                    let total = gy.cols();
                    let parts = &self.aux[*aux_start as usize..(*aux_start + *parts) as usize];
                    let mut offset = 0;
                    for &p in parts {
                        let p = p as usize;
                        let (rows, cols) = values[p].shape();
                        if let Some(first) = to.prep(p, rows, cols) {
                            let s = to.grads[p].as_mut_slice();
                            for r in 0..rows {
                                let src = &gys[r * total + offset..r * total + offset + cols];
                                let dst = &mut s[r * cols..(r + 1) * cols];
                                if first {
                                    dst.copy_from_slice(src);
                                } else {
                                    dst.iter_mut().zip(src).for_each(|(d, v)| *d += v);
                                }
                            }
                        }
                        offset += cols;
                    }
                }
                Op::Embedding {
                    table,
                    aux_start,
                    len,
                } => {
                    let t = table.ix();
                    let (vocab, dim) = values[t].shape();
                    let idxs = &self.aux[*aux_start as usize..(*aux_start + *len) as usize];
                    if let Some(first) = to.prep(t, vocab, dim) {
                        if first {
                            let s = to.grads[t].as_mut_slice();
                            s.iter_mut().for_each(|v| *v = 0.0);
                            scatter_rows(s, dim, idxs, gys);
                        } else {
                            self.scratch.resize_reuse(vocab, dim);
                            let s = self.scratch.as_mut_slice();
                            s.iter_mut().for_each(|v| *v = 0.0);
                            scatter_rows(s, dim, idxs, gys);
                            to.grads[t].add_scaled(&self.scratch, 1.0);
                        }
                    }
                }
                Op::Affine2 { x, w, h, u, b } => {
                    let wm = &values[w.ix()];
                    let (scr_t, scr) = (&mut self.scratch_t, &mut self.scratch);
                    to.matmul_transb(x.ix(), gy, wm.as_slice(), wm.rows(), scr_t, scr);
                    to.matmul_transa(w.ix(), &values[x.ix()], gy, &mut self.scratch);
                    let um = &values[u.ix()];
                    let (scr_t, scr) = (&mut self.scratch_t, &mut self.scratch);
                    to.matmul_transb(h.ix(), gy, um.as_slice(), um.rows(), scr_t, scr);
                    to.matmul_transa(u.ix(), &values[h.ix()], gy, &mut self.scratch);
                    to.colsum(b.ix(), gy, &mut self.scratch);
                }
                Op::Blend { gate, a, b } => {
                    let (rows, cols) = gy.shape();
                    let gv = values[gate.ix()].as_slice();
                    let av = values[a.ix()].as_slice();
                    let bv = values[b.ix()].as_slice();
                    to.map(gate.ix(), rows, cols, |j| gys[j] * (bv[j] - av[j]));
                    to.map(a.ix(), rows, cols, |j| gys[j] * (1.0 - gv[j]));
                    to.map(b.ix(), rows, cols, |j| gys[j] * gv[j]);
                }
                Op::GaussianNllSoftplus {
                    mu,
                    pre,
                    target,
                    sigma,
                } => {
                    let mv = values[mu.ix()].as_slice();
                    let pv = values[pre.ix()].as_slice();
                    let tv = values[target.ix()].as_slice();
                    let sv = self.saved[*sigma as usize].as_slice();
                    let scale = gy.item() / mv.len().max(1) as f64;
                    let (rows, cols) = values[mu.ix()].shape();
                    to.map(mu.ix(), rows, cols, |j| {
                        let z = (tv[j] - mv[j]) / sv[j];
                        scale * (-z / sv[j])
                    });
                    // ∂L/∂σ · ∂σ/∂pre, with ∂softplus = sigmoid
                    to.map(pre.ix(), rows, cols, |j| {
                        let z = (tv[j] - mv[j]) / sv[j];
                        scale * ((1.0 - z * z) / sv[j]) * sigmoid(pv[j])
                    });
                }
                Op::ScaleRows(x, col) => {
                    let (rows, cols) = gy.shape();
                    let xv = values[x.ix()].as_slice();
                    let cv = values[col.ix()].as_slice();
                    to.map(x.ix(), rows, cols, |j| gys[j] * cv[j / cols]);
                    if let Some(first) = to.prep(col.ix(), rows, 1) {
                        let s = to.grads[col.ix()].as_mut_slice();
                        for r in 0..rows {
                            let mut dot = 0.0;
                            for c in 0..cols {
                                dot += gys[r * cols + c] * xv[r * cols + c];
                            }
                            if first {
                                s[r] = dot;
                            } else {
                                s[r] += dot;
                            }
                        }
                    }
                }
                Op::SliceCols { x, start } => {
                    let xi = x.ix();
                    let (rows, cols) = values[xi].shape();
                    let start = *start as usize;
                    let gcols = gy.cols();
                    if let Some(first) = to.prep(xi, rows, cols) {
                        let s = if first {
                            to.grads[xi].as_mut_slice()
                        } else {
                            self.scratch.resize_reuse(rows, cols);
                            self.scratch.as_mut_slice()
                        };
                        s.iter_mut().for_each(|v| *v = 0.0);
                        expand_cols(s, cols, start, gys, gcols, rows);
                        if !first {
                            to.grads[xi].add_scaled(&self.scratch, 1.0);
                        }
                    }
                }
                Op::GruScan { state } => {
                    gru_scan_backward(&mut self.scans[*state as usize], values, to, gy);
                }
            }
        }
        self.release_params();
    }
}

impl Default for Graph {
    fn default() -> Self {
        Graph::new()
    }
}

impl Slots<'_> {
    /// Prepares slot `idx` for a contribution. `None` when the node is
    /// pruned (the caller computes nothing); otherwise `Some(first)`: on
    /// the first contribution this sweep the slot is reshaped (contents
    /// stale — the caller must assign, not accumulate) and `first` is
    /// `true`; later contributions add.
    ///
    /// First contributions **assign** and later ones **add** to reproduce
    /// the float behaviour of the fresh-tensor graph exactly (a zero-init
    /// slot would turn `set(-0.0)` into `0.0 + -0.0 = 0.0`, flipping a sign
    /// bit).
    // gfs-lint: hot(tape)
    fn prep(&mut self, idx: usize, rows: usize, cols: usize) -> Option<bool> {
        match self.state[idx] {
            Grad::Pruned => None,
            Grad::Empty => {
                self.state[idx] = Grad::Live;
                self.grads[idx].resize_reuse(rows, cols);
                Some(true)
            }
            Grad::Live => {
                debug_assert_eq!(
                    self.grads[idx].shape(),
                    (rows, cols),
                    "gradient shape drift"
                );
                Some(false)
            }
        }
    }

    /// Elementwise gradient contribution `slot[j] (+)= f(j)`.
    // gfs-lint: hot(tape)
    fn map(&mut self, idx: usize, rows: usize, cols: usize, f: impl Fn(usize) -> f64) {
        let Some(first) = self.prep(idx, rows, cols) else {
            return;
        };
        let s = self.grads[idx].as_mut_slice();
        if first {
            for (j, o) in s.iter_mut().enumerate() {
                *o = f(j);
            }
        } else {
            for (j, o) in s.iter_mut().enumerate() {
                *o += f(j);
            }
        }
    }

    /// Gradient contribution `slot (+)= gy · bmatᵀ` (`∂x` of a matmul or
    /// affine map), where `bmat` is a row-major `brows × gy.cols` buffer.
    /// The transpose goes through `tscratch` once; later contributions
    /// compute into `pscratch` and add, matching the fresh-tensor-then-
    /// `add_scaled` float order of the node-allocated graph.
    // gfs-lint: hot(tape)
    fn matmul_transb(
        &mut self,
        idx: usize,
        gy: &Tensor,
        bmat: &[f64],
        brows: usize,
        tscratch: &mut Tensor,
        pscratch: &mut Tensor,
    ) {
        let (m, bcols) = gy.shape();
        let Some(first) = self.prep(idx, m, brows) else {
            return;
        };
        tscratch.resize_reuse(bcols, brows);
        transpose_slices(bmat, brows, bcols, tscratch.as_mut_slice());
        let bt = tscratch.as_slice();
        if first {
            let out = self.grads[idx].as_mut_slice();
            matmul_slices(gy.as_slice(), m, bcols, bt, brows, out, false);
        } else {
            pscratch.resize_reuse(m, brows);
            matmul_slices(
                gy.as_slice(),
                m,
                bcols,
                bt,
                brows,
                pscratch.as_mut_slice(),
                false,
            );
            self.grads[idx].add_scaled(pscratch, 1.0);
        }
    }

    /// Gradient contribution `slot (+)= amatᵀ · gy` (`∂w` of a matmul or
    /// affine map).
    // gfs-lint: hot(tape)
    fn matmul_transa(&mut self, idx: usize, amat: &Tensor, gy: &Tensor, pscratch: &mut Tensor) {
        let (m, k) = amat.shape();
        let ncols = gy.cols();
        debug_assert_eq!(gy.rows(), m, "matmul_transa inner dim");
        let Some(first) = self.prep(idx, k, ncols) else {
            return;
        };
        let (a, g) = (amat.as_slice(), gy.as_slice());
        if first {
            matmul_transa_slices(a, m, k, g, ncols, self.grads[idx].as_mut_slice(), false);
        } else {
            pscratch.resize_reuse(k, ncols);
            matmul_transa_slices(a, m, k, g, ncols, pscratch.as_mut_slice(), false);
            self.grads[idx].add_scaled(pscratch, 1.0);
        }
    }

    /// Gradient contribution `slot (+)= column sums of gy` (`∂b` of an
    /// affine map).
    // gfs-lint: hot(tape)
    fn colsum(&mut self, idx: usize, gy: &Tensor, pscratch: &mut Tensor) {
        let (rows, cols) = gy.shape();
        let gys = gy.as_slice();
        let Some(first) = self.prep(idx, 1, cols) else {
            return;
        };
        if first {
            colsum_into(gys, rows, cols, self.grads[idx].as_mut_slice());
        } else {
            pscratch.resize_reuse(1, cols);
            colsum_into(gys, rows, cols, pscratch.as_mut_slice());
            self.grads[idx].add_scaled(pscratch, 1.0);
        }
    }

    /// Adds a finished per-step scratch gradient into slot `idx` (assign
    /// on the first contribution, `add_scaled` after — the same order the
    /// node-per-step tape accumulated per-step weight gradients).
    // gfs-lint: hot(tape)
    fn add_scratch(&mut self, idx: TapeIndex, scratch: &Tensor) {
        let i = idx.ix();
        match self.state[i] {
            Grad::Pruned => {}
            Grad::Empty => {
                self.state[i] = Grad::Live;
                self.grads[i].copy_from(scratch);
            }
            Grad::Live => self.grads[i].add_scaled(scratch, 1.0),
        }
    }
}

/// `out[c] = Σ_r src[r, c]`, rows ascending (the bias-gradient reduction).
// gfs-lint: hot(tape)
fn colsum_into(src: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    out.iter_mut().for_each(|v| *v = 0.0);
    for r in 0..rows {
        for c in 0..cols {
            out[c] += src[r * cols + c];
        }
    }
}

/// Scatter-add `gy` rows into table rows `idxs` (embedding backward).
// gfs-lint: hot(tape)
fn scatter_rows(out: &mut [f64], dim: usize, idxs: &[u32], gys: &[f64]) {
    for (r, &idx) in idxs.iter().enumerate() {
        let trow = &mut out[idx as usize * dim..(idx as usize + 1) * dim];
        let grow = &gys[r * dim..(r + 1) * dim];
        for (o, g) in trow.iter_mut().zip(grow) {
            *o += g;
        }
    }
}

/// Write `gy` (`rows × gcols`) into columns `[start, start+gcols)` of a
/// zeroed `rows × cols` buffer (slice_cols backward).
// gfs-lint: hot(tape)
fn expand_cols(out: &mut [f64], cols: usize, start: usize, gys: &[f64], gcols: usize, rows: usize) {
    for r in 0..rows {
        out[r * cols + start..r * cols + start + gcols]
            .copy_from_slice(&gys[r * gcols..(r + 1) * gcols]);
    }
}

/// `out[r·cols..] += bias` for every row (the affine2 bias broadcast).
// gfs-lint: hot(tape)
fn add_bias_rows(out: &mut [f64], bias: &[f64], rows: usize, cols: usize) {
    for r in 0..rows {
        let row = &mut out[r * cols..(r + 1) * cols];
        for (o, bv) in row.iter_mut().zip(bias) {
            *o += bv;
        }
    }
}

/// Backward pass of one [`Graph::gru_scan`] node: reverse-time BPTT in
/// tight loops over the state's preallocated scratch. Per-step weight and
/// bias gradients go through per-step scratch tensors and are then added to
/// the tape grad slots, reproducing the exact accumulation order (and so
/// the exact float results) of the node-per-step tape; the hidden-state
/// gradient accumulates its four per-step contributions in the node-reverse
/// order of the unfused chain (blend, candidate-via-reset, reset gate,
/// update gate).
// gfs-lint: hot(tape)
fn gru_scan_backward(st: &mut GruScanState, values: &[Tensor], to: &mut Slots<'_>, gy: &Tensor) {
    let steps = st.steps as usize;
    let b = st.batch as usize;
    let in_dim = st.in_dim as usize;
    let hidden = st.hidden as usize;
    let bh = b * hidden;
    st.gh.copy_from(gy);
    st.ghp.resize_reuse(b, hidden);
    st.gz.resize_reuse(b, hidden);
    st.gr.resize_reuse(b, hidden);
    st.gcand.resize_reuse(b, hidden);
    st.gtmp.resize_reuse(b, hidden);
    st.rh.resize_reuse(b, hidden);
    st.step_gw.resize_reuse(in_dim, hidden);
    st.step_gu.resize_reuse(hidden, hidden);
    st.step_gb.resize_reuse(1, hidden);
    values[st.uz.ix()].transpose_into(&mut st.uzt);
    values[st.ur.ix()].transpose_into(&mut st.urt);
    values[st.uh.ix()].transpose_into(&mut st.uht);
    let xsv = values[st.xs.ix()].as_slice();
    for t in (0..steps).rev() {
        let x_t = &xsv[t * b * in_dim..(t + 1) * b * in_dim];
        let hp = &st.hs.as_slice()[t * bh..(t + 1) * bh];
        let zb = &st.zs.as_slice()[t * bh..(t + 1) * bh];
        let rb = &st.rs.as_slice()[t * bh..(t + 1) * bh];
        let cb = &st.cands.as_slice()[t * bh..(t + 1) * bh];
        let ghs = st.gh.as_slice();
        let ghps = st.ghp.as_mut_slice();
        let gzs = st.gz.as_mut_slice();
        let gcs = st.gcand.as_mut_slice();
        let grs = st.gr.as_mut_slice();
        // blend: ∂z = gh ⊙ (c − h), ∂h += gh ⊙ (1 − z)  [h contribution #1],
        // ∂c = gh ⊙ z, then tanh: ∂c_pre = ∂c ⊙ (1 − c²)
        for j in 0..bh {
            let g0 = ghs[j];
            gzs[j] = g0 * (cb[j] - hp[j]);
            ghps[j] = g0 * (1.0 - zb[j]);
            gcs[j] = g0 * zb[j];
        }
        for j in 0..bh {
            gcs[j] *= 1.0 - cb[j] * cb[j];
        }
        // candidate affine2 (x·W_h + (r⊙h)·U_h + b_h): ∂(r⊙h) = ∂c_pre · U_hᵀ
        matmul_slices(
            gcs,
            b,
            hidden,
            st.uht.as_slice(),
            hidden,
            st.gtmp.as_mut_slice(),
            false,
        );
        {
            let rhs = st.rh.as_mut_slice();
            for j in 0..bh {
                rhs[j] = rb[j] * hp[j];
            }
        }
        matmul_transa_slices(
            x_t,
            b,
            in_dim,
            gcs,
            hidden,
            st.step_gw.as_mut_slice(),
            false,
        );
        to.add_scratch(st.wh, &st.step_gw);
        matmul_transa_slices(
            st.rh.as_slice(),
            b,
            hidden,
            gcs,
            hidden,
            st.step_gu.as_mut_slice(),
            false,
        );
        to.add_scratch(st.uh, &st.step_gu);
        colsum_into(gcs, b, hidden, st.step_gb.as_mut_slice());
        to.add_scratch(st.bh, &st.step_gb);
        // r⊙h product: ∂r = ∂(r⊙h) ⊙ h, ∂h += ∂(r⊙h) ⊙ r  [#2]
        {
            let gts = st.gtmp.as_slice();
            for j in 0..bh {
                grs[j] = gts[j] * hp[j];
                ghps[j] += gts[j] * rb[j];
            }
        }
        // reset sigmoid: ∂r_pre = ∂r ⊙ r ⊙ (1 − r)
        for j in 0..bh {
            grs[j] = grs[j] * rb[j] * (1.0 - rb[j]);
        }
        // reset affine2: ∂h += ∂r_pre · U_rᵀ  [#3], then W_r/U_r/b_r grads
        matmul_slices(
            grs,
            b,
            hidden,
            st.urt.as_slice(),
            hidden,
            st.gtmp.as_mut_slice(),
            false,
        );
        {
            let gts = st.gtmp.as_slice();
            for j in 0..bh {
                ghps[j] += gts[j];
            }
        }
        matmul_transa_slices(
            x_t,
            b,
            in_dim,
            grs,
            hidden,
            st.step_gw.as_mut_slice(),
            false,
        );
        to.add_scratch(st.wr, &st.step_gw);
        matmul_transa_slices(hp, b, hidden, grs, hidden, st.step_gu.as_mut_slice(), false);
        to.add_scratch(st.ur, &st.step_gu);
        colsum_into(grs, b, hidden, st.step_gb.as_mut_slice());
        to.add_scratch(st.br, &st.step_gb);
        // update sigmoid: ∂z_pre = ∂z ⊙ z ⊙ (1 − z)
        for j in 0..bh {
            gzs[j] = gzs[j] * zb[j] * (1.0 - zb[j]);
        }
        // update affine2: ∂h += ∂z_pre · U_zᵀ  [#4], then W_z/U_z/b_z grads
        matmul_slices(
            gzs,
            b,
            hidden,
            st.uzt.as_slice(),
            hidden,
            st.gtmp.as_mut_slice(),
            false,
        );
        {
            let gts = st.gtmp.as_slice();
            for j in 0..bh {
                ghps[j] += gts[j];
            }
        }
        matmul_transa_slices(
            x_t,
            b,
            in_dim,
            gzs,
            hidden,
            st.step_gw.as_mut_slice(),
            false,
        );
        to.add_scratch(st.wz, &st.step_gw);
        matmul_transa_slices(hp, b, hidden, gzs, hidden, st.step_gu.as_mut_slice(), false);
        to.add_scratch(st.uz, &st.step_gu);
        colsum_into(gzs, b, hidden, st.step_gb.as_mut_slice());
        to.add_scratch(st.bz, &st.step_gb);
        std::mem::swap(&mut st.gh, &mut st.ghp);
    }
}

/// Numerically stable logistic sigmoid.
#[must_use]
pub fn sigmoid(x: f64) -> f64 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Numerically stable softplus `ln(1 + eˣ)`.
#[must_use]
pub fn softplus(x: f64) -> f64 {
    x.max(0.0) + (-x.abs()).exp().ln_1p()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finite_diff(f: impl Fn(f64) -> f64, x: f64) -> f64 {
        let h = 1e-6;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    /// `mean_all · len`: a sum whose backward seeds every input element
    /// with exactly 1.
    fn sum(g: &mut Graph, x: Var) -> Var {
        let (rows, cols) = g.value(x).shape();
        let m = g.mean_all(x);
        g.scale(m, (rows * cols) as f64)
    }

    #[test]
    fn add_mul_gradients() {
        // y = (a + b) * a, dy/da = 2a + b, dy/db = a
        let a = Param::new(Tensor::scalar(3.0));
        let b = Param::new(Tensor::scalar(5.0));
        let mut g = Graph::new();
        let av = g.param(&a);
        let bv = g.param(&b);
        let s = g.add(av, bv);
        let y = g.mul(s, av);
        assert_eq!(g.value(y).item(), 24.0);
        g.backward(y);
        assert_eq!(a.grad().item(), 11.0);
        assert_eq!(b.grad().item(), 3.0);
    }

    #[test]
    fn matmul_gradient() {
        // L = sum(A·B): dL/dA = 1·Bᵀ, dL/dB = Aᵀ·1
        let a = Param::new(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let b = Param::new(Tensor::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]));
        let mut g = Graph::new();
        let av = g.param(&a);
        let bv = g.param(&b);
        let p = g.matmul(av, bv);
        let loss = sum(&mut g, p);
        g.backward(loss);
        assert_eq!(a.grad().row_slice(0), &[11.0, 15.0]);
        assert_eq!(a.grad().row_slice(1), &[11.0, 15.0]);
        assert_eq!(b.grad().row_slice(0), &[4.0, 4.0]);
        assert_eq!(b.grad().row_slice(1), &[6.0, 6.0]);
    }

    #[test]
    fn unary_gradients_match_finite_difference() {
        type UnaryCase = (fn(&mut Graph, Var) -> Var, fn(f64) -> f64, f64);
        let cases: Vec<UnaryCase> = vec![
            (Graph::tanh, f64::tanh, 0.4),
            (Graph::sigmoid, sigmoid, -0.6),
        ];
        for (op, f, x0) in cases {
            let p = Param::new(Tensor::scalar(x0));
            let mut g = Graph::new();
            let x = g.param(&p);
            let y = op(&mut g, x);
            g.backward(y);
            let expected = finite_diff(f, x0);
            assert!(
                (p.grad().item() - expected).abs() < 1e-5,
                "gradient mismatch at {x0}: {} vs {expected}",
                p.grad().item()
            );
        }
    }

    #[test]
    fn relu_gradient_gates() {
        let p = Param::new(Tensor::row(&[-1.0, 2.0]));
        let mut g = Graph::new();
        let x = g.param(&p);
        let y = g.relu(x);
        let s = sum(&mut g, y);
        g.backward(s);
        assert_eq!(p.grad().as_slice(), &[0.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sums_to_one_and_grad_is_orthogonal() {
        let p = Param::new(Tensor::row(&[1.0, 2.0, 3.0]));
        let mut g = Graph::new();
        let x = g.param(&p);
        let y = g.softmax_rows(x);
        let row_sum: f64 = g.value(y).as_slice().iter().sum();
        assert!((row_sum - 1.0).abs() < 1e-12);
        // L = sum(softmax) == 1 identically, so the gradient must vanish.
        let s = sum(&mut g, y);
        g.backward(s);
        for &v in p.grad().as_slice() {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn concat_cols_splits_gradient() {
        let a = Param::new(Tensor::row(&[1.0]));
        let b = Param::new(Tensor::row(&[2.0, 3.0]));
        let mut g = Graph::new();
        let av = g.param(&a);
        let bv = g.param(&b);
        let c = g.concat_cols(&[av, bv]);
        let w = g.constant(Tensor::row(&[1.0, 10.0, 100.0]));
        let prod = g.mul(c, w);
        let s = sum(&mut g, prod);
        g.backward(s);
        assert_eq!(a.grad().as_slice(), &[1.0]);
        assert_eq!(b.grad().as_slice(), &[10.0, 100.0]);
    }

    #[test]
    fn embedding_scatters_gradient() {
        let table = Param::new(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]));
        let mut g = Graph::new();
        let t = g.param(&table);
        let e = g.embedding(t, &[2, 0, 2]);
        assert_eq!(g.value(e).row_slice(0), &[5.0, 6.0]);
        let s = sum(&mut g, e);
        g.backward(s);
        // row 2 gathered twice, row 0 once, row 1 never
        assert_eq!(table.grad().row_slice(0), &[1.0, 1.0]);
        assert_eq!(table.grad().row_slice(1), &[0.0, 0.0]);
        assert_eq!(table.grad().row_slice(2), &[2.0, 2.0]);
    }

    #[test]
    fn mean_all_divides_gradient() {
        let p = Param::new(Tensor::row(&[2.0, 4.0, 6.0, 8.0]));
        let mut g = Graph::new();
        let x = g.param(&p);
        let m = g.mean_all(x);
        assert_eq!(g.value(m).item(), 5.0);
        g.backward(m);
        assert_eq!(p.grad().as_slice(), &[0.25, 0.25, 0.25, 0.25]);
    }

    #[test]
    fn transpose_gradient_round_trips() {
        let p = Param::new(Tensor::from_rows(&[&[1.0, 2.0, 3.0]]));
        let mut g = Graph::new();
        let x = g.param(&p);
        let t = g.transpose(x);
        let w = g.constant(Tensor::col(&[1.0, 2.0, 3.0]));
        let prod = g.mul(t, w);
        let s = sum(&mut g, prod);
        g.backward(s);
        assert_eq!(p.grad().as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn reused_param_accumulates_gradients() {
        // y = w * w => dy/dw = 2w
        let w = Param::new(Tensor::scalar(4.0));
        let mut g = Graph::new();
        let w1 = g.param(&w);
        let w2 = g.param(&w);
        let y = g.mul(w1, w2);
        g.backward(y);
        assert_eq!(w.grad().item(), 8.0);
    }

    #[test]
    fn scale_value_and_gradient() {
        let p = Param::new(Tensor::scalar(3.0));
        let mut g = Graph::new();
        let x = g.param(&p);
        let y = g.scale(x, 2.0);
        assert_eq!(g.value(y).item(), 6.0);
        g.backward(y);
        assert_eq!(p.grad().item(), 2.0);
    }

    #[test]
    fn scale_rows_values_and_gradient() {
        let x = Param::new(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
        let c = Param::new(Tensor::col(&[10.0, 100.0]));
        let mut g = Graph::new();
        let xv = g.param(&x);
        let cv = g.param(&c);
        let y = g.scale_rows(xv, cv);
        assert_eq!(g.value(y).row_slice(0), &[10.0, 20.0]);
        assert_eq!(g.value(y).row_slice(1), &[300.0, 400.0]);
        let s = sum(&mut g, y);
        g.backward(s);
        assert_eq!(x.grad().row_slice(0), &[10.0, 10.0]);
        assert_eq!(x.grad().row_slice(1), &[100.0, 100.0]);
        assert_eq!(c.grad().as_slice(), &[3.0, 7.0]);
    }

    #[test]
    fn slice_cols_values_and_gradient() {
        let x = Param::new(Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]));
        let mut g = Graph::new();
        let xv = g.param(&x);
        let y = g.slice_cols(xv, 1, 2);
        assert_eq!(g.value(y).row_slice(0), &[2.0, 3.0]);
        let s = sum(&mut g, y);
        g.backward(s);
        assert_eq!(x.grad().row_slice(0), &[0.0, 1.0, 1.0]);
        assert_eq!(x.grad().row_slice(1), &[0.0, 1.0, 1.0]);
    }

    #[test]
    fn gaussian_nll_softplus_matches_closed_form() {
        let (mu, pre, y, floor) = (0.5, -0.3, 2.0, 1e-3);
        let m = Param::new(Tensor::scalar(mu));
        let mut g = Graph::new();
        let mv = g.param(&m);
        let pv = g.constant(Tensor::scalar(pre));
        let yv = g.constant(Tensor::scalar(y));
        let l = g.gaussian_nll_softplus(mv, pv, yv, floor);
        let sigma = softplus(pre) + floor;
        let z = (y - mu) / sigma;
        let expected = sigma.ln() + 0.5 * z * z + 0.5 * (2.0 * std::f64::consts::PI).ln();
        assert!((g.value(l).item() - expected).abs() < 1e-12);
        g.backward(l);
        assert!(m.grad().item() < 0.0, "descent pulls mu toward the target");
    }

    #[test]
    fn stable_activations_do_not_overflow() {
        assert!(softplus(1_000.0).is_finite());
        assert!(softplus(-1_000.0) >= 0.0);
        assert!((sigmoid(1_000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1_000.0) >= 0.0);
    }

    #[test]
    fn reset_replays_without_reallocation_and_regrads() {
        let w = Param::new(Tensor::row(&[2.0, 3.0]));
        let mut g = Graph::new();
        for step in 0..3 {
            g.reset();
            let x = g.constant_slot(1, 2);
            g.slot_mut(x).copy_from_slice(&[1.0 + step as f64, 1.0]);
            let wv = g.param(&w);
            let y = g.mul(x, wv);
            let s = g.mean_all(y);
            g.backward(s);
            assert_eq!(g.len(), 4);
        }
        // grads accumulated over three replays: x0 = (1,1)+(2,1)+(3,1),
        // halved by the mean
        assert_eq!(w.grad().as_slice(), &[3.0, 1.5]);
    }

    #[test]
    fn reset_releases_param_shares() {
        let w = Param::new(Tensor::scalar(2.0));
        let mut g = Graph::new();
        let wv = g.param(&w);
        let y = g.scale(wv, 3.0);
        let _ = g.value(y);
        g.finish();
        // an in-place update must not observe the graph's released share
        w.update(|v, _| v + 1.0);
        assert_eq!(w.value().item(), 3.0);
        g.reset();
        let wv = g.param(&w);
        assert_eq!(g.value(wv).item(), 3.0);
    }

    #[test]
    fn two_slots_mut_are_disjoint() {
        let mut g = Graph::new();
        let a = g.constant_slot(1, 2);
        let b = g.constant_slot(1, 2);
        let (sa, sb) = g.two_slots_mut(a, b);
        sa.copy_from_slice(&[1.0, 2.0]);
        sb.copy_from_slice(&[3.0, 4.0]);
        assert_eq!(g.value(a).as_slice(), &[1.0, 2.0]);
        assert_eq!(g.value(b).as_slice(), &[3.0, 4.0]);
    }
}
