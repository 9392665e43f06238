//! Dense 2-D tensors of `f64` with copy-on-write storage.
//!
//! Every quantity in the forecasting stack — sequences, embeddings, weight
//! matrices — is a row-major matrix. Vectors are represented as `1 × n` or
//! `n × 1` matrices, scalars as `1 × 1`.
//!
//! Storage is an `Rc<Vec<f64>>`: cloning a tensor is a reference-count bump,
//! and the first mutation of a shared tensor copies the buffer
//! ([`Rc::make_mut`]). This is what lets the tape arena share parameter
//! values with the optimizer without per-batch weight clones — see the
//! crate-level docs.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::rc::Rc;

use rand::Rng;

/// Rows of the RHS processed per tile of the blocked kernel: a tile of
/// `KC × n` B-rows stays hot in L1/L2 while every output row streams
/// over it.
const MATMUL_KC: usize = 64;

/// `a·b + c` with one rounding, on every target. The forecaster pins
/// (`PINS`: `loss.*`, the golden reports) hold these bits, so the fused
/// operation is the kernel's definition, not a build option: with an
/// FMA unit (`-C target-cpu=x86-64-v3`, see `.cargo/config.toml`) it is
/// one instruction; without one, `f64::mul_add` is libm's correctly
/// rounded `fma` — the same bits, only slower (`just portable`).
#[inline(always)]
fn fmadd(a: f64, b: f64, c: f64) -> f64 {
    a.mul_add(b, c)
}

/// The blocked axpy kernel shared by all matmul entry points:
/// `out_row += Σ a[kb..] · b_row[kb..]` over one tile of `k`. Unrolled
/// four B-rows deep so the output row stays in registers across four
/// accumulations (quartering load/store traffic) while keeping the
/// exact k-ascending accumulation order of the naive kernel.
// gfs-lint: hot(tape)
#[inline]
fn axpy_tile(out_row: &mut [f64], a_row: &[f64], b: &[f64], n: usize, kb: usize, kend: usize) {
    let mut kk = kb;
    while kk + 4 <= kend {
        let (a0, a1, a2, a3) = (a_row[kk], a_row[kk + 1], a_row[kk + 2], a_row[kk + 3]);
        let b0 = &b[kk * n..kk * n + n];
        let b1 = &b[(kk + 1) * n..(kk + 1) * n + n];
        let b2 = &b[(kk + 2) * n..(kk + 2) * n + n];
        let b3 = &b[(kk + 3) * n..(kk + 3) * n + n];
        for j in 0..n {
            let mut o = out_row[j];
            o = fmadd(a0, b0[j], o);
            o = fmadd(a1, b1[j], o);
            o = fmadd(a2, b2[j], o);
            o = fmadd(a3, b3[j], o);
            out_row[j] = o;
        }
        kk += 4;
    }
    while kk < kend {
        let a = a_row[kk];
        let b_row = &b[kk * n..(kk + 1) * n];
        for (o, bv) in out_row.iter_mut().zip(b_row) {
            *o = fmadd(a, *bv, *o);
        }
        kk += 1;
    }
}

/// Widest output (columns of `out`) the register-blocked thin kernels
/// serve; wider products take the general blocked kernels.
const THIN_MAX: usize = 8;

/// LHS rows the thin forward kernel carries per sweep.
const FWD_ROWS: usize = 4;

/// Output rows the thin `aᵀ · b` kernel carries per sweep.
const TRANSA_ROWS: usize = 8;

/// Signature shared by the thin kernels, indexed by output width.
type ThinKernel = fn(&[f64], usize, usize, &[f64], &mut [f64], bool);

/// Thin forward kernels for `n = 1..=THIN_MAX`.
const THIN_FWD: [ThinKernel; THIN_MAX] = [
    thin_fwd::<1>,
    thin_fwd::<2>,
    thin_fwd::<3>,
    thin_fwd::<4>,
    thin_fwd::<5>,
    thin_fwd::<6>,
    thin_fwd::<7>,
    thin_fwd::<8>,
];

/// Thin `aᵀ · b` kernels for `n = 1..=THIN_MAX`.
const THIN_TRANSA: [ThinKernel; THIN_MAX] = [
    thin_transa::<1>,
    thin_transa::<2>,
    thin_transa::<3>,
    thin_transa::<4>,
    thin_transa::<5>,
    thin_transa::<6>,
    thin_transa::<7>,
    thin_transa::<8>,
];

/// Slice-level matmul: `out (+)= a · b` with `a` an `m × k` and `b` a
/// `k × n` row-major buffer. With `accumulate == false` the output is
/// overwritten and the result is bit-identical to [`Tensor::matmul`]; with
/// `accumulate == true` the product is added on top of the existing values
/// in the same k-ascending order as [`Tensor::add_matmul`].
///
/// Outputs of at most `THIN_MAX` columns go to [`thin_fwd`], every other
/// shape to [`matmul_general`]; both run each output element as the same
/// k-ascending chain of `fmadd`s, so the choice never changes a bit.
///
/// This is the entry point the fused GRU scan drives directly over
/// preallocated scratch, bypassing tensor construction entirely.
// gfs-lint: hot(tape)
pub(crate) fn matmul_slices(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * k, "matmul_slices lhs length");
    debug_assert_eq!(b.len(), k * n, "matmul_slices rhs length");
    debug_assert_eq!(out.len(), m * n, "matmul_slices out length");
    match n {
        1..=THIN_MAX => THIN_FWD[n - 1](a, m, k, b, out, accumulate),
        _ => matmul_general(a, m, k, b, n, out, accumulate),
    }
}

/// The general blocked kernel behind [`matmul_slices`]: k is tiled by
/// `MATMUL_KC` and every output row runs one axpy per tile. Serves
/// outputs wider than `THIN_MAX` and is the oracle of the thin kernels.
// gfs-lint: hot(tape)
pub(crate) fn matmul_general(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    accumulate: bool,
) {
    if !accumulate {
        out.iter_mut().for_each(|v| *v = 0.0);
    }
    let mut kb = 0;
    while kb < k {
        let kend = (kb + MATMUL_KC).min(k);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            axpy_tile(out_row, a_row, b, n, kb, kend);
        }
        kb = kend;
    }
}

/// Slice-level `out (+)= aᵀ · b` without materializing the transpose
/// (`a` is `m × k` so the product is `k × n`). Same i-ascending
/// accumulation order as [`Tensor::matmul_transa`], so overwriting a
/// zeroed buffer is bit-identical to it.
///
/// Every output element is one i-ascending chain: `fmadd` over the row
/// quartets `i < m − m % 4`, then an unfused `+= a·b` per tail row.
/// Outputs of at most `THIN_MAX` columns go to [`thin_transa`], the rest
/// to [`matmul_transa_general`]; both keep that chain.
// gfs-lint: hot(tape)
pub(crate) fn matmul_transa_slices(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    accumulate: bool,
) {
    debug_assert_eq!(a.len(), m * k, "matmul_transa_slices lhs length");
    debug_assert_eq!(b.len(), m * n, "matmul_transa_slices rhs length");
    debug_assert_eq!(out.len(), k * n, "matmul_transa_slices out length");
    match n {
        1..=THIN_MAX => THIN_TRANSA[n - 1](a, m, k, b, out, accumulate),
        _ => matmul_transa_general(a, m, k, b, n, out, accumulate),
    }
}

/// The general kernel behind [`matmul_transa_slices`]: four LHS rows per
/// pass over every output row. Serves outputs wider than `THIN_MAX` and
/// is the oracle of the thin kernels.
// gfs-lint: hot(tape)
pub(crate) fn matmul_transa_general(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    out: &mut [f64],
    accumulate: bool,
) {
    if !accumulate {
        out.iter_mut().for_each(|v| *v = 0.0);
    }
    // four LHS rows per pass so each output row is loaded/stored once
    // per quartet; sequential adds keep the i-ascending accumulation
    // order of the plain loop
    let mut i = 0;
    while i + 4 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let r0 = &b[i * n..(i + 1) * n];
        let r1 = &b[(i + 1) * n..(i + 2) * n];
        let r2 = &b[(i + 2) * n..(i + 3) * n];
        let r3 = &b[(i + 3) * n..(i + 4) * n];
        for kk in 0..k {
            let out_row = &mut out[kk * n..(kk + 1) * n];
            let (c0, c1, c2, c3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
            for j in 0..n {
                let mut o = out_row[j];
                o = fmadd(c0, r0[j], o);
                o = fmadd(c1, r1[j], o);
                o = fmadd(c2, r2[j], o);
                o = fmadd(c3, r3[j], o);
                out_row[j] = o;
            }
        }
        i += 4;
    }
    while i < m {
        let a_row = &a[i * k..(i + 1) * k];
        let rhs_row = &b[i * n..(i + 1) * n];
        for (kk, &av) in a_row.iter().enumerate() {
            let out_row = &mut out[kk * n..(kk + 1) * n];
            for (o, bv) in out_row.iter_mut().zip(rhs_row) {
                *o += av * bv;
            }
        }
        i += 1;
    }
}

/// Thin forward kernel, `out (+)= a · b` for `N ≤ THIN_MAX` output
/// columns. Four LHS rows ride in a fixed `4 × N` accumulator array
/// through one k-ascending sweep, so four independent `fmadd` chains per
/// column are in flight where the general kernel runs one output row's
/// chain at a time. Each element keeps the general kernel's chain.
// gfs-lint: hot(tape)
fn thin_fwd<const N: usize>(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    out: &mut [f64],
    accumulate: bool,
) {
    let mut i = 0;
    while i + FWD_ROWS <= m {
        let rows = &a[i * k..(i + FWD_ROWS) * k];
        let out_rows = &mut out[i * N..(i + FWD_ROWS) * N];
        thin_fwd_rows::<FWD_ROWS, N>(rows, k, b, out_rows, accumulate);
        i += FWD_ROWS;
    }
    while i < m {
        let row = &a[i * k..(i + 1) * k];
        thin_fwd_rows::<1, N>(row, k, b, &mut out[i * N..(i + 1) * N], accumulate);
        i += 1;
    }
}

/// `R` rows of [`thin_fwd`]: `a` is `R × k`, `out` is `R × N`.
// gfs-lint: hot(tape)
#[inline(always)]
fn thin_fwd_rows<const R: usize, const N: usize>(
    a: &[f64],
    k: usize,
    b: &[f64],
    out: &mut [f64],
    accumulate: bool,
) {
    let mut acc = [[0.0; N]; R];
    if accumulate {
        for (row, o) in acc.iter_mut().zip(out.chunks_exact(N)) {
            row.copy_from_slice(o);
        }
    }
    #[cfg(debug_assertions)]
    let init = acc;
    let rows: [&[f64]; R] = std::array::from_fn(|r| &a[r * k..(r + 1) * k]);
    for kk in 0..k {
        let brow: &[f64; N] = b[kk * N..(kk + 1) * N].try_into().expect("N columns");
        for (row, lhs) in acc.iter_mut().zip(&rows) {
            let av = lhs[kk];
            for (o, &bv) in row.iter_mut().zip(brow) {
                *o = fmadd(av, bv, *o);
            }
        }
    }
    for (row, o) in acc.iter().zip(out.chunks_exact_mut(N)) {
        o.copy_from_slice(row);
    }
    #[cfg(debug_assertions)]
    oracle::fwd(a, k, b, &init, &acc);
}

/// Thin `out (+)= aᵀ · b` kernel for `N ≤ THIN_MAX` output columns. Eight
/// output rows (columns of `a`) ride in a fixed `8 × N` accumulator array
/// through one i-ascending sweep, so eight independent chains per column
/// are in flight. The general kernel's split is kept: `fmadd` over the
/// row quartets, unfused `+= a·b` for the `m % 4` tail rows.
// gfs-lint: hot(tape)
fn thin_transa<const N: usize>(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    out: &mut [f64],
    accumulate: bool,
) {
    let mut c = 0;
    while c + TRANSA_ROWS <= k {
        let out_rows = &mut out[c * N..(c + TRANSA_ROWS) * N];
        thin_transa_cols::<TRANSA_ROWS, N>(a, m, k, c, b, out_rows, accumulate);
        c += TRANSA_ROWS;
    }
    while c < k {
        thin_transa_cols::<1, N>(a, m, k, c, b, &mut out[c * N..(c + 1) * N], accumulate);
        c += 1;
    }
}

/// Output rows `[c0, c0 + R)` of [`thin_transa`]; `out` is `R × N`.
// gfs-lint: hot(tape)
#[inline(always)]
fn thin_transa_cols<const R: usize, const N: usize>(
    a: &[f64],
    m: usize,
    k: usize,
    c0: usize,
    b: &[f64],
    out: &mut [f64],
    accumulate: bool,
) {
    let mut acc = [[0.0; N]; R];
    if accumulate {
        for (row, o) in acc.iter_mut().zip(out.chunks_exact(N)) {
            row.copy_from_slice(o);
        }
    }
    #[cfg(debug_assertions)]
    let init = acc;
    let row_pair = |i: usize| -> (&[f64; R], &[f64; N]) {
        let lhs = a[i * k + c0..i * k + c0 + R].try_into().expect("R columns");
        let rhs = b[i * N..(i + 1) * N].try_into().expect("N columns");
        (lhs, rhs)
    };
    // two loops, not a branch per row: a branchy body spills the
    // accumulators to the stack
    let quartets = m - m % 4;
    for i in 0..quartets {
        let (lhs, rhs) = row_pair(i);
        for (row, &av) in acc.iter_mut().zip(lhs) {
            for (o, &bv) in row.iter_mut().zip(rhs) {
                *o = fmadd(av, bv, *o);
            }
        }
    }
    for i in quartets..m {
        let (lhs, rhs) = row_pair(i);
        for (row, &av) in acc.iter_mut().zip(lhs) {
            for (o, &bv) in row.iter_mut().zip(rhs) {
                *o += av * bv;
            }
        }
    }
    for (row, o) in acc.iter().zip(out.chunks_exact_mut(N)) {
        o.copy_from_slice(row);
    }
    #[cfg(debug_assertions)]
    oracle::transa(a, m, k, c0, b, &init, &acc);
}

/// Debug-build oracle of the thin kernels: every block a thin kernel
/// finishes is recomputed by the general kernel from the same starting
/// values and compared bit for bit. Scratch lives on the stack, so the
/// check allocates nothing and a warm training step stays allocation-free
/// in debug builds too.
#[cfg(debug_assertions)]
mod oracle {
    use super::{matmul_general, matmul_transa_general, TRANSA_ROWS};

    /// LHS rows gathered per general-kernel call in [`transa`]. A multiple
    /// of four, so chunking keeps the general kernel's quartet/tail split.
    const CHUNK: usize = 64;

    /// Checks `got` (started from `init`) against the general forward
    /// kernel on the same `R` rows of `a`; rows are independent, so this
    /// equals the general kernel on the whole product.
    pub(super) fn fwd<const R: usize, const N: usize>(
        a: &[f64],
        k: usize,
        b: &[f64],
        init: &[[f64; N]; R],
        got: &[[f64; N]; R],
    ) {
        let mut want = *init;
        matmul_general(a, R, k, b, N, want.as_flattened_mut(), true);
        check("matmul_slices", &want, got);
    }

    /// Checks output rows `[c0, c0 + R)` of `aᵀ · b` against the general
    /// kernel run on those columns of `a`, gathered `CHUNK` rows at a time
    /// and accumulated chunk by chunk (the same i-ascending chain).
    pub(super) fn transa<const R: usize, const N: usize>(
        a: &[f64],
        m: usize,
        k: usize,
        c0: usize,
        b: &[f64],
        init: &[[f64; N]; R],
        got: &[[f64; N]; R],
    ) {
        let mut want = *init;
        let mut lhs = [0.0; CHUNK * TRANSA_ROWS];
        let mut i0 = 0;
        while i0 < m {
            let i1 = (i0 + CHUNK).min(m);
            for i in i0..i1 {
                let src = &a[i * k + c0..i * k + c0 + R];
                lhs[(i - i0) * R..(i - i0 + 1) * R].copy_from_slice(src);
            }
            let rows = i1 - i0;
            let rhs = &b[i0 * N..i1 * N];
            let out = want.as_flattened_mut();
            matmul_transa_general(&lhs[..rows * R], rows, R, rhs, N, out, true);
            i0 = i1;
        }
        check("matmul_transa_slices", &want, got);
    }

    fn check<const R: usize, const N: usize>(
        kernel: &str,
        want: &[[f64; N]; R],
        got: &[[f64; N]; R],
    ) {
        let (want, got) = (want.as_flattened(), got.as_flattened());
        for (w, g) in want.iter().zip(got) {
            assert_eq!(
                w.to_bits(),
                g.to_bits(),
                "{kernel}: thin kernel diverged from the general kernel ({w:e} vs {g:e})"
            );
        }
    }
}

/// Slice-level transpose of an `rows × cols` buffer into `out`.
// gfs-lint: hot(tape)
pub(crate) fn transpose_slices(src: &[f64], rows: usize, cols: usize, out: &mut [f64]) {
    debug_assert_eq!(src.len(), rows * cols, "transpose_slices src length");
    debug_assert_eq!(out.len(), rows * cols, "transpose_slices out length");
    for i in 0..rows {
        for j in 0..cols {
            out[j * rows + i] = src[i * cols + j];
        }
    }
}

/// A dense row-major matrix of `f64`.
///
/// Cloning is O(1) (a reference-count bump); the buffer is copied lazily on
/// the first mutation of a shared tensor.
///
/// # Examples
///
/// ```
/// use gfs_nn::Tensor;
///
/// let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
/// let b = Tensor::eye(2);
/// assert_eq!(a.matmul(&b), a);
/// assert_eq!(a[(1, 0)], 3.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Rc<Vec<f64>>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Tensor {
            rows,
            cols,
            data: Rc::new(vec![0.0; rows * cols]),
        }
    }

    /// Creates a tensor filled with a constant.
    #[must_use]
    pub fn full(rows: usize, cols: usize, value: f64) -> Self {
        Tensor {
            rows,
            cols,
            data: Rc::new(vec![value; rows * cols]),
        }
    }

    /// Creates the `n × n` identity matrix.
    #[must_use]
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(n, n);
        for i in 0..n {
            t[(i, i)] = 1.0;
        }
        t
    }

    /// Creates a tensor from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Tensor {
            rows,
            cols,
            data: Rc::new(data),
        }
    }

    /// Creates a tensor from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have inconsistent lengths or `rows` is empty.
    #[must_use]
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        assert!(!rows.is_empty(), "from_rows requires at least one row");
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            assert_eq!(r.len(), cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Tensor {
            rows: rows.len(),
            cols,
            data: Rc::new(data),
        }
    }

    /// Creates a `1 × n` row vector.
    #[must_use]
    pub fn row(values: &[f64]) -> Self {
        Tensor::from_vec(1, values.len(), values.to_vec())
    }

    /// Creates an `n × 1` column vector.
    #[must_use]
    pub fn col(values: &[f64]) -> Self {
        Tensor::from_vec(values.len(), 1, values.to_vec())
    }

    /// Creates a `1 × 1` scalar tensor.
    #[must_use]
    pub fn scalar(v: f64) -> Self {
        Tensor::from_vec(1, 1, vec![v])
    }

    /// Fills the tensor with samples from `U(-limit, limit)`.
    ///
    /// Samples carry 27 random mantissa bits (one `u32` draw each instead
    /// of a `u64`): ample resolution for weight initialisation at half the
    /// generator cost — tensor construction is RNG-bound and sits inside
    /// every model-build benchmark.
    #[must_use]
    pub fn uniform<R: Rng>(rows: usize, cols: usize, limit: f64, rng: &mut R) -> Self {
        let scale = 2.0 * limit / (1u32 << 27) as f64;
        let data = (0..rows * cols)
            .map(|_| {
                let v = (rng.next_u32() >> 5) as f64 * scale - limit;
                // the grid includes -limit exactly; keep the interval open
                if v <= -limit {
                    0.0
                } else {
                    v
                }
            })
            .collect();
        Tensor {
            rows,
            cols,
            data: Rc::new(data),
        }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[must_use]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Flat row-major view of the data.
    #[must_use]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major view of the data.
    ///
    /// If the buffer is shared with another tensor this copies it first
    /// (copy-on-write); on a uniquely-owned tensor it is free.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        Rc::make_mut(&mut self.data).as_mut_slice()
    }

    /// Whether this tensor's buffer is shared with another tensor
    /// (i.e. mutation would trigger a copy).
    #[must_use]
    pub fn is_shared(&self) -> bool {
        Rc::strong_count(&self.data) > 1
    }

    /// Reshapes the tensor in place to `rows × cols`, reusing the existing
    /// buffer allocation whenever its capacity suffices. Existing element
    /// values are **not** meaningful afterwards — callers are expected to
    /// overwrite the full buffer. Grows with zeros when the logical size
    /// increases.
    // gfs-lint: hot(tape)
    pub fn resize_reuse(&mut self, rows: usize, cols: usize) {
        let data = Rc::make_mut(&mut self.data);
        data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Copies `src` into `self`, reshaping and reusing the buffer.
    // gfs-lint: hot(tape)
    pub fn copy_from(&mut self, src: &Tensor) {
        let data = Rc::make_mut(&mut self.data);
        data.resize(src.rows * src.cols, 0.0);
        data.copy_from_slice(&src.data);
        self.rows = src.rows;
        self.cols = src.cols;
    }

    /// The single element of a `1 × 1` tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not `1 × 1`.
    #[must_use]
    pub fn item(&self) -> f64 {
        assert_eq!(self.shape(), (1, 1), "item() requires a 1x1 tensor");
        self.data[0]
    }

    /// Borrowed view of row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row_slice(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · rhs`.
    ///
    /// The kernel is a cache-blocked, register-unrolled row-major axpy:
    /// the inner dimension is processed in tiles of `MATMUL_KC`
    /// B-rows (so large right-hand sides stay cache-resident across output
    /// rows) and four B-rows are fused per pass so the output row lives in
    /// registers. Accumulation order per output element is exactly the
    /// k-ascending order of the textbook kernel, so results are
    /// bit-identical to it. Each output row's accumulation depends only on
    /// that LHS row, so batching extra rows into one call is bit-identical
    /// per row — the property the batched GDE forward relies on.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    #[must_use]
    pub fn matmul(&self, rhs: &Tensor) -> Tensor {
        self.matmul_impl(rhs, None)
    }

    /// Fused affine product `self · rhs + bias` for a `1 × rhs.cols` bias
    /// row broadcast over the output rows — one pass instead of a matmul
    /// followed by a broadcast add (the `xW + b` of every linear layer).
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree or the bias is not
    /// `1 × rhs.cols`.
    #[must_use]
    pub fn matmul_add(&self, rhs: &Tensor, bias: &Tensor) -> Tensor {
        assert_eq!(
            bias.shape(),
            (1, rhs.cols),
            "matmul_add bias must be 1x{}, got {:?}",
            rhs.cols,
            bias.shape()
        );
        self.matmul_impl(rhs, Some(bias))
    }

    /// In-place variant of [`Tensor::matmul_add`] writing into `out`
    /// (reshaped and reused) — the arena's allocation-free affine forward.
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    // gfs-lint: hot(tape)
    pub fn matmul_add_into(&self, rhs: &Tensor, bias: Option<&Tensor>, out: &mut Tensor) {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul_add_into dimension mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let (m, k, n) = (self.rows, self.cols, rhs.cols);
        out.resize_reuse(m, n);
        let out_data = Rc::make_mut(&mut out.data);
        match bias {
            Some(b) => {
                assert_eq!(b.shape(), (1, n), "matmul_add_into bias shape");
                for r in 0..m {
                    out_data[r * n..(r + 1) * n].copy_from_slice(&b.data);
                }
                matmul_slices(&self.data, m, k, &rhs.data, n, out_data, true);
            }
            None => matmul_slices(&self.data, m, k, &rhs.data, n, out_data, false),
        }
    }

    fn matmul_impl(&self, rhs: &Tensor, bias: Option<&Tensor>) -> Tensor {
        assert_eq!(
            self.cols,
            rhs.rows,
            "matmul dimension mismatch: {:?} x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Tensor::zeros(self.rows, rhs.cols);
        self.matmul_add_into(rhs, bias, &mut out);
        out
    }

    /// In-place `self += lhs · rhs`, reusing the blocked axpy kernel —
    /// lets fused ops accumulate a second product without an intermediate
    /// allocation (e.g. the GRU gate `xW + hU + b`).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    // gfs-lint: hot(tape)
    pub fn add_matmul(&mut self, lhs: &Tensor, rhs: &Tensor) {
        assert_eq!(lhs.cols, rhs.rows, "add_matmul inner dimension mismatch");
        assert_eq!(
            (self.rows, self.cols),
            (lhs.rows, rhs.cols),
            "add_matmul output shape mismatch"
        );
        let (m, k, n) = (lhs.rows, lhs.cols, rhs.cols);
        let out_data = Rc::make_mut(&mut self.data);
        matmul_slices(&lhs.data, m, k, &rhs.data, n, out_data, true);
    }

    /// `self · rhsᵀ` (used by backprop: `∂x = ∂y · Wᵀ`). Implemented as a
    /// cheap transposition pass into the blocked axpy kernel: a dot-product
    /// formulation that avoids the transpose was measured slower here,
    /// because the contiguous axpy loop vectorizes and the dots do not.
    ///
    /// # Panics
    ///
    /// Panics if the column counts disagree.
    #[must_use]
    pub fn matmul_transb(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.cols,
            rhs.cols,
            "matmul_transb dimension mismatch: {:?} x {:?}ᵀ",
            self.shape(),
            rhs.shape()
        );
        self.matmul_impl(&rhs.transposed(), None)
    }

    /// `selfᵀ · rhs` without materializing the transpose (used by
    /// backprop: `∂W = xᵀ · ∂y`). Accumulates scaled `rhs` rows, so every
    /// access is contiguous.
    ///
    /// # Panics
    ///
    /// Panics if the row counts disagree.
    #[must_use]
    pub fn matmul_transa(&self, rhs: &Tensor) -> Tensor {
        assert_eq!(
            self.rows,
            rhs.rows,
            "matmul_transa dimension mismatch: {:?}ᵀ x {:?}",
            self.shape(),
            rhs.shape()
        );
        let mut out = Tensor::zeros(self.cols, rhs.cols);
        let out_data = Rc::make_mut(&mut out.data);
        matmul_transa_slices(
            &self.data, self.rows, self.cols, &rhs.data, rhs.cols, out_data, true,
        );
        out
    }

    /// In-place `self += lhsᵀ · rhs` (the accumulating form of
    /// [`Tensor::matmul_transa`]; identical accumulation order, so running
    /// it on a zeroed tensor is bit-identical to the allocating form).
    ///
    /// # Panics
    ///
    /// Panics if the shapes are inconsistent.
    // gfs-lint: hot(tape)
    pub fn add_matmul_transa(&mut self, lhs: &Tensor, rhs: &Tensor) {
        assert_eq!(lhs.rows, rhs.rows, "add_matmul_transa row mismatch");
        assert_eq!(
            (self.rows, self.cols),
            (lhs.cols, rhs.cols),
            "add_matmul_transa output shape mismatch"
        );
        let out_data = Rc::make_mut(&mut self.data);
        matmul_transa_slices(
            &lhs.data, lhs.rows, lhs.cols, &rhs.data, rhs.cols, out_data, true,
        );
    }

    /// Transposed copy.
    #[must_use]
    pub fn transposed(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        let out_data = Rc::make_mut(&mut out.data);
        transpose_slices(&self.data, self.rows, self.cols, out_data);
        out
    }

    /// Transposes `self` into `out`, reshaping and reusing its buffer —
    /// the arena's allocation-free transpose (backprop keeps one transpose
    /// scratch per graph instead of allocating per `∂x = ∂y · Wᵀ`).
    // gfs-lint: hot(tape)
    pub fn transpose_into(&self, out: &mut Tensor) {
        out.resize_reuse(self.cols, self.rows);
        let out_data = Rc::make_mut(&mut out.data);
        transpose_slices(&self.data, self.rows, self.cols, out_data);
    }

    /// Element-wise map into a new tensor.
    #[must_use]
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: Rc::new(self.data.iter().map(|&v| f(v)).collect()),
        }
    }

    /// Element-wise combination of two same-shape tensors.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    #[must_use]
    pub fn zip(&self, rhs: &Tensor, f: impl Fn(f64, f64) -> f64) -> Tensor {
        assert_eq!(self.shape(), rhs.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: Rc::new(
                self.data
                    .iter()
                    .zip(rhs.data.iter())
                    .map(|(&a, &b)| f(a, b))
                    .collect(),
            ),
        }
    }

    /// In-place `self += scale * rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    // gfs-lint: hot(tape)
    pub fn add_scaled(&mut self, rhs: &Tensor, scale: f64) {
        assert_eq!(self.shape(), rhs.shape(), "add_scaled shape mismatch");
        let data = Rc::make_mut(&mut self.data);
        for (a, b) in data.iter_mut().zip(rhs.data.iter()) {
            *a += scale * b;
        }
    }

    /// Sets every element to zero.
    // gfs-lint: hot(tape)
    pub fn fill_zero(&mut self) {
        Rc::make_mut(&mut self.data)
            .iter_mut()
            .for_each(|v| *v = 0.0);
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f64
        }
    }

    /// Concatenates tensors left-to-right (they must share a row count).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or row counts differ.
    #[must_use]
    pub fn concat_cols(parts: &[&Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols requires at least one part");
        let rows = parts[0].rows;
        let cols: usize = parts.iter().map(|p| p.cols).sum();
        let mut out = Tensor::zeros(rows, cols);
        let out_data = Rc::make_mut(&mut out.data);
        for r in 0..rows {
            let mut offset = 0;
            for p in parts {
                assert_eq!(p.rows, rows, "concat_cols row mismatch");
                out_data[r * cols + offset..r * cols + offset + p.cols]
                    .copy_from_slice(p.row_slice(r));
                offset += p.cols;
            }
        }
        out
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }
}

impl Index<(usize, usize)> for Tensor {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Tensor {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        let cols = self.cols;
        &mut Rc::make_mut(&mut self.data)[r * cols + c]
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Tensor {}x{} [", self.rows, self.cols)?;
        for r in 0..self.rows.min(8) {
            write!(f, "  ")?;
            for c in 0..self.cols.min(8) {
                write!(f, "{:9.4} ", self[(r, c)])?;
            }
            writeln!(f, "{}", if self.cols > 8 { "…" } else { "" })?;
        }
        if self.rows > 8 {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn construction_and_shape() {
        let t = Tensor::zeros(2, 3);
        assert_eq!(t.shape(), (2, 3));
        assert_eq!(t.len(), 6);
        assert!(!t.is_empty());
        assert_eq!(Tensor::scalar(5.0).item(), 5.0);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(a.matmul(&Tensor::eye(2)), a);
        assert_eq!(Tensor::eye(2).matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = Tensor::from_rows(&[&[4.0], &[5.0], &[6.0]]);
        assert_eq!(a.matmul(&b).item(), 32.0);
    }

    #[test]
    #[should_panic(expected = "matmul dimension mismatch")]
    fn matmul_checks_dims() {
        let _ = Tensor::zeros(2, 3).matmul(&Tensor::zeros(2, 3));
    }

    /// Reference naive product for cross-checking the fast kernels.
    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                for k in 0..a.cols() {
                    out[(i, j)] += a[(i, k)] * b[(k, j)];
                }
            }
        }
        out
    }

    fn random(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        Tensor::uniform(rows, cols, 1.0, &mut rng)
    }

    /// Full-mantissa values: the 27-bit samples of [`Tensor::uniform`]
    /// multiply exactly, so they cannot tell a fused multiply-add from an
    /// unfused one.
    fn dense_random(rows: usize, cols: usize, seed: u64) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect()
    }

    fn assert_close(a: &Tensor, b: &Tensor) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn blocked_matmul_matches_naive_across_size_regimes() {
        // spans the small-path/packed-path threshold and odd shapes that
        // exercise the unrolled-dot remainder handling
        for (m, k, n) in [(1, 1, 1), (3, 5, 7), (8, 8, 8), (17, 33, 9), (40, 64, 40)] {
            let a = random(m, k, 11);
            let b = random(k, n, 13);
            assert_close(&a.matmul(&b), &naive_matmul(&a, &b));
        }
    }

    /// The thin kernels (`n ≤ THIN_MAX`) and the general kernels agree bit
    /// for bit across the row-block tail (`m % 4`, `m < 4`), the column
    /// blocks of `aᵀ · b` (`k % 8`) and the `MATMUL_KC` tile edge, with and
    /// without accumulation. `n = 9` checks the dispatch boundary.
    #[test]
    fn thin_kernels_are_bit_identical_to_the_general_kernels() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut seed = 100;
        for m in 1..=9 {
            for k in [1, 3, 4, 5, 63, 64, 65, 130, 186] {
                for n in 1..=9 {
                    for accumulate in [false, true] {
                        seed += 1;
                        let a = dense_random(m, k, seed);
                        let case = format!("m={m} k={k} n={n} accumulate={accumulate}");

                        let rhs = dense_random(k, n, seed + 5_000);
                        let mut thin = dense_random(m, n, seed + 10_000);
                        let mut general = thin.clone();
                        matmul_slices(&a, m, k, &rhs, n, &mut thin, accumulate);
                        matmul_general(&a, m, k, &rhs, n, &mut general, accumulate);
                        assert_eq!(bits(&thin), bits(&general), "matmul_slices {case}");

                        let rhs = dense_random(m, n, seed + 15_000);
                        let mut thin = dense_random(k, n, seed + 20_000);
                        let mut general = thin.clone();
                        matmul_transa_slices(&a, m, k, &rhs, n, &mut thin, accumulate);
                        matmul_transa_general(&a, m, k, &rhs, n, &mut general, accumulate);
                        assert_eq!(bits(&thin), bits(&general), "matmul_transa {case}");
                    }
                }
            }
        }
    }

    #[test]
    fn matmul_add_fuses_bias() {
        let a = random(9, 31, 3);
        let b = random(31, 12, 4);
        let bias = random(1, 12, 5);
        let fused = a.matmul_add(&b, &bias);
        let mut reference = naive_matmul(&a, &b);
        for r in 0..reference.rows() {
            for c in 0..reference.cols() {
                reference[(r, c)] += bias[(0, c)];
            }
        }
        assert_close(&fused, &reference);
    }

    #[test]
    fn transposed_variants_match_explicit_transposition() {
        let a = random(7, 13, 6);
        let b = random(9, 13, 7); // for A · Bᵀ
        assert_close(&a.matmul_transb(&b), &a.matmul(&b.transposed()));
        let c = random(7, 11, 8); // for Aᵀ · C
        assert_close(&a.matmul_transa(&c), &a.transposed().matmul(&c));
    }

    #[test]
    fn into_variants_are_bit_identical_to_allocating_forms() {
        let a = random(6, 19, 21);
        let b = random(19, 5, 22);
        let bias = random(1, 5, 23);
        let mut out = Tensor::zeros(1, 1); // wrong shape on purpose: must reshape
        a.matmul_add_into(&b, None, &mut out);
        assert_eq!(out, a.matmul(&b));
        a.matmul_add_into(&b, Some(&bias), &mut out);
        assert_eq!(out, a.matmul_add(&b, &bias));
        let c = random(6, 4, 24);
        let mut acc = Tensor::zeros(19, 4);
        acc.add_matmul_transa(&a, &c);
        assert_eq!(acc, a.matmul_transa(&c));
        let mut tr = Tensor::zeros(2, 2);
        a.transpose_into(&mut tr);
        assert_eq!(tr, a.transposed());
    }

    #[test]
    fn dense_rows_no_longer_short_circuit_zeros() {
        // the old kernel skipped a == 0.0 rows; ensure zero-heavy inputs
        // still produce exact results through both paths
        let mut a = random(20, 20, 9);
        for i in 0..a.len() / 2 {
            a.as_mut_slice()[i * 2] = 0.0;
        }
        let b = random(20, 20, 10);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b));
    }

    #[test]
    fn transpose_round_trip() {
        let a = Tensor::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transposed().transposed(), a);
        assert_eq!(a.transposed().shape(), (3, 2));
        assert_eq!(a.transposed()[(2, 1)], 6.0);
    }

    #[test]
    fn map_and_zip() {
        let a = Tensor::row(&[1.0, -2.0]);
        assert_eq!(a.map(f64::abs).as_slice(), &[1.0, 2.0]);
        let b = Tensor::row(&[10.0, 20.0]);
        assert_eq!(a.zip(&b, |x, y| x + y).as_slice(), &[11.0, 18.0]);
    }

    #[test]
    fn add_scaled_accumulates() {
        let mut a = Tensor::row(&[1.0, 1.0]);
        a.add_scaled(&Tensor::row(&[2.0, 4.0]), 0.5);
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
    }

    #[test]
    fn concat_cols_orders_parts() {
        let a = Tensor::from_rows(&[&[1.0], &[3.0]]);
        let b = Tensor::from_rows(&[&[2.0, 2.5], &[4.0, 4.5]]);
        let c = Tensor::concat_cols(&[&a, &b]);
        assert_eq!(c.shape(), (2, 3));
        assert_eq!(c.row_slice(0), &[1.0, 2.0, 2.5]);
        assert_eq!(c.row_slice(1), &[3.0, 4.0, 4.5]);
    }

    #[test]
    fn sum_mean_norm() {
        let a = Tensor::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.sum(), 7.0);
        assert_eq!(a.mean(), 3.5);
        assert!((a.norm() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_respects_limit() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let t = Tensor::uniform(10, 10, 0.3, &mut rng);
        assert!(t.as_slice().iter().all(|v| v.abs() < 0.3));
    }

    #[test]
    fn index_mut_writes() {
        let mut t = Tensor::zeros(2, 2);
        t[(0, 1)] = 9.0;
        assert_eq!(t[(0, 1)], 9.0);
    }

    #[test]
    fn clone_is_shared_until_written() {
        let a = Tensor::row(&[1.0, 2.0]);
        let mut b = a.clone();
        assert!(a.is_shared() && b.is_shared());
        b.as_mut_slice()[0] = 9.0; // copy-on-write detaches b
        assert!(!a.is_shared() && !b.is_shared());
        assert_eq!(a.as_slice(), &[1.0, 2.0]);
        assert_eq!(b.as_slice(), &[9.0, 2.0]);
    }

    #[test]
    fn resize_reuse_keeps_capacity() {
        let mut t = Tensor::zeros(8, 8);
        let cap_ptr = t.as_slice().as_ptr();
        t.resize_reuse(4, 4);
        assert_eq!(t.shape(), (4, 4));
        assert_eq!(
            t.as_slice().as_ptr(),
            cap_ptr,
            "shrink must reuse the buffer"
        );
        t.resize_reuse(8, 8);
        assert_eq!(
            t.as_slice().as_ptr(),
            cap_ptr,
            "regrow within capacity must reuse"
        );
    }

    #[test]
    fn display_is_nonempty() {
        assert!(!Tensor::zeros(1, 1).to_string().is_empty());
    }
}
