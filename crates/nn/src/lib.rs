//! A minimal reverse-mode autodiff tensor library on an index-based
//! tape arena.
//!
//! This crate is the numerical substrate for the GFS demand forecasters
//! (`gfs-forecast`). The paper trains OrgLinear and six baselines with
//! PyTorch; here everything — dense tensors, a flat tape, layers, the
//! Adam optimizer and losses — is implemented from scratch in safe Rust so
//! the whole reproduction is dependency-light and deterministic.
//!
//! # Tape architecture
//!
//! [`Graph`] is not a pointer-linked graph but a **tape arena**: a flat
//! `Vec<Op>` of data-only op descriptors plus a parallel values arena of
//! [`Tensor`]s, both addressed by the [`TapeIndex`] newtype ([`Var`] is
//! an alias). Recording an op pushes one enum value and one result
//! tensor — no per-node heap allocation, no boxed closures, no `Rc`
//! graph edges. The backward pass is a single reverse walk over the
//! tape with a `match` per op.
//!
//! ## Arena lifecycle
//!
//! A `Graph` is built once and **reused across batches**:
//!
//! 1. [`Graph::reset`] rewinds the tape to length zero but keeps every
//!    buffer (ops, values, gradients, scratch, the shared operand pool),
//!    so a warm batch re-records into memory allocated by the first.
//!    The `forecast-alloc-gate` CI lane pins this: a steady-state
//!    training step (forward + loss + backward + Adam) performs **zero**
//!    heap allocations.
//! 2. [`Graph::constant_slot`] hands back a reusable input slot whose
//!    contents the caller overwrites via [`Graph::slot_mut`] — batch
//!    data is written in place rather than copied from a fresh tensor.
//! 3. [`Graph::param`] shares a [`Param`]'s tensor copy-on-write; the
//!    share is released by [`Graph::backward`] (training) or
//!    [`Graph::finish`] (inference) so the optimizer's in-place update
//!    never clones weights.
//!
//! ## `TapeIndex` invariants
//!
//! A [`TapeIndex`] is only meaningful for the `Graph` that issued it,
//! and only until that graph's next [`Graph::reset`]; indices are dense
//! and monotonically increasing in recording order, so an op's operands
//! always precede it on the tape. Using a stale index panics (or reads
//! a stale slot) rather than corrupting memory — the arena is fully
//! safe code — but it is still a logic error; the `gfs_lint`
//! `tape-alloc` rule and the gradient-check suite guard the hot paths.
//!
//! ## Fusion and float reassociation
//!
//! The contract is **per-element accumulation order**: every output
//! element of every kernel and op is one fixed chain of float operations
//! over its inputs, and no change may alter that chain. How elements are
//! grouped, blocked or vectorised is free — only the chain is pinned,
//! because golden tests pin training trajectories bit-for-bit. The
//! chains are:
//!
//! - a matrix product `a · b`: starting from the output's initial value
//!   (zero, or the bias), one `fmadd` per inner index, ascending;
//! - `aᵀ · b` (weight gradients): i ascending, `fmadd` over the row
//!   quartets `i < m − m % 4`, then an unfused `+= a·b` per tail row;
//! - the second and later gradient contributions to a node are computed
//!   apart and added, in reverse tape order.
//!
//! This is what makes the kernels legal. Products with at most eight
//! output columns run on thin kernels that carry four rows (or eight
//! weight-gradient rows) in fixed-size accumulator arrays, so several
//! independent chains are in flight; debug builds recompute every thin
//! block with the general kernel and compare bits.
//!
//! The tape records only the ops a model or a reference chain uses. The
//! fused ones evaluate the chains of the op sequences they replace, just
//! without materialising intermediates on the tape:
//!
//! - `affine_cat`, the affine map `[p₀ p₁ …] · w + b` of every linear
//!   layer (one part is the plain `x · w + b`), accumulating its parts in
//!   column order — the chain of `concat_cols` followed by a one-part
//!   `affine_cat`;
//! - `affine2` (`x · w + h · u + b`) and `blend`, the GRU gate and state
//!   mix of [`GruCell::step`], the reference chain of the scan;
//! - `gaussian_nll_softplus`, the Gaussian NLL of Eq. 7–8 with
//!   `σ = softplus(pre) + floor`, the loss of both Gaussian heads;
//! - the sequence-level GRU scan [`GruCell::scan`].
//!
//! `tests/grad_check.rs` checks every op's gradients — fused or not —
//! against central differences, and pins `gru_scan` and `affine_cat`
//! bit-identical — values and gradients — to their unfused chains. The
//! free [`softplus`] and [`sigmoid`] are the scalar forms of the tape's
//! activations; the forecasters apply `softplus` to a Gaussian head's
//! σ outside the tape. The one deliberate
//! reassociation in the stack lives outside this crate: the forecast
//! decomposition's prefix-sum moving average, documented at its
//! definition. Anything that would reassociate a chain (split-k sums,
//! SIMD horizontal reductions) is out of contract.
//!
//! ## Requires-grad
//!
//! Recording an op also records whether it depends on a [`Param`]: a
//! constant leaf does not, a parameter leaf does, and an op does iff an
//! operand it differentiates does. [`Graph::backward`] skips every
//! contribution to a node that does not — `∂x` of a linear layer over
//! constant inputs, the constant columns of an `affine_cat`. Such a
//! node's gradient reaches no parameter and its slot is never read, so
//! parameter gradients are bit-identical to the full sweep;
//! [`Graph::promote_constants`] turns constants into parameters, which is
//! how the tests force the full sweep to compare.
//!
//! # Examples
//!
//! Train `y = 2x` with one linear neuron:
//!
//! ```
//! use gfs_nn::{Adam, Graph, Linear, Tensor, loss};
//! use rand::SeedableRng;
//!
//! let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
//! let layer = Linear::new(1, 1, &mut rng);
//! let mut opt = Adam::new(layer.params(), 0.1);
//! for _ in 0..700 {
//!     let mut g = Graph::new();
//!     let x = g.constant(Tensor::col(&[1.0, 2.0, 3.0]));
//!     let t = g.constant(Tensor::col(&[2.0, 4.0, 6.0]));
//!     let y = layer.forward(&mut g, x);
//!     let l = loss::mse(&mut g, y, t);
//!     g.backward(l);
//!     opt.step();
//! }
//! let mut g = Graph::new();
//! let x = g.constant(Tensor::col(&[10.0]));
//! let y = layer.forward(&mut g, x);
//! assert!((g.value(y).item() - 20.0).abs() < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod graph;
pub mod init;
mod layers;
pub mod loss;
mod optim;
mod param;
mod tensor;

pub use graph::{sigmoid, softplus, Graph, TapeIndex, Var};
pub use layers::{Attention, Embedding, GruCell, GruCellNodes, Linear};
pub use optim::Adam;
pub use param::Param;
pub use tensor::Tensor;
