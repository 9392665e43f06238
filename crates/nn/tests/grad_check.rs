//! Gradient checks: tape backward vs seeded central differences.
//!
//! Every op on the tape — the elementwise ops, `matmul`/`transpose`,
//! `affine2`/`affine_cat`, `blend`, the fused Gaussian NLL, `embedding`,
//! `softmax_rows`/`scale_rows`/`slice_cols`/`concat_cols`, `mean_all`
//! and the whole-sequence `gru_scan` — is checked against
//! `(L(θ+ε) − L(θ−ε)) / 2ε` element by element. A second suite pins fused
//! ops to the chains they replace *exactly* (values and weight gradients
//! bit-for-bit): the GRU scan to the unfused `step_bound` chain, which let
//! the trainers switch to [`GruCell::scan`] without disturbing the golden
//! loss trajectories, and a multi-part `affine_cat` to `concat_cols`
//! followed by a one-part `affine_cat`. A third pins the
//! requires-grad pruning: promoting every constant leaf to a throw-away
//! parameter forces the full sweep, and the real parameters' gradients
//! must not move by a bit.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use gfs_nn::{Graph, GruCell, Param, Tensor, Var};

/// Seeded uniform tensor in `(lo, hi)`.
fn rand_tensor(rows: usize, cols: usize, lo: f64, hi: f64, rng: &mut ChaCha8Rng) -> Tensor {
    let mut t = Tensor::zeros(rows, cols);
    for v in t.as_mut_slice() {
        *v = rng.gen_range(lo..hi);
    }
    t
}

/// Scalar loss of one forward build.
fn eval<F: Fn(&mut Graph) -> Var>(build: &F) -> f64 {
    let mut g = Graph::new();
    let out = build(&mut g);
    let v = g.value(out).item();
    g.finish();
    v
}

/// Checks every element of every param's tape gradient against a central
/// difference of the scalar loss `build` produces.
fn grad_check<F: Fn(&mut Graph) -> Var>(name: &str, params: &[Param], build: F, tol: f64) {
    for p in params {
        p.zero_grad();
    }
    let mut g = Graph::new();
    let out = build(&mut g);
    assert_eq!(g.value(out).shape(), (1, 1), "{name}: loss must be scalar");
    g.backward(out);

    let eps = 1e-5;
    for (pi, p) in params.iter().enumerate() {
        let analytic = p.grad();
        let base = p.value();
        for i in 0..base.len() {
            let mut bumped = base.clone();
            bumped.as_mut_slice()[i] += eps;
            p.set_value(bumped);
            let up = eval(&build);
            let mut bumped = base.clone();
            bumped.as_mut_slice()[i] -= eps;
            p.set_value(bumped);
            let down = eval(&build);
            p.set_value(base.clone());
            let numeric = (up - down) / (2.0 * eps);
            let a = analytic.as_slice()[i];
            let scale = a.abs().max(numeric.abs()).max(1.0);
            assert!(
                (a - numeric).abs() / scale < tol,
                "{name}: param {pi} element {i}: tape {a:.9} vs central-difference {numeric:.9}"
            );
        }
    }
}

#[test]
fn affine_tanh_chain() {
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let w = Param::new(rand_tensor(4, 3, -0.8, 0.8, &mut rng));
    let b = Param::new(rand_tensor(1, 3, -0.5, 0.5, &mut rng));
    let x = rand_tensor(5, 4, -1.0, 1.0, &mut rng);
    grad_check(
        "affine+tanh",
        &[w.clone(), b.clone()],
        move |g| {
            let xv = g.constant(x.clone());
            let wv = g.param(&w);
            let bv = g.param(&b);
            let a = g.affine_cat(&[xv], wv, bv);
            let t = g.tanh(a);
            g.mean_all(t)
        },
        1e-6,
    );
}

#[test]
fn elementwise_kitchen_sink() {
    // mul/sub/add/relu/tanh/sigmoid/scale in one chain,
    // arranged to stay differentiable (relu inputs shifted off 0)
    let mut rng = ChaCha8Rng::seed_from_u64(12);
    let p = Param::new(rand_tensor(3, 4, 0.2, 0.9, &mut rng));
    let q = Param::new(rand_tensor(3, 4, 0.3, 1.1, &mut rng));
    grad_check(
        "elementwise",
        &[p.clone(), q.clone()],
        move |g| {
            let pv = g.param(&p);
            let qv = g.param(&q);
            let m = g.mul(pv, qv);
            let s = g.sub(m, pv);
            let two = g.constant(Tensor::full(3, 4, 2.0));
            let sh = g.add(s, two); // keep relu away from the kink
            let r = g.relu(sh);
            let t = g.tanh(r);
            let sg = g.sigmoid(t);
            let sc = g.scale(sg, -1.7);
            let a = g.add(sc, qv);
            g.mean_all(a)
        },
        1e-5,
    );
}

#[test]
fn matmul_transpose_mean() {
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let a = Param::new(rand_tensor(3, 4, -1.0, 1.0, &mut rng));
    let b = Param::new(rand_tensor(3, 5, -1.0, 1.0, &mut rng));
    grad_check(
        "matmul+transpose",
        &[a.clone(), b.clone()],
        move |g| {
            let av = g.param(&a);
            let bv = g.param(&b);
            let at = g.transpose(av); // 4×3
            let mm = g.matmul(at, bv); // 4×5
            g.mean_all(mm)
        },
        1e-6,
    );
}

#[test]
fn affine2_and_blend_gru_pieces() {
    let mut rng = ChaCha8Rng::seed_from_u64(14);
    let w = Param::new(rand_tensor(3, 4, -0.7, 0.7, &mut rng));
    let u = Param::new(rand_tensor(4, 4, -0.7, 0.7, &mut rng));
    let b = Param::new(rand_tensor(1, 4, -0.3, 0.3, &mut rng));
    let hp = Param::new(rand_tensor(2, 4, -0.9, 0.9, &mut rng));
    let cand = Param::new(rand_tensor(2, 4, -0.9, 0.9, &mut rng));
    let x = rand_tensor(2, 3, -1.0, 1.0, &mut rng);
    grad_check(
        "affine2+sigmoid+blend",
        &[w.clone(), u.clone(), b.clone(), hp.clone(), cand.clone()],
        move |g| {
            let xv = g.constant(x.clone());
            let wv = g.param(&w);
            let uv = g.param(&u);
            let bv = g.param(&b);
            let hv = g.param(&hp);
            let cv = g.param(&cand);
            let pre = g.affine2(xv, wv, hv, uv, bv);
            let gate = g.sigmoid(pre);
            let out = g.blend(gate, hv, cv);
            g.mean_all(out)
        },
        1e-6,
    );
}

#[test]
fn gaussian_nll_softplus_head() {
    let mut rng = ChaCha8Rng::seed_from_u64(15);
    let mu = Param::new(rand_tensor(3, 4, -0.5, 0.5, &mut rng));
    let pre = Param::new(rand_tensor(3, 4, -1.0, 1.0, &mut rng));
    let target = rand_tensor(3, 4, -0.8, 0.8, &mut rng);
    grad_check(
        "gaussian_nll_softplus",
        &[mu.clone(), pre.clone()],
        move |g| {
            let mv = g.param(&mu);
            let pv = g.param(&pre);
            let tv = g.constant(target.clone());
            g.gaussian_nll_softplus(mv, pv, tv, 1e-3)
        },
        1e-5,
    );
}

#[test]
fn embedding_attention_pool() {
    // embedding + matmul + concat_cols + softmax_rows + slice_cols +
    // scale_rows — the OrgLinear business-context path, with repeated
    // indices so gather-scatter accumulation is exercised
    let mut rng = ChaCha8Rng::seed_from_u64(16);
    let table_a = Param::new(rand_tensor(5, 3, -0.8, 0.8, &mut rng));
    let table_b = Param::new(rand_tensor(4, 3, -0.8, 0.8, &mut rng));
    let query = Param::new(rand_tensor(3, 1, -0.9, 0.9, &mut rng));
    let idx_a = vec![0usize, 3, 3, 1];
    let idx_b = vec![2usize, 2, 0, 3];
    grad_check(
        "embedding+attention",
        &[table_a.clone(), table_b.clone(), query.clone()],
        move |g| {
            let ta = g.param(&table_a);
            let tb = g.param(&table_b);
            let qv = g.param(&query);
            let ea = g.embedding(ta, &idx_a);
            let eb = g.embedding(tb, &idx_b);
            let sa = g.matmul(ea, qv);
            let sb = g.matmul(eb, qv);
            let scores = g.concat_cols(&[sa, sb]);
            let weights = g.softmax_rows(scores);
            let wa = g.slice_cols(weights, 0, 1);
            let wb = g.slice_cols(weights, 1, 1);
            let ca = g.scale_rows(ea, wa);
            let cb = g.scale_rows(eb, wb);
            let pooled = g.add(ca, cb);
            g.mean_all(pooled)
        },
        1e-5,
    );
}

#[test]
fn gru_scan_full_sequence() {
    let mut rng = ChaCha8Rng::seed_from_u64(17);
    let cell = GruCell::new(3, 5, &mut rng);
    let steps = 4;
    let batch = 2;
    let xs = rand_tensor(steps * batch, 3, -1.0, 1.0, &mut rng);
    let params = cell.params();
    grad_check(
        "gru_scan",
        &params,
        move |g| {
            let xv = g.constant(xs.clone());
            let h = cell.scan(g, xv, steps);
            g.mean_all(h)
        },
        1e-5,
    );
}

#[test]
fn gru_scan_matches_unfused_chain_bitwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(18);
    let cell = GruCell::new(3, 6, &mut rng);
    let steps = 5;
    let batch = 3;
    let xs = rand_tensor(steps * batch, 3, -1.0, 1.0, &mut rng);
    let params = cell.params();

    // fused: one gru_scan tape entry
    for p in &params {
        p.zero_grad();
    }
    let mut g = Graph::new();
    let xv = g.constant(xs.clone());
    let h = cell.scan(&mut g, xv, steps);
    let loss = g.mean_all(h);
    let fused_h = g.value(h).clone();
    let fused_loss = g.value(loss).item();
    g.backward(loss);
    let fused_grads: Vec<Tensor> = params.iter().map(Param::grad).collect();

    // unfused: the legacy per-step step_bound chain
    for p in &params {
        p.zero_grad();
    }
    let mut g = Graph::new();
    let nodes = cell.bind(&mut g);
    let mut h = cell.initial_state(&mut g, batch);
    for t in 0..steps {
        let mut step = Tensor::zeros(batch, 3);
        for r in 0..batch {
            for c in 0..3 {
                step[(r, c)] = xs[(t * batch + r, c)];
            }
        }
        let sv = g.constant(step);
        h = cell.step_bound(&mut g, &nodes, sv, h);
    }
    let loss = g.mean_all(h);
    let unfused_h = g.value(h).clone();
    let unfused_loss = g.value(loss).item();
    g.backward(loss);

    assert_eq!(
        fused_h.as_slice(),
        unfused_h.as_slice(),
        "fused scan forward must be bit-identical to the step chain"
    );
    assert_eq!(fused_loss.to_bits(), unfused_loss.to_bits());
    for (i, p) in params.iter().enumerate() {
        assert_eq!(
            fused_grads[i].as_slice(),
            p.grad().as_slice(),
            "weight grad {i} of the fused scan must be bit-identical to the step chain"
        );
    }
}

/// A concatenation of a constant and a parameter feeding `affine_cat`
/// beside a second constant part: the pruned sweep skips `∂x` of both
/// constants.
fn concat_affine_cat_graph(
    w: &Param,
    b: &Param,
    p: &Param,
    x: &Tensor,
    x2: &Tensor,
) -> impl Fn(&mut Graph) -> Var {
    let (w, b, p, x, x2) = (w.clone(), b.clone(), p.clone(), x.clone(), x2.clone());
    move |g: &mut Graph| {
        let xv = g.constant(x.clone());
        let pv = g.param(&p);
        let cat = g.concat_cols(&[xv, pv]);
        let x2v = g.constant(x2.clone());
        let wv = g.param(&w);
        let bv = g.param(&b);
        let y = g.affine_cat(&[cat, x2v], wv, bv);
        let t = g.tanh(y);
        g.mean_all(t)
    }
}

fn unit_graph_params(rng: &mut ChaCha8Rng) -> (Param, Param, Param, Tensor, Tensor) {
    let w = Param::new(rand_tensor(6, 4, -0.8, 0.8, rng));
    let b = Param::new(rand_tensor(1, 4, -0.3, 0.3, rng));
    let p = Param::new(rand_tensor(5, 3, -1.0, 1.0, rng));
    let x = rand_tensor(5, 2, -1.0, 1.0, rng);
    let x2 = rand_tensor(5, 1, -1.0, 1.0, rng);
    (w, b, p, x, x2)
}

#[test]
fn affine_cat_concat_chain() {
    let mut rng = ChaCha8Rng::seed_from_u64(19);
    let (w, b, p, x, x2) = unit_graph_params(&mut rng);
    let params = [w.clone(), b.clone(), p.clone()];
    grad_check(
        "affine_cat",
        &params,
        concat_affine_cat_graph(&w, &b, &p, &x, &x2),
        1e-6,
    );
}

/// Parameter gradients as bit patterns, zeroing them for the next run.
fn take_grad_bits(params: &[Param]) -> Vec<Vec<u64>> {
    params
        .iter()
        .map(|p| {
            let bits = p.grad().as_slice().iter().map(|v| v.to_bits()).collect();
            p.zero_grad();
            bits
        })
        .collect()
}

#[test]
fn affine_cat_matches_concat_then_affine_bitwise() {
    let mut rng = ChaCha8Rng::seed_from_u64(20);
    // 12 output columns take the general kernel, 3 the thin one
    for n in [3, 12] {
        let w = Param::new(rand_tensor(9, n, -0.8, 0.8, &mut rng));
        let b = Param::new(rand_tensor(1, n, -0.3, 0.3, &mut rng));
        let p = Param::new(rand_tensor(7, 3, -1.0, 1.0, &mut rng));
        let x = rand_tensor(7, 6, -1.0, 1.0, &mut rng);
        let params = [w.clone(), b.clone(), p.clone()];
        let run = |fused: bool| {
            let mut g = Graph::new();
            let xv = g.constant(x.clone());
            let pv = g.param(&p);
            let wv = g.param(&w);
            let bv = g.param(&b);
            let y = if fused {
                g.affine_cat(&[xv, pv], wv, bv)
            } else {
                let cat = g.concat_cols(&[xv, pv]);
                g.affine_cat(&[cat], wv, bv)
            };
            let t = g.tanh(y);
            let loss = g.mean_all(t);
            let value: Vec<u64> = g.value(y).as_slice().iter().map(|v| v.to_bits()).collect();
            g.backward(loss);
            (value, take_grad_bits(&params))
        };
        assert_eq!(
            run(true),
            run(false),
            "affine_cat drifted from concat + affine (n={n})"
        );
    }
}

#[test]
fn pruning_is_exact_on_a_unit_graph() {
    let mut rng = ChaCha8Rng::seed_from_u64(21);
    let (w, b, p, x, x2) = unit_graph_params(&mut rng);
    let params = [w.clone(), b.clone(), p.clone()];
    let build = concat_affine_cat_graph(&w, &b, &p, &x, &x2);
    let sweep = |promote: bool| {
        let mut g = Graph::new();
        let loss = build(&mut g);
        if promote {
            // the two constant leaves become throw-away parameters
            assert_eq!(g.promote_constants().len(), 2);
        }
        g.backward(loss);
        take_grad_bits(&params)
    };
    let pruned = sweep(false);
    assert!(
        pruned.iter().flatten().any(|&bits| bits != 0),
        "gradients flow"
    );
    assert_eq!(pruned, sweep(true), "pruning moved a parameter gradient");
}

#[test]
fn promoted_constants_receive_input_gradients() {
    // L = mean(x · w) with x constant: after promotion ∂L/∂x = ½ · 1 · wᵀ
    let w = Param::new(Tensor::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
    let mut g = Graph::new();
    let x = g.constant(Tensor::from_rows(&[&[1.0, 1.0]]));
    let wv = g.param(&w);
    let y = g.matmul(x, wv);
    let loss = g.mean_all(y);
    let promoted = g.promote_constants();
    g.backward(loss);
    assert_eq!(promoted.len(), 1);
    assert_eq!(promoted[0].grad().as_slice(), &[1.5, 3.5]);
    assert_eq!(w.grad().as_slice(), &[0.5, 0.5, 0.5, 0.5]);
}
