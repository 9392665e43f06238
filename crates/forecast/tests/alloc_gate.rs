//! The `forecast-alloc-gate` lane: proves the tape-arena training step
//! allocates **nothing** once warm, and pins the exact per-epoch
//! allocation counts as the `alloc.*` entries of `PINS`.
//!
//! Method: the shared counting allocator
//! (`crates/testkit/counting_alloc.rs`) counts this thread's allocations.
//! For each tape-arena model we train twice from identical seeds — once
//! for 2 epochs, once for 3 — and take the difference: everything the two
//! runs share (dataset split, optimizer setup, first-epoch arena growth)
//! cancels, leaving exactly what one *warm* epoch allocates. That delta
//! must equal what the standalone [`minibatches`] call for the extra
//! epoch allocates on its own: the training step itself — forward, loss,
//! backward, Adam — contributes zero.
//!
//! The counts are additionally pinned, `(warm epoch, minibatch)` per
//! model, so a regression in the batching plumbing is caught too.

use gfs_forecast::dataset::{OrgDataset, OrgInfo};
use gfs_forecast::{minibatches, DLinear, DeepAr, Forecaster, OrgLinear, TrainConfig};
use gfs_testkit::pin;

#[path = "../../testkit/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::count_allocs;

/// Two-org dataset with business attrs so OrgLinear exercises the full
/// embedding + attention path.
fn dataset() -> OrgDataset {
    let series: Vec<Vec<f64>> = (0..2)
        .map(|o| {
            (0..400)
                .map(|i| {
                    let day = (i % 24) as f64 / 24.0 * std::f64::consts::TAU;
                    60.0 + 10.0 * (o as f64 + 1.0) * day.sin()
                })
                .collect()
        })
        .collect();
    let infos = (0..2)
        .map(|o| OrgInfo {
            name: format!("org{o}"),
            attrs: vec![o % 2, o % 3],
        })
        .collect();
    OrgDataset::new(series, infos, vec![2, 3], vec![], 96, 12).unwrap()
}

struct Measurement {
    model: &'static str,
    /// Allocations of the third (fully warm) training epoch.
    warm_epoch_allocs: u64,
    /// Allocations of that epoch's standalone `minibatches` call — the
    /// shuffle/chunk plumbing outside the training step proper.
    minibatch_allocs: u64,
}

/// `fit(3 epochs) − fit(2 epochs)` on fresh same-seed models = the cost
/// of one warm epoch.
fn measure<M: Forecaster>(
    name: &'static str,
    data: &OrgDataset,
    make: impl Fn() -> M,
) -> Measurement {
    let mut cfg2 = TrainConfig::fast();
    cfg2.epochs = 2;
    let mut cfg3 = TrainConfig::fast();
    cfg3.epochs = 3;

    let mut m2 = make();
    let (a2, _) = count_allocs(|| m2.fit(data, &cfg2));
    let mut m3 = make();
    let (a3, _) = count_allocs(|| m3.fit(data, &cfg3));
    assert!(a3 >= a2, "{name}: epoch count cannot reduce allocations");

    let (train, _) = data.split(cfg3.stride, cfg3.train_frac);
    // warm the measurement itself once (lazy TLS/format machinery), then
    // count the exact call the third epoch makes
    let _ = minibatches(&train, cfg3.batch_size, cfg3.seed, 2);
    let (mb, batches) = count_allocs(|| minibatches(&train, cfg3.batch_size, cfg3.seed, 2));
    assert!(!batches.is_empty());

    Measurement {
        model: name,
        warm_epoch_allocs: a3 - a2,
        minibatch_allocs: mb,
    }
}

#[test]
fn warm_training_step_allocates_nothing() {
    let data = dataset();
    let [dlinear, deepar, orglinear] = [
        measure("DLinear", &data, || DLinear::new(&data, 1)),
        measure("DeepAR", &data, || DeepAr::new(&data, 5)),
        measure("OrgLinear", &data, || OrgLinear::new(&data, 3)),
    ];

    // The core contract: a warm epoch allocates exactly what its
    // minibatch assembly allocates — the training step itself (forward,
    // loss, backward, optimizer) is allocation-free on the tape arena.
    for m in [&dlinear, &deepar, &orglinear] {
        assert_eq!(
            m.warm_epoch_allocs,
            m.minibatch_allocs,
            "{}: warm epoch allocated {} but its minibatch plumbing only accounts for {} — \
             the training step leaked {} steady-state allocation(s)",
            m.model,
            m.warm_epoch_allocs,
            m.minibatch_allocs,
            m.warm_epoch_allocs - m.minibatch_allocs.min(m.warm_epoch_allocs)
        );
    }

    // The ratchet: exact pin of the counts, so regressions in the
    // batching plumbing (or silent growth anywhere in fit) fail CI.
    let counts = |m: &Measurement| [m.warm_epoch_allocs, m.minibatch_allocs];
    pin("alloc.dlinear", &counts(&dlinear));
    pin("alloc.deepar", &counts(&deepar));
    pin("alloc.orglinear", &counts(&orglinear));
}
