//! The `forecast-alloc-gate` lane: proves the tape-arena training step
//! allocates **nothing** once warm, and pins the exact per-epoch
//! allocation count in `ALLOC_BASELINE.json`.
//!
//! Method: a counting [`GlobalAlloc`] wrapper around [`System`] increments
//! a thread-local counter on every `alloc`/`realloc`/`alloc_zeroed` (the
//! thread-local keeps other test threads from polluting the measurement).
//! For each tape-arena model we train twice from identical seeds — once
//! for 2 epochs, once for 3 — and take the difference: everything the two
//! runs share (dataset split, optimizer setup, first-epoch arena growth)
//! cancels, leaving exactly what one *warm* epoch allocates. That delta
//! must equal what the standalone [`minibatches`] call for the extra
//! epoch allocates on its own: the training step itself — forward, loss,
//! backward, Adam — contributes zero.
//!
//! The counts are additionally pinned byte-exact against the committed
//! `ALLOC_BASELINE.json` so a regression in the batching plumbing is
//! caught too. To re-record intentionally, print the file's new text and
//! commit it:
//!
//! ```text
//! GFS_PRINT_GOLDEN=1 cargo test -p gfs-forecast --test alloc_gate -- --nocapture
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use gfs_forecast::dataset::{OrgDataset, OrgInfo};
use gfs_forecast::{minibatches, DLinear, DeepAr, Forecaster, OrgLinear, TrainConfig};

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    ALLOCS.with(|c| c.set(c.get() + 1));
}

// SAFETY: delegates every operation to `System` unchanged; the counter
// update is a plain thread-local store and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation count of `f` on this thread.
fn count_allocs<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

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

fn baseline_path() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../ALLOC_BASELINE.json")
}

fn render(measurements: &[Measurement]) -> String {
    let mut out = String::from("{\n  \"version\": 1,\n  \"models\": {\n");
    for (i, m) in measurements.iter().enumerate() {
        let sep = if i + 1 == measurements.len() { "" } else { "," };
        out.push_str(&format!(
            "    \"{}\": {{\"warm_epoch_allocs\": {}, \"minibatch_allocs\": {}}}{}\n",
            m.model, m.warm_epoch_allocs, m.minibatch_allocs, sep
        ));
    }
    out.push_str("  }\n}\n");
    out
}

/// Pulls `"<model>": {"warm_epoch_allocs": N, "minibatch_allocs": M}` out
/// of the committed baseline.
fn parse_entry(text: &str, model: &str) -> Option<(u64, u64)> {
    let key = format!("\"{model}\": {{\"warm_epoch_allocs\": ");
    let start = text.find(&key)? + key.len();
    let rest = &text[start..];
    let warm: u64 = rest[..rest.find(',')?].trim().parse().ok()?;
    let key2 = "\"minibatch_allocs\": ";
    let s2 = rest.find(key2)? + key2.len();
    let rest2 = &rest[s2..];
    let end = rest2.find('}')?;
    let mb: u64 = rest2[..end].trim().parse().ok()?;
    Some((warm, mb))
}

#[test]
fn warm_training_step_allocates_nothing() {
    let data = dataset();
    let measurements = vec![
        measure("DLinear", &data, || DLinear::new(&data, 1)),
        measure("DeepAR", &data, || DeepAr::new(&data, 5)),
        measure("OrgLinear", &data, || OrgLinear::new(&data, 3)),
    ];

    // The core contract: a warm epoch allocates exactly what its
    // minibatch assembly allocates — the training step itself (forward,
    // loss, backward, optimizer) is allocation-free on the tape arena.
    for m in &measurements {
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

    if std::env::var("GFS_PRINT_GOLDEN").is_ok() {
        print!("{}", render(&measurements));
        return;
    }

    // The ratchet: byte-exact pin of the counts, so regressions in the
    // batching plumbing (or silent growth anywhere in fit) fail CI.
    let path = baseline_path();
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "read {} ({e}); print its text with GFS_PRINT_GOLDEN=1",
            path.display()
        )
    });
    for m in &measurements {
        let (warm, mb) = parse_entry(&text, m.model)
            .unwrap_or_else(|| panic!("{} missing from ALLOC_BASELINE.json", m.model));
        assert_eq!(
            (m.warm_epoch_allocs, m.minibatch_allocs),
            (warm, mb),
            "{}: allocation profile drifted from ALLOC_BASELINE.json \
             (got warm={} minibatch={}); re-record intentionally with GFS_PRINT_GOLDEN=1",
            m.model,
            m.warm_epoch_allocs,
            m.minibatch_allocs
        );
    }
}
