//! Golden pin: the rebuilt tape-arena trainers must reproduce the
//! pre-rebuild per-epoch loss trajectories bit-identically on a fixed seed.
//!
//! The pinned constants below were captured from the pre-rebuild graph
//! (per-node allocated `Vec<Node>`) by running with `GFS_PRINT_GOLDEN=1`.
//! Because `minibatches` derives each epoch's shuffle from `seed ^ f(epoch)`,
//! a k-epoch fit's losses are a prefix of a (k+1)-epoch fit's losses, so
//! pinning the `final_loss` of fresh fits at k = 1..=4 pins the whole
//! four-epoch trajectory.
//!
//! Horizon 24 is served by the general matmul kernel; the horizon-4 pin
//! covers the benchmark's OrgLinear shape (168 inputs, 3 attribute slots),
//! whose heads run on the thin-output kernels in training and prediction.

use gfs::forecast::dataset::OrgDataset;
use gfs::forecast::{DLinear, Forecaster, OrgLinear, TrainConfig};
use gfs::scenario;

const EPOCHS: usize = 4;

fn cfg(epochs: usize) -> TrainConfig {
    TrainConfig {
        epochs,
        batch_size: 32,
        lr: 0.01,
        seed: 7,
        stride: 24,
        train_frac: 0.8,
    }
}

fn trajectory(data: &OrgDataset, make: &dyn Fn() -> Box<dyn Forecaster>) -> Vec<u64> {
    (1..=EPOCHS)
        .map(|k| {
            let mut m = make();
            m.fit(data, &cfg(k)).final_loss.to_bits()
        })
        .collect()
}

fn check(name: &str, got: &[u64], want: &[u64]) {
    if std::env::var("GFS_PRINT_GOLDEN").is_ok() {
        println!("const {name}: [u64; {}] = {got:?};", got.len());
        return;
    }
    assert_eq!(
        got,
        want,
        "{name} per-epoch loss trajectory drifted from the pre-rebuild pin\n\
         got  (f64): {:?}\nwant (f64): {:?}",
        got.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>(),
        want.iter().map(|&b| f64::from_bits(b)).collect::<Vec<_>>(),
    );
}

const ORGLINEAR_GOLDEN: [u64; 4] = [
    4620343287459476452,
    4612012138673015004,
    4611516875510481393,
    4613027946250314839,
];

const ORGLINEAR_H4_GOLDEN: [u64; 4] = [
    4630142542204581332,
    4612931951460841308,
    4612505228443348105,
    4612699051577664948,
];

/// FNV-1a over the bits of every `predict_many` mean and σ of the
/// four-epoch horizon-4 model on the test windows.
const ORGLINEAR_H4_PREDICT_GOLDEN: u64 = 0x654887d6a25cb07e;

const DLINEAR_GOLDEN: [u64; 4] = [
    4612765049514944885,
    4607556613720183214,
    4608384572764030985,
    4605894398950093819,
];

#[test]
fn orglinear_loss_trajectory_pinned() {
    let data = scenario::org_template(3, 168, 24, 1);
    let got = trajectory(&data, &|| Box::new(OrgLinear::new(&data, 11)));
    check("ORGLINEAR_GOLDEN", &got, &ORGLINEAR_GOLDEN);
}

#[test]
fn orglinear_horizon4_trajectory_and_forecasts_pinned() {
    let data = scenario::org_template(3, 168, 4, 1);
    let got = trajectory(&data, &|| Box::new(OrgLinear::new(&data, 11)));
    check("ORGLINEAR_H4_GOLDEN", &got, &ORGLINEAR_H4_GOLDEN);

    let mut m = OrgLinear::new(&data, 11);
    m.fit(&data, &cfg(EPOCHS));
    let (_, test) = data.split(cfg(EPOCHS).stride, cfg(EPOCHS).train_frac);
    assert!(test.len() > 8, "the pin should span several row blocks");
    let mut bytes = Vec::new();
    for f in m.predict_many(&data, &test) {
        let std = f.std.expect("OrgLinear is probabilistic");
        for v in f.mean.iter().chain(&std) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
    }
    let hash = gfs::sim::fnv1a(&bytes);
    if std::env::var("GFS_PRINT_GOLDEN").is_ok() {
        println!("const ORGLINEAR_H4_PREDICT_GOLDEN: u64 = {hash:#018x};");
        return;
    }
    assert_eq!(
        hash, ORGLINEAR_H4_PREDICT_GOLDEN,
        "horizon-4 OrgLinear forecasts drifted: {hash:#018x}"
    );
}

#[test]
fn dlinear_loss_trajectory_pinned() {
    let data = scenario::org_template(3, 168, 24, 1);
    let got = trajectory(&data, &|| Box::new(DLinear::new(&data, 11)));
    check("DLINEAR_GOLDEN", &got, &DLINEAR_GOLDEN);
}
