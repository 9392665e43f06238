//! Golden pin: the rebuilt tape-arena trainers must reproduce the
//! pre-rebuild per-epoch loss trajectories bit-identically on a fixed seed.
//!
//! The DLinear and OrgLinear horizon-24 `loss.*` pins were captured from
//! the pre-rebuild graph (per-node allocated `Vec<Node>`). Because
//! `minibatches` derives each epoch's shuffle from `seed ^ f(epoch)`, a
//! k-epoch fit's losses are a prefix of a (k+1)-epoch fit's losses, so
//! pinning the `final_loss` bits of fresh fits at k = 1..=4 pins the whole
//! four-epoch trajectory.
//!
//! Horizon 24 is served by the general matmul kernel; the horizon-4 pin
//! covers the benchmark's OrgLinear shape (168 inputs, 3 attribute slots),
//! whose heads run on the thin-output kernels in training and prediction.
//!
//! The Transformer (on shorter windows) and FEDformer baselines of Table 7
//! pin the same trajectory. Only pins that hold on every x86-64 lane live
//! here: DeepAR's, Informer's and Autoformer's trajectories and the
//! forecast bits of all five of these baselines move by an ulp or two
//! when glibc's math functions take their SSE2 paths, so they wait for
//! the repository's own transcendental functions.

use gfs::forecast::dataset::OrgDataset;
use gfs::forecast::{
    DLinear, FedformerForecaster, Forecaster, OrgLinear, TrainConfig, TransformerForecaster,
};
use gfs::scenario;
use gfs_testkit::pin;

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

#[test]
fn orglinear_loss_trajectory_pinned() {
    let data = scenario::org_template(3, 168, 24, 1);
    let got = trajectory(&data, &|| Box::new(OrgLinear::new(&data, 11)));
    pin("loss.orglinear_h24", &got);
}

#[test]
fn orglinear_horizon4_trajectory_and_forecasts_pinned() {
    let data = scenario::org_template(3, 168, 4, 1);
    let got = trajectory(&data, &|| Box::new(OrgLinear::new(&data, 11)));
    pin("loss.orglinear_h4", &got);

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
    // FNV-1a over the bits of every `predict_many` mean and σ of the
    // four-epoch model on the test windows
    pin("forecast.orglinear_h4_predict", &[gfs::sim::fnv1a(&bytes)]);
}

#[test]
fn dlinear_loss_trajectory_pinned() {
    let data = scenario::org_template(3, 168, 24, 1);
    let got = trajectory(&data, &|| Box::new(DLinear::new(&data, 11)));
    pin("loss.dlinear_h24", &got);
}

/// The Transformer builds one graph per window, quadratic in its length,
/// so it trains on two weeks of 48-hour windows and a 12-hour horizon: at
/// 168 hours a debug-build test takes 20 s.
#[test]
fn transformer_loss_trajectory_pinned() {
    let data = scenario::org_template(2, 48, 12, 1);
    let got = trajectory(&data, &|| Box::new(TransformerForecaster::new(&data, 11)));
    pin("loss.transformer_h12", &got);
}

#[test]
fn fedformer_loss_trajectory_pinned() {
    let data = scenario::org_template(3, 168, 24, 1);
    let got = trajectory(&data, &|| Box::new(FedformerForecaster::new(&data, 11)));
    pin("loss.fedformer_h24", &got);
}
