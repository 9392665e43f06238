//! The forecast crate's single wall-clock choke point.
//!
//! Model training reports `train_time_secs` — a measurement *about* the
//! run, never an input to any forecast or scheduling decision. The shared
//! training loop takes its clock from [`TrainTimer`] so that this file is
//! the only place in the crate that touches `std::time::Instant`; the
//! `det-clock` rule of `gfs_lint` allowlists exactly this path and flags
//! wall-clock reads anywhere else.

use std::time::Instant;

/// Measures one training run's wall-clock duration.
pub(crate) struct TrainTimer(Instant);

impl TrainTimer {
    /// Starts the timer.
    pub(crate) fn start() -> Self {
        TrainTimer(Instant::now())
    }

    /// Seconds elapsed since [`TrainTimer::start`].
    pub(crate) fn elapsed_secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}
