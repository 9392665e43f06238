//! Fig. 2: CDFs of GPU requests at pod and task level, Jul 2020 vs Oct 2024.

use gfs::prelude::*;
use gfs::trace::stats::cdf_at;

fn pod_requests(era: WorkloadEra) -> Vec<f64> {
    let tasks = WorkloadGenerator::new(WorkloadConfig {
        era,
        hp_tasks: 40_000,
        spot_tasks: 8_000,
        seed: 2,
        ..WorkloadConfig::default()
    })
    .generate();
    tasks
        .iter()
        .map(|t| t.gpus_per_pod.cards().as_f64())
        .collect()
}

fn task_requests(era: WorkloadEra) -> Vec<f64> {
    let tasks = WorkloadGenerator::new(WorkloadConfig {
        era,
        hp_tasks: 40_000,
        spot_tasks: 8_000,
        seed: 2,
        ..WorkloadConfig::default()
    })
    .generate();
    tasks.iter().map(TaskSpec::total_gpus).collect()
}

fn print_cdf(title: &str, v2024: &[f64], v2020: &[f64]) {
    println!("\n{title}");
    println!("{:>10} {:>12} {:>12}", "GPUs<=", "Oct 2024", "Jul 2020");
    for probe in [0.25, 0.5, 0.9999, 1.0, 2.0, 4.0, 7.9999, 8.0, 16.0, 64.0] {
        println!(
            "{:>10.2} {:>11.1}% {:>11.1}%",
            probe,
            cdf_at(v2024, probe) * 100.0,
            cdf_at(v2020, probe) * 100.0
        );
    }
}

fn main() {
    println!("Fig. 2 reproduction — request CDFs, 2020 vs 2024 eras");
    let pods24 = pod_requests(WorkloadEra::Era2024);
    let pods20 = pod_requests(WorkloadEra::Era2020);
    print_cdf("(a) pod-level GPU requests", &pods24, &pods20);
    let tasks24 = task_requests(WorkloadEra::Era2024);
    let tasks20 = task_requests(WorkloadEra::Era2020);
    print_cdf("(b) task-level GPU requests", &tasks24, &tasks20);

    let full_card_24 = 1.0 - cdf_at(&pods24, 0.9999);
    let full_card_20 = 1.0 - cdf_at(&pods20, 0.9999);
    println!(
        "\nfull-card pod share: 2024 {:.1}% vs 2020 {:.1}% (paper: ~100% vs ~20%)",
        full_card_24 * 100.0,
        full_card_20 * 100.0
    );
}
