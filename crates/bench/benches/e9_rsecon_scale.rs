//! E9 — the RSECon24 scale claim: 45 concurrent trainees, then a sweep.
//!
//! Paper: "45 trainees logging in and running notebooks simultaneously"
//! with positive feedback on the cloud-like flow. We reproduce the run
//! at N=45 (serial + parallel), sweep N, and report throughput + tail
//! latency. Shape to hold: zero authorisation failures at 45, sub-linear
//! tail growth with N.

use criterion::{BatchSize, BenchmarkId, Criterion, Throughput};
use dri_core::{InfraConfig, Infrastructure};
use dri_workload::{build_population, run_storm, StormMode};

fn storm_users(infra: &Infrastructure, n: usize) -> Vec<(String, String)> {
    let projects = n.div_ceil(8);
    let pop = build_population(infra, projects, 7).expect("population");
    pop.projects
        .iter()
        .flat_map(|p| {
            std::iter::once((p.pi_label.clone(), p.name.clone())).chain(
                p.researcher_labels
                    .iter()
                    .map(|r| (r.clone(), p.name.clone())),
            )
        })
        .take(n)
        .collect()
}

fn big_config() -> InfraConfig {
    InfraConfig::builder()
        .jupyter_capacity(4096)
        .interactive_nodes(4096)
        .edge_threshold(usize::MAX / 2)
        .build()
        .expect("bench config is valid")
}

/// One storm at `n` users over `workers` threads against a fresh
/// infrastructure; returns (flows/s, p50, p99, steps).
fn storm_run(n: usize, workers: usize) -> (f64, u64, u64, usize) {
    let infra = Infrastructure::new(big_config());
    let users = storm_users(&infra, n);
    let result = run_storm(&infra, &users, StormMode::Parallel(workers));
    assert_eq!(result.completed, n, "failures: {:?}", result.failures);
    (
        result.throughput(),
        result.latency_quantile(0.50),
        result.latency_quantile(0.99),
        result.steps_per_flow,
    )
}

fn print_report() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== E9: RSECon24 storm (45 concurrent) + sweep ==");
    println!("8 workers, {cores} core(s)");
    println!();
    println!(
        "{:>6} {:>6} {:>10} {:>10} {:>12}",
        "users", "steps", "p50(µs)", "p99(µs)", "flows/s"
    );
    for n in [8usize, 16, 32, 45, 64, 128, 256, 512] {
        let (fps, p50, p99, steps) = storm_run(n, 8);
        println!("{n:>6} {steps:>6} {p50:>10} {p99:>10} {fps:>12.0}");
    }

    println!("\n-- worker-count sweep, N=256 --");
    println!(
        "{:>8} {:>12} {:>10} {:>10}",
        "workers", "flows/s", "p50(µs)", "p99(µs)"
    );
    for workers in [1usize, 2, 4, 8, 16] {
        let (fps, p50, p99, _) = storm_run(256, workers);
        println!("{workers:>8} {fps:>12.0} {p50:>10} {p99:>10}");
    }

    // Where does a flow spend its time? The tracer's per-stage log2
    // histograms answer in both deterministic sim steps and wall-clock.
    println!("\n-- per-stage latency attribution, N=45 storm --");
    let infra = Infrastructure::new(big_config());
    let users = storm_users(&infra, 45);
    let r = run_storm(&infra, &users, StormMode::Parallel(8));
    assert_eq!(r.completed, 45, "failures: {:?}", r.failures);
    println!(
        "{:>10} {:>8} {:>11} {:>11} {:>10} {:>10}",
        "stage", "spans", "p50(steps)", "p99(steps)", "p50(µs)", "p99(µs)"
    );
    for s in infra.tracer.stage_summaries() {
        println!(
            "{:>10} {:>8} {:>11} {:>11} {:>10} {:>10}",
            s.stage.as_str(),
            s.steps.count,
            s.steps.p50,
            s.steps.p99,
            s.wall_us.p50,
            s.wall_us.p99
        );
    }
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9");
    group.sample_size(10);
    for n in [45usize, 128] {
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::new("storm_parallel", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let infra = Infrastructure::new(big_config());
                    let users = storm_users(&infra, n);
                    (infra, users)
                },
                |(infra, users)| {
                    let r = run_storm(&infra, &users, StormMode::Parallel(8));
                    assert_eq!(r.completed, n);
                },
                BatchSize::PerIteration,
            )
        });
        group.bench_with_input(BenchmarkId::new("storm_serial", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let infra = Infrastructure::new(big_config());
                    let users = storm_users(&infra, n);
                    (infra, users)
                },
                |(infra, users)| {
                    let r = run_storm(&infra, &users, StormMode::Serial);
                    assert_eq!(r.completed, n);
                },
                BatchSize::PerIteration,
            )
        });
    }
    group.finish();
}

fn main() {
    print_report();
    let mut c = Criterion::default().configure_from_args();
    benches(&mut c);
    c.final_summary();
}
