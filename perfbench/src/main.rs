//! End-to-end and per-layer benchmark of the Isambard DRI twin.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload notebook_storm --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics through the program's
//! composite public API. `--trace 1` is a separate run that times each
//! layer's public calls from the benchmark's own spans and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod flows;
mod layers;
mod population;
mod primitives;
mod spans;
mod stats;
mod workload;

use std::time::{Duration, Instant};

use isambard_dri::prelude::*;

use layers::{Layers, CALL_LAYERS, FLOW_LAYERS};
use spans::Phase;
use stats::{median, quantile, rss_kib, sorted, Rng};
use workload::{Budget, Client, Tally, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median and the run
/// measures on the last.
const SETUPS: usize = 3;
/// Extra traced flows of the kinds a workload does not run itself, so
/// every per-layer metric is measured on every workload.
const PROBE_SSH_FLOWS: usize = 32;
const PROBE_CHURN_FLOWS: usize = 4 * workload::KILL_EVERY as usize;

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0)
            .ok_or("--seconds must be at least 1")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// JSON has no infinity: a percentile that falls on a failed flow reads
/// as the largest finite number.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        f64::MAX
    }
}

fn print_result(tally: &Tally, metrics: &Metrics) {
    for (kind, n) in &tally.violations {
        println!("violation {kind}: {n}");
    }
    for e in &tally.first_errors {
        println!("  e.g. {e}");
    }
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {:?}, \"unit\": \"{unit}\"}}",
                finite(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}

/// Run one untimed pass so every user has done one flow, and keep only
/// its counts and failures.
fn warm_up(clients: &mut [Client], w: Workload) -> Tally {
    let users = clients[0].user_count();
    workload::pass(clients, w, false, Budget::Flows(users));
    let mut warm = take_tallies(clients);
    warm.latencies.clear();
    warm.revoke_us.clear();
    warm
}

fn take_tallies(clients: &mut [Client]) -> Tally {
    let mut all = Tally::default();
    for c in clients.iter_mut() {
        all.merge(std::mem::take(&mut c.tally));
    }
    all
}

/// Ratio of the last tenth's median flow latency to the first tenth's,
/// in completion order: 1 in a steady state.
fn steady_ratio(latencies: &[(f64, f64)]) -> f64 {
    let mut by_time = latencies.to_vec();
    by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
    let tenth = (by_time.len() / 10).max(1);
    let p50 = |part: &[(f64, f64)]| median(part.iter().map(|x| x.1).collect());
    p50(&by_time[by_time.len() - tenth..]) / p50(&by_time[..tenth])
}

/// Flows completed in each whole second of the pass.
fn per_second(latencies: &[(f64, f64)], seconds: u64) -> Vec<f64> {
    let mut counts = vec![0.0; seconds as usize];
    for &(at, lat) in latencies {
        if lat.is_finite() && (at as usize) < counts.len() {
            counts[at as usize] += 1.0;
        }
    }
    counts
}

/// p99 as the median, over consecutive chunks of at least 1000 samples
/// in time order, of each chunk's p99: a burst of load from outside the
/// benchmark moves one chunk, not the figure.
fn chunked_p99(in_time_order: &[f64]) -> f64 {
    let chunks = (in_time_order.len() / 1000).clamp(1, 10);
    let size = in_time_order.len().div_ceil(chunks).max(1);
    median(
        in_time_order
            .chunks(size)
            .map(|c| quantile(&sorted(c.iter().copied()), 0.99))
            .collect(),
    )
}

/// Kill latencies: from the kills in the loop on `revocation_churn`, and
/// on the other workloads from one more pass in which each user is
/// killed right after its flow. Returns (p50, p99) in µs.
fn kill_latency(clients: &mut [Client], w: Workload, tally: &mut Tally) -> (f64, f64) {
    if w != Workload::RevocationChurn {
        for c in clients.iter_mut() {
            c.kill_after_each(w);
        }
        let mut sweep = take_tallies(clients);
        sweep.latencies.clear();
        tally.merge(sweep);
    }
    let revoke = sorted(tally.revoke_us.iter().copied());
    println!(
        "kill_user latency over {} samples: p50 {:.1} us, p99 {:.1} us",
        revoke.len(),
        quantile(&revoke, 0.5),
        quantile(&revoke, 0.99)
    );
    (quantile(&revoke, 0.5), quantile(&revoke, 0.99))
}

fn end_to_end(args: &Args) -> (Tally, Metrics) {
    let w = args.workload;
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let start = Instant::now();
        built = Some(population::setup(false));
        setups.push(start.elapsed().as_secs_f64());
    }
    let (infra, users) = built.expect("at least one set-up");
    let mut clients = workload::clients(&infra, &users, w.clients(), args.seed);
    let mut tally = warm_up(&mut clients, w);

    let rss_before = rss_kib();
    let (wall, _) = workload::pass(
        &mut clients,
        w,
        false,
        Budget::Time(Duration::from_secs(args.seconds)),
    );
    let rss_after = rss_kib();
    let measured = take_tallies(&mut clients);
    let latencies = sorted(measured.latencies.iter().map(|x| x.1));
    let per_second = per_second(&measured.latencies, args.seconds);
    let mut by_time = measured.latencies.clone();
    by_time.sort_by(|a, b| a.0.total_cmp(&b.0));
    let p99 = chunked_p99(&by_time.iter().map(|x| x.1).collect::<Vec<_>>());
    let steady = steady_ratio(&measured.latencies);
    let (attempted, completed) = (latencies.len() as f64, measured.completed as f64);
    tally.merge(measured);

    println!(
        "workload {} seed {} clients {} cores {}",
        args.name,
        args.seed,
        w.clients(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!(
        "flows: {completed} completed of {attempted} in {:.3} s ({:.1}/s overall); fail_ratio {:.6}",
        wall.as_secs_f64(),
        completed / wall.as_secs_f64(),
        (attempted - completed) / attempted
    );
    println!("flows completed in each second: {per_second:?}");
    println!(
        "flow latency over {attempted} samples: p50 {:.1} us, p99 {:.1} us overall, {p99:.1} us median of chunks; \
         steady-state p50 ratio (last/first tenth) {steady:.3}",
        quantile(&latencies, 0.5),
        quantile(&latencies, 0.99),
    );
    if w == Workload::RevocationChurn {
        kill_latency(&mut clients, w, &mut tally);
    }
    println!("set-ups (s): {setups:?}; RSS {rss_before:.0} -> {rss_after:.0} KiB");

    let mut m = Metrics(Vec::new());
    m.put("flows_per_s", median(per_second), "1/s");
    m.put("flow_p50_us", quantile(&latencies, 0.5), "us");
    m.put("flow_p99_us", p99, "us");
    m.put("setup_s", median(setups), "s");
    m.put(
        "mem_growth_kib_per_kflow",
        (rss_after - rss_before) / (completed / 1000.0),
        "KiB",
    );
    (tally, m)
}

/// Counters the program keeps, read before and after the untraced pass.
struct Counters {
    token_hits: u64,
    token_misses: u64,
    memo_hits: u64,
    memo_misses: u64,
    siem_events: u64,
    spans: usize,
    sessions: usize,
    relays: usize,
    notebooks: usize,
    shells: usize,
}

impl Counters {
    fn read(infra: &Infrastructure) -> Counters {
        infra.siem.flush();
        Counters {
            token_hits: infra.broker.token_cache().hits(),
            token_misses: infra.broker.token_cache().misses(),
            memo_hits: infra.pdp.hits(),
            memo_misses: infra.pdp.misses(),
            siem_events: infra.siem.events_ingested(),
            spans: infra.tracer.span_count(),
            sessions: infra.broker.session_count(),
            relays: infra.bastion.session_count(),
            notebooks: infra.jupyter.session_count(),
            shells: infra.login_node.session_count(),
        }
    }
}

fn per_layer(args: &Args) -> (Tally, Metrics) {
    let w = args.workload;
    let mut rng = Rng::new(args.seed);
    spans::enable(Phase::Setup);
    let (infra, users) = population::setup(true);
    let setup_spans = spans::take();
    let mut clients = workload::clients(&infra, &users, w.clients(), args.seed);
    let warm = warm_up(&mut clients, w);

    // Untraced half: the program's own counters and the baseline rate.
    let half = Duration::from_secs_f64(args.seconds as f64 / 2.0);
    let before = Counters::read(&infra);
    let (wall, _) = workload::pass(&mut clients, w, false, Budget::Time(half));
    let after = Counters::read(&infra);
    let untraced = take_tallies(&mut clients);
    let untraced_fps = untraced.completed as f64 / wall.as_secs_f64();
    let untraced_p50 = quantile(&sorted(untraced.latencies.iter().map(|x| x.1)), 0.5);
    let flows = untraced.latencies.len() as f64;
    let kflows = flows / 1000.0;

    // Traced quarter (every span is kept and written out), then the
    // probe flows, then the kill latencies and the primitives.
    flows::install_traced_backends(&infra, [rng.seed32(), rng.seed32()]);
    let (wall, mut threads) = workload::pass(&mut clients, w, true, Budget::Time(half / 2));
    let mut tally = take_tallies(&mut clients);
    let traced_fps = tally.completed as f64 / wall.as_secs_f64();
    spans::enable(Phase::Probe);
    let probe = &mut clients[0];
    if w != Workload::LoginSsh {
        let from = probe.position();
        (0..PROBE_SSH_FLOWS).for_each(|_| probe.step(Workload::LoginSsh, true, Instant::now()));
        probe.log_in(from, PROBE_SSH_FLOWS);
    }
    if w != Workload::RevocationChurn {
        if w == Workload::LoginSsh {
            let from = probe.position();
            probe.log_in(from, PROBE_CHURN_FLOWS);
        }
        (0..PROBE_CHURN_FLOWS)
            .for_each(|_| probe.step(Workload::RevocationChurn, true, Instant::now()));
        if w == Workload::LoginSsh {
            // Nothing else closes a notebook on this workload.
            probe.stop_notebooks();
        }
    }
    threads.push(spans::take());
    tally.merge(take_tallies(&mut clients));
    let mut revoke_tally = Tally {
        revoke_us: untraced.revoke_us.clone(),
        ..Tally::default()
    };
    let (revoke_p50, revoke_p99) = kill_latency(&mut clients, w, &mut revoke_tally);
    tally.merge(revoke_tally);
    let prim = primitives::measure(rng.seed32());

    let mut layers = Layers::default();
    layers.add(&setup_spans, w.flow_span());
    for t in &threads {
        layers.add(t, w.flow_span());
    }
    threads.push(setup_spans);
    let path = std::path::PathBuf::from(format!("perfbench/out/spans-{}.json", args.name));
    layers::write_spans(&path, &threads).expect("write the span file");

    println!(
        "workload {} seed {}: traced flows {} (spans in {})",
        args.name,
        args.seed,
        layers.flows,
        path.display()
    );
    println!(
        "per-flow self time (us) over {} traced flows of {:.1} us:",
        layers.flows,
        layers.flow_us()
    );
    for layer in FLOW_LAYERS.iter().chain(&CALL_LAYERS) {
        println!(
            "  {layer:<10} {:>9.2} us  {:>6.2} calls",
            layers.layer_self_us(layer),
            layers.layer_calls_per_flow(layer)
        );
    }
    println!("  unattributed {:>7.2} us", layers.unattributed_us());

    let mut m = Metrics(Vec::new());
    m.put("crypto.ed25519_sign_us", prim.sign_us, "us");
    m.put("crypto.ed25519_verify_us", prim.verify_us, "us");
    m.put("crypto.sha256_mib_s", prim.sha256_mib_s, "MiB/s");
    m.put("crypto.aead_seal_open_us", prim.aead_seal_open_us, "us");
    m.put("crypto.json_parse_us", prim.json_parse_us, "us");
    m.put(
        "federation.proxy_authenticate_us",
        layers.call_us("federation.proxy_authenticate"),
        "us",
    );
    m.put(
        "broker.login_federated_us",
        layers.call_us("broker.login_federated"),
        "us",
    );
    m.put(
        "broker.issue_token_us",
        layers.call_us("broker.issue_token"),
        "us",
    );
    m.put(
        "broker.jwks_validate_us",
        layers.call_us("broker.jwks_validate"),
        "us",
    );
    let token_lookups =
        (after.token_hits + after.token_misses - before.token_hits - before.token_misses) as f64;
    m.put(
        "broker.token_cache_hit_ratio",
        (after.token_hits - before.token_hits) as f64 / token_lookups,
        "ratio",
    );
    m.put(
        "broker.token_cache_lookups_per_flow",
        token_lookups / flows,
        "count/flow",
    );
    m.put(
        "broker.revoke_subject_us",
        layers.call_us("broker.revoke_subject"),
        "us",
    );
    m.put(
        "broker.sessions_per_kflow",
        (after.sessions as f64 - before.sessions as f64) / kflows,
        "count/kflow",
    );
    m.put("policy.decide_us", layers.call_us("policy.decide"), "us");
    m.put(
        "policy.decide_share_of_flow_p50",
        layers.call_us("policy.decide") / untraced_p50,
        "ratio",
    );
    let memo_lookups =
        (after.memo_hits + after.memo_misses - before.memo_hits - before.memo_misses) as f64;
    m.put(
        "policy.memo_hit_ratio",
        (after.memo_hits - before.memo_hits) as f64 / memo_lookups,
        "ratio",
    );
    m.put(
        "policy.memo_lookups_per_flow",
        memo_lookups / flows,
        "count/flow",
    );
    m.put(
        "portal.lookup_us",
        layers.per_flow_us(&[
            "portal.active_projects_for",
            "portal.roles_for",
            "portal.unix_accounts",
        ]),
        "us",
    );
    m.put(
        "portal.onboard_researcher_self_us",
        layers.setup_us_per(
            &["portal.invite_researcher", "portal.accept_invitation"],
            "flow.story3",
        ),
        "us",
    );
    m.put(
        "sshca.obtain_certificate_us",
        layers.call_us("sshca.obtain_certificate"),
        "us",
    );
    let tunnel_self = layers.call_self_us("netsim.tunnel_handle");
    m.put(
        "netsim.edge_handle_self_us",
        layers.call_self_us("netsim.edge_handle") - tunnel_self,
        "us",
    );
    m.put("netsim.tunnel_handle_self_us", tunnel_self, "us");
    m.put(
        "netsim.bastion_relay_us",
        layers.call_us("netsim.bastion_relay"),
        "us",
    );
    m.put(
        "netsim.bastion_block_user_us",
        layers.call_us("netsim.bastion_block_user"),
        "us",
    );
    m.put(
        "netsim.bastion_relays_per_kflow",
        (after.relays as f64 - before.relays as f64) / kflows,
        "count/kflow",
    );
    m.put(
        "cluster.jupyter_spawn_self_us",
        layers.call_self_us("cluster.jupyter_spawn"),
        "us",
    );
    m.put(
        "cluster.jupyter_stop_us",
        layers.call_us("cluster.jupyter_stop"),
        "us",
    );
    m.put(
        "cluster.login_open_session_us",
        layers.call_us("cluster.login_open_session"),
        "us",
    );
    m.put(
        "cluster.jupyter_sever_subject_us",
        layers.call_us("cluster.jupyter_sever_subject"),
        "us",
    );
    m.put(
        "cluster.login_sever_by_key_id_us",
        layers.call_us("cluster.login_sever_by_key_id"),
        "us",
    );
    m.put(
        "cluster.slurm_cancel_user_jobs_us",
        layers.call_us("cluster.slurm_cancel_user_jobs"),
        "us",
    );
    m.put(
        "cluster.notebooks_per_kflow",
        (after.notebooks as f64 - before.notebooks as f64) / kflows,
        "count/kflow",
    );
    m.put(
        "cluster.shells_per_kflow",
        (after.shells as f64 - before.shells as f64) / kflows,
        "count/kflow",
    );
    m.put(
        "siem.events_per_flow",
        (after.siem_events - before.siem_events) as f64 / flows,
        "count/flow",
    );
    m.put("siem.flush_us", layers.call_us("siem.flush"), "us");
    m.put(
        "trace.spans_per_flow",
        (after.spans as f64 - before.spans as f64) / flows,
        "count/flow",
    );
    for layer in FLOW_LAYERS {
        m.put(
            format!("{layer}.self_us"),
            layers.layer_self_us(layer),
            "us",
        );
        m.put(
            format!("{layer}.calls_per_flow"),
            layers.layer_calls_per_flow(layer),
            "count/flow",
        );
    }
    // Federation and sshca are absent from some workloads' flows; their
    // cost is in their per-call metrics above.
    for layer in CALL_LAYERS {
        m.put(
            format!("{layer}.calls_per_flow"),
            layers.layer_calls_per_flow(layer),
            "count/flow",
        );
    }
    m.put("core.flow_us", layers.flow_us(), "us");
    m.put("core.unattributed_us", layers.unattributed_us(), "us");
    m.put(
        "core.tracing_overhead_ratio",
        untraced_fps / traced_fps,
        "ratio",
    );
    m.put(
        "core.steady_p50_ratio",
        steady_ratio(&untraced.latencies),
        "ratio",
    );
    m.put("core.revoke_p50_us", revoke_p50, "us");
    m.put("core.revoke_p99_us", revoke_p99, "us");

    tally.merge(untraced);
    tally.merge(warm);
    (tally, m)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <notebook_storm|login_ssh|revocation_churn> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let (tally, metrics) = if args.trace {
        per_layer(&args)
    } else {
        end_to_end(&args)
    };
    print_result(&tally, &metrics);
}
