//! Per-layer figures from the traced run's spans.

use std::collections::HashMap;
use std::io::Write;

use crate::spans::{self_times, Phase, Span};

/// The layers whose self time every workload's flow exercises; their
/// per-flow self times plus `federation`, `sshca` and the unattributed
/// remainder add up to the traced flow time.
pub const FLOW_LAYERS: [&str; 8] = [
    "core", "policy", "portal", "broker", "netsim", "cluster", "siem", "trace",
];
/// Layers only some flows call; their cost is reported per call.
pub const CALL_LAYERS: [&str; 2] = ["federation", "sshca"];

#[derive(Default, Clone, Copy)]
struct Acc {
    calls: u64,
    dur_ns: u64,
    self_ns: u64,
}

#[derive(Default)]
pub struct Layers {
    /// Per span name, spans of the setup phase.
    setup: HashMap<&'static str, Acc>,
    /// Per span name, spans of the measured and probe phases.
    run: HashMap<&'static str, Acc>,
    /// Per layer, self time and calls inside measured flows.
    in_flows: HashMap<&'static str, Acc>,
    pub flows: u64,
    flow_ns: u64,
    unattributed_ns: u64,
}

impl Layers {
    /// Fold one thread's spans in. `flow_span` names the root span of a
    /// measured flow of the workload.
    pub fn add(&mut self, spans: &[Span], flow_span: &str) {
        let selfs = self_times(spans);
        for (i, (s, &own)) in spans.iter().zip(&selfs).enumerate() {
            let by_name = if s.phase == Phase::Setup {
                &mut self.setup
            } else {
                &mut self.run
            };
            let acc = by_name.entry(s.name).or_default();
            acc.calls += 1;
            acc.dur_ns += s.dur_ns();
            acc.self_ns += own;

            let root = &spans[s.root as usize];
            if root.phase != Phase::Main || root.name != flow_span {
                continue;
            }
            if s.root as usize == i {
                self.flows += 1;
                self.flow_ns += s.dur_ns();
                self.unattributed_ns += own;
            } else {
                let acc = self.in_flows.entry(s.layer()).or_default();
                acc.calls += 1;
                acc.self_ns += own;
            }
        }
    }

    fn run_acc(&self, name: &str) -> Acc {
        self.run.get(name).copied().unwrap_or_default()
    }

    /// Mean duration of one call, µs.
    pub fn call_us(&self, name: &str) -> f64 {
        let a = self.run_acc(name);
        a.dur_ns as f64 / 1e3 / a.calls as f64
    }

    /// Mean self time of one call, µs.
    pub fn call_self_us(&self, name: &str) -> f64 {
        let a = self.run_acc(name);
        a.self_ns as f64 / 1e3 / a.calls as f64
    }

    /// Summed duration of the named calls per measured flow, µs.
    pub fn per_flow_us(&self, names: &[&str]) -> f64 {
        let total: u64 = names.iter().map(|n| self.run_acc(n).dur_ns).sum();
        total as f64 / 1e3 / self.flows as f64
    }

    /// Summed self time of the named setup calls per call of `per`, µs.
    pub fn setup_us_per(&self, names: &[&str], per: &str) -> f64 {
        let total: u64 = names
            .iter()
            .map(|n| self.setup.get(n).map_or(0, |a| a.self_ns))
            .sum();
        let calls = self.setup.get(per).map_or(0, |a| a.calls);
        total as f64 / 1e3 / calls as f64
    }

    pub fn layer_self_us(&self, layer: &str) -> f64 {
        let a = self.in_flows.get(layer).copied().unwrap_or_default();
        a.self_ns as f64 / 1e3 / self.flows as f64
    }

    pub fn layer_calls_per_flow(&self, layer: &str) -> f64 {
        let a = self.in_flows.get(layer).copied().unwrap_or_default();
        a.calls as f64 / self.flows as f64
    }

    pub fn flow_us(&self) -> f64 {
        self.flow_ns as f64 / 1e3 / self.flows as f64
    }

    pub fn unattributed_us(&self) -> f64 {
        self.unattributed_ns as f64 / 1e3 / self.flows as f64
    }
}

/// Write every span, one array per span:
/// `[thread, index, parent, root, flow, phase, name, start_ns, end_ns]`.
pub fn write_spans(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"fields\":[\"thread\",\"index\",\"parent\",\"root\",\"flow\",\"phase\",\"name\",\"start_ns\",\"end_ns\"],\"spans\":[")?;
    let mut first = true;
    for (t, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, i64::from);
            let sep = if first { "" } else { ",\n" };
            first = false;
            write!(
                out,
                "{sep}[{t},{i},{parent},{},{},\"{:?}\",\"{}\",{},{}]",
                s.root, s.flow, s.phase, s.name, s.start_ns, s.end_ns
            )?;
        }
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}
