//! Closed-loop clients for the three workloads, with the correctness
//! checks that turn a wrong outcome into a failed operation.

use std::collections::BTreeMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use isambard_dri::broker::broker::Jwks;
use isambard_dri::prelude::*;

use crate::flows;
use crate::population::User;
use crate::spans::{self, span, Phase, Span};
use crate::stats::Rng;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    NotebookStorm,
    LoginSsh,
    RevocationChurn,
}

/// A kill, its probes, reinstatement and re-login every this many flows.
pub const KILL_EVERY: u64 = 16;
/// A broker key rotation and JWKS distribution every this many flows.
pub const ROTATE_EVERY: u64 = 256;
/// Traced runs drain the SIEM queue themselves every this many flows, so
/// the drain is timed on its own rather than inside whichever emit
/// happens to find the queue full.
const FLUSH_EVERY: u64 = 256;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "notebook_storm" => Some(Workload::NotebookStorm),
            "login_ssh" => Some(Workload::LoginSsh),
            "revocation_churn" => Some(Workload::RevocationChurn),
            _ => None,
        }
    }

    /// Closed-loop clients: two for the storm (no more than the host's
    /// cores), one otherwise.
    pub fn clients(self) -> usize {
        match self {
            Workload::NotebookStorm => {
                let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
                cores.min(2)
            }
            _ => 1,
        }
    }

    /// Name of the root span of one traced flow.
    pub fn flow_span(self) -> &'static str {
        match self {
            Workload::LoginSsh => "flow.login_ssh",
            _ => "flow.story6",
        }
    }
}

/// What one client observed.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// Successful flows.
    pub completed: u64,
    /// (seconds since the pass started, latency µs); a failed flow has
    /// an infinite latency so it misses any limit.
    pub latencies: Vec<(f64, f64)>,
    pub revoke_us: Vec<f64>,
    pub kill_cycles: u64,
    /// Correctness violations by kind; every one is also a failure.
    pub violations: BTreeMap<&'static str, u64>,
    pub first_errors: Vec<String>,
}

impl Tally {
    fn violation(&mut self, kind: &'static str, detail: String) {
        self.failed += 1;
        *self.violations.entry(kind).or_default() += 1;
        if self.first_errors.len() < 5 {
            self.first_errors.push(format!("{kind}: {detail}"));
        }
    }

    fn flow_error(&mut self, err: String) {
        let kind = if err.contains("capacity") || err.contains("rate limited") {
            "refused_for_capacity_or_rate"
        } else {
            "flow_error"
        };
        self.violation(kind, err);
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.latencies.extend(other.latencies);
        self.revoke_us.extend(other.revoke_us);
        self.kill_cycles += other.kill_cycles;
        for (k, v) in other.violations {
            *self.violations.entry(k).or_default() += v;
        }
        for e in other.first_errors {
            if self.first_errors.len() < 5 {
                self.first_errors.push(e);
            }
        }
    }
}

/// One closed-loop client: it owns a disjoint share of the users and
/// cycles through them in seed order.
pub struct Client<'a> {
    pub id: u32,
    infra: &'a Infrastructure,
    users: &'a [User],
    order: Vec<usize>,
    pos: usize,
    /// The notebook each user holds, closed before the user's next flow.
    notebooks: Vec<Option<String>>,
    ip_base: u32,
    ips: u32,
    flows: u64,
    rng: Rng,
    jwks: Option<Jwks>,
    pub tally: Tally,
}

impl<'a> Client<'a> {
    pub fn new(
        id: u32,
        infra: &'a Infrastructure,
        users: &'a [User],
        order: Vec<usize>,
        seed: u64,
    ) -> Self {
        let mut rng = Rng::new(seed ^ u64::from(id).wrapping_mul(0xA076_1D64_78BD_642F));
        Client {
            id,
            infra,
            users,
            order,
            pos: 0,
            notebooks: vec![None; users.len()],
            ip_base: rng.below(1 << 22) as u32,
            ips: 0,
            flows: 0,
            rng,
            jwks: None,
            tally: Tally::default(),
        }
    }

    pub fn user_count(&self) -> usize {
        self.order.len()
    }

    /// A source address no other flow of this run uses.
    fn next_ip(&mut self) -> String {
        let v = (self.ip_base + self.ips) & 0x00FF_FFFF;
        self.ips += 1;
        format!(
            "{}.{}.{}.{}",
            10 + self.id,
            v >> 16,
            (v >> 8) & 0xFF,
            v & 0xFF
        )
    }

    /// Run one flow of the workload (plus, on `revocation_churn`, the
    /// kill cycle or key rotation that falls due after it).
    pub fn step(&mut self, workload: Workload, traced: bool, since: Instant) {
        let idx = self.order[self.pos];
        self.pos = (self.pos + 1) % self.order.len();
        spans::set_flow((self.id << 24) | (self.flows as u32 & 0x00FF_FFFF));
        match workload {
            Workload::LoginSsh => self.ssh_flow(idx, traced, since),
            _ => self.notebook_flow(idx, traced, since),
        }
        self.flows += 1;
        if traced && self.flows.is_multiple_of(FLUSH_EVERY) {
            span("siem.flush", || self.infra.siem.flush());
        }
        if workload == Workload::RevocationChurn {
            if self.flows.is_multiple_of(KILL_EVERY) {
                self.kill_cycle(idx, traced);
            }
            if self.flows.is_multiple_of(ROTATE_EVERY) {
                let seed = self.rng.seed32();
                flows::rotate_keys(self.infra, seed);
            }
        }
    }

    fn record(&mut self, since: Instant, start: Instant, ok: bool) {
        let end = Instant::now();
        let lat = if ok {
            (end - start).as_secs_f64() * 1e6
        } else {
            f64::INFINITY
        };
        self.tally.attempted += 1;
        self.tally.completed += u64::from(ok);
        self.tally
            .latencies
            .push(((end - since).as_secs_f64(), lat));
    }

    fn notebook_flow(&mut self, idx: usize, traced: bool, since: Instant) {
        let infra = self.infra;
        let u = &self.users[idx];
        if let Some(id) = self.notebooks[idx].take() {
            flows::stop_notebook(infra, &id);
        }
        let ip = self.next_ip();
        let start = Instant::now();
        let (result, headers) = if traced {
            span("flow.story6", || flows::traced_story6(infra, u, &ip))
        } else {
            (flows::story6(infra, u, &ip), None)
        };
        let ok = match result {
            Ok(nb)
                if nb.unix_account == u.account
                    && nb.subject == u.subject
                    && nb.project == u.project =>
            {
                self.notebooks[idx] = Some(nb.id);
                true
            }
            Ok(nb) => {
                let detail = format!("{} ran as {} in {}", u.label, nb.unix_account, nb.project);
                self.notebooks[idx] = Some(nb.id);
                self.tally.violation("wrong_unix_account", detail);
                false
            }
            Err(e) => {
                self.tally.flow_error(format!("{}: {e}", u.label));
                false
            }
        };
        self.record(since, start, ok);
        if let Some(headers) = headers {
            self.layer_probes(headers);
        }
    }

    /// Traced runs only: time the JWKS validation of the token just
    /// issued, and the tunnel on its own with the same headers.
    fn layer_probes(&mut self, headers: flows::Headers) {
        let infra = self.infra;
        let epoch = infra.broker.jwks_epoch();
        if self.jwks.as_ref().is_none_or(|j| j.epoch != epoch) {
            self.jwks = Some(infra.broker.jwks());
        }
        let jwks = self.jwks.as_ref().expect("just refreshed");
        let token = &headers[0].1;
        let now = infra.clock.now_secs();
        if span("broker.jwks_validate", || {
            jwks.validate(token, "jupyter", now)
        })
        .is_err()
        {
            self.tally
                .violation("issued_token_invalid", "JWKS refused a fresh token".into());
        }
        if !flows::tunnel_probe(infra, headers) {
            self.tally
                .violation("tunnel_probe_failed", "echo route refused".into());
        }
    }

    fn ssh_flow(&mut self, idx: usize, traced: bool, since: Instant) {
        let infra = self.infra;
        let u = &self.users[idx];
        let start = Instant::now();
        let result: Result<_, String> = if traced {
            span("flow.login_ssh", || {
                let session = flows::traced_login(infra, u)?;
                let (relay, shell) = flows::traced_ssh(infra, u)?;
                flows::logout(infra, &shell.id, &session);
                Ok((relay, shell))
            })
        } else {
            (|| {
                let session = flows::login(infra, u)?;
                let (relay, shell) = flows::ssh(infra, u)?;
                flows::logout(infra, &shell.id, &session);
                Ok((relay, shell))
            })()
        };
        let ok = match result {
            Ok((relay, shell))
                if shell.account == u.account
                    && relay.principal == u.account
                    && shell.key_id == u.subject =>
            {
                true
            }
            Ok((relay, shell)) => {
                let detail = format!(
                    "{} shell {} relay {}",
                    u.label, shell.account, relay.principal
                );
                self.tally.violation("wrong_unix_account", detail);
                false
            }
            Err(e) => {
                self.tally.flow_error(format!("{}: {e}", u.label));
                false
            }
        };
        self.record(since, start, ok);
    }

    /// Kill the user of the flow that just ran, check that nothing they
    /// held still works, then reinstate them and log them back in.
    fn kill_cycle(&mut self, idx: usize, traced: bool) {
        let infra = self.infra;
        let u = &self.users[idx];
        self.tally.attempted += 1;
        self.tally.kill_cycles += 1;
        let token = match flows::jupyter_token(infra, u) {
            Ok(t) => t,
            Err(e) => {
                return self
                    .tally
                    .flow_error(format!("{}: token before kill: {e}", u.label))
            }
        };
        let start = Instant::now();
        flows::kill(infra, &u.subject, traced);
        self.tally
            .revoke_us
            .push(start.elapsed().as_secs_f64() * 1e6);
        // The kill severed the victim's notebook.
        self.notebooks[idx] = None;
        if let Ok(nb) = flows::spawn_with_token(infra, &token) {
            flows::stop_notebook(infra, &nb.id);
            self.tally.violation("stale_token_allowed", u.label.clone());
        }
        let ip = self.next_ip();
        let attempt = if traced {
            span("flow.story6_after_kill", || {
                flows::traced_story6(infra, u, &ip).0
            })
        } else {
            flows::story6(infra, u, &ip)
        };
        if let Ok(nb) = attempt {
            flows::stop_notebook(infra, &nb.id);
            self.tally.violation("stale_flow_allowed", u.label.clone());
        }
        flows::reinstate(infra, &u.subject);
        let relogin = if traced {
            span("flow.relogin", || flows::traced_login(infra, u))
        } else {
            flows::login(infra, u)
        };
        if let Err(e) = relogin {
            self.tally
                .violation("relogin_failed", format!("{}: {e}", u.label));
        }
    }

    /// Stop every notebook this client's users hold.
    pub fn stop_notebooks(&mut self) {
        for id in self.notebooks.iter_mut().filter_map(Option::take) {
            flows::stop_notebook(self.infra, &id);
        }
    }

    /// Where the client is in its round of users.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Log in the `n` users from round position `from` on: `login_ssh`
    /// flows leave their users logged out, and a notebook flow needs a
    /// session.
    pub fn log_in(&mut self, from: usize, n: usize) {
        for k in 0..n.min(self.order.len()) {
            let u = &self.users[self.order[(from + k) % self.order.len()]];
            if let Err(e) = flows::login(self.infra, u) {
                self.tally.flow_error(format!("{}: {e}", u.label));
            }
        }
    }

    /// One pass over this client's users in which each user is killed
    /// right after its flow, timing each kill: the revocation figures of
    /// the workloads that do not revoke in their loop. The kills spread
    /// over the whole pass and meet state that grows the same way on
    /// every run. Nobody is reinstated.
    pub fn kill_after_each(&mut self, workload: Workload) {
        let infra = self.infra;
        let since = Instant::now();
        for _ in 0..self.order.len() {
            let idx = self.order[self.pos];
            self.step(workload, false, since);
            let u = &self.users[idx];
            self.tally.attempted += 1;
            let start = Instant::now();
            flows::kill(infra, &u.subject, false);
            self.tally
                .revoke_us
                .push(start.elapsed().as_secs_f64() * 1e6);
            if infra.session_of(&u.label).is_ok() {
                self.tally
                    .violation("session_survived_kill", u.label.clone());
            }
        }
    }
}

/// Split the population among `n` clients in seed order.
pub fn clients<'a>(
    infra: &'a Infrastructure,
    users: &'a [User],
    n: usize,
    seed: u64,
) -> Vec<Client<'a>> {
    let mut order: Vec<usize> = (0..users.len()).collect();
    Rng::new(seed).shuffle(&mut order);
    (0..n)
        .map(|c| {
            let mine = order.iter().copied().skip(c).step_by(n).collect();
            Client::new(c as u32, infra, users, mine, seed)
        })
        .collect()
}

/// How long a pass runs: `Flows(k)` flows per client, or `Time(d)`.
pub enum Budget {
    Flows(usize),
    Time(Duration),
}

/// One pass of all clients at once. Returns the pass's wall time (the
/// longest client's) and, for traced passes, every client's spans.
pub fn pass(
    clients: &mut [Client],
    workload: Workload,
    traced: bool,
    budget: Budget,
) -> (Duration, Vec<Vec<Span>>) {
    let barrier = Barrier::new(clients.len());
    let results: Vec<(Duration, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let barrier = &barrier;
                let budget = &budget;
                scope.spawn(move || {
                    if traced {
                        spans::enable(Phase::Main);
                    }
                    barrier.wait();
                    let since = Instant::now();
                    match budget {
                        Budget::Flows(k) => {
                            (0..*k).for_each(|_| client.step(workload, traced, since))
                        }
                        Budget::Time(d) => {
                            let deadline = since + *d;
                            while Instant::now() < deadline {
                                client.step(workload, traced, since);
                            }
                        }
                    }
                    (since.elapsed(), spans::take())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = results.iter().map(|r| r.0).max().unwrap_or_default();
    (wall, results.into_iter().map(|r| r.1).collect())
}
