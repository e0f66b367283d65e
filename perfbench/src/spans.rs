//! The benchmark's own span recorder. Spans wrap the calls the benchmark
//! makes into each layer's public functions; the program's internal
//! `dri-trace` spans are left alone. Each thread keeps its spans in
//! memory and hands them over when its loop ends.

use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;

/// Which part of the run a span belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Setup,
    Main,
    Probe,
}

pub struct Span {
    pub flow: u32,
    /// Index of the parent span in the same thread's list.
    pub parent: Option<u32>,
    /// Index of the outermost span this one runs under (itself for a root).
    pub root: u32,
    pub name: &'static str,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name up to the first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Local {
    on: bool,
    flow: u32,
    phase: Phase,
    stack: Vec<u32>,
    spans: Vec<Span>,
}

thread_local! {
    static LOCAL: RefCell<Local> = const {
        RefCell::new(Local { on: false, flow: 0, phase: Phase::Setup, stack: Vec::new(), spans: Vec::new() })
    };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Start recording on this thread.
pub fn enable(phase: Phase) {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.on = true;
        l.phase = phase;
    });
}

/// Tag the spans that follow with a flow id.
pub fn set_flow(flow: u32) {
    LOCAL.with(|l| l.borrow_mut().flow = flow);
}

/// Stop recording on this thread and take its spans.
pub fn take() -> Vec<Span> {
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        l.on = false;
        l.stack.clear();
        std::mem::take(&mut l.spans)
    })
}

/// Run `f` inside a span named `layer.call`. A no-op wrapper while
/// recording is off on this thread.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        if !l.on {
            return None;
        }
        let idx = l.spans.len() as u32;
        let parent = l.stack.last().copied();
        let root = parent.map_or(idx, |p| l.spans[p as usize].root);
        let (flow, phase) = (l.flow, l.phase);
        l.spans.push(Span {
            flow,
            parent,
            root,
            name,
            phase,
            start_ns: now_ns(),
            end_ns: 0,
        });
        l.stack.push(idx);
        Some(idx)
    });
    let out = f();
    if let Some(idx) = idx {
        let end = now_ns();
        LOCAL.with(|l| {
            let mut l = l.borrow_mut();
            l.stack.pop();
            l.spans[idx as usize].end_ns = end;
        });
    }
    out
}

/// Self time of every span: its duration minus the time its children
/// cover. Children of one span run one after another on its thread, so
/// their durations add up without overlap.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            covered[p as usize] += s.dur_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns().saturating_sub(c))
        .collect()
}
