//! Spans recorded around calls into the program's layers, kept in
//! memory and folded into per-layer self times at the end of a pass.
//!
//! Every span is a leaf under one root span that covers the whole
//! traced pass, so a layer's self time is the sum of its spans and the
//! root's self time (`harness.self_ms`) is the pass's wall time minus
//! all of them.

use crate::alloc;
use std::collections::BTreeMap;
use std::time::Instant;

/// A layer of the program, named after its crate.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// Orchestration: memo layers, keys, cell bookkeeping (the root).
    Harness,
    /// `preexec-workloads` (and `build_program`): building binaries.
    Workloads,
    /// `preexec-gen`: scenario building and admission.
    Gen,
    /// `preexec-trace`: functional trace, memory annotation, profile.
    Trace,
    /// `preexec-slicer`: slice trees.
    Slicer,
    /// `preexec-critpath`: critical-path model and load costs.
    Critpath,
    /// `preexec-sim`: timing runs.
    Sim,
    /// `pthsel` (`crates/core`): selection.
    Pthsel,
    /// `preexec-campaign`: the persistent store.
    Campaign,
    /// `preexec-json`: DTO decoding and encoding.
    Json,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 10] = [
        Layer::Harness,
        Layer::Workloads,
        Layer::Gen,
        Layer::Trace,
        Layer::Slicer,
        Layer::Critpath,
        Layer::Sim,
        Layer::Pthsel,
        Layer::Campaign,
        Layer::Json,
    ];

    /// The metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Workloads => "workloads",
            Layer::Gen => "gen",
            Layer::Trace => "trace",
            Layer::Slicer => "slicer",
            Layer::Critpath => "critpath",
            Layer::Sim => "sim",
            Layer::Pthsel => "pthsel",
            Layer::Campaign => "campaign",
            Layer::Json => "json",
        }
    }

    /// The allocation-counter slot of this layer (never 0).
    pub fn slot(self) -> usize {
        1 + Layer::ALL.iter().position(|&l| l == self).expect("listed")
    }
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was called, e.g. `sim.pthread`.
    pub name: &'static str,
    /// The layer it belongs to.
    pub layer: Layer,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
    /// Index of the causing span (`None` for the root).
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An in-memory span recorder for one single-threaded traced pass.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// Opens the root span and tags this thread's allocations as
    /// harness work.
    pub fn start() -> Tracer {
        let saved = alloc::set_tag(0);
        let mut spans = Vec::with_capacity(1 << 16);
        spans.push(Span {
            name: "harness.pass",
            layer: Layer::Harness,
            start_ns: 0,
            end_ns: 0,
            parent: None,
        });
        alloc::set_tag(saved);
        let tracer = Tracer {
            origin: Instant::now(),
            spans,
        };
        alloc::set_tag(Layer::Harness.slot());
        tracer
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a leaf span and returns its result and duration.
    pub fn span<T>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> T) -> (T, u64) {
        let prev = alloc::set_tag(layer.slot());
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        // The recorder's own bookkeeping is never counted.
        alloc::set_tag(0);
        self.spans.push(Span {
            name,
            layer,
            start_ns,
            end_ns,
            parent: Some(0),
        });
        alloc::set_tag(prev);
        (out, end_ns - start_ns)
    }

    /// Closes the root span, stops counting, and returns the spans.
    pub fn finish(mut self) -> Vec<Span> {
        let end = self.now();
        alloc::set_tag(0);
        self.spans[0].end_ns = end;
        self.spans
    }
}

/// Per-layer and per-span-name totals of one finished pass.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Wall time of the root span, nanoseconds.
    pub wall_ns: u64,
    /// Self time per layer, nanoseconds (harness = root self time).
    pub self_ns: BTreeMap<Layer, u64>,
    /// `(calls, nanoseconds)` per span name.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
}

impl Summary {
    /// Folds spans into self times: a span's self time is its duration
    /// minus what its children cover.
    pub fn of(spans: &[Span]) -> Summary {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.nanos();
            }
        }
        let mut out = Summary {
            wall_ns: spans.first().map(Span::nanos).unwrap_or(0),
            ..Summary::default()
        };
        for (i, s) in spans.iter().enumerate() {
            *out.self_ns.entry(s.layer).or_default() += s.nanos().saturating_sub(child_ns[i]);
            if s.parent.is_some() {
                let e = out.by_name.entry(s.name).or_default();
                e.0 += 1;
                e.1 += s.nanos();
            }
        }
        out
    }

    /// `(calls, nanoseconds)` of spans named `name`.
    pub fn get(&self, name: &str) -> (u64, u64) {
        self.by_name.get(name).copied().unwrap_or((0, 0))
    }

    /// Self time of `layer` in milliseconds.
    pub fn self_ms(&self, layer: Layer) -> f64 {
        self.self_ns.get(&layer).copied().unwrap_or(0) as f64 / 1e6
    }
}
