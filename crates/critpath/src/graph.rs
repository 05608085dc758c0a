//! The dependence-graph longest-path engine.
//!
//! Each dynamic instruction contributes three nodes — fetch (F), execute-
//! complete (E), and commit (C) — connected by weighted edges that encode
//! the machine's constraints: in-order fetch at finite bandwidth, branch-
//! misprediction refill, a finite ROB, dataflow (register and store→load),
//! execution latency, and in-order commit at finite bandwidth. The longest
//! path through the graph is the model's predicted execution time, and the
//! per-category sum of edge weights along that path is the paper's
//! Figure 2 execution-time breakdown.

use crate::CritPathConfig;
use preexec_isa::InstClass;
use preexec_mem::Level;
use preexec_trace::{Seq, Trace};
use std::fmt;

/// Critical-path edge category, matching the paper's breakdown bars.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Category {
    /// Fetch bandwidth/latency — includes branch-misprediction refill and
    /// finite-window (ROB) stalls, as in the paper.
    Fetch,
    /// In-order commit bandwidth.
    Commit,
    /// Execution latency (ALU and L1-hit memory operations).
    Exec,
    /// L2-hit load latency.
    L2,
    /// Main-memory (L2 miss) load latency.
    Mem,
}

impl Category {
    /// All categories, in the paper's bar-stack order (bottom to top is
    /// mem, L2, exec, commit, fetch; this array is top-down).
    pub const ALL: [Category; 5] = [
        Category::Fetch,
        Category::Commit,
        Category::Exec,
        Category::L2,
        Category::Mem,
    ];
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::Fetch => "fetch",
            Category::Commit => "commit",
            Category::Exec => "exec",
            Category::L2 => "L2",
            Category::Mem => "mem",
        };
        f.write_str(s)
    }
}

/// Cycles of the critical path attributed to each category.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct Breakdown {
    /// Fetch bandwidth, branch mispredictions, finite window.
    pub fetch: f64,
    /// Commit bandwidth.
    pub commit: f64,
    /// Execution (ALU + L1 hits).
    pub exec: f64,
    /// L2 hit latency.
    pub l2: f64,
    /// Memory latency.
    pub mem: f64,
}

impl Breakdown {
    /// Total cycles across categories (equals the critical-path length).
    pub fn total(&self) -> f64 {
        self.fetch + self.commit + self.exec + self.l2 + self.mem
    }

    fn add(&mut self, cat: Category, w: f64) {
        match cat {
            Category::Fetch => self.fetch += w,
            Category::Commit => self.commit += w,
            Category::Exec => self.exec += w,
            Category::L2 => self.l2 += w,
            Category::Mem => self.mem += w,
        }
    }
}

/// Which node of an instruction an edge terminates at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Node {
    F,
    E,
    C,
}

/// Back-pointer for path reconstruction: predecessor node and the edge's
/// category and weight.
#[derive(Clone, Copy, Debug)]
struct Pred {
    node: Node,
    seq: Seq,
    cat: Category,
    weight: u64,
    /// `false` for the virtual program-start predecessor.
    valid: bool,
}

const START: Pred = Pred {
    node: Node::F,
    seq: 0,
    cat: Category::Fetch,
    weight: 0,
    valid: false,
};

/// Per-dynamic-instruction inputs to the graph: resolved execute latency
/// (already reflecting any hypothetical load-latency reduction) and the
/// level that served memory operations.
#[derive(Clone, Copy, Debug)]
pub struct NodeInput {
    /// Execute latency in cycles.
    pub latency: u64,
    /// Serving level for loads/stores, `None` otherwise.
    pub served: Option<Level>,
    /// `true` if this instruction is a mispredicted conditional branch.
    pub mispredicted: bool,
}

/// Result of one longest-path evaluation.
#[derive(Clone, Debug)]
pub struct PathResult {
    /// Critical-path length in cycles (predicted execution time).
    pub cycles: u64,
    /// Per-category attribution along the critical path.
    pub breakdown: Breakdown,
}

/// Evaluates the longest path for `trace` with per-instruction `inputs`.
///
/// `inputs[i]` must correspond to `trace.event(i)`. Runs in O(n) time and
/// O(n) space: per event, one execute time and three backtrack links;
/// fetch and commit times are kept only as far back as they are read.
///
/// # Panics
///
/// Panics if `inputs.len() != trace.len()`.
pub fn longest_path(trace: &Trace, inputs: &[NodeInput], cfg: &CritPathConfig) -> PathResult {
    assert_eq!(inputs.len(), trace.len(), "one input per trace event");
    longest_path_by(trace, |i| inputs[i], cfg)
}

/// [`longest_path`] with event `i`'s input computed by `input(i)`, called
/// once per event in trace order, so no input slice is materialized.
pub(crate) fn longest_path_by(
    trace: &Trace,
    mut input: impl FnMut(usize) -> NodeInput,
    cfg: &CritPathConfig,
) -> PathResult {
    let n = trace.len();
    if n == 0 {
        return PathResult {
            cycles: 0,
            breakdown: Breakdown::default(),
        };
    }
    let fw = cfg.fetch_width as usize;
    let cw = cfg.commit_width as usize;
    let rob = cfg.rob_size as usize;

    let mut te = vec![0u64; n]; // execute-complete times
    let mut pf = vec![START; n];
    let mut pe = vec![START; n];
    let mut pc = vec![START; n];
    let mut tf_prev = 0u64; // fetch time of event i - 1
    let mut tc_prev = 0u64; // commit time of event i - 1
                            // Commit times of the last `rob` events: slot `i % rob` holds event
                            // `i - rob`'s until event `i` overwrites it.
    let mut tc_ring = vec![0u64; rob.max(1)];

    let mut prev_mispredicted = false;
    for i in 0..n {
        let e = trace.event(i as Seq);
        let inp = input(i);

        // --- F node ---
        let mut best_t = 0u64;
        let mut best_p = START;
        if i > 0 {
            // In-order fetch at finite bandwidth: a new fetch group starts
            // every `fetch_width` instructions.
            let w = u64::from(i % fw == 0);
            consider(
                &mut best_t,
                &mut best_p,
                tf_prev,
                Node::F,
                (i - 1) as Seq,
                Category::Fetch,
                w,
            );
            // Branch misprediction: fetch of the next instruction waits for
            // the branch to execute plus the refill penalty.
            if prev_mispredicted {
                consider(
                    &mut best_t,
                    &mut best_p,
                    te[i - 1],
                    Node::E,
                    (i - 1) as Seq,
                    Category::Fetch,
                    cfg.mispredict_penalty,
                );
            }
        }
        if i >= rob {
            // Finite window: the ROB slot is recycled at the commit of the
            // instruction `rob` positions earlier.
            // With no ROB at all this is the event's own, still-unset
            // commit time.
            let tc_old = if rob == 0 { 0 } else { tc_ring[i % rob] };
            consider(
                &mut best_t,
                &mut best_p,
                tc_old,
                Node::C,
                (i - rob) as Seq,
                Category::Fetch,
                1,
            );
        }
        let tf_i = best_t;
        pf[i] = best_p;

        // --- E node (execution completes) ---
        // Dispatch from fetch through the front end, then execute.
        let own_cat = exec_category(e.inst.class(), inp.served);
        let mut best_t = tf_i + cfg.frontend_depth + inp.latency;
        let mut best_p = Pred {
            node: Node::F,
            seq: i as Seq,
            cat: own_cat,
            weight: cfg.frontend_depth + inp.latency,
            valid: true,
        };
        for dep in e.src_deps.iter().flatten().chain(e.mem_dep.iter()) {
            let d = *dep as usize;
            debug_assert!(d < i);
            consider(
                &mut best_t,
                &mut best_p,
                te[d],
                Node::E,
                *dep,
                own_cat,
                inp.latency,
            );
        }
        te[i] = best_t;
        pe[i] = best_p;

        // --- C node ---
        let mut best_t = te[i];
        let mut best_p = Pred {
            node: Node::E,
            seq: i as Seq,
            cat: Category::Exec,
            weight: 0,
            valid: true,
        };
        if i > 0 {
            let w = u64::from(i % cw == 0);
            consider(
                &mut best_t,
                &mut best_p,
                tc_prev,
                Node::C,
                (i - 1) as Seq,
                Category::Commit,
                w,
            );
        }
        tc_ring[i % rob.max(1)] = best_t;
        pc[i] = best_p;
        tf_prev = tf_i;
        tc_prev = best_t;
        prev_mispredicted = inp.mispredicted;
    }

    // Backtrack from the last commit, attributing edge weights.
    let mut breakdown = Breakdown::default();
    let mut node = Node::C;
    let mut seq = (n - 1) as Seq;
    loop {
        let p = match node {
            Node::F => pf[seq as usize],
            Node::E => pe[seq as usize],
            Node::C => pc[seq as usize],
        };
        if !p.valid {
            break;
        }
        breakdown.add(p.cat, p.weight as f64);
        node = p.node;
        seq = p.seq;
    }
    PathResult {
        cycles: tc_prev,
        breakdown,
    }
}

#[inline]
#[allow(clippy::too_many_arguments)]
fn consider(
    best_t: &mut u64,
    best_p: &mut Pred,
    src_t: u64,
    node: Node,
    seq: Seq,
    cat: Category,
    weight: u64,
) {
    let t = src_t + weight;
    if t > *best_t {
        *best_t = t;
        *best_p = Pred {
            node,
            seq,
            cat,
            weight,
            valid: true,
        };
    }
}

/// Category of an instruction's execution-latency edges.
fn exec_category(class: InstClass, served: Option<Level>) -> Category {
    match (class, served) {
        (InstClass::Load, Some(Level::Mem)) => Category::Mem,
        (InstClass::Load, Some(Level::L2)) => Category::L2,
        _ => Category::Exec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_isa::{ProgramBuilder, Reg};
    use preexec_trace::FuncSim;

    fn default_cfg() -> CritPathConfig {
        CritPathConfig::default()
    }

    fn inputs_uniform(trace: &Trace, latency: u64) -> Vec<NodeInput> {
        trace
            .iter()
            .map(|_| NodeInput {
                latency,
                served: None,
                mispredicted: false,
            })
            .collect()
    }

    #[test]
    fn categories_enumerate_and_display() {
        assert_eq!(Category::ALL.len(), 5);
        let names: Vec<String> = Category::ALL.iter().map(|c| c.to_string()).collect();
        assert_eq!(names, vec!["fetch", "commit", "exec", "L2", "mem"]);
    }

    #[test]
    fn empty_trace_is_zero() {
        let t = Trace::default();
        let r = longest_path(&t, &[], &default_cfg());
        assert_eq!(r.cycles, 0);
        assert_eq!(r.breakdown.total(), 0.0);
    }

    #[test]
    fn breakdown_sums_to_total() {
        let mut b = ProgramBuilder::new("p");
        let r1 = Reg::new(1);
        b.li(r1, 0);
        for _ in 0..50 {
            b.addi(r1, r1, 1);
        }
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(1000);
        let inputs = inputs_uniform(&t, 1);
        let r = longest_path(&t, &inputs, &default_cfg());
        assert!((r.breakdown.total() - r.cycles as f64).abs() < 1e-6);
    }

    #[test]
    fn dependent_chain_is_serial() {
        // 50 dependent addis: execution time ~ frontend + 50 cycles.
        let mut b = ProgramBuilder::new("chain");
        let r1 = Reg::new(1);
        b.li(r1, 0);
        for _ in 0..50 {
            b.addi(r1, r1, 1);
        }
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(1000);
        let inputs = inputs_uniform(&t, 1);
        let cfg = default_cfg();
        let r = longest_path(&t, &inputs, &cfg);
        let expected_min = cfg.frontend_depth + 50;
        assert!(
            r.cycles >= expected_min && r.cycles <= expected_min + 12,
            "cycles {} vs expected ~{}",
            r.cycles,
            expected_min
        );
        // The chain dominates: exec is the biggest component.
        assert!(r.breakdown.exec > r.breakdown.fetch);
    }

    #[test]
    fn independent_instructions_are_fetch_bound() {
        // 300 independent instructions: time ~ 300 / fetch_width.
        let mut b = ProgramBuilder::new("ilp");
        for k in 0..300u32 {
            b.li(Reg::new(1 + (k % 8) as u8), k as i64);
        }
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(1000);
        let inputs = inputs_uniform(&t, 1);
        let cfg = default_cfg();
        let r = longest_path(&t, &inputs, &cfg);
        let expected = 301 / cfg.fetch_width as u64;
        assert!(
            r.cycles as i64 - expected as i64 <= cfg.frontend_depth as i64 + 3,
            "cycles {} expected ~{}",
            r.cycles,
            expected
        );
        assert!(r.breakdown.fetch > r.breakdown.exec);
    }

    #[test]
    fn memory_latency_shows_in_mem_category() {
        let mut b = ProgramBuilder::new("mem");
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        b.li(r1, 0x1000);
        b.ld(r2, r1, 0);
        b.addi(r2, r2, 1); // depends on the load
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(100);
        let mut inputs = inputs_uniform(&t, 1);
        inputs[1] = NodeInput {
            latency: 214,
            served: Some(Level::Mem),
            mispredicted: false,
        };
        let r = longest_path(&t, &inputs, &default_cfg());
        assert!(r.breakdown.mem >= 214.0);
        assert!(r.cycles as f64 >= 214.0);
    }

    #[test]
    fn mispredicted_branch_adds_refill() {
        let mut b = ProgramBuilder::new("br");
        let r1 = Reg::new(1);
        b.li(r1, 1);
        b.bne(r1, Reg::ZERO, "t");
        b.nop();
        b.label("t");
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(100);
        let cfg = default_cfg();
        let base = longest_path(&t, &inputs_uniform(&t, 1), &cfg);
        let mut inputs = inputs_uniform(&t, 1);
        inputs[1].mispredicted = true;
        let with_misp = longest_path(&t, &inputs, &cfg);
        assert!(with_misp.cycles > base.cycles);
        assert!(with_misp.breakdown.fetch > base.breakdown.fetch);
    }

    #[test]
    fn rob_limit_serializes_long_latency_groups() {
        // With a tiny ROB, a long-latency load blocks fetch of
        // instructions ROB-distance later.
        let mut b = ProgramBuilder::new("rob");
        let (r1, r2) = (Reg::new(1), Reg::new(2));
        b.li(r1, 0x1000);
        b.ld(r2, r1, 0);
        for _ in 0..40 {
            b.nop();
        }
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(100);
        let mut cfg = default_cfg();
        cfg.rob_size = 8;
        let mut inputs = inputs_uniform(&t, 1);
        inputs[1] = NodeInput {
            latency: 200,
            served: Some(Level::Mem),
            mispredicted: false,
        };
        let small = longest_path(&t, &inputs, &cfg);
        cfg.rob_size = 128;
        let big = longest_path(&t, &inputs, &cfg);
        assert!(
            small.cycles > big.cycles,
            "small-ROB {} should exceed big-ROB {}",
            small.cycles,
            big.cycles
        );
    }

    #[test]
    fn reducing_a_load_never_increases_time() {
        let mut b = ProgramBuilder::new("mono");
        let (r1, r2, r3) = (Reg::new(1), Reg::new(2), Reg::new(3));
        b.li(r1, 0x1000);
        b.ld(r2, r1, 0);
        b.ld(r3, r1, 64);
        b.add(r2, r2, r3);
        b.halt();
        let prog = b.build();
        let t = FuncSim::new(&prog).run_trace(100);
        let mk = |lat1: u64, lat2: u64| {
            let mut v = inputs_uniform(&t, 1);
            v[1] = NodeInput {
                latency: lat1,
                served: Some(Level::Mem),
                mispredicted: false,
            };
            v[2] = NodeInput {
                latency: lat2,
                served: Some(Level::Mem),
                mispredicted: false,
            };
            v
        };
        let cfg = default_cfg();
        let full = longest_path(&t, &mk(214, 214), &cfg).cycles;
        let half = longest_path(&t, &mk(107, 214), &cfg).cycles;
        let both = longest_path(&t, &mk(107, 107), &cfg).cycles;
        assert!(half <= full);
        assert!(both <= half);
        // Interaction: with the second load still slow, halving the first
        // gains nothing (they overlap).
        assert_eq!(half, full);
    }
}
