//! The critical-path model over a concrete trace: baseline execution-time
//! estimate, Figure 2 breakdown, and the criticality-based load cost
//! functions that PTHSEL+E consumes.
//!
//! A model is built in two halves. The [`CritPathSkeleton`] holds what
//! no latency touches: the branch-predictor replay that places the
//! misprediction edges, each event's serving level, and the flattened
//! dependence and PC arrays. [`CritPathSkeleton::model`] finishes it for
//! one hierarchy and machine: per-event latencies, the baseline longest
//! path, and the load-cost sampling. One skeleton therefore serves every
//! memory latency of one cache geometry.

use crate::graph::{longest_path_by, Breakdown, NodeInput, PathResult};
use crate::{CritPathConfig, LoadCost};
use preexec_bpred::{HybridPredictor, PredictorConfig};
use preexec_isa::{InstClass, Pc};
use preexec_mem::{HierarchyConfig, Level};
use preexec_trace::{MemAnnotation, Seq, Trace};
use std::borrow::Cow;

const FLAG_MEM_LOAD: u8 = 1;
const FLAG_MISPREDICTED: u8 = 2;

/// Reusable lane buffers for [`CritPathModel::cycles_lanes`]. Guarded by a
/// mutex so the model stays `Sync`; a contended call simply allocates a
/// private buffer, trading memory for lock-freedom.
#[derive(Debug, Default)]
struct Scratch {
    te4: Vec<[u32; 4]>,
    te5: Vec<[u32; 5]>,
    te9: Vec<[u32; 9]>,
}

/// The latency-free half of a [`CritPathModel`]: one cache-friendly
/// record per dynamic instruction, derived from the trace and the
/// annotation's serving levels only (never from its latencies).
///
/// # Examples
///
/// ```
/// use preexec_critpath::{CritPathConfig, CritPathSkeleton};
/// use preexec_isa::{ProgramBuilder, Reg};
/// use preexec_mem::HierarchyConfig;
/// use preexec_trace::{FuncSim, MemAnnotation};
///
/// let mut b = ProgramBuilder::new("p");
/// b.li(Reg::new(1), 1).addi(Reg::new(1), Reg::new(1), 2).halt();
/// let prog = b.build();
/// let trace = FuncSim::new(&prog).run_trace(100);
/// let ann = MemAnnotation::compute(&trace, HierarchyConfig::default());
/// let skeleton = CritPathSkeleton::new(&trace, &ann);
/// for mem_latency in [100, 300] {
///     let hier = HierarchyConfig::default().with_mem_latency(mem_latency);
///     let model = skeleton.model(&hier, CritPathConfig::default());
///     assert!(model.execution_time() > 0);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct CritPathSkeleton<'t> {
    trace: &'t Trace,
    /// Serving level of each event (`None` for non-memory instructions).
    served: Vec<Option<Level>>,
    /// Up to two register producers plus one store→load producer, as
    /// indices into the trace; `u32::MAX` marks an absent slot.
    deps: Vec<[u32; 3]>,
    /// Static PC, for matching the targeted problem load.
    pc: Vec<Pc>,
    /// Bit 0: load served from memory (an L2 miss). Bit 1: mispredicted
    /// conditional branch.
    flags: Vec<u8>,
}

impl<'t> CritPathSkeleton<'t> {
    /// Replays `trace` through the shared branch predictor and records
    /// the serving levels from `ann`.
    pub fn new(trace: &'t Trace, ann: &MemAnnotation) -> CritPathSkeleton<'t> {
        let mut bpred = HybridPredictor::new(PredictorConfig::default());
        let n = trace.len();
        let mut skeleton = CritPathSkeleton {
            trace,
            served: Vec::with_capacity(n),
            deps: Vec::with_capacity(n),
            pc: Vec::with_capacity(n),
            flags: Vec::with_capacity(n),
        };
        for e in trace {
            let mispredicted = match e.taken {
                Some(taken) => !bpred.update(e.pc, taken),
                None => false,
            };
            let served = ann.served(e.seq);
            let mut deps = [u32::MAX; 3];
            for (k, d) in e
                .src_deps
                .iter()
                .flatten()
                .chain(e.mem_dep.iter())
                .enumerate()
            {
                deps[k] = *d as u32;
            }
            let mut f = 0u8;
            if e.inst.is_load() && served == Some(Level::Mem) {
                f |= FLAG_MEM_LOAD;
            }
            if mispredicted {
                f |= FLAG_MISPREDICTED;
            }
            skeleton.served.push(served);
            skeleton.deps.push(deps);
            skeleton.pc.push(e.pc);
            skeleton.flags.push(f);
        }
        skeleton
    }

    /// Finishes the model for memory latencies from `hier` and the
    /// machine `cfg`, borrowing this skeleton.
    pub fn model(&self, hier: &HierarchyConfig, cfg: CritPathConfig) -> CritPathModel<'_> {
        CritPathModel::finish(Cow::Borrowed(self), hier, cfg)
    }

    /// Event `i`'s unreduced graph input: its execute latency under
    /// `hier` (loads) or `mul_latency` (multiplies), its serving level
    /// and its misprediction flag.
    fn input(&self, i: usize, hier: &HierarchyConfig, mul_latency: u64) -> NodeInput {
        let served = self.served[i];
        let latency = match self.trace.event(i as Seq).inst.class() {
            InstClass::Load => served.map_or(0, |level| hier.load_latency(level)),
            InstClass::Store => 1, // retire-time write, off the path
            InstClass::IntMul => mul_latency,
            InstClass::Branch | InstClass::Jump | InstClass::IntAlu => 1,
            InstClass::Other => 1,
        };
        NodeInput {
            latency,
            served,
            mispredicted: self.flags[i] & FLAG_MISPREDICTED != 0,
        }
    }
}

/// A dependence-graph critical-path model bound to one trace.
///
/// Construction replays the trace through the shared branch predictor (to
/// place misprediction edges) and snapshots per-instruction latencies from
/// the memory annotation. Evaluations with hypothetically reduced load
/// latencies then share that base state. Graph inputs are derived per
/// event on demand rather than stored, which keeps a model's footprint
/// to its skeleton plus four bytes per event.
///
/// # Examples
///
/// ```
/// use preexec_critpath::{CritPathConfig, CritPathModel};
/// use preexec_isa::{ProgramBuilder, Reg};
/// use preexec_mem::HierarchyConfig;
/// use preexec_trace::{FuncSim, MemAnnotation};
///
/// let mut b = ProgramBuilder::new("p");
/// b.li(Reg::new(1), 1).addi(Reg::new(1), Reg::new(1), 2).halt();
/// let prog = b.build();
/// let trace = FuncSim::new(&prog).run_trace(100);
/// let ann = MemAnnotation::compute(&trace, HierarchyConfig::default());
/// let model = CritPathModel::new(&trace, &ann, CritPathConfig::default());
/// assert!(model.execution_time() > 0);
/// ```
#[derive(Debug)]
pub struct CritPathModel<'t> {
    skeleton: Cow<'t, CritPathSkeleton<'t>>,
    cfg: CritPathConfig,
    hier: HierarchyConfig,
    /// Baseline execute latency per event, packed for the batched
    /// cycles-only evaluator.
    base_lat: Vec<u32>,
    l2_hit_latency: u64,
    mem_miss_latency: u64,
    baseline: PathResult,
    scratch: std::sync::Mutex<Scratch>,
}

impl Clone for CritPathModel<'_> {
    fn clone(&self) -> Self {
        CritPathModel {
            skeleton: self.skeleton.clone(),
            cfg: self.cfg,
            hier: self.hier,
            base_lat: self.base_lat.clone(),
            l2_hit_latency: self.l2_hit_latency,
            mem_miss_latency: self.mem_miss_latency,
            baseline: self.baseline.clone(),
            scratch: std::sync::Mutex::default(),
        }
    }
}

impl<'t> CritPathModel<'t> {
    /// Builds the model for `trace` with memory levels and latencies from
    /// `ann`: a [`CritPathSkeleton`] finished at `ann`'s hierarchy.
    pub fn new(trace: &'t Trace, ann: &MemAnnotation, cfg: CritPathConfig) -> CritPathModel<'t> {
        CritPathModel::finish(
            Cow::Owned(CritPathSkeleton::new(trace, ann)),
            ann.config(),
            cfg,
        )
    }

    /// The latency-dependent half: per-event execute latencies under
    /// `hier` and `cfg`, then the baseline longest path.
    fn finish(
        skeleton: Cow<'t, CritPathSkeleton<'t>>,
        hier: &HierarchyConfig,
        cfg: CritPathConfig,
    ) -> CritPathModel<'t> {
        let l2_hit_latency = hier.l1d.latency + hier.l2.latency;
        let mem_miss_latency = l2_hit_latency + hier.mem_latency;
        let mut base_lat = Vec::with_capacity(skeleton.served.len());
        let baseline = longest_path_by(
            skeleton.trace,
            |i| {
                let input = skeleton.input(i, hier, cfg.mul_latency);
                base_lat.push(input.latency as u32);
                input
            },
            &cfg,
        );
        CritPathModel {
            skeleton,
            cfg,
            hier: *hier,
            base_lat,
            l2_hit_latency,
            mem_miss_latency,
            baseline,
            scratch: std::sync::Mutex::default(),
        }
    }

    /// Batched cycles-only longest path: evaluates `L` hypothetical
    /// latency assignments in one pass over the trace. Lane `l` gives the
    /// targeted problem load the latency `target_lat[l]`; every other
    /// L2-missing load keeps its baseline latency, or becomes an L2 hit
    /// when `others_resolved[l]` (the optimistic interaction variant) —
    /// per-lane, so one pass can carry pessimistic and optimistic lanes
    /// together.
    ///
    /// This computes exactly the `cycles` field of [`longest_path`] —
    /// breakdown attribution needs the predecessor chain and stays on the
    /// scalar path — in 32-bit lanes (hypothetical latencies only ever
    /// shrink, so every node time is bounded by the 32-bit-checked
    /// baseline).
    fn cycles_lanes<const L: usize>(
        &self,
        te: &mut Vec<[u32; L]>,
        target: Pc,
        target_lat: [u32; L],
        others_resolved: [bool; L],
    ) -> [u64; L] {
        let c = &*self.skeleton;
        let n = self.base_lat.len();
        if n == 0 {
            return [0; L];
        }
        if te.len() < n {
            te.resize(n, [0; L]);
        }
        let fw = self.cfg.fetch_width as usize;
        let cw = self.cfg.commit_width as usize;
        let rob = self.cfg.rob_size as usize;
        let fd = self.cfg.frontend_depth as u32;
        let mp = self.cfg.mispredict_penalty as u32;
        let l2 = self.l2_hit_latency as u32;
        let mut tc_ring: Vec<[u32; L]> = vec![[0; L]; rob];
        let mut tf_prev = [0u32; L];
        let mut te_prev = [0u32; L];
        let mut tc_prev = [0u32; L];
        let mut prev_misp = false;
        let mut kf = 0usize; // i % fetch_width
        let mut kc = 0usize; // i % commit_width
        for i in 0..n {
            // --- F node ---
            let mut tf = [0u32; L];
            if i > 0 {
                let w = (kf == 0) as u32;
                for l in 0..L {
                    tf[l] = tf_prev[l] + w;
                }
                if prev_misp {
                    for l in 0..L {
                        tf[l] = tf[l].max(te_prev[l] + mp);
                    }
                }
            }
            if i >= rob {
                let old = tc_ring[i % rob]; // tc[i - rob]
                for l in 0..L {
                    tf[l] = tf[l].max(old[l] + 1);
                }
            }
            // --- per-lane latency ---
            let f = c.flags[i];
            let lat: [u32; L] = if f & FLAG_MEM_LOAD != 0 && c.pc[i] == target {
                target_lat
            } else if f & FLAG_MEM_LOAD != 0 {
                let b = self.base_lat[i];
                let mut a = [0u32; L];
                for l in 0..L {
                    a[l] = if others_resolved[l] { l2 } else { b };
                }
                a
            } else {
                [self.base_lat[i]; L]
            };
            // --- E node ---
            let mut t = [0u32; L];
            for l in 0..L {
                t[l] = tf[l] + fd + lat[l];
            }
            for &d in &c.deps[i] {
                if d == u32::MAX {
                    break;
                }
                let td = te[d as usize];
                for l in 0..L {
                    t[l] = t[l].max(td[l] + lat[l]);
                }
            }
            te[i] = t;
            // --- C node ---
            let mut tc = t;
            if i > 0 {
                let w = (kc == 0) as u32;
                for l in 0..L {
                    tc[l] = tc[l].max(tc_prev[l] + w);
                }
            }
            tc_ring[i % rob] = tc;
            tf_prev = tf;
            te_prev = t;
            tc_prev = tc;
            prev_misp = f & FLAG_MISPREDICTED != 0;
            kf += 1;
            if kf == fw {
                kf = 0;
            }
            kc += 1;
            if kc == cw {
                kc = 0;
            }
        }
        let mut out = [0u64; L];
        for l in 0..L {
            out[l] = tc_prev[l] as u64;
        }
        out
    }

    /// True when every node time provably fits the 32-bit lanes: reduced
    /// latencies never exceed their baseline values, so each lane's node
    /// times are bounded by the baseline critical path.
    fn lanes_safe(&self) -> bool {
        self.baseline.cycles < (u32::MAX / 2) as u64
    }

    /// The reduced latency the paper's sampling assigns the target load at
    /// `fraction` of its tolerable (prefetchable) portion.
    fn reduced_latency(&self, fraction: f64) -> u64 {
        let tol = (self.mem_miss_latency - self.l2_hit_latency) as f64;
        (self.mem_miss_latency as f64 - fraction * tol).round() as u64
    }

    /// The model's predicted unoptimized execution time in cycles.
    pub fn execution_time(&self) -> u64 {
        self.baseline.cycles
    }

    /// The model's predicted unoptimized IPC (the paper's `BWSEQmt`).
    pub fn ipc(&self) -> f64 {
        if self.baseline.cycles == 0 {
            0.0
        } else {
            self.skeleton.trace.len() as f64 / self.baseline.cycles as f64
        }
    }

    /// The Figure 2 execution-time breakdown of the baseline.
    pub fn breakdown(&self) -> Breakdown {
        self.baseline.breakdown
    }

    /// Full miss latency minus L2-hit latency: the cycles of one miss a
    /// perfect prefetch can remove (the paper's `Lcm` tolerable portion).
    pub fn tolerable_cycles(&self) -> u64 {
        self.mem_miss_latency - self.l2_hit_latency
    }

    /// Evaluates a hypothetical execution where the L2 misses of the static
    /// load at `pc` are reduced by `fraction` of their tolerable latency,
    /// and, when `others_resolved`, every other L2 miss is fully resolved
    /// to an L2 hit (the optimistic interaction-cost variant).
    pub fn time_with_reduction(&self, pc: Pc, fraction: f64, others_resolved: bool) -> u64 {
        let s = &*self.skeleton;
        let input = |i: usize| {
            let mut input = s.input(i, &self.hier, self.cfg.mul_latency);
            if s.flags[i] & FLAG_MEM_LOAD == 0 {
                return input;
            }
            if s.pc[i] == pc {
                let tol = (self.mem_miss_latency - self.l2_hit_latency) as f64;
                let reduced = self.mem_miss_latency as f64 - fraction * tol;
                input.latency = reduced.round() as u64;
            } else if others_resolved {
                input.latency = self.l2_hit_latency;
                input.served = Some(Level::L2);
            }
            input
        };
        longest_path_by(s.trace, input, &self.cfg).cycles
    }

    /// Computes the criticality-based load cost function for the problem
    /// load at `pc`, averaging the pessimistic (only this load is helped)
    /// and optimistic (all contemporaneous misses resolved) critical-path
    /// estimates, exactly as §4.1 of the paper prescribes. The function is
    /// sampled at 25/50/75/100% latency reduction and linearly
    /// interpolated between samples.
    pub fn load_cost(&self, pc: Pc) -> LoadCost {
        self.load_cost_with(pc, InteractionModel::Averaged)
    }

    /// Like [`CritPathModel::load_cost`] but with an explicit
    /// interaction-cost treatment — the §4.1 ablation knob. The paper
    /// argues pure pessimism under-selects (overlapped misses all look
    /// non-critical) and pure optimism over-selects (like classic PTHSEL);
    /// averaging the two is its chosen compromise.
    pub fn load_cost_with(&self, pc: Pc, interaction: InteractionModel) -> LoadCost {
        let s = &*self.skeleton;
        let misses = (0..s.pc.len())
            .filter(|&i| s.pc[i] == pc && s.flags[i] & FLAG_MEM_LOAD != 0)
            .count() as u64;
        let tol_max = self.tolerable_cycles() as f64;
        if misses == 0 {
            return LoadCost::flat(pc, 0, tol_max);
        }
        if !self.lanes_safe() {
            return self.load_cost_scalar(pc, interaction, misses, tol_max);
        }
        // Batched path: every sample the interaction model needs comes
        // from one multi-lane pass (Averaged fuses the four pessimistic
        // and five optimistic lanes) instead of up to nine scalar
        // longest-path evaluations.
        let red = |frac: f64| self.reduced_latency(frac) as u32;
        let mut guard = self.scratch.try_lock().ok();
        let mut local = None;
        let s = match guard.as_deref_mut() {
            Some(s) => s,
            None => local.insert(Scratch::default()),
        };
        let (pess, opt) = match interaction {
            InteractionModel::Pessimistic => (
                self.cycles_lanes(
                    &mut s.te4,
                    pc,
                    [red(0.25), red(0.5), red(0.75), red(1.0)],
                    [false; 4],
                ),
                [0u64; 5],
            ),
            InteractionModel::Optimistic => (
                [0u64; 4],
                self.cycles_lanes(
                    &mut s.te5,
                    pc,
                    [red(0.0), red(0.25), red(0.5), red(0.75), red(1.0)],
                    [true; 5],
                ),
            ),
            InteractionModel::Averaged => {
                let all = self.cycles_lanes(
                    &mut s.te9,
                    pc,
                    [
                        red(0.25),
                        red(0.5),
                        red(0.75),
                        red(1.0),
                        red(0.0),
                        red(0.25),
                        red(0.5),
                        red(0.75),
                        red(1.0),
                    ],
                    [false, false, false, false, true, true, true, true, true],
                );
                (
                    [all[0], all[1], all[2], all[3]],
                    [all[4], all[5], all[6], all[7], all[8]],
                )
            }
        };
        let t_pess_base = self.baseline.cycles as f64;
        let t_opt_base = opt[0] as f64;
        let mut points = Vec::with_capacity(5);
        points.push((0.0, 0.0));
        for (k, &frac) in [0.25, 0.5, 0.75, 1.0].iter().enumerate() {
            let d_pess = || t_pess_base - pess[k] as f64;
            let d_opt = || t_opt_base - opt[k + 1] as f64;
            let per_miss = match interaction {
                InteractionModel::Pessimistic => d_pess(),
                InteractionModel::Optimistic => d_opt(),
                InteractionModel::Averaged => 0.5 * (d_pess() + d_opt()),
            } / misses as f64;
            points.push((frac * tol_max, per_miss.max(0.0)));
        }
        LoadCost::from_points(pc, misses, tol_max, points)
    }

    /// The scalar reference sampling, kept verbatim as the fallback for
    /// (pathological) traces whose critical path does not fit the 32-bit
    /// lanes, and as the oracle the batched path is tested against.
    fn load_cost_scalar(
        &self,
        pc: Pc,
        interaction: InteractionModel,
        misses: u64,
        tol_max: f64,
    ) -> LoadCost {
        let t_pess_base = self.baseline.cycles as f64;
        let t_opt_base = self.time_with_reduction(pc, 0.0, true) as f64;
        let mut points = Vec::with_capacity(5);
        points.push((0.0, 0.0));
        for &frac in &[0.25, 0.5, 0.75, 1.0] {
            let d_pess = || t_pess_base - self.time_with_reduction(pc, frac, false) as f64;
            let d_opt = || t_opt_base - self.time_with_reduction(pc, frac, true) as f64;
            let per_miss = match interaction {
                InteractionModel::Pessimistic => d_pess(),
                InteractionModel::Optimistic => d_opt(),
                InteractionModel::Averaged => 0.5 * (d_pess() + d_opt()),
            } / misses as f64;
            points.push((frac * tol_max, per_miss.max(0.0)));
        }
        LoadCost::from_points(pc, misses, tol_max, points)
    }
}

/// How contemporaneous-miss interaction costs are approximated when
/// sampling a load's cost function (§4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum InteractionModel {
    /// Only the targeted load's misses are reduced; overlapped misses make
    /// every individual load look non-critical.
    Pessimistic,
    /// All other L2 misses are assumed resolved, like classic PTHSEL but
    /// with secondary-path awareness.
    Optimistic,
    /// The paper's choice: the mean of the two estimates.
    #[default]
    Averaged,
}

#[cfg(test)]
mod tests {
    use super::*;
    use preexec_mem::HierarchyConfig;
    use preexec_trace::FuncSim;
    use preexec_workloads::{build, InputSet};

    fn model_for(name: &str) -> (preexec_isa::Program, Trace) {
        let p = build(name, InputSet::Train).unwrap();
        let t = FuncSim::new(&p).run_trace(150_000);
        (p, t)
    }

    #[test]
    fn mcf_is_memory_dominated() {
        let (_, t) = model_for("mcf");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let b = m.breakdown();
        let mem_frac = b.mem / b.total();
        assert!(
            mem_frac > 0.6,
            "mcf memory fraction {mem_frac} should dominate"
        );
    }

    #[test]
    fn gcc_is_less_memory_bound_than_mcf() {
        let (_, tg) = model_for("gcc");
        let anng = MemAnnotation::compute(&tg, HierarchyConfig::default());
        let mg = CritPathModel::new(&tg, &anng, CritPathConfig::default());
        let (_, tm) = model_for("mcf");
        let annm = MemAnnotation::compute(&tm, HierarchyConfig::default());
        let mm = CritPathModel::new(&tm, &annm, CritPathConfig::default());
        let fg = mg.breakdown().mem / mg.breakdown().total();
        let fm = mm.breakdown().mem / mm.breakdown().total();
        assert!(fg < fm, "gcc {fg} should be below mcf {fm}");
    }

    #[test]
    fn cost_function_is_monotone_and_bounded() {
        let (p, t) = model_for("gap");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = preexec_trace::Profile::compute(&p, &t, &ann);
        let target = prof.problem_loads(&p, 100)[0].pc;
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let cost = m.load_cost(target);
        let tol = m.tolerable_cycles() as f64;
        let mut last = 0.0;
        for k in 0..=8 {
            let x = tol * k as f64 / 8.0;
            let g = cost.gain(x);
            assert!(g + 1e-9 >= last, "gain must be nondecreasing");
            assert!(
                g <= x + 1e-9,
                "per-miss gain {g} cannot exceed tolerated {x}"
            );
            last = g;
        }
    }

    #[test]
    fn overlapped_misses_have_sublinear_cost() {
        // mcf's misses overlap heavily: the per-miss gain at full
        // tolerance must be well below the tolerable latency.
        let (p, t) = model_for("mcf");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = preexec_trace::Profile::compute(&p, &t, &ann);
        let target = prof.problem_loads(&p, 100)[0].pc;
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let cost = m.load_cost(target);
        let tol = m.tolerable_cycles() as f64;
        assert!(
            cost.gain(tol) < 0.8 * tol,
            "mcf per-miss gain {} should be sublinear vs {}",
            cost.gain(tol),
            tol
        );
    }

    #[test]
    fn ipc_is_sane() {
        let (_, t) = model_for("gcc");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let ipc = m.ipc();
        assert!(ipc > 0.05 && ipc < 6.0, "ipc {ipc}");
    }

    /// The multi-lane cycles-only evaluator must reproduce the scalar
    /// longest-path sampling bit-for-bit: same cycles per sample, hence
    /// identical cost-function points, for every interaction model.
    #[test]
    fn batched_sampling_matches_scalar_reference() {
        for name in ["gap", "mcf", "gcc"] {
            let (p, t) = model_for(name);
            let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
            let prof = preexec_trace::Profile::compute(&p, &t, &ann);
            let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
            assert!(m.lanes_safe(), "{name} baseline must fit 32-bit lanes");
            for pl in prof.problem_loads(&p, 100).iter().take(4) {
                for im in [
                    InteractionModel::Pessimistic,
                    InteractionModel::Optimistic,
                    InteractionModel::Averaged,
                ] {
                    let fast = m.load_cost_with(pl.pc, im);
                    let misses = fast.misses();
                    let slow = m.load_cost_scalar(pl.pc, im, misses, m.tolerable_cycles() as f64);
                    assert_eq!(
                        format!("{fast:?}"),
                        format!("{slow:?}"),
                        "{name} pc {} {im:?}",
                        pl.pc
                    );
                }
            }
        }
    }

    /// Direct lane-vs-scalar check on the raw cycle counts, including the
    /// frac-0 optimistic base sample.
    #[test]
    fn lane_cycles_equal_longest_path_cycles() {
        let (p, t) = model_for("gap");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = preexec_trace::Profile::compute(&p, &t, &ann);
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let pc = prof.problem_loads(&p, 100)[0].pc;
        let red = |f: f64| m.reduced_latency(f) as u32;
        let mut te4 = Vec::new();
        let mut te5 = Vec::new();
        let pess = m.cycles_lanes(
            &mut te4,
            pc,
            [red(0.25), red(0.5), red(0.75), red(1.0)],
            [false; 4],
        );
        let opt = m.cycles_lanes(
            &mut te5,
            pc,
            [red(0.0), red(0.25), red(0.5), red(0.75), red(1.0)],
            [true; 5],
        );
        for (k, &frac) in [0.25, 0.5, 0.75, 1.0].iter().enumerate() {
            assert_eq!(pess[k], m.time_with_reduction(pc, frac, false));
            assert_eq!(opt[k + 1], m.time_with_reduction(pc, frac, true));
        }
        assert_eq!(opt[0], m.time_with_reduction(pc, 0.0, true));
    }

    /// One skeleton finished at each memory latency must equal a model
    /// built from scratch on an annotation computed at that latency.
    #[test]
    fn a_shared_skeleton_matches_a_model_per_latency() {
        let (p, t) = model_for("gap");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let prof = preexec_trace::Profile::compute(&p, &t, &ann);
        let pcs: Vec<Pc> = prof
            .problem_loads(&p, 100)
            .iter()
            .take(3)
            .map(|pl| pl.pc)
            .collect();
        let skeleton = CritPathSkeleton::new(&t, &ann);
        for mem_latency in [100, 300] {
            let hier = HierarchyConfig::default().with_mem_latency(mem_latency);
            let own_ann = MemAnnotation::compute(&t, hier);
            let own = CritPathModel::new(&t, &own_ann, CritPathConfig::default());
            let shared = skeleton.model(&hier, CritPathConfig::default());
            assert_eq!(shared.execution_time(), own.execution_time());
            assert_eq!(shared.breakdown(), own.breakdown());
            assert_eq!(shared.ipc().to_bits(), own.ipc().to_bits());
            for &pc in &pcs {
                assert_eq!(shared.load_cost(pc), own.load_cost(pc), "pc {pc}");
            }
        }
    }

    #[test]
    fn unknown_load_yields_flat_zero_cost() {
        let (_, t) = model_for("gap");
        let ann = MemAnnotation::compute(&t, HierarchyConfig::default());
        let m = CritPathModel::new(&t, &ann, CritPathConfig::default());
        let cost = m.load_cost(99999);
        assert_eq!(cost.misses(), 0);
        assert_eq!(cost.gain(100.0), 0.0);
    }
}
