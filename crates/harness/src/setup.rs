//! End-to-end experiment preparation: trace → profile → slice trees →
//! critical-path cost functions → baseline simulation, per benchmark.
//!
//! # Which artifact depends on which inputs
//!
//! | Artifact | Inputs |
//! |---|---|
//! | profile and run binaries, run-binary fingerprint | name, `profile_input`, `run_input` |
//! | functional profiling trace | profile binary, `trace_cap` |
//! | annotation's serving levels | trace, cache geometry (sizes, lines, ways) |
//! | [`Profile`], problem loads | trace, serving levels, `problem_frac`, `max_problem_loads` |
//! | slice trees | trace, serving levels, profile, problem loads, `slice` |
//! | critical-path skeleton (branch replay; dependence, PC and flag arrays) | trace, serving levels |
//! | per-event latencies, `costs`, `cp_breakdown`, `cp_ipc` | skeleton, L1D/L2/memory latencies, the machine's widths, ROB, depths and multiply latency |
//! | baseline run | run binary, the whole `SimConfig` |
//! | application parameters ([`Prepared::app`]) | baseline run, energy constants |
//!
//! The first six rows are *latency-free*. The cache model orders LRU by
//! an access tick and sets a fill's tag at once, so no serving level
//! reads a latency, and TLB walks only shift timestamps; a property test
//! in `preexec-prop` pins this. [`PreparedCore::latency_free_key`] names
//! exactly those inputs. One [`Profiled`] run builds them once per key,
//! and [`Profiled::critpath`] finishes the critical-path rows for every
//! config that shares it (the engine's batched `prepared_many`).
//!
//! For memoization the result is split once more: a [`PreparedCore`]
//! holds every artifact that is *independent of the energy constants*
//! and is cached under [`PreparedCore::structural_key`]; [`Prepared`]
//! wraps an `Arc<PreparedCore>` with the full config and the (cheap,
//! energy-dependent) application parameters. Sweeps that only perturb
//! energy constants or selection weights therefore reuse the expensive
//! artifacts.

use crate::metrics::{Metrics, Stage};
use preexec_critpath::{Breakdown, CritPathConfig, CritPathSkeleton, LoadCost};
use preexec_energy::EnergyConfig;
use preexec_isa::Program;
use preexec_sim::{SimConfig, SimReport, Simulator};
use preexec_slicer::{SliceConfig, SliceTree};
use preexec_trace::{FuncSim, MemAnnotation, Profile, Trace};
use preexec_workloads::InputSet;
use pthsel::{
    select, AppParams, EnergyParams, MachineParams, Selection, SelectionTarget, SelectorInputs,
};

/// Version of the analysis/simulation model, folded into every memo and
/// persistent-store key. Bump it whenever a change alters what any
/// cached artifact *means* (simulator timing, selection math, energy
/// accounting, profile mining): in-memory memos die with the process,
/// but the persistent store outlives it, and a stale entry read under a
/// changed model would silently poison every downstream result.
pub const MODEL_VERSION: u32 = 1;

/// Prefixes `raw` with an explicit model-version tag. All cache keys are
/// built through this, so bumping [`MODEL_VERSION`] atomically
/// invalidates every previously persisted entry (old entries just stop
/// being addressed; the store's capacity bound reclaims them).
pub fn versioned(version: u32, raw: &str) -> String {
    format!("mv{version}|{raw}")
}

/// Resolves a benchmark name to its program. Generator scenarios
/// (`gen:` prefix, see `preexec-gen`) carry their whole identity — knob
/// point and data-layout seed — in the name, so the input set does not
/// apply to them; every other name is a hand-written workload kernel
/// parameterized by `input`.
pub fn build_program(name: &str, input: InputSet) -> Option<Program> {
    if preexec_gen::is_gen_name(name) {
        preexec_gen::build_named(name)
    } else {
        preexec_workloads::build(name, input)
    }
}

/// Content fingerprint of a program binary: instructions plus sorted data
/// image, hashed. Persistent-store keys for simulator runs are derived
/// from this rather than from the program *name*, so distinct scenario
/// names that emit identical binaries (the generator's degenerate knob
/// corners, e.g. any `miss_clustering` at `miss_rate` 0) share one stored
/// run per machine configuration.
pub fn program_fingerprint(program: &Program) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for inst in program.insts() {
        let _ = writeln!(text, "{inst}");
    }
    let mut words: Vec<(u64, u64)> = program.image().iter().collect();
    words.sort_unstable();
    for (addr, value) in words {
        let _ = writeln!(text, "{addr} {value}");
    }
    preexec_campaign::content_hash(&text)
}

/// Experiment-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ExpConfig {
    /// Simulated machine.
    pub sim: SimConfig,
    /// Energy accounting constants (simulator side).
    pub energy: EnergyConfig,
    /// Input used to *profile* (mine slices/statistics). The primary study
    /// uses [`InputSet::Train`] — ideal profiling; Figure 4 uses
    /// [`InputSet::Ref`].
    pub profile_input: InputSet,
    /// Input the optimized binary actually *runs* on.
    pub run_input: InputSet,
    /// Dynamic-instruction cap on the profiling trace.
    pub trace_cap: u64,
    /// Slicing configuration.
    pub slice: SliceConfig,
    /// Problem loads must account for at least this fraction of total L2
    /// misses.
    pub problem_frac: f64,
    /// Cap on problem loads per benchmark.
    pub max_problem_loads: usize,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            sim: SimConfig::default(),
            energy: EnergyConfig::default(),
            profile_input: InputSet::Train,
            run_input: InputSet::Train,
            trace_cap: 600_000,
            slice: SliceConfig::default(),
            problem_frac: 0.02,
            max_problem_loads: 6,
        }
    }
}

impl ExpConfig {
    /// Model-side machine parameters consistent with the simulated one.
    pub fn machine_params(&self) -> MachineParams {
        MachineParams {
            bw_seq_proc: self.sim.fetch_width as f64,
            mem_latency: self.sim.hierarchy.mem_latency as f64,
            l1_latency: self.sim.hierarchy.l1d.latency as f64,
            l2_latency: self.sim.hierarchy.l2.latency as f64,
        }
    }

    /// Model-side energy parameters consistent with the accounting ones.
    pub fn energy_params(&self) -> EnergyParams {
        EnergyParams {
            e_fetch_per_access: self.energy.e_icache,
            e_xall_per_access: self.energy.e_xall,
            e_xalu_per_access: self.energy.e_alu,
            e_xload_per_access: self.energy.e_dcache,
            e_l2_per_access: self.energy.e_l2,
            e_idle_per_cycle: self.energy.idle_factor,
            // Busy power for branch pre-execution (§7): the measured
            // average active per-cycle energy of these workloads.
            e_total_per_cycle: 0.35,
        }
    }

    /// Critical-path model parameters consistent with the simulator.
    pub fn critpath_config(&self) -> CritPathConfig {
        CritPathConfig {
            fetch_width: self.sim.fetch_width,
            commit_width: self.sim.commit_width,
            rob_size: self.sim.rob_size as u32,
            frontend_depth: self.sim.decode_delay + 2,
            mispredict_penalty: self.sim.decode_delay + 3,
            mul_latency: self.sim.mul_latency,
        }
    }
}

/// The latency-free half of one benchmark's preparation: its binaries,
/// the profile mined from the profiling trace, and the problem loads.
/// Every config with the same [`PreparedCore::latency_free_key`] shares
/// one `Profiled`. The trace itself travels separately in a
/// [`ProfileTrace`], so the caller can drop it before the baseline runs.
pub(crate) struct Profiled {
    name: String,
    /// The binary that was profiled (built for the profile input).
    profile_prog: Program,
    /// The binary that runs (built for the run input).
    pub(crate) program: Program,
    /// Content fingerprint of `program` ([`program_fingerprint`]).
    pub(crate) fingerprint: String,
    profile: Profile,
    /// PCs of the problem loads, in selection order.
    problem_pcs: Vec<u32>,
}

/// The profiling trace and its serving levels: the memory peak of a
/// preparation, kept only while the slice trees and the critical-path
/// model are built.
pub(crate) struct ProfileTrace {
    trace: Trace,
    ann: MemAnnotation,
}

impl Profiled {
    /// Builds both binaries, runs the profiling trace, and mines the
    /// problem loads, all from `cfg`'s latency-free inputs.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known workload.
    pub(crate) fn build(name: &str, cfg: &ExpConfig, m: &Metrics) -> (Profiled, ProfileTrace) {
        let (profile_prog, program) = m.time(Stage::WorkloadBuild, || {
            let p = build_program(name, cfg.profile_input)
                .unwrap_or_else(|| panic!("unknown workload {name:?}"));
            let r = build_program(name, cfg.run_input).expect("same registry");
            (p, r)
        });
        let fingerprint = program_fingerprint(&program);

        let trace = m.time(Stage::Trace, || {
            FuncSim::new(&profile_prog).run_trace(cfg.trace_cap)
        });
        m.add_trace_insts(trace.len() as u64);
        let (ann, profile) = m.time(Stage::Profile, || {
            let ann = MemAnnotation::compute(&trace, cfg.sim.hierarchy);
            let profile = Profile::compute(&profile_prog, &trace, &ann);
            (ann, profile)
        });

        let min_misses = ((profile.total_l2_misses() as f64 * cfg.problem_frac) as u64).max(64);
        let mut probs = profile.problem_loads(&profile_prog, min_misses);
        probs.truncate(cfg.max_problem_loads);
        let problem_pcs: Vec<u32> = probs.iter().map(|pl| pl.pc).collect();

        let profiled = Profiled {
            name: name.to_string(),
            profile_prog,
            program,
            fingerprint,
            profile,
            problem_pcs,
        };
        (profiled, ProfileTrace { trace, ann })
    }

    /// The slice trees of the problem loads under `slice`.
    pub(crate) fn trees(
        &self,
        run: &ProfileTrace,
        slice: &SliceConfig,
        m: &Metrics,
    ) -> Vec<SliceTree> {
        let trees: Vec<SliceTree> = m.time(Stage::Slice, || {
            self.problem_pcs
                .iter()
                .map(|&pc| {
                    SliceTree::build(
                        &self.profile_prog,
                        &run.trace,
                        &run.ann,
                        &self.profile,
                        pc,
                        slice,
                    )
                })
                .collect()
        });
        m.add_slice_nodes(trees.iter().map(|t| t.len() as u64).sum());
        trees
    }

    /// The critical-path artifacts of each of `cfgs`, which must share
    /// this run's latency-free key: one skeleton, finished per config.
    pub(crate) fn critpath(
        &self,
        run: &ProfileTrace,
        cfgs: &[ExpConfig],
        m: &Metrics,
    ) -> Vec<CritPath> {
        let skeleton = m.time(Stage::Critpath, || {
            CritPathSkeleton::new(&run.trace, &run.ann)
        });
        cfgs.iter()
            .map(|cfg| {
                m.time(Stage::Critpath, || {
                    let cp = skeleton.model(&cfg.sim.hierarchy, cfg.critpath_config());
                    CritPath {
                        costs: self
                            .problem_pcs
                            .iter()
                            .map(|&pc| cp.load_cost(pc))
                            .collect(),
                        cp_breakdown: cp.breakdown(),
                        cp_ipc: cp.ipc(),
                    }
                })
            })
            .collect()
    }
}

/// One config's critical-path artifacts: the latency-dependent half of a
/// [`PreparedBase`] that needs the trace.
pub(crate) struct CritPath {
    costs: Vec<LoadCost>,
    cp_breakdown: Breakdown,
    cp_ipc: f64,
}

impl CritPath {
    /// Completes the base with its baseline run.
    pub(crate) fn with_baseline(self, baseline: SimReport) -> PreparedBase {
        PreparedBase {
            costs: self.costs,
            cp_breakdown: self.cp_breakdown,
            baseline,
            cp_ipc: self.cp_ipc,
        }
    }
}

/// Runs the unoptimized program on `cfg`'s machine, metered.
pub(crate) fn simulate_baseline(program: &Program, cfg: &ExpConfig, m: &Metrics) -> SimReport {
    let baseline = m.time(Stage::BaselineSim, || {
        Simulator::new(program, cfg.sim).run()
    });
    m.add_sim_cycles(baseline.cycles);
    baseline
}

/// The latency-dependent artifacts of one preparation that the slicing
/// knobs do not touch: critical-path cost functions, breakdown and IPC
/// estimate, and the baseline timing run. The engine caches them under
/// [`PreparedBase::base_key`], so slice-knob sweeps (which rebuild
/// trees) still share the critical-path and baseline work.
#[derive(Clone, Debug)]
pub struct PreparedBase {
    /// Criticality-based cost functions of the problem loads.
    pub costs: Vec<LoadCost>,
    /// Critical-path breakdown of the unoptimized profiling run.
    pub cp_breakdown: Breakdown,
    /// Unoptimized timing-simulator baseline (on the run input).
    pub baseline: SimReport,
    /// Critical-path IPC estimate (fallback for unfinished baselines).
    cp_ipc: f64,
}

impl PreparedBase {
    /// The engine's base-layer cache key: [`PreparedCore::structural_key`]
    /// minus `cfg.slice` — slicing knobs reshape the trees but not these
    /// artifacts.
    pub fn base_key(name: &str, cfg: &ExpConfig) -> String {
        versioned(
            MODEL_VERSION,
            &format!(
                "{name}|{:?}|{:?}|{:?}|{}|{}|{}",
                cfg.sim,
                cfg.profile_input,
                cfg.run_input,
                cfg.trace_cap,
                cfg.problem_frac,
                cfg.max_problem_loads,
            ),
        )
    }

    /// The persistent-store key of the baseline timing run: exactly the
    /// simulator's inputs — the binary's *content fingerprint*
    /// ([`program_fingerprint`]) and the machine configuration — so every
    /// name and sweep point sharing a binary and a machine shares the
    /// stored run. Keying on content rather than name is what dedupes
    /// generated scenarios whose knob points emit identical programs.
    pub fn baseline_key_for(fingerprint: &str, cfg: &ExpConfig) -> String {
        versioned(
            MODEL_VERSION,
            &format!("baseline|pf{fingerprint}|{:?}", cfg.sim),
        )
    }
}

/// The energy-independent artifacts of one benchmark's preparation. This
/// is the expensive ~99% of [`Prepared::build`]; the engine caches it by
/// [`PreparedCore::structural_key`] and shares it across threads behind an
/// `Arc`.
#[derive(Clone, Debug)]
pub struct PreparedCore {
    /// Benchmark name.
    pub name: String,
    /// The binary that runs (built for the run input).
    pub program: Program,
    /// Per-PC profile mined from the profiling run.
    pub profile: Profile,
    /// Slice trees of the problem loads.
    pub trees: Vec<SliceTree>,
    /// Criticality-based cost functions of the problem loads.
    pub costs: Vec<LoadCost>,
    /// Critical-path breakdown of the unoptimized profiling run.
    pub cp_breakdown: Breakdown,
    /// Unoptimized timing-simulator baseline (on the run input).
    pub baseline: SimReport,
    /// Content fingerprint of `program` ([`program_fingerprint`]).
    pub fingerprint: String,
    /// Critical-path IPC estimate (fallback for unfinished baselines).
    cp_ipc: f64,
}

impl PreparedCore {
    /// Builds the energy-independent pipeline for `name` under `cfg`,
    /// without an engine.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known workload.
    pub fn build(name: &str, cfg: &ExpConfig) -> PreparedCore {
        let m = Metrics::new();
        let (profiled, run) = Profiled::build(name, cfg, &m);
        let critpath = profiled
            .critpath(&run, std::slice::from_ref(cfg), &m)
            .pop()
            .expect("one critical path per config");
        let trees = profiled.trees(&run, &cfg.slice, &m);
        drop(run);
        let base = critpath.with_baseline(simulate_baseline(&profiled.program, cfg, &m));
        PreparedCore::assemble(&profiled, trees, &base)
    }

    /// Joins a config's latency-free half, its slice trees and its
    /// (possibly cache-served) base.
    pub(crate) fn assemble(
        profiled: &Profiled,
        trees: Vec<SliceTree>,
        base: &PreparedBase,
    ) -> PreparedCore {
        PreparedCore {
            name: profiled.name.clone(),
            program: profiled.program.clone(),
            profile: profiled.profile.clone(),
            trees,
            costs: base.costs.clone(),
            cp_breakdown: base.cp_breakdown,
            baseline: base.baseline.clone(),
            fingerprint: profiled.fingerprint.clone(),
            cp_ipc: base.cp_ipc,
        }
    }

    /// The engine's cache key: every configuration field that shapes these
    /// artifacts. `cfg.energy` is deliberately excluded — energy constants
    /// only affect selection and accounting, so energy sweeps share one
    /// core.
    pub fn structural_key(name: &str, cfg: &ExpConfig) -> String {
        versioned(
            MODEL_VERSION,
            &format!(
                "{name}|{:?}|{:?}|{:?}|{}|{:?}|{}|{}",
                cfg.sim,
                cfg.profile_input,
                cfg.run_input,
                cfg.trace_cap,
                cfg.slice,
                cfg.problem_frac,
                cfg.max_problem_loads,
            ),
        )
    }

    /// The inputs of the latency-free artifacts (see the module docs),
    /// field by field: the name, both inputs, the trace cap, the geometry
    /// (not the latency) of every cache, the slicing knobs and the
    /// problem-load knobs. Configs with equal keys share one profiling
    /// trace, profile, set of slice trees and critical-path skeleton.
    /// The key is never persisted.
    pub fn latency_free_key(name: &str, cfg: &ExpConfig) -> String {
        let h = &cfg.sim.hierarchy;
        let geometry =
            |c: &preexec_mem::CacheConfig| format!("{}/{}/{}", c.size_bytes, c.line_bytes, c.assoc);
        format!(
            "{name}|profile:{}|run:{}|cap:{}|l1i:{}|l1d:{}|l2:{}|window:{}|body:{}|nodes:{}|frac:{}|loads:{}",
            cfg.profile_input,
            cfg.run_input,
            cfg.trace_cap,
            geometry(&h.l1i),
            geometry(&h.l1d),
            geometry(&h.l2),
            cfg.slice.window,
            cfg.slice.max_body,
            cfg.slice.max_tree_nodes,
            cfg.problem_frac,
            cfg.max_problem_loads,
        )
    }
}

/// Everything needed to select and evaluate p-threads for one benchmark
/// under one configuration. Dereferences to its [`PreparedCore`], so the
/// shared artifacts read like plain fields (`prep.baseline`, `prep.trees`).
#[derive(Clone, Debug)]
pub struct Prepared {
    /// The shared energy-independent artifacts.
    pub core: std::sync::Arc<PreparedCore>,
    /// Configuration used (including energy constants).
    pub cfg: ExpConfig,
    /// Application parameters measured from the baseline under
    /// `cfg.energy`.
    pub app: AppParams,
}

impl std::ops::Deref for Prepared {
    type Target = PreparedCore;

    fn deref(&self) -> &PreparedCore {
        &self.core
    }
}

impl Prepared {
    /// Builds the full analysis pipeline for `name` under `cfg`, without
    /// caching. The engine's `prepared` is the memoized equivalent.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not a known workload.
    pub fn build(name: &str, cfg: &ExpConfig) -> Prepared {
        Prepared::from_core(std::sync::Arc::new(PreparedCore::build(name, cfg)), cfg)
    }

    /// Finishes a cached core for `cfg`: recomputes the (cheap)
    /// energy-dependent application parameters.
    pub fn from_core(core: std::sync::Arc<PreparedCore>, cfg: &ExpConfig) -> Prepared {
        let l0 = core.baseline.cycles as f64;
        let e0 = core.baseline.total_energy(&cfg.energy);
        let app = AppParams {
            l0,
            e0,
            // BWSEQmt: the unoptimized IPC. Measured from the baseline when
            // available; the critical-path estimate is the fallback.
            bw_seq_mt: if core.baseline.finished {
                core.baseline.ipc()
            } else {
                core.cp_ipc
            },
        };
        Prepared {
            core,
            cfg: *cfg,
            app,
        }
    }

    /// Runs PTHSEL(+E) for `target`.
    pub fn select(&self, target: SelectionTarget) -> Selection {
        let inputs = SelectorInputs {
            program: &self.program,
            profile: &self.profile,
            trees: &self.trees,
            costs: &self.costs,
            machine: self.cfg.machine_params(),
            energy: self.cfg.energy_params(),
            app: self.app,
        };
        select(&inputs, target)
    }

    /// Simulates the program augmented with `selection`'s p-threads.
    pub fn run_with(&self, selection: &Selection) -> SimReport {
        Simulator::new(&self.program, self.cfg.sim)
            .with_pthreads(&selection.pthreads)
            .run()
    }

    /// Selects for `target` and simulates, returning both.
    pub fn evaluate(&self, target: SelectionTarget) -> TargetResult {
        let selection = self.select(target);
        let report = self.run_with(&selection);
        TargetResult {
            target,
            selection,
            report,
        }
    }
}

/// One (target, selection, simulation) outcome.
#[derive(Clone, Debug)]
pub struct TargetResult {
    /// The optimization target.
    pub target: SelectionTarget,
    /// What PTHSEL(+E) chose.
    pub selection: Selection,
    /// How the augmented program ran.
    pub report: SimReport,
}

impl TargetResult {
    /// Percent execution-time reduction vs. `base` (positive = faster).
    pub fn latency_gain_pct(&self, base: &SimReport) -> f64 {
        100.0 * (1.0 - self.report.cycles as f64 / base.cycles as f64)
    }

    /// Percent energy reduction vs. `base` (positive = less energy).
    pub fn energy_save_pct(&self, base: &SimReport, e: &EnergyConfig) -> f64 {
        100.0 * (1.0 - self.report.total_energy(e) / base.total_energy(e))
    }

    /// Percent ED reduction vs. `base`.
    pub fn ed_save_pct(&self, base: &SimReport, e: &EnergyConfig) -> f64 {
        100.0 * (1.0 - self.report.ed(e) / base.ed(e))
    }

    /// Percent ED² reduction vs. `base`.
    pub fn ed2_save_pct(&self, base: &SimReport, e: &EnergyConfig) -> f64 {
        100.0 * (1.0 - self.report.ed2(e) / base.ed2(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_parameters_track_simulated_machine() {
        let mut cfg = ExpConfig::default();
        cfg.sim = cfg.sim.with_mem_latency(300).with_l2(128 * 1024, 10);
        let m = cfg.machine_params();
        assert_eq!(m.mem_latency, 300.0);
        assert_eq!(m.l2_latency, 10.0);
        assert_eq!(m.bw_seq_proc, cfg.sim.fetch_width as f64);
        let cp = cfg.critpath_config();
        assert_eq!(cp.rob_size, cfg.sim.rob_size as u32);
    }

    #[test]
    fn energy_parameters_track_accounting_constants() {
        let mut cfg = ExpConfig::default();
        cfg.energy = cfg.energy.with_idle_factor(0.08);
        let e = cfg.energy_params();
        assert_eq!(e.e_idle_per_cycle, 0.08);
        assert_eq!(e.e_l2_per_access, cfg.energy.e_l2);
        assert_eq!(e.e_fetch_per_access, cfg.energy.e_icache);
    }

    #[test]
    fn prepared_pipeline_is_complete_for_gap() {
        let p = Prepared::build("gap", &ExpConfig::default());
        assert!(p.baseline.finished);
        assert!(!p.trees.is_empty());
        assert_eq!(p.trees.len(), p.costs.len());
        assert!(p.app.l0 > 0.0 && p.app.e0 > 0.0);
        assert!(p.cp_breakdown.total() > 0.0);
    }

    #[test]
    fn latency_target_speeds_up_gap() {
        let p = Prepared::build("gap", &ExpConfig::default());
        let r = p.evaluate(SelectionTarget::Latency);
        assert!(!r.selection.pthreads.is_empty());
        let gain = r.latency_gain_pct(&p.baseline);
        assert!(
            gain > 2.0,
            "gap with L-p-threads should speed up, got {gain:.2}%"
        );
    }

    #[test]
    #[should_panic(expected = "unknown workload")]
    fn unknown_workload_panics() {
        let _ = Prepared::build("nonesuch", &ExpConfig::default());
    }

    #[test]
    fn all_cache_keys_carry_the_model_version() {
        let cfg = ExpConfig::default();
        let prefix = format!("mv{MODEL_VERSION}|");
        for key in [
            PreparedCore::structural_key("gap", &cfg),
            PreparedBase::base_key("gap", &cfg),
            PreparedBase::baseline_key_for("0123abcd", &cfg),
        ] {
            assert!(key.starts_with(&prefix), "unversioned key {key:?}");
        }
    }

    #[test]
    fn latency_free_key_ignores_latencies_and_energy_but_not_its_inputs() {
        let base = ExpConfig::default();
        let key = |cfg: &ExpConfig| PreparedCore::latency_free_key("gap", cfg);
        let mut energy = base;
        energy.energy = energy.energy.with_idle_factor(0.10);
        assert_eq!(key(&energy), key(&base), "energy constants share the key");
        let same: [fn(&mut ExpConfig); 4] = [
            |c| c.sim = c.sim.with_mem_latency(300),
            |c| c.sim.hierarchy.l1d.latency = 5,
            |c| c.sim.hierarchy.l2.latency = 30,
            |c| c.sim.rob_size /= 2,
        ];
        for (k, change) in same.iter().enumerate() {
            let mut cfg = base;
            change(&mut cfg);
            assert_eq!(key(&cfg), key(&base), "change {k} must share the key");
            assert_ne!(
                PreparedCore::structural_key("gap", &cfg),
                PreparedCore::structural_key("gap", &base),
                "change {k} is still a different core"
            );
        }
        let differ: [fn(&mut ExpConfig); 16] = [
            |c| c.sim.hierarchy.l1i.size_bytes *= 2,
            |c| c.sim.hierarchy.l1i.line_bytes *= 2,
            |c| c.sim.hierarchy.l1i.assoc *= 2,
            |c| c.sim.hierarchy.l1d.size_bytes *= 2,
            |c| c.sim.hierarchy.l1d.line_bytes *= 2,
            |c| c.sim.hierarchy.l1d.assoc *= 2,
            |c| c.sim.hierarchy.l2.size_bytes *= 2,
            |c| c.sim.hierarchy.l2.line_bytes *= 2,
            |c| c.sim.hierarchy.l2.assoc *= 2,
            |c| c.profile_input = InputSet::Ref,
            |c| c.run_input = InputSet::Ref,
            |c| c.trace_cap /= 2,
            |c| c.slice.window /= 2,
            |c| c.slice.max_body /= 2,
            |c| c.problem_frac *= 2.0,
            |c| c.max_problem_loads += 1,
        ];
        for (k, change) in differ.iter().enumerate() {
            let mut cfg = base;
            change(&mut cfg);
            assert_ne!(key(&cfg), key(&base), "change {k} must split the key");
        }
        let mut nodes = base;
        nodes.slice.max_tree_nodes /= 2;
        assert_ne!(key(&nodes), key(&base));
        assert_ne!(
            PreparedCore::latency_free_key("mcf", &base),
            key(&base),
            "the bench is part of the key"
        );
    }

    #[test]
    fn bumping_the_model_version_changes_every_key() {
        assert_ne!(versioned(1, "k"), versioned(2, "k"));
        assert_eq!(versioned(MODEL_VERSION, "k"), versioned(MODEL_VERSION, "k"));
    }
}
