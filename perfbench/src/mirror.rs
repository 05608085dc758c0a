//! The traced pass: the engine's orchestration re-expressed in the
//! benchmark's own code, calling each layer's public functions inside a
//! span. It follows `Engine::prepared`/`Engine::evaluate`,
//! `campaign::run_sweep` and the `/v1/select` and `/v1/sim` handlers
//! step for step, with the same memo keys, the same store traffic and
//! the same per-stage granularity as the engine's `Metrics`, so its
//! output bytes and its counters can be compared with an untraced run of
//! the real code.
//!
//! Its spans, self times and allocation counts describe this copy, not
//! the engine: `harness.self_ms`, `harness.allocs` and
//! `harness.alloc_mb` measure this module's `RefCell`/`HashMap`/`Rc`
//! bookkeeping rather than the engine's `Mutex`/`Arc` memo. A change to
//! the engine's orchestration must be followed here; until it is,
//! `mirror_mismatches` counts the stage calls and counters in which the
//! two differ.

use crate::span::{Layer, Tracer};
use preexec_campaign::Store;
use preexec_critpath::{CritPathModel, LoadCost};
use preexec_harness::campaign::{
    spec_json, sweep_store_key, w_grid, SweepCell, SweepOptions, SweepResult,
};
use preexec_harness::{
    build_program, program_fingerprint, versioned, ExpConfig, Metrics, PreparedBase, PreparedCore,
    Stage, MODEL_VERSION,
};
use preexec_json::dto::{EvalRequest, PThreadSummary, SelectResponse, SimResponse};
use preexec_json::{Json, ToJson};
use preexec_sim::{SimReport, Simulator};
use preexec_slicer::SliceTree;
use preexec_trace::{FuncSim, MemAnnotation, Profile, Trace};
use pthsel::{select, AppParams, Selection, SelectionTarget, SelectorInputs};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Exact work counts of a traced pass that the engine's `Metrics` does
/// not keep (they repeat run to run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Baseline simulated cycles.
    pub baseline_cycles: u64,
    /// Cycles the pipeline actually stepped (the rest were
    /// fast-forwarded).
    pub executed_cycles: u64,
    /// Instructions the critical-path model was built over.
    pub critpath_insts: u64,
}

/// Slice-independent artifacts (the engine's `PreparedBase`).
struct Base {
    profile_prog: preexec_isa::Program,
    program: preexec_isa::Program,
    profile: Profile,
    problem_pcs: Vec<u32>,
    costs: Vec<LoadCost>,
    baseline: SimReport,
    fingerprint: String,
    cp_ipc: f64,
}

/// Energy-independent artifacts (the engine's `PreparedCore`).
struct Core {
    program: preexec_isa::Program,
    profile: Profile,
    trees: Vec<SliceTree>,
    costs: Vec<LoadCost>,
    baseline: SimReport,
    fingerprint: String,
    cp_ipc: f64,
}

/// A finished preparation (the engine's `Prepared`).
pub struct Prep {
    core: Rc<Core>,
    cfg: ExpConfig,
    app: AppParams,
}

/// The traced re-expression of one engine. Single-threaded by design:
/// spans and allocation tags belong to the calling thread.
pub struct Mirror {
    tracer: RefCell<Tracer>,
    metrics: Metrics,
    counts: RefCell<Counts>,
    store: Option<Arc<Store>>,
    bases: RefCell<HashMap<String, Rc<Base>>>,
    cores: RefCell<HashMap<String, Rc<Core>>>,
    sims: RefCell<HashMap<String, SimReport>>,
}

impl Mirror {
    /// Starts a traced pass (opens the root span), optionally backed by
    /// a persistent store.
    pub fn new(store: Option<Arc<Store>>) -> Mirror {
        Mirror {
            tracer: RefCell::new(Tracer::start()),
            metrics: Metrics::new(),
            counts: RefCell::new(Counts::default()),
            store,
            bases: RefCell::new(HashMap::new()),
            cores: RefCell::new(HashMap::new()),
            sims: RefCell::new(HashMap::new()),
        }
    }

    /// Runs `f` in a leaf span, crediting its duration to `stage` (when
    /// the engine times the same call as one stage invocation).
    pub fn span<T>(
        &self,
        name: &'static str,
        layer: Layer,
        stage: Option<Stage>,
        f: impl FnOnce() -> T,
    ) -> T {
        let (out, nanos) = self.tracer.borrow_mut().span(name, layer, f);
        if let Some(stage) = stage {
            self.metrics.record(stage, nanos);
        }
        out
    }

    /// The per-stage timers and memo counters, in the engine's own
    /// `Metrics` shape.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Ends the pass: the spans and the exact counts.
    pub fn finish(self) -> (Vec<crate::span::Span>, Counts) {
        let counts = self.counts.into_inner();
        (self.tracer.into_inner().finish(), counts)
    }

    fn store_load_report(&self, key: &str) -> Option<SimReport> {
        let store = self.store.as_ref()?;
        let found = self.span("campaign.store_load", Layer::Campaign, None, || {
            store.load(key)
        });
        match found {
            Some(j) => {
                self.metrics.add_store_hit();
                Some(self.span("json.parse", Layer::Json, None, || SimReport::from_json(&j)))
            }
            None => {
                self.metrics.add_store_miss();
                None
            }
        }
    }

    fn store_save(&self, key: &str, value: &dyn ToJson) {
        if let Some(store) = &self.store {
            let j = self.span("json.encode", Layer::Json, None, || value.to_json());
            self.span("campaign.store_save", Layer::Campaign, None, || {
                store.save(key, &j)
            });
        }
    }

    fn simulate<'p>(
        &self,
        name: &'static str,
        stage: Stage,
        make: impl FnOnce() -> Simulator<'p>,
    ) -> SimReport {
        let (report, executed) = self.span(name, Layer::Sim, Some(stage), || {
            let mut sim = make();
            let report = sim.run();
            (report, sim.executed_cycles())
        });
        self.metrics.add_sim_cycles(report.cycles);
        let mut c = self.counts.borrow_mut();
        c.executed_cycles += executed;
        if stage == Stage::BaselineSim {
            c.baseline_cycles += report.cycles;
        }
        report
    }

    /// `Engine::base`: the base memo, the baseline's store probe, and
    /// `PreparedBase::build_metered_full`.
    fn base(&self, name: &str, cfg: &ExpConfig) -> (Rc<Base>, Option<(Trace, MemAnnotation)>) {
        let key = PreparedBase::base_key(name, cfg);
        if let Some(b) = self.bases.borrow().get(&key) {
            self.metrics.add_base_hit();
            return (b.clone(), None);
        }
        // `PreparedBase::baseline_key` builds the run binary to
        // fingerprint it.
        let keyed = self.span("workloads.build", Layer::Workloads, None, || {
            build_program(name, cfg.run_input)
        });
        let keyed = keyed.unwrap_or_else(|| panic!("unknown workload {name:?}"));
        let baseline_key = PreparedBase::baseline_key_for(&program_fingerprint(&keyed), cfg);
        let stored = self.store_load_report(&baseline_key);
        let fresh = stored.is_none();

        let (profile_prog, program) = self.span(
            "workloads.build",
            Layer::Workloads,
            Some(Stage::WorkloadBuild),
            || {
                let p = build_program(name, cfg.profile_input)
                    .unwrap_or_else(|| panic!("unknown workload {name:?}"));
                let r = build_program(name, cfg.run_input).expect("same registry");
                (p, r)
            },
        );
        let fingerprint = program_fingerprint(&program);
        let trace = self.span("trace.run", Layer::Trace, Some(Stage::Trace), || {
            FuncSim::new(&profile_prog).run_trace(cfg.trace_cap)
        });
        self.metrics.add_trace_insts(trace.len() as u64);
        let (ann, t_ann) = self
            .tracer
            .borrow_mut()
            .span("trace.annotate", Layer::Trace, || {
                MemAnnotation::compute(&trace, cfg.sim.hierarchy)
            });
        let (profile, t_prof) =
            self.tracer
                .borrow_mut()
                .span("trace.profile", Layer::Trace, || {
                    Profile::compute(&profile_prog, &trace, &ann)
                });
        self.metrics.record(Stage::Profile, t_ann + t_prof);

        let min_misses = ((profile.total_l2_misses() as f64 * cfg.problem_frac) as u64).max(64);
        let mut probs = self.span("trace.problem_loads", Layer::Trace, None, || {
            profile.problem_loads(&profile_prog, min_misses)
        });
        probs.truncate(cfg.max_problem_loads);
        let problem_pcs: Vec<u32> = probs.iter().map(|pl| pl.pc).collect();

        let (cp, t_model) =
            self.tracer
                .borrow_mut()
                .span("critpath.model", Layer::Critpath, || {
                    CritPathModel::new(&trace, &ann, cfg.critpath_config())
                });
        let ((costs, _breakdown, cp_ipc), t_cost) =
            self.tracer
                .borrow_mut()
                .span("critpath.cost", Layer::Critpath, || {
                    let costs: Vec<LoadCost> =
                        problem_pcs.iter().map(|&pc| cp.load_cost(pc)).collect();
                    (costs, cp.breakdown(), cp.ipc())
                });
        drop(cp);
        self.metrics.record(Stage::Critpath, t_model + t_cost);
        self.counts.borrow_mut().critpath_insts += trace.len() as u64;

        let baseline = match stored {
            Some(b) => b,
            None => self.simulate("sim.baseline", Stage::BaselineSim, || {
                Simulator::new(&program, cfg.sim)
            }),
        };
        if fresh {
            self.store_save(&baseline_key, &baseline);
        }
        let base = Rc::new(Base {
            profile_prog,
            program,
            profile,
            problem_pcs,
            costs,
            baseline,
            fingerprint,
            cp_ipc,
        });
        self.bases.borrow_mut().insert(key, base.clone());
        self.metrics.add_base_miss();
        (base, Some((trace, ann)))
    }

    /// `Engine::prepared`: the core memo over the base memo.
    pub fn prepared(&self, name: &str, cfg: &ExpConfig) -> Prep {
        let key = PreparedCore::structural_key(name, cfg);
        let cached = self.cores.borrow().get(&key).cloned();
        let core = match cached {
            Some(core) => {
                self.metrics.add_cache_hit();
                core
            }
            None => {
                let (base, side) = self.base(name, cfg);
                let core = Rc::new(self.finish_core(&base, cfg, side));
                self.cores.borrow_mut().insert(key, core.clone());
                self.metrics.add_cache_miss();
                core
            }
        };
        let app = AppParams {
            l0: core.baseline.cycles as f64,
            e0: core.baseline.total_energy(&cfg.energy),
            bw_seq_mt: if core.baseline.finished {
                core.baseline.ipc()
            } else {
                core.cp_ipc
            },
        };
        Prep {
            core,
            cfg: *cfg,
            app,
        }
    }

    /// `PreparedCore::from_base_metered_with`: slice trees, replaying
    /// the trace when the base came from the memo.
    fn finish_core(
        &self,
        base: &Base,
        cfg: &ExpConfig,
        side: Option<(Trace, MemAnnotation)>,
    ) -> Core {
        let (trace, ann) = match side {
            Some(pair) => pair,
            None => {
                let trace = self.span("trace.run", Layer::Trace, Some(Stage::Trace), || {
                    FuncSim::new(&base.profile_prog).run_trace(cfg.trace_cap)
                });
                let ann = self.span("trace.annotate", Layer::Trace, Some(Stage::Profile), || {
                    MemAnnotation::compute(&trace, cfg.sim.hierarchy)
                });
                (trace, ann)
            }
        };
        let mut slice_ns = 0;
        let mut trees = Vec::with_capacity(base.problem_pcs.len());
        for &pc in &base.problem_pcs {
            let (tree, ns) = self
                .tracer
                .borrow_mut()
                .span("slicer.build", Layer::Slicer, || {
                    SliceTree::build(
                        &base.profile_prog,
                        &trace,
                        &ann,
                        &base.profile,
                        pc,
                        &cfg.slice,
                    )
                });
            slice_ns += ns;
            trees.push(tree);
        }
        self.metrics.record(Stage::Slice, slice_ns);
        let nodes: u64 = trees.iter().map(|t| t.len() as u64).sum();
        self.metrics.add_slice_nodes(nodes);
        Core {
            program: base.program.clone(),
            profile: base.profile.clone(),
            trees,
            costs: base.costs.clone(),
            baseline: base.baseline.clone(),
            fingerprint: base.fingerprint.clone(),
            cp_ipc: base.cp_ipc,
        }
    }

    /// `Prepared::select` inside the `Select` stage.
    pub fn select(&self, prep: &Prep, target: SelectionTarget) -> Selection {
        let inputs = SelectorInputs {
            program: &prep.core.program,
            profile: &prep.core.profile,
            trees: &prep.core.trees,
            costs: &prep.core.costs,
            machine: prep.cfg.machine_params(),
            energy: prep.cfg.energy_params(),
            app: prep.app,
        };
        self.span("pthsel.select", Layer::Pthsel, Some(Stage::Select), || {
            select(&inputs, target)
        })
    }

    /// `Engine::evaluate`: select, then the sim memo over the store.
    pub fn evaluate(&self, prep: &Prep, target: SelectionTarget) -> (Selection, SimReport) {
        let selection = self.select(prep, target);
        let report = if selection.pthreads.is_empty() {
            self.metrics.add_sim_hit();
            prep.core.baseline.clone()
        } else {
            let sim_key = format!(
                "pf{}|{:?}|{:?}",
                prep.core.fingerprint, prep.cfg.sim, selection.pthreads,
            );
            let cached = self.sims.borrow().get(&sim_key).cloned();
            match cached {
                Some(report) => {
                    self.metrics.add_sim_hit();
                    report
                }
                None => {
                    let store_key = versioned(MODEL_VERSION, &format!("sim|{sim_key}"));
                    let report = match self.store_load_report(&store_key) {
                        Some(stored) => stored,
                        None => {
                            let report = self.simulate("sim.pthread", Stage::OptSim, || {
                                Simulator::new(&prep.core.program, prep.cfg.sim)
                                    .with_pthreads(&selection.pthreads)
                            });
                            self.store_save(&store_key, &report);
                            report
                        }
                    };
                    self.sims.borrow_mut().insert(sim_key, report.clone());
                    self.metrics.add_sim_miss();
                    report
                }
            }
        };
        self.metrics.add_cell();
        (selection, report)
    }

    /// `campaign::run_sweep` for an unsharded, journal-free spec: the
    /// serialized result.
    pub fn run_sweep(&self, base: &ExpConfig, opts: &SweepOptions) -> String {
        let spec = spec_json(opts);
        let ws = w_grid(opts.points);
        let mut values: Vec<Json> = Vec::new();
        for bench in &opts.benches {
            for &ml in &opts.mem_latencies {
                for &idle in &opts.idle_factors {
                    let mut cfg = *base;
                    cfg.sim = cfg.sim.with_mem_latency(ml);
                    cfg.energy = cfg.energy.with_idle_factor(idle);
                    let prep = self.prepared(bench, &cfg);
                    let base_cycles = prep.core.baseline.cycles;
                    let base_energy = prep.core.baseline.total_energy(&cfg.energy);
                    for &w in &ws {
                        let (selection, report) =
                            self.evaluate(&prep, SelectionTarget::Weighted(w));
                        let energy = report.total_energy(&cfg.energy);
                        let cell = SweepCell {
                            index: values.len() as u64,
                            bench: bench.clone(),
                            mem_latency: ml,
                            idle_factor: idle,
                            w,
                            pthreads: selection.pthreads.len() as u64,
                            cycles: report.cycles,
                            base_cycles,
                            energy,
                            base_energy,
                            time_ratio: report.cycles as f64 / base_cycles as f64,
                            energy_ratio: energy / base_energy,
                        };
                        values.push(self.span("json.encode", Layer::Json, None, || cell.to_json()));
                    }
                }
            }
        }
        let cells = values
            .iter()
            .map(|v| {
                self.span("json.parse", Layer::Json, None, || {
                    SweepCell::from_json(v).expect("cell shape")
                })
            })
            .collect();
        let result = SweepResult {
            spec,
            cells,
            replayed: 0,
        };
        if result.complete() {
            self.store_save(&sweep_store_key(&result.spec), &result);
        }
        self.span("json.encode", Layer::Json, None, || {
            result.to_json().to_string()
        })
    }

    /// The `/v1/select` and `/v1/sim` handlers (validation included):
    /// status and body bytes.
    pub fn serve_eval(&self, path: &str, body: &str, base: &ExpConfig) -> (u16, String) {
        let parsed = self.span("json.parse", Layer::Json, None, || {
            preexec_json::parse(body).map_err(|e| format!("malformed JSON: {e}"))
        });
        let eval = match parsed.and_then(|j| {
            self.span("json.parse", Layer::Json, None, || {
                EvalRequest::from_json(&j)
            })
        }) {
            Ok(e) => e,
            Err(e) => return (400, error_body(&e)),
        };
        if !known_bench(&eval.bench) {
            let msg = format!(
                "unknown benchmark {:?} (expected one of {:?} or a gen: scenario)",
                eval.bench,
                preexec_workloads::NAMES
            );
            return (400, error_body(&msg));
        }
        let cfg = config_for(&eval, base);
        let target = parse_target(&eval.target, eval.weight);
        let prep = self.prepared(&eval.bench, &cfg);
        let value = if path == "/v1/select" {
            let selection = self.select(&prep, target);
            SelectResponse {
                bench: eval.bench.clone(),
                target: eval.target.clone(),
                label: match target {
                    SelectionTarget::Weighted(w) => format!("W{w}"),
                    t => t.label().to_string(),
                },
                pthreads: summarize(&selection),
                predicted_ladv: selection.predicted_ladv,
                predicted_eadv: selection.predicted_eadv,
            }
            .to_json()
        } else {
            let (_, report) = self.evaluate(&prep, target);
            sim_response(&eval, &cfg, &prep.core.baseline, &report)
        };
        (
            200,
            self.span("json.encode", Layer::Json, None, || value.to_string()),
        )
    }
}

/// The `/v1/sim` response body for `report` against `base`.
pub fn sim_response(
    eval: &EvalRequest,
    cfg: &ExpConfig,
    base: &SimReport,
    report: &SimReport,
) -> Json {
    SimResponse {
        bench: eval.bench.clone(),
        target: eval.target.clone(),
        speedup: base.cycles as f64 / report.cycles as f64,
        energy_ratio: report.total_energy(&cfg.energy) / base.total_energy(&cfg.energy),
        ed_ratio: report.ed(&cfg.energy) / base.ed(&cfg.energy),
        report: report.to_json(),
    }
    .to_json()
}

/// Whether a bench name resolves (the service's rule).
fn known_bench(name: &str) -> bool {
    preexec_workloads::NAMES.contains(&name) || preexec_gen::valid_name(name)
}

fn error_body(msg: &str) -> String {
    Json::object().with("error", msg).to_string()
}

/// The service's per-request config overrides.
pub fn config_for(eval: &EvalRequest, base: &ExpConfig) -> ExpConfig {
    let mut cfg = *base;
    if let Some(cap) = eval.trace_cap {
        cfg.trace_cap = cap;
    }
    if let Some(lat) = eval.mem_latency {
        cfg.sim = cfg.sim.with_mem_latency(lat);
    }
    if let Some(idle) = eval.idle_factor {
        cfg.energy = cfg.energy.with_idle_factor(idle);
    }
    cfg
}

/// The service's target-name mapping.
pub fn parse_target(name: &str, weight: Option<f64>) -> SelectionTarget {
    match name {
        "classic" => SelectionTarget::Classic,
        "energy" => SelectionTarget::Energy,
        "ed" => SelectionTarget::Ed,
        "ed2" => SelectionTarget::Ed2,
        "weighted" => SelectionTarget::Weighted(weight.unwrap_or(0.5)),
        _ => SelectionTarget::Latency,
    }
}

fn summarize(selection: &Selection) -> Vec<PThreadSummary> {
    selection
        .pthreads
        .iter()
        .map(|p| PThreadSummary {
            trigger_pc: p.trigger_pc as u64,
            body_len: p.body.len() as u64,
            targets: p.targets.len() as u64,
            dc_trig: p.dc_trig as f64,
            dc_ptcm: p.dc_ptcm as f64,
            ladv: p.ladv_agg,
            eadv: p.eadv_agg,
        })
        .collect()
}
