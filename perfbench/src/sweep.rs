//! `sweep_cold` and `sweep_warm`: W-sweeps through `campaign::run_sweep`
//! on a fresh `Engine` backed by a `Store` — empty for the cold sweep,
//! filled by set-up for the warm one.

use crate::inputs::{below, gen_scenarios, seeded, sweep_spec};
use crate::layers::{self, Extra, Traced};
use crate::mirror::Mirror;
use crate::span::{Layer, Summary};
use crate::stats::{median, peak_rss_mb, percentile, reset_peak_rss, share};
use crate::{alloc, RunResult, WorkDir, COLD_SETUPS, SETUPS, THREADS};
use preexec_campaign::Store;
use preexec_harness::campaign::{cell_count, run_sweep, SweepCell, SweepOptions, SweepResult};
use preexec_harness::{Engine, ExpConfig, Prepared, Stage};
use preexec_json::{parse, ToJson};
use pthsel::SelectionTarget;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// A sweep counts towards `goodput_rps` only if it returns within this
/// many milliseconds.
pub const SWEEP_LIMIT_MS: f64 = 60_000.0;

/// Cells checked against the engine-free `Prepared::build(..).evaluate(..)`
/// per run.
const REFERENCE_SAMPLES: usize = 2;

/// Which store the measured sweeps see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// A fresh, empty store per sweep: every timing run is simulated and
    /// written (the store's write path).
    Cold,
    /// The store set-up filled: every timing run replays from disk.
    Warm,
}

/// The seeded inputs of one run.
struct Inputs {
    spec: SweepOptions,
    gen_attempted: usize,
    gen_admitted: usize,
}

/// Builds the seeded scenarios, admits them through `gen::admit`, and
/// lays out the sweep. Spans go to `mirror` when given.
fn inputs(seed: u64, mirror: Option<&Mirror>) -> Inputs {
    let span = |name: &'static str, f: &mut dyn FnMut() -> bool| match mirror {
        Some(m) => m.span(name, Layer::Gen, None, f),
        None => f(),
    };
    let scenarios = gen_scenarios(seed);
    let mut admitted = Vec::new();
    for s in &scenarios {
        let mut program = None;
        span("gen.build", &mut || {
            program = preexec_gen::build_scenario(s).ok();
            program.is_some()
        });
        let ok = program
            .as_ref()
            .is_some_and(|p| span("gen.admit", &mut || preexec_gen::admit(p).is_ok()));
        if ok {
            admitted.push(s.name());
        }
    }
    Inputs {
        spec: sweep_spec(&admitted),
        gen_attempted: scenarios.len(),
        gen_admitted: admitted.len(),
    }
}

/// Runs the sweep on `engine`: the serialized result.
fn sweep(engine: &Engine, spec: &SweepOptions) -> String {
    run_sweep(engine, &ExpConfig::default(), spec)
        .to_json()
        .to_string()
}

/// Structural check of a sweep's output: complete, the spec's cell
/// count, finite positive figures.
fn check_shape(spec: &SweepOptions, out: &str) -> Result<Vec<SweepCell>, String> {
    let j = parse(out).map_err(|e| format!("sweep output does not parse: {e}"))?;
    let r = SweepResult::from_json(&j)?;
    if !r.complete() || r.cells.len() != cell_count(spec) {
        return Err(format!(
            "sweep incomplete: {} of {} cells",
            r.cells.len(),
            cell_count(spec)
        ));
    }
    for c in &r.cells {
        let positive = [c.energy, c.base_energy, c.time_ratio, c.energy_ratio]
            .iter()
            .all(|v| v.is_finite() && *v > 0.0);
        if !positive || c.cycles == 0 || c.base_cycles == 0 {
            return Err(format!(
                "cell {} ({}) has a non-positive figure",
                c.index, c.bench
            ));
        }
    }
    Ok(r.cells)
}

/// Checks a seeded sample of cells against the engine-free pipeline.
fn check_against_engine_free(seed: u64, spec: &SweepOptions, out: &str) -> Result<(), String> {
    let cells = check_shape(spec, out)?;
    let mut rng = seeded(seed, 3);
    for _ in 0..REFERENCE_SAMPLES {
        let cell = &cells[below(&mut rng, cells.len())];
        let mut cfg = ExpConfig::default();
        cfg.sim = cfg.sim.with_mem_latency(cell.mem_latency);
        cfg.energy = cfg.energy.with_idle_factor(cell.idle_factor);
        let prep = Prepared::build(&cell.bench, &cfg);
        let r = prep.evaluate(SelectionTarget::Weighted(cell.w));
        let energy = r.report.total_energy(&cfg.energy);
        let want = (
            r.selection.pthreads.len() as u64,
            r.report.cycles,
            prep.baseline.cycles,
            energy.to_bits(),
        );
        let got = (
            cell.pthreads,
            cell.cycles,
            cell.base_cycles,
            cell.energy.to_bits(),
        );
        if want != got {
            return Err(format!(
                "cell {} ({} ml{} w{}): engine gave {got:?}, engine-free pipeline {want:?}",
                cell.index, cell.bench, cell.mem_latency, cell.w
            ));
        }
    }
    Ok(())
}

fn open_store(path: &Path) -> Arc<Store> {
    Arc::new(Store::open(path).expect("store directory inside the work dir"))
}

/// Timing runs an engine performed (baseline and p-thread).
fn timing_runs(engine: &Engine) -> u64 {
    let calls = |s: Stage| {
        engine
            .metrics()
            .to_json()
            .get("stages")
            .and_then(|j| j.get(s.name()))
            .and_then(|j| j.get("calls"))
            .and_then(|j| j.as_u64())
            .unwrap_or(0)
    };
    calls(Stage::BaselineSim) + calls(Stage::OptSim)
}

/// The untraced run: repeated sweeps for `seconds`, end-to-end metrics.
pub fn run(mode: Mode, seed: u64, seconds: f64, work: &WorkDir) -> RunResult {
    let mut res = RunResult::default();

    // Set-up: seeded inputs and admission; the warm sweep also fills its
    // store with one cold sweep. Repeated, `setup_s` is the median.
    let mut setup_s = Vec::new();
    let mut fills = Vec::new();
    let mut last = None;
    let setups = if mode == Mode::Cold {
        COLD_SETUPS
    } else {
        SETUPS
    };
    for i in 0..setups {
        let dir = work.fresh(&format!("setup{i}"));
        let t = Instant::now();
        let inp = inputs(seed, None);
        let store = open_store(&dir);
        if mode == Mode::Warm {
            fills.push(sweep(&Engine::new(THREADS).with_store(store), &inp.spec));
        }
        setup_s.push(t.elapsed().as_secs_f64());
        if let Some((_, old)) = last.replace((inp, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (inp, filled) = last.expect("at least one set-up");
    if inp.gen_admitted != inp.gen_attempted {
        res.problem(format!(
            "only {} of {} generated scenarios were admitted",
            inp.gen_admitted, inp.gen_attempted
        ));
    }
    if fills.iter().any(|f| *f != fills[0]) {
        res.problem("set-up's cold sweeps disagree byte-wise");
    }
    let mut reference = fills.into_iter().next();

    // Measured phase.
    let cells = cell_count(&inp.spec) as u64;
    let started = Instant::now();
    let (mut walls_ms, mut per_prepare_ms, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cell_rates, mut call_rates) = (Vec::new(), Vec::new());
    let mut rep = 0;
    while rep == 0 || started.elapsed().as_secs_f64() < seconds {
        let dir = match mode {
            Mode::Cold => work.fresh(&format!("rep{rep}")),
            Mode::Warm => filled.clone(),
        };
        let engine = Engine::new(THREADS).with_store(open_store(&dir));
        reset_peak_rss();
        let t = Instant::now();
        let out = sweep(&engine, &inp.spec);
        let wall_ms = t.elapsed().as_secs_f64() * 1e3;
        peaks.push(peak_rss_mb());

        res.attempted += cells;
        let m = engine.metrics();
        let verdict = match &reference {
            Some(r) if *r != out => Err("sweep bytes differ from the reference sweep".to_string()),
            Some(_) => Ok(()),
            None => check_shape(&inp.spec, &out).map(|_| ()),
        }
        .and_then(|()| match mode {
            Mode::Warm if m.store_misses() != 0 || timing_runs(&engine) != 0 => Err(format!(
                "warm sweep missed the store {} times and ran {} timing runs",
                m.store_misses(),
                timing_runs(&engine)
            )),
            _ => Ok(()),
        });
        let verified = verdict.is_ok();
        if let Err(e) = verdict {
            res.failed += cells;
            res.problem(e);
        }
        let rate = |n: u64, ok: bool| if ok { n as f64 * 1e3 / wall_ms } else { 0.0 };
        cell_rates.push(rate(cells, verified));
        call_rates.push(rate(1, verified && wall_ms <= SWEEP_LIMIT_MS));
        walls_ms.push(wall_ms);
        per_prepare_ms.push(wall_ms / m.cache_misses().max(1) as f64);
        reference.get_or_insert(out);
        drop(engine);
        if mode == Mode::Cold {
            let _ = std::fs::remove_dir_all(&dir);
        }
        rep += 1;
    }

    if let Some(out) = &reference {
        if let Err(e) = check_against_engine_free(seed, &inp.spec, out) {
            res.failed += 1;
            res.problem(e);
        }
    }

    res.push("setup_s", median(&setup_s), "s");
    res.push("cells_per_s", median(&cell_rates), "1/s");
    res.push("peak_rss_mb", median(&peaks), "MB");
    res.push("latency_p50_ms", median(&walls_ms), "ms");
    res.push("latency_p95_ms", percentile(&walls_ms, 0.95), "ms");
    res.push("cold_p50_ms", median(&per_prepare_ms), "ms");
    res.push("goodput_rps", median(&call_rates), "1/s");
    res
}

/// The traced run: one untraced pass through the real engine and one
/// traced pass through [`Mirror`], both serial, on the same inputs.
pub fn traced(mode: Mode, seed: u64, work: &WorkDir) -> RunResult {
    let mut res = RunResult::default();
    let inp = inputs(seed, None);
    let filled = work.fresh("filled");
    let fill = (mode == Mode::Warm).then(|| {
        sweep(
            &Engine::new(THREADS).with_store(open_store(&filled)),
            &inp.spec,
        )
    });
    let store_for = |name: &str| match mode {
        Mode::Cold => open_store(&work.fresh(name)),
        Mode::Warm => open_store(&filled),
    };

    // Untraced pass: admission plus the sweep on the real engine.
    let engine = Engine::new(1).with_store(store_for("untraced"));
    let t = Instant::now();
    let _ = inputs(seed, None);
    let out = sweep(&engine, &inp.spec);
    let untraced_ns = t.elapsed().as_nanos() as u64;
    let engine_json = engine.metrics().to_json();
    let (engine_runs, engine_misses) = (timing_runs(&engine), engine.metrics().store_misses());
    drop(engine);

    // Traced pass: the same work through each layer's public functions.
    let store = store_for("traced");
    alloc::reset();
    let mirror = Mirror::new(Some(store));
    let traced_inp = inputs(seed, Some(&mirror));
    let traced_out = mirror.run_sweep(&ExpConfig::default(), &traced_inp.spec);
    let mirror_json = mirror.metrics().to_json();
    let (spans, counts) = mirror.finish();

    res.attempted = cell_count(&inp.spec) as u64;
    if traced_out != out {
        res.failed = res.attempted;
        res.problem("traced sweep bytes differ from the untraced sweep");
    }
    if let Some(fill) = fill {
        if fill != out {
            res.failed = res.attempted;
            res.problem("warm sweep bytes differ from the cold sweep that filled the store");
        }
        if engine_runs != 0 || engine_misses != 0 {
            res.problem(format!(
                "warm sweep ran {engine_runs} timing runs with {engine_misses} store misses"
            ));
        }
    }
    if let Err(e) = check_shape(&inp.spec, &out) {
        res.problem(e);
    }
    let traced = Traced {
        summary: Summary::of(&spans),
        counts,
        mirror: mirror_json,
        engine: engine_json,
        untraced_ns,
    };
    let mut extra = Extra::new();
    extra.insert(
        "gen.admitted_share",
        share(inp.gen_admitted as u64, inp.gen_attempted as u64),
    );
    layers::report(&traced, &extra, &mut res);
    res
}
