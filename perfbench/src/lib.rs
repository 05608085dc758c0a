//! The repository benchmark: three workloads driven through the
//! program's real entry points (`campaign::run_sweep` on an `Engine`
//! with a `Store`, and `service::serve` over loopback HTTP), plus a
//! traced pass that feeds the same seeded inputs through each layer's
//! public functions and reports per-layer spans and exact counts.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! what each metric is expected to move.

pub mod alloc;
pub mod inputs;
pub mod layers;
pub mod mirror;
pub mod serve;
pub mod span;
pub mod stats;
pub mod sweep;

use preexec_json::Json;
use std::path::PathBuf;

/// Engine worker threads and server workers (the benchmark host has
/// two CPUs; load stays within them).
pub const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// Set-ups per `sweep_cold` run. Its set-up is only input generation
/// and admission, about 50 ms, where a single slow set-up moves a median
/// of three; more set-ups keep the median steady.
pub const COLD_SETUPS: usize = 15;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["sweep_cold", "sweep_warm", "serve_mix"];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// The outcome of one benchmark run.
#[derive(Clone, Debug, Default)]
pub struct RunResult {
    /// Operations attempted (sweep cells, or HTTP requests).
    pub attempted: u64,
    /// Operations that failed or returned a wrong result.
    pub failed: u64,
    /// Failed output checks, one line each (empty when correct).
    pub problems: Vec<String>,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// Appends a metric.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed check.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Whether every output check passed.
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }

    /// The one-line JSON result the benchmark prints last.
    pub fn to_json(&self) -> Json {
        let mut metrics = Json::object();
        for m in &self.metrics {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            metrics = metrics.with(
                &m.name,
                Json::object().with("value", value).with("unit", m.unit),
            );
        }
        Json::object()
            .with("correct", self.correct())
            .with("attempted", self.attempted.max(1))
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

/// A scratch directory inside the working directory, removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `.perfbench-work/<label>-<pid>` under the current
    /// directory, emptying any leftover of the same name.
    pub fn create(label: &str) -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(".perfbench-work").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// A fresh (empty) subdirectory path.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let p = self.0.join(name);
        let _ = std::fs::remove_dir_all(&p);
        p
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the parent too when no other run is using it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Runs one workload. `trace` selects the per-layer (traced) run.
pub fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<RunResult, String> {
    let work = WorkDir::create(workload).map_err(|e| format!("work dir: {e}"))?;
    match (workload, trace) {
        ("sweep_cold", false) => Ok(sweep::run(sweep::Mode::Cold, seed, seconds, &work)),
        ("sweep_warm", false) => Ok(sweep::run(sweep::Mode::Warm, seed, seconds, &work)),
        ("sweep_cold", true) => Ok(sweep::traced(sweep::Mode::Cold, seed, &work)),
        ("sweep_warm", true) => Ok(sweep::traced(sweep::Mode::Warm, seed, &work)),
        ("serve_mix", false) => serve::run(seed, seconds),
        ("serve_mix", true) => serve::traced(seed, seconds),
        _ => Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        )),
    }
}
