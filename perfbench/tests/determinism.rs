//! Every deterministic count of a traced run repeats exactly across two
//! runs of one seed: work counts, allocation counts and bytes, memo and
//! store traffic. These are the noise-proof figures a change can be
//! judged by when wall-clock time is too jittery to resolve it.

use preexec_json::Json;
use std::process::Command;

const SEED: &str = "11";

/// Per-layer metrics that must not vary between runs of one seed.
const DETERMINISTIC: [&str; 24] = [
    "sim.runs",
    "sim.cycles",
    "sim.executed_cycles",
    "trace.calls",
    "trace.insts",
    "slicer.nodes",
    "pthsel.calls",
    "trace.allocs",
    "trace.alloc_mb",
    "slicer.allocs",
    "slicer.alloc_mb",
    "critpath.allocs",
    "critpath.alloc_mb",
    "sim.allocs",
    "sim.alloc_mb",
    "harness.allocs",
    "harness.alloc_mb",
    "campaign.store_hit_share",
    "harness.core_hit_share",
    "harness.base_hit_share",
    "harness.sim_hit_share",
    "harness.store_misses",
    "harness.sim_misses",
    "mirror_mismatches",
];

/// One traced run. Panics unless it exits cleanly, fails no operation,
/// and every failed check is an open-loop validity verdict: that one
/// depends on the host's speed, the counts pinned here do not.
fn traced(workload: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", SEED])
        .args(["--seconds", "3", "--trace", "1"])
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload}: exit {}\n{stderr}",
        out.status
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let result = preexec_json::parse(last).expect("the result line is JSON");
    let failed_checks: Vec<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("check failed: "))
        .filter(|l| !l.starts_with("open loop invalid"))
        .collect();
    assert!(
        failed_checks.is_empty() && result.get("failed").and_then(Json::as_u64) == Some(0),
        "{workload}: {last}\n{stderr}"
    );
    result
}

fn value(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn assert_counts_repeat(workload: &str) {
    let (a, b) = (traced(workload), traced(workload));
    for name in DETERMINISTIC {
        assert_eq!(
            value(&a, name).to_bits(),
            value(&b, name).to_bits(),
            "{workload}: {name} differs between two runs of seed {SEED}: {} vs {}",
            value(&a, name),
            value(&b, name)
        );
    }
    assert!(
        value(&a, "trace.insts") > 0.0,
        "{workload}: the pass did work"
    );
}

/// One test, so the workloads run one after another and do not compete
/// for the host's CPUs.
#[test]
fn counts_repeat_on_every_workload() {
    for workload in ["sweep_cold", "sweep_warm", "serve_mix"] {
        assert_counts_repeat(workload);
    }
}
