//! The premise of sharing one profiling run across memory latencies:
//! `MemAnnotation`'s serving levels depend on the cache geometry only.
//! The cache orders LRU by an access tick and sets a fill's tag at once,
//! so no level reads a latency, and TLB walks only shift timestamps.
//! The harness builds the profile, the slice trees and the critical-path
//! skeleton once per geometry on this basis; if a latency ever leaked
//! into the levels, those shared artifacts would be wrong for every
//! latency but the first.

use preexec_isa::Program;
use preexec_mem::{HierarchyConfig, Level, TlbConfig};
use preexec_oracle::fuzz;
use preexec_prop::run_cases_seeded;
use preexec_trace::{FuncSim, MemAnnotation, Trace};
use preexec_workloads::{build, InputSet, NAMES};

/// The profiling trace cap the harness uses by default.
const TRACE_CAP: u64 = 600_000;

/// Two admitted generated scenarios, one with its cold region inside the
/// 256 KB L2 and one beyond it.
const SCENARIOS: [&str; 2] = [
    "gen:sl4_id1_bd0_mr0.25_mc0_fp131072_s7",
    "gen:sl4_id1_bd0_mr0.5_mc0_fp1048576_s7",
];

fn levels(trace: &Trace, cfg: HierarchyConfig) -> Vec<Option<Level>> {
    let ann = MemAnnotation::compute(trace, cfg);
    (0..trace.len() as u64).map(|seq| ann.served(seq)).collect()
}

/// Every latency-only variant of the default hierarchy.
fn latency_variants() -> Vec<(&'static str, HierarchyConfig)> {
    let base = HierarchyConfig::default();
    let mut l1d = base;
    l1d.l1d.latency = 7;
    let mut l2 = base;
    l2.l2.latency = 40;
    vec![
        ("mem_latency 0", base.with_mem_latency(0)),
        ("mem_latency 100", base.with_mem_latency(100)),
        ("mem_latency 300", base.with_mem_latency(300)),
        ("mem_latency 5000", base.with_mem_latency(5000)),
        ("l1d latency 7", l1d),
        ("l2 latency 40", l2),
        ("tlb enabled", base.with_tlb(TlbConfig::default())),
    ]
}

fn assert_latency_free(label: &str, program: &Program) {
    let trace = FuncSim::new(program).run_trace(TRACE_CAP);
    let reference = levels(&trace, HierarchyConfig::default());
    for (variant, cfg) in latency_variants() {
        assert!(
            levels(&trace, cfg) == reference,
            "{label}: serving levels changed under {variant}"
        );
    }
}

#[test]
fn kernel_serving_levels_ignore_latencies_and_the_tlb() {
    for name in NAMES {
        assert_latency_free(name, &build(name, InputSet::Train).unwrap());
    }
}

#[test]
fn generated_serving_levels_ignore_latencies_and_the_tlb() {
    for name in SCENARIOS {
        let program = preexec_gen::build_named(name).expect("valid scenario name");
        assert_latency_free(name, &program);
    }
    run_cases_seeded(0xa770_1a7e, 24, |g| {
        let program = fuzz::gen_program(g);
        assert_latency_free(&format!("fuzz case {}", g.case), &program);
    });
}

/// The negative case: the levels are not constant, the geometry moves
/// them.
#[test]
fn a_smaller_l2_changes_some_kernel_serving_levels() {
    let base = HierarchyConfig::default();
    let small = base.with_l2(128 * 1024, base.l2.latency);
    let changed = NAMES.iter().any(|name| {
        let trace = FuncSim::new(&build(name, InputSet::Train).unwrap()).run_trace(TRACE_CAP);
        levels(&trace, small) != levels(&trace, base)
    });
    assert!(
        changed,
        "halving the L2 left every kernel's levels unchanged"
    );
}
