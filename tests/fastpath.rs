//! The differential test wall between the data-oriented fast pipeline
//! ([`preexec::sim::Simulator`]) and the retained slow path
//! ([`preexec::sim::ReferenceSimulator`], feature `reference-pipeline`).
//!
//! Every seed kernel and 200 fuzzer-generated programs run through both
//! pipelines — bare and with p-threads installed — and must agree on
//! cycle counts, retired-instruction counts, every raw access counter,
//! every energy term E1–E8 individually, and the architectural outcome
//! (final speculative registers and memory). One more case runs a kernel
//! at a 2000-cycle memory latency, long enough that the fast path's
//! window ring must grow. The fast path's SoA window ring, issue
//! calendar, and stall fast-forward are pure representation changes; any
//! behavioral divergence trips here with the field named.
#![cfg(feature = "reference-pipeline")]

use preexec::energy::EnergyConfig;
use preexec::oracle::fuzz;
use preexec::sim::{ReferenceSimulator, SimConfig, SimReport, Simulator};
use preexec::workloads::{self, InputSet};
use preexec_json::ToJson;
use preexec_prop::Gen;
use pthsel::PThread;

/// Asserts every observable of the two reports matches, field by field,
/// so a failure names exactly what diverged. `wall_nanos` is the one
/// legitimate difference and is excluded by serialization already.
fn assert_reports_match(fast: &SimReport, slow: &SimReport, label: &str) {
    assert_eq!(fast.cycles, slow.cycles, "{label}: cycles");
    assert_eq!(fast.committed, slow.committed, "{label}: committed");
    assert_eq!(fast.pinsts, slow.pinsts, "{label}: pinsts");
    assert_eq!(fast.spawns, slow.spawns, "{label}: spawns");
    assert_eq!(
        fast.spawns_dropped, slow.spawns_dropped,
        "{label}: spawns_dropped"
    );
    assert_eq!(
        fast.spawns_wrong_path, slow.spawns_wrong_path,
        "{label}: spawns_wrong_path"
    );
    assert_eq!(
        fast.l2_misses_demand, slow.l2_misses_demand,
        "{label}: l2_misses_demand"
    );
    assert_eq!(
        fast.covered_full, slow.covered_full,
        "{label}: covered_full"
    );
    assert_eq!(
        fast.covered_partial, slow.covered_partial,
        "{label}: covered_partial"
    );
    assert_eq!(fast.mispredicts, slow.mispredicts, "{label}: mispredicts");
    assert_eq!(fast.branches, slow.branches, "{label}: branches");
    assert_eq!(fast.hints_used, slow.hints_used, "{label}: hints_used");
    assert_eq!(
        fast.hints_correct, slow.hints_correct,
        "{label}: hints_correct"
    );
    assert_eq!(
        fast.max_pthread_pregs, slow.max_pthread_pregs,
        "{label}: max_pthread_pregs"
    );
    assert_eq!(fast.finished, slow.finished, "{label}: finished");

    // Raw access counters (the inputs to the energy model).
    let (fc, sc) = (&fast.counts, &slow.counts);
    assert_eq!(fc.imem_main, sc.imem_main, "{label}: imem_main");
    assert_eq!(fc.imem_pth, sc.imem_pth, "{label}: imem_pth");
    assert_eq!(fc.dmem_main, sc.dmem_main, "{label}: dmem_main");
    assert_eq!(fc.dmem_pth, sc.dmem_pth, "{label}: dmem_pth");
    assert_eq!(fc.l2_main, sc.l2_main, "{label}: l2_main");
    assert_eq!(fc.l2_pth, sc.l2_pth, "{label}: l2_pth");
    assert_eq!(fc.dispatch_main, sc.dispatch_main, "{label}: dispatch_main");
    assert_eq!(fc.dispatch_pth, sc.dispatch_pth, "{label}: dispatch_pth");
    assert_eq!(fc.alu_main, sc.alu_main, "{label}: alu_main");
    assert_eq!(fc.alu_pth, sc.alu_pth, "{label}: alu_pth");
    assert_eq!(fc.rob_bpred, sc.rob_bpred, "{label}: rob_bpred");

    // Every energy term individually (equations E1–E8): exact f64
    // equality is the right bar because both sides compute the same
    // arithmetic from what must be identical counts.
    let e = EnergyConfig::default();
    let (fe, se) = (fast.energy(&e), slow.energy(&e));
    assert_eq!(fe.imem_main, se.imem_main, "{label}: E imem_main");
    assert_eq!(fe.dmem_main, se.dmem_main, "{label}: E dmem_main");
    assert_eq!(fe.l2_main, se.l2_main, "{label}: E l2_main");
    assert_eq!(fe.dec_ooo_main, se.dec_ooo_main, "{label}: E dec_ooo_main");
    assert_eq!(fe.rob_bpred, se.rob_bpred, "{label}: E rob_bpred");
    assert_eq!(fe.idle, se.idle, "{label}: E idle");
    assert_eq!(fe.imem_pth, se.imem_pth, "{label}: E imem_pth");
    assert_eq!(fe.dmem_pth, se.dmem_pth, "{label}: E dmem_pth");
    assert_eq!(fe.l2_pth, se.l2_pth, "{label}: E l2_pth");
    assert_eq!(fe.dec_ooo_pth, se.dec_ooo_pth, "{label}: E dec_ooo_pth");
    assert_eq!(
        fast.total_energy(&e),
        slow.total_energy(&e),
        "{label}: total energy"
    );

    // Belt and braces: the serialized reports must be byte-identical.
    assert_eq!(fast.to_json(), slow.to_json(), "{label}: report JSON");
}

/// Runs `program` (with `pthreads` installed) through both pipelines and
/// checks reports and architectural state agree exactly. Returns the fast
/// pipeline's final window ring size.
fn check_program(
    program: &preexec::isa::Program,
    pthreads: &[PThread],
    cfg: SimConfig,
    label: &str,
) -> usize {
    let mut fast = Simulator::new(program, cfg).with_pthreads(pthreads);
    let fast_report = fast.run();
    let mut slow = ReferenceSimulator::new(program, cfg).with_pthreads(pthreads);
    let slow_report = slow.run();
    assert_reports_match(&fast_report, &slow_report, label);
    assert_eq!(
        fast.spec_regs(),
        slow.spec_regs(),
        "{label}: final registers"
    );
    assert_eq!(fast.spec_mem(), slow.spec_mem(), "{label}: final memory");
    fast.window_slots()
}

/// One kernel through both pipelines, bare and with a deterministic
/// fuzzed p-thread set (seeded per kernel, so failures reproduce).
fn check_kernel(name: &str, seed_salt: u64) {
    let cfg = SimConfig::default();
    let program = workloads::build(name, InputSet::Train).expect("known kernel");
    check_program(&program, &[], cfg, &format!("{name}/bare"));
    let mut g = Gen::new(0x5eed_fa57_0000 ^ seed_salt, 0);
    let pthreads = fuzz::gen_pthreads(&mut g, &program);
    check_program(&program, &pthreads, cfg, &format!("{name}/pthreads"));
}

macro_rules! kernel_fastpath_tests {
    ($($module:ident => $name:expr, $salt:expr;)+) => {
        $(#[test]
        fn $module() {
            check_kernel($name, $salt);
        })+
    };
}

kernel_fastpath_tests! {
    bzip2_matches_reference => "bzip2", 1;
    fig1_matches_reference => "fig1", 2;
    gap_matches_reference => "gap", 3;
    gcc_matches_reference => "gcc", 4;
    mcf_matches_reference => "mcf", 5;
    parser_matches_reference => "parser", 6;
    twolf_matches_reference => "twolf", 7;
    vortex_matches_reference => "vortex", 8;
    vpr_place_matches_reference => "vpr.place", 9;
    vpr_route_matches_reference => "vpr.route", 10;
}

/// 200 fuzzer-generated programs — the same generator `repro verify`
/// uses against the functional oracle — each with a random p-thread set,
/// through both pipelines. The static pre-check gates generator bugs so
/// a failure here is a pipeline divergence, not a malformed case.
#[test]
fn fuzzed_programs_match_reference() {
    let cfg = SimConfig::default();
    preexec_prop::run_cases(200, |g| {
        let program = fuzz::gen_program(g);
        let pthreads = fuzz::gen_pthreads(g, &program);
        fuzz::static_precheck(&program, &pthreads).expect("generator invariant");
        let label = format!("fuzz case {}", g.case);
        check_program(&program, &[], cfg, &format!("{label}/bare"));
        check_program(&program, &pthreads, cfg, &format!("{label}/pthreads"));
    });
}

/// Ring growth under the differential wall: at a 2000-cycle memory
/// latency, long-lived p-thread loads pin the window's dead horizon while
/// the main thread keeps dispatching, so the fast pipeline's window ring
/// must double (several times, with waiter chains and calendar entries
/// in flight) and still match the reference exactly.
#[test]
fn ring_growth_under_long_memory_latency_matches_reference() {
    let cfg = SimConfig::default().with_mem_latency(2000);
    let program = workloads::build("vpr.route", InputSet::Train).expect("known kernel");
    let mut g = Gen::new(0x5eed_fa57_0000 ^ 15, 0);
    let pthreads = fuzz::gen_pthreads(&mut g, &program);
    let initial = Simulator::new(&program, cfg).window_slots();
    let grown = check_program(&program, &pthreads, cfg, "vpr.route/pthreads/mem2000");
    assert!(
        grown > initial,
        "the window ring never grew past its initial {initial} slots"
    );
}
