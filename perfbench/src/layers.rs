//! Per-layer metrics of a traced run: span self times, exact counts,
//! allocation counts, memo shares, and how far the traced pass strays
//! from the untraced one.

use crate::alloc;
use crate::mirror::Counts;
use crate::span::{Layer, Summary};
use crate::stats::share;
use crate::RunResult;
use preexec_harness::Stage;
use preexec_json::Json;
use std::collections::BTreeMap;

/// Every per-layer metric, in report order, with its unit.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("sim.baseline_ns_per_cycle", "ns/cycle"),
    ("sim.pthread_ns_per_cycle", "ns/cycle"),
    ("sim.baseline_ms", "ms"),
    ("sim.pthread_ms", "ms"),
    ("sim.runs", "count"),
    ("sim.cycles", "count"),
    ("sim.executed_cycles", "count"),
    ("sim.ff_share", "ratio"),
    ("critpath.model_ms", "ms"),
    ("critpath.cost_ms", "ms"),
    ("critpath.ns_per_inst", "ns/inst"),
    ("trace.run_ms", "ms"),
    ("trace.calls", "count"),
    ("trace.insts", "count"),
    ("trace.annotate_ms", "ms"),
    ("trace.profile_ms", "ms"),
    ("slicer.build_ms", "ms"),
    ("slicer.nodes", "count"),
    ("campaign.store_load_us", "us"),
    ("json.parse_us", "us"),
    ("campaign.store_save_us", "us"),
    ("json.encode_us", "us"),
    ("campaign.store_hit_share", "ratio"),
    ("harness.core_hit_share", "ratio"),
    ("harness.base_hit_share", "ratio"),
    ("harness.sim_hit_share", "ratio"),
    ("harness.self_ms", "ms"),
    ("server.lru_hit_share", "ratio"),
    ("server.join_share", "ratio"),
    ("server.rejected_429", "count"),
    ("server.queue_depth_max", "count"),
    ("gen.admit_ms", "ms"),
    ("gen.admitted_share", "ratio"),
    ("workloads.build_ms", "ms"),
    ("pthsel.select_ms", "ms"),
    ("pthsel.calls", "count"),
    ("gen.self_ms", "ms"),
    ("workloads.self_ms", "ms"),
    ("trace.self_ms", "ms"),
    ("slicer.self_ms", "ms"),
    ("critpath.self_ms", "ms"),
    ("sim.self_ms", "ms"),
    ("pthsel.self_ms", "ms"),
    ("campaign.self_ms", "ms"),
    ("json.self_ms", "ms"),
    ("trace.allocs", "count"),
    ("trace.alloc_mb", "MB"),
    ("slicer.allocs", "count"),
    ("slicer.alloc_mb", "MB"),
    ("critpath.allocs", "count"),
    ("critpath.alloc_mb", "MB"),
    ("sim.allocs", "count"),
    ("sim.alloc_mb", "MB"),
    ("harness.allocs", "count"),
    ("harness.alloc_mb", "MB"),
    ("trace_overhead_share", "ratio"),
    ("stage_sum_gap_share", "ratio"),
    ("mirror_mismatches", "count"),
    ("loadgen.late_p95_ms", "ms"),
    ("loadgen.backlog_end", "count"),
    ("error_share", "ratio"),
    ("harness.store_misses", "count"),
    ("harness.sim_misses", "count"),
];

/// Everything a traced run measured.
pub struct Traced {
    /// Span totals of the traced pass.
    pub summary: Summary,
    /// Exact work counts of the traced pass.
    pub counts: Counts,
    /// The traced pass's stage timers and memo counters.
    pub mirror: Json,
    /// The untraced pass's `Engine::metrics()` snapshot.
    pub engine: Json,
    /// Wall time of the untraced pass, nanoseconds.
    pub untraced_ns: u64,
}

/// Values a workload measures outside the traced pass (server and load
/// generator figures, admission share); absent ones report 0.
pub type Extra = BTreeMap<&'static str, f64>;

fn num(j: &Json, path: &[&str]) -> f64 {
    let mut cur = j;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    cur.as_f64().unwrap_or(0.0)
}

fn memo_share(j: &Json, hits: &str, misses: &str) -> f64 {
    let h = num(j, &["cache", hits]) as u64;
    let m = num(j, &["cache", misses]) as u64;
    share(h, h + m)
}

/// Engine counters compared with the traced pass's, by `Metrics` section.
const COMPARED: [(&str, &[&str]); 2] = [
    (
        "counters",
        &["trace_insts", "slice_nodes", "sim_cycles", "cells"],
    ),
    (
        "cache",
        &[
            "hits",
            "misses",
            "base_hits",
            "base_misses",
            "sim_hits",
            "sim_misses",
            "aux_hits",
            "aux_misses",
            "store_hits",
            "store_misses",
        ],
    ),
];

/// Where the traced pass's work differs from the untraced engine's:
/// stage invocations, counters, memo and store traffic. Empty while the
/// mirror re-expresses the engine's orchestration step for step; an
/// orchestration change the mirror does not follow shows up here.
pub fn mismatches(t: &Traced) -> Vec<String> {
    let stage_calls = Stage::ALL
        .iter()
        .map(|st| vec!["stages", st.name(), "calls"]);
    let counters = COMPARED
        .iter()
        .flat_map(|(section, keys)| keys.iter().map(move |k| vec![*section, *k]));
    stage_calls
        .chain(counters)
        .filter_map(|path| {
            let (a, b) = (num(&t.mirror, &path), num(&t.engine, &path));
            (a != b).then(|| format!("{}: traced {a}, engine {b}", path.join(".")))
        })
        .collect()
}

/// Pushes every per-layer metric, in [`PER_LAYER`] order.
pub fn report(t: &Traced, extra: &Extra, res: &mut RunResult) {
    let s = &t.summary;
    let c = &t.counts;
    let ms = |name: &str| s.get(name).1 as f64 / 1e6;
    let mean_us = |name: &str| {
        let (calls, nanos) = s.get(name);
        if calls == 0 {
            0.0
        } else {
            nanos as f64 / 1e3 / calls as f64
        }
    };
    let per = |nanos: u64, n: u64| if n == 0 { 0.0 } else { nanos as f64 / n as f64 };
    // Work counts come from the untraced engine's `Metrics`; the traced
    // pass's own counts serve only as denominators of its span times.
    let engine_count = |path: &[&str]| num(&t.engine, path);
    let engine_calls = |st: Stage| engine_count(&["stages", st.name(), "calls"]);
    let sim_cycles = num(&t.mirror, &["counters", "sim_cycles"]) as u64;
    let pthread_cycles = sim_cycles - c.baseline_cycles;
    let critpath_ns = s.get("critpath.model").1 + s.get("critpath.cost").1;
    let stage_gap: f64 = Stage::ALL
        .iter()
        .map(|st| {
            let path = ["stages", st.name(), "wall_ms"];
            (num(&t.mirror, &path) - num(&t.engine, &path)).abs()
        })
        .sum();
    let store_hits = num(&t.engine, &["cache", "store_hits"]) as u64;
    let store_misses = num(&t.engine, &["cache", "store_misses"]) as u64;

    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    put(
        "sim.baseline_ns_per_cycle",
        per(s.get("sim.baseline").1, c.baseline_cycles),
    );
    put(
        "sim.pthread_ns_per_cycle",
        per(s.get("sim.pthread").1, pthread_cycles),
    );
    put("sim.baseline_ms", ms("sim.baseline"));
    put("sim.pthread_ms", ms("sim.pthread"));
    put(
        "sim.runs",
        engine_calls(Stage::BaselineSim) + engine_calls(Stage::OptSim),
    );
    put("sim.cycles", engine_count(&["counters", "sim_cycles"]));
    put("sim.executed_cycles", c.executed_cycles as f64);
    put(
        "sim.ff_share",
        if sim_cycles == 0 {
            0.0
        } else {
            1.0 - share(c.executed_cycles, sim_cycles)
        },
    );
    put("critpath.model_ms", ms("critpath.model"));
    put("critpath.cost_ms", ms("critpath.cost"));
    put("critpath.ns_per_inst", per(critpath_ns, c.critpath_insts));
    put("trace.run_ms", ms("trace.run"));
    put("trace.calls", engine_calls(Stage::Trace));
    put("trace.insts", engine_count(&["counters", "trace_insts"]));
    put("trace.annotate_ms", ms("trace.annotate"));
    put("trace.profile_ms", ms("trace.profile"));
    put("slicer.build_ms", ms("slicer.build"));
    put("slicer.nodes", engine_count(&["counters", "slice_nodes"]));
    put("campaign.store_load_us", mean_us("campaign.store_load"));
    put("json.parse_us", mean_us("json.parse"));
    put("campaign.store_save_us", mean_us("campaign.store_save"));
    put("json.encode_us", mean_us("json.encode"));
    put(
        "campaign.store_hit_share",
        share(store_hits, store_hits + store_misses),
    );
    put(
        "harness.core_hit_share",
        memo_share(&t.engine, "hits", "misses"),
    );
    put(
        "harness.base_hit_share",
        memo_share(&t.engine, "base_hits", "base_misses"),
    );
    put(
        "harness.sim_hit_share",
        memo_share(&t.engine, "sim_hits", "sim_misses"),
    );
    put("harness.self_ms", s.self_ms(Layer::Harness));
    put("gen.admit_ms", ms("gen.admit"));
    put("workloads.build_ms", ms("workloads.build"));
    put("pthsel.select_ms", ms("pthsel.select"));
    put("pthsel.calls", engine_calls(Stage::Select));
    for layer in Layer::ALL {
        if layer != Layer::Harness {
            put(&format!("{}.self_ms", layer.name()), s.self_ms(layer));
        }
    }
    for (layer, calls, mb) in [
        (Layer::Trace, "trace.allocs", "trace.alloc_mb"),
        (Layer::Slicer, "slicer.allocs", "slicer.alloc_mb"),
        (Layer::Critpath, "critpath.allocs", "critpath.alloc_mb"),
        (Layer::Sim, "sim.allocs", "sim.alloc_mb"),
        (Layer::Harness, "harness.allocs", "harness.alloc_mb"),
    ] {
        let (n, bytes) = alloc::totals(layer.slot());
        put(calls, n as f64);
        put(mb, bytes as f64 / (1024.0 * 1024.0));
    }
    put(
        "trace_overhead_share",
        s.wall_ns as f64 / t.untraced_ns.max(1) as f64 - 1.0,
    );
    put(
        "stage_sum_gap_share",
        stage_gap * 1e6 / t.untraced_ns.max(1) as f64,
    );
    let diffs = mismatches(t);
    for d in &diffs {
        eprintln!("note: the traced pass differs from the engine in {d}");
    }
    put("mirror_mismatches", diffs.len() as f64);
    put("harness.store_misses", store_misses as f64);
    put(
        "harness.sim_misses",
        num(&t.engine, &["cache", "sim_misses"]),
    );
    for (name, value) in extra {
        put(name, *value);
    }
    put("error_share", share(res.failed, res.attempted));
    for (name, unit) in PER_LAYER {
        res.push(name, v.get(name).copied().unwrap_or(0.0), unit);
    }
}
