//! Seeded workload inputs. The seed picks *which* inputs a run uses;
//! the amount of work per run is held steady across seeds by
//! stratifying every random choice (each kernel appears the same number
//! of times, each class keeps its share), so seed-to-seed spread
//! reflects the program, not the draw.

use preexec_gen::{KnobPoint, Scenario};
use preexec_harness::campaign::SweepOptions;
use preexec_rand::{Rng, SeedableRng, StdRng};

/// The paper's default memory latency, cycles.
pub const DEFAULT_LATENCY: u64 = 200;

/// The 256 KB L2, in 8-byte words (the generator's footprint unit).
pub const L2_WORDS: u64 = 256 * 1024 / 8;

/// W-grid points per sweep: the ends of `[0, 1]`, to which the paper's
/// four anchors are added, giving the four W values of L, P², P and E.
pub const SWEEP_POINTS: usize = 2;

/// Generated scenarios per side of the L2 boundary.
pub const GEN_PER_SIDE: usize = 2;

/// A seeded generator for `seed` and a stream label: distinct labels
/// give independent streams from one seed.
pub fn seeded(seed: u64, stream: u64) -> StdRng {
    let mut bytes = [0u8; 32];
    bytes[..8].copy_from_slice(&seed.to_le_bytes());
    bytes[8..16].copy_from_slice(&stream.to_le_bytes());
    StdRng::from_seed(bytes)
}

/// Uniform in `0..n` (`n > 0`).
pub fn below(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n as u64) as usize
}

/// One element of `items`.
pub fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[below(rng, items.len())]
}

/// Fisher–Yates shuffle.
pub fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i + 1));
    }
}

/// The knobs that set a scenario's cost (slice length, induction
/// depth, branch divergence, miss rate), one entry per scenario on each
/// side of the L2. They are fixed, so admission and sweep cost do not
/// depend on the seed: with these four knobs seeded, admission alone
/// varied by up to half from seed to seed.
const GEN_DESIGN: [(u32, u32, f64, f64); GEN_PER_SIDE] = [(4, 1, 0.0, 0.25), (8, 2, 0.25, 0.5)];

/// Seeded generator scenarios: `GEN_PER_SIDE` with a cold region that
/// fits in the L2 and `GEN_PER_SIDE` with one that does not. The seed
/// picks each footprint within its side, the miss clustering and the
/// scenario's own seed; the other knobs come from [`GEN_DESIGN`].
pub fn gen_scenarios(seed: u64) -> Vec<Scenario> {
    let mut rng = seeded(seed, 1);
    let mut out = Vec::new();
    for side in 0..2 {
        for (slice_len, induction_depth, branch_divergence, miss_rate) in GEN_DESIGN {
            let footprint = if side == 0 {
                pick(&mut rng, &[L2_WORDS / 8, L2_WORDS / 4, L2_WORDS / 2])
            } else {
                pick(&mut rng, &[L2_WORDS * 2, L2_WORDS * 4, L2_WORDS * 8])
            };
            let knobs = KnobPoint {
                slice_len,
                induction_depth,
                branch_divergence,
                miss_rate,
                miss_clustering: pick(&mut rng, &[0.0, 0.5]),
                footprint,
            };
            out.push(Scenario {
                knobs,
                seed: 1 + rng.gen_range(0..1000),
            });
        }
    }
    out
}

/// The kernels, costliest cold sweep first (host time per kernel on the
/// reference box). The sweep lists its kernels in this order so the work
/// pool starts the long groups first and the sweep's tail, where one
/// worker idles, stays short.
pub const COST_ORDER: [&str; 9] = [
    "gcc",
    "vortex",
    "bzip2",
    "twolf",
    "vpr.place",
    "gap",
    "parser",
    "vpr.route",
    "mcf",
];

/// The paper's three memory latencies, cycles.
pub const MEM_LATENCIES: [u64; 3] = [100, DEFAULT_LATENCY, 300];

/// The sweep of both sweep workloads: every kernel and the seeded,
/// admitted scenarios at each of the paper's memory latencies, over the
/// W grid. Every kernel runs at every latency, so the work per run does
/// not depend on the seed; the seed picks the scenarios.
pub fn sweep_spec(gen_names: &[String]) -> SweepOptions {
    let mut benches: Vec<String> = COST_ORDER.iter().map(|s| s.to_string()).collect();
    benches.extend_from_slice(gen_names);
    SweepOptions {
        benches,
        points: SWEEP_POINTS,
        mem_latencies: MEM_LATENCIES.to_vec(),
        ..SweepOptions::default()
    }
}

/// Requests per second of the `serve_mix` open-loop schedule.
pub const SERVE_RATE: f64 = 12.0;

/// One cold prepare per this many slots (about 1.3 a second). Denser
/// colds overlap on the two workers, and the queueing that follows
/// magnifies any slowdown of the host in the latency tail.
const COLD_EVERY: usize = 9;

/// What a `serve_mix` request exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// Set-up: prepares every kernel at the default machine.
    Setup,
    /// An exact repeat of a set-up body (response-cache hit).
    Repeat,
    /// One of two identical new bodies due at the same instant
    /// (singleflight join).
    Duplicate,
    /// A new target or W on a prepared config (select, plus a p-thread
    /// run for `/v1/sim`).
    NewTarget,
    /// A `/v1/select` with a new `mem_latency` on a prepared bench: a
    /// full cold prepare (the served cold select).
    Cold,
    /// A strictly invalid body (unknown field or bench): must get a 4xx.
    Invalid,
}

/// One scheduled request.
#[derive(Clone, Debug)]
pub struct Planned {
    /// When it is due, seconds after the schedule starts.
    pub due_s: f64,
    /// `/v1/sim` or `/v1/select`.
    pub path: &'static str,
    /// The JSON body.
    pub body: String,
    /// What it exercises.
    pub class: Class,
}

/// Set-up requests: `/v1/sim` and `/v1/select` with the latency target
/// for every kernel at the default machine. Kernels go in pairs, both
/// `/v1/sim` bodies first, so the two workers always prepare the same
/// two kernels side by side and the set-up's memory peak repeats.
pub fn serve_setup() -> Vec<Planned> {
    let body = |b: &str| format!(r#"{{"bench":"{b}"}}"#);
    COST_ORDER
        .chunks(2)
        .flat_map(|pair| {
            let sims = pair.iter().map(move |b| ("/v1/sim", body(b)));
            let selects = pair.iter().map(move |b| ("/v1/select", body(b)));
            sims.chain(selects).collect::<Vec<_>>()
        })
        .map(|(path, body)| Planned {
            due_s: 0.0,
            path,
            body,
            class: Class::Setup,
        })
        .collect()
}

/// The seeded open-loop schedule for `seconds` at [`SERVE_RATE`]:
/// evenly spaced slots. Cold prepares sit at evenly spaced slots, and
/// each kernel is cold the same number of times; the other classes keep fixed shares of the
/// remaining slots, spread evenly over the run. Benches cycle through a
/// seeded permutation so every kernel carries the same share of each
/// class. The seed picks the W values, the cold latencies, which set-up
/// body each repeat replays, and the invalid bodies.
pub fn serve_plan(seed: u64, seconds: f64) -> Vec<Planned> {
    let mut rng = seeded(seed, 4);
    let slots = ((SERVE_RATE * seconds).round() as usize).max(20);
    let kernels = preexec_workloads::NAMES.len();
    let colds = kernels * ((slots as f64 / (COLD_EVERY * kernels) as f64).round() as usize).max(1);
    let cold_slots: Vec<usize> = (0..colds)
        .map(|k| (2 * k + 1) * slots / (2 * colds))
        .collect();
    let rest = slots - colds;
    let share = |f: f64| (f * rest as f64).round() as usize;
    let mut counts = vec![
        (Class::Duplicate, share(0.08)),
        (Class::Invalid, share(0.06)),
        (Class::Repeat, share(0.30)),
    ];
    counts.push((
        Class::NewTarget,
        rest - counts.iter().map(|c| c.1).sum::<usize>(),
    ));
    let mut others: Vec<(f64, Class)> = Vec::with_capacity(rest);
    for (class, n) in counts {
        for k in 0..n {
            let jitter: f64 = rng.gen();
            others.push(((k as f64 + jitter) / n as f64, class));
        }
    }
    others.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut others = others.into_iter().map(|(_, c)| c);
    let order: Vec<Class> = (0..slots)
        .map(|slot| {
            if cold_slots.contains(&slot) {
                Class::Cold
            } else {
                others.next().expect("one class per remaining slot")
            }
        })
        .collect();

    let mut new_benches = preexec_workloads::NAMES.to_vec();
    shuffle(&mut rng, &mut new_benches);
    let setup = serve_setup();
    let named = ["energy", "ed", "ed2", "classic"];
    let mut used = std::collections::HashSet::new();
    let (mut n_new, mut n_cold, mut n_bad) = (0usize, 0usize, 0usize);
    let mut plan = Vec::with_capacity(slots + slots / 10);
    for (slot, class) in order.into_iter().enumerate() {
        let due_s = slot as f64 / SERVE_RATE;
        let mut push = |path: &'static str, body: String| {
            plan.push(Planned {
                due_s,
                path,
                body,
                class,
            })
        };
        match class {
            Class::Repeat => {
                let p = &setup[below(&mut rng, setup.len())];
                push(p.path, p.body.clone());
            }
            Class::NewTarget | Class::Duplicate => {
                let j = n_new;
                n_new += 1;
                let bench = new_benches[j % new_benches.len()];
                let round = j / new_benches.len();
                let body = if class == Class::NewTarget && round % 4 == 3 && round / 4 < named.len()
                {
                    format!(r#"{{"bench":"{bench}","target":"{}"}}"#, named[round / 4])
                } else {
                    let k = loop {
                        let k = 1 + rng.gen_range(0..999);
                        if k != 500 && k != 670 && used.insert((bench, k)) {
                            break k;
                        }
                    };
                    format!(
                        r#"{{"bench":"{bench}","target":"weighted","weight":{}}}"#,
                        k as f64 / 1000.0
                    )
                };
                if class == Class::Duplicate {
                    push("/v1/sim", body.clone());
                    push("/v1/sim", body);
                } else {
                    push(if j % 3 == 0 { "/v1/select" } else { "/v1/sim" }, body);
                }
            }
            Class::Cold => {
                // Kernels in a fixed order; each pass over them draws its
                // latencies from its own 10-cycle band, alternating between
                // the low and the high end of 100–300.
                let bench = COST_ORDER[n_cold % COST_ORDER.len()];
                let pass = (n_cold / COST_ORDER.len()) as u64;
                n_cold += 1;
                let offset = 10 * (pass / 2 % 10) + rng.gen_range(0..10);
                let ml = if pass.is_multiple_of(2) {
                    100 + offset
                } else {
                    300 - offset
                };
                push(
                    "/v1/select",
                    format!(r#"{{"bench":"{bench}","mem_latency":{ml}}}"#),
                );
            }
            Class::Invalid => {
                n_bad += 1;
                let path = if n_bad % 2 == 0 {
                    "/v1/sim"
                } else {
                    "/v1/select"
                };
                let body = if n_bad % 4 < 2 {
                    format!(
                        r#"{{"bench":"{}","colour":"red"}}"#,
                        pick(&mut rng, &preexec_workloads::NAMES)
                    )
                } else {
                    format!(r#"{{"bench":"nosuch{}"}}"#, rng.gen_range(0..1000))
                };
                push(path, body);
            }
            Class::Setup => unreachable!("set-up requests are not scheduled"),
        }
    }
    plan
}
