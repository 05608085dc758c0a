//! `serve_mix`: open-loop `/v1/sim` and `/v1/select` traffic against
//! `service::serve` over loopback HTTP, sent on two keep-alive
//! connections at a fixed rate below saturation.

use crate::inputs::{below, seeded, serve_plan, serve_setup, Class, Planned};
use crate::layers::{self, Extra, Traced};
use crate::mirror::{config_for, parse_target, sim_response, Mirror};
use crate::span::Summary;
use crate::stats::{median, peak_rss_mb, percentile, share};
use crate::{alloc, RunResult, SETUPS, THREADS};
use preexec_harness::service::{serve, EngineService, ServeOptions};
use preexec_harness::{Engine, ExpConfig, Prepared};
use preexec_json::dto::{EvalRequest, SelectResponse, SimResponse};
use preexec_json::{parse, Json};
use preexec_server::http::{read_response, write_request};
use preexec_server::{Bus, Request, Route, ServerCtx, ServerHandle, ServerMetrics, Service};
use std::collections::HashMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// `goodput_rps` counts correct 2xx responses within this latency,
/// measured from each request's due time.
pub const LATENCY_LIMIT_MS: f64 = 2000.0;

/// The run is invalid when the generator's p95 lateness exceeds this.
const LATE_LIMIT_MS: f64 = 1000.0;

/// The run is invalid when more requests than this are still unanswered
/// when the schedule ends (the backlog grew): at the schedule's rate
/// that is more than the longest single cold request can explain.
const BACKLOG_LIMIT: usize = 8;

/// Keep-alive connections (and generator threads).
const CONNS: usize = 2;

/// One keep-alive client connection.
struct Conn {
    addr: String,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        let writer = stream.try_clone().map_err(|e| format!("clone: {e}"))?;
        Ok(Conn {
            addr: addr.to_string(),
            writer,
            reader: BufReader::new(stream),
        })
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, Vec<u8>), String> {
        write_request(&mut self.writer, method, path, &[], body.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        let resp = read_response(&mut self.reader)?;
        Ok((resp.status, resp.body))
    }

    /// One request; reconnects once if the connection went away.
    fn call(&mut self, method: &str, path: &str, body: &str) -> (u16, Vec<u8>) {
        match self.exchange(method, path, body) {
            Ok(r) => r,
            Err(_) => match Conn::open(&self.addr) {
                Ok(fresh) => {
                    *self = fresh;
                    self.exchange(method, path, body).unwrap_or((0, Vec::new()))
                }
                Err(_) => (0, Vec::new()),
            },
        }
    }
}

/// One answered request.
struct Outcome {
    idx: usize,
    sent: Instant,
    done: Instant,
    status: u16,
    body: Vec<u8>,
}

fn start_server(engine: Arc<Engine>) -> Result<ServerHandle, String> {
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        workers: THREADS,
        deadline_ms: 30_000,
        ..ServeOptions::default()
    };
    serve(&opts, Some(engine)).map_err(|e| format!("serve: {e}"))
}

/// Sends `plan` on [`CONNS`] connections. Each request goes out at its
/// due time (`start + due_s`) or, if both connections are busy, as soon
/// as one frees up. With `poll`, an idle connection samples the
/// admission-queue depth from `/metrics` while it waits.
fn drive(addr: &str, plan: &[Planned], start: Instant, poll: bool) -> (Vec<Outcome>, u64) {
    let next = AtomicUsize::new(0);
    let out = Mutex::new(Vec::with_capacity(plan.len()));
    let depth_max = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..CONNS {
            scope.spawn(|| {
                let Ok(mut conn) = Conn::open(addr) else {
                    return;
                };
                loop {
                    let idx = next.fetch_add(1, Ordering::SeqCst);
                    let Some(p) = plan.get(idx) else { break };
                    let due = start + Duration::from_secs_f64(p.due_s);
                    if poll && due > Instant::now() + Duration::from_millis(20) {
                        let (_, body) = conn.call("GET", "/metrics", "");
                        let depth = parse(&String::from_utf8_lossy(&body))
                            .ok()
                            .and_then(|j| j.get("server")?.get("queue_depth")?.as_u64())
                            .unwrap_or(0);
                        depth_max.fetch_max(depth as usize, Ordering::SeqCst);
                    }
                    if let Some(wait) = due.checked_duration_since(Instant::now()) {
                        std::thread::sleep(wait);
                    }
                    let sent = Instant::now();
                    let (status, body) = conn.call("POST", p.path, &p.body);
                    let done = Instant::now();
                    out.lock().expect("outcome list").push(Outcome {
                        idx,
                        sent,
                        done,
                        status,
                        body,
                    });
                }
            });
        }
    });
    let mut outcomes = out.into_inner().expect("outcome list");
    outcomes.sort_by_key(|o| o.idx);
    (outcomes, depth_max.into_inner() as u64)
}

/// Checks one response: 4xx for invalid bodies, a well-formed 200
/// otherwise.
fn check_response(p: &Planned, status: u16, body: &[u8]) -> Result<(), String> {
    let what = || format!("{} {}", p.path, p.body);
    if p.class == Class::Invalid {
        return if (400..500).contains(&status) {
            Ok(())
        } else {
            Err(format!("{} got {status}, want a 4xx", what()))
        };
    }
    if status != 200 {
        return Err(format!("{} got {status}", what()));
    }
    let j = parse(&String::from_utf8_lossy(body)).map_err(|e| format!("{}: {e}", what()))?;
    if p.path == "/v1/sim" {
        let r = SimResponse::from_json(&j).map_err(|e| format!("{}: {e}", what()))?;
        if ![r.speedup, r.energy_ratio, r.ed_ratio]
            .iter()
            .all(|v| v.is_finite() && *v > 0.0)
        {
            return Err(format!("{}: non-positive ratio", what()));
        }
    } else {
        SelectResponse::from_json(&j).map_err(|e| format!("{}: {e}", what()))?;
    }
    Ok(())
}

/// Byte identity: every response to one (path, body) equals the first.
struct Identity(HashMap<(&'static str, String), (u16, Vec<u8>)>);

impl Identity {
    fn check(&mut self, p: &Planned, status: u16, body: &[u8]) -> Result<(), String> {
        let first = self
            .0
            .entry((p.path, p.body.clone()))
            .or_insert_with(|| (status, body.to_vec()));
        if first.0 == status && first.1 == body {
            Ok(())
        } else {
            Err(format!(
                "{} {}: responses differ between repeats",
                p.path, p.body
            ))
        }
    }
}

/// Set-up: a fresh engine and server, with every kernel prepared at the
/// default machine (closed loop on two connections).
fn set_up() -> Result<(ServerHandle, Vec<Planned>, Vec<Outcome>), String> {
    let engine = Arc::new(Engine::new(THREADS));
    let handle = start_server(engine)?;
    let plan = serve_setup();
    let (outcomes, _) = drive(&handle.addr().to_string(), &plan, Instant::now(), false);
    Ok((handle, plan, outcomes))
}

/// Everything the open-loop phase measured.
struct Phase {
    plan: Vec<Planned>,
    outcomes: Vec<Outcome>,
    start: Instant,
    depth_max: u64,
    server_before: Json,
    server_after: Json,
    peak_rss_mb: f64,
}

fn open_loop(handle: &ServerHandle, seed: u64, seconds: f64, poll: bool) -> Phase {
    let server_before = handle.metrics().to_json(0);
    let plan = serve_plan(seed, seconds);
    let start = Instant::now() + Duration::from_millis(50);
    let (outcomes, depth_max) = drive(&handle.addr().to_string(), &plan, start, poll);
    Phase {
        peak_rss_mb: peak_rss_mb(),
        server_after: handle.metrics().to_json(0),
        plan,
        outcomes,
        start,
        depth_max,
        server_before,
    }
}

/// Applies every output check to the set-up and open-loop responses
/// and returns, by plan index, which open-loop requests were correct.
fn check_all(setup: (&[Planned], &[Outcome]), phase: &Phase, res: &mut RunResult) -> Vec<bool> {
    let mut identity = Identity(HashMap::new());
    for o in setup.1 {
        let p = &setup.0[o.idx];
        if let Err(e) =
            check_response(p, o.status, &o.body).and_then(|()| identity.check(p, o.status, &o.body))
        {
            res.problem(format!("set-up: {e}"));
        }
    }
    if setup.1.len() != setup.0.len() {
        res.problem("set-up requests went unanswered");
    }
    let mut ok = vec![false; phase.plan.len()];
    res.attempted += phase.plan.len() as u64;
    for o in &phase.outcomes {
        let p = &phase.plan[o.idx];
        match check_response(p, o.status, &o.body)
            .and_then(|()| identity.check(p, o.status, &o.body))
        {
            Ok(()) => ok[o.idx] = true,
            Err(e) => res.problem(e),
        }
    }
    res.failed += ok.iter().filter(|&&b| !b).count() as u64;
    ok
}

/// Open-loop validity: how late the generator ran and the backlog left
/// when the schedule ended. Returns `(late_p95_ms, backlog_end)`.
fn validity(phase: &Phase, res: &mut RunResult) -> (f64, u64) {
    let late: Vec<f64> = phase
        .outcomes
        .iter()
        .map(|o| {
            let due = phase.start + Duration::from_secs_f64(phase.plan[o.idx].due_s);
            o.sent.saturating_duration_since(due).as_secs_f64() * 1e3
        })
        .collect();
    let late_p95 = percentile(&late, 0.95);
    let end = phase.start + Duration::from_secs_f64(phase.plan.last().map_or(0.0, |p| p.due_s));
    let backlog = phase.outcomes.iter().filter(|o| o.done > end).count();
    if late_p95 > LATE_LIMIT_MS || backlog > BACKLOG_LIMIT {
        res.problem(format!(
            "open loop invalid: generator p95 lateness {late_p95:.1} ms, \
             backlog {backlog} at the end of the schedule"
        ));
    }
    (late_p95, backlog as u64)
}

/// Checks one seeded `/v1/sim` response against the engine-free
/// `Prepared::build(..).evaluate(..)`.
fn check_against_engine_free(seed: u64, phase: &Phase) -> Result<(), String> {
    let sims: Vec<&Outcome> = phase
        .outcomes
        .iter()
        .filter(|o| {
            let p = &phase.plan[o.idx];
            p.class == Class::NewTarget && p.path == "/v1/sim"
        })
        .collect();
    if sims.is_empty() {
        return Ok(());
    }
    let o = sims[below(&mut seeded(seed, 5), sims.len())];
    let p = &phase.plan[o.idx];
    let eval = parse(&p.body)
        .and_then(|j| EvalRequest::from_json(&j))
        .map_err(|e| format!("{}: {e}", p.body))?;
    let cfg = config_for(&eval, &ExpConfig::default());
    let prep = Prepared::build(&eval.bench, &cfg);
    let r = prep.evaluate(parse_target(&eval.target, eval.weight));
    let want = sim_response(&eval, &cfg, &prep.baseline, &r.report).to_string();
    if want.as_bytes() == o.body.as_slice() {
        Ok(())
    } else {
        Err(format!(
            "{} {}: served response differs from the engine-free pipeline",
            p.path, p.body
        ))
    }
}

fn delta(before: &Json, after: &Json, path: &[&str]) -> u64 {
    let get = |j: &Json| {
        path.iter()
            .try_fold(j, |cur, k| cur.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    get(after).saturating_sub(get(before))
}

/// The untraced run: set-up, then the open-loop schedule for `seconds`.
pub fn run(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let mut setup_s = Vec::new();
    let mut kept: Option<(ServerHandle, _, _)> = None;
    for _ in 0..SETUPS {
        // Only one engine is alive at a time: the previous server is
        // shut down, outside the timer, before the next set-up starts.
        if let Some((old, _, _)) = kept.take() {
            old.shutdown();
            old.join();
        }
        let t = Instant::now();
        kept = Some(set_up()?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (handle, setup_plan, setup_out) = kept.expect("at least one set-up");
    let phase = open_loop(&handle, seed, seconds, false);
    handle.shutdown();
    handle.join();

    let ok = check_all((&setup_plan, &setup_out), &phase, &mut res);
    validity(&phase, &mut res);
    if let Err(e) = check_against_engine_free(seed, &phase) {
        res.failed += 1;
        res.problem(e);
    }

    let latency = |o: &Outcome| {
        let due = phase.start + Duration::from_secs_f64(phase.plan[o.idx].due_s);
        o.done.saturating_duration_since(due).as_secs_f64() * 1e3
    };
    let all: Vec<f64> = phase.outcomes.iter().map(latency).collect();
    let cold: Vec<f64> = phase
        .outcomes
        .iter()
        .filter(|o| phase.plan[o.idx].class == Class::Cold)
        .map(latency)
        .collect();
    let served = |limit: f64| {
        phase
            .outcomes
            .iter()
            .filter(|o| ok[o.idx] && phase.plan[o.idx].class != Class::Invalid)
            .filter(|o| latency(o) <= limit)
            .count() as f64
    };
    let window_s = phase
        .outcomes
        .iter()
        .map(|o| o.done)
        .max()
        .map_or(1.0, |end| {
            end.saturating_duration_since(phase.start).as_secs_f64()
        });

    res.push("setup_s", median(&setup_s), "s");
    res.push("cells_per_s", served(f64::INFINITY) / window_s, "1/s");
    res.push("peak_rss_mb", phase.peak_rss_mb, "MB");
    res.push("latency_p50_ms", median(&all), "ms");
    res.push("latency_p95_ms", percentile(&all, 0.95), "ms");
    res.push("cold_p50_ms", median(&cold), "ms");
    res.push("goodput_rps", served(LATENCY_LIMIT_MS) / window_s, "1/s");
    Ok(res)
}

/// Routes one body through the real service code in-process (no HTTP).
fn route(service: &EngineService, path: &str, body: &str) -> (u16, String) {
    let req = Request {
        method: "POST".to_string(),
        path: path.to_string(),
        query: Vec::new(),
        headers: Vec::new(),
        body: body.as_bytes().to_vec(),
    };
    let (metrics, bus) = (ServerMetrics::new(), Bus::new());
    let ctx = ServerCtx {
        metrics: &metrics,
        queue_depth: 0,
        bus: &bus,
    };
    let resp = match service.route(&req, &ctx) {
        Route::Inline(r) | Route::Shutdown(r) => r,
        Route::Work { compute, .. } => compute(),
    };
    (resp.status, resp.body_str())
}

/// The traced run: the open-loop phase once more for the server's
/// counters, then every distinct body through the real service code
/// (untraced, serial) and through [`Mirror`] (traced, serial).
pub fn traced(seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut res = RunResult::default();
    let (handle, setup_plan, setup_out) = set_up()?;
    let phase = open_loop(&handle, seed, seconds, true);
    handle.shutdown();
    handle.join();
    check_all((&setup_plan, &setup_out), &phase, &mut res);
    let (late_p95, backlog) = validity(&phase, &mut res);

    // Distinct bodies in first-seen order, with their served responses.
    let mut served: HashMap<(&str, &str), (u16, String)> = HashMap::new();
    let mut distinct: Vec<(&str, &str)> = Vec::new();
    let answered = setup_out
        .iter()
        .map(|o| (&setup_plan[o.idx], o))
        .chain(phase.outcomes.iter().map(|o| (&phase.plan[o.idx], o)));
    for (p, o) in answered {
        let key = (p.path, p.body.as_str());
        if let std::collections::hash_map::Entry::Vacant(e) = served.entry(key) {
            distinct.push(key);
            e.insert((o.status, String::from_utf8_lossy(&o.body).into_owned()));
        }
    }

    let base = ExpConfig::default();
    let engine = Arc::new(Engine::new(1));
    let service = EngineService::new(engine.clone(), base);
    let t = Instant::now();
    let untraced: Vec<(u16, String)> = distinct
        .iter()
        .map(|&(path, body)| route(&service, path, body))
        .collect();
    let untraced_ns = t.elapsed().as_nanos() as u64;
    let engine_json = engine.metrics().to_json();
    drop(service);

    alloc::reset();
    let mirror = Mirror::new(None);
    let traced: Vec<(u16, String)> = distinct
        .iter()
        .map(|&(path, body)| mirror.serve_eval(path, body, &base))
        .collect();
    let mirror_json = mirror.metrics().to_json();
    let (spans, counts) = mirror.finish();

    for ((key, u), t) in distinct.iter().zip(&untraced).zip(&traced) {
        if u != t || served.get(key) != Some(u) {
            res.failed += 1;
            res.problem(format!(
                "{} {}: traced, untraced and served responses differ",
                key.0, key.1
            ));
        }
    }

    let (b, a) = (&phase.server_before, &phase.server_after);
    let hits = delta(b, a, &["cache", "hits"]);
    let misses = delta(b, a, &["cache", "misses"]);
    let joins = delta(b, a, &["singleflight", "joins"]);
    let leaders = delta(b, a, &["singleflight", "leaders"]);
    let mut extra = Extra::new();
    extra.insert("server.lru_hit_share", share(hits, hits + misses));
    extra.insert("server.join_share", share(joins, joins + leaders));
    extra.insert("server.rejected_429", delta(b, a, &["rejected_429"]) as f64);
    extra.insert("server.queue_depth_max", phase.depth_max as f64);
    extra.insert("loadgen.late_p95_ms", late_p95);
    extra.insert("loadgen.backlog_end", backlog as f64);
    let traced = Traced {
        summary: Summary::of(&spans),
        counts,
        mirror: mirror_json,
        engine: engine_json,
        untraced_ns,
    };
    layers::report(&traced, &extra, &mut res);
    Ok(res)
}
