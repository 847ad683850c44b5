//! The session-server workloads: ask/tell sessions partly driven before
//! a restart, then reopened from disk and served to completion over
//! TCP by a closed loop of `nproc` client connections.

use crate::report::Outcome;
use crate::stats::{median, percentile};
use crate::trace::{self, StampedObserver, Tracer};
use pbo::core::algorithms::{run_algorithm_observed, AlgorithmKind};
use pbo::core::budget::Budget;
use pbo::core::json::Json;
use pbo::core::observe::{Event, NullObserver};
use pbo::core::record::RunRecord;
use pbo::core::session::{ProblemSpec, SessionConfig, SessionProfile, SessionState};
use pbo::linalg::parallel;
use pbo::problems::{Problem, SyntheticFn};
use pbo_server::client::{Client, RpcError};
use pbo_server::registry::Registry;
use pbo_server::server::{Server, ServerConfig, ServerHandle};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A fixed turn script: which sessions exist, and how far each is
/// driven before the restart.
pub struct Script {
    /// The client-side problem every session evaluates.
    pub problem: Box<dyn Problem + Send + Sync>,
    /// Session ids and configs.
    pub sessions: Vec<(String, SessionConfig)>,
    /// Turns each session is told in-process before the restart.
    pub first_part: usize,
    /// Registry reopenings before serving, and again after serving
    /// over a copy of the directory as it was; set-up and restore times
    /// are the median of all of them.
    pub setup_reps: usize,
}

/// SplitMix64: the per-session seed derivation.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476C_E5E9_B85B);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Script {
    fn new(
        problem: Box<dyn Problem + Send + Sync>,
        kinds: &[AlgorithmKind],
        n: usize,
        budget: Budget,
        seed: u64,
        first_part: usize,
        setup_reps: usize,
    ) -> Script {
        let spec = ProblemSpec::of(problem.as_ref());
        let sessions = (0..n)
            .map(|i| {
                let cfg = SessionConfig {
                    algorithm: kinds[i % kinds.len()],
                    problem: spec.clone(),
                    budget,
                    profile: SessionProfile::Test,
                    seed: splitmix64(seed.wrapping_add(i as u64)),
                };
                (format!("s{i:02}"), cfg)
            })
            .collect();
        Script {
            problem,
            sessions,
            first_part,
            setup_reps,
        }
    }

    /// `sessions-restart`: 13 test-profile sessions on Ackley-12d at
    /// q=4, 21 turns each, rotating over the paper's five algorithms;
    /// the first 5 turns are told before the restart, the other 16 are
    /// served — 208 tells, so the p95 has ten samples beyond it.
    pub fn sessions_restart(seed: u64) -> Script {
        Script::new(
            Box::new(SyntheticFn::ackley(12)),
            &AlgorithmKind::paper_set(),
            13,
            Budget::cycles(20, 4),
            seed,
            5,
            4,
        )
    }

    /// `sessions-fresh`: the same 13 sessions, created before the
    /// restart but not told anything, so reopening replays no journal
    /// and every turn, design included, is served over TCP.
    pub fn sessions_fresh(seed: u64) -> Script {
        Script {
            first_part: 0,
            ..Script::sessions_restart(seed)
        }
    }

    fn turns(&self) -> usize {
        self.sessions.iter().map(|(_, c)| total_turns(c)).sum()
    }
}

/// Design turn + one turn per cycle.
fn total_turns(cfg: &SessionConfig) -> usize {
    1 + cfg
        .budget
        .max_cycles()
        .expect("cycle-bounded session budget")
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

fn ms(v: u64) -> f64 {
    v as f64 * 1e-6
}

/// The in-process reference record for a session config.
fn reference_line(p: &dyn Problem, cfg: &SessionConfig) -> String {
    run_algorithm_observed(
        cfg.algorithm,
        p,
        &cfg.budget,
        cfg.profile.algo_config(),
        cfg.seed,
        NullObserver,
    )
    .expect("session configuration is valid")
    .to_json_line()
}

/// Step times of a script driven through `SessionState` in-process.
struct InProcess {
    /// Per session, per turn: (ask ns, tell ns).
    pub steps: Vec<Vec<(u64, u64)>>,
    /// Finished record per session.
    pub records: Vec<RunRecord>,
    /// Engine events (traced runs only).
    pub events: Vec<Event>,
    /// `SessionState::create` times (ns), one per session.
    pub create_ns: Vec<u64>,
    /// Time the client spent evaluating the design, per session (ns).
    pub design_eval_ns: Vec<u64>,
    /// Time the client spent evaluating all points, and the count.
    pub eval_ns: u64,
    /// Points evaluated.
    pub points: usize,
    /// Wall time of the whole script.
    pub wall_s: f64,
}

/// Drive every session of the script to completion in-process through
/// `SessionState::ask`/`tell`, timing each call. With a tracer, engine
/// events are collected and spans recorded.
fn drive_in_process(script: &Script, mut tracer: Option<&mut Tracer>) -> InProcess {
    let p = script.problem.as_ref();
    let mut r = InProcess {
        steps: Vec::new(),
        records: Vec::new(),
        events: Vec::new(),
        create_ns: Vec::new(),
        design_eval_ns: Vec::new(),
        eval_ns: 0,
        points: 0,
        wall_s: 0.0,
    };
    let start = Instant::now();
    for (_, cfg) in &script.sessions {
        let obs = Arc::new(Mutex::new(StampedObserver::default()));
        let t0 = Instant::now();
        let mut s = match tracer {
            Some(_) => SessionState::create_observed(cfg.clone(), obs.clone()),
            None => SessionState::create(cfg.clone()),
        }
        .expect("session configuration is valid");
        r.create_ns.push(ns(t0, Instant::now()));
        let mut steps = Vec::new();
        while !s.is_done() {
            let turn_span = tracer.as_mut().map(|t| t.begin("session.turn"));
            let a0 = Instant::now();
            let ask_span = tracer.as_mut().map(|t| t.begin("session.ask"));
            let ask = s.ask().expect("in-process ask");
            if let (Some(t), Some(id)) = (tracer.as_mut(), ask_span) {
                let stamped = obs.lock().expect("observer mutex poisoned").take();
                t.adopt_events(id, &stamped);
                r.events.extend(stamped.into_iter().map(|(_, e)| e));
                t.end(id);
            }
            let a1 = Instant::now();
            let eval_span = tracer.as_mut().map(|t| t.begin("client.eval"));
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            if let (Some(t), Some(id)) = (tracer.as_mut(), eval_span) {
                t.end(id);
            }
            let e1 = Instant::now();
            let tell_span = tracer.as_mut().map(|t| t.begin("session.tell"));
            s.tell(ask.turn, &values).expect("in-process tell");
            if let (Some(t), Some(id)) = (tracer.as_mut(), tell_span) {
                let stamped = obs.lock().expect("observer mutex poisoned").take();
                r.events.extend(stamped.into_iter().map(|(_, e)| e));
                t.end(id);
            }
            let t1 = Instant::now();
            if let (Some(t), Some(id)) = (tracer.as_mut(), turn_span) {
                t.end(id);
            }
            if ask.turn == 0 {
                r.design_eval_ns.push(ns(a1, e1));
            }
            r.eval_ns += ns(a1, e1);
            r.points += values.len();
            steps.push((ns(a0, a1), ns(e1, t1)));
        }
        r.steps.push(steps);
        r.records
            .push(s.record().expect("finished session has a record").clone());
    }
    r.wall_s = start.elapsed().as_secs_f64();
    r
}

/// Create every session of the script in a registry over `dir` and tell
/// each `turns` turns in-process. Returns per session, per turn, the
/// `Registry::tell` time (ns).
fn drive_registry(script: &Script, dir: &Path, turns: usize) -> Vec<Vec<u64>> {
    let reg = Registry::open(dir).expect("session directory opens");
    let p = script.problem.as_ref();
    let mut out = Vec::new();
    for (id, cfg) in &script.sessions {
        reg.create(id, cfg.clone()).expect("session creates");
        let mut tells = Vec::new();
        for _ in 0..turns.min(total_turns(cfg)) {
            let ask = reg.ask(id).expect("in-process ask");
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            let t0 = Instant::now();
            reg.tell(id, ask.turn, &values).expect("in-process tell");
            tells.push(ns(t0, Instant::now()));
        }
        out.push(tells);
    }
    out
}

/// A fresh, empty directory for session checkpoints, inside the
/// benchmark's output directory.
fn fresh_dir(out_dir: &Path, tag: &str) -> PathBuf {
    let d = out_dir.join(format!("sessions-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("session directory is creatable");
    d
}

/// A running server over a reopened registry.
struct Running {
    handle: ServerHandle,
    addr: SocketAddr,
    registry: Arc<Registry>,
}

impl Running {
    fn stop(self) -> Result<(), String> {
        Client::connect(self.addr)
            .and_then(|mut c| c.shutdown())
            .map_err(|e| format!("shutdown: {e}"))?;
        self.handle.join().map_err(|e| format!("join: {e}"))
    }
}

/// Reopen the registry over `dir`, bind and start a server and wait
/// for its first `server-status` reply: the set-up. Then, outside the
/// set-up time, re-attach every session over TCP (`create` again, as a
/// client does after a restart; each must answer `created: false` at
/// the turn it was left on). Returns the running server, the set-up
/// time and its `Registry::open` part, in seconds.
fn start(
    script: &Script,
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Result<(Running, f64, f64), String> {
    let t0 = Instant::now();
    let registry = Arc::new(Registry::open(dir)?);
    let t1 = Instant::now();
    let server = Server::bind_with(registry.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr();
    let handle = server.spawn();
    let running = Running {
        handle,
        addr,
        registry,
    };
    let ready = Client::connect(addr)
        .and_then(|mut c| {
            c.server_status()?;
            let t2 = Instant::now();
            let mut stale = Vec::new();
            for (id, cfg) in &script.sessions {
                if c.create(id, cfg)? != (false, script.first_part) {
                    stale.push(id.as_str());
                }
            }
            Ok((t2, stale.join(" ")))
        })
        .map_err(|e| e.to_string())
        .and_then(|(t2, stale)| match stale.is_empty() {
            true => Ok(t2),
            false => Err(format!(
                "sessions not resumed at turn {}: {stale}",
                script.first_part
            )),
        });
    let t3 = Instant::now();
    let t2 = match ready {
        Ok(t2) => t2,
        Err(e) => {
            let stopped = running.stop();
            return Err(format!("{e} (stop: {stopped:?})"));
        }
    };
    if let Some(t) = tracer.as_mut() {
        let (a, b, c, d) = (t.ns(t0), t.ns(t1), t.ns(t2), t.ns(t3));
        let root = t.record("setup", None, a, c);
        t.record("registry.open", Some(root), a, b);
        t.record("server.start", Some(root), b, c);
        t.record("client.reattach", None, c, d);
    }
    Ok((running, ns(t0, t2) as f64 * 1e-9, ns(t0, t1) as f64 * 1e-9))
}

/// Reopen `setup_reps` times, appending each set-up and open time.
/// Every server is stopped again except, with `keep_last`, the last,
/// which is returned.
fn restarts(
    script: &Script,
    dir: &Path,
    keep_last: bool,
    setup: &mut Vec<f64>,
    open: &mut Vec<f64>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Option<Running>, String> {
    let mut last = None;
    for rep in 0..script.setup_reps {
        let (running, s, o) = start(script, dir, tracer.as_deref_mut())?;
        setup.push(s);
        open.push(o);
        let reopened = running.registry.len();
        if reopened != script.sessions.len() {
            let stopped = running.stop();
            return Err(format!(
                "reopened {reopened} of {} sessions (stop: {stopped:?})",
                script.sessions.len()
            ));
        }
        if keep_last && rep + 1 == script.setup_reps {
            last = Some(running);
        } else {
            running.stop()?;
        }
    }
    Ok(last)
}

/// Copy the session files of `dir` into a fresh directory.
fn snapshot(dir: &Path, out_dir: &Path, tag: &str) -> std::io::Result<PathBuf> {
    let snap = fresh_dir(out_dir, tag);
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if let Some(name) = path.file_name() {
            std::fs::copy(&path, snap.join(name))?;
        }
    }
    Ok(snap)
}

/// One served turn, timed on the client.
struct Served {
    session: usize,
    turn: usize,
    ask: (Instant, Instant),
    tell: (Instant, Instant),
}

/// What the closed loop did.
struct Serving {
    turns: Vec<Served>,
    records: Vec<(usize, String)>,
    requests: u64,
    errors: Vec<String>,
    start: Instant,
    end: Instant,
}

/// Drive every session to completion from `clients` connections, each
/// taking every `clients`-th session in order and sending its next
/// request only after the previous reply (closed loop).
fn serve(script: &Script, addr: SocketAddr, clients: usize) -> Serving {
    let start = Instant::now();
    let parts: Vec<Serving> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|c| scope.spawn(move || client_loop(script, addr, c, clients, start)))
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });
    let mut all = Serving {
        turns: Vec::new(),
        records: Vec::new(),
        requests: 0,
        errors: Vec::new(),
        start,
        end: Instant::now(),
    };
    for part in parts {
        all.turns.extend(part.turns);
        all.records.extend(part.records);
        all.requests += part.requests;
        all.errors.extend(part.errors);
    }
    all.records.sort();
    all
}

/// One client connection's share of [`serve`]: sessions `c`,
/// `c + clients`, … driven to completion, then their records fetched.
fn client_loop(
    script: &Script,
    addr: SocketAddr,
    c: usize,
    clients: usize,
    start: Instant,
) -> Serving {
    let mut part = Serving {
        turns: Vec::new(),
        records: Vec::new(),
        requests: 0,
        errors: Vec::new(),
        start,
        end: start,
    };
    let mut client = match Client::connect(addr) {
        Ok(cl) => cl,
        Err(e) => {
            part.requests = 1;
            part.errors.push(format!("connect: {e}"));
            return part;
        }
    };
    for (i, (id, _)) in script.sessions.iter().enumerate().skip(c).step_by(clients) {
        let mut drive = || -> Result<(), RpcError> {
            loop {
                let a0 = Instant::now();
                part.requests += 1;
                let (turn, points) = client.ask(id)?;
                let a1 = Instant::now();
                let values: Vec<f64> = points.iter().map(|x| script.problem.eval(x)).collect();
                let t0 = Instant::now();
                part.requests += 1;
                let done = client.tell(id, turn, &values)?;
                let t1 = Instant::now();
                part.turns.push(Served {
                    session: i,
                    turn,
                    ask: (a0, a1),
                    tell: (t0, t1),
                });
                if done {
                    break;
                }
            }
            part.requests += 1;
            part.records.push((i, client.record(id)?));
            Ok(())
        };
        if let Err(e) = drive() {
            part.errors.push(format!("{id}: {e}"));
        }
    }
    part
}

/// A counter from a `server-status` reply.
fn counter(status: &Json, name: &str) -> u64 {
    status
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Sum of the `server.errors.*` counters.
fn error_counters(status: &Json) -> u64 {
    match status.get("counters") {
        Some(Json::Obj(members)) => members
            .iter()
            .filter(|(k, _)| k.starts_with("server.errors."))
            .filter_map(|(_, v)| v.as_u64())
            .sum(),
        _ => 0,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Prepare the half-finished session directory, outside any timing.
fn prepare(script: &Script, out_dir: &Path, tag: &str) -> PathBuf {
    let dir = fresh_dir(out_dir, tag);
    drive_registry(script, &dir, script.first_part);
    dir
}

/// Restart + serve, with the checks every run makes. Served records are
/// compared with `in_process` when given (the traced runs already
/// drove the script through `SessionState`), else with
/// `run_algorithm_observed`. Returns the serving result, the set-up
/// times and the final server status.
fn restart_and_serve(
    script: &Script,
    dir: &Path,
    out_dir: &Path,
    out: &mut Outcome,
    mut tracer: Option<&mut Tracer>,
    in_process: Option<&InProcess>,
) -> Option<(Serving, Vec<f64>, Vec<f64>, Json)> {
    // Half the reopenings run before serving and half after, over a
    // copy of the directory as it was, so that a slow spell of the host
    // at one end of the run does not set the median.
    let snap = match snapshot(dir, out_dir, "snapshot") {
        Ok(snap) => snap,
        Err(e) => {
            out.check("snapshot", false, e.to_string());
            return None;
        }
    };
    let (mut setup, mut open) = (Vec::new(), Vec::new());
    let before = restarts(
        script,
        dir,
        true,
        &mut setup,
        &mut open,
        tracer.as_deref_mut(),
    );
    let running = match before {
        Ok(r) => r.expect("the last server is kept"),
        Err(e) => {
            let _ = std::fs::remove_dir_all(&snap);
            out.check("restart", false, e);
            return None;
        }
    };
    let served = serve(script, running.addr, nproc());
    let status = Client::connect(running.addr).and_then(|mut c| c.server_status());
    let stopped = running.stop();
    out.check(
        "server stops and joins",
        stopped.is_ok(),
        stopped.err().unwrap_or_default(),
    );
    let again = restarts(script, &snap, false, &mut setup, &mut open, tracer);
    let _ = std::fs::remove_dir_all(&snap);
    if let Err(e) = again {
        out.check("restart after serving", false, e);
        return None;
    }
    let status = match status {
        Ok(s) => s,
        Err(e) => {
            out.check("final server-status", false, e.to_string());
            return None;
        }
    };
    out.attempted += served.requests;
    out.failed += served.errors.len() as u64;
    out.check(
        "no request failed",
        served.errors.is_empty(),
        served.errors.join("; "),
    );
    let tells = served.turns.len() as u64;
    let counted = counter(&status, "server.requests.tell");
    out.check(
        "server.requests.tell = tells sent",
        counted == tells,
        format!("{counted} vs {tells}"),
    );
    let p = script.problem.as_ref();
    let reference = |i: usize| match in_process {
        Some(base) => base.records[i].to_json_line(),
        None => reference_line(p, &script.sessions[i].1),
    };
    let identical = served
        .records
        .iter()
        .filter(|(i, line)| *line == reference(*i))
        .count();
    let against = if in_process.is_some() {
        "SessionState"
    } else {
        "run_algorithm_observed"
    };
    out.check(
        &format!("records ≡ {against}"),
        identical == script.sessions.len(),
        format!("{identical}/{} byte-identical", script.sessions.len()),
    );
    Some((served, setup, open, status))
}

/// The untraced run of a session workload: every end-to-end metric.
pub fn run(script: &Script, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let dir = prepare(script, out_dir, "e2e");
    let result = restart_and_serve(script, &dir, out_dir, &mut out, None, None);
    let _ = std::fs::remove_dir_all(&dir);
    let Some((served, setup, _, _)) = result else {
        return out;
    };
    let ask: Vec<f64> = served
        .turns
        .iter()
        .map(|t| ms(ns(t.ask.0, t.ask.1)))
        .collect();
    let tell: Vec<f64> = served
        .turns
        .iter()
        .map(|t| ms(ns(t.tell.0, t.tell.1)))
        .collect();
    let turn: Vec<f64> = ask.iter().zip(&tell).map(|(a, b)| (a + b) * 1e-3).collect();
    let wall = served.end.duration_since(served.start).as_secs_f64();
    let sims: usize = served
        .turns
        .iter()
        .map(|t| {
            let cfg = &script.sessions[t.session].1;
            if t.turn == 0 {
                cfg.budget.initial_samples
            } else {
                cfg.budget.batch_size
            }
        })
        .sum();
    out.set("sims_in_budget", sims as f64);
    out.set("cycle_s.p50", median(&turn).unwrap_or(f64::NAN));
    out.set("prefix_s", wall);
    out.set("turns_per_s", served.turns.len() as f64 / wall);
    out.set("setup_s", median(&setup).unwrap_or(f64::NAN));
    let pct = |v: &[f64]| {
        [0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]
            .map(|p| format!("{:.1}", percentile(v, p).unwrap_or(f64::NAN)))
            .join(" ")
    };
    out.notes.push(format!(
        "ask ms p10..p99: {}; tell ms p10..p99: {}",
        pct(&ask),
        pct(&tell)
    ));
    out.notes.push(format!(
        "{} sessions, {} tells served by {} closed-loop connections in {wall:.2} s; {} beyond p95; set-up reps {:?}",
        script.sessions.len(),
        served.turns.len(),
        nproc(),
        crate::stats::beyond(&tell, 0.95),
        setup.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>()
    ));
    out
}

/// Session, persistence, transport and restore layers of `script`,
/// given its untraced in-process step times. Sets
/// `session.step_ms.p50`, `registry.tell_ms.p50`, `persist.ms.p50`,
/// `checkpoint.bytes`, `transport.ms.p50`, the client round trips
/// `ask_ms.*` and `tell_ms.*`, `server.requests`, `server.errors`,
/// `restore.s` and `restore.replay_ratio`.
fn server_layers(
    script: &Script,
    base: &InProcess,
    out: &mut Outcome,
    tracer: &mut Tracer,
    out_dir: &Path,
) {
    let step_ms: Vec<f64> = base
        .steps
        .iter()
        .flatten()
        .map(|(a, t)| ms(a + t))
        .collect();
    out.set("session.step_ms.p50", median(&step_ms).unwrap_or(f64::NAN));

    // Persistence: the same script through an in-process registry.
    let full = fresh_dir(out_dir, "registry");
    let reg_tell = drive_registry(script, &full, usize::MAX);
    let reg_ms: Vec<f64> = reg_tell.iter().flatten().map(|&t| ms(t)).collect();
    out.set("registry.tell_ms.p50", median(&reg_ms).unwrap_or(f64::NAN));
    let persist: Vec<f64> = reg_tell
        .iter()
        .zip(&base.steps)
        .flat_map(|(r, s)| r.iter().zip(s).map(|(&r, &(_, t))| ms(r) - ms(t)))
        .collect();
    out.set("persist.ms.p50", median(&persist).unwrap_or(f64::NAN));
    let bytes: Vec<f64> = script
        .sessions
        .iter()
        .map(|(id, _)| {
            std::fs::metadata(full.join(format!("{id}.session.json")))
                .map_or(f64::NAN, |m| m.len() as f64)
        })
        .collect();
    out.set("checkpoint.bytes", median(&bytes).unwrap_or(f64::NAN));
    let _ = std::fs::remove_dir_all(&full);

    // Restore and transport: the restart workload itself, traced.
    let dir = prepare(script, out_dir, "traced");
    let result = restart_and_serve(script, &dir, out_dir, out, Some(tracer), Some(base));
    let _ = std::fs::remove_dir_all(&dir);
    let Some((served, _, open, status)) = result else {
        return;
    };
    let serve_root = tracer.record(
        "serve",
        None,
        tracer.ns(served.start),
        tracer.ns(served.end),
    );
    let mut transport = Vec::new();
    for t in &served.turns {
        let id = tracer.record(
            "client.turn",
            Some(serve_root),
            tracer.ns(t.ask.0),
            tracer.ns(t.tell.1),
        );
        tracer.record(
            "client.ask",
            Some(id),
            tracer.ns(t.ask.0),
            tracer.ns(t.ask.1),
        );
        tracer.record(
            "client.tell",
            Some(id),
            tracer.ns(t.tell.0),
            tracer.ns(t.tell.1),
        );
        if let Some(&r) = reg_tell.get(t.session).and_then(|v| v.get(t.turn)) {
            transport.push(ms(ns(t.tell.0, t.tell.1)) - ms(r));
        }
    }
    out.set("transport.ms.p50", median(&transport).unwrap_or(f64::NAN));
    let rtt = |f: fn(&Served) -> (Instant, Instant)| -> Vec<f64> {
        served
            .turns
            .iter()
            .map(|t| {
                let (a, b) = f(t);
                ms(ns(a, b))
            })
            .collect()
    };
    let (ask, tell) = (rtt(|t| t.ask), rtt(|t| t.tell));
    out.set("ask_ms.p50", median(&ask).unwrap_or(f64::NAN));
    out.set("ask_ms.p95", percentile(&ask, 0.95).unwrap_or(f64::NAN));
    out.set("tell_ms.p50", median(&tell).unwrap_or(f64::NAN));
    out.set("tell_ms.p95", percentile(&tell, 0.95).unwrap_or(f64::NAN));
    out.set(
        "server.requests",
        (counter(&status, "server.requests.ask") + counter(&status, "server.requests.tell")) as f64,
    );
    out.set("server.errors", error_counters(&status) as f64);
    let restore = median(&open).unwrap_or(f64::NAN);
    out.set("restore.s", restore);
    // What reopening rebuilds in-process: every session's creation plus
    // its journal's turns (none on `sessions-fresh`).
    let rebuild: u64 = base.create_ns.iter().sum::<u64>()
        + base
            .steps
            .iter()
            .flat_map(|s| s.iter().take(script.first_part))
            .map(|(a, t)| a + t)
            .sum::<u64>();
    out.set("restore.replay_ratio", restore / (rebuild as f64 * 1e-9));
    out.notes.push(format!(
        "restore: open {restore:.3} s rebuilds {} sessions and {} turns that take {:.3} s in-process",
        script.sessions.len(),
        script.sessions.len() * script.first_part,
        rebuild as f64 * 1e-9
    ));
}

/// The traced run of a session workload: every per-layer metric.
pub fn run_traced(script: &Script, tracer: &mut Tracer, out_dir: &Path) -> Outcome {
    let mut out = Outcome::default();
    let base = drive_in_process(script, None);
    let traced = drive_in_process(script, Some(tracer));
    parallel::set_num_threads(1);
    let serial = drive_in_process(script, None);
    parallel::set_num_threads(0);

    let lines = |r: &InProcess| {
        r.records
            .iter()
            .map(RunRecord::to_json_line)
            .collect::<Vec<_>>()
    };
    let reference = lines(&base);
    out.check(
        "traced script ≡ untraced script",
        reference == lines(&traced),
        "",
    );
    out.check(
        "1-thread script ≡ nproc script",
        reference == lines(&serial),
        format!("nproc = {}", nproc()),
    );
    out.set("trace.overhead", traced.wall_s / base.wall_s - 1.0);
    out.set("parallel.speedup", serial.wall_s / base.wall_s);

    let spans = tracer.spans();
    let ask = trace::reconcile(spans, "session.ask", &["fit", "acq"]);
    let turn = trace::reconcile(
        spans,
        "session.turn",
        &["session.ask", "client.eval", "session.tell"],
    );
    out.check("fit + acq + residual = ask", ask.holds(1e-6), "");
    out.check("ask + eval + tell = turn", turn.holds(1e-6), "");
    // Spans and the script's own clocks are read separately; they may
    // differ only by the tracer's bookkeeping.
    let clocks: u64 = traced.eval_ns
        + traced
            .steps
            .iter()
            .flatten()
            .map(|(a, t)| a + t)
            .sum::<u64>();
    let clocks = clocks as f64 * 1e-9;
    out.check(
        "Σ turn spans ≈ Σ turn clocks",
        (turn.total_s - clocks).abs() <= 1e-3 * script.turns() as f64,
        format!("{:.6} s vs {clocks:.6} s", turn.total_s),
    );
    let totals = trace::total_by_layer(spans);
    let total = |n: &str| totals.get(n).copied().unwrap_or(0.0);
    out.set("engine.propose_s", total("session.ask"));
    out.set("engine.commit_s", total("session.tell"));
    out.set("engine.residual_s", ask.residual_s);
    out.notes.push(format!(
        "turn {:.4} s = ask {:.4} + eval {:.4} + tell {:.4} + residual {:.6}",
        turn.total_s,
        total("session.ask"),
        total("client.eval"),
        total("session.tell"),
        turn.residual_s
    ));
    out.notes.push(format!(
        "ask {:.4} s = fit {:.4} + acq {:.4} + residual {:.4}",
        ask.total_s,
        total("fit"),
        total("acq"),
        ask.residual_s
    ));
    crate::paper::fit_acq_metrics(&mut out, &traced.events);
    out.set(
        "eval.s_per_point",
        traced.eval_ns as f64 * 1e-9 / traced.points.max(1) as f64,
    );
    let secs = |v: &[u64]| {
        median(&v.iter().map(|&x| x as f64 * 1e-9).collect::<Vec<_>>()).unwrap_or(f64::NAN)
    };
    out.set("design.lhs_s", secs(&base.create_ns));
    out.set("design.eval_s", secs(&base.design_eval_ns));
    let (mut f, mut a, mut s) = (0.0, 0.0, 0.0);
    for r in &base.records {
        let (rf, ra, rs) = r.time_split();
        f += rf;
        a += ra;
        s += rs;
    }
    out.set("clock.fit_share", f / (f + a + s));
    out.set("clock.acq_share", a / (f + a + s));
    out.set("clock.sim_share", s / (f + a + s));
    let bests: Vec<f64> = base
        .records
        .iter()
        .map(|r| r.y_min.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    out.set("best_y", median(&bests).unwrap_or(f64::NAN));
    out.notes.push(format!(
        "in-process script: {} turns, untraced {:.3} s, traced {:.3} s, 1 thread {:.3} s",
        script.turns(),
        base.wall_s,
        traced.wall_s,
        serial.wall_s
    ));
    server_layers(script, &base, &mut out, tracer, out_dir);
    out
}
