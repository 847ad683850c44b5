//! Conformance suite for the ask/tell session server.
//!
//! The contract under test: serving an optimization as a remote
//! ask/tell session changes *nothing* about its trajectory. Every test
//! here compares canonical `RunRecord` JSON lines byte for byte
//! against the in-process reference (`run_algorithm_observed` with the
//! same config and seed) — not "close", identical.

use pbo::prelude::*;
use pbo::core::session::{ProblemSpec, SessionConfig, SessionProfile, SessionState};
use pbo_server::client::{drive, Client};
use pbo_server::proto;
use pbo_server::registry::Registry;
use pbo_server::server::Server;
use std::path::PathBuf;
use std::sync::Arc;

const ALL_ALGORITHMS: [AlgorithmKind; 10] = [
    AlgorithmKind::KbQEgo,
    AlgorithmKind::MicQEgo,
    AlgorithmKind::McQEgo,
    AlgorithmKind::BspEgo,
    AlgorithmKind::Turbo,
    AlgorithmKind::MicTurbo,
    AlgorithmKind::RandomSearch,
    AlgorithmKind::ThompsonSampling,
    AlgorithmKind::GpUcbPe,
    AlgorithmKind::HybridQ,
];

fn session_cfg(
    algorithm: AlgorithmKind,
    seed: u64,
    cycles: usize,
    q: usize,
) -> (SyntheticFn, SessionConfig) {
    let p = SyntheticFn::ackley(2);
    let cfg = SessionConfig {
        algorithm,
        problem: ProblemSpec::of(&p),
        budget: Budget::cycles(cycles, q).with_initial_samples(4),
        profile: SessionProfile::Test,
        seed,
    };
    (p, cfg)
}

/// The in-process reference record the session must reproduce exactly.
fn reference_line(p: &SyntheticFn, cfg: &SessionConfig) -> String {
    run_algorithm_observed(
        cfg.algorithm,
        p,
        &cfg.budget,
        cfg.profile.algo_config(),
        cfg.seed,
        NullObserver,
    )
    .unwrap()
    .to_json_line()
}

/// Drive a session to completion in-process, evaluating its asks with
/// the real problem.
fn drive_state(mut s: SessionState, p: &SyntheticFn) -> String {
    while !s.is_done() {
        let ask = s.ask().unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        s.tell(ask.turn, &values).unwrap();
    }
    s.record().unwrap().to_json_line()
}

fn tmp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("pbo_srv_test_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Satellite #1 — ask/tell conformance: every algorithm's session
/// trajectory is byte-identical to its in-process run.
#[test]
fn session_reproduces_in_process_run_for_every_algorithm() {
    for (i, algorithm) in ALL_ALGORITHMS.into_iter().enumerate() {
        let (p, cfg) = session_cfg(algorithm, 40 + i as u64, 3, 2);
        let want = reference_line(&p, &cfg);
        let got = drive_state(SessionState::create(cfg).unwrap(), &p);
        assert_eq!(got, want, "{} session diverged from in-process run", algorithm.name());
    }
}

/// Satellite #1 (wire leg) — the same bit-identity holds across a real
/// TCP round trip, including the float encoding in both directions.
#[test]
fn session_reproduces_in_process_run_over_tcp() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    for (i, algorithm) in
        [AlgorithmKind::KbQEgo, AlgorithmKind::ThompsonSampling].into_iter().enumerate()
    {
        let (p, cfg) = session_cfg(algorithm, 70 + i as u64, 3, 2);
        let want = reference_line(&p, &cfg);
        let id = format!("tcp-{}", algorithm.name());
        let outcome = drive(&mut client, &id, &cfg, &p, None).unwrap();
        assert!(outcome.done);
        assert_eq!(outcome.record.unwrap(), want, "{} diverged over TCP", algorithm.name());
    }

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite #2 — crash/restart matrix: kill the registry after each
/// cycle k of a 10-cycle study, restart from disk, resume; the final
/// record must be byte-identical to the uninterrupted run, for every k.
#[test]
fn crash_restart_matrix_resumes_bit_identically() {
    let n_cycles = 10;
    let (p, cfg) = session_cfg(AlgorithmKind::KbQEgo, 99, n_cycles, 2);
    let want = reference_line(&p, &cfg);

    let finish = |reg: &Registry| -> String {
        loop {
            let ask = reg.ask("study").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            if reg.tell("study", ask.turn, &values).unwrap().done {
                break;
            }
        }
        reg.record_line("study").unwrap()
    };

    for k in 0..n_cycles {
        let dir = tmp_dir(&format!("matrix_{k}"));
        let reg = Registry::open(&dir).unwrap();
        reg.create("study", cfg.clone()).unwrap();
        // Design tell + k cycle tells, then "kill" the daemon.
        for _ in 0..=k {
            let ask = reg.ask("study").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            assert!(!reg.tell("study", ask.turn, &values).unwrap().done);
        }
        drop(reg);

        // Restart: re-attach idempotently (what a restarted client
        // does), then drive to completion.
        let reg = Registry::open(&dir).unwrap();
        let reply = reg.create("study", cfg.clone()).unwrap();
        assert!(!reply.created, "restart must re-attach, not recreate");
        assert_eq!(reply.turn, k + 1, "journal must have survived the kill");
        let got = finish(&reg);
        assert_eq!(got, want, "resume after cycle {k} diverged");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Variable-q crash/restart matrix: the hybrid algorithm chooses a
/// different batch size each cycle, so the journal's per-turn widths
/// (and the schema-2 `qs` integrity record) are load-bearing. Kill the
/// registry after each cycle of a 10-cycle study and resume; the final
/// record must be byte-identical to the uninterrupted run for every
/// kill point, and the batch size must genuinely vary along the way.
#[test]
fn variable_q_crash_restart_matrix_resumes_bit_identically() {
    let n_cycles = 10;
    let p = SyntheticFn::ackley(3);
    let cfg = SessionConfig {
        algorithm: AlgorithmKind::HybridQ,
        problem: ProblemSpec::of(&p),
        budget: Budget::cycles(n_cycles, 4).with_initial_samples(8),
        profile: SessionProfile::Test,
        seed: 7,
    };
    let want = reference_line(&p, &cfg);

    // Uninterrupted run through a registry, recording each ask's width.
    let dir = tmp_dir("vq_base");
    let reg = Registry::open(&dir).unwrap();
    reg.create("study", cfg.clone()).unwrap();
    let mut widths: Vec<usize> = Vec::new();
    let uninterrupted = loop {
        let ask = reg.ask("study").unwrap();
        assert_eq!(ask.q, ask.points.len(), "AskReply.q must match its points");
        widths.push(ask.points.len());
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        if reg.tell("study", ask.turn, &values).unwrap().done {
            break reg.record_line("study").unwrap();
        }
    };
    assert_eq!(uninterrupted, want, "served variable-q run diverged from in-process");
    let cycle_widths = &widths[1..]; // widths[0] is the design batch
    assert_eq!(cycle_widths.len(), n_cycles);
    assert!(
        cycle_widths.iter().any(|&w| w != cycle_widths[0]),
        "batch size never varied ({cycle_widths:?}) — the matrix would not exercise variable q"
    );
    assert!(cycle_widths.iter().all(|&w| (1..=4).contains(&w)), "{cycle_widths:?}");
    drop(reg);
    let _ = std::fs::remove_dir_all(dir);

    // Kill after the design tell + k cycle tells, for every k.
    for k in 0..n_cycles {
        let dir = tmp_dir(&format!("vq_matrix_{k}"));
        let reg = Registry::open(&dir).unwrap();
        reg.create("study", cfg.clone()).unwrap();
        for _ in 0..=k {
            let ask = reg.ask("study").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            assert!(!reg.tell("study", ask.turn, &values).unwrap().done);
        }
        drop(reg);

        let reg = Registry::open(&dir).unwrap();
        let reply = reg.create("study", cfg.clone()).unwrap();
        assert!(!reply.created, "restart must re-attach, not recreate");
        assert_eq!(reply.turn, k + 1, "journal must have survived the kill");
        let got = loop {
            let ask = reg.ask("study").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            if reg.tell("study", ask.turn, &values).unwrap().done {
                break reg.record_line("study").unwrap();
            }
        };
        assert_eq!(got, want, "variable-q resume after cycle {k} diverged");
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Protocol compatibility — a v1 client against a v2 server: fixed-q
/// sessions drive to a byte-identical record over raw `"proto":1`
/// frames (whose ask replies must not grow a `q` field), while any
/// attempt to touch a variable-q session over v1 gets the pinned
/// `unsupported_version` code.
#[test]
fn v1_client_against_v2_server() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();
    let as_v1 = |line: String| {
        let native = format!("{{\"proto\":{},", proto::PROTO_VERSION);
        assert!(line.starts_with(&native), "encoder changed shape: {line}");
        line.replacen(&native, "{\"proto\":1,", 1)
    };
    let get = |v: &pbo::core::json::Json, k: &str| v.get(k).cloned();

    // A fixed-q session, driven entirely with proto-1 frames.
    let (p, cfg) = session_cfg(AlgorithmKind::KbQEgo, 81, 3, 2);
    let want = reference_line(&p, &cfg);
    client.raw(&as_v1(proto::encode_create("legacy", &cfg))).unwrap();
    let mut done = false;
    while !done {
        let resp = client.raw(&as_v1(proto::encode_ask("legacy"))).unwrap();
        assert!(get(&resp, "q").is_none(), "proto-1 ask reply must not carry q");
        let turn = get(&resp, "turn").and_then(|v| v.as_usize()).unwrap();
        let points: Vec<Vec<f64>> = get(&resp, "points")
            .and_then(|v| v.as_array().map(<[_]>::to_vec))
            .unwrap()
            .iter()
            .map(|row| row.as_array().unwrap().iter().filter_map(|x| x.as_f64()).collect())
            .collect();
        let values: Vec<f64> = points.iter().map(|x| p.eval(x)).collect();
        let resp = client.raw(&as_v1(proto::encode_tell("legacy", turn, &values))).unwrap();
        done = get(&resp, "done").and_then(|v| v.as_bool()).unwrap();
    }
    let resp = client.raw(&as_v1(proto::encode_id_op("record", "legacy"))).unwrap();
    let got = get(&resp, "record").and_then(|v| v.as_str().map(str::to_string)).unwrap();
    assert_eq!(got, want, "v1 client diverged against the v2 server");

    // Variable-q over v1: create refused, and ask against a session a
    // v2 client created is refused too — both with the pinned code.
    let (_, vq_cfg) = session_cfg(AlgorithmKind::HybridQ, 82, 2, 2);
    let err_code = |resp: &pbo::core::json::Json| {
        resp.get("error")
            .and_then(|e| e.get("code"))
            .and_then(pbo::core::json::Json::as_str)
            .map(str::to_string)
    };
    let resp = client.raw(&as_v1(proto::encode_create("vq", &vq_cfg))).unwrap();
    assert_eq!(err_code(&resp).as_deref(), Some("unsupported_version"));
    client.create("vq", &vq_cfg).unwrap(); // native (v2) create succeeds
    let resp = client.raw(&as_v1(proto::encode_ask("vq"))).unwrap();
    assert_eq!(err_code(&resp).as_deref(), Some("unsupported_version"));
    // The same ask at proto 2 works and carries q.
    let resp = client.raw(&proto::encode_ask("vq")).unwrap();
    assert!(get(&resp, "q").and_then(|v| v.as_usize()).is_some());

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// The DESIGN.md wire-code table is exhaustive in both directions:
/// every code either typed error surface can emit appears in the
/// table, and the table names no code that the enums do not.
#[test]
fn design_wire_code_table_is_exhaustive() {
    use pbo::core::session::SessionError;
    use pbo_server::proto::RequestErrorKind;
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("DESIGN.md must exist at the workspace root");
    // Table rows look like `| `code` | request \| session | … |`; the
    // code is the first backticked cell. Scan the wire-code section.
    let section = design
        .split("<!-- wire-code-table -->")
        .nth(1)
        .expect("DESIGN.md must fence the wire-code table with <!-- wire-code-table -->");
    let mut documented: Vec<&str> = section
        .lines()
        .filter_map(|l| {
            let row = l.trim().strip_prefix("| `")?;
            row.split('`').next()
        })
        .collect();
    documented.sort_unstable();
    let mut expected: Vec<&str> = RequestErrorKind::ALL
        .iter()
        .map(|k| k.code())
        .chain(SessionError::ALL_CODES)
        .collect();
    expected.sort_unstable();
    expected.dedup();
    assert_eq!(
        documented, expected,
        "DESIGN.md wire-code table out of sync with RequestErrorKind::ALL + SessionError::ALL_CODES"
    );
}

/// Satellite #2 (corruption leg) — a truncated checkpoint is
/// quarantined with a typed error; sessions sharing the directory are
/// untouched and still resume bit-identically.
#[test]
fn corrupt_checkpoint_quarantines_one_session_only() {
    let dir = tmp_dir("quarantine");
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 11, 2, 2);
    let want = reference_line(&p, &cfg);

    let reg = Registry::open(&dir).unwrap();
    reg.create("good", cfg.clone()).unwrap();
    reg.create("doomed", session_cfg(AlgorithmKind::RandomSearch, 12, 2, 2).1).unwrap();
    drop(reg);

    // Truncate one checkpoint mid-byte, as a crash during a non-atomic
    // write would have (atomic_write prevents this; simulate the damage
    // an adversarial filesystem could still inflict).
    let doomed = dir.join("doomed.session.json");
    let body = std::fs::read_to_string(&doomed).unwrap();
    std::fs::write(&doomed, &body[..body.len() / 2]).unwrap();

    let reg = Registry::open(&dir).unwrap();
    let err = reg.ask("doomed").unwrap_err();
    assert_eq!(err.code, "session_corrupt");
    let err = reg.tell("doomed", 0, &[1.0, 2.0]).unwrap_err();
    assert_eq!(err.code, "session_corrupt");

    // The sibling session is unaffected.
    let got = {
        loop {
            let ask = reg.ask("good").unwrap();
            let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
            if reg.tell("good", ask.turn, &values).unwrap().done {
                break;
            }
        }
        reg.record_line("good").unwrap()
    };
    assert_eq!(got, want);
    let _ = std::fs::remove_dir_all(dir);
}

/// Satellite #3 — concurrency soak: 64 sessions driven through one
/// daemon in a seeded pseudo-random interleaving (tells land
/// out-of-order across sessions, connections rotate). Every trajectory
/// must equal its solo in-process reference: sessions are isolated.
#[test]
fn soak_64_interleaved_sessions_are_isolated() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut clients: Vec<Client> =
        (0..4).map(|_| Client::connect(addr).unwrap()).collect();

    struct Sess {
        id: String,
        p: SyntheticFn,
        cfg: SessionConfig,
        done: bool,
    }
    let mut sessions: Vec<Sess> = (0..64)
        .map(|i| {
            // A few surrogate-driven sessions in the mix; the bulk is
            // random search so the soak stays fast.
            let algorithm = if i % 8 == 0 {
                AlgorithmKind::KbQEgo
            } else {
                AlgorithmKind::RandomSearch
            };
            let (p, cfg) = session_cfg(algorithm, 500 + i as u64, 2, 2);
            Sess { id: format!("soak-{i:02}"), p, cfg, done: false }
        })
        .collect();
    for (i, s) in sessions.iter().enumerate() {
        clients[i % 4].create(&s.id, &s.cfg).unwrap();
    }

    // Seeded LCG interleaving: pick a random unfinished session, ask,
    // evaluate, tell — so tells from different sessions interleave in
    // an order no sequential client would produce.
    let mut lcg: u64 = 0xDEAD_BEEF;
    let mut next = || {
        lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (lcg >> 33) as usize
    };
    while sessions.iter().any(|s| !s.done) {
        let open: Vec<usize> =
            (0..sessions.len()).filter(|&i| !sessions[i].done).collect();
        let i = open[next() % open.len()];
        let client = &mut clients[i % 4];
        let (turn, points) = client.ask(&sessions[i].id).unwrap();
        let values: Vec<f64> = points.iter().map(|x| sessions[i].p.eval(x)).collect();
        let done = client.tell(&sessions[i].id, turn, &values).unwrap();
        sessions[i].done = done;
    }

    for s in &sessions {
        let want = reference_line(&s.p, &s.cfg);
        let got = clients[0].record(&s.id).unwrap();
        assert_eq!(got, want, "session {} was perturbed by interleaving", s.id);
    }

    clients[0].shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite #3 (fuzz leg) — malformed frames of every kind get typed
/// error responses; the connection stays up and a live session on the
/// same daemon is unharmed.
#[test]
fn protocol_fuzz_yields_typed_errors_and_harms_nothing() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 21, 2, 2);
    let want = reference_line(&p, &cfg);
    client.create("live", &cfg).unwrap();
    let (turn0, points0) = client.ask("live").unwrap();

    let q = points0.len();
    let fuzz: Vec<(String, &str)> = vec![
        ("{not json".into(), "malformed_json"),
        ("[1,2,3]".into(), "unsupported_proto"),
        ("{\"proto\":99,\"op\":\"ask\",\"id\":\"live\"}".into(), "unsupported_proto"),
        ("{\"proto\":1,\"op\":\"warp\",\"id\":\"live\"}".into(), "unknown_op"),
        ("{\"proto\":1,\"op\":\"ask\",\"id\":\"ghost\"}".into(), "unknown_session"),
        (proto::encode_tell("live", turn0, &vec![1.0; q + 3]), "wrong_point_count"),
        (proto::encode_tell("live", turn0 + 7, &vec![1.0; q]), "wrong_turn"),
        (proto::encode_id_op("record", "live"), "not_done"),
        ("{\"proto\":1,\"op\":\"create\",\"id\":\"live\",\"config\":{\"bogus\":1}}".into(), "invalid_config"),
    ];
    for (frame, want_code) in fuzz {
        let resp = client.raw(&frame).unwrap();
        let code = resp
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(pbo::core::json::Json::as_str)
            .unwrap_or("(none)");
        assert_eq!(code, want_code, "frame {frame}");
    }

    // Same connection, same session: still drivable, still identical.
    let mut done = false;
    let mut pending = Some((turn0, points0));
    while !done {
        let (turn, points) = match pending.take() {
            Some(x) => x,
            None => client.ask("live").unwrap(),
        };
        let values: Vec<f64> = points.iter().map(|x| p.eval(x)).collect();
        done = client.tell("live", turn, &values).unwrap();
    }
    assert_eq!(client.record("live").unwrap(), want);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite #4 — non-finite tells route through the quarantine and
/// constant-liar imputation machinery, and the fault counters in the
/// final record reconcile exactly. Regression-pinned.
#[test]
fn nan_inf_tells_are_quarantined_imputed_and_counted() {
    let (p, cfg) = session_cfg(AlgorithmKind::KbQEgo, 33, 2, 2);
    let doe = cfg.budget.initial_samples;
    let mut s = SessionState::create(cfg).unwrap();

    // Healthy design.
    let ask = s.ask().unwrap();
    let design: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
    s.tell(ask.turn, &design).unwrap();

    // Cycle 0: one NaN — quarantined, then imputed constant-liar style.
    let ask = s.ask().unwrap();
    s.tell(ask.turn, &[f64::NAN, p.eval(&ask.points[1])]).unwrap();

    // Cycle 1: one +Inf — same path, separate counter.
    let ask = s.ask().unwrap();
    s.tell(ask.turn, &[p.eval(&ask.points[0]), f64::INFINITY]).unwrap();

    let r = s.record().expect("2-cycle budget exhausted").clone();
    let c0 = &r.cycles[0].faults;
    assert_eq!((c0.nan_quarantined, c0.inf_quarantined, c0.imputed), (1, 0, 1));
    let c1 = &r.cycles[1].faults;
    assert_eq!((c1.nan_quarantined, c1.inf_quarantined, c1.imputed), (0, 1, 1));
    let total = r.fault_totals();
    assert_eq!(total.nan_quarantined, 1);
    assert_eq!(total.inf_quarantined, 1);
    assert_eq!(total.imputed, 2);
    assert_eq!(total.dropped, 0);
    // Imputed points still enter the dataset: the liar stands in.
    assert_eq!(r.y_min.len(), doe + 4);
    assert!(r.y_min.iter().all(|v| v.is_finite()));

    // The worst finite value is the liar for cycle 0's NaN slot.
    let liar: f64 = r.y_min[..doe + 2]
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(r.y_min[doe..doe + 2].contains(&liar));
}

/// Non-finite *design* values: failed points are dropped (not imputed)
/// exactly as a faulty in-process DoE rank would be, and an all-failed
/// design is a typed error that leaves the session retryable.
#[test]
fn nan_design_values_are_dropped_like_in_process_doe_faults() {
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 34, 1, 2);
    let doe = cfg.budget.initial_samples;
    let mut s = SessionState::create(cfg).unwrap();
    let ask = s.ask().unwrap();
    let mut values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
    values[1] = f64::NAN;
    s.tell(ask.turn, &values).unwrap();
    let status = s.status();
    assert_eq!(status.n_data, doe - 1, "failed design point must be dropped");
    while !s.is_done() {
        let ask = s.ask().unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        s.tell(ask.turn, &values).unwrap();
    }
    let r = s.record().unwrap();
    assert_eq!(r.doe_faults.nan_quarantined, 1);
    assert_eq!(r.doe_faults.dropped, 1);
    assert_eq!(r.doe_size, doe - 1, "doe_size records the surviving design points");
    assert_eq!(r.y_min.len(), doe - 1 + 2);
}

// ---------------------------------------------------------------------
// Bounded-pool hardening (DESIGN §14): containment, backpressure, drain.
// ---------------------------------------------------------------------

use pbo_server::server::ServerConfig;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A raw socket speaking the wire protocol by hand, for offender
/// scenarios the polite [`Client`] cannot express (half-sent requests,
/// silence, oversized lines).
fn raw_conn(addr: std::net::SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (reader, stream)
}

fn send_line(stream: &mut TcpStream, line: &str) {
    proto::write_line(stream, line).unwrap();
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

fn counter(status: &pbo::core::json::Json, name: &str) -> u64 {
    status
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(pbo::core::json::Json::as_u64)
        .unwrap_or_else(|| panic!("server-status must carry counter {name}"))
}

fn gauge(status: &pbo::core::json::Json, name: &str) -> f64 {
    status
        .get("gauges")
        .and_then(|g| g.get(name))
        .and_then(pbo::core::json::Json::as_f64)
        .unwrap_or_else(|| panic!("server-status must carry gauge {name}"))
}

/// Satellite bugfix — unbounded request lines were a memory DoS.
/// A line past `max_line_bytes` gets the typed `line_too_long` error,
/// the counter increments exactly once, and the *same connection*
/// remains fully usable (the oversized line is discarded, not fatal).
#[test]
fn oversize_line_gets_typed_error_and_connection_survives() {
    let config = ServerConfig { max_line_bytes: 64 * 1024, ..ServerConfig::default() };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();
    let mut client = Client::connect(addr).unwrap();

    // ~4x the cap, no newline until the end: the cap must trip while
    // the line is still streaming in.
    let huge = format!("{{\"proto\":2,\"op\":\"ask\",\"id\":\"{}\"}}", "x".repeat(256 * 1024));
    let resp = client.raw(&huge).unwrap();
    let code = resp
        .get("error")
        .and_then(|e| e.get("code"))
        .and_then(pbo::core::json::Json::as_str);
    assert_eq!(code, Some("line_too_long"), "{resp:?}");

    // Same connection: a normal session still drives to byte-identity.
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 61, 2, 2);
    let want = reference_line(&p, &cfg);
    let outcome = drive(&mut client, "post-oversize", &cfg, &p, None).unwrap();
    assert!(outcome.done);
    assert_eq!(outcome.record.unwrap(), want, "connection damaged by the oversize line");

    let status = client.server_status().unwrap();
    assert_eq!(counter(&status, "server.errors.line_too_long"), 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Tentpole backpressure — past `max_conns` the acceptor answers a
/// typed `server_busy` error and closes, instead of stalling or
/// spawning without bound; established connections are untouched.
#[test]
fn connection_cap_refuses_with_typed_server_busy() {
    let config = ServerConfig { workers: 1, max_conns: 1, ..ServerConfig::default() };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let mut a = Client::connect(addr).unwrap();
    // A round trip guarantees A is accepted and counted before B tries.
    a.server_status().unwrap();

    let (mut b_reader, _b_stream) = raw_conn(addr);
    let line = read_line(&mut b_reader);
    let v = pbo::core::json::parse(&line).unwrap();
    assert_eq!(
        v.get("error").and_then(|e| e.get("code")).and_then(pbo::core::json::Json::as_str),
        Some("server_busy"),
        "{line}"
    );
    let mut rest = String::new();
    assert_eq!(b_reader.read_to_string(&mut rest).unwrap(), 0, "B must be closed after the refusal");

    // A is unaffected and sees the rejection in the counters.
    let status = a.server_status().unwrap();
    assert_eq!(counter(&status, "server.conns.busy_rejected"), 1);
    assert!(gauge(&status, "server.conns.live") >= 1.0);

    a.shutdown().unwrap();
    handle.join().unwrap();
}

/// Tentpole containment — a silent connection is answered a typed
/// `idle_timeout` error and closed, freeing its slot; the server stays
/// healthy for clients that arrive afterwards.
#[test]
fn idle_connection_gets_typed_timeout_and_is_closed() {
    let config = ServerConfig {
        idle_timeout: Duration::from_millis(400),
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    let (mut idle_reader, _idle_stream) = raw_conn(addr);
    // Send nothing. The server must speak first — a typed refusal.
    let line = read_line(&mut idle_reader);
    let v = pbo::core::json::parse(&line).unwrap();
    assert_eq!(
        v.get("error").and_then(|e| e.get("code")).and_then(pbo::core::json::Json::as_str),
        Some("idle_timeout"),
        "{line}"
    );
    let mut rest = String::new();
    assert_eq!(idle_reader.read_to_string(&mut rest).unwrap(), 0, "idle conn must be closed");

    // The slot is free again: a new client works and sees the counter.
    let mut client = Client::connect(addr).unwrap();
    let status = client.server_status().unwrap();
    assert_eq!(counter(&status, "server.conns.idle_timeout"), 1);

    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Satellite bugfix — shutdown used to leave handler threads detached,
/// racing a severed in-flight tell. The drain contract: a tell issued
/// just before shutdown either completes with a reply or is refused —
/// never half-applied — `run()` returns only after every worker is
/// joined, and every surviving connection is closed (EOF), not
/// abandoned to a detached thread.
#[test]
fn shutdown_drains_in_flight_tell_and_joins_workers() {
    let registry = Arc::new(Registry::in_memory());
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let server = Server::bind_with(registry.clone(), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    // Set up a session and fetch its design ask over a raw connection.
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 62, 2, 2);
    let (mut a_reader, mut a_stream) = raw_conn(addr);
    send_line(&mut a_stream, &proto::encode_create("draining", &cfg));
    read_line(&mut a_reader);
    send_line(&mut a_stream, &proto::encode_ask("draining"));
    let ask = pbo::core::json::parse(&read_line(&mut a_reader)).unwrap();
    let turn = ask.get("turn").and_then(pbo::core::json::Json::as_usize).unwrap();
    let points: Vec<Vec<f64>> = ask
        .get("points")
        .and_then(|v| v.as_array().map(<[_]>::to_vec))
        .unwrap()
        .iter()
        .map(|row| row.as_array().unwrap().iter().filter_map(|x| x.as_f64()).collect())
        .collect();
    let values: Vec<f64> = points.iter().map(|x| p.eval(x)).collect();

    // An idle bystander connection, open across the shutdown.
    let (mut c_reader, _c_stream) = raw_conn(addr);

    // The in-flight tell: written, reply deliberately not read yet.
    send_line(&mut a_stream, &proto::encode_tell("draining", turn, &values));
    std::thread::sleep(Duration::from_millis(300));

    // Another client asks the daemon to stop.
    let mut b = Client::connect(addr).unwrap();
    b.shutdown().unwrap();
    handle.join().expect("run() must return cleanly after the drain");

    // The tell was answered before the drain closed A — and the answer
    // matches the registry state: applied exactly once, never half.
    let reply = pbo::core::json::parse(&read_line(&mut a_reader)).unwrap();
    assert_eq!(reply.get("ok").and_then(pbo::core::json::Json::as_bool), Some(true));
    assert_eq!(
        reply.get("turn").and_then(pbo::core::json::Json::as_usize),
        Some(turn + 1),
        "tell reply must carry the advanced turn"
    );
    let (status, _) = registry.status("draining").unwrap();
    assert_eq!(status.turn, turn + 1, "registry and reply disagree on the tell");

    // Both connections are closed, not abandoned: EOF, promptly.
    let mut rest = String::new();
    assert_eq!(a_reader.read_to_string(&mut rest).unwrap(), 0, "A must be closed by the drain");
    assert_eq!(c_reader.read_to_string(&mut rest).unwrap(), 0, "idle bystander must be closed");
}

/// Tentpole soak — 64 simultaneous client threads against a 4-worker
/// pool, with an oversize offender driving interleaved create/ask/tell
/// traffic on a damaged connection and a silent connection parked
/// across the whole run. Every session's record must be byte-identical
/// to its in-process `drive --local` reference, and the containment
/// counters must reconcile exactly.
#[test]
fn pooled_soak_64_threaded_clients_are_byte_identical() {
    let config = ServerConfig {
        workers: 4,
        max_conns: 128,
        // Generous: a client thread starved by the scheduler must never
        // be mistaken for an idle offender.
        idle_timeout: Duration::from_secs(60),
        max_line_bytes: 64 * 1024,
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    // A silent offender, parked for the duration of the soak.
    let (mut idle_reader, _idle_stream) = raw_conn(addr);

    // 64 concurrent drives, each on its own connection and thread.
    let drivers: Vec<std::thread::JoinHandle<(String, String, String)>> = (0..64)
        .map(|i| {
            std::thread::spawn(move || {
                let algorithm = if i % 8 == 0 {
                    AlgorithmKind::KbQEgo
                } else {
                    AlgorithmKind::RandomSearch
                };
                let (p, cfg) = session_cfg(algorithm, 900 + i as u64, 2, 2);
                let id = format!("pool-soak-{i:02}");
                let mut client = Client::connect(addr).unwrap();
                let outcome = drive(&mut client, &id, &cfg, &p, None).unwrap();
                assert!(outcome.done, "{id} did not finish");
                (id, outcome.record.unwrap(), reference_line(&p, &cfg))
            })
        })
        .collect();

    // Meanwhile, the oversize offender: a 256 KiB line against the
    // 64 KiB cap, then a full session on the same damaged connection.
    let mut offender = Client::connect(addr).unwrap();
    let resp = offender.raw(&"z".repeat(256 * 1024)).unwrap();
    assert_eq!(
        resp.get("error").and_then(|e| e.get("code")).and_then(pbo::core::json::Json::as_str),
        Some("line_too_long")
    );
    let (p, cfg) = session_cfg(AlgorithmKind::RandomSearch, 964, 2, 2);
    let outcome = drive(&mut offender, "pool-soak-offender", &cfg, &p, None).unwrap();
    assert_eq!(
        outcome.record.unwrap(),
        reference_line(&p, &cfg),
        "offender's own session diverged"
    );

    for d in drivers {
        let (id, got, want) = d.join().unwrap();
        assert_eq!(got, want, "session {id} was perturbed by pool concurrency");
    }

    // Containment counters reconcile exactly: one oversize line, no
    // busy rejections (128-cap), no idle timeouts (60 s window), and
    // 65 sessions created (64 drivers + the offender's).
    let status = offender.server_status().unwrap();
    assert_eq!(counter(&status, "server.errors.line_too_long"), 1);
    assert_eq!(counter(&status, "server.conns.busy_rejected"), 0);
    assert_eq!(counter(&status, "server.conns.idle_timeout"), 0);
    assert_eq!(counter(&status, "server.sessions.created"), 65);
    assert_eq!(gauge(&status, "server.pool.workers"), 4.0);

    offender.shutdown().unwrap();
    handle.join().unwrap();

    // The drain closed the parked silent connection too.
    let mut rest = String::new();
    assert_eq!(idle_reader.read_to_string(&mut rest).unwrap(), 0, "drain must close idle conns");
}

/// Latency regression — a served round trip costs its work, not a
/// transport stall. A line split across two writes waits ~40 ms per
/// write pair on Nagle plus delayed ACK, so 100 round trips would take
/// at least 4 s; one write per line and `TCP_NODELAY` on both ends
/// keep them well under 2 s.
#[test]
fn hundred_status_round_trips_do_not_stall() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr).unwrap();
    let start = std::time::Instant::now();
    for _ in 0..100 {
        client.server_status().unwrap();
    }
    let elapsed = start.elapsed();
    assert!(elapsed < Duration::from_secs(2), "100 round trips took {elapsed:?}");
    client.shutdown().unwrap();
    handle.join().unwrap();
}

/// Framing — the server reassembles a request that arrives in two
/// pieces and answers it exactly once: the next reply on the
/// connection belongs to the next request.
#[test]
fn request_split_across_two_writes_gets_exactly_one_reply() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let handle = server.spawn();
    let (mut reader, mut stream) = raw_conn(handle.addr);
    let line = proto::encode_bare_op("server-status");
    let (head, tail) = line.split_at(line.len() / 2);
    stream.write_all(head.as_bytes()).unwrap();
    std::thread::sleep(Duration::from_millis(20));
    stream.write_all(format!("{tail}\n").as_bytes()).unwrap();
    let reply = read_line(&mut reader);
    assert!(reply.contains("\"protos\":"), "split request misanswered: {reply}");
    send_line(&mut stream, &proto::encode_bare_op("list"));
    let reply = read_line(&mut reader);
    assert!(reply.contains("\"sessions\":["), "expected the list reply next: {reply}");
    Client::connect(handle.addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

/// Framing — two requests pipelined in one write get two replies, in
/// request order.
#[test]
fn two_requests_in_one_write_get_two_replies_in_order() {
    let server = Server::bind(Arc::new(Registry::in_memory()), "127.0.0.1:0").unwrap();
    let handle = server.spawn();
    let (mut reader, mut stream) = raw_conn(handle.addr);
    let both =
        format!("{}\n{}\n", proto::encode_bare_op("server-status"), proto::encode_bare_op("list"));
    stream.write_all(both.as_bytes()).unwrap();
    let first = read_line(&mut reader);
    assert!(first.contains("\"protos\":"), "first reply must answer server-status: {first}");
    let second = read_line(&mut reader);
    assert!(second.contains("\"sessions\":["), "second reply must answer list: {second}");
    Client::connect(handle.addr).unwrap().shutdown().unwrap();
    handle.join().unwrap();
}

/// Slow-reader containment — the write timeout set at accept still
/// bounds every reply write: a peer that pipelines requests but never
/// reads its replies is disconnected and counted once the socket
/// buffers fill, and the pool keeps serving everyone else.
#[test]
fn non_reading_peer_is_disconnected_by_the_write_timeout() {
    let config = ServerConfig {
        workers: 2,
        idle_timeout: Duration::from_millis(500),
        ..ServerConfig::default()
    };
    let server =
        Server::bind_with(Arc::new(Registry::in_memory()), "127.0.0.1:0", config).unwrap();
    let handle = server.spawn();
    let mut client = Client::connect(handle.addr).unwrap();
    // A 64-point 12-d design: every ask reply is ~15 KB.
    let p = SyntheticFn::ackley(12);
    let cfg = SessionConfig {
        algorithm: AlgorithmKind::RandomSearch,
        problem: ProblemSpec::of(&p),
        budget: Budget::cycles(1, 2).with_initial_samples(64),
        profile: SessionProfile::Test,
        seed: 5,
    };
    client.create("wide", &cfg).unwrap();

    // ~15 MB of replies requested, none read: far past what loopback
    // socket buffers hold.
    let (_reader, mut offender) = raw_conn(handle.addr);
    let ask = format!("{}\n", proto::encode_ask("wide"));
    offender.write_all(ask.repeat(1000).as_bytes()).unwrap();

    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        let status = client.server_status().unwrap();
        if counter(&status, "server.conns.write_timeout") == 1 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "slow reader never timed out: {status:?}");
        std::thread::sleep(Duration::from_millis(50));
    }
    client.shutdown().unwrap();
    handle.join().unwrap();
}
