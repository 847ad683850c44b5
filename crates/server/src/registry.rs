//! The multi-tenant session table.
//!
//! Concurrency model: a short-lived map lock hands out per-session
//! `Arc<Mutex<…>>` entries; all engine work happens under the entry
//! lock only, so sessions never block each other. Every
//! journal-advancing transition (create, tell) is written through
//! [`pbo_core::checkpoint::atomic_write`] before the reply goes out —
//! a daemon killed at any instant restarts into exactly the set of
//! states it acknowledged.
//!
//! Restore replays each journal once, rebuilding engine state and
//! metrics in the same validating pass ([`restore_dir`]). A
//! checkpoint file that fails to parse or replay is *quarantined*:
//! the session id stays visible with a typed `session_corrupt` error
//! and every other session loads normally. Nothing panics on bad disk
//! state.

use crate::proto::{validate_id, ErrorBody, RequestErrorKind};
use pbo_core::checkpoint::atomic_write;
use pbo_core::observe::metrics::{MetricsObserver, MetricsRegistry};
use pbo_core::observe::Observer;
use pbo_core::session::{AskReply, SessionConfig, SessionState, SessionStatus};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One slot in the session table.
pub enum SessionEntry {
    /// A healthy, drivable session.
    Live(Box<SessionState>),
    /// A quarantined session whose checkpoint could not be restored.
    Corrupt {
        /// Why the restore failed.
        reason: String,
    },
}

/// Reply to a `create`.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateReply {
    /// False when the id already existed with the same config.
    pub created: bool,
    /// Content-addressed config key.
    pub key: String,
    /// Next expected turn (0 for fresh sessions, later after resume).
    pub turn: usize,
}

/// Reply to a `tell`.
#[derive(Debug, Clone, PartialEq)]
pub struct TellReply {
    /// Next expected turn.
    pub turn: usize,
    /// True once the budget is exhausted and the record is closed.
    pub done: bool,
}

/// The session registry: in-memory table + on-disk journal directory.
pub struct Registry {
    dir: Option<PathBuf>,
    sessions: Mutex<HashMap<String, Arc<Mutex<SessionEntry>>>>,
    metrics: Arc<MetricsRegistry>,
}

impl Registry {
    /// A registry with no persistence (unit tests, ephemeral servers).
    pub fn in_memory() -> Registry {
        Registry {
            dir: None,
            sessions: Mutex::new(HashMap::new()),
            metrics: Arc::new(MetricsRegistry::new()),
        }
    }

    /// Open (creating if needed) a persistent registry rooted at `dir`
    /// and restore every checkpoint there with [`restore_dir`], each
    /// journal replayed once into this registry's metrics. Corrupt
    /// checkpoints are quarantined, never fatal.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Registry, String> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create session dir {}: {e}", dir.display()))?;
        let reg = Registry { dir: Some(dir.clone()), ..Registry::in_memory() };
        let resumed = reg.metrics.counter("server.sessions.resumed");
        let quarantined = reg.metrics.counter("server.sessions.quarantined");
        for (path, restored) in restore_dir(&dir, || MetricsObserver::new(reg.metrics.clone()))? {
            let (id, entry) = match restored {
                Ok((id, state)) => {
                    resumed.inc();
                    (id, SessionEntry::Live(Box::new(state)))
                }
                Err(reason) => {
                    quarantined.inc();
                    let stem = checkpoint_name(&path).and_then(|n| n.strip_suffix(SUFFIX));
                    (stem.unwrap_or("unknown").to_string(), SessionEntry::Corrupt { reason })
                }
            };
            reg.sessions
                .lock()
                .expect("session table poisoned")
                .insert(id, Arc::new(Mutex::new(entry)));
        }
        Ok(reg)
    }

    /// The metrics registry (server counters + aggregated engine
    /// events from every session).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Number of sessions (live + quarantined).
    pub fn len(&self) -> usize {
        self.sessions.lock().expect("session table poisoned").len()
    }

    /// True when no session is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn checkpoint_path(&self, id: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{id}{SUFFIX}")))
    }

    fn persist(&self, id: &str, state: &SessionState) -> Result<(), ErrorBody> {
        let Some(path) = self.checkpoint_path(id) else { return Ok(()) };
        let mut body = state.to_checkpoint_line(id);
        body.push('\n');
        atomic_write(&path, &body)
            .map_err(|e| ErrorBody::request(RequestErrorKind::Io, format!("persist failed: {e}")))
    }

    /// Every `(id, entry)`, copied out from under the table lock.
    fn entries(&self) -> Vec<(String, Arc<Mutex<SessionEntry>>)> {
        let table = self.sessions.lock().expect("session table poisoned");
        table.iter().map(|(k, v)| (k.clone(), v.clone())).collect()
    }

    fn entry(&self, id: &str) -> Result<Arc<Mutex<SessionEntry>>, ErrorBody> {
        self.sessions.lock().expect("session table poisoned").get(id).cloned().ok_or_else(|| {
            ErrorBody::request(RequestErrorKind::UnknownSession, format!("no session '{id}'"))
        })
    }

    /// Run `f` on a live session; quarantined entries answer
    /// `session_corrupt`.
    fn with_live<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut SessionState) -> Result<R, ErrorBody>,
    ) -> Result<R, ErrorBody> {
        let entry = self.entry(id)?;
        let mut guard = entry.lock().expect("session entry poisoned");
        match &mut *guard {
            SessionEntry::Live(state) => f(state),
            SessionEntry::Corrupt { reason } => Err(quarantine_error(id, reason)),
        }
    }

    /// Create a session, idempotently: re-creating an existing id with
    /// the same config key succeeds with `created: false` (this is how
    /// a restarted client re-attaches); a different key is the typed
    /// `config_mismatch` error.
    pub fn create(&self, id: &str, cfg: SessionConfig) -> Result<CreateReply, ErrorBody> {
        validate_id(id)?;
        let key = cfg.key();
        // Hold the table lock across the existence check and insert so
        // two racing creates cannot both build the session.
        let mut table = self.sessions.lock().expect("session table poisoned");
        if let Some(entry) = table.get(id).cloned() {
            let guard = entry.lock().expect("session entry poisoned");
            return match &*guard {
                SessionEntry::Live(state) => {
                    let have = state.config().key();
                    if have == key {
                        Ok(CreateReply { created: false, key, turn: state.turn() })
                    } else {
                        Err(ErrorBody::request(
                            RequestErrorKind::ConfigMismatch,
                            format!(
                                "session '{id}' exists with config key {have}, request hashes to {key}"
                            ),
                        ))
                    }
                }
                SessionEntry::Corrupt { reason } => Err(quarantine_error(id, reason)),
            };
        }
        let observer = MetricsObserver::new(self.metrics.clone());
        let state = SessionState::create_observed(cfg, observer)
            .map_err(|e| ErrorBody::from_session(&e))?;
        self.persist(id, &state)?;
        self.metrics.counter("server.sessions.created").inc();
        table.insert(id.to_string(), Arc::new(Mutex::new(SessionEntry::Live(Box::new(state)))));
        Ok(CreateReply { created: true, key, turn: 0 })
    }

    /// Ask a session for its next batch.
    pub fn ask(&self, id: &str) -> Result<AskReply, ErrorBody> {
        self.metrics.counter("server.requests.ask").inc();
        self.with_live(id, |s| s.ask().map_err(|e| ErrorBody::from_session(&e)))
    }

    /// Whether the session's algorithm chooses its own batch size each
    /// cycle. Dispatch uses this to refuse proto-1 `ask`s that could
    /// not carry the cycle's q back to the client.
    pub fn variable_q(&self, id: &str) -> Result<bool, ErrorBody> {
        self.with_live(id, |s| Ok(s.config().algorithm.is_variable_q()))
    }

    /// Tell a session its evaluated values; the new journal state is
    /// durable before the reply.
    pub fn tell(&self, id: &str, turn: usize, values: &[f64]) -> Result<TellReply, ErrorBody> {
        self.metrics.counter("server.requests.tell").inc();
        self.with_live(id, |s| {
            s.tell(turn, values).map_err(|e| ErrorBody::from_session(&e))?;
            self.persist(id, s)?;
            Ok(TellReply { turn: s.turn(), done: s.is_done() })
        })
    }

    /// A session's status snapshot plus its config key.
    pub fn status(&self, id: &str) -> Result<(SessionStatus, String), ErrorBody> {
        self.with_live(id, |s| Ok((s.status(), s.config().key())))
    }

    /// The finished record's canonical JSON line.
    pub fn record_line(&self, id: &str) -> Result<String, ErrorBody> {
        self.with_live(id, |s| {
            s.record().map(|r| r.to_json_line()).ok_or_else(|| {
                ErrorBody::request(RequestErrorKind::NotDone, format!("session '{id}' has not finished"))
            })
        })
    }

    /// `(id, phase, turn)` for every session, sorted by id.
    pub fn list(&self) -> Vec<(String, String, usize)> {
        let entries = self.entries();
        let mut out: Vec<(String, String, usize)> = entries
            .into_iter()
            .map(|(id, entry)| {
                let guard = entry.lock().expect("session entry poisoned");
                match &*guard {
                    SessionEntry::Live(s) => (id, s.status().phase.to_string(), s.turn()),
                    SessionEntry::Corrupt { .. } => (id, "corrupt".to_string(), 0),
                }
            })
            .collect();
        out.sort();
        out
    }

    /// Drop a session from the live table. Its checkpoint file stays
    /// on disk, so the next daemon start restores it.
    pub fn close(&self, id: &str) -> Result<(), ErrorBody> {
        self.sessions
            .lock()
            .expect("session table poisoned")
            .remove(id)
            .map(|_| ())
            .ok_or_else(|| {
                ErrorBody::request(RequestErrorKind::UnknownSession, format!("no session '{id}'"))
            })
    }

    /// Evict finished sessions' checkpoints per `policy`: table entry
    /// and on-disk file both go. Only `Done`-phase sessions are ever
    /// candidates — in-flight sessions are untouched, and quarantined
    /// (corrupt) checkpoints are *never* deleted: they hold the only
    /// evidence of what went wrong and are reported in
    /// [`GcReport::quarantined_kept`] instead.
    pub fn gc(&self, policy: &GcPolicy) -> GcReport {
        let mut report = GcReport::default();
        let entries = self.entries();
        // (age_secs, id) for every finished session; corrupt and
        // in-flight entries are counted but never considered.
        let now = std::time::SystemTime::now();
        let mut done: Vec<(u64, String)> = Vec::new();
        for (id, entry) in entries {
            let guard = entry.lock().expect("session entry poisoned");
            match &*guard {
                SessionEntry::Corrupt { .. } => report.quarantined_kept += 1,
                SessionEntry::Live(s) if s.is_done() => {
                    let age = self
                        .checkpoint_path(&id)
                        .and_then(|p| std::fs::metadata(p).ok())
                        .and_then(|m| m.modified().ok())
                        .and_then(|t| now.duration_since(t).ok())
                        .map_or(0, |d| d.as_secs());
                    done.push((age, id));
                }
                SessionEntry::Live(_) => {}
            }
        }
        // Newest first; ties broken by id so eviction order is
        // deterministic on filesystems with coarse mtimes.
        done.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        for (i, (age, id)) in done.into_iter().enumerate() {
            let shielded_by_count = i < policy.keep_newest;
            let shielded_by_age = policy.max_age_secs.is_some_and(|max| age <= max);
            if shielded_by_count || shielded_by_age {
                report.kept += 1;
                continue;
            }
            if let Some(path) = self.checkpoint_path(&id) {
                if let Err(e) = std::fs::remove_file(&path) {
                    if e.kind() != std::io::ErrorKind::NotFound {
                        // Leave the table entry in place: disk state and
                        // table must not diverge.
                        report.kept += 1;
                        continue;
                    }
                }
            }
            self.sessions.lock().expect("session table poisoned").remove(&id);
            self.metrics.counter("server.sessions.gc_evicted").inc();
            report.evicted.push(id);
        }
        report
    }
}

/// The typed answer of a quarantined session.
fn quarantine_error(id: &str, reason: &str) -> ErrorBody {
    ErrorBody::new("session_corrupt", format!("session '{id}' is quarantined: {reason}"))
}

/// File-name suffix of a session checkpoint: `<id>.session.json`.
const SUFFIX: &str = ".session.json";

fn checkpoint_name(path: &Path) -> Option<&str> {
    path.file_name().and_then(|n| n.to_str()).filter(|n| n.ends_with(SUFFIX))
}

/// One checkpoint's restore outcome: `(id, state)`, or why it failed.
pub type Restored = Result<(String, SessionState), String>;

/// Restore every session checkpoint in `dir` in file-name order — the
/// one restore path ([`Registry::open`], `pbo-server validate`). Each
/// journal is replayed once into a session observed by `observer()`.
/// Only an unreadable `dir` is an error.
pub fn restore_dir<O: Observer + Send + 'static>(
    dir: &Path,
    mut observer: impl FnMut() -> O,
) -> Result<Vec<(PathBuf, Restored)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read session dir {}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| checkpoint_name(p).is_some())
        .collect();
    paths.sort(); // deterministic restore order
    Ok(paths
        .into_iter()
        .map(|path| {
            let restored = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))
                .and_then(|body| {
                    SessionState::from_checkpoint_line(&body, observer()).map_err(|e| e.to_string())
                });
            (path, restored)
        })
        .collect())
}

/// Eviction policy for [`Registry::gc`]. A finished session survives if
/// it is among the `keep_newest` most recent checkpoints *or* its
/// checkpoint is at most `max_age_secs` old; everything else finished
/// is evicted. `max_age_secs: None` disables the age shield.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GcPolicy {
    /// Finished sessions with a checkpoint at most this old (seconds)
    /// are kept. `None`: age alone shields nothing.
    pub max_age_secs: Option<u64>,
    /// The newest N finished sessions are always kept.
    pub keep_newest: usize,
}

/// What [`Registry::gc`] did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GcReport {
    /// Ids whose checkpoint and table entry were removed, in eviction
    /// order (oldest last by the sort above).
    pub evicted: Vec<String>,
    /// Finished sessions kept by the policy (count or age shield).
    pub kept: usize,
    /// Quarantined checkpoints encountered — never deleted.
    pub quarantined_kept: usize,
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use pbo_core::algorithms::AlgorithmKind;
    use pbo_core::budget::Budget;
    use pbo_core::session::{ProblemSpec, SessionProfile};
    use pbo_problems::{Problem, SyntheticFn};

    pub(crate) fn cfg(seed: u64) -> SessionConfig {
        let p = SyntheticFn::ackley(2);
        SessionConfig {
            algorithm: AlgorithmKind::RandomSearch,
            problem: ProblemSpec::of(&p),
            budget: Budget::cycles(2, 2).with_initial_samples(4),
            profile: SessionProfile::Test,
            seed,
        }
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("pbo_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn create_is_idempotent_and_guards_config_drift() {
        let reg = Registry::in_memory();
        let first = reg.create("s", cfg(1)).unwrap();
        assert!(first.created);
        let again = reg.create("s", cfg(1)).unwrap();
        assert!(!again.created);
        assert_eq!(again.key, first.key);
        let err = reg.create("s", cfg(2)).unwrap_err();
        assert_eq!(err.code, "config_mismatch");
    }

    /// Answer session `id`'s next ask; true once the session is done.
    fn tell_once(reg: &Registry, id: &str) -> bool {
        let p = SyntheticFn::ackley(2);
        let ask = reg.ask(id).unwrap();
        let values: Vec<f64> = ask.points.iter().map(|x| p.eval(x)).collect();
        reg.tell(id, ask.turn, &values).unwrap().done
    }

    /// Drive session `id` to completion through ask/tell.
    fn finish(reg: &Registry, id: &str) {
        while !tell_once(reg, id) {}
    }

    /// Registries driving `cfg` as session "s" to the end: one
    /// uninterrupted, one killed after `k` tells and reopened.
    fn uninterrupted_and_resumed(tag: &str, cfg: SessionConfig, k: usize) -> [Registry; 2] {
        let (dir_a, dir_b) = (tmp_dir(&format!("{tag}_a")), tmp_dir(&format!("{tag}_b")));
        let uninterrupted = Registry::open(&dir_a).unwrap();
        uninterrupted.create("s", cfg.clone()).unwrap();
        finish(&uninterrupted, "s");
        let reg = Registry::open(&dir_b).unwrap();
        reg.create("s", cfg).unwrap();
        for _ in 0..k {
            tell_once(&reg, "s");
        }
        drop(reg); // "kill"
        let resumed = Registry::open(&dir_b).unwrap();
        assert_eq!(resumed.len(), 1);
        finish(&resumed, "s");
        let _ = std::fs::remove_dir_all(dir_a);
        let _ = std::fs::remove_dir_all(dir_b);
        [uninterrupted, resumed]
    }

    #[test]
    fn full_drive_through_registry_and_restart_resume() {
        let [uninterrupted, resumed] = uninterrupted_and_resumed("drive", cfg(5), 1);
        assert_eq!(
            uninterrupted.record_line("s").unwrap(),
            resumed.record_line("s").unwrap(),
            "resume must be bit-identical"
        );
    }

    /// Restore replays each journal once, with the metrics observer
    /// attached: a registry reopened mid-run and driven to the end
    /// holds exactly the engine-event counters and histograms of an
    /// uninterrupted one — none lost, none counted twice.
    #[test]
    fn restore_rebuilds_engine_metrics_exactly_once() {
        let cfg = SessionConfig {
            algorithm: AlgorithmKind::KbQEgo,
            budget: Budget::cycles(4, 2).with_initial_samples(4),
            ..cfg(21)
        };
        let engine_metrics = |reg: &Registry| {
            let snap = reg.metrics().snapshot();
            let mut counters = snap.counters;
            counters.retain(|(name, _)| !name.starts_with("server."));
            (counters, snap.histograms)
        };
        let [uninterrupted, resumed] = uninterrupted_and_resumed("observe", cfg, 3);
        let want = engine_metrics(&uninterrupted);
        assert!(want.1.iter().any(|(name, count, ..)| name == "time.fit_virtual_s" && *count > 0));
        assert_eq!(engine_metrics(&resumed), want);
        assert_eq!(resumed.metrics().snapshot().counter("server.sessions.resumed"), 1);
    }

    #[test]
    fn gc_evicts_only_finished_sessions_past_policy() {
        let dir = tmp_dir("gc");
        let reg = Registry::open(&dir).unwrap();
        reg.create("done-a", cfg(1)).unwrap();
        reg.create("done-b", cfg(2)).unwrap();
        reg.create("inflight", cfg(3)).unwrap();
        finish(&reg, "done-a");
        finish(&reg, "done-b");
        // `inflight` gets one tell but stays mid-run.
        assert!(!tell_once(&reg, "inflight"));

        // Keep the newest finished session; evict the other.
        let report = reg.gc(&GcPolicy { max_age_secs: None, keep_newest: 1 });
        assert_eq!(report.evicted.len(), 1);
        assert_eq!(report.kept, 1);
        assert_eq!(report.quarantined_kept, 0);
        let gone = &report.evicted[0];
        assert!(!dir.join(format!("{gone}.session.json")).exists());
        // In-flight session untouched, on disk and in the table.
        assert!(dir.join("inflight.session.json").exists());
        assert!(reg.ask("inflight").is_ok());
        assert_eq!(reg.len(), 2);

        // A generous age shield keeps the remaining finished session.
        let report = reg.gc(&GcPolicy { max_age_secs: Some(3600), keep_newest: 0 });
        assert!(report.evicted.is_empty());
        assert_eq!(report.kept, 1);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn gc_never_silently_deletes_quarantined_checkpoints() {
        let dir = tmp_dir("gc_corrupt");
        let reg = Registry::open(&dir).unwrap();
        reg.create("finished", cfg(4)).unwrap();
        finish(&reg, "finished");
        drop(reg);
        // A checkpoint that fails to restore — e.g. truncated by a
        // crashed disk — must survive any GC policy, however aggressive.
        let bad = dir.join("bad.session.json");
        std::fs::write(&bad, "{\"event\":\"pbo-session\",trunc").unwrap();
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.len(), 2);
        // Quarantine is not fatal: the sibling restored and is counted
        // apart from the corrupt one.
        assert_eq!(reg.status("finished").unwrap().0.phase, "done");
        let snap = reg.metrics().snapshot();
        assert_eq!(snap.counter("server.sessions.quarantined"), 1);
        assert_eq!(snap.counter("server.sessions.resumed"), 1);
        let report = reg.gc(&GcPolicy { max_age_secs: None, keep_newest: 0 });
        // The finished session goes; the quarantined one is kept AND
        // reported, never dropped silently.
        assert_eq!(report.evicted, vec!["finished".to_string()]);
        assert_eq!(report.quarantined_kept, 1);
        assert!(bad.exists(), "quarantined checkpoint was deleted");
        assert_eq!(reg.ask("bad").unwrap_err().code, "session_corrupt");
        let _ = std::fs::remove_dir_all(dir);
    }
}
