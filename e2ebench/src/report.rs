//! The metric catalogue and the two ways a run reports it: a table for
//! people and, as the last line of standard output, one JSON object for
//! tools.

use std::fmt::Write as _;

/// End-to-end metrics: every workload reports every one of them in an
/// untraced run. `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("sims_in_budget", "count"),
    ("cycle_s.p50", "s"),
    ("prefix_s", "s"),
    ("turns_per_s", "1/s"),
    ("setup_s", "s"),
];

/// Per-layer metrics: a session workload reports every one of them in a
/// traced run, a paper workload all but [`SERVER_LAYERS`]. `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.propose_s", "s"),
    ("engine.commit_s", "s"),
    ("engine.residual_s", "s"),
    ("fit.full_s", "s"),
    ("fit.warm_s.p50", "s"),
    ("fit.evals", "count"),
    ("fit.s_per_eval", "s"),
    ("fit.fallbacks", "count"),
    ("acq.s", "s"),
    ("acq.s.p50", "s"),
    ("acq.restart_shortfall", "count"),
    ("eval.s_per_point", "s"),
    ("eval.faulted", "count"),
    ("design.lhs_s", "s"),
    ("design.eval_s", "s"),
    ("clock.fit_share", "ratio"),
    ("clock.acq_share", "ratio"),
    ("clock.sim_share", "ratio"),
    ("parallel.speedup", "ratio"),
    ("session.step_ms.p50", "ms"),
    ("registry.tell_ms.p50", "ms"),
    ("persist.ms.p50", "ms"),
    ("checkpoint.bytes", "bytes"),
    ("transport.ms.p50", "ms"),
    ("ask_ms.p50", "ms"),
    ("ask_ms.p95", "ms"),
    ("tell_ms.p50", "ms"),
    ("tell_ms.p95", "ms"),
    ("server.requests", "count"),
    ("server.errors", "count"),
    ("restore.s", "s"),
    ("restore.replay_ratio", "ratio"),
    ("trace.overhead", "ratio"),
    ("best_y", "objective"),
];

/// Per-layer metrics of the session, persistence, transport and restore
/// layers, which the paper workloads' engine loop does not pass through.
pub const SERVER_LAYERS: &[&str] = &[
    "session.step_ms.p50",
    "registry.tell_ms.p50",
    "persist.ms.p50",
    "checkpoint.bytes",
    "transport.ms.p50",
    "ask_ms.p50",
    "ask_ms.p95",
    "tell_ms.p50",
    "tell_ms.p95",
    "server.requests",
    "server.errors",
    "restore.s",
    "restore.replay_ratio",
];

/// The metrics a run of a workload reports: the end-to-end ones, or with
/// `traced` the per-layer ones its layers pass through.
pub fn catalogue(sessions: bool, traced: bool) -> Vec<(&'static str, &'static str)> {
    match (traced, sessions) {
        (false, _) => END_TO_END.to_vec(),
        (true, true) => PER_LAYER.to_vec(),
        (true, false) => PER_LAYER
            .iter()
            .filter(|(n, _)| !SERVER_LAYERS.contains(n))
            .copied()
            .collect(),
    }
}

/// What one run found: its metrics, its operation counts and every
/// output check it made.
#[derive(Debug, Default)]
pub struct Outcome {
    metrics: Vec<(String, f64)>,
    /// Operations attempted (evaluated points + fits, or requests).
    pub attempted: u64,
    /// Operations that failed (faulted evaluations, fit fallbacks,
    /// error replies, transport failures).
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
    /// Free-form lines printed above the metric table.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(
            !self.metrics.iter().any(|(n, _)| n == name),
            "metric {name} set twice"
        );
        self.metrics.push((name.to_string(), value));
    }

    /// A recorded metric value.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Record an output check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// True when every check passed, there were no failed operations,
    /// and every metric of `catalogue` is present and finite.
    pub fn correct(&self, catalogue: &[(&str, &str)]) -> bool {
        self.checks.iter().all(|(_, ok, _)| *ok)
            && self.failed == 0
            && self.missing(catalogue).is_empty()
    }

    /// Catalogue metrics that are absent or not finite.
    pub fn missing(&self, catalogue: &[(&str, &str)]) -> Vec<String> {
        catalogue
            .iter()
            .filter(|(n, _)| !self.get(n).is_some_and(f64::is_finite))
            .map(|(n, _)| n.to_string())
            .collect()
    }

    /// Human-readable report: notes, checks, then one row per metric.
    pub fn table(&self, workload: &str, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {workload}");
        for n in &self.notes {
            let _ = writeln!(out, "   {n}");
        }
        for (name, ok, detail) in &self.checks {
            let _ = writeln!(
                out,
                "   check {:<34} {}  {detail}",
                name,
                if *ok { "ok  " } else { "FAIL" }
            );
        }
        let _ = writeln!(
            out,
            "   failed_ratio {} ({} failed / {} attempted)",
            if self.attempted == 0 {
                0.0
            } else {
                self.failed as f64 / self.attempted as f64
            },
            self.failed,
            self.attempted
        );
        for (name, unit) in catalogue {
            match self.get(name) {
                Some(v) => {
                    let _ = writeln!(out, "   {name:<24} {v:>16.6} {unit}");
                }
                None => {
                    let _ = writeln!(out, "   {name:<24} {:>16} {unit}", "missing");
                }
            }
        }
        out
    }

    /// The machine-readable result line: `correct`, `attempted`,
    /// `failed` and the catalogue's metrics with their units.
    pub fn json_line(&self, catalogue: &[(&str, &str)]) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(catalogue),
            self.attempted.max(1),
            self.failed
        );
        let mut first = true;
        for (name, unit) in catalogue {
            let Some(v) = self.get(name).filter(|v| v.is_finite()) else {
                continue;
            };
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_carries_every_metric_with_its_unit() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        for (i, (n, _)) in END_TO_END.iter().enumerate() {
            o.set(n, 1.5 + i as f64);
        }
        o.check("x", true, "");
        assert!(o.correct(END_TO_END));
        let line = o.json_line(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        assert!(line.contains("\"sims_in_budget\": {\"value\": 1.5, \"unit\": \"count\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 5.5, \"unit\": \"s\"}"));
        o.check("y", false, "broken");
        assert!(!o.correct(END_TO_END));
    }

    #[test]
    fn a_missing_metric_makes_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 1,
            ..Outcome::default()
        };
        o.set("sims_in_budget", 3.0);
        assert!(!o.correct(END_TO_END));
        assert_eq!(o.missing(END_TO_END).len(), END_TO_END.len() - 1);
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        let all = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all);
        for n in SERVER_LAYERS {
            assert!(PER_LAYER.iter().any(|(m, _)| m == n), "{n}");
        }
        assert_eq!(
            catalogue(false, true).len(),
            PER_LAYER.len() - SERVER_LAYERS.len()
        );
        for n in names {
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }
}
