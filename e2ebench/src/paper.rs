//! The paper workloads: one algorithm, one problem and one batch size
//! under the paper's 20-virtual-minute budget, driven through the
//! engine's public stepping API — the loop `drive_stepper` runs, with a
//! clock around every call.

use crate::report::Outcome;
use crate::stats::median;
use crate::trace::{self, StampedObserver, Tracer};
use pbo::core::algorithms::stepper::BatchStepper;
use pbo::core::algorithms::AlgorithmKind;
use pbo::core::budget::Budget;
use pbo::core::clock::CostModel;
use pbo::core::config::AlgoConfig;
use pbo::core::engine::Engine;
use pbo::core::observe::Event;
use pbo::core::record::RunRecord;
use pbo::linalg::parallel;
use pbo::problems::{Problem, SyntheticFn, UphesProblem};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Scenario seed of the UPHES instance (the paper's market day, as in
/// `repro`).
const UPHES_DAY_SEED: u64 = 20_220_530;

/// One paper workload.
#[derive(Debug, Clone, Copy)]
pub struct PaperSpec {
    /// Workload name.
    pub name: &'static str,
    /// The problem: Ackley-12d or the UPHES simulator.
    pub uphes: bool,
    /// The algorithm.
    pub kind: AlgorithmKind,
    /// Batch size.
    pub q: usize,
    /// Cycles in the measured prefix. Only the stopping rule reads the
    /// clock, so these K cycles are the same work on every version of
    /// the code; K is below the cycle count every run reaches.
    pub k: usize,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// Passes over the K-cycle prefix in an untraced run (the budget
    /// run is the first); each cycle is timed as its best pass.
    pub prefix_reps: usize,
}

/// TuRBO on Ackley-12d at q=16.
pub const ACKLEY_Q16: PaperSpec = PaperSpec {
    name: "paper-ackley-q16",
    uphes: false,
    kind: AlgorithmKind::Turbo,
    q: 16,
    k: 11,
    setup_reps: 201,
    prefix_reps: 2,
};

/// mic-q-EGO on the UPHES simulator at q=4.
pub const UPHES_Q4: PaperSpec = PaperSpec {
    name: "paper-uphes-q4",
    uphes: true,
    kind: AlgorithmKind::MicQEgo,
    q: 4,
    k: 40,
    setup_reps: 15,
    prefix_reps: 5,
};

/// The paper workload called `name`.
pub fn spec(name: &str) -> &'static PaperSpec {
    [&ACKLEY_Q16, &UPHES_Q4]
        .into_iter()
        .find(|s| s.name == name)
        .expect("a paper workload name")
}

impl PaperSpec {
    fn problem(&self) -> Box<dyn Problem + Send + Sync> {
        if self.uphes {
            Box::new(UphesProblem::maizeret(UPHES_DAY_SEED))
        } else {
            Box::new(SyntheticFn::ackley(12))
        }
    }

    fn budget(&self) -> Budget {
        Budget::paper(self.q)
    }

    /// The shipping defaults with the paper clock pinned explicitly, so
    /// a change of the default clock cannot silently make
    /// `sims_in_budget` blind to speed.
    fn config(&self) -> AlgoConfig {
        AlgoConfig {
            cost_model: CostModel::Measured {
                overhead_scale: 25.0,
            },
            ..AlgoConfig::default()
        }
    }
}

/// Wall times of one cycle's three stepping calls, in nanoseconds.
#[derive(Debug, Clone, Copy)]
struct CycleTimes {
    propose: u64,
    commit: u64,
    after: u64,
}

impl CycleTimes {
    fn cycle(&self) -> u64 {
        self.propose + self.commit + self.after
    }
}

/// A driven run: its record, the cycles the stopping rule admitted and
/// the wall time of every cycle.
struct Driven {
    record: RunRecord,
    cycles_in_budget: usize,
    times: Vec<CycleTimes>,
    /// Engine events, when the run was traced.
    events: Vec<Event>,
}

impl Driven {
    /// Simulations evaluated by the cycles the stopping rule admitted:
    /// the paper's Fig 2/9 count (the design is not part of it).
    fn sims_in_budget(&self) -> usize {
        self.record
            .cycles
            .iter()
            .take(self.cycles_in_budget)
            .map(|c| c.n_evals)
            .sum()
    }
}

/// How far to drive.
#[derive(Clone, Copy, PartialEq)]
enum Until {
    /// Until the budget is spent and at least K cycles ran.
    BudgetAndPrefix,
    /// Exactly K cycles, whatever the clock says.
    Prefix,
}

fn ns(from: Instant, to: Instant) -> u64 {
    to.duration_since(from).as_nanos() as u64
}

/// The `drive_stepper` loop with a clock around each call. Cycles past
/// the end of the budget run only when the prefix needs them, and are
/// not counted in `cycles_in_budget`.
fn drive(
    spec: &PaperSpec,
    mut e: Engine<'_>,
    until: Until,
    mut tracing: Option<(&mut Tracer, &Mutex<StampedObserver>)>,
) -> Driven {
    let mut stepper = BatchStepper::new(spec.kind, &e);
    let mut times = Vec::new();
    let mut cycles_in_budget = 0;
    let mut events = Vec::new();
    loop {
        let in_budget = e.should_continue();
        let more = match until {
            Until::BudgetAndPrefix => in_budget || times.len() < spec.k,
            Until::Prefix => times.len() < spec.k,
        };
        if !more {
            break;
        }
        if in_budget {
            cycles_in_budget += 1;
        }
        let t = match tracing.as_mut() {
            None => {
                let t0 = Instant::now();
                let batch = stepper.propose(&mut e);
                let t1 = Instant::now();
                e.commit_batch(batch);
                let t2 = Instant::now();
                stepper.after_commit(&e);
                let t3 = Instant::now();
                CycleTimes {
                    propose: ns(t0, t1),
                    commit: ns(t1, t2),
                    after: ns(t2, t3),
                }
            }
            Some((tracer, obs)) => {
                let cycle = tracer.begin("cycle");
                let t0 = Instant::now();
                let p = tracer.begin("engine.propose");
                let batch = stepper.propose(&mut e);
                let stamped = obs.lock().expect("observer mutex poisoned").take();
                tracer.adopt_events(p, &stamped);
                events.extend(stamped.into_iter().map(|(_, ev)| ev));
                tracer.end(p);
                let t1 = Instant::now();
                let c = tracer.begin("engine.commit");
                e.commit_batch(batch);
                tracer.end(c);
                let stamped = obs.lock().expect("observer mutex poisoned").take();
                events.extend(stamped.into_iter().map(|(_, ev)| ev));
                let t2 = Instant::now();
                let a = tracer.begin("engine.after_commit");
                stepper.after_commit(&e);
                tracer.end(a);
                let t3 = Instant::now();
                tracer.end(cycle);
                CycleTimes {
                    propose: ns(t0, t1),
                    commit: ns(t1, t2),
                    after: ns(t2, t3),
                }
            }
        };
        times.push(t);
    }
    Driven {
        record: e.finish(),
        cycles_in_budget,
        times,
        events,
    }
}

/// `prepare` + `evaluate_design`, `reps` times. Returns the median
/// set-up, LHS and DoE times in seconds and the last rep's engine.
fn setups<'a>(
    spec: &PaperSpec,
    p: &'a dyn Problem,
    seed: u64,
    reps: usize,
    mut tracer: Option<&mut Tracer>,
) -> ((f64, f64, f64), Engine<'a>) {
    let (mut all, mut lhs, mut doe) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..reps {
        let root = tracer.as_mut().map(|t| t.begin("setup"));
        let t0 = Instant::now();
        let prep = Engine::builder(p)
            .budget(spec.budget())
            .config(spec.config())
            .seed(seed)
            .algorithm(spec.kind.name())
            .prepare()
            .expect("paper configuration is valid");
        let t1 = Instant::now();
        let e = prep.evaluate_design().expect("design evaluates");
        let t2 = Instant::now();
        if let (Some(t), Some(root)) = (tracer.as_mut(), root) {
            let (a, b, c) = (t.ns(t0), t.ns(t1), t.ns(t2));
            t.record("design.lhs", Some(root), a, b);
            t.record("design.eval", Some(root), b, c);
            t.end(root);
        }
        all.push(ns(t0, t2) as f64 * 1e-9);
        lhs.push(ns(t0, t1) as f64 * 1e-9);
        doe.push(ns(t1, t2) as f64 * 1e-9);
        last = Some(e);
    }
    let m = |v: &[f64]| median(v).expect("at least one set-up");
    (
        (m(&all), m(&lhs), m(&doe)),
        last.expect("at least one set-up"),
    )
}

/// A fresh engine, built outside any measurement.
fn engine<'a>(
    spec: &PaperSpec,
    p: &'a dyn Problem,
    seed: u64,
    obs: Option<Arc<Mutex<StampedObserver>>>,
) -> Engine<'a> {
    let b = Engine::builder(p)
        .budget(spec.budget())
        .config(spec.config())
        .seed(seed)
        .algorithm(spec.kind.name());
    let b = match obs {
        Some(o) => b.observer(o),
        None => b,
    };
    b.build().expect("paper configuration is valid")
}

/// Everything about a record that does not depend on wall time: the
/// observations, the incumbent and the per-cycle batch sizes, as bits.
fn fingerprint(r: &RunRecord, cycles: usize) -> Vec<u64> {
    let n = r.doe_size
        + r.cycles
            .iter()
            .take(cycles)
            .map(|c| c.n_evals)
            .sum::<usize>();
    let mut f: Vec<u64> = r.y_min.iter().take(n).map(|v| v.to_bits()).collect();
    for c in r.cycles.iter().take(cycles) {
        f.push(c.n_evals as u64);
        f.push(c.best_y_min.to_bits());
    }
    f
}

/// Order-sensitive 64-bit digest of a fingerprint, printed so runs in
/// different processes can be compared by eye.
fn digest(f: &[u64]) -> u64 {
    let bytes: Vec<u8> = f.iter().flat_map(|v| v.to_le_bytes()).collect();
    pbo::core::checkpoint::fnv1a64(&bytes)
}

/// The record reconciles: every simulation is a surviving design point
/// or a cycle's evaluation.
fn check_record(out: &mut Outcome, r: &RunRecord, what: &str) {
    let evals: usize = r.cycles.iter().map(|c| c.n_evals).sum();
    let ok = r.n_simulations() == r.doe_size + evals;
    out.check(
        &format!("{what}: sims = doe + Σ n_evals"),
        ok,
        format!("{} = {} + {}", r.n_simulations(), r.doe_size, evals),
    );
}

fn secs(v: u64) -> f64 {
    v as f64 * 1e-9
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &PaperSpec, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let p = spec.problem();
    let ((setup, _, _), e) = setups(spec, p.as_ref(), seed, spec.setup_reps, None);
    let t0 = Instant::now();
    let d = drive(spec, e, Until::BudgetAndPrefix, None);
    let wall = t0.elapsed().as_secs_f64();
    let r = &d.record;
    check_record(&mut out, r, "budget run");
    let sims = d.sims_in_budget();
    out.check("sims_in_budget > 0", sims > 0, format!("{sims}"));
    // The prefix is the same work on every pass, and interference from
    // the host only ever adds time, so each cycle's time is its best
    // over the budget run and `prefix_reps - 1` more passes.
    let fp = fingerprint(r, spec.k);
    let mut passes = vec![d.times[..spec.k].to_vec()];
    for _ in 1..spec.prefix_reps {
        let again = drive(
            spec,
            engine(spec, p.as_ref(), seed, None),
            Until::Prefix,
            None,
        );
        let same = fingerprint(&again.record, spec.k) == fp;
        out.check("repeated prefix ≡ budget-run prefix", same, "");
        passes.push(again.times);
    }
    let best = |f: fn(&CycleTimes) -> u64| -> Vec<f64> {
        (0..spec.k)
            .map(|i| secs(passes.iter().map(|p| f(&p[i])).min().expect("one pass")))
            .collect()
    };
    let cycle = best(CycleTimes::cycle);
    let prefix_s: f64 = cycle.iter().sum();
    out.set("sims_in_budget", sims as f64);
    out.set("cycle_s.p50", median(&cycle).expect("K > 0"));
    out.set("prefix_s", prefix_s);
    out.set("turns_per_s", spec.k as f64 / prefix_s);
    out.set("setup_s", setup);
    let faults = r.fault_totals();
    out.attempted = (r.n_simulations() + r.n_cycles()) as u64;
    out.failed = faults.failed_attempts() + faults.imputed + faults.dropped;
    let best_end = r
        .cycles
        .get(d.cycles_in_budget.saturating_sub(1))
        .map_or(f64::NAN, |c| c.best_y_min);
    out.notes.push(format!(
        "{} cycles in budget ({} run, {:.1} virtual s, {wall:.1} s wall); K = {} prefix digest {:016x}",
        d.cycles_in_budget,
        r.n_cycles(),
        r.final_clock,
        spec.k,
        digest(&fp)
    ));
    out.notes.push(format!(
        "best_y (min orientation) after K = {:?}, at end of budget = {best_end:?}",
        r.cycles[spec.k - 1].best_y_min
    ));
    out
}

/// The traced run: every per-layer metric, with the K-cycle prefix run
/// untraced, traced and at one thread, which must all agree bit for bit.
pub fn run_traced(spec: &PaperSpec, seed: u64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let p = spec.problem();
    let p = p.as_ref();
    let ((_, lhs, doe), _) = setups(spec, p, seed, spec.setup_reps, Some(tracer));
    out.set("design.lhs_s", lhs);
    out.set("design.eval_s", doe);

    // Untraced at the default thread count.
    let untraced = drive(spec, engine(spec, p, seed, None), Until::Prefix, None);
    // Traced: engine events through a collecting observer + spans.
    let obs = Arc::new(Mutex::new(StampedObserver::default()));
    let traced = drive(
        spec,
        engine(spec, p, seed, Some(obs.clone())),
        Until::Prefix,
        Some((tracer, &obs)),
    );
    // Untraced at one thread.
    parallel::set_num_threads(1);
    let serial = drive(spec, engine(spec, p, seed, None), Until::Prefix, None);
    parallel::set_num_threads(0);

    let sum = |d: &Driven| d.times.iter().map(|t| secs(t.cycle())).sum::<f64>();
    let (pa, pb, pc) = (sum(&untraced), sum(&traced), sum(&serial));
    let fa = fingerprint(&untraced.record, spec.k);
    out.check(
        "traced prefix ≡ untraced prefix",
        fa == fingerprint(&traced.record, spec.k),
        format!("digest {:016x}", digest(&fa)),
    );
    out.check(
        "1-thread prefix ≡ nproc prefix",
        fa == fingerprint(&serial.record, spec.k),
        format!("nproc = {}", parallel::num_threads()),
    );
    for (d, what) in [
        (&untraced, "untraced prefix"),
        (&traced, "traced prefix"),
        (&serial, "1-thread prefix"),
    ] {
        check_record(&mut out, &d.record, what);
    }
    out.set("trace.overhead", pb / pa - 1.0);
    out.set("parallel.speedup", pc / pa);

    // Engine layer from the traced prefix's spans (the only spans with
    // these names).
    let spans = tracer.spans();
    let propose = trace::reconcile(spans, "engine.propose", &["fit", "acq"]);
    let cycle = trace::reconcile(
        spans,
        "cycle",
        &["engine.propose", "engine.commit", "engine.after_commit"],
    );
    out.check("fit + acq + residual = propose", propose.holds(1e-6), "");
    out.check("propose + commit + after = cycle", cycle.holds(1e-6), "");
    // Spans and the loop's own clocks are read separately; they may
    // differ only by the tracer's bookkeeping.
    out.check(
        "Σ cycle spans ≈ Σ cycle clocks",
        (cycle.total_s - pb).abs() <= 1e-3 * spec.k as f64,
        format!("{:.6} s vs {pb:.6} s", cycle.total_s),
    );
    let totals = trace::total_by_layer(spans);
    let total = |n: &str| totals.get(n).copied().unwrap_or(0.0);
    out.set("engine.propose_s", total("engine.propose"));
    out.set("engine.commit_s", total("engine.commit"));
    out.set("engine.residual_s", propose.residual_s);
    out.notes.push(format!(
        "cycle {:.4} s = propose {:.4} + commit {:.4} + after_commit {:.6} + residual {:.6}",
        cycle.total_s,
        total("engine.propose"),
        total("engine.commit"),
        total("engine.after_commit"),
        cycle.residual_s
    ));
    out.notes.push(format!(
        "propose {:.4} s = fit {:.4} + acq {:.4} + residual {:.4} (sanitize, model clone, bookkeeping)",
        propose.total_s,
        total("fit"),
        total("acq"),
        propose.residual_s
    ));
    out.notes.push(format!(
        "prefix: untraced {pa:.3} s, traced {pb:.3} s, 1 thread {pc:.3} s"
    ));
    fit_acq_metrics(&mut out, &traced.events);
    let faults = traced.record.fault_totals();
    out.failed += faults.failed_attempts() + faults.imputed + faults.dropped;
    let points: usize = traced.record.cycles.iter().map(|c| c.n_evals).sum();
    out.set(
        "eval.s_per_point",
        total("engine.commit") / points.max(1) as f64,
    );
    let (f, a, s) = split(&untraced.record);
    out.set("clock.fit_share", f);
    out.set("clock.acq_share", a);
    out.set("clock.sim_share", s);
    out.set("best_y", untraced.record.cycles[spec.k - 1].best_y_min);
    out.attempted = (traced.record.n_simulations() + traced.record.n_cycles()) as u64;

    out
}

/// Fit, acquisition and evaluation-fault numbers from engine events.
/// Fit fallbacks count as failed operations.
pub fn fit_acq_metrics(out: &mut Outcome, events: &[Event]) {
    let (mut full_s, mut warm, mut evals, mut fallbacks, mut fit_s) =
        (0.0, Vec::new(), 0usize, 0u64, 0.0);
    let (mut acq, mut shortfall, mut faulted) = (Vec::new(), 0usize, 0u64);
    for ev in events {
        match ev {
            Event::FitCompleted {
                full,
                evals: n,
                fallback,
                wall_ns,
                ..
            } => {
                let s = secs(*wall_ns);
                fit_s += s;
                if *full {
                    full_s += s;
                } else {
                    warm.push(s);
                }
                evals += n;
                fallbacks += u64::from(*fallback);
            }
            Event::AcquisitionCompleted {
                restart_shortfall,
                wall_ns,
                ..
            } => {
                acq.push(secs(*wall_ns));
                shortfall += restart_shortfall;
            }
            Event::PointFaulted { .. } => faulted += 1,
            _ => {}
        }
    }
    out.set("fit.full_s", full_s);
    out.set("fit.warm_s.p50", median(&warm).unwrap_or(0.0));
    out.set("fit.evals", evals as f64);
    out.set("fit.s_per_eval", fit_s / evals.max(1) as f64);
    out.set("fit.fallbacks", fallbacks as f64);
    out.set("acq.s", acq.iter().sum());
    out.set("acq.s.p50", median(&acq).unwrap_or(0.0));
    out.set("acq.restart_shortfall", shortfall as f64);
    out.set("eval.faulted", faulted as f64);
    out.failed += fallbacks;
}

/// Share of the prefix's virtual time spent fitting, in acquisition
/// and simulating (the paper's Fig 2 split).
fn split(r: &RunRecord) -> (f64, f64, f64) {
    let (f, a, s) = r.time_split();
    let t = f + a + s;
    (f / t, a / t, s / t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo::core::budget::Stopping;

    #[test]
    fn sims_in_budget_counts_only_cycles_the_stopping_rule_admitted() {
        let p = SyntheticFn::ackley(2);
        let spec = PaperSpec {
            name: "tiny",
            uphes: false,
            kind: AlgorithmKind::KbQEgo,
            q: 2,
            k: 6,
            setup_reps: 1,
            prefix_reps: 1,
        };
        let budget = Budget {
            stopping: Stopping::VirtualTime(40.0),
            ..Budget::paper(2)
        }
        .with_initial_samples(6);
        let build = || {
            Engine::builder(&p)
                .budget(budget)
                .config(AlgoConfig::test_profile())
                .seed(3)
                .algorithm(spec.kind.name())
                .build()
                .unwrap()
        };
        let d = drive(&spec, build(), Until::BudgetAndPrefix, None);
        let r = &d.record;
        // A cycle is admitted when the clock at its start is inside the
        // budget; the prefix then runs on past the budget to K cycles.
        let starts: Vec<f64> = std::iter::once(0.0)
            .chain(r.cycles.iter().map(|c| c.clock))
            .collect();
        let admitted = starts
            .iter()
            .take(r.cycles.len())
            .filter(|&&t| t < 40.0)
            .count();
        assert_eq!(d.cycles_in_budget, admitted);
        assert!(
            admitted > 0 && admitted < spec.k,
            "the test must cross the budget: {admitted}"
        );
        assert_eq!(d.times.len(), spec.k);
        assert_eq!(d.sims_in_budget(), 2 * admitted);
        assert_eq!(r.n_simulations(), r.doe_size + 2 * spec.k);
        // Driving only to the budget's end gives the same count.
        let d2 = drive(
            &PaperSpec { k: 1, ..spec },
            build(),
            Until::BudgetAndPrefix,
            None,
        );
        assert_eq!(d2.sims_in_budget(), d.sims_in_budget());
        assert_eq!(d2.times.len(), admitted);
    }
}
