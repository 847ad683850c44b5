//! Algorithm-agnostic cycle stepping: every algorithm's per-cycle
//! batch construction, factored out of its `drive` loop so a cycle can
//! *suspend at the evaluate boundary*.
//!
//! [`BatchStepper::propose`] runs the pre-evaluate half of one cycle
//! (fit, acquisition, sanitization) and returns the unit-cube batch;
//! the caller then either evaluates in-process
//! ([`crate::engine::Engine::commit_batch`]) or ships the points to a
//! remote evaluator and later absorbs the values
//! ([`crate::engine::Engine::commit_report`]);
//! [`BatchStepper::after_commit`] runs the post-evaluate half (trust
//! region feedback). [`drive_stepper`] composes the three into the
//! classic in-process loop, so the stepper IS the reference trajectory:
//! ask/tell sessions reproduce `pbo::run` bit-for-bit because both
//! paths execute this exact code.
//!
//! Cross-cycle algorithm state (the BSP partition, the trust region)
//! lives in the stepper variants — everything else an algorithm needs
//! is rederived from the engine each cycle, which is what makes a
//! session resumable by replaying its journal of told values.

use super::{acq_multistart, qei_multistart, AlgorithmKind};
use crate::engine::Engine;
use crate::partition::BspTree;
use crate::record::RunRecord;
use crate::trust_region::{TrustRegion, TrustRegionConfig};
use pbo_acq::mc::{optimize_qei, QExpectedImprovement};
use pbo_acq::single::{self, optimize_single, ExpectedImprovement};
use pbo_gp::Surrogate;
use pbo_opt::multistart::multistart_work;
use rand::Rng;

/// Per-algorithm cycle stepper. Holds exactly the state that survives
/// across cycles; create one per run with [`BatchStepper::new`].
pub enum BatchStepper {
    /// Kriging-Believer q-EGO (stateless across cycles).
    KbQEgo,
    /// Multi-infill-criteria q-EGO (stateless across cycles).
    MicQEgo,
    /// Monte-Carlo q-EGO (stateless across cycles).
    McQEgo,
    /// BSP-EGO: the partition tree evolves every cycle.
    BspEgo {
        /// Binary space partition over the unit cube.
        tree: BspTree,
    },
    /// TuRBO: the trust region reacts to per-cycle improvement.
    Turbo {
        /// Trust-region state machine.
        tr: TrustRegion,
        /// Incumbent before the current cycle's batch, for the
        /// improvement test in [`BatchStepper::after_commit`].
        f_best_before: f64,
    },
    /// mic-TuRBO: multi-infill batch inside a trust region.
    MicTurbo {
        /// Trust-region state machine.
        tr: TrustRegion,
        /// Incumbent before the current cycle's batch.
        f_best_before: f64,
    },
    /// Uniform random search (stateless across cycles).
    Random,
    /// Thompson-sampling batches (stateless across cycles).
    Thompson,
    /// GP-UCB-PE: UCB leader + variance-greedy pure-exploration
    /// fillers (stateless across cycles).
    GpUcbPe,
    /// Adaptive-q hybrid: the batch built by [`BatchStepper::propose_q`]
    /// is cached here so the size decision and the proposal are one
    /// computation — whichever of the two entry points runs first.
    HybridQ {
        /// The batch planned by `propose_q`, consumed by `propose`.
        planned: Option<Vec<Vec<f64>>>,
    },
}

impl BatchStepper {
    /// Fresh per-run stepper state for `kind`, derived from the ready
    /// engine (the BSP cell count and bounds depend on q and d).
    pub fn new(kind: AlgorithmKind, e: &Engine) -> BatchStepper {
        match kind {
            AlgorithmKind::KbQEgo => BatchStepper::KbQEgo,
            AlgorithmKind::MicQEgo => BatchStepper::MicQEgo,
            AlgorithmKind::McQEgo => BatchStepper::McQEgo,
            AlgorithmKind::BspEgo => {
                let n_cells = (e.cfg().acq.bsp_cells_factor * e.q()).max(2);
                BatchStepper::BspEgo { tree: BspTree::new(e.unit_bounds(), n_cells) }
            }
            AlgorithmKind::Turbo => BatchStepper::Turbo {
                tr: TrustRegion::new(TrustRegionConfig::default()),
                f_best_before: f64::INFINITY,
            },
            AlgorithmKind::RandomSearch => BatchStepper::Random,
            AlgorithmKind::ThompsonSampling => BatchStepper::Thompson,
            AlgorithmKind::MicTurbo => BatchStepper::MicTurbo {
                tr: TrustRegion::new(TrustRegionConfig::default()),
                f_best_before: f64::INFINITY,
            },
            AlgorithmKind::GpUcbPe => BatchStepper::GpUcbPe,
            AlgorithmKind::HybridQ => BatchStepper::HybridQ { planned: None },
        }
    }

    /// The batch size this cycle's proposal will have. Fixed-q
    /// algorithms (all eight incumbents and GP-UCB-PE) answer the
    /// configured q without touching the engine; the adaptive-q hybrid
    /// runs its acquisition process here — fit, leader EI, fantasy
    /// growth loop — caches the resulting batch, and answers its
    /// length, so a following [`BatchStepper::propose`] is free and
    /// the size decision is made exactly once per cycle whichever
    /// entry point runs first.
    pub fn propose_q(&mut self, e: &mut Engine) -> usize {
        match self {
            BatchStepper::HybridQ { planned } => {
                if planned.is_none() {
                    *planned = Some(hybrid_propose(e));
                }
                planned.as_ref().map_or(0, Vec::len)
            }
            _ => e.q(),
        }
    }

    /// Run the pre-evaluate half of one cycle: open the cycle (fitting
    /// the surrogate for every algorithm but random search), build the
    /// batch through the algorithm's acquisition process — charged to
    /// the acquisition clock exactly as the original drive loops did —
    /// and sanitize duplicates (again except random search, which never
    /// did). Returns the unit-cube batch to evaluate.
    pub fn propose(&mut self, e: &mut Engine) -> Vec<Vec<f64>> {
        match self {
            BatchStepper::KbQEgo => {
                e.fit_model();
                let q = e.q();
                let bounds = e.unit_bounds();
                let cfg = e.cfg().clone();
                let acq_seed = e.seeds().fork(0xACC).next_seed();
                let gp = e.model().clone();
                let mut batch = e.charge_acquisition(1, || {
                    super::kb_qego::kb_batch(&gp, &bounds, q, &cfg, acq_seed)
                });
                e.sanitize_batch(&mut batch);
                batch
            }
            BatchStepper::MicQEgo => {
                e.fit_model();
                let q = e.q();
                let bounds = e.unit_bounds();
                let cfg = e.cfg().clone();
                let acq_seed = e.seeds().fork(0xACC).next_seed();
                let gp = e.model().clone();
                let mut batch = e.charge_acquisition(1, || {
                    super::mic_qego::mic_batch(&gp, &bounds, q, &cfg, acq_seed)
                });
                e.sanitize_batch(&mut batch);
                batch
            }
            BatchStepper::McQEgo => {
                e.fit_model();
                let q = e.q();
                let bounds = e.unit_bounds();
                let cfg = e.cfg().clone();
                let acq_seed = e.seeds().fork(0xACC).next_seed();
                let gp = e.model().clone();
                let f_best = gp.best_observed(false);
                let mut batch = e.charge_acquisition(1, || {
                    if q == 1 {
                        // Table 3: all methods use plain EI at q = 1.
                        let ei = ExpectedImprovement { f_best };
                        let ms = acq_multistart(&cfg, acq_seed);
                        let r = optimize_single(&gp, &ei, &bounds, &[], &ms);
                        (vec![r.x], r.restart_shortfall)
                    } else {
                        let qei = QExpectedImprovement::new(
                            f_best,
                            q,
                            cfg.qei.samples,
                            acq_seed ^ 0x5A,
                        );
                        let ms = qei_multistart(&cfg, acq_seed);
                        let out = optimize_qei(&gp, &qei, &bounds, &[], &ms);
                        (out.batch, out.restart_shortfall)
                    }
                });
                e.sanitize_batch(&mut batch);
                batch
            }
            BatchStepper::BspEgo { tree } => {
                e.fit_model();
                let q = e.q();
                let cfg = e.cfg().clone();
                let acq_seed = e.seeds().fork(0xACC).next_seed();
                let gp = e.model().clone();
                let f_best = gp.best_observed(false);
                let leaves = tree.leaves();
                let cells: Vec<pbo_opt::Bounds> =
                    leaves.iter().map(|&l| tree.bounds_of(l).clone()).collect();

                // One local EI maximization per cell, run concurrently
                // when the cells' work passes the parallel gate; the
                // clock models q workers sharing the 2q sub-problems. The multistart inside each cell is
                // itself parallel-capable, but every block of a fan-out
                // runs inside a parallel region (`pbo_linalg::parallel`),
                // so the nested fan-out degrades to the serial schedule
                // instead of oversubscribing — and stays bit-identical
                // to it by construction. Work: one whole multistart per
                // cell.
                let work = cells.len().saturating_mul(multistart_work(
                    &acq_multistart(&cfg, acq_seed),
                    single::eval_work(&gp),
                ));
                let results: Vec<(Vec<f64>, f64, usize)> = e.charge_acquisition(q, || {
                    let per_cell = pbo_linalg::parallel::par_map(cells.len(), work, |k| {
                        let ei = ExpectedImprovement { f_best };
                        let ms = acq_multistart(&cfg, acq_seed.wrapping_add(k as u64));
                        let r = optimize_single(&gp, &ei, &cells[k], &[], &ms);
                        (r.x, r.value, r.restart_shortfall)
                    });
                    let shortfall = per_cell.iter().map(|(_, _, s)| *s).sum();
                    (per_cell, shortfall)
                });

                // Per-leaf scores drive the partition evolution.
                let scores: Vec<f64> = results.iter().map(|(_, v, _)| *v).collect();

                // Top-q candidates by EI across all cells.
                let mut order: Vec<usize> = (0..results.len()).collect();
                order.sort_by(|&a, &b| results[b].1.total_cmp(&results[a].1));
                let mut batch: Vec<Vec<f64>> =
                    order.iter().take(q).map(|&k| results[k].0.clone()).collect();

                tree.evolve(&leaves, &scores);
                e.sanitize_batch(&mut batch);
                batch
            }
            BatchStepper::Turbo { tr, f_best_before } => {
                e.fit_model();
                let q = e.q();
                let cfg = e.cfg().clone();
                let acq_seed = e.seeds().fork(0xACC).next_seed();
                let gp = e.model().clone();
                let f_best_min = e.best_min();
                *f_best_before = f_best_min;
                let center = e.best_x_unit();
                let region = tr.bounds(&center, &gp.kernel().lengthscales);

                let mut batch = e.charge_acquisition(1, || {
                    if q == 1 {
                        let ei = ExpectedImprovement { f_best: f_best_min };
                        let ms = acq_multistart(&cfg, acq_seed);
                        let r = optimize_single(&gp, &ei, &region, &[], &ms);
                        (vec![r.x], r.restart_shortfall)
                    } else {
                        let qei = QExpectedImprovement::new(
                            f_best_min,
                            q,
                            cfg.qei.samples,
                            acq_seed ^ 0x7B,
                        );
                        let ms = qei_multistart(&cfg, acq_seed);
                        let out = optimize_qei(&gp, &qei, &region, &[], &ms);
                        (out.batch, out.restart_shortfall)
                    }
                });
                e.sanitize_batch(&mut batch);
                batch
            }
            BatchStepper::MicTurbo { tr, f_best_before } => {
                e.fit_model();
                let q = e.q();
                let cfg = e.cfg().clone();
                let acq_seed = e.seeds().fork(0xACC).next_seed();
                let gp = e.model().clone();
                let f_best_min = e.best_min();
                *f_best_before = f_best_min;
                let center = e.best_x_unit();
                let region = tr.bounds(&center, &gp.kernel().lengthscales);

                let mut batch = e.charge_acquisition(1, || {
                    super::mic_qego::mic_batch(&gp, &region, q, &cfg, acq_seed)
                });
                e.sanitize_batch(&mut batch);
                batch
            }
            BatchStepper::Random => {
                e.begin_cycle();
                let q = e.q();
                let d = e.dim();
                // Per-cycle fork: deterministic yet fresh each cycle.
                let cycle = e.cycle_index() as u64;
                let mut rng = e.seeds().fork(0x3A00 + cycle).rng();
                (0..q).map(|_| (0..d).map(|_| rng.gen::<f64>()).collect()).collect()
            }
            BatchStepper::Thompson => {
                e.fit_model();
                let q = e.q();
                let n_cand = e.cfg().acq.thompson_candidates;
                let cycle_tag = 0xACC + e.cycle_index() as u64;
                let acq_seed = e.seeds().fork(cycle_tag).next_seed();
                let gp = e.model().clone();
                // No inner optimization → no restart shortfall to
                // report.
                let mut batch = e.charge_acquisition(1, || {
                    (super::thompson::thompson_batch(&gp, q, n_cand, acq_seed), 0)
                });
                e.sanitize_batch(&mut batch);
                batch
            }
            BatchStepper::GpUcbPe => {
                e.fit_model();
                let q = e.q();
                let bounds = e.unit_bounds();
                let cfg = e.cfg().clone();
                let n_cand = cfg.acq.pe_candidates;
                // Per-cycle fork like Thompson: the Sobol candidate set
                // must be fresh each cycle.
                let cycle_tag = 0xACC + e.cycle_index() as u64;
                let acq_seed = e.seeds().fork(cycle_tag).next_seed();
                let gp = e.model().clone();
                let mut batch = e.charge_acquisition(1, || {
                    super::gp_ucb_pe::gp_ucb_pe_batch(&gp, &bounds, q, n_cand, &cfg, acq_seed)
                });
                e.sanitize_batch(&mut batch);
                batch
            }
            BatchStepper::HybridQ { planned } => {
                planned.take().unwrap_or_else(|| hybrid_propose(e))
            }
        }
    }

    /// Run the post-evaluate half of one cycle: trust-region feedback
    /// for the TuRBO variants, a no-op for everything else. Call after
    /// the proposed batch has been committed.
    pub fn after_commit(&mut self, e: &Engine) {
        match self {
            BatchStepper::Turbo { tr, f_best_before }
            | BatchStepper::MicTurbo { tr, f_best_before } => {
                let improved =
                    e.best_min() < *f_best_before - 1e-12 * (1.0 + f_best_before.abs());
                tr.update(improved);
            }
            _ => {}
        }
    }
}

/// The adaptive-q hybrid's pre-evaluate half, shared by
/// [`BatchStepper::propose_q`] and [`BatchStepper::propose`]: fit,
/// charge the leader-EI + fantasy growth loop to the acquisition clock
/// (the telemetry event reports the batch size the loop actually
/// chose), sanitize.
fn hybrid_propose(e: &mut Engine) -> Vec<Vec<f64>> {
    e.fit_model();
    let q_max = e.q();
    let bounds = e.unit_bounds();
    let cfg = e.cfg().clone();
    let acq_seed = e.seeds().fork(0xACC).next_seed();
    let gp = e.model().clone();
    let mut batch = e.charge_batch_acquisition(1, || {
        super::hybrid_q::hybrid_batch(&gp, &bounds, q_max, &cfg, acq_seed)
    });
    e.sanitize_batch(&mut batch);
    batch
}

/// Drive a prepared engine to budget exhaustion through the stepper —
/// the in-process reference loop every `drive` wrapper and ask/tell
/// session shares.
pub fn drive_stepper(kind: AlgorithmKind, mut e: Engine) -> RunRecord {
    let mut stepper = BatchStepper::new(kind, &e);
    while e.should_continue() {
        let batch = stepper.propose(&mut e);
        e.commit_batch(batch);
        stepper.after_commit(&e);
    }
    e.finish()
}
