//! Acquisition-process cost vs batch size — the mechanism behind
//! Figs. 2 and 9: KB's q sequential conditionings, mic's q/2, MC-q-EI's
//! joint q·d optimization, and BSP's 2q local problems.
//!
//! Each benchmark builds one batch from a frozen, fitted model — i.e.
//! measures exactly what the virtual clock charges as "acquisition".
//!
//! The `acq_ei_multistart_8x96` group is the PR's headline: the full
//! 8-restart × 96-raw-sample EI maximization at n=256, d=12, measured
//! three ways — `prepr_serial` (a faithful in-bench replica of the
//! seed's serial multistart over the allocating posterior path),
//! `new_threads1` (the overhauled path pinned to one compute thread —
//! isolates the flop/allocation savings) and `new_threadsN` (all
//! available cores). Results are recorded in `BENCH_acq.json`.
//!
//! Set `PBO_BENCH_SMOKE=1` for a seconds-scale CI smoke configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pbo_acq::single::ExpectedImprovement;
use pbo_acq::Acquisition;
use pbo_core::algorithms::{kb_qego, mic_qego, qei_multistart};
use pbo_core::engine::{AcqConfig, AlgoConfig, QeiConfig};
use pbo_gp::kernel::{Kernel, KernelType};
use pbo_gp::GaussianProcess;
use pbo_linalg::Matrix;
use pbo_opt::multistart::MultistartConfig;
use pbo_opt::{Bounds, FnGradObjective, OptResult};
use pbo_sampling::sobol::Sobol;
use pbo_sampling::{lhs, SeedStream};

const Q_GRID: [usize; 3] = [2, 4, 8];

/// Seconds-scale smoke configuration for CI (`PBO_BENCH_SMOKE=1`).
fn smoke() -> bool {
    std::env::var_os("PBO_BENCH_SMOKE").is_some_and(|v| v != "0")
}

fn tune(g: &mut criterion::BenchmarkGroup<'_>) {
    if smoke() {
        g.measurement_time(std::time::Duration::from_millis(150));
        g.warm_up_time(std::time::Duration::from_millis(30));
        g.sample_size(10);
    } else {
        g.measurement_time(std::time::Duration::from_secs(2));
        g.warm_up_time(std::time::Duration::from_millis(300));
        g.sample_size(10);
    }
}

fn q_grid() -> &'static [usize] {
    if smoke() {
        &Q_GRID[..1]
    } else {
        &Q_GRID
    }
}

fn fitted_gp(n: usize) -> GaussianProcess {
    let seeds = SeedStream::new(17);
    let pts = lhs::latin_hypercube(&mut seeds.fork_named("d").rng(), n, 12);
    let mut x = Matrix::zeros(0, 12);
    let mut y = Vec::with_capacity(n);
    for p in &pts {
        y.push(p.iter().enumerate().map(|(i, v)| ((i + 1) as f64 * v).sin()).sum::<f64>());
        x.push_row(p).unwrap();
    }
    let mut kernel = Kernel::new(KernelType::Matern52, 12);
    kernel.lengthscales = vec![0.4; 12];
    GaussianProcess::new(x, &y, kernel, 1e-4).unwrap()
}

fn cfg() -> AlgoConfig {
    AlgoConfig {
        acq: AcqConfig { restarts: 2, raw_samples: 24, ..AcqConfig::default() },
        qei: QeiConfig { samples: 64, restarts: 2, raw_samples: 8 },
        ..AlgoConfig::default()
    }
}

fn bench_kb(c: &mut Criterion) {
    let gp = fitted_gp(if smoke() { 48 } else { 128 });
    let bounds = Bounds::unit(12);
    let cfg = cfg();
    let mut g = c.benchmark_group("acq_kb_q_ego");
    tune(&mut g);
    for &q in q_grid() {
        g.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            b.iter(|| kb_qego::kb_batch(&gp, &bounds, q, &cfg, 1).0.len())
        });
    }
    g.finish();
}

fn bench_mic(c: &mut Criterion) {
    let gp = fitted_gp(if smoke() { 48 } else { 128 });
    let bounds = Bounds::unit(12);
    let cfg = cfg();
    let mut g = c.benchmark_group("acq_mic_q_ego");
    tune(&mut g);
    for &q in q_grid() {
        g.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            b.iter(|| mic_qego::mic_batch(&gp, &bounds, q, &cfg, 1).0.len())
        });
    }
    g.finish();
}

fn bench_mc_qei(c: &mut Criterion) {
    let gp = fitted_gp(if smoke() { 48 } else { 128 });
    let bounds = Bounds::unit(12);
    let cfg = cfg();
    let f_best = gp.best_observed(false);
    let mut g = c.benchmark_group("acq_mc_qei_joint");
    tune(&mut g);
    for &q in q_grid() {
        g.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            let qei = pbo_acq::mc::QExpectedImprovement::new(f_best, q, cfg.qei.samples, 3);
            let ms = qei_multistart(&cfg, 3);
            b.iter(|| pbo_acq::mc::optimize_qei(&gp, &qei, &bounds, &[], &ms).value)
        });
    }
    g.finish();
}

/// GP-UCB-PE's batch: one UCB multistart for the leader plus q−1
/// variance-greedy fillers from a single joint posterior — the cost
/// that `bench_gate.sh` pins (the fillers must stay near-free relative
/// to the leader's multistart).
fn bench_gp_ucb_pe(c: &mut Criterion) {
    let gp = fitted_gp(if smoke() { 48 } else { 128 });
    let bounds = Bounds::unit(12);
    let cfg = cfg();
    let n_cand = cfg.acq.pe_candidates;
    let mut g = c.benchmark_group("acq_gp_ucb_pe");
    tune(&mut g);
    for &q in q_grid() {
        g.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, &q| {
            b.iter(|| {
                pbo_core::algorithms::gp_ucb_pe::gp_ucb_pe_batch(&gp, &bounds, q, n_cand, &cfg, 1)
                    .0
                    .len()
            })
        });
    }
    g.finish();
}

/// BSP's 2q local EI problems, measured as total serial work (the
/// engine divides by q workers when charging the virtual clock).
fn bench_bsp_cells(c: &mut Criterion) {
    let gp = fitted_gp(if smoke() { 48 } else { 128 });
    let cfg = cfg();
    let f_best = gp.best_observed(false);
    let mut g = c.benchmark_group("acq_bsp_cells_serial");
    tune(&mut g);
    for &q in q_grid() {
        let tree = pbo_core::partition::BspTree::new(Bounds::unit(12), 2 * q);
        let cells: Vec<Bounds> =
            tree.leaves().iter().map(|&l| tree.bounds_of(l).clone()).collect();
        g.bench_with_input(BenchmarkId::from_parameter(q), &q, |b, _| {
            b.iter(|| {
                let mut total = 0.0;
                for (k, cell) in cells.iter().enumerate() {
                    let ei = pbo_acq::single::ExpectedImprovement { f_best };
                    let ms = pbo_core::algorithms::acq_multistart(&cfg, k as u64);
                    total += pbo_acq::single::optimize_single(&gp, &ei, cell, &[], &ms).value;
                }
                total
            })
        });
    }
    g.finish();
}

/// Faithful replica of the seed's `optimize_single` + serial
/// `minimize_multistart`: every raw Sobol candidate scored by one
/// allocating `gp.predict`, every polish stepping through the allocating
/// `posterior_with_grad`, all on the calling thread. The overhauled
/// in-tree path batches raw scoring (`predict_many`), reuses per-thread
/// posterior workspaces and fans polishes over scoped threads — this
/// replica preserves the removed serial recipe so the recorded baseline
/// is the true pre-PR cost.
fn optimize_single_pre(
    gp: &GaussianProcess,
    f_best: f64,
    bounds: &Bounds,
    cfg: &MultistartConfig,
) -> OptResult {
    let ei = ExpectedImprovement { f_best };
    let obj = FnGradObjective::new(
        bounds.dim(),
        |x: &[f64]| -ei.value(gp, x),
        |x: &[f64]| {
            let (v, g) = ei.value_grad(gp, x);
            (-v, g.into_iter().map(|gi| -gi).collect())
        },
        pbo_acq::single::eval_work(gp),
    );
    let dim = bounds.dim();
    let mut sobol = Sobol::scrambled(dim, cfg.seed);
    let mut scored: Vec<(f64, Vec<f64>)> = Vec::with_capacity(cfg.raw_samples);
    let mut evals = 0;
    for _ in 0..cfg.raw_samples {
        let x = bounds.from_unit(&sobol.next_point());
        let v = pbo_opt::GradObjective::value(&obj, &x);
        evals += 1;
        if v.is_finite() {
            scored.push((v, x));
        }
    }
    scored.sort_by(|a, b| a.0.total_cmp(&b.0));

    let mut starts: Vec<Vec<f64>> = Vec::with_capacity(cfg.restarts);
    starts.extend(scored.into_iter().take(cfg.restarts).map(|(_, x)| x));
    if starts.is_empty() {
        starts.push(bounds.center());
    }

    let mut best: Option<OptResult> = None;
    let mut total_iters = 0;
    for s in &starts {
        let r = pbo_opt::lbfgs::minimize(&obj, bounds, s, &cfg.lbfgs);
        evals += r.evals;
        total_iters += r.iters;
        if r.value.is_finite() && best.as_ref().is_none_or(|b| r.value < b.value) {
            best = Some(r);
        }
    }
    let mut out = best.expect("finite polish result");
    out.evals = evals;
    out.iters = total_iters;
    out.value = -out.value;
    out
}

/// The PR's headline measurement: one full 8-restart × 96-raw-sample EI
/// maximization (the engine's per-candidate acquisition step) on a
/// frozen n=256, d=12 model.
fn bench_ei_multistart(c: &mut Criterion) {
    let n = if smoke() { 64 } else { 256 };
    let gp = fitted_gp(n);
    let bounds = Bounds::unit(12);
    let f_best = gp.best_observed(false);
    let ms = MultistartConfig { restarts: 8, raw_samples: 96, seed: 7, ..Default::default() };
    let ei = ExpectedImprovement { f_best };

    // Equivalence guard: both paths polish the top-8 of the same Sobol
    // draw, so the achieved maximum must agree (raw scoring differs by
    // batched-summation ulps only).
    {
        let pre = optimize_single_pre(&gp, f_best, &bounds, &ms);
        let new = pbo_acq::single::optimize_single(&gp, &ei, &bounds, &[], &ms);
        assert!(
            (pre.value - new.value).abs() <= 1e-6 * (1.0 + new.value.abs()),
            "pre-PR replica and overhauled multistart diverged: {} vs {}",
            pre.value,
            new.value
        );
    }

    let mut g = c.benchmark_group("acq_ei_multistart_8x96");
    tune(&mut g);
    g.bench_with_input(BenchmarkId::new("prepr_serial", n), &n, |b, _| {
        b.iter(|| optimize_single_pre(&gp, f_best, &bounds, &ms).value)
    });
    pbo_linalg::parallel::set_num_threads(1);
    g.bench_with_input(BenchmarkId::new("new_threads1", n), &n, |b, _| {
        b.iter(|| pbo_acq::single::optimize_single(&gp, &ei, &bounds, &[], &ms).value)
    });
    pbo_linalg::parallel::set_num_threads(0);
    g.bench_with_input(BenchmarkId::new("new_threadsN", n), &n, |b, _| {
        b.iter(|| pbo_acq::single::optimize_single(&gp, &ei, &bounds, &[], &ms).value)
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ei_multistart,
    bench_kb,
    bench_mic,
    bench_mc_qei,
    bench_gp_ucb_pe,
    bench_bsp_cells
);
criterion_main!(benches);
