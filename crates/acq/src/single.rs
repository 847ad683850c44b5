//! Single-point acquisition criteria with analytic gradients.
//!
//! All criteria are written for the workspace's **minimization**
//! convention: improvement means falling below the incumbent `f_best`.
//! With `u = (f_best − μ)/σ`:
//!
//! - EI: `σ (u Φ(u) + φ(u))`, gradient `−Φ(u) ∇μ + φ(u) ∇σ`,
//! - PI: `Φ(u)`, gradient `φ(u) (−∇μ − u ∇σ)/σ`,
//! - UCB (the paper's exploit-leaning complement in mic-q-EGO): in
//!   minimization form the *lower* confidence bound `−(μ − β σ)`,
//!   gradient `−∇μ + β ∇σ`. β defaults to the common `√2` scale.

use crate::{posterior_with_grad, posterior_with_grad_ws, AcqWorkspace, Acquisition};
use pbo_gp::Surrogate;
use pbo_linalg::Matrix;
use pbo_opt::multistart::{minimize_multistart, MultistartConfig};
use pbo_opt::{BatchObjective, Bounds, GradObjective, OptResult};
use pbo_sampling::normal;
use std::cell::RefCell;

/// EI core on posterior moments. `u Φ(u) + φ(u)` is evaluated directly:
/// for `u → −∞` the two terms cancel to `≈ φ(u)/u²` with only `O(ε u²)`
/// relative error, which stays below `1e-12` for `|u| ≤ 30`, and both
/// factors underflow gracefully past that. The terminal `max(0.0)`
/// clamps the `O(ε φ(u))` negative rounding residue so EI is exactly
/// nonnegative.
#[inline]
fn ei_from_moments(f_best: f64, mean: f64, sigma_raw: f64) -> f64 {
    let sigma = sigma_raw.max(1e-12);
    let u = (f_best - mean) / sigma;
    (sigma * (u * normal::cdf(u) + normal::pdf(u))).max(0.0)
}

/// PI core on posterior moments.
#[inline]
fn pi_from_moments(f_best: f64, mean: f64, sigma_raw: f64) -> f64 {
    let sigma = sigma_raw.max(1e-12);
    normal::cdf((f_best - mean) / sigma)
}

/// Expected Improvement below the incumbent `f_best`.
#[derive(Debug, Clone)]
pub struct ExpectedImprovement {
    /// Incumbent (best observed) objective value.
    pub f_best: f64,
}

impl Acquisition for ExpectedImprovement {
    fn value(&self, gp: &dyn Surrogate, x: &[f64]) -> f64 {
        let (mean, var) = gp.predict(x);
        ei_from_moments(self.f_best, mean, var.sqrt())
    }

    fn value_grad(&self, gp: &dyn Surrogate, x: &[f64]) -> (f64, Vec<f64>) {
        let pg = posterior_with_grad(gp, x);
        let sigma = pg.sigma.max(1e-12);
        let u = (self.f_best - pg.mean) / sigma;
        let (cdf, pdf) = (normal::cdf(u), normal::pdf(u));
        let value = (sigma * (u * cdf + pdf)).max(0.0);
        let grad = pg
            .dmean
            .iter()
            .zip(&pg.dsigma)
            .map(|(dm, ds)| -cdf * dm + pdf * ds)
            .collect();
        (value, grad)
    }

    fn name(&self) -> &'static str {
        "ei"
    }

    fn value_with(&self, gp: &dyn Surrogate, x: &[f64], ws: &mut AcqWorkspace) -> f64 {
        let (mean, var) = gp.predict_with(x, &mut ws.pred);
        ei_from_moments(self.f_best, mean, var.sqrt())
    }

    fn value_grad_into(
        &self,
        gp: &dyn Surrogate,
        x: &[f64],
        ws: &mut AcqWorkspace,
        grad: &mut Vec<f64>,
    ) -> f64 {
        posterior_with_grad_ws(gp, x, ws);
        let pg = ws.posterior();
        let sigma = pg.sigma.max(1e-12);
        let u = (self.f_best - pg.mean) / sigma;
        let (cdf, pdf) = (normal::cdf(u), normal::pdf(u));
        grad.clear();
        grad.extend(pg.dmean.iter().zip(&pg.dsigma).map(|(dm, ds)| -cdf * dm + pdf * ds));
        (sigma * (u * cdf + pdf)).max(0.0)
    }

    fn value_many(&self, gp: &dyn Surrogate, pts: &Matrix, out: &mut [f64]) {
        let (means, vars) = gp.predict_many(pts);
        for (o, (m, v)) in out.iter_mut().zip(means.iter().zip(&vars)) {
            *o = ei_from_moments(self.f_best, *m, v.sqrt());
        }
    }
}

/// Probability of Improvement below `f_best`.
#[derive(Debug, Clone)]
pub struct ProbabilityOfImprovement {
    /// Incumbent objective value.
    pub f_best: f64,
}

impl Acquisition for ProbabilityOfImprovement {
    fn value(&self, gp: &dyn Surrogate, x: &[f64]) -> f64 {
        let (mean, var) = gp.predict(x);
        pi_from_moments(self.f_best, mean, var.sqrt())
    }

    fn value_grad(&self, gp: &dyn Surrogate, x: &[f64]) -> (f64, Vec<f64>) {
        let pg = posterior_with_grad(gp, x);
        let sigma = pg.sigma.max(1e-12);
        let u = (self.f_best - pg.mean) / sigma;
        let pdf = normal::pdf(u);
        let value = normal::cdf(u);
        let grad = pg
            .dmean
            .iter()
            .zip(&pg.dsigma)
            .map(|(dm, ds)| pdf * (-dm - u * ds) / sigma)
            .collect();
        (value, grad)
    }

    fn name(&self) -> &'static str {
        "pi"
    }

    fn value_with(&self, gp: &dyn Surrogate, x: &[f64], ws: &mut AcqWorkspace) -> f64 {
        let (mean, var) = gp.predict_with(x, &mut ws.pred);
        pi_from_moments(self.f_best, mean, var.sqrt())
    }

    fn value_grad_into(
        &self,
        gp: &dyn Surrogate,
        x: &[f64],
        ws: &mut AcqWorkspace,
        grad: &mut Vec<f64>,
    ) -> f64 {
        posterior_with_grad_ws(gp, x, ws);
        let pg = ws.posterior();
        let sigma = pg.sigma.max(1e-12);
        let u = (self.f_best - pg.mean) / sigma;
        let pdf = normal::pdf(u);
        grad.clear();
        grad.extend(
            pg.dmean
                .iter()
                .zip(&pg.dsigma)
                .map(|(dm, ds)| pdf * (-dm - u * ds) / sigma),
        );
        normal::cdf(u)
    }

    fn value_many(&self, gp: &dyn Surrogate, pts: &Matrix, out: &mut [f64]) {
        let (means, vars) = gp.predict_many(pts);
        for (o, (m, v)) in out.iter_mut().zip(means.iter().zip(&vars)) {
            *o = pi_from_moments(self.f_best, *m, v.sqrt());
        }
    }
}

/// Confidence-bound criterion (minimization form: maximize `−μ + β σ`).
#[derive(Debug, Clone)]
pub struct UpperConfidenceBound {
    /// Exploration weight β ≥ 0. 0 = pure posterior-mean exploitation.
    pub beta: f64,
}

impl Default for UpperConfidenceBound {
    fn default() -> Self {
        UpperConfidenceBound { beta: std::f64::consts::SQRT_2 }
    }
}

impl Acquisition for UpperConfidenceBound {
    fn value(&self, gp: &dyn Surrogate, x: &[f64]) -> f64 {
        let (mean, var) = gp.predict(x);
        -mean + self.beta * var.sqrt()
    }

    fn value_grad(&self, gp: &dyn Surrogate, x: &[f64]) -> (f64, Vec<f64>) {
        let pg = posterior_with_grad(gp, x);
        let value = -pg.mean + self.beta * pg.sigma;
        let grad = pg
            .dmean
            .iter()
            .zip(&pg.dsigma)
            .map(|(dm, ds)| -dm + self.beta * ds)
            .collect();
        (value, grad)
    }

    fn name(&self) -> &'static str {
        "ucb"
    }

    fn value_with(&self, gp: &dyn Surrogate, x: &[f64], ws: &mut AcqWorkspace) -> f64 {
        let (mean, var) = gp.predict_with(x, &mut ws.pred);
        -mean + self.beta * var.sqrt()
    }

    fn value_grad_into(
        &self,
        gp: &dyn Surrogate,
        x: &[f64],
        ws: &mut AcqWorkspace,
        grad: &mut Vec<f64>,
    ) -> f64 {
        posterior_with_grad_ws(gp, x, ws);
        let pg = ws.posterior();
        grad.clear();
        grad.extend(
            pg.dmean
                .iter()
                .zip(&pg.dsigma)
                .map(|(dm, ds)| -dm + self.beta * ds),
        );
        -pg.mean + self.beta * pg.sigma
    }

    fn value_many(&self, gp: &dyn Surrogate, pts: &Matrix, out: &mut [f64]) {
        let (means, vars) = gp.predict_many(pts);
        for (o, (m, v)) in out.iter_mut().zip(means.iter().zip(&vars)) {
            *o = -m + self.beta * v.sqrt();
        }
    }
}

thread_local! {
    /// Per-thread acquisition workspace. The multistart fans objective
    /// calls out over scoped threads; a `thread_local!` keeps the
    /// objective `Sync` while giving every worker its own buffers.
    static ACQ_WS: RefCell<AcqWorkspace> = RefCell::new(AcqWorkspace::new());
}

/// Negated single-point acquisition as a minimization objective, with
/// per-thread workspaces for the allocation-free posterior path and
/// batched raw-candidate scoring through [`Acquisition::value_many`].
struct NegAcq<'a> {
    gp: &'a dyn Surrogate,
    acq: &'a dyn Acquisition,
}

impl GradObjective for NegAcq<'_> {
    fn dim(&self) -> usize {
        self.gp.dim()
    }

    fn value(&self, x: &[f64]) -> f64 {
        ACQ_WS.with(|w| -self.acq.value_with(self.gp, x, &mut w.borrow_mut()))
    }

    fn value_grad(&self, x: &[f64]) -> (f64, Vec<f64>) {
        ACQ_WS.with(|w| {
            let mut grad = Vec::with_capacity(x.len());
            let v = self.acq.value_grad_into(self.gp, x, &mut w.borrow_mut(), &mut grad);
            for g in grad.iter_mut() {
                *g = -*g;
            }
            (-v, grad)
        })
    }
}

impl BatchObjective for NegAcq<'_> {
    fn eval_work(&self) -> usize {
        eval_work(self.gp)
    }

    fn value_batch(&self, xs: &[f64], out: &mut [f64]) {
        let d = self.gp.dim().max(1);
        debug_assert_eq!(xs.len(), out.len() * d);
        // Candidate blocks arrive every cycle with the same shape; the
        // per-thread workspace matrix absorbs them without reallocating.
        ACQ_WS.with(|w| {
            let ws = &mut *w.borrow_mut();
            ws.pts.reset_zeros(out.len(), d);
            ws.pts.as_mut_slice().copy_from_slice(xs);
            self.acq.value_many(self.gp, &ws.pts, out);
        });
        for o in out.iter_mut() {
            *o = -*o;
        }
    }
}

/// Flop-ish cost of one single-point acquisition value and gradient on
/// `gp`: the cross-kernel row and its gradient (≈ 3nd) plus the two
/// triangular solves of the variance and its gradient (≈ n²).
pub fn eval_work(gp: &dyn Surrogate) -> usize {
    let (n, d) = (gp.n(), gp.dim());
    n * (n + 3 * d)
}

/// Maximize a single-point acquisition over `bounds` with multistart
/// L-BFGS (the `optimize_acqf` analogue). Returns the maximizer; the
/// reported `value` is the (positive) acquisition value.
///
/// Raw-Sobol candidates are scored in batched GP predictions and the
/// per-start polishes run on `pbo_linalg::parallel` scoped threads; the
/// result is bit-identical for any thread count (see
/// `pbo_opt::multistart`).
pub fn optimize_single(
    gp: &dyn Surrogate,
    acq: &dyn Acquisition,
    bounds: &Bounds,
    warm_starts: &[Vec<f64>],
    cfg: &MultistartConfig,
) -> OptResult {
    let obj = NegAcq { gp, acq };
    let mut r = minimize_multistart(&obj, bounds, warm_starts, cfg);
    r.value = -r.value;
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbo_gp::kernel::{Kernel, KernelType};
    use pbo_gp::GaussianProcess;
    use pbo_linalg::Matrix;

    fn gp_1d() -> GaussianProcess {
        // y = (x - 0.35)^2 sampled coarsely: minimum near 0.35.
        let xs = [0.0, 0.15, 0.5, 0.72, 1.0];
        let x = Matrix::from_rows(&xs.iter().map(|&v| vec![v]).collect::<Vec<_>>()).unwrap();
        let y: Vec<f64> = xs.iter().map(|&v: &f64| (v - 0.35) * (v - 0.35)).collect();
        let mut kernel = Kernel::new(KernelType::Matern52, 1);
        kernel.lengthscales = vec![0.3];
        kernel.outputscale = 1.0;
        GaussianProcess::new(x, &y, kernel, 1e-6).unwrap()
    }

    #[test]
    fn ei_nonnegative_and_zero_at_certainty() {
        let gp = gp_1d();
        let ei = ExpectedImprovement { f_best: gp.best_observed(false) };
        for i in 0..=20 {
            let x = [i as f64 / 20.0];
            assert!(ei.value(&gp, &x) >= 0.0);
        }
        // At a training point with tiny noise, σ≈0 and the value there is
        // not below f_best => EI ≈ 0.
        assert!(ei.value(&gp, &[0.0]) < 1e-6);
    }

    #[test]
    fn gradients_match_fd() {
        let gp = gp_1d();
        let f_best = gp.best_observed(false);
        let acqs: Vec<Box<dyn Acquisition>> = vec![
            Box::new(ExpectedImprovement { f_best }),
            Box::new(ProbabilityOfImprovement { f_best }),
            Box::new(UpperConfidenceBound::default()),
        ];
        for acq in &acqs {
            for &p in &[0.22, 0.4, 0.63, 0.88] {
                let (_, g) = acq.value_grad(&gp, &[p]);
                let fd = pbo_opt::fd_gradient(|x| acq.value(&gp, x), &[p], 1e-6);
                assert!(
                    (g[0] - fd[0]).abs() < 1e-4 * (1.0 + fd[0].abs()),
                    "{} at {p}: {} vs {}",
                    acq.name(),
                    g[0],
                    fd[0]
                );
            }
        }
    }

    #[test]
    fn optimize_ei_proposes_near_minimum_region() {
        let gp = gp_1d();
        let ei = ExpectedImprovement { f_best: gp.best_observed(false) };
        let bounds = Bounds::unit(1);
        let r = optimize_single(&gp, &ei, &bounds, &[], &MultistartConfig::default());
        assert!(r.value > 0.0, "EI at proposal must be positive, got {}", r.value);
        // With data on both sides, the proposal falls inside the box.
        assert!(bounds.contains(&r.x));
        // EI at the proposal beats EI at a handful of reference points.
        for &p in &[0.05, 0.5, 0.95] {
            assert!(r.value >= ei.value(&gp, &[p]) - 1e-9);
        }
    }

    #[test]
    fn ucb_beta_zero_is_posterior_mean_exploitation() {
        let gp = gp_1d();
        let ucb = UpperConfidenceBound { beta: 0.0 };
        let bounds = Bounds::unit(1);
        let r = optimize_single(&gp, &ucb, &bounds, &[], &MultistartConfig::default());
        // Maximizing −μ = minimizing posterior mean => near 0.35.
        assert!((r.x[0] - 0.35).abs() < 0.1, "got {:?}", r.x);
    }
}
