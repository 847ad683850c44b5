//! Projected-gradient L-BFGS for box-constrained smooth minimization.
//!
//! This is the workhorse behind both hyperparameter fitting (maximizing
//! the GP marginal likelihood over log-parameters) and acquisition
//! optimization (BoTorch uses scipy's L-BFGS-B for the same role). The
//! implementation is the practical projected variant: two-loop-recursion
//! search directions, gradient projection at active bounds, and an
//! Armijo backtracking line search along the projected path. It is not
//! the full Byrd–Lu–Nocedal–Zhu L-BFGS-B (no generalized Cauchy point),
//! which costs a few extra iterations near heavily active bounds but is
//! simpler and ample for d ≤ ~200 acquisition landscapes.

use crate::{Bounds, GradObjective, OptResult};
use pbo_linalg::vec_ops::{dot, norm_inf};
use std::collections::VecDeque;

/// Tunables for [`minimize`]. `Default` matches scipy's L-BFGS-B
/// defaults where they carry over.
#[derive(Debug, Clone)]
pub struct LbfgsConfig {
    /// History pairs kept for the two-loop recursion.
    pub memory: usize,
    /// Maximum outer iterations.
    pub max_iters: usize,
    /// Convergence threshold on the projected-gradient infinity norm.
    pub grad_tol: f64,
    /// Convergence threshold on relative objective decrease.
    pub f_tol: f64,
    /// Wolfe sufficient-decrease constant (`c1`).
    pub wolfe_c1: f64,
    /// Wolfe curvature constant (`c2`).
    pub wolfe_c2: f64,
    /// Maximum line-search function evaluations per iteration.
    pub max_ls: usize,
}

impl Default for LbfgsConfig {
    fn default() -> Self {
        LbfgsConfig {
            memory: 8,
            max_iters: 100,
            grad_tol: 1e-6,
            f_tol: 1e-12,
            wolfe_c1: 1e-4,
            wolfe_c2: 0.9,
            max_ls: 25,
        }
    }
}

/// Zero the gradient components that push out of the box at an active
/// bound; the result is the projected gradient whose norm is the
/// first-order optimality measure for box constraints.
fn project_gradient(g: &[f64], x: &[f64], b: &Bounds) -> Vec<f64> {
    let eps = 1e-12;
    let mut pg = g.to_vec();
    for i in 0..x.len() {
        let at_lo = x[i] <= b.lo()[i] + eps * (1.0 + b.lo()[i].abs());
        let at_hi = x[i] >= b.hi()[i] - eps * (1.0 + b.hi()[i].abs());
        if (at_lo && pg[i] > 0.0) || (at_hi && pg[i] < 0.0) {
            pg[i] = 0.0;
        }
    }
    pg
}

/// Two-loop recursion producing `-H g` for the current curvature history.
fn two_loop(history: &VecDeque<(Vec<f64>, Vec<f64>, f64)>, g: &[f64]) -> Vec<f64> {
    let mut q = g.to_vec();
    let mut alphas = Vec::with_capacity(history.len());
    for (s, y, rho) in history.iter().rev() {
        let a = rho * dot(s, &q);
        pbo_linalg::vec_ops::axpy(-a, y, &mut q);
        alphas.push(a);
    }
    // Initial Hessian scaling gamma = s'y / y'y of the newest pair.
    if let Some((s, y, _)) = history.back() {
        let gamma = dot(s, y) / dot(y, y).max(1e-300);
        pbo_linalg::vec_ops::scale(gamma.max(1e-12), &mut q);
    }
    for ((s, y, rho), a) in history.iter().zip(alphas.into_iter().rev()) {
        let beta = rho * dot(y, &q);
        pbo_linalg::vec_ops::axpy(a - beta, s, &mut q);
    }
    pbo_linalg::vec_ops::scale(-1.0, &mut q);
    q
}

/// One evaluation along the projected path `x(a) = clamp(x + a d)`.
struct LsPoint {
    alpha: f64,
    x: Vec<f64>,
    f: f64,
    g: Vec<f64>,
    /// Directional derivative `g(x(a)) . d` (the projected-path
    /// approximation; exact while no new bound activates).
    dphi: f64,
}

/// Strong-Wolfe line search (Nocedal & Wright, Algs. 3.5/3.6) along the
/// projected path. Returns `None` when no acceptable step exists within
/// the evaluation budget.
#[allow(clippy::too_many_arguments)]
fn wolfe_search<O: GradObjective + ?Sized>(
    obj: &O,
    bounds: &Bounds,
    x: &[f64],
    f0: f64,
    d: &[f64],
    dphi0: f64,
    cfg: &LbfgsConfig,
    evals: &mut usize,
) -> Option<LsPoint> {
    let probe = |alpha: f64, evals: &mut usize| -> LsPoint {
        let mut xa: Vec<f64> = x.iter().zip(d).map(|(xi, di)| xi + alpha * di).collect();
        bounds.clamp(&mut xa);
        let (f, g) = obj.value_grad(&xa);
        *evals += 1;
        let dphi = dot(&g, d);
        LsPoint { alpha, x: xa, f, g, dphi }
    };
    let armijo = |p: &LsPoint| p.f <= f0 + cfg.wolfe_c1 * p.alpha * dphi0;
    let curvature = |p: &LsPoint| p.dphi.abs() <= -cfg.wolfe_c2 * dphi0;

    // Bracketing phase.
    let alpha_max = 1e6;
    let mut prev_alpha = 0.0;
    let mut prev_f = f0;
    let mut alpha = 1.0;
    let mut lo: Option<LsPoint> = None;
    let mut hi: Option<LsPoint> = None;
    let mut used = 0usize;
    while used < cfg.max_ls {
        let p = probe(alpha, evals);
        used += 1;
        if !p.f.is_finite() {
            // Step into NaN-land: treat as too long, bracket below.
            hi = Some(p);
            lo = Some(LsPoint { alpha: prev_alpha, x: x.to_vec(), f: prev_f, g: vec![], dphi: dphi0 });
            break;
        }
        if !armijo(&p) || (used > 1 && p.f >= prev_f) {
            hi = Some(p);
            break;
        }
        if curvature(&p) {
            return Some(p);
        }
        if p.dphi >= 0.0 {
            hi = Some(p);
            break;
        }
        prev_alpha = alpha;
        prev_f = p.f;
        alpha = (2.0 * alpha).min(alpha_max);
        if alpha >= alpha_max {
            return Some(p);
        }
    }
    // Zoom phase: bisection on [lo, hi] (by alpha).
    let mut a_lo = lo.map_or(prev_alpha, |p| p.alpha);
    let mut f_lo = prev_f;
    let mut a_hi = hi.map_or(alpha, |p| p.alpha);
    let mut best: Option<LsPoint> = None;
    while used < cfg.max_ls {
        let a = 0.5 * (a_lo + a_hi);
        if (a_hi - a_lo).abs() < 1e-14 * (1.0 + a_lo.abs()) {
            break;
        }
        let p = probe(a, evals);
        used += 1;
        if !p.f.is_finite() || !armijo(&p) || p.f >= f_lo {
            a_hi = a;
            continue;
        }
        if curvature(&p) {
            return Some(p);
        }
        if p.dphi * (a_hi - a_lo) >= 0.0 {
            a_hi = a_lo;
        }
        a_lo = a;
        f_lo = p.f;
        best = Some(p);
    }
    // Accept the best Armijo point found even without the curvature
    // condition (better a short step than no step).
    best.filter(|p| p.f < f0)
}

/// Minimize `obj` over the box `bounds` starting from `x0`.
///
/// Generic over the objective (rather than `&dyn GradObjective`) so the
/// multistart driver can hand in `?Sized` trait objects and concrete
/// acquisition objectives without trait upcasting.
pub fn minimize<O: GradObjective + ?Sized>(
    obj: &O,
    bounds: &Bounds,
    x0: &[f64],
    cfg: &LbfgsConfig,
) -> OptResult {
    assert_eq!(x0.len(), bounds.dim(), "start point dimension mismatch");
    let mut x = x0.to_vec();
    bounds.clamp(&mut x);
    let (mut f, mut g) = obj.value_grad(&x);
    let mut evals = 1;
    let mut history: VecDeque<(Vec<f64>, Vec<f64>, f64)> = VecDeque::new();
    let mut converged = false;
    let mut iters = 0;

    if !f.is_finite() {
        return OptResult { x, value: f, evals, iters, converged: false, restart_shortfall: 0 };
    }

    for it in 0..cfg.max_iters {
        iters = it + 1;
        let pg = project_gradient(&g, &x, bounds);
        if norm_inf(&pg) < cfg.grad_tol {
            converged = true;
            break;
        }
        // Search direction from curvature history, projected onto the
        // inactive set; fall back to steepest descent when it fails to
        // be a descent direction (can happen right after a bound hit).
        let mut d = two_loop(&history, &pg);
        for i in 0..d.len() {
            if pg[i] == 0.0 {
                d[i] = 0.0;
            }
        }
        let mut dphi0 = dot(&d, &g);
        if dphi0 >= 0.0 || d.iter().any(|v| !v.is_finite()) {
            d = pg.iter().map(|v| -v).collect();
            history.clear();
            dphi0 = dot(&d, &g);
            if dphi0 >= 0.0 {
                converged = true; // projected gradient direction is null
                break;
            }
        }

        let Some(p) = wolfe_search(obj, bounds, &x, f, &d, dphi0, cfg, &mut evals) else {
            // No acceptable step: declare convergence if the projected
            // gradient is already small-ish, else give up.
            converged = norm_inf(&pg) < cfg.grad_tol * 100.0;
            break;
        };

        let s: Vec<f64> = p.x.iter().zip(&x).map(|(a, b)| a - b).collect();
        let y: Vec<f64> = p.g.iter().zip(&g).map(|(a, b)| a - b).collect();
        let sy = dot(&s, &y);
        if sy > 1e-10 * pbo_linalg::vec_ops::norm2(&s) * pbo_linalg::vec_ops::norm2(&y) {
            if history.len() == cfg.memory {
                history.pop_front();
            }
            history.push_back((s, y, 1.0 / sy));
        }

        let f_prev = f;
        x = p.x;
        f = p.f;
        g = p.g;
        if (f_prev - f).abs() <= cfg.f_tol * (1.0 + f.abs()) {
            converged = true;
            break;
        }
    }

    OptResult { x, value: f, evals, iters, converged, restart_shortfall: 0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnGradObjective;

    fn quadratic(dim: usize) -> impl GradObjective {
        // f(x) = sum (i+1) * (x_i - 0.3 i)^2, minimum at x_i = 0.3 i.
        FnGradObjective::new(
            dim,
            move |x: &[f64]| {
                x.iter()
                    .enumerate()
                    .map(|(i, v)| (i + 1) as f64 * (v - 0.3 * i as f64).powi(2))
                    .sum()
            },
            move |x: &[f64]| {
                let f = x
                    .iter()
                    .enumerate()
                    .map(|(i, v)| (i + 1) as f64 * (v - 0.3 * i as f64).powi(2))
                    .sum();
                let g = x
                    .iter()
                    .enumerate()
                    .map(|(i, v)| 2.0 * (i + 1) as f64 * (v - 0.3 * i as f64))
                    .collect();
                (f, g)
            },
            3 * dim,
        )
    }

    #[test]
    fn solves_unconstrained_quadratic() {
        let obj = quadratic(5);
        let b = Bounds::cube(5, -10.0, 10.0);
        let r = minimize(&obj, &b, &[5.0; 5], &LbfgsConfig::default());
        assert!(r.converged);
        for (i, v) in r.x.iter().enumerate() {
            assert!((v - 0.3 * i as f64).abs() < 1e-4, "x[{i}] = {v}");
        }
    }

    #[test]
    fn respects_active_bounds() {
        // Minimum of (x-5)^2 over [0, 1] is at x = 1.
        let obj = FnGradObjective::new(
            1,
            |x: &[f64]| (x[0] - 5.0).powi(2),
            |x: &[f64]| ((x[0] - 5.0).powi(2), vec![2.0 * (x[0] - 5.0)]),
            1,
        );
        let b = Bounds::cube(1, 0.0, 1.0);
        let r = minimize(&obj, &b, &[0.2], &LbfgsConfig::default());
        assert!((r.x[0] - 1.0).abs() < 1e-9);
        assert!(r.converged);
    }

    #[test]
    fn rosenbrock_2d_converges() {
        let rb = |x: &[f64]| {
            100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2)
        };
        let obj = FnGradObjective::new(2, rb, move |x: &[f64]| {
            let g = vec![
                -400.0 * x[0] * (x[1] - x[0] * x[0]) - 2.0 * (1.0 - x[0]),
                200.0 * (x[1] - x[0] * x[0]),
            ];
            (rb(x), g)
        }, 10);
        let b = Bounds::cube(2, -5.0, 10.0);
        let cfg = LbfgsConfig { max_iters: 500, ..LbfgsConfig::default() };
        let r = minimize(&obj, &b, &[-1.2, 1.0], &cfg);
        assert!((r.x[0] - 1.0).abs() < 1e-3 && (r.x[1] - 1.0).abs() < 1e-3,
                "got {:?} after {} iters", r.x, r.iters);
    }

    #[test]
    fn handles_nonfinite_start_gracefully() {
        let obj = FnGradObjective::new(
            1,
            |_: &[f64]| f64::NAN,
            |_: &[f64]| (f64::NAN, vec![f64::NAN]),
            1,
        );
        let b = Bounds::unit(1);
        let r = minimize(&obj, &b, &[0.5], &LbfgsConfig::default());
        assert!(!r.converged);
        assert_eq!(r.evals, 1);
    }

    #[test]
    fn clamps_out_of_box_start() {
        let obj = quadratic(2);
        let b = Bounds::unit(2);
        let r = minimize(&obj, &b, &[100.0, -100.0], &LbfgsConfig::default());
        assert!(b.contains(&r.x));
    }
}
