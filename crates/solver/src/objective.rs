//! The objective-function abstraction and finite-difference gradients.

use serde::{Deserialize, Serialize};

/// How the MPC evaluates the gradient of its rollout objective — the
/// `mode` label on solve-outcome telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum GradientMode {
    /// Central finite differences, one coordinate at a time (`2·n`
    /// objective evaluations per gradient) — the test oracle.
    #[default]
    Serial,
    /// Reverse-mode (adjoint) analytic gradient: one taped forward
    /// rollout plus one backward sweep, independent of the decision
    /// dimension — `O(1)` objective evaluations per gradient instead of
    /// the `O(n)` finite differences need.
    Adjoint,
    /// Second-order mode: the adjoint gradient plus a Gauss-Newton
    /// curvature matrix assembled from the same tape, consumed by the
    /// [`GaussNewton`](crate::GaussNewton) projected Levenberg–Marquardt
    /// solver instead of the first-order spectral method.
    ///
    /// As a plain *gradient* mode (for objectives or solvers that only
    /// ask for `∇f`) it is equivalent to [`GradientMode::Adjoint`]: the
    /// gradient half of the pair is the same backward sweep.
    GaussNewton,
}

impl GradientMode {
    /// Stable snake_case mode name — the `mode` label on solve-outcome
    /// telemetry and the `otem_solve_outcome_total{mode,outcome}`
    /// metric family.
    pub const fn name(&self) -> &'static str {
        match self {
            GradientMode::Serial => "serial",
            GradientMode::Adjoint => "adjoint",
            GradientMode::GaussNewton => "gauss_newton",
        }
    }
}

/// A differentiable objective function `f: Rⁿ → R`.
///
/// Implementations may provide an analytic [`Objective::gradient`];
/// the default falls back to central finite differences via
/// [`NumericalGradient`].
pub trait Objective {
    /// Evaluates the objective at `x`.
    fn value(&self, x: &[f64]) -> f64;

    /// Writes `∇f(x)` into `grad`.
    ///
    /// The default implementation uses central finite differences
    /// (2·n extra evaluations).
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        NumericalGradient::central(self, x, grad);
    }
}

impl<T: Objective + ?Sized> Objective for &T {
    fn value(&self, x: &[f64]) -> f64 {
        (**self).value(x)
    }
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        (**self).gradient(x, grad);
    }
}

/// Wraps a closure as an [`Objective`] (finite-difference gradient).
///
/// ```
/// use otem_solver::{FnObjective, Objective};
/// let f = FnObjective::new(|x: &[f64]| x[0] * x[0]);
/// assert_eq!(f.value(&[3.0]), 9.0);
/// ```
pub struct FnObjective<F> {
    f: F,
}

impl<F> std::fmt::Debug for FnObjective<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnObjective").finish_non_exhaustive()
    }
}

impl<F: Fn(&[f64]) -> f64> FnObjective<F> {
    /// Wraps the closure.
    pub fn new(f: F) -> Self {
        Self { f }
    }
}

impl<F: Fn(&[f64]) -> f64> Objective for FnObjective<F> {
    fn value(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }
}

/// Wraps a value closure plus an analytic-gradient closure as an
/// [`Objective`] — avoids the 2·n finite-difference evaluations when the
/// gradient is known in closed form.
///
/// ```
/// use otem_solver::{FnObjectiveWithGrad, Objective};
/// let f = FnObjectiveWithGrad::new(
///     |x: &[f64]| x[0] * x[0],
///     |x: &[f64], g: &mut [f64]| g[0] = 2.0 * x[0],
/// );
/// let mut g = [0.0];
/// f.gradient(&[3.0], &mut g);
/// assert_eq!(g[0], 6.0);
/// ```
pub struct FnObjectiveWithGrad<F, G> {
    f: F,
    g: G,
}

impl<F, G> std::fmt::Debug for FnObjectiveWithGrad<F, G> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnObjectiveWithGrad")
            .finish_non_exhaustive()
    }
}

impl<F: Fn(&[f64]) -> f64, G: Fn(&[f64], &mut [f64])> FnObjectiveWithGrad<F, G> {
    /// Wraps the closures.
    pub fn new(f: F, g: G) -> Self {
        Self { f, g }
    }
}

impl<F: Fn(&[f64]) -> f64, G: Fn(&[f64], &mut [f64])> Objective for FnObjectiveWithGrad<F, G> {
    fn value(&self, x: &[f64]) -> f64 {
        (self.f)(x)
    }
    fn gradient(&self, x: &[f64], grad: &mut [f64]) {
        (self.g)(x, grad);
    }
}

/// Central finite-difference gradient helper.
#[derive(Debug, Clone, Copy)]
pub struct NumericalGradient;

impl NumericalGradient {
    /// Relative step size for central differences (∛ε scaled).
    pub const REL_STEP: f64 = 6.055_454_452_393_343e-6; // cbrt(f64::EPSILON)

    /// Writes the central-difference gradient of `f` at `x` into `grad`.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != x.len()`.
    pub fn central<F: Objective + ?Sized>(f: &F, x: &[f64], grad: &mut [f64]) {
        assert_eq!(grad.len(), x.len(), "gradient buffer length mismatch");
        let mut xp = x.to_vec();
        Self::central_with(&mut xp, grad, |z| f.value(z));
    }

    /// Central differences through a caller-owned scratch point and
    /// evaluator — the kernel behind [`NumericalGradient::central`].
    ///
    /// `xp` is a scratch copy of the evaluation point; it is perturbed
    /// one coordinate at a time and restored exactly, so after the call
    /// it again equals the input point bit-for-bit.
    ///
    /// `eval` is `FnMut` so callers can route evaluations through
    /// mutable scratch state (e.g. a reusable plant model) without
    /// interior mutability.
    ///
    /// # Panics
    ///
    /// Panics if `grad.len() != xp.len()`.
    pub fn central_with(xp: &mut [f64], grad: &mut [f64], mut eval: impl FnMut(&[f64]) -> f64) {
        assert_eq!(grad.len(), xp.len(), "gradient buffer length mismatch");
        for (i, g) in grad.iter_mut().enumerate() {
            let orig = xp[i];
            let h = Self::REL_STEP * orig.abs().max(1.0);
            xp[i] = orig + h;
            let fp = eval(xp);
            xp[i] = orig - h;
            let fm = eval(xp);
            xp[i] = orig;
            *g = (fp - fm) / (2.0 * h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finite_difference_matches_analytic_on_quadratic() {
        let f = FnObjective::new(|x: &[f64]| 2.0 * x[0] * x[0] + 3.0 * x[1] + x[0] * x[1]);
        let x = [1.5, -2.0];
        let mut grad = [0.0; 2];
        f.gradient(&x, &mut grad);
        // ∂f/∂x0 = 4·x0 + x1 = 4, ∂f/∂x1 = 3 + x0 = 4.5
        assert!((grad[0] - 4.0).abs() < 1e-6, "{grad:?}");
        assert!((grad[1] - 4.5).abs() < 1e-6, "{grad:?}");
    }

    #[test]
    fn gradient_of_nonsmooth_scale_is_stable() {
        // Large-magnitude coordinates must still get sensible steps.
        let f = FnObjective::new(|x: &[f64]| x[0].powi(2) / 1e8);
        let x = [1e6];
        let mut grad = [0.0];
        f.gradient(&x, &mut grad);
        assert!((grad[0] - 2.0 * 1e6 / 1e8).abs() < 1e-4);
    }

    #[test]
    fn analytic_gradient_bypasses_finite_differences() {
        use std::cell::Cell as StdCell;
        let value_calls = StdCell::new(0usize);
        let f = FnObjectiveWithGrad::new(
            |x: &[f64]| {
                value_calls.set(value_calls.get() + 1);
                x[0] * x[0]
            },
            |x: &[f64], g: &mut [f64]| g[0] = 2.0 * x[0],
        );
        let mut grad = [0.0];
        f.gradient(&[4.0], &mut grad);
        assert_eq!(grad[0], 8.0);
        assert_eq!(value_calls.get(), 0, "gradient must not evaluate f");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_buffer_panics() {
        let f = FnObjective::new(|x: &[f64]| x[0]);
        let mut grad = [0.0; 2];
        NumericalGradient::central(&f, &[1.0], &mut grad);
    }

    #[test]
    fn central_with_restores_scratch_point() {
        let x = [1.0, -2.0, 3.5];
        let mut xp = x.to_vec();
        let mut grad = [0.0; 3];
        NumericalGradient::central_with(&mut xp, &mut grad, |z| z.iter().sum());
        assert_eq!(xp, x);
        assert!(grad.iter().all(|g| (g - 1.0).abs() < 1e-9), "{grad:?}");
    }
}
