//! The objective-function abstraction, and the finite-difference
//! gradient the solver's tests difference their objectives with.

/// A differentiable objective function `f: Rⁿ → R`.
pub trait Objective {
    /// Evaluates the objective at `x`.
    fn value(&self, x: &[f64]) -> f64;

    /// Writes `∇f(x)` into `grad`.
    fn gradient(&self, x: &[f64], grad: &mut [f64]);
}

/// Central finite-difference gradient helper for test objectives
/// without an analytic gradient.
#[cfg(test)]
pub(crate) struct NumericalGradient;

#[cfg(test)]
impl NumericalGradient {
    /// Relative step size for central differences (∛ε scaled).
    pub const REL_STEP: f64 = 6.055_454_452_393_343e-6; // cbrt(f64::EPSILON)

    /// Writes the central-difference gradient at the point `xp` into
    /// `grad`, evaluating through `eval` (`2·n` evaluations).
    ///
    /// `xp` is a scratch copy of the evaluation point; it is perturbed
    /// one coordinate at a time and restored exactly, so after the call
    /// it again equals the input point bit-for-bit.
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
        let mut x = [1.5, -2.0];
        let mut grad = [0.0; 2];
        NumericalGradient::central_with(&mut x, &mut grad, |x| {
            2.0 * x[0] * x[0] + 3.0 * x[1] + x[0] * x[1]
        });
        // ∂f/∂x0 = 4·x0 + x1 = 4, ∂f/∂x1 = 3 + x0 = 4.5
        assert!((grad[0] - 4.0).abs() < 1e-6, "{grad:?}");
        assert!((grad[1] - 4.5).abs() < 1e-6, "{grad:?}");
    }

    #[test]
    fn gradient_of_nonsmooth_scale_is_stable() {
        // Large-magnitude coordinates must still get sensible steps.
        let mut x = [1e6];
        let mut grad = [0.0];
        NumericalGradient::central_with(&mut x, &mut grad, |x| x[0].powi(2) / 1e8);
        assert!((grad[0] - 2.0 * 1e6 / 1e8).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_buffer_panics() {
        let mut grad = [0.0; 2];
        NumericalGradient::central_with(&mut [1.0], &mut grad, |x| x[0]);
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
