//! Gauss-Newton / projected-gradient parity suite.
//!
//! Synthetic least-squares objectives with known minimisers pin the
//! contract of the second-order mode: on ill-conditioned problems
//! [`GaussNewton`] reaches the same box-constrained minimiser as the
//! first-order spectral method within tight tolerance and in strictly
//! fewer iterations; degenerate curvature (singular `JᵀJ`, zero
//! residual) degrades gracefully — finite iterates, no stalls into NaN.

use otem_solver::{Bounds, DenseLeastSquares, GaussNewton, ProjectedGradient, SolverOutcome};
use proptest::prelude::*;

/// A diagonal least-squares bowl `Σ sᵢ (xᵢ − cᵢ)²` encoded as
/// `‖Ax − b‖²` with `A = diag(√sᵢ)`, `b = √sᵢ·cᵢ`.
fn bowl(scales: &[f64], center: &[f64]) -> DenseLeastSquares {
    let n = scales.len();
    let mut a = vec![0.0; n * n];
    let mut b = vec![0.0; n];
    for i in 0..n {
        a[i * n + i] = scales[i].sqrt();
        b[i] = scales[i].sqrt() * center[i];
    }
    DenseLeastSquares::new(n, a, b)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Ill-conditioned valleys (condition number ≥ 100 by
    /// construction): the curvature-aware solver must find the same
    /// interior minimiser and pay strictly fewer iterations than
    /// spectral descent.
    #[test]
    fn ill_conditioned_bowls_agree_in_strictly_fewer_iterations(
        c0 in -0.8..0.8f64,
        c1 in -0.8..0.8f64,
        c2 in -0.8..0.8f64,
        s0 in 1.0..3.0f64,
        s1 in 30.0..100.0f64,
        s2 in 300.0..3000.0f64,
        x0 in prop::collection::vec(-1.0..1.0f64, 3),
    ) {
        let f = bowl(&[s0, s1, s2], &[c0, c1, c2]);
        let bounds = Bounds::uniform(3, -1.0, 1.0);
        let gn = GaussNewton::default().minimize(&f, &bounds, &x0);
        let pg = ProjectedGradient::default().minimize(&f, &bounds, &x0);
        prop_assert_eq!(gn.outcome, SolverOutcome::Converged);
        prop_assert_eq!(pg.outcome, SolverOutcome::Converged);
        // Shared tolerance 1e-8 on the projected-gradient norm with
        // curvature ≥ 2 per coordinate ⇒ each solver sits within 5e-9
        // of the center, so the two minimisers match within 1e-8.
        for ((a, b), c) in gn.x.iter().zip(&pg.x).zip([c0, c1, c2]) {
            prop_assert!((a - b).abs() <= 1e-8, "minimisers diverge: {} vs {}", a, b);
            prop_assert!((a - c).abs() <= 1e-8, "missed the center: {} vs {}", a, c);
        }
        prop_assert!(
            gn.iterations < pg.iterations,
            "GN {} iterations, PG {}", gn.iterations, pg.iterations
        );
    }

    /// Clamp-active corners: the unconstrained minimiser sits outside
    /// the box, so the solution lives on the active set. Both solvers
    /// must land on the same clamped point, and the second-order step
    /// must never need more iterations than first-order descent.
    #[test]
    fn clamp_active_corners_land_on_the_same_face(
        c0 in 1.2..3.0f64,
        c1 in -3.0..-1.2f64,
        c2 in -0.6..0.6f64,
        s0 in 1.0..5.0f64,
        s1 in 50.0..200.0f64,
        s2 in 2.0..20.0f64,
        x0 in prop::collection::vec(-1.0..1.0f64, 3),
    ) {
        let f = bowl(&[s0, s1, s2], &[c0, c1, c2]);
        let bounds = Bounds::uniform(3, -1.0, 1.0);
        let gn = GaussNewton::default().minimize(&f, &bounds, &x0);
        let pg = ProjectedGradient::default().minimize(&f, &bounds, &x0);
        prop_assert_eq!(gn.outcome, SolverOutcome::Converged);
        prop_assert_eq!(pg.outcome, SolverOutcome::Converged);
        // Separable QP over a box: the optimum is the clamped center.
        for ((a, b), c) in gn.x.iter().zip(&pg.x).zip([c0, c1, c2]) {
            let expect = c.clamp(-1.0, 1.0);
            prop_assert!((a - expect).abs() <= 1e-8, "corner missed: {} vs {}", a, expect);
            prop_assert!((a - b).abs() <= 1e-8);
        }
        prop_assert!(gn.iterations <= pg.iterations);
        prop_assert!(bounds.contains(&gn.x, 1e-12));
    }

    /// Singular `JᵀJ` (one residual row, two unknowns): the damping
    /// floor must keep every step finite, eliminate the residual, and
    /// end in a usable outcome — never NaN, never a panic.
    #[test]
    fn singular_jtj_degrades_gracefully(
        a0 in 0.5..2.0f64,
        a1 in 0.5..2.0f64,
        rhs in -1.0..1.0f64,
        x0 in prop::collection::vec(-2.0..2.0f64, 2),
    ) {
        let f = DenseLeastSquares::new(2, vec![a0, a1], vec![rhs]);
        let bounds = Bounds::uniform(2, -2.0, 2.0);
        let gn = GaussNewton::default().minimize(&f, &bounds, &x0);
        prop_assert!(gn.outcome.is_usable(), "{:?}", gn.outcome);
        prop_assert!(gn.x.iter().all(|v| v.is_finite()));
        prop_assert!(gn.value.is_finite());
        // The flat valley a·x = rhs is reachable inside the box for the
        // sampled coefficients, so the residual must be driven out.
        prop_assert!(gn.value < 1e-10, "residual survived: {:?}", gn);
        prop_assert!(bounds.contains(&gn.x, 1e-12));
    }

    /// Zero-residual start: beginning exactly at the minimiser must
    /// declare convergence immediately — no step, no NaN from a
    /// zero-curvature/zero-gradient corner case.
    #[test]
    fn zero_residual_start_is_a_fixed_point(
        c0 in -0.9..0.9f64,
        c1 in -0.9..0.9f64,
        s0 in 0.5..10.0f64,
        s1 in 0.5..10.0f64,
    ) {
        let f = bowl(&[s0, s1], &[c0, c1]);
        let gn = GaussNewton::default().minimize(&f, &Bounds::uniform(2, -1.0, 1.0), &[c0, c1]);
        prop_assert_eq!(gn.outcome, SolverOutcome::Converged);
        prop_assert_eq!(gn.iterations, 0);
        prop_assert!(gn.value.abs() < 1e-20);
    }
}
