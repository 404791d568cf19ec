//! Projected Barzilai–Borwein spectral gradient descent for
//! box-constrained smooth minimisation — the workhorse behind the OTEM
//! MPC's per-step solve.

use crate::bounds::Bounds;
use crate::clock::Deadline;
use crate::objective::Objective;
use crate::solution::{Solution, SolverOutcome};
use otem_telemetry::{span, Event, Sink};
use serde::{Deserialize, Serialize};

/// Armijo sufficient-decrease parameter.
const ARMIJO: f64 = 1e-4;
/// SPG2's σ₁: a rejected trial shrinks `alpha` at most to this share of
/// itself (and at least to half).
const SIGMA1: f64 = 0.25;
/// History window for the non-monotone line search.
const MEMORY: usize = 8;
/// Lower safeguard on the BB step length.
const STEP_MIN: f64 = 1e-12;
/// Upper safeguard on the BB step length.
const STEP_MAX: f64 = 1e10;

/// Projected spectral (Barzilai–Borwein) gradient method with a
/// non-monotone Armijo safeguard (Birgin–Martínez–Raydan SPG), scaled
/// per block of the box's partition ([`Bounds::partitioned_at`]).
///
/// Each block keeps its own BB1 step `sᵀs/sᵀy`, taken over that block's
/// coordinates alone, so a block whose curvature is orders of magnitude
/// below its neighbour's is not held to the stiff block's step. The
/// trial point is `P(x − α·D·g)`, with `D` the block steps and `α`
/// starting at 1: scaled gradient projection (Bonettini, Zanella &
/// Zanni, 2009) with a block-diagonal scaling. On a one-block box this
/// is plain SPG, iterate for iterate.
///
/// A rejected trial backtracks by SPG2's safeguarded quadratic
/// interpolation (Birgin, Martínez & Raydan, 2000; Nocedal & Wright
/// §3.5): with `d = max(gᵀ(x − trial), 0)`, the next `α` minimises the
/// quadratic through `f(x)`, slope `−d/α` at the start and `f(trial)`,
/// `α_q = d·α / (2·(f(trial) − f(x) + d))`, clamped to `[σ₁·α, ½·α]`
/// with `σ₁ = ¼`. A non-finite trial value, or a model without a
/// minimiser, halves `α`.
///
/// Robust on the moderately ill-conditioned, smooth, box-constrained
/// problems the MPC transcription produces, with no linear algebra
/// beyond dot products.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProjectedGradient {
    /// Maximum outer iterations.
    pub max_iterations: usize,
    /// Convergence tolerance on the projected-gradient infinity norm.
    pub tolerance: f64,
}

impl ProjectedGradient {
    /// Minimises `f` over the box from the starting point `x0`
    /// (projected into the box first), with telemetry and an optional
    /// [`Deadline`]. Emits one [`Event::GradientEval`] per gradient
    /// evaluation into `sink`, each inside its `gradient` span
    /// (observation only — the iterates are bit-identical for any sink).
    ///
    /// The deadline is polled once per outer iteration, *after* the
    /// convergence check (meeting tolerance on the deadline iteration
    /// still reports [`SolverOutcome::Converged`]); on expiry the best
    /// iterate seen so far is returned with
    /// [`SolverOutcome::DeadlineReached`] — always finite and inside the
    /// box, and for a zero budget exactly the projected warm start with
    /// `iterations == 0`.
    ///
    /// # Panics
    ///
    /// Panics if `x0.len() != bounds.len()`.
    pub fn minimize_within<F: Objective + ?Sized>(
        &self,
        f: &F,
        bounds: &Bounds,
        x0: &[f64],
        sink: &dyn Sink,
        deadline: Option<&Deadline<'_>>,
    ) -> Solution {
        assert_eq!(x0.len(), bounds.len(), "start/bounds dimension mismatch");
        let gradient = |x: &[f64], g: &mut [f64]| {
            let _grad_span = span(sink, "gradient");
            f.gradient(x, g);
            sink.record(Event::GradientEval {
                dim: g.len() as u64,
            });
        };
        let n = x0.len();
        let mut x = x0.to_vec();
        bounds.project(&mut x);

        let mut grad = vec![0.0; n];
        let mut value = f.value(&x);
        if !value.is_finite() {
            // Corrupt problem data (e.g. a NaN in the forecast window):
            // surface it structurally instead of silently stalling.
            return Solution::new(x, value, 0, SolverOutcome::NonFinite);
        }
        gradient(&x, &mut grad);
        if grad.iter().any(|g| !g.is_finite()) {
            return Solution::new(x, value, 0, SolverOutcome::NonFinite);
        }

        // The last `MEMORY` accepted values, as a ring. Seeding every
        // slot with the start value gives the same maximum as a window
        // that grows from one entry.
        let mut history = [value; MEMORY];

        // One BB step per block, seeded with `1/max|g|` over the block.
        let mut steps: Vec<f64> = bounds
            .blocks()
            .map(|block| 1.0 / grad[block].iter().map(|g| g.abs()).fold(1e-12, f64::max))
            .collect();
        let mut x_prev = x.clone();
        let mut grad_prev = grad.clone();
        // Line-search trial point, allocated once for the whole solve —
        // the backtracking loop below runs up to 40 times per iteration.
        let mut trial = vec![0.0; n];

        for iter in 0..self.max_iterations {
            let _iter_span = span(sink, "iteration");
            // Projected-gradient stationarity measure.
            let pg_norm = (0..n)
                .map(|i| {
                    let trial = (x[i] - grad[i]).clamp(bounds.lower()[i], bounds.upper()[i]);
                    (trial - x[i]).abs()
                })
                .fold(0.0, f64::max);
            if pg_norm < self.tolerance {
                return Solution::new(x, value, iter, SolverOutcome::Converged);
            }
            // The deadline is polled after the convergence check so a
            // solve that meets tolerance exactly on the budget boundary
            // still reports success; `x` is the best accepted iterate
            // (the projected warm start at iter 0), so the anytime
            // contract — finite, in-box, no worse than the start —
            // holds by construction.
            if deadline.is_some_and(|d| d.expired()) {
                return Solution::new(x, value, iter, SolverOutcome::DeadlineReached);
            }

            // Trial point along the projected, block-scaled BB direction
            // with non-monotone backtracking on `alpha`.
            let f_ref = history.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let longest = steps
                .iter()
                .fold(0.0, |m: f64, s| m.max(s.clamp(STEP_MIN, STEP_MAX)));
            let mut alpha = 1.0;
            let mut accepted = false;
            let line_search = span(sink, "line_search");
            let (lower, upper) = (bounds.lower(), bounds.upper());
            for _ in 0..40 {
                // Build, project and price the trial in one pass, in index
                // order: the blocks tile `0..n` in order.
                let mut decrease = -0.0;
                for (block, step) in bounds.blocks().zip(&steps) {
                    let scaled = alpha * step.clamp(STEP_MIN, STEP_MAX);
                    for i in block {
                        let t = (x[i] - scaled * grad[i]).clamp(lower[i], upper[i]);
                        trial[i] = t;
                        decrease += grad[i] * (x[i] - t);
                    }
                }
                let decrease = f64::max(decrease, 0.0);
                let f_trial = f.value(&trial);
                if f_trial <= f_ref - ARMIJO * decrease {
                    // Rotate the buffers: `x_prev` takes `x`, `x` takes the
                    // trial, and the trial buffer is rewritten before it is
                    // read again. The next gradient overwrites `grad`.
                    std::mem::swap(&mut x_prev, &mut x);
                    std::mem::swap(&mut x, &mut trial);
                    std::mem::swap(&mut grad_prev, &mut grad);
                    value = f_trial;
                    accepted = true;
                    break;
                }
                alpha = backtrack(alpha, value, f_trial, decrease);
                if alpha * longest < STEP_MIN {
                    break;
                }
            }
            line_search.close();
            if !accepted {
                // Line search stalled: accept the best known point,
                // reporting the iterations actually performed — not the
                // configured budget — and a structured reason.
                let outcome = if !value.is_finite() {
                    SolverOutcome::NonFinite
                } else if pg_norm < self.tolerance * 100.0 {
                    SolverOutcome::Converged
                } else {
                    SolverOutcome::Stalled
                };
                return Solution::new(x, value, iter, outcome);
            }
            if iter + 1 == self.max_iterations {
                // Nothing reads the gradient or BB steps of the last
                // accepted iterate.
                break;
            }

            gradient(&x, &mut grad);
            // The `iter + 1`-th value after the start's overwrites the
            // oldest slot.
            history[(iter + 1) % MEMORY] = value;

            // BB1 step per block from the last displacement pair.
            for (block, step) in bounds.blocks().zip(steps.iter_mut()) {
                let mut sty = 0.0;
                let mut sts = 0.0;
                for i in block {
                    let s = x[i] - x_prev[i];
                    let y = grad[i] - grad_prev[i];
                    sty += s * y;
                    sts += s * s;
                }
                *step = if sty > 1e-300 {
                    (sts / sty).clamp(STEP_MIN, STEP_MAX)
                } else {
                    (*step * 2.0).clamp(STEP_MIN, STEP_MAX)
                };
            }
        }
        Solution::new(
            x,
            value,
            self.max_iterations,
            SolverOutcome::BudgetExhausted,
        )
    }
}

/// The `alpha` after a trial at `alpha` was rejected: the safeguarded
/// minimiser of the quadratic through `value` at 0, slope `−decrease/alpha`
/// there and `f_trial` at `alpha`, kept within `[σ₁·alpha, ½·alpha]`;
/// `½·alpha` when `f_trial` is not finite or the quadratic is not convex.
fn backtrack(alpha: f64, value: f64, f_trial: f64, decrease: f64) -> f64 {
    let curvature = f_trial - value + decrease;
    if f_trial.is_finite() && curvature > 0.0 {
        (decrease * alpha / (2.0 * curvature)).clamp(SIGMA1 * alpha, 0.5 * alpha)
    } else {
        0.5 * alpha
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::objective::NumericalGradient;
    use otem_telemetry::{MemorySink, NullSink};
    use proptest::prelude::*;

    /// A closure objective differenced by central finite differences.
    struct Fd<F>(F);

    impl<F: Fn(&[f64]) -> f64> Objective for Fd<F> {
        fn value(&self, x: &[f64]) -> f64 {
            (self.0)(x)
        }
        fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            NumericalGradient::central_with(&mut x.to_vec(), grad, &self.0);
        }
    }

    /// A solver with budget and tolerance to spare for these small
    /// problems.
    fn tight() -> ProjectedGradient {
        ProjectedGradient {
            max_iterations: 400,
            tolerance: 1e-8,
        }
    }

    fn rosenbrock() -> Fd<impl Fn(&[f64]) -> f64> {
        Fd(|x: &[f64]| 100.0 * (x[1] - x[0] * x[0]).powi(2) + (1.0 - x[0]).powi(2))
    }

    fn uniform(n: usize, lo: f64, hi: f64) -> Bounds {
        Bounds::new(vec![lo; n], vec![hi; n])
    }

    fn unbounded(n: usize) -> Bounds {
        uniform(n, f64::NEG_INFINITY, f64::INFINITY)
    }

    /// A solve with no telemetry and no deadline.
    fn minimize(
        solver: &ProjectedGradient,
        f: &impl Objective,
        bounds: &Bounds,
        x0: &[f64],
    ) -> Solution {
        solver.minimize_within(f, bounds, x0, &NullSink, None)
    }

    #[test]
    fn unconstrained_quadratic() {
        let f = Fd(|x: &[f64]| (x[0] - 1.0).powi(2) + 10.0 * (x[1] + 2.0).powi(2));
        let sol = minimize(&tight(), &f, &unbounded(2), &[5.0, 5.0]);
        assert_eq!(sol.outcome, SolverOutcome::Converged, "{sol:?}");
        assert!((sol.x[0] - 1.0).abs() < 1e-5);
        assert!((sol.x[1] + 2.0).abs() < 1e-5);
    }

    #[test]
    fn active_box_constraint() {
        // Minimum at x = 3 but box caps at 2.
        let f = Fd(|x: &[f64]| (x[0] - 3.0).powi(2));
        let sol = minimize(&tight(), &f, &uniform(1, -1.0, 2.0), &[0.0]);
        assert!((sol.x[0] - 2.0).abs() < 1e-8, "{sol:?}");
    }

    #[test]
    fn rosenbrock_2d() {
        let solver = ProjectedGradient {
            max_iterations: 5000,
            tolerance: 1e-10,
        };
        let sol = minimize(&solver, &rosenbrock(), &unbounded(2), &[-1.2, 1.0]);
        assert!((sol.x[0] - 1.0).abs() < 1e-4, "{sol:?}");
        assert!((sol.x[1] - 1.0).abs() < 1e-4, "{sol:?}");
    }

    #[test]
    fn high_dimensional_convex() {
        let n = 50;
        let f = Fd(|x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 + 1.0) * (v - 0.5).powi(2))
                .sum()
        });
        let sol = minimize(&tight(), &f, &uniform(n, 0.0, 1.0), &vec![0.0; n]);
        for (i, v) in sol.x.iter().enumerate() {
            assert!((v - 0.5).abs() < 1e-4, "coordinate {i} = {v}");
        }
    }

    #[test]
    fn starts_outside_box_are_projected() {
        let f = Fd(|x: &[f64]| x[0] * x[0]);
        let sol = minimize(&tight(), &f, &uniform(1, -1.0, 1.0), &[50.0]);
        assert!(sol.x[0].abs() < 1e-8);
    }

    #[test]
    fn budget_exhaustion_reports_not_converged() {
        let solver = ProjectedGradient {
            max_iterations: 3,
            tolerance: 1e-14,
        };
        let sol = minimize(&solver, &rosenbrock(), &unbounded(2), &[-1.2, 1.0]);
        assert_eq!(sol.outcome, SolverOutcome::BudgetExhausted);
        assert_eq!(sol.iterations, 3);
    }

    #[test]
    fn budget_exhausted_solve_skips_the_unread_final_gradient() {
        let solver = ProjectedGradient {
            max_iterations: 3,
            tolerance: 1e-14,
        };
        let sink = MemorySink::new();
        let sol = solver.minimize_within(&rosenbrock(), &unbounded(2), &[-1.2, 1.0], &sink, None);
        assert_eq!(sol.outcome, SolverOutcome::BudgetExhausted);
        // The initial gradient plus one per accepted iterate but the last.
        assert_eq!(sink.count_kind("gradient_eval"), sol.iterations);
    }

    #[test]
    fn zero_iteration_budget_reports_starved_not_full_budget() {
        // A starved solve must report the iterations actually performed
        // (zero), not the configured budget.
        let f = Fd(|x: &[f64]| (x[0] - 1.0).powi(2));
        let solver = ProjectedGradient {
            max_iterations: 0,
            ..tight()
        };
        let sol = minimize(&solver, &f, &unbounded(1), &[5.0]);
        assert_eq!(sol.iterations, 0);
        assert_eq!(sol.outcome, SolverOutcome::BudgetExhausted);
    }

    #[test]
    fn non_finite_objective_is_surfaced_structurally() {
        let f = Fd(|_: &[f64]| f64::NAN);
        let sol = minimize(&tight(), &f, &uniform(2, -1.0, 1.0), &[0.5, 0.5]);
        assert_eq!(sol.outcome, SolverOutcome::NonFinite);
        assert_eq!(sol.iterations, 0);
        assert!(sol.value.is_nan());
        // The returned point is the projected start, still finite.
        assert!(sol.x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn non_finite_gradient_is_surfaced_structurally() {
        struct InfiniteSlope;
        impl Objective for InfiniteSlope {
            fn value(&self, x: &[f64]) -> f64 {
                x[0] * x[0]
            }
            fn gradient(&self, _: &[f64], grad: &mut [f64]) {
                grad.fill(f64::INFINITY);
            }
        }
        let sol = minimize(&tight(), &InfiniteSlope, &uniform(1, -1.0, 1.0), &[0.5]);
        assert_eq!(sol.outcome, SolverOutcome::NonFinite);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        let f = Fd(|x: &[f64]| x[0]);
        minimize(&tight(), &f, &uniform(2, 0.0, 1.0), &[0.0]);
    }

    #[test]
    fn observed_solve_is_bit_identical_and_traces_every_iteration() {
        let f = rosenbrock();
        let bounds = uniform(2, -2.0, 2.0);
        let x0 = [-1.2, 1.0];
        let plain = minimize(&tight(), &f, &bounds, &x0);

        let sink = MemorySink::new();
        let observed = tight().minimize_within(&f, &bounds, &x0, &sink, None);
        assert_eq!(observed.iterations, plain.iterations);
        assert_eq!(observed.value.to_bits(), plain.value.to_bits());
        assert_eq!(
            observed.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            plain.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // One gradient per accepted iterate plus the initial gradient.
        assert_eq!(sink.count_kind("gradient_eval"), observed.iterations + 1);
    }

    #[test]
    fn zero_budget_deadline_returns_projected_warm_start() {
        // Interior optimum (x = 1), so the projected warm start x = 2 is
        // *not* a stationary point and a zero budget really does truncate.
        let f = Fd(|x: &[f64]| (x[0] - 1.0).powi(2));
        let clock = VirtualClock::new();
        let deadline = Deadline::after(&clock, 0);
        let sol = tight().minimize_within(
            &f,
            &uniform(1, -1.0, 2.0),
            &[5.0],
            &NullSink,
            Some(&deadline),
        );
        assert_eq!(sol.outcome, SolverOutcome::DeadlineReached);
        assert_eq!(sol.iterations, 0);
        // The returned point is the warm start projected into the box.
        assert_eq!(sol.x, vec![2.0]);
        assert!(sol.value.is_finite());
    }

    #[test]
    fn virtual_deadline_truncates_the_iterate_stream_deterministically() {
        let f = rosenbrock();
        let bounds = uniform(2, -2.0, 2.0);
        let x0 = [-1.2, 1.0];
        let unbounded = minimize(&tight(), &f, &bounds, &x0);
        assert!(unbounded.iterations > 10, "rig must need many iterations");

        // One tick per clock read: `after` consumes the first read, and
        // the poll at iteration k reads `k + 1`, so a 5-tick budget
        // expires at iteration 4 — deterministically, every run.
        let run = || {
            let clock = VirtualClock::with_tick(1);
            let deadline = Deadline::after(&clock, 5);
            tight().minimize_within(&f, &bounds, &x0, &NullSink, Some(&deadline))
        };
        let a = run();
        assert_eq!(a.outcome, SolverOutcome::DeadlineReached);
        assert_eq!(a.iterations, 4);
        assert!(a.value <= f.value(&x0), "anytime iterate must not regress");
        let b = run();
        assert_eq!(
            a.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(a.value.to_bits(), b.value.to_bits());
    }

    #[test]
    fn convergence_beats_the_deadline_on_the_boundary_iteration() {
        // Converges at iteration 2 (two accepted BB steps); a budget of
        // 3 ticks expires exactly there, but the convergence check runs
        // first and must win.
        let f = Fd(|x: &[f64]| (x[0] - 1.0).powi(2));
        let clock = VirtualClock::with_tick(1);
        let deadline = Deadline::after(&clock, 3);
        let sol = tight().minimize_within(&f, &unbounded(1), &[5.0], &NullSink, Some(&deadline));
        assert_eq!(sol.outcome, SolverOutcome::Converged, "{sol:?}");
    }

    /// `½·(x − target)²` in one dimension, recording every point it is
    /// valued at, optionally `NaN` beyond `nan_above`.
    struct Recorded {
        target: f64,
        nan_above: f64,
        valued_at: std::cell::RefCell<Vec<f64>>,
    }

    impl Recorded {
        fn new(target: f64) -> Self {
            Recorded {
                target,
                nan_above: f64::INFINITY,
                valued_at: Default::default(),
            }
        }

        /// The points valued after the start, in order.
        fn trials(&self) -> Vec<f64> {
            self.valued_at.borrow()[1..].to_vec()
        }
    }

    impl Objective for Recorded {
        fn value(&self, x: &[f64]) -> f64 {
            self.valued_at.borrow_mut().push(x[0]);
            if x[0] > self.nan_above {
                f64::NAN
            } else {
                0.5 * (x[0] - self.target).powi(2)
            }
        }
        fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            grad[0] = x[0] - self.target;
        }
    }

    /// From 0, the `1/|g|` seed step moves the one coordinate to 1, past
    /// the minimiser at `target`, so each trial of the first line search
    /// lies at its `α`.
    fn overshoot(f: &Recorded) -> Solution {
        minimize(&tight(), f, &unbounded(1), &[0.0])
    }

    #[test]
    fn first_backtrack_lands_on_the_line_minimiser_of_a_quadratic() {
        // The quadratic model is exact on a quadratic, so the interpolated
        // `α` is the minimiser 0.375 itself (halving would try 0.5), and
        // the next iteration finds a zero gradient there.
        let f = Recorded::new(0.375);
        let sol = overshoot(&f);
        let trials = f.trials();
        assert_eq!(trials.len(), 2, "{trials:?}");
        assert_eq!(trials[0], 1.0);
        assert!((trials[1] - 0.375).abs() < 1e-15, "{trials:?}");
        assert_eq!(sol.outcome, SolverOutcome::Converged, "{sol:?}");
        assert_eq!(sol.iterations, 1);
    }

    #[test]
    fn a_model_minimiser_below_the_safeguard_is_clamped_to_it() {
        // The model minimiser is α = 0.1, below σ₁·α = 0.25.
        let f = Recorded::new(0.1);
        overshoot(&f);
        assert_eq!(&f.trials()[..2], [1.0, SIGMA1]);
    }

    #[test]
    fn a_non_finite_trial_halves_alpha() {
        // The model through a finite trial would step to 0.375; the NaN
        // there leaves halving.
        let f = Recorded {
            nan_above: 0.9,
            ..Recorded::new(0.375)
        };
        let sol = overshoot(&f);
        assert_eq!(&f.trials()[..2], [1.0, 0.5]);
        assert!(sol.value.is_finite(), "{sol:?}");
    }

    /// FNV-1a over the bits of every coordinate.
    fn bits_hash(x: &[f64]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for byte in x.iter().flat_map(|v| v.to_bits().to_le_bytes()) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
        hash
    }

    /// A one-block box, whether built unpartitioned or partitioned at no
    /// split, takes the same iterates: those of plain, unscaled SPG with
    /// the interpolating backtrack, pinned bit for bit.
    #[test]
    fn one_block_partition_reproduces_the_unscaled_iterates() {
        let boxed = uniform(2, -2.0, 2.0);
        for bounds in [boxed.clone(), boxed.partitioned_at(&[])] {
            let sol = minimize(&tight(), &rosenbrock(), &bounds, &[-1.2, 1.0]);
            assert_eq!(sol.iterations, 74);
            assert_eq!(sol.value.to_bits(), 0x3c8f_7fce_4bb2_68e8);
            assert_eq!(
                sol.x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                [0x3fef_ffff_fc08_0b34, 0x3fef_ffff_f810_0f99]
            );
        }

        let n = 50;
        let f = Fd(|x: &[f64]| {
            x.iter()
                .enumerate()
                .map(|(i, &v)| (i as f64 + 1.0) * (v - 0.5).powi(2))
                .sum()
        });
        let boxed = uniform(n, 0.0, 1.0);
        for bounds in [boxed.clone(), boxed.partitioned_at(&[])] {
            let sol = minimize(&tight(), &f, &bounds, &vec![0.0; n]);
            assert_eq!(sol.iterations, 93);
            assert_eq!(sol.value.to_bits(), 0x3c62_5120_7ab4_24e0);
            assert_eq!(bits_hash(&sol.x), 0x2ad2_60e2_ea20_04dc);
        }
    }

    /// `½·Σ cᵢ(xᵢ − tᵢ)²` with its analytic gradient.
    struct DiagonalQp {
        curvature: Vec<f64>,
        target: Vec<f64>,
    }

    impl Objective for DiagonalQp {
        fn value(&self, x: &[f64]) -> f64 {
            x.iter()
                .zip(&self.curvature)
                .zip(&self.target)
                .map(|((x, c), t)| 0.5 * c * (x - t).powi(2))
                .sum()
        }
        fn gradient(&self, x: &[f64], grad: &mut [f64]) {
            for (i, g) in grad.iter_mut().enumerate() {
                *g = self.curvature[i] * (x[i] - self.target[i]);
            }
        }
    }

    /// Coordinates per block of [`two_scale_qp`].
    const BLOCK: usize = 6;

    /// Two blocks shaped like the MPC's: shares in [−1, 1] with
    /// curvatures 3e4 × [1, 3.5], then duties in [0, 1] with curvatures
    /// [1, 3.5]. 3e4 is the median ratio of the MPC's two block BB
    /// steps on the stress rig.
    fn two_scale_qp() -> (DiagonalQp, Bounds) {
        let spread = |k: usize| 1.0 + 0.5 * k as f64;
        let curvature = (0..BLOCK)
            .map(|k| 3e4 * spread(k))
            .chain((0..BLOCK).map(spread))
            .collect();
        let target = (0..BLOCK)
            .map(|k| 0.3 - 0.1 * k as f64)
            .chain((0..BLOCK).map(|k| 0.1 + 0.15 * k as f64))
            .collect();
        let mut lower = vec![-1.0; BLOCK];
        lower.extend([0.0; BLOCK]);
        let bounds = Bounds::new(lower, vec![1.0; 2 * BLOCK]);
        (DiagonalQp { curvature, target }, bounds)
    }

    #[test]
    fn block_steps_converge_where_one_shared_step_crawls() {
        let (f, bounds) = two_scale_qp();
        let solver = ProjectedGradient {
            max_iterations: 40,
            ..tight()
        };
        let x0 = [0.0; 2 * BLOCK];

        let two = minimize(&solver, &f, &bounds.clone().partitioned_at(&[BLOCK]), &x0);
        assert_eq!(two.outcome, SolverOutcome::Converged, "{two:?}");
        assert!(two.iterations <= 25, "{two:?}");
        for (i, (x, t)) in two.x.iter().zip(&f.target).enumerate() {
            assert!((x - t).abs() < 1e-8, "x[{i}] = {x}, target {t}");
        }

        // One step for both blocks follows the stiff one, and the soft
        // block barely moves within the same budget.
        let one = minimize(&solver, &f, &bounds, &x0);
        assert_eq!(one.outcome, SolverOutcome::BudgetExhausted, "{one:?}");
        assert_eq!(one.iterations, 40);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn projected_gradient_solves_random_diagonal_qp(
            center in prop::collection::vec(-5.0..5.0f64, 2..10),
            scales in prop::collection::vec(0.1..50.0f64, 10),
            lo in -2.0..0.0f64,
            hi in 0.5..3.0f64,
        ) {
            let n = center.len();
            let f = Fd(|x: &[f64]| {
                x.iter()
                    .zip(center.iter().zip(&scales))
                    .map(|(&xi, (&ci, &si))| si * (xi - ci).powi(2))
                    .sum()
            });
            let sol = minimize(&tight(), &f, &uniform(n, lo, hi), &vec![0.0; n]);
            // Optimum of a separable QP over a box is the clamped center.
            for (i, (xi, ci)) in sol.x.iter().zip(&center).enumerate() {
                let expect = ci.clamp(lo, hi);
                prop_assert!(
                    (xi - expect).abs() < 1e-4,
                    "x[{i}] = {xi} expected {expect}"
                );
            }
        }

        #[test]
        fn solution_never_leaves_the_box(
            start in prop::collection::vec(-10.0..10.0f64, 4),
        ) {
            let f = Fd(|x: &[f64]| x.iter().map(|v| (v - 7.0).powi(2)).sum());
            let sol = minimize(&tight(), &f, &uniform(4, -1.0, 1.0), &start);
            prop_assert!(sol.x.iter().all(|v| (-1.0..=1.0).contains(v)), "{:?}", sol.x);
        }
    }
}
