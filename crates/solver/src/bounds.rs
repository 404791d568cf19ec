//! Box constraints and projection.

use serde::{Deserialize, Serialize};

/// Per-coordinate box constraints `lower ≤ x ≤ upper`.
///
/// ```
/// use otem_solver::Bounds;
/// let b = Bounds::new(vec![-1.0; 3], vec![1.0; 3]);
/// let mut x = vec![-5.0, 0.2, 9.0];
/// b.project(&mut x);
/// assert_eq!(x, vec![-1.0, 0.2, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
}

impl Bounds {
    /// Builds per-coordinate bounds.
    ///
    /// # Panics
    ///
    /// Panics if the vectors have different lengths or any
    /// `lower[i] > upper[i]`.
    pub fn new(lower: Vec<f64>, upper: Vec<f64>) -> Self {
        assert_eq!(lower.len(), upper.len(), "bounds length mismatch");
        for (i, (lo, hi)) in lower.iter().zip(&upper).enumerate() {
            assert!(lo <= hi, "bounds inverted at coordinate {i}: {lo} > {hi}");
        }
        Self { lower, upper }
    }

    /// Problem dimension.
    pub fn len(&self) -> usize {
        self.lower.len()
    }

    /// `true` when the dimension is zero.
    pub fn is_empty(&self) -> bool {
        self.lower.is_empty()
    }

    /// Lower bounds.
    pub fn lower(&self) -> &[f64] {
        &self.lower
    }

    /// Upper bounds.
    pub fn upper(&self) -> &[f64] {
        &self.upper
    }

    /// Projects `x` into the box in place.
    pub fn project(&self, x: &mut [f64]) {
        for i in 0..x.len().min(self.lower.len()) {
            x[i] = x[i].clamp(self.lower[i], self.upper[i]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn projection_is_idempotent() {
        let b = Bounds::new(vec![0.0, -2.0], vec![1.0, 2.0]);
        let mut x = vec![5.0, -3.0];
        b.project(&mut x);
        assert_eq!(x, vec![1.0, -2.0]);
        let before = x.clone();
        b.project(&mut x);
        assert_eq!(x, before);
    }

    #[test]
    fn unbounded_box_is_identity() {
        let b = Bounds::new(vec![f64::NEG_INFINITY; 2], vec![f64::INFINITY; 2]);
        let mut x = vec![1e300, -1e300];
        b.project(&mut x);
        assert_eq!(x, vec![1e300, -1e300]);
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn inverted_bounds_panic() {
        let _ = Bounds::new(vec![1.0], vec![0.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_bounds_panic() {
        let _ = Bounds::new(vec![1.0], vec![0.0, 1.0]);
    }
}
