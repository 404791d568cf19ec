//! Box constraints, projection and the block partition of the
//! coordinates.

use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Per-coordinate box constraints `lower ≤ x ≤ upper`, with the
/// coordinates split into contiguous blocks.
///
/// A block is a group of coordinates that share one scale, such as one
/// physical actuator over a horizon. [`crate::ProjectedGradient`] keeps
/// one step length per block. [`Bounds::new`] makes one block of every
/// coordinate; [`Bounds::partitioned_at`] splits it.
///
/// ```
/// use otem_solver::Bounds;
/// let b = Bounds::new(vec![-1.0; 3], vec![1.0; 3]);
/// let mut x = vec![-5.0, 0.2, 9.0];
/// b.project(&mut x);
/// assert_eq!(x, vec![-1.0, 0.2, 1.0]);
///
/// // One block for the first coordinate, one for the other two.
/// let b = b.partitioned_at(&[1]);
/// assert_eq!(b.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bounds {
    lower: Vec<f64>,
    upper: Vec<f64>,
    /// Block boundaries: `0`, the interior split points, then `len()`.
    fences: Vec<usize>,
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
        let fences = vec![0, lower.len()];
        Self {
            lower,
            upper,
            fences,
        }
    }

    /// Splits the coordinates into contiguous blocks that begin at
    /// `0` and at each of `splits`.
    ///
    /// # Panics
    ///
    /// Panics unless `splits` is strictly ascending and every split lies
    /// strictly inside `0..len()` (no empty block).
    pub fn partitioned_at(mut self, splits: &[usize]) -> Self {
        let mut fences = Vec::with_capacity(splits.len() + 2);
        fences.push(0);
        fences.extend_from_slice(splits);
        fences.push(self.len());
        assert!(
            fences.windows(2).all(|w| w[0] < w[1]),
            "block splits {splits:?} must ascend strictly inside 0..{}",
            self.len()
        );
        self.fences = fences;
        self
    }

    /// The coordinate blocks, in order; together they cover `0..len()`.
    pub(crate) fn blocks(&self) -> impl ExactSizeIterator<Item = Range<usize>> + '_ {
        self.fences.windows(2).map(|w| w[0]..w[1])
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
    fn one_block_until_partitioned() {
        let b = Bounds::new(vec![0.0; 5], vec![1.0; 5]);
        assert_eq!(b.blocks().collect::<Vec<_>>(), vec![0..5]);
        let b = b.partitioned_at(&[2, 4]);
        assert_eq!(b.blocks().collect::<Vec<_>>(), vec![0..2, 2..4, 4..5]);
    }

    #[test]
    #[should_panic(expected = "must ascend strictly")]
    fn empty_block_panics() {
        let _ = Bounds::new(vec![0.0; 4], vec![1.0; 4]).partitioned_at(&[2, 2]);
    }

    #[test]
    #[should_panic(expected = "must ascend strictly")]
    fn split_past_the_end_panics() {
        let _ = Bounds::new(vec![0.0; 4], vec![1.0; 4]).partitioned_at(&[4]);
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
