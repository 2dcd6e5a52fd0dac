//! Workload scaling.
//!
//! The paper's inputs (§4.1) are sized for a 48-core, 128 GB machine; running
//! them at full size inside a discrete-event simulator is possible but slow,
//! so every workload accepts a [`Scale`] factor. `Scale::paper()` reproduces
//! the published input sizes; the benchmark harness defaults to a smaller
//! scale that preserves every qualitative behaviour (allocation rate, data
//! sharing pattern, sequential fractions).

/// A multiplicative scale factor applied to workload input sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Scale {
    /// The paper's published input sizes.
    pub fn paper() -> Self {
        Scale(1.0)
    }

    /// Roughly 1/20 of the paper's sizes: the default for the figure
    /// harness.
    pub fn small() -> Self {
        Scale(0.05)
    }

    /// The CI benchmark preset. Unlike the other scales this is *not* a
    /// uniform shrink factor: the workloads' per-unit costs differ by four
    /// orders of magnitude, so each workload maps this preset to a
    /// hand-balanced input size (see the `bench` constants in each module)
    /// chosen so a single-vproc run takes roughly 50–500 ms on one core —
    /// large enough that real compute dominates scheduling and collection
    /// overhead (so speedup curves are meaningful), small enough that the
    /// full sweep fits a CI runner's time budget. Any size helper that is
    /// not explicitly balanced falls back to treating the preset as a
    /// uniform factor.
    pub fn bench() -> Self {
        Scale(0.02)
    }

    /// Whether this scale is the [`Scale::bench`] preset; workload size
    /// helpers use this to substitute their hand-balanced benchmark input.
    pub fn is_bench(&self) -> bool {
        *self == Scale::bench()
    }

    /// Very small inputs for unit tests.
    pub fn tiny() -> Self {
        Scale(0.004)
    }

    /// Scales a paper-sized quantity, with a floor so nothing degenerates to
    /// zero.
    pub fn apply(&self, paper_size: usize, min: usize) -> usize {
        ((paper_size as f64 * self.0).round() as usize).max(min)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_is_identity() {
        assert_eq!(Scale::paper().apply(400_000, 1), 400_000);
    }

    #[test]
    fn small_scale_shrinks_with_floor() {
        assert_eq!(Scale::small().apply(100, 32), 32);
        assert_eq!(Scale::tiny().apply(10_000_000, 1), 40_000);
    }

    #[test]
    fn default_is_small() {
        assert_eq!(Scale::default(), Scale::small());
    }
}
