//! Collector configuration and tuning knobs.

/// Configuration of the garbage collector's triggers and policies.
///
/// The defaults follow the paper, scaled down to the reproduction's smaller
/// workloads (the paper's global threshold is 32 MB per vproc on a machine
/// with 128 GB of RAM).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GcConfig {
    /// A minor collection triggers a major collection when the size of the
    /// freshly re-divided nursery falls below this fraction of the local
    /// heap (§3.3: "when the size of the new nursery area falls below a
    /// certain threshold").
    pub nursery_threshold_fraction: f64,
    /// A global collection is triggered when the bytes of global-heap chunks
    /// in use exceed `num_vprocs * global_threshold_per_vproc_bytes`
    /// (§3.4: "the number of vprocs times 32MB").
    pub global_threshold_per_vproc_bytes: usize,
    /// Ablation knob: when `true`, a major collection also promotes the
    /// young data instead of exempting it (disables the Appel optimisation
    /// the paper relies on to avoid premature promotion).
    pub promote_young_in_major: bool,
    /// Ablation knob: when `false`, freed global-heap chunks lose their node
    /// affinity and are handed to whichever vproc asks first.
    pub chunk_node_affinity: bool,
    /// Ablation knob (threaded backend): when `true`, every task pushed to a
    /// deque has its roots promoted eagerly at publication time — the
    /// pre-lazy-promotion behaviour. The default (`false`) promotes a task's
    /// roots only when the task is actually stolen (§3.1), so promotion
    /// volume is proportional to steals rather than spawns. The proptest
    /// suite uses the eager mode as the promotion-volume upper bound.
    pub eager_publication: bool,
    /// When `true`, the heap invariants (§2.3) are re-verified after every
    /// collection; expensive, intended for tests.
    pub verify_after_gc: bool,
    /// Soft per-increment pause budget for global collections, in
    /// microseconds. `None` (the default) preserves the classic behaviour:
    /// the whole collection is one stop-the-world increment. When set, the
    /// threaded backend splits the evacuation into budgeted increments and
    /// releases mutators between them, and the simulated backend models the
    /// same split by slicing each vproc's virtual collection cost into
    /// budget-sized pause increments. The budget bounds the Cheney-scan work
    /// per increment; the ramp-down local collection and root re-evacuation
    /// at the head of each increment add bounded slack on top.
    pub pause_budget_us: Option<u64>,
}

impl Default for GcConfig {
    fn default() -> Self {
        GcConfig {
            nursery_threshold_fraction: 0.20,
            global_threshold_per_vproc_bytes: 2 * 1024 * 1024,
            promote_young_in_major: false,
            chunk_node_affinity: true,
            eager_publication: false,
            verify_after_gc: false,
            pause_budget_us: None,
        }
    }
}

impl GcConfig {
    /// A configuration suitable for unit tests: small thresholds so every
    /// collection kind triggers quickly, and invariant verification enabled.
    pub fn small_for_tests() -> Self {
        GcConfig {
            nursery_threshold_fraction: 0.25,
            global_threshold_per_vproc_bytes: 32 * 1024,
            promote_young_in_major: false,
            chunk_node_affinity: true,
            eager_publication: false,
            verify_after_gc: true,
            pause_budget_us: None,
        }
    }

    /// The paper's configuration: 32 MB of global-heap chunks per vproc
    /// before a global collection is triggered.
    pub fn paper_scale() -> Self {
        GcConfig {
            global_threshold_per_vproc_bytes: 32 * 1024 * 1024,
            ..GcConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_design() {
        let c = GcConfig::default();
        assert!(!c.promote_young_in_major);
        assert!(c.chunk_node_affinity);
        assert!(c.nursery_threshold_fraction > 0.0 && c.nursery_threshold_fraction < 1.0);
    }

    #[test]
    fn paper_scale_uses_32mb_per_vproc() {
        assert_eq!(
            GcConfig::paper_scale().global_threshold_per_vproc_bytes,
            32 * 1024 * 1024
        );
    }

    #[test]
    fn test_config_verifies() {
        assert!(GcConfig::small_for_tests().verify_after_gc);
    }

    #[test]
    fn pause_budget_defaults_to_unbounded() {
        assert_eq!(GcConfig::default().pause_budget_us, None);
        assert_eq!(GcConfig::paper_scale().pause_budget_us, None);
    }
}
