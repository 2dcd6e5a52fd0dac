//! Per-layer counters, folded from the `RunReport`s of the traced reps,
//! and the names and units of every metric the benchmark prints.

use mgc_core::GcStats;
use mgc_numa::AccessClass;
use mgc_runtime::RunReport;

/// End-to-end metrics, printed with `--trace 0`: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_cpu_s", "s"),
    ("run_1v_cpu_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed with `--trace 1`: `(name, unit)`. A counter a
/// workload does not exercise reads 0 (the threaded backend keeps no
/// simulated traffic ledger or model curve).
pub const PER_LAYER: &[(&str, &str)] = &[
    // mgc-core
    ("core.minor.count", "count"),
    ("core.major.count", "count"),
    ("core.global.count", "count"),
    ("core.minor.pause_ms", "ms"),
    ("core.major.pause_ms", "ms"),
    ("core.global.pause_ms", "ms"),
    ("core.minor.copied_mb", "MB"),
    ("core.major.promoted_mb", "MB"),
    ("core.global.copied_mb", "MB"),
    ("core.gc_share", "share"),
    ("core.pause_max_ms", "ms"),
    ("core.op.minor_ns_per_kb", "ns/KB"),
    ("core.op.major_ns_per_kb", "ns/KB"),
    ("core.op.forward_ns_per_word", "ns/word"),
    ("core.op.scan_ns_per_word", "ns/word"),
    ("core.op.seq_global_ns_per_kb", "ns/KB"),
    // mgc-heap
    ("heap.alloc.objects", "count"),
    ("heap.alloc.mb", "MB"),
    ("heap.promote.count", "count"),
    ("heap.promote.mb", "MB"),
    ("heap.promote.at_steal", "count"),
    ("heap.promote.at_publish", "count"),
    ("heap.promote.remote_share", "share"),
    ("heap.op.bump_alloc_ns", "ns"),
    ("heap.op.global_read_ns", "ns"),
    ("heap.op.promote_ns_per_word", "ns/word"),
    ("heap.op.chunk_acquire_ns", "ns"),
    // mgc-runtime
    ("runtime.tasks", "count"),
    ("runtime.steals", "count"),
    ("runtime.steal.declined_share", "share"),
    ("runtime.steal.cross_node_share", "share"),
    ("runtime.non_gc_ms", "ms"),
    ("runtime.sim.rounds", "count"),
    // mgc-numa
    ("numa.traffic.local_mb", "MB"),
    ("numa.traffic.same_package_mb", "MB"),
    ("numa.traffic.cross_package_mb", "MB"),
    ("numa.placement_switches", "count"),
    ("numa.model.speedup_48v.dmm", "x"),
    ("numa.model.speedup_48v.raytracer", "x"),
    ("numa.model.speedup_48v.quicksort", "x"),
    ("numa.model.speedup_48v.barnes-hut", "x"),
    ("numa.model.speedup_48v.smvm", "x"),
    // mgc-workloads
    ("workloads.reference_ms", "ms"),
    // the benchmark itself
    ("bench.failed_share", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.span_coverage_share", "share"),
    ("bench.run_wall_s", "s"),
    ("bench.run_1v_wall_s", "s"),
    ("bench.host_steal_share", "share"),
];

/// Counters summed over a set of runs.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// Runs folded in.
    pub runs: u64,
    /// Σ elapsed ns × vprocs: the vproc time available to the mutator and
    /// the collector together (wall clock on the threaded backend, virtual
    /// time on the simulated one).
    pub vproc_ns: f64,
    /// Collector statistics, merged.
    pub gc: GcStats,
    /// The longest single pause of any run.
    pub pause_max_ns: f64,
    /// Objects allocated.
    pub allocated_objects: u64,
    /// Words allocated.
    pub allocated_words: u64,
    /// Promotions at a steal handoff.
    pub promotions_at_steal: u64,
    /// Promotions at a publication (channel send, join result, ...).
    pub promotions_at_publish: u64,
    /// Promoted bytes that landed on the consumer's node.
    pub promoted_local_bytes: u64,
    /// Promoted bytes that landed on another node.
    pub promoted_remote_bytes: u64,
    /// Tasks run.
    pub tasks: u64,
    /// Successful steals.
    pub steals: u64,
    /// Steals from another NUMA node.
    pub steals_cross_node: u64,
    /// Steal requests a victim served.
    pub steal_served: u64,
    /// Steal requests a victim declined.
    pub steal_declined: u64,
    /// Simulated scheduling rounds.
    pub rounds: u64,
    /// Simulated memory traffic by class (mutator plus collector), bytes.
    pub traffic: [u64; 3],
    /// Placement-policy switches of the adaptive controller.
    pub placement_switches: u64,
}

impl LayerTotals {
    /// Folds one finished run into the totals.
    pub fn add(&mut self, report: &RunReport) {
        self.runs += 1;
        self.vproc_ns += report.elapsed_ns * report.vprocs as f64;
        self.gc.merge(&report.gc);
        self.pause_max_ns = self.pause_max_ns.max(report.max_pause_ns());
        self.allocated_objects += report.allocated_objects;
        self.allocated_words += report.allocated_words;
        self.promotions_at_steal += report.promotions_at_steal();
        self.promotions_at_publish += report.promotions_at_publish();
        self.promoted_local_bytes += report.promoted_bytes_local();
        self.promoted_remote_bytes += report.promoted_bytes_remote();
        self.tasks += report.total_tasks();
        self.steals += report.total_steals();
        self.steals_cross_node += report.steals_cross_node();
        self.steal_served += report.steal_requests_served();
        self.steal_declined += report.steal_requests_declined();
        self.rounds += report.rounds;
        for (slot, class) in self.traffic.iter_mut().zip(AccessClass::ALL) {
            *slot += report.traffic.bytes_of(class);
        }
        self.placement_switches += report.placement_switches();
    }

    /// Mean words per allocated object (1 when nothing was allocated).
    pub fn mean_object_words(&self) -> usize {
        if self.allocated_objects == 0 {
            return 1;
        }
        ((self.allocated_words as f64 / self.allocated_objects as f64).round() as usize).max(1)
    }

    /// The per-layer counters, as `(name, value)` pairs, each a mean per run
    /// (or a ratio of sums for shares). Probe results, model speedups and
    /// bench bookkeeping are added by the caller.
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        let runs = self.runs.max(1) as f64;
        let per_run = |x: f64| x / runs;
        let ms = |ns: f64| ns / 1e6 / runs;
        let mb = |bytes: u64| bytes as f64 / (1024.0 * 1024.0) / runs;
        let share = |part: f64, whole: f64| if whole > 0.0 { part / whole } else { 0.0 };
        let gc = &self.gc;
        let pause_ns = gc.total_pause_ns();
        let promoted = self.promoted_local_bytes + self.promoted_remote_bytes;
        vec![
            ("core.minor.count", per_run(gc.minor_collections as f64)),
            ("core.major.count", per_run(gc.major_collections as f64)),
            ("core.global.count", per_run(gc.global_collections as f64)),
            ("core.minor.pause_ms", ms(gc.minor_pauses.sum_ns)),
            ("core.major.pause_ms", ms(gc.major_pauses.sum_ns)),
            ("core.global.pause_ms", ms(gc.global_pauses.sum_ns)),
            ("core.minor.copied_mb", mb(gc.minor_copied_bytes)),
            ("core.major.promoted_mb", mb(gc.major_promoted_bytes)),
            ("core.global.copied_mb", mb(gc.global_copied_bytes)),
            ("core.gc_share", share(pause_ns, self.vproc_ns)),
            ("core.pause_max_ms", self.pause_max_ns / 1e6),
            ("heap.alloc.objects", per_run(self.allocated_objects as f64)),
            ("heap.alloc.mb", mb(self.allocated_words * 8)),
            ("heap.promote.count", per_run(gc.promotions as f64)),
            ("heap.promote.mb", mb(promoted)),
            (
                "heap.promote.at_steal",
                per_run(self.promotions_at_steal as f64),
            ),
            (
                "heap.promote.at_publish",
                per_run(self.promotions_at_publish as f64),
            ),
            (
                "heap.promote.remote_share",
                share(self.promoted_remote_bytes as f64, promoted as f64),
            ),
            ("runtime.tasks", per_run(self.tasks as f64)),
            ("runtime.steals", per_run(self.steals as f64)),
            (
                "runtime.steal.declined_share",
                share(
                    self.steal_declined as f64,
                    (self.steal_served + self.steal_declined) as f64,
                ),
            ),
            (
                "runtime.steal.cross_node_share",
                share(self.steals_cross_node as f64, self.steals as f64),
            ),
            ("runtime.non_gc_ms", ms(self.vproc_ns - pause_ns)),
            ("runtime.sim.rounds", per_run(self.rounds as f64)),
            ("numa.traffic.local_mb", mb(self.traffic[0])),
            ("numa.traffic.same_package_mb", mb(self.traffic[1])),
            ("numa.traffic.cross_package_mb", mb(self.traffic[2])),
            (
                "numa.placement_switches",
                per_run(self.placement_switches as f64),
            ),
        ]
    }
}
