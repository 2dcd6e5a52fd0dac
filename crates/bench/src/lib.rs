//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation section.
//!
//! | Artefact | Binary | What it reproduces |
//! |----------|--------|--------------------|
//! | Figure 4 | `fig4` | Speedups of the five benchmarks on the Intel Xeon machine |
//! | Figure 5 | `fig5` | Speedups on the AMD Opteron machine, local allocation |
//! | Figure 6 | `fig6` | Speedups on the AMD machine, interleaved allocation |
//! | Figure 7 | `fig7` | Speedups on the AMD machine, socket-zero allocation |
//! | Table 1  | `table1` | Modelled bandwidth between a node and the rest of the system |
//! | all      | `sweep` | Every figure plus Table 1, written as CSV under `results/` |
//!
//! Absolute speedups depend on the workload scale (the default is a scaled
//! down input set — set `MGC_SCALE=paper` for the published sizes); the
//! qualitative shape — which benchmarks scale, where they flatten, and how
//! the three allocation policies order — is the reproduction target.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mgc_heap::HeapConfig;
use mgc_numa::{AllocPolicy, PlacementPolicy, Topology};
use mgc_runtime::{run_records_json, Backend, EnvOverrides, Experiment, Program, RunRecord};
use mgc_server::{ServeParams, ServerProgram, SERVE_QUANTUM_NS};
use mgc_store::{RunMeta, Store, StoreError};
use mgc_workloads::churn::{Churn, ChurnParams};
use mgc_workloads::{speedup_series, Scale, SpeedupPoint, Workload};
use std::fmt::Write as _;

/// Description of one speedup figure.
#[derive(Debug, Clone)]
pub struct FigureSpec {
    /// Figure name, e.g. `"figure4"`.
    pub name: &'static str,
    /// Human-readable description.
    pub title: &'static str,
    /// The machine model.
    pub topology: Topology,
    /// The page/chunk placement policy.
    pub policy: AllocPolicy,
    /// Thread counts on the x axis.
    pub threads: Vec<usize>,
}

/// Figure 4: the Intel machine with local allocation.
pub fn figure4() -> FigureSpec {
    FigureSpec {
        name: "figure4",
        title: "Speedup on Intel Xeon X7560 (32 cores), local allocation",
        topology: Topology::intel_xeon_32(),
        policy: AllocPolicy::Local,
        threads: vec![1, 4, 8, 12, 16, 24, 32],
    }
}

/// Figure 5: the AMD machine with local allocation (the paper's default).
pub fn figure5() -> FigureSpec {
    FigureSpec {
        name: "figure5",
        title: "Speedup on AMD Opteron 6172 (48 cores), local allocation",
        topology: Topology::amd_magny_cours_48(),
        policy: AllocPolicy::Local,
        threads: vec![1, 4, 8, 12, 24, 36, 48],
    }
}

/// Figure 6: the AMD machine with interleaved allocation (GHC-style).
pub fn figure6() -> FigureSpec {
    FigureSpec {
        name: "figure6",
        title: "Speedup on AMD Opteron 6172 (48 cores), interleaved allocation",
        policy: AllocPolicy::Interleaved,
        ..figure5()
    }
}

/// Figure 7: the AMD machine with socket-zero allocation.
pub fn figure7() -> FigureSpec {
    FigureSpec {
        name: "figure7",
        title: "Speedup on AMD Opteron 6172 (48 cores), socket-zero allocation",
        policy: AllocPolicy::SocketZero,
        ..figure5()
    }
}

/// The series of one figure: a speedup curve per benchmark.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// The figure this data belongs to.
    pub spec_name: &'static str,
    /// `(benchmark, curve)` pairs in the paper's legend order.
    pub series: Vec<(Workload, Vec<SpeedupPoint>)>,
}

/// Runs every benchmark of a figure.
///
/// Speedups in Figures 6 and 7 are plotted relative to the *same*
/// single-thread baseline as Figure 5 (the paper plots them "relative to the
/// single-processor performance for the AMD machine in Figure 5"), which is
/// what `baseline_policy` arranges.
pub fn run_figure(spec: &FigureSpec, scale: Scale) -> FigureData {
    let series = Workload::FIGURES
        .iter()
        .map(|&workload| {
            let baseline = workload
                .experiment(scale)
                .topology(spec.topology.clone())
                .vprocs(1)
                .policy(AllocPolicy::Local)
                // Figures read timings only; skip the sequential reference
                // checksum each point would otherwise recompute.
                .verify_checksum(false)
                .run()
                .expect("figure baselines use one vproc")
                .report
                .elapsed_ns;
            let points = speedup_series(
                &spec.topology,
                &spec.threads,
                spec.policy,
                workload,
                scale,
                Some(baseline),
            );
            (workload, points)
        })
        .collect();
    FigureData {
        spec_name: spec.name,
        series,
    }
}

/// Formats a figure as an aligned text table (threads × benchmarks).
pub fn format_figure(spec: &FigureSpec, data: &FigureData) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# {} — {}", spec.name, spec.title);
    let _ = write!(out, "{:>8}", "threads");
    for (workload, _) in &data.series {
        let _ = write!(out, " {:>22}", workload.label());
    }
    let _ = writeln!(out);
    for (i, &threads) in spec.threads.iter().enumerate() {
        let _ = write!(out, "{threads:>8}");
        for (_, points) in &data.series {
            let _ = write!(out, " {:>22.2}", points[i].speedup);
        }
        let _ = writeln!(out);
    }
    out
}

/// Formats a figure as CSV (`benchmark,threads,speedup,elapsed_ns`).
pub fn figure_csv(data: &FigureData) -> String {
    let mut out = String::from("benchmark,threads,speedup,elapsed_ns\n");
    for (workload, points) in &data.series {
        for p in points {
            let _ = writeln!(
                out,
                "{},{},{:.4},{:.0}",
                workload.label(),
                p.threads,
                p.speedup,
                p.elapsed_ns
            );
        }
    }
    out
}

/// Reproduces Table 1: the modelled bandwidth between a single node and the
/// rest of the system, for both machines.
pub fn table1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Table 1 — theoretical bandwidth (GB/s) between a node and the rest of the system"
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>10}",
        "", "AMD (GB/s)", "Intel (GB/s)"
    );
    let amd = Topology::amd_magny_cours_48();
    let intel = Topology::intel_xeon_32();
    let (amd_local, amd_same, amd_cross) = amd.table1_bandwidths();
    let (intel_local, intel_same, intel_cross) = intel.table1_bandwidths();
    let fmt = |v: Option<f64>| v.map_or("n/a".to_string(), |x| format!("{x:.1}"));
    let _ = writeln!(
        out,
        "{:<28} {:>10.1} {:>10.1}",
        "Local Memory", amd_local, intel_local
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10} {:>10}",
        "Node in same package",
        fmt(amd_same),
        fmt(intel_same)
    );
    let _ = writeln!(
        out,
        "{:<28} {:>10.1} {:>10.1}",
        "Node on another package", amd_cross, intel_cross
    );
    out
}

// ----------------------------------------------------------------------
// Wall-clock baselines: the simulated and the threaded backend side by
// side. This is the sweep the `perf-gate` CI job appends to the results
// store and gates against the checked-in seed batch.
// ----------------------------------------------------------------------

/// Vproc counts the baseline sweep covers (the CI runners have few cores,
/// and the first perf question is simply "does adding threads help").
pub const BASELINE_VPROCS: [usize; 3] = [1, 2, 4];

/// Wall-clock repetitions per threaded baseline point; the sweep keeps the
/// median so a single noisy run on a loaded CI machine cannot flap the
/// perf gates.
pub const BASELINE_REPS: usize = 3;

/// Runs one baseline point through the [`Experiment`] front door. The
/// expected checksum usually means running a sequential reference of the
/// whole program, so the sweep verifies it only at the first vproc count
/// of each (program, backend) pair instead of recomputing it six times —
/// checksum stability across vproc counts is the equivalence suite's job.
///
/// Threaded points run [`BASELINE_REPS`] times and report the median
/// wall-clock record (the simulated backend's virtual clock is
/// deterministic, so one run suffices there).
fn baseline_point(
    make_program: &dyn Fn() -> Box<dyn Program>,
    backend: Backend,
    vprocs: usize,
    placement: PlacementPolicy,
) -> RunRecord {
    let run_once = |verify: bool| {
        Experiment::new(make_program())
            .backend(backend)
            .topology(Topology::dual_node_test())
            .vprocs(vprocs)
            .policy(AllocPolicy::Local)
            .placement(placement)
            .verify_checksum(verify)
            .run()
            .expect("baseline vproc counts fit the dual-node test topology")
    };
    let first = run_once(vprocs == BASELINE_VPROCS[0]);
    if backend != Backend::Threaded {
        return first;
    }
    // Only the first repetition pays for checksum verification; its verdict
    // is carried over to whichever repetition ends up the median.
    let checksum_ok = first.checksum_ok;
    let mut records = vec![first];
    for _ in 1..BASELINE_REPS {
        records.push(run_once(false));
    }
    records.sort_by(|a, b| {
        a.wall_clock_ns()
            .partial_cmp(&b.wall_clock_ns())
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut median = records.swap_remove(BASELINE_REPS / 2);
    median.checksum_ok = checksum_ok;
    median
}

/// Runs every figure workload — plus, when `churn` is given, the synthetic
/// churn benchmark with those parameters — at 1/2/4 vprocs under **both**
/// backends on the small test topology, so wall-clock and simulated time
/// can be read side by side. Every point is a full [`RunRecord`].
pub fn run_baseline(
    scale: Scale,
    churn: Option<ChurnParams>,
    placement: PlacementPolicy,
) -> Vec<RunRecord> {
    let mut points = Vec::new();
    for workload in Workload::FIGURES {
        for &vprocs in &BASELINE_VPROCS {
            for backend in Backend::ALL {
                points.push(baseline_point(
                    &|| workload.program(scale),
                    backend,
                    vprocs,
                    placement,
                ));
            }
        }
    }
    if let Some(params) = churn {
        for &vprocs in &BASELINE_VPROCS {
            for backend in Backend::ALL {
                points.push(baseline_point(
                    &|| Box::new(Churn::new(params)),
                    backend,
                    vprocs,
                    placement,
                ));
            }
        }
    }
    points
}

/// The program names of a baseline run, in first-seen order.
fn baseline_programs(points: &[RunRecord]) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    for point in points {
        if !names.contains(&point.program.as_str()) {
            names.push(&point.program);
        }
    }
    names
}

/// Formats the baseline as an aligned table: wall-clock time next to
/// simulated time, per program and vproc count.
pub fn format_baseline(points: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Wall-clock baseline — threaded vs simulated (each cell in ms)"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>6} {:>14} {:>14} {:>8} {:>8} {:>8} {:>8} {:>12} {:>10} {:>10}",
        "benchmark",
        "vprocs",
        "wall-clock",
        "simulated",
        "minors",
        "globals",
        "tasks",
        "steals",
        "promoted-B",
        "p99-pause",
        "max-pause"
    );
    for program in baseline_programs(points) {
        for &vprocs in &BASELINE_VPROCS {
            let find = |backend: Backend| {
                points.iter().find(|p| {
                    p.program == program && p.config.num_vprocs == vprocs && p.backend == backend
                })
            };
            let (Some(threaded), Some(simulated)) =
                (find(Backend::Threaded), find(Backend::Simulated))
            else {
                continue;
            };
            let ms = |ns: Option<f64>| ns.map_or("n/a".to_string(), |v| format!("{:.3}", v / 1e6));
            let _ = writeln!(
                out,
                "{:<24} {:>6} {:>14} {:>14} {:>8} {:>8} {:>8} {:>8} {:>12} {:>10} {:>10}",
                program,
                vprocs,
                ms(threaded.wall_clock_ns()),
                ms(simulated.simulated_ns()),
                threaded.report.gc.minor_collections,
                threaded.report.gc.global_collections,
                threaded.report.total_tasks(),
                threaded.report.total_steals(),
                threaded.report.total_promoted_bytes(),
                ms(Some(threaded.report.pause_stats().percentile(99.0))),
                ms(Some(threaded.report.max_pause_ns())),
            );
        }
    }
    out
}

/// One line per program comparing promoted bytes on the threaded backend
/// against the eager-publication upper bound implied by the simulated
/// model's promotion volume — the `perf-gate` CI job prints this into
/// the job summary so the lazy-promotion win is visible per PR.
pub fn promoted_bytes_summary(points: &[RunRecord]) -> String {
    let mut out = String::new();
    for program in baseline_programs(points) {
        let total = |backend: Backend| -> (u64, u64, u64) {
            points
                .iter()
                .filter(|p| p.program == program && p.backend == backend)
                .fold((0, 0, 0), |(b, s, p), point| {
                    (
                        b + point.report.total_promoted_bytes(),
                        s + point.report.promotions_at_steal(),
                        p + point.report.promotions_at_publish(),
                    )
                })
        };
        let (thr_bytes, thr_steal, thr_publish) = total(Backend::Threaded);
        let (sim_bytes, _, _) = total(Backend::Simulated);
        let _ = writeln!(
            out,
            "promoted-bytes {program:<24} threaded {thr_bytes:>10} (steal-driven ops \
             {thr_steal:>5}, publish-driven ops {thr_publish:>5}) | simulated {sim_bytes:>10}",
        );
    }
    out
}

/// Default results-store directory the sweeps append to, relative to the
/// repo root.
pub const STORE_DIR: &str = "results/store";

/// The ambient `MGC_SCALE` name (defaulting like [`scale_from_env`] does),
/// for recording in batch metadata.
pub fn scale_name_from_env() -> String {
    match std::env::var("MGC_SCALE") {
        Ok(name) if ["tiny", "small", "bench", "paper"].contains(&name.as_str()) => name,
        _ => "tiny".to_string(),
    }
}

/// Appends a sweep's records to the results store at `store_dir` as one
/// batch and returns its sequence number. Every sweep persists through
/// here. A failed append is the caller's error to report: the store is the
/// only place a sweep's numbers land, so it must never be dropped with a
/// warning.
pub fn persist_points(
    store_dir: &std::path::Path,
    meta: &RunMeta,
    points: &[RunRecord],
) -> Result<u64, StoreError> {
    let seq = Store::append(store_dir, meta, points)?;
    println!(
        "appended batch {seq} ({} records) to {}",
        points.len(),
        store_dir.display()
    );
    Ok(seq)
}

/// Persists a sweep of `kind` at the ambient `MGC_SCALE` to [`STORE_DIR`].
fn persist_sweep(kind: &str, points: &[RunRecord]) -> Result<u64, StoreError> {
    let meta = RunMeta::capture(kind, &scale_name_from_env());
    persist_points(std::path::Path::new(STORE_DIR), &meta, points)
}

/// Runs the baseline sweep, prints the side-by-side table, and appends the
/// records to the results store as a batch of kind `bench-baseline`.
pub fn run_baseline_and_report(
    churn: Option<ChurnParams>,
    placement: PlacementPolicy,
) -> Result<u64, StoreError> {
    let scale = scale_from_env();
    let points = run_baseline(scale, churn, placement);
    println!("{}", format_baseline(&points));
    println!("{}", promoted_bytes_summary(&points));
    persist_sweep("bench-baseline", &points)
}

// ----------------------------------------------------------------------
// Figure 8: NodeLocal vs Interleave vs Adaptive promotion-chunk placement
// on the threaded backend. One row per (program, placement), with the
// local/remote promoted-byte split, the same-node/cross-node steal split,
// and the adaptive controller's switch count that together make the
// locality win (and the controller's convergence) visible.
// ----------------------------------------------------------------------

/// Vproc count of the figure-8 sweep (4 OS threads on the dual-node test
/// topology: two workers per node, so both steal locality classes occur).
pub const FIGURE8_VPROCS: usize = 4;

/// Runs one figure-8 point: `workload` on the threaded backend under
/// `placement`, with the small test heap so a run performs many chunk
/// leases (which is what makes placement observable at tiny scale).
fn figure8_point(workload: Workload, scale: Scale, placement: PlacementPolicy) -> RunRecord {
    workload
        .experiment(scale)
        .backend(Backend::Threaded)
        .topology(Topology::dual_node_test())
        .vprocs(FIGURE8_VPROCS)
        .policy(AllocPolicy::Local)
        .placement(placement)
        .heap(HeapConfig::small_for_tests())
        // Figure 8 reads locality counters and timings only; correctness
        // under every placement is pinned by the workloads placement suite.
        .verify_checksum(false)
        .run()
        .expect("the figure-8 configuration is valid")
}

/// Runs all six programs under `NodeLocal`, `Interleave`, and `Adaptive`
/// placement — the two static extremes plus the controller that moves
/// between them.
pub fn run_figure8(scale: Scale) -> Vec<RunRecord> {
    let mut points = Vec::new();
    for placement in [
        PlacementPolicy::NodeLocal,
        PlacementPolicy::Interleave,
        PlacementPolicy::Adaptive,
    ] {
        for workload in Workload::ALL {
            points.push(figure8_point(workload, scale, placement));
        }
    }
    points
}

/// Formats the figure-8 records as CSV
/// (`program,placement,vprocs,wall_clock_ns,promoted_bytes,...`).
pub fn figure8_csv(points: &[RunRecord]) -> String {
    let mut out = String::from(
        "program,placement,vprocs,wall_clock_ns,promoted_bytes,promoted_bytes_local,\
         promoted_bytes_remote,steals,steals_same_node,steals_cross_node,placement_switches\n",
    );
    for p in points {
        let _ = writeln!(
            out,
            "{},{},{},{:.0},{},{},{},{},{},{},{}",
            p.program,
            p.config.placement,
            p.config.num_vprocs,
            p.wall_clock_ns().unwrap_or(0.0),
            p.report.total_promoted_bytes(),
            p.report.promoted_bytes_local(),
            p.report.promoted_bytes_remote(),
            p.report.total_steals(),
            p.report.steals_same_node(),
            p.report.steals_cross_node(),
            p.report.placement_switches(),
        );
    }
    out
}

/// Formats the figure-8 records as an aligned table for the console.
pub fn format_figure8(points: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Figure 8 — promotion-chunk placement: node-local vs interleave vs adaptive \
         (threaded, {FIGURE8_VPROCS} vprocs)"
    );
    let _ = writeln!(
        out,
        "{:<24} {:>12} {:>12} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}",
        "benchmark",
        "placement",
        "wall-ms",
        "local-B",
        "remote-B",
        "steals",
        "same-node",
        "cross-node",
        "switches"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:<24} {:>12} {:>12.3} {:>12} {:>12} {:>8} {:>10} {:>10} {:>8}",
            p.program,
            p.config.placement.label(),
            p.wall_clock_ns().unwrap_or(0.0) / 1e6,
            p.report.promoted_bytes_local(),
            p.report.promoted_bytes_remote(),
            p.report.total_steals(),
            p.report.steals_same_node(),
            p.report.steals_cross_node(),
            p.report.placement_switches(),
        );
    }
    out
}

/// Runs figure 8 end-to-end, printing the table and writing
/// `results/figure8.csv` (the CI `figure-smoke` artifact).
pub fn run_figure8_and_report() {
    let scale = scale_from_env();
    let points = run_figure8(scale);
    println!("{}", format_figure8(&points));
    let dir = std::path::Path::new("results");
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {err}", dir.display());
        return;
    }
    let path = dir.join("figure8.csv");
    match std::fs::write(&path, figure8_csv(&points)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}

// ----------------------------------------------------------------------
// Host-topology smoke: the one run that exercises `Topology::host()` — the
// probed node/core/memory layout of the machine the harness is actually on
// — instead of a modelled machine. CI runs it on every PR so the sysfs
// probe, the thread-binding fallback, and the adaptive controller are all
// exercised against a real (usually single-node) host.
// ----------------------------------------------------------------------

/// Runs one small workload on the probed host topology with adaptive
/// placement and returns the record. Never panics on exotic hosts:
/// `Topology::host()` degrades to a single node, and the vproc count is
/// clamped to what the probed topology can seat.
pub fn run_host_smoke() -> RunRecord {
    let topology = Topology::host();
    let vprocs = topology.num_cores().clamp(1, 4);
    Workload::Dmm
        .experiment(Scale::tiny())
        .backend(Backend::Threaded)
        .topology(topology)
        .vprocs(vprocs)
        .policy(AllocPolicy::Local)
        .placement(PlacementPolicy::Adaptive)
        .heap(HeapConfig::small_for_tests())
        .run()
        .expect("the host smoke configuration is valid on any probed topology")
}

/// Runs the host-topology smoke, prints the probed layout plus the
/// per-vproc binding outcomes, and writes `results/host_smoke.json` (one
/// `RunRecord` — the CI `host-topology` artifact, grepped for the
/// `placement_decisions` and `node_bindings` keys).
pub fn run_host_smoke_and_report() {
    let record = run_host_smoke();
    let topology = Topology::host();
    println!(
        "# Host-topology smoke — {} node(s) × {} core(s), {} vprocs, adaptive placement",
        topology.num_nodes(),
        topology.num_cores(),
        record.config.num_vprocs,
    );
    for (vproc, stats) in record.report.per_vproc.iter().enumerate() {
        println!(
            "vproc {vproc}: binding={} switches={}",
            if stats.node_binding_pinned {
                "pinned"
            } else {
                "tagged"
            },
            stats.placement_switches,
        );
    }
    println!(
        "checksum_ok={:?} placement_switches={}",
        record.checksum_ok,
        record.report.placement_switches(),
    );
    let dir = std::path::Path::new("results");
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {err}", dir.display());
        return;
    }
    let path = dir.join("host_smoke.json");
    match std::fs::write(&path, run_records_json(std::slice::from_ref(&record))) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}

// ----------------------------------------------------------------------
// Service scenario: the Request-Server program under open-loop load. One
// simulated point (deterministic, correlation-ready), one plain threaded
// point (wall-clock latency percentiles), and one threaded point under the
// bounded-pause budget — so the latency tail can be read against the GC
// pause tail on the same page. The `perf-gate` CI job appends it to the
// results store and gates its p99 latency.
// ----------------------------------------------------------------------

/// The soft global-collection pause budget (µs) of the bounded-pause serve
/// point — the same budget the pause-telemetry docs quote, so the latency
/// tail under it is directly comparable.
pub const SERVE_PAUSE_BUDGET_US: u64 = 500;

/// Serve parameters at the ambient `MGC_SCALE` (`bench`/`paper` select the
/// benchmark preset, everything else the fast test preset), with the
/// `MGC_SERVE_SECONDS` / `MGC_SERVE_RPS` overrides applied on top.
pub fn serve_params_from_env() -> ServeParams {
    let base = match std::env::var("MGC_SCALE").as_deref() {
        Ok("bench") | Ok("paper") => ServeParams::bench(),
        _ => ServeParams::small(),
    };
    base.apply_env(&EnvOverrides::capture())
}

/// Runs one serve point: the Request-Server on `backend` with one vproc per
/// worker (clamped to the dual-node test topology's four cores), optionally
/// under a bounded-pause budget.
fn serve_point(params: ServeParams, backend: Backend, pause_budget_us: Option<u64>) -> RunRecord {
    let mut experiment =
        Experiment::new(ServerProgram::new(params).expect("the serve presets are valid"))
            .backend(backend)
            .topology(Topology::dual_node_test())
            .vprocs(params.workers.clamp(1, 4))
            .policy(AllocPolicy::Local)
            // On the simulated backend the quantum must leave room for a
            // worker to start behind the generator on the same vproc (see
            // `SERVE_QUANTUM_NS`); the threaded backend ignores it.
            .quantum_ns(SERVE_QUANTUM_NS);
    if let Some(budget) = pause_budget_us {
        experiment = experiment.gc_pause_budget(budget);
    }
    experiment
        .run()
        .expect("the serve configuration is valid on the dual-node test topology")
}

/// Runs the serve sweep: simulated, threaded, and threaded under the
/// [`SERVE_PAUSE_BUDGET_US`] bounded-pause budget.
pub fn run_serve(params: ServeParams) -> Vec<RunRecord> {
    vec![
        serve_point(params, Backend::Simulated, None),
        serve_point(params, Backend::Threaded, None),
        serve_point(params, Backend::Threaded, Some(SERVE_PAUSE_BUDGET_US)),
    ]
}

/// Formats the serve records as an aligned table: throughput next to the
/// latency percentiles next to the GC pause tail, one row per point.
pub fn format_serve(points: &[RunRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# Service scenario — open-loop load, end-to-end latency vs GC pauses"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>6} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9} {:>12} {:>8}",
        "backend",
        "budget-us",
        "vprocs",
        "requests",
        "rps",
        "p50-ms",
        "p99-ms",
        "p99.9-ms",
        "max-ms",
        "gc-p99-ms",
        "checksum"
    );
    for p in points {
        let latency = p.report.latency_stats();
        let ms = |ns: f64| format!("{:.3}", ns / 1e6);
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>6} {:>9} {:>10.1} {:>9} {:>9} {:>9} {:>9} {:>12} {:>8}",
            p.backend.to_string(),
            p.config
                .gc
                .pause_budget_us
                .map_or("none".to_string(), |us| us.to_string()),
            p.config.num_vprocs,
            p.report.requests_served(),
            p.report.throughput_rps(),
            ms(latency.percentile(50.0)),
            ms(latency.percentile(99.0)),
            ms(latency.percentile(99.9)),
            ms(latency.max_ns),
            ms(p.report.pause_stats().percentile(99.0)),
            match p.checksum_ok {
                Some(true) => "ok",
                Some(false) => "MISMATCH",
                None => "n/a",
            },
        );
    }
    out
}

/// Runs the serve sweep end-to-end, printing the latency table and
/// appending the records to the results store as a batch of kind `serve`.
pub fn run_serve_and_report() -> Result<u64, StoreError> {
    let params = serve_params_from_env();
    let points = run_serve(params);
    println!("{}", format_serve(&points));
    persist_sweep("serve", &points)
}

pub mod corpus;
pub mod perfdiff;
pub mod trend;

/// Reads the workload scale from the `MGC_SCALE` environment variable
/// (`paper`, `small`, `bench`, or `tiny`; default `tiny` so the harness
/// finishes quickly on a laptop). `bench` is the CI perf-gate scale: real
/// compute dominates synchronisation there, so speedup curves mean
/// something.
pub fn scale_from_env() -> Scale {
    match std::env::var("MGC_SCALE").as_deref() {
        Ok("paper") => Scale::paper(),
        Ok("small") => Scale::small(),
        Ok("bench") => Scale::bench(),
        Ok("tiny") | Err(_) => Scale::tiny(),
        Ok(other) => {
            eprintln!("unknown MGC_SCALE `{other}`, using tiny");
            Scale::tiny()
        }
    }
}

/// Runs a figure end-to-end, printing the table and writing CSV under
/// `results/`.
pub fn run_and_report(spec: &FigureSpec) {
    let scale = scale_from_env();
    let data = run_figure(spec, scale);
    println!("{}", format_figure(spec, &data));
    let dir = std::path::Path::new("results");
    if let Err(err) = std::fs::create_dir_all(dir) {
        eprintln!("warning: could not create {}: {err}", dir.display());
        return;
    }
    let path = dir.join(format!("{}.csv", spec.name));
    match std::fs::write(&path, figure_csv(&data)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_specs_match_paper_axes() {
        assert_eq!(figure4().threads, vec![1, 4, 8, 12, 16, 24, 32]);
        assert_eq!(figure5().threads, vec![1, 4, 8, 12, 24, 36, 48]);
        assert_eq!(figure6().policy, AllocPolicy::Interleaved);
        assert_eq!(figure7().policy, AllocPolicy::SocketZero);
        assert_eq!(figure4().topology.num_cores(), 32);
        assert_eq!(figure5().topology.num_cores(), 48);
    }

    #[test]
    fn table1_contains_paper_numbers() {
        let t = table1();
        assert!(t.contains("21.3"));
        assert!(t.contains("19.2"));
        assert!(t.contains("6.4"));
        assert!(t.contains("17.1"));
        assert!(t.contains("25.6"));
        assert!(t.contains("n/a"));
    }

    #[test]
    fn baseline_records_are_well_formed_and_cover_both_backends() {
        let points: Vec<RunRecord> = Backend::ALL
            .iter()
            .map(|&backend| {
                baseline_point(
                    &|| Workload::Dmm.program(Scale::tiny()),
                    backend,
                    1,
                    PlacementPolicy::NodeLocal,
                )
            })
            .collect();
        let json = run_records_json(&points);
        assert!(json.starts_with("[\n"));
        assert!(json.trim_end().ends_with(']'));
        assert!(json.contains("\"backend\": \"simulated\""));
        assert!(json.contains("\"backend\": \"threaded\""));
        assert!(json.contains("\"wall_clock_ns\": null"));
        assert!(json.contains("\"simulated_ns\": null"));
        assert!(json.contains("\"program\": \"Dense-Matrix-Multiply\""));
        assert!(json.contains("\"policy\": \"local\""));
        assert!(json.contains("\"topology\": \"test-dual-node\""));
        assert!(json.contains("\"checksum_ok\": true"));
        assert!(json.contains("\"promoted_bytes\": "));
        assert!(json.contains("\"promotions_at_steal\": "));
        assert!(json.contains("\"promotions_at_publish\": "));
        // Exactly one comma-separated object per point.
        assert_eq!(json.matches("\"vprocs\"").count(), 2);
        let table = format_baseline(&points);
        assert!(table.contains("wall-clock"));
        assert!(table.contains("promoted-B"));
        assert!(table.contains("max-pause"));
        assert!(table.contains("Dense-Matrix-Multiply"));
        let summary = promoted_bytes_summary(&points);
        assert!(summary.contains("promoted-bytes Dense-Matrix-Multiply"));
        assert!(summary.contains("steal-driven"));
    }

    /// A sweep whose batch cannot reach the store gets the store error
    /// back instead of a warning: the store is the only copy.
    #[test]
    fn a_failed_store_append_is_an_error() {
        let point = baseline_point(
            &|| Workload::Dmm.program(Scale::tiny()),
            Backend::Simulated,
            1,
            PlacementPolicy::NodeLocal,
        );
        // A regular file where the store directory should be.
        let blocker = std::env::temp_dir().join(format!("mgc-blocker-{}", std::process::id()));
        std::fs::write(&blocker, "not a directory").unwrap();
        let meta = RunMeta::capture("test", "tiny");
        let err = persist_points(&blocker, &meta, &[point]).unwrap_err();
        std::fs::remove_file(blocker).unwrap();
        assert!(matches!(err, StoreError::Io { .. }), "{err}");
    }

    #[test]
    fn churn_baseline_points_carry_their_parameters() {
        let params = ChurnParams {
            objects_per_worker: 400,
            object_words: 4,
            survive_every: 16,
            workers: 2,
        };
        let point = baseline_point(
            &|| Box::new(Churn::new(params)),
            Backend::Simulated,
            1,
            PlacementPolicy::NodeLocal,
        );
        assert_eq!(point.program, "Synthetic-Churn");
        assert_eq!(point.checksum_ok, Some(true));
        let json = point.to_json();
        assert!(json.contains("\"objects_per_worker\": 400"));
        assert!(json.contains("\"workers\": 2"));
        let summary = promoted_bytes_summary(std::slice::from_ref(&point));
        assert!(summary.contains("promoted-bytes Synthetic-Churn"));
    }

    #[test]
    fn figure8_adaptive_point_records_switches_and_lands_in_the_csv() {
        let point = figure8_point(Workload::Dmm, Scale::tiny(), PlacementPolicy::Adaptive);
        assert!(
            point.report.placement_switches() >= 1,
            "the cold-start adoption alone guarantees one recorded switch"
        );
        let csv = figure8_csv(std::slice::from_ref(&point));
        let mut lines = csv.lines();
        assert!(lines
            .next()
            .expect("header row")
            .ends_with("placement_switches"));
        let row = lines.next().expect("data row");
        assert!(row.starts_with("Dense-Matrix-Multiply,adaptive,"));
        assert_eq!(row.split(',').count(), 11);
        let table = format_figure8(std::slice::from_ref(&point));
        assert!(table.contains("switches"));
        assert!(table.contains("adaptive"));
    }

    #[test]
    fn host_smoke_runs_on_the_probed_topology() {
        let record = run_host_smoke();
        assert_eq!(record.checksum_ok, Some(true));
        assert!(record.config.num_vprocs >= 1);
        let json = record.to_json();
        assert!(json.contains("\"placement\": \"adaptive\""));
        assert!(json.contains("\"placement_decisions\": "));
        assert!(json.contains("\"node_bindings\": "));
    }

    #[test]
    fn serve_points_report_latency_and_survive_the_json_schema() {
        // One simulated point at the fast preset: deterministic, and enough
        // to pin the whole serve reporting pipeline.
        let point = serve_point(ServeParams::small(), Backend::Simulated, None);
        assert_eq!(point.program, "Request-Server");
        assert_eq!(point.checksum_ok, Some(true));
        assert_eq!(
            point.report.requests_served(),
            ServeParams::small().total_requests()
        );
        assert!(point.report.throughput_rps() > 0.0);
        let json = point.to_json();
        for key in [
            "\"requests_served\": 400",
            "\"throughput_rps\": ",
            "\"latency_p50_ns\": ",
            "\"latency_p99_ns\": ",
            "\"latency_p999_ns\": ",
            "\"latency_max_ns\": ",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        let table = format_serve(std::slice::from_ref(&point));
        assert!(table.contains("p99.9-ms"));
        assert!(table.contains("simulated"));
        assert!(table.trim_end().ends_with("ok"));
    }

    #[test]
    fn serve_budgeted_point_carries_the_budget() {
        let point = serve_point(
            ServeParams::small(),
            Backend::Simulated,
            Some(SERVE_PAUSE_BUDGET_US),
        );
        assert_eq!(point.config.gc.pause_budget_us, Some(SERVE_PAUSE_BUDGET_US));
        assert_eq!(point.checksum_ok, Some(true));
        let table = format_serve(std::slice::from_ref(&point));
        assert!(table.contains("500"));
    }

    #[test]
    fn figure_formatting_includes_every_benchmark() {
        let spec = FigureSpec {
            name: "test",
            title: "test figure",
            topology: Topology::dual_node_test(),
            policy: AllocPolicy::Local,
            threads: vec![1, 2],
        };
        let data = run_figure(&spec, Scale::tiny());
        let text = format_figure(&spec, &data);
        for workload in Workload::FIGURES {
            assert!(text.contains(workload.label()));
        }
        let csv = figure_csv(&data);
        assert_eq!(csv.lines().count(), 1 + 5 * 2);
    }
}
