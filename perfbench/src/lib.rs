//! The repo benchmark. `perfbench --workload <name> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload for about `s` seconds, checks every
//! result, and prints its metrics by name and unit. The last line of
//! standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//!
//! * `--trace 0` measures with tracing off and prints the end-to-end
//!   metrics ([`layers::END_TO_END`]).
//! * `--trace 1` measures half the time untraced and half traced, runs the
//!   per-operation probes, and prints the per-layer metrics
//!   ([`layers::PER_LAYER`]) and the self time of every span.
//!
//! See `README.md` next to this crate for the workloads and metric map.

#![forbid(unsafe_code)]

pub mod layers;
pub mod probes;
pub mod run;
pub mod spread;
pub mod trace;

use layers::{END_TO_END, PER_LAYER};
use mgc_workloads::Scale;
use run::{BenchWorkload, Measured, Prepared};
use std::fmt::Write as _;
use std::io::{self, Write};
use trace::Tracer;

/// The largest gap allowed between the summed span self times and the
/// traced run's wall time, as a share of the wall time.
pub const SPAN_COVERAGE_TOLERANCE: f64 = 0.05;

/// The longest the threaded workloads spend getting both cores into use
/// before their first rep (see [`spread`]).
pub const SPREAD_MAX_S: f64 = 5.0;

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload to run.
    pub workload: BenchWorkload,
    /// The `--seed` argument. It is recorded in the provenance but reaches
    /// no input: the programs' inputs are fixed by `mgc-workloads`.
    pub seed: u64,
    /// Seconds to measure for.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input scale of the programs: the bench preset (tiny in the
    /// self-test).
    pub scale: Scale,
}

/// Parses `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(BenchWorkload::parse(value).ok_or_else(|| {
                    let names: Vec<&str> = BenchWorkload::ALL.iter().map(|w| w.name()).collect();
                    format!(
                        "unknown workload `{value}` (expected one of {})",
                        names.join(", ")
                    )
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: expected a positive number"))?
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: expected 0 or 1")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        scale: Scale::bench(),
    })
}

/// The median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Peak resident memory of this process, in MiB (`VmHWM`; 0 where the
/// kernel does not report it).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The first line of a command's standard output, or `unknown`.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out git revision, or `unknown` outside a git checkout. Git
/// runs only when the working directory is itself a checkout, so it never
/// searches the directories above it.
fn git_revision() -> String {
    if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    }
}

/// Provenance lines: host, toolchain, revision, build profile, seed and
/// input scale.
pub fn provenance(opts: &Options) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# provenance: workload={} seed={} seconds={} trace={} nproc={nproc} rustc=\"{}\" \
         git={} profile={profile} scale={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        command_line("rustc", &["--version"]),
        git_revision(),
        opts.scale.0,
    );
    let _ = writeln!(
        out,
        "# inputs: the programs' inputs are fixed by mgc-workloads at this scale; \
         --seed is recorded but reaches no input"
    );
    out
}

/// What a run prints as its result.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Whether every check passed.
    pub correct: bool,
    /// Reps or grid cells attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// `(name, value, unit)`, in registry order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// The result line: one JSON object.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Orders `values` by a metric registry, attaching units; a registry
/// metric with no value is an error.
fn in_registry_order(
    registry: &[(&'static str, &'static str)],
    values: &[(&'static str, f64)],
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    registry
        .iter()
        .map(|&(name, unit)| {
            values
                .iter()
                .find(|(n, _)| *n == name)
                .map(|&(_, value)| (name, value, unit))
                .ok_or_else(|| format!("metric {name} was not measured"))
        })
        .collect()
}

fn failure_lines(out: &mut String, m: &Measured) {
    for error in &m.errors {
        let _ = writeln!(out, "# failure: {error}");
    }
}

/// The mean of `values` (0 for none).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// The `run_cpu_s` of a measurement: the mean CPU seconds of a 2-vproc rep,
/// or of a Figure 5 grid. A mean, not a median, because the clock counts
/// whole ticks of 1/100 s.
fn run_cpu_s(m: &Measured) -> f64 {
    mean(&m.two.run_cpu_s)
}

/// Steal and total ticks of all CPUs from the first line of `/proc/stat`.
fn host_cpu_ticks() -> Option<(f64, f64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<f64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest columns are already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// Share of the host's CPU time that the hypervisor took away (steal) while
/// `measure` ran, with its result. 0 where the kernel does not report it.
fn with_steal_share<T>(measure: impl FnOnce() -> T) -> (T, f64) {
    let before = host_cpu_ticks();
    let out = measure();
    let share = match (before, host_cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) / (t1 - t0),
        _ => 0.0,
    };
    (out, share)
}

/// Runs the benchmark as `opts` says, writing the human-readable report and
/// then the JSON result line to `out`.
pub fn bench(opts: &Options, out: &mut dyn Write) -> io::Result<Outcome> {
    let mut tracer = Tracer::new(opts.trace);
    let prepared = Prepared::new(opts.workload, opts.scale, &mut tracer);
    let mut text = provenance(opts);
    if opts.workload != BenchWorkload::Figure5Model {
        let threads = run::THREADED_VPROCS.iter().copied().max().unwrap_or(1);
        let s = spread::spread_threads(threads, SPREAD_MAX_S);
        let _ = writeln!(
            text,
            "# warm-up: {threads} spinning threads for {:.3} s over {} rounds; last round took \
             {:.3}x the time of its work on one thread; in parallel: {}",
            s.seconds, s.rounds, s.ratio, s.parallel
        );
    }
    let outcome = if opts.trace {
        traced(opts, &prepared, &mut tracer, &mut text)
    } else {
        untraced(opts, &prepared, &mut tracer, &mut text)
    };
    let outcome = outcome.unwrap_or_else(|err| {
        let _ = writeln!(text, "# error: {err}");
        Outcome {
            correct: false,
            attempted: 1,
            failed: 1,
            metrics: Vec::new(),
        }
    });
    for (name, value, unit) in &outcome.metrics {
        let _ = writeln!(text, "metric {name} = {value} {unit}");
    }
    write!(out, "{text}")?;
    writeln!(out, "{}", outcome.json())?;
    Ok(outcome)
}

fn untraced(
    opts: &Options,
    prepared: &Prepared,
    tracer: &mut Tracer,
    text: &mut String,
) -> Result<Outcome, String> {
    let (m, steal) = with_steal_share(|| prepared.measure(opts.seconds, tracer));
    failure_lines(text, &m);
    let _ = writeln!(
        text,
        "# wall time of Executor::run, medians: {:.6} s (2 vprocs or grid), {:.6} s (1 vproc); \
         host steal while measuring: {steal:.4} of CPU time",
        median(&m.two.run_s),
        median(&m.one.run_s)
    );
    let _ = match opts.workload {
        BenchWorkload::Figure5Model => writeln!(text, "# samples: {} grids", m.two.run_s.len()),
        _ => writeln!(
            text,
            "# samples: {} reps at 1 vproc, {} at 2 vprocs",
            m.one.run_s.len(),
            m.two.run_s.len()
        ),
    };
    let values = [
        ("setup_s", median(&m.two.setup_s)),
        ("run_cpu_s", run_cpu_s(&m)),
        ("run_1v_cpu_s", mean(&m.one.run_cpu_s)),
        ("peak_rss_mb", peak_rss_mb()),
    ];
    let metrics = in_registry_order(END_TO_END, &values)?;
    let measured = metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0);
    Ok(Outcome {
        correct: m.failed == 0 && m.attempted > 0 && measured,
        attempted: m.attempted,
        failed: m.failed,
        metrics,
    })
}

fn traced(
    opts: &Options,
    prepared: &Prepared,
    tracer: &mut Tracer,
    text: &mut String,
) -> Result<Outcome, String> {
    let half = opts.seconds / 2.0;
    tracer.set_enabled(false);
    let (plain, steal) = with_steal_share(|| prepared.measure(half, tracer));
    tracer.set_enabled(true);
    let window_start = tracer.now_s();
    let m = prepared.measure(half, tracer);
    let probes = probes::run_probes(tracer, m.totals.mean_object_words());
    let window_s = tracer.now_s() - window_start;
    failure_lines(text, &plain);
    failure_lines(text, &m);

    let self_times = tracer.self_times(window_start);
    let covered_s: f64 = self_times.iter().map(|t| t.self_s).sum();
    let coverage = covered_s / window_s;
    let covered = (coverage - 1.0).abs() <= SPAN_COVERAGE_TOLERANCE;
    let _ = writeln!(
        text,
        "# span self times over the traced window ({window_s:.6} s):"
    );
    for t in &self_times {
        let _ = writeln!(
            text,
            "span {:<48} count={:<6} self_ms={:.3} share={:.4}",
            t.name,
            t.count,
            t.self_s * 1e3,
            t.self_s / window_s
        );
    }
    let _ = writeln!(
        text,
        "# span check: self times sum to {:.4} of the traced wall time (tolerance {}) — {}",
        coverage,
        SPAN_COVERAGE_TOLERANCE,
        if covered { "ok" } else { "FAILED" }
    );

    let attempted = plain.attempted + m.attempted;
    let failed = plain.failed + m.failed;
    let mut values = m.totals.metrics();
    values.extend(probes);
    let speedup = |name: &str| {
        m.speedups
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |&(_, s)| s)
    };
    values.extend([
        ("numa.model.speedup_48v.dmm", speedup("dmm")),
        ("numa.model.speedup_48v.raytracer", speedup("raytracer")),
        ("numa.model.speedup_48v.quicksort", speedup("quicksort")),
        ("numa.model.speedup_48v.barnes-hut", speedup("barnes-hut")),
        ("numa.model.speedup_48v.smvm", speedup("smvm")),
        ("workloads.reference_ms", prepared.reference_s * 1e3),
        (
            "bench.failed_share",
            failed as f64 / attempted.max(1) as f64,
        ),
        (
            "bench.trace_overhead_share",
            run_cpu_s(&m) / run_cpu_s(&plain) - 1.0,
        ),
        ("bench.run_wall_s", median(&plain.two.run_s)),
        ("bench.run_1v_wall_s", median(&plain.one.run_s)),
        ("bench.host_steal_share", steal),
        ("bench.span_coverage_share", coverage),
    ]);
    let metrics = in_registry_order(PER_LAYER, &values)?;
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    Ok(Outcome {
        correct: failed == 0 && attempted > 0 && covered && finite,
        attempted,
        failed,
        metrics,
    })
}
