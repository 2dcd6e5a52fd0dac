//! Self-test of the benchmark harness: a short pass of every workload at
//! tiny scale prints every named metric with its unit, a program that
//! returns a wrong result or panics is counted as failed rather than
//! aborting the run, the CPU clock and the warm-up behave, and
//! `BENCHMARK.json` names exactly the workloads and metrics the harness
//! prints.

use mgc_heap::i64_to_word;
use mgc_perfbench::layers::{END_TO_END, PER_LAYER};
use mgc_perfbench::run::{process_cpu_s, BenchWorkload, Prepared};
use mgc_perfbench::spread::spread_threads;
use mgc_perfbench::trace::Tracer;
use mgc_perfbench::{bench, Options};
use mgc_runtime::{Executor, Program, TaskResult, TaskSpec};
use mgc_workloads::{Scale, Workload};

fn tiny(workload: BenchWorkload, trace: bool) -> Options {
    Options {
        workload,
        seed: 7,
        seconds: 0.2,
        trace,
        scale: Scale::tiny(),
    }
}

fn check_pass(workload: BenchWorkload, trace: bool) {
    let mut out = Vec::new();
    let outcome = bench(&tiny(workload, trace), &mut out).expect("writing to a Vec cannot fail");
    let text = String::from_utf8(out).expect("the report is UTF-8");
    let last = text.lines().last().expect("the report has a result line");
    assert!(
        outcome.correct,
        "{} failed its checks:\n{text}",
        workload.name()
    );
    assert_eq!(outcome.failed, 0);
    assert!(outcome.attempted >= 1);
    assert!(last.starts_with("{\"correct\": true, "), "{last}");
    let registry = if trace { PER_LAYER } else { END_TO_END };
    assert_eq!(outcome.metrics.len(), registry.len());
    for (name, unit) in registry {
        let json = format!("\"{name}\": {{\"value\": ");
        assert!(last.contains(&json), "{name} missing from the result line");
        assert!(
            last.contains(&format!("\"unit\": \"{unit}\"")),
            "{name}'s unit {unit} missing from the result line"
        );
        let line = text
            .lines()
            .find(|l| l.starts_with(&format!("metric {name} = ")))
            .unwrap_or_else(|| panic!("{name} missing from the report"));
        assert!(line.ends_with(&format!(" {unit}")), "{line}");
    }
    if trace {
        assert!(text.contains("# span check: "), "{text}");
        assert!(text.contains("span mgc-runtime::Executor::run"), "{text}");
    } else {
        for (name, value, _) in &outcome.metrics {
            assert!(*value > 0.0, "{name} = {value}");
        }
    }
}

#[test]
fn quicksort_gc_prints_every_metric() {
    check_pass(BenchWorkload::QuicksortGc, false);
    check_pass(BenchWorkload::QuicksortGc, true);
}

#[test]
fn barneshut_shared_prints_every_metric() {
    check_pass(BenchWorkload::BarneshutShared, false);
    check_pass(BenchWorkload::BarneshutShared, true);
}

#[test]
fn figure5_model_prints_every_metric() {
    check_pass(BenchWorkload::Figure5Model, false);
    check_pass(BenchWorkload::Figure5Model, true);
}

/// Wraps a real program but returns a constant instead of its result.
struct WrongResult(Box<dyn Program>);

impl Program for WrongResult {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn spawn(&self, executor: &mut dyn Executor) {
        executor.spawn_root(TaskSpec::new("wrong-result", |_ctx| {
            TaskResult::Value(i64_to_word(-1))
        }));
    }
}

/// Panics while spawning.
struct Panics;

impl Program for Panics {
    fn name(&self) -> &str {
        "panics"
    }
    fn spawn(&self, _executor: &mut dyn Executor) {
        panic!("a deliberate panic in Program::spawn");
    }
}

#[test]
fn wrong_results_and_panics_count_as_failures() {
    let opts = tiny(BenchWorkload::QuicksortGc, false);
    let mut tracer = Tracer::new(false);
    let wrong =
        Prepared::new(opts.workload, opts.scale, &mut tracer).with_program(Box::new(|| {
            let inner = Workload::Quicksort.program(Scale::tiny());
            Box::new(WrongResult(inner)) as Box<dyn Program>
        }));
    let m = wrong.measure(0.01, &mut tracer);
    assert!(m.attempted >= 2);
    assert_eq!(m.failed, m.attempted, "every wrong result is a failure");
    assert!(m.errors[0].contains("does not match"), "{:?}", m.errors);

    let panics = Prepared::new(opts.workload, opts.scale, &mut tracer)
        .with_program(Box::new(|| Box::new(Panics) as Box<dyn Program>));
    let m = panics.measure(0.01, &mut tracer);
    assert_eq!(m.failed, m.attempted, "every panic is a failure");
    assert!(m.errors[0].contains("panicked"), "{:?}", m.errors);
}

#[test]
fn the_cpu_clock_counts_every_thread() {
    let before = process_cpu_s();
    let spin = || {
        let start = std::time::Instant::now();
        while start.elapsed().as_millis() < 100 {
            std::hint::spin_loop();
        }
    };
    std::thread::scope(|s| {
        s.spawn(spin);
        s.spawn(spin);
    });
    let used = process_cpu_s() - before;
    // At least one core was busy for 100 ms, less a tick of rounding.
    assert!(used >= 0.08, "two spinning threads used {used} CPU seconds");
}

#[test]
fn the_warm_up_ends() {
    let one = spread_threads(1, 5.0);
    assert!(one.parallel && one.rounds == 0, "{one:?}");
    let two = spread_threads(2, 0.2);
    assert!(two.rounds >= 1, "{two:?}");
    assert!(two.seconds < 2.0, "{two:?}");
}

#[test]
fn benchmark_json_names_the_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    for workload in BenchWorkload::ALL {
        assert!(
            json.contains(&format!("\"name\": \"{}\"", workload.name())),
            "{} missing from BENCHMARK.json",
            workload.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
            "{name} ({unit}) missing from BENCHMARK.json"
        );
    }
    let declared = json.matches("\"unit\": ").count();
    assert_eq!(declared, END_TO_END.len() + PER_LAYER.len());
}
