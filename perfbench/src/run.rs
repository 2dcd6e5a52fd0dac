//! The four workloads and the rep loop that times them.
//!
//! Every rep goes through the public layer calls a user makes: program
//! construction, `Experiment::validate`, `ExperimentConfig::build_executor`,
//! `Program::spawn` and `Executor::run`. The time before `Executor::run` is
//! the rep's set-up; the root result is checked against the program's
//! expected checksum, computed once per workload outside every timed region.
//!
//! A request-serving workload (`mgc-server`'s `ServerProgram` under open-loop
//! load) is deliberately not among them: see `README.md`.

use crate::layers::LayerTotals;
use crate::trace::Tracer;
use mgc_numa::{AllocPolicy, Topology};
use mgc_runtime::{Backend, Checksum, EnvOverrides, Executor, Experiment, Program, RunReport};
use mgc_workloads::{Scale, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BenchWorkload {
    /// Quicksort on the threaded backend: allocation- and collector-bound.
    QuicksortGc,
    /// Barnes-Hut on the threaded backend: reads of shared global data and
    /// work stealing, almost no collection.
    BarneshutShared,
    /// The Figure 5 grid on the simulated backend and the NUMA cost model.
    Figure5Model,
}

impl BenchWorkload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [BenchWorkload; 3] = [
        BenchWorkload::QuicksortGc,
        BenchWorkload::BarneshutShared,
        BenchWorkload::Figure5Model,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            BenchWorkload::QuicksortGc => "quicksort-gc",
            BenchWorkload::BarneshutShared => "barneshut-shared",
            BenchWorkload::Figure5Model => "figure5-model",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<BenchWorkload> {
        BenchWorkload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Vproc counts of the threaded workloads, alternated rep by rep. The
/// second is the count `run_cpu_s` reports; the first is `run_1v_cpu_s`.
pub const THREADED_VPROCS: [usize; 2] = [1, 2];

/// Vproc counts of the Figure 5 grid (the paper's x axis).
pub const FIGURE5_VPROCS: [usize; 7] = [1, 4, 8, 12, 24, 36, 48];

/// One configuration a rep runs: a program and where it runs.
pub struct Cell<'a> {
    /// Builds the program (timed as part of set-up).
    pub make: &'a dyn Fn() -> Box<dyn Program>,
    /// The execution backend.
    pub backend: Backend,
    /// The machine topology.
    pub topology: Topology,
    /// Vproc count.
    pub vprocs: usize,
    /// The checksum a correct run produces.
    pub expected: Option<Checksum>,
}

/// What one rep produced.
#[derive(Debug, Clone)]
pub struct Rep {
    /// Seconds from program construction to the end of `Program::spawn`.
    pub setup_s: f64,
    /// Seconds spent in `Executor::run`.
    pub run_s: f64,
    /// CPU seconds the process used during `Executor::run`.
    pub run_cpu_s: f64,
    /// The run report, if the run completed.
    pub report: Option<RunReport>,
    /// Whether the root result matched the expected checksum.
    pub ok: bool,
    /// Why the rep failed, if it did.
    pub error: Option<String>,
}

impl Rep {
    /// `[set-up, run, run CPU]` seconds.
    pub fn sample(&self) -> [f64; 3] {
        [self.setup_s, self.run_s, self.run_cpu_s]
    }
}

/// CPU seconds this process has used so far, all its threads together:
/// user plus system time from `/proc/self/stat`, in the kernel's clock
/// ticks of 1/100 s. Time the host hypervisor takes a vCPU away (steal) is
/// not counted. 0 where the kernel does not report it.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name may hold spaces; the fields after it do not.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    // utime and stime are fields 14 and 15; the list starts at field 3.
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => 0.0,
    }
}

/// Builds a fresh program for each rep.
pub type MakeProgram = Box<dyn Fn() -> Box<dyn Program>>;

/// Hands a borrowed program to [`Experiment`], which validates the
/// configuration without taking the program away from the rep.
struct Borrowed<'a>(&'a dyn Program);

impl Program for Borrowed<'_> {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn spawn(&self, executor: &mut dyn Executor) {
        self.0.spawn(executor)
    }
}

/// Runs one rep of `cell`, recording a span around each layer call. A
/// configuration error or a panic makes a failed rep, not a failed
/// benchmark.
pub fn run_rep(cell: &Cell<'_>, tracer: &mut Tracer) -> Rep {
    let rep_span = tracer.begin("bench::rep");
    let mut setup_s = 0.0;
    let mut run_s = 0.0;
    let mut run_cpu_s = 0.0;
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let start = Instant::now();
        let program = tracer.span("mgc-workloads::Program::new", || (cell.make)());
        let experiment = Experiment::new(Borrowed(&*program))
            .backend(cell.backend)
            .topology(cell.topology.clone())
            .vprocs(cell.vprocs)
            .policy(AllocPolicy::Local)
            .env_overrides(EnvOverrides::default());
        let config = tracer
            .span("mgc-runtime::Experiment::validate", || {
                experiment.validate()
            })
            .map_err(|err| format!("configuration rejected: {err}"))?;
        let mut executor = tracer.span("mgc-runtime::ExperimentConfig::build_executor", || {
            config.build_executor()
        });
        tracer.span("mgc-runtime::Program::spawn", || {
            program.spawn(&mut *executor)
        });
        setup_s = start.elapsed().as_secs_f64();
        let cpu_start = process_cpu_s();
        let start = Instant::now();
        let report = tracer.span("mgc-runtime::Executor::run", || executor.run());
        run_s = start.elapsed().as_secs_f64();
        run_cpu_s = process_cpu_s() - cpu_start;
        let ok = match (cell.expected, executor.take_result()) {
            (Some(expected), Some((word, false))) => expected.matches(word),
            _ => false,
        };
        Ok::<_, String>((report, ok))
    }));
    tracer.end(rep_span);
    let (report, ok, error) = match outcome {
        Ok(Ok((report, ok))) => {
            let error = (!ok).then(|| "root result does not match the checksum".to_string());
            (Some(report), ok, error)
        }
        Ok(Err(err)) => (None, false, Some(err)),
        Err(_) => (None, false, Some("the run panicked".to_string())),
    };
    Rep {
        setup_s,
        run_s,
        run_cpu_s,
        report,
        ok,
        error,
    }
}

/// Set-up, run and run CPU times of the reps at one vproc count.
#[derive(Debug, Clone, Default)]
pub struct Series {
    /// Set-up seconds, one per rep.
    pub setup_s: Vec<f64>,
    /// `Executor::run` seconds, one per rep.
    pub run_s: Vec<f64>,
    /// CPU seconds used during `Executor::run`, one per rep.
    pub run_cpu_s: Vec<f64>,
}

impl Series {
    /// Adds one sample: `[set-up, run, run CPU]` seconds.
    fn push(&mut self, [setup_s, run_s, run_cpu_s]: [f64; 3]) {
        self.setup_s.push(setup_s);
        self.run_s.push(run_s);
        self.run_cpu_s.push(run_cpu_s);
    }
}

/// Everything one measurement produced.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Reps at one vproc (or the 1-vproc column of each Figure 5 grid).
    pub one: Series,
    /// Reps at two vprocs (or whole Figure 5 grids).
    pub two: Series,
    /// Counters of the reps behind `two`.
    pub totals: LayerTotals,
    /// Reps (threaded) or grid cells (model) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Modelled 48-vproc speedup per Figure 5 program.
    pub speedups: Vec<(&'static str, f64)>,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Measured {
    fn count(&mut self, cell: &Cell<'_>, rep: &Rep) {
        self.attempted += 1;
        self.failed += u64::from(!rep.ok);
        if let Some(error) = &rep.error {
            if self.errors.len() < 4 {
                self.errors.push(format!("{} vprocs: {error}", cell.vprocs));
            }
        }
    }
}

/// A workload made ready to measure: its cells and their checksums.
pub struct Prepared {
    workload: BenchWorkload,
    programs: Vec<(&'static str, MakeProgram)>,
    expected: Vec<Option<Checksum>>,
    /// Seconds spent computing the expected checksums.
    pub reference_s: f64,
}

/// The short lower-case name of a Figure 5 program, as used in metric
/// names.
fn short_name(workload: Workload) -> &'static str {
    match workload {
        Workload::Dmm => "dmm",
        Workload::Raytracer => "raytracer",
        Workload::Quicksort => "quicksort",
        Workload::BarnesHut => "barnes-hut",
        Workload::Smvm => "smvm",
        Workload::Churn => "churn",
    }
}

impl Prepared {
    /// Builds the workload's program factories and computes every expected
    /// checksum (recorded as `mgc-workloads::Program::expected_checksum`
    /// spans), outside any timed region.
    pub fn new(workload: BenchWorkload, scale: Scale, tracer: &mut Tracer) -> Self {
        let programs: Vec<(&'static str, MakeProgram)> = match workload {
            BenchWorkload::QuicksortGc => {
                vec![(
                    "quicksort",
                    Box::new(move || Workload::Quicksort.program(scale)),
                )]
            }
            BenchWorkload::BarneshutShared => {
                vec![(
                    "barnes-hut",
                    Box::new(move || Workload::BarnesHut.program(scale)),
                )]
            }
            BenchWorkload::Figure5Model => Workload::FIGURES
                .into_iter()
                .map(|w| {
                    let make: MakeProgram = Box::new(move || w.program(scale));
                    (short_name(w), make)
                })
                .collect(),
        };
        let start = Instant::now();
        let expected = programs
            .iter()
            .map(|(_, make)| {
                let program = make();
                tracer.span("mgc-workloads::Program::expected_checksum", || {
                    program.expected_checksum()
                })
            })
            .collect();
        Prepared {
            workload,
            programs,
            expected,
            reference_s: start.elapsed().as_secs_f64(),
        }
    }

    /// Replaces the program of a batch workload (the self-test uses this to
    /// run a program that returns a wrong result).
    pub fn with_program(mut self, make: MakeProgram) -> Self {
        self.programs[0].1 = make;
        self
    }

    /// The threaded cell at `vprocs` vprocs.
    fn threaded_cell(&self, vprocs: usize) -> Cell<'_> {
        Cell {
            make: &*self.programs[0].1,
            backend: Backend::Threaded,
            topology: Topology::dual_node_test(),
            vprocs,
            expected: self.expected[0],
        }
    }

    /// Runs reps while the next one is expected to end within `seconds`
    /// (at least one rep of each kind always runs), recording spans only if
    /// the tracer is enabled.
    pub fn measure(&self, seconds: f64, tracer: &mut Tracer) -> Measured {
        match self.workload {
            BenchWorkload::Figure5Model => self.measure_grid(seconds, tracer),
            _ => self.measure_threaded(seconds, tracer),
        }
    }

    fn measure_threaded(&self, seconds: f64, tracer: &mut Tracer) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        loop {
            let pair_start = Instant::now();
            for (i, &vprocs) in THREADED_VPROCS.iter().enumerate() {
                let cell = self.threaded_cell(vprocs);
                let rep = run_rep(&cell, tracer);
                m.count(&cell, &rep);
                let series = if i == 0 { &mut m.one } else { &mut m.two };
                if rep.ok {
                    series.push(rep.sample());
                }
                if let (1, Some(report)) = (i, &rep.report) {
                    m.totals.add(report);
                }
            }
            let pair_s = pair_start.elapsed().as_secs_f64();
            if start.elapsed().as_secs_f64() + pair_s > seconds {
                return m;
            }
        }
    }

    /// The Figure 5 cell of program `index` at `vprocs` vprocs.
    fn grid_cell(&self, index: usize, vprocs: usize) -> Cell<'_> {
        Cell {
            make: &*self.programs[index].1,
            backend: Backend::Simulated,
            topology: Topology::amd_magny_cours_48(),
            vprocs,
            expected: self.expected[index],
        }
    }

    /// Runs every cell of the Figure 5 grid once and returns the summed
    /// samples (see [`Rep::sample`]) of the whole grid and of its 1-vproc
    /// column. The grid's counters go to the totals; the first grid gives
    /// the modelled 48-vproc speedups.
    fn grid_pass(&self, m: &mut Measured, tracer: &mut Tracer) -> [[f64; 3]; 2] {
        let mut grid = [0.0; 3];
        let mut column = [0.0; 3];
        let add = |sum: &mut [f64; 3], rep: &Rep| {
            for (total, value) in sum.iter_mut().zip(rep.sample()) {
                *total += value;
            }
        };
        for (index, (name, _)) in self.programs.iter().enumerate() {
            let mut elapsed = [0.0; 2];
            for v in FIGURE5_VPROCS {
                let cell = self.grid_cell(index, v);
                let rep = run_rep(&cell, tracer);
                m.count(&cell, &rep);
                add(&mut grid, &rep);
                if v == 1 {
                    add(&mut column, &rep);
                }
                if let Some(report) = &rep.report {
                    m.totals.add(report);
                    match v {
                        1 => elapsed[0] = report.elapsed_ns,
                        48 => elapsed[1] = report.elapsed_ns,
                        _ => {}
                    }
                }
            }
            if m.speedups.len() < self.programs.len() {
                let speedup = if elapsed[1] > 0.0 {
                    elapsed[0] / elapsed[1]
                } else {
                    0.0
                };
                m.speedups.push((name, speedup));
            }
        }
        [grid, column]
    }

    /// Whole Figure 5 grids while the next one is expected to end within
    /// `seconds` (at least one always runs). Each grid gives one sample of
    /// set-up, run and 1-vproc run time.
    fn measure_grid(&self, seconds: f64, tracer: &mut Tracer) -> Measured {
        let mut m = Measured::default();
        let start = Instant::now();
        loop {
            let [grid, column] = self.grid_pass(&mut m, tracer);
            m.two.push(grid);
            m.one.push(column);
            if start.elapsed().as_secs_f64() + grid[0] + grid[1] > seconds {
                break;
            }
        }
        // Grid counters are reported per grid, not per cell.
        m.totals.runs = m.two.run_s.len() as u64;
        m
    }
}
