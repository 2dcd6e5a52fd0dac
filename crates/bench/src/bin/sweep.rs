//! Regenerates every figure and Table 1 in one run, writing CSV files under
//! `results/`. Control the workload scale with `MGC_SCALE=tiny|small|paper`.
//!
//! `--backend threaded` switches to the wall-clock baseline mode instead:
//! every workload runs at 1/2/4 vprocs under **both** execution backends,
//! the wall-clock and simulated times are printed side by side, and the
//! records are appended to the results store (`results/store`) as one
//! batch of kind `bench-baseline`. In every mode that appends to the
//! store, a failed append ends the sweep with exit code 1 and the store
//! error.
//!
//! Baseline-mode options opening the scenario grid beyond the paper's five
//! benchmarks:
//!
//! * `--churn` — include the synthetic allocation-churn benchmark, with
//!   its parameters derived from `MGC_SCALE`;
//! * `--churn-workers N` / `--churn-objects N` / `--churn-survive N` /
//!   `--churn-words N` — override the corresponding `ChurnParams` field
//!   (each implies `--churn`), so allocation volume, object size, survival
//!   rate, and parallelism are all reachable from the command line;
//! * `--placement <node-local|interleave|first-touch|adaptive>` — the
//!   promotion-chunk NUMA placement the baseline runs under (recorded per
//!   point in the JSON);
//! * `--figure8` — instead of the baseline, run the placement comparison:
//!   all six programs on the threaded backend under `node-local`,
//!   `interleave`, **and** `adaptive`, writing `results/figure8.csv` with
//!   the local/remote promoted-byte split, the same-/cross-node steal
//!   split, and the adaptive controller's switch count;
//! * `--host-smoke` — instead of the baseline, run one small workload on
//!   the **probed host topology** (`Topology::host()`) with adaptive
//!   placement, printing the per-vproc binding outcomes and writing
//!   `results/host_smoke.json`;
//! * `--serve` — instead of the baseline, run the **service scenario**: the
//!   Request-Server program under open-loop load on both backends (plus a
//!   bounded-pause threaded point), printing the throughput/latency table
//!   and appending a batch of kind `serve` to the results store.
//!   `MGC_SCALE=bench` selects
//!   the benchmark preset (4 workers, 2,000 req/s for 5 s);
//!   `MGC_SERVE_SECONDS` and `MGC_SERVE_RPS` override the stream shape;
//! * `--corpus <manifest.json>` — instead of the baseline, sweep the run
//!   points a corpus manifest describes (see `corpus/ci-smoke.json`) and
//!   append them to the results store as one batch of kind
//!   `corpus:<name>`. `--store <dir>` overrides the store directory
//!   (default `results/store`).

use mgc_numa::PlacementPolicy;
use mgc_workloads::churn::ChurnParams;

/// Parses the value of a `--churn-*` flag as a positive integer.
fn positive(value: Option<&String>, flag: &str) -> usize {
    let parsed = value
        .unwrap_or_else(|| panic!("{flag} requires a positive integer value"))
        .parse::<usize>()
        .unwrap_or_else(|_| panic!("{flag} requires a positive integer value"));
    assert!(parsed > 0, "{flag} requires a positive integer value");
    parsed
}

/// Ends the sweep with exit code 1 when its batch did not reach the store:
/// the store is the only place the numbers land.
fn exit_on_store_error(appended: Result<u64, mgc_store::StoreError>) {
    if let Err(err) = appended {
        eprintln!("sweep: could not append to the results store: {err}");
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut backend = mgc_runtime::Backend::Simulated;
    let mut placement = PlacementPolicy::default();
    let mut figure8 = false;
    let mut host_smoke = false;
    let mut serve = false;
    let mut corpus: Option<String> = None;
    let mut store_dir = mgc_bench::STORE_DIR.to_string();
    let mut churn_requested = false;
    let mut churn_params = ChurnParams::at_scale(mgc_bench::scale_from_env());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--backend" => {
                let value = iter
                    .next()
                    .expect("--backend requires a value (simulated|threaded)");
                backend = value.parse().unwrap_or_else(|err: String| panic!("{err}"));
            }
            "--baseline" => backend = mgc_runtime::Backend::Threaded,
            "--placement" => {
                let value = iter.next().expect(
                    "--placement requires a value (node-local|interleave|first-touch|adaptive)",
                );
                placement = value.parse().unwrap_or_else(|err: String| panic!("{err}"));
                backend = mgc_runtime::Backend::Threaded;
            }
            "--figure8" => figure8 = true,
            "--host-smoke" => host_smoke = true,
            "--serve" => serve = true,
            "--corpus" => {
                corpus = Some(
                    iter.next()
                        .expect("--corpus requires a manifest path")
                        .clone(),
                );
            }
            "--store" => {
                store_dir = iter
                    .next()
                    .expect("--store requires a directory path")
                    .clone();
            }
            "--churn" => churn_requested = true,
            "--churn-workers" => {
                churn_params.workers = positive(iter.next(), "--churn-workers");
                churn_requested = true;
            }
            "--churn-objects" => {
                churn_params.objects_per_worker = positive(iter.next(), "--churn-objects");
                churn_requested = true;
            }
            "--churn-survive" => {
                churn_params.survive_every = positive(iter.next(), "--churn-survive");
                churn_requested = true;
            }
            "--churn-words" => {
                churn_params.object_words = positive(iter.next(), "--churn-words");
                churn_requested = true;
            }
            other => panic!(
                "unknown argument `{other}` (expected --backend <simulated|threaded>, \
                 --placement <node-local|interleave|first-touch|adaptive>, --figure8, \
                 --host-smoke, --serve, --corpus <manifest>, --store <dir>, --churn, or \
                 --churn-{{workers,objects,survive,words}} <n>)"
            ),
        }
    }
    let churn = churn_requested.then_some(churn_params);

    if let Some(manifest) = corpus {
        exit_on_store_error(mgc_bench::corpus::run_corpus_and_report(
            std::path::Path::new(&manifest),
            std::path::Path::new(&store_dir),
        ));
        return;
    }
    if figure8 {
        mgc_bench::run_figure8_and_report();
        return;
    }
    if host_smoke {
        mgc_bench::run_host_smoke_and_report();
        return;
    }
    if serve {
        exit_on_store_error(mgc_bench::run_serve_and_report());
        return;
    }

    match backend {
        mgc_runtime::Backend::Threaded => {
            exit_on_store_error(mgc_bench::run_baseline_and_report(churn, placement));
        }
        mgc_runtime::Backend::Simulated => {
            assert!(
                churn.is_none(),
                "--churn applies to the baseline mode; combine it with --backend threaded"
            );
            println!("{}", mgc_bench::table1());
            for spec in [
                mgc_bench::figure4(),
                mgc_bench::figure5(),
                mgc_bench::figure6(),
                mgc_bench::figure7(),
            ] {
                mgc_bench::run_and_report(&spec);
            }
        }
    }
}
