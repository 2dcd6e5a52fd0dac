//! The CI perf gate: compares a results store's current sweep against its
//! seed batches, and its pins, and exits non-zero on a regression.
//!
//! ```text
//! perfdiff --store results/store --baseline 1,2 [--pins results/baseline/pins.json]
//! ```
//!
//! `--baseline` lists the sequence numbers of the baseline batches; the
//! current sweep is the latest record per run-point key over the whole
//! store. The gates are described in [`mgc_bench::perfdiff`]. The Markdown
//! tables go to stdout (the CI job tees them into `$GITHUB_STEP_SUMMARY`);
//! the exit code is the gate: 0 when every check passes, 1 on a
//! regression, 2 when the inputs cannot be read.

use std::process::ExitCode;

use mgc_bench::perfdiff::{
    baseline_records, compare, current_records, markdown, missing_pins, parse_pins, pin_rows,
    pins_markdown,
};
use mgc_store::Store;

const USAGE: &str = "perfdiff --store <dir> --baseline <seq,...> [--pins <file>]";

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(err) => {
            eprintln!("perfdiff: {err}");
            ExitCode::from(2)
        }
    }
}

/// Runs both gates; `Ok(false)` means a regression.
fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut store_dir, mut seqs, mut pins_path) = (None, None, None);
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{arg} requires a value (usage: {USAGE})"))?;
        match arg.as_str() {
            "--store" => store_dir = Some(value),
            "--baseline" => seqs = Some(value),
            "--pins" => pins_path = Some(value),
            other => return Err(format!("unknown argument `{other}` (usage: {USAGE})")),
        }
    }
    let store_dir = store_dir.ok_or(format!("--store is required (usage: {USAGE})"))?;
    let seqs = seqs.ok_or(format!("--baseline is required (usage: {USAGE})"))?;
    let seq_list = seqs
        .split(',')
        .map(|s| s.trim().parse::<u64>())
        .collect::<Result<Vec<_>, _>>()
        .map_err(|_| format!("--baseline takes batch sequence numbers like 1,2, not `{seqs}`"))?;

    let store = Store::open(store_dir).map_err(|e| e.to_string())?;
    let baseline = baseline_records(&store, &seq_list)?;
    let current = current_records(&store)?;

    let cmp = compare(&baseline, &current);
    println!("{}", markdown(&cmp));
    let regressions = cmp.regressions().len();
    let mut passed = regressions == 0;
    if passed {
        eprintln!(
            "perfdiff: {} points compared against batch(es) {seqs} of {store_dir}, no regression",
            cmp.rows.len()
        );
    } else {
        eprintln!(
            "perfdiff: {regressions} of {} points regressed beyond the thresholds",
            cmp.rows.len()
        );
    }

    if let Some(path) = pins_path {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let pins = parse_pins(&text).map_err(|e| format!("{path}: {e}"))?;
        let rows = pin_rows(&current, &pins);
        let missing = missing_pins(&rows, &pins);
        println!("{}", pins_markdown(&rows, &missing));
        let failed = rows.iter().filter(|r| r.failed()).count();
        if failed == 0 && missing.is_empty() {
            eprintln!("perfdiff: pin gate passed for {} pins", pins.len());
        } else {
            eprintln!(
                "perfdiff: pin gate failed ({failed} rows past their pin, {} pins missing)",
                missing.len()
            );
            passed = false;
        }
    }
    Ok(passed)
}
