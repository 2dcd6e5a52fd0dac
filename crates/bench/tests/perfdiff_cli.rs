//! End-to-end runs of the `perfdiff` binary on a copy of the checked-in
//! results store (`results/store`) and pin file (`results/baseline/pins.json`).
//!
//! The seed batches were recorded on a one-core host, so their multi-vproc
//! walls carry no scaling. The pin scenarios therefore append a sweep that
//! keeps every record of seed batch 1 but gives its 2- and 4-vproc
//! threaded walls a healthy 1.85× / 3.1× speedup over the 1-vproc wall,
//! and inject one regression on top.

use std::path::{Path, PathBuf};
use std::process::Command;

use mgc_store::{RunMeta, Store, StoredRecord};

const PINS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../results/baseline/pins.json"
);

/// Copies the checked-in store into a fresh temp directory and appends the
/// batches `extra` builds from it.
fn store_with(tag: &str, extra: impl Fn(&Store) -> Vec<Vec<String>>) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mgc-perfdiff-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let seed = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/store");
    for entry in std::fs::read_dir(seed).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    for lines in extra(&Store::open(&dir).unwrap()) {
        Store::append_lines(&dir, &RunMeta::capture("test", "bench"), &lines).unwrap();
    }
    dir
}

/// Replaces the value of a numeric `"key": value` field in a record line.
fn with_field(raw: &str, key: &str, value: f64) -> String {
    let needle = format!("\"{key}\": ");
    let start = raw.find(&needle).expect("the field exists") + needle.len();
    let end = start + raw[start..].find([',', '}']).unwrap();
    format!("{}{value:.0}{}", &raw[..start], &raw[end..])
}

/// Seed batch 1 with each multi-vproc threaded wall set to the 1-vproc
/// wall divided by `speedup(program, vprocs)`.
fn rescaled(store: &Store, speedup: impl Fn(&str, u64) -> f64) -> Vec<String> {
    let records = &store.batch(1).unwrap().records;
    let one_vproc_wall = |r: &StoredRecord| {
        let one = records
            .iter()
            .find(|o| o.backend() == "threaded" && o.program() == r.program() && o.vprocs() == 1);
        one.and_then(StoredRecord::wall_clock_ns)
    };
    let rescale = |r: &StoredRecord| match one_vproc_wall(r) {
        Some(wall) if r.backend() == "threaded" && r.vprocs() > 1 => with_field(
            r.raw(),
            "wall_clock_ns",
            wall / speedup(r.program(), r.vprocs()),
        ),
        _ => r.raw().to_string(),
    };
    records.iter().map(rescale).collect()
}

fn healthy(_: &str, vprocs: u64) -> f64 {
    if vprocs == 2 {
        1.85
    } else {
        3.1
    }
}

/// Runs `perfdiff --store dir --baseline 1,2 [extra]`, removes `dir`, and
/// returns the exit code, the regression rows of stdout, and stderr.
fn perfdiff(dir: &Path, extra: &[&str]) -> (i32, Vec<String>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfdiff"))
        .arg("--store")
        .arg(dir)
        .args(["--baseline", "1,2"])
        .args(extra)
        .output()
        .expect("perfdiff runs");
    std::fs::remove_dir_all(dir).unwrap();
    let stdout = String::from_utf8(out.stdout).unwrap();
    let rows = stdout
        .lines()
        .filter(|l| l.starts_with('|') && l.contains("REGRESSION"));
    (
        out.status.code().expect("perfdiff exits"),
        rows.map(String::from).collect(),
        String::from_utf8(out.stderr).unwrap(),
    )
}

#[test]
fn the_seed_store_passes_against_its_own_batches() {
    let (code, rows, stderr) = perfdiff(&store_with("seed", |_| vec![]), &[]);
    assert_eq!((code, rows), (0, vec![]), "{stderr}");
    assert!(stderr.contains("39 points compared"), "{stderr}");
}

#[test]
fn a_flattened_speedup_fails_the_speedup_pin() {
    let dir = store_with("speedup", |store| {
        vec![rescaled(store, |program, vprocs| match program {
            "Dense-Matrix-Multiply" if vprocs == 2 => 1.0 / 0.95,
            "Dense-Matrix-Multiply" => 1.0 / 0.98,
            _ => healthy(program, vprocs),
        })]
    });
    let (code, rows, stderr) = perfdiff(&dir, &["--pins", PINS]);
    assert_eq!((code, rows.len()), (1, 1), "{stderr}\n{rows:?}");
    assert!(
        rows[0].starts_with("| Dense-Matrix-Multiply | speedup | node-local | 1→4 | — | 1.02× |"),
        "{}",
        rows[0]
    );
    assert!(
        rows[0].ends_with("| **SPEEDUP REGRESSION** |"),
        "{}",
        rows[0]
    );
}

#[test]
fn a_lifted_p99_fails_the_latency_pin() {
    let dir = store_with("latency", |store| {
        let serve = store.batch(2).unwrap().records.iter().map(|r| {
            if r.backend() != "threaded" || r.pause_budget_us().is_some() {
                return r.raw().to_string();
            }
            let line = with_field(r.raw(), "latency_p99_ns", 3_355_443_200.0);
            with_field(&line, "latency_p999_ns", 3_959_422_976.0)
        });
        vec![rescaled(store, healthy), serve.collect()]
    });
    let (code, rows, stderr) = perfdiff(&dir, &["--pins", PINS]);
    assert_eq!((code, rows.len()), (1, 1), "{stderr}\n{rows:?}");
    assert!(
        rows[0].starts_with("| Request-Server | latency_p99_ms | node-local | 4 | — | 3355.443 |"),
        "{}",
        rows[0]
    );
    assert!(
        rows[0].ends_with("| **LATENCY REGRESSION** |"),
        "{}",
        rows[0]
    );
}
