//! The `trend` report: per-program performance trajectories read from the
//! results store and rendered as Markdown for the CI job summary.
//!
//! For every program in the store (or one program under `--program`), the
//! report walks the batches in sequence order, picks each batch's
//! representative point — threaded, unbudgeted, highest vproc count — and
//! prints one row per batch: where the number came from (batch sequence,
//! git revision, scale, sweep kind), the wall clock, the p99 GC pause, the
//! p99 request latency, and the wall-clock ratio against the previous
//! batch's point when both share a run-point key (a vproc-count change
//! between batches shows as "new key" rather than a bogus ratio).

use mgc_store::{Batch, Query, Store, StoredRecord};
use std::fmt::Write as _;

/// The representative point of one batch for one program: the threaded,
/// unbudgeted record with the highest vproc count (ties go to the later
/// record, matching the store's latest-wins convention).
pub fn representative<'a>(batch: &'a Batch, program: &str) -> Option<&'a StoredRecord> {
    let threaded = Query::new()
        .program(program)
        .backend("threaded")
        .pause_budget(None)
        .run_over(batch.records.iter());
    threaded
        .iter()
        .enumerate()
        .max_by_key(|(i, r)| (r.vprocs(), *i))
        .map(|(_, r)| *r)
}

/// Program names across the whole store, in first-seen order.
pub fn programs(store: &Store) -> Vec<String> {
    let mut names: Vec<String> = Vec::new();
    for record in store.records() {
        if !names.iter().any(|n| n == record.program()) {
            names.push(record.program().to_string());
        }
    }
    names
}

fn ms(ns: Option<f64>) -> String {
    ns.map_or("–".to_string(), |v| format!("{:.3}", v / 1e6))
}

/// Renders the trajectory of one program as a Markdown table, or `None` if
/// no batch has a representative point for it.
pub fn program_trend(store: &Store, program: &str) -> Option<String> {
    let mut out = String::new();
    let _ = writeln!(out, "## {program}\n");
    let _ = writeln!(
        out,
        "| batch | git | scale | kind | vprocs | wall ms | p99 pause ms | p99 latency ms | Δ wall |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    let mut previous: Option<&StoredRecord> = None;
    let mut rows = 0;
    for batch in store.batches() {
        let Some(record) = representative(batch, program) else {
            continue;
        };
        let delta = match previous {
            Some(prev) if prev.record_key() != record.record_key() => "new key".to_string(),
            Some(prev) => match (prev.wall_clock_ns(), record.wall_clock_ns()) {
                (Some(old), Some(new)) if old > 0.0 => format!("×{:.2}", new / old),
                _ => "–".to_string(),
            },
            None => "–".to_string(),
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            batch.seq,
            batch.meta.git_rev,
            batch.meta.scale,
            batch.meta.kind,
            record.vprocs(),
            ms(record.wall_clock_ns()),
            ms(record.pause_p99_ns()),
            // Compute benchmarks serve no requests and record a zero
            // latency tail; render that as "no data", not "0.000".
            ms(record.latency_p99_ns().filter(|v| *v > 0.0)),
            delta,
        );
        previous = Some(record);
        rows += 1;
    }
    (rows > 0).then_some(out)
}

/// Renders the full trend report: one table per program, in first-seen
/// store order, optionally restricted to a single program.
pub fn trend_markdown(store: &Store, program: Option<&str>) -> String {
    let mut out = String::from("# Performance trend\n\n");
    let _ = writeln!(
        out,
        "{} batches, {} records in {}\n",
        store.batches().len(),
        store.num_records(),
        store.dir().display()
    );
    let names = match program {
        Some(name) => vec![name.to_string()],
        None => programs(store),
    };
    let mut any = false;
    for name in &names {
        if let Some(table) = program_trend(store, name) {
            out.push_str(&table);
            out.push('\n');
            any = true;
        }
    }
    if !any {
        let _ = writeln!(
            out,
            "No threaded, unbudgeted points matched{}.",
            program.map_or(String::new(), |p| format!(" program \"{p}\""))
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgc_store::{RunMeta, Store};
    use std::path::PathBuf;

    fn record_line(program: &str, vprocs: u64, wall: u64, budget: Option<u64>) -> String {
        let budget = budget.map_or("null".to_string(), |us| us.to_string());
        format!(
            "{{\"schema_version\": 2, \"program\": \"{program}\", \
             \"backend\": \"threaded\", \"vprocs\": {vprocs}, \
             \"placement\": \"node-local\", \"pause_budget_us\": {budget}, \
             \"wall_clock_ns\": {wall}, \"promoted_bytes\": 1024, \
             \"pause_p99_ns\": 200000, \"latency_p99_ns\": null}}"
        )
    }

    fn store_with(batches: &[Vec<String>]) -> (Store, PathBuf) {
        let dir = std::env::temp_dir().join(format!(
            "mgc-trend-{}-{}",
            std::process::id(),
            batches.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        for lines in batches {
            Store::append_lines(&dir, &RunMeta::capture("test", "tiny"), lines).unwrap();
        }
        (Store::open(&dir).unwrap(), dir)
    }

    #[test]
    fn representative_prefers_highest_vprocs_and_skips_budgeted() {
        let (store, dir) = store_with(&[vec![
            record_line("DMM", 1, 9_000_000, None),
            record_line("DMM", 4, 4_000_000, None),
            record_line("DMM", 4, 3_000_000, Some(500)),
        ]]);
        let rep = representative(&store.batches()[0], "DMM").unwrap();
        assert_eq!(rep.vprocs(), 4);
        assert_eq!(rep.pause_budget_us(), None, "the budgeted point is not it");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn trend_rows_carry_deltas_across_batches() {
        let (store, dir) = store_with(&[
            vec![record_line("DMM", 4, 4_000_000, None)],
            vec![record_line("DMM", 4, 5_000_000, None)],
        ]);
        let md = trend_markdown(&store, None);
        assert!(md.contains("## DMM"), "{md}");
        assert!(md.contains("| 4.000 |"), "{md}");
        assert!(md.contains("| 5.000 |"), "{md}");
        assert!(
            md.contains("×1.25"),
            "the second row carries the ratio: {md}"
        );
        assert!(md.contains("2 batches, 2 records"), "{md}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn a_vproc_change_between_batches_reads_as_a_new_key() {
        let (store, dir) = store_with(&[
            vec![record_line("DMM", 2, 4_000_000, None)],
            vec![record_line("DMM", 4, 5_000_000, None)],
        ]);
        let md = program_trend(&store, "DMM").unwrap();
        assert!(md.contains("new key"), "{md}");
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn missing_programs_report_cleanly() {
        let (store, dir) = store_with(&[vec![record_line("DMM", 1, 1_000_000, None)]]);
        let md = trend_markdown(&store, Some("Raytracer"));
        assert!(
            md.contains("No threaded, unbudgeted points matched"),
            "{md}"
        );
        assert!(md.contains("\"Raytracer\""), "{md}");
        std::fs::remove_dir_all(dir).unwrap();
    }
}
