//! The CI perf gate, read from one results store.
//!
//! Both record sets come from one store directory (`results/store/`)
//! through the typed [`mgc_store`] query API. The **baseline** is the
//! records of the checked-in seed batches, named by sequence number; the
//! **current** sweep is the latest record per run-point key over the whole
//! store ([`Query::latest_per_key`]), so a sweep appended on top of the
//! seeds shadows every key it re-measures. Two gates run over them:
//!
//! * **The comparison** matches records by run-point key (`program,
//!   backend, vprocs, placement, pause_budget_us` — a budgeted run is a
//!   different experiment from an unbudgeted one). A matched pair fails on
//!   a wall clock (threaded records only) beyond [`MAX_WALL_RATIO`] × the
//!   baseline or promoted bytes beyond [`MAX_PROMOTED_RATIO`] ×, with both
//!   sides first padded to the noise floors [`MIN_WALL_NS`] and
//!   [`MIN_PROMOTED_BYTES`] (sub-floor points are scheduler jitter). A
//!   baseline point with no current counterpart fails as missing.
//! * **The pins** ([`Pin`], checked in as `results/baseline/pins.json`)
//!   each bound one [`Metric`] of one program's threaded points in the
//!   current sweep only — a baseline recorded on a host with a different
//!   core count says nothing about scaling or pauses here. The bounds are
//!   absolute, so a regression fails even if the baseline already had it.
//!   A pinned program with no threaded point, or a point that lacks the
//!   pinned telemetry, fails loudly instead of passing.
//!
//! Both gates render as Markdown for `$GITHUB_STEP_SUMMARY`.

use std::fmt::Write as _;

use mgc_store::json::{self, JsonValue};
use mgc_store::{Query, Store, StoredRecord};

/// Largest tolerated `current / baseline` wall-clock ratio.
pub const MAX_WALL_RATIO: f64 = 2.5;
/// Largest tolerated `current / baseline` promoted-bytes ratio.
pub const MAX_PROMOTED_RATIO: f64 = 1.5;
/// Noise floor: both sides of a wall-clock comparison are padded up to
/// this many nanoseconds before the ratio is taken.
pub const MIN_WALL_NS: f64 = 5e6;
/// Noise floor for the promoted-bytes comparison, in bytes.
pub const MIN_PROMOTED_BYTES: u64 = 64 * 1024;

/// The baseline: the records of the batches `seqs`, latest per run-point
/// key, in batch order. A sequence number the store does not hold is an
/// error, not an empty baseline.
pub fn baseline_records<'a>(
    store: &'a Store,
    seqs: &[u64],
) -> Result<Vec<&'a StoredRecord>, String> {
    let mut records = Vec::new();
    for &seq in seqs {
        let batch = store
            .batch(seq)
            .ok_or_else(|| format!("{} holds no batch {seq}", store.dir().display()))?;
        records.extend(&batch.records);
    }
    checked(Query::new().latest_per_key_over(records))
}

/// The current sweep: the latest record per run-point key over the whole
/// store.
pub fn current_records(store: &Store) -> Result<Vec<&StoredRecord>, String> {
    checked(Query::new().latest_per_key(store))
}

/// Rejects records the comparison cannot read: every record carries a
/// numeric `wall_clock_ns` (`null` on simulated runs) and an integer
/// `promoted_bytes`. The pin telemetry is newer than the oldest records,
/// so it may be absent; a pinned point without it fails its pin instead.
fn checked(records: Vec<&StoredRecord>) -> Result<Vec<&StoredRecord>, String> {
    let unreadable = |r: &&&StoredRecord| {
        let wall = r.field("wall_clock_ns");
        wall.is_none_or(|w| !w.is_null() && w.as_f64().is_none()) || r.promoted_bytes().is_none()
    };
    match records.iter().find(unreadable) {
        Some(r) => Err(format!(
            "record lacks a numeric \"wall_clock_ns\" or \"promoted_bytes\": {}",
            r.raw()
        )),
        None => Ok(records),
    }
}

fn promoted(record: &StoredRecord) -> f64 {
    record.promoted_bytes().unwrap_or(0) as f64
}

/// Verdict for one compared point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within thresholds.
    Ok,
    /// Wall-clock regression beyond the ratio.
    WallRegression,
    /// Promoted-bytes regression beyond the ratio.
    PromotedRegression,
    /// Present in the baseline but missing from the current sweep.
    Missing,
}

/// One row of the comparison table.
#[derive(Debug, Clone)]
pub struct Row<'a> {
    /// The baseline record.
    pub baseline: &'a StoredRecord,
    /// The current record with the same key, when present.
    pub current: Option<&'a StoredRecord>,
    /// Padded wall-clock ratio, when both sides report wall time.
    pub wall_ratio: Option<f64>,
    /// Padded promoted-bytes ratio.
    pub promoted_ratio: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone)]
pub struct Comparison<'a> {
    /// One row per baseline record, in baseline order.
    pub rows: Vec<Row<'a>>,
    /// Current records with no baseline counterpart (new programs/axes —
    /// informational, never a failure).
    pub new_points: Vec<&'a StoredRecord>,
}

impl Comparison<'_> {
    /// The rows that failed the gate.
    pub fn regressions(&self) -> Vec<&Row<'_>> {
        self.rows
            .iter()
            .filter(|r| r.verdict != Verdict::Ok)
            .collect()
    }
}

/// Compares the current sweep against the baseline, key by key.
pub fn compare<'a>(baseline: &[&'a StoredRecord], current: &[&'a StoredRecord]) -> Comparison<'a> {
    let rows = baseline
        .iter()
        .map(|&base| {
            let key = base.record_key();
            let matched = current.iter().copied().find(|c| c.record_key() == key);
            let Some(cur) = matched else {
                return Row {
                    baseline: base,
                    current: None,
                    wall_ratio: None,
                    promoted_ratio: 0.0,
                    verdict: Verdict::Missing,
                };
            };
            let wall_ratio = match (base.wall_clock_ns(), cur.wall_clock_ns()) {
                (Some(b), Some(c)) => Some(c.max(MIN_WALL_NS) / b.max(MIN_WALL_NS)),
                _ => None,
            };
            let floor = MIN_PROMOTED_BYTES as f64;
            let promoted_ratio = promoted(cur).max(floor) / promoted(base).max(floor);
            let verdict = if wall_ratio.is_some_and(|r| r > MAX_WALL_RATIO) {
                Verdict::WallRegression
            } else if promoted_ratio > MAX_PROMOTED_RATIO {
                Verdict::PromotedRegression
            } else {
                Verdict::Ok
            };
            Row {
                baseline: base,
                current: matched,
                wall_ratio,
                promoted_ratio,
                verdict,
            }
        })
        .collect();
    let new_points = current
        .iter()
        .copied()
        .filter(|c| {
            let key = c.record_key();
            baseline.iter().all(|b| b.record_key() != key)
        })
        .collect();
    Comparison { rows, new_points }
}

fn ms(ns: Option<f64>, digits: usize) -> String {
    ns.map_or("—".to_string(), |v| format!("{:.digits$}", v / 1e6))
}

/// Renders the comparison as a Markdown table (for `$GITHUB_STEP_SUMMARY`).
pub fn markdown(cmp: &Comparison) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Perf gate — wall-clock ≤ {MAX_WALL_RATIO:.1}×, promoted bytes ≤ \
         {MAX_PROMOTED_RATIO:.1}× (noise floors: {:.0} ms / {} KiB)\n",
        MIN_WALL_NS / 1e6,
        MIN_PROMOTED_BYTES / 1024,
    );
    let _ = writeln!(
        out,
        "| program | backend | vprocs | placement | wall base (ms) | wall now (ms) | ratio | \
         promoted base | promoted now | ratio | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|---|");
    for row in &cmp.rows {
        let b = row.baseline;
        let (wall_now, promoted_now) =
            row.current.map_or(("—".to_string(), "—".to_string()), |c| {
                (ms(c.wall_clock_ns(), 2), promoted(c).to_string())
            });
        let verdict = match row.verdict {
            Verdict::Ok => "ok",
            Verdict::WallRegression => "**WALL REGRESSION**",
            Verdict::PromotedRegression => "**PROMOTED-BYTES REGRESSION**",
            Verdict::Missing => "**MISSING POINT**",
        };
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.2} | {} |",
            b.program(),
            b.backend(),
            b.vprocs(),
            b.placement(),
            ms(b.wall_clock_ns(), 2),
            wall_now,
            row.wall_ratio
                .map_or("—".to_string(), |r| format!("{r:.2}")),
            promoted(b),
            promoted_now,
            row.promoted_ratio,
            verdict,
        );
    }
    if !cmp.new_points.is_empty() {
        let _ = writeln!(out, "\nNew points (no baseline, informational):");
        for p in &cmp.new_points {
            let _ = writeln!(
                out,
                "- {} / {} / {} vprocs / {}",
                p.program(),
                p.backend(),
                p.vprocs(),
                p.placement()
            );
        }
    }
    out
}

// ----------------------------------------------------------------------
// The pins
// ----------------------------------------------------------------------

/// The metric a [`Pin`] bounds, read from a program's threaded points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Parallel speedup per placement: the 1-vproc wall clock divided by
    /// the highest-vproc wall clock. The bound is a floor.
    Speedup,
    /// Each point's largest single mutator pause. The bound is a ceiling
    /// in milliseconds.
    PauseMaxMs,
    /// Each point's 99th-percentile end-to-end request latency. The bound
    /// is a ceiling in milliseconds.
    LatencyP99Ms,
}

impl Metric {
    const ALL: [Metric; 3] = [Metric::Speedup, Metric::PauseMaxMs, Metric::LatencyP99Ms];

    /// The metric's name in the pin file.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Speedup => "speedup",
            Metric::PauseMaxMs => "pause_max_ms",
            Metric::LatencyP99Ms => "latency_p99_ms",
        }
    }

    /// Whether a measured value breaches `bound`. A speedup is a bare
    /// ratio; pauses and latencies are measured in nanoseconds and pinned
    /// in milliseconds.
    fn breaches(self, value: f64, bound: f64) -> bool {
        match self {
            Metric::Speedup => value < bound,
            Metric::PauseMaxMs | Metric::LatencyP99Ms => value > bound * 1e6,
        }
    }

    /// The Markdown cells of a row: the value and the bound in the pin's
    /// unit, and the verdict when the row fails.
    fn cells(self, value: Option<f64>, bound: f64) -> (String, String, &'static str) {
        match self {
            Metric::Speedup => (
                value.map_or("—".to_string(), |s| format!("{s:.2}×")),
                format!("≥ {bound:.2}×"),
                "**SPEEDUP REGRESSION**",
            ),
            Metric::PauseMaxMs => (
                ms(value, 3),
                format!("≤ {bound:.3}"),
                "**PAUSE REGRESSION**",
            ),
            Metric::LatencyP99Ms => (
                ms(value, 3),
                format!("≤ {bound:.3}"),
                "**LATENCY REGRESSION**",
            ),
        }
    }
}

/// One program's bound on one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Pin {
    /// Program name, as it appears in the run records.
    pub program: String,
    /// What is bounded.
    pub metric: Metric,
    /// The bound: a floor for [`Metric::Speedup`], a ceiling in
    /// milliseconds otherwise.
    pub bound: f64,
}

/// Parses a pin file: a non-empty JSON array of
/// `{"program": ..., "metric": ..., "bound": ...}` objects, in any layout.
/// Anything that could quietly weaken the gate is rejected with an error
/// naming the entry: an empty list, a second pin for the same
/// `(program, metric)`, an unknown metric or field, a missing or repeated
/// field, and a bound that is not a number.
pub fn parse_pins(text: &str) -> Result<Vec<Pin>, String> {
    let value = json::parse(text).map_err(|e| e.to_string())?;
    let entries = value
        .as_array()
        .ok_or("a pin file is a JSON array of {\"program\", \"metric\", \"bound\"} objects")?;
    if entries.is_empty() {
        return Err("the pin list is empty".to_string());
    }
    let mut pins: Vec<Pin> = Vec::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        let name = match entry.get("program").and_then(JsonValue::as_str) {
            Some(program) => format!("pin {} ({program})", i + 1),
            None => format!("pin {}", i + 1),
        };
        let pin = parse_pin(entry).map_err(|e| format!("{name}: {e}"))?;
        if pins
            .iter()
            .any(|p| p.program == pin.program && p.metric == pin.metric)
        {
            return Err(format!(
                "{name}: a second {} pin for the same program",
                pin.metric.name()
            ));
        }
        pins.push(pin);
    }
    Ok(pins)
}

fn parse_pin(entry: &JsonValue) -> Result<Pin, String> {
    let JsonValue::Object(fields) = entry else {
        return Err("not a {\"program\", \"metric\", \"bound\"} object".to_string());
    };
    let (mut program, mut metric, mut bound) = (None, None, None);
    for (key, value) in fields {
        let repeated = match key.as_str() {
            "program" => {
                let name = value.as_str().ok_or("\"program\" is not a string")?;
                program.replace(name.to_string()).is_some()
            }
            "metric" => {
                let name = value.as_str().ok_or("\"metric\" is not a string")?;
                let known = Metric::ALL.into_iter().find(|m| m.name() == name);
                let known = known.ok_or_else(|| {
                    format!(
                        "unknown metric \"{name}\" (expected speedup, pause_max_ms or \
                         latency_p99_ms)"
                    )
                })?;
                metric.replace(known).is_some()
            }
            "bound" => {
                let number = value.as_f64().ok_or("\"bound\" is not a number")?;
                bound.replace(number).is_some()
            }
            other => return Err(format!("unknown field \"{other}\"")),
        };
        if repeated {
            return Err(format!("field \"{key}\" appears twice"));
        }
    }
    Ok(Pin {
        program: program.ok_or("missing \"program\"")?,
        metric: metric.ok_or("missing \"metric\"")?,
        bound: bound.ok_or("missing \"bound\"")?,
    })
}

/// One checked row of the pin gate.
#[derive(Debug, Clone)]
pub struct PinRow<'p> {
    /// The pin this row is checked against.
    pub pin: &'p Pin,
    /// Placement-policy label.
    pub placement: String,
    /// The vproc count of the point, or `1→N` for a speedup row.
    pub vprocs: String,
    /// The point's pause budget in microseconds (`None` when unbudgeted,
    /// and on speedup rows).
    pub pause_budget_us: Option<u64>,
    /// The measured value: a ratio for a speedup, nanoseconds otherwise.
    /// `None` when the sweep lacks the points or the telemetry to measure.
    pub value: Option<f64>,
    /// Context for the reader: the walls behind a speedup, the p99 pause
    /// next to the max, the p99.9 latency next to the p99.
    pub detail: String,
}

impl PinRow<'_> {
    /// Whether this row fails its pin: the value breaches the bound, or
    /// there is no value to check.
    pub fn failed(&self) -> bool {
        self.value
            .is_none_or(|v| self.pin.metric.breaches(v, self.pin.bound))
    }
}

/// Builds the rows every pin checks in the current sweep, pin by pin: one
/// row per placement for a speedup pin, one row per threaded point for the
/// others.
pub fn pin_rows<'p>(current: &[&StoredRecord], pins: &'p [Pin]) -> Vec<PinRow<'p>> {
    let mut rows = Vec::new();
    for pin in pins {
        let points = current
            .iter()
            .filter(|r| r.backend() == "threaded" && r.program() == pin.program);
        if pin.metric == Metric::Speedup {
            rows.extend(speedup_rows(pin, points));
            continue;
        }
        rows.extend(points.map(|r| {
            let (value, detail) = if pin.metric == Metric::PauseMaxMs {
                (
                    r.pause_max_ns(),
                    format!("p99 {} ms", ms(r.pause_p99_ns(), 3)),
                )
            } else {
                (
                    r.latency_p99_ns(),
                    format!("p99.9 {} ms", ms(r.latency_p999_ns(), 3)),
                )
            };
            PinRow {
                pin,
                placement: r.placement().to_string(),
                vprocs: r.vprocs().to_string(),
                pause_budget_us: r.pause_budget_us(),
                value,
                detail,
            }
        }));
    }
    rows
}

/// One speedup row per placement, over the points that measured a wall
/// clock: 1-vproc wall / highest-vproc wall, `None` unless both ends exist.
fn speedup_rows<'a, 'p>(
    pin: &'p Pin,
    points: impl Iterator<Item = &'a &'a StoredRecord>,
) -> Vec<PinRow<'p>> {
    let mut placements: Vec<(&str, Vec<(u64, f64)>)> = Vec::new();
    for r in points {
        let Some(wall) = r.wall_clock_ns() else {
            continue;
        };
        match placements.iter_mut().find(|(p, _)| *p == r.placement()) {
            Some((_, walls)) => walls.push((r.vprocs(), wall)),
            None => placements.push((r.placement(), vec![(r.vprocs(), wall)])),
        }
    }
    placements
        .into_iter()
        .map(|(placement, mut walls)| {
            walls.sort_by_key(|&(v, _)| v);
            let one = walls.iter().find(|&&(v, _)| v == 1).map(|&(_, w)| w);
            let (top_vprocs, top) = walls.last().copied().unwrap_or_default();
            let value = match one {
                Some(one) if top_vprocs > 1 && top > 0.0 => Some(one / top),
                _ => None,
            };
            let detail = walls
                .iter()
                .map(|&(v, w)| format!("{v}v: {:.2}", w / 1e6))
                .collect::<Vec<_>>()
                .join(", ");
            PinRow {
                pin,
                placement: placement.to_string(),
                vprocs: format!("1→{top_vprocs}"),
                pause_budget_us: None,
                value,
                detail: format!("wall {detail} ms"),
            }
        })
        .collect()
}

/// Pins with no row at all: the program has no threaded point in the
/// sweep. Deleting a pinned benchmark must not silently pass the gate.
pub fn missing_pins<'p>(rows: &[PinRow<'p>], pins: &'p [Pin]) -> Vec<&'p Pin> {
    pins.iter()
        .filter(|pin| rows.iter().all(|r| r.pin != *pin))
        .collect()
}

/// Renders the pin gate as a Markdown table (for `$GITHUB_STEP_SUMMARY`).
pub fn pins_markdown(rows: &[PinRow], missing: &[&Pin]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "### Pin gate — threaded points of the current sweep (absolute pins)\n"
    );
    let _ = writeln!(
        out,
        "| program | metric | placement | vprocs | budget (µs) | value | pin | detail | verdict |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|");
    for row in rows {
        let (value, bound, regression) = row.pin.metric.cells(row.value, row.pin.bound);
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {value} | {bound} | {} | {} |",
            row.pin.program,
            row.pin.metric.name(),
            row.placement,
            row.vprocs,
            row.pause_budget_us
                .map_or("—".to_string(), |us| us.to_string()),
            row.detail,
            if row.failed() { regression } else { "ok" },
        );
    }
    for pin in missing {
        let _ = writeln!(
            out,
            "\n**MISSING PINNED PROGRAM**: `{}` has a {} pin but no threaded points in the \
             sweep.",
            pin.program,
            pin.metric.name()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A record line of `program` at `vprocs` with the given JSON members.
    fn record(program: &str, backend: &str, vprocs: u64, members: &str) -> String {
        format!(
            "{{\"program\": \"{program}\", \"backend\": \"{backend}\", \"vprocs\": {vprocs}, \
             \"placement\": \"node-local\", {members}}}"
        )
    }

    /// A threaded record with only a wall clock and a promotion volume, as
    /// the oldest sweeps wrote them.
    fn walled(program: &str, vprocs: u64, wall_ns: u64, promoted: u64) -> String {
        let members = format!("\"wall_clock_ns\": {wall_ns}, \"promoted_bytes\": {promoted}");
        record(program, "threaded", vprocs, &members)
    }

    /// A threaded record with pause telemetry.
    fn paused(program: &str, vprocs: u64, max_ns: u64, p99_ns: u64) -> String {
        let members = format!(
            "\"wall_clock_ns\": 50000000, \"promoted_bytes\": 0, \"pause_max_ns\": {max_ns}, \
             \"pause_p99_ns\": {p99_ns}"
        );
        record(program, "threaded", vprocs, &members)
    }

    /// A threaded Request-Server record at 4 vprocs with latency telemetry.
    fn serving(budget: &str, p99_ns: u64, p999_ns: u64) -> String {
        let members = format!(
            "\"wall_clock_ns\": 5000000000, \"promoted_bytes\": 0, \"pause_budget_us\": {budget}, \
             \"latency_p99_ns\": {p99_ns}, \"latency_p999_ns\": {p999_ns}"
        );
        record("Request-Server", "threaded", 4, &members)
    }

    /// Parses record lines the way a store batch holds them.
    fn records(lines: &[String]) -> Vec<StoredRecord> {
        let parse = |(i, line): (usize, &String)| StoredRecord::from_raw(line, 1, i, "test");
        lines
            .iter()
            .enumerate()
            .map(parse)
            .collect::<Result<_, _>>()
            .unwrap()
    }

    fn refs(records: &[StoredRecord]) -> Vec<&StoredRecord> {
        records.iter().collect()
    }

    /// The verdicts of the failing rows of a comparison, and its Markdown.
    fn regressions(baseline: &[String], current: &[String]) -> (Vec<Verdict>, String) {
        let (baseline, current) = (records(baseline), records(current));
        let cmp = compare(&refs(&baseline), &refs(&current));
        let verdicts = cmp.regressions().iter().map(|r| r.verdict).collect();
        (verdicts, markdown(&cmp))
    }

    /// One pin's rows over a sweep, reduced to owned data.
    struct Checked {
        values: Vec<Option<f64>>,
        failed: Vec<bool>,
        details: Vec<String>,
        missing: bool,
        markdown: String,
    }

    fn check(lines: &[String], program: &str, metric: Metric, bound: f64) -> Checked {
        let sweep = records(lines);
        let pins = [Pin {
            program: program.to_string(),
            metric,
            bound,
        }];
        let rows = pin_rows(&refs(&sweep), &pins);
        let missing = missing_pins(&rows, &pins);
        Checked {
            values: rows.iter().map(|r| r.value).collect(),
            failed: rows.iter().map(PinRow::failed).collect(),
            details: rows.iter().map(|r| r.detail.clone()).collect(),
            missing: !missing.is_empty(),
            markdown: pins_markdown(&rows, &missing),
        }
    }

    #[test]
    fn parses_machine_written_records() {
        let simulated = "\"wall_clock_ns\": null, \"promoted_bytes\": 1";
        let sweep = records(&[
            walled("Barnes-Hut", 4, 280000000, 257072),
            record("Barnes-Hut", "simulated", 4, simulated),
        ]);
        let sweep = checked(refs(&sweep)).expect("the records are readable");
        let cmp = compare(&sweep, &sweep);
        assert_eq!(cmp.rows[0].wall_ratio, Some(1.0));
        assert_eq!(cmp.rows[1].wall_ratio, None, "simulated runs have no wall");
        assert!(markdown(&cmp).contains("| Barnes-Hut | threaded | 4 | node-local | 280.00 |"));

        // A record without a wall-clock field or a promotion count is refused.
        for unreadable in ["\"promoted_bytes\": 0", "\"wall_clock_ns\": 5"] {
            let sweep = records(&[record("Dmm", "threaded", 1, unreadable)]);
            let err = checked(refs(&sweep)).unwrap_err();
            assert!(err.starts_with("record lacks a numeric"), "{err}");
        }
    }

    #[test]
    fn parses_real_run_record_json() {
        use mgc_runtime::{Backend, EnvOverrides, Experiment};
        use mgc_workloads::{Scale, Workload};
        let record = Experiment::new(Workload::Dmm.program(Scale::tiny()))
            .env_overrides(EnvOverrides::default())
            .backend(Backend::Threaded)
            .run()
            .expect("a one-vproc DMM run is valid");
        let records = records(&[record.to_json()]);
        let records = checked(refs(&records)).expect("real records are readable");
        assert_eq!(records[0].program(), "Dense-Matrix-Multiply");
        assert!(records[0].wall_clock_ns().is_some());
        assert!(compare(&records, &records).regressions().is_empty());
    }

    #[test]
    fn identical_sweeps_pass_the_gate() {
        let sweep = [walled("Quicksort", 2, 20000000, 500000)];
        let (verdicts, md) = regressions(&sweep, &sweep);
        assert!(verdicts.is_empty());
        assert!(md.contains("| ok |"));
    }

    /// The acceptance demonstration: an injected 3× wall-clock regression
    /// (beyond the 2.5× gate) must turn the comparison red.
    #[test]
    fn injected_3x_wall_regression_fails_the_gate() {
        let (verdicts, md) = regressions(
            &[walled("Barnes-Hut", 4, 100000000, 257072)],
            &[walled("Barnes-Hut", 4, 300000000, 257072)],
        );
        assert_eq!(verdicts, vec![Verdict::WallRegression]);
        assert!(md.contains("WALL REGRESSION"));
    }

    #[test]
    fn promoted_bytes_regression_fails_and_noise_floor_tolerates_tiny_points() {
        let (verdicts, _) = regressions(
            &[walled("Churn", 2, 50000000, 200000)],
            &[walled("Churn", 2, 50000000, 400000)],
        );
        assert_eq!(verdicts, vec![Verdict::PromotedRegression]);

        // Sub-floor points never regress: 0.1 ms → 2 ms is 20× but both are
        // noise next to the 5 ms floor; 1 KiB → 60 KiB promoted likewise.
        let (verdicts, _) = regressions(
            &[walled("Dmm", 1, 100000, 1024)],
            &[walled("Dmm", 1, 2000000, 61440)],
        );
        assert!(verdicts.is_empty(), "noise must not fail the gate");
    }

    #[test]
    fn pins_file_round_trips() {
        let pins = parse_pins(
            "[\n  {\"program\": \"Dense-Matrix-Multiply\", \"metric\": \"speedup\", \"bound\": 2.0},\
             \n  {\"program\": \"Barnes-Hut\", \"metric\": \"pause_max_ms\", \"bound\": 20.0},\
             \n  {\"bound\": 25, \"metric\": \"latency_p99_ms\", \"program\": \"Request-Server\"}\n]\n",
        )
        .expect("pins parse");
        let read: Vec<(&str, Metric, f64)> = pins
            .iter()
            .map(|p| (p.program.as_str(), p.metric, p.bound))
            .collect();
        assert_eq!(
            read,
            vec![
                ("Dense-Matrix-Multiply", Metric::Speedup, 2.0),
                ("Barnes-Hut", Metric::PauseMaxMs, 20.0),
                ("Request-Server", Metric::LatencyP99Ms, 25.0),
            ]
        );
    }

    /// A pin file written on one line is parsed whole, and the old
    /// `{"program": bound}` object form is refused instead of read as
    /// zero pins.
    #[test]
    fn one_line_pin_files_are_parsed_whole_or_refused() {
        let pins = parse_pins(
            "[{\"program\": \"Dense-Matrix-Multiply\", \"metric\": \"speedup\", \"bound\": 2.0}, \
             {\"program\": \"Quicksort\", \"metric\": \"speedup\", \"bound\": 1.5}]",
        )
        .expect("a one-line pin list parses");
        assert_eq!(pins.len(), 2);
        assert_eq!(
            (pins[1].program.as_str(), pins[1].bound),
            ("Quicksort", 1.5)
        );

        let err = parse_pins("{\"Dense-Matrix-Multiply\": 2.0, \"Quicksort\": 1.5}").unwrap_err();
        assert!(err.contains("JSON array"), "{err}");
    }

    #[test]
    fn pin_files_that_would_weaken_the_gate_are_rejected() {
        let qs = "{\"program\": \"Quicksort\", \"metric\": \"speedup\", \"bound\": 1.5}";
        let one = |edit: (&str, &str)| format!("[{}]", qs.replace(edit.0, edit.1));
        for (text, error) in [
            ("[]".to_string(), "the pin list is empty"),
            (qs.to_string(), "a pin file is a JSON array"),
            ("[2.0]".to_string(), "pin 1: not a"),
            (
                format!("[{qs}, {qs}]"),
                "pin 2 (Quicksort): a second speedup pin",
            ),
            (
                one(("speedup", "p99")),
                "pin 1 (Quicksort): unknown metric \"p99\"",
            ),
            (
                one(("1.5", "\"1.5\"")),
                "pin 1 (Quicksort): \"bound\" is not a number",
            ),
            (
                one(("}", ", \"note\": 1}")),
                "pin 1 (Quicksort): unknown field \"note\"",
            ),
            (
                one(("\"metric\": \"speedup\", ", "")),
                "pin 1 (Quicksort): missing \"metric\"",
            ),
            (
                one(("}", ", \"bound\": 9}")),
                "pin 1 (Quicksort): field \"bound\" appears twice",
            ),
        ] {
            let err = parse_pins(&text).unwrap_err();
            assert!(err.starts_with(error), "`{error}` does not start: {err}");
        }
    }

    /// The checked-in pin file holds the thirteen pins the three
    /// per-metric threshold files used to, with the same bounds.
    #[test]
    fn checked_in_pins_hold_every_bound() {
        let pins = parse_pins(include_str!("../../../results/baseline/pins.json"))
            .expect("the checked-in pins parse");
        let bounds: Vec<(&str, &str, f64)> = pins
            .iter()
            .map(|p| (p.program.as_str(), p.metric.name(), p.bound))
            .collect();
        assert_eq!(
            bounds,
            vec![
                ("Dense-Matrix-Multiply", "speedup", 2.0),
                ("Raytracer", "speedup", 2.0),
                ("Synthetic-Churn", "speedup", 2.0),
                ("Quicksort", "speedup", 1.5),
                ("SMVM", "speedup", 1.2),
                ("Barnes-Hut", "speedup", 1.1),
                ("Dense-Matrix-Multiply", "pause_max_ms", 5.0),
                ("Raytracer", "pause_max_ms", 5.0),
                ("Quicksort", "pause_max_ms", 60.0),
                ("Barnes-Hut", "pause_max_ms", 25.0),
                ("SMVM", "pause_max_ms", 10.0),
                ("Synthetic-Churn", "pause_max_ms", 25.0),
                ("Request-Server", "latency_p99_ms", 2000.0),
            ]
        );
    }

    #[test]
    fn healthy_scaling_passes_the_speedup_gate() {
        let sweep = [
            walled("Dmm", 1, 100000000, 0),
            walled("Dmm", 2, 55000000, 0),
            walled("Dmm", 4, 30000000, 0),
            record("Dmm", "simulated", 8, "\"wall_clock_ns\": null"),
        ];
        let c = check(&sweep, "Dmm", Metric::Speedup, 2.0);
        assert_eq!(c.values.len(), 1);
        assert!((c.values[0].expect("both ends present") - 100.0 / 30.0).abs() < 1e-9);
        assert_eq!(c.failed, vec![false]);
        assert!(!c.missing);
        assert!(
            c.markdown.contains(
                "| 1→4 | — | 3.33× | ≥ 2.00× | wall 1v: 100.00, 2v: 55.00, 4v: 30.00 ms | ok |"
            ),
            "simulated points are excluded: {}",
            c.markdown
        );
    }

    /// The acceptance demonstration for the speedup pin: a sweep whose
    /// 4-vproc time barely improves on 1 vproc (an injected scaling
    /// regression) must fail a 2× pin.
    #[test]
    fn injected_scaling_regression_fails_the_speedup_gate() {
        let sweep = [
            walled("Dmm", 1, 100000000, 0),
            walled("Dmm", 4, 90000000, 0),
        ];
        let c = check(&sweep, "Dmm", Metric::Speedup, 2.0);
        assert_eq!(c.failed, vec![true], "1.11× must fail a 2× pin");
        assert!(c.markdown.contains("SPEEDUP REGRESSION"));
    }

    #[test]
    fn unpinned_programs_and_missing_pins_are_handled() {
        let sweep = [
            walled("Quicksort", 1, 100000000, 0),
            walled("Quicksort", 4, 95000000, 0),
        ];
        let c = check(&sweep, "Dmm", Metric::Speedup, 2.0);
        // Quicksort scales poorly but is not pinned: it is not checked.
        assert!(c.values.is_empty());
        // Dmm is pinned but absent from the sweep: that must be loud.
        assert!(c.missing);
        assert!(c
            .markdown
            .contains("`Dmm` has a speedup pin but no threaded points"));
    }

    #[test]
    fn single_vproc_only_sweep_cannot_satisfy_a_pin() {
        let c = check(
            &[walled("Dmm", 1, 100000000, 0)],
            "Dmm",
            Metric::Speedup,
            2.0,
        );
        assert_eq!(c.values, vec![None]);
        assert_eq!(c.failed, vec![true], "no multi-vproc point must fail");
    }

    #[test]
    fn pause_fields_parse_and_default_to_none_on_old_records() {
        let sweep = [
            paused("Barnes-Hut", 4, 2500000, 800000),
            walled("Barnes-Hut", 2, 280000000, 0),
        ];
        let c = check(&sweep, "Barnes-Hut", Metric::PauseMaxMs, 20.0);
        assert_eq!(c.values, vec![Some(2500000.0), None], "old records lack it");
        assert_eq!(c.details, vec!["p99 0.800 ms", "p99 — ms"]);
    }

    #[test]
    fn pauses_under_the_pin_pass_the_gate() {
        let sweep = [
            paused("Barnes-Hut", 1, 1500000, 900000),
            paused("Barnes-Hut", 4, 2500000, 800000),
        ];
        let c = check(&sweep, "Barnes-Hut", Metric::PauseMaxMs, 20.0);
        assert_eq!(c.failed, vec![false, false]);
        assert!(!c.missing);
        assert!(c
            .markdown
            .contains("| 2.500 | ≤ 20.000 | p99 0.800 ms | ok |"));
    }

    /// The acceptance demonstration for the pause pin: a sweep whose max
    /// pause blows past its absolute pin must turn the gate red.
    #[test]
    fn injected_pause_regression_fails_the_gate() {
        let sweep = [paused("Barnes-Hut", 4, 50000000, 3000000)];
        let c = check(&sweep, "Barnes-Hut", Metric::PauseMaxMs, 20.0);
        assert_eq!(c.failed, vec![true], "50 ms must fail a 20 ms pin");
        assert!(c.markdown.contains("PAUSE REGRESSION"));
    }

    #[test]
    fn pinned_points_without_pause_telemetry_fail_loudly() {
        // An old-schema record (no pause fields) for a pinned program must
        // not silently pass; an unpinned one is not checked at all.
        let sweep = [walled("Barnes-Hut", 4, 280000000, 0)];
        let c = check(&sweep, "Barnes-Hut", Metric::PauseMaxMs, 20.0);
        assert_eq!(c.failed, vec![true]);
        assert!(check(&sweep, "SMVM", Metric::PauseMaxMs, 20.0)
            .values
            .is_empty());
    }

    #[test]
    fn missing_pause_pins_are_loud() {
        let sweep = [paused("Quicksort", 2, 1000000, 500000)];
        let c = check(&sweep, "Barnes-Hut", Metric::PauseMaxMs, 20.0);
        assert!(c.missing);
        assert!(c
            .markdown
            .contains("**MISSING PINNED PROGRAM**: `Barnes-Hut` has a pause_max_ms pin"));
    }

    #[test]
    fn pause_budget_is_part_of_the_matching_key() {
        let unbudgeted = [serving("null", 0, 0)];
        let budgeted = [serving("250", 0, 0)];
        assert_eq!(records(&budgeted)[0].pause_budget_us(), Some(250));

        // Same program/backend/vprocs/placement, different budget: the
        // budgeted point must NOT be compared against the unbudgeted
        // baseline — it shows up as a missing baseline point plus a new
        // current point instead.
        let (baseline, current) = (records(&unbudgeted), records(&budgeted));
        let cmp = compare(&refs(&baseline), &refs(&current));
        assert_eq!(cmp.regressions()[0].verdict, Verdict::Missing);
        assert_eq!(cmp.new_points.len(), 1);

        // Identical budgets still match, and records that predate the knob
        // read as unbudgeted.
        assert!(regressions(&budgeted, &budgeted).0.is_empty());
        let old = [walled("Request-Server", 4, 5000000000, 0)];
        assert!(regressions(&old, &unbudgeted).0.is_empty());
    }

    #[test]
    fn latency_fields_parse_and_default_to_none_on_old_records() {
        let sweep = [
            serving("null", 2000000, 4000000),
            walled("Request-Server", 4, 5000000000, 0),
        ];
        let c = check(&sweep, "Request-Server", Metric::LatencyP99Ms, 25.0);
        assert_eq!(c.values, vec![Some(2000000.0), None], "old records lack it");
        assert_eq!(c.details, vec!["p99.9 4.000 ms", "p99.9 — ms"]);
    }

    #[test]
    fn latencies_under_the_pin_pass_the_gate() {
        let sweep = [
            serving("null", 2000000, 4000000),
            serving("500", 2500000, 5000000),
        ];
        let c = check(&sweep, "Request-Server", Metric::LatencyP99Ms, 25.0);
        assert_eq!(c.failed, vec![false, false]);
        assert!(!c.missing);
        assert!(
            c.markdown.contains("| 4 | 500 | 2.500 | ≤ 25.000 |"),
            "{}",
            c.markdown
        );
    }

    /// The acceptance demonstration for the latency pin: a sweep whose p99
    /// request latency blows past its absolute pin must turn the gate red.
    #[test]
    fn injected_latency_regression_fails_the_gate() {
        let sweep = [serving("null", 80000000, 120000000)];
        let c = check(&sweep, "Request-Server", Metric::LatencyP99Ms, 25.0);
        assert_eq!(c.failed, vec![true], "80 ms must fail a 25 ms pin");
        assert!(c.markdown.contains("LATENCY REGRESSION"));
    }

    #[test]
    fn pinned_points_without_latency_telemetry_fail_loudly() {
        let sweep = [walled("Request-Server", 4, 5000000000, 0)];
        let c = check(&sweep, "Request-Server", Metric::LatencyP99Ms, 25.0);
        assert_eq!(c.failed, vec![true]);
        assert!(check(&sweep, "Other", Metric::LatencyP99Ms, 25.0)
            .values
            .is_empty());
    }

    #[test]
    fn missing_latency_pins_are_loud() {
        let sweep = [paused("Quicksort", 2, 1000000, 500000)];
        let c = check(&sweep, "Request-Server", Metric::LatencyP99Ms, 25.0);
        assert!(c.missing);
        assert!(c.markdown.contains("MISSING PINNED PROGRAM"));
    }

    #[test]
    fn missing_points_are_flagged_and_new_points_reported() {
        let (verdicts, md) = regressions(
            &[
                walled("Quicksort", 2, 20000000, 500000),
                walled("SMVM", 2, 20000000, 500000),
            ],
            &[
                walled("Quicksort", 2, 20000000, 500000),
                walled("Raytracer", 2, 20000000, 500000),
            ],
        );
        assert_eq!(verdicts, vec![Verdict::Missing]);
        assert!(
            md.contains("New points (no baseline, informational):\n- Raytracer /"),
            "{md}"
        );
    }

    // ------------------------------------------------------------------
    // Store-backed inputs: both record sets read from one store directory.
    // ------------------------------------------------------------------

    /// Appends each batch to a fresh temp store and opens it.
    fn open_store(tag: &str, batches: &[Vec<String>]) -> Store {
        let dir = std::env::temp_dir().join(format!("mgc-perfdiff-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for lines in batches {
            let meta = mgc_store::RunMeta::capture("test", "tiny");
            Store::append_lines(&dir, &meta, lines).expect("append succeeds");
        }
        let store = Store::open(&dir).expect("the store opens");
        let _ = std::fs::remove_dir_all(&dir);
        store
    }

    #[test]
    fn store_directories_load_the_latest_record_per_key() {
        let store = open_store(
            "latest",
            &[
                vec![
                    walled("Quicksort", 1, 90000000, 0),
                    walled("Quicksort", 4, 40000000, 0),
                ],
                vec![walled("Quicksort", 4, 34000000, 0)],
            ],
        );
        let current = current_records(&store).expect("the store loads");
        let walls: Vec<Option<f64>> = current.iter().map(|r| r.wall_clock_ns()).collect();
        assert_eq!(
            walls,
            vec![Some(90000000.0), Some(34000000.0)],
            "re-run keys collapse to one point each, and the newer batch shadows the older one"
        );

        // The baseline is the named batches only.
        let baseline = baseline_records(&store, &[1]).expect("batch 1 exists");
        assert_eq!(baseline[1].wall_clock_ns(), Some(40000000.0));
        let err = baseline_records(&store, &[1, 7]).unwrap_err();
        assert!(err.contains("no batch 7"), "{err}");
    }

    /// Two Dmm points and a serve point with every pinned metric: speedup
    /// 2.5×, max pause 3 ms and p99 request latency 2 ms when healthy. A
    /// regressed sweep has 2.5× the promoted bytes at 1 vproc, a 7.5×
    /// 4-vproc wall (so a 0.33× speedup), a 50 ms pause and an 80 ms p99.
    fn sweep(regressed: bool) -> Vec<String> {
        let (promoted, wall_ms, pause_ms, p99_ms) = if regressed {
            (250000, 300, 50, 80)
        } else {
            (100000, 40, 3, 2)
        };
        let dmm = |vprocs, wall_ms: u64, promoted: u64, pause_ms: u64| {
            let members = format!(
                "\"wall_clock_ns\": {}, \"promoted_bytes\": {promoted}, \"pause_max_ns\": {}",
                wall_ms * 1_000_000,
                pause_ms * 1_000_000
            );
            record("Dmm", "threaded", vprocs, &members)
        };
        vec![
            dmm(1, 100, promoted, 2),
            dmm(4, wall_ms, 100000, pause_ms),
            serving("null", p99_ms * 1_000_000, 0),
        ]
    }

    fn gate_pins() -> Vec<Pin> {
        parse_pins(
            "[{\"program\": \"Dmm\", \"metric\": \"speedup\", \"bound\": 2.0},
              {\"program\": \"Dmm\", \"metric\": \"pause_max_ms\", \"bound\": 20.0},
              {\"program\": \"Request-Server\", \"metric\": \"latency_p99_ms\", \"bound\": 25.0}]",
        )
        .expect("the test pins parse")
    }

    /// The metrics of the failing pin rows over a store's current sweep.
    fn failed_pins(store: &Store) -> Vec<Metric> {
        let pins = gate_pins();
        let current = current_records(store).unwrap();
        let rows = pin_rows(&current, &pins);
        assert!(missing_pins(&rows, &pins).is_empty());
        rows.iter()
            .filter(|r| r.failed())
            .map(|r| r.pin.metric)
            .collect()
    }

    #[test]
    fn all_five_gates_pass_on_a_healthy_store() {
        let store = open_store("healthy", &[sweep(false), sweep(false)]);
        let baseline = baseline_records(&store, &[1]).unwrap();
        let current = current_records(&store).unwrap();
        assert!(compare(&baseline, &current).regressions().is_empty());
        assert!(failed_pins(&store).is_empty());
    }

    /// The exit-1 scenarios, through the store: one appended batch injects
    /// a regression for every gate, and each gate catches its own.
    #[test]
    fn injected_regressions_fail_every_gate_from_the_store() {
        // Latest-per-key means the gate sees only the regressed batch.
        let store = open_store("inject", &[sweep(false), sweep(true)]);
        let baseline = baseline_records(&store, &[1]).unwrap();
        let current = current_records(&store).unwrap();
        let cmp = compare(&baseline, &current);
        let verdicts: Vec<Verdict> = cmp.regressions().iter().map(|r| r.verdict).collect();
        assert_eq!(
            verdicts,
            vec![Verdict::PromotedRegression, Verdict::WallRegression]
        );
        assert_eq!(
            failed_pins(&store),
            vec![Metric::Speedup, Metric::PauseMaxMs, Metric::LatencyP99Ms]
        );
    }

    #[test]
    fn future_schema_versions_are_rejected_at_load() {
        let dir = std::env::temp_dir().join(format!("mgc-perfdiff-future-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let line = walled("Dmm", 1, 1, 0).replace("{", "{\"schema_version\": 99, ");
        let batch =
            format!("{{\"store_schema_version\": 1, \"meta\": {{}}, \"records\": [{line}]}}");
        std::fs::write(dir.join("run-000001.json"), batch).unwrap();
        let err = Store::open(&dir).unwrap_err().to_string();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.contains("\"schema_version\""), "{err}");
        assert!(err.contains("99"), "{err}");
    }
}
