//! Result documents: the one-line verdict, the results file, the metadata
//! header, pinned digests, and `--compare`.

use std::fmt::Write as _;
use std::path::Path;

use gcr_json::Json;

use crate::def::{END_TO_END, OUTCOMES, PER_LAYER, WORKLOADS};
use crate::pace;
use crate::run::RunReport;
use crate::spans;
use crate::stats::quartiles;

/// Schema tag of every results file.
pub const SCHEMA: &str = "gcr-benchmark/v1";

/// Digests pinned for one seed at full scale (`pins.json`).
const PINS: &str = include_str!("../pins.json");

/// A digest as the results files spell it.
fn hex(d: u64) -> String {
    format!("{d:#018x}")
}

fn parse_hex(s: &str) -> Option<u64> {
    u64::from_str_radix(s.strip_prefix("0x")?, 16).ok()
}

/// The pinned digest of `workload` at `seed`, if `pins.json` has one.
///
/// # Panics
/// `pins.json` is malformed (it is compiled in, so this is a build bug).
pub fn pinned(workload: &str, seed: u64) -> Option<u64> {
    let pins = Json::parse(PINS).expect("pins.json is valid JSON");
    if pins.u64_field("seed").ok()? != seed {
        return None;
    }
    parse_hex(pins.get("digests")?.get(workload)?.as_str()?)
}

/// The commit the checkout is at, read from `.git` (or `unknown`).
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(name) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(name))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The metadata header: commit, compiler, cores and seed.
pub fn meta(root: &Path, seed: u64) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("git_rev", Json::from(git_rev(root))),
        ("rustc", Json::from(env!("GCR_BENCHMARK_RUSTC"))),
        ("nproc", Json::from(nproc)),
        ("seed", Json::from(seed)),
    ])
}

/// The metadata header as one printable line.
pub fn meta_line(meta: &Json) -> String {
    format!(
        "# gcr-benchmark rev {} | {} | nproc {} | seed {}",
        meta.get("git_rev").and_then(Json::as_str).unwrap_or("?"),
        meta.get("rustc").and_then(Json::as_str).unwrap_or("?"),
        meta.get("nproc").and_then(Json::as_u64).unwrap_or(0),
        meta.get("seed").and_then(Json::as_u64).unwrap_or(0),
    )
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

impl RunReport {
    /// The last line of a run's output: verdict, counts, and the
    /// end-to-end metrics (untraced) or per-layer metrics (traced).
    pub fn verdict_json(&self) -> Json {
        let metric = |v: f64, unit: &str| {
            Json::obj([("value", Json::from(finite(v))), ("unit", Json::from(unit))])
        };
        let metrics: Vec<(&str, Json)> = if self.opts.trace {
            PER_LAYER
                .iter()
                .map(|l| (l.name, metric(self.per_layer[l.name], l.unit)))
                .collect()
        } else {
            self.end_to_end
                .iter()
                .map(|m| (m.def.name, metric(m.value(), m.def.unit)))
                .collect()
        };
        Json::obj([
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::obj(metrics)),
        ])
    }

    /// The full results document of this run.
    pub fn to_json(&self, meta: &Json) -> Json {
        let e2e = self.end_to_end.iter().map(|m| {
            (
                m.def.name,
                Json::obj([
                    ("value", Json::from(finite(m.value()))),
                    ("q1", Json::from(finite(m.samples.q1))),
                    ("q3", Json::from(finite(m.samples.q3))),
                    ("unit", Json::from(m.def.unit)),
                    ("better", Json::from(m.def.better.label())),
                    ("bound", Json::from(m.def.bound)),
                ]),
            )
        });
        let layers = PER_LAYER.iter().filter_map(|l| {
            let v = *self.per_layer.get(l.name)?;
            Some((
                l.name,
                Json::obj([
                    ("value", Json::from(finite(v))),
                    ("unit", Json::from(l.unit)),
                ]),
            ))
        });
        Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("meta", meta.clone()),
            ("workload", Json::from(self.workload.as_str())),
            ("seconds", Json::from(self.opts.seconds)),
            ("trace", Json::from(self.opts.trace)),
            ("correct", Json::from(self.correct())),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            (
                "fail_share",
                Json::from(self.failed as f64 / self.attempted.max(1) as f64),
            ),
            ("digest", Json::from(hex(self.digest))),
            (
                "pinned",
                self.pinned.map_or(Json::Null, |p| Json::from(hex(p))),
            ),
            ("samples", Json::from(self.samples)),
            ("traced_samples", Json::from(self.traced_samples)),
            (
                "pace_s",
                Json::obj([
                    ("reference", Json::from(pace::REFERENCE_S)),
                    ("q1", Json::from(self.pace.q1)),
                    ("median", Json::from(self.pace.median)),
                    ("q3", Json::from(self.pace.q3)),
                ]),
            ),
            ("measured_s", Json::from(self.measured_s)),
            ("total_s", Json::from(self.total_s)),
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj(layers)),
            (
                "outcomes",
                Json::obj(self.outcomes.iter().map(|(k, v)| (*k, Json::from(*v)))),
            ),
            (
                "errors",
                Json::from(
                    self.errors
                        .iter()
                        .map(|e| Json::from(e.as_str()))
                        .collect::<Vec<_>>(),
                ),
            ),
        ])
    }

    /// The traced spans, with self times.
    pub fn spans_json(&self) -> Json {
        spans::to_json(&self.spans)
    }

    /// Human-readable lines: sample counts, then every reported metric
    /// with its unit.
    pub fn human(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "# {} trace {} | 1 warm-up + {} sample(s) + {} traced in {:.2} s (run {:.2} s) | pace {:.2} | digest {} | {}",
            self.workload,
            u8::from(self.opts.trace),
            self.samples,
            self.traced_samples,
            self.measured_s,
            self.total_s,
            self.pace.median / pace::REFERENCE_S,
            hex(self.digest),
            if self.correct() { "correct" } else { "INCORRECT" },
        );
        for e in &self.errors {
            let _ = writeln!(s, "# error: {e}");
        }
        if self.opts.trace {
            for l in &PER_LAYER {
                let _ = writeln!(
                    s,
                    "{:<34} {:>16.6} {}",
                    l.name, self.per_layer[l.name], l.unit
                );
            }
        } else {
            for m in &self.end_to_end {
                let q = &m.samples;
                let _ = writeln!(
                    s,
                    "{:<34} {:>16.6} {:<4} [median of samples; q1 {:.6}, q3 {:.6}]",
                    m.def.name,
                    m.value(),
                    m.def.unit,
                    q.q1,
                    q.q3
                );
            }
            for (k, v) in &self.outcomes {
                let _ = writeln!(s, "{k:<34} {v:>16.6}");
            }
        }
        s
    }
}

/// Per end-to-end metric, the median and quartiles of the values of
/// several runs of one workload (the unit `--compare` compares).
pub fn summarize(runs: &[Json]) -> Json {
    Json::obj(END_TO_END.iter().map(|e| {
        let values: Vec<f64> = runs
            .iter()
            .filter_map(|r| r.get("end_to_end")?.get(e.name)?.get("value")?.as_f64())
            .collect();
        let q = quartiles(&values);
        (
            e.name,
            Json::obj([
                ("value", Json::from(q.median)),
                ("q1", Json::from(q.q1)),
                ("q3", Json::from(q.q3)),
                ("runs", Json::from(values.len())),
                ("unit", Json::from(e.unit)),
                ("better", Json::from(e.better.label())),
                ("bound", Json::from(e.bound)),
            ]),
        )
    }))
}

struct Row {
    workload: &'static str,
    metric: String,
    a: String,
    b: String,
    change: String,
    verdict: &'static str,
}

impl Row {
    fn mismatch(workload: &'static str, metric: &str, a: String, b: String) -> Self {
        Row {
            workload,
            metric: metric.to_string(),
            a,
            b,
            change: String::new(),
            verdict: "mismatch",
        }
    }
}

fn triplet(summary: &Json, name: &str) -> Option<(f64, f64, f64)> {
    let m = summary.get(name)?;
    Some((
        m.f64_field("value").ok()?,
        m.f64_field("q1").ok()?,
        m.f64_field("q3").ok()?,
    ))
}

fn run_seed(run: &Json) -> Option<u64> {
    run.get("meta")?.get("seed")?.as_u64()
}

/// Rows for runs of equal seed whose digest or simulated outcomes differ
/// (outcomes to a relative 1e-9).
fn outcome_rows(workload: &'static str, ra: &Json, rb: &Json, rows: &mut Vec<Row>) {
    let digest = |r: &Json| {
        r.get("digest")
            .and_then(Json::as_str)
            .unwrap_or("-")
            .to_string()
    };
    if digest(ra) != digest(rb) {
        rows.push(Row::mismatch(workload, "digest", digest(ra), digest(rb)));
    }
    for k in OUTCOMES {
        let v = |r: &Json| {
            r.get("outcomes")
                .and_then(|o| o.get(k))
                .and_then(Json::as_f64)
        };
        let (oa, ob) = (v(ra), v(rb));
        let same = match (oa, ob) {
            (Some(x), Some(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
            _ => false,
        };
        if !same {
            let show = |o: Option<f64>| o.map_or_else(|| "-".to_string(), |x| x.to_string());
            rows.push(Row::mismatch(workload, k, show(oa), show(ob)));
        }
    }
}

/// Compare two results files of full runs: one row per workload ×
/// end-to-end metric with both sides' median over runs, their quartiles
/// over runs, the change and a verdict against the metric's bound; a row
/// for every run that was not correct; and a row wherever two runs of
/// equal seed differ in digest or simulated outcomes. Returns the table
/// and whether the two sets agree: every change within its bound in both
/// directions, nothing failed and nothing mismatched.
///
/// # Errors
/// Either document is not a results file.
pub fn compare(a: &Json, b: &Json) -> Result<(String, bool), String> {
    for doc in [a, b] {
        if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return Err(format!("not a {SCHEMA} results file"));
        }
    }
    let mut rows = Vec::new();
    for w in WORKLOADS {
        let side = |d: &Json| d.get("workloads")?.get(w.name).cloned();
        let (Some(sa), Some(sb)) = (side(a), side(b)) else {
            continue;
        };
        let runs = |s: &Json| {
            s.get("runs")
                .and_then(Json::as_arr)
                .map(<[Json]>::to_vec)
                .unwrap_or_default()
        };
        let (runs_a, runs_b) = (runs(&sa), runs(&sb));
        for r in runs_a.iter().chain(&runs_b) {
            if r.get("correct").and_then(Json::as_bool) != Some(true) {
                rows.push(Row {
                    workload: w.name,
                    metric: format!("correct (seed {})", run_seed(r).unwrap_or(0)),
                    a: String::new(),
                    b: String::new(),
                    change: String::new(),
                    verdict: "failed",
                });
            }
        }
        let summary = |s: &Json| s.get("end_to_end").cloned().unwrap_or(Json::Null);
        let (ea, eb) = (summary(&sa), summary(&sb));
        for e in END_TO_END {
            let (Some(va), Some(vb)) = (triplet(&ea, e.name), triplet(&eb, e.name)) else {
                continue;
            };
            let change = e.better.worsening(va.0, vb.0);
            let verdict = if change > e.bound {
                "worse"
            } else if change < -e.bound {
                "better"
            } else {
                "ok"
            };
            rows.push(Row {
                workload: w.name,
                metric: format!("{} ({}, bound {:.0}%)", e.name, e.unit, e.bound * 100.0),
                a: format!("{:.6} [{:.6}, {:.6}]", va.0, va.1, va.2),
                b: format!("{:.6} [{:.6}, {:.6}]", vb.0, vb.1, vb.2),
                change: format!("{:+.1}%", change * 100.0),
                verdict,
            });
        }
        for ra in &runs_a {
            if let Some(rb) = runs_b.iter().find(|rb| run_seed(rb) == run_seed(ra)) {
                outcome_rows(w.name, ra, rb, &mut rows);
            }
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:<32} {:>40} {:>40} {:>8}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "change"
    );
    for r in &rows {
        let _ = writeln!(
            out,
            "{:<15} {:<32} {:>40} {:>40} {:>8}  {}",
            r.workload, r.metric, r.a, r.b, r.change, r.verdict
        );
    }
    let agree = !rows.is_empty() && rows.iter().all(|r| r.verdict == "ok");
    Ok((out, agree))
}
