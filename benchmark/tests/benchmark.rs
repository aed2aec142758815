//! The benchmark's own checks: the committed `BENCHMARK.json` matches the
//! definition tables, every layer metric names what it should move, a
//! debug-sized smoke pass reports every metric with traced digests equal
//! to untraced ones, and the check that holds the paper-scenario runner
//! to `gcr_bench::run_one` catches a difference.

use std::collections::BTreeSet;
use std::rc::Rc;

use gcr_bench::RunResult;
use gcr_benchmark::def::{COMMAND, END_TO_END, OUTCOMES, PER_LAYER, RUN_SECONDS, WORKLOADS};
use gcr_benchmark::pace::Clock;
use gcr_benchmark::paper::{hpl_gp, run_spec, same_as_run_one};
use gcr_benchmark::repo_root;
use gcr_benchmark::report::{compare, pinned, summarize};
use gcr_benchmark::run::{build, measure, smoke, Options, Scale};
use gcr_benchmark::spans::Spans;
use gcr_json::Json;

/// The definition document the tables describe, in the layout
/// `BENCHMARK.json` must have.
fn expected_definition() -> Json {
    Json::obj([
        (
            "command",
            Json::from(COMMAND.iter().map(|s| Json::from(*s)).collect::<Vec<_>>()),
        ),
        ("paths", Json::from(vec![Json::from("benchmark")])),
        ("run_seconds", Json::from(RUN_SECONDS)),
        (
            "workloads",
            Json::from(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::from(w.name)), ("why", Json::from(w.why))]))
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "end_to_end",
            Json::from(
                END_TO_END
                    .iter()
                    .map(|e| {
                        Json::obj([
                            ("name", Json::from(e.name)),
                            ("unit", Json::from(e.unit)),
                            ("better", Json::from(e.better.label())),
                            ("bound", Json::from(e.bound)),
                        ])
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
        (
            "per_layer",
            Json::from(
                PER_LAYER
                    .iter()
                    .map(|l| {
                        Json::obj([
                            ("name", Json::from(l.name)),
                            ("unit", Json::from(l.unit)),
                            ("better", Json::from(l.better.label())),
                        ])
                    })
                    .collect::<Vec<_>>(),
            ),
        ),
    ])
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn benchmark_json_matches_the_definition_tables() {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let committed = Json::parse(&text).expect("BENCHMARK.json parses");
    let expected = expected_definition();
    assert!(
        committed == expected,
        "BENCHMARK.json is out of date; expected:\n{}",
        expected.pretty()
    );
}

#[test]
fn names_units_and_bounds_are_within_the_format_limits() {
    assert!((2..=8).contains(&WORKLOADS.len()));
    assert!((1..=16).contains(&END_TO_END.len()));
    assert!((1..=128).contains(&PER_LAYER.len()));
    assert!((1..=60).contains(&RUN_SECONDS));
    assert!(COMMAND.len() <= 32 && COMMAND.iter().all(|s| s.len() <= 200));
    let mut names = BTreeSet::new();
    for w in WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(!w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'));
        assert!(names.insert(w.name), "duplicate name {}", w.name);
    }
    let mut metrics = BTreeSet::new();
    for e in END_TO_END {
        assert!(valid_name(e.name) && valid_unit(e.unit), "{}", e.name);
        assert!(e.bound > 0.0 && e.bound <= 0.25, "{}", e.name);
        assert!(metrics.insert(e.name), "duplicate metric {}", e.name);
    }
    for l in PER_LAYER {
        assert!(valid_name(l.name) && valid_unit(l.unit), "{}", l.name);
        assert!(metrics.insert(l.name), "duplicate metric {}", l.name);
    }
    let setup = END_TO_END
        .iter()
        .find(|e| e.name == "setup_s")
        .expect("setup_s");
    assert_eq!(setup.unit, "s");
    assert_eq!(setup.better.label(), "lower");
    assert!(END_TO_END.iter().all(|e| e.bound <= setup.bound));
}

#[test]
fn every_layer_metric_names_what_it_should_move() {
    let workload = |w: &str| WORKLOADS.iter().any(|d| d.name == w);
    for l in PER_LAYER {
        if OUTCOMES.contains(&l.name) {
            assert!(l.moves.is_empty(), "{} is an outcome", l.name);
            continue;
        }
        assert!(!l.moves.is_empty(), "{} names no end-to-end target", l.name);
        for (metric, w) in l.moves {
            assert!(
                END_TO_END.iter().any(|e| e.name == *metric) || OUTCOMES.contains(metric),
                "{} moves unknown metric {metric}",
                l.name
            );
            assert!(
                workload(w),
                "{} moves {metric} on unknown workload {w}",
                l.name
            );
        }
        for w in l.flat_on {
            assert!(workload(w), "{} is flat on unknown workload {w}", l.name);
        }
    }
    for o in OUTCOMES {
        assert!(
            PER_LAYER.iter().any(|l| l.name == o),
            "outcome {o} is not reported"
        );
    }
}

#[test]
fn smoke_pass_reports_every_metric_and_traced_digests_match() {
    let reports = smoke(3, &repo_root()).expect("smoke workloads build");
    assert_eq!(reports.len(), WORKLOADS.len());
    for r in &reports {
        assert!(r.correct(), "{}: {:?}", r.workload, r.errors);
        // Every traced sample reran an input an untraced sample ran, and
        // a digest mismatch would have failed the run.
        assert!(
            r.samples >= 1 && r.traced_samples == r.samples,
            "{}",
            r.workload
        );
        // The warm-up, the samples, and the closing check.
        assert_eq!(r.attempted as usize, 1 + r.samples + r.traced_samples + 1);

        let line = r.verdict_json();
        let Json::Obj(fields) = &line else {
            panic!("verdict is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").expect("metrics");
        for l in PER_LAYER {
            let m = metrics
                .get(l.name)
                .unwrap_or_else(|| panic!("{} lacks {}", r.workload, l.name));
            assert!(m.f64_field("value").expect("value").is_finite());
            assert_eq!(m.str_field("unit").expect("unit"), l.unit);
        }

        let doc = r.to_json(&Json::obj([("seed", Json::from(3u64))]));
        for e in END_TO_END {
            let v = doc
                .get("end_to_end")
                .and_then(|m| m.get(e.name))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{} lacks {}", r.workload, e.name));
            assert!(v > 0.0, "{} reports {} = {v}", r.workload, e.name);
        }
    }
    let value = |w: &str, k: &str| reports.iter().find(|r| r.workload == w).expect(w).per_layer[k];
    assert!(value("hpl5k_crash", "sim.slow_path_share") > 0.0);
    assert!(value("cg128_gp1", "core.hooks.share") > 0.0);
    assert!(value("hpl128_gp", "group.intra_share") > 0.0);
    assert!(value("chaos_campaign", "chaos.scenarios") >= 1.0);
    assert!(value("lint_workspace", "lint.files") > 0.0);
    assert_eq!(value("lint_workspace", "lint.findings"), 0.0);
}

#[test]
fn a_digest_off_its_pin_fails_the_whole_run() {
    assert_eq!(pinned("lint_workspace", 1), Some(0x8820_1fb9_60ff_6465));
    assert_eq!(pinned("lint_workspace", 2), None);
    let opts = Options {
        seconds: 0.0,
        trace: false,
    };
    let mut bench = build("lint_workspace", Scale::Smoke, 1, &repo_root()).expect("lint builds");
    let report = measure("lint_workspace", bench.as_mut(), opts, Some(0xbad));
    assert!(!report.correct());
    assert_eq!(report.failed, report.attempted);
    assert!(
        report.errors.iter().any(|e| e.contains("pinned")),
        "{:?}",
        report.errors
    );
}

#[test]
fn the_runner_check_flags_a_result_that_differs_from_run_one() {
    let spec = hpl_gp(16, 7);
    let (ours, sample) = run_spec(&spec, &Rc::new(Spans::new(true)), &mut Clock::new());
    assert!(sample.errors.is_empty(), "{:?}", sample.errors);
    same_as_run_one(&spec, &ours).expect("the probed runner reproduces run_one");
    let off = RunResult {
        exec_s: ours.exec_s + 1e-9,
        ..ours
    };
    assert!(same_as_run_one(&spec, &off).is_err());
}

fn results(wall: f64, digest: &str, exec: f64) -> Json {
    let run = Json::obj([
        ("meta", Json::obj([("seed", Json::from(1u64))])),
        ("correct", Json::from(true)),
        ("digest", Json::from(digest)),
        (
            "end_to_end",
            Json::obj([("wall_s", Json::obj([("value", Json::from(wall))]))]),
        ),
        (
            "outcomes",
            Json::obj(OUTCOMES.iter().map(|k| (*k, Json::from(exec)))),
        ),
    ]);
    let runs = vec![run];
    Json::obj([
        ("schema", Json::from(gcr_benchmark::report::SCHEMA)),
        (
            "workloads",
            Json::obj([(
                "hpl128_gp",
                Json::obj([("end_to_end", summarize(&runs)), ("runs", Json::from(runs))]),
            )]),
        ),
    ])
}

#[test]
fn compare_agrees_within_bounds_and_flags_everything_else() {
    let bound = END_TO_END
        .iter()
        .find(|e| e.name == "wall_s")
        .expect("wall_s")
        .bound;
    let a = results(1.0, "0x1", 5.0);
    let (_, agree) = compare(&a, &results(1.0 + bound / 2.0, "0x1", 5.0)).expect("compare");
    assert!(agree);
    let (table, agree) = compare(&a, &results(1.0 + bound * 2.0, "0x1", 5.0)).expect("compare");
    assert!(!agree && table.contains("worse"), "{table}");
    let (table, agree) = compare(&a, &results(1.0, "0x2", 5.0)).expect("compare");
    assert!(!agree && table.contains("mismatch"), "{table}");
    let (table, agree) = compare(&a, &results(1.0, "0x1", 5.5)).expect("compare");
    assert!(!agree && table.contains("sim_exec_s"), "{table}");
    assert!(compare(&a, &Json::obj([("schema", Json::from("other"))])).is_err());
}
