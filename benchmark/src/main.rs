//! `benchmark` — the repository benchmark's command line. See
//! `BENCHMARK.md` for workloads, metrics and how to run, trace and
//! compare.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use gcr_benchmark::def::{RUN_SECONDS, WORKLOADS};
use gcr_benchmark::repo_root;
use gcr_benchmark::report::{compare, meta, meta_line, pinned, summarize, SCHEMA};
use gcr_benchmark::run::{build, measure, smoke, Options, Scale};
use gcr_json::Json;

const USAGE: &str = "usage:
  benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
  benchmark [--seed N] [--seconds S] [--runs N] [--traced] [--out FILE]
  benchmark --smoke [--seed N] [--out FILE]
  benchmark --compare A.json B.json";

/// Seconds each traced child measures when every workload runs: the
/// traced pass only needs per-layer values, not end-to-end statistics.
const TRACED_SECONDS: f64 = 1.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        trace: false,
        runs: 1,
        out: None,
        smoke: false,
        compare: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.iter().any(|d| d.name == w) {
                    return Err(format!("unknown workload `{w}`"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(a.seconds >= 0.0 && a.seconds <= 3600.0) {
                    return Err("--seconds must be within [0, 3600]".to_string());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--traced" => a.trace = true,
            "--runs" => {
                a.runs = value()?.parse().map_err(|e| format!("--runs: {e}"))?;
                if !(1..=100).contains(&a.runs) {
                    return Err("--runs must be within [1, 100]".to_string());
                }
            }
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--smoke" => a.smoke = true,
            "--compare" => {
                let first = PathBuf::from(value()?);
                a.compare = Some((first, PathBuf::from(value()?)));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.pretty() + "\n").map_err(|e| format!("{}: {e}", path.display()))
}

/// `<out>` with its `.json` extension replaced by `.trace.json`.
fn trace_path(out: &Path) -> PathBuf {
    out.with_extension("trace.json")
}

fn read(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One workload in this process; the last stdout line is the verdict.
fn one(workload: &str, a: &Args) -> Result<bool, String> {
    let root = repo_root();
    let meta = meta(&root, a.seed);
    println!("{}", meta_line(&meta));
    let mut bench = build(workload, Scale::Full, a.seed, &root)?;
    let opts = Options {
        seconds: a.seconds,
        trace: a.trace,
    };
    let report = measure(workload, bench.as_mut(), opts, pinned(workload, a.seed));
    drop(bench);
    print!("{}", report.human());
    if let Some(out) = &a.out {
        write(out, &report.to_json(&meta))?;
        if a.trace {
            write(&trace_path(out), &report.spans_json())?;
        }
    }
    println!("{}", report.verdict_json().dump());
    Ok(report.correct())
}

/// Run one workload in a child process and read back its results file.
/// A child that exits 1 ran but was incorrect; its results file still
/// holds the run, so the caller records it and carries on.
fn child(workload: &str, seed: u64, a: &Args, trace: bool, out: &Path) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seconds = if trace { TRACED_SECONDS } else { a.seconds };
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .arg("--out")
        .arg(out)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{workload}: {e}"))?;
    print!("{}", String::from_utf8_lossy(&output.stdout));
    if !matches!(output.status.code(), Some(0 | 1)) {
        return Err(format!("{workload}: child exited with {}", output.status));
    }
    read(out)
}

/// Every workload, each run in its own child process (so `peak_rss_mb`
/// is per workload), `--runs` times at seeds `seed, seed + 1, …`; writes
/// the combined results file with each workload's median over its runs.
fn all(a: &Args) -> Result<bool, String> {
    let root = repo_root();
    let meta = meta(&root, a.seed);
    println!("{}", meta_line(&meta));
    let out = a
        .out
        .clone()
        .unwrap_or_else(|| root.join("target/gcr-benchmark/results.json"));
    let parts = out.with_extension("parts");
    let mut workloads = Vec::new();
    let mut traces = Vec::new();
    let mut correct = true;
    for w in WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..a.runs {
            let path = parts.join(format!("{}.{i}.json", w.name));
            runs.push(child(w.name, a.seed.wrapping_add(i), a, false, &path)?);
        }
        let traced = if a.trace {
            let path = parts.join(format!("{}.traced.json", w.name));
            let doc = child(w.name, a.seed, a, true, &path)?;
            traces.push((w.name, read(&trace_path(&path))?));
            doc
        } else {
            Json::Null
        };
        for doc in runs.iter().chain([&traced]) {
            correct &=
                *doc == Json::Null || doc.get("correct").and_then(Json::as_bool) == Some(true);
        }
        workloads.push((
            w.name,
            Json::obj([
                ("end_to_end", summarize(&runs)),
                ("runs", Json::from(runs)),
                ("traced", traced),
            ]),
        ));
    }
    let _ = std::fs::remove_dir_all(&parts);
    write(
        &out,
        &Json::obj([
            ("schema", Json::from(SCHEMA)),
            ("meta", meta),
            ("seconds", Json::from(a.seconds)),
            ("runs", Json::from(a.runs)),
            ("workloads", Json::obj(workloads)),
        ]),
    )?;
    if a.trace {
        write(&trace_path(&out), &Json::obj(traces))?;
    }
    println!("# results: {}", out.display());
    Ok(correct)
}

fn run_smoke(a: &Args) -> Result<bool, String> {
    let root = repo_root();
    let meta = meta(&root, a.seed);
    println!("{}", meta_line(&meta));
    let reports = smoke(a.seed, &root)?;
    let mut runs = Vec::new();
    for r in &reports {
        print!("{}", r.human());
        runs.push((r.workload.clone(), r.to_json(&meta)));
    }
    if let Some(out) = &a.out {
        write(out, &Json::obj(runs))?;
    }
    Ok(reports.iter().all(|r| r.correct()))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let a = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if let Some((x, y)) = &a.compare {
        read(x).and_then(|x| {
            let (table, agree) = compare(&x, &read(y)?)?;
            print!("{table}");
            Ok(agree)
        })
    } else if a.smoke {
        run_smoke(&a)
    } else if let Some(w) = &a.workload {
        one(w, &a)
    } else {
        all(&a)
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
