//! The `gcrsim` command-line driver: run checkpointed workloads, capture
//! traces, form groups, and detect phases, all from the shell.
//!
//! ```text
//! gcrsim run    --workload hpl --procs 32 --proto gp --ckpt-at 60 --restart
//! gcrsim run    --workload cg  --procs 64 --proto vcl --interval 30 --remote
//! gcrsim trace  --workload hpl --procs 32 --out hpl32.trace.json
//! gcrsim groups --trace hpl32.trace.json --max-size 8 --out hpl32.groups.json
//! gcrsim phases --trace app.trace.json --window-ms 500 --max-size 8
//! gcrsim chaos  --seed 17 --runs 50
//! gcrsim chaos  --seed 3 --workload cg --proto gp4 --schedule 'crash:g1@2500'
//! ```

use gcr_bench::{profile_trace, run_one, RunSpec, Schedule};
use gcr_chaos::{
    parse_schedule, run_chaos, run_chaos_verified, shrink, ChaosBackend, ChaosEvent, ChaosSpec,
    Proto, WorkloadKind,
};
use gcr_group::{detect_phases, form_groups};
use gcr_net::StorageTarget;
use gcr_sim::SimDuration;
use gcr_trace::io as trace_io;

/// A parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run a checkpointed workload and print a summary.
    Run(RunArgs),
    /// Run the profiling workload and write its trace to a file.
    Trace {
        /// Workload selector.
        workload: WorkloadArg,
        /// Output path.
        out: String,
    },
    /// Form groups (Algorithm 2) from a trace file.
    Groups {
        /// Input trace path.
        trace: String,
        /// Maximum group size.
        max_size: usize,
        /// Optional output path for the group definition.
        out: Option<String>,
    },
    /// Print summary statistics of a trace file.
    Stats {
        /// Input trace path.
        trace: String,
    },
    /// Detect communication phases in a trace file.
    Phases {
        /// Input trace path.
        trace: String,
        /// Window length in milliseconds.
        window_ms: u64,
        /// Maximum group size.
        max_size: usize,
    },
    /// Run seeded fault-injection scenarios with invariant oracles.
    Chaos(ChaosArgs),
    /// Run the workspace determinism & protocol-safety analyzer.
    Lint(LintArgs),
}

/// Arguments of the `lint` subcommand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintArgs {
    /// Workspace root to scan (defaults to the current directory); the
    /// baseline is read from `<root>/lint-baseline.json`.
    pub root: String,
    /// Emit the JSON report instead of human lines.
    pub json: bool,
    /// Emit a SARIF 2.1.0 report (for code-scanning upload).
    pub sarif: bool,
    /// Print one rule's catalog entry instead of linting.
    pub explain: Option<String>,
}

/// Arguments of the `chaos` subcommand. Every field except the seed
/// defaults to the seed-generated scenario; explicit flags override it
/// (that is how a shrunken repro line pins a failure down).
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosArgs {
    /// First (or only) scenario seed.
    pub seed: u64,
    /// Number of consecutive seeds to sweep.
    pub runs: u64,
    /// Workload override.
    pub workload: Option<WorkloadKind>,
    /// Protocol override.
    pub proto: Option<Proto>,
    /// Storage override.
    pub storage: Option<StorageTarget>,
    /// Checkpoint interval override (ms).
    pub interval_ms: Option<u64>,
    /// GC-overshoot fault knob (plants a log-retention bug).
    pub gc_overshoot: Option<u64>,
    /// Schedule override (compact string form).
    pub schedule: Option<Vec<ChaosEvent>>,
    /// Executor shard-count override (layout only; digests are
    /// invariant, so this is a perf/coverage knob, not a scenario knob).
    pub shards: Option<usize>,
    /// Checkpoint-image backend (`disk` default; `restore` replicates
    /// images into peer memory and widens the event vocabulary).
    pub backend: Option<ChaosBackend>,
    /// Replication factor k for the restore backend.
    pub replication: Option<usize>,
    /// Run each scenario twice and check bit-determinism.
    pub verify: bool,
    /// Skip shrinking on failure.
    pub no_shrink: bool,
    /// Emit JSON reports instead of human lines.
    pub json: bool,
}

/// Workload selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkloadArg {
    /// One of `hpl`, `cg`, `sp`, `ring`.
    pub kind: WorkloadKind,
    /// Process count.
    pub procs: usize,
}

/// Arguments of the `run` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// Workload selector.
    pub workload: WorkloadArg,
    /// Protocol under test.
    pub proto: Proto,
    /// Checkpoint schedule.
    pub schedule: Schedule,
    /// Use remote checkpoint servers.
    pub remote: bool,
    /// Measure a full restart after completion.
    pub restart: bool,
    /// Root seed.
    pub seed: u64,
    /// Emit JSON instead of a human summary.
    pub json: bool,
}

/// CLI parse/validation errors, with a message fit for stderr.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
gcrsim — group-based checkpoint/restart simulator (IPDPS 2008 reproduction)

USAGE:
  gcrsim run    --workload <hpl|cg|sp|ring> --procs N
                --proto <norm|gp|gp1|gp4|vcl|cvc|rblog>
                [--g G] [--ckpt-at S | --interval S] [--remote] [--restart]
                [--seed X] [--json]
  gcrsim trace  --workload <hpl|cg|sp|ring> --procs N --out FILE
  gcrsim groups --trace FILE --max-size G [--out FILE]
  gcrsim stats  --trace FILE
  gcrsim phases --trace FILE --window-ms W --max-size G
  gcrsim chaos  --seed N [--runs K] [--verify] [--json] [--no-shrink]
                [--workload <ring|cg|sp|hpl>] [--proto <norm|gp|gp1|gp4|vcl|cvc|rblog>]
                [--storage <local|remote>] [--interval-ms I]
                [--gc-overshoot BYTES] [--schedule 'crash:g1@2500;storm:x8@1000+4000']
                [--shards N] [--backend <disk|restore>] [--replication K]
                (events: crash:g<G>@<ms> storm:x<F>@<ms>+<dur> outage:s<S>@<ms>+<dur>
                 slow:n<N>x<F>@<ms>+<dur> torn:n<N>x<C>@<ms> corrupt:g<G>@<ms>
                 crashckpt:g<G>p<0|1|2>@<ms> replica:g<G>[p<0|1>]@<ms>;
                 replica events drop a group's held peer copies — restore only)
  gcrsim lint   [--root DIR] [--json] [--sarif]
                [--explain RULE]   (rules: D02 D03 D03-T D10 E01 E02 E03
                 P01 P02 P10 P20 P21 W00 W01 — prints the entry and exits)
";

/// A flag a subcommand accepts: its name, and whether it takes a value.
type Flag = (&'static str, bool);

const RUN_FLAGS: &[Flag] = &[
    ("--workload", true),
    ("--procs", true),
    ("--proto", true),
    ("--g", true),
    ("--ckpt-at", true),
    ("--interval", true),
    ("--remote", false),
    ("--restart", false),
    ("--seed", true),
    ("--json", false),
];
const TRACE_FLAGS: &[Flag] = &[("--workload", true), ("--procs", true), ("--out", true)];
const GROUPS_FLAGS: &[Flag] = &[("--trace", true), ("--max-size", true), ("--out", true)];
const STATS_FLAGS: &[Flag] = &[("--trace", true)];
const PHASES_FLAGS: &[Flag] = &[
    ("--trace", true),
    ("--window-ms", true),
    ("--max-size", true),
];
const CHAOS_FLAGS: &[Flag] = &[
    ("--seed", true),
    ("--runs", true),
    ("--verify", false),
    ("--json", false),
    ("--no-shrink", false),
    ("--workload", true),
    ("--proto", true),
    ("--storage", true),
    ("--interval-ms", true),
    ("--gc-overshoot", true),
    ("--schedule", true),
    ("--shards", true),
    ("--backend", true),
    ("--replication", true),
];
const LINT_FLAGS: &[Flag] = &[
    ("--root", true),
    ("--json", false),
    ("--sarif", false),
    ("--explain", true),
];

/// A subcommand's arguments, checked against its flags.
struct Flags<'a> {
    given: Vec<(&'static str, Option<&'a str>)>,
}

impl<'a> Flags<'a> {
    /// Every argument must be one of `known`, none may be given twice,
    /// and a flag that takes a value must be followed by one (not by
    /// another `--flag`).
    fn new(sub: &str, known: &[Flag], args: &'a [String]) -> Result<Self, CliError> {
        let mut given: Vec<(&'static str, Option<&'a str>)> = Vec::new();
        let mut rest = args.iter().peekable();
        while let Some(a) = rest.next() {
            let Some(&(name, takes_value)) = known.iter().find(|(n, _)| n == a) else {
                let names: Vec<&str> = known.iter().map(|(n, _)| *n).collect();
                return Err(err(format!(
                    "unknown argument '{a}' for {sub} (flags: {})",
                    names.join(" ")
                )));
            };
            if given.iter().any(|(n, _)| *n == name) {
                return Err(err(format!("{name} given twice")));
            }
            let value = if takes_value {
                let v = rest
                    .next_if(|v| !v.starts_with("--"))
                    .ok_or_else(|| err(format!("{name} expects a value")))?;
                Some(v.as_str())
            } else {
                None
            };
            given.push((name, value));
        }
        Ok(Flags { given })
    }

    fn get(&self, name: &str) -> Option<&'a str> {
        self.given
            .iter()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| *v)
    }

    fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    fn require(&self, name: &str) -> Result<&'a str, CliError> {
        self.get(name)
            .ok_or_else(|| err(format!("missing required flag {name}")))
    }

    fn parse_num<T: std::str::FromStr>(&self, name: &str) -> Result<T, CliError> {
        self.require(name)?
            .parse()
            .map_err(|_| err(format!("{name} expects a number")))
    }

    fn parse_num_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("{name} expects a number"))),
        }
    }

    /// A required count that must be at least 1 (a group or window size).
    fn parse_count(&self, name: &str) -> Result<usize, CliError> {
        match self.parse_num(name)? {
            0 => Err(err(format!("{name} must be at least 1"))),
            n => Ok(n),
        }
    }
}

/// Parse a simulated instant or duration in seconds: finite and not
/// negative, as the simulator's clock requires.
fn parse_seconds(v: &str, flag: &str) -> Result<f64, CliError> {
    match v.parse::<f64>() {
        Ok(s) if s.is_finite() && s >= 0.0 => Ok(s),
        _ => Err(err(format!(
            "{flag} expects a finite, non-negative number of seconds"
        ))),
    }
}

/// Parse a positive millisecond count whose nanosecond value fits the
/// simulator's 64-bit clock.
fn parse_millis(v: &str, flag: &str) -> Result<u64, CliError> {
    match v.parse::<u64>() {
        Ok(ms) if ms > 0 && ms.checked_mul(1_000_000).is_some() => Ok(ms),
        _ => Err(err(format!(
            "{flag} expects a positive number of milliseconds"
        ))),
    }
}

fn parse_workload(f: &Flags) -> Result<WorkloadArg, CliError> {
    let kind = WorkloadKind::parse(f.require("--workload")?).map_err(err)?;
    let procs: usize = f.parse_num("--procs")?;
    validate_procs(kind, procs)?;
    Ok(WorkloadArg { kind, procs })
}

fn validate_procs(kind: WorkloadKind, procs: usize) -> Result<(), CliError> {
    match kind {
        WorkloadKind::Hpl if procs < 8 || !procs.is_multiple_of(8) => {
            Err(err("hpl needs a multiple of 8 processes (P = 8)"))
        }
        WorkloadKind::Cg if !procs.is_power_of_two() => {
            Err(err("cg needs a power-of-two process count"))
        }
        WorkloadKind::Sp
            if {
                let s = (procs as f64).sqrt().round() as usize;
                s * s != procs
            } =>
        {
            Err(err("sp needs a square process count"))
        }
        _ if procs == 0 => Err(err("--procs must be positive")),
        _ => Ok(()),
    }
}

/// Parse a full command line (without argv\[0\]).
///
/// # Errors
/// [`CliError`] with a user-facing message.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let sub = args.first().map(String::as_str).ok_or_else(|| err(USAGE))?;
    let flags = |known| Flags::new(sub, known, &args[1..]);
    match sub {
        "run" => {
            let f = flags(RUN_FLAGS)?;
            let workload = parse_workload(&f)?;
            let g: usize = f.parse_num_or("--g", 8)?;
            if g == 0 {
                return Err(err("--g must be at least 1"));
            }
            let proto = match Proto::parse(f.require("--proto")?).map_err(err)? {
                Proto::Gp { .. } => Proto::Gp { max_size: g },
                p => p,
            };
            let schedule = match (f.get("--ckpt-at"), f.get("--interval")) {
                (Some(_), Some(_)) => {
                    return Err(err("--ckpt-at and --interval are mutually exclusive"))
                }
                (Some(t), None) => Schedule::SingleAt(parse_seconds(t, "--ckpt-at")?),
                (None, Some(iv)) => {
                    let iv = parse_seconds(iv, "--interval")?;
                    if SimDuration::from_secs_f64(iv).is_zero() {
                        return Err(err("--interval must be at least one nanosecond"));
                    }
                    Schedule::Interval {
                        start_s: iv,
                        every_s: iv,
                    }
                }
                (None, None) => Schedule::None,
            };
            Ok(Command::Run(RunArgs {
                workload,
                proto,
                schedule,
                remote: f.has("--remote"),
                restart: f.has("--restart"),
                seed: f.parse_num_or("--seed", 0x6f2c_1138)?,
                json: f.has("--json"),
            }))
        }
        "trace" => {
            let f = flags(TRACE_FLAGS)?;
            Ok(Command::Trace {
                workload: parse_workload(&f)?,
                out: f.require("--out")?.to_string(),
            })
        }
        "groups" => {
            let f = flags(GROUPS_FLAGS)?;
            Ok(Command::Groups {
                trace: f.require("--trace")?.to_string(),
                max_size: f.parse_count("--max-size")?,
                out: f.get("--out").map(str::to_string),
            })
        }
        "stats" => Ok(Command::Stats {
            trace: flags(STATS_FLAGS)?.require("--trace")?.to_string(),
        }),
        "phases" => {
            let f = flags(PHASES_FLAGS)?;
            Ok(Command::Phases {
                trace: f.require("--trace")?.to_string(),
                window_ms: parse_millis(f.require("--window-ms")?, "--window-ms")?,
                max_size: f.parse_count("--max-size")?,
            })
        }
        "chaos" => {
            let f = flags(CHAOS_FLAGS)?;
            let workload = f
                .get("--workload")
                .map(WorkloadKind::parse)
                .transpose()
                .map_err(err)?;
            let proto = f
                .get("--proto")
                .map(Proto::parse)
                .transpose()
                .map_err(err)?;
            let storage = f
                .get("--storage")
                .map(StorageTarget::parse)
                .transpose()
                .map_err(err)?;
            let interval_ms = f
                .get("--interval-ms")
                .map(|v| parse_millis(v, "--interval-ms"))
                .transpose()?;
            let gc_overshoot = match f.get("--gc-overshoot") {
                None => None,
                Some(v) => Some(v.parse().map_err(|_| err("--gc-overshoot expects bytes"))?),
            };
            let schedule = f
                .get("--schedule")
                .map(parse_schedule)
                .transpose()
                .map_err(err)?;
            let shards = match f.get("--shards") {
                None => None,
                Some(v) => {
                    let s: usize = v.parse().map_err(|_| err("--shards expects a count"))?;
                    if s == 0 {
                        return Err(err("--shards must be at least 1"));
                    }
                    Some(s)
                }
            };
            let backend = f
                .get("--backend")
                .map(ChaosBackend::parse)
                .transpose()
                .map_err(err)?;
            let replication = match f.get("--replication") {
                None => None,
                Some(v) => {
                    let k: usize = v
                        .parse()
                        .map_err(|_| err("--replication expects a count"))?;
                    if k == 0 {
                        return Err(err("--replication must be at least 1"));
                    }
                    Some(k)
                }
            };
            let seed: u64 = f.parse_num("--seed")?;
            let runs: u64 = f.parse_num_or("--runs", 1)?;
            if seed.checked_add(runs.saturating_sub(1)).is_none() {
                return Err(err(format!(
                    "--seed {seed} --runs {runs} runs past the last seed, {}",
                    u64::MAX
                )));
            }
            Ok(Command::Chaos(ChaosArgs {
                seed,
                runs,
                workload,
                proto,
                storage,
                interval_ms,
                gc_overshoot,
                schedule,
                shards,
                backend,
                replication,
                verify: f.has("--verify"),
                no_shrink: f.has("--no-shrink"),
                json: f.has("--json"),
            }))
        }
        "lint" => {
            let f = flags(LINT_FLAGS)?;
            Ok(Command::Lint(LintArgs {
                root: f.get("--root").unwrap_or(".").to_string(),
                json: f.has("--json"),
                sarif: f.has("--sarif"),
                explain: f.get("--explain").map(str::to_string),
            }))
        }
        "help" | "--help" | "-h" => Err(err(USAGE)),
        other => Err(err(format!("unknown subcommand '{other}'\n\n{USAGE}"))),
    }
}

/// Execute a parsed command, writing human output to the returned string.
///
/// # Errors
/// [`CliError`] on IO failures.
pub fn execute(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Run(args) => {
            let workload = args.workload.kind.paper(args.workload.procs);
            let mut spec = RunSpec::new(workload, args.proto, args.schedule).with_seed(args.seed);
            if args.remote {
                spec = spec.with_remote_storage();
            }
            if args.restart {
                spec = spec.with_restart();
            }
            let r = run_one(&spec);
            if args.json {
                let v = gcr_json::Json::obj([
                    ("exec_s", gcr_json::Json::from(r.exec_s)),
                    ("waves", gcr_json::Json::from(r.waves)),
                    ("agg_ckpt_s", gcr_json::Json::from(r.agg_ckpt_s)),
                    ("agg_coord_s", gcr_json::Json::from(r.agg_coord_s)),
                    ("agg_restart_s", gcr_json::Json::from(r.agg_restart_s)),
                    ("mean_ckpt_s", gcr_json::Json::from(r.mean_ckpt_s)),
                    ("resend_bytes", gcr_json::Json::from(r.resend_bytes)),
                    ("resend_ops", gcr_json::Json::from(r.resend_ops)),
                    ("groups", gcr_json::Json::from(r.group_count)),
                ]);
                Ok(v.pretty())
            } else {
                Ok(format!(
                    "proto {:>4}: exec {:.1}s, {} ckpt wave(s), agg ckpt {:.1}s, \
                     agg coord {:.1}s, agg restart {:.1}s, resend {} B / {} ops, {} group(s)",
                    args.proto.label().to_uppercase(),
                    r.exec_s,
                    r.waves,
                    r.agg_ckpt_s,
                    r.agg_coord_s,
                    r.agg_restart_s.max(0.0),
                    r.resend_bytes,
                    r.resend_ops,
                    r.group_count
                ))
            }
        }
        Command::Trace { workload, out } => {
            let trace = profile_trace(&workload.kind.paper(workload.procs));
            trace_io::save_json(&trace, &out).map_err(|e| err(e.to_string()))?;
            Ok(format!(
                "wrote {} send records to {out}",
                trace.send_count()
            ))
        }
        Command::Groups {
            trace,
            max_size,
            out,
        } => {
            let tr = trace_io::load_json(&trace).map_err(|e| err(e.to_string()))?;
            let def = form_groups(&tr, max_size);
            let mut s = format!("{def}");
            if let Some(path) = out {
                def.save(&path).map_err(|e| err(e.to_string()))?;
                s.push_str(&format!("written to {path}\n"));
            }
            Ok(s)
        }
        Command::Stats { trace } => {
            let tr = trace_io::load_json(&trace).map_err(|e| err(e.to_string()))?;
            Ok(format!("{}", gcr_trace::summarize(&tr)))
        }
        Command::Phases {
            trace,
            window_ms,
            max_size,
        } => {
            let tr = trace_io::load_json(&trace).map_err(|e| err(e.to_string()))?;
            let phases = detect_phases(&tr, window_ms * 1_000_000, max_size);
            let mut s = format!("{} phase(s) detected:\n", phases.len());
            for (i, p) in phases.iter().enumerate() {
                s.push_str(&format!(
                    "phase {i}: [{:.3}s, {:.3}s), {} sends, {} group(s), max size {}\n",
                    p.start as f64 / 1e9,
                    p.end as f64 / 1e9,
                    p.sends,
                    p.groups.group_count(),
                    p.groups.max_group_size()
                ));
            }
            Ok(s)
        }
        Command::Chaos(a) => execute_chaos(a),
        Command::Lint(a) => execute_lint(a),
    }
}

/// Run the static analyzer over the workspace. New (non-baseline)
/// findings are a hard error so CI exits nonzero.
fn execute_lint(a: LintArgs) -> Result<String, CliError> {
    if let Some(id) = &a.explain {
        let rule = gcr_lint::Rule::parse(id).ok_or_else(|| {
            let known: Vec<&str> = gcr_lint::Rule::ALL.iter().map(|r| r.id()).collect();
            err(format!("unknown rule '{id}' (known: {})", known.join(", ")))
        })?;
        return Ok(gcr_lint::catalog::explain(rule));
    }
    let root = std::path::PathBuf::from(&a.root);
    let baseline = gcr_lint::load_baseline(&root.join("lint-baseline.json"))
        .map_err(|e| err(e.to_string()))?;
    // Normal runs go through the incremental cache; the report is
    // bit-identical to the uncached path, only wall-clock differs.
    let cache_dir = root.join("target").join("lint-cache");
    let (report, _stats) = gcr_lint::cache::lint_workspace_cached(&root, &baseline, &cache_dir)
        .map_err(|e| err(e.to_string()))?;
    let rendered = if a.sarif {
        report.to_sarif().pretty()
    } else if a.json {
        report.to_json().pretty()
    } else {
        report.human()
    };
    if report.passed() {
        Ok(rendered)
    } else {
        Err(err(rendered))
    }
}

/// The scenario a chaos seed plus CLI overrides denotes.
fn chaos_spec_for(a: &ChaosArgs, seed: u64) -> ChaosSpec {
    let mut spec = ChaosSpec::generate_for(seed, a.backend.unwrap_or(ChaosBackend::Disk));
    if let Some(w) = a.workload {
        spec.workload = w;
    }
    if let Some(p) = a.proto {
        spec.proto = p;
    }
    if let Some(s) = a.storage {
        spec.storage = s;
    }
    if let Some(iv) = a.interval_ms {
        spec.interval_ms = iv;
    }
    if let Some(g) = a.gc_overshoot {
        spec.gc_overshoot = g;
    }
    if let Some(sched) = &a.schedule {
        spec.schedule = sched.clone();
    }
    if let Some(s) = a.shards {
        spec.shards = s;
    }
    if let Some(k) = a.replication {
        spec.replication = k;
    }
    spec
}

/// Run `--runs` consecutive seeded scenarios. All oracle violations are a
/// hard error (nonzero exit for CI); the first failing scenario is
/// shrunken to a one-line repro unless `--no-shrink`.
fn execute_chaos(a: ChaosArgs) -> Result<String, CliError> {
    let mut lines = Vec::new();
    let mut reports = Vec::new();
    let mut first_failure: Option<ChaosSpec> = None;
    let mut failed = 0u64;
    for i in 0..a.runs {
        let spec = chaos_spec_for(&a, a.seed + i);
        let r = if a.verify {
            run_chaos_verified(&spec)
        } else {
            run_chaos(&spec)
        };
        if a.json {
            reports.push(r.to_json());
        } else {
            let fallbacks = r.recoveries.iter().filter(|rec| rec.fell_back).count();
            let degraded = r.recoveries.iter().filter(|rec| rec.degraded).count();
            lines.push(format!(
                "seed {:>4}: {:>4}/{:<4} {:<6} interval {:>4} ms  sched [{}]  \
                 exec {:>6.1}s  {:>2} wave(s)  {} recovery(s){}  {}",
                r.seed,
                r.workload,
                r.proto,
                r.storage,
                r.interval_ms,
                r.schedule,
                r.exec_s,
                r.waves,
                r.recoveries.len(),
                if fallbacks > 0 {
                    format!(" ({fallbacks} fell back a generation)")
                } else {
                    String::new()
                },
                if r.passed() { "PASS" } else { "FAIL" }
            ));
            if r.backend == "restore" {
                lines.push(format!(
                    "    restore k={}: {} peer read(s), {} fallback read(s), \
                     {} degraded event(s){}",
                    r.replication,
                    r.peer_reads,
                    r.fallback_reads,
                    r.degraded_events,
                    if degraded > 0 {
                        format!(", {degraded} recovery(s) degraded")
                    } else {
                        String::new()
                    }
                ));
            }
            for v in &r.violations {
                lines.push(format!("    violation: {v}"));
            }
        }
        if !r.passed() {
            failed += 1;
            if first_failure.is_none() {
                first_failure = Some(spec);
            }
        }
    }
    if let Some(spec) = first_failure {
        let mut msg = if a.json {
            gcr_json::Json::from(reports).pretty()
        } else {
            lines.join("\n")
        };
        msg.push_str(&format!(
            "\n{failed}/{} scenario(s) violated their oracles",
            a.runs
        ));
        if a.no_shrink {
            msg.push_str(&format!("\nrepro: {}", gcr_chaos::repro_command(&spec)));
        } else if let Some(out) = shrink(&spec) {
            msg.push_str(&format!(
                "\nshrunk to {} event(s) in {} run(s); minimal violation: {}\nrepro: {}",
                out.spec.schedule.len(),
                out.runs,
                out.violations[0],
                out.repro
            ));
        }
        return Err(err(msg));
    }
    if a.json {
        Ok(gcr_json::Json::from(reports).pretty())
    } else {
        lines.push(format!("{} scenario(s), all oracles held", a.runs));
        Ok(lines.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcr_chaos::Fault;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_a_full_run_command() {
        let cmd = parse(&argv(
            "run --workload hpl --procs 32 --proto gp --g 8 --ckpt-at 60 --restart --seed 7",
        ))
        .unwrap();
        match cmd {
            Command::Run(a) => {
                assert_eq!(a.workload.kind, WorkloadKind::Hpl);
                assert_eq!(a.workload.procs, 32);
                assert_eq!(a.proto, Proto::Gp { max_size: 8 });
                assert_eq!(a.schedule, Schedule::SingleAt(60.0));
                assert!(a.restart);
                assert!(!a.remote);
                assert_eq!(a.seed, 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_bad_process_counts() {
        assert!(parse(&argv("run --workload hpl --procs 12 --proto gp")).is_err());
        assert!(parse(&argv("run --workload cg --procs 12 --proto gp")).is_err());
        assert!(parse(&argv("run --workload sp --procs 12 --proto gp")).is_err());
        assert!(parse(&argv("run --workload ring --procs 12 --proto norm")).is_ok());
    }

    #[test]
    fn rejects_conflicting_schedules() {
        let e = parse(&argv(
            "run --workload ring --procs 4 --proto norm --ckpt-at 5 --interval 5",
        ))
        .unwrap_err();
        assert!(e.0.contains("mutually exclusive"));
    }

    #[test]
    fn rejects_hostile_numeric_arguments() {
        let run = "run --workload ring --procs 4 --proto gp";
        let cases = [
            ("--interval", format!("{run} --interval 0")),
            ("--interval", format!("{run} --interval 1e-12")),
            ("--interval", format!("{run} --interval -1")),
            ("--interval", format!("{run} --interval nan")),
            ("--interval", format!("{run} --interval inf")),
            ("--ckpt-at", format!("{run} --ckpt-at -1")),
            ("--ckpt-at", format!("{run} --ckpt-at inf")),
            ("--ckpt-at", format!("{run} --ckpt-at nan")),
            ("--g", format!("{run} --g 0")),
            (
                "--interval-ms",
                "chaos --seed 1 --interval-ms 0".to_string(),
            ),
            (
                "--interval-ms",
                "chaos --seed 1 --interval-ms 18446744073710".to_string(),
            ),
            (
                "--max-size",
                "groups --trace t.json --max-size 0".to_string(),
            ),
            (
                "--max-size",
                "phases --trace t.json --window-ms 100 --max-size 0".to_string(),
            ),
            (
                "--window-ms",
                "phases --trace t.json --window-ms 0 --max-size 4".to_string(),
            ),
            (
                "--window-ms",
                "phases --trace t.json --window-ms 18446744073710 --max-size 4".to_string(),
            ),
            (
                "--runs",
                "chaos --seed 18446744073709551615 --runs 2".to_string(),
            ),
        ];
        for (flag, line) in cases {
            let parsed = parse(&argv(&line));
            assert!(parsed.is_err(), "{line} must be rejected");
            if let Err(e) = parsed {
                assert!(
                    e.0.contains(flag),
                    "{line}: error must name {flag}: {}",
                    e.0
                );
            }
        }
        // The last seed itself is a valid range of one.
        assert!(parse(&argv("chaos --seed 18446744073709551615")).is_ok());
    }

    #[test]
    fn rejects_stretch_factors_that_overflow_the_clock() {
        // Both used to pass the grammar and panic mid-run with a
        // `SimTime` overflow.
        for event in [
            "storm:x1000000000000000@500+1000",
            "slow:n1x1000000000000000@500+1000",
        ] {
            let line = format!("chaos --seed 1 --no-shrink --schedule {event}");
            let e = parse(&argv(&line)).unwrap_err();
            assert!(e.0.contains(event) && e.0.contains("factor"), "{line}: {e}");
        }
    }

    #[test]
    fn rejects_unknown_repeated_and_valueless_flags() {
        let cases = [
            ("--update-baseline", "lint --update-baseline --explain D02"),
            ("--bogus", "stats --trace f --bogus"),
            ("stray", "stats --trace f stray"),
            ("--json given twice", "lint --json --json"),
            (
                "--out expects a value",
                "groups --trace t --max-size 2 --out --json",
            ),
            ("--trace expects a value", "stats --trace"),
            ("--seed expects a value", "chaos --seed --verify"),
        ];
        for (named, line) in cases {
            let e = parse(&argv(line)).unwrap_err();
            assert!(e.0.contains(named), "{line}: {}", e.0);
        }
    }

    #[test]
    fn unknown_subcommand_shows_usage() {
        let e = parse(&argv("frobnicate")).unwrap_err();
        assert!(e.0.contains("USAGE"));
    }

    #[test]
    fn parses_trace_groups_phases() {
        assert!(matches!(
            parse(&argv("trace --workload cg --procs 16 --out t.json")).unwrap(),
            Command::Trace { .. }
        ));
        assert!(matches!(
            parse(&argv("groups --trace t.json --max-size 4")).unwrap(),
            Command::Groups { out: None, .. }
        ));
        assert!(matches!(
            parse(&argv("phases --trace t.json --window-ms 100 --max-size 4")).unwrap(),
            Command::Phases { window_ms: 100, .. }
        ));
    }

    #[test]
    fn end_to_end_trace_then_groups() {
        let dir = std::env::temp_dir().join("gcr-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tpath = dir.join("t.json").to_string_lossy().into_owned();
        let gpath = dir.join("g.json").to_string_lossy().into_owned();
        let out = execute(
            parse(&argv(&format!(
                "trace --workload ring --procs 6 --out {tpath}"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("send records"));
        let out = execute(
            parse(&argv(&format!(
                "groups --trace {tpath} --max-size 2 --out {gpath}"
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("group"));
        assert!(gcr_group::GroupDef::load(&gpath).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_commands_reject_an_event_outside_the_world() {
        let dir = std::env::temp_dir().join("gcr-cli-rank-range-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tpath = dir.join("t.json").to_string_lossy().into_owned();
        std::fs::write(
            &tpath,
            r#"{"meta":{"n":2,"workload":"x"},"events":[{"ev":"send","t":0,"src":0,"dst":1,"tag":1,"bytes":10},{"ev":"send","t":0,"src":0,"dst":5,"tag":1,"bytes":10}]}"#,
        )
        .unwrap();
        for cmd in [
            "groups --max-size 2",
            "phases --window-ms 10 --max-size 2",
            "stats",
        ] {
            let e = execute(parse(&argv(&format!("{cmd} --trace {tpath}"))).unwrap()).unwrap_err();
            assert!(e.0.contains("event 1: rank 5"), "{cmd}: {}", e.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_commands_reject_send_bytes_that_sum_past_u64() {
        let dir = std::env::temp_dir().join("gcr-cli-byte-sum-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tpath = dir.join("t.json").to_string_lossy().into_owned();
        std::fs::write(
            &tpath,
            r#"{"meta":{"n":2,"workload":"x"},"events":[{"ev":"send","t":0,"src":0,"dst":1,"tag":1,"bytes":18446744073709551615},{"ev":"send","t":0,"src":0,"dst":1,"tag":1,"bytes":5}]}"#,
        )
        .unwrap();
        // An `Err` from `execute` is exit status 2 in `gcrsim`; before the
        // check, the byte tallies overflowed (a panic in debug builds, a
        // wrapped 4-byte total in release builds).
        for cmd in [
            "stats",
            "groups --max-size 2",
            "phases --window-ms 10 --max-size 2",
        ] {
            let e = execute(parse(&argv(&format!("{cmd} --trace {tpath}"))).unwrap()).unwrap_err();
            assert!(
                e.0.contains("event 1: the send bytes sum past 2^64"),
                "{cmd}: {}",
                e.0
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn phases_reaches_a_send_after_a_trillion_empty_windows() {
        let dir = std::env::temp_dir().join("gcr-cli-far-send-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tpath = dir.join("t.json").to_string_lossy().into_owned();
        std::fs::write(
            &tpath,
            r#"{"meta":{"n":2,"workload":"x"},"events":[{"ev":"send","t":1000000000000000000,"src":0,"dst":1,"tag":1,"bytes":8}]}"#,
        )
        .unwrap();
        // An `Ok` from `execute` is exit status 0 in `gcrsim`. Stepping
        // through the 10^12 empty 1 ms windows before the send did not
        // finish in 10 s.
        let out = execute(
            parse(&argv(&format!(
                "phases --window-ms 1 --max-size 2 --trace {tpath}"
            )))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(
            out,
            "1 phase(s) detected:\nphase 0: [1000000000.000s, 1000000000.001s), 1 sends, 1 group(s), max size 2\n"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_rejects_a_trace_nested_too_deep_to_parse() {
        let dir = std::env::temp_dir().join("gcr-cli-deep-json-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tpath = dir.join("deep.json").to_string_lossy().into_owned();
        std::fs::write(&tpath, "[".repeat(100_000)).unwrap();
        // An `Err` from `execute` is exit status 2 in `gcrsim`.
        let e = execute(parse(&argv(&format!("stats --trace {tpath}"))).unwrap()).unwrap_err();
        assert!(e.0.contains("nested deeper than 128"), "{}", e.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_commands_reject_a_world_too_large_to_hold() {
        let dir = std::env::temp_dir().join("gcr-cli-huge-world-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tpath = dir.join("huge.json").to_string_lossy().into_owned();
        std::fs::write(
            &tpath,
            r#"{"meta":{"n":1000000000000000,"workload":"x"},"events":[]}"#,
        )
        .unwrap();
        // An `Err` from `execute` is exit status 2 in `gcrsim`; before the
        // cap, `stats` aborted allocating one counter per claimed rank.
        for cmd in ["stats", "groups --max-size 8"] {
            let e = execute(parse(&argv(&format!("{cmd} --trace {tpath}"))).unwrap()).unwrap_err();
            assert!(e.0.contains("rank limit"), "{cmd}: {}", e.0);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parses_a_chaos_command_with_overrides() {
        let cmd = parse(&argv(
            "chaos --seed 3 --workload cg --proto gp4 --storage local --interval-ms 800 \
             --gc-overshoot 65536 --schedule crash:g1@2500 --shards 4 --verify --json",
        ))
        .unwrap();
        match cmd {
            Command::Chaos(a) => {
                assert_eq!(a.seed, 3);
                assert_eq!(a.runs, 1);
                assert_eq!(a.workload, Some(WorkloadKind::Cg));
                assert_eq!(a.proto, Some(Proto::GpK { k: 4 }));
                assert_eq!(a.storage, Some(StorageTarget::Local));
                assert_eq!(a.interval_ms, Some(800));
                assert_eq!(a.gc_overshoot, Some(65536));
                assert_eq!(
                    a.schedule,
                    Some(vec![ChaosEvent {
                        at_ms: 2500,
                        fault: Fault::Crash { group: 1 }
                    }])
                );
                assert_eq!(a.shards, Some(4));
                assert!(a.verify && a.json && !a.no_shrink);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("chaos --seed 1 --schedule crash:1@2500")).is_err());
        assert!(parse(&argv("chaos --seed 1 --storage nfs")).is_err());
        assert!(parse(&argv("chaos --seed 1 --shards 0")).is_err());
        assert!(parse(&argv("chaos")).is_err());
    }

    #[test]
    fn parses_chaos_backend_and_replication_flags() {
        match parse(&argv("chaos --seed 5 --backend restore --replication 3")).unwrap() {
            Command::Chaos(a) => {
                assert_eq!(a.backend, Some(ChaosBackend::Restore));
                assert_eq!(a.replication, Some(3));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Defaults: no backend override → disk scenario generation.
        match parse(&argv("chaos --seed 5")).unwrap() {
            Command::Chaos(a) => {
                assert_eq!(a.backend, None);
                assert_eq!(a.replication, None);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(parse(&argv("chaos --seed 5 --backend nfs")).is_err());
        assert!(parse(&argv("chaos --seed 5 --replication 0")).is_err());
        assert!(parse(&argv("chaos --seed 5 --schedule replica:g1@1500")).is_ok());
    }

    #[test]
    fn parses_a_lint_command() {
        let cmd = parse(&argv("lint --root . --json")).unwrap();
        match cmd {
            Command::Lint(a) => {
                assert_eq!(a.root, ".");
                assert!(a.json);
                assert!(!a.sarif);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn lint_explain_prints_the_catalog_entry() {
        let out = execute(parse(&argv("lint --explain E01")).unwrap()).unwrap();
        assert!(out.starts_with("E01:"), "{out}");
        assert!(out.contains("fix"), "{out}");
        for id in ["P10", "P20", "P21", "D10"] {
            let out = execute(parse(&argv(&format!("lint --explain {id}"))).unwrap()).unwrap();
            assert!(out.starts_with(&format!("{id}:")), "{out}");
        }
        // Unknown ids, and the ids of retired rules, are rejected.
        for id in ["Z99", "D01", "D04"] {
            let bad = execute(parse(&argv(&format!("lint --explain {id}"))).unwrap());
            assert!(bad.is_err(), "{id}");
        }
    }

    #[test]
    fn lint_command_passes_on_the_live_workspace() {
        // Tests of the root package run with cwd = workspace root.
        let out = execute(parse(&argv("lint --json")).unwrap()).unwrap();
        assert!(out.contains("\"new\": 0"), "{out}");
    }

    #[test]
    fn lint_sarif_renders_a_valid_empty_run() {
        let out = execute(parse(&argv("lint --sarif")).unwrap()).unwrap();
        assert!(out.contains("\"version\": \"2.1.0\""), "{out}");
        assert!(out.contains("\"name\": \"gcr-lint\""), "{out}");
        assert!(out.contains("\"results\""), "{out}");
        // Byte-stability: the report is fully sorted, so a second run over
        // the same tree renders the identical document.
        let again = execute(parse(&argv("lint --sarif")).unwrap()).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn chaos_command_passes_on_a_healthy_scenario() {
        let cmd = parse(&argv(
            "chaos --seed 42 --workload ring --proto gp4 --storage local --interval-ms 700 \
             --schedule crash:g1@2000",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("all oracles held"), "{out}");
    }

    #[test]
    fn chaos_command_runs_the_new_protocols() {
        // CVC checkpoints globally (one group), receiver-based logging
        // runs singleton groups; both must survive a crash scenario and
        // hold every oracle.
        for proto in ["cvc", "rblog"] {
            let cmd = parse(&argv(&format!(
                "chaos --seed 42 --workload ring --proto {proto} --storage local \
                 --interval-ms 700 --schedule crash:g0@2000",
            )))
            .unwrap();
            let out = execute(cmd).unwrap();
            assert!(out.contains("PASS"), "{proto}: {out}");
            assert!(out.contains("all oracles held"), "{proto}: {out}");
        }
    }

    #[test]
    fn chaos_command_surfaces_restore_backend_counters() {
        // Human rendering: the restore summary line with peer/fallback
        // read counts appears only for restore-backend runs.
        let cmd = parse(&argv(
            "chaos --seed 42 --backend restore --workload ring --proto gp4 --storage local \
             --interval-ms 700 --schedule crash:g1@2000;replica:g0@2600",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("PASS"), "{out}");
        assert!(out.contains("restore k=2"), "{out}");
        assert!(out.contains("peer read(s)"), "{out}");

        // JSON rendering: backend fields and per-recovery degraded flag.
        let cmd = parse(&argv(
            "chaos --seed 42 --backend restore --workload ring --proto gp4 --storage local \
             --interval-ms 700 --schedule crash:g1@2000 --json",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("\"backend\": \"restore\""), "{out}");
        assert!(out.contains("\"replication\": 2"), "{out}");
        assert!(out.contains("\"peer_reads\""), "{out}");
        assert!(out.contains("\"fallback_reads\""), "{out}");
        assert!(out.contains("\"degraded_events\""), "{out}");
        assert!(out.contains("\"degraded\""), "{out}");
        assert!(out.contains("\"fell_back\""), "{out}");
        assert!(out.contains("\"generation\""), "{out}");

        // Disk runs keep the pre-backend JSON shape: no backend fields.
        let cmd = parse(&argv(
            "chaos --seed 42 --workload ring --proto gp4 --storage local \
             --interval-ms 700 --schedule crash:g1@2000 --json",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(!out.contains("\"backend\""), "{out}");
        assert!(!out.contains("\"degraded\""), "{out}");
    }

    #[test]
    fn chaos_command_fails_with_repro_on_broken_gc() {
        // The largest overshoot used to overflow the GC bound: a panic in
        // debug builds, and in release builds a wrap that collected one
        // byte less than the piggybacked RR instead of more.
        for overshoot in ["65536", "18446744073709551615"] {
            let cmd = parse(&argv(&format!(
                "chaos --seed 3 --workload cg --proto gp4 --storage local \
                 --gc-overshoot {overshoot}"
            )))
            .unwrap();
            let e = execute(cmd).unwrap_err();
            assert!(e.0.contains("FAIL"), "{e}");
            assert!(e.0.contains("violation:"), "{e}");
            assert!(e.0.contains("repro: gcrsim chaos --seed 3"), "{e}");
            assert!(e.0.contains(&format!("--gc-overshoot {overshoot}")), "{e}");
        }
    }

    #[test]
    fn run_command_executes_and_reports() {
        let cmd = parse(&argv(
            "run --workload ring --procs 4 --proto norm --ckpt-at 0.5 --json",
        ))
        .unwrap();
        let out = execute(cmd).unwrap();
        assert!(out.contains("\"waves\": 1"), "{out}");
    }
}
