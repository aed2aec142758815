//! Measuring one workload: a warm-up sample, timed samples for the
//! requested seconds, optional traced samples, the workload's closing
//! check, digest and pin checks.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use crate::campaign::Campaign;
use crate::crash::Crash;
use crate::def::{EndToEnd, END_TO_END, OUTCOMES, PER_LAYER, WORKLOADS};
use crate::lint::Lint;
use crate::pace::Clock;
use crate::paper::{cg_gp1, hpl_gp, Paper};
use crate::sample::{Sample, Values};
use crate::spans::{Span, Spans};
use crate::stats::{median, quartiles, tail, Quartiles};

/// One workload, as the measuring loop drives it. Every sample runs the
/// same inputs, so every sample must reproduce the warm-up's digest.
pub trait Bench {
    /// Untraced samples to take even when the time budget is spent.
    fn min_samples(&self) -> usize;

    /// Run one sample, timing its set-up and measured call with `clock`.
    /// With `spans` enabled the sample is traced: probes are installed and
    /// per-layer values recorded.
    fn sample(&mut self, spans: &Rc<Spans>, clock: &mut Clock) -> Sample;

    /// A check run once after the samples, outside every timing; it
    /// counts as one more attempted item.
    ///
    /// # Errors
    /// What failed.
    fn verify(&mut self) -> Result<(), String> {
        Ok(())
    }
}

/// Workload sizes: the benchmark proper, or the debug-sized smoke pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` defines.
    Full,
    /// HPL-16, CG-16 (two outer iterations), a 1,000-rank crash, one
    /// scenario per campaign cell: fast enough for a debug-build test.
    Smoke,
}

/// Build the workload called `name`; `root` is the repository checkout.
///
/// # Errors
/// Unknown workload name, or the lint workload cannot read the tree.
pub fn build(name: &str, scale: Scale, seed: u64, root: &Path) -> Result<Box<dyn Bench>, String> {
    let full = scale == Scale::Full;
    Ok(match name {
        "hpl128_gp" if full => Box::new(Paper::new(hpl_gp(128, seed), 5)),
        "hpl128_gp" => Box::new(Paper::new(hpl_gp(16, seed), 1)),
        "cg128_gp1" if full => Box::new(Paper::new(cg_gp1(128, 8, seed), 5)),
        "cg128_gp1" => Box::new(Paper::new(cg_gp1(16, 2, seed), 1)),
        "hpl5k_crash" if full => Box::new(Crash::new(64, 80, seed, 3)),
        "hpl5k_crash" => Box::new(Crash::new(10, 100, seed, 1)),
        "chaos_campaign" => Box::new(Campaign::new(seed, if full { 4 } else { 1 })),
        "lint_workspace" => Box::new(
            Lint::new(root, if full { 5 } else { 1 }).map_err(|e| format!("lint set-up: {e}"))?,
        ),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// The smoke pass: every workload at [`Scale::Smoke`], traced, with the
/// fewest samples (a warm-up, one untraced and one traced sample).
///
/// # Errors
/// A workload cannot be built.
pub fn smoke(seed: u64, root: &Path) -> Result<Vec<RunReport>, String> {
    let opts = Options {
        seconds: 0.0,
        trace: true,
    };
    WORKLOADS
        .iter()
        .map(|w| {
            let mut bench = build(w.name, Scale::Smoke, seed, root)?;
            Ok(measure(w.name, bench.as_mut(), opts, None))
        })
        .collect()
}

/// How to measure.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seconds of measuring (at least the workload's minimum samples).
    pub seconds: f64,
    /// Add a traced sample after every untraced one.
    pub trace: bool,
}

/// Everything one measured run produced.
pub struct RunReport {
    /// Workload name.
    pub workload: String,
    /// The options it ran with.
    pub opts: Options,
    /// Samples run, the warm-up and traced ones included, plus the
    /// workload's closing [`Bench::verify`] check.
    pub attempted: u64,
    /// Samples (and checks) that failed.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The warm-up sample's outcome digest.
    pub digest: u64,
    /// The pinned digest for this workload and seed, if any.
    pub pinned: Option<u64>,
    /// Untraced measured samples.
    pub samples: usize,
    /// Traced samples.
    pub traced_samples: usize,
    /// Host seconds of the reference loop, over every reading taken after
    /// the warm-up.
    pub pace: Quartiles,
    /// Seconds spent measuring (after the warm-up).
    pub measured_s: f64,
    /// Seconds for the whole run, set-up and warm-up included.
    pub total_s: f64,
    /// End-to-end metrics of the untraced samples.
    pub end_to_end: Vec<Measured>,
    /// Per-layer metrics (traced runs only; every defined name present).
    pub per_layer: Values,
    /// Simulated outcomes of the warm-up sample.
    pub outcomes: Values,
    /// Spans of the traced samples.
    pub spans: Vec<Span>,
}

impl RunReport {
    /// Whether every sample passed and the digest matched its pin.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.pinned.is_none_or(|p| p == self.digest)
    }
}

/// One end-to-end metric of a run: the quartiles of its per-sample
/// values, whose median is the reported value. Times are scaled to the
/// reference pace (see [`crate::pace`]).
pub struct Measured {
    /// The metric.
    pub def: &'static EndToEnd,
    /// Quartiles of the samples.
    pub samples: Quartiles,
}

impl Measured {
    /// The reported value: the median sample.
    pub fn value(&self) -> f64 {
        self.samples.median
    }
}

const MAX_ERRORS: usize = 10;

#[derive(Default)]
struct Book {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    reference: Option<u64>,
}

impl Book {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    /// Run one sample, counting it and checking it against the first
    /// passing sample's digest. A panic is a failed sample.
    fn run(&mut self, bench: &mut dyn Bench, spans: &Rc<Spans>, clock: &mut Clock) -> Sample {
        self.attempted += 1;
        let sample =
            catch_unwind(AssertUnwindSafe(|| bench.sample(spans, clock))).unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                Sample {
                    errors: vec![format!("panic: {msg}")],
                    ..Sample::default()
                }
            });
        let kind = if spans.enabled() {
            "traced"
        } else {
            "untraced"
        };
        if let Some(e) = sample.errors.first() {
            self.fail(format!("{kind} sample {}: {e}", self.attempted));
        } else if let Some(d) = self.reference.filter(|&d| d != sample.digest) {
            self.fail(format!(
                "{kind} sample {}: digest {:#018x} differs from {d:#018x}",
                self.attempted, sample.digest
            ));
        } else {
            self.reference.get_or_insert(sample.digest);
        }
        sample
    }
}

/// Read a `kB` field of `/proc/self/status`, in MiB (0 when unavailable).
fn proc_mib(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_string))
        })
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The median of each value across `samples`.
fn medians(samples: &[Sample]) -> Values {
    let mut by_key: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in samples {
        for (k, v) in &s.values {
            by_key.entry(k).or_default().push(*v);
        }
    }
    by_key.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// Measure `bench` under `opts`.
pub fn measure(name: &str, bench: &mut dyn Bench, opts: Options, pinned: Option<u64>) -> RunReport {
    let start = Instant::now();
    let spans = Rc::new(Spans::new(opts.trace));
    let off = Rc::new(Spans::new(false));
    let mut book = Book::default();

    let mut clock = Clock::new();
    let warm = book.run(bench, &off, &mut clock);
    let peak_rss = proc_mib("VmHWM");
    let rss_after_warm = proc_mib("VmRSS");

    // Traced runs only need per-layer values, so they stop at one pair.
    let min = if opts.trace { 1 } else { bench.min_samples() };
    let t0 = Instant::now();
    let first_reading = clock.readings().len();
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    loop {
        untraced.push(book.run(bench, &off, &mut clock));
        if opts.trace {
            let id = spans.enter("sample");
            traced.push(book.run(bench, &spans, &mut clock));
            spans.exit(id);
        }
        let n = untraced.len() as f64;
        let elapsed = t0.elapsed().as_secs_f64();
        if untraced.len() >= min && elapsed * (n + 1.0) / n > opts.seconds {
            break;
        }
    }
    let measured_s = t0.elapsed().as_secs_f64();

    let walls: Vec<f64> = untraced.iter().map(|s| s.wall_s).collect();
    let setups: Vec<f64> = untraced.iter().map(|s| s.setup_s).collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|def| Measured {
            def,
            samples: match def.name {
                "setup_s" => quartiles(&setups),
                "wall_s" => quartiles(&walls),
                "peak_rss_mb" => quartiles(&[peak_rss]),
                other => unreachable!("end-to-end metric {other} has no measurement"),
            },
        })
        .collect();

    let mut per_layer = Values::new();
    if opts.trace {
        per_layer = medians(&traced);
        let wall =
            |samples: &[Sample]| median(&samples.iter().map(|s| s.wall_s).collect::<Vec<_>>());
        per_layer.insert(
            "bench.trace_overhead_share",
            wall(&traced) / wall(&untraced) - 1.0,
        );
        per_layer.insert("bench.wall_tail_s", tail(&walls));
        per_layer.insert(
            "proc.rss_growth_mb_per_sample",
            (proc_mib("VmRSS") - rss_after_warm) / (untraced.len() + traced.len()) as f64,
        );
        per_layer.retain(|k, _| PER_LAYER.iter().any(|l| l.name == *k));
        for l in &PER_LAYER {
            per_layer.entry(l.name).or_insert(0.0);
        }
    }

    book.attempted += 1;
    if let Err(e) = bench.verify() {
        book.fail(format!("check: {e}"));
    }
    let mut outcomes = warm.values;
    outcomes.retain(|k, _| OUTCOMES.contains(k));
    for k in OUTCOMES {
        outcomes.entry(k).or_insert(0.0);
    }
    let digest = book.reference.unwrap_or(0);
    if let Some(p) = pinned.filter(|&p| p != digest) {
        book.failed = book.attempted;
        book.errors.push(format!(
            "digest {digest:#018x} differs from the pinned {p:#018x}"
        ));
    }

    RunReport {
        workload: name.to_string(),
        opts,
        attempted: book.attempted,
        failed: book.failed,
        errors: book.errors,
        digest,
        pinned,
        samples: untraced.len(),
        traced_samples: traced.len(),
        pace: quartiles(&clock.readings()[first_reading..]),
        measured_s,
        total_s: start.elapsed().as_secs_f64(),
        end_to_end,
        per_layer,
        outcomes,
        spans: spans.spans(),
    }
}
