//! The paper's evaluation as one table of entries.
//!
//! Each [`Entry`] reproduces one table, figure or ablation: it runs its
//! sweep, renders the paper's rows as text and checks the paper's claims
//! about them against its own results. A [`Claim`] is an ordering, a
//! growth trend, a crossover or a band. The verdict is computed from the
//! claims: ✅ when all hold, 〜 when some do, ❌ when none do.
//! [`verdict_table`] renders one row per entry, the table EXPERIMENTS.md
//! carries.
//!
//! Entries that read the same runs share them through [`Sweeps`]: Figs
//! 5–9 all read the §5.1 HPL sweep, which runs once.

use std::cell::OnceCell;

use gcr_ckpt::{analyze_schedule, optimal_interval};
use gcr_group::form_groups;
use gcr_sim::SimDuration;
use gcr_trace::ascii::{render, DiagramOpts};
use gcr_trace::gaps;
use gcr_workloads::{CgConfig, HplConfig, SpConfig};

use crate::runner::recover_after_run;
use crate::table::{f1, f2, kb, table};
use crate::{
    hpl_grid_for, profile_trace, run_averaged, run_one, run_traced, Proto, RunResult, RunSpec,
    Schedule, WorkloadSpec,
};

/// What an entry computes: its text and its checked claims.
type Run = fn(&Sweeps) -> (String, Vec<Claim>);

/// One table, figure or ablation of the paper's evaluation.
pub struct Entry {
    /// Command-line name, and the stem of its `results/<name>.txt`.
    pub name: &'static str,
    run: Run,
}

impl Entry {
    const fn new(name: &'static str, run: Run) -> Entry {
        Entry { name, run }
    }

    /// Run the entry, reading shared runs from (and adding them to)
    /// `sweeps`.
    pub fn run(&self, sweeps: &Sweeps) -> Outcome {
        let (text, claims) = (self.run)(sweeps);
        Outcome { text, claims }
    }
}

/// Every entry, in the paper's order.
pub static ENTRIES: &[Entry] = &[
    Entry::new("table1", table1),
    Entry::new("fig01", fig01),
    Entry::new("fig02", fig02),
    Entry::new("fig05", fig05),
    Entry::new("fig06", fig06),
    Entry::new("fig07", fig07),
    Entry::new("fig08", fig08),
    Entry::new("fig09", fig09),
    Entry::new("fig10", fig10),
    Entry::new("fig11", fig11),
    Entry::new("fig12", fig12),
    Entry::new("fig13", fig13),
    Entry::new("fig14", fig14),
    Entry::new("ablation_group_size", ablation_group_size),
    Entry::new("ablation_gc", ablation_gc),
    Entry::new("ablation_stragglers", ablation_stragglers),
    Entry::new("ablation_failure", ablation_failure),
    Entry::new("ablation_pcl", ablation_pcl),
    Entry::new("ablation_staggered", ablation_staggered),
];

/// What an entry printed and how its claims came out.
pub struct Outcome {
    /// The entry's tables.
    pub text: String,
    /// The paper's claims, checked against the tables' numbers.
    pub claims: Vec<Claim>,
}

impl Outcome {
    /// ✅ when every claim holds, 〜 when some do, ❌ when none do.
    pub fn verdict(&self) -> &'static str {
        match self.claims.iter().filter(|c| c.holds).count() {
            n if n == self.claims.len() => "✅",
            0 => "❌",
            _ => "〜",
        }
    }

    /// The tables, one line per claim, and the verdict line last.
    pub fn render(&self) -> String {
        let mut o = self.text.clone() + "\n";
        for c in &self.claims {
            o += &format!("{} {} — {}\n", mark(c.holds), c.paper, c.measured);
        }
        o + &format!("verdict: {}\n", self.verdict())
    }
}

/// The verdict table: one row per entry, with its claims, the numbers
/// they read and the verdict.
pub fn verdict_table(rows: &[(&Entry, &Outcome)]) -> String {
    let mut o = String::from("| Entry | Paper claim | Measured | Verdict |\n|---|---|---|---|\n");
    for (e, out) in rows {
        let paper: Vec<&str> = out.claims.iter().map(|c| c.paper.as_str()).collect();
        let measured: Vec<String> = out
            .claims
            .iter()
            .map(|c| format!("{} {}", mark(c.holds), c.measured))
            .collect();
        o += &format!(
            "| `{}` | {} | {} | {} |\n",
            e.name,
            paper.join("; "),
            measured.join("; "),
            out.verdict()
        );
    }
    o
}

/// One claim of the paper, checked against an entry's results.
pub struct Claim {
    /// What the paper says, at the scale it is checked.
    pub paper: String,
    /// The numbers the check read.
    pub measured: String,
    /// Whether the numbers bear the claim out.
    pub holds: bool,
}

impl Claim {
    /// An ordering, stated `"what: A ≤ B < C"`, with the values of A, B
    /// and C in that order.
    fn order(paper: &str, vals: &[f64]) -> Claim {
        let (_, chain) = paper
            .rsplit_once(": ")
            .expect("an ordering reads `what: A < B`");
        // (label, whether the step into it is strict)
        let steps: Vec<(&str, bool)> = chain
            .split(" < ")
            .flat_map(|part| part.split(" ≤ ").enumerate().map(|(j, l)| (l, j == 0)))
            .collect();
        assert_eq!(steps.len(), vals.len(), "one value per label of {paper}");
        let holds = (1..vals.len()).all(|k| match steps[k].1 {
            true => vals[k - 1] < vals[k],
            false => vals[k - 1] <= vals[k],
        });
        Claim {
            paper: paper.into(),
            measured: labelled(steps.iter().map(|s| s.0).zip(vals.iter().copied())),
            holds,
        }
    }

    /// A growth trend, stated `"what grows from x0 to x1"`: the value at
    /// the largest scale exceeds the value at the smallest.
    fn grows(paper: &str, y: [f64; 2]) -> Claim {
        Claim {
            paper: paper.into(),
            measured: format!("{} → {}", num(y[0]), num(y[1])),
            holds: y[1] > y[0],
        }
    }

    /// A crossover: a difference is positive at every point before `at`
    /// and negative at every point after it.
    fn crossover(what: &str, pts: &[(&str, f64)], at: &str) -> Claim {
        let i = pts
            .iter()
            .position(|p| p.0 == at)
            .expect("the crossover is one of the points");
        Claim {
            paper: format!("{what} changes sign at {at}"),
            measured: labelled(pts.iter().copied()),
            holds: pts[..i].iter().all(|p| p.1 > 0.0) && pts[i + 1..].iter().all(|p| p.1 < 0.0),
        }
    }

    /// A band: every value lies within `[lo, hi]`.
    fn band(what: &str, vals: impl IntoIterator<Item = f64>, lo: f64, hi: f64) -> Claim {
        let (min, max) = vals
            .into_iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), v| {
                (a.min(v), b.max(v))
            });
        Claim {
            paper: format!("{what} within [{}, {}]", num(lo), num(hi)),
            measured: if min == max {
                num(min)
            } else {
                format!("{} to {}", num(min), num(max))
            },
            holds: lo <= min && max <= hi,
        }
    }
}

fn mark(holds: bool) -> &'static str {
    ["❌", "✅"][usize::from(holds)]
}

fn num(v: f64) -> String {
    match v {
        _ if v.fract() == 0.0 => format!("{v:.0}"),
        _ if v.abs() >= 10.0 => format!("{v:.1}"),
        _ => format!("{v:.2}"),
    }
}

/// `label value, label value, …`.
fn labelled<'a>(vals: impl Iterator<Item = (&'a str, f64)>) -> String {
    let parts: Vec<String> = vals.map(|(l, v)| format!("{l} {}", num(v))).collect();
    parts.join(", ")
}

/// Max − min of some values.
fn spread(vals: impl Iterator<Item = f64> + Clone) -> f64 {
    vals.clone().fold(f64::NEG_INFINITY, f64::max) - vals.fold(f64::INFINITY, f64::min)
}

/// One row per process count, one column per label: `cell` of each value.
fn by_size<T>(
    sizes: &[usize],
    labels: &[&str],
    rows: &[Vec<T>],
    cell: impl Fn(&T) -> String,
) -> String {
    let headers = [&["procs"], labels].concat();
    let rows = sizes.iter().zip(rows).map(|(n, r)| {
        std::iter::once(n.to_string())
            .chain(r.iter().map(&cell))
            .collect()
    });
    table(&headers, rows)
}

/// A title, a blank line and a table: what most entries print.
fn titled(title: &str, table: String) -> String {
    format!("{title}\n\n{table}\n")
}

/// Runs that several entries read, each made once, on first use.
#[derive(Default)]
pub struct Sweeps {
    hpl: OnceCell<Vec<Vec<RunResult>>>,
}

/// The four §5.1 protocols, in figure order, and their column labels.
const HPL_PROTOS: [Proto; 4] = [
    Proto::Gp { max_size: 8 },
    Proto::Gp1,
    Proto::GpK { k: 4 },
    Proto::Norm,
];
const HPL_LABELS: [&str; 4] = ["GP", "GP1", "GP4", "NORM"];

impl Sweeps {
    /// The §5.1 HPL sweep, `[size][proto]` over [`paper_sizes`] and
    /// [`HPL_PROTOS`]: one checkpoint at t = 60 s and a full restart after
    /// the run.
    fn hpl(&self) -> &[Vec<RunResult>] {
        self.hpl.get_or_init(|| {
            run_averaged(
                paper_sizes()
                    .iter()
                    .map(|&n| HPL_PROTOS.map(|p| hpl(n, p).with_restart()).into()),
            )
        })
    }
}

/// HPL (N = 20000, NB = 120, P = 8) on `n` ranks, one checkpoint at
/// t = 60 s.
fn hpl(n: usize, proto: Proto) -> RunSpec {
    let wl = WorkloadSpec::Hpl(HplConfig::paper(n));
    RunSpec::new(wl, proto, Schedule::SingleAt(60.0))
}

/// Process counts of the paper's §5.1 sweep.
fn paper_sizes() -> Vec<usize> {
    (16..=128).step_by(8).collect()
}

/// One row per §5.1 size, one column per protocol.
fn hpl_table(sweep: &[Vec<RunResult>], cell: fn(&RunResult) -> String) -> String {
    by_size(&paper_sizes(), &HPL_LABELS, sweep, cell)
}

/// Table 1: group formation for HPL with 32 processes (P×Q = 8×4). The
/// paper's trace analysis gives Q = 4 groups of P = 8 ranks in
/// round-robin order, the process columns of the grid.
fn table1(_: &Sweeps) -> (String, Vec<Claim>) {
    let cfg = HplConfig::paper(32);
    assert_eq!((cfg.p, cfg.q), (8, 4));
    let trace = profile_trace(&WorkloadSpec::Hpl(cfg));
    let def = form_groups(&trace, 8);
    let text = format!(
        "Table 1: trace-assisted group formation for HPL, 32 processes (8x4)\n\
         trace: {} send records\n\n{def}\n",
        trace.send_count()
    );
    let round_robin = (0..4u32).all(|q| {
        let members = def.members(def.group_of(q)).iter().copied();
        members.eq((0..8).map(|p| p * 4 + q))
    });
    let claim = Claim {
        paper: "HPL 8×4 trace: 4 round-robin groups of 8, group q+1 = {q, q+4, …, q+28}".into(),
        measured: format!(
            "{} groups",
            if round_robin {
                "identical"
            } else {
                "different"
            }
        ),
        holds: round_robin,
    };
    (text, vec![claim])
}

/// Fig 1. The paper's spikes at 40 and 60 processes are single-run
/// straggler events; the seeded straggler model places them by seed.
fn fig01(_: &Sweeps) -> (String, Vec<Claim>) {
    let sizes: Vec<usize> = (12..=68).step_by(4).collect();
    let grid = |n: usize| {
        let mut cfg = HplConfig::paper(8);
        (cfg.p, cfg.q) = hpl_grid_for(n);
        cfg
    };
    let at60 = Schedule::SingleAt(60.0);
    let specs = sizes
        .iter()
        .map(|&n| vec![RunSpec::new(WorkloadSpec::Hpl(grid(n)), Proto::Norm, at60)]);
    let r = run_averaged(specs);
    let rows = sizes.iter().zip(&r).map(|(&n, r)| {
        let g = grid(n);
        vec![
            n.to_string(),
            format!("{}x{}", g.p, g.q),
            f1(r[0].agg_coord_s),
        ]
    });
    let text = titled(
        "Figure 1: aggregate coordination time of one global checkpoint (HPL, NORM)",
        table(&["procs", "grid", "agg coordination (s)"], rows),
    );
    let coord = [r[0][0].agg_coord_s, r[r.len() - 1][0].agg_coord_s];
    let claim = Claim::grows("NORM aggregate coordination (s) grows from 12 to 68", coord);
    (text, vec![claim])
}

/// Fig 2. Checkpoint windows with no transfers are gaps where the
/// application makes no progress.
fn fig02(_: &Sweeps) -> (String, Vec<Claim>) {
    let mut text =
        String::from("Figure 2: blocking behaviour of non-blocking (VCL) checkpoints on CG\n\n");
    let (mut rows, mut gap, mut share) = (Vec::new(), Vec::new(), 0.0);
    for n in [32usize, 128] {
        let tr = run_traced(&cg_remote(&CgConfig::class_c(n), Proto::Vcl, 30.0));
        let stats = gaps::analyze(&tr.trace, &tr.windows);
        let gap_sum: f64 = stats.iter().map(|s| s.gap_fraction).sum();
        let mean_gap = gap_sum / stats.len().max(1) as f64;
        let longest = stats.iter().map(|s| s.longest_gap).max().unwrap_or(0) as f64 / 1e9;
        let ckpt_time: f64 = tr.windows.iter().map(|w| w.len() as f64 / 1e9).sum();
        share = ckpt_time / tr.result.exec_s;
        gap.push(mean_gap);
        rows.push(vec![
            n.to_string(),
            f1(tr.result.exec_s),
            tr.result.waves.to_string(),
            f2(mean_gap),
            f1(longest),
            format!("{:.0}%", 100.0 * share),
        ]);
        // The trace around the first checkpoint window, ranks P0–P3 as in
        // the paper's excerpts.
        if let Some(w) = tr.windows.first() {
            let pad = w.len() / 2;
            let (t0, t1) = (w.start.saturating_sub(pad), w.end + pad);
            let opts = DiagramOpts {
                ranks: vec![0, 1, 2, 3],
                t0,
                t1,
                cols: 100,
            };
            text += &format!(
                "--- {n} processes, first checkpoint window ('.'/'#' = in ckpt, idle/busy) ---\n\
                 {}\n",
                render(&tr.trace, &tr.windows, &opts)
            );
        }
    }
    let headers = [
        "procs",
        "exec (s)",
        "waves",
        "mean gap frac",
        "longest gap (s)",
        "ckpt share of exec",
    ];
    text += &format!("{}\n", table(&headers, rows));
    let claims = vec![
        Claim::order(
            "mean gap fraction of the checkpoint windows: 32 procs < 128 procs",
            &gap,
        ),
        Claim::band("checkpoint share of exec @128", [share], 0.5, 1.0),
    ];
    (text, claims)
}

fn fig05(s: &Sweeps) -> (String, Vec<Claim>) {
    let (sizes, sweep) = (paper_sizes(), s.hpl());
    let diffs: Vec<Vec<f64>> = sweep
        .iter()
        .map(|r| r[..3].iter().map(|x| x.exec_s - r[3].exec_s).collect())
        .collect();
    let text = format!(
        "Figure 5a: HPL execution time (s), one checkpoint at t=60s\n\n{}\n\n\
         Figure 5b: difference from NORM (s, negative = faster than NORM)\n\n{}\n",
        hpl_table(sweep, |r| f1(r.exec_s)),
        by_size(
            &sizes,
            &["GP-NORM", "GP1-NORM", "GP4-NORM"],
            &diffs,
            |d| f2(*d)
        ),
    );
    let gp = [diffs[diffs.len() - 1][0], diffs[0][0]];
    let claims = vec![
        Claim::band("GP, GP1, GP4 − NORM exec (s)", diffs.concat(), -10.0, 10.0),
        Claim::order("GP − NORM exec (s): @128 < @16", &gp),
    ];
    (text, claims)
}

fn fig06(s: &Sweeps) -> (String, Vec<Claim>) {
    let sweep = s.hpl();
    let text = format!(
        "Figure 6a: aggregate checkpoint time (s), HPL, one ckpt at t=60s\n\n{}\n\
         Figure 6b: aggregate restart time (s)\n\n{}\n",
        hpl_table(sweep, |r| f1(r.agg_ckpt_s)),
        hpl_table(sweep, |r| f1(r.agg_restart_s)),
    );
    let last = &sweep[sweep.len() - 1];
    let [gp, gp1, gp4, norm] = [0, 1, 2, 3].map(|j| (last[j].agg_ckpt_s, last[j].agg_restart_s));
    let norm_ckpt = [sweep[0][3].agg_ckpt_s, norm.0];
    let claims = vec![
        Claim::order(
            "aggregate ckpt (s) @128: GP1 ≤ GP < GP4 < NORM",
            &[gp1.0, gp.0, gp4.0, norm.0],
        ),
        Claim::grows("NORM aggregate ckpt (s) grows from 16 to 128", norm_ckpt),
        Claim::order(
            "aggregate restart (s) @128: NORM < GP < GP1",
            &[norm.1, gp.1, gp1.1],
        ),
        Claim::order(
            "aggregate restart (s) @128: NORM < GP4 < GP1",
            &[norm.1, gp4.1, gp1.1],
        ),
    ];
    (text, claims)
}

/// Fig 7. NORM resends nothing by construction; GP1, checkpointing
/// uncoordinated, varies most.
fn fig07(s: &Sweeps) -> (String, Vec<Claim>) {
    let sweep = s.hpl();
    let text = titled(
        "Figure 7: total data to resend on restart (KB), HPL",
        hpl_table(sweep, |r| kb(r.resend_bytes)),
    );
    let kbs = |j: usize| sweep.iter().map(move |r| r[j].resend_bytes as f64 / 1024.0);
    let spreads = [spread(kbs(0)).max(spread(kbs(2))), spread(kbs(1))];
    let all = (0..4).flat_map(kbs);
    let claims = vec![
        Claim::band("resend data (KB), every mode and size", all, 0.0, 12000.0),
        Claim::band("NORM resend data (KB)", kbs(3), 0.0, 0.0),
        Claim::order(
            "resend data spread over sizes (KB): max(GP, GP4) < GP1",
            &spreads,
        ),
    ];
    (text, claims)
}

fn fig08(s: &Sweeps) -> (String, Vec<Claim>) {
    let sweep = s.hpl();
    let text = titled(
        "Figure 8: number of resend operations on restart, HPL",
        hpl_table(sweep, |r| r.resend_ops.to_string()),
    );
    let ops = sweep.iter().flatten().map(|r| r.resend_ops as f64);
    let claim = Claim::band("resend operations, every mode and size", ops, 0.0, 70.0);
    (text, vec![claim])
}

/// Fig 9: rows of the §5.1 sweep at 16 and 128 processes.
fn fig09(s: &Sweeps) -> (String, Vec<Claim>) {
    let sweep = s.hpl();
    let rows = [(16, &sweep[0]), (128, &sweep[sweep.len() - 1])];
    let table_rows = rows.iter().flat_map(|(n, r)| {
        r.iter().zip(HPL_LABELS).map(move |(r, label)| {
            let (lock, coord, ckpt, fin) = r.phases;
            let cells = [lock, coord, ckpt, fin, lock + coord + ckpt + fin].map(f2);
            [n.to_string(), label.into()]
                .into_iter()
                .chain(cells)
                .collect()
        })
    });
    let headers = [
        "procs",
        "mode",
        "lock",
        "coordination",
        "checkpoint",
        "finalize",
        "total",
    ];
    let text = titled(
        "Figure 9: mean per-process checkpoint phase breakdown (s), HPL",
        table(&headers, table_rows),
    );
    let image = |i: usize, j: usize| rows[i].1[j].phases.2;
    let coord = |j: usize| rows[1].1[j].phases.1;
    let image_spread = rows.map(|(_, r)| spread(r.iter().map(|x| x.phases.2)));
    let claims = vec![
        Claim::band(
            "checkpoint phase spread across modes at 16 and at 128 (s)",
            image_spread,
            0.0,
            0.01,
        ),
        Claim::order(
            "GP checkpoint phase (s): @128 < @16",
            &[image(1, 0), image(0, 0)],
        ),
        Claim::order(
            "NORM @128 (s): checkpoint < coordination",
            &[image(1, 3), coord(3)],
        ),
        Claim::order("coordination @128 (s): GP < NORM", &[coord(0), coord(3)]),
    ];
    (text, claims)
}

fn fig10(_: &Sweeps) -> (String, Vec<Claim>) {
    let intervals = [0u64, 60, 120, 180, 300];
    let r = run_averaged(intervals.map(|iv| {
        let schedule = match iv {
            0 => Schedule::None,
            _ => Schedule::Interval {
                start_s: iv as f64,
                every_s: iv as f64,
            },
        };
        let wl = WorkloadSpec::Hpl(HplConfig::paper_large());
        let protos = [Proto::Gp { max_size: 8 }, Proto::Norm];
        protos.map(|p| RunSpec::new(wl.clone(), p, schedule)).into()
    }));
    let rows = intervals.iter().zip(&r).map(|(iv, r)| {
        let (gp, norm) = (&r[0], &r[1]);
        let (gp_s, norm_s) = (f1(gp.exec_s), f1(norm.exec_s));
        vec![
            iv.to_string(),
            gp_s,
            gp.waves.to_string(),
            norm_s,
            norm.waves.to_string(),
        ]
    });
    let headers = [
        "interval (s)",
        "GP time (s)",
        "GP #ckpt",
        "NORM time (s)",
        "NORM #ckpt",
    ];
    let text = titled(
        "Figure 10: HPL N=56000, 128 processes, periodic checkpoints",
        table(&headers, rows),
    );
    let d = |i: usize| r[i][0].exec_s - r[i][1].exec_s;
    let waves = |j: usize| r.iter().map(|r| r[j].waves as f64).sum::<f64>();
    let pts = [
        ("none", d(0)),
        ("300 s", d(4)),
        ("180 s", d(3)),
        ("120 s", d(2)),
        ("60 s", d(1)),
    ];
    let claims = vec![
        Claim::crossover("GP − NORM exec (s)", &pts, "180 s"),
        Claim::order(
            "checkpoints over all intervals: NORM < GP",
            &[waves(1), waves(0)],
        ),
    ];
    (text, claims)
}

/// Figs 11 and 12: summed checkpoint and restart time on one NPB kernel,
/// one row per size. Each row's protocols come in the same order: GP
/// first, GP1 second and NORM last.
fn npb(
    fig: u32,
    kernel: &str,
    sizes: &[usize],
    runs: Vec<(Vec<Proto>, WorkloadSpec)>,
) -> (String, Vec<Claim>) {
    let labels: Vec<String> = runs[0].0.iter().map(|p| p.label().to_uppercase()).collect();
    let labels: Vec<&str> = labels.iter().map(String::as_str).collect();
    let at60 = Schedule::SingleAt(60.0);
    let r = run_averaged(runs.iter().map(|(protos, wl)| {
        let spec = |&p| RunSpec::new(wl.clone(), p, at60).with_restart();
        protos.iter().map(spec).collect()
    }));
    let text = format!(
        "Figure {fig}: {kernel} class C aggregate checkpoint / restart time (s)\n\n\
         Figure {fig}a: aggregate checkpoint time\n{}\n\n\
         Figure {fig}b: aggregate restart time\n{}\n",
        by_size(sizes, &labels, &r, |r| f1(r.agg_ckpt_s)),
        by_size(sizes, &labels, &r, |r| f1(r.agg_restart_s)),
    );
    let (n, last) = (sizes[sizes.len() - 1], &r[r.len() - 1]);
    let (gp, gp1, norm) = (&last[0], &last[1], &last[last.len() - 1]);
    let ckpt = [gp1.agg_ckpt_s, gp.agg_ckpt_s, norm.agg_ckpt_s];
    let restart = [gp.agg_restart_s.max(norm.agg_restart_s), gp1.agg_restart_s];
    let claims = vec![
        Claim::order(&format!("aggregate ckpt (s) @{n}: GP1 ≤ GP < NORM"), &ckpt),
        Claim::order(
            &format!("aggregate restart (s) @{n}: max(GP, NORM) < GP1"),
            &restart,
        ),
    ];
    (text, claims)
}

fn fig11(_: &Sweeps) -> (String, Vec<Claim>) {
    let sizes = [16usize, 32, 64, 128];
    let runs = sizes.map(|n| {
        let cfg = CgConfig::class_c(n);
        let protos = vec![cg_gp(&cfg), Proto::Gp1, Proto::GpK { k: 4 }, Proto::Norm];
        (protos, WorkloadSpec::Cg(cfg))
    });
    npb(11, "CG", &sizes, runs.into())
}

/// Fig 12. GP4 is left out, as in the paper: 4 does not divide SP's
/// square grids evenly.
fn fig12(_: &Sweeps) -> (String, Vec<Claim>) {
    let sizes = [64usize, 81, 100, 121];
    let runs = sizes.map(|n| {
        let cfg = SpConfig::class_c(n);
        let gp = Proto::Gp {
            max_size: cfg.side(),
        };
        (vec![gp, Proto::Gp1, Proto::Norm], WorkloadSpec::Sp(cfg))
    });
    npb(12, "SP", &sizes, runs.into())
}

/// CG class C on remote storage, checkpointed every `every_s` seconds.
fn cg_remote(cfg: &CgConfig, proto: Proto, every_s: f64) -> RunSpec {
    let every = Schedule::Interval {
        start_s: every_s,
        every_s,
    };
    RunSpec::new(WorkloadSpec::Cg(cfg.clone()), proto, every).with_remote_storage()
}

/// GP on CG with groups of at most one grid row.
fn cg_gp(cfg: &CgConfig) -> Proto {
    Proto::Gp {
        max_size: cfg.grid().1,
    }
}

/// Fig 13: CG class C with images on 4 shared remote servers, GP forced
/// to take as many checkpoints as VCL (the paper's fairness procedure).
fn fig13(_: &Sweeps) -> (String, Vec<Claim>) {
    let (mut rows, mut edge, mut ckpt_diff) = (Vec::new(), Vec::new(), Vec::new());
    for n in [16usize, 32, 64, 128] {
        let cfg = CgConfig::class_c(n);
        let base = |p| {
            let spec = RunSpec::new(WorkloadSpec::Cg(cfg.clone()), p, Schedule::None);
            run_one(&spec.with_remote_storage()).exec_s
        };
        let averaged = |p, every| run_averaged([vec![cg_remote(&cfg, p, every)]])[0][0].clone();
        // The paper checkpoints VCL every 120 s on runs of 400–900 s. The
        // simulated CG runs faster, so the interval is a third of VCL's
        // checkpoint-free time, keeping the paper's ~2 checkpoints a run.
        let vcl = averaged(Proto::Vcl, base(Proto::Vcl) / 3.0);
        // GP takes as many: its interval comes from its own
        // checkpoint-free time.
        let gp = averaged(
            cg_gp(&cfg),
            base(cg_gp(&cfg)) / (vcl.waves.max(1) as f64 + 1.0),
        );
        let (gp_s, vcl_s) = (f1(gp.exec_s), f1(vcl.exec_s));
        rows.push(vec![
            n.to_string(),
            gp_s,
            gp.waves.to_string(),
            vcl_s,
            vcl.waves.to_string(),
        ]);
        edge.push(vcl.exec_s - gp.exec_s);
        ckpt_diff.push(gp.waves as f64 - vcl.waves as f64);
    }
    let headers = [
        "procs",
        "GP time (s)",
        "GP #ckpt",
        "VCL time (s)",
        "VCL #ckpt",
    ];
    let text = titled(
        "Figure 13: CG class C with remote checkpoint servers (4 shared)",
        table(&headers, rows),
    );
    let claims = vec![
        Claim::band("GP − VCL checkpoints at every size", ckpt_diff, 0.0, 0.0),
        Claim::grows("VCL − GP exec (s) grows from 16 to 128", [edge[0], edge[3]]),
    ];
    (text, claims)
}

fn fig14(_: &Sweeps) -> (String, Vec<Claim>) {
    let sizes = [16usize, 32, 64, 128];
    let r = run_averaged(sizes.map(|n| {
        let cfg = CgConfig::class_c(n);
        vec![
            cg_remote(&cfg, cg_gp(&cfg), 60.0),
            cg_remote(&cfg, Proto::Vcl, 60.0),
        ]
    }));
    let text = titled(
        "Figure 14: average time per checkpoint (s), CG class C, remote storage",
        by_size(&sizes, &["GP", "VCL"], &r, |r| f1(r.mean_ckpt_s)),
    );
    let gap = |i: usize| r[i][1].mean_ckpt_s - r[i][0].mean_ckpt_s;
    let ratios = r.iter().map(|r| r[1].mean_ckpt_s / r[0].mean_ckpt_s);
    let claims = vec![
        Claim::band(
            "VCL / GP time per checkpoint at every size",
            ratios,
            2.5,
            3.5,
        ),
        Claim::grows(
            "VCL − GP time per checkpoint (s) grows from 16 to 128",
            [gap(0), gap(3)],
        ),
    ];
    (text, claims)
}

/// Ablation (§3.2's tuning): the group-size bound G trades coordination
/// against logging; larger groups log less but coordinate more.
fn ablation_group_size(_: &Sweeps) -> (String, Vec<Claim>) {
    let bounds = [1usize, 2, 4, 8, 16, 32, 64];
    let r = run_averaged(bounds.map(|g| vec![hpl(64, Proto::Gp { max_size: g }).with_restart()]));
    let rows = bounds.iter().zip(&r).map(|(g, r)| {
        let r = &r[0];
        let cells = [
            f1(r.agg_ckpt_s),
            f1(r.agg_restart_s),
            kb(r.total_logged_bytes),
        ];
        [g.to_string(), r.group_count.to_string()]
            .into_iter()
            .chain(cells)
            .collect()
    });
    let headers = [
        "G",
        "groups",
        "agg ckpt (s)",
        "agg restart (s)",
        "logged (KB)",
    ];
    let text = titled(
        "Ablation: max group size G for HPL on 64 processes, one ckpt at t=60s",
        table(&headers, rows),
    );
    let (first, last) = (&r[0][0], &r[r.len() - 1][0]);
    let logged = |r: &RunResult| r.total_logged_bytes as f64 / 1024.0;
    let ckpt = [first.agg_ckpt_s, last.agg_ckpt_s];
    let claims = vec![
        Claim::order("logged (KB): G=64 < G=1", &[logged(last), logged(first)]),
        Claim::grows("aggregate ckpt (s) grows from G=1 to G=64", ckpt),
    ];
    (text, claims)
}

/// Ablation: piggyback-driven log garbage collection (Algorithm 1's `RR`
/// piggybacks). Without it, sender logs grow across checkpoints.
fn ablation_gc(_: &Sweeps) -> (String, Vec<Claim>) {
    let cfg = CgConfig::class_c(32);
    let every = Schedule::Interval {
        start_s: 30.0,
        every_s: 30.0,
    };
    let spec = RunSpec::new(WorkloadSpec::Cg(cfg.clone()), cg_gp(&cfg), every);
    let r = run_averaged([true, false].map(|gc| {
        vec![RunSpec {
            piggyback_gc: gc,
            ..spec.clone()
        }]
    }));
    let frac = r.iter().map(|r| match r[0].total_logged_bytes {
        0 => 0.0,
        logged => r[0].retained_log_bytes as f64 / logged as f64,
    });
    let frac: Vec<f64> = frac.collect();
    let rows = ["on", "off"].iter().zip(&r).zip(&frac).map(|((gc, r), f)| {
        let (logged, retained) = (kb(r[0].total_logged_bytes), kb(r[0].retained_log_bytes));
        vec![gc.to_string(), logged, retained, format!("{f:.2}")]
    });
    let headers = [
        "GC",
        "logged (KB)",
        "retained at end (KB)",
        "retained/logged",
    ];
    let text = titled(
        "Ablation: piggyback log GC, CG class C on 32 processes, ckpt every 30s",
        table(&headers, rows),
    );
    let claims = vec![
        Claim::order("retained/logged: GC on < GC off", &frac),
        Claim::band("retained/logged with GC off", [frac[1]], 1.0, 1.0),
    ];
    (text, claims)
}

/// Ablation: NORM vs GP under coordination stragglers. Global
/// coordination waits for the slowest of n draws, group coordination
/// for the slowest of a group's.
fn ablation_stragglers(_: &Sweeps) -> (String, Vec<Claim>) {
    let probs = [0.0, 0.02, 0.05, 0.10, 0.20];
    let r = run_averaged(probs.map(|p| {
        let run = |proto| RunSpec {
            straggler_prob: Some(p),
            stragglers: p > 0.0,
            ..hpl(64, proto)
        };
        vec![run(Proto::Gp { max_size: 8 }), run(Proto::Norm)]
    }));
    let ratio = |r: &[RunResult]| match r[0].agg_ckpt_s > 0.0 {
        true => r[1].agg_ckpt_s / r[0].agg_ckpt_s,
        false => 0.0,
    };
    let rows = probs.iter().zip(&r).map(|(p, r)| {
        let (gp, norm) = (f1(r[0].agg_ckpt_s), f1(r[1].agg_ckpt_s));
        vec![format!("{p:.2}"), gp, norm, format!("{:.2}", ratio(r))]
    });
    let headers = [
        "P(straggle)",
        "GP agg ckpt (s)",
        "NORM agg ckpt (s)",
        "NORM/GP",
    ];
    let text = titled(
        "Ablation: straggler probability vs aggregate ckpt time, HPL on 64 procs",
        table(&headers, rows),
    );
    let ends = [ratio(&r[0]), ratio(&r[r.len() - 1])];
    let claim = Claim::grows("NORM/GP aggregate ckpt grows from p=0 to p=0.20", ends);
    (text, vec![claim])
}

/// Ablation (§1/§7): recovery scope after one group fails, HPL on 64
/// ranks with images on the remote servers and checkpoints every 60 s.
/// GP rolls back and restores only that group, live ranks replaying from
/// their logs; a global protocol restarts everyone. Then §7's interval
/// advice: Young's formula on GP's measured checkpoint cost.
fn ablation_failure(_: &Sweeps) -> (String, Vec<Claim>) {
    let protos = [Proto::Gp { max_size: 8 }, Proto::Norm];
    let runs = protos.map(|p| {
        let wl = WorkloadSpec::Hpl(HplConfig::paper(64));
        recover_after_run(wl, p, SimDuration::from_secs(60), None)
    });
    let [gp, norm] = runs.each_ref().map(|r| r.stats);
    let rows = protos.iter().zip([gp, norm]).map(|(p, s)| {
        let replayed = s.replayed_into_group_bytes as f64 / 1024.0;
        let downtime = f1(s.downtime.as_secs_f64());
        vec![
            p.label().to_uppercase(),
            s.ranks_restarted.to_string(),
            downtime,
            f1(replayed),
        ]
    });
    let headers = ["mode", "ranks rolled back", "downtime (s)", "replayed (KB)"];
    let mtbf = SimDuration::from_secs(6 * 3600);
    let report = analyze_schedule(runs[0].rt.metrics(), runs[0].end_s, mtbf);
    let tau = optimal_interval(
        SimDuration::from_secs_f64(report.mean_ckpt_s.max(0.1)),
        mtbf,
    );
    let text = format!(
        "{}interval advice for a 6 h whole-system MTBF:\n  \
         measured mean ckpt cost {} s -> Young's optimum tau* = {} s\n  \
         executed schedule: {} ckpts, mean interval {} s, expected loss/failure {} s\n",
        titled(
            "Ablation: single-group failure recovery, HPL on 64 procs, remote storage",
            table(&headers, rows),
        ),
        f2(report.mean_ckpt_s),
        f1(tau.as_secs_f64()),
        report.checkpoints,
        f1(report.mean_interval_s),
        f1(report.expected_loss_per_failure_s)
    );
    let rolled = [gp, norm].map(|s| s.ranks_restarted as f64);
    let downtime = [gp, norm].map(|s| s.downtime.as_secs_f64());
    let claims = vec![
        Claim::order("ranks rolled back: GP < NORM", &rolled),
        Claim::order("recovery downtime (s): GP < NORM", &downtime),
    ];
    (text, claims)
}

/// §6's claim: MPICH-PCL, blocking coordinated checkpointing to remote
/// servers (in this model NORM on remote storage), degrades at scale
/// like LAM/MPI. PCL vs VCL vs GP on CG.
fn ablation_pcl(_: &Sweeps) -> (String, Vec<Claim>) {
    let sizes = [16usize, 64, 128];
    let r = run_averaged(sizes.map(|n| {
        let cfg = CgConfig::class_c(n);
        let protos = [cg_gp(&cfg), Proto::Norm, Proto::Vcl];
        protos.map(|p| cg_remote(&cfg, p, 45.0)).into()
    }));
    let rows = sizes.iter().zip(&r).map(|(n, r)| {
        let exec = r.iter().map(|r| f1(r.exec_s));
        let ckpt = r.iter().map(|r| f1(r.agg_ckpt_s));
        std::iter::once(n.to_string())
            .chain(exec)
            .chain(ckpt)
            .collect()
    });
    let headers = [
        "procs",
        "GP exec (s)",
        "PCL exec (s)",
        "VCL exec (s)",
        "GP agg ckpt",
        "PCL agg ckpt",
        "VCL agg ckpt",
    ];
    let text = titled(
        "Paper §6: PCL (blocking, remote) should degrade like LAM/MPI at scale",
        table(&headers, rows),
    );
    let (first, last) = (&r[0], &r[r.len() - 1]);
    let pcl = [first[1].agg_ckpt_s, last[1].agg_ckpt_s];
    let claims = vec![
        Claim::grows("PCL aggregate ckpt (s) grows from 16 to 128", pcl),
        Claim::order(
            "aggregate ckpt (s) @128: GP < PCL",
            &[last[0].agg_ckpt_s, pcl[1]],
        ),
    ];
    (text, claims)
}

/// Ablation: simultaneous vs staggered group rounds (the paper's
/// checkpoint-target-file capability). Staggering spreads the load on
/// shared servers but serializes the stalls of tightly coupled codes.
fn ablation_staggered(_: &Sweeps) -> (String, Vec<Claim>) {
    let sizes = [32usize, 128];
    let r = run_averaged(sizes.map(|n| {
        let cfg = CgConfig::class_c(n);
        let base = cg_remote(&cfg, cg_gp(&cfg), 45.0);
        vec![base.clone(), base.with_staggered_groups()]
    }));
    let rows = sizes.iter().zip(&r).map(|(n, r)| {
        let cells = r.iter().flat_map(|r| [f1(r.exec_s), f1(r.mean_ckpt_s)]);
        std::iter::once(n.to_string()).chain(cells).collect()
    });
    let headers = [
        "procs",
        "simultaneous exec (s)",
        "simultaneous mean ckpt (s)",
        "staggered exec (s)",
        "staggered mean ckpt (s)",
    ];
    let text = titled(
        "Ablation: simultaneous vs staggered group rounds, CG, remote storage",
        table(&headers, rows),
    );
    let [simultaneous, staggered] = [&r[1][0], &r[1][1]];
    let ckpt = [staggered.mean_ckpt_s, simultaneous.mean_ckpt_s];
    let exec = [simultaneous.exec_s, staggered.exec_s];
    let claims = vec![
        Claim::order("mean ckpt (s) @128: staggered < simultaneous", &ckpt),
        Claim::order("exec (s) @128: simultaneous < staggered", &exec),
    ];
    (text, claims)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(holds: &[bool]) -> Outcome {
        let claims = holds
            .iter()
            .map(|&holds| Claim {
                paper: String::new(),
                measured: String::new(),
                holds,
            })
            .collect();
        Outcome {
            text: String::new(),
            claims,
        }
    }

    #[test]
    fn verdicts_count_the_claims_that_hold() {
        assert_eq!(outcome(&[true, true]).verdict(), "✅");
        assert_eq!(outcome(&[true, false]).verdict(), "〜");
        assert_eq!(outcome(&[false, false]).verdict(), "❌");
    }

    #[test]
    fn claims_check_what_they_say() {
        let order = Claim::order("x: a ≤ b < max(c, d)", &[1.0, 1.0, 2.0]);
        assert!(order.holds);
        assert_eq!(order.measured, "a 1, b 1, max(c, d) 2");
        assert!(!Claim::order("x: a < b < c", &[1.0, 1.0, 2.0]).holds);
        assert!(Claim::grows("x grows from 1 to 2", [1.0, 1.5]).holds);
        assert!(!Claim::grows("x grows from 1 to 2", [1.0, 1.0]).holds);
        let pts = [("p", 2.0), ("q", 0.5), ("r", -1.0)];
        assert!(Claim::crossover("d", &pts, "q").holds);
        assert!(!Claim::crossover("d", &pts, "p").holds);
        assert!(Claim::band("x", [2.5, 3.5], 2.5, 3.5).holds);
        assert!(!Claim::band("x", [2.4], 2.5, 3.5).holds);
    }

    #[test]
    fn entry_names_are_unique() {
        let mut names: Vec<&str> = ENTRIES.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ENTRIES.len());
    }
}
