//! Findings and the analyzer's human / JSON reports.

use gcr_json::Json;

use crate::lexer::Lexed;

/// Rule identifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock / OS entropy / threads / env outside exempt surfaces.
    D02,
    /// `unwrap`/`expect`/`panic!`/unchecked indexing on the recovery path.
    D03,
    /// Transitive panic-reachability: a recovery-critical fn reaches a
    /// panic site through a workspace callee (call-graph pass).
    D03T,
    /// Determinism taint dataflow: a nondeterminism source *flows into* a
    /// digest / trace record / protocol payload sink (witness chain).
    D10,
    /// Control tag sent without a matching receive (or vice versa).
    P01,
    /// Protocol phase-order violation: the extracted ctrl/storage event
    /// sequence leaves the checked-in phase-machine spec (witness path).
    P10,
    /// Session tag-duality: per protocol `Mode`, a ctrl tag emitted but
    /// never handled (peer hangs), handled but unemittable (dead handler),
    /// or emitted and handled under different modes.
    P20,
    /// Stale waiver: it matches no finding on its target line.
    W00,
    /// Waiver without a justification.
    W01,
}

impl Rule {
    /// The identifier as written in suppressions and reports.
    pub fn id(&self) -> &'static str {
        match self {
            Rule::D02 => "D02",
            Rule::D03 => "D03",
            Rule::D03T => "D03-T",
            Rule::D10 => "D10",
            Rule::P01 => "P01",
            Rule::P10 => "P10",
            Rule::P20 => "P20",
            Rule::W00 => "W00",
            Rule::W01 => "W01",
        }
    }

    /// Parse a rule id (as found inside `allow(...)`). `D03-T` also
    /// accepts the hyphen-free spelling `D03T`.
    pub fn parse(s: &str) -> Option<Rule> {
        let s = if s == "D03T" { "D03-T" } else { s };
        Rule::ALL.iter().copied().find(|r| r.id() == s)
    }

    /// Every rule, in catalog order.
    pub const ALL: &'static [Rule] = &[
        Rule::D02,
        Rule::D03,
        Rule::D03T,
        Rule::D10,
        Rule::P01,
        Rule::P10,
        Rule::P20,
        Rule::W00,
        Rule::W01,
    ];
}

impl std::fmt::Display for Rule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.id())
    }
}

/// Where a finding stands after suppressions and the baseline are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Fails the run.
    New,
    /// Grandfathered by the committed baseline.
    Baselined,
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// The rule that fired.
    pub rule: Rule,
    /// Human-facing description.
    pub message: String,
    /// Trimmed source line, used as the baseline matching key.
    pub snippet: String,
    /// New or baselined.
    pub status: Status,
}

impl Finding {
    /// A new finding at `line` of the file `rel`, its snippet taken from
    /// the lexed source.
    pub(crate) fn new(
        rel: &str,
        lx: &Lexed,
        line: usize,
        rule: Rule,
        message: impl Into<String>,
    ) -> Finding {
        Finding {
            file: rel.to_string(),
            line,
            rule,
            message: message.into(),
            snippet: lx.snippet(line).to_string(),
            status: Status::New,
        }
    }

    /// Render as `file:line: RULE message`.
    pub fn human(&self) -> String {
        let tag = match self.status {
            Status::New => "",
            Status::Baselined => " [baseline]",
        };
        format!(
            "{}:{}: {}{} {}",
            self.file, self.line, self.rule, tag, self.message
        )
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("file", Json::from(self.file.as_str())),
            ("line", Json::from(self.line as u64)),
            ("rule", Json::from(self.rule.id())),
            ("message", Json::from(self.message.as_str())),
            ("snippet", Json::from(self.snippet.as_str())),
            (
                "status",
                Json::from(match self.status {
                    Status::New => "new",
                    Status::Baselined => "baseline",
                }),
            ),
        ])
    }

    fn from_json(j: &Json) -> Option<Finding> {
        Some(Finding {
            file: j.get("file")?.as_str()?.to_string(),
            line: j.get("line")?.as_usize()?,
            rule: Rule::parse(j.get("rule")?.as_str()?)?,
            message: j.get("message")?.as_str()?.to_string(),
            snippet: j.get("snippet")?.as_str()?.to_string(),
            status: match j.get("status")?.as_str()? {
                "new" => Status::New,
                "baseline" => Status::Baselined,
                _ => return None,
            },
        })
    }
}

/// Sort findings by file, line and message, then drop repeats of the
/// same message on the same line — the tail of every flow-sensitive and
/// conformance pass, whose walks can reach one site twice.
pub(crate) fn sort_dedup(out: &mut Vec<Finding>) {
    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.message.as_str()).cmp(&(
            b.file.as_str(),
            b.line,
            b.message.as_str(),
        ))
    });
    out.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.message == b.message);
}

/// Call-graph construction statistics, reported so resolution quality is
/// auditable from CI artifacts.
#[derive(Debug, Clone, Copy, Default)]
pub struct GraphStats {
    /// Functions indexed across the workspace (non-test).
    pub functions: usize,
    /// Call sites examined inside those functions.
    pub call_sites: usize,
    /// Sites linked to exactly the right workspace definition(s).
    pub resolved: usize,
    /// Sites whose callee name exists nowhere in the workspace index
    /// (std / core / closure calls) — confidently classified external.
    pub external: usize,
    /// Sites linked by name fallback to several same-named definitions —
    /// the over-approximation the rules accept but the metric reports.
    pub ambiguous: usize,
}

impl GraphStats {
    /// Fraction of call sites confidently resolved (workspace or
    /// external); ambiguous fallback links count against it.
    pub fn resolution_rate(&self) -> f64 {
        if self.call_sites == 0 {
            return 1.0;
        }
        // Summed as floats: a replayed cache entry may hold any counts.
        (self.resolved as f64 + self.external as f64) / self.call_sites as f64
    }

    fn to_json(self) -> Json {
        // Fixed-point with 4 decimals keeps the report bit-stable.
        let rate = format!("{:.4}", self.resolution_rate());
        Json::obj([
            ("functions", Json::from(self.functions as u64)),
            ("call_sites", Json::from(self.call_sites as u64)),
            ("resolved", Json::from(self.resolved as u64)),
            ("external", Json::from(self.external as u64)),
            ("ambiguous", Json::from(self.ambiguous as u64)),
            ("resolution_rate", Json::from(rate.as_str())),
        ])
    }

    /// The inverse of `to_json`; the derived `resolution_rate` is ignored.
    fn from_json(j: &Json) -> Option<GraphStats> {
        Some(GraphStats {
            functions: j.get("functions")?.as_usize()?,
            call_sites: j.get("call_sites")?.as_usize()?,
            resolved: j.get("resolved")?.as_usize()?,
            external: j.get("external")?.as_usize()?,
            ambiguous: j.get("ambiguous")?.as_usize()?,
        })
    }
}

/// A full analyzer run over the workspace.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings (new + baselined), sorted by file, line, rule.
    pub findings: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Baseline entries that matched nothing — the baseline should shrink.
    pub unused_baseline: Vec<String>,
    /// Call-graph statistics (None for single-file analysis, which has no
    /// workspace index to build a graph from).
    pub graph: Option<GraphStats>,
}

impl Report {
    /// Number of findings not covered by the baseline.
    pub fn new_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|f| f.status == Status::New)
            .count()
    }

    /// Does the run pass (no new findings)?
    pub fn passed(&self) -> bool {
        self.new_count() == 0
    }

    /// Human report: one line per finding plus a summary.
    pub fn human(&self) -> String {
        let mut s = String::new();
        for f in &self.findings {
            s.push_str(&f.human());
            s.push('\n');
        }
        for u in &self.unused_baseline {
            s.push_str(&format!("warning: unused baseline entry: {u}\n"));
        }
        if let Some(g) = &self.graph {
            s.push_str(&format!(
                "call graph: {} fn(s), {} call site(s), {:.1}% resolved \
                 ({} workspace, {} external, {} ambiguous)\n",
                g.functions,
                g.call_sites,
                g.resolution_rate() * 100.0,
                g.resolved,
                g.external,
                g.ambiguous,
            ));
        }
        let baselined = self.findings.len() - self.new_count();
        s.push_str(&format!(
            "{} file(s) scanned, {} finding(s) ({} new, {} baselined)",
            self.files_scanned,
            self.findings.len(),
            self.new_count(),
            baselined,
        ));
        s
    }

    /// The report as a JSON document (deterministic field order).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("files_scanned", Json::from(self.files_scanned as u64)),
            ("new", Json::from(self.new_count() as u64)),
            (
                "findings",
                Json::from(
                    self.findings
                        .iter()
                        .map(Finding::to_json)
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "unused_baseline",
                Json::from(
                    self.unused_baseline
                        .iter()
                        .map(|u| Json::from(u.as_str()))
                        .collect::<Vec<_>>(),
                ),
            ),
        ];
        if let Some(g) = &self.graph {
            fields.push(("callgraph", g.to_json()));
        }
        Json::obj(fields)
    }

    /// The inverse of [`Report::to_json`] (the derived `new` count is
    /// recomputed, not read): the incremental cache's codec. `None` on
    /// any missing or mistyped field.
    pub(crate) fn from_json(j: &Json) -> Option<Report> {
        let graph = match j.get("callgraph") {
            Some(g) => Some(GraphStats::from_json(g)?),
            None => None,
        };
        Some(Report {
            findings: j
                .get("findings")?
                .as_arr()?
                .iter()
                .map(Finding::from_json)
                .collect::<Option<_>>()?,
            files_scanned: j.get("files_scanned")?.as_usize()?,
            unused_baseline: j
                .get("unused_baseline")?
                .as_arr()?
                .iter()
                .map(|u| u.as_str().map(str::to_string))
                .collect::<Option<_>>()?,
            graph,
        })
    }

    /// The report as a minimal SARIF 2.1.0 document, so CI can attach the
    /// findings to PR diffs. New findings are `error` (they fail the run),
    /// baselined ones are `note`. Deterministic: findings keep the
    /// report's sorted order and the rule metadata follows the catalog.
    pub fn to_sarif(&self) -> Json {
        let rules: Vec<Json> = crate::catalog::CATALOG
            .iter()
            .map(|doc| {
                Json::obj([
                    ("id", Json::from(doc.rule.id())),
                    (
                        "shortDescription",
                        Json::obj([("text", Json::from(doc.summary))]),
                    ),
                    ("helpUri", Json::from("README.md")),
                ])
            })
            .collect();
        let results: Vec<Json> = self
            .findings
            .iter()
            .map(|f| {
                let level = match f.status {
                    Status::New => "error",
                    Status::Baselined => "note",
                };
                let location = Json::obj([(
                    "physicalLocation",
                    Json::obj([
                        (
                            "artifactLocation",
                            Json::obj([("uri", Json::from(f.file.as_str()))]),
                        ),
                        (
                            "region",
                            Json::obj([("startLine", Json::from(f.line as u64))]),
                        ),
                    ]),
                )]);
                Json::obj([
                    ("ruleId", Json::from(f.rule.id())),
                    ("level", Json::from(level)),
                    (
                        "message",
                        Json::obj([("text", Json::from(f.message.as_str()))]),
                    ),
                    ("locations", Json::from(vec![location])),
                ])
            })
            .collect();
        let driver = Json::obj([
            ("name", Json::from("gcr-lint")),
            ("informationUri", Json::from("DESIGN.md")),
            ("rules", Json::from(rules)),
        ]);
        let run = Json::obj([
            ("tool", Json::obj([("driver", driver)])),
            ("results", Json::from(results)),
        ]);
        Json::obj([
            (
                "$schema",
                Json::from(
                    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
                ),
            ),
            ("version", Json::from("2.1.0")),
            ("runs", Json::from(vec![run])),
        ])
    }
}
