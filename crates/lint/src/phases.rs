//! P10 — protocol phase-order model checking.
//!
//! Each checkpoint/restart protocol is a phase machine: the blocking
//! protocol must `begin` a generation only after the bookmark drain and
//! the pre-write barrier, may `commit`/`abort` only after the post-write
//! barrier, and must never send application-visible control traffic after
//! the commit decision fans out. Those orderings are *specs* here —
//! declarative state machines checked into [`SPECS`] — and this pass
//! verifies them against the event sequences it extracts from the real
//! protocol bodies in `crates/core`.
//!
//! Extraction is interprocedural and path-sensitive over the structured
//! CFG ([`crate::cfg`]): `if`/`match` become alternatives, loops become
//! Kleene closures, and calls into the control-plane helpers (the entry's
//! own file plus `ctrlplane.rs`) are inlined, so `bookmark_drain`'s
//! BOOKMARK sends count inside `blocking_wave`'s sequence. Events are
//! * `send:TAG` / `recv:TAG` — `ctrl_send`/`ctrl_recv` with a `tags::TAG`
//!   argument (a local `let t = tags::TAG + wave` alias also resolves);
//! * `barrier:TAG` — `ctrl_barrier`;
//! * `store.OP` — catalog transitions (`begin`, `commit`, `abort`,
//!   `record_image`, `record_failure`, `validate`, `record_load`) on a
//!   receiver literally named `store`;
//! * `write` / `read` — image I/O on a receiver literally named `storage`.
//!
//! The check runs the event tree through the spec's automaton as a set of
//! live phases, each carrying a representative witness trail. Three
//! violation classes fire, each with its witness path: an event illegal
//! in every live phase (send-after-commit, commit-without-barrier), a
//! path ending in a non-accepting phase (unmatched begin), and a spec
//! `required` event the extracted body can never exercise
//! (abort-unreachable).

use std::collections::{BTreeMap, BTreeSet};

use crate::cfg::{self, Cfg};
use crate::lexer::{Lexed, TokKind};
use crate::report::{sort_dedup, Finding, Rule};
use crate::symbols::SymbolIndex;

/// Control-plane helper file whose callees are inlined into every
/// protocol entry (alongside the entry's own file).
pub const INLINE_HELPERS: &str = "crates/core/src/ctrlplane.rs";

/// Method calls that are protocol events, as `(receiver, methods,
/// event)`: a call `receiver.method(…)` on a receiver literally named so
/// is the event, or `receiver.method` when the event is `None`.
/// Backend-routed image I/O is the same event as the direct storage call
/// it replaced: the disk path delegates verbatim, the restore path adds
/// replica traffic on top. The `replicas` ops are the restore backend's
/// rebuild pass.
const METHOD_EVENTS: &[(&str, &[&str], Option<&str>)] = &[
    (
        "store",
        &[
            "begin",
            "commit",
            "abort",
            "record_image",
            "record_failure",
            "validate",
            "record_load",
        ],
        None,
    ),
    ("storage", &["write", "write_with_retry"], Some("write")),
    ("storage", &["read", "read_with_retry"], Some("read")),
    ("backend", &["write_image"], Some("write")),
    ("backend", &["read_image"], Some("read")),
    (
        "replicas",
        &["push_block", "ack_quorum", "commit_visible"],
        None,
    ),
];

/// One protocol's phase machine.
#[derive(Debug)]
pub struct PhaseSpec {
    /// Protocol name, used in finding messages.
    pub protocol: &'static str,
    /// Entry function the event sequence is extracted from.
    pub entry: &'static str,
    /// Workspace-relative file the entry lives in. A spec whose entry is
    /// absent is inactive (synthetic fixture workspaces stay quiet).
    pub entry_file: &'static str,
    /// Phase the automaton starts in.
    pub start: &'static str,
    /// Phases a protocol run may legally end in.
    pub accepting: &'static [&'static str],
    /// `(from-phase, event, to-phase)` transitions. The event alphabet is
    /// derived from this table (plus `required`); events outside it are
    /// ignored, so unrelated control traffic cannot break a spec.
    pub transitions: &'static [(&'static str, &'static str, &'static str)],
    /// Events that must be exercisable somewhere in the extracted body,
    /// with the reason they are load-bearing.
    pub required: &'static [(&'static str, &'static str)],
}

/// The checked-in phase specs. These encode DESIGN.md's protocol phase
/// diagrams; P10 fails the build when the code and the spec diverge.
pub const SPECS: &[PhaseSpec] = &[
    PhaseSpec {
        protocol: "blocking-2pc",
        entry: "blocking_wave",
        entry_file: "crates/core/src/blocking.rs",
        start: "idle",
        accepting: &["resolved"],
        transitions: &[
            // Bookmark drain: in-flight bytes settle before the freeze
            // barrier. No storage traffic may precede BARRIER1.
            ("idle", "send:BOOKMARK", "drain"),
            ("idle", "recv:BOOKMARK", "drain"),
            ("idle", "barrier:BARRIER1", "synced"),
            ("drain", "send:BOOKMARK", "drain"),
            ("drain", "recv:BOOKMARK", "drain"),
            ("drain", "barrier:BARRIER1", "synced"),
            // A generation opens only once the group is synced.
            ("synced", "store.begin", "pending"),
            // Image writes (including torn ones) and per-rank outcome
            // records all happen under the pending generation.
            ("pending", "write", "pending"),
            ("pending", "store.record_image", "pending"),
            ("pending", "store.record_failure", "pending"),
            // The post-write barrier seals the wave: only after every
            // member reports may the coordinator decide.
            ("pending", "barrier:BARRIER2", "sealed"),
            ("sealed", "store.commit", "resolved"),
            ("sealed", "store.abort", "resolved"),
            ("sealed", "recv:COMMIT", "resolved"),
            // The decision broadcast is the only legal post-commit send.
            ("resolved", "send:COMMIT", "resolved"),
        ],
        required: &[(
            "store.abort",
            "a pending generation with no abort path wedges the restart \
             fallback on the first failed wave",
        )],
    },
    PhaseSpec {
        protocol: "vcl",
        entry: "vcl_wave",
        entry_file: "crates/core/src/vcl.rs",
        start: "wave",
        accepting: &["flushed"],
        transitions: &[
            // Marker collection arms before the generation opens.
            ("wave", "recv:MARKER", "wave"),
            ("wave", "store.begin", "armed"),
            ("armed", "write", "armed"),
            ("armed", "send:MARKER", "armed"),
            ("armed", "recv:MARKER", "armed"),
            ("armed", "store.record_image", "flushed"),
            ("armed", "store.record_failure", "flushed"),
        ],
        required: &[
            ("send:MARKER", "every outgoing channel must get a marker"),
            (
                "store.record_failure",
                "a failed image/state write must be recorded, or the wave \
                 commits a generation with holes",
            ),
        ],
    },
    PhaseSpec {
        protocol: "restart",
        entry: "restart_rank_with_peers",
        entry_file: "crates/core/src/restart.rs",
        start: "load",
        accepting: &["done"],
        transitions: &[
            // Generation selection: validate against the catalog, record
            // the load, then read the image — all before any replay.
            ("load", "store.validate", "load"),
            ("load", "store.record_load", "load"),
            ("load", "read", "loaded"),
            // Under receiver-based logging, local replay from the rank's
            // own receiver log is pure disk traffic — legal any time
            // after the image load.
            ("loaded", "read", "loaded"),
            ("loaded", "send:RESTART_VOL", "replay"),
            ("loaded", "recv:RESTART_VOL", "replay"),
            // A rank with no out-of-group peers resumes directly.
            ("loaded", "barrier:RESTART_BARRIER", "done"),
            ("replay", "send:RESTART_VOL", "replay"),
            ("replay", "recv:RESTART_VOL", "replay"),
            ("replay", "read", "replay"),
            ("replay", "send:RESTART_PLAN", "replay"),
            ("replay", "recv:RESTART_PLAN", "replay"),
            ("replay", "send:RESTART_DATA", "replay"),
            ("replay", "recv:RESTART_DATA", "replay"),
            ("replay", "barrier:RESTART_BARRIER", "done"),
        ],
        required: &[(
            "store.validate",
            "restart must validate the generation against the catalog \
             before consuming an image — the store-load oracle depends on it",
        )],
    },
    PhaseSpec {
        protocol: "restart-serve",
        entry: "serve_peer_recovery",
        entry_file: "crates/core/src/restart.rs",
        start: "serve",
        accepting: &["serve"],
        transitions: &[
            ("serve", "send:RESTART_VOL", "serve"),
            ("serve", "recv:RESTART_VOL", "serve"),
            ("serve", "read", "serve"),
            ("serve", "send:RESTART_PLAN", "serve"),
            ("serve", "recv:RESTART_PLAN", "serve"),
            ("serve", "send:RESTART_DATA", "serve"),
            ("serve", "recv:RESTART_DATA", "serve"),
        ],
        required: &[],
    },
    PhaseSpec {
        protocol: "cvc",
        entry: "cvc_wave",
        entry_file: "crates/core/src/cvc.rs",
        start: "agree",
        accepting: &["resolved"],
        transitions: &[
            // Step 1: butterfly max-merge of the collective clocks. No
            // storage traffic may precede target agreement.
            ("agree", "send:CVC_CLOCK", "agree"),
            ("agree", "recv:CVC_CLOCK", "agree"),
            // The generation opens only after the cut is armed; the
            // image (torn or whole) is written under it.
            ("agree", "store.begin", "pending"),
            ("pending", "write", "pending"),
            // The pre-record barrier closes the channel-state window;
            // the captured state is persisted after it, then the
            // member's outcome is recorded.
            ("pending", "barrier:BARRIER1", "synced"),
            ("synced", "write", "synced"),
            ("synced", "store.record_image", "recorded"),
            ("synced", "store.record_failure", "recorded"),
            // The post-record barrier seals the wave: only after every
            // member's outcome is in the catalog may the coordinator
            // decide.
            ("recorded", "barrier:BARRIER2", "sealed"),
            ("sealed", "store.commit", "resolved"),
            ("sealed", "store.abort", "resolved"),
            ("sealed", "recv:COMMIT", "resolved"),
            // The decision broadcast is the only legal post-commit send.
            ("resolved", "send:COMMIT", "resolved"),
        ],
        required: &[
            (
                "store.abort",
                "a pending generation with no abort path wedges the restart \
                 fallback on the first failed wave",
            ),
            (
                "barrier:BARRIER1",
                "the channel-state window must close at a full-group \
                 barrier, or a rank persists state bytes while a peer is \
                 still pre-cut",
            ),
        ],
    },
    PhaseSpec {
        protocol: "bookmark-drain",
        entry: "bookmark_drain",
        entry_file: "crates/core/src/ctrlplane.rs",
        start: "drain",
        accepting: &["drain"],
        transitions: &[
            ("drain", "send:BOOKMARK", "drain"),
            ("drain", "recv:BOOKMARK", "drain"),
        ],
        required: &[],
    },
    PhaseSpec {
        protocol: "restore-rebuild",
        entry: "rebuild",
        entry_file: "crates/net/src/restore.rs",
        start: "scan",
        accepting: &["visible"],
        transitions: &[
            // Each degraded block re-pushes copies (bounded retry), then
            // its quorum is checked before anything becomes servable.
            ("scan", "replicas.push_block", "pushing"),
            ("pushing", "replicas.push_block", "pushing"),
            ("scan", "replicas.ack_quorum", "checked"),
            ("pushing", "replicas.ack_quorum", "checked"),
            // The next block starts pushing (or checks straight away
            // when it had nothing to push / every push failed).
            ("checked", "replicas.push_block", "pushing"),
            ("checked", "replicas.ack_quorum", "checked"),
            // One atomic publish at the end of the pass: staged copies
            // flip servable together, never mid-scan.
            ("scan", "replicas.commit_visible", "visible"),
            ("checked", "replicas.commit_visible", "visible"),
        ],
        required: &[
            (
                "replicas.ack_quorum",
                "a rebuilt copy must pass the quorum check before the pass \
                 may publish it — silent under-replication defeats the \
                 survivability oracle",
            ),
            (
                "replicas.commit_visible",
                "staged rebuild copies must flip servable atomically at the \
                 end of the pass, or readers observe half-rebuilt redundancy",
            ),
        ],
    },
];

/// One extracted protocol event.
#[derive(Debug, Clone)]
pub(crate) struct Ev {
    pub(crate) name: String,
    pub(crate) file: usize,
    pub(crate) line: usize,
}

/// Structured event tree mirroring the CFG shape.
#[derive(Debug)]
enum Tree {
    Seq(Vec<Tree>),
    Alt(Vec<Tree>),
    Loop(Box<Tree>),
    Ev(Ev),
}

/// Witness trail: the events (with locations) that drove the automaton
/// into the current phase.
type Trail = Vec<Ev>;

/// Live phases of the subset simulation, each with one representative
/// trail (first reached, deterministically).
type States = BTreeMap<&'static str, Trail>;

/// Protocols whose spec is active (entry found) in this workspace. Used
/// by the tier-1 coverage test: the live workspace must keep every spec
/// active.
pub fn active_specs(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<&'static str> {
    SPECS
        .iter()
        .filter(|s| find_fn(index, views, s.entry, s.entry_file).is_some())
        .map(|s| s.protocol)
        .collect()
}

/// One active spec's interprocedural event tree, extracted once per lint
/// run: P10 runs it through the spec's automaton, P20 reads its events.
pub struct Extracted {
    pub(crate) spec: &'static PhaseSpec,
    entry: usize,
    tree: Tree,
}

impl Extracted {
    /// Every event site in source order: each branch of each `Alt` counts
    /// as reachable and loops contribute their body once. Duality (P20)
    /// asks about event *sets*, so the tree's order is dropped here.
    pub(crate) fn events(&self) -> Vec<&Ev> {
        fn walk<'t>(t: &'t Tree, out: &mut Vec<&'t Ev>) {
            match t {
                Tree::Seq(v) | Tree::Alt(v) => v.iter().for_each(|n| walk(n, out)),
                Tree::Loop(b) => walk(b, out),
                Tree::Ev(ev) => out.push(ev),
            }
        }
        let mut out = Vec::new();
        walk(&self.tree, &mut out);
        out
    }
}

/// Extract the event tree of every active spec (entry found), in
/// [`SPECS`] order.
pub fn extract(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<Extracted> {
    SPECS
        .iter()
        .filter_map(|spec| {
            let entry = find_fn(index, views, spec.entry, spec.entry_file)?;
            let ex = Extractor {
                index,
                views,
                entry_file: spec.entry_file,
            };
            let tree = ex.extract_fn(entry, &mut Vec::new());
            Some(Extracted { spec, entry, tree })
        })
        .collect()
}

/// Run every extracted spec through its automaton; returns P10 findings.
pub fn check(
    extracted: &[Extracted],
    index: &SymbolIndex,
    views: &[(&str, &Lexed)],
) -> Vec<Finding> {
    let mut out: Vec<Finding> = extracted
        .iter()
        .flat_map(|x| simulate(x.spec, &x.tree, index, views, x.entry))
        .collect();
    sort_dedup(&mut out);
    out
}

/// The id of the fn named `name` with a body in `file`, if indexed.
fn find_fn(index: &SymbolIndex, views: &[(&str, &Lexed)], name: &str, file: &str) -> Option<usize> {
    index
        .fns
        .iter()
        .position(|f| f.name == name && f.body.is_some() && views[f.file].0 == file)
}

struct Extractor<'a> {
    index: &'a SymbolIndex<'a>,
    views: &'a [(&'a str, &'a Lexed<'a>)],
    entry_file: &'a str,
}

impl Extractor<'_> {
    /// Extract the event tree of fn `f`, inlining eligible callees.
    /// `stack` guards recursion and bounds inline depth.
    fn extract_fn(&self, f: usize, stack: &mut Vec<usize>) -> Tree {
        let fd = &self.index.fns[f];
        let Some((lo, hi)) = fd.body else {
            return Tree::Seq(Vec::new());
        };
        let lx = self.views[fd.file].1;
        let tag_lets = tag_lets(lx, lo, hi);
        let graph = cfg::build(&lx.toks, lo, hi);
        stack.push(f);
        let t = self.tree_of(&graph, fd.file, &tag_lets, stack);
        stack.pop();
        t
    }

    fn tree_of(
        &self,
        c: &Cfg,
        fi: usize,
        tag_lets: &BTreeMap<&str, &str>,
        stack: &mut Vec<usize>,
    ) -> Tree {
        match c {
            Cfg::Stmt(lo, hi) => Tree::Seq(self.stmt_events(fi, *lo, *hi, tag_lets, stack)),
            Cfg::Seq(v) => Tree::Seq(
                v.iter()
                    .map(|n| self.tree_of(n, fi, tag_lets, stack))
                    .collect(),
            ),
            Cfg::Branch(v) => Tree::Alt(
                v.iter()
                    .map(|n| self.tree_of(n, fi, tag_lets, stack))
                    .collect(),
            ),
            Cfg::Loop(b) => Tree::Loop(Box::new(self.tree_of(b, fi, tag_lets, stack))),
        }
    }

    /// Linear scan of a straight-line token range for events and
    /// inlinable calls.
    fn stmt_events(
        &self,
        fi: usize,
        lo: usize,
        hi: usize,
        tag_lets: &BTreeMap<&str, &str>,
        stack: &mut Vec<usize>,
    ) -> Vec<Tree> {
        let lx = self.views[fi].1;
        let toks = &lx.toks;
        let mut out = Vec::new();
        let mut i = lo;
        while i < hi.min(toks.len()) {
            let t = &toks[i];
            let called = t.kind == TokKind::Ident && toks.get(i + 1).is_some_and(|n| n.text == "(");
            if !called {
                i += 1;
                continue;
            }
            let name = t.text;
            if let Some((kind, _, tag)) = ctrl_call(lx, i, tag_lets) {
                if let Some(tag) = tag {
                    out.push(Tree::Ev(Ev {
                        name: format!("{kind}:{tag}"),
                        file: fi,
                        line: t.line,
                    }));
                }
                i += 1;
                continue;
            }
            let receiver =
                (i >= 2 && toks[i - 1].text == "." && toks[i - 2].kind == TokKind::Ident)
                    .then(|| toks[i - 2].text);
            let event = METHOD_EVENTS
                .iter()
                .find(|(recv, methods, _)| receiver == Some(*recv) && methods.contains(&name));
            if let Some((recv, _, ev)) = event {
                out.push(Tree::Ev(Ev {
                    name: ev.map_or_else(|| format!("{recv}.{name}"), str::to_string),
                    file: fi,
                    line: t.line,
                }));
                i += 1;
                continue;
            }
            // Inline a control-plane callee (entry file or ctrlplane.rs).
            if stack.len() < 4 {
                if let Some(callee) = self.resolve_inline(name) {
                    if !stack.contains(&callee) {
                        out.push(self.extract_fn(callee, stack));
                    }
                }
            }
            i += 1;
        }
        out
    }

    fn resolve_inline(&self, name: &str) -> Option<usize> {
        let ids = self.index.by_name.get(name)?;
        ids.iter().copied().find(|&id| {
            let fd = &self.index.fns[id];
            fd.body.is_some() && {
                let rel = self.views[fd.file].0;
                rel == self.entry_file || rel == INLINE_HELPERS
            }
        })
    }
}

/// `let IDENT = tags::NAME …` aliases within a body — `bookmark_drain`
/// binds its tag once and reuses it.
fn tag_lets<'a>(lx: &Lexed<'a>, lo: usize, hi: usize) -> BTreeMap<&'a str, &'a str> {
    let toks = &lx.toks;
    let mut map = BTreeMap::new();
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i + 6 < hi {
        if toks[i].text == "let"
            && toks[i + 1].kind == TokKind::Ident
            && toks[i + 2].text == "="
            && toks[i + 3].text == "tags"
            && toks[i + 4].text == ":"
            && toks[i + 5].text == ":"
            && toks[i + 6].kind == TokKind::Ident
        {
            map.insert(toks[i + 1].text, toks[i + 6].text);
        }
        i += 1;
    }
    map
}

/// The `ctrl_send`/`ctrl_recv`/`ctrl_barrier` call whose name is token
/// `i` (already known to be followed by `(`): its event kind (`send`,
/// `recv`, `barrier`), the index of its closing paren, and the tag its
/// arguments name, if any.
fn ctrl_call<'a>(
    lx: &Lexed<'a>,
    i: usize,
    tag_lets: &BTreeMap<&str, &'a str>,
) -> Option<(&'static str, usize, Option<&'a str>)> {
    let kind = match lx.toks[i].text {
        "ctrl_send" => "send",
        "ctrl_recv" => "recv",
        "ctrl_barrier" => "barrier",
        _ => return None,
    };
    let close = cfg::matching(&lx.toks, i + 1, lx.toks.len());
    Some((kind, close, find_tag(lx, i + 2, close, tag_lets)))
}

/// The ctrl tag named in `[lo, hi)`: a literal `tags::NAME`, or an ident
/// aliased by a `tag_lets` binding.
fn find_tag<'a>(
    lx: &Lexed<'a>,
    lo: usize,
    hi: usize,
    tag_lets: &BTreeMap<&str, &'a str>,
) -> Option<&'a str> {
    let toks = &lx.toks;
    let hi = hi.min(toks.len());
    let mut i = lo;
    while i < hi {
        if toks[i].text == "tags"
            && i + 3 < hi
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].kind == TokKind::Ident
        {
            return Some(toks[i + 3].text);
        }
        if toks[i].kind == TokKind::Ident {
            if let Some(&name) = tag_lets.get(toks[i].text) {
                return Some(name);
            }
        }
        i += 1;
    }
    None
}

/// Run the event tree through the spec automaton; produce P10 findings.
fn simulate(
    spec: &PhaseSpec,
    tree: &Tree,
    index: &SymbolIndex,
    views: &[(&str, &Lexed)],
    entry: usize,
) -> Vec<Finding> {
    let alphabet: BTreeSet<&str> = spec
        .transitions
        .iter()
        .map(|(_, ev, _)| *ev)
        .chain(spec.required.iter().map(|(ev, _)| *ev))
        .collect();
    let mut sim = Sim {
        spec,
        views,
        alphabet,
        consumed: BTreeSet::new(),
        violations: Vec::new(),
    };
    let mut init = States::new();
    init.insert(spec.start, Vec::new());
    let end = sim.run(tree, init);

    let ed = &index.fns[entry];
    let mut out = sim.violations;

    if !end.is_empty() && !end.keys().any(|st| spec.accepting.contains(st)) {
        let (st, trail) = end.iter().next_back().expect("non-empty end states");
        let (file, line) = trail
            .last()
            .map(|e| (e.file, e.line))
            .unwrap_or((ed.file, ed.line));
        out.push(Finding::new(
            views[file].0,
            views[file].1,
            line,
            Rule::P10,
            format!(
                "protocol `{}` can finish in non-accepting phase `{st}` — an \
                 opened generation is never resolved (unmatched begin/commit/abort); \
                 witness: {}",
                spec.protocol,
                witness(views, trail),
            ),
        ));
    }
    for (ev, why) in spec.required {
        if !sim.consumed.contains(ev) {
            out.push(Finding::new(
                views[ed.file].0,
                views[ed.file].1,
                ed.line,
                Rule::P10,
                format!(
                    "protocol `{}`: required event `{ev}` is unreachable in \
                     `{}` — {why}",
                    spec.protocol, spec.entry,
                ),
            ));
        }
    }
    out
}

struct Sim<'s> {
    spec: &'s PhaseSpec,
    views: &'s [(&'s str, &'s Lexed<'s>)],
    alphabet: BTreeSet<&'s str>,
    consumed: BTreeSet<&'s str>,
    violations: Vec<Finding>,
}

impl Sim<'_> {
    fn run(&mut self, t: &Tree, states: States) -> States {
        match t {
            Tree::Seq(v) => v.iter().fold(states, |s, n| self.run(n, s)),
            Tree::Alt(v) => {
                let mut merged = States::new();
                for n in v {
                    for (st, trail) in self.run(n, states.clone()) {
                        merged.entry(st).or_insert(trail);
                    }
                }
                merged
            }
            Tree::Loop(b) => {
                let mut acc = states;
                // Fixpoint: the phase set is finite, so |phases| rounds
                // suffice; violations inside the body are deduped later.
                for _ in 0..self.spec.transitions.len().max(4) {
                    let after = self.run(b, acc.clone());
                    let mut grew = false;
                    for (st, trail) in after {
                        if !acc.contains_key(st) {
                            acc.insert(st, trail);
                            grew = true;
                        }
                    }
                    if !grew {
                        break;
                    }
                }
                acc
            }
            Tree::Ev(ev) => self.step(ev, states),
        }
    }

    fn step(&mut self, ev: &Ev, states: States) -> States {
        if !self.alphabet.contains(ev.name.as_str()) {
            return states;
        }
        let mut next = States::new();
        for (&st, trail) in &states {
            for &(from, tev, to) in self.spec.transitions {
                if from == st && tev == ev.name {
                    self.consumed.insert(tev);
                    let mut t2 = trail.clone();
                    t2.push(ev.clone());
                    next.entry(to).or_insert(t2);
                }
            }
        }
        if next.is_empty() && !states.is_empty() {
            let (&st, trail) = states.iter().next().expect("non-empty states");
            let message = format!(
                "protocol `{}`: event `{}` is illegal in phase `{st}` — the \
                 spec allows only {}; witness: {}",
                self.spec.protocol,
                ev.name,
                legal_events(self.spec, st),
                witness_with(self.views, trail, ev),
            );
            let (rel, lx) = self.views[ev.file];
            self.violations
                .push(Finding::new(rel, lx, ev.line, Rule::P10, message));
            // Report, then ignore the event: the rest of the protocol is
            // still checked from the phases we were in.
            return states;
        }
        next
    }
}

fn legal_events(spec: &PhaseSpec, state: &str) -> String {
    let evs: Vec<&str> = spec
        .transitions
        .iter()
        .filter(|(from, _, _)| *from == state)
        .map(|(_, ev, _)| *ev)
        .collect();
    if evs.is_empty() {
        "no further events".to_string()
    } else {
        format!("[{}]", evs.join(", "))
    }
}

fn witness_with(views: &[(&str, &Lexed)], trail: &Trail, last: &Ev) -> String {
    let mut full = trail.clone();
    full.push(last.clone());
    witness(views, &full)
}

fn witness(views: &[(&str, &Lexed)], trail: &Trail) -> String {
    if trail.is_empty() {
        return "(no events extracted)".to_string();
    }
    let mut steps: Vec<String> = trail
        .iter()
        .map(|e| format!("{}@{}:{}", e.name, basename(views[e.file].0), e.line))
        .collect();
    let skipped = steps.len().saturating_sub(8);
    if skipped > 0 {
        steps.drain(..skipped);
        steps.insert(0, format!("… {skipped} earlier"));
    }
    steps.join(" → ")
}

fn basename(rel: &str) -> &str {
    rel.rsplit('/').next().unwrap_or(rel)
}
