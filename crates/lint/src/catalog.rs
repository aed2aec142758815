//! The rule catalog: one human-readable explanation per rule, served by
//! `gcrsim lint --explain <RULE>`.
//!
//! Each entry states what the rule catches, why the property matters for
//! group-based checkpoint/restart, a minimal firing example, and the
//! sanctioned ways out (fix first, waive with a reason second).

use crate::report::Rule;

/// One rule's documentation.
#[derive(Debug, Clone, Copy)]
pub struct RuleDoc {
    /// The rule it documents.
    pub rule: Rule,
    /// One-line summary (also usable in tables).
    pub summary: &'static str,
    /// Why the property matters for this codebase.
    pub rationale: &'static str,
    /// A minimal snippet that fires the rule.
    pub example: &'static str,
    /// How to fix it — and when a waiver is legitimate.
    pub fix: &'static str,
}

/// Documentation for every rule, in rule order.
pub const CATALOG: &[RuleDoc] = &[
    RuleDoc {
        rule: Rule::D02,
        summary: "no wall clock, OS entropy, threads, or env reads in simulation code",
        rationale: "Anything outside the simulated clock and DetRng injects host state \
                    into the run and desynchronizes replays.",
        example: "let t0 = std::time::Instant::now();",
        fix: "Use sim time (`ctx.now()`) and DetRng. `crates/bench` and `src/cli.rs` \
              are exempt (process boundary).",
    },
    RuleDoc {
        rule: Rule::D03,
        summary: "no unwrap/expect/panic!/unchecked indexing in recovery-critical modules",
        rationale: "On the restart path an injected fault must degrade into a typed \
                    `Err` the coordinator can act on — an abort kills the whole run.",
        example: "let img = images[rank];   // in crates/core/src/restart.rs",
        fix: "Use `.get()` + `ok_or(RecoveryError::…)` and `?`. Waive with \
              `// gcr-lint: allow(D03) <reason>` only for invariant-guarded sites.",
    },
    RuleDoc {
        rule: Rule::D03T,
        summary: "recovery-critical fns must not *transitively* reach a panic site",
        rationale: "D03 checks the file itself; D03-T walks the workspace call graph so \
                    a restart fn cannot reach `unwrap`/`panic!`/`v[i]` through any chain \
                    of callees in the protocol-plane crates (core, net, mpi, chaos). \
                    Calls leaving that set (sim kernel, group math, workloads) are \
                    trusted boundaries.",
        example: "restart_rank() → Storage::read() → self.local_disks[node]  // panics",
        fix: "Degrade the callee into a typed error, waive the call site with \
              `allow(D03-T) <reason>`, or certify a whole file's panic sites as \
              invariant-guarded with `// gcr-lint: trust(D03-T) <reason>` (file-scoped; \
              stale trust directives are themselves findings).",
    },
    RuleDoc {
        rule: Rule::D10,
        summary: "no nondeterministic value may *flow into* a digest, trace record, or payload",
        rationale: "D02 flags any use of a nondeterminism source; D10 is the \
                    flow-sensitive refinement: it tracks tainted values through \
                    bindings, branches and call returns, and fires only when one \
                    actually reaches the replay-checked plane — a digest fold, a \
                    metrics/trace record, or a protocol message payload. Each \
                    finding carries the source→sink witness chain.",
        example: "let t0 = Instant::now(); … digest(t0.elapsed().as_nanos() as u64)",
        fix: "Derive the value from sim time / DetRng, or keep the wall-clock \
              reading out of the digested plane (bench wall-time may be *reported*, \
              never digested). A clean reassignment kills the taint.",
    },
    RuleDoc {
        rule: Rule::E01,
        summary: "`let _ =` must not discard a protocol `Result`",
        rationale: "A `Result<_, RecoveryError|StorageError>` (or any Result produced by \
                    a protocol crate) carries injected-fault information; discarding it \
                    turns a detectable fault into silent corruption.",
        example: "let _ = storage.read(node, bytes, target).await;",
        fix: "Propagate with `?`/`map_err`, or handle the `Err` arm. Waive only for \
              deliberately-abandoned operations (e.g. torn-write injection).",
    },
    RuleDoc {
        rule: Rule::E02,
        summary: "statement-level `.ok()` must not swallow a protocol error",
        rationale: "`foo().ok();` as a statement is `let _ =` in disguise: the error \
                    value is dropped on the floor with no record.",
        example: "store.commit(gid, wave, &members).ok();",
        fix: "Propagate the error or match on it; `.ok()` is fine when the Option is \
              actually consumed.",
    },
    RuleDoc {
        rule: Rule::E03,
        summary: "`.unwrap_or_default()` must not paper over a protocol error",
        rationale: "Substituting a default for a failed protocol operation hides the \
                    fault *and* injects a plausible-looking wrong value — worse than a \
                    loud failure.",
        example: "let bytes = storage.read(n, b, t).await.unwrap_or_default();",
        fix: "Handle the error; if a default genuinely is the semantics, say why in an \
              `allow(E03)` waiver.",
    },
    RuleDoc {
        rule: Rule::P01,
        summary: "every control tag must be both sent and received",
        rationale: "The ctrl-plane protocol is a set of matched `ctrl_send`/`ctrl_recv` \
                    pairs over `tags::*`. A tag that is only ever sent (or only ever \
                    received) is a latent deadlock: some wave will block forever.",
        example: "ctx.ctrl_send(peer, tags::MARKER, …)   // and no ctrl_recv of MARKER",
        fix: "Add the missing side, or route the tag through a helper — a use outside \
              ctrl_send/ctrl_recv (e.g. `ctrl_barrier(…, tags::X)`) exempts the tag, \
              because pairing is then the helper's contract.",
    },
    RuleDoc {
        rule: Rule::P02,
        summary: "no `_ =>` wildcard over protocol enums in recovery-critical matches",
        rationale: "A wildcard arm silently absorbs protocol states added later — \
                    exactly the states (new GenState, new event kinds) most likely to \
                    need recovery handling.",
        example: "match entry.state { Some(GenState::Committed) => …, _ => {} }",
        fix: "Name every variant (`Some(GenState::Pending) | None => {}`), so adding a \
              variant is a compile-time event.",
    },
    RuleDoc {
        rule: Rule::P10,
        summary: "protocol bodies must follow their checked-in phase-machine spec",
        rationale: "Each protocol (blocking 2PC, VCL, restart, bookmark drain) is a \
                    phase machine: begin only after the drain+barrier, commit/abort \
                    only after the post-write barrier, no sends after the commit \
                    decision, every opened generation resolved, abort always \
                    reachable. P10 extracts the interprocedural ctrl-tag / storage \
                    event sequence along every path through the entry points and \
                    model-checks it against the specs in `crates/lint/src/phases.rs`. \
                    Every violation carries a witness path.",
        example: "ctx.ctrl_send(peer, tags::BOOKMARK + wave, …)  // after store.commit",
        fix: "Reorder the protocol body to match the spec — or, if the protocol \
              itself legitimately changed, update the spec table in the same PR so \
              the diff documents the new phase order.",
    },
    RuleDoc {
        rule: Rule::P20,
        summary: "every ctrl tag a protocol mode emits must have a reachable handler in that mode",
        rationale: "Each `Mode` of the protocol zoo is a *session*: the set of entry \
                    points the runtime dispatches for it (wave, restart, serve). P20 \
                    extracts, per mode, the ctrl tags emitted on any reachable path \
                    (interprocedural, with `ctrlplane.rs` helpers inlined) and the \
                    tags its dispatch side can receive. An emitted-but-unhandled tag \
                    is a peer that hangs forever; a handled-but-unemittable tag is a \
                    dead dispatch arm rotting away from the live protocol; a tag \
                    emitted under one mode but handled only under another is a \
                    cross-protocol wiring mistake chaos catches only probabilistically. \
                    Every `Mode` variant must also be bound to a live session table — \
                    that is how protocol #8 gets enrolled automatically.",
        example: "ctx.ctrl_send(peer, tags::CVC_CLOCK + wave, …)  // no reachable ctrl_recv in Cvc",
        fix: "Add the missing receive/send on the session's entry paths, delete the \
              dead arm, or — when a protocol legitimately gains/loses a tag — update \
              the session table in `crates/lint/src/session.rs` in the same PR.",
    },
    RuleDoc {
        rule: Rule::P21,
        summary: "no log-trim or floor-advertise may consume a *pending*-generation value",
        rationale: "The GC floor must derive from durably *committed* generations only: \
                    trimming a peer's log (or advertising a floor) against a pending \
                    snapshot lets a crash-before-commit strand a fallback restart with \
                    no log to replay. P21 is a taint dataflow over the hooks state \
                    machine: values read from the `pending` ledger must not reach \
                    `advertise`/`reset_floors`/`.gc(…)` sinks — promotion into the \
                    committed ledger is the one sanctioned laundering point.",
        example: "let snap = self.pending.borrow_mut().remove(&gen)…; vols.advertise(&snap.rr);",
        fix: "Push the snapshot into the committed ledger first and derive the floor \
              from the (retention-lagged) committed entry, as `on_commit` does.",
    },
    RuleDoc {
        rule: Rule::W00,
        summary: "stale or malformed waiver",
        rationale: "A waiver that waives nothing (or does not parse) is debt pretending \
                    to be documentation; the analyzer refuses to let it accumulate.",
        example: "// gcr-lint: allow(D03) …   — on a line with no D03 finding",
        fix: "Delete the waiver (or fix its spelling).",
    },
    RuleDoc {
        rule: Rule::W01,
        summary: "waiver without a justification",
        rationale: "Every `allow(...)`/`trust(...)` is a claim that a finding is safe; \
                    an unexplained claim cannot be audited.",
        example: "// gcr-lint: allow(D03)",
        fix: "Append the reason: `// gcr-lint: allow(D03) index guarded by resize above`.",
    },
];

/// The catalog entry for `rule`.
pub fn doc(rule: Rule) -> &'static RuleDoc {
    CATALOG
        .iter()
        .find(|d| d.rule == rule)
        .expect("every rule is documented")
}

/// Render one rule's explanation for the terminal.
pub fn explain(rule: Rule) -> String {
    let d = doc(rule);
    format!(
        "{id}: {summary}\n\nwhy\n  {rationale}\n\nfires on\n  {example}\n\nfix\n  {fix}\n",
        id = rule.id(),
        summary = d.summary,
        rationale = d.rationale,
        example = d.example,
        fix = d.fix,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_rule_is_documented_once_in_order() {
        assert_eq!(CATALOG.len(), Rule::ALL.len());
        for (d, &r) in CATALOG.iter().zip(Rule::ALL) {
            assert_eq!(d.rule, r, "catalog order matches Rule::ALL");
            assert!(!d.summary.is_empty() && !d.rationale.is_empty());
            assert!(!d.example.is_empty() && !d.fix.is_empty());
        }
    }

    #[test]
    fn explain_renders_the_id_and_fix() {
        let text = explain(Rule::D03T);
        assert!(text.starts_with("D03-T:"));
        assert!(text.contains("trust(D03-T)"));
    }
}
