//! P20 — session tag-duality across the protocol zoo.
//!
//! Each `Mode` of the protocol zoo is a *session*: the set of entry
//! points the runtime dispatches for it (its wave body, plus the restart
//! member path and the live-peer serve path every mode shares). The
//! checked-in [`SESSIONS`] table mirrors the wave dispatch in
//! `crates/core/src/runtime.rs` and names each entry by its P10 spec;
//! this pass reads, per mode, the ctrl tags emitted on any reachable path
//! (from the event trees P10 already extracted, with `ctrlplane.rs`
//! inlining) and the tags its reachable receive sites can handle, then
//! fires on three duality breaks:
//!
//! * **emitted-but-unhandled** — a `ctrl_send` whose tag no reachable
//!   `ctrl_recv` in the same session matches: the rendezvous blocks the
//!   wave forever;
//! * **handled-but-unemittable** — a `ctrl_recv` arm no session path can
//!   ever deliver: a dead dispatch arm rotting away from the protocol;
//! * **mode-mismatched** — the missing half exists, but only under a
//!   *different* mode: a cross-protocol wiring mistake chaos catches
//!   only probabilistically.
//!
//! `ctrl_barrier` counts as both emit and handle — pairing is the
//! helper's contract (consistent with P01).
//!
//! Enrollment is closed-loop: every variant of the `Mode` enum in
//! `crates/core` must be bound to a fully-live session table, so adding
//! protocol #8 without registering its session here is itself a finding.

use std::collections::BTreeMap;

use crate::lexer::{in_spans, Lexed};
use crate::phases::{self, Extracted};
use crate::report::{sort_dedup, Finding, Rule};
use crate::symbols::SymbolIndex;

/// One protocol mode's session: its wave plus the shared
/// [`RECOVERY_ENTRIES`], each named by its P10 spec's `protocol`, so
/// P20 reads the trees P10 already extracted.
#[derive(Debug)]
pub struct SessionSpec {
    /// The `Mode` enum variant this session implements.
    pub mode: &'static str,
    /// The P10 spec of the wave body the runtime's checkpoint daemon runs
    /// for this mode.
    pub wave: &'static str,
}

/// The P10 specs of the restart-member and live-peer serve paths. Every
/// mode recovers through these two; receiver-based logging only changes
/// the state they read.
pub const RECOVERY_ENTRIES: &[&str] = &["restart", "restart-serve"];

impl SessionSpec {
    /// P10 specs whose reachable ctrl traffic forms the session.
    fn entries(&self) -> impl Iterator<Item = &'static str> {
        std::iter::once(self.wave).chain(RECOVERY_ENTRIES.iter().copied())
    }

    /// Whether every entry's spec is active (one of `active`).
    fn fully_live(&self, active: &[&str]) -> bool {
        self.entries().all(|e| active.contains(&e))
    }
}

/// The checked-in session tables, mirroring the wave dispatch in
/// `crates/core/src/runtime.rs`'s checkpoint daemon. P20 fails the build
/// when a mode's wire traffic and its table diverge.
pub const SESSIONS: &[SessionSpec] = &[
    SessionSpec {
        mode: "Blocking",
        wave: "blocking-2pc",
    },
    SessionSpec {
        mode: "Vcl",
        wave: "vcl",
    },
    SessionSpec {
        mode: "Cvc",
        wave: "cvc",
    },
    SessionSpec {
        mode: "RbLog",
        wave: "blocking-2pc",
    },
];

/// Tag → first emit/handle site `(file idx, line)`.
type Sites = BTreeMap<String, (usize, usize)>;

/// Modes whose session table is fully live (every entry's P10 spec
/// active) in this workspace. Used by the tier-1 coverage test: the live
/// workspace must keep every `Mode` variant bound.
pub fn active_modes(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<&'static str> {
    let active = phases::active_specs(index, views);
    SESSIONS
        .iter()
        .filter(|s| s.fully_live(&active))
        .map(|s| s.mode)
        .collect()
}

/// Run the P20 session tag-duality pass over the trees P10 extracted.
pub fn check(
    extracted: &[Extracted],
    index: &SymbolIndex,
    views: &[(&str, &Lexed)],
) -> Vec<Finding> {
    let active: Vec<&str> = extracted.iter().map(|x| x.spec.protocol).collect();
    // Per mode: the tags its reachable paths emit and handle, with the
    // first witness site of each. A session with no active entry is
    // inactive (synthetic fixture workspaces stay quiet).
    let sides: Vec<(&'static str, Sites, Sites)> = SESSIONS
        .iter()
        .filter_map(|spec| {
            let mut emits = Sites::new();
            let mut handles = Sites::new();
            let mut any = false;
            for entry in spec.entries() {
                let Some(x) = extracted.iter().find(|x| x.spec.protocol == entry) else {
                    continue;
                };
                any = true;
                for ev in x.events() {
                    let site = (ev.file, ev.line);
                    if let Some(tag) = ev.name.strip_prefix("send:") {
                        emits.entry(tag.to_string()).or_insert(site);
                    } else if let Some(tag) = ev.name.strip_prefix("recv:") {
                        handles.entry(tag.to_string()).or_insert(site);
                    } else if let Some(tag) = ev.name.strip_prefix("barrier:") {
                        // Pairing is ctrl_barrier's contract: both sides.
                        emits.entry(tag.to_string()).or_insert(site);
                        handles.entry(tag.to_string()).or_insert(site);
                    }
                }
            }
            any.then_some((spec.mode, emits, handles))
        })
        .collect();

    let mut out = Vec::new();
    for (mode, emits, handles) in &sides {
        for (tag, &(fi, line)) in emits {
            if handles.contains_key(tag) {
                continue;
            }
            let elsewhere = modes_with(&sides, tag, |(_, _, h)| h, mode);
            let message = if elsewhere.is_empty() {
                format!(
                    "ctrl tag `{tag}` is emitted under mode `{mode}` but no \
                     reachable path of that session can receive it — the \
                     rendezvous blocks the wave forever",
                )
            } else {
                format!(
                    "ctrl tag `{tag}` is emitted under mode `{mode}` but \
                     handled only under [{}] — a mode-mismatched tag never \
                     meets its handler at runtime",
                    elsewhere.join(", "),
                )
            };
            out.push(Finding::new(
                views[fi].0,
                views[fi].1,
                line,
                Rule::P20,
                message,
            ));
        }
        for (tag, &(fi, line)) in handles {
            if emits.contains_key(tag) {
                continue;
            }
            let elsewhere = modes_with(&sides, tag, |(_, e, _)| e, mode);
            let message = if elsewhere.is_empty() {
                format!(
                    "ctrl tag `{tag}` is handled under mode `{mode}` but no \
                     session can ever emit it — a dead dispatch arm, drifting \
                     from the live protocol unnoticed",
                )
            } else {
                format!(
                    "ctrl tag `{tag}` is handled under mode `{mode}` but \
                     emitted only under [{}] — a mode-mismatched handler \
                     never fires at runtime",
                    elsewhere.join(", "),
                )
            };
            out.push(Finding::new(
                views[fi].0,
                views[fi].1,
                line,
                Rule::P20,
                message,
            ));
        }
    }

    out.extend(enrollment(&active, index, views));
    sort_dedup(&mut out);
    out
}

/// Other modes whose `side` (emits or handles) contains `tag`.
fn modes_with<'a>(
    sides: &'a [(&'static str, Sites, Sites)],
    tag: &str,
    side: impl Fn(&'a (&'static str, Sites, Sites)) -> &'a Sites,
    except: &str,
) -> Vec<&'static str> {
    sides
        .iter()
        .filter(|entry| entry.0 != except && side(entry).contains_key(tag))
        .map(|entry| entry.0)
        .collect()
}

/// Every `Mode` variant in the core crate must be bound to a fully-live
/// session table — protocol #8 enrolls itself by failing this check.
fn enrollment(active: &[&str], index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<Finding> {
    let mut out = Vec::new();
    for e in &index.enums {
        if e.name != "Mode" || e.krate != "core" {
            continue;
        }
        let Some((fi, line)) = mode_enum_site(views) else {
            continue;
        };
        for v in &e.variants {
            let bound = SESSIONS
                .iter()
                .any(|s| s.mode == *v && s.fully_live(active));
            if !bound {
                out.push(Finding::new(
                    views[fi].0,
                    views[fi].1,
                    line,
                    Rule::P20,
                    format!(
                        "protocol mode `{v}` has no live P20 session table — \
                         register its wave/restart/serve entries in \
                         crates/lint/src/session.rs so tag duality is checked \
                         for it",
                    ),
                ));
            }
        }
    }
    out
}

/// The definition site of `enum Mode` in the core crate.
fn mode_enum_site(views: &[(&str, &Lexed)]) -> Option<(usize, usize)> {
    for (fi, (rel, lx)) in views.iter().enumerate() {
        if !rel.starts_with("crates/core/") {
            continue;
        }
        for (i, t) in lx.toks.iter().enumerate() {
            if t.text == "enum"
                && !in_spans(&lx.tests, t.line)
                && lx.toks.get(i + 1).is_some_and(|n| n.text == "Mode")
            {
                return Some((fi, t.line));
            }
        }
    }
    None
}
