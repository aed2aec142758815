//! P20 — session tag-duality across the protocol zoo.
//!
//! Each `Mode` of the protocol zoo is a *session*: the set of entry
//! points the runtime dispatches for it (its wave body, plus the restart
//! member path and the live-peer serve path every mode shares). The
//! checked-in [`SESSIONS`] table mirrors the wave dispatch in
//! `crates/core/src/runtime.rs`; this pass extracts, per mode, the ctrl
//! tags emitted on any reachable path (reusing P10's interprocedural
//! extraction with `ctrlplane.rs` inlining) and the tags its reachable
//! receive sites can handle, then fires on three duality breaks:
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
use crate::phases;
use crate::report::{sort_dedup, Finding, Rule};
use crate::symbols::SymbolIndex;

/// One protocol mode's session: its wave entry point plus the shared
/// [`RECOVERY_ENTRIES`], as `(fn name, workspace-relative file)` pairs.
#[derive(Debug)]
pub struct SessionSpec {
    /// The `Mode` enum variant this session implements.
    pub mode: &'static str,
    /// The wave body the runtime's checkpoint daemon runs for this mode.
    pub wave: (&'static str, &'static str),
}

/// The restart-member and live-peer serve paths. Every mode recovers
/// through these two; receiver-based logging only changes the state
/// they read.
pub const RECOVERY_ENTRIES: &[(&str, &str)] = &[
    ("restart_rank_with_peers", "crates/core/src/restart.rs"),
    ("serve_peer_recovery", "crates/core/src/restart.rs"),
];

impl SessionSpec {
    /// Entry functions whose reachable ctrl traffic forms the session.
    fn entries(&self) -> impl Iterator<Item = &(&'static str, &'static str)> {
        std::iter::once(&self.wave).chain(RECOVERY_ENTRIES)
    }
}

/// The checked-in session tables, mirroring the wave dispatch in
/// `crates/core/src/runtime.rs`'s checkpoint daemon. P20 fails the build
/// when a mode's wire traffic and its table diverge.
pub const SESSIONS: &[SessionSpec] = &[
    SessionSpec {
        mode: "Blocking",
        wave: ("blocking_wave", "crates/core/src/blocking.rs"),
    },
    SessionSpec {
        mode: "Vcl",
        wave: ("vcl_wave", "crates/core/src/vcl.rs"),
    },
    SessionSpec {
        mode: "Cvc",
        wave: ("cvc_wave", "crates/core/src/cvc.rs"),
    },
    SessionSpec {
        mode: "RbLog",
        wave: ("blocking_wave", "crates/core/src/blocking.rs"),
    },
];

/// Tag → first emit/handle site `(file idx, line)`.
type Sites = BTreeMap<String, (usize, usize)>;

/// Modes whose session table is fully live (every entry resolved) in
/// this workspace. Used by the tier-1 coverage test: the live workspace
/// must keep every `Mode` variant bound.
pub fn active_modes(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<&'static str> {
    SESSIONS
        .iter()
        .filter(|s| fully_live(s, index, views))
        .map(|s| s.mode)
        .collect()
}

fn fully_live(spec: &SessionSpec, index: &SymbolIndex, views: &[(&str, &Lexed)]) -> bool {
    spec.entries()
        .all(|(name, file)| phases::find_fn(index, views, name, file).is_some())
}

/// Run the P20 session tag-duality pass.
pub fn check(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<Finding> {
    // Per mode: the tags its reachable paths emit and handle, with the
    // first witness site of each. A spec with no resolved entry is
    // inactive (synthetic fixture workspaces stay quiet).
    let sides: Vec<(&'static str, Sites, Sites)> = SESSIONS
        .iter()
        .filter_map(|spec| {
            let mut emits = Sites::new();
            let mut handles = Sites::new();
            let mut any = false;
            for (name, file) in spec.entries() {
                let Some(f) = phases::find_fn(index, views, name, file) else {
                    continue;
                };
                any = true;
                for ev in phases::flat_events(index, views, file, f) {
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

    out.extend(enrollment(index, views));
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
fn enrollment(index: &SymbolIndex, views: &[(&str, &Lexed)]) -> Vec<Finding> {
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
                .any(|s| s.mode == *v && fully_live(s, index, views));
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
