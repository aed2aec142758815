//! Per-crate policy tiers: which rules apply to which workspace paths.
//!
//! Paths are workspace-relative with `/` separators (the walker
//! normalizes). Two tiers exist:
//!
//! * **recovery-critical** modules — code on the restart/replay path,
//!   where an injected fault must degrade into `Err`, not an abort;
//! * **exempt** surfaces — `crates/bench` (wall-clock measurement and
//!   thread fan-out are its job) and `src/cli.rs` (process boundary).

/// Protocol crates. Each crate root carries `#![forbid(dead_code)]`, so
/// no mutating entry point can sit unwired behind an `allow`; a
/// workspace test keeps the attribute in place.
pub const PROTOCOL_CRATES: &[&str] = &["core", "mpi", "group", "chaos"];

/// Modules on the recovery path (rules D03, D03-T roots, P02). The
/// executor's shard/merge module rides along: a panic in the cross-shard
/// merge would take down every group at once, so it must stay free of
/// unwrap/expect/unchecked indexing like the restart path proper.
pub const RECOVERY_CRITICAL: &[&str] = &[
    "crates/core/src/restart.rs",
    "crates/core/src/msglog.rs",
    "crates/core/src/ctrlplane.rs",
    "crates/net/src/ckptstore.rs",
    "crates/net/src/restore.rs",
    "crates/chaos/src/engine.rs",
    "crates/sim/src/executor/shard.rs",
];

/// Crates the transitive panic-reachability pass (D03-T) propagates
/// through. These hold the protocol data/control plane, where an injected
/// fault must degrade into a typed error. Calls that leave this set (into
/// the simulation kernel, group math, workload models, …) are trusted
/// boundaries: a panic there is a simulator bug caught by the chaos
/// harness, not a recoverable runtime fault. See DESIGN.md §9.
pub const D03T_SCOPE_CRATES: &[&str] = &["core", "net", "mpi", "chaos"];

/// Error types whose loss the error-flow rules (E01/E02/E03) never allow:
/// these carry recovery-path fault information.
pub const PROTOCOL_ERROR_TYPES: &[&str] = &["RecoveryError", "StorageError"];

/// The rule set in force for one file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Policy {
    /// D02: no wall-clock / OS entropy / threads / env.
    pub d02: bool,
    /// D03: no unwrap/expect/panic/unchecked indexing.
    pub d03: bool,
    /// E01/E02/E03: no discarded protocol `Result`s (workspace passes).
    pub e: bool,
}

/// The crate of a `crates/<name>/src/…` path; `None` for the root
/// package and anything outside a crate's `src/` tree.
pub(crate) fn crate_of(rel: &str) -> Option<&str> {
    let rest = rel.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// Resolve the policy for a workspace-relative path.
pub fn policy_for(rel: &str) -> Policy {
    let d02_exempt = rel.starts_with("crates/bench/") || rel == "src/cli.rs";
    Policy {
        d02: !d02_exempt,
        d03: RECOVERY_CRITICAL.contains(&rel),
        e: !d02_exempt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiers_resolve_as_documented() {
        let p = policy_for("crates/sim/src/executor.rs");
        assert!(p.d02 && !p.d03);

        // The shard/merge module is panic-free (D03): every group shares
        // one merge loop.
        let p = policy_for("crates/sim/src/executor/shard.rs");
        assert!(p.d02 && p.d03);

        let p = policy_for("crates/core/src/restart.rs");
        assert!(p.d02 && p.d03);

        // The durable checkpoint store is on the recovery path (restart
        // generation selection + validation).
        let p = policy_for("crates/net/src/ckptstore.rs");
        assert!(p.d02 && p.d03);

        // The replicated restore backend serves restart reads from peer
        // memory: replica exhaustion must degrade typed, never panic.
        let p = policy_for("crates/net/src/restore.rs");
        assert!(p.d02 && p.d03);

        let p = policy_for("crates/bench/src/sweep.rs");
        assert!(!p.d02 && !p.d03 && !p.e);

        let p = policy_for("src/cli.rs");
        assert!(!p.d02);

        let p = policy_for("src/bin/gcrsim.rs");
        assert!(p.d02);

        let p = policy_for("crates/json/src/lib.rs");
        assert!(p.d02 && !p.d03);
    }
}
