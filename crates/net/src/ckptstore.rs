//! The durable checkpoint store: a per-group, multi-generation catalog of
//! checkpoint images with **two-phase commit**.
//!
//! The paper assumes stable storage never fails: a group checkpoint either
//! completes or the run dies, and restart always loads the newest image.
//! Real checkpoint writes time out, tear, and corrupt (ReStore,
//! FTI-style multi-level C/R exist for exactly this reason). This module
//! gives the protocol a failure-aware stable-storage contract:
//!
//! * Ranks write their images under a **pending** generation
//!   ([`CkptStore::begin`] / [`CkptStore::record_image`]).
//! * The group coordinator **commits** the generation only once every
//!   member's write is acknowledged ([`CkptStore::commit`]); any missing
//!   or failed write aborts the whole generation.
//! * Restart selects the newest committed generation whose images all
//!   still validate against their content digests
//!   ([`CkptStore::select_restart`]), deterministically falling back to an
//!   older committed generation — or to the initial state — when the
//!   newest is aborted or corrupt.
//!
//! Every operation is total and panic-free: the store sits on the
//! recovery path (gcr-lint rule D03), where an injected fault must
//! degrade into an `Err` or a `None`, never an abort.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::future::Future;

use gcr_sim::{fnv1a_words, Sim, SimDuration};

/// A failure of the storage subsystem, observed by a checkpoint or
/// restart operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageError {
    /// Every remote checkpoint server is marked down; the write cannot be
    /// placed anywhere.
    AllServersDown {
        /// The client node whose write found no live server.
        node: usize,
    },
    /// A write timed out (injected fault, or the assigned server went
    /// down while the write was in flight).
    WriteTimeout {
        /// The writing node.
        node: usize,
    },
    /// A read failed (the serving server went down mid-transfer).
    ReadTimeout {
        /// The reading node.
        node: usize,
    },
    /// A write tore: only a prefix of the image reached the medium.
    TornWrite {
        /// The writing node.
        node: usize,
        /// Bytes that made it to the medium.
        written: u64,
        /// Bytes the image should have had.
        expected: u64,
    },
    /// An image failed its content-digest check at read time (bit flip on
    /// the medium).
    CorruptImage {
        /// Owning group.
        group: usize,
        /// Generation the image belongs to.
        gen: u64,
        /// The rank whose image is corrupt.
        rank: u32,
    },
    /// The retry/backoff policy exhausted its attempts.
    RetriesExhausted {
        /// The node whose operation kept failing.
        node: usize,
        /// Attempts made before giving up.
        attempts: u32,
    },
    /// An image was requested from a generation that was never committed
    /// (pending or aborted) or never existed.
    NotCommitted {
        /// Owning group.
        group: usize,
        /// The uncommitted generation.
        gen: u64,
    },
    /// A replicated backend holds fewer live copies than the configured
    /// replication factor k — the data may still be readable (from the
    /// surviving copies, or from the disk path), but one more failure
    /// could make it unrecoverable. Degradation is a typed, reportable
    /// state, never an abort.
    DegradedRedundancy {
        /// The owning group whose checkpoint data is under-replicated.
        group: usize,
        /// Live placements/copies available.
        have: usize,
        /// Placements/copies the replication factor demands.
        need: usize,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            StorageError::AllServersDown { node } => {
                write!(f, "node {node}: every remote checkpoint server is down")
            }
            StorageError::WriteTimeout { node } => {
                write!(f, "node {node}: checkpoint write timed out")
            }
            StorageError::ReadTimeout { node } => {
                write!(f, "node {node}: checkpoint read timed out")
            }
            StorageError::TornWrite {
                node,
                written,
                expected,
            } => {
                write!(
                    f,
                    "node {node}: torn write ({written} of {expected} bytes reached the medium)"
                )
            }
            StorageError::CorruptImage { group, gen, rank } => {
                write!(f, "g{group}/gen{gen}: P{rank}'s image failed its digest")
            }
            StorageError::RetriesExhausted { node, attempts } => {
                write!(
                    f,
                    "node {node}: storage retries exhausted ({attempts} attempts)"
                )
            }
            StorageError::NotCommitted { group, gen } => {
                write!(f, "g{group}/gen{gen} was never durably committed")
            }
            StorageError::DegradedRedundancy { group, have, need } => {
                write!(
                    f,
                    "g{group}: replica redundancy degraded ({have} of {need} live copies)"
                )
            }
        }
    }
}

impl std::error::Error for StorageError {}

/// Attempts every checkpoint-image and replica-push storage operation
/// makes (first try included) before it reports its last error.
const RETRY_ATTEMPTS: u32 = 3;

/// Backoff slept after the first failed attempt; it doubles after each
/// further one (50 ms, then 100 ms).
const RETRY_BASE_BACKOFF: SimDuration = SimDuration::from_millis(50);

/// The backoff slept after failed attempt number `attempt` (1-based).
fn retry_backoff(attempt: u32) -> SimDuration {
    RETRY_BASE_BACKOFF * (1u64 << (attempt - 1))
}

/// Run storage operation `op` under the deterministic, sim-clock-driven
/// retry policy: transient faults (timeouts, torn writes, a down server)
/// are retried after an exponential backoff on `sim`'s clock, and a retry
/// under server failover lands on the next live server automatically.
/// Stops at the first success or after [`RETRY_ATTEMPTS`] failures; the
/// error is the last attempt's, with the number of attempts made.
pub(crate) async fn retry<T, E, Fut: Future<Output = Result<T, E>>>(
    sim: &Sim,
    mut op: impl FnMut() -> Fut,
) -> Result<T, (E, u32)> {
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        match op().await {
            Ok(t) => return Ok(t),
            Err(e) if attempt >= RETRY_ATTEMPTS => return Err((e, attempt)),
            Err(_) => sim.sleep(retry_backoff(attempt)).await,
        }
    }
}

/// Lifecycle of one (group, generation) catalog entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenState {
    /// Writes are in flight; the generation is not restartable.
    Pending,
    /// Every member's image is durably acknowledged.
    Committed,
    /// A write failed or the group crashed mid-checkpoint; the generation
    /// must never be loaded.
    Aborted,
}

/// One rank's image inside a generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ImageRecord {
    /// Image size in bytes.
    pub bytes: u64,
    /// Content digest computed when the image was written.
    digest: u64,
    /// Digest as stored on the medium; a bit flip makes it diverge.
    stored: u64,
}

/// One image load performed by a restart, recorded for the chaos oracle
/// ("restart never loads an uncommitted or corrupt image").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadRecord {
    /// Owning group.
    pub group: usize,
    /// Generation loaded from.
    pub gen: u64,
    /// The loading rank.
    pub rank: u32,
    /// Catalog state of the generation at load time.
    pub state: GenState,
    /// Whether the image passed its digest check.
    pub valid: bool,
}

#[derive(Debug, Default)]
struct GenEntry {
    state: Option<GenState>,
    images: BTreeMap<u32, ImageRecord>,
    failed: BTreeSet<u32>,
}

/// Simulated content digest of one image (FNV-1a over its identity and
/// size — enough to detect the injected bit flips deterministically).
fn image_digest(group: usize, gen: u64, rank: u32, bytes: u64) -> u64 {
    fnv1a_words([group as u64, gen, u64::from(rank), bytes])
}

/// The per-cluster checkpoint catalog. Cheap interior mutability; shared
/// by every rank's protocol daemon and the recovery coordinator.
#[derive(Debug, Default)]
pub struct CkptStore {
    catalog: RefCell<BTreeMap<(usize, u64), GenEntry>>,
    loads: RefCell<Vec<LoadRecord>>,
}

impl CkptStore {
    /// Empty store.
    pub fn new() -> Self {
        CkptStore::default()
    }

    /// Open generation `gen` for `group` as pending. Idempotent: every
    /// member calls it at wave start; the first call creates the entry.
    /// A generation that was already decided keeps its decision.
    pub fn begin(&self, group: usize, gen: u64) {
        let mut cat = self.catalog.borrow_mut();
        let entry = cat.entry((group, gen)).or_default();
        if entry.state.is_none() {
            entry.state = Some(GenState::Pending);
        }
    }

    /// Record `rank`'s successfully acknowledged image write.
    pub fn record_image(&self, group: usize, gen: u64, rank: u32, bytes: u64) {
        let mut cat = self.catalog.borrow_mut();
        let entry = cat.entry((group, gen)).or_default();
        if entry.state.is_none() {
            entry.state = Some(GenState::Pending);
        }
        let d = image_digest(group, gen, rank, bytes);
        entry.images.insert(
            rank,
            ImageRecord {
                bytes,
                digest: d,
                stored: d,
            },
        );
        entry.failed.remove(&rank);
    }

    /// Record that `rank`'s image write failed. The generation can no
    /// longer commit.
    pub fn record_failure(&self, group: usize, gen: u64, rank: u32) {
        let mut cat = self.catalog.borrow_mut();
        let entry = cat.entry((group, gen)).or_default();
        if entry.state.is_none() {
            entry.state = Some(GenState::Pending);
        }
        entry.failed.insert(rank);
    }

    /// The catalog state of `(group, gen)`, if the generation exists.
    pub fn state(&self, group: usize, gen: u64) -> Option<GenState> {
        self.catalog
            .borrow()
            .get(&(group, gen))
            .and_then(|e| e.state)
    }

    /// The coordinator's commit decision: commit iff every member's image
    /// is acknowledged and none failed. Returns `true` when the
    /// generation ends up committed; on any missing or failed member it
    /// is aborted instead and `false` is returned. Idempotent on an
    /// already-decided generation.
    pub fn commit(&self, group: usize, gen: u64, members: &[u32]) -> bool {
        let mut cat = self.catalog.borrow_mut();
        let entry = cat.entry((group, gen)).or_default();
        match entry.state {
            Some(GenState::Committed) => return true,
            Some(GenState::Aborted) => return false,
            Some(GenState::Pending) | None => {}
        }
        let complete =
            entry.failed.is_empty() && members.iter().all(|m| entry.images.contains_key(m));
        entry.state = Some(if complete {
            GenState::Committed
        } else {
            GenState::Aborted
        });
        complete
    }

    /// Abort a pending generation (crash before the commit record hit the
    /// catalog). No-op on an already-committed generation.
    pub fn abort(&self, group: usize, gen: u64) {
        let mut cat = self.catalog.borrow_mut();
        let entry = cat.entry((group, gen)).or_default();
        if entry.state != Some(GenState::Committed) {
            entry.state = Some(GenState::Aborted);
        }
    }

    /// Whether the store holds any generation (whatever its state) for
    /// `group`.
    pub fn has_any(&self, group: usize) -> bool {
        self.catalog
            .borrow()
            .range((group, 0)..=(group, u64::MAX))
            .next()
            .is_some()
    }

    /// The newest generation ever begun for `group`, whatever its state.
    /// Compared against the selected restart generation to detect
    /// fallback.
    pub fn newest_attempted(&self, group: usize) -> Option<u64> {
        self.catalog
            .borrow()
            .range((group, 0)..=(group, u64::MAX))
            .next_back()
            .map(|(&(_, g), _)| g)
    }

    /// Committed generations of `group`, oldest first.
    pub fn committed_gens(&self, group: usize) -> Vec<u64> {
        self.catalog
            .borrow()
            .range((group, 0)..=(group, u64::MAX))
            .filter(|(_, e)| e.state == Some(GenState::Committed))
            .map(|(&(_, g), _)| g)
            .collect()
    }

    /// The newest committed generation of `group`.
    pub fn newest_committed(&self, group: usize) -> Option<u64> {
        self.committed_gens(group).pop()
    }

    /// Validate `rank`'s image in `(group, gen)`: the generation must be
    /// committed and the stored digest must match the content digest.
    ///
    /// # Errors
    /// [`StorageError::NotCommitted`] for a missing / pending / aborted
    /// generation, [`StorageError::CorruptImage`] on a digest mismatch.
    pub fn validate(&self, group: usize, gen: u64, rank: u32) -> Result<u64, StorageError> {
        let cat = self.catalog.borrow();
        let entry = cat
            .get(&(group, gen))
            .filter(|e| e.state == Some(GenState::Committed))
            .ok_or(StorageError::NotCommitted { group, gen })?;
        let img = entry
            .images
            .get(&rank)
            .ok_or(StorageError::CorruptImage { group, gen, rank })?;
        if img.stored != img.digest {
            return Err(StorageError::CorruptImage { group, gen, rank });
        }
        Ok(img.bytes)
    }

    /// Select the generation a group restart loads: the newest committed
    /// generation, within the `window` newest committed ones, whose
    /// images validate for **every** member (the whole group must restart
    /// from one consistent cut). `None` means no usable generation
    /// exists — the group deterministically restarts from its initial
    /// state.
    pub fn select_restart(&self, group: usize, members: &[u32], window: usize) -> Option<u64> {
        let gens = self.committed_gens(group);
        gens.iter()
            .rev()
            .take(window.max(1))
            .find(|&&g| members.iter().all(|&m| self.validate(group, g, m).is_ok()))
            .copied()
    }

    /// Flip the stored digest of `rank`'s image in `(group, gen)` —
    /// fault injection. Returns whether an image was there to corrupt.
    pub fn corrupt(&self, group: usize, gen: u64, rank: u32) -> bool {
        let mut cat = self.catalog.borrow_mut();
        match cat
            .get_mut(&(group, gen))
            .and_then(|e| e.images.get_mut(&rank))
        {
            Some(img) => {
                img.stored ^= 0x1;
                true
            }
            None => false,
        }
    }

    /// Corrupt one image (the lowest member rank's) of the newest
    /// committed generation of `group`. Returns the generation hit, if
    /// any.
    pub fn corrupt_newest_committed(&self, group: usize) -> Option<u64> {
        let gen = self.newest_committed(group)?;
        let rank = {
            let cat = self.catalog.borrow();
            cat.get(&(group, gen))
                .and_then(|e| e.images.keys().next().copied())
        }?;
        self.corrupt(group, gen, rank).then_some(gen)
    }

    /// Record an image load performed by a restart (for the chaos oracle:
    /// loads must only ever hit committed, valid images).
    pub fn record_load(&self, group: usize, gen: u64, rank: u32) {
        let state = self.state(group, gen).unwrap_or(GenState::Aborted);
        let valid = self.validate(group, gen, rank).is_ok();
        self.loads.borrow_mut().push(LoadRecord {
            group,
            gen,
            rank,
            state,
            valid,
        });
    }

    /// Every image load recorded so far, in load order.
    pub fn loads(&self) -> Vec<LoadRecord> {
        self.loads.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn image_digest_value_is_pinned() {
        assert_eq!(image_digest(1, 2, 3, 4), 0x898f_7e1c_e696_4921);
    }

    #[test]
    fn two_phase_commit_requires_every_member() {
        let store = CkptStore::new();
        store.begin(0, 0);
        store.record_image(0, 0, 0, 100);
        store.record_image(0, 0, 1, 100);
        assert_eq!(store.state(0, 0), Some(GenState::Pending));
        assert!(store.commit(0, 0, &[0, 1]));
        assert_eq!(store.state(0, 0), Some(GenState::Committed));
        assert_eq!(store.newest_committed(0), Some(0));

        // Next generation: one member's write is missing → abort.
        store.begin(0, 1);
        store.record_image(0, 1, 0, 100);
        assert!(!store.commit(0, 1, &[0, 1]));
        assert_eq!(store.state(0, 1), Some(GenState::Aborted));
        assert_eq!(store.newest_committed(0), Some(0));
    }

    #[test]
    fn a_recorded_failure_aborts_the_generation() {
        let store = CkptStore::new();
        store.begin(2, 5);
        store.record_image(2, 5, 4, 64);
        store.record_image(2, 5, 5, 64);
        store.record_failure(2, 5, 5);
        assert!(!store.commit(2, 5, &[4, 5]));
        assert_eq!(store.state(2, 5), Some(GenState::Aborted));
    }

    #[test]
    fn commit_is_idempotent_and_abort_cannot_undo_it() {
        let store = CkptStore::new();
        store.record_image(1, 0, 2, 10);
        assert!(store.commit(1, 0, &[2]));
        assert!(store.commit(1, 0, &[2]));
        store.abort(1, 0);
        assert_eq!(store.state(1, 0), Some(GenState::Committed));
    }

    #[test]
    fn validate_rejects_uncommitted_and_corrupt() {
        let store = CkptStore::new();
        store.begin(0, 0);
        store.record_image(0, 0, 0, 77);
        assert_eq!(
            store.validate(0, 0, 0),
            Err(StorageError::NotCommitted { group: 0, gen: 0 })
        );
        assert!(store.commit(0, 0, &[0]));
        assert_eq!(store.validate(0, 0, 0), Ok(77));
        assert!(store.corrupt(0, 0, 0));
        assert_eq!(
            store.validate(0, 0, 0),
            Err(StorageError::CorruptImage {
                group: 0,
                gen: 0,
                rank: 0
            })
        );
    }

    #[test]
    fn select_restart_falls_back_past_aborted_and_corrupt() {
        let store = CkptStore::new();
        let members = [0u32, 1];
        for gen in 0..3 {
            for &m in &members {
                store.record_image(0, gen, m, 100);
            }
            assert!(store.commit(0, gen, &members));
        }
        // gen 3 aborts (torn write), gen 2's image corrupts on the medium.
        store.record_image(0, 3, 0, 100);
        store.record_failure(0, 3, 1);
        assert!(!store.commit(0, 3, &members));
        assert_eq!(store.corrupt_newest_committed(0), Some(2));

        // Fallback: newest committed-and-valid within the window is gen 1.
        assert_eq!(store.select_restart(0, &members, 2), Some(1));
        // A window of 1 only sees the corrupt gen 2 → nothing usable.
        assert_eq!(store.select_restart(0, &members, 1), None);
        assert!(store.has_any(0));
        assert!(!store.has_any(9));
    }

    #[test]
    fn loads_are_recorded_with_state_and_validity() {
        let store = CkptStore::new();
        store.record_image(0, 0, 0, 10);
        store.record_load(0, 0, 0); // load before commit: invalid
        assert!(store.commit(0, 0, &[0]));
        store.record_load(0, 0, 0);
        let loads = store.loads();
        assert_eq!(loads.len(), 2);
        assert!(!loads[0].valid);
        assert_eq!(loads[0].state, GenState::Pending);
        assert!(loads[1].valid);
        assert_eq!(loads[1].state, GenState::Committed);
    }

    #[test]
    fn retry_policy_backoff_is_exponential() {
        assert_eq!(retry_backoff(1), SimDuration::from_millis(50));
        assert_eq!(retry_backoff(2), SimDuration::from_millis(100));
        assert_eq!(retry_backoff(3), SimDuration::from_millis(200));
    }
}
