//! ReStore-style replicated in-memory checkpoint backend.
//!
//! Checkpoint images are still written to the configured disk target
//! (the catalog's durability story is unchanged), but during the wave's
//! post-write phase each rank's image block is *also* pushed over the
//! interconnect to `k` replica holders in peer memory. The placement
//! function [`place_replicas`] is deterministic and never co-locates a
//! replica with the owner's group, so a whole-group failure — the unit
//! of failure this simulator models — leaves every one of the group's
//! own image blocks alive in `k` other groups. Any schedule with at
//! most `k − 1` concurrent group failures therefore keeps every
//! committed generation fully reconstructible from peer memory, and
//! restart reads run at network speed instead of disk speed (ReStore,
//! arXiv 2203.01107).
//!
//! Replica copies are staged when pushed and only become servable when
//! the coordinator's 2PC commit decision is broadcast
//! ([`CkptBackend::on_commit`] → [`ReplicaTable::commit_visible_gen`]),
//! mirroring the catalog's pending → committed transition. When a
//! holder dies (a `replica:` chaos event, or a group crash taking its
//! held blocks with it), redundancy is degraded, not lost: the
//! [`RestoreBackend::rebuild`] pass re-pushes every under-replicated
//! block from a surviving copy with `write_with_retry`-style bounded
//! deterministic backoff, and shortfalls surface as the typed
//! [`StorageError::DegradedRedundancy`] — never a panic, never an
//! abort. Topologies with fewer than `k + 1` groups cannot satisfy the
//! placement at all; they degrade the same way and every read falls
//! back to the disk path.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

use gcr_sim::future::join_all;
use gcr_sim::{fnv1a_words, Sim};

use crate::backend::{CkptBackend, ImageFuture, ImageOp};
use crate::ckptstore::{retry, CkptStore, StorageError};
use crate::cluster::Cluster;
use crate::network::Network;
use crate::storage::{Storage, StorageTarget};

/// Deterministic k-replica placement for one rank's checkpoint block.
///
/// `group_of` maps every rank to its group id. The `k` holders are
/// drawn from `k` *distinct* groups, none of which is the owner's: the
/// candidate groups are taken in sorted-id order, rotated by a hash of
/// the owner's group plus the owner's position *within* that group, and
/// within each chosen group the member index is likewise shifted by the
/// owner's position. The position shift is load-bearing for recovery
/// latency: co-members of one group land their blocks on *distinct*
/// holders (groups and members both round-robin), so a whole-group
/// restart fans its peer reads across disjoint uplinks instead of
/// serializing on one hot holder. Same inputs, same holders —
/// bit-identical across runs.
///
/// # Errors
/// [`StorageError::DegradedRedundancy`] when fewer than `k` non-owner
/// groups exist (e.g. the NORM topology's single group): the block
/// cannot reach the replication factor by construction.
pub fn place_replicas(group_of: &[usize], owner: u32, k: usize) -> Result<Vec<u32>, StorageError> {
    let owner_group = group_of.get(owner as usize).copied().unwrap_or(usize::MAX);
    let mut members: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
    for (rank, &g) in group_of.iter().enumerate() {
        if g != owner_group {
            members.entry(g).or_default().push(rank as u32);
        }
    }
    let groups: Vec<(usize, Vec<u32>)> = members.into_iter().collect();
    if groups.len() < k || k == 0 {
        return Err(StorageError::DegradedRedundancy {
            group: if owner_group == usize::MAX {
                0
            } else {
                owner_group
            },
            have: groups.len(),
            need: k,
        });
    }
    // The owner's position among its own group's members (ascending
    // rank order): co-members get consecutive positions, which the
    // rotations below turn into disjoint holder assignments.
    let owner_pos = group_of
        .iter()
        .enumerate()
        .filter(|&(r, &g)| g == owner_group && (r as u32) < owner)
        .count();
    let start = (fnv1a_words([owner_group as u64]) as usize)
        .wrapping_add(owner_pos)
        .checked_rem(groups.len())
        .unwrap_or(0);
    let mut holders = Vec::with_capacity(k);
    for slot in 0..k {
        if let Some((_, ranks)) = groups.get((start + slot) % groups.len()) {
            if !ranks.is_empty() {
                let pick = (fnv1a_words([owner_group as u64, slot as u64]) as usize)
                    .wrapping_add(owner_pos)
                    .checked_rem(ranks.len())
                    .unwrap_or(0);
                if let Some(&holder) = ranks.get(pick) {
                    holders.push(holder);
                }
            }
        }
    }
    Ok(holders)
}

/// Bit-stable digest over the full placement of a cluster shape: every
/// rank's holder list (or its degraded marker) folded through FNV-1a.
/// Two runs agree on placement iff their digests agree.
pub fn placement_digest(group_of: &[usize], k: usize) -> u64 {
    let mut words = Vec::new();
    for rank in 0..group_of.len() as u32 {
        words.push(u64::from(rank));
        match place_replicas(group_of, rank, k) {
            Ok(holders) => {
                for h in holders {
                    words.push(u64::from(h));
                }
            }
            Err(_) => words.push(u64::MAX),
        }
    }
    fnv1a_words(words)
}

/// One replicated checkpoint block's bookkeeping.
#[derive(Debug, Clone, Default)]
struct Block {
    /// Image size in bytes (what a rebuild push must move).
    bytes: u64,
    /// Live, servable copies (holder node ids).
    holders: Vec<u32>,
    /// Copies pushed but not yet commit-visible.
    staged: Vec<u32>,
    /// Whether the owning generation's commit decision made this block
    /// servable for restart reads.
    visible: bool,
}

/// In-memory replica catalog: `(group, gen, rank) → block`.
///
/// All mutation goes through checked map lookups; a missing block is a
/// degraded answer, never a panic.
#[derive(Debug, Default)]
pub struct ReplicaTable {
    blocks: RefCell<BTreeMap<(usize, u64, u32), Block>>,
}

impl ReplicaTable {
    /// Stage one copy of `(group, gen, rank)`'s block on `holder`. The
    /// copy serves reads only after the generation commits (initial
    /// push) or the rebuild pass publishes it ([`ReplicaTable::commit_visible`]).
    pub fn push_block(&self, group: usize, gen: u64, rank: u32, bytes: u64, holder: u32) {
        let mut blocks = self.blocks.borrow_mut();
        let block = blocks.entry((group, gen, rank)).or_default();
        block.bytes = bytes;
        if !block.holders.contains(&holder) && !block.staged.contains(&holder) {
            block.staged.push(holder);
        }
    }

    /// Count the copies (live + staged) of one block and check them
    /// against the replication factor `need`.
    ///
    /// # Errors
    /// [`StorageError::DegradedRedundancy`] when fewer than `need`
    /// copies exist; `have` carries the surviving count (possibly 0).
    pub fn ack_quorum(
        &self,
        group: usize,
        gen: u64,
        rank: u32,
        need: usize,
    ) -> Result<usize, StorageError> {
        let blocks = self.blocks.borrow();
        let have = blocks
            .get(&(group, gen, rank))
            .map(|b| b.holders.len() + b.staged.len())
            .unwrap_or(0);
        if have < need {
            Err(StorageError::DegradedRedundancy { group, have, need })
        } else {
            Ok(have)
        }
    }

    /// Commit broadcast for `(group, gen)`: staged copies become live
    /// and the generation's blocks become servable.
    pub fn commit_visible_gen(&self, group: usize, gen: u64) {
        let mut blocks = self.blocks.borrow_mut();
        for (&(g, wave, _), block) in blocks.iter_mut() {
            if g == group && wave == gen {
                let staged = std::mem::take(&mut block.staged);
                for h in staged {
                    if !block.holders.contains(&h) {
                        block.holders.push(h);
                    }
                }
                block.visible = true;
            }
        }
    }

    /// Rebuild publish: staged copies of already-visible blocks become
    /// live in one atomic pass (staged → holders).
    pub fn commit_visible(&self) {
        let mut blocks = self.blocks.borrow_mut();
        for block in blocks.values_mut() {
            if block.visible {
                let staged = std::mem::take(&mut block.staged);
                for h in staged {
                    if !block.holders.contains(&h) {
                        block.holders.push(h);
                    }
                }
            }
        }
    }

    /// Abort for `(group, gen)`: staged copies are discarded.
    pub fn discard_staged(&self, group: usize, gen: u64) {
        let mut blocks = self.blocks.borrow_mut();
        blocks.retain(|&(g, wave, _), block| {
            if g == group && wave == gen && !block.visible {
                block.staged.clear();
                !block.holders.is_empty()
            } else {
                true
            }
        });
    }

    /// A holder died: drop every copy (live or staged) it held. Returns
    /// how many *visible* blocks lost a copy.
    pub fn drop_holder(&self, node: u32) -> usize {
        let mut blocks = self.blocks.borrow_mut();
        let mut touched = 0;
        for block in blocks.values_mut() {
            let before = block.holders.len();
            block.holders.retain(|&h| h != node);
            block.staged.retain(|&h| h != node);
            if block.visible && block.holders.len() < before {
                touched += 1;
            }
        }
        touched
    }

    /// Forget one block entirely. The rebuild pass purges blocks with
    /// zero surviving copies after recording the loss: the disk image is
    /// the only remaining source, and keeping the dead entry around
    /// would re-report the same loss on every later pass.
    pub fn purge(&self, group: usize, gen: u64, rank: u32) {
        self.blocks.borrow_mut().remove(&(group, gen, rank));
    }

    /// Live holders of one servable block (empty when the block is
    /// unknown, not yet visible, or all copies died).
    pub fn holders(&self, group: usize, gen: u64, rank: u32) -> Vec<u32> {
        let blocks = self.blocks.borrow();
        blocks
            .get(&(group, gen, rank))
            .filter(|b| b.visible)
            .map(|b| b.holders.clone())
            .unwrap_or_default()
    }

    /// Visible blocks holding fewer than `k` live copies, with their
    /// size and surviving holders — the rebuild pass's worklist.
    pub fn degraded_blocks(&self, k: usize) -> Vec<DegradedBlock> {
        let blocks = self.blocks.borrow();
        blocks
            .iter()
            .filter(|(_, b)| b.visible && b.holders.len() < k)
            .map(|(&(group, gen, rank), b)| DegradedBlock {
                group,
                gen,
                rank,
                bytes: b.bytes,
                holders: b.holders.clone(),
            })
            .collect()
    }

    /// Whether any servable block of `(group, gen)` holds fewer than
    /// `k` live copies — the commit hook's trigger for an opportunistic
    /// re-replication pass (a copy may have died while the generation
    /// was still pending, where the rebuild scan cannot see it).
    pub fn under_replicated_in_gen(&self, group: usize, gen: u64, k: usize) -> bool {
        let blocks = self.blocks.borrow();
        blocks
            .iter()
            .any(|(&(g, wave, _), b)| g == group && wave == gen && b.visible && b.holders.len() < k)
    }

    /// Whether every rank in `members` has at least one live copy of
    /// its `(group, gen)` block — i.e. the generation is fully
    /// reconstructible from peer memory.
    pub fn reconstructible(&self, group: usize, gen: u64, members: &[u32]) -> bool {
        let blocks = self.blocks.borrow();
        members.iter().all(|&rank| {
            blocks
                .get(&(group, gen, rank))
                .is_some_and(|b| b.visible && !b.holders.is_empty())
        })
    }

    /// Total tracked blocks (diagnostics).
    pub fn len(&self) -> usize {
        self.blocks.borrow().len()
    }

    /// Whether the table tracks no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.borrow().is_empty()
    }
}

/// One under-replicated servable block: a [`ReplicaTable::degraded_blocks`]
/// worklist entry for the rebuild pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegradedBlock {
    /// Owning group of the image block.
    pub group: usize,
    /// Committed generation (wave number) the block belongs to.
    pub gen: u64,
    /// Owning rank within the group.
    pub rank: u32,
    /// Image block size in bytes.
    pub bytes: u64,
    /// Surviving live holders (may be empty: only the disk copy remains).
    pub holders: Vec<u32>,
}

/// Outcome of one [`RestoreBackend::rebuild`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RebuildStats {
    /// Under-replicated blocks the pass examined.
    pub scanned: usize,
    /// Replica copies successfully re-pushed.
    pub repushed: usize,
    /// Blocks back at the full replication factor.
    pub restored: usize,
    /// Blocks still below the replication factor after the pass.
    pub degraded: usize,
    /// Blocks with zero surviving copies (only the disk image remains).
    pub lost: usize,
    /// Blocks skipped because a push endpoint is currently down — left
    /// for the post-recovery pass, not a redundancy failure.
    pub deferred: usize,
}

/// The replicated in-memory checkpoint backend.
///
/// Writes still hit the configured disk target (catalog durability is
/// unchanged); the post-write phase additionally pushes each block to
/// its [`place_replicas`] holders, and restart reads are served from
/// the nearest surviving replica over the interconnect, falling back to
/// the disk path — with a recorded [`StorageError::DegradedRedundancy`]
/// — only when no replica survives.
pub struct RestoreBackend {
    sim: Sim,
    network: Rc<Network>,
    storage: Rc<Storage>,
    store: Rc<CkptStore>,
    group_of: Vec<usize>,
    k: usize,
    replicas: ReplicaTable,
    /// Armed rebuild-push faults: each failing push consumes one.
    rebuild_faults: Cell<u32>,
    peer_reads: Cell<u64>,
    fallback_reads: Cell<u64>,
    remote_fallback_reads: Cell<u64>,
    degraded: RefCell<Vec<StorageError>>,
    /// Ranks whose nodes are currently down (a group mid-recovery):
    /// rebuild defers pushes touching them instead of recording a
    /// degradation the post-recovery pass will heal anyway.
    down: RefCell<BTreeSet<u32>>,
    /// Back-reference for the commit hook's spawned rebuild task.
    weak_self: RefCell<std::rc::Weak<RestoreBackend>>,
}

impl RestoreBackend {
    /// Build a restore backend over the cluster's models and install it
    /// as the cluster's active backend. `group_of` maps each rank to
    /// its group; `k` is the replication factor.
    pub fn install(cluster: &Cluster, group_of: Vec<usize>, k: usize) -> Rc<RestoreBackend> {
        let backend = Rc::new(RestoreBackend {
            sim: cluster.sim().clone(),
            network: Rc::clone(cluster.network()),
            storage: Rc::clone(cluster.storage()),
            store: Rc::clone(cluster.ckpt_store()),
            group_of,
            k: k.max(1),
            replicas: ReplicaTable::default(),
            rebuild_faults: Cell::new(0),
            peer_reads: Cell::new(0),
            fallback_reads: Cell::new(0),
            remote_fallback_reads: Cell::new(0),
            degraded: RefCell::new(Vec::new()),
            down: RefCell::new(BTreeSet::new()),
            weak_self: RefCell::new(std::rc::Weak::new()),
        });
        *backend.weak_self.borrow_mut() = Rc::downgrade(&backend);
        cluster.install_backend(backend.clone());
        backend
    }

    /// The configured replication factor.
    pub fn replication(&self) -> usize {
        self.k
    }

    /// The replica catalog (oracles inspect it directly).
    pub fn replicas(&self) -> &ReplicaTable {
        &self.replicas
    }

    /// Restart reads served from peer memory so far.
    pub fn peer_reads(&self) -> u64 {
        self.peer_reads.get()
    }

    /// Restart reads that fell back to the disk path.
    pub fn fallback_reads(&self) -> u64 {
        self.fallback_reads.get()
    }

    /// Committed-generation restart reads that reached the *remote*
    /// servers — the survivability oracle demands zero of these unless
    /// a degraded-redundancy event was recorded.
    pub fn remote_fallback_reads(&self) -> u64 {
        self.remote_fallback_reads.get()
    }

    /// Degraded-redundancy events recorded so far (write-time placement
    /// shortfalls, read-time replica exhaustion, rebuild shortfalls).
    pub fn degraded_events(&self) -> Vec<StorageError> {
        self.degraded.borrow().clone()
    }

    /// Arm `count` rebuild-push faults: the next `count` replica pushes
    /// issued by [`RestoreBackend::rebuild`] fail with a
    /// [`StorageError::WriteTimeout`] (then retry under backoff).
    pub fn inject_rebuild_faults(&self, count: u32) {
        self.rebuild_faults.set(count);
    }

    /// Disarm any remaining rebuild-push faults.
    pub fn clear_rebuild_faults(&self) {
        self.rebuild_faults.set(0);
    }

    /// A replica holder (or a whole crashed group's worth of holders)
    /// died: drop every copy `node` held. Returns the number of visible
    /// blocks that lost a copy.
    pub fn drop_holder(&self, node: u32) -> usize {
        self.replicas.drop_holder(node)
    }

    /// Drop every copy held by members of group `gid` (a group crash
    /// loses its peer-memory contents along with its processes).
    pub fn drop_group_holders(&self, gid: usize) -> usize {
        let mut touched = 0;
        for (rank, &g) in self.group_of.iter().enumerate() {
            if g == gid {
                touched += self.replicas.drop_holder(rank as u32);
            }
        }
        touched
    }

    /// Mark `ranks`' nodes as down for the duration of a recovery.
    /// While a node is down, [`RestoreBackend::rebuild`] *defers* any
    /// block whose re-push source or target sits on it — a transiently
    /// unreachable endpoint is not a redundancy failure, and the
    /// post-recovery pass (run after [`RestoreBackend::clear_down`])
    /// heals the block without a spurious typed degradation. Other
    /// groups keep committing while one group recovers, so their commit
    /// hooks can trigger rebuilds mid-recovery; this is what keeps
    /// those passes honest.
    pub fn set_down(&self, ranks: &[u32]) {
        self.down.borrow_mut().extend(ranks.iter().copied());
    }

    /// All nodes are reachable again (recovery finished).
    pub fn clear_down(&self) {
        self.down.borrow_mut().clear();
    }

    fn note_degraded(&self, err: StorageError) {
        self.degraded.borrow_mut().push(err);
    }

    /// Nearest surviving holder of a servable block, by ring distance
    /// from `node` (ties broken by the lower holder id).
    fn nearest_holder(&self, group: usize, gen: u64, rank: u32, node: usize) -> Option<u32> {
        let n = self.group_of.len().max(1) as i64;
        self.replicas
            .holders(group, gen, rank)
            .into_iter()
            .min_by_key(|&h| {
                let d = (i64::from(h) - node as i64).rem_euclid(n);
                (d.min(n - d), h)
            })
    }

    /// One replica push over the interconnect; consumes an armed
    /// rebuild fault if any is pending.
    async fn push_copy(&self, src: u32, dst: u32, bytes: u64) -> Result<(), StorageError> {
        let armed = self.rebuild_faults.get();
        if armed > 0 {
            self.rebuild_faults.set(armed - 1);
            return Err(StorageError::WriteTimeout { node: src as usize });
        }
        self.network
            .transfer(src as usize, dst as usize, bytes)
            .await;
        Ok(())
    }

    /// Original placement targets not currently holding a copy — where
    /// the rebuild pass re-pushes a degraded block.
    fn rebuild_targets(&self, rank: u32, holders: &[u32]) -> Vec<u32> {
        let held_groups: BTreeSet<usize> = holders
            .iter()
            .filter_map(|&h| self.group_of.get(h as usize).copied())
            .collect();
        match place_replicas(&self.group_of, rank, self.k) {
            Ok(placed) => placed
                .into_iter()
                .filter(|&h| {
                    !holders.contains(&h)
                        && self
                            .group_of
                            .get(h as usize)
                            .is_none_or(|g| !held_groups.contains(g))
                })
                .collect(),
            Err(_) => Vec::new(),
        }
    }

    /// Bounded re-replication pass: every visible block below the
    /// replication factor is re-pushed from a surviving copy to its
    /// missing placement slots, each push retried under the
    /// deterministic backoff policy; per-block shortfalls are recorded
    /// as typed [`StorageError::DegradedRedundancy`] events and the new
    /// copies are published atomically at the end of the pass.
    pub async fn rebuild(&self) -> RebuildStats {
        let replicas = &self.replicas;
        let mut stats = RebuildStats::default();
        let work = replicas.degraded_blocks(self.k);
        for DegradedBlock {
            group,
            gen,
            rank,
            bytes,
            holders,
        } in work
        {
            stats.scanned += 1;
            let Some(&src) = holders.first() else {
                // No surviving copy to clone from: the block is only
                // recoverable via the disk image. Record and move on.
                self.note_degraded(StorageError::DegradedRedundancy {
                    group,
                    have: 0,
                    need: self.k,
                });
                replicas.purge(group, gen, rank);
                stats.lost += 1;
                continue;
            };
            let targets = self.rebuild_targets(rank, &holders);
            {
                // A push endpoint inside a recovering group is transient
                // unreachability, not lost redundancy: defer the block to
                // the post-recovery pass instead of degrading it typed.
                let down = self.down.borrow();
                if down.contains(&src) || targets.iter().any(|t| down.contains(t)) {
                    stats.deferred += 1;
                    continue;
                }
            }
            let mut exhausted = false;
            for dst in targets {
                let pushed = retry(&self.sim, || self.push_copy(src, dst, bytes)).await;
                if pushed.is_ok() {
                    replicas.push_block(group, gen, rank, bytes, dst);
                    stats.repushed += 1;
                } else {
                    exhausted = true;
                }
            }
            match replicas.ack_quorum(group, gen, rank, self.k) {
                Ok(_) => stats.restored += 1,
                Err(err) if exhausted => {
                    // The pushes themselves failed past the retry budget:
                    // redundancy is genuinely short and stays short.
                    self.note_degraded(err);
                    stats.degraded += 1;
                }
                Err(_) => {
                    // Every push landed, yet the quorum still fell short:
                    // a holder died *under* this pass (each re-push takes
                    // seconds of transfer time, and worklists go stale).
                    // A surviving copy exists — the next pass, re-scanning
                    // fresh state, re-pushes from it; recording a typed
                    // loss here would report a repairable transient.
                    stats.deferred += 1;
                }
            }
        }
        replicas.commit_visible();
        stats
    }
}

impl CkptBackend for RestoreBackend {
    fn label(&self) -> &'static str {
        "restore"
    }

    fn catalog(&self) -> &Rc<CkptStore> {
        &self.store
    }

    fn write_image(&self, op: ImageOp) -> ImageFuture<'_> {
        Box::pin(async move {
            let done = self
                .storage
                .write_with_retry(op.node, op.bytes, op.target)
                .await?;
            let Some(gen) = op.gen else {
                return Ok(done);
            };
            match place_replicas(&self.group_of, op.rank, self.k) {
                Ok(holders) => {
                    let pushes: Vec<_> = holders
                        .iter()
                        .map(|&h| self.network.transfer(op.node, h as usize, op.bytes))
                        .collect();
                    join_all(pushes).await;
                    for &h in &holders {
                        self.replicas
                            .push_block(op.group, gen, op.rank, op.bytes, h);
                    }
                }
                Err(err) => self.note_degraded(err),
            }
            Ok(done)
        })
    }

    fn read_image(&self, op: ImageOp) -> ImageFuture<'_> {
        Box::pin(async move {
            let Some(gen) = op.gen else {
                // Initial-state restart: no wave ever committed, so peer
                // memory is empty by construction. Not a degradation.
                self.fallback_reads.set(self.fallback_reads.get() + 1);
                return self
                    .storage
                    .read_with_retry(op.node, op.bytes, op.target)
                    .await;
            };
            if let Some(holder) = self.nearest_holder(op.group, gen, op.rank, op.node) {
                let done = self
                    .network
                    .transfer(holder as usize, op.node, op.bytes)
                    .await;
                self.peer_reads.set(self.peer_reads.get() + 1);
                Ok(done)
            } else {
                // Every replica of this block is gone: degrade to the
                // disk path — typed and recorded, never an abort.
                self.note_degraded(StorageError::DegradedRedundancy {
                    group: op.group,
                    have: 0,
                    need: self.k,
                });
                self.fallback_reads.set(self.fallback_reads.get() + 1);
                if op.target == StorageTarget::Remote {
                    self.remote_fallback_reads
                        .set(self.remote_fallback_reads.get() + 1);
                }
                self.storage
                    .read_with_retry(op.node, op.bytes, op.target)
                    .await
            }
        })
    }

    fn on_commit(&self, group: usize, gen: u64) {
        self.replicas.commit_visible_gen(group, gen);
        // A copy that died while this generation was still pending was
        // invisible to any earlier rebuild scan (which walks servable
        // blocks only). Repair opportunistically now that the commit
        // made the shortfall observable.
        if self.replicas.under_replicated_in_gen(group, gen, self.k) {
            if let Some(rb) = self.weak_self.borrow().upgrade() {
                self.sim.spawn(async move {
                    rb.rebuild().await;
                });
            }
        }
    }

    fn on_abort(&self, group: usize, gen: u64) {
        self.replicas.discard_staged(group, gen);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ClusterSpec;

    fn two_of_four(n: usize) -> Vec<usize> {
        // n ranks in groups of 4: [0,0,0,0,1,1,1,1,...]
        (0..n).map(|r| r / 4).collect()
    }

    #[test]
    fn placement_never_colocates_with_owner_group_and_spans_k_groups() {
        let group_of = two_of_four(16);
        for owner in 0..16u32 {
            let holders = place_replicas(&group_of, owner, 2).unwrap();
            assert_eq!(holders.len(), 2);
            let owner_group = group_of[owner as usize];
            let holder_groups: BTreeSet<usize> =
                holders.iter().map(|&h| group_of[h as usize]).collect();
            assert!(!holder_groups.contains(&owner_group), "owner {owner}");
            assert_eq!(holder_groups.len(), 2, "distinct groups for {owner}");
        }
    }

    #[test]
    fn placement_is_deterministic() {
        let group_of = two_of_four(24);
        assert_eq!(
            placement_digest(&group_of, 2),
            placement_digest(&group_of, 2)
        );
        for owner in 0..24u32 {
            assert_eq!(
                place_replicas(&group_of, owner, 3).unwrap(),
                place_replicas(&group_of, owner, 3).unwrap()
            );
        }
    }

    #[test]
    fn placement_digest_values_are_pinned() {
        assert_eq!(placement_digest(&two_of_four(24), 2), 0xce95_7418_5661_a9ad);
        assert_eq!(placement_digest(&[0usize; 8], 2), 0x3c84_bf96_a495_0ce5);
    }

    #[test]
    fn placement_degrades_typed_when_too_few_groups() {
        let group_of = vec![0usize; 8]; // NORM: one group, no candidates
        match place_replicas(&group_of, 3, 2) {
            Err(StorageError::DegradedRedundancy { group, have, need }) => {
                assert_eq!((group, have, need), (0, 0, 2));
            }
            other => panic!("expected DegradedRedundancy, got {other:?}"),
        }
    }

    #[test]
    fn staged_copies_become_visible_only_on_commit() {
        let table = ReplicaTable::default();
        table.push_block(0, 1, 2, 1024, 5);
        table.push_block(0, 1, 2, 1024, 9);
        assert!(table.holders(0, 1, 2).is_empty(), "uncommitted is dark");
        assert!(
            table.ack_quorum(0, 1, 2, 2).is_ok(),
            "staged counts for quorum"
        );
        table.commit_visible_gen(0, 1);
        assert_eq!(table.holders(0, 1, 2), vec![5, 9]);
    }

    #[test]
    fn abort_discards_staged_copies() {
        let table = ReplicaTable::default();
        table.push_block(1, 7, 0, 512, 3);
        table.discard_staged(1, 7);
        table.commit_visible_gen(1, 7);
        assert!(table.holders(1, 7, 0).is_empty());
    }

    #[test]
    fn drop_holder_degrades_and_ack_quorum_reports_typed_shortfall() {
        let table = ReplicaTable::default();
        table.push_block(0, 1, 2, 1024, 5);
        table.push_block(0, 1, 2, 1024, 9);
        table.commit_visible_gen(0, 1);
        assert_eq!(table.drop_holder(5), 1);
        assert_eq!(table.holders(0, 1, 2), vec![9]);
        match table.ack_quorum(0, 1, 2, 2) {
            Err(StorageError::DegradedRedundancy { have, need, .. }) => {
                assert_eq!((have, need), (1, 2));
            }
            other => panic!("expected degraded, got {other:?}"),
        }
        assert_eq!(table.drop_holder(9), 1);
        assert!(!table.reconstructible(0, 1, &[2]));
    }

    fn restore_fixture(n: usize, k: usize) -> (gcr_sim::Sim, Cluster, Rc<RestoreBackend>) {
        let sim = gcr_sim::Sim::new();
        let cluster = Cluster::new(&sim, ClusterSpec::test(n));
        let backend = RestoreBackend::install(&cluster, two_of_four(n), k);
        (sim, cluster, backend)
    }

    #[test]
    fn write_read_roundtrip_serves_from_peer_memory() {
        let (sim, _cluster, backend) = restore_fixture(12, 2);
        let b = backend.clone();
        sim.spawn(async move {
            let op = ImageOp {
                node: 1,
                group: 0,
                gen: Some(1),
                rank: 1,
                bytes: 1 << 20,
                target: StorageTarget::Local,
            };
            b.write_image(op).await.unwrap();
            b.on_commit(0, 1);
            b.read_image(op).await.unwrap();
        });
        sim.run().unwrap();
        assert_eq!(backend.peer_reads(), 1);
        assert_eq!(backend.fallback_reads(), 0);
        assert!(backend.degraded_events().is_empty());
    }

    #[test]
    fn replica_loss_falls_back_typed_and_rebuild_restores_redundancy() {
        let (sim, _cluster, backend) = restore_fixture(12, 2);
        let b = backend.clone();
        sim.spawn(async move {
            let op = ImageOp {
                node: 1,
                group: 0,
                gen: Some(1),
                rank: 1,
                bytes: 1 << 16,
                target: StorageTarget::Local,
            };
            b.write_image(op).await.unwrap();
            b.on_commit(0, 1);
            let placed = place_replicas(&two_of_four(12), 1, 2).unwrap();
            // Kill one holder: degraded but still peer-servable.
            b.drop_holder(placed[0]);
            b.read_image(op).await.unwrap();
            assert_eq!(b.peer_reads(), 1);
            let stats = b.rebuild().await;
            assert_eq!(stats.scanned, 1);
            assert_eq!(stats.restored, 1);
            assert_eq!(stats.degraded, 0);
            assert!(b.replicas().ack_quorum(0, 1, 1, 2).is_ok());
            // Kill everything: fallback is typed, not a panic.
            b.drop_holder(placed[0]);
            b.drop_holder(placed[1]);
            for r in 0..12 {
                b.drop_holder(r);
            }
            b.read_image(op).await.unwrap();
            assert_eq!(b.fallback_reads(), 1);
            assert!(b
                .degraded_events()
                .iter()
                .any(|e| matches!(e, StorageError::DegradedRedundancy { .. })));
        });
        sim.run().unwrap();
    }

    #[test]
    fn rebuild_faults_retry_under_backoff_then_degrade_gracefully() {
        let (sim, _cluster, backend) = restore_fixture(12, 2);
        let b = backend.clone();
        sim.spawn(async move {
            let op = ImageOp {
                node: 0,
                group: 0,
                gen: Some(1),
                rank: 0,
                bytes: 4096,
                target: StorageTarget::Local,
            };
            b.write_image(op).await.unwrap();
            b.on_commit(0, 1);
            let placed = place_replicas(&two_of_four(12), 0, 2).unwrap();
            b.drop_holder(placed[0]);

            // One transient fault: the bounded retry recovers.
            b.inject_rebuild_faults(1);
            let stats = b.rebuild().await;
            assert_eq!((stats.restored, stats.degraded), (1, 0));

            // Faults beyond the retry budget: typed degradation.
            b.drop_holder(placed[0]);
            b.inject_rebuild_faults(u32::MAX);
            let stats = b.rebuild().await;
            b.clear_rebuild_faults();
            assert_eq!((stats.restored, stats.degraded), (0, 1));
            assert!(b.degraded_events().iter().any(|e| matches!(
                e,
                StorageError::DegradedRedundancy {
                    have: 1,
                    need: 2,
                    ..
                }
            )));
        });
        sim.run().unwrap();
    }
}
