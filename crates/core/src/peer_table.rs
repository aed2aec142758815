//! Per-peer tables laid out flat: `(peer, value)` pairs in a vector
//! sorted by peer.
//!
//! Every per-partner table of the data plane — the message log's streams
//! and the volume counters — holds one entry per peer the rank actually
//! exchanged traffic with, a handful even in a 100k-rank world. A
//! `BTreeMap` allocates a whole eleven-slot leaf for them; this table
//! grows one slot per new partner and reads by binary search. The
//! checkpoint snapshots freeze the same layout into a boxed slice and
//! read it with [`find`].

/// `peer`'s value in `entries`, which is sorted ascending by peer.
pub(crate) fn find<V>(entries: &[(u32, V)], peer: u32) -> Option<&V> {
    entries
        .binary_search_by_key(&peer, |&(q, _)| q)
        .ok()
        .and_then(|i| entries.get(i))
        .map(|(_, v)| v)
}

/// A map from peer rank to `V`, ascending by peer.
#[derive(Debug, Clone)]
pub(crate) struct PeerTable<V> {
    entries: Vec<(u32, V)>,
}

impl<V> Default for PeerTable<V> {
    fn default() -> Self {
        PeerTable {
            entries: Vec::new(),
        }
    }
}

impl<V> PeerTable<V> {
    /// `peer`'s value, if it has an entry.
    pub(crate) fn get(&self, peer: u32) -> Option<&V> {
        find(&self.entries, peer)
    }

    /// `peer`'s value for writing, if it has an entry.
    pub(crate) fn get_mut(&mut self, peer: u32) -> Option<&mut V> {
        let i = self.search(peer).ok()?;
        self.entries.get_mut(i).map(|(_, v)| v)
    }

    /// Apply `f` to `peer`'s value and return its result, creating the
    /// value as `V::default()` first if `peer` has no entry. The vector
    /// grows by exactly one slot per new peer: a rank meets each partner
    /// once, and most have few.
    pub(crate) fn update<R>(&mut self, peer: u32, f: impl FnOnce(&mut V) -> R) -> R
    where
        V: Default,
    {
        let i = self.entries.partition_point(|&(q, _)| q < peer);
        match self.entries.get_mut(i) {
            Some((q, v)) if *q == peer => f(v),
            _ => {
                let mut v = V::default();
                let r = f(&mut v);
                self.entries.reserve_exact(1);
                self.entries.insert(i, (peer, v));
                r
            }
        }
    }

    /// Set `peer`'s value, inserting or overwriting.
    pub(crate) fn set(&mut self, peer: u32, value: V)
    where
        V: Default,
    {
        self.update(peer, |v| *v = value);
    }

    /// Drop every entry.
    pub(crate) fn clear(&mut self) {
        self.entries.clear();
    }

    /// Every `(peer, value)` pair, ascending by peer.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (u32, &V)> {
        self.entries.iter().map(|(q, v)| (*q, v))
    }

    /// `Ok` with `peer`'s slot, or `Err` with the slot that keeps the
    /// order if `peer` were inserted.
    fn search(&self, peer: u32) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&peer, |&(q, _)| q)
    }
}
