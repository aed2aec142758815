//! Message envelopes, tags, and payloads.

use std::fmt;
use std::rc::Rc;

use gcr_sim::SimTime;

use crate::rank::Rank;

/// A message tag. Application tags must stay below [`Tag::APP_LIMIT`]; the
/// ranges above are reserved for collective internals and protocol control
/// traffic.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Tag(pub u64);

impl Tag {
    /// Exclusive upper bound for application tags.
    pub const APP_LIMIT: u64 = 1 << 32;
    /// Base of the range used internally by collectives.
    pub const COLL_BASE: u64 = 1 << 32;
    /// Base of the range used by checkpoint-protocol control messages.
    pub const CTRL_BASE: u64 = 1 << 33;

    /// An application tag.
    ///
    /// # Panics
    /// Panics if `v` is not below [`Tag::APP_LIMIT`].
    pub fn app(v: u64) -> Tag {
        assert!(v < Tag::APP_LIMIT, "application tag too large");
        Tag(v)
    }

    /// A collective-internal tag, namespaced by operation sequence number.
    pub fn coll(seq: u64) -> Tag {
        Tag(Tag::COLL_BASE | (seq & (Tag::COLL_BASE - 1)))
    }

    /// A protocol control tag.
    pub fn ctrl(v: u64) -> Tag {
        Tag(Tag::CTRL_BASE | v)
    }
}

impl fmt::Debug for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= Tag::CTRL_BASE {
            write!(f, "ctrl:{}", self.0 - Tag::CTRL_BASE)
        } else if self.0 >= Tag::COLL_BASE {
            write!(f, "coll:{}", self.0 - Tag::COLL_BASE)
        } else {
            write!(f, "tag:{}", self.0)
        }
    }
}

/// Globally unique message identity: `(sender, per-sender sequence)`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId {
    /// Sending rank.
    pub src: Rank,
    /// Sequence number within the sender's outgoing stream.
    pub seq: u64,
}

/// Message class. Only [`MsgKind::App`] traffic is traced, counted in the
/// per-channel byte counters, gated by checkpoint protocols, and eligible
/// for message logging. `Ctrl` traffic is protocol plumbing (markers,
/// bookmarks, volume exchanges) and bypasses all of that — it still costs
/// network time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgKind {
    /// Application-level message.
    App,
    /// Checkpoint-protocol control message.
    Ctrl,
}

/// An optional control payload of integer words. The simulator does not
/// move real data; the few values a protocol exchanges (bookmark byte
/// counts, volume marks, replay-plan counts, the commit decision, a
/// flattened clock vector) ride along as words. `bytes` on the envelope
/// is what costs network time, independent of the payload.
pub type Payload = Option<Rc<[u64]>>;

/// A message as seen by the receiver.
#[derive(Clone)]
pub struct Envelope {
    /// Sending rank.
    pub src: Rank,
    /// Destination rank.
    pub dst: Rank,
    /// Matching tag.
    pub tag: Tag,
    /// Simulated size in bytes (drives network cost and volume counters).
    pub bytes: u64,
    /// Unique identity.
    pub id: MsgId,
    /// App or protocol-control.
    pub kind: MsgKind,
    /// Piggybacked `RR` value (Algorithm 1): the receiver's recorded
    /// received-volume at the sender's last checkpoint, attached to the
    /// first message to each out-of-group peer after a checkpoint so the
    /// peer can garbage-collect its message log.
    pub piggyback_rr: Option<u64>,
    /// Piggybacked cut epoch (CVC): the sender's count of completed
    /// checkpoint cuts when the message left. A receiver still behind
    /// that epoch takes its own cut before consuming the message, which
    /// is what keeps the cut orphan-free without blocking sends.
    pub piggyback_epoch: Option<u64>,
    /// Piggybacked receiver-log acknowledgement (receiver-based
    /// logging): how many bytes of the *destination's* stream the sender
    /// has durably logged on its own node. The destination trims its
    /// sender-side log up to this offset — only the unacked tail must be
    /// retained for in-transit replay.
    pub piggyback_ack: Option<u64>,
    /// Optional control payload words.
    pub payload: Payload,
    /// When the send was initiated.
    pub sent_at: SimTime,
    /// When the message arrived at the receiver's MPI layer.
    pub arrived_at: SimTime,
}

impl Envelope {
    /// The control payload's words; empty when the message carries none.
    pub fn words(&self) -> &[u64] {
        self.payload.as_deref().unwrap_or(&[])
    }

    /// The first payload word, if any.
    pub fn word(&self) -> Option<u64> {
        self.words().first().copied()
    }
}

impl fmt::Debug for Envelope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:?}→{:?} {:?} {}B seq={} {:?}",
            self.src, self.dst, self.tag, self.bytes, self.id.seq, self.kind
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_namespaces_are_disjoint() {
        let app = Tag::app(77);
        let coll = Tag::coll(77);
        let ctrl = Tag::ctrl(77);
        assert_ne!(app, coll);
        assert_ne!(coll, ctrl);
    }

    #[test]
    #[should_panic(expected = "application tag too large")]
    fn oversized_app_tag_panics() {
        let _ = Tag::app(Tag::APP_LIMIT);
    }

    #[test]
    fn payload_reads_as_words() {
        let mut env = Envelope {
            src: Rank(0),
            dst: Rank(1),
            tag: Tag::app(0),
            bytes: 8,
            id: MsgId {
                src: Rank(0),
                seq: 0,
            },
            kind: MsgKind::Ctrl,
            piggyback_rr: None,
            piggyback_epoch: None,
            piggyback_ack: None,
            payload: Some(Rc::new([42, 7])),
            sent_at: SimTime::ZERO,
            arrived_at: SimTime::ZERO,
        };
        assert_eq!(env.words(), &[42, 7]);
        assert_eq!(env.word(), Some(42));
        env.payload = None;
        assert!(env.words().is_empty());
        assert_eq!(env.word(), None);
    }
}
