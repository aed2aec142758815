//! Trace records and the in-memory trace.

use gcr_json::{Json, JsonError};

/// One traced communication event.
///
/// Times are simulated nanoseconds. `Send` fires when the message's data
/// goes on the wire; `Recv` fires when the application receive completes
/// (and carries both endpoints' times so diagrams can draw arrows).
///
/// On disk each event is a tagged object: `{"ev":"send",...}` /
/// `{"ev":"recv",...}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A send was initiated.
    Send {
        /// Time the data went on the wire (ns).
        t: u64,
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Application tag (collective-internal tags appear here too).
        tag: u64,
        /// Message size in bytes.
        bytes: u64,
    },
    /// A receive completed.
    Recv {
        /// Time the data went on the wire (ns).
        t_sent: u64,
        /// Time the receive completed (ns).
        t: u64,
        /// Source rank.
        src: u32,
        /// Destination rank.
        dst: u32,
        /// Application tag.
        tag: u64,
        /// Message size in bytes.
        bytes: u64,
    },
}

impl TraceEvent {
    /// Event timestamp (ns).
    pub fn time(&self) -> u64 {
        match self {
            TraceEvent::Send { t, .. } | TraceEvent::Recv { t, .. } => *t,
        }
    }

    /// The on-disk JSON representation.
    pub fn to_json(&self) -> Json {
        match *self {
            TraceEvent::Send {
                t,
                src,
                dst,
                tag,
                bytes,
            } => Json::obj([
                ("ev", Json::from("send")),
                ("t", Json::from(t)),
                ("src", Json::from(src)),
                ("dst", Json::from(dst)),
                ("tag", Json::from(tag)),
                ("bytes", Json::from(bytes)),
            ]),
            TraceEvent::Recv {
                t_sent,
                t,
                src,
                dst,
                tag,
                bytes,
            } => Json::obj([
                ("ev", Json::from("recv")),
                ("t_sent", Json::from(t_sent)),
                ("t", Json::from(t)),
                ("src", Json::from(src)),
                ("dst", Json::from(dst)),
                ("tag", Json::from(tag)),
                ("bytes", Json::from(bytes)),
            ]),
        }
    }

    /// Parse one event from its JSON object.
    ///
    /// # Errors
    /// [`JsonError`] on a missing/mistyped field or unknown `ev` tag.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let rank = |key: &str| -> Result<u32, JsonError> {
            u32::try_from(v.u64_field(key)?)
                .map_err(|_| JsonError::msg(format!("field '{key}' exceeds u32")))
        };
        match v.str_field("ev")? {
            "send" => Ok(TraceEvent::Send {
                t: v.u64_field("t")?,
                src: rank("src")?,
                dst: rank("dst")?,
                tag: v.u64_field("tag")?,
                bytes: v.u64_field("bytes")?,
            }),
            "recv" => Ok(TraceEvent::Recv {
                t_sent: v.u64_field("t_sent")?,
                t: v.u64_field("t")?,
                src: rank("src")?,
                dst: rank("dst")?,
                tag: v.u64_field("tag")?,
                bytes: v.u64_field("bytes")?,
            }),
            other => Err(JsonError::msg(format!("unknown trace event '{other}'"))),
        }
    }
}

/// Largest world a trace may declare in `meta.n`: 2^24 ranks, 167 times
/// the largest world the simulator runs (100,000). Trace consumers size
/// per-rank tables from `meta.n`, so [`Trace::from_json`] rejects a larger
/// claim as malformed instead of trying to allocate for it.
pub const MAX_TRACE_RANKS: usize = 1 << 24;

/// Metadata stored at the head of a trace file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceMeta {
    /// World size the trace was captured from.
    pub n: usize,
    /// Free-form workload label (e.g. `hpl-n20000-nb120-8x4`).
    pub workload: String,
}

/// A captured communication trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    /// Capture metadata.
    pub meta: TraceMeta,
    /// Events in capture order (non-decreasing time).
    pub events: Vec<TraceEvent>,
}

impl Trace {
    /// An empty trace for an `n`-rank world.
    pub fn new(n: usize, workload: impl Into<String>) -> Self {
        Trace {
            meta: TraceMeta {
                n,
                workload: workload.into(),
            },
            events: Vec::new(),
        }
    }

    /// Iterator over send events only (the input to group formation).
    pub fn sends(&self) -> impl Iterator<Item = (u32, u32, u64)> + '_ {
        self.events.iter().filter_map(|e| match e {
            TraceEvent::Send {
                src, dst, bytes, ..
            } => Some((*src, *dst, *bytes)),
            _ => None,
        })
    }

    /// Number of send events.
    pub fn send_count(&self) -> usize {
        self.sends().count()
    }

    /// Timestamp of the last event (ns), 0 when empty.
    pub fn end_time(&self) -> u64 {
        self.events.iter().map(TraceEvent::time).max().unwrap_or(0)
    }

    /// The on-disk JSON representation.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "meta",
                Json::obj([
                    ("n", Json::from(self.meta.n)),
                    ("workload", Json::from(self.meta.workload.as_str())),
                ]),
            ),
            (
                "events",
                Json::Arr(self.events.iter().map(TraceEvent::to_json).collect()),
            ),
        ])
    }

    /// Serialize compactly to a JSON string.
    pub fn to_json_string(&self) -> String {
        self.to_json().dump()
    }

    /// Parse a trace from its JSON value.
    ///
    /// # Errors
    /// [`JsonError`] on shape mismatches, on a `meta.n` above
    /// [`MAX_TRACE_RANKS`], naming the first event whose source or
    /// destination rank is not below `meta.n`, or naming the send that
    /// takes the total of send bytes past `u64::MAX`.
    pub fn from_json(v: &Json) -> Result<Self, JsonError> {
        let meta = v.field("meta")?;
        let n = meta.usize_field("n")?;
        if n > MAX_TRACE_RANKS {
            return Err(JsonError::msg(format!(
                "meta.n = {n} exceeds the {MAX_TRACE_RANKS}-rank limit of a trace"
            )));
        }
        // Every per-pair, per-rank and per-group byte tally a consumer
        // keeps is at most this total, so bounding it bounds them all.
        let mut sent = 0u64;
        let events = v
            .arr_field("events")?
            .iter()
            .enumerate()
            .map(|(i, e)| {
                let ev = TraceEvent::from_json(e)?;
                let (TraceEvent::Send { src, dst, .. } | TraceEvent::Recv { src, dst, .. }) = ev;
                if let Some(r) = [src, dst].into_iter().find(|&r| r as usize >= n) {
                    return Err(JsonError::msg(format!(
                        "event {i}: rank {r} is outside the trace's {n}-rank world"
                    )));
                }
                if let TraceEvent::Send { bytes, .. } = ev {
                    sent = sent.checked_add(bytes).ok_or_else(|| {
                        JsonError::msg(format!("event {i}: the send bytes sum past 2^64"))
                    })?;
                }
                Ok(ev)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Trace {
            meta: TraceMeta {
                n,
                workload: meta.str_field("workload")?.to_string(),
            },
            events,
        })
    }

    /// Parse a trace from a JSON string.
    ///
    /// # Errors
    /// [`JsonError`] on parse or shape failures.
    pub fn from_json_str(s: &str) -> Result<Self, JsonError> {
        Trace::from_json(&Json::parse(s)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sends_filter() {
        let mut tr = Trace::new(4, "test");
        tr.events.push(TraceEvent::Send {
            t: 5,
            src: 0,
            dst: 1,
            tag: 9,
            bytes: 100,
        });
        tr.events.push(TraceEvent::Recv {
            t_sent: 5,
            t: 8,
            src: 0,
            dst: 1,
            tag: 9,
            bytes: 100,
        });
        tr.events.push(TraceEvent::Send {
            t: 10,
            src: 2,
            dst: 3,
            tag: 9,
            bytes: 200,
        });
        let sends: Vec<_> = tr.sends().collect();
        assert_eq!(sends, vec![(0, 1, 100), (2, 3, 200)]);
        assert_eq!(tr.send_count(), 2);
        assert_eq!(tr.end_time(), 10);
    }

    #[test]
    fn world_size_is_capped_at_max_trace_ranks() {
        let doc = |n: usize| format!(r#"{{"meta":{{"n":{n},"workload":"x"}},"events":[]}}"#);
        let at_cap = Trace::from_json_str(&doc(MAX_TRACE_RANKS)).unwrap();
        assert_eq!(at_cap.meta.n, MAX_TRACE_RANKS);
        let e = Trace::from_json_str(&doc(MAX_TRACE_RANKS + 1)).unwrap_err();
        assert!(e.msg.contains("rank limit"), "{}", e.msg);
    }

    #[test]
    fn json_roundtrip() {
        let mut tr = Trace::new(2, "w");
        tr.events.push(TraceEvent::Send {
            t: 1,
            src: 0,
            dst: 1,
            tag: 2,
            bytes: 3,
        });
        tr.events.push(TraceEvent::Recv {
            t_sent: 1,
            t: 4,
            src: 0,
            dst: 1,
            tag: 2,
            bytes: 3,
        });
        let json = tr.to_json_string();
        let back = Trace::from_json_str(&json).unwrap();
        assert_eq!(back, tr);
    }

    #[test]
    fn json_format_is_the_tagged_layout() {
        let mut tr = Trace::new(2, "w");
        tr.events.push(TraceEvent::Send {
            t: 1,
            src: 0,
            dst: 1,
            tag: 2,
            bytes: 3,
        });
        assert_eq!(
            tr.to_json_string(),
            r#"{"meta":{"n":2,"workload":"w"},"events":[{"ev":"send","t":1,"src":0,"dst":1,"tag":2,"bytes":3}]}"#
        );
    }

    #[test]
    fn malformed_events_are_rejected() {
        assert!(Trace::from_json_str(
            r#"{"meta":{"n":2,"workload":"w"},"events":[{"ev":"nope"}]}"#
        )
        .is_err());
        assert!(Trace::from_json_str(r#"{"meta":{"n":2},"events":[]}"#).is_err());
        assert!(Trace::from_json_str("[]").is_err());
    }
}
