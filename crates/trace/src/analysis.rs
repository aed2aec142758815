//! Trace analysis: pair-flow aggregation.
//!
//! [`pair_flows`] produces exactly the preprocessed input of the paper's
//! Algorithm 2: send records collapsed by *unordered* source/destination
//! pair into `(pair, message count, total bytes)` tuples, sorted by total
//! size descending, then count, then pair.

use std::collections::BTreeMap;

use crate::record::Trace;

/// Aggregated traffic between one unordered pair of ranks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairFlow {
    /// Smaller rank of the pair.
    pub a: u32,
    /// Larger rank of the pair.
    pub b: u32,
    /// Number of messages in either direction.
    pub count: u64,
    /// Total bytes in either direction.
    pub bytes: u64,
}

/// Collapse a trace's send records into unordered pair flows, sorted by
/// bytes desc, then count desc, then pair asc (Algorithm 2 preprocessing).
pub fn pair_flows(trace: &Trace) -> Vec<PairFlow> {
    // BTreeMap, not HashMap: the post-sort is total (bytes, count, pair),
    // but hash iteration order must never reach even an intermediate
    // stage of anything the bit-determinism oracle digests (`clippy.toml`).
    let mut map: BTreeMap<(u32, u32), (u64, u64)> = BTreeMap::new();
    for (src, dst, bytes) in trace.sends() {
        if src == dst {
            continue; // self-messages carry no grouping signal
        }
        let key = (src.min(dst), src.max(dst));
        let e = map.entry(key).or_insert((0, 0));
        e.0 += 1;
        e.1 += bytes;
    }
    let mut flows: Vec<PairFlow> = map
        .into_iter()
        .map(|((a, b), (count, bytes))| PairFlow { a, b, count, bytes })
        .collect();
    flows.sort_by(|x, y| {
        y.bytes
            .cmp(&x.bytes)
            .then(y.count.cmp(&x.count))
            .then((x.a, x.b).cmp(&(y.a, y.b)))
    });
    flows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TraceEvent;

    fn trace_with(sends: &[(u32, u32, u64)]) -> Trace {
        let mut tr = Trace::new(8, "t");
        for (i, &(src, dst, bytes)) in sends.iter().enumerate() {
            tr.events.push(TraceEvent::Send {
                t: i as u64,
                src,
                dst,
                tag: 0,
                bytes,
            });
        }
        tr
    }

    #[test]
    fn pairs_are_unordered_and_merged() {
        let tr = trace_with(&[(0, 1, 100), (1, 0, 50), (2, 3, 10)]);
        let flows = pair_flows(&tr);
        assert_eq!(flows.len(), 2);
        assert_eq!(
            flows[0],
            PairFlow {
                a: 0,
                b: 1,
                count: 2,
                bytes: 150
            }
        );
        assert_eq!(
            flows[1],
            PairFlow {
                a: 2,
                b: 3,
                count: 1,
                bytes: 10
            }
        );
    }

    #[test]
    fn sort_is_bytes_then_count_then_pair() {
        let tr = trace_with(&[
            (0, 1, 100),
            (2, 3, 50),
            (2, 3, 50), // 100 bytes total in 2 msgs: ties on bytes, wins on count
            (4, 5, 100),
            (6, 7, 100), // ties with (0,1) on bytes and count → pair order
        ]);
        let flows = pair_flows(&tr);
        let order: Vec<(u32, u32)> = flows.iter().map(|f| (f.a, f.b)).collect();
        assert_eq!(order, vec![(2, 3), (0, 1), (4, 5), (6, 7)]);
    }

    #[test]
    fn self_sends_ignored() {
        let tr = trace_with(&[(3, 3, 1000), (0, 1, 10)]);
        let flows = pair_flows(&tr);
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].a, 0);
    }
}
