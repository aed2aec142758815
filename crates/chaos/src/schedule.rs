//! Failure schedules: the event vocabulary and its compact string form.
//!
//! A schedule is a `;`-separated list of events, each with an injection
//! instant in simulated milliseconds:
//!
//! ```text
//! crash:g1@2500            group 1 crashes at t = 2.5 s
//! storm:x8@1000+4000       straggler storm ×8 during [1.0 s, 5.0 s)
//! outage:s0@2000+3000      checkpoint server 0 down during [2.0 s, 5.0 s)
//! slow:n3x4@1500+2500      node 3's links ×4 slower during [1.5 s, 4.0 s)
//! torn:n2x3@1800           node 2's next 3 image writes tear mid-transfer
//! corrupt:g1@2500          flip a bit in group 1's newest committed image,
//!                          then crash it (restart must fall back)
//! crashckpt:g1p1@2000      group 1 dies during its next checkpoint, halfway
//!                          through the image write (phase 0|1|2)
//! replica:g1@1500          group 1's held replica copies evaporate, then a
//!                          rebuild pass re-replicates (restore backend)
//! replica:g1p1@1500        same, but every rebuild push fails: the pass
//!                          must degrade typed, never abort (phase 0|1)
//! ```
//!
//! The string form is what `gcrsim chaos --schedule` accepts, so a
//! shrunken failing schedule is directly replayable.

/// The largest instant, in ms, whose nanosecond value fits the 64-bit
/// simulated clock.
const MAX_MS: u64 = u64::MAX / 1_000_000;

/// The largest storm or slowdown factor: one that stretches 1,000 s of
/// simulated work to the end of the clock. A larger factor overflows the
/// clock once the stretched operations of a window queue on one link.
const MAX_FACTOR: u64 = MAX_MS / 1_000_000;

/// One scheduled fault: what is injected, and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// Injection instant (simulated ms); a windowed fault starts here.
    pub at_ms: u64,
    /// The injected fault.
    pub fault: Fault,
}

/// The fault a [`ChaosEvent`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// All ranks of a group fail and are recovered via the group-local
    /// restart protocol. `group` is reduced modulo the run's group count.
    Crash {
        /// Target group (mod group count).
        group: u64,
    },
    /// Straggler storm: coordination stragglers become `factor`× more
    /// likely and `factor`× longer for `dur_ms`.
    Storm {
        /// Duration (ms).
        dur_ms: u64,
        /// Multiplier (≥ 1; generated schedules draw 2–8).
        factor: u64,
    },
    /// A remote checkpoint server is unreachable for `dur_ms`; clients
    /// fail over deterministically to the next live server.
    Outage {
        /// Duration (ms).
        dur_ms: u64,
        /// Target server (mod server count).
        server: u64,
    },
    /// A node's links degrade by `factor`× for `dur_ms` (delayed/burst
    /// link behaviour).
    Slow {
        /// Duration (ms).
        dur_ms: u64,
        /// Target node (mod endpoint count).
        node: u64,
        /// Slowdown multiplier (≥ 1; generated schedules draw 2–6).
        factor: u64,
    },
    /// A node's next `count` checkpoint-image writes tear: half the bytes
    /// reach the server, then the transfer dies. The durable store must
    /// record the failure and abort (or retry past) the generation.
    TornWrite {
        /// Target node (mod endpoint count).
        node: u64,
        /// How many consecutive writes tear (consumed as writes happen).
        count: u64,
    },
    /// Flip a bit in one image of the target group's newest **committed**
    /// generation, then crash the group: restart must detect the digest
    /// mismatch and fall back to an older committed generation.
    CorruptImage {
        /// Target group (mod group count).
        group: u64,
    },
    /// The target group dies *during* its next checkpoint wave, at the
    /// given phase: `0` before the image write, `1` halfway through it,
    /// `2` after every write but before the commit record. The pending
    /// generation must abort and recovery must restart from the last
    /// committed one. The trap arms at the event's instant and fires at
    /// the group's next wave.
    CrashCkpt {
        /// Target group (mod group count).
        group: u64,
        /// Crash phase (0, 1 or 2).
        phase: u64,
    },
    /// Replica loss (restore backend only; a no-op under the disk
    /// backend): every replica copy held in the target group's peer
    /// memory evaporates, then a re-replication (rebuild) pass runs.
    /// With `crash_phase` set, rebuild pushes are sabotaged: phase 0
    /// injects one transient push fault (the bounded retry must recover),
    /// phase 1 fails every push (the pass must degrade to the typed
    /// `DegradedRedundancy`, never abort).
    Replica {
        /// Target group (mod group count).
        group: u64,
        /// Rebuild-phase crash trap (`None`, or 0|1).
        crash_phase: Option<u64>,
    },
}

impl Fault {
    /// The kind, the head and the window of the compact form
    /// `kind:head@at[+dur]`.
    fn parts(&self) -> (&'static str, String, Option<u64>) {
        match *self {
            Fault::Crash { group } => ("crash", format!("g{group}"), None),
            Fault::Storm { dur_ms, factor } => ("storm", format!("x{factor}"), Some(dur_ms)),
            Fault::Outage { dur_ms, server } => ("outage", format!("s{server}"), Some(dur_ms)),
            Fault::Slow {
                dur_ms,
                node,
                factor,
            } => ("slow", format!("n{node}x{factor}"), Some(dur_ms)),
            Fault::TornWrite { node, count } => ("torn", format!("n{node}x{count}"), None),
            Fault::CorruptImage { group } => ("corrupt", format!("g{group}"), None),
            Fault::CrashCkpt { group, phase } => ("crashckpt", format!("g{group}p{phase}"), None),
            Fault::Replica {
                group,
                crash_phase: None,
            } => ("replica", format!("g{group}"), None),
            Fault::Replica {
                group,
                crash_phase: Some(p),
            } => ("replica", format!("g{group}p{p}"), None),
        }
    }
}

impl ChaosEvent {
    /// The compact string form of this event.
    pub fn format(&self) -> String {
        match self.fault.parts() {
            (kind, head, Some(dur_ms)) => format!("{kind}:{head}@{}+{dur_ms}", self.at_ms),
            (kind, head, None) => format!("{kind}:{head}@{}", self.at_ms),
        }
    }
}

/// Format a schedule as a `;`-joined compact string (empty for no events).
pub fn format_schedule(events: &[ChaosEvent]) -> String {
    events
        .iter()
        .map(ChaosEvent::format)
        .collect::<Vec<_>>()
        .join(";")
}

/// Parse the compact schedule form; the inverse of [`format_schedule`].
/// An empty string parses to an empty schedule. Hostile numbers are
/// rejected here rather than at injection: a storm or slowdown factor
/// below 1 or above 18,446,744 (`MAX_FACTOR`), and an instant or window
/// end past the 64-bit nanosecond clock.
pub fn parse_schedule(s: &str) -> Result<Vec<ChaosEvent>, String> {
    let mut out = Vec::new();
    for part in s.split(';') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        out.push(parse_event(part)?);
    }
    Ok(out)
}

fn parse_event(s: &str) -> Result<ChaosEvent, String> {
    let bad = |what: &str| format!("event `{s}`: {what}");
    let (kind, rest) = s
        .split_once(':')
        .ok_or_else(|| bad("expected `kind:...`"))?;
    let (head, times) = rest
        .split_once('@')
        .ok_or_else(|| bad("expected `...@time`"))?;
    let num = |txt: &str| -> Result<u64, String> {
        txt.parse::<u64>()
            .map_err(|_| bad(&format!("bad number `{txt}`")))
    };
    let (at, dur) = match times.split_once('+') {
        Some((at, dur)) => (at, Some(num(dur)?)),
        None => (times, None),
    };
    let at_ms = num(at)?;
    let window = || dur.ok_or_else(|| bad("expected `@start+dur`"));
    let factor = |f: u64| {
        if (1..=MAX_FACTOR).contains(&f) {
            Ok(f)
        } else {
            Err(bad(&format!("factor must be between 1 and {MAX_FACTOR}")))
        }
    };
    // `<prefix><a>` and `<prefix><a><sep><b>` heads.
    let one = |prefix: char, shape: &str| -> Result<u64, String> {
        num(head
            .strip_prefix(prefix)
            .ok_or_else(|| bad(&format!("expected `{shape}`")))?)
    };
    let two = |prefix: char, sep: char, shape: &str| -> Result<(u64, u64), String> {
        let (a, b) = head
            .strip_prefix(prefix)
            .and_then(|body| body.split_once(sep))
            .ok_or_else(|| bad(&format!("expected `{shape}`")))?;
        Ok((num(a)?, num(b)?))
    };
    let fault = match kind {
        "crash" => Fault::Crash {
            group: one('g', "crash:g<group>@<ms>")?,
        },
        "storm" => Fault::Storm {
            factor: factor(one('x', "storm:x<factor>@<ms>+<dur>")?)?,
            dur_ms: window()?,
        },
        "outage" => Fault::Outage {
            server: one('s', "outage:s<server>@<ms>+<dur>")?,
            dur_ms: window()?,
        },
        "slow" => {
            let (node, f) = two('n', 'x', "slow:n<node>x<factor>@<ms>+<dur>")?;
            Fault::Slow {
                dur_ms: window()?,
                node,
                factor: factor(f)?,
            }
        }
        "torn" => {
            let (node, count) = two('n', 'x', "torn:n<node>x<count>@<ms>")?;
            Fault::TornWrite { node, count }
        }
        "corrupt" => Fault::CorruptImage {
            group: one('g', "corrupt:g<group>@<ms>")?,
        },
        "crashckpt" => {
            let (group, phase) = two('g', 'p', "crashckpt:g<group>p<phase>@<ms>")?;
            if phase > 2 {
                return Err(bad("phase must be 0, 1 or 2"));
            }
            Fault::CrashCkpt { group, phase }
        }
        "replica" => {
            let shape = "replica:g<group>[p<phase>]@<ms>";
            let (group, crash_phase) = if head.contains('p') {
                let (group, phase) = two('g', 'p', shape)?;
                if phase > 1 {
                    return Err(bad("rebuild phase must be 0 or 1"));
                }
                (group, Some(phase))
            } else {
                (one('g', shape)?, None)
            };
            Fault::Replica { group, crash_phase }
        }
        other => return Err(format!("unknown event kind `{other}` in `{s}`")),
    };
    if dur.is_some() && fault.parts().2.is_none() {
        return Err(bad("this kind takes no `+dur` window"));
    }
    if at_ms
        .checked_add(dur.unwrap_or(0))
        .is_none_or(|end| end > MAX_MS)
    {
        return Err(bad("instant or window end overflows the nanosecond clock"));
    }
    Ok(ChaosEvent { at_ms, fault })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(at_ms: u64, fault: Fault) -> ChaosEvent {
        ChaosEvent { at_ms, fault }
    }

    #[test]
    fn roundtrip_all_kinds() {
        let sched = vec![
            ev(2500, Fault::Crash { group: 1 }),
            ev(
                1000,
                Fault::Storm {
                    dur_ms: 4000,
                    factor: 8,
                },
            ),
            ev(
                2000,
                Fault::Outage {
                    dur_ms: 3000,
                    server: 0,
                },
            ),
            ev(
                1500,
                Fault::Slow {
                    dur_ms: 2500,
                    node: 3,
                    factor: 4,
                },
            ),
            ev(1800, Fault::TornWrite { node: 2, count: 3 }),
            ev(2500, Fault::CorruptImage { group: 1 }),
            ev(2000, Fault::CrashCkpt { group: 1, phase: 1 }),
            ev(
                1500,
                Fault::Replica {
                    group: 2,
                    crash_phase: None,
                },
            ),
            ev(
                1700,
                Fault::Replica {
                    group: 0,
                    crash_phase: Some(1),
                },
            ),
        ];
        let s = format_schedule(&sched);
        assert_eq!(
            s,
            "crash:g1@2500;storm:x8@1000+4000;outage:s0@2000+3000;slow:n3x4@1500+2500;\
             torn:n2x3@1800;corrupt:g1@2500;crashckpt:g1p1@2000;replica:g2@1500;\
             replica:g0p1@1700"
        );
        assert_eq!(parse_schedule(&s).unwrap(), sched);
    }

    #[test]
    fn empty_schedule() {
        assert!(parse_schedule("").unwrap().is_empty());
        assert_eq!(format_schedule(&[]), "");
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse_schedule("crash:1@2500").is_err());
        assert!(parse_schedule("storm:x8@1000").is_err());
        assert!(parse_schedule("boom:g1@1").is_err());
        assert!(parse_schedule("crash:g1").is_err());
        assert!(parse_schedule("crash:g1@2500+100").is_err());
        assert!(parse_schedule("torn:2x3@1800").is_err());
        assert!(parse_schedule("torn:n2@1800").is_err());
        assert!(parse_schedule("corrupt:1@2500").is_err());
        assert!(parse_schedule("crashckpt:g1@2000").is_err());
        assert!(parse_schedule("crashckpt:g1p3@2000").is_err());
        assert!(parse_schedule("replica:1@1500").is_err());
        assert!(parse_schedule("replica:g1p2@1500").is_err());
        assert!(parse_schedule("replica:g1p@1500").is_err());
    }

    #[test]
    fn rejects_hostile_numbers_naming_the_event() {
        for s in [
            "storm:x0@500+100",
            "slow:n1x0@500+100",
            "storm:x8@500+18446744073709",
            "crash:g0@18446744073710",
            "outage:s0@18446744073709+1",
            "torn:n0x1@18446744073709551615",
        ] {
            let err = parse_schedule(&format!("crash:g0@100;{s}")).unwrap_err();
            assert!(err.contains(s), "{s}: {err}");
        }
        // The last instant the clock holds is still accepted.
        let edge = parse_schedule("crash:g0@18446744073709").unwrap();
        assert_eq!(edge[0].at_ms, MAX_MS);
        assert!(parse_schedule("storm:x1@18446744073000+709").is_ok());
    }

    #[test]
    fn caps_factors_at_the_clock() {
        for s in ["storm:x18446745@500+1000", "slow:n1x18446745@500+1000"] {
            let err = parse_schedule(s).unwrap_err();
            assert!(err.contains(s) && err.contains("factor"), "{s}: {err}");
        }
        assert!(parse_schedule("storm:x18446744@500+1000;slow:n1x18446744@500+1000").is_ok());
    }
}
