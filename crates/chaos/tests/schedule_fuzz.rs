//! Hostile-input tests for the schedule grammar: seeded random strings
//! built from valid event pieces, hostile numbers, the grammar's
//! separators and multi-byte characters must parse without panicking;
//! every accepted schedule must survive a format/parse round trip, and
//! every accepted event must be one the engine can inject (factors at
//! least 1, instant and window end inside the 64-bit nanosecond clock).

use gcr_chaos::{format_schedule, parse_schedule, ChaosEvent, Fault};

/// Whole events, valid as written.
const EVENTS: &[&str] = &[
    "crash:g1@2500",
    "storm:x8@1000+4000",
    "outage:s0@2000+3000",
    "slow:n3x4@1500+2500",
    "torn:n2x3@1800",
    "corrupt:g1@2500",
    "crashckpt:g1p1@2000",
    "replica:g2@1500",
    "replica:g0p1@1700",
];

/// Every event shape, with `#` where a number goes.
const SHAPES: &[&str] = &[
    "crash:g#@#",
    "storm:x#@#+#",
    "outage:s#@#+#",
    "slow:n#x#@#+#",
    "torn:n#x#@#",
    "corrupt:g#@#",
    "crashckpt:g#p#@#",
    "replica:g#@#",
    "replica:g#p#@#",
];

/// Event kinds, known and unknown.
const KINDS: &[&str] = &[
    "crash",
    "storm",
    "outage",
    "slow",
    "torn",
    "corrupt",
    "crashckpt",
    "replica",
    "boom",
    "",
];

/// Head prefixes and field separators.
const HEADS: &[&str] = &["g", "x", "s", "n", "p", ""];

/// Numbers around the edges: zero, small, the clock's last millisecond
/// and the first past it, `u64::MAX` and past it, signs and junk.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "7",
    "2500",
    "18446744073000",
    "18446744073709",
    "18446744073710",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "+3",
    "-1",
    "",
    " 5",
    "0x10",
    "١",
];

/// Loose pieces for unstructured soup.
const SOUP: &[&str] = &[
    ":", "@", "+", ";", "x", "p", "g", "n", "s", " ", "é", "€", "𝄞", "9", "crash", "storm", "@@",
    "++", ";;",
];

/// A 64-bit linear congruential generator (Knuth's MMIX constants).
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn pick<'a>(&mut self, from: &[&'a str]) -> &'a str {
        from[self.below(from.len())]
    }
}

/// One `;`-separated segment: a valid event, an event shape filled with
/// random numbers, a `kind:head@at[+dur]` frame filled with random
/// pieces, or unstructured soup.
fn segment(rng: &mut Lcg) -> String {
    match rng.below(5) {
        0 => rng.pick(EVENTS).to_string(),
        1 | 2 => rng
            .pick(SHAPES)
            .split('#')
            .enumerate()
            .map(|(i, part)| match i {
                0 => part.to_string(),
                _ => format!("{}{part}", rng.pick(NUMBERS)),
            })
            .collect(),
        3 => {
            let mut s = format!(
                "{}:{}{}",
                rng.pick(KINDS),
                rng.pick(HEADS),
                rng.pick(NUMBERS)
            );
            if rng.below(2) == 0 {
                s += rng.pick(HEADS);
                s += rng.pick(NUMBERS);
            }
            s += "@";
            s += rng.pick(NUMBERS);
            if rng.below(2) == 0 {
                s += "+";
                s += rng.pick(NUMBERS);
            }
            s
        }
        _ => (0..rng.below(12)).map(|_| rng.pick(SOUP)).collect(),
    }
}

/// The engine's preconditions for one event.
fn injectable(ev: &ChaosEvent) -> bool {
    let (dur_ms, factor) = match ev.fault {
        Fault::Storm { dur_ms, factor } => (dur_ms, factor),
        Fault::Slow { dur_ms, factor, .. } => (dur_ms, factor),
        Fault::Outage { dur_ms, .. } => (dur_ms, 1),
        _ => (0, 1),
    };
    let fits = |ms: u64| ms.checked_mul(1_000_000).is_some();
    factor >= 1 && fits(ev.at_ms) && ev.at_ms.checked_add(dur_ms).is_some_and(fits)
}

#[test]
fn hostile_schedules_parse_without_panic_and_roundtrip() {
    let mut rng = Lcg(0x5c4e_d01e);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..4000 {
        let src = (0..1 + rng.below(3))
            .map(|_| segment(&mut rng))
            .collect::<Vec<_>>()
            .join(";");
        let Ok(events) = parse_schedule(&src) else {
            rejected += 1;
            continue;
        };
        accepted += 1;
        let text = format_schedule(&events);
        assert_eq!(
            parse_schedule(&text).as_ref(),
            Ok(&events),
            "case {case}: {src:?} formatted as {text:?}"
        );
        for ev in &events {
            assert!(injectable(ev), "case {case}: {src:?} accepted {ev:?}");
        }
    }
    // Both outcomes must be well exercised for the test to mean anything.
    assert!(accepted >= 300, "only {accepted} accepted");
    assert!(rejected >= 300, "only {rejected} rejected");
}
