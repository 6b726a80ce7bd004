//! Pinned simulator traces: the engine's full reports (traces on) on a
//! seeded corpus, digested and compared against constants.
//!
//! The constants were captured when the simulator still had two engines —
//! a uniprocessor one (m = 1) and a global one (m = 2, 4) — so they pin
//! the event order of both regimes: releases, misses, completions, the
//! task that names each mode switch and the drops that follow it. Any
//! change to the engine's semantics, however small, changes a digest.

use mcsched::gen::{DeadlineModel, GridPoint, TaskSetSpec};
use mcsched::model::TaskSet;
use mcsched::sim::validate::battery;
use mcsched::sim::{Policy, Simulator};
use rand::{rngs::StdRng, SeedableRng};
use std::fmt::{self, Write};

const HORIZON: u64 = 3_000;
const SETS: usize = 50;

/// FNV-1a-64 digests per processor count, one per policy in
/// [`policy`] order (EDF, EDF-VD with x = 0.6, DM).
const PINNED: [(usize, [u64; 3]); 3] = [
    (
        1,
        [0x70d1165b6eac01d6, 0x28aceea6369bf052, 0xde775fc26ccc6c6e],
    ),
    (
        2,
        [0xd9d703d12d8d4d1f, 0x72d361a3890d80d0, 0x310f1f160eacaefe],
    ),
    (
        4,
        [0x40b6487b79439d99, 0xa94cec3e008540fc, 0x460298fb8cff70dd],
    ),
];

/// FNV-1a-64 over everything written to it.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// Constrained-deadline sets sized for one and two processors, at three
/// mid-to-high load points, so every processor count sees both clean runs
/// and misses.
fn corpus() -> Vec<TaskSet> {
    let points = [
        GridPoint {
            u_hh: 0.5,
            u_hl: 0.25,
            u_ll: 0.35,
        },
        GridPoint {
            u_hh: 0.8,
            u_hl: 0.4,
            u_ll: 0.3,
        },
        GridPoint {
            u_hh: 0.6,
            u_hl: 0.5,
            u_ll: 0.45,
        },
    ];
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut sets = Vec::with_capacity(SETS);
    let mut i = 0;
    while sets.len() < SETS {
        let spec = TaskSetSpec::paper_defaults(
            1 + i % 2,
            points[i % points.len()],
            DeadlineModel::Constrained,
        );
        i += 1;
        if let Ok(ts) = spec.generate(&mut rng) {
            sets.push(ts);
        }
    }
    sets
}

fn policy(kind: usize, ts: &TaskSet) -> Policy {
    match kind {
        0 => Policy::Edf,
        1 => Policy::edf_vd_scaled(ts, 0.6),
        _ => Policy::deadline_monotonic(ts),
    }
}

/// Digest of `format!("{report:?}")` over the corpus × `battery(k)` for
/// set `k`, in corpus order.
fn digest(sets: &[TaskSet], m: usize, kind: usize) -> u64 {
    let mut h = Fnv1a(0xcbf2_9ce4_8422_2325);
    for (k, ts) in sets.iter().enumerate() {
        let sim = if m == 1 {
            Simulator::new(ts, policy(kind, ts))
        } else {
            Simulator::global(ts, policy(kind, ts), m)
        }
        .with_trace();
        for scenario in battery(k as u64) {
            write!(h, "{:?}", sim.run(&scenario, HORIZON)).unwrap();
        }
    }
    h.0
}

#[test]
fn engine_reproduces_pinned_traces() {
    let sets = corpus();
    for (m, digests) in PINNED {
        for (kind, &pinned) in digests.iter().enumerate() {
            assert_eq!(
                digest(&sets, m, kind),
                pinned,
                "m = {m}, policy {kind}: trace digest drifted"
            );
        }
    }
}
