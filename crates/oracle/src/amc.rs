//! The seed AMC response-time analyses: one scalar fixpoint per task over
//! the AoS `Task` structs, with per-call index and response vectors.
//!
//! The AMC-rtb fixpoint re-derives every higher-priority term — LC
//! included — on every iteration, and the AMC-max bound materialises,
//! sorts and deduplicates its candidate switch instants, then re-derives
//! every interference term at each one. The lane kernels of
//! `mcsched_analysis::amc` must reproduce every verdict and bound here
//! bit-identically.

use mcsched_model::{Criticality, Task, TaskSet, Time};

/// Deadline-monotonic priority order (ties by task id): task indices
/// from highest to lowest priority.
fn dm_order(ts: &TaskSet) -> Vec<usize> {
    let tasks = ts.as_slice();
    let mut idx: Vec<usize> = (0..tasks.len()).collect();
    idx.sort_by_key(|&i| (tasks[i].deadline(), tasks[i].id()));
    idx
}

/// Iterates the standard RTA fixpoint `R = wcet + interference(R)` from
/// `R = wcet`, bailing out as soon as `R` exceeds `deadline`.
///
/// The `wcet + interference` accumulation saturates: a mathematically
/// overflowing response also exceeds every `deadline < u64::MAX`, so the
/// saturated value fails the deadline test just the same instead of
/// wrapping (or panicking) near `Time::MAX`.
fn fixpoint(wcet: Time, deadline: Time, interference: impl Fn(Time) -> Time) -> Option<Time> {
    let mut r = wcet;
    loop {
        let next = wcet.saturating_add(interference(r));
        if next > deadline {
            return None;
        }
        if next == r {
            return Some(r);
        }
        r = next;
    }
}

/// The seed low-mode RTA: one scalar fixpoint per task.
fn lo_rta_scalar(tasks: &[Task], order: &[usize]) -> Option<Vec<Time>> {
    let mut resp = vec![Time::ZERO; tasks.len()];
    for (pos, &i) in order.iter().enumerate() {
        let hp = &order[..pos];
        let r = fixpoint(tasks[i].wcet_lo(), tasks[i].deadline(), |r| {
            hp.iter()
                .map(|&j| {
                    tasks[j]
                        .wcet_lo()
                        .saturating_mul(r.div_ceil(tasks[j].period()))
                })
                .fold(Time::ZERO, Time::saturating_add)
        })?;
        resp[i] = r;
    }
    Some(resp)
}

/// Low-mode RTA plus a per-variant high-mode RTA for every HC task.
fn amc_schedulable(ts: &TaskSet, hi_rta: impl Fn(&AmcContext<'_>, usize) -> Option<Time>) -> bool {
    if ts.is_empty() {
        return true;
    }
    let order = dm_order(ts);
    let Some(lo_resp) = lo_rta_scalar(ts.as_slice(), &order) else {
        return false;
    };
    let ctx = AmcContext {
        tasks: ts.as_slice(),
        order: &order,
        lo_resp: &lo_resp,
    };
    for &i in order.iter() {
        if ctx.tasks[i].criticality() == Criticality::High {
            // The seed re-derives each task's priority position with a
            // linear scan.
            match hi_rta(&ctx, ctx.pos_of(i)) {
                Some(r) if r <= ctx.tasks[i].deadline() => {}
                _ => return false,
            }
        }
    }
    true
}

/// Bundled inputs for the high-mode analyses.
struct AmcContext<'a> {
    tasks: &'a [Task],
    order: &'a [usize],
    lo_resp: &'a [Time],
}

impl AmcContext<'_> {
    /// The priority position of task index `i` (a linear scan).
    fn pos_of(&self, i: usize) -> usize {
        self.order
            .iter()
            .position(|&x| x == i)
            .expect("task in order")
    }

    /// Higher-priority task indices for the task at priority position
    /// `pos`.
    fn hp(&self, pos: usize) -> &[usize] {
        &self.order[..pos]
    }

    /// The seed rtb fixpoint: re-derives every hp term — LC included —
    /// on every iteration.
    fn rtb_response_reference(&self, pos: usize) -> Option<Time> {
        let i = self.order[pos];
        let ti = &self.tasks[i];
        let hp = self.hp(pos);
        let lo_cap = self.lo_resp[i];
        fixpoint(ti.wcet_hi(), ti.deadline(), |r| {
            hp.iter()
                .map(|&j| {
                    let tj = &self.tasks[j];
                    match tj.criticality() {
                        Criticality::High => tj.wcet_hi().saturating_mul(r.div_ceil(tj.period())),
                        Criticality::Low => {
                            tj.wcet_lo().saturating_mul(lo_cap.div_ceil(tj.period()))
                        }
                    }
                })
                .fold(Time::ZERO, Time::saturating_add)
        })
    }

    /// The seed AMC-max bound — materialise, sort and deduplicate the
    /// candidate instants, then re-derive every interference term per
    /// candidate; never worse than the rtb bound.
    fn max_bound_reference(&self, pos: usize) -> Option<Time> {
        let mut worst = Time::ZERO;
        for s in self.switch_candidates(pos) {
            let r = self.max_response_at(pos, s)?;
            worst = worst.max(r);
        }
        match self.rtb_response_reference(pos) {
            Some(rtb) => Some(worst.min(rtb)),
            None => Some(worst),
        }
    }

    /// AMC-max response for switch instant `s`.
    fn max_response_at(&self, pos: usize, s: Time) -> Option<Time> {
        let ti = &self.tasks[self.order[pos]];
        let hp = self.hp(pos);
        fixpoint(ti.wcet_hi(), ti.deadline(), |r| {
            hp.iter()
                .map(|&j| {
                    let tj = &self.tasks[j];
                    match tj.criticality() {
                        Criticality::Low => tj
                            .wcet_lo()
                            .saturating_mul(s.div_floor(tj.period()).saturating_add(1)),
                        Criticality::High => {
                            let n = r.div_ceil(tj.period());
                            // Two sound lower bounds on the hp-HC jobs that
                            // certainly completed (hence ran at C^L) before
                            // the switch at s:
                            //  * jobs with deadlines at or before s (low-mode
                            //    deadlines are guaranteed): ⌊(s−D)/T⌋ + 1;
                            //  * all releases in [0, s] except at most one —
                            //    with constrained deadlines (D ≤ T), at most
                            //    one job per task is incomplete at any
                            //    deadline-meeting instant: ⌊s/T⌋.
                            let by_deadline = if s >= tj.deadline() {
                                (s - tj.deadline()).div_floor(tj.period()) + 1
                            } else {
                                0
                            };
                            let by_release = s.div_floor(tj.period());
                            let m = by_deadline.max(by_release).min(n);
                            tj.wcet_lo()
                                .saturating_mul(m)
                                .saturating_add(tj.wcet_hi().saturating_mul(n - m))
                        }
                    }
                })
                .fold(Time::ZERO, Time::saturating_add)
        })
    }

    /// Candidate switch instants for the task at priority position `pos`:
    /// points in `[0, R^LO_i)` where some interference term steps, plus 0,
    /// sorted and deduplicated.
    fn switch_candidates(&self, pos: usize) -> Vec<Time> {
        let r_lo = self.lo_resp[self.order[pos]];
        let mut cands = vec![Time::ZERO];
        for &j in self.hp(pos) {
            let tj = &self.tasks[j];
            match tj.criticality() {
                Criticality::Low => {
                    // (⌊s/T⌋+1) steps at multiples of T.
                    let mut t = tj.period();
                    while t < r_lo {
                        cands.push(t);
                        t = t.saturating_add(tj.period());
                    }
                }
                Criticality::High => {
                    // M(k, s) steps at D + j·T (deadline bound) and at
                    // multiples of T (release bound).
                    let mut t = tj.deadline();
                    while t < r_lo {
                        cands.push(t);
                        t = t.saturating_add(tj.period());
                    }
                    let mut t = tj.period();
                    while t < r_lo {
                        cands.push(t);
                        t = t.saturating_add(tj.period());
                    }
                }
            }
        }
        cands.sort_unstable();
        cands.dedup();
        cands
    }
}

/// The seed AMC-rtb one-shot verdict.
pub fn amc_rtb_is_schedulable(ts: &TaskSet) -> bool {
    amc_schedulable(ts, |ctx, pos| ctx.rtb_response_reference(pos))
}

/// The seed AMC-max one-shot verdict.
pub fn amc_max_is_schedulable(ts: &TaskSet) -> bool {
    amc_schedulable(ts, |ctx, pos| ctx.max_bound_reference(pos))
}

/// The seed scalar low-mode response times, indexed by task; `None`
/// when some task misses its deadline in low mode.
pub fn lo_responses(ts: &TaskSet) -> Option<Vec<Time>> {
    lo_rta_scalar(ts.as_slice(), &dm_order(ts))
}

/// The seed AMC-rtb high-mode bound of `task_index`; outer `None` when
/// low-mode RTA fails, inner `None` when the fixpoint exceeds the
/// deadline.
pub fn amc_rtb_response(ts: &TaskSet, task_index: usize) -> Option<Option<Time>> {
    with_ctx(ts, |ctx| ctx.rtb_response_reference(ctx.pos_of(task_index)))
}

/// The sorted-deduplicated candidate switch instants of `task_index`;
/// `None` when the set fails low-mode RTA (candidates are then
/// undefined).
pub fn amc_max_candidates(ts: &TaskSet, task_index: usize) -> Option<Vec<Time>> {
    with_ctx(ts, |ctx| ctx.switch_candidates(ctx.pos_of(task_index)))
}

/// The seed AMC-max response bound of `task_index`; outer `None` when
/// low-mode RTA fails, inner `None` when some switch instant is
/// infeasible.
pub fn amc_max_bound(ts: &TaskSet, task_index: usize) -> Option<Option<Time>> {
    with_ctx(ts, |ctx| ctx.max_bound_reference(ctx.pos_of(task_index)))
}

fn with_ctx<R>(ts: &TaskSet, f: impl FnOnce(&AmcContext<'_>) -> R) -> Option<R> {
    let order = dm_order(ts);
    let lo_resp = lo_rta_scalar(ts.as_slice(), &order)?;
    let ctx = AmcContext {
        tasks: ts.as_slice(),
        order: &order,
        lo_resp: &lo_resp,
    };
    Some(f(&ctx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amc as reference;
    use mcsched_analysis::amc::{
        amc_max_bound_streamed, amc_max_candidates_streamed, amc_rtb_bounds,
    };
    use mcsched_analysis::{AmcMax, AmcRtb, LoRta, SchedulabilityTest};

    fn set(tasks: Vec<Task>) -> TaskSet {
        TaskSet::try_from_tasks(tasks).unwrap()
    }

    #[test]
    fn streaming_walk_matches_reference_on_grid() {
        // Grid of small sets: the streaming walk must visit exactly the
        // sorted-deduplicated candidate set, return identical bounds and
        // produce identical verdicts.
        for ch in 3..=8u64 {
            for cl2 in 1..=4u64 {
                for c3 in 1..=6u64 {
                    let ts = set(vec![
                        Task::hi(0, 12, 2, ch).unwrap(),
                        Task::hi(1, 20, cl2, cl2 + 3).unwrap(),
                        Task::lo(2, 15, c3).unwrap(),
                    ]);
                    assert_eq!(
                        AmcMax::new().is_schedulable(&ts),
                        reference::amc_max_is_schedulable(&ts),
                        "verdict diverged on {ts}"
                    );
                    for i in 0..ts.len() {
                        assert_eq!(
                            amc_max_candidates_streamed(&ts, i),
                            reference::amc_max_candidates(&ts, i),
                            "candidates diverged for τ{i} of {ts}"
                        );
                        assert_eq!(
                            amc_max_bound_streamed(&ts, i),
                            reference::amc_max_bound(&ts, i),
                            "bounds diverged for τ{i} of {ts}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fixpoint_add_saturates_at_near_max_wcet() {
        // Regression: `wcet + interference(r)` in `fixpoint` was an
        // unguarded add that wrapped for parameters near 2^63 (each
        // product stays in range — 2^63 · ⌈2^63/(2^63+2)⌉ = 2^63 — but
        // the final add reaches 2^64). The saturated sum exceeds every
        // finite deadline, so both paths must reject without panicking.
        let big = 1u64 << 63;
        let ts = set(vec![
            Task::hi_constrained(0, big + 2, big, big, big + 1).unwrap(),
            Task::hi_constrained(1, big + 4, big, big, big + 2).unwrap(),
        ]);
        assert!(LoRta::compute(&ts).is_none());
        assert_eq!(reference::lo_responses(&ts), None);
        assert!(!AmcRtb::new().is_schedulable(&ts));
        assert!(!reference::amc_rtb_is_schedulable(&ts));
        assert!(!AmcMax::new().is_schedulable(&ts));
        // A single near-max task alone stays feasible in every path (the
        // fixpoint is hit before anything can saturate).
        let alone = set(vec![
            Task::hi_constrained(0, big + 2, big, big, big + 1).unwrap()
        ]);
        assert!(AmcRtb::new().is_schedulable(&alone));
        assert_eq!(
            LoRta::compute(&alone),
            Some(vec![Time::new(big)]),
            "lone near-max task's LO response is its own budget"
        );
    }

    #[test]
    fn batched_rtb_matches_reference_on_grid() {
        // Grid sweep: lane-kernel LO responses, rtb verdicts and rtb bounds
        // must be bit-identical to the retained scalar reference.
        for ch in 3..=8u64 {
            for cl2 in 1..=4u64 {
                for c3 in 1..=6u64 {
                    let ts = set(vec![
                        Task::hi(0, 12, 2, ch).unwrap(),
                        Task::hi(1, 20, cl2, cl2 + 3).unwrap(),
                        Task::lo(2, 15, c3).unwrap(),
                    ]);
                    assert_eq!(
                        LoRta::compute(&ts),
                        reference::lo_responses(&ts),
                        "LO responses diverged on {ts}"
                    );
                    let verdict = reference::amc_rtb_is_schedulable(&ts);
                    match amc_rtb_bounds(&ts) {
                        None => assert!(!verdict, "lane LO failed on rtb-feasible {ts}"),
                        Some((v, bounds)) => {
                            assert_eq!(v, verdict, "rtb verdict diverged on {ts}");
                            if v {
                                for (i, t) in ts.as_slice().iter().enumerate() {
                                    if t.criticality() == Criticality::High {
                                        assert_eq!(
                                            Some(bounds[i]),
                                            reference::amc_rtb_response(&ts, i),
                                            "rtb bound diverged for τ{i} of {ts}"
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn switch_candidates_cover_step_points() {
        let ts = set(vec![
            Task::lo(0, 7, 3).unwrap(),
            Task::hi(1, 11, 1, 2).unwrap(),
            Task::hi(2, 50, 5, 20).unwrap(),
        ]);
        let order = dm_order(&ts);
        let lo = LoRta::compute_with_order(&ts, &order).unwrap();
        // R^LO_2 = 5 + 3·⌈R/7⌉ + 1·⌈R/11⌉ converges at 13.
        assert_eq!(lo[2], Time::new(13));
        let ctx = AmcContext {
            tasks: ts.as_slice(),
            order: &order,
            lo_resp: &lo,
        };
        let cands = ctx.switch_candidates(2);
        assert!(cands.contains(&Time::ZERO));
        // Multiples of 7 (LC period) below R^LO and 11 (HC deadline and
        // period of τ1) below R^LO.
        assert!(cands.contains(&Time::new(7)));
        assert!(cands.contains(&Time::new(11)));
        // Strictly below the LO response time.
        assert!(cands.iter().all(|&c| c < lo[2]));
    }

    #[test]
    fn rtb_cap_none_arm_matches_reference() {
        // τ2's rtb fixpoint reaches 52, past its deadline of 48, so the
        // AMC-max cap takes its `None` arm and the walk's own bound must
        // stand, on the lanes exactly as in the seed.
        let ts = set(vec![
            Task::lo(0, 15, 5).unwrap(),
            Task::hi_constrained(1, 20, 2, 10, 14).unwrap(),
            Task::hi_constrained(2, 60, 9, 12, 48).unwrap(),
        ]);
        assert_eq!(reference::amc_rtb_response(&ts, 2), Some(None));
        let bound = reference::amc_max_bound(&ts, 2);
        assert!(
            matches!(bound, Some(Some(r)) if r <= Time::new(48)),
            "{bound:?}"
        );
        assert_eq!(amc_max_bound_streamed(&ts, 2), bound);
        assert!(AmcMax::new().is_schedulable(&ts));
    }
}
