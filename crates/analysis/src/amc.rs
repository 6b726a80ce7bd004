// mclint: hot-path
//! Adaptive Mixed-Criticality (AMC) response-time analyses.
//!
//! Fixed-priority scheduling for dual-criticality systems (Baruah, Burns &
//! Davis, RTSS 2011): every task has a fixed priority; when a HC job
//! exceeds its `C^L` budget the processor switches to high mode and all LC
//! tasks are immediately dropped.
//!
//! Priorities here are **deadline-monotonic** (smaller relative deadline =
//! higher priority, ties broken by task id), the standard choice for
//! constrained-deadline fixed-priority systems.
//!
//! Three analyses:
//!
//! * **Low-mode RTA** ([`LoRta`]) — classic response-time analysis with
//!   `C^L` budgets; every task (LC and HC) must meet its deadline before
//!   any switch.
//! * **AMC-rtb** ([`AmcRtb`]) — response-time bound: HC task `τi`'s
//!   high-mode response satisfies
//!   `R = C^H_i + Σ_{k∈hpH} ⌈R/Tk⌉·C^H_k + Σ_{j∈hpL} ⌈R^LO_i/Tj⌉·C^L_j`.
//! * **AMC-max** ([`AmcMax`]) — enumerates candidate mode-switch instants
//!   `s ∈ [0, R^LO_i)` as the paper describes ("considers all possible mode
//!   switch instants until the low mode response time"): LC interference is
//!   frozen at `(⌊s/Tj⌋+1)·C^L_j`, and of the `⌈R/Tk⌉` hp-HC jobs those
//!   whose deadlines precede `s` — `M(k,s) = (⌊(s−Dk)/Tk⌋+1)₊` of them —
//!   must already have completed and are charged at `C^L_k`, the rest at
//!   `C^H_k`. At every visited instant `s < R^LO_i` this charges no more
//!   than AMC-rtb does (`⌊s/Tj⌋+1 ≤ ⌈R^LO_i/Tj⌉` LC jobs, and `C^L_k ≤
//!   C^H_k` per completed hp-HC job), so each instant's fixpoint is at
//!   most the AMC-rtb bound and AMC-max dominates AMC-rtb with no rtb
//!   cap. (The seed oracle in `mcsched-oracle` still takes the minimum
//!   of the two; it never binds.)
//!
//! # Lane evaluation
//!
//! Every analysis runs over a structure-of-arrays view (`SoaTasks` in
//! [`crate::workspace`]) holding one contiguous `u64` lane per parameter
//! (`wcet_lo` / `wcet_hi` / `period` / `deadline`, plus the `⌊2^64/T⌋`
//! reciprocals and the `hc` flags) in priority order — no kernel chases
//! `tasks[j]` through `Task` structs. The low-mode kernel (`lo_rta`)
//! walks the positions one task at a time and iterates that task's
//! fixpoint over the higher-priority lanes, dividing by multiplication.
//! The high-mode kernel (`hi_bounds`) walks the positions once more,
//! building per-class lists of the higher-priority HC and LC positions
//! as it goes, and evaluates each HC task from them: AMC-rtb through the
//! one per-position rtb fixpoint (`rtb_at`), which hoists the LC
//! interference `Σ_{j∈hpL} ⌈R^LO_i/Tj⌉·C^L_j` out of the loop (it
//! depends only on the already-fixed low-mode response) and then
//! touches only the hp-HC positions; AMC-max through the streaming
//! switch-instant walk over the same lists. The low-mode and rtb kernels
//! each have one body, monomorphised on the fast-kernel certificate
//! (`SoaTasks::fast`): the certified instance drops the saturation
//! guards and the reciprocal fixup, which the certificate proves are
//! no-ops.
//!
//! # Seeding soundness
//!
//! The low-mode and rtb fixpoints are seeded at
//! `max(C_i, cached bound, C_i + Σ_{j∈hp} C_j)`:
//!
//! * the *cached bound* is the task's response before the probe's
//!   candidate was inserted — interference only grows when the
//!   higher-priority set grows, so it is a lower bound on the new least
//!   fixed point `R*`;
//! * the *one-job bound* holds because every higher-priority task
//!   contributes at least one whole job to `R* ≥ C_i ≥ 1`.
//!
//! Kleene iteration from **any** start `≤ R*` converges to exactly `R*`:
//! all iterates stay `≤ R*` (monotonicity), and a stabilisation point is
//! a fixed point `≤ R*`, hence `R*` itself (least). Verdicts and bounds
//! are therefore bit-identical to the seed scalar analyses kept as test
//! oracles in the `mcsched-oracle` crate, which the equivalence suites
//! assert.

use crate::incremental::{AdmissionState, AdmissionStats, Committed};
use crate::workspace::{AnalysisWorkspace, SoaTasks, WorkspaceRef};
use crate::SchedulabilityTest;
use mcsched_model::{SystemUtilization, Task, TaskId, TaskSet, Time};

/// Deadline-monotonic priority order: returns task indices from highest to
/// lowest priority.
// mclint: cold — owned-order convenience; the hot path fills workspace lanes via dm_order_into
pub(crate) fn dm_order(ts: &TaskSet) -> Vec<usize> {
    let mut idx = Vec::new();
    dm_order_into(ts.as_slice(), &mut idx);
    idx
}

/// Sorts 8 keys with the optimal 19-comparator network (Knuth, TAOCP
/// vol. 3, Fig. 49); correctness is pinned by the exhaustive 0-1
/// principle test below.
fn cas_sort8<T: Ord>(keys: &mut [T; 8]) {
    for [a, b] in [
        [0, 2],
        [1, 3],
        [4, 6],
        [5, 7],
        [0, 4],
        [1, 5],
        [2, 6],
        [3, 7],
        [0, 1],
        [2, 3],
        [4, 5],
        [6, 7],
        [2, 4],
        [3, 5],
        [1, 4],
        [3, 6],
        [1, 2],
        [3, 4],
        [5, 6],
    ] {
        if keys[a] > keys[b] {
            keys.swap(a, b);
        }
    }
}

/// [`dm_order`] into a caller-supplied buffer (cleared first), over a raw
/// task slice — the incremental states and the workspace-backed one-shot
/// path analyse `committed + candidate` unions without materialising a
/// `TaskSet` or allocating the index vector.
fn dm_order_into(tasks: &[Task], idx: &mut Vec<usize>) {
    idx.clear();
    let n = tasks.len();
    if n <= 8 {
        // Sorting network on packed `(deadline, id, position)` keys:
        // 19 compare-exchanges, branch-free, no length-dependent control
        // flow. Empty slots are padded with the all-ones sentinel, which
        // sinks past every real key (a real key's position field is at
        // most 7, so it can never equal the sentinel). Small deadlines
        // and ids — the overwhelmingly common case — pack into one `u64`
        // per task; anything larger falls back to `u128` keys.
        let mut k64 = [u64::MAX; 8];
        let mut small = true;
        for (p, (k, t)) in k64.iter_mut().zip(tasks).enumerate() {
            let dl = t.deadline().as_ticks();
            let id = t.id().0;
            small &= dl < (1 << 32) && id < (1 << 16);
            *k = dl.wrapping_shl(32) | u64::from(id) << 16 | p as u64;
        }
        if small {
            cas_sort8(&mut k64);
            idx.extend(k64[..n].iter().map(|&k| (k & 0xffff) as usize));
            return;
        }
        let mut keys = [u128::MAX; 8];
        for (p, (k, t)) in keys.iter_mut().zip(tasks).enumerate() {
            *k = ((t.deadline().as_ticks() as u128) << 64) | ((t.id().0 as u128) << 32) | p as u128;
        }
        cas_sort8(&mut keys);
        idx.extend(keys[..n].iter().map(|&k| (k as u32) as usize));
        return;
    }
    if n <= 64 {
        // Pack `(deadline, id, position)` into one `u128` per task: the
        // unique `(deadline, id)` prefix decides the order and the
        // position rides along in the low 32 bits, so the sort compares
        // plain integers on the stack instead of chasing `tasks` through
        // a comparator on every probe.
        let mut keys = [0u128; 64];
        for (p, (k, t)) in keys.iter_mut().zip(tasks).enumerate() {
            *k = ((t.deadline().as_ticks() as u128) << 64) | ((t.id().0 as u128) << 32) | p as u128;
        }
        keys[..n].sort_unstable();
        idx.extend(keys[..n].iter().map(|&k| (k as u32) as usize));
        return;
    }
    idx.extend(0..n);
    // The (deadline, id) key is unique, so the unstable sort (which never
    // allocates, unlike the stable one) orders identically.
    idx.sort_unstable_by(|&a, &b| {
        tasks[a]
            .deadline()
            .cmp(&tasks[b].deadline())
            .then_with(|| tasks[a].id().cmp(&tasks[b].id()))
    });
}

/// `⌈a / b⌉` over raw ticks, without the `(a + b − 1) / b` overflow
/// hazard near `u64::MAX`. `b` is a task period, hence nonzero. Kept as
/// the test oracle for the reciprocal paths below (`dc_inv` / `dc_fast`);
/// the hot kernels only ever divide by multiplication.
#[cfg(test)]
fn dc(a: u64, b: u64) -> u64 {
    if a == 0 {
        0
    } else {
        (a - 1) / b + 1
    }
}

/// Exact `⌈a / b⌉` by multiplication, with `m = inv64(b)` precomputed in
/// the SoA lanes — the hot sweeps' replacement for the hardware divide
/// (one widening multiply plus a one-step fixup, fully pipelined where
/// `div` is not).
///
/// Correctness: for `b ≥ 2`, `m = ⌊2^64/b⌋` gives an error
/// `e = 2^64 − m·b ∈ [0, b)`, so for `n < 2^64`
/// `n·m/2^64 = n/b − n·e/(b·2^64) ∈ (n/b − 1, n/b]` and the truncated
/// high word `est` is `⌊n/b⌋` or `⌊n/b⌋ − 1`; `n − est·b ≥ b` detects the
/// low case exactly (no overflow: `est·b ≤ n`). For `b == 1`,
/// `m = u64::MAX` yields `est = n − 1` for `n ≥ 1` and the same fixup
/// lands on `n`. The `+ 1` never overflows: `⌊(a−1)/b⌋ ≤ 2^64 − 2`.
#[inline(always)]
pub(crate) fn dc_inv(a: u64, b: u64, m: u64) -> u64 {
    if a == 0 {
        return 0;
    }
    let n = a - 1;
    let est = ((n as u128 * m as u128) >> 64) as u64;
    let floor = est + u64::from(n - est * b >= b);
    floor + 1
}

/// Exact `⌈a/b⌉` in the small-value regime certified by
/// [`SoaTasks::fast`], with `m1 = ⌊2^64/b⌋ + 1` hoisted by the caller —
/// one widening multiply, no fixup.
///
/// Correctness: `m1·b − 2^64 = e ∈ (0, b]`, so for `n = a − 1`
/// `n·m1/2^64 = n/b + n·e/(b·2^64) ∈ [n/b, n/b + n/2^64]`. The
/// certificate guarantees `n·b < 2^64` (both below `2^32`), hence the
/// excess `n/2^64 < 1/b` cannot carry `⌊n/b⌋` past the next integer
/// (the fractional part of `n/b` is at most `(b−1)/b`), and the high
/// word is exactly `⌊(a−1)/b⌋`. Requires `a ≥ 1` (certified: every
/// iterate is at least its task's nonzero WCET) and `b ≥ 2` (so `m1`
/// does not wrap).
#[inline(always)]
fn dc_fast(a: u64, m1: u64) -> u64 {
    (((a - 1) as u128 * m1 as u128) >> 64) as u64 + 1
}

/// Exact `⌊a / b⌋` by multiplication, with `m = inv64(b)` precomputed —
/// the floor-division sibling of [`dc_inv`], used by the demand lanes
/// (`dbf` job counts are floors, not ceilings).
///
/// Correctness: the [`dc_inv`] error argument applied to `n = a` directly
/// (no `− 1` shift): the truncated high word `est` is `⌊a/b⌋` or
/// `⌊a/b⌋ − 1`, and `a − est·b ≥ b` detects the low case exactly
/// (`est·b ≤ a`, so neither the product nor the increment can overflow).
/// For `b == 1`, `m = u64::MAX` gives `est = a − 1` for `a ≥ 1` and the
/// fixup lands on `a`.
#[inline(always)]
pub(crate) fn df_inv(a: u64, b: u64, m: u64) -> u64 {
    let est = ((a as u128 * m as u128) >> 64) as u64;
    est + u64::from(a - est * b >= b)
}

/// Exact `⌊a/b⌋` in the small-value regime certified by
/// [`DemandSoa::fast`](crate::workspace::DemandSoa::fast), with
/// `m1 = ⌊2^64/b⌋ + 1` hoisted by the caller — one widening multiply, no
/// fixup.
///
/// Correctness: exactly the [`dc_fast`] argument without the ceiling
/// shift: `m1·b − 2^64 = e ∈ (0, b]`, so
/// `a·m1/2^64 = a/b + a·e/(b·2^64) ∈ [a/b, a/b + a/2^64]`. The demand
/// certificate guarantees `a·b < 2^64` (both below `2^32`), hence the
/// excess `a/2^64 < 1/b` cannot carry `⌊a/b⌋` past the next integer,
/// and the high word is exactly `⌊a/b⌋` (including `a == 0`). Requires
/// `b ≥ 2` (so `m1` does not wrap).
#[inline(always)]
pub(crate) fn df_fast(a: u64, m1: u64) -> u64 {
    ((a as u128 * m1 as u128) >> 64) as u64
}

/// One interference term `c·⌈r/t⌉` added onto `acc`, with `m = inv64(t)`.
/// The fast arm is plain arithmetic and the no-fixup reciprocal ceiling,
/// both exact under [`SoaTasks::fast`]; the guarded arm saturates, and a
/// saturated sum exceeds every `deadline < u64::MAX` and rejects exactly
/// like the scalar fixpoint.
#[inline(always)]
fn charge<const FAST: bool>(acc: u64, c: u64, r: u64, t: u64, m: u64) -> u64 {
    if FAST {
        acc + c * dc_fast(r, m.wrapping_add(1))
    } else {
        acc.saturating_add(c.saturating_mul(dc_inv(r, t, m)))
    }
}

/// Low-mode RTA over the SoA lanes for positions `from..`, one task at a
/// time.
///
/// `lo_resp` is indexed **by task index** via `order`. On entry it must
/// hold a sound lower bound on each analysed task's response (0 when
/// unknown); the iteration also starts no lower than the one-job bound
/// (see the module docs). The responses overwrite it. Returns `false`
/// iff some analysed task misses its deadline.
fn lo_rta(soa: &SoaTasks, order: &[usize], from: usize, lo_resp: &mut [Time]) -> bool {
    // Monomorphise on the small-value certificate: the fast kernel drops
    // the saturation guards and the reciprocal fixup, both provably
    // no-ops under the certificate, so both instantiations compute
    // bit-identical responses.
    if soa.fast() {
        lo_rta_kernel::<true>(soa, order, from, lo_resp)
    } else {
        lo_rta_kernel::<false>(soa, order, from, lo_resp)
    }
}

/// The monomorphised body of [`lo_rta`].
fn lo_rta_kernel<const FAST: bool>(
    soa: &SoaTasks,
    order: &[usize],
    from: usize,
    lo_resp: &mut [Time],
) -> bool {
    let n = soa.len();
    let (wl, per, inv, dl) = (
        &soa.wcet_lo[..n],
        &soa.period[..n],
        &soa.inv_period[..n],
        &soa.deadline[..n],
    );
    // Σ C^L above the current position, for the one-job seed.
    let mut below: u64 = wl[..from].iter().fold(0, |a, &c| a.saturating_add(c));
    for p in from..n {
        let one_job = wl[p].saturating_add(below);
        below = below.saturating_add(wl[p]);
        let mut r = wl[p].max(lo_resp[order[p]].as_ticks()).max(one_job);
        // The seed is a sound lower bound on the fixed point, so a seed
        // past the deadline already decides the verdict (and keeps
        // fast-kernel iterates below `2^32`).
        if r > dl[p] {
            return false;
        }
        loop {
            let mut acc = 0u64;
            for ((&c, &t), &m) in wl[..p].iter().zip(&per[..p]).zip(&inv[..p]) {
                acc = charge::<FAST>(acc, c, r, t, m);
            }
            let next = wl[p].saturating_add(acc);
            if next > dl[p] {
                return false;
            }
            if next == r {
                break;
            }
            r = next;
        }
        lo_resp[order[p]] = Time::new(r);
    }
    true
}

/// The high-mode bounds of the HC tasks at positions `from..`, one task
/// at a time: the AMC-rtb fixpoint for [`AmcVariant::RtbDm`], the
/// switch-instant walk for [`AmcVariant::Max`]. Seeding (AMC-rtb reads
/// `hi_resp` on entry, `None` as 0) and saturation are as in [`lo_rta`];
/// `hp` is scratch for [`walk_hc`]'s position lists and `streams` /
/// `slots` for the AMC-max candidate walk. Returns `false` at the first
/// HC task without a bound within its deadline.
#[allow(clippy::too_many_arguments)]
fn hi_bounds(
    variant: AmcVariant,
    soa: &SoaTasks,
    order: &[usize],
    from: usize,
    lo_resp: &[Time],
    hp: &mut Vec<usize>,
    streams: &mut Vec<CandStream>,
    slots: &mut Vec<HcSlot>,
    hi_resp: &mut [Option<Time>],
) -> bool {
    match variant {
        // Same certificate-driven monomorphisation as [`lo_rta`].
        AmcVariant::RtbDm if soa.fast() => {
            rtb_kernel::<true>(soa, order, from, lo_resp, hp, hi_resp)
        }
        AmcVariant::RtbDm => rtb_kernel::<false>(soa, order, from, lo_resp, hp, hi_resp),
        AmcVariant::Max => walk_hc(soa, from, hp, |p, hj, lj, _| {
            let i = order[p];
            let bound = max_bound_at(soa, p, hj, lj, lo_resp[i].as_ticks(), streams, slots);
            store(&mut hi_resp[i], bound)
        }),
    }
}

/// The AMC-rtb body of [`hi_bounds`], monomorphised on the fast-kernel
/// certificate.
fn rtb_kernel<const FAST: bool>(
    soa: &SoaTasks,
    order: &[usize],
    from: usize,
    lo_resp: &[Time],
    hp: &mut Vec<usize>,
    hi_resp: &mut [Option<Time>],
) -> bool {
    walk_hc(soa, from, hp, |p, hj, lj, below| {
        let i = order[p];
        let seed = hi_resp[i].map_or(0, Time::as_ticks);
        let bound = rtb_at::<FAST>(soa, p, hj, lj, below, lo_resp[i].as_ticks(), seed);
        store(&mut hi_resp[i], bound)
    })
}

/// Stores a high-mode bound found within the deadline (every bound
/// is: the rtb fixpoint and every switch instant's fixpoint give up
/// past it); `false` when there is none.
#[inline(always)]
fn store(slot: &mut Option<Time>, bound: Option<u64>) -> bool {
    if let Some(r) = bound {
        *slot = Some(Time::new(r));
    }
    bound.is_some()
}

/// Walks the lanes in priority order, calling `f(p, hj, lj, below)` at
/// every HC position `p ≥ from` with the higher-priority HC positions
/// `hj`, the higher-priority LC positions `lj` and `below = Σ_{j∈hj} C^H_j`
/// (saturating); stops with `false` as soon as `f` does.
///
/// The position lists are appended as `p` advances, so the fixpoint
/// loops run over dense index lists instead of testing the
/// (data-random) `hc` flag per element per sweep. `hp` is pre-sized to
/// `2n` and filled through local counters: no push, no allocation once
/// the scratch has grown to the set size.
#[inline(always)]
fn walk_hc(
    soa: &SoaTasks,
    from: usize,
    hp: &mut Vec<usize>,
    mut f: impl FnMut(usize, &[usize], &[usize], u64) -> bool,
) -> bool {
    let n = soa.len();
    if hp.len() < 2 * n {
        hp.resize(2 * n, 0);
    }
    let (hj, lj) = hp.split_at_mut(n);
    let (hc, wh) = (&soa.hc[..n], &soa.wcet_hi[..n]);
    let (mut hn, mut ln) = (0usize, 0usize);
    let mut below = 0u64;
    for p in 0..n {
        if !hc[p] {
            lj[ln] = p;
            ln += 1;
            continue;
        }
        if p >= from && !f(p, &hj[..hn], &lj[..ln], below) {
            return false;
        }
        below = below.saturating_add(wh[p]);
        hj[hn] = p;
        hn += 1;
    }
    true
}

/// The AMC-rtb high-mode response of the task at position `p`, or
/// `None` past its deadline: the least fixed point of
/// `R = C^H_p + Σ_{j∈hj} ⌈R/Tj⌉·C^H_j + Σ_{j∈lj} ⌈lo_cap/Tj⌉·C^L_j`.
///
/// The LC charge depends only on the already-fixed low-mode response
/// `lo_cap`, so it is folded once and each sweep touches only the hp-HC
/// positions. The iteration starts at `max(C^H_p, seed, C^H_p + below +
/// LC charge)`, where `seed` must be a sound lower bound (0 when
/// unknown; see the module docs).
#[inline(always)]
fn rtb_at<const FAST: bool>(
    soa: &SoaTasks,
    p: usize,
    hj: &[usize],
    lj: &[usize],
    below: u64,
    lo_cap: u64,
    seed: u64,
) -> Option<u64> {
    let (wl, wh, per, inv) = (&soa.wcet_lo, &soa.wcet_hi, &soa.period, &soa.inv_period);
    let (ch, dl) = (wh[p], soa.deadline[p]);
    let mut c0 = 0u64;
    for &j in lj {
        c0 = charge::<FAST>(c0, wl[j], lo_cap, per[j], inv[j]);
    }
    let one_job = ch.saturating_add(below).saturating_add(c0);
    let mut r = ch.max(seed).max(one_job);
    // The seed is a sound lower bound on the fixed point, so a seed past
    // the deadline already decides (and keeps fast-kernel iterates below
    // `2^32`).
    if r > dl {
        return None;
    }
    loop {
        let mut acc = c0;
        for &j in hj {
            acc = charge::<FAST>(acc, wh[j], r, per[j], inv[j]);
        }
        let next = ch.saturating_add(acc);
        if next > dl {
            return None;
        }
        if next == r {
            return Some(r);
        }
        r = next;
    }
}

/// One step sequence of a single interference term in the streaming
/// AMC-max candidate walk: fires at `next`, `next + stride`, … until the
/// step point reaches the task's low-mode response time (stepping is
/// saturating, see [`fold_candidates`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CandStream {
    /// The next step instant (`u64::MAX`-saturated once exhausted).
    next: u64,
    /// Distance between steps (the interferer's period).
    stride: u64,
    /// Steps fired so far — the term's current job count.
    count: u64,
    /// Which running quantity a fire updates.
    kind: StreamKind,
}

/// What a [`CandStream`] fire contributes.
#[derive(Debug, Clone, Copy)]
enum StreamKind {
    /// LC interferer: a fire freezes one more `C^L` job into the LC sum.
    Lc {
        /// The interferer's `C^L`.
        cost: u64,
    },
    /// HC interferer bound (deadline- or release-based): a fire raises the
    /// completed-job bound `M(k, s)` of the slot.
    Hc {
        /// Index into the walk's [`HcSlot`] array.
        slot: usize,
    },
}

/// Per-hp-HC-task state of the streaming AMC-max walk: the lane values
/// of its interference term plus the current completed-job bound
/// `M(k, s)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HcSlot {
    wcet_lo: u64,
    wcet_hi: u64,
    period: u64,
    inv_period: u64,
    /// `max(by_deadline(s), by_release(s))` at the walk's current instant.
    m: u64,
}

/// The AMC-max bound of the task at position `p` (higher-priority
/// positions split into `hj` / `lj` and `lo_cap` as in [`rtb_at`]): the
/// worst response over all switch instants, or `None` when some instant
/// is infeasible. No instant charges more than AMC-rtb (see the module
/// docs), so the bound never exceeds the AMC-rtb bound.
///
/// Candidate switch instants are walked by [`fold_candidates`]'s
/// streaming k-way merge instead of materialising, sorting and
/// deduplicating them; the per-candidate interference is delta-updated
/// as streams fire, so each fixpoint iteration only pays one `⌈r/T⌉`
/// per higher-priority HC task and nothing at all for LC tasks. The
/// visited instants and every fixpoint are identical to the seed
/// implementation in `mcsched-oracle`, whose rtb cap never binds.
fn max_bound_at(
    soa: &SoaTasks,
    p: usize,
    hj: &[usize],
    lj: &[usize],
    lo_cap: u64,
    streams: &mut Vec<CandStream>,
    slots: &mut Vec<HcSlot>,
) -> Option<u64> {
    let (ch, dl) = (soa.wcet_hi[p], soa.deadline[p]);
    // max over switch instants; infeasible at any instant → None.
    let mut prev_lc = None;
    fold_candidates(
        soa,
        hj,
        lj,
        lo_cap,
        streams,
        slots,
        0,
        |worst, _s, lc, slots| {
            // Dominance skip (a structural win of the delta-updated walk): if
            // no LC term stepped since the last *evaluated* candidate, only
            // the completed-job bounds `M(k, s)` grew, so the interference
            // function shrank pointwise and this candidate's least fixed
            // point is ≤ the previous one — it can neither raise the max nor
            // turn infeasible. The returned bound and verdict are exactly the
            // seed path's (`s = 0` is always evaluated: `prev_lc` starts
            // unset).
            if prev_lc == Some(lc) {
                return Some(worst);
            }
            prev_lc = Some(lc);
            let r = max_response_at(ch, dl, lc, slots)?;
            Some(worst.max(r))
        },
    )
}

/// AMC-max response at one switch instant, from the walk's running
/// interference state: `lc` is the frozen LC demand at the instant and
/// each [`HcSlot`] carries `M(k, s)`, so the fixpoint body is a single
/// pass over the hp-HC slots. Iterates from `C^H` and saturates like the
/// other lane fixpoints; `None` past the deadline `dl`.
fn max_response_at(ch: u64, dl: u64, lc: u64, slots: &[HcSlot]) -> Option<u64> {
    let mut r = ch;
    loop {
        let mut total = lc;
        for slot in slots {
            let n = dc_inv(r, slot.period, slot.inv_period);
            let m = slot.m.min(n);
            total = total.saturating_add(
                slot.wcet_lo
                    .saturating_mul(m)
                    .saturating_add(slot.wcet_hi.saturating_mul(n - m)),
            );
        }
        let next = ch.saturating_add(total);
        if next > dl {
            return None;
        }
        if next == r {
            return Some(r);
        }
        r = next;
    }
}

/// Folds `f` over every candidate switch instant of a task whose
/// higher-priority positions are `hj` (HC) and `lj` (LC) and whose
/// low-mode response is `r_lo`, in strictly increasing order with
/// coinciding steps merged — exactly the sorted-deduplicated set
/// `{0} ∪ {step points < R^LO}` the seed implementation materialises.
///
/// `f` receives the accumulator, the instant `s`, the frozen LC
/// interference `Σ_{j∈lj} (⌊s/Tj⌋+1)·C^L_j` and the hp-HC slots with
/// their completed-job bounds `M(k, s)` up to date; returning `None`
/// aborts the walk. (Slot and stream order never matters: every sum
/// over them is an order-free saturating sum of non-negative terms.)
#[allow(clippy::too_many_arguments)]
fn fold_candidates<T>(
    soa: &SoaTasks,
    hj: &[usize],
    lj: &[usize],
    r_lo: u64,
    streams: &mut Vec<CandStream>,
    slots: &mut Vec<HcSlot>,
    init: T,
    mut f: impl FnMut(T, u64, u64, &[HcSlot]) -> Option<T>,
) -> Option<T> {
    streams.clear();
    slots.clear();
    let mut lc = 0u64;
    for &j in lj {
        // (⌊s/T⌋+1)·C^L: one job at s = 0, stepping at every multiple
        // of T.
        lc = lc.saturating_add(soa.wcet_lo[j]);
        streams.push(CandStream {
            next: soa.period[j],
            stride: soa.period[j],
            count: 0,
            kind: StreamKind::Lc {
                cost: soa.wcet_lo[j],
            },
        });
    }
    for &j in hj {
        // M(k, s) = max(by_deadline, by_release) steps at D + a·T
        // (deadline bound) and at multiples of T (release bound).
        let slot = slots.len();
        slots.push(HcSlot {
            wcet_lo: soa.wcet_lo[j],
            wcet_hi: soa.wcet_hi[j],
            period: soa.period[j],
            inv_period: soa.inv_period[j],
            m: 0,
        });
        for next in [soa.deadline[j], soa.period[j]] {
            streams.push(CandStream {
                next,
                stride: soa.period[j],
                count: 0,
                kind: StreamKind::Hc { slot },
            });
        }
    }
    // s = 0 is always a candidate.
    let mut acc = f(init, 0, lc, slots)?;
    loop {
        // k-way merge: the earliest pending step strictly below R^LO.
        let mut s = r_lo;
        for stream in streams.iter() {
            if stream.next < s {
                s = stream.next;
            }
        }
        if s >= r_lo {
            return Some(acc);
        }
        // Fire every stream stepping at s (coinciding steps collapse
        // into the one candidate, replacing the seed path's dedup).
        for stream in streams.iter_mut() {
            if stream.next != s {
                continue;
            }
            stream.count += 1;
            match stream.kind {
                // Cannot overflow: the LC demand frozen at any s < R^LO
                // is part of R^LO's own interference.
                StreamKind::Lc { cost } => lc += cost,
                StreamKind::Hc { slot } => {
                    let m = &mut slots[slot].m;
                    *m = (*m).max(stream.count);
                }
            }
            // Saturating stepping is the exact overflow guard: a
            // mathematical next step beyond `u64::MAX` also lies beyond
            // `R^LO ≤ u64::MAX`, and the saturated value fails the
            // `next < r_lo` test just the same, ending the stream instead
            // of wrapping (or panicking) near `Time::MAX`.
            stream.next = stream.next.saturating_add(stream.stride);
        }
        acc = f(acc, s, lc, slots)?;
    }
}

/// Low-mode response-time analysis at `C^L` budgets under
/// deadline-monotonic priorities.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::LoRta;
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 4)?,
///     Task::lo(1, 20, 5)?,
/// ])?;
/// let r = LoRta::compute(&ts).expect("LO-mode schedulable");
/// assert_eq!(r[0].as_ticks(), 2);  // highest priority: runs alone
/// assert_eq!(r[1].as_ticks(), 7);  // 5 + 2·⌈7/10⌉ = 7: fixpoint
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoRta;

impl LoRta {
    /// Computes every task's low-mode response time, in task-set order.
    /// Returns `None` if any task misses its deadline in low mode.
    pub fn compute(ts: &TaskSet) -> Option<Vec<Time>> {
        let order = dm_order(ts);
        Self::compute_with_order(ts, &order)
    }

    /// As [`LoRta::compute`], under a caller-supplied priority order
    /// (indices from highest to lowest priority).
    ///
    /// Runs the SoA lane kernel over pooled workspace lanes; responses
    /// are bit-identical to the seed per-task iteration (see the module
    /// docs).
    // mclint: cold — allocates only the caller-owned result, once per judgement
    pub fn compute_with_order(ts: &TaskSet, order: &[usize]) -> Option<Vec<Time>> {
        let tasks = ts.as_slice();
        let mut resp = vec![Time::ZERO; tasks.len()];
        AnalysisWorkspace::with(|ws| {
            ws.soa.load(tasks, order);
            lo_rta(&ws.soa, order, 0, &mut resp)
        })
        .then_some(resp)
    }
}

/// The one-shot AMC analysis over workspace scratch: the incremental
/// layer's [`analyze_from`] over the workspace's reusable cache, SoA
/// lanes and candidate-walk buffers, so the one-shot and the
/// cache-rebuild paths are literally the same code and the steady-state
/// one-shot path allocates nothing.
fn amc_schedulable_in(ts: &TaskSet, variant: AmcVariant, ws: &mut AnalysisWorkspace) -> bool {
    let AnalysisWorkspace {
        streams,
        hc,
        rtb_pos,
        amc,
        soa,
        ..
    } = ws;
    amc.load(ts.as_slice(), soa);
    analyze_from(variant, soa, 0, streams, hc, rtb_pos, amc)
}

/// The AMC-rtb (response-time bound) schedulability test under
/// deadline-monotonic priorities.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::{AmcRtb, SchedulabilityTest};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 4)?,
///     Task::lo(1, 20, 5)?,
/// ])?;
/// assert!(AmcRtb::new().is_schedulable(&ts));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AmcRtb {
    _priv: (),
}

impl AmcRtb {
    /// Creates the test.
    pub const fn new() -> Self {
        AmcRtb { _priv: () }
    }
}

impl SchedulabilityTest for AmcRtb {
    fn name(&self) -> &'static str {
        "AMC-rtb"
    }
    fn is_schedulable(&self, ts: &TaskSet) -> bool {
        AnalysisWorkspace::with(|ws| self.is_schedulable_in(ts, ws))
    }

    fn is_schedulable_in(&self, ts: &TaskSet, ws: &mut AnalysisWorkspace) -> bool {
        amc_schedulable_in(ts, AmcVariant::RtbDm, ws)
    }

    // mclint: cold — one boxed state per session, reused across every probe
    fn admission_state_in(&self, ws: &WorkspaceRef) -> Box<dyn AdmissionState + '_> {
        Box::new(AmcState::with_workspace(AmcVariant::RtbDm, ws.clone()))
    }
}

/// The AMC-max schedulability test (the variant the DATE 2017 paper uses
/// for its "AMC" results).
///
/// Dominates [`AmcRtb`]: the returned response bound is the minimum of the
/// switch-instant enumeration and the rtb bound.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::{AmcMax, SchedulabilityTest};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 4)?,
///     Task::hi(1, 25, 3, 7)?,
///     Task::lo(2, 20, 5)?,
/// ])?;
/// assert!(AmcMax::new().is_schedulable(&ts));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AmcMax {
    _priv: (),
}

impl AmcMax {
    /// Creates the test.
    pub const fn new() -> Self {
        AmcMax { _priv: () }
    }
}

impl SchedulabilityTest for AmcMax {
    fn name(&self) -> &'static str {
        "AMC-max"
    }
    fn is_schedulable(&self, ts: &TaskSet) -> bool {
        AnalysisWorkspace::with(|ws| self.is_schedulable_in(ts, ws))
    }

    fn is_schedulable_in(&self, ts: &TaskSet, ws: &mut AnalysisWorkspace) -> bool {
        amc_schedulable_in(ts, AmcVariant::Max, ws)
    }

    // mclint: cold — one boxed state per session, reused across every probe
    fn admission_state_in(&self, ws: &WorkspaceRef) -> Box<dyn AdmissionState + '_> {
        Box::new(AmcState::with_workspace(AmcVariant::Max, ws.clone()))
    }
}

/// Which AMC analysis an [`AmcState`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AmcVariant {
    /// AMC-rtb under deadline-monotonic priorities.
    RtbDm,
    /// AMC-max under deadline-monotonic priorities.
    Max,
}

/// The cached per-processor analysis of a committed, schedulable set:
/// the DM priority order plus every response-time fixed point. The
/// one-shot path reuses the same type as workspace scratch (see
/// [`amc_schedulable_in`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct AmcCache {
    /// Task indices from highest to lowest priority.
    order: Vec<usize>,
    /// Low-mode response time per task index.
    lo_resp: Vec<Time>,
    /// High-mode response bound per task index (`None` for LC tasks).
    hi_resp: Vec<Option<Time>>,
}

impl AmcCache {
    /// Empties the cache, keeping the buffers for reuse.
    fn clear(&mut self) {
        self.order.clear();
        self.lo_resp.clear();
        self.hi_resp.clear();
    }

    /// Prepares a full analysis of `tasks`: their DM order, `soa`
    /// loaded in that order, and cold (zero) seeds for every response.
    fn load(&mut self, tasks: &[Task], soa: &mut SoaTasks) {
        self.clear();
        dm_order_into(tasks, &mut self.order);
        soa.load(tasks, &self.order);
        self.lo_resp.resize(tasks.len(), Time::ZERO);
        self.hi_resp.resize(tasks.len(), None);
    }
}

/// Incremental admission for the AMC response-time analyses.
///
/// Inserting a candidate into the deadline-monotonic order leaves every
/// higher-priority task's analysis untouched (its higher-priority set is
/// unchanged), so those response times are reused verbatim; the candidate
/// and the tasks below it re-run their fixed-point iterations
/// **warm-started** from the previous responses, which converge to the
/// same least fixed points (see the module docs) — the verdict is
/// exactly the one-shot test's, at a fraction of the iterations.
/// All buffers — the committed cache, the candidate scratch cache and the
/// shared [`AnalysisWorkspace`] — are reused across admission queries, so
/// the steady-state probe path performs no heap allocations (pinned by
/// `tests/zero_alloc.rs`).
#[derive(Debug, Clone)]
pub struct AmcState {
    variant: AmcVariant,
    committed: Committed,
    /// The committed set's analysis; meaningful only while `cache_valid`
    /// (an invalid cache forces the next query onto the full-analysis
    /// path, exactly as the seed behaviour after an unchecked commit).
    cache: AmcCache,
    cache_valid: bool,
    /// The analysis computed by the last successful `try_admit`
    /// (`pending` names its task), adopted by a matching `commit` with a
    /// buffer swap instead of a re-run.
    scratch: AmcCache,
    pending: Option<TaskId>,
    /// Where `commit` must insert the pending task's lanes into `soa`
    /// (`None` when the probing path already left `soa` holding the
    /// union, as the full-analysis fallback does).
    pending_insert: Option<usize>,
    /// SoA lane view of the committed set in `cache.order` — maintained
    /// by delta under probes/commits so the lane kernels never rebuild
    /// it. Meaningful only while `cache_valid`.
    soa: SoaTasks,
    /// Scratch buffers shared with the other states of the same
    /// partitioning run.
    ws: WorkspaceRef,
}

impl AmcState {
    fn with_workspace(variant: AmcVariant, ws: WorkspaceRef) -> Self {
        AmcState {
            variant,
            committed: Committed::default(),
            cache: AmcCache::default(),
            cache_valid: true,
            scratch: AmcCache::default(),
            pending: None,
            pending_insert: None,
            soa: SoaTasks::default(),
            ws,
        }
    }

    fn rebuild_cache(&mut self) {
        self.pending = None;
        self.pending_insert = None;
        let mut ws = self.ws.borrow_mut();
        let ws = &mut *ws;
        self.cache
            .load(self.committed.tasks.as_slice(), &mut self.soa);
        self.cache_valid = analyze_from(
            self.variant,
            &self.soa,
            0,
            &mut ws.streams,
            &mut ws.hc,
            &mut ws.rtb_pos,
            &mut self.cache,
        );
    }
}

/// The one AMC analysis body: low-mode RTA, then the variant's high-mode
/// bounds, for the priority positions `p..` of `out.order` (whose lane
/// view is `soa`). `out.lo_resp` / `out.hi_resp` must hold the
/// responses of the positions above `p` and the seeds of the rest (see
/// [`lo_rta`] / [`hi_bounds`]): the full analysis is `p = 0` after
/// [`AmcCache::load`], an admission probe the cached prefix with warm
/// seeds. `streams` / `slots` are candidate-walk scratch and `hp` the
/// position-list scratch. Returns `false` iff some task at or below `p`
/// misses its deadline — `out` is then partial and must be treated as
/// invalid.
fn analyze_from(
    variant: AmcVariant,
    soa: &SoaTasks,
    p: usize,
    streams: &mut Vec<CandStream>,
    slots: &mut Vec<HcSlot>,
    hp: &mut Vec<usize>,
    out: &mut AmcCache,
) -> bool {
    let AmcCache {
        order,
        lo_resp,
        hi_resp,
    } = out;
    lo_rta(soa, order, p, lo_resp)
        && hi_bounds(variant, soa, order, p, lo_resp, hp, streams, slots, hi_resp)
}

/// DM insertion position of `cand` in the cached (sorted,
/// duplicate-free) priority order.
fn dm_insert_pos(committed: &[Task], cache: &AmcCache, cand: &Task) -> usize {
    let key = (cand.deadline(), cand.id());
    cache
        .order
        .partition_point(|&i| (committed[i].deadline(), committed[i].id()) < key)
}

/// The incremental admission query: reuse the prefix above the insertion
/// point `p`, warm-start the suffix from the cached bounds (sound lower
/// bounds on the new fixed points — see the module docs). `soa` must
/// hold the committed lanes with the candidate's already inserted at `p`
/// (the caller's delta update); the analysis reads nothing else of the
/// candidate. The analysis lands in `out`, reused across probes. Returns
/// `false` iff the one-shot test rejects the union.
#[allow(clippy::too_many_arguments)]
fn admit_incremental_into(
    cache: &AmcCache,
    p: usize,
    variant: AmcVariant,
    soa: &SoaTasks,
    streams: &mut Vec<CandStream>,
    slots: &mut Vec<HcSlot>,
    hp: &mut Vec<usize>,
    out: &mut AmcCache,
) -> bool {
    let n = cache.order.len();
    out.clear();
    out.order.extend_from_slice(&cache.order[..p]);
    out.order.push(n);
    out.order.extend_from_slice(&cache.order[p..]);

    // Positions above p are untouched: identical inputs, identical
    // responses. The suffix warm-starts from its previous responses, the
    // candidate (task index n) cold.
    debug_assert_eq!(cache.lo_resp.len(), n);
    out.lo_resp.extend_from_slice(&cache.lo_resp);
    out.lo_resp.push(Time::ZERO);
    out.hi_resp.extend_from_slice(&cache.hi_resp);
    out.hi_resp.push(None);
    analyze_from(variant, soa, p, streams, slots, hp, out)
}

impl AdmissionState for AmcState {
    fn try_admit(&mut self, task: &Task) -> bool {
        let mut ws = self.ws.borrow_mut();
        let ws = &mut *ws;
        let mut insert_at = None;
        let ok = if self.cache_valid {
            let committed = self.committed.tasks.as_slice();
            let p = dm_insert_pos(committed, &self.cache, task);
            // Fixpoints the probe can warm-start from cached bounds: the
            // whole committed suffix at or below the insertion point.
            let warm = (committed.len() - p)
                + match self.variant {
                    AmcVariant::RtbDm => self.soa.hc[p..].iter().filter(|&&hc| hc).count(),
                    AmcVariant::Max => 0,
                };
            self.committed.stats.rta_seeded += warm as u64;
            // Delta-update the lane view for the probe, undone below —
            // commit() re-inserts if the probe's analysis is adopted.
            self.soa.insert(p, task);
            let ok = admit_incremental_into(
                &self.cache,
                p,
                self.variant,
                &self.soa,
                &mut ws.streams,
                &mut ws.hc,
                &mut ws.rtb_pos,
                &mut self.scratch,
            );
            self.soa.remove(p);
            insert_at = Some(p);
            self.committed.record(true, ok);
            ok
        } else {
            // Committed set not known schedulable (e.g. after an
            // unchecked commit): fall back to a full analysis of the
            // union, exactly the one-shot verdict. The load leaves
            // `soa` holding the union's lanes, which is precisely the
            // committed view if this probe gets committed.
            let AnalysisWorkspace {
                tasks,
                streams,
                hc,
                rtb_pos,
                ..
            } = ws;
            tasks.clear();
            tasks.extend_from_slice(self.committed.tasks.as_slice());
            tasks.push(*task);
            self.scratch.load(tasks, &mut self.soa);
            let ok = analyze_from(
                self.variant,
                &self.soa,
                0,
                streams,
                hc,
                rtb_pos,
                &mut self.scratch,
            );
            self.committed.record(false, ok);
            ok
        };
        self.pending = if ok { Some(task.id()) } else { None };
        self.pending_insert = if ok { insert_at } else { None };
        ok
    }

    fn commit(&mut self, task: Task) {
        match self.pending.take() {
            Some(id) if id == task.id() => {
                if let Some(p) = self.pending_insert.take() {
                    self.soa.insert(p, &task);
                }
                self.committed.push(task);
                // Adopt the probe's analysis by swapping buffers — the
                // displaced cache becomes the next probe's scratch.
                std::mem::swap(&mut self.cache, &mut self.scratch);
                self.cache_valid = true;
            }
            _ => {
                self.committed.push(task);
                self.rebuild_cache();
            }
        }
    }

    fn remove(&mut self, id: TaskId) -> bool {
        if self.committed.remove(id).is_none() {
            return false;
        }
        self.rebuild_cache();
        true
    }

    fn summary(&self) -> SystemUtilization {
        self.committed.summary
    }

    fn tasks(&self) -> &TaskSet {
        &self.committed.tasks
    }

    fn take_tasks(&mut self) -> TaskSet {
        let tasks = self.committed.take();
        self.pending = None;
        self.pending_insert = None;
        self.cache.clear();
        self.soa.clear();
        self.cache_valid = true;
        tasks
    }

    fn stats(&self) -> AdmissionStats {
        self.committed.stats
    }
}

/// The lane-kernel AMC-rtb analysis: `None` when low-mode RTA fails,
/// otherwise `(verdict, bounds)` where `bounds[i]` is the high-mode bound
/// of HC task `i` **if its fixpoint was reached** (on a `false` verdict
/// the kernel stops at the first infeasible task, so later tasks stay
/// `None`). On a `true` verdict every HC bound must equal the seed
/// AMC-rtb response of `mcsched-oracle` bit-identically.
#[doc(hidden)]
// mclint: cold — equivalence-suite entry point; allocates caller-owned results once per call
pub fn amc_rtb_bounds(ts: &TaskSet) -> Option<(bool, Vec<Option<Time>>)> {
    AnalysisWorkspace::with(|ws| {
        let AnalysisWorkspace {
            streams,
            hc,
            rtb_pos,
            amc,
            soa,
            ..
        } = ws;
        amc.load(ts.as_slice(), soa);
        if !lo_rta(soa, &amc.order, 0, &mut amc.lo_resp) {
            return None;
        }
        let verdict = hi_bounds(
            AmcVariant::RtbDm,
            soa,
            &amc.order,
            0,
            &amc.lo_resp,
            rtb_pos,
            streams,
            hc,
            &mut amc.hi_resp,
        );
        Some((verdict, amc.hi_resp.clone()))
    })
}

/// The candidate switch instants the streaming AMC-max walk visits for
/// `task_index`, in visit order; `None` when the set fails low-mode RTA.
/// Must equal the seed's sorted-deduplicated candidates exactly.
#[doc(hidden)]
// mclint: cold — equivalence-suite witness; materialises for comparison only
pub fn amc_max_candidates_streamed(ts: &TaskSet, task_index: usize) -> Option<Vec<Time>> {
    with_lanes_at(ts, task_index, |soa, _, hj, lj, r_lo, streams, slots| {
        fold_candidates(
            soa,
            hj,
            lj,
            r_lo,
            streams,
            slots,
            Vec::new(),
            |mut acc, s, _, _| {
                acc.push(Time::new(s));
                Some(acc)
            },
        )
        .expect("collection never aborts")
    })
}

/// The streaming AMC-max response bound of `task_index`; outer `None`
/// when the set fails low-mode RTA, inner `None` when some switch
/// instant is infeasible. Must equal the seed bound (rtb cap included)
/// exactly.
#[doc(hidden)]
// mclint: cold — equivalence-suite witness; allocates its position lists per call
pub fn amc_max_bound_streamed(ts: &TaskSet, task_index: usize) -> Option<Option<Time>> {
    with_lanes_at(ts, task_index, |soa, p, hj, lj, r_lo, streams, slots| {
        max_bound_at(soa, p, hj, lj, r_lo, streams, slots).map(Time::new)
    })
}

/// Runs `f(soa, p, hj, lj, r_lo, streams, slots)` for the task
/// `task_index` of `ts` at its DM position `p`, over the lanes and the
/// low-mode responses of the hot path; `None` when low-mode RTA fails.
// mclint: cold — witness plumbing; allocates the position lists per call
fn with_lanes_at<R>(
    ts: &TaskSet,
    task_index: usize,
    f: impl FnOnce(
        &SoaTasks,
        usize,
        &[usize],
        &[usize],
        u64,
        &mut Vec<CandStream>,
        &mut Vec<HcSlot>,
    ) -> R,
) -> Option<R> {
    AnalysisWorkspace::with(|ws| {
        let AnalysisWorkspace {
            streams,
            hc,
            amc,
            soa,
            ..
        } = ws;
        amc.load(ts.as_slice(), soa);
        if !lo_rta(soa, &amc.order, 0, &mut amc.lo_resp) {
            return None;
        }
        let p = amc.order.iter().position(|&i| i == task_index)?;
        let (hj, lj): (Vec<usize>, Vec<usize>) = (0..p).partition(|&j| soa.hc[j]);
        let r_lo = amc.lo_resp[task_index].as_ticks();
        Some(f(soa, p, &hj, &lj, r_lo, streams, hc))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_model::Task;

    fn set(tasks: Vec<Task>) -> TaskSet {
        TaskSet::try_from_tasks(tasks).unwrap()
    }

    #[test]
    fn dm_order_sorts_by_deadline() {
        let ts = set(vec![
            Task::lo(0, 30, 1).unwrap(),
            Task::hi(1, 10, 1, 2).unwrap(),
            Task::lo_constrained(2, 40, 1, 5).unwrap(),
        ]);
        assert_eq!(dm_order(&ts), vec![2, 1, 0]);
    }

    /// The 19-comparator 8-input network in `dm_order_into`, checked by
    /// the 0-1 principle: a comparator network sorts every input iff it
    /// sorts all 2^8 zero-one vectors.
    #[test]
    fn dm_sorting_network_is_correct() {
        for bits in 0u16..256 {
            let mut keys: [u128; 8] = core::array::from_fn(|i| u128::from(bits >> i & 1));
            cas_sort8(&mut keys);
            assert!(keys.windows(2).all(|w| w[0] <= w[1]), "bits {bits:#010b}");
        }
    }

    /// The network path (n ≤ 8), the packed-key path (n ≤ 64), and the
    /// comparator fallback must order identically across the boundary
    /// sizes, including deadline ties broken by id.
    #[test]
    fn dm_order_paths_agree() {
        for n in [1usize, 7, 8, 9, 16] {
            let tasks: Vec<Task> = (0..n)
                .map(|i| {
                    // Deliberate deadline collisions (i / 2) force the
                    // id tiebreak.
                    Task::lo_constrained(i as u32, 100, 1, 10 + (i as u64 / 2)).unwrap()
                })
                .collect();
            let mut idx = Vec::new();
            dm_order_into(&tasks, &mut idx);
            let mut want: Vec<usize> = (0..n).collect();
            want.sort_by_key(|&i| (tasks[i].deadline(), tasks[i].id()));
            assert_eq!(idx, want, "n = {n}");
        }
        // Deadlines past 2^32 and ids past 2^16 leave the packed-u64
        // route for the u128 network; the order must not change.
        let tasks: Vec<Task> = (0..6)
            .map(|i| {
                Task::lo_constrained(u32::MAX - i, 1 << 40, 1, (1 << 33) + u64::from(i / 2))
                    .unwrap()
            })
            .collect();
        let mut idx = Vec::new();
        dm_order_into(&tasks, &mut idx);
        let mut want: Vec<usize> = (0..6).collect();
        want.sort_by_key(|&i| (tasks[i].deadline(), tasks[i].id()));
        assert_eq!(idx, want, "u128 fallback");
    }

    #[test]
    fn lo_rta_basic() {
        let ts = set(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 5).unwrap(),
        ]);
        let r = LoRta::compute(&ts).unwrap();
        assert_eq!(r[0], Time::new(2));
        // τ1: R = 5 + ⌈R/10⌉·2 → R = 7.
        assert_eq!(r[1], Time::new(7));
    }

    #[test]
    fn lo_rta_detects_miss() {
        let ts = set(vec![
            Task::lo_constrained(0, 10, 5, 5).unwrap(),
            Task::lo_constrained(1, 10, 5, 6).unwrap(),
        ]);
        assert!(LoRta::compute(&ts).is_none());
    }

    #[test]
    fn lo_rta_multiple_preemptions() {
        let ts = set(vec![
            Task::lo(0, 5, 2).unwrap(),
            Task::lo(1, 20, 6).unwrap(),
        ]);
        let r = LoRta::compute(&ts).unwrap();
        // τ1: R = 6 + 2·⌈R/5⌉ converges at R = 10 (6 + 2·⌈10/5⌉ = 10).
        assert_eq!(r[1], Time::new(10));
    }

    #[test]
    fn amc_accepts_simple_mixed_set() {
        let ts = set(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 5).unwrap(),
        ]);
        assert!(AmcRtb::new().is_schedulable(&ts));
        assert!(AmcMax::new().is_schedulable(&ts));
    }

    #[test]
    fn amc_rejects_hi_mode_overload() {
        let ts = set(vec![
            Task::hi(0, 10, 2, 6).unwrap(),
            Task::hi(1, 10, 2, 5).unwrap(),
        ]);
        assert!(!AmcRtb::new().is_schedulable(&ts));
        assert!(!AmcMax::new().is_schedulable(&ts));
    }

    #[test]
    fn amc_rejects_lo_mode_miss() {
        let ts = set(vec![
            Task::lo_constrained(0, 10, 5, 5).unwrap(),
            Task::hi_constrained(1, 10, 4, 4, 6).unwrap(),
        ]);
        // DM: τ0 (D=5) above τ1 (D=6); τ1 LO response = 4+5 = 9 > 6.
        assert!(!AmcRtb::new().is_schedulable(&ts));
        assert!(!AmcMax::new().is_schedulable(&ts));
    }

    #[test]
    fn amc_max_dominates_rtb_on_grid() {
        // Grid sweep: every rtb-accepted set must be max-accepted.
        for ch in 3..=8u64 {
            for cl2 in 1..=4u64 {
                for c3 in 1..=6u64 {
                    let ts = set(vec![
                        Task::hi(0, 12, 2, ch).unwrap(),
                        Task::hi(1, 20, cl2, cl2 + 3).unwrap(),
                        Task::lo(2, 15, c3).unwrap(),
                    ]);
                    let rtb = AmcRtb::new().is_schedulable(&ts);
                    let mx = AmcMax::new().is_schedulable(&ts);
                    if rtb {
                        assert!(mx, "AMC-max rejected an AMC-rtb set: {ts}");
                    }
                }
            }
        }
    }

    #[test]
    fn amc_max_strictly_beats_rtb() {
        // Hand-constructed instance where enumerating switch instants pays:
        // DM order τb (D=14), τa (D=15), τi (D=48).
        // R^LO_i = 23; AMC-rtb gives R = 52 > 48 (LC charged ⌈23/15⌉ = 2
        // jobs and all τb jobs at C^H = 10 over the large window), while
        // every switch instant s ∈ {0, 14, 15, 20} yields R(s) ≤ 37:
        // early s freezes LC at one job, late s lets M(b, s) charge τb's
        // completed job at C^L = 2.
        let ts = set(vec![
            Task::lo(0, 15, 5).unwrap(),
            Task::hi_constrained(1, 20, 2, 10, 14).unwrap(),
            Task::hi_constrained(2, 60, 9, 12, 48).unwrap(),
        ]);
        assert!(!AmcRtb::new().is_schedulable(&ts), "rtb should reject");
        assert!(AmcMax::new().is_schedulable(&ts), "max should accept");
    }

    #[test]
    fn lc_tasks_ignored_after_switch() {
        // A heavy LC task below a HC task in priority affects only the
        // LO-mode phase of the HC task's analysis.
        let ts = set(vec![
            Task::hi_constrained(0, 100, 10, 40, 60).unwrap(),
            Task::lo(1, 100, 50).unwrap(),
        ]);
        // DM: τ0 (D=60) above τ1 (D=100): τ1's interference is irrelevant to
        // τ0. τ0 passes trivially; τ1 needs 50 + 10 = 60 ≤ 100 in LO.
        assert!(AmcMax::new().is_schedulable(&ts));
    }

    #[test]
    fn hc_only_and_lc_only_sets() {
        let hc_only = set(vec![
            Task::hi(0, 10, 1, 3).unwrap(),
            Task::hi(1, 14, 2, 5).unwrap(),
        ]);
        assert!(AmcMax::new().is_schedulable(&hc_only));
        let lc_only = set(vec![
            Task::lo(0, 10, 4).unwrap(),
            Task::lo(1, 14, 5).unwrap(),
        ]);
        assert!(AmcMax::new().is_schedulable(&lc_only));
        assert!(AmcRtb::new().is_schedulable(&lc_only));
    }

    #[test]
    fn empty_set() {
        assert!(AmcRtb::new().is_schedulable(&TaskSet::new()));
        assert!(AmcMax::new().is_schedulable(&TaskSet::new()));
    }

    #[test]
    fn names() {
        assert_eq!(AmcRtb::new().name(), "AMC-rtb");
        assert_eq!(AmcMax::new().name(), "AMC-max");
    }

    #[test]
    fn incremental_states_match_one_shot_exactly() {
        use crate::incremental::clone_and_retest;
        // Deadlines chosen so successive insertions land at the top,
        // middle and bottom of the DM order (exercising prefix reuse and
        // warm-started suffixes), including a constrained deadline.
        let sequence = vec![
            Task::hi(0, 30, 3, 6).unwrap(),
            Task::lo(1, 10, 2).unwrap(),
            Task::hi_constrained(2, 25, 2, 5, 20).unwrap(),
            Task::lo_constrained(3, 12, 1, 5).unwrap(),
            Task::hi(4, 40, 4, 9).unwrap(),
            Task::lo(5, 15, 3).unwrap(),
            Task::hi(6, 18, 2, 4).unwrap(),
        ];
        let tests: Vec<Box<dyn SchedulabilityTest>> =
            vec![Box::new(AmcRtb::new()), Box::new(AmcMax::new())];
        for test in &tests {
            let test = test.as_ref();
            let mut state = test.admission_state_in(&WorkspaceRef::new());
            for t in &sequence {
                let expected = clone_and_retest(test, state.tasks(), t);
                assert_eq!(state.try_admit(t), expected, "{} on {t}", test.name());
                if expected {
                    state.commit(*t);
                }
            }
            // Remove a mid-priority task; the rebuilt cache must keep
            // agreeing with the one-shot test.
            assert!(state.remove(TaskId(2)));
            let back = sequence[2];
            let expected = clone_and_retest(test, state.tasks(), &back);
            assert_eq!(state.try_admit(&back), expected, "{} re-admit", test.name());
            if expected {
                state.commit(back);
            }
            // Overload is rejected just like the one-shot test.
            let heavy = Task::hi(9, 10, 6, 9).unwrap();
            let expected = clone_and_retest(test, state.tasks(), &heavy);
            assert_eq!(state.try_admit(&heavy), expected);
        }
    }

    #[test]
    fn uncommitted_admit_then_commit_of_other_task_rebuilds() {
        // commit() without a matching try_admit must stay correct (the
        // cache is rebuilt from scratch).
        let test = AmcMax::new();
        let mut state = test.admission_state_in(&WorkspaceRef::new());
        let a = Task::hi(0, 10, 2, 4).unwrap();
        let b = Task::lo(1, 20, 5).unwrap();
        assert!(state.try_admit(&a));
        state.commit(b); // not the task we admitted
        state.commit(a);
        let c = Task::lo(2, 30, 4).unwrap();
        let expected = crate::incremental::clone_and_retest(&test, state.tasks(), &c);
        assert_eq!(state.try_admit(&c), expected);
    }

    #[test]
    fn candidate_stepping_survives_near_max_times() {
        // Regression: the seed stepping loop (`t += period`) overflowed
        // u64 arithmetic when a step sequence approached Time::MAX; the
        // streaming walk saturates instead, which is exact (a step beyond
        // u64::MAX is also beyond R^LO).
        let big = 1u64 << 63;
        let ts = set(vec![
            Task::hi_constrained(0, big + 2, 1, 1, big).unwrap(),
            Task::hi_constrained(1, big + 100, big + 10, big + 10, big + 50).unwrap(),
        ]);
        // R^LO_1 = 2^63 + 12: τ0's deadline stream fires once (at D = 2^63)
        // and its release stream once (at T = 2^63 + 2); both next steps
        // exceed u64::MAX and must end the streams, not wrap or panic.
        let cands = amc_max_candidates_streamed(&ts, 1).expect("LO feasible");
        assert_eq!(cands, vec![Time::ZERO, Time::new(big), Time::new(big + 2)],);
        // The full tests run without panicking on the same set.
        assert!(AmcMax::new().is_schedulable(&ts));
        assert!(AmcRtb::new().is_schedulable(&ts));
        // And the incremental state handles it identically.
        let test = AmcMax::new();
        let mut state = test.admission_state_in(&WorkspaceRef::new());
        assert!(state.try_admit(&ts.as_slice()[0]));
        state.commit(ts.as_slice()[0]);
        assert!(state.try_admit(&ts.as_slice()[1]));
    }

    #[test]
    fn dc_inv_is_exact() {
        // The reciprocal division must agree with the hardware divide on
        // every input: structured edges plus a deterministic random sweep
        // over the full u64 range.
        let edges = [
            0u64,
            1,
            2,
            3,
            5,
            7,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let check = |a: u64, b: u64| {
            let m = crate::workspace::inv64(b);
            assert_eq!(dc_inv(a, b, m), dc(a, b), "dc_inv({a}, {b}) diverged");
        };
        for &b in &edges[1..] {
            for &a in &edges {
                check(a, b);
                check(a.saturating_add(1), b);
                check(a.wrapping_sub(1), b);
                check(a, b.saturating_add(1));
            }
        }
        // xorshift64* sweep: divisors and dividends across all magnitudes.
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200_000 {
            let a = next();
            let b = next().max(1);
            check(a, b);
            check(a, b >> (b % 63) as u32 | 1);
            check(a >> (a % 63) as u32, b);
        }
    }

    #[test]
    fn df_inv_is_exact() {
        // The guarded floor reciprocal must agree with the hardware
        // divide on every input, like its ceiling sibling above.
        let edges = [
            0u64,
            1,
            2,
            3,
            5,
            7,
            (1 << 32) - 1,
            1 << 32,
            (1 << 32) + 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 1,
            u64::MAX,
        ];
        let check = |a: u64, b: u64| {
            let m = crate::workspace::inv64(b);
            assert_eq!(df_inv(a, b, m), a / b, "df_inv({a}, {b}) diverged");
        };
        for &b in &edges[1..] {
            for &a in &edges {
                check(a, b);
                check(a.saturating_add(1), b);
                check(a.wrapping_sub(1), b);
                check(a, b.saturating_add(1));
            }
        }
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200_000 {
            let a = next();
            let b = next().max(1);
            check(a, b);
            check(a, b >> (b % 63) as u32 | 1);
            check(a >> (a % 63) as u32, b);
        }
    }

    #[test]
    fn df_fast_is_exact_in_the_certified_regime() {
        // No-fixup floor: exact whenever a·b < 2^64 and b ≥ 2 — in
        // particular for every a, b < 2^32 (the demand certificate).
        let mut x = 0x517cc1b727220a95u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..200_000 {
            let a = next() & ((1 << 32) - 1);
            let b = (next() & ((1 << 32) - 1)).max(2);
            let m1 = crate::workspace::inv64(b).wrapping_add(1);
            assert_eq!(df_fast(a, m1), a / b, "df_fast({a}, {b}) diverged");
        }
        // Boundary of the licence: the largest certified operands.
        let b = (1u64 << 32) - 1;
        let m1 = crate::workspace::inv64(b).wrapping_add(1);
        for a in [(1u64 << 32) - 1, (1 << 32) - 2, 1, 0] {
            assert_eq!(df_fast(a, m1), a / b);
        }
    }
}
