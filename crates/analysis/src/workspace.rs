// mclint: hot-path
//! Reusable scratch buffers for the analysis hot path.
//!
//! The schedulability tests sit inside the partitioning inner loop: the
//! headline acceptance-ratio sweeps run them millions of times. Before
//! this module existed, every call re-allocated its intermediate vectors
//! (priority orders, response-time arrays, candidate switch instants,
//! virtual-deadline workspaces). An [`AnalysisWorkspace`] owns all of
//! those buffers once; the analyses `clear()` and refill them, so the
//! steady-state path performs **zero heap allocations** (asserted by the
//! counting-allocator test in `tests/zero_alloc.rs`).
//!
//! Two ways to get one:
//!
//! * [`AnalysisWorkspace::with`] — borrow a workspace from the
//!   thread-local pool for the duration of a closure. This is what the
//!   native tests' [`SchedulabilityTest::is_schedulable`] wrappers use, so
//!   repeated one-shot calls on the same thread reuse the same buffers.
//! * [`WorkspaceRef`] — a cheaply cloneable shared handle
//!   (`Rc<RefCell<…>>`). `Partition::build_reporting` passes one handle to
//!   all `m` per-processor admission states
//!   ([`SchedulabilityTest::admission_state_in`]), so a whole partitioning
//!   run shares a single set of scratch buffers. The experiment engine
//!   creates one handle per worker thread.
//!
//! No *verdict* ever depends on a workspace buffer's previous contents,
//! so sharing or pooling workspaces cannot change an analysis outcome
//! (the equivalence suites in `tests/` pin this). Two caveats for
//! maintainers: the embedded demand kernel's reuse *counters* survive
//! `load()`/`clear()` by design (they describe the kernel's lifetime,
//! and accumulate across whatever analyses share a pooled workspace),
//! and warm kernel state is only *useful* when it describes one
//! processor's committed set — which is why `VdTuneState` owns a
//! private kernel instead of sharing `ws.demand` (a shared one would be
//! clobbered between probes; verdicts would stay correct, but the
//! probe-to-probe memo reuse would silently vanish).
//!
//! ## The demand fast-kernel certificate
//!
//! `DemandSoa` carries the demand stack's analogue of the response
//! -time certificate on `SoaTasks::fast`. Its argument (the QPA
//! counterpart of the Kleene note in `amc.rs`): when every `C^L`, `C^H`
//! is in `[1, 2^32)`, every `T` in `[2, 2^32)`, every `D = V + d` below
//! `2^32`, and the worst-case demand budget
//! `Σ_j max(C^L_j, C^H_j)·(⌊(2^32−1)/T_j⌋ + 1)` leaves headroom below
//! `2^63`, then at every evaluation instant `t < 2^32` each `dbf` step
//! term is bounded by its budget charge and the lane accumulator stays
//! below `2^63` — so plain `+`/`*` compute the same values the
//! saturating guarded sweep would — and every floor operand pair
//! satisfies `(t − V)·T < 2^64`, making the no-fixup reciprocal floor
//! division exact (`df_fast` in `amc.rs`). QPA descents only ever move
//! *down* from their start bound, so a single `bound < 2^32` test at
//! descent entry certifies every instant the descent will visit;
//! larger windows take the guarded saturating route unchanged. The
//! certificate is maintained *reversibly* (integer `slow_tasks` count
//! plus exact `u128` budget, charged on push and refunded on pop), and
//! `replace_vd` never touches it: the charge depends only on
//! `(C^L, C^H, T, D)`, and `V + d = D` is invariant under retargeting.
//!
//! [`SchedulabilityTest::is_schedulable`]: crate::SchedulabilityTest::is_schedulable
//! [`SchedulabilityTest::admission_state_in`]: crate::SchedulabilityTest::admission_state_in

use crate::amc::{AmcCache, CandStream, HcSlot};
use crate::demand::DemandKernel;
use crate::vdtune::Move;
use mcsched_model::{Criticality, Task};
use std::cell::{RefCell, RefMut};
use std::ops::Deref;
use std::rc::Rc;

/// Structure-of-arrays task view for the response-time lane kernels.
///
/// One position per task, **highest priority first** (whatever priority
/// order the caller loads). Contiguous lanes (`wcet_lo` / `wcet_hi` /
/// `period` / `inv_period` / `deadline` / `hc`) turn the RTA
/// interference sum into straight-line integer arithmetic over adjacent
/// memory — no pointer-chasing through `Task` structs. The AMC-rtb kernel
/// splits the positions by criticality on the fly, from the `hc` lane.
///
/// Maintained by delta under admission probes: [`SoaTasks::insert`]
/// shifts the lanes (an `O(n)` memmove of plain integers) and
/// [`SoaTasks::remove`] undoes it, so a probe never rebuilds the view
/// and never allocates once the buffers have grown to the processor's
/// high-water mark (pinned by `tests/zero_alloc.rs`).
#[derive(Debug, Clone, Default)]
pub(crate) struct SoaTasks {
    /// `C^L` per position.
    pub(crate) wcet_lo: Vec<u64>,
    /// `C^H` per position (`== C^L` for LC tasks).
    pub(crate) wcet_hi: Vec<u64>,
    /// `T` per position.
    pub(crate) period: Vec<u64>,
    /// [`inv64`] reciprocal of `T` per position, so the fixpoint sweeps
    /// divide by multiplying (computed once per load/insert, reused by
    /// every probe).
    pub(crate) inv_period: Vec<u64>,
    /// `D` per position.
    pub(crate) deadline: Vec<u64>,
    /// Criticality per position (`true` = HC).
    pub(crate) hc: Vec<bool>,
    /// Loaded tasks failing the per-task half of the fast-kernel
    /// certificate (see [`SoaTasks::fast`]).
    slow_tasks: usize,
    /// Exact worst-case interference budget of the loaded tasks (see
    /// [`SoaTasks::fast`]); `u128` so delta updates add and subtract the
    /// per-task contribution without saturation losing information.
    fast_budget: u128,
}

/// Per-task half of the fast-kernel certificate over raw lane values
/// (see [`SoaTasks::fast`]): the bounds predicate and the exact
/// worst-case interference charge `max(C^L, C^H)·⌈(2^32−1)/T⌉`.
fn cert_values(wl: u64, wh: u64, t: u64, d: u64, inv: u64) -> (bool, u128) {
    const LIM: u64 = 1 << 32;
    let ok = (1..LIM).contains(&wl) && (1..LIM).contains(&wh) && (2..LIM).contains(&t) && d < LIM;
    if !ok {
        return (false, 0);
    }
    let worst = crate::amc::dc_inv(LIM - 1, t, inv);
    (true, wl.max(wh) as u128 * worst as u128)
}

/// The precomputed reciprocal `⌊2^64 / d⌋` (saturated for `d == 1`) used
/// by the lane kernels' exact division-by-multiplication: for any
/// `n < 2^64`, `hi64(n · inv64(d))` is `⌊n/d⌋` or `⌊n/d⌋ − 1`, and one
/// multiply-compare fixup recovers the exact quotient (see `dc_inv` in
/// `amc.rs` for the proof sketch).
pub(crate) fn inv64(d: u64) -> u64 {
    if d == 1 {
        return u64::MAX;
    }
    // ⌊2^64/d⌋ from one 64-bit divide: 2^64 = (u64::MAX) + 1, so the
    // quotient only gains the carry when the remainder wraps to 0.
    let q = u64::MAX / d;
    let r = u64::MAX % d;
    // r < d here (d ≥ 2), so the carry condition r + 1 == d is exactly
    // r == d − 1, sparing the increment.
    q + u64::from(r == d - 1)
}

impl SoaTasks {
    /// Number of loaded positions.
    pub(crate) fn len(&self) -> usize {
        self.period.len()
    }

    /// Whether the loaded set certifies the *fast* (unguarded) response
    /// -time kernels: every `C^L`, `C^H` in `[1, 2^32)`, every `T` in
    /// `[2, 2^32)`, every `D < 2^32`, and the worst-case interference
    /// budget `Σ_j max(C^L_j, C^H_j)·⌈(2^32−1)/T_j⌉` leaves headroom
    /// below `2^63`. Under this certificate every fixpoint iterate stays
    /// `< 2^32` (it is deadline-checked before any sweep uses it), so
    /// every `(r−1)·T` product fits `u64` — making the no-fixup
    /// reciprocal ceiling division exact (see `dc_fast` in `amc.rs`) —
    /// and no interference accumulator can overflow, so plain `+`/`*`
    /// compute the same values the saturating guarded kernel would.
    pub(crate) fn fast(&self) -> bool {
        self.slow_tasks == 0 && self.fast_budget + (1u128 << 32) < (1u128 << 63)
    }

    /// The position's contribution to the fast-kernel certificate:
    /// whether it satisfies the per-task bounds, and its exact worst-case
    /// interference charge. Pure in the lane values, so
    /// [`SoaTasks::remove`] subtracts exactly what
    /// [`SoaTasks::insert`] added.
    fn cert(&self, pos: usize) -> (bool, u128) {
        cert_values(
            self.wcet_lo[pos],
            self.wcet_hi[pos],
            self.period[pos],
            self.deadline[pos],
            self.inv_period[pos],
        )
    }

    /// Charges position `pos` to the fast-kernel certificate.
    fn cert_add(&mut self, pos: usize) {
        let (ok, b) = self.cert(pos);
        self.slow_tasks += usize::from(!ok);
        self.fast_budget += b;
    }

    /// Undoes [`SoaTasks::cert_add`] for position `pos` (call before the
    /// lanes shift).
    fn cert_sub(&mut self, pos: usize) {
        let (ok, b) = self.cert(pos);
        self.slow_tasks -= usize::from(!ok);
        self.fast_budget -= b;
    }

    /// Empties the view, keeping the buffers for reuse.
    pub(crate) fn clear(&mut self) {
        self.wcet_lo.clear();
        self.wcet_hi.clear();
        self.period.clear();
        self.inv_period.clear();
        self.deadline.clear();
        self.hc.clear();
        self.slow_tasks = 0;
        self.fast_budget = 0;
    }

    /// Rebuilds the view as `tasks[order[0]], tasks[order[1]], …`.
    ///
    /// One fused pass: each task is read once and scattered into all six
    /// lanes in place (resize + overwrite, no clear-and-extend), with the
    /// fast-kernel certificate accumulated on the fly — the per-set build
    /// cost is on the one-shot hot path, paid even by sets the analysis
    /// rejects at the first task.
    pub(crate) fn load(&mut self, tasks: &[Task], order: &[usize]) {
        let n = order.len();
        self.wcet_lo.resize(n, 0);
        self.wcet_hi.resize(n, 0);
        self.period.resize(n, 0);
        self.inv_period.resize(n, 0);
        self.deadline.resize(n, 0);
        self.hc.resize(n, false);
        let mut slow = 0usize;
        let mut budget = 0u128;
        let lanes = self
            .wcet_lo
            .iter_mut()
            .zip(&mut self.wcet_hi)
            .zip(&mut self.period)
            .zip(&mut self.inv_period)
            .zip(&mut self.deadline)
            .zip(&mut self.hc);
        for (t, lane) in order.iter().map(|&i| &tasks[i]).zip(lanes) {
            let (((((wl, wh), per), inv), dl), hc) = lane;
            *wl = t.wcet_lo().as_ticks();
            *wh = t.wcet_hi().as_ticks();
            *per = t.period().as_ticks();
            *inv = inv64(*per);
            *dl = t.deadline().as_ticks();
            *hc = t.criticality() == Criticality::High;
            let (ok, b) = cert_values(*wl, *wh, *per, *dl, *inv);
            slow += usize::from(!ok);
            budget = budget.saturating_add(b);
        }
        self.slow_tasks = slow;
        self.fast_budget = budget;
    }

    /// Inserts `t` at priority position `pos`, shifting lower priorities
    /// down (the admission probe's delta update; `O(n)` lane memmoves,
    /// allocation-free at capacity).
    pub(crate) fn insert(&mut self, pos: usize, t: &Task) {
        self.wcet_lo.insert(pos, t.wcet_lo().as_ticks());
        self.wcet_hi.insert(pos, t.wcet_hi().as_ticks());
        self.period.insert(pos, t.period().as_ticks());
        self.inv_period.insert(pos, inv64(t.period().as_ticks()));
        self.deadline.insert(pos, t.deadline().as_ticks());
        self.hc.insert(pos, t.criticality() == Criticality::High);
        self.cert_add(pos);
    }

    /// Removes the task at priority position `pos` (undoes
    /// [`SoaTasks::insert`]).
    pub(crate) fn remove(&mut self, pos: usize) {
        self.cert_sub(pos);
        self.wcet_lo.remove(pos);
        self.wcet_hi.remove(pos);
        self.period.remove(pos);
        self.inv_period.remove(pos);
        self.deadline.remove(pos);
        self.hc.remove(pos);
    }
}

/// Structure-of-arrays view of a virtual-deadline assignment for the
/// batched demand (QPA) kernel — the demand stack's [`SoaTasks`].
///
/// One position per task, in the kernel's task (insertion) order. Six
/// contiguous `u64` lanes (`vd` / `period` / `inv_period` / `c_lo` /
/// `c_hi` / `dist`) turn the `Σ dbf_LO(t)` / `Σ dbf_HI(t)` sweeps into
/// branch-free straight-line integer arithmetic, and a compacted HC view
/// (`hc_*`, each entry remembering its originating position) lets the
/// high-mode sweep touch only the lanes that contribute to `dbf_HI`.
///
/// Maintained by delta under the kernel's mutations:
/// [`DemandSoa::push`] / [`DemandSoa::pop`] append and remove the last
/// position (the LIFO admission-probe pattern) and
/// [`DemandSoa::set_vd`] rewrites one position's `vd` / `dist` lanes in
/// place (the tuner-move pattern), so a probe never rebuilds the view
/// and never allocates once the lanes have grown to the processor's
/// high-water mark (pinned by `tests/zero_alloc.rs`). The fast-kernel
/// certificate (see [`DemandSoa::fast`] and the module docs) is carried
/// reversibly alongside.
#[derive(Debug, Clone, Default)]
pub(crate) struct DemandSoa {
    /// Virtual deadline `V` per position.
    pub(crate) vd: Vec<u64>,
    /// `T` per position.
    pub(crate) period: Vec<u64>,
    /// [`inv64`] reciprocal of `T` per position, so the demand sweeps
    /// floor-divide by multiplying.
    pub(crate) inv_period: Vec<u64>,
    /// `C^L` per position.
    pub(crate) c_lo: Vec<u64>,
    /// `C^H` per position (`== C^L` for LC tasks).
    pub(crate) c_hi: Vec<u64>,
    /// Carry-over distance `d = D − V` per position.
    pub(crate) dist: Vec<u64>,
    /// Cached low-mode utilization `C^L/T` per position — the exact
    /// f64 the seed's busy-window numerator recomputes per probe
    /// (division is deterministic: caching the quotient is
    /// bit-identical to re-dividing).
    pub(crate) u_lo: Vec<f64>,
    /// Compacted HC view: `C^L` of the HC tasks in position order.
    pub(crate) hc_c_lo: Vec<u64>,
    /// Compacted HC view: `C^H`.
    pub(crate) hc_c_hi: Vec<u64>,
    /// Compacted HC view: `T`.
    pub(crate) hc_period: Vec<u64>,
    /// Compacted HC view: [`inv64`] reciprocal of `T`.
    pub(crate) hc_inv_period: Vec<u64>,
    /// Compacted HC view: `d = D − V`.
    pub(crate) hc_dist: Vec<u64>,
    /// Compacted HC view: `C^H` as f64 (cached conversion).
    pub(crate) hc_ch_f: Vec<f64>,
    /// Compacted HC view: high-mode utilization `C^H/T` (cached exact
    /// quotient, see [`DemandSoa::u_lo`]).
    pub(crate) hc_u_hi: Vec<f64>,
    /// Position of each compacted HC entry (strictly increasing).
    pub(crate) hc_pos: Vec<usize>,
    /// Rank of each position in the compact HC view (`usize::MAX` for
    /// LC positions) — the O(1) inverse of [`DemandSoa::hc_pos`], so
    /// the per-probe `set_vd` never searches.
    pub(crate) hc_rank: Vec<usize>,
    /// Positions with `vd == 0` — `h_LO(0) > 0` iff this is non-zero
    /// (`C^L ≥ 1`), so the descent pre-check skips its lane sweep.
    zero_vd: usize,
    /// HC positions with `dist == 0` and `C^H > C^L` — exactly those
    /// whose `dbf_HI` term at `t = 0` is positive (`C^H − C^L`), so
    /// `h_HI(0) > 0` iff this is non-zero.
    hot_hi0: usize,
    /// Loaded positions failing the per-task half of the demand
    /// certificate (see [`DemandSoa::fast`]).
    slow_tasks: usize,
    /// Exact worst-case demand budget of the loaded positions (see
    /// [`DemandSoa::fast`]); `u128` so push and pop add and subtract the
    /// per-task charge without saturation losing information.
    fast_budget: u128,
}

/// Per-task half of the demand fast-kernel certificate over raw lane
/// values (see [`DemandSoa::fast`]): the bounds predicate and the exact
/// worst-case demand charge `max(C^L, C^H)·(⌊(2^32−1)/T⌋ + 1)` — the
/// largest job count any certified evaluation instant can produce.
fn demand_cert_values(cl: u64, ch: u64, t: u64, dl: u64, inv: u64) -> (bool, u128) {
    const LIM: u64 = 1 << 32;
    let ok = (1..LIM).contains(&cl) && (1..LIM).contains(&ch) && (2..LIM).contains(&t) && dl < LIM;
    if !ok {
        return (false, 0);
    }
    let worst = crate::amc::df_inv(LIM - 1, t, inv).saturating_add(1);
    (true, cl.max(ch) as u128 * worst as u128)
}

impl DemandSoa {
    /// Number of loaded positions.
    pub(crate) fn len(&self) -> usize {
        self.period.len()
    }

    /// Number of HC lanes in the compacted view.
    pub(crate) fn hc_len(&self) -> usize {
        self.hc_pos.len()
    }

    /// Whether the loaded assignment certifies the *fast* (unguarded)
    /// demand sweeps for every evaluation instant below `2^32`: every
    /// `C^L`, `C^H` in `[1, 2^32)`, every `T` in `[2, 2^32)`, every
    /// deadline `V + d` below `2^32`, and the worst-case demand budget
    /// `Σ_j max(C^L_j, C^H_j)·(⌊(2^32−1)/T_j⌋ + 1)` leaving headroom
    /// below `2^63`. See the module docs for why this licenses plain
    /// arithmetic and the no-fixup reciprocal floor division; the
    /// per-descent `bound < 2^32` half of the licence is checked by the
    /// kernel at descent entry.
    pub(crate) fn fast(&self) -> bool {
        self.slow_tasks == 0 && self.fast_budget + (1u128 << 32) < (1u128 << 63)
    }

    /// The position's contribution to the demand certificate. Pure in
    /// the lane values — and invariant under [`DemandSoa::set_vd`],
    /// which preserves `vd + dist` — so [`DemandSoa::pop`] subtracts
    /// exactly what [`DemandSoa::push`] added.
    fn cert(&self, pos: usize) -> (bool, u128) {
        demand_cert_values(
            self.c_lo[pos],
            self.c_hi[pos],
            self.period[pos],
            self.vd[pos].saturating_add(self.dist[pos]),
            self.inv_period[pos],
        )
    }

    /// Charges position `pos` to the demand certificate.
    fn cert_add(&mut self, pos: usize) {
        let (ok, b) = self.cert(pos);
        self.slow_tasks += usize::from(!ok);
        self.fast_budget += b;
    }

    /// Undoes [`DemandSoa::cert_add`] for position `pos` (call before
    /// the lanes shrink).
    fn cert_sub(&mut self, pos: usize) {
        let (ok, b) = self.cert(pos);
        self.slow_tasks -= usize::from(!ok);
        self.fast_budget -= b;
    }

    /// Empties the view, keeping the buffers for reuse.
    pub(crate) fn clear(&mut self) {
        self.vd.clear();
        self.period.clear();
        self.inv_period.clear();
        self.c_lo.clear();
        self.c_hi.clear();
        self.dist.clear();
        self.u_lo.clear();
        self.hc_c_lo.clear();
        self.hc_c_hi.clear();
        self.hc_period.clear();
        self.hc_inv_period.clear();
        self.hc_dist.clear();
        self.hc_ch_f.clear();
        self.hc_u_hi.clear();
        self.hc_pos.clear();
        self.hc_rank.clear();
        self.zero_vd = 0;
        self.hot_hi0 = 0;
        self.slow_tasks = 0;
        self.fast_budget = 0;
    }

    /// Rebuilds the view from an assignment in one fused pass: each
    /// task is read once and scattered into all six lanes in place
    /// (resize + overwrite), with the compacted HC view and the demand
    /// certificate accumulated on the fly.
    pub(crate) fn load(&mut self, tasks: &[crate::dbf::VdTask]) {
        let n = tasks.len();
        self.hc_c_lo.clear();
        self.hc_c_hi.clear();
        self.hc_period.clear();
        self.hc_inv_period.clear();
        self.hc_dist.clear();
        self.hc_ch_f.clear();
        self.hc_u_hi.clear();
        self.hc_pos.clear();
        self.vd.resize(n, 0);
        self.period.resize(n, 0);
        self.inv_period.resize(n, 0);
        self.c_lo.resize(n, 0);
        self.c_hi.resize(n, 0);
        self.dist.resize(n, 0);
        self.u_lo.resize(n, 0.0);
        self.hc_rank.resize(n, usize::MAX);
        let mut slow = 0usize;
        let mut budget = 0u128;
        let mut zero_vd = 0usize;
        let mut hot_hi0 = 0usize;
        for (pos, vt) in tasks.iter().enumerate() {
            let per = vt.task.period().as_ticks();
            let inv = inv64(per);
            self.vd[pos] = vt.vd.as_ticks();
            self.period[pos] = per;
            self.inv_period[pos] = inv;
            self.c_lo[pos] = vt.task.wcet_lo().as_ticks();
            self.c_hi[pos] = vt.task.wcet_hi().as_ticks();
            self.dist[pos] = (vt.task.deadline() - vt.vd).as_ticks();
            self.u_lo[pos] = vt.task.wcet_lo().as_f64() / vt.task.period().as_f64();
            self.hc_rank[pos] = usize::MAX;
            zero_vd += usize::from(self.vd[pos] == 0);
            if vt.task.criticality().is_high() {
                self.hc_c_lo.push(self.c_lo[pos]);
                self.hc_c_hi.push(self.c_hi[pos]);
                self.hc_period.push(per);
                self.hc_inv_period.push(inv);
                self.hc_dist.push(self.dist[pos]);
                self.hc_ch_f.push(vt.task.wcet_hi().as_f64());
                self.hc_u_hi
                    .push(vt.task.wcet_hi().as_f64() / vt.task.period().as_f64());
                self.hc_rank[pos] = self.hc_pos.len();
                self.hc_pos.push(pos);
            }
            hot_hi0 += self.hot_hi0_at(pos);
            let (ok, b) = demand_cert_values(
                self.c_lo[pos],
                self.c_hi[pos],
                per,
                vt.task.deadline().as_ticks(),
                inv,
            );
            slow += usize::from(!ok);
            budget = budget.saturating_add(b);
        }
        self.slow_tasks = slow;
        self.fast_budget = budget;
        self.zero_vd = zero_vd;
        self.hot_hi0 = hot_hi0;
    }

    /// Appends one position (the kernel's
    /// [`push_task`](crate::demand::DemandKernel::push_task) delta).
    pub(crate) fn push(&mut self, vt: &crate::dbf::VdTask) {
        let pos = self.len();
        let per = vt.task.period().as_ticks();
        let inv = inv64(per);
        self.vd.push(vt.vd.as_ticks());
        self.period.push(per);
        self.inv_period.push(inv);
        self.c_lo.push(vt.task.wcet_lo().as_ticks());
        self.c_hi.push(vt.task.wcet_hi().as_ticks());
        self.dist.push((vt.task.deadline() - vt.vd).as_ticks());
        self.u_lo
            .push(vt.task.wcet_lo().as_f64() / vt.task.period().as_f64());
        self.hc_rank.push(usize::MAX);
        self.zero_vd += usize::from(self.vd[pos] == 0);
        if vt.task.criticality().is_high() {
            self.hc_c_lo.push(self.c_lo[pos]);
            self.hc_c_hi.push(self.c_hi[pos]);
            self.hc_period.push(per);
            self.hc_inv_period.push(inv);
            self.hc_dist.push(self.dist[pos]);
            self.hc_ch_f.push(vt.task.wcet_hi().as_f64());
            self.hc_u_hi
                .push(vt.task.wcet_hi().as_f64() / vt.task.period().as_f64());
            self.hc_rank[pos] = self.hc_pos.len();
            self.hc_pos.push(pos);
        }
        self.hot_hi0 += self.hot_hi0_at(pos);
        self.cert_add(pos);
    }

    /// Removes the **last** position (the kernel's LIFO
    /// [`pop_task`](crate::demand::DemandKernel::pop_task) delta).
    ///
    /// # Panics
    ///
    /// Panics if the view is empty.
    pub(crate) fn pop(&mut self) {
        let pos = self.len() - 1;
        self.cert_sub(pos);
        self.zero_vd -= usize::from(self.vd[pos] == 0);
        self.hot_hi0 -= self.hot_hi0_at(pos);
        self.vd.pop();
        self.period.pop();
        self.inv_period.pop();
        self.c_lo.pop();
        self.c_hi.pop();
        self.dist.pop();
        self.u_lo.pop();
        self.hc_rank.pop();
        if self.hc_pos.last() == Some(&pos) {
            self.hc_c_lo.pop();
            self.hc_c_hi.pop();
            self.hc_period.pop();
            self.hc_inv_period.pop();
            self.hc_dist.pop();
            self.hc_ch_f.pop();
            self.hc_u_hi.pop();
            self.hc_pos.pop();
        }
    }

    /// Retargets one position's virtual deadline (the kernel's
    /// [`replace_vd`](crate::demand::DemandKernel::replace_vd) delta):
    /// two lane writes plus the mirrored compact-view write (O(1)
    /// through [`DemandSoa::hc_rank`]) when the position is HC.
    /// `vd + dist` must equal the position's deadline (the certificate
    /// is invariant, so no re-accounting happens here).
    pub(crate) fn set_vd(&mut self, pos: usize, vd: u64, dist: u64) {
        self.zero_vd -= usize::from(self.vd[pos] == 0);
        self.hot_hi0 -= self.hot_hi0_at(pos);
        self.vd[pos] = vd;
        self.dist[pos] = dist;
        self.zero_vd += usize::from(vd == 0);
        self.hot_hi0 += self.hot_hi0_at(pos);
        let rank = self.hc_rank[pos];
        if rank != usize::MAX {
            self.hc_dist[rank] = dist;
        }
    }

    /// Whether position `pos` counts towards [`DemandSoa::hot_hi0`]:
    /// an HC position (LC tasks carry no high-mode demand, whatever
    /// their `C^H`) with `dist == 0` and `C^H > C^L`.
    fn hot_hi0_at(&self, pos: usize) -> usize {
        let hc = self.hc_rank[pos] != usize::MAX;
        usize::from(hc && self.dist[pos] == 0 && self.c_hi[pos] > self.c_lo[pos])
    }

    /// Whether `h_LO(0) > 0` on the loaded assignment: some position
    /// has `vd == 0` (its `C^L ≥ 1` lands at the origin). Exact — the
    /// descent pre-check consults this instead of sweeping the lanes.
    pub(crate) fn h0_lo_positive(&self) -> bool {
        self.zero_vd > 0
    }

    /// Whether `h_HI(0) > 0` on the loaded assignment: some HC position
    /// has `dist == 0` with `C^H > C^L` (its origin term is
    /// `C^H − C^L > 0`; every other term is zero at `t = 0`). Exact.
    pub(crate) fn h0_hi_positive(&self) -> bool {
        self.hot_hi0 > 0
    }
}

/// Scratch buffers shared by the analysis hot paths.
///
/// Obtain one through [`AnalysisWorkspace::with`] (thread-local pool) or
/// behind a [`WorkspaceRef`]; the buffers grow to the high-water mark of
/// the sets analysed through them and are then reused allocation-free.
#[derive(Debug, Default)]
pub struct AnalysisWorkspace {
    /// Union buffer for `committed ∪ {candidate}`, built only by an
    /// `AmcState` probe whose cache is invalid (the full-analysis
    /// fallback). Incremental probes read the lanes alone.
    pub(crate) tasks: Vec<Task>,
    /// Per-interferer step streams for the AMC-max candidate walk.
    pub(crate) streams: Vec<CandStream>,
    /// Per-hp-HC-task interference slots for the AMC-max candidate walk.
    pub(crate) hc: Vec<HcSlot>,
    /// The AMC high-mode kernel's per-class position lists (HC
    /// positions in the first half, LC positions in the second), grown
    /// to twice the largest set analysed.
    pub(crate) rtb_pos: Vec<usize>,
    /// The one-shot AMC analysis (order / responses) — the workspace path
    /// runs exactly the incremental layer's `analyze_from` over it.
    pub(crate) amc: AmcCache,
    /// SoA lane view for the response-time lane kernels (the one-shot
    /// path; the incremental `AmcState`s keep their own per-processor
    /// view mirroring the committed cache).
    pub(crate) soa: SoaTasks,
    /// The incremental demand kernel: the virtual-deadline assignment
    /// under analysis plus its memoised QPA state (EY / ECDF and the
    /// public one-shot demand checks).
    pub(crate) demand: DemandKernel,
    /// Candidate tightening moves of one greedy round (EY / ECDF).
    pub(crate) moves: Vec<Move>,
}

impl AnalysisWorkspace {
    /// A workspace with empty buffers (they grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `f` with a workspace borrowed from the thread-local pool.
    ///
    /// Re-entrant: a nested call simply checks out a second workspace.
    pub fn with<R>(f: impl FnOnce(&mut AnalysisWorkspace) -> R) -> R {
        let guard = WorkspaceRef::pooled();
        let r = f(&mut guard.borrow_mut());
        r
    }
}

/// A shared, cheaply cloneable handle to an [`AnalysisWorkspace`].
///
/// All admission states of one partitioning run hold clones of the same
/// handle and borrow it only for the duration of a single admission query,
/// so the borrows never overlap.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceRef {
    inner: Rc<RefCell<AnalysisWorkspace>>,
}

impl WorkspaceRef {
    /// A fresh workspace handle with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks a handle out of the thread-local pool (creating one if the
    /// pool is empty). The guard returns it when dropped, so buffers warm
    /// up once per thread and stay warm across partitioning runs.
    pub fn pooled() -> PooledWorkspace {
        let ws = POOL
            .with(|pool| pool.borrow_mut().pop())
            .unwrap_or_default();
        PooledWorkspace { ws: Some(ws) }
    }

    /// Mutably borrows the underlying workspace.
    ///
    /// # Panics
    ///
    /// Panics if the workspace is already borrowed (analysis code keeps
    /// borrows local to one admission query, so this cannot happen through
    /// the public API).
    pub fn borrow_mut(&self) -> RefMut<'_, AnalysisWorkspace> {
        self.inner.borrow_mut()
    }
}

// mclint: cold — const thread-local initialiser; the empty Vec never allocates
thread_local! {
    /// Idle workspaces of this thread, reused across partitioning runs.
    static POOL: RefCell<Vec<WorkspaceRef>> = const { RefCell::new(Vec::new()) };
}

/// Ceiling on pooled workspaces per thread; checkouts beyond this are
/// simply dropped on return instead of growing the pool without bound.
const MAX_POOLED: usize = 32;

/// A [`WorkspaceRef`] checked out of the thread-local pool; returns to the
/// pool on drop.
#[derive(Debug)]
pub struct PooledWorkspace {
    ws: Option<WorkspaceRef>,
}

impl Deref for PooledWorkspace {
    type Target = WorkspaceRef;
    fn deref(&self) -> &WorkspaceRef {
        self.ws.as_ref().expect("present until drop")
    }
}

impl Drop for PooledWorkspace {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            POOL.with(|pool| {
                let mut pool = pool.borrow_mut();
                if pool.len() < MAX_POOLED {
                    pool.push(ws);
                }
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbf::VdTask;
    use mcsched_model::Time;

    fn soa_fixture() -> (Vec<Task>, SoaTasks) {
        let tasks = vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 5).unwrap(),
            Task::hi(2, 25, 3, 6).unwrap(),
            Task::lo(3, 12, 1).unwrap(),
        ];
        let soa = load_seq(&tasks);
        (tasks, soa)
    }

    /// The view of `tasks` in slice order.
    fn load_seq(tasks: &[Task]) -> SoaTasks {
        let mut soa = SoaTasks::default();
        soa.load(tasks, &(0..tasks.len()).collect::<Vec<_>>());
        soa
    }

    /// Structural invariants a correctly maintained view always satisfies.
    fn assert_soa_matches(soa: &SoaTasks, tasks: &[Task]) {
        assert_eq!(soa.len(), tasks.len());
        for (pos, t) in tasks.iter().enumerate() {
            assert_eq!(soa.wcet_lo[pos], t.wcet_lo().as_ticks());
            assert_eq!(soa.wcet_hi[pos], t.wcet_hi().as_ticks());
            assert_eq!(soa.period[pos], t.period().as_ticks());
            assert_eq!(soa.inv_period[pos], inv64(t.period().as_ticks()));
            assert_eq!(soa.deadline[pos], t.deadline().as_ticks());
            assert_eq!(soa.hc[pos], t.criticality() == Criticality::High);
        }
        // The reversible certificate equals a fresh accumulation.
        let fresh = load_seq(tasks);
        assert_eq!(soa.slow_tasks, fresh.slow_tasks);
        assert_eq!(soa.fast_budget, fresh.fast_budget);
    }

    /// The load builds the same view from slice order and from a
    /// permuted slice through its inverse order.
    #[test]
    fn soa_load_builds_both_views() {
        let (tasks, soa) = soa_fixture();
        assert_soa_matches(&soa, &tasks);
        assert!(soa.fast(), "small certified fixture takes the fast route");
        let reversed: Vec<Task> = tasks.iter().rev().copied().collect();
        let order: Vec<usize> = (0..tasks.len()).rev().collect();
        let mut ordered = SoaTasks::default();
        ordered.load(&reversed, &order);
        assert_soa_matches(&ordered, &tasks);
    }

    #[test]
    fn soa_insert_remove_round_trips() {
        let (mut tasks, mut soa) = soa_fixture();
        let cand = Task::hi(9, 15, 2, 5).unwrap();
        // Insert at every position, check, then remove and check we are
        // back to the original view (delta maintenance is exact).
        for pos in 0..=tasks.len() {
            soa.insert(pos, &cand);
            tasks.insert(pos, cand);
            assert_soa_matches(&soa, &tasks);
            soa.remove(pos);
            tasks.remove(pos);
            assert_soa_matches(&soa, &tasks);
        }
        // And an LC candidate through the same paces.
        let cand = Task::lo(9, 15, 2).unwrap();
        for pos in 0..=tasks.len() {
            soa.insert(pos, &cand);
            tasks.insert(pos, cand);
            assert_soa_matches(&soa, &tasks);
            soa.remove(pos);
            tasks.remove(pos);
            assert_soa_matches(&soa, &tasks);
        }
    }

    #[test]
    fn soa_delta_equals_rebuild() {
        let (tasks, mut soa) = soa_fixture();
        let cand = Task::lo_constrained(7, 30, 2, 18).unwrap();
        soa.insert(2, &cand);
        let mut rebuilt: Vec<Task> = tasks.clone();
        rebuilt.insert(2, cand);
        let fresh = load_seq(&rebuilt);
        assert_eq!(soa.wcet_lo, fresh.wcet_lo);
        assert_eq!(soa.wcet_hi, fresh.wcet_hi);
        assert_eq!(soa.period, fresh.period);
        assert_eq!(soa.deadline, fresh.deadline);
        assert_eq!(soa.hc, fresh.hc);
        assert_eq!(soa.inv_period, fresh.inv_period);
        assert_eq!(soa.fast_budget, fresh.fast_budget);
    }

    fn demand_fixture() -> (Vec<VdTask>, DemandSoa) {
        let tasks = vec![
            VdTask {
                task: Task::hi(0, 10, 2, 4).unwrap(),
                vd: Time::new(6),
            },
            VdTask::untightened(Task::lo(1, 20, 5).unwrap()),
            VdTask {
                task: Task::hi_constrained(2, 25, 3, 6, 18).unwrap(),
                vd: Time::new(9),
            },
            VdTask::untightened(Task::lo_constrained(3, 12, 1, 9).unwrap()),
        ];
        let mut soa = DemandSoa::default();
        soa.load(&tasks);
        (tasks, soa)
    }

    /// Structural invariants a correctly maintained demand view always
    /// satisfies (the lane mirror of [`assert_soa_matches`]).
    fn assert_demand_soa_matches(soa: &DemandSoa, tasks: &[VdTask]) {
        assert_eq!(soa.len(), tasks.len());
        for (pos, vt) in tasks.iter().enumerate() {
            assert_eq!(soa.vd[pos], vt.vd.as_ticks());
            assert_eq!(soa.period[pos], vt.task.period().as_ticks());
            assert_eq!(soa.inv_period[pos], inv64(vt.task.period().as_ticks()));
            assert_eq!(soa.c_lo[pos], vt.task.wcet_lo().as_ticks());
            assert_eq!(soa.c_hi[pos], vt.task.wcet_hi().as_ticks());
            assert_eq!(soa.dist[pos], (vt.task.deadline() - vt.vd).as_ticks());
        }
        let hc: Vec<usize> = (0..tasks.len())
            .filter(|&p| tasks[p].task.criticality().is_high())
            .collect();
        assert_eq!(soa.hc_pos, hc);
        for (rank, &p) in soa.hc_pos.iter().enumerate() {
            assert_eq!(soa.hc_c_lo[rank], soa.c_lo[p]);
            assert_eq!(soa.hc_c_hi[rank], soa.c_hi[p]);
            assert_eq!(soa.hc_period[rank], soa.period[p]);
            assert_eq!(soa.hc_inv_period[rank], soa.inv_period[p]);
            assert_eq!(soa.hc_dist[rank], soa.dist[p]);
        }
        // The reversible certificate equals a fresh accumulation.
        let mut fresh = DemandSoa::default();
        fresh.load(tasks);
        assert_eq!(soa.slow_tasks, fresh.slow_tasks);
        assert_eq!(soa.fast_budget, fresh.fast_budget);
    }

    #[test]
    fn demand_soa_push_matches_bulk_load() {
        let (tasks, soa) = demand_fixture();
        let mut pushed = DemandSoa::default();
        for vt in &tasks {
            pushed.push(vt);
        }
        assert_demand_soa_matches(&pushed, &tasks);
        assert_eq!(pushed.vd, soa.vd);
        assert_eq!(pushed.hc_pos, soa.hc_pos);
        assert_eq!(pushed.fast_budget, soa.fast_budget);
        assert!(soa.fast(), "small certified fixture takes the fast route");
    }

    #[test]
    fn demand_soa_push_pop_round_trips() {
        let (mut tasks, mut soa) = demand_fixture();
        for cand in [
            VdTask {
                task: Task::hi(9, 15, 2, 5).unwrap(),
                vd: Time::new(8),
            },
            VdTask::untightened(Task::lo(9, 15, 2).unwrap()),
        ] {
            soa.push(&cand);
            tasks.push(cand);
            assert_demand_soa_matches(&soa, &tasks);
            soa.pop();
            tasks.pop();
            assert_demand_soa_matches(&soa, &tasks);
        }
    }

    #[test]
    fn demand_soa_set_vd_equals_rebuild() {
        let (mut tasks, mut soa) = demand_fixture();
        // Retarget every position (HC and LC) through the lane delta.
        for (pos, v) in [(0usize, 3u64), (1, 11), (2, 14), (3, 7)] {
            let vd = Time::new(v);
            let dist = tasks[pos].task.deadline() - vd;
            tasks[pos].vd = vd;
            soa.set_vd(pos, v, dist.as_ticks());
            assert_demand_soa_matches(&soa, &tasks);
        }
    }

    #[test]
    fn demand_soa_certificate_flips_reversibly() {
        let (_, mut soa) = demand_fixture();
        assert!(soa.fast());
        let before = soa.fast_budget;
        // A parameter outside 2^32 breaks the per-task predicate…
        let big = VdTask::untightened(Task::lo(7, 1 << 40, 1 << 33).unwrap());
        soa.push(&big);
        assert!(!soa.fast());
        // …and popping it restores the certificate exactly.
        soa.pop();
        assert!(soa.fast());
        assert_eq!(soa.fast_budget, before);
        // The budget charge is exact and reversible for certified tasks
        // too (model validation caps `C ≤ T`, so each charge is below
        // 2^32 and the 2^63 headroom cannot trip on valid tasks — the
        // check is defence in depth, mirroring `SoaTasks::fast`).
        let heavy = VdTask::untightened(Task::lo(8, (1 << 32) - 1, (1 << 32) - 1).unwrap());
        soa.push(&heavy);
        assert!(soa.fast());
        soa.pop();
        assert_eq!(soa.fast_budget, before);
    }

    #[test]
    fn with_reuses_thread_local_buffers() {
        // Grow a buffer inside one `with` scope…
        AnalysisWorkspace::with(|ws| {
            ws.rtb_pos.clear();
            ws.rtb_pos.extend(0..100);
        });
        // …and observe the capacity surviving into the next checkout.
        AnalysisWorkspace::with(|ws| {
            assert!(ws.rtb_pos.capacity() >= 100);
        });
    }

    #[test]
    fn nested_with_is_reentrant() {
        AnalysisWorkspace::with(|outer| {
            outer.rtb_pos.push(7);
            AnalysisWorkspace::with(|inner| {
                // A distinct workspace: pushing here cannot alias `outer`.
                inner.rtb_pos.push(9);
            });
            assert_eq!(outer.rtb_pos.pop(), Some(7));
            outer.rtb_pos.clear();
        });
    }

    #[test]
    fn workspace_ref_clones_share_buffers() {
        let a = WorkspaceRef::new();
        let b = a.clone();
        a.borrow_mut().rtb_pos.push(3);
        assert_eq!(b.borrow_mut().rtb_pos.pop(), Some(3));
    }

    #[test]
    fn pool_is_bounded() {
        let guards: Vec<_> = (0..MAX_POOLED + 8)
            .map(|_| WorkspaceRef::pooled())
            .collect();
        drop(guards);
        let pooled = POOL.with(|pool| pool.borrow().len());
        assert!(pooled <= MAX_POOLED);
    }
}
