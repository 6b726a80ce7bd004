// mclint: hot-path
//! The **incremental demand kernel**: memoised, warm-startable QPA for
//! the EY / ECDF demand stack.
//!
//! The virtual-deadline tuners ([`crate::vdtune`]) and the admission
//! layer ([`crate::incremental`]) call the demand checks of
//! [`crate::dbf`] in tight loops where successive checks differ by a
//! *single task's* virtual deadline (one greedy tightening move, possibly
//! reverted) or by one pushed / popped task (an admission probe). A
//! flat per-call check (the seed design, kept as a test oracle in the
//! `mcsched-oracle` crate) throws that structure away: every probe
//! re-runs the full descending QPA fixpoint from the busy-window
//! bound, re-summing `dbf_LO` / `dbf_HI` over all tasks at every jump
//! point. A [`DemandKernel`] instead *owns* the assignment and keeps
//! enough exact state to answer the next check from the previous one.
//!
//! ## What the kernel caches
//!
//! * **SoA demand lanes** (`DemandSoa`) — the
//!   `(C^L, C^H, T, V, d = D − V)` terms of the Ekberg–Yi demand bounds
//!   as contiguous `u64` lanes plus precomputed `⌊2^64/T⌋` reciprocals,
//!   so each `Σ dbf` evaluation is a branch-free lane sweep (floor
//!   division by multiplication, no struct chasing) and the high-mode
//!   sum iterates a compacted HC-only lane view (one HC-subset copy
//!   path, shared by every public entry point). When the assignment
//!   carries the demand fast-kernel certificate (see
//!   `DemandSoa::fast` in [`crate::workspace`]) and a descent starts
//!   below `2^32`, the sweeps run the `const FAST` route: plain
//!   arithmetic and no-fixup reciprocal floors, provably equal to the
//!   guarded saturating route (the per-task memo deltas are
//!   [`dbf::dbf_lo`] terms). The batching that pays is
//!   per *point* — one branch-free pass over all lanes; speculative
//!   multi-point ladder passes were benchmarked a net loss (see
//!   `DemandKernel::descend`).
//! * **Violation anchors** — a bounded set of exact `(t, Σ dbf_LO(t))`
//!   pairs at instants where earlier QPA descents found demand exceeding
//!   supply. All memo arithmetic is integer ([`mcsched_model::Time`]),
//!   so the values are *exact*, never approximations.
//! * **Running utilization sums** — `Σ C^L/T` and `Σ_HC C^H/T` in
//!   insertion order. Virtual deadlines never enter them, so tuner moves
//!   leave them untouched; appends accumulate onto the running value,
//!   which is bit-identical to the fresh left-to-right summation the
//!   seed performs.
//! * **Warm-resume state** for the high-mode QPA — the previous
//!   fixpoint outcome plus a snapshot of the virtual deadlines it was
//!   computed for.
//!
//! ## Delta-update contract
//!
//! The mutating operations keep every cached value exact:
//!
//! * [`replace_vd(i, v)`](DemandKernel::replace_vd) — changes one task's
//!   virtual deadline. Each memoised `(t, h)` pair is updated by the
//!   *integer* delta `h ← h − dbf(τi, v_old, t) + dbf(τi, v_new, t)`,
//!   which is exact (no floating point is ever memoised), so memo
//!   entries remain true demand sums for the *current* assignment.
//! * [`push_task`](DemandKernel::push_task) / [`pop_task`](DemandKernel::pop_task)
//!   — append / remove the last task, delta-updating every memo entry by
//!   that task's contribution. `pop_task` is LIFO by design: the
//!   admission layer probes `committed ∪ {candidate}` and pops the
//!   candidate afterwards, keeping the kernel warm across probes.
//! * [`reseed`](DemandKernel::reseed) — bulk-retargets every virtual
//!   deadline through `replace_vd`, so switching tuner starts
//!   (untightened → slack-seeded → untightened) preserves the memos.
//!   `assign` does the same from a list of deadlines (the admission
//!   layer's committed tuning).
//! * `lift_zero_witness` — the tuner's **zero-witness macro-move**:
//!   every HC task with `d = 0` and `C^H > C^L` (exactly the tasks
//!   behind `h_HI(0) > 0`) moves to `V = D − 1` through `replace_vd`,
//!   so the memos stay exact. The seed tuner spends one greedy round
//!   per such task, each time on the same `D − 1` move; the tuner
//!   applies them all in one step, checks the low-mode test once and
//!   counts one round per task moved. This is exact because low-mode
//!   demand only grows as deadlines tighten (the argument is in
//!   [`crate::vdtune`]).
//!
//! ## Why the shortcuts cannot change a verdict
//!
//! The kernel's answers are pinned bit-identical to the seed checks
//! kept as test oracles in the `mcsched-oracle` crate (by
//! `tests/demand_kernel.rs`); the arguments are:
//!
//! * **QPA reports the maximum violation.** For a nondecreasing demand
//!   function, the descending fixpoint can never skip past the largest
//!   `t` with `h(t) > t`: clearing an interval `(h(t), t]` requires
//!   `h(t') ≤ h(t) < t'` for every point in it, which contradicts a
//!   violation inside. So the reported witness is independent of the
//!   descent's start point (any start at or above the maximum violation
//!   gives the same result) — which is what makes warm resume exact.
//! * **Tightening only shrinks high-mode demand.** `dbf_HI` is
//!   nonincreasing in `d = D − V` (when the carry-over job's guaranteed
//!   progress drops by up to `C^L`, the job count `k` drops by one and
//!   `C^H ≥ C^L` covers the difference), and the busy-window bound
//!   shrinks with it. Hence when every virtual deadline moved only
//!   *down* since the last high-mode check, the previously cleared
//!   region stays clear: a previous `Ok` is still `Ok`, and a previous
//!   violation point is a valid resume start whose descent finds the
//!   same maximum violation a cold descent would.
//! * **Anchors are sound unconditionally.** A memo entry with
//!   `h(t) > t` is a genuine violation of the *current* assignment
//!   (memo values are exact), so the boolean fast path
//!   [`lo_feasible`](DemandKernel::lo_feasible) may answer
//!   "infeasible" without any descent — with `U < 1` the reference
//!   QPA provably finds a violation too, so the booleans agree.
//!   Anchors are only ever a shortcut to *reject*; `Ok` is always
//!   decided by a full (memo-assisted, value-exact) descent. An anchor
//!   violation even dispenses with the busy-window bound: the memoised
//!   `h(t) > t` is a deadline-miss witness outright whenever `U < 1`,
//!   so the boolean path returns before summing the start bound.
//!
//! The one theoretical divergence is the QPA iteration budget
//! (`QPA_BUDGET` = 100 000): a resumed descent takes a different number
//! of steps than a cold one, so a set that exhausts the budget on one
//! path but not the other could differ. Typical descents take well under
//! 100 steps; the equivalence suites pin the corpus empirically.

use crate::amc::{df_fast, df_inv};
use crate::dbf::{self, DemandCheck, VdTask, QPA_BUDGET, UTIL_EPS};
use crate::workspace::DemandSoa;
use mcsched_model::{Task, TaskSet, Time};

/// Maximum memoised low-mode violation anchors. Recording past this
/// overwrites round-robin, so the buffer never grows beyond a fixed
/// high-water mark (zero steady-state allocations).
const ANCHOR_CAP: usize = 8;

/// QPA starts above this are meaningless (demand evaluation itself
/// would overflow `u64` long before); a busy-window bound that rounds
/// past it is treated as unbounded (typed early-reject) instead of
/// descending from a saturated horizon.
const MAX_QPA_START: f64 = (1u64 << 63) as f64;

/// Evaluation instants below this bound are licensed for the `const
/// FAST` demand sweeps whenever the assignment carries the
/// [`DemandSoa::fast`] certificate: with every parameter below `2^32`
/// and `t < 2^32`, every floor operand pair satisfies `(t − V)·T < 2^64`
/// (no-fixup reciprocal floors are exact) and every lane sum stays
/// within the certified demand budget (plain arithmetic cannot
/// overflow). A QPA descent only moves down, so one check at descent
/// entry covers every instant it visits.
const CERT_T_LIM: u64 = 1 << 32;

/// Fixpoint-reuse counters: how the kernel answered its QPA queries.
///
/// Surfaced through
/// [`AdmissionStats`](crate::incremental::AdmissionStats) (the
/// `mcexp ablation` admission table) so fixpoint reuse is observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QpaCounters {
    /// Descents started cold from the busy-window bound.
    pub cold: u64,
    /// High-mode checks answered from the previous fixpoint (resumed
    /// from the old violation point, or an instant `Ok` re-confirmed
    /// because demand only tightened).
    pub resumed: u64,
    /// Low-mode feasibility checks rejected by a memoised violation
    /// anchor without any descent.
    pub anchor_hits: u64,
}

/// A bounded set of exact `(t, Σ dbf_LO(t))` samples at historically
/// violated instants, kept exact for the *current* assignment through
/// integer delta-updates.
#[derive(Debug, Default)]
struct Anchors {
    entries: Vec<(Time, Time)>,
    /// Round-robin overwrite position once at capacity.
    cursor: usize,
}

impl Anchors {
    fn clear(&mut self) {
        self.entries.clear();
        self.cursor = 0;
    }

    /// Records a violated sample (values at other instants age into
    /// non-violations via the delta-updates but are kept — demand often
    /// swings back over them).
    fn record(&mut self, t: Time, h: Time) {
        if t.is_zero() {
            return; // h(0) is re-checked explicitly by every descent
        }
        if let Some(e) = self.entries.iter_mut().find(|e| e.0 == t) {
            e.1 = h;
        } else if self.entries.len() < ANCHOR_CAP {
            self.entries.push((t, h));
        } else {
            self.entries[self.cursor] = (t, h);
            self.cursor = (self.cursor + 1) % ANCHOR_CAP;
        }
    }

    /// Some memoised violation (`h > t`), if any.
    #[inline]
    fn violation(&self) -> Option<Time> {
        self.entries.iter().find(|&&(t, h)| h > t).map(|&(t, _)| t)
    }
}

/// The incremental demand kernel: owns a virtual-deadline assignment and
/// answers low- / high-mode demand checks with warm state reuse.
///
/// See the [module docs](self) for the delta-update contract and the
/// soundness arguments. Verdicts (including violation witnesses) are
/// bit-identical to the seed checks kept in the `mcsched-oracle` crate.
///
/// # Example
///
/// ```
/// use mcsched_analysis::demand::DemandKernel;
/// use mcsched_analysis::dbf::{self, VdTask};
/// use mcsched_model::{Task, Time};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let mut kernel = DemandKernel::new();
/// kernel.push_task(VdTask::untightened(Task::hi(0, 10, 2, 5)?));
///
/// // Untightened HC tasks always violate the zero-length window.
/// assert_eq!(kernel.check_hi(), dbf::DemandCheck::Violation(Time::ZERO));
///
/// // Tighten the virtual deadline: the kernel delta-updates its state
/// // and the re-check matches a from-scratch analysis exactly.
/// kernel.replace_vd(0, Time::new(5));
/// assert!(kernel.check_hi().is_ok());
/// assert!(kernel.check_lo().is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct DemandKernel {
    /// The assignment, in task order.
    tasks: Vec<VdTask>,
    /// SoA demand lanes parallel to `tasks`, including the compacted
    /// HC view (the single HC-subset copy path of the demand stack) and
    /// the reversible fast-kernel certificate.
    lanes: DemandSoa,
    /// How many tasks currently have `V = T` (the implicit-deadline,
    /// untightened special case of the low-mode check).
    untight_implicit: usize,
    /// Running `Σ C^L/T` in task order. Virtual deadlines do not enter
    /// it, so it is invariant under [`replace_vd`](Self::replace_vd);
    /// appends accumulate onto the running value — exactly what a fresh
    /// left-to-right summation would produce, hence bit-identical —
    /// and removals recompute it in order.
    lo_util: f64,
    /// Running `Σ_HC C^H/T` in HC order (same discipline as `lo_util`).
    hi_util: f64,
    /// Exact low-mode demand samples at historical violation points.
    lo_anchors: Anchors,
    /// HC virtual deadlines (in HC rank order) at the last high-mode
    /// QPA, for resume validity. LC deadlines are not snapshotted:
    /// high-mode demand reads only the compacted HC lanes, so LC moves
    /// cannot perturb the memoised fixpoint.
    hi_snap: Vec<Time>,
    /// Whether `hi_snap` / `hi_prev` describe the current task list.
    hi_snap_valid: bool,
    /// Outcome of the last high-mode QPA stage (not the prelude).
    hi_prev: Option<DemandCheck>,
    /// Fixpoint-reuse counters.
    counters: QpaCounters,
}

impl DemandKernel {
    /// An empty kernel (buffers grow to the high-water mark on use).
    pub fn new() -> Self {
        Self::default()
    }

    /// The current assignment, in task order.
    #[inline]
    pub fn assignment(&self) -> &[VdTask] {
        &self.tasks
    }

    /// Number of loaded tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when no tasks are loaded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The fixpoint-reuse counters accumulated by this kernel.
    pub fn counters(&self) -> QpaCounters {
        self.counters
    }

    /// Whether the current assignment carries the demand fast-kernel
    /// certificate (the [`crate::workspace`] module docs state the full
    /// argument). Observability for the equivalence and scale suites —
    /// verdicts never depend on which route the certificate selects.
    pub fn certified(&self) -> bool {
        self.lanes.fast()
    }

    /// The EY / ECDF structural overload rule over the running sums:
    /// `Σ C^L/T > 1`, or `Σ_HC C^H/T > 1`, or `Σ_HC C^H/T` in the band
    /// where [`check_hi`](Self::check_hi) answers
    /// [`DemandCheck::Unbounded`] for every assignment
    /// (`hi_util_unbounded`). The sums are the seed tuner's
    /// (`mcsched_oracle::vdtune`, which adds the loaded tasks in the same
    /// order), but its rule only tests `> 1`: on a set in the band it
    /// runs the greedy starts, each of which stops at that `Unbounded`
    /// and rejects. So the verdict is the seed's; the work before it
    /// (and the QPA counters it leaves) is not.
    pub fn overloaded(&self) -> bool {
        self.hi_util > 1.0 || hi_util_unbounded(self.hi_util) || self.lo_util > 1.0
    }

    /// [`overloaded`](Self::overloaded) as it would read after
    /// [`push_task`](Self::push_task)ing `task`: the candidate's terms
    /// add last, exactly as the push accumulates them — the O(1)
    /// admission-probe rejection, decided before any push.
    pub fn overloaded_with(&self, task: &Task) -> bool {
        let hi_util = if task.criticality().is_high() {
            self.hi_util + task.utilization_hi()
        } else {
            self.hi_util
        };
        hi_util > 1.0 || hi_util_unbounded(hi_util) || self.lo_util + task.utilization_lo() > 1.0
    }

    /// Drops all tasks and memos (counters are kept — they describe the
    /// kernel's lifetime, not one assignment).
    pub fn clear(&mut self) {
        self.tasks.clear();
        self.lanes.clear();
        self.untight_implicit = 0;
        self.lo_util = 0.0;
        self.hi_util = 0.0;
        self.lo_anchors.clear();
        self.hi_snap_valid = false;
        self.hi_prev = None;
    }

    /// [`clear`](Self::clear) plus zeroed counters: the kernel as a
    /// fresh one would be, its buffers kept (how a workspace recycles
    /// the kernel of a dropped admission state).
    pub(crate) fn reset(&mut self) {
        self.clear();
        self.counters = QpaCounters::default();
    }

    /// Replaces the contents with `tasks` (memos cleared: samples of a
    /// different set are meaningless). The lanes are rebuilt in one
    /// fused pass; the bookkeeping sums accumulate in insertion order,
    /// exactly as a sequence of [`push_task`](Self::push_task)es would.
    pub fn load(&mut self, tasks: &[VdTask]) {
        self.clear();
        self.tasks.extend_from_slice(tasks);
        self.rebuild_caches();
    }

    /// Replaces the contents with the untightened assignment of `ts`.
    pub fn load_untightened(&mut self, ts: &TaskSet) {
        self.clear();
        self.tasks
            .extend(ts.iter().map(|t| VdTask::untightened(*t)));
        self.rebuild_caches();
    }

    /// Rebuilds the lanes (one fused pass) and the bookkeeping sums
    /// from `self.tasks`. The utilization sums accumulate in insertion
    /// order — exactly what a sequence of
    /// [`push_task`](Self::push_task)es would produce, hence
    /// bit-identical to the seed's fresh left-to-right summation.
    fn rebuild_caches(&mut self) {
        self.lanes.load(&self.tasks);
        self.resum_util();
        let mut untight = 0usize;
        for vt in &self.tasks {
            untight += usize::from(vt.vd == vt.task.period());
        }
        self.untight_implicit = untight;
    }

    /// Re-derives both utilization sums with insertion-order loops over
    /// the cached `u_lo` / `hc_u_hi` lanes. Those hold the very
    /// quotients a fresh left-to-right summation over the tasks adds, in
    /// the same order, so the sums are bit-identical to it and no
    /// division runs.
    fn resum_util(&mut self) {
        let mut lo_util = 0.0;
        for &u in &self.lanes.u_lo {
            lo_util += u;
        }
        let mut hi_util = 0.0;
        for &u in &self.lanes.hc_u_hi {
            hi_util += u;
        }
        self.lo_util = lo_util;
        self.hi_util = hi_util;
    }

    /// Appends a task, delta-updating every memoised demand sample by
    /// its contribution (exact integer arithmetic) and accumulating the
    /// running utilization sums in insertion order (bit-identical to a
    /// fresh left-to-right summation).
    pub fn push_task(&mut self, vt: VdTask) {
        for e in &mut self.lo_anchors.entries {
            e.1 += dbf::dbf_lo(&vt, e.0);
        }
        let task = &vt.task;
        self.lo_util += task.wcet_lo().as_f64() / task.period().as_f64();
        if task.criticality().is_high() {
            self.hi_util += task.wcet_hi().as_f64() / task.period().as_f64();
        }
        if vt.vd == vt.task.period() {
            self.untight_implicit += 1;
        }
        self.lanes.push(&vt);
        self.tasks.push(vt);
        // The task list changed: the high-mode snapshot no longer
        // describes it (demand grew, so resume would be unsound anyway).
        self.hi_snap_valid = false;
        self.hi_prev = None;
    }

    /// Removes the **last** task (LIFO — the admission-probe pattern),
    /// delta-updating the memoised samples by its former contribution.
    /// The utilization sums are recomputed in order (floating-point
    /// subtraction is not exact; re-summation is).
    ///
    /// # Panics
    ///
    /// Panics if the kernel is empty.
    pub fn pop_task(&mut self) -> VdTask {
        let vt = self.tasks.pop().expect("pop_task on an empty kernel");
        self.lanes.pop();
        for e in &mut self.lo_anchors.entries {
            e.1 -= dbf::dbf_lo(&vt, e.0);
        }
        // Re-sum rather than subtract: a compensated `-=` would drift
        // from the push-path `+=`, while a fresh left-to-right resum
        // replays exactly the additions the running value accumulated.
        self.resum_util();
        if vt.vd == vt.task.period() {
            self.untight_implicit -= 1;
        }
        self.hi_snap_valid = false;
        self.hi_prev = None;
        vt
    }

    /// Sets the `idx`-th task's virtual deadline to `vd`, delta-updating
    /// every memoised demand sample by the exact integer difference.
    /// The utilization sums are untouched — they do not depend on
    /// virtual deadlines.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn replace_vd(&mut self, idx: usize, vd: Time) {
        let old = self.tasks[idx].vd;
        if old == vd {
            return;
        }
        let task = self.tasks[idx].task;
        let (cl, per, inv) = (
            self.lanes.c_lo[idx],
            self.lanes.period[idx],
            self.lanes.inv_period[idx],
        );
        let (vo, vn) = (old.as_ticks(), vd.as_ticks());
        for e in &mut self.lo_anchors.entries {
            let t = e.0.as_ticks();
            e.1 = Time::new(
                e.1.as_ticks() - lo_at_lane(cl, vo, per, inv, t) + lo_at_lane(cl, vn, per, inv, t),
            );
        }
        if old == task.period() {
            self.untight_implicit -= 1;
        }
        if vd == task.period() {
            self.untight_implicit += 1;
        }
        self.tasks[idx].vd = vd;
        self.lanes
            .set_vd(idx, vn, (task.deadline() - vd).as_ticks());
        // The high-mode snapshot stays: resume validity is decided at
        // check time by comparing against it (net tightening resumes).
    }

    /// Retargets every virtual deadline through
    /// [`replace_vd`](Self::replace_vd) (memos survive exactly).
    pub fn reseed(&mut self, mut target: impl FnMut(&Task) -> Time) {
        for i in 0..self.tasks.len() {
            let vd = target(&self.tasks[i].task);
            self.replace_vd(i, vd);
        }
    }

    /// Sets the first `vds.len()` virtual deadlines to `vds`, in order,
    /// through [`replace_vd`](Self::replace_vd) (memos survive exactly);
    /// later positions keep theirs.
    ///
    /// # Panics
    ///
    /// Panics if `vds` is longer than the assignment.
    pub(crate) fn assign(&mut self, vds: &[Time]) {
        for (i, &vd) in vds.iter().enumerate() {
            self.replace_vd(i, vd);
        }
    }

    /// Moves every HC task whose origin term `dbf_HI(0) = C^H − C^L` is
    /// positive (carry-over distance `d = 0` and `C^H > C^L`) to
    /// `V = D − 1` through [`replace_vd`](Self::replace_vd), and returns
    /// how many moved. Afterwards `h_HI(0) = 0`. The targets are valid
    /// virtual deadlines: an HC task has `D ≥ C^H > C^L`, so
    /// `D − 1 ≥ C^L`. The tuner's zero-witness macro-move (see
    /// [`crate::vdtune`]).
    pub(crate) fn lift_zero_witness(&mut self) -> usize {
        let mut moved = 0;
        for rank in 0..self.lanes.hc_len() {
            if !self.lanes.h0_hi_positive() {
                break;
            }
            let l = &self.lanes;
            if l.hc_dist[rank] == 0 && l.hc_c_hi[rank] > l.hc_c_lo[rank] {
                let pos = l.hc_pos[rank];
                let vd = self.tasks[pos].task.deadline() - Time::ONE;
                self.replace_vd(pos, vd);
                moved += 1;
            }
        }
        moved
    }

    /// Total demand of `mode` at `t` (exact, clamped at `Time::MAX` like
    /// the seed's saturating per-task folds, so the two stay
    /// bit-identical). Routes to the certified `const FAST` lane sweep
    /// when licensed (plain arithmetic, provably equal to the guarded
    /// route — see the module docs and [`DemandSoa::fast`]).
    #[inline]
    fn eval(&self, mode: Mode, t: u64) -> u64 {
        if self.lanes.fast() && t < CERT_T_LIM {
            self.block::<true>(mode, t)
        } else {
            self.block::<false>(mode, t)
        }
    }

    /// One lane sweep of `mode`'s demand at `t`, routed like
    /// [`lo_block`](Self::lo_block) / [`hi_block`](Self::hi_block).
    #[inline(always)]
    fn block<const FAST: bool>(&self, mode: Mode, t: u64) -> u64 {
        match mode {
            Mode::Lo => self.lo_block::<FAST>(t),
            Mode::Hi => self.hi_block::<FAST>(t),
        }
    }

    /// One `Σ dbf_LO(t)` lane sweep. The `FAST` monomorphisation uses
    /// plain arithmetic and no-fixup reciprocal floors — licensed only
    /// by the demand certificate plus `t < 2^32` (see [`CERT_T_LIM`]);
    /// the guarded route keeps the saturating forms and the exact
    /// [`df_inv`] floor, bit-identical to the seed's per-task
    /// [`crate::dbf::dbf_lo`] fold.
    fn lo_block<const FAST: bool>(&self, t: u64) -> u64 {
        let l = &self.lanes;
        let mut acc = 0u64;
        let lanes = l.vd.iter().zip(&l.period).zip(&l.inv_period).zip(&l.c_lo);
        for (((&vd, &per), &inv), &cl) in lanes {
            let rel = t.saturating_sub(vd);
            if FAST {
                let jobs = df_fast(rel, inv.wrapping_add(1)) + 1;
                acc += cl * jobs * u64::from(t >= vd);
            } else {
                let term = if t >= vd {
                    cl.saturating_mul(df_inv(rel, per, inv).saturating_add(1))
                } else {
                    0
                };
                acc = acc.saturating_add(term);
            }
        }
        acc
    }

    /// One `Σ dbf_HI(t)` sweep over the compacted HC lanes, routed like
    /// [`lo_block`](Self::lo_block). The `FAST` arm's plain
    /// `C^H·k − done` cannot underflow: `done ≤ C^L ≤ C^H ≤ C^H·k`
    /// (masked-out lanes compute `C^H − C^L ≥ 0`).
    fn hi_block<const FAST: bool>(&self, t: u64) -> u64 {
        let l = &self.lanes;
        let mut acc = 0u64;
        let lanes = l
            .hc_dist
            .iter()
            .zip(&l.hc_period)
            .zip(&l.hc_inv_period)
            .zip(&l.hc_c_lo)
            .zip(&l.hc_c_hi);
        for ((((&d, &per), &inv), &cl), &ch) in lanes {
            let rel = t.saturating_sub(d);
            if FAST {
                let q = df_fast(rel, inv.wrapping_add(1));
                let done = cl.saturating_sub(rel - q * per);
                acc += (ch * (q + 1) - done) * u64::from(t >= d);
            } else {
                let term = if t >= d {
                    let k = df_inv(rel, per, inv).saturating_add(1);
                    let done = cl.saturating_sub(rel % per);
                    ch.saturating_mul(k).saturating_sub(done)
                } else {
                    0
                };
                acc = acc.saturating_add(term);
            }
        }
        acc
    }

    /// The exact low-mode check: `Σ dbf_LO(t) ≤ t` for all `t` up to
    /// the busy-window bound `Σ u_i (Ti − Vi) / (1 − Σ u_i)`.
    ///
    /// Returns [`DemandCheck::Unbounded`] when `Σ C^L_i/Ti` reaches 1 and
    /// at least one deadline is tightened or constrained (the bound
    /// degenerates), and — the typed early-reject — when the busy-window
    /// bound is too large to represent (utilization within rounding
    /// distance of 1, or extreme task parameters); the
    /// exact-utilization-1, implicit-deadline, untightened case is
    /// accepted directly (plain EDF optimality). Certain overload
    /// (`U > 1`) reports a clamped (saturating) busy-window horizon as
    /// its violation witness. Otherwise bit-identical to the seed
    /// low-mode check (`mcsched_oracle::dbf::check_lo_mode`) on the
    /// current assignment.
    pub fn check_lo(&mut self) -> DemandCheck {
        self.lo_check(true)
    }

    /// The boolean low-mode fast path: exactly
    /// `self.check_lo().is_ok()`, but allowed to answer "infeasible"
    /// from a memoised violation anchor without a descent.
    pub fn lo_feasible(&mut self) -> bool {
        self.lo_check(false).is_ok()
    }

    fn lo_check(&mut self, exact: bool) -> DemandCheck {
        if self.tasks.is_empty() {
            return DemandCheck::Ok;
        }
        // Prelude: identical branch structure to the seed implementation,
        // over the cached (insertion-order, hence bit-identical)
        // utilization sum and the O(1) untightened-implicit counter.
        let util = self.lo_util;
        let all_implicit_untightened = self.untight_implicit == self.tasks.len();
        if util > 1.0 + UTIL_EPS {
            return DemandCheck::Violation(self.horizon_lo(util));
        }
        if util >= 1.0 - UTIL_EPS {
            return if all_implicit_untightened {
                DemandCheck::Ok
            } else {
                DemandCheck::Unbounded
            };
        }
        if all_implicit_untightened {
            return DemandCheck::Ok;
        }
        if !exact {
            // Anchor fast path: the anchors hold *exact* demand samples
            // of the current assignment (delta-maintained through every
            // mutation), so a memoised `h(t) > t` is a deadline-miss
            // witness outright — with `U < 1` the reference descent
            // cannot answer `Ok` while one exists (QPA finds some
            // violation whenever any instant violates). No start bound
            // is needed to answer the boolean question.
            if let Some(t) = self.lo_anchors.violation() {
                self.counters.anchor_hits += 1;
                return DemandCheck::Violation(t);
            }
        }
        // Insertion-order sum (verdict-bearing QPA start bound). The
        // per-task utilization comes from the cached lane — the exact
        // quotient the seed recomputes, so the sum is bit-identical.
        let mut k: f64 = 0.0;
        for (vt, &u) in self.tasks.iter().zip(self.lanes.u_lo.iter()) {
            let per = vt.task.period();
            k += u * (per - vt.vd.min(per)).as_f64();
        }
        let Some(bound) = qpa_start(k, util) else {
            return DemandCheck::Unbounded;
        };
        self.counters.cold += 1;
        let result = self.qpa(bound, Mode::Lo);
        if let DemandCheck::Violation(t) = result {
            self.lo_anchors
                .record(t, Time::new(self.eval(Mode::Lo, t.as_ticks())));
        }
        result
    }

    /// The exact high-mode check: `Σ_HC dbf_HI(t) ≤ t` for all `t` up to
    /// the busy-window bound `Σ_HC (C^H_i + u^H_i·(Ti − di)) / (1 − Σ u^H_i)`,
    /// with the overload clamping and typed early-reject of
    /// [`check_lo`](Self::check_lo). Bit-identical to the seed
    /// high-mode check (`mcsched_oracle::dbf::check_hi_mode`) on the
    /// current assignment, with the QPA stage warm-resumed from the
    /// previous fixpoint whenever every **HC** virtual deadline moved
    /// only down (high-mode demand only tightened) since the last check
    /// — LC deadlines never enter the high-mode demand, so they cannot
    /// invalidate the memo.
    pub fn check_hi(&mut self) -> DemandCheck {
        if self.lanes.hc_len() == 0 {
            return DemandCheck::Ok;
        }
        let util = self.hi_util;
        if util > 1.0 + UTIL_EPS {
            self.hi_snap_valid = false;
            self.hi_prev = None;
            return DemandCheck::Violation(self.horizon_hi(util));
        }
        if hi_util_unbounded(util) {
            self.hi_snap_valid = false;
            self.hi_prev = None;
            return DemandCheck::Unbounded;
        }
        let resume = self.hi_snap_valid
            && self.hi_snap.len() == self.lanes.hc_len()
            && self
                .lanes
                .hc_pos
                .iter()
                .zip(self.hi_snap.iter())
                .all(|(&pos, &snap)| self.lanes.vd[pos] <= snap.as_ticks());
        let result = match (resume, self.hi_prev) {
            (true, Some(DemandCheck::Ok)) => {
                // Demand only tightened: the previously cleared window
                // stays clear, and h(0) can only have shrunk.
                self.counters.resumed += 1;
                DemandCheck::Ok
            }
            // A zero witness comes from the `h(0) > 0` pre-check — no
            // descent ran, nothing above it was cleared, so it is not a
            // resume point.
            (true, Some(DemandCheck::Violation(t_star))) if !t_star.is_zero() => {
                // The maximum violation can only have moved down, and
                // `h_HI` is monotone non-decreasing in `t` — so a
                // descent started at the old witness walks the chain to
                // exactly the new maximum violation (or clears to the
                // fixpoint) without ever stepping below it. No
                // busy-window bound recompute is needed: the old
                // witness already sits under the previous bound and the
                // window only shrank since.
                self.counters.resumed += 1;
                self.qpa(t_star.as_ticks(), Mode::Hi)
            }
            _ => {
                self.counters.cold += 1;
                match qpa_start(self.hi_k(), util) {
                    Some(bound) => self.qpa(bound, Mode::Hi),
                    None => {
                        self.hi_snap_valid = false;
                        self.hi_prev = None;
                        return DemandCheck::Unbounded;
                    }
                }
            }
        };
        self.hi_prev = Some(result);
        self.hi_snap.clear();
        let lanes = &self.lanes;
        self.hi_snap
            .extend(lanes.hc_pos.iter().map(|&p| Time::new(lanes.vd[p])));
        self.hi_snap_valid = true;
        result
    }

    /// The seed QPA descent (`qpa_check` in `mcsched_oracle::dbf`) with
    /// memo-assisted — but value-exact — demand evaluations.
    fn qpa(&mut self, bound: u64, mode: Mode) -> DemandCheck {
        // `h(0) > 0` is answered by the lanes' exact origin counters
        // (see [`DemandSoa::h0_lo_positive`]) — no sweep: `h_LO(0)`
        // sums `C^L` over `vd == 0` positions, `h_HI(0)` sums
        // `C^H − C^L` over `dist == 0` positions.
        let h0_positive = match mode {
            Mode::Lo => self.lanes.h0_lo_positive(),
            Mode::Hi => self.lanes.h0_hi_positive(),
        };
        if h0_positive {
            return DemandCheck::Violation(Time::ZERO);
        }
        if bound == 0 {
            return DemandCheck::Ok;
        }
        // A descent only moves down, so `bound < 2^32` certifies every
        // instant it will visit for the `const FAST` sweeps (the guarded
        // instance still upgrades per evaluation once `t` drops below the
        // licence, via [`eval`](Self::eval)).
        if self.lanes.fast() && bound < CERT_T_LIM {
            self.descend::<true>(bound, mode)
        } else {
            self.descend::<false>(bound, mode)
        }
    }

    /// The high-mode busy-window numerator
    /// `Σ_HC (C^H + u^H·(T − d))`, in HC order.
    fn hi_k(&self) -> f64 {
        // Insertion-order sum (verdict-bearing QPA start bound) over the
        // compacted HC lanes; `C^H` and `C^H/T` come from the cached f64
        // lanes — the exact values the seed recomputes per call.
        let lanes = &self.lanes;
        let mut k: f64 = 0.0;
        for i in 0..lanes.hc_len() {
            let w = Time::new(lanes.hc_period[i].saturating_sub(lanes.hc_dist[i]));
            k += lanes.hc_ch_f[i] + lanes.hc_u_hi[i] * w.as_f64();
        }
        k
    }

    /// The descending QPA fixpoint loop, starting at `start`
    /// (inclusive). The `FAST` instance evaluates every point straight
    /// through the `const FAST` lane sweep — no per-point licence
    /// re-check — and requires the caller to have checked
    /// [`DemandSoa::fast`] and `start < 2^32` (a descent only moves
    /// down); the guarded instance dispatches each point through
    /// [`eval`](Self::eval). Same chain, same budget, same verdicts (see
    /// the module-docs soundness note).
    ///
    /// An 8-wide ladder variant (one lane pass evaluating several
    /// adjacent candidate points, a walker consuming the scalar chain
    /// through the precomputed slots) was benchmarked here and measured
    /// a net loss on admission-sized corpora: QPA chains jump coarsely
    /// often enough that most speculative slots are discarded, and a
    /// discarded slot costs exactly as much as a consumed one. The
    /// batching that pays is the lane sweep itself (all tasks per
    /// point, branch-free); the chain stays one point at a time.
    fn descend<const FAST: bool>(&self, start: u64, mode: Mode) -> DemandCheck {
        let mut t = start;
        for _ in 0..QPA_BUDGET {
            let d = if FAST {
                self.block::<true>(mode, t)
            } else {
                self.eval(mode, t)
            };
            if d > t {
                return DemandCheck::Violation(Time::new(t));
            }
            if d == 0 {
                return DemandCheck::Ok;
            }
            if d < t {
                t = d;
            } else {
                if t == 1 {
                    return DemandCheck::Ok;
                }
                t -= 1;
            }
        }
        DemandCheck::Unbounded
    }

    /// The positions (task-order indices) of the HC tasks, ascending —
    /// the tuner's move enumeration walks these instead of filtering
    /// the full task list per round.
    #[inline]
    pub(crate) fn hc_positions(&self) -> &[usize] {
        &self.lanes.hc_pos
    }

    /// Exact `(⌊rel/T⌋, rel mod T)` for the loaded task `idx`, the
    /// floor division taken through the cached lane reciprocal
    /// ([`df_inv`] is the exact floor for all `u64`, so this is
    /// bit-identical to `rel.div_floor(T)` / `rel % T`). The tuner's
    /// move enumeration calls this once per HC task per round instead
    /// of dividing.
    pub(crate) fn div_period(&self, idx: usize, rel: Time) -> (u64, Time) {
        let (per, inv) = (self.lanes.period[idx], self.lanes.inv_period[idx]);
        let q = df_inv(rel.as_ticks(), per, inv);
        (q, Time::new(rel.as_ticks() - q.saturating_mul(per)))
    }

    /// Exact `dbf_HI` of the loaded task `idx` at `t` **as if** its
    /// virtual deadline were `vd` — [`crate::dbf::dbf_hi`] with the
    /// floor division routed through the cached lane reciprocal
    /// (bit-identical; see [`DemandKernel::div_period`]). Candidate
    /// moves are scored through this without touching the assignment.
    pub(crate) fn dbf_hi_with(&self, idx: usize, vd: Time, t: Time) -> Time {
        let task = &self.tasks[idx].task;
        if task.criticality().is_low() {
            return Time::ZERO;
        }
        let d = task.deadline() - vd;
        if t < d {
            return Time::ZERO;
        }
        let (q, m) = self.div_period(idx, t - d);
        let done = task.wcet_lo().saturating_sub(m);
        task.wcet_hi()
            .saturating_mul(q.saturating_add(1))
            .saturating_sub(done)
    }

    /// Certain-overload witness for the low-mode check (`U > 1`):
    /// the seed's busy-window horizon, clamped saturating so extreme
    /// utilizations can no longer overflow `Time` (satellite fix).
    fn horizon_lo(&self, util: f64) -> Time {
        // Insertion-order sum.
        let mut k: f64 = 0.0;
        for vt in &self.tasks {
            k += vt.task.wcet_lo().as_f64() / vt.task.period().as_f64() * vt.vd.as_f64();
        }
        let max_v = self
            .tasks
            .iter()
            .map(|vt| vt.vd)
            .fold(Time::ZERO, Time::max);
        Time::new((k / (util - 1.0)).ceil() as u64)
            .max(max_v)
            .saturating_add(Time::ONE)
    }

    /// Certain-overload witness for the high-mode check, clamped like
    /// [`horizon_lo`](Self::horizon_lo).
    fn horizon_hi(&self, util: f64) -> Time {
        // Insertion-order sum.
        let mut k: f64 = 0.0;
        let mut max_d = Time::ZERO;
        for vt in self
            .tasks
            .iter()
            .filter(|vt| vt.task.criticality().is_high())
        {
            let dist = vt.task.deadline() - vt.vd;
            let u = vt.task.wcet_hi().as_f64() / vt.task.period().as_f64();
            k += u * dist.as_f64() + vt.task.wcet_lo().as_f64();
            max_d = max_d.max(dist);
        }
        Time::new((k / (util - 1.0)).ceil() as u64)
            .max(max_d)
            .saturating_add(Time::ONE)
    }
}

/// Which demand bound a descent evaluates.
#[derive(Debug, Clone, Copy)]
enum Mode {
    Lo,
    Hi,
}

/// `dbf_LO` of one task from raw lane values — the per-anchor delta
/// term of [`DemandKernel::replace_vd`], bit-identical to
/// [`dbf::dbf_lo`] ([`df_inv`] is the exact floor for all `u64`, so the
/// lane reciprocal replaces the hardware division).
fn lo_at_lane(cl: u64, vd: u64, per: u64, inv: u64, t: u64) -> u64 {
    if t < vd {
        return 0;
    }
    cl.saturating_mul(df_inv(t - vd, per, inv).saturating_add(1))
}

/// Whether a high-mode utilization `Σ_HC C^H/T` lies in
/// `[1 − UTIL_EPS, 1 + UTIL_EPS]`, the band where
/// [`DemandKernel::check_hi`] answers [`DemandCheck::Unbounded`] (its
/// busy-window bound degenerates) whatever the virtual deadlines, so the
/// EY / ECDF search rejects before it starts
/// ([`DemandKernel::overloaded`]).
fn hi_util_unbounded(util: f64) -> bool {
    (1.0 - UTIL_EPS..=1.0 + UTIL_EPS).contains(&util)
}

/// The busy-window QPA start `ceil(K / (1 − U))`, or `None` when it is
/// not representable (the typed early-reject of the satellite fix:
/// callers return [`DemandCheck::Unbounded`] instead of descending from
/// a saturated horizon).
fn qpa_start(k: f64, util: f64) -> Option<u64> {
    let bound = (k / (1.0 - util)).ceil();
    if bound.is_finite() && bound < MAX_QPA_START {
        Some(bound as u64)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_model::Task;

    fn vd(task: Task, v: u64) -> VdTask {
        VdTask {
            task,
            vd: Time::new(v),
        }
    }

    #[test]
    fn counters_observe_resume_and_anchors() {
        // A two-HC-task set seeded with overrun slack (so violations come
        // from descents, not the zero-window pre-check): repeated
        // check → tighten cycles must resume the fixpoint.
        let mut kernel = DemandKernel::new();
        kernel.push_task(vd(Task::hi(0, 10, 2, 5).unwrap(), 7));
        kernel.push_task(vd(Task::hi(1, 14, 3, 6).unwrap(), 11));
        let mut vd0 = 7u64;
        let first = kernel.check_hi();
        assert!(
            matches!(first, DemandCheck::Violation(t) if !t.is_zero()),
            "{first:?}"
        );
        while vd0 > 2 {
            vd0 -= 1;
            kernel.replace_vd(0, Time::new(vd0));
            if kernel.check_hi().is_ok() {
                break;
            }
        }
        assert!(
            kernel.counters().resumed >= 1,
            "no resumed fixpoints: {:?}",
            kernel.counters()
        );
        // Overload the lo side so a violation is memoised, then probe
        // the boolean path again: the anchor must answer.
        let mut kernel = DemandKernel::new();
        kernel.push_task(vd(Task::hi(0, 20, 5, 10).unwrap(), 5));
        kernel.push_task(vd(Task::hi(1, 20, 5, 10).unwrap(), 5));
        assert!(!kernel.lo_feasible());
        assert!(!kernel.lo_feasible());
        assert!(kernel.counters().anchor_hits >= 1);
    }

    #[test]
    fn utilization_sums_stay_bit_identical_to_a_fresh_load() {
        // Periods whose quotients round, so a different summation order
        // or a subtraction would show in the low bits.
        let tasks = [
            vd(Task::hi(0, 7, 1, 3).unwrap(), 5),
            VdTask::untightened(Task::lo(1, 11, 2).unwrap()),
            vd(Task::hi(2, 13, 3, 5).unwrap(), 9),
            VdTask::untightened(Task::lo(3, 17, 3).unwrap()),
            vd(Task::hi(4, 19, 2, 7).unwrap(), 12),
            VdTask::untightened(Task::lo(5, 23, 4).unwrap()),
        ];
        let assert_fresh = |kernel: &DemandKernel| {
            let mut fresh = DemandKernel::new();
            fresh.load(kernel.assignment());
            assert_eq!(kernel.lo_util.to_bits(), fresh.lo_util.to_bits());
            assert_eq!(kernel.hi_util.to_bits(), fresh.hi_util.to_bits());
            // The seed's summation: divide per task, in task order.
            let (mut lo, mut hi) = (0.0, 0.0);
            for vt in kernel.assignment() {
                let t = &vt.task;
                lo += t.wcet_lo().as_f64() / t.period().as_f64();
                if t.criticality().is_high() {
                    hi += t.wcet_hi().as_f64() / t.period().as_f64();
                }
            }
            assert_eq!(kernel.lo_util.to_bits(), f64::to_bits(lo));
            assert_eq!(kernel.hi_util.to_bits(), f64::to_bits(hi));
        };
        let mut kernel = DemandKernel::new();
        for vt in tasks {
            kernel.push_task(vt);
            assert_fresh(&kernel);
        }
        kernel.replace_vd(0, Time::new(2));
        kernel.replace_vd(4, Time::new(8));
        for _ in 0..3 {
            let _ = kernel.pop_task();
            assert_fresh(&kernel);
        }
        kernel.push_task(tasks[5]);
        kernel.push_task(tasks[3]);
        kernel.replace_vd(2, Time::new(4));
        assert_fresh(&kernel);
        while !kernel.is_empty() {
            let _ = kernel.pop_task();
            assert_fresh(&kernel);
        }
    }

    #[test]
    fn lift_zero_witness_moves_exactly_the_hot_tasks() {
        let mut kernel = DemandKernel::new();
        kernel.load(&[
            VdTask::untightened(Task::hi(0, 20, 2, 5).unwrap()),
            VdTask::untightened(Task::lo(1, 12, 3).unwrap()),
            // C^H = C^L: no origin term, stays put.
            VdTask::untightened(Task::hi(2, 40, 4, 4).unwrap()),
            // Already tightened: d > 0, stays put.
            vd(Task::hi(3, 60, 2, 6).unwrap(), 25),
            VdTask::untightened(Task::hi_constrained(4, 80, 3, 7, 35).unwrap()),
        ]);
        assert_eq!(kernel.check_hi(), DemandCheck::Violation(Time::ZERO));
        assert_eq!(kernel.lift_zero_witness(), 2);
        let vds: Vec<u64> = kernel
            .assignment()
            .iter()
            .map(|vt| vt.vd.as_ticks())
            .collect();
        assert_eq!(vds, [19, 12, 40, 25, 34]);
        assert!(!kernel.lanes.h0_hi_positive());
        assert_eq!(kernel.lift_zero_witness(), 0);
    }

    #[test]
    fn anchors_are_bounded() {
        let mut anchors = Anchors::default();
        for t in 1..(ANCHOR_CAP as u64 * 4) {
            anchors.record(Time::new(t), Time::new(t / 2));
        }
        assert!(anchors.entries.len() <= ANCHOR_CAP);
        assert_eq!(anchors.violation(), None);
        anchors.record(Time::new(500), Time::new(900));
        assert_eq!(anchors.violation(), Some(Time::new(500)));
        // Zero-instant samples are never anchored.
        let mut anchors = Anchors::default();
        anchors.record(Time::ZERO, Time::new(9));
        assert!(anchors.entries.is_empty());
    }

    #[test]
    fn fast_and_guarded_blocks_agree_pointwise() {
        // A certified assignment: the `FAST` sweeps must equal the
        // guarded route at every instant the licence covers (the routes
        // share one lane view, so this pins the no-fixup floors and the
        // plain-arithmetic rewrite of the step terms).
        let tasks = [
            vd(Task::hi(0, 10, 2, 5).unwrap(), 7),
            VdTask::untightened(Task::lo(1, 12, 3).unwrap()),
            vd(Task::hi_constrained(2, 20, 3, 7, 16).unwrap(), 9),
            vd(Task::hi(3, 33, 4, 11).unwrap(), 15),
        ];
        let mut kernel = DemandKernel::new();
        kernel.load(&tasks);
        assert!(kernel.lanes.fast(), "fixture must certify");
        for t in 0..400u64 {
            assert_eq!(
                kernel.lo_block::<true>(t),
                kernel.lo_block::<false>(t),
                "lo t={t}"
            );
            assert_eq!(
                kernel.hi_block::<true>(t),
                kernel.hi_block::<false>(t),
                "hi t={t}"
            );
        }
    }

    #[test]
    fn fast_descent_matches_guarded_descent_exactly() {
        // Certified sets with plateau-heavy and jump-heavy descents:
        // the `const FAST` chain must reproduce the guarded loop's
        // verdict (witness included) from every start point.
        let sets: [&[VdTask]; 3] = [
            &[
                vd(Task::hi(0, 10, 2, 5).unwrap(), 7),
                vd(Task::hi(1, 14, 3, 6).unwrap(), 11),
            ],
            &[
                vd(Task::hi(0, 12, 2, 6).unwrap(), 6),
                vd(Task::hi(1, 20, 3, 9).unwrap(), 10),
                VdTask::untightened(Task::lo(2, 25, 4).unwrap()),
                vd(Task::hi(3, 33, 4, 11).unwrap(), 14),
            ],
            &[
                vd(Task::hi(0, 20, 5, 10).unwrap(), 5),
                vd(Task::hi(1, 20, 5, 10).unwrap(), 5),
                VdTask::untightened(Task::lo(2, 7, 1).unwrap()),
            ],
        ];
        for tasks in sets {
            let mut kernel = DemandKernel::new();
            kernel.load(tasks);
            assert!(kernel.lanes.fast(), "fixture must certify");
            for mode in [Mode::Lo, Mode::Hi] {
                for start in [1u64, 2, 3, 7, 8, 9, 17, 40, 61, 200, 999, 5000] {
                    let batched = kernel.descend::<true>(start, mode);
                    let scalar = kernel.descend::<false>(start, mode);
                    assert_eq!(batched, scalar, "start={start} {mode:?} {tasks:?}");
                }
            }
        }
    }

    #[test]
    fn qpa_start_rejects_unrepresentable_bounds() {
        assert_eq!(qpa_start(10.0, 0.5), Some(20));
        assert_eq!(qpa_start(1e19, 0.5), None);
        assert_eq!(qpa_start(1.0, 1.0 - 1e-18), None); // 1/(1-U) → inf-ish
        assert_eq!(qpa_start(0.0, 0.5), Some(0));
    }
}
