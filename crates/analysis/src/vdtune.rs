//! Virtual-deadline tuning and the EY / ECDF schedulability tests.
//!
//! Both tests share the demand-bound machinery of [`crate::dbf`] and differ
//! in how hard they search for a feasible per-task virtual-deadline
//! assignment `{Vi}`:
//!
//! * [`Ey`] — a single-start greedy tuner in the spirit of Ekberg & Yi
//!   (ECRTS 2012): start from `Vi = Di`, and while the high-mode check
//!   fails at some witness `t*`, tighten the one virtual deadline whose
//!   adjustment most reduces the high-mode demand at `t*`, subject to the
//!   low-mode check staying satisfied.
//! * [`Ecdf`] — Easwaran's ECDF (RTSS 2013) reconstructed as the same
//!   framework with a strictly stronger assignment search: a slack-seeded
//!   multi-start, richer tightening moves (including the
//!   *earliest-carry-over-deadline-first* seeding that gives the algorithm
//!   its name), and a final fallback to [`Ey`]'s exact procedure, which
//!   makes dominance (`Ey` accepts ⇒ `Ecdf` accepts) structural.
//!
//! **Reconstruction note**: the original ECDF paper derives a tighter
//! carry-over demand bound; its exact form is not reproducible from the
//! DATE 2017 text alone, and a plausible window-capped variant turns out
//! to be unsound (it can hide a violation when `di < C^H_i − C^L_i`). We
//! therefore keep the sound Ekberg–Yi bound for both tests and realise
//! ECDF's documented schedulability advantage through assignment search,
//! which preserves the orderings the DATE 2017 evaluation relies on
//! (`ECDF ⊇ EY`, with a visible gap).

use crate::dbf::{DemandCheck, VdTask};
use crate::demand::DemandKernel;
use crate::incremental::{AdmissionState, AdmissionStats, Committed};
use crate::workspace::{AnalysisWorkspace, WorkspaceRef};
use crate::SchedulabilityTest;
use mcsched_model::{SystemUtilization, Task, TaskId, TaskSet, Time};

/// A feasible virtual-deadline assignment produced by a tuner.
///
/// Holds one [`VdTask`] per input task, in task-set order. The runtime
/// simulator uses this to drive EDF with virtual deadlines.
#[derive(Debug, Clone, PartialEq)]
pub struct VdAssignment {
    tasks: Vec<VdTask>,
}

impl VdAssignment {
    /// The tasks with their virtual deadlines, in task-set order.
    pub fn as_slice(&self) -> &[VdTask] {
        &self.tasks
    }

    /// The virtual deadline assigned to the `idx`-th task of the input set.
    pub fn virtual_deadline(&self, idx: usize) -> Option<Time> {
        self.tasks.get(idx).map(|vt| vt.vd)
    }

    /// Consumes the assignment, returning the underlying pairs.
    pub fn into_vec(self) -> Vec<VdTask> {
        self.tasks
    }
}

/// How much search effort a tuner invests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Effort {
    /// Maximum greedy rounds per start.
    max_rounds: usize,
    /// Use the bisection and minimal-slack candidate moves.
    rich_moves: bool,
}

const EY_EFFORT: Effort = Effort {
    max_rounds: 64,
    rich_moves: false,
};

const ECDF_EFFORT: Effort = Effort {
    max_rounds: 128,
    rich_moves: true,
};

/// The slack-seeded start of one task, [`search`]'s ECDF reseed
/// target: every HC task pre-tightened so its carry-over job has at
/// least `C^H − C^L` slack after the switch ("earliest carry-over
/// deadline first" seeding); LC tasks keep their real deadlines.
fn slack_seeded_task(t: &Task) -> VdTask {
    if t.criticality().is_high() {
        let slack = t.wcet_hi() - t.wcet_lo();
        let vd = (t.deadline() - slack).max(t.wcet_lo());
        VdTask { task: *t, vd }
    } else {
        VdTask::untightened(*t)
    }
}

/// One candidate tightening move for a HC task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Move {
    idx: usize,
    new_vd: Time,
    gain: Time,
    /// The deadline cut `vd − new_vd` (the second sort key), filled at
    /// push time so the hot comparator never chases the task list.
    cut: Time,
}

/// Enumerates the tightening moves for the HC task at `idx` that reduce
/// its high-mode demand at the violation witness `t_star` — the seed
/// tuner's candidate moves, in the same order, with every `dbf_HI` probe
/// and floor division routed through the kernel's lane reciprocals
/// ([`DemandKernel::div_period`] / [`DemandKernel::dbf_hi_with`] are
/// bit-identical to the divisions they replace), so the enumeration
/// never divides.
fn tightening_moves(
    kernel: &DemandKernel,
    idx: usize,
    t_star: Time,
    rich: bool,
    out: &mut Vec<Move>,
) {
    let vt = kernel.assignment()[idx];
    let task = vt.task;
    debug_assert!(task.criticality().is_high(), "caller walks HC positions");
    let floor_vd = task.wcet_lo();
    if vt.vd <= floor_vd {
        return; // cannot tighten further
    }
    let current = kernel.dbf_hi_with(idx, vt.vd, t_star);
    if current.is_zero() {
        return; // no contribution at the witness; tightening here is noise
    }
    let d = vt.dist();
    let period = task.period();
    let rel = t_star - d; // t* ≥ d because current > 0
    let (q, m) = kernel.div_period(idx, rel);
    let k = q + 1;

    let mut push = |new_vd: Time| {
        let new_vd = new_vd.max(floor_vd);
        if new_vd >= vt.vd {
            return;
        }
        let after = kernel.dbf_hi_with(idx, new_vd, t_star);
        if after < current {
            out.push(Move {
                idx,
                new_vd,
                gain: current - after,
                cut: vt.vd - new_vd,
            });
        }
    };

    // Move A — push the earliest counted deadline out of the window
    // (reduces the job count k at t*): need d' > t* − (k−1)·T.
    let d_drop = t_star.saturating_sub((k - 1) * period) + Time::ONE;
    if d_drop <= task.deadline() {
        push(task.deadline() - d_drop);
    }
    // Move B — align the carry-over job so its guaranteed progress is
    // maximal (mod → 0): d' = d + m.
    if !m.is_zero() {
        push(vt.vd - m.min(vt.vd));
    }
    if rich {
        // Move C — ensure minimal overrun slack d ≥ C^H − C^L in one jump.
        let slack = task.wcet_hi() - task.wcet_lo();
        if d < slack {
            push(task.deadline() - slack.min(task.deadline()));
        }
        // Move D — bisect towards the floor to escape plateaus.
        let mid = Time::new((vt.vd.as_ticks() + floor_vd.as_ticks()) / 2);
        push(mid);
    }
}

/// Greedy descent over the incremental demand kernel: each round's
/// high-mode QPA warm-resumes from the previous round's violation point
/// (every applied move only tightens demand), each candidate move is a
/// single [`DemandKernel::replace_vd`] delta-update, and the low-mode
/// feasibility of a candidate is usually answered by a memoised violation
/// anchor instead of a fresh descent. Verdicts, witnesses and applied
/// moves are exactly those of the seed descent (kept as a test oracle
/// in the `mcsched-oracle` crate).
///
/// **Zero-witness macro-move.** A witness `t* = 0` means some HC tasks
/// are *hot*: `d = 0` and `C^H > C^L`, each contributing `C^H − C^L` at
/// the origin. The seed spends one round per hot task there, and each
/// round applies a `V = D − 1` move: at `t* = 0` only hot tasks have
/// moves, each one's smallest cut is `D − 1` (which clears its origin
/// term), and low-mode demand only grows as a deadline tightens, so
/// when a task's `D − 1` fails the low-mode check its deeper cuts fail
/// too. The witness stays 0 until no hot task is left, so the seed
/// either rejects on the way or reaches every hot task at `D − 1`. If
/// that state passes the low-mode check, so does each partial state
/// before it (each is less tightened), and the seed reaches it; if it
/// fails, the seed cannot reach it and rejects. So the kernel applies
/// all the moves in one step
/// ([`DemandKernel::lift_zero_witness`]), checks the low-mode test once
/// and charges one round per task moved. The search rejects when that
/// reaches the round budget, as the seed would with no round left to
/// re-check.
fn greedy_kernel(kernel: &mut DemandKernel, effort: Effort, moves: &mut Vec<Move>) -> bool {
    if !kernel.lo_feasible() {
        return false;
    }
    let mut rounds = 0;
    while rounds < effort.max_rounds {
        let t_star = match kernel.check_hi() {
            DemandCheck::Ok => return true,
            DemandCheck::Violation(t) => t,
            DemandCheck::Unbounded => return false,
        };
        if t_star.is_zero() {
            let moved = kernel.lift_zero_witness();
            debug_assert!(moved > 0, "a zero witness has a hot HC task");
            rounds += moved;
            if rounds >= effort.max_rounds || !kernel.lo_feasible() {
                return false;
            }
            continue;
        }
        rounds += 1;
        moves.clear();
        // Only HC tasks ever produce moves (LC demand has no high-mode
        // contribution); walking the HC position list — ascending, so
        // the same enumeration order as a filtered full scan — skips
        // the LC early-outs entirely.
        for &idx in kernel.hc_positions() {
            tightening_moves(kernel, idx, t_star, effort.rich_moves, moves);
        }
        // Largest demand reduction first; prefer the smallest deadline cut
        // among equal gains (less low-mode damage). The task-index
        // tiebreak makes the order total for distinct moves — two moves
        // tying on (gain, cut, idx) necessarily propose the same `new_vd`
        // (cut determines it), so the never-allocating unstable sort
        // yields exactly the applied-move sequence the seed's stable sort
        // produced (ties across indices were inserted in index order).
        moves.sort_unstable_by(|a, b| {
            b.gain
                .cmp(&a.gain)
                .then_with(|| a.cut.cmp(&b.cut))
                .then_with(|| a.idx.cmp(&b.idx))
        });
        let mut applied = false;
        for mv in moves.iter() {
            let prev = kernel.assignment()[mv.idx].vd;
            kernel.replace_vd(mv.idx, mv.new_vd);
            if kernel.lo_feasible() {
                applied = true;
                break;
            }
            kernel.replace_vd(mv.idx, prev);
        }
        if !applied {
            return false;
        }
    }
    false
}

/// The one EY / ECDF verdict routine: the tuner's greedy starts over a
/// kernel that holds the untightened assignment of the set under test.
/// On success the feasible assignment is left in the kernel.
///
/// The start sequence is "untightened → (ECDF only) slack-seeded →
/// EY-effort fallback from the untightened start"; starts switch by
/// [`DemandKernel::reseed`], so the demand memos survive every switch.
/// Same starts, in the same order, as the allocating seed tuner of
/// `mcsched-oracle` — identical verdicts and identical chosen
/// assignments — except on a set whose high-mode utilization lies in
/// the band where every high-mode check is unbounded: the seed runs its
/// starts into that check, this search rejects before the first one
/// ([`DemandKernel::overloaded`]).
fn search(kernel: &mut DemandKernel, ecdf: bool, moves: &mut Vec<Move>) -> bool {
    if kernel.overloaded() {
        return false;
    }
    if !ecdf {
        return greedy_kernel(kernel, EY_EFFORT, moves);
    }
    greedy_kernel(kernel, ECDF_EFFORT, moves)
        || {
            kernel.reseed(|t| slack_seeded_task(t).vd);
            greedy_kernel(kernel, ECDF_EFFORT, moves)
        }
        || {
            kernel.reseed(|t| t.deadline());
            greedy_kernel(kernel, EY_EFFORT, moves)
        }
}

/// Loads `ts` untightened into the workspace kernel and runs [`search`].
fn search_set(ts: &TaskSet, ecdf: bool, ws: &mut AnalysisWorkspace) -> bool {
    let AnalysisWorkspace { demand, moves, .. } = ws;
    demand.load_untightened(ts);
    search(demand, ecdf, moves)
}

/// [`search_set`] on a pooled workspace, copying the found assignment out.
fn tuned_assignment(ts: &TaskSet, ecdf: bool) -> Option<VdAssignment> {
    AnalysisWorkspace::with(|ws| {
        search_set(ts, ecdf, ws).then(|| VdAssignment {
            tasks: ws.demand.assignment().to_vec(),
        })
    })
}

/// The EY demand-bound test (Ekberg & Yi, ECRTS 2012 style).
///
/// Valid for implicit- and constrained-deadline dual-criticality sets.
/// No speed-up bound is known for this test (matching the paper's
/// discussion).
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::{Ey, SchedulabilityTest};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 4)?,
///     Task::lo(1, 20, 8)?,
/// ])?;
/// assert!(Ey::new().is_schedulable(&ts));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ey {
    _priv: (),
}

impl Ey {
    /// Creates the test.
    pub const fn new() -> Self {
        Ey { _priv: () }
    }

    /// Runs the tuner and returns the feasible virtual-deadline assignment,
    /// if one is found. The runtime simulator consumes this.
    pub fn tune(&self, ts: &TaskSet) -> Option<VdAssignment> {
        tuned_assignment(ts, false)
    }
}

impl SchedulabilityTest for Ey {
    fn name(&self) -> &'static str {
        "EY"
    }
    fn is_schedulable(&self, ts: &TaskSet) -> bool {
        AnalysisWorkspace::with(|ws| self.is_schedulable_in(ts, ws))
    }
    fn is_schedulable_in(&self, ts: &TaskSet, ws: &mut AnalysisWorkspace) -> bool {
        search_set(ts, false, ws)
    }
    fn admission_state_in(&self, ws: &WorkspaceRef) -> Box<dyn AdmissionState + '_> {
        Box::new(VdTuneState::with_workspace(false, ws.clone()))
    }
}

/// The ECDF demand-bound test (Easwaran, RTSS 2013 style).
///
/// Dominates [`Ey`] by construction: it tries richer tightening moves and
/// extra starting points, and finally falls back to `Ey`'s exact search.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// use mcsched_analysis::{Ecdf, SchedulabilityTest};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi_constrained(0, 20, 2, 6, 15)?,
///     Task::lo(1, 10, 3)?,
/// ])?;
/// assert!(Ecdf::new().is_schedulable(&ts));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Ecdf {
    _priv: (),
}

impl Ecdf {
    /// Creates the test.
    pub const fn new() -> Self {
        Ecdf { _priv: () }
    }

    /// Runs the tuner and returns the feasible virtual-deadline assignment,
    /// if one is found.
    pub fn tune(&self, ts: &TaskSet) -> Option<VdAssignment> {
        tuned_assignment(ts, true)
    }
}

impl SchedulabilityTest for Ecdf {
    fn name(&self) -> &'static str {
        "ECDF"
    }
    fn is_schedulable(&self, ts: &TaskSet) -> bool {
        AnalysisWorkspace::with(|ws| self.is_schedulable_in(ts, ws))
    }
    fn is_schedulable_in(&self, ts: &TaskSet, ws: &mut AnalysisWorkspace) -> bool {
        search_set(ts, true, ws)
    }
    fn admission_state_in(&self, ws: &WorkspaceRef) -> Box<dyn AdmissionState + '_> {
        Box::new(VdTuneState::with_workspace(true, ws.clone()))
    }
}

/// Incremental admission for the demand-bound tests ([`Ey`] / [`Ecdf`]).
///
/// The state keeps, per committed processor:
///
/// * a **warm [`DemandKernel`]** holding the untightened assignment of
///   the committed tasks. Its running utilization sums reject a
///   structurally overloaded candidate in **O(1)**
///   ([`DemandKernel::overloaded_with`], before any push). Otherwise a
///   probe pushes the candidate ([`DemandKernel::push_task`]), runs the
///   one verdict routine the one-shot tests run (`search`: the greedy
///   starts in place, reseeding between starts via exact
///   delta-updates), then restores the untightened assignment and pops
///   — so the kernel's demand memos survive from probe to probe, and a
///   candidate whose low-mode demand trips a previously memoised
///   violation anchor is rejected without any QPA descent;
/// * the **committed tuning** `A`: the virtual deadlines the last
///   accepting search ended on, when the committed set is exactly the
///   set that search judged. A probe that accepts records its end
///   assignment; a following [`commit`](AdmissionState::commit) of the
///   identical [`Task`] (the whole value, not just the id) adopts it as
///   `A`. Any other commit, a [`remove`](AdmissionState::remove) and
///   [`take_tasks`](AdmissionState::take_tasks) drop it;
/// * the utilization summary the partitioning fit rules read.
///
/// The kernel, the committed set and both tuning lists come from the
/// workspace's idle buffers and go back to it, cleared, when the state
/// is dropped (see [`crate::workspace`]).
///
/// **The LC shortcut.** An LC candidate `c` whose union with `A`
/// (`c` at its real deadline) passes the low-mode check is admitted
/// without a search, and the answer is exactly the one-shot verdict.
/// `A` is where one greedy start, run from its seed on the committed
/// set, stopped with the high-mode check passing. Replay that start on
/// the committed set plus `c`. An LC task adds no high-mode demand and
/// proposes no moves, so every round sees the same witness and the same
/// sorted moves. A move rejected before was rejected on less low-mode
/// demand, so it is rejected again. A move applied before leads to a
/// state no tighter than `A`, whose low-mode demand is at most that of
/// `A ∪ {c}`, so it passes again. The start therefore ends on
/// `A ∪ {c}` in the same number of rounds, and the search accepts:
/// that start or an earlier one accepts. `A ∪ {c}` is itself the end of
/// that start's trajectory on the new set, so a commit of `c` can adopt
/// it in turn. An HC candidate gets no such shortcut: it adds high-mode
/// demand, so the witnesses, the moves and the trajectory all change,
/// and it always runs the full search.
///
/// Otherwise verdicts stay exactly those of the one-shot tests: the
/// greedy descent itself runs unchanged on the same seeds. The kernel's
/// memo and resume shortcuts never change a check's answer (see
/// [`crate::demand`]).
#[derive(Debug)]
pub struct VdTuneState {
    committed: Committed,
    ecdf: bool,
    /// The warm demand kernel: holds `untightened(committed)` between
    /// probes; drawn from the workspace's idle buffers but owned while
    /// the state lives, so its memoised state is never clobbered by
    /// other processors' states.
    kernel: DemandKernel,
    /// Shared workspace for the per-round candidate-move buffer.
    ws: WorkspaceRef,
    /// The committed tuning `A`, one virtual deadline per committed
    /// task in task order; meaningful only while `tuned_valid`.
    tuned: Vec<Time>,
    tuned_valid: bool,
    /// The end assignment of the last accepting probe (committed tasks,
    /// then the candidate), kept for a commit of `pending_task`.
    pending: Vec<Time>,
    pending_task: Option<Task>,
}

impl VdTuneState {
    fn with_workspace(ecdf: bool, ws: WorkspaceRef) -> Self {
        let (tasks, kernel, tuned, pending) = ws
            .with_idle(|idle| (idle.task_set(), idle.kernel(), idle.vds(), idle.vds()))
            .unwrap_or_default();
        VdTuneState {
            committed: Committed::with_tasks(tasks),
            ecdf,
            kernel,
            ws,
            tuned,
            tuned_valid: false,
            pending,
            pending_task: None,
        }
    }

    /// Drops the committed tuning and any pending one: the committed
    /// set is about to change in a way neither describes.
    fn forget_tuning(&mut self) {
        self.tuned_valid = false;
        self.pending_task = None;
    }
}

impl Drop for VdTuneState {
    fn drop(&mut self) {
        let tasks = std::mem::take(&mut self.committed.tasks);
        let kernel = std::mem::take(&mut self.kernel);
        let (tuned, pending) = (
            std::mem::take(&mut self.tuned),
            std::mem::take(&mut self.pending),
        );
        self.ws.with_idle(|idle| {
            idle.put_task_set(tasks);
            idle.put_kernel(kernel);
            // Reverse of the take order, so the next state's `tuned`
            // is this one's.
            idle.put_vds(pending);
            idle.put_vds(tuned);
        });
    }
}

impl AdmissionState for VdTuneState {
    fn try_admit(&mut self, task: &Task) -> bool {
        if self.kernel.overloaded_with(task) {
            self.committed.record(true, false);
            return false;
        }
        let kernel = &mut self.kernel;
        kernel.push_task(VdTask::untightened(*task));
        let shortcut = self.tuned_valid && task.criticality().is_low() && {
            kernel.assign(&self.tuned);
            kernel.lo_feasible()
        };
        let ok = shortcut || {
            kernel.reseed(|t| t.deadline());
            search(kernel, self.ecdf, &mut self.ws.borrow_mut().moves)
        };
        if ok {
            self.pending.clear();
            self.pending
                .extend(kernel.assignment().iter().map(|vt| vt.vd));
            self.pending_task = Some(*task);
        }
        // Restore the between-probe invariant: untightened committed
        // assignment (exact delta-updates keep the memos warm).
        kernel.reseed(|t| t.deadline());
        let _ = kernel.pop_task();
        self.committed.record(shortcut, ok);
        ok
    }

    fn commit(&mut self, task: Task) {
        let adopt = self.pending_task.take() == Some(task);
        if adopt {
            std::mem::swap(&mut self.tuned, &mut self.pending);
        }
        self.tuned_valid = adopt;
        self.kernel.push_task(VdTask::untightened(task));
        self.committed.push(task);
    }

    fn remove(&mut self, id: TaskId) -> bool {
        if self.committed.remove(id).is_none() {
            return false;
        }
        self.forget_tuning();
        self.kernel.load_untightened(&self.committed.tasks);
        true
    }

    fn summary(&self) -> SystemUtilization {
        self.committed.summary
    }

    fn tasks(&self) -> &TaskSet {
        &self.committed.tasks
    }

    fn take_tasks(&mut self) -> TaskSet {
        self.forget_tuning();
        self.kernel.clear();
        self.committed.take()
    }

    fn stats(&self) -> AdmissionStats {
        // Surface the kernel's fixpoint-reuse counters alongside the
        // admission counters (the `mcexp ablation` table reads these).
        let mut stats = self.committed.stats;
        let qpa = self.kernel.counters();
        stats.qpa_cold = qpa.cold;
        stats.qpa_resumed = qpa.resumed;
        stats.qpa_anchor_hits = qpa.anchor_hits;
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcsched_model::Task;

    fn set(tasks: Vec<Task>) -> TaskSet {
        TaskSet::try_from_tasks(tasks).unwrap()
    }

    #[test]
    fn lc_only_accepts_up_to_full_utilization() {
        let ts = set(vec![
            Task::lo(0, 10, 5).unwrap(),
            Task::lo(1, 10, 5).unwrap(),
        ]);
        assert!(Ey::new().is_schedulable(&ts));
        assert!(Ecdf::new().is_schedulable(&ts));
        let over = set(vec![
            Task::lo(0, 10, 6).unwrap(),
            Task::lo(1, 10, 5).unwrap(),
        ]);
        assert!(!Ey::new().is_schedulable(&over));
        assert!(!Ecdf::new().is_schedulable(&over));
    }

    #[test]
    fn single_hc_task_needs_tightening_and_gets_it() {
        let ts = set(vec![Task::hi(0, 10, 2, 5).unwrap()]);
        let a = Ey::new().tune(&ts).expect("EY should tune one HC task");
        let vd = a.virtual_deadline(0).unwrap();
        // The tuned virtual deadline must leave enough overrun slack.
        assert!(vd <= Time::new(7), "vd = {vd}");
        assert!(vd >= Time::new(2));
    }

    #[test]
    fn tuned_assignment_passes_both_checks() {
        let ts = set(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::hi(1, 20, 3, 8).unwrap(),
            Task::lo(2, 25, 5).unwrap(),
        ]);
        for assignment in [Ey::new().tune(&ts), Ecdf::new().tune(&ts)] {
            let a = assignment.expect("tunable");
            let mut kernel = DemandKernel::new();
            kernel.load(a.as_slice());
            assert!(kernel.check_lo().is_ok());
            assert!(kernel.check_hi().is_ok());
            // LC tasks keep their real deadlines; HC are within bounds.
            for vt in a.as_slice() {
                if vt.task.criticality().is_low() {
                    assert_eq!(vt.vd, vt.task.deadline());
                } else {
                    assert!(vt.vd >= vt.task.wcet_lo());
                    assert!(vt.vd <= vt.task.deadline());
                }
            }
        }
    }

    #[test]
    fn overload_rejected() {
        let ts = set(vec![
            Task::hi(0, 10, 4, 9).unwrap(),
            Task::hi(1, 10, 4, 9).unwrap(),
        ]);
        assert!(!Ey::new().is_schedulable(&ts));
        assert!(!Ecdf::new().is_schedulable(&ts));
    }

    #[test]
    fn ecdf_dominates_ey_structurally() {
        // Random-ish grid of small sets: wherever EY accepts, ECDF must too.
        let mut checked = 0usize;
        for t1 in [8u64, 10, 14] {
            for c1 in [1u64, 2, 3] {
                for h1 in [c1 + 1, c1 + 3] {
                    for c2 in [2u64, 4] {
                        if h1 > t1 {
                            continue;
                        }
                        let ts = set(vec![
                            Task::hi(0, t1, c1, h1).unwrap(),
                            Task::lo(1, 12, c2).unwrap(),
                        ]);
                        if Ey::new().is_schedulable(&ts) {
                            assert!(
                                Ecdf::new().is_schedulable(&ts),
                                "ECDF rejected an EY-accepted set: {ts}"
                            );
                        }
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 20);
    }

    #[test]
    fn constrained_deadlines_handled() {
        let ts = set(vec![
            Task::hi_constrained(0, 20, 2, 6, 12).unwrap(),
            Task::lo_constrained(1, 15, 3, 10).unwrap(),
        ]);
        assert!(Ecdf::new().is_schedulable(&ts));
        // A much tighter HC deadline leaves no tuning room.
        let tight = set(vec![
            Task::hi_constrained(0, 20, 5, 6, 6).unwrap(),
            Task::lo_constrained(1, 15, 9, 10).unwrap(),
        ]);
        assert!(!Ecdf::new().is_schedulable(&tight));
    }

    #[test]
    fn empty_set_accepted() {
        assert!(Ey::new().is_schedulable(&TaskSet::new()));
        assert!(Ecdf::new().is_schedulable(&TaskSet::new()));
    }

    #[test]
    fn names() {
        assert_eq!(Ey::new().name(), "EY");
        assert_eq!(Ecdf::new().name(), "ECDF");
    }

    #[test]
    fn equal_budget_hc_task_trivial() {
        // C^L = C^H: no overrun possible; untightened start passes
        // immediately if utilization fits.
        let ts = set(vec![
            Task::hi(0, 10, 5, 5).unwrap(),
            Task::lo(1, 10, 4).unwrap(),
        ]);
        let a = Ey::new().tune(&ts).expect("no tuning needed");
        assert_eq!(a.virtual_deadline(0).unwrap(), Time::new(10));
    }

    #[test]
    fn incremental_states_match_one_shot_exactly() {
        let sequence = vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::lo(1, 20, 8).unwrap(),
            Task::hi_constrained(2, 20, 2, 6, 15).unwrap(),
            Task::lo_constrained(3, 15, 3, 10).unwrap(),
            Task::hi(4, 12, 3, 8).unwrap(),
            Task::lo(5, 10, 6).unwrap(),
        ];
        let ey = Ey::new();
        let ecdf = Ecdf::new();
        let one_shot = |test: &dyn SchedulabilityTest, committed: &TaskSet, t: &Task| {
            let mut union = committed.clone();
            union.push_unchecked(*t);
            test.is_schedulable(&union)
        };
        let ws = WorkspaceRef::new();
        for test in [&ey as &dyn SchedulabilityTest, &ecdf] {
            let mut state = test.admission_state_in(&ws);
            for t in &sequence {
                let expected = one_shot(test, state.tasks(), t);
                assert_eq!(state.try_admit(t), expected, "{} on {t}", test.name());
                if expected {
                    state.commit(*t);
                }
            }
            // Remove + retry stays in sync after the cache resync.
            let first = *state.tasks().iter().next().unwrap();
            assert!(state.remove(first.id()));
            let expected = one_shot(test, state.tasks(), &first);
            assert_eq!(state.try_admit(&first), expected);
            // O(1) overload rejection is counted as incremental.
            let impossible = Task::lo(99, 10, 10).unwrap();
            assert!(!state.try_admit(&impossible));
            assert!(state.stats().incremental >= 1);
        }
    }

    #[test]
    fn assignment_accessors() {
        let ts = set(vec![Task::hi(0, 10, 2, 5).unwrap()]);
        let a = Ecdf::new().tune(&ts).unwrap();
        assert_eq!(a.as_slice().len(), 1);
        assert!(a.virtual_deadline(0).is_some());
        assert!(a.virtual_deadline(7).is_none());
        let v = a.clone().into_vec();
        assert_eq!(v.len(), 1);
    }
}
