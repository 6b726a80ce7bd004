//! Collections of dual-criticality tasks and their system-level statistics.

use crate::{Criticality, ModelError, Task, TaskId, Time};
use std::collections::HashSet;
use std::fmt;

/// The three system-level utilization sums the paper's analysis revolves
/// around (unnormalized — divide by `m` for the paper's normalized values):
///
/// * `u_ll = Σ_{LC} u^L_i`   (the paper's `U_L^L · m`)
/// * `u_hl = Σ_{HC} u^L_i`   (the paper's `U_H^L · m`)
/// * `u_hh = Σ_{HC} u^H_i`   (the paper's `U_H^H · m`)
///
/// ```
/// use mcsched_model::{Task, TaskSet};
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let ts = TaskSet::try_from_tasks(vec![
///     Task::hi(0, 10, 2, 4)?,
///     Task::lo(1, 10, 5)?,
/// ])?;
/// let u = ts.system_utilization();
/// assert_eq!(u.u_ll, 0.5);
/// assert_eq!(u.u_hl, 0.2);
/// assert_eq!(u.u_hh, 0.4);
/// assert!((u.difference() - 0.2).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SystemUtilization {
    /// Total low-mode utilization of the LC tasks.
    pub u_ll: f64,
    /// Total low-mode utilization of the HC tasks.
    pub u_hl: f64,
    /// Total high-mode utilization of the HC tasks.
    pub u_hh: f64,
}

impl SystemUtilization {
    /// Adds one task's contribution to the running sums.
    ///
    /// This is the single accumulation routine shared by
    /// [`TaskSet::system_utilization`] and the incremental admission states
    /// in `mcsched-analysis`: because both paths add the same per-task terms
    /// in the same (insertion) order, a cached running triple is
    /// **bit-identical** to a from-scratch recomputation — which is what
    /// lets incremental partitioning reproduce the clone-and-retest
    /// partitions exactly.
    #[inline]
    pub fn accumulate(&mut self, task: &Task) {
        match task.criticality() {
            Criticality::Low => self.u_ll += task.utilization_lo(),
            Criticality::High => {
                self.u_hl += task.utilization_lo();
                self.u_hh += task.utilization_hi();
            }
        }
    }

    /// The utilization difference `u_hh − u_hl` — the quantity UDP
    /// balances across processors.
    #[inline]
    pub fn difference(&self) -> f64 {
        self.u_hh - self.u_hl
    }

    /// Total low-mode utilization `u_ll + u_hl` (all tasks at `C^L`).
    #[inline]
    pub fn lo_mode_total(&self) -> f64 {
        self.u_ll + self.u_hl
    }
}

/// An ordered collection of dual-criticality tasks with unique ids.
///
/// `TaskSet` is the unit of work for generators, schedulability tests and
/// partitioning strategies. It keeps insertion order (partitioning
/// strategies re-sort copies as needed) and exposes the system-level
/// utilization statistics of the paper's §II.
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, TaskSet, Criticality};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let mut ts = TaskSet::new();
/// ts.try_push(Task::hi(0, 10, 1, 2)?)?;
/// ts.try_push(Task::lo(1, 5, 1)?)?;
///
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.hi_tasks().count(), 1);
/// assert_eq!(ts.lo_tasks().count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TaskSet {
    tasks: Vec<Task>,
}

impl TaskSet {
    /// Creates an empty task set.
    pub fn new() -> Self {
        TaskSet { tasks: Vec::new() }
    }

    /// Creates an empty task set with room for `capacity` tasks.
    pub fn with_capacity(capacity: usize) -> Self {
        TaskSet {
            tasks: Vec::with_capacity(capacity),
        }
    }

    /// Builds a task set from tasks, checking id uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateTaskId`] if two tasks share an id.
    pub fn try_from_tasks(tasks: impl IntoIterator<Item = Task>) -> Result<Self, ModelError> {
        let mut ts = TaskSet::new();
        for t in tasks {
            ts.try_push(t)?;
        }
        Ok(ts)
    }

    /// Appends a task, checking id uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateTaskId`] if the id is already present.
    pub fn try_push(&mut self, task: Task) -> Result<(), ModelError> {
        if self.tasks.iter().any(|t| t.id() == task.id()) {
            return Err(ModelError::DuplicateTaskId { task: task.id() });
        }
        self.tasks.push(task);
        Ok(())
    }

    /// Appends a task **without** the duplicate-id check.
    ///
    /// Partitioning inner loops use this after the ids have been validated
    /// once at generation time.
    #[inline]
    pub fn push_unchecked(&mut self, task: Task) {
        self.tasks.push(task);
    }

    /// Removes every task, keeping the buffer for reuse.
    pub fn clear(&mut self) {
        self.tasks.clear();
    }

    /// Number of tasks.
    #[inline]
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` if the set has no tasks.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Iterates over the tasks in insertion order.
    pub fn iter(&self) -> std::slice::Iter<'_, Task> {
        self.tasks.iter()
    }

    /// The tasks as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Task] {
        &self.tasks
    }

    /// Looks a task up by id.
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id() == id)
    }

    /// Removes the task with `id`, preserving the order of the remaining
    /// tasks. Returns the removed task, or `None` if absent.
    pub fn remove(&mut self, id: TaskId) -> Option<Task> {
        let pos = self.tasks.iter().position(|t| t.id() == id)?;
        Some(self.tasks.remove(pos))
    }

    /// Iterates over the high-criticality tasks (`τH`).
    pub fn hi_tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter().filter(|t| t.criticality().is_high())
    }

    /// Iterates over the low-criticality tasks (`τL`).
    pub fn lo_tasks(&self) -> impl Iterator<Item = &Task> {
        self.tasks.iter().filter(|t| t.criticality().is_low())
    }

    /// The system-level utilization sums (`Σ u^L` over LC, `Σ u^L` over HC,
    /// `Σ u^H` over HC) — see [`SystemUtilization`].
    pub fn system_utilization(&self) -> SystemUtilization {
        let mut u = SystemUtilization::default();
        for t in &self.tasks {
            u.accumulate(t);
        }
        u
    }

    /// The largest period in the set, or zero when empty.
    pub fn max_period(&self) -> Time {
        self.tasks
            .iter()
            .map(Task::period)
            .fold(Time::ZERO, Time::max)
    }

    /// Checks the id-uniqueness invariant; `Ok` if all ids are distinct.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::DuplicateTaskId`] naming the first repeated id.
    pub fn validate(&self) -> Result<(), ModelError> {
        let mut seen = HashSet::with_capacity(self.tasks.len());
        for t in &self.tasks {
            if !seen.insert(t.id()) {
                return Err(ModelError::DuplicateTaskId { task: t.id() });
            }
        }
        Ok(())
    }

    /// Consumes the set and returns the underlying tasks.
    pub fn into_tasks(self) -> Vec<Task> {
        self.tasks
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "TaskSet ({} tasks):", self.tasks.len())?;
        for t in &self.tasks {
            writeln!(f, "  {t}")?;
        }
        Ok(())
    }
}

impl<'a> IntoIterator for &'a TaskSet {
    type Item = &'a Task;
    type IntoIter = std::slice::Iter<'a, Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.iter()
    }
}

impl IntoIterator for TaskSet {
    type Item = Task;
    type IntoIter = std::vec::IntoIter<Task>;
    fn into_iter(self) -> Self::IntoIter {
        self.tasks.into_iter()
    }
}

/// Collects tasks **without** the duplicate-id check (use
/// [`TaskSet::try_from_tasks`] for checked construction).
impl FromIterator<Task> for TaskSet {
    fn from_iter<I: IntoIterator<Item = Task>>(iter: I) -> Self {
        TaskSet {
            tasks: iter.into_iter().collect(),
        }
    }
}

/// Extends **without** the duplicate-id check.
impl Extend<Task> for TaskSet {
    fn extend<I: IntoIterator<Item = Task>>(&mut self, iter: I) {
        self.tasks.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TaskSet {
        TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::hi(1, 20, 2, 8).unwrap(),
            Task::lo(2, 10, 3).unwrap(),
            Task::lo(3, 40, 10).unwrap(),
        ])
        .unwrap()
    }

    #[test]
    fn construction_and_len() {
        let ts = sample();
        assert_eq!(ts.len(), 4);
        assert!(!ts.is_empty());
        assert!(TaskSet::new().is_empty());
        assert_eq!(TaskSet::with_capacity(8).len(), 0);
        let mut cleared = sample();
        cleared.clear();
        assert!(cleared.is_empty());
        assert_eq!(cleared, TaskSet::new());
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut ts = TaskSet::new();
        ts.try_push(Task::lo(0, 10, 1).unwrap()).unwrap();
        assert_eq!(
            ts.try_push(Task::lo(0, 20, 1).unwrap()),
            Err(ModelError::DuplicateTaskId { task: TaskId(0) })
        );
    }

    #[test]
    fn validate_catches_unchecked_duplicates() {
        let mut ts = TaskSet::new();
        ts.push_unchecked(Task::lo(0, 10, 1).unwrap());
        ts.push_unchecked(Task::lo(0, 20, 1).unwrap());
        assert!(ts.validate().is_err());
        let ok = sample();
        assert!(ok.validate().is_ok());
    }

    #[test]
    fn criticality_filters() {
        let ts = sample();
        assert_eq!(ts.hi_tasks().count(), 2);
        assert_eq!(ts.lo_tasks().count(), 2);
        assert!(ts.hi_tasks().all(|t| t.criticality().is_high()));
        assert!(ts.lo_tasks().all(|t| t.criticality().is_low()));
    }

    #[test]
    fn system_utilization_sums() {
        let ts = sample();
        let u = ts.system_utilization();
        // HC: 2/10 + 2/20 = 0.3 low; 4/10 + 8/20 = 0.8 high.
        // LC: 3/10 + 10/40 = 0.55.
        assert!((u.u_hl - 0.3).abs() < 1e-12);
        assert!((u.u_hh - 0.8).abs() < 1e-12);
        assert!((u.u_ll - 0.55).abs() < 1e-12);
        assert!((u.difference() - 0.5).abs() < 1e-12);
        assert!((u.lo_mode_total() - 0.85).abs() < 1e-12);
    }

    #[test]
    fn lookup_and_maxima() {
        let ts = sample();
        assert_eq!(ts.get(TaskId(1)).unwrap().period(), Time::new(20));
        assert!(ts.get(TaskId(42)).is_none());
        assert_eq!(ts.max_period(), Time::new(40));
        assert_eq!(TaskSet::new().max_period(), Time::ZERO);
    }

    #[test]
    fn iteration_traits() {
        let ts = sample();
        let ids: Vec<u32> = (&ts).into_iter().map(|t| t.id().0).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        let collected: TaskSet = ts.clone().into_iter().collect();
        assert_eq!(collected, ts);
        let mut ext = TaskSet::new();
        ext.extend(ts.clone().into_tasks());
        assert_eq!(ext.len(), 4);
    }

    #[test]
    fn display_lists_tasks() {
        let s = sample().to_string();
        assert!(s.contains("TaskSet (4 tasks):"));
        assert!(s.contains("τ0"));
        assert!(s.contains("τ3"));
    }

    #[test]
    fn accumulate_matches_from_scratch_bitwise() {
        // The incremental admission layer relies on running sums being
        // bit-identical to a recomputation in insertion order.
        let ts = sample();
        let mut running = SystemUtilization::default();
        for t in &ts {
            running.accumulate(t);
        }
        let fresh = ts.system_utilization();
        assert_eq!(running.u_ll.to_bits(), fresh.u_ll.to_bits());
        assert_eq!(running.u_hl.to_bits(), fresh.u_hl.to_bits());
        assert_eq!(running.u_hh.to_bits(), fresh.u_hh.to_bits());
        let extra = Task::hi(9, 30, 3, 7).unwrap();
        running.accumulate(&extra);
        let mut grown = ts.clone();
        grown.push_unchecked(extra);
        let fresh = grown.system_utilization();
        assert_eq!(running.u_hl.to_bits(), fresh.u_hl.to_bits());
        assert_eq!(running.u_hh.to_bits(), fresh.u_hh.to_bits());
    }

    #[test]
    fn remove_by_id_preserves_order() {
        let mut ts = sample();
        let removed = ts.remove(TaskId(1)).unwrap();
        assert_eq!(removed.id(), TaskId(1));
        let ids: Vec<u32> = ts.iter().map(|t| t.id().0).collect();
        assert_eq!(ids, vec![0, 2, 3]);
        assert!(ts.remove(TaskId(1)).is_none());
    }

    #[test]
    fn empty_set_statistics() {
        let ts = TaskSet::new();
        let u = ts.system_utilization();
        assert_eq!(u.u_ll, 0.0);
        assert_eq!(u.u_hl, 0.0);
        assert_eq!(u.u_hh, 0.0);
        assert_eq!(u.difference(), 0.0);
    }
}
