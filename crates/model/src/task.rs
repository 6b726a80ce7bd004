//! The dual-criticality sporadic task.

use crate::{Criticality, ModelError, Time};
use std::fmt;

/// Identifier of a task within a task set.
///
/// ```
/// use mcsched_model::TaskId;
/// let id = TaskId(3);
/// assert_eq!(id.to_string(), "τ3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

impl From<u32> for TaskId {
    fn from(v: u32) -> Self {
        TaskId(v)
    }
}

/// A dual-criticality sporadic task `τi = (Ti, χi, C^L_i, C^H_i, Di)`.
///
/// Invariants (enforced at construction):
///
/// * `Ti > 0`, `C^L_i > 0`,
/// * `C^L_i ≤ C^H_i` (for LC tasks the two coincide),
/// * `C^H_i ≤ Di ≤ Ti` (implicit deadlines have `Di = Ti`).
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, Criticality};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let hc = Task::hi(0, 100, 10, 25)?;
/// assert_eq!(hc.criticality(), Criticality::High);
/// assert_eq!(hc.utilization_lo(), 0.10);
/// assert_eq!(hc.utilization_hi(), 0.25);
/// assert!(hc.is_implicit_deadline());
///
/// let lc = Task::lo_constrained(1, 100, 10, 60)?;
/// assert!(lc.criticality().is_low());
/// assert!(!lc.is_implicit_deadline());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    id: TaskId,
    period: Time,
    criticality: Criticality,
    wcet_lo: Time,
    wcet_hi: Time,
    deadline: Time,
}

impl Task {
    /// Creates an implicit-deadline low-criticality task (`D = T`,
    /// `C^H = C^L`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if `period == 0`, `wcet == 0` or
    /// `wcet > period`.
    pub fn lo(id: impl Into<TaskId>, period: u64, wcet: u64) -> Result<Self, ModelError> {
        let period = Time::new(period);
        Self::build(
            id.into(),
            period,
            Criticality::Low,
            Time::new(wcet),
            None,
            period,
        )
    }

    /// Creates a constrained-deadline low-criticality task (`D ≤ T`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if a model invariant is violated
    /// (see [`Task`]).
    pub fn lo_constrained(
        id: impl Into<TaskId>,
        period: u64,
        wcet: u64,
        deadline: u64,
    ) -> Result<Self, ModelError> {
        Self::build(
            id.into(),
            Time::new(period),
            Criticality::Low,
            Time::new(wcet),
            None,
            Time::new(deadline),
        )
    }

    /// Creates an implicit-deadline high-criticality task (`D = T`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if a model invariant is violated
    /// (see [`Task`]).
    pub fn hi(
        id: impl Into<TaskId>,
        period: u64,
        wcet_lo: u64,
        wcet_hi: u64,
    ) -> Result<Self, ModelError> {
        let period = Time::new(period);
        Self::build(
            id.into(),
            period,
            Criticality::High,
            Time::new(wcet_lo),
            Some(Time::new(wcet_hi)),
            period,
        )
    }

    /// Creates a constrained-deadline high-criticality task (`D ≤ T`).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if a model invariant is violated
    /// (see [`Task`]).
    pub fn hi_constrained(
        id: impl Into<TaskId>,
        period: u64,
        wcet_lo: u64,
        wcet_hi: u64,
        deadline: u64,
    ) -> Result<Self, ModelError> {
        Self::build(
            id.into(),
            Time::new(period),
            Criticality::High,
            Time::new(wcet_lo),
            Some(Time::new(wcet_hi)),
            Time::new(deadline),
        )
    }

    /// Starts a [`TaskBuilder`] for step-by-step construction.
    pub fn builder(id: impl Into<TaskId>) -> TaskBuilder {
        TaskBuilder::new(id)
    }

    fn build(
        id: TaskId,
        period: Time,
        criticality: Criticality,
        wcet_lo: Time,
        wcet_hi: Option<Time>,
        deadline: Time,
    ) -> Result<Self, ModelError> {
        if period.is_zero() {
            return Err(ModelError::ZeroPeriod { task: id });
        }
        if wcet_lo.is_zero() {
            return Err(ModelError::ZeroWcet { task: id });
        }
        let wcet_hi = wcet_hi.unwrap_or(wcet_lo);
        if wcet_hi < wcet_lo {
            return Err(ModelError::WcetOrder {
                task: id,
                wcet_lo,
                wcet_hi,
            });
        }
        // The budget relevant at the task's own criticality level must fit
        // inside the deadline, and the deadline inside the period.
        let own_budget = match criticality {
            Criticality::Low => wcet_lo,
            Criticality::High => wcet_hi,
        };
        if deadline < own_budget || deadline > period {
            return Err(ModelError::DeadlineOutOfRange {
                task: id,
                deadline,
                period,
            });
        }
        Ok(Task {
            id,
            period,
            criticality,
            wcet_lo,
            wcet_hi,
            deadline,
        })
    }

    /// The task identifier.
    #[inline]
    pub const fn id(&self) -> TaskId {
        self.id
    }

    /// Minimum release separation `Ti`.
    #[inline]
    pub const fn period(&self) -> Time {
        self.period
    }

    /// Criticality level `χi`.
    #[inline]
    pub const fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// Low-mode execution budget `C^L_i`.
    #[inline]
    pub const fn wcet_lo(&self) -> Time {
        self.wcet_lo
    }

    /// High-mode execution budget `C^H_i` (equals `C^L_i` for LC tasks).
    #[inline]
    pub const fn wcet_hi(&self) -> Time {
        self.wcet_hi
    }

    /// Relative deadline `Di`.
    #[inline]
    pub const fn deadline(&self) -> Time {
        self.deadline
    }

    /// The execution budget at the given system mode: `C^L` in low mode,
    /// `C^H` in high mode.
    #[inline]
    pub const fn wcet_at(&self, level: Criticality) -> Time {
        match level {
            Criticality::Low => self.wcet_lo,
            Criticality::High => self.wcet_hi,
        }
    }

    /// The budget at the task's **own** criticality level — `C^L` for LC
    /// tasks, `C^H` for HC tasks. This is the utilization the paper sorts
    /// tasks by ("utilization values at their respective criticality
    /// levels").
    #[inline]
    pub const fn wcet_own(&self) -> Time {
        self.wcet_at(self.criticality)
    }

    /// Low-mode utilization `u^L_i = C^L_i / Ti`.
    #[inline]
    pub fn utilization_lo(&self) -> f64 {
        self.wcet_lo.as_f64() / self.period.as_f64()
    }

    /// High-mode utilization `u^H_i = C^H_i / Ti`.
    #[inline]
    pub fn utilization_hi(&self) -> f64 {
        self.wcet_hi.as_f64() / self.period.as_f64()
    }

    /// Utilization at the task's own criticality level
    /// (`u^L` for LC, `u^H` for HC).
    #[inline]
    pub fn utilization_own(&self) -> f64 {
        self.wcet_own().as_f64() / self.period.as_f64()
    }

    /// Low-mode density `C^L_i / min(Di, Ti)`.
    #[inline]
    pub fn density_lo(&self) -> f64 {
        self.wcet_lo.as_f64() / self.deadline.min(self.period).as_f64()
    }

    /// High-mode density `C^H_i / min(Di, Ti)`.
    #[inline]
    pub fn density_hi(&self) -> f64 {
        self.wcet_hi.as_f64() / self.deadline.min(self.period).as_f64()
    }

    /// `true` if `Di = Ti`.
    #[inline]
    pub fn is_implicit_deadline(&self) -> bool {
        self.deadline == self.period
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}({}, T={}, C^L={}, C^H={}, D={})",
            self.id, self.criticality, self.period, self.wcet_lo, self.wcet_hi, self.deadline
        )
    }
}

/// Builder for [`Task`], useful when parameters arrive piecemeal
/// (e.g. from a generator or a config file).
///
/// # Example
///
/// ```
/// use mcsched_model::{Task, Criticality};
///
/// # fn main() -> Result<(), mcsched_model::ModelError> {
/// let t = Task::builder(7)
///     .period(50)
///     .criticality(Criticality::High)
///     .wcet_lo(5)
///     .wcet_hi(12)
///     .deadline(30)
///     .try_build()?;
/// assert_eq!(t.deadline().as_ticks(), 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TaskBuilder {
    id: TaskId,
    period: Time,
    criticality: Criticality,
    wcet_lo: Time,
    wcet_hi: Option<Time>,
    deadline: Option<Time>,
}

impl TaskBuilder {
    /// Creates a builder for the task with the given id.
    pub fn new(id: impl Into<TaskId>) -> Self {
        TaskBuilder {
            id: id.into(),
            period: Time::ZERO,
            criticality: Criticality::Low,
            wcet_lo: Time::ZERO,
            wcet_hi: None,
            deadline: None,
        }
    }

    /// Sets the period `Ti`.
    pub fn period(mut self, period: u64) -> Self {
        self.period = Time::new(period);
        self
    }

    /// Sets the criticality level `χi`.
    pub fn criticality(mut self, criticality: Criticality) -> Self {
        self.criticality = criticality;
        self
    }

    /// Sets the low-mode budget `C^L_i`.
    pub fn wcet_lo(mut self, wcet: u64) -> Self {
        self.wcet_lo = Time::new(wcet);
        self
    }

    /// Sets the high-mode budget `C^H_i` (defaults to `C^L_i`).
    pub fn wcet_hi(mut self, wcet: u64) -> Self {
        self.wcet_hi = Some(Time::new(wcet));
        self
    }

    /// Sets the relative deadline `Di` (defaults to `Ti`).
    pub fn deadline(mut self, deadline: u64) -> Self {
        self.deadline = Some(Time::new(deadline));
        self
    }

    /// Finalizes the task.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if the assembled parameters violate a model
    /// invariant (see [`Task`]).
    pub fn try_build(self) -> Result<Task, ModelError> {
        let deadline = self.deadline.unwrap_or(self.period);
        Task::build(
            self.id,
            self.period,
            self.criticality,
            self.wcet_lo,
            self.wcet_hi,
            deadline,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lo_task_defaults() {
        let t = Task::lo(0, 10, 3).unwrap();
        assert_eq!(t.criticality(), Criticality::Low);
        assert_eq!(t.wcet_lo(), t.wcet_hi());
        assert_eq!(t.deadline(), t.period());
        assert!(t.is_implicit_deadline());
        assert_eq!(t.utilization_lo(), 0.3);
        assert_eq!(t.utilization_hi(), t.utilization_lo());
        assert_eq!(t.wcet_own(), Time::new(3));
    }

    #[test]
    fn hi_task() {
        let t = Task::hi(1, 20, 4, 10).unwrap();
        assert_eq!(t.utilization_lo(), 0.2);
        assert_eq!(t.utilization_hi(), 0.5);
        assert_eq!(t.wcet_at(Criticality::Low), Time::new(4));
        assert_eq!(t.wcet_at(Criticality::High), Time::new(10));
        assert_eq!(t.wcet_own(), Time::new(10));
        assert_eq!(t.utilization_own(), 0.5);
    }

    #[test]
    fn constrained_deadline() {
        let t = Task::hi_constrained(2, 100, 5, 20, 40).unwrap();
        assert!(!t.is_implicit_deadline());
        assert_eq!(t.density_hi(), 0.5);
        assert_eq!(t.density_lo(), 0.125);
    }

    #[test]
    fn zero_period_rejected() {
        assert_eq!(
            Task::lo(0, 0, 1),
            Err(ModelError::ZeroPeriod { task: TaskId(0) })
        );
    }

    #[test]
    fn zero_wcet_rejected() {
        assert_eq!(
            Task::lo(0, 10, 0),
            Err(ModelError::ZeroWcet { task: TaskId(0) })
        );
    }

    #[test]
    fn wcet_order_rejected() {
        assert!(matches!(
            Task::hi(0, 10, 5, 3),
            Err(ModelError::WcetOrder { .. })
        ));
    }

    #[test]
    fn deadline_bounds_rejected() {
        // deadline above period
        assert!(matches!(
            Task::hi_constrained(0, 10, 2, 4, 11),
            Err(ModelError::DeadlineOutOfRange { .. })
        ));
        // deadline below own budget (HC: C^H)
        assert!(matches!(
            Task::hi_constrained(0, 10, 2, 4, 3),
            Err(ModelError::DeadlineOutOfRange { .. })
        ));
        // LC task: deadline only needs to fit C^L
        assert!(Task::lo_constrained(0, 10, 2, 2).is_ok());
    }

    #[test]
    fn lc_wcet_exceeding_deadline_rejected() {
        assert!(matches!(
            Task::lo(0, 10, 11),
            Err(ModelError::DeadlineOutOfRange { .. })
        ));
    }

    #[test]
    fn builder_roundtrip() {
        let t = Task::builder(5)
            .period(40)
            .criticality(Criticality::High)
            .wcet_lo(4)
            .wcet_hi(8)
            .try_build()
            .unwrap();
        assert_eq!(t.id(), TaskId(5));
        assert_eq!(t.deadline(), Time::new(40)); // defaulted to period
        assert_eq!(t.wcet_hi(), Time::new(8));
    }

    #[test]
    fn builder_defaults_hi_to_lo() {
        let t = Task::builder(1).period(10).wcet_lo(2).try_build().unwrap();
        assert_eq!(t.wcet_hi(), Time::new(2));
    }

    #[test]
    fn display() {
        let t = Task::hi_constrained(3, 100, 5, 20, 40).unwrap();
        let s = t.to_string();
        assert!(s.contains("τ3"), "{s}");
        assert!(s.contains("HC"), "{s}");
        assert!(s.contains("T=100"), "{s}");
        assert!(s.contains("D=40"), "{s}");
    }

    #[test]
    fn task_id_display_and_from() {
        assert_eq!(TaskId::from(4u32), TaskId(4));
        assert_eq!(TaskId(4).to_string(), "τ4");
    }
}
