//! # mcsched-model
//!
//! Dual-criticality sporadic task model for mixed-criticality (MC)
//! scheduling, following the system model of Ramanathan & Easwaran,
//! *"Utilization Difference Based Partitioned Scheduling of
//! Mixed-Criticality Systems"* (DATE 2017), which itself builds on
//! Vestal's MC task model (RTSS 2007).
//!
//! A task system `τ` consists of `n` sporadic tasks scheduled on `m`
//! identical processors. Each task `τi` is a tuple
//! `(Ti, χi, C^L_i, C^H_i, Di)`:
//!
//! * `Ti` — minimum release separation (period),
//! * `χi ∈ {LC, HC}` — the task's criticality level,
//! * `C^L_i ≤ C^H_i` — low-mode and high-mode execution budgets,
//! * `Di` — relative deadline (`Di = Ti` implicit, `Di ≤ Ti` constrained).
//!
//! All temporal parameters are integer ticks ([`Time`]), so every analysis
//! downstream can be exact.
//!
//! ## Example
//!
//! ```
//! use mcsched_model::{Task, TaskSet, Criticality};
//!
//! # fn main() -> Result<(), mcsched_model::ModelError> {
//! let tasks = TaskSet::try_from_tasks(vec![
//!     Task::hi(0, 10, 2, 4)?,          // HC task: T=D=10, C^L=2, C^H=4
//!     Task::lo(1, 20, 5)?,             // LC task: T=D=20, C=5
//!     Task::hi_constrained(2, 50, 5, 10, 30)?, // HC with D=30 < T=50
//! ])?;
//!
//! assert_eq!(tasks.len(), 3);
//! assert_eq!(tasks.hi_tasks().count(), 2);
//! // Utilization difference of the HC tasks: U_H^H − U_H^L.
//! let diff = tasks.system_utilization().difference();
//! assert!(diff > 0.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod criticality;
mod error;
mod task;
mod taskset;
mod time;

pub use criticality::Criticality;
pub use error::ModelError;
pub use task::{Task, TaskBuilder, TaskId};
pub use taskset::{SystemUtilization, TaskSet};
pub use time::Time;
