//! # mcsched-sim
//!
//! A discrete-event simulator for dual-criticality scheduling.
//!
//! The DATE 2017 paper's evaluation is purely analytical; this crate is the
//! executable substrate that stands in for a real RTOS testbed: it runs
//! the *scheduling algorithms*
//! the analyses certify —
//!
//! * **EDF-VD** — EDF on virtual deadlines in low mode, real deadlines in
//!   high mode, LC tasks dropped at the mode switch,
//! * **AMC** — fixed priorities, LC tasks dropped at the switch,
//! * **plain EDF** — the single-criticality baseline,
//!
//! under configurable *scenarios* (which jobs overrun, when releases
//! happen), detects deadline misses and budget overruns, triggers mode
//! switches, and records traces.
//!
//! One engine, [`Simulator`], runs `m` identical processors that share a
//! ready queue and a mode. With `m = 1` ([`Simulator::new`]) it is one
//! processor of a partitioned system, and [`PartitionedSimulator`] runs
//! one such engine per processor, so a mode switch stays on the processor
//! whose HC job overran. With `m > 1` ([`Simulator::global`]) it is global
//! scheduling, where a mode switch is system-wide and drops every LC task
//! — the contrast §II of the paper draws.
//!
//! [`validate`] closes the loop: every task set accepted by a
//! schedulability test is executed under adversarial scenarios and must
//! not miss a deadline it is required to meet — this is how the
//! reconstructed analyses in `mcsched-analysis` are empirically checked.
//!
//! ## Example
//!
//! ```
//! use mcsched_model::{Task, TaskSet};
//! use mcsched_sim::{Simulator, Policy, Scenario};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ts = TaskSet::try_from_tasks(vec![
//!     Task::hi(0, 10, 2, 4)?,
//!     Task::lo(1, 20, 5)?,
//! ])?;
//! // Run EDF-VD with the x = 1/2 virtual deadlines for 200 ticks, with
//! // every HC job overrunning to C^H.
//! let policy = Policy::edf_vd_scaled(&ts, 0.5);
//! let report = Simulator::new(&ts, policy).run(&Scenario::all_hi(), 200);
//! assert!(report.is_success(), "misses: {:?}", report.misses());
//! assert!(report.mode_switches() > 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
pub mod gantt;
mod partitioned;
mod policy;
mod report;
mod scenario;
pub mod validate;

pub use engine::Simulator;
pub use partitioned::PartitionedSimulator;
pub use policy::Policy;
pub use report::{MissRecord, SimReport, TraceEvent};
pub use scenario::Scenario;
