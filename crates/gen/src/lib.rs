//! # mcsched-gen
//!
//! Fair task-set generation for dual-criticality systems, following the
//! experiment setup of Ramanathan & Easwaran (DATE 2017, §IV), which uses
//! the fair generator of their WATERS 2016 paper with the
//! parameter-synthesis techniques of Emberson, Stafford & Davis
//! (WATERS 2010):
//!
//! * periods drawn **log-uniformly** from `[10, 500]`,
//! * per-task utilizations drawn by **UUniFast**-style uniform simplex
//!   sampling with individual bounds `umin = 0.001`, `umax = 0.99`,
//! * HC tasks receive a *pair* `(u^L_i ≤ u^H_i)` whose sums hit the
//!   normalized targets `U_H^L · m` and `U_H^H · m`,
//! * execution budgets `C = ⌈u·T⌉`, constrained deadlines drawn uniformly
//!   from `[C^H, T]`,
//! * the task count is drawn from `[m+1, 5m]` and the HC fraction is `P_H`.
//!
//! The [`grid`] module enumerates the paper's `(U_H^H, U_H^L, U_L^L)`
//! utilization grid and buckets it by the total normalized utilization
//! `UB = max(U_H^L + U_L^L, U_H^H)` used on every x-axis of the paper's
//! figures. The [`corpus`] module draws seeded task-set corpora over the
//! mid-to-high-load part of that grid.
//!
//! ## Example
//!
//! ```
//! use mcsched_gen::{TaskSetSpec, DeadlineModel, GridPoint};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let spec = TaskSetSpec::paper_defaults(
//!     2,
//!     GridPoint { u_hh: 0.5, u_hl: 0.25, u_ll: 0.3 },
//!     DeadlineModel::Implicit,
//! );
//! let mut rng = StdRng::seed_from_u64(42);
//! let ts = spec.generate(&mut rng).expect("feasible spec");
//! assert!(ts.len() >= 3 && ts.len() <= 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod grid;
pub mod periods;
pub mod spec;
pub mod uunifast;

pub use corpus::{seeded_corpus, uniprocessor_spec};
pub use grid::{bucket_of, bucketed_grid, utilization_grid, GridPoint, UbBucket};
pub use periods::log_uniform_period;
pub use spec::{DeadlineModel, GenError, TaskSetSpec};
pub use uunifast::{paired_utilizations, uunifast, uunifast_bounded, uunifast_discard};
