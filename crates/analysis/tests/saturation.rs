//! 2^63-scale regression tests: the demand and response-time kernels
//! must *saturate* at `Time::MAX`, never wrap or panic, when fed task
//! parameters near the top of the `u64` range.
//!
//! Before the arithmetic was converted to `saturating_*`, every test in
//! this file aborted a debug build with "attempt to multiply with
//! overflow" (or returned a wrapped — i.e. unsound — demand in release).

use mcsched_analysis::dbf::{dbf_hi, dbf_lo, VdTask};
use mcsched_analysis::{AmcMax, AmcRtb, LoRta, SchedulabilityTest};
use mcsched_model::{Task, TaskSet, Time};
use mcsched_oracle::dbf::{total_dbf_hi, total_dbf_lo};

const BIG: u64 = 1 << 62;

fn huge_hi_task(id: u32) -> Task {
    Task::hi(id, BIG, BIG / 2, BIG).expect("valid task")
}

#[test]
fn dbf_lo_saturates_instead_of_wrapping() {
    // A maximally tightened virtual deadline fits 4 jobs of C^L = 2^62
    // into the window: 4 · 2^62 = 2^64, past u64::MAX, must clamp.
    let vt = VdTask {
        task: Task::hi(0, BIG, BIG, BIG).expect("valid task"),
        vd: Time::new(1),
    };
    assert_eq!(dbf_lo(&vt, Time::MAX), Time::MAX);
}

#[test]
fn dbf_hi_saturates_instead_of_wrapping() {
    // k = 4 full periods of C^H = 2^62 in the window: k·C^H = 2^64
    // clamps to MAX before the carry-over credit is subtracted.
    let vt = VdTask {
        task: huge_hi_task(0),
        vd: Time::new(BIG / 2),
    };
    let demand = dbf_hi(&vt, Time::MAX);
    assert!(demand >= Time::new(u64::MAX - BIG));
}

#[test]
fn total_dbf_clamps_across_tasks() {
    // Each task alone saturates; the totals must clamp, not wrap to a
    // small (falsely schedulable) value.
    let tasks: Vec<VdTask> = (0..3)
        .map(|id| VdTask {
            task: huge_hi_task(id),
            vd: Time::new(BIG / 2),
        })
        .collect();
    assert_eq!(total_dbf_lo(&tasks, Time::MAX), Time::MAX);
    assert_eq!(total_dbf_hi(&tasks, Time::MAX), Time::MAX);
}

#[test]
fn response_time_iteration_survives_saturated_interference() {
    // Four tasks each with C^L = T = 2^62: total low demand in any busy
    // window is 2^64. The fixpoint must conclude "unschedulable", not
    // overflow mid-iteration.
    let ts =
        TaskSet::try_from_tasks((0..4).map(|id| Task::hi(id, BIG, BIG, BIG).expect("valid task")))
            .expect("valid task set");
    assert_eq!(LoRta::compute(&ts), None);
    assert!(!AmcRtb::new().is_schedulable(&ts));
    assert!(!AmcMax::new().is_schedulable(&ts));
    assert!(!mcsched_oracle::amc::amc_rtb_is_schedulable(&ts));
    assert!(!mcsched_oracle::amc::amc_max_is_schedulable(&ts));
}

#[test]
fn huge_but_feasible_scale_still_schedulable() {
    // Saturation must not cost soundness at large-but-feasible scale:
    // two tasks with utilisation 1/16 each on one processor.
    let ts = TaskSet::try_from_tasks(vec![
        Task::hi(0, BIG, BIG / 16, BIG / 8).expect("valid task"),
        Task::hi(1, BIG, BIG / 16, BIG / 8).expect("valid task"),
    ])
    .expect("valid task set");
    assert!(LoRta::compute(&ts).is_some());
    assert!(AmcRtb::new().is_schedulable(&ts));
    assert!(AmcMax::new().is_schedulable(&ts));
    assert!(mcsched_oracle::amc::amc_rtb_is_schedulable(&ts));
    assert!(mcsched_oracle::amc::amc_max_is_schedulable(&ts));
}

#[test]
fn demand_kernel_guarded_route_matches_reference_at_scale() {
    use mcsched_analysis::DemandKernel;
    use mcsched_oracle::dbf as reference;
    // Certificate-breaking parameters (≥ 2^32): the kernel must refuse
    // the fast lanes and answer through the guarded saturating route —
    // bit-identically to the seed reference.
    let sets: Vec<Vec<VdTask>> = vec![
        // Infeasible at scale: three half-utilisation giants.
        (0..3)
            .map(|id| VdTask {
                task: huge_hi_task(id),
                vd: Time::new(BIG / 2),
            })
            .collect(),
        // Feasible at scale: two 1/16-utilisation giants.
        vec![
            VdTask {
                task: Task::hi(0, BIG, BIG / 16, BIG / 8).expect("valid task"),
                vd: Time::new(BIG / 8),
            },
            VdTask {
                task: Task::hi(1, BIG, BIG / 16, BIG / 8).expect("valid task"),
                vd: Time::new(BIG / 8),
            },
        ],
        // Mixed scale: one light giant among certified-sized tasks
        // still poisons the certificate for the whole assignment (kept
        // light so the busy-window bound stays representable — at a
        // heavier giant the typed early-reject intentionally diverges
        // from the seed's saturated-horizon descent).
        vec![
            VdTask::untightened(Task::lo(0, 10, 2).expect("valid task")),
            VdTask {
                task: Task::hi(1, BIG, BIG / 16, BIG / 8).expect("valid task"),
                vd: Time::new(BIG / 8),
            },
            VdTask {
                task: Task::hi(2, 20, 3, 7).expect("valid task"),
                vd: Time::new(9),
            },
        ],
    ];
    let mut kernel = DemandKernel::new();
    for tasks in &sets {
        kernel.load(tasks);
        assert!(
            !kernel.certified(),
            "2^63-scale set must break the demand certificate"
        );
        assert_eq!(
            kernel.check_lo(),
            reference::check_lo_mode(tasks),
            "guarded lo route diverged on {tasks:?}"
        );
        assert_eq!(
            kernel.check_hi(),
            reference::check_hi_mode(tasks),
            "guarded hi route diverged on {tasks:?}"
        );
    }
}

#[test]
fn demand_certificate_flips_reversibly_under_probes() {
    use mcsched_analysis::DemandKernel;
    use mcsched_oracle::dbf as reference;
    // A certified base set; pushing a 2^63-scale probe must drop to the
    // guarded route (with reference-identical answers), and popping it
    // must restore the fast certificate — the LIFO admission pattern.
    let base = [
        VdTask::untightened(Task::lo(0, 12, 3).expect("valid task")),
        VdTask {
            task: Task::hi(1, 20, 2, 6).expect("valid task"),
            vd: Time::new(9),
        },
    ];
    let mut kernel = DemandKernel::new();
    kernel.load(&base);
    assert!(kernel.certified(), "small base set must certify");
    let lo_before = kernel.check_lo();
    let hi_before = kernel.check_hi();
    kernel.push_task(VdTask {
        task: huge_hi_task(900),
        vd: Time::new(BIG / 2),
    });
    assert!(
        !kernel.certified(),
        "giant probe must break the certificate"
    );
    let current = kernel.assignment().to_vec();
    assert_eq!(kernel.check_lo(), reference::check_lo_mode(&current));
    assert_eq!(kernel.check_hi(), reference::check_hi_mode(&current));
    let popped = kernel.pop_task();
    assert_eq!(popped.task.id().0, 900);
    assert!(kernel.certified(), "pop must restore the certificate");
    assert_eq!(kernel.check_lo(), lo_before);
    assert_eq!(kernel.check_hi(), hi_before);
}

#[test]
fn time_saturating_ops_clamp_at_max() {
    let big = Time::new(BIG);
    assert_eq!(big.saturating_mul(4), Time::MAX);
    assert_eq!(big.saturating_mul(2), Time::new(BIG << 1));
    assert_eq!(Time::MAX.saturating_add(big), Time::MAX);
    assert_eq!(Time::ZERO.saturating_sub(big), Time::ZERO);
}
