//! Equivalence tests pinning the incremental
//! [`DemandKernel`](mcsched_analysis::DemandKernel)'s mutation paths —
//! push, LIFO pop, per-task retargeting and bulk reseeding — to the seed
//! checks of [`crate::dbf`] after every step.

#[cfg(test)]
mod tests {
    use crate::dbf as reference;
    use mcsched_analysis::{DemandCheck, DemandKernel, VdTask};
    use mcsched_model::{Task, Time};

    fn vd(task: Task, v: u64) -> VdTask {
        VdTask {
            task,
            vd: Time::new(v),
        }
    }

    fn check_against_reference(kernel: &mut DemandKernel) {
        let tasks = kernel.assignment().to_vec();
        assert_eq!(
            kernel.check_lo(),
            reference::check_lo_mode(&tasks),
            "lo diverged on {tasks:?}"
        );
        assert_eq!(
            kernel.check_hi(),
            reference::check_hi_mode(&tasks),
            "hi diverged on {tasks:?}"
        );
        // The boolean fast path agrees with the exact check.
        assert_eq!(
            kernel.lo_feasible(),
            reference::check_lo_mode(&tasks).is_ok()
        );
    }

    #[test]
    fn mutation_sequence_stays_reference_identical() {
        let t0 = Task::hi(0, 10, 2, 4).unwrap();
        let t1 = Task::lo(1, 12, 3).unwrap();
        let t2 = Task::hi_constrained(2, 20, 3, 7, 16).unwrap();
        let mut kernel = DemandKernel::new();
        kernel.push_task(VdTask::untightened(t0));
        check_against_reference(&mut kernel);
        kernel.push_task(VdTask::untightened(t1));
        check_against_reference(&mut kernel);
        kernel.push_task(VdTask::untightened(t2));
        check_against_reference(&mut kernel);
        // Tighten, loosen, re-tighten: memo deltas must stay exact and
        // the resume logic must only fire when sound.
        for v in [8u64, 5, 3, 6, 2, 9, 4] {
            kernel.replace_vd(0, Time::new(v.min(10)));
            check_against_reference(&mut kernel);
            kernel.replace_vd(2, Time::new((v + 3).min(16)));
            check_against_reference(&mut kernel);
        }
        kernel.pop_task();
        check_against_reference(&mut kernel);
        kernel.push_task(vd(t2, 9));
        check_against_reference(&mut kernel);
    }

    #[test]
    fn reseed_preserves_memo_exactness() {
        let tasks = [
            vd(Task::hi(0, 10, 2, 5).unwrap(), 6),
            VdTask::untightened(Task::lo(1, 15, 4).unwrap()),
            vd(Task::hi(2, 25, 3, 8).unwrap(), 12),
        ];
        let mut kernel = DemandKernel::new();
        kernel.load(&tasks);
        let _ = kernel.check_lo();
        let _ = kernel.check_hi();
        kernel.reseed(|t| t.deadline());
        check_against_reference(&mut kernel);
        kernel.reseed(|t| {
            if t.criticality().is_high() {
                (t.deadline() - (t.wcet_hi() - t.wcet_lo())).max(t.wcet_lo())
            } else {
                t.deadline()
            }
        });
        check_against_reference(&mut kernel);
    }

    #[test]
    fn lifo_pop_restores_previous_answers() {
        let base = [
            vd(Task::hi(0, 10, 2, 4).unwrap(), 7),
            VdTask::untightened(Task::lo(1, 20, 6).unwrap()),
        ];
        let mut kernel = DemandKernel::new();
        kernel.load(&base);
        let lo_before = kernel.check_lo();
        let hi_before = kernel.check_hi();
        kernel.push_task(vd(Task::hi(2, 8, 2, 5).unwrap(), 4));
        check_against_reference(&mut kernel);
        let popped = kernel.pop_task();
        assert_eq!(popped.task.id().0, 2);
        assert_eq!(kernel.check_lo(), lo_before);
        assert_eq!(kernel.check_hi(), hi_before);
    }

    #[test]
    fn lc_high_budget_adds_no_high_mode_demand() {
        // An untightened LC task with `C^H > C^L` sits at `dist == 0`,
        // but LC tasks are dropped at the switch: the `h_HI(0) > 0`
        // pre-check must not count it, on any mutation path.
        let lc = Task::builder(1)
            .period(20)
            .wcet_lo(2)
            .wcet_hi(5)
            .try_build()
            .unwrap();
        let tasks = [
            vd(Task::hi(0, 10, 2, 4).unwrap(), 7),
            VdTask::untightened(lc),
        ];
        let mut kernel = DemandKernel::new();
        kernel.load(&tasks);
        assert_eq!(kernel.check_hi(), DemandCheck::Ok);
        check_against_reference(&mut kernel);
        kernel.pop_task();
        kernel.push_task(tasks[1]);
        assert_eq!(kernel.check_hi(), DemandCheck::Ok);
        kernel.reseed(|t| t.deadline());
        kernel.replace_vd(0, Time::new(7));
        assert_eq!(kernel.check_hi(), DemandCheck::Ok);
        check_against_reference(&mut kernel);
    }
}
