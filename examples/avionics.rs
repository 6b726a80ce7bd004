//! A realistic dual-criticality avionics-style workload: DAL-A flight
//! control functions (HC) consolidated with DAL-C/D maintenance and
//! telemetry functions (LC) on a dual-core platform — the consolidation
//! scenario the paper's introduction motivates.
//!
//! The example partitions the workload three ways (CU-UDP, CA-UDP and the
//! bounded baseline CA(nosort)-F-F), compares the resulting balance, then
//! exercises the chosen partition in the simulator with random overruns
//! and sporadic arrivals for a long horizon.
//!
//! Run with: `cargo run --example avionics`

use mcsched::analysis::{AmcMax, EdfVd, SchedulabilityTest};
use mcsched::core::{presets, AlgorithmSpec, TestName};
use mcsched::model::{Task, TaskSet};
use mcsched::sim::{PartitionedSimulator, Policy, Scenario};

fn avionics_workload() -> TaskSet {
    TaskSet::try_from_tasks(vec![
        // --- High criticality (flight critical, budgets certified at two
        //     assurance levels) ---
        Task::hi(0, 10, 1, 3).expect("inner-loop control"),
        Task::hi(1, 20, 2, 6).expect("outer-loop control"),
        Task::hi(2, 50, 4, 12).expect("air data fusion"),
        Task::hi(3, 100, 6, 18).expect("envelope protection"),
        Task::hi_constrained(4, 200, 10, 30, 150).expect("actuator monitor"),
        // --- Low criticality (mission / maintenance) ---
        Task::lo(5, 25, 5).expect("telemetry downlink"),
        Task::lo(6, 50, 9).expect("display update"),
        Task::lo(7, 100, 17).expect("health logging"),
        Task::lo_constrained(8, 200, 24, 160).expect("map prefetch"),
    ])
    .expect("unique ids")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ts = avionics_workload();
    let u = ts.system_utilization();
    println!("Avionics workload: {} tasks on 2 cores", ts.len());
    println!(
        "  HC: {} tasks, U_HL = {:.3}, U_HH = {:.3}",
        ts.hi_tasks().count(),
        u.u_hl,
        u.u_hh
    );
    println!(
        "  LC: {} tasks, U_LL = {:.3}\n",
        ts.lo_tasks().count(),
        u.u_ll
    );

    // The workload has constrained deadlines, so EDF-VD's utilization test
    // does not apply cleanly; AMC (fixed priority — the industry
    // preference the paper notes) is the natural choice.
    let candidates = [
        AlgorithmSpec::new(presets::cu_udp(), TestName::AmcMax),
        AlgorithmSpec::new(presets::ca_udp(), TestName::AmcMax),
        AlgorithmSpec::new(presets::ca_nosort_f_f(), TestName::AmcMax),
    ];
    for algo in &candidates {
        match algo.try_partition(&ts, 2) {
            Ok(p) => println!(
                "{:<28} OK   (max diff {:.3}, spread {:.3})",
                algo.name(),
                p.max_utilization_difference(),
                p.utilization_difference_spread()
            ),
            Err(e) => println!("{:<28} FAIL ({e})", algo.name()),
        }
    }

    // Commit to CU-UDP-AMC and run it hard: sporadic arrivals, 35% of HC
    // jobs overrun, three different seeds, 100k ticks each.
    let algo = AlgorithmSpec::new(presets::cu_udp(), TestName::AmcMax);
    let partition = algo.try_partition(&ts, 2)?;
    println!("\nChosen partition (CU-UDP-AMC):");
    print!("{partition}");

    for seed in [1, 2, 3] {
        let sim = PartitionedSimulator::from_partition(&partition, Policy::deadline_monotonic);
        let scenario = Scenario::sporadic(0.4, 0.35, seed);
        let reports = sim.run(&scenario, 100_000);
        let switches: u32 = reports.iter().map(|r| r.mode_switches()).sum();
        let completed: u64 = reports.iter().map(|r| r.completed()).sum();
        let dropped: u64 = reports.iter().map(|r| r.dropped()).sum();
        let ok = reports.iter().all(|r| r.is_success());
        println!(
            "seed {seed}: {} — {completed} jobs completed, {dropped} LC drops, {switches} mode switches",
            if ok { "all deadlines met" } else { "MISSED DEADLINES" }
        );
        assert!(ok, "certified partition must not miss");
    }

    // Sanity: each core individually passes the uniprocessor AMC test.
    for (k, proc) in partition.iter().enumerate() {
        assert!(AmcMax::new().is_schedulable(proc));
        let x = EdfVd::new().scaling_factor(proc);
        println!(
            "core {}: AMC-certified; EDF-VD scaling factor would be {:?}",
            k + 1,
            x.map(|v| (v * 1000.0).round() / 1000.0)
        );
    }
    Ok(())
}
