//! Mode-switch isolation: partitioned vs global MC scheduling (§II of the
//! paper).
//!
//! The same workload is executed twice with an overrun injected into one
//! HC task:
//!
//! * **partitioned** — one single-processor `Simulator` per processor
//!   (`PartitionedSimulator`): only the processor hosting the overrunning
//!   task switches to high mode and sheds its LC work; the other
//!   processor's LC tasks run undisturbed;
//! * **global** — the same engine over both processors
//!   (`Simulator::global`): the switch is system-wide and every LC task is
//!   dropped.
//!
//! This isolation is one of the reasons the paper gives for why
//! safety-critical industries prefer partitioned MC scheduling.
//!
//! Run with: `cargo run --example mode_switch_trace`

use mcsched::analysis::EdfVd;
use mcsched::core::{presets, AlgorithmSpec, TestName};
use mcsched::model::{Task, TaskSet};
use mcsched::sim::{PartitionedSimulator, Policy, Scenario, Simulator, TraceEvent};

fn workload() -> TaskSet {
    TaskSet::try_from_tasks(vec![
        Task::hi(0, 10, 2, 6).expect("overrunning HC"),
        Task::lo(1, 10, 3).expect("LC colocated with the overrunner"),
        Task::hi(2, 20, 3, 6).expect("well-behaved HC"),
        Task::lo(3, 20, 6).expect("LC on the quiet side"),
    ])
    .expect("unique ids")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ts = workload();
    let horizon = 60;

    println!("=============== partitioned =================");
    let algo = AlgorithmSpec::new(presets::ca_udp(), TestName::EdfVd);
    let partition = algo.try_partition(&ts, 2)?;
    print!("{partition}");

    // Overrun scenario only on the processor hosting τ0.
    let hot = partition
        .processor_of(mcsched::model::TaskId(0))
        .expect("τ0 placed");
    let scenarios: Vec<Scenario> = (0..2)
        .map(|k| {
            if k == hot {
                Scenario::all_hi()
            } else {
                Scenario::lo_only()
            }
        })
        .collect();
    let sim = PartitionedSimulator::from_partition(&partition, |proc| {
        let x = EdfVd::new().scaling_factor(proc).expect("admitted");
        Policy::edf_vd_scaled(proc, x)
    })
    .with_trace();
    let reports = sim.run_each(&scenarios, horizon);
    for (k, r) in reports.iter().enumerate() {
        println!(
            "\nφ{} trace ({}):",
            k + 1,
            if k == hot {
                "overruns injected"
            } else {
                "nominal"
            }
        );
        for ev in r.trace().iter().take(14) {
            println!("  {ev}");
        }
        println!("  … switches={}, drops={}", r.mode_switches(), r.dropped());
        println!(
            "\n{}",
            mcsched::sim::gantt::render(partition.processor(k).expect("exists"), r, horizon)
        );
    }
    let quiet = 1 - hot;
    assert_eq!(reports[quiet].mode_switches(), 0);
    assert_eq!(reports[quiet].dropped(), 0);
    println!(
        "\n→ processor φ{} never switched: its LC tasks were fully served.",
        quiet + 1
    );

    println!("\n================= global =====================");
    let sim = Simulator::global(&ts, Policy::edf_vd_scaled(&ts, 0.5), 2).with_trace();
    let report = sim.run(&Scenario::all_hi(), horizon);
    for ev in report.trace().iter().take(18) {
        println!("  {ev}");
    }
    let dropped_tasks: std::collections::BTreeSet<u32> = report
        .trace()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Drop { task, .. } => Some(task.0),
            _ => None,
        })
        .collect();
    println!(
        "\n→ global switch dropped LC tasks {:?}: no isolation.",
        dropped_tasks
    );
    Ok(())
}
