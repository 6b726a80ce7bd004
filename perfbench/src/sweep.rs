//! The sweep workloads: the paper's acceptance-ratio experiments, judged
//! on one worker thread.
//!
//! A *round* generates one task set for every `(m, deadline model, UB
//! bucket)` cell and lets the whole line-up judge it, so every run covers
//! the grid evenly however fast it goes. Sets come from the seeded paper
//! generator: set `r` of cell `c` uses the RNG stream
//! `item_rng(seed, c, r)`.

use crate::stats::{
    chunk_of, chunks_for, ratio, reference_ns, time_setup, Gauge, Samples, CHUNK_S, GAUGE_EVERY_NS,
};
use crate::trace::Tracer;
use crate::{metric_key, Args, Report, SAMPLE_CAPACITY, SETUP_REPEATS};
use mcsched_analysis::{AmcMax, AmcRtb, Ecdf, EdfVd, Ey, SchedulabilityTest};
use mcsched_core::{
    verify_partition, AdmissionState, AdmissionStats, AlgoBox, AlgorithmRegistry, AlgorithmSpec,
    TestName, WorkspaceRef,
};
use mcsched_exp::engine::item_rng;
use mcsched_gen::{bucketed_grid, DeadlineModel, GridPoint, TaskSetSpec};
use mcsched_model::{SystemUtilization, TaskId, TaskSet};
use rand::RngExt;
use std::time::{Duration, Instant};

/// One sweep workload: processor counts, deadline models and line-up.
pub struct Lineup {
    pub ms: &'static [usize],
    pub deadlines: &'static [DeadlineModel],
    pub algorithms: &'static [&'static str],
}

/// Figs 4 + 5: the demand- and response-time-based line-up, implicit and
/// constrained deadlines.
pub const SWEEP_MC: Lineup = Lineup {
    ms: &[2, 4, 8],
    deadlines: &[DeadlineModel::Implicit, DeadlineModel::Constrained],
    algorithms: &mcsched_exp::algorithms::FIG4_NAMES,
};

/// Fig 3: the EDF-VD line-up, implicit deadlines.
pub const SWEEP_EDFVD: Lineup = Lineup {
    ms: &[2, 4, 8],
    deadlines: &[DeadlineModel::Implicit],
    algorithms: &mcsched_exp::algorithms::FIG3_NAMES,
};

/// The paper's smallest plotted bucket (`UB = 0.30`).
const MIN_BUCKET_PERCENT: u32 = 30;

/// Generator retries per set on infeasible grid corners.
const GEN_TRIES: u32 = 8;

/// Seed of the warm-up corpus. It is fixed, so that `setup_s` does not
/// depend on the workload seed: a 48-set corpus varies too much in cost.
const WARMUP_SEED: u64 = 0x5EED;

/// The admission-state families, as metric-name keys.
pub const KINDS: [&str; 4] = ["edfvd", "ecdf", "ey", "amc"];

fn kind_of(test: TestName) -> usize {
    match test {
        TestName::EdfVd => 0,
        TestName::Ecdf => 1,
        TestName::Ey => 2,
        TestName::AmcRtb | TestName::AmcMax => 3,
    }
}

fn make_test(test: TestName) -> Box<dyn SchedulabilityTest + Send + Sync> {
    match test {
        TestName::EdfVd => Box::new(EdfVd::new()),
        TestName::Ey => Box::new(Ey::new()),
        TestName::Ecdf => Box::new(Ecdf::new()),
        TestName::AmcRtb => Box::new(AmcRtb::new()),
        TestName::AmcMax => Box::new(AmcMax::new()),
    }
}

struct Algo {
    key: String,
    spec: AlgorithmSpec,
    boxed: AlgoBox,
    test: Box<dyn SchedulabilityTest + Send + Sync>,
    kind: usize,
}

pub struct Cell {
    pub m: usize,
    pub deadlines: DeadlineModel,
    pub points: Vec<GridPoint>,
}

/// The `(m, deadline model, UB bucket)` cells of a line-up.
pub fn cells(lineup: &Lineup) -> Vec<Cell> {
    let buckets: Vec<_> = bucketed_grid()
        .into_iter()
        .filter(|(b, _)| b.0 >= MIN_BUCKET_PERCENT)
        .collect();
    let mut out = Vec::new();
    for &m in lineup.ms {
        for &deadlines in lineup.deadlines {
            for (_, points) in &buckets {
                out.push(Cell {
                    m,
                    deadlines,
                    points: points.clone(),
                });
            }
        }
    }
    out
}

/// Generates set `round` of cell `stream` (a uniformly drawn grid point
/// of the bucket, retried on infeasible corners). Returns the set, if
/// any, and the number of generator calls made.
pub fn generate(cell: &Cell, seed: u64, stream: u64, round: usize) -> (Option<TaskSet>, u32) {
    let mut rng = item_rng(seed, stream, round);
    for tries in 1..=GEN_TRIES {
        let point = cell.points[rng.random_range(0..cell.points.len())];
        let spec = TaskSetSpec::paper_defaults(cell.m, point, cell.deadlines);
        if let Ok(ts) = spec.generate(&mut rng) {
            return (Some(ts), tries);
        }
    }
    (None, GEN_TRIES)
}

struct Setup {
    algos: Vec<Algo>,
    cells: Vec<Cell>,
    ws: WorkspaceRef,
}

fn setup(lineup: &Lineup) -> Result<Setup, String> {
    let registry = AlgorithmRegistry::standard();
    let mut algos = Vec::new();
    for name in lineup.algorithms {
        let spec = registry.spec(name).map_err(|e| e.to_string())?;
        algos.push(Algo {
            key: metric_key(name),
            boxed: spec.build(),
            test: make_test(spec.test),
            kind: kind_of(spec.test),
            spec,
        });
    }
    let cells = cells(lineup);
    let ws = WorkspaceRef::new();
    // Warm-up: one set per cell, so lazily built state is in place before
    // the clock starts.
    for (c, cell) in cells.iter().enumerate() {
        if let (Some(ts), _) = generate(cell, WARMUP_SEED, c as u64, 0) {
            for a in &algos {
                std::hint::black_box(a.boxed.accepts_in(&ts, cell.m, &ws));
            }
        }
    }
    Ok(Setup { algos, cells, ws })
}

pub fn run(lineup: &Lineup, args: &Args, report: &mut Report) -> Result<(), String> {
    report.line(format!(
        "params: m={:?} deadlines={:?} algorithms={:?} buckets>=UB {:.2} p_h=0.5 \
         threads=1 setup_repeats={SETUP_REPEATS}",
        lineup.ms,
        lineup.deadlines,
        lineup.algorithms,
        f64::from(MIN_BUCKET_PERCENT) / 100.0
    ));
    if args.trace {
        let s = setup(lineup)?;
        return traced(&s, args, report);
    }
    // Allocated before the set-ups so `setup_s` times only program work.
    let mut lat = [0, 1].map(|i| Samples::with_capacity(SAMPLE_CAPACITY, args.seed ^ i));
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut s = None;
    for _ in 0..SETUP_REPEATS {
        drop(s.take());
        let (built, wall, scaled) = time_setup(|| setup(lineup));
        s = Some(built?);
        setups.push((wall, scaled));
    }
    let s = s.ok_or("no set-up ran")?;
    untraced(&s, &mut lat, args, report, &setups);
    Ok(())
}

/// Checks an accepted partition outside the timed region: every task
/// placed exactly once, and every processor passes the one-shot test.
fn partition_ok(p: &mcsched_core::Partition, ts: &TaskSet, test: &dyn SchedulabilityTest) -> bool {
    p.task_count() == ts.len()
        && ts.iter().all(|t| p.processor_of(t.id()).is_some())
        && verify_partition(p, test)
}

fn untraced(
    s: &Setup,
    [op_lat, admit_lat]: &mut [Samples; 2],
    args: &Args,
    report: &mut Report,
    setups: &[(f64, f64)],
) {
    let chunks = chunks_for(args.seconds);
    let mut gauge = Gauge::new(chunks);
    let mut next_reading = 0u64;
    let (mut chunk_ns, mut chunk_sets) = (vec![0u64; chunks], vec![0u64; chunks]);
    let mut timed_ns = 0u64;
    let (mut sets, mut calls, mut gen_calls, mut rounds) = (0u64, 0u64, 0u64, 0usize);
    let (mut verified, mut disagree, mut invalid) = (0u64, 0u64, 0u64);
    let mut verdicts = vec![false; s.algos.len()];
    while chunk_of(timed_ns) < chunks {
        for (c, cell) in s.cells.iter().enumerate() {
            let chunk = chunk_of(timed_ns);
            // Host speed, read outside the timed region about once per
            // GAUGE_EVERY_NS of measured work.
            if timed_ns >= next_reading {
                next_reading = timed_ns + GAUGE_EVERY_NS;
                gauge.book(chunk, reference_ns());
            }
            let t0 = Instant::now();
            let (ts, tries) = generate(cell, args.seed, c as u64, rounds);
            gen_calls += u64::from(tries);
            if let Some(ts) = &ts {
                for (a, verdict) in s.algos.iter().zip(verdicts.iter_mut()) {
                    let t = Instant::now();
                    *verdict = a.boxed.accepts_in(ts, cell.m, &s.ws);
                    let ns = t.elapsed().as_nanos() as u64;
                    op_lat.push(chunk, ns);
                    if *verdict {
                        admit_lat.push(chunk, ns);
                    }
                }
            }
            let set_ns = t0.elapsed().as_nanos() as u64;
            timed_ns += set_ns;
            if chunk < chunks {
                chunk_ns[chunk] += set_ns;
            }
            let Some(ts) = ts else { continue };
            sets += 1;
            calls += s.algos.len() as u64;
            if chunk < chunks {
                chunk_sets[chunk] += 1;
            }
            // Correctness gates, outside the timed region.
            for (a, &verdict) in s.algos.iter().zip(&verdicts) {
                let (res, _) = a.boxed.try_partition_reporting_in(&ts, cell.m, &s.ws);
                match res {
                    Ok(p) => {
                        verified += 1;
                        if !verdict {
                            disagree += 1;
                        } else if !partition_ok(&p, &ts, &*a.test) {
                            invalid += 1;
                        }
                    }
                    Err(_) if verdict => disagree += 1,
                    Err(_) => {}
                }
            }
        }
        rounds += 1;
    }
    report.attempted = calls;
    report.failed = disagree + invalid;
    let rates: Vec<f64> = chunk_sets
        .iter()
        .zip(&chunk_ns)
        .map(|(&n, &ns)| ratio(n as f64 * 1e9, ns as f64))
        .collect();
    report.line(format!(
        "sweep: {rounds} rounds x {} cells, {sets} sets, {calls} accepts_in calls, \
         {:.3} s timed in {chunks} chunks of {CHUNK_S} s",
        s.cells.len(),
        timed_ns as f64 / 1e9
    ));
    let slowdowns = gauge.slowdowns();
    report.throughput(
        &rates,
        &slowdowns,
        &format!(
            "sets_per_s: sets judged by the line-up per timed second, generation included; \
             n={sets} sets, median over {chunks} chunks at nominal host speed"
        ),
    );
    report.latency(
        "op",
        op_lat,
        &slowdowns,
        "partition_p50_us / partition_p99_us: one accepts_in call",
    );
    report.latency(
        "admit",
        admit_lat,
        &slowdowns,
        "one accepts_in call that accepts",
    );
    report.setup(setups, "registry, line-up, grid, warm-up round");
    report.figure(
        "gen_yield",
        ratio(sets as f64, gen_calls as f64),
        "ratio",
        &format!("{sets} sets from {gen_calls} generator calls"),
    );
    report.check(
        "accepts_in agrees with try_partition_reporting_in",
        disagree == 0,
        format!("{disagree} disagreements in {calls} judgements"),
    );
    report.check(
        "accepted partitions pass verify_partition",
        invalid == 0,
        format!("{invalid} invalid of {verified} accepted partitions"),
    );
}

/// Span handles of the traced sweep.
struct Layers {
    gen: usize,
    partition: Vec<usize>,
    order: usize,
    fit: usize,
    probe: [usize; 4],
    commit: [usize; 4],
}

fn layers(t: &mut Tracer, algos: &[Algo]) -> Layers {
    Layers {
        gen: t.layer("gen", false),
        partition: algos
            .iter()
            .map(|a| t.layer(&format!("partition.{}", a.key), false))
            .collect(),
        order: t.layer("strategy.order", false),
        fit: t.layer("strategy.fit", false),
        probe: KINDS.map(|k| t.layer(&format!("incremental.{k}.probe"), true)),
        commit: KINDS.map(|k| t.layer(&format!("incremental.{k}.commit"), false)),
    }
}

/// How a partitioning run ended: the per-processor task ids, or the
/// rejected task with the tasks placed before it and the loads.
type Outcome = Result<Vec<Vec<TaskId>>, (TaskId, usize, Vec<usize>)>;

/// The partition loop rebuilt from the public pieces (allocation order →
/// fit order → admission states), with a span around each call.
fn replay(
    a: &Algo,
    ts: &TaskSet,
    m: usize,
    ws: &WorkspaceRef,
    tr: &mut Tracer,
    l: &Layers,
    fit_calls: &mut u64,
) -> (Outcome, AdmissionStats) {
    let mut states: Vec<Box<dyn AdmissionState + '_>> =
        (0..m).map(|_| a.test.admission_state_in(ws)).collect();
    let strategy = &a.spec.strategy;
    let sequence = tr.time(l.order, || strategy.order().sequence(ts));
    let mut summaries = vec![SystemUtilization::default(); m];
    let mut order = Vec::with_capacity(m);
    let mut rejected = None;
    for (placed, task) in sequence.iter().enumerate() {
        let fit = strategy.fit_for(task);
        tr.time(l.fit, || {
            fit.processor_order_by_summary_into(&summaries, &mut order)
        });
        *fit_calls += 1;
        let mut assigned = false;
        for &k in &order {
            if tr.time(l.probe[a.kind], || states[k].try_admit(task)) {
                tr.begin(l.commit[a.kind]);
                states[k].commit(*task);
                summaries[k] = states[k].summary();
                tr.end();
                assigned = true;
                break;
            }
        }
        if !assigned {
            rejected = Some((
                task.id(),
                placed,
                states.iter().map(|s| s.tasks().len()).collect(),
            ));
            break;
        }
    }
    let mut stats = AdmissionStats::default();
    for s in &states {
        stats.merge(&s.stats());
    }
    let outcome = match rejected {
        Some(r) => Err(r),
        None => Ok(states
            .iter_mut()
            .map(|s| s.take_tasks().iter().map(|t| t.id()).collect())
            .collect()),
    };
    (outcome, stats)
}

/// Totals of one traced-sweep pass.
#[derive(Default)]
struct Pass {
    rounds: usize,
    elapsed: Duration,
    sets: u64,
    gen_calls: u64,
    fit_calls: u64,
    judged: [u64; 4],
    stats: [AdmissionStats; 4],
    accepts: Vec<u64>,
    mismatches: u64,
    first_mismatch: Option<String>,
}

/// One pass over the corpus: for every set, the library's
/// `try_partition_reporting_in` and the replay, compared exactly. Runs
/// `rounds` rounds, or until `budget` when `rounds` is `None`.
fn pass(
    s: &Setup,
    seed: u64,
    tr: &mut Tracer,
    l: &Layers,
    rounds: Option<usize>,
    budget: Duration,
) -> Pass {
    let mut p = Pass {
        accepts: vec![0; s.algos.len()],
        ..Pass::default()
    };
    let start = Instant::now();
    while rounds.map_or(start.elapsed() < budget, |r| p.rounds < r) {
        for (c, cell) in s.cells.iter().enumerate() {
            let (ts, tries) = tr.time(l.gen, || generate(cell, seed, c as u64, p.rounds));
            p.gen_calls += u64::from(tries);
            let Some(ts) = ts else {
                tr.flush();
                continue;
            };
            p.sets += 1;
            for (i, a) in s.algos.iter().enumerate() {
                tr.begin(l.partition[i]);
                let (reference, ref_stats) = a.boxed.try_partition_reporting_in(&ts, cell.m, &s.ws);
                tr.end();
                let (outcome, stats) = replay(a, &ts, cell.m, &s.ws, tr, l, &mut p.fit_calls);
                let expected: Outcome = match reference {
                    Ok(part) => Ok(part
                        .iter()
                        .map(|proc| proc.iter().map(|t| t.id()).collect())
                        .collect()),
                    Err(e) => Err((e.task, e.placed, e.processor_loads)),
                };
                if outcome != expected || stats != ref_stats {
                    p.mismatches += 1;
                    p.first_mismatch.get_or_insert_with(|| {
                        format!("{} on round {} cell {c}", a.spec.name(), p.rounds)
                    });
                }
                p.accepts[i] += u64::from(expected.is_ok());
                p.judged[a.kind] += 1;
                p.stats[a.kind].merge(&stats);
            }
            tr.flush();
        }
        p.rounds += 1;
    }
    p.elapsed = start.elapsed();
    p
}

fn traced(s: &Setup, args: &Args, report: &mut Report) -> Result<(), String> {
    let half = Duration::from_secs_f64(args.seconds / 2.0);
    // The same pass with spans off, then on, over the same rounds: the
    // time ratio is the tracing overhead.
    let mut off = Tracer::new(false);
    let l_off = layers(&mut off, &s.algos);
    let plain = pass(s, args.seed, &mut off, &l_off, None, half);
    let mut tr = Tracer::new(true);
    let l = layers(&mut tr, &s.algos);
    let p = pass(s, args.seed, &mut tr, &l, Some(plain.rounds), half);

    let judgements = p.judged.iter().sum::<u64>() as f64;
    report.attempted = judgements as u64;
    report.failed = p.mismatches + plain.mismatches;
    report.line(format!(
        "trace: {} rounds, {} sets, {:.3} s untraced, {:.3} s traced",
        p.rounds,
        p.sets,
        plain.elapsed.as_secs_f64(),
        p.elapsed.as_secs_f64()
    ));
    let n = |what: &str, count: u64| format!("{what}, n={count}");
    let sets = p.sets as f64;
    report.metric(
        "gen.ns_per_set",
        ratio(tr.total(l.gen).self_ns as f64, sets),
        "ns",
        &n("generator calls", p.gen_calls),
    );
    report.metric(
        "gen.yield",
        ratio(sets, p.gen_calls as f64),
        "ratio",
        &n("sets", p.sets),
    );
    report.metric(
        "strategy.order_ns_per_set",
        tr.total(l.order).mean_ns(),
        "ns",
        &n("AllocationOrder::sequence calls", tr.total(l.order).calls),
    );
    report.metric(
        "strategy.fit_ns_per_call",
        tr.total(l.fit).mean_ns(),
        "ns",
        &n("processor_order_by_summary_into calls", p.fit_calls),
    );
    report.metric(
        "strategy.fit_calls_per_set",
        ratio(p.fit_calls as f64, judgements),
        "1/set",
        &n("judgements", judgements as u64),
    );
    for (i, a) in s.algos.iter().enumerate() {
        let total = tr.total(l.partition[i]);
        report.metric(
            &format!("partition.{}.us_per_set", a.key),
            total.mean_ns() / 1e3,
            "us",
            &n("try_partition_reporting_in calls", total.calls),
        );
        report.metric(
            &format!("partition.{}.accept_ratio", a.key),
            ratio(p.accepts[i] as f64, sets),
            "ratio",
            &n("sets", p.sets),
        );
    }
    for (t, kind) in KINDS.iter().enumerate() {
        if p.judged[t] == 0 {
            continue;
        }
        let st = &p.stats[t];
        let judged = p.judged[t] as f64;
        let probe = tr.total(l.probe[t]);
        let commit = tr.total(l.commit[t]);
        let probes = n("try_admit calls", probe.calls);
        report.metric(
            &format!("incremental.{kind}.probe_ns"),
            probe.mean_ns(),
            "ns",
            &probes,
        );
        report.metric(
            &format!("incremental.{kind}.probe_p99_ns"),
            probe.quantile_ns(0.99),
            "ns",
            &probes,
        );
        report.metric(
            &format!("incremental.{kind}.probes_per_set"),
            ratio(probe.calls as f64, judged),
            "1/set",
            &n("judgements", p.judged[t]),
        );
        let attempts = st.attempts as f64;
        report.metric(
            &format!("incremental.{kind}.admit_ratio"),
            ratio(st.admits as f64, attempts),
            "ratio",
            &n("AdmissionStats attempts", st.attempts),
        );
        report.metric(
            &format!("incremental.{kind}.full_ratio"),
            ratio(st.full as f64, attempts),
            "ratio",
            &n("AdmissionStats attempts", st.attempts),
        );
        report.metric(
            &format!("incremental.{kind}.commit_ns"),
            commit.mean_ns(),
            "ns",
            &n("commit + summary calls", commit.calls),
        );
        if *kind == "ecdf" || *kind == "ey" {
            let checks = (st.qpa_cold + st.qpa_resumed + st.qpa_anchor_hits) as f64;
            let per = n("judgements", p.judged[t]);
            report.metric(
                &format!("demand.{kind}.qpa_cold"),
                ratio(st.qpa_cold as f64, judged),
                "1/set",
                &per,
            );
            report.metric(
                &format!("demand.{kind}.anchor_hits"),
                ratio(st.qpa_anchor_hits as f64, judged),
                "1/set",
                &per,
            );
            report.metric(
                &format!("demand.{kind}.warm_ratio"),
                ratio((st.qpa_resumed + st.qpa_anchor_hits) as f64, checks),
                "ratio",
                &n("QPA checks", checks as u64),
            );
        }
        if *kind == "amc" {
            report.metric(
                "amc.seeded_ratio",
                ratio(st.rta_seeded as f64, attempts),
                "ratio",
                &n("AdmissionStats attempts", st.attempts),
            );
        }
    }
    for line in tr.profile() {
        report.line(line);
    }
    let traced_s = p.elapsed.as_secs_f64();
    report.metric(
        "trace.overhead",
        ratio(plain.elapsed.as_secs_f64(), traced_s),
        "ratio",
        "traced over untraced throughput, same rounds",
    );
    report.metric(
        "trace.unattributed_share",
        1.0 - ratio(tr.attributed_ns() as f64 / 1e9, traced_s),
        "ratio",
        "share of traced wall time outside every layer span",
    );
    report.check(
        "sweep replay reproduces try_partition_reporting_in outcome and AdmissionStats",
        p.mismatches + plain.mismatches == 0,
        match (&p.first_mismatch, &plain.first_mismatch) {
            (Some(m), _) | (None, Some(m)) => format!("first mismatch: {m}"),
            (None, None) => format!("{} judgements compared twice", judgements as u64),
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corpus(seed: u64, lineup: &Lineup) -> Vec<TaskSet> {
        let cells = cells(lineup);
        (0..2)
            .flat_map(|r| {
                cells
                    .iter()
                    .enumerate()
                    .filter_map(move |(c, cell)| generate(cell, seed, c as u64, r).0)
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    fn accept_counts(seed: u64) -> Vec<usize> {
        let s = setup(&SWEEP_EDFVD).unwrap();
        let cells = cells(&SWEEP_EDFVD);
        s.algos
            .iter()
            .map(|a| {
                cells
                    .iter()
                    .enumerate()
                    .filter_map(|(c, cell)| {
                        let ts = generate(cell, seed, c as u64, 0).0?;
                        Some(a.boxed.accepts_in(&ts, cell.m, &s.ws))
                    })
                    .filter(|&ok| ok)
                    .count()
            })
            .collect()
    }

    #[test]
    fn same_seed_same_corpus_and_accepts() {
        for lineup in [&SWEEP_MC, &SWEEP_EDFVD] {
            assert_eq!(corpus(7, lineup), corpus(7, lineup));
        }
        assert_eq!(accept_counts(7), accept_counts(7));
    }

    #[test]
    fn another_seed_gives_another_corpus() {
        assert_ne!(corpus(7, &SWEEP_MC), corpus(8, &SWEEP_MC));
    }

    #[test]
    fn replay_matches_the_library_partitioner() {
        let s = setup(&SWEEP_MC).unwrap();
        let mut tr = Tracer::new(true);
        let l = layers(&mut tr, &s.algos);
        let p = pass(&s, 3, &mut tr, &l, Some(1), Duration::ZERO);
        assert!(p.sets > 0);
        assert_eq!(p.mismatches, 0, "{:?}", p.first_mismatch);
        assert!(p.accepts.iter().any(|&a| a > 0));
    }
}
