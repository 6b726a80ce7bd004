//! The chaos soak of the admission-control service plane: seeded fault
//! schedules driven through the full protocol state machine behind a
//! faulty transport. Run it with `cargo test -p mcsched-service --test
//! chaos`; [`eight_seed_soak_survives_and_agrees`] is the 8-seed soak.
//!
//! Each **seed** scripts one complete client session — a named
//! `open_session` followed by a few dozen id-tagged admits (some resent
//! verbatim as idempotent retries), removals, and probing queries — and
//! replays it through [`serve_connection_outcome`] with the byte stream
//! wrapped in [`netframe::fault`] injectors: torn frames, short writes,
//! bounded corruption, read delays, and mid-frame disconnects, all
//! drawn from a seeded [`FaultPlan`]. The same seed always produces the
//! same script *and* the same fault schedule, so a failing seed is a
//! repro, not a flake.
//!
//! After the connection dies (or finishes), the harness checks three
//! independent sources of truth against each other:
//!
//! 1. **In-memory** — the session the server held when the connection
//!    ended ([`ConnOutcome::session`](mcsched_service::server::ConnOutcome::session)).
//! 2. **Recovered** — the session rebuilt from the journal by
//!    [`Journal::recover`] + [`ClusterSession::restore`], i.e. what a
//!    crashed server would come back with.
//! 3. **Oracle** — a cluster of `mcsched-oracle`'s clone-and-retest
//!    [`CloneRetestState`]s restored from the same journal rows: the seed
//!    implementation this repo grew out of, with none of the
//!    incremental-state machinery.
//!
//! All three must agree **bit-for-bit**: identical placements and
//! identical per-processor utilization summaries under
//! [`f64::to_bits`]. On top of that, every processor's committed set
//! must pass the exact one-shot schedulability test. Odd seeds are
//! served as overflow (`"degraded"`) connections; both pools run the
//! same exact sessions, so the checks are the same for every seed.
//!
//! Disagreements are collected as strings, never panics: the harness
//! runs the server inside `catch_unwind` precisely because "no panic
//! under faults" is one of the properties under test, and a failing
//! test prints the [`render_chaos`] table.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use mcsched_analysis::AdmissionState;
use mcsched_core::{AlgorithmRegistry, AlgorithmSpec, ClusterSession};
use mcsched_model::{Task, TaskId, TaskSet};
use mcsched_oracle::CloneRetestState;
use netframe::fault::{FaultConfig, FaultPlan, FaultyReader, FaultyWriter};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use mcsched_service::journal::Journal;
use mcsched_service::protocol::{Envelope, Request, RequestId};
use mcsched_service::server::{serve_connection_outcome, AdmissionTier, ServerConfig};

/// The algorithm line-up the chaos scripts rotate through — one name
/// per schedulability test, so every admission path is exercised.
const ALGORITHMS: [&str; 5] = [
    "CU-UDP-EDF-VD",
    "CU-UDP-EY",
    "CU-UDP-ECDF",
    "CA-UDP-AMC-rtb",
    "CA-UDP-AMC-max",
];

/// Tuning knobs for [`run_chaos`].
#[derive(Debug)]
struct ChaosConfig {
    /// Seeds to run (`0..seeds`); each is an independent scripted
    /// session with its own fault schedule.
    seeds: u64,
    /// Scripted operations per session (excluding the open).
    steps: usize,
    /// The fault profile injected into both byte lanes.
    fault: FaultConfig,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seeds: 8,
            steps: 60,
            fault: FaultConfig::chaotic(),
        }
    }
}

/// What one seed's run looked like, and whether it agreed with itself.
#[derive(Debug)]
struct SeedReport {
    /// The seed (script + fault schedule).
    seed: u64,
    /// `"exact"` or `"degraded"` — which server pool served it.
    tier: String,
    /// Registry name of the scripted algorithm.
    algorithm: String,
    /// Processor count of the scripted session.
    m: usize,
    /// Request lines the server saw (post-faults; torn tails excluded).
    requests: u64,
    /// Committed tasks in the recovered image (0 when the open itself
    /// was eaten by a fault).
    recovered_tasks: usize,
    /// Disconnects injected across both lanes.
    disconnects: u64,
    /// Short reads/writes injected across both lanes.
    shorts: u64,
    /// Bytes corrupted across both lanes.
    corrupted_bytes: u64,
    /// Read delays injected.
    delays: u64,
    /// Every disagreement found; empty means the seed passed.
    mismatches: Vec<String>,
}

/// The whole soak: one entry per seed.
#[derive(Debug)]
struct ChaosReport {
    /// Operations scripted per seed.
    steps: usize,
    /// Per-seed outcomes.
    seeds: Vec<SeedReport>,
}

impl ChaosReport {
    /// `true` when no seed panicked or diverged.
    fn passed(&self) -> bool {
        self.seeds.iter().all(|s| s.mismatches.is_empty())
    }
}

/// One scripted session: the wire bytes plus what they were built from.
struct Script {
    algorithm: String,
    m: usize,
    input: Vec<u8>,
}

/// A deterministic random task, biased so some admissions are rejected
/// (periods from a harmonic-ish palette, ~40% HC, heavy demand).
fn random_task(rng: &mut StdRng, id: u32) -> Option<Task> {
    let period = *[5u64, 10, 20, 40, 100].get(rng.random_range(0..5))?;
    let wcet_lo = rng.random_range(1..=period.div_ceil(2));
    if rng.random_range(0..10) < 4 {
        let wcet_hi = rng.random_range(wcet_lo..=period);
        Task::hi(id, period, wcet_lo, wcet_hi).ok()
    } else {
        Task::lo(id, period, wcet_lo).ok()
    }
}

/// Renders one request line (id-tagged, newline-terminated) into `out`.
fn push_line(out: &mut Vec<u8>, id: u64, request: Request) {
    let env = Envelope {
        id: Some(RequestId::Num(id)),
        request,
    };
    out.extend_from_slice(env.render().as_bytes());
    out.push(b'\n');
}

/// Scripts the seed's session: a named open, then `steps` operations —
/// mostly op-id'd admits (a quarter of them immediately resent, as a
/// client retrying a lost reply would), plus removals of already-seen
/// ids and probing queries.
fn scripted_session(seed: u64, steps: usize) -> Script {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A0_5CE3_97B1_D2E5);
    let algorithm = ALGORITHMS[(seed % ALGORITHMS.len() as u64) as usize].to_owned();
    let m = 2 + (seed % 3) as usize;
    let mut input = Vec::with_capacity(steps * 96);
    push_line(
        &mut input,
        0,
        Request::OpenSession {
            algorithm: algorithm.clone(),
            m,
            session: Some(format!("chaos-{seed}")),
        },
    );
    let mut next_task = 0u32;
    let mut seen: Vec<u32> = Vec::new();
    for i in 1..=steps {
        let line_id = i as u64;
        match rng.random_range(0..100u32) {
            0..=59 => {
                let id = next_task;
                next_task += 1;
                let Some(task) = random_task(&mut rng, id) else {
                    continue;
                };
                seen.push(id);
                let op_id = Some(format!("s{seed}-op{i}"));
                let admit = Request::Admit { task, op_id };
                push_line(&mut input, line_id, admit.clone());
                if rng.random_range(0..4u32) == 0 {
                    // An idempotent retry: the identical frame again.
                    push_line(&mut input, line_id, admit);
                }
            }
            60..=74 if !seen.is_empty() => {
                let pick = rng.random_range(0..seen.len());
                let id = seen.swap_remove(pick);
                push_line(
                    &mut input,
                    line_id,
                    Request::Remove {
                        task_id: TaskId(id),
                        op_id: Some(format!("s{seed}-op{i}")),
                    },
                );
            }
            75..=89 => {
                // Probes use a disjoint id space so they never collide
                // with committed tasks.
                let probe = random_task(&mut rng, 1_000_000 + i as u32);
                push_line(&mut input, line_id, Request::Query { probe });
            }
            _ => push_line(&mut input, line_id, Request::Query { probe: None }),
        }
    }
    Script {
        algorithm,
        m,
        input,
    }
}

/// The exact clone-and-retest cluster for `spec` — the oracle every
/// recovered session is held against.
fn oracle_cluster(spec: &AlgorithmSpec, m: usize) -> ClusterSession {
    let states = (0..m)
        .map(|_| Box::new(CloneRetestState::new(spec.test.test())) as Box<dyn AdmissionState>)
        .collect();
    ClusterSession::from_states(spec.name(), spec.strategy.clone(), states)
}

/// Per-processor utilization summaries as raw bits, for bit-identical
/// comparison.
fn summary_bits(cluster: &ClusterSession) -> Vec<[u64; 3]> {
    cluster
        .summaries()
        .iter()
        .map(|s| [s.u_ll.to_bits(), s.u_hl.to_bits(), s.u_hh.to_bits()])
        .collect()
}

/// Replays journal rows into a fresh session. `Err` carries a
/// human-readable reason (unknown algorithm, occupied slot, …).
fn rebuild(
    registry: &AlgorithmRegistry,
    algorithm: &str,
    m: usize,
    rows: &[(Task, usize)],
) -> Result<ClusterSession, String> {
    let mut cluster = registry
        .open_session(algorithm, m)
        .map_err(|e| format!("rebuild open failed: {e}"))?;
    restore_rows(&mut cluster, rows)?;
    Ok(cluster)
}

/// Force-places `rows` in order, failing on any inconsistent row.
fn restore_rows(cluster: &mut ClusterSession, rows: &[(Task, usize)]) -> Result<(), String> {
    for (task, k) in rows {
        if !cluster.restore(*task, *k) {
            return Err(format!(
                "restore rejected task {} on processor {k}",
                task.id().0
            ));
        }
    }
    Ok(())
}

/// Records every way `found` differs from `expected` into `out`.
fn compare_clusters(
    label: &str,
    expected: &ClusterSession,
    found: &ClusterSession,
    out: &mut Vec<String>,
) {
    if expected.task_count() != found.task_count() {
        out.push(format!(
            "{label}: task count {} != {}",
            found.task_count(),
            expected.task_count()
        ));
    }
    if expected.snapshot() != found.snapshot() {
        out.push(format!("{label}: placements differ"));
    }
    if summary_bits(expected) != summary_bits(found) {
        out.push(format!("{label}: utilization summaries not bit-identical"));
    }
}

/// A collision-free scratch path for one seed's journal. The tests here
/// run concurrently in one process, often on the same seeds, so each
/// call gets its own number.
fn journal_path(seed: u64) -> PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let name = format!("mcsched-chaos-{}-{call}-{seed}.jsonl", std::process::id());
    std::env::temp_dir().join(name)
}

/// Runs one seed end to end and reports what happened.
fn run_seed(registry: &AlgorithmRegistry, seed: u64, config: &ChaosConfig) -> SeedReport {
    let script = scripted_session(seed, config.steps);
    let tier = if seed.is_multiple_of(2) {
        AdmissionTier::Exact
    } else {
        AdmissionTier::Degraded
    };
    let mut report = SeedReport {
        seed,
        tier: match tier {
            AdmissionTier::Exact => "exact".to_owned(),
            AdmissionTier::Degraded => "degraded".to_owned(),
        },
        algorithm: script.algorithm.clone(),
        m: script.m,
        requests: 0,
        recovered_tasks: 0,
        disconnects: 0,
        shorts: 0,
        corrupted_bytes: 0,
        delays: 0,
        mismatches: Vec::new(),
    };
    let path = journal_path(seed);
    let _ = std::fs::remove_file(&path);
    let journal = match Journal::create(&path) {
        Ok(j) => j,
        Err(e) => {
            report
                .mismatches
                .push(format!("journal create failed: {e}"));
            return report;
        }
    };
    let server_config = ServerConfig::default();
    let plan = FaultPlan::new(seed, config.fault.clone());
    let mut reader = FaultyReader::new(&script.input[..], plan.fork(1));
    let mut writer = FaultyWriter::new(Vec::new(), plan.fork(2));
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        serve_connection_outcome(
            registry,
            &server_config,
            tier,
            Some(&journal),
            &mut reader,
            &mut writer,
        )
    }));
    let faults = reader.stats().merged(writer.stats());
    report.disconnects = faults.disconnects;
    report.shorts = faults.shorts;
    report.corrupted_bytes = faults.corrupted_bytes;
    report.delays = faults.delays;
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(_) => {
            report
                .mismatches
                .push("server panicked under injected faults".to_owned());
            let _ = std::fs::remove_file(&path);
            return report;
        }
    };
    report.requests = outcome.stats.requests;
    drop(journal);

    // What would a crashed server come back with?
    let recovered = match Journal::recover(&path) {
        Ok(j) => j,
        Err(e) => {
            report.mismatches.push(format!("recovery failed: {e}"));
            let _ = std::fs::remove_file(&path);
            return report;
        }
    };
    let image = outcome.session_name.as_deref().and_then(|name| {
        recovered
            .images()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, img)| img)
    });
    match (&outcome.session, &image) {
        (Some(live), Some(image)) => {
            report.recovered_tasks = image.rows.len();
            // Corruption may mutate the open frame before the server
            // sees it, so the journal is held to what was *served*
            // (the live session), not to the script.
            if image.algorithm != live.name() || image.m != live.processor_count() {
                report.mismatches.push(format!(
                    "image shape {}/m={} != live {}/m={}",
                    image.algorithm,
                    image.m,
                    live.name(),
                    live.processor_count()
                ));
            }
            match rebuild(registry, &image.algorithm, image.m, &image.rows) {
                Ok(rebuilt) => {
                    compare_clusters("recovered vs live", live, &rebuilt, &mut report.mismatches)
                }
                Err(e) => report.mismatches.push(format!("recovered vs live: {e}")),
            }
            match registry.spec(&image.algorithm) {
                Ok(spec) => {
                    let mut oracle = oracle_cluster(&spec, image.m);
                    match restore_rows(&mut oracle, &image.rows) {
                        Ok(()) => {
                            compare_clusters(
                                "oracle vs live",
                                live,
                                &oracle,
                                &mut report.mismatches,
                            );
                            // Accept-soundness: every processor's committed
                            // set must pass the *exact* one-shot test.
                            for (k, ids) in oracle.snapshot().iter().enumerate() {
                                let mut ts = TaskSet::with_capacity(ids.len());
                                for (task, proc) in &image.rows {
                                    if *proc == k {
                                        ts.push_unchecked(*task);
                                    }
                                }
                                if !ts.is_empty() && !spec.test.test().is_schedulable(&ts) {
                                    report.mismatches.push(format!(
                                        "processor {k} holds {} tasks the exact test rejects",
                                        ids.len()
                                    ));
                                }
                            }
                        }
                        Err(e) => report.mismatches.push(format!("oracle vs live: {e}")),
                    }
                }
                Err(e) => report
                    .mismatches
                    .push(format!("oracle spec lookup failed: {e}")),
            }
        }
        (None, None) => {
            // The open itself was eaten by a fault before it committed;
            // nothing durable, nothing live — consistent.
        }
        (Some(_), None) => report
            .mismatches
            .push("live session exists but journal has no image".to_owned()),
        (None, Some(image)) => {
            // The connection ended without a live session (e.g. a close
            // frame survived corruption) while durable state remains —
            // only consistent if the server really detached it, which
            // scripted sessions never request. Flag it.
            report.mismatches.push(format!(
                "journal kept {} rows for a session the server no longer holds",
                image.rows.len()
            ));
        }
    }
    let _ = std::fs::remove_file(&path);
    report
}

/// Runs the whole soak: `config.seeds` independent scripted sessions.
fn run_chaos(config: &ChaosConfig) -> ChaosReport {
    let registry = AlgorithmRegistry::standard();
    let seeds = (0..config.seeds)
        .map(|seed| run_seed(&registry, seed, config))
        .collect();
    ChaosReport {
        steps: config.steps,
        seeds,
    }
}

/// Renders the report as a compact human-readable table.
fn render_chaos(report: &ChaosReport) -> String {
    let mut out = format!(
        "chaos soak: {} seeds x {} ops\n\
         | seed | tier | algorithm | m | requests | recovered | faults (disc/short/corrupt/delay) | verdict |\n\
         |----|----|----|----|----|----|----|----|\n",
        report.seeds.len(),
        report.steps
    );
    for s in &report.seeds {
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {}/{}/{}/{} | {} |\n",
            s.seed,
            s.tier,
            s.algorithm,
            s.m,
            s.requests,
            s.recovered_tasks,
            s.disconnects,
            s.shorts,
            s.corrupted_bytes,
            s.delays,
            if s.mismatches.is_empty() {
                "ok"
            } else {
                "FAIL"
            }
        ));
    }
    for s in &report.seeds {
        for m in &s.mismatches {
            out.push_str(&format!("seed {}: {}\n", s.seed, m));
        }
    }
    out.push_str(&format!(
        "verdict: {}\n",
        if report.passed() { "PASS" } else { "FAIL" }
    ));
    out
}

#[test]
fn eight_seed_soak_survives_and_agrees() {
    let report = run_chaos(&ChaosConfig::default());
    assert_eq!(report.seeds.len(), 8, "every seed reports");
    assert!(report.passed(), "divergence:\n{}", render_chaos(&report));
    // The soak is only meaningful if the faults actually fired and at
    // least some sessions survived with committed state to compare.
    let faults: u64 = report
        .seeds
        .iter()
        .map(|s| s.disconnects + s.shorts + s.corrupted_bytes + s.delays)
        .sum();
    assert!(faults > 0, "fault plan injected nothing");
    assert!(
        report.seeds.iter().any(|s| s.recovered_tasks > 0),
        "no seed recovered any committed state — nothing was compared"
    );
    assert!(
        report.seeds.iter().any(|s| s.tier == "exact")
            && report.seeds.iter().any(|s| s.tier == "degraded"),
        "both admission tiers must be soaked"
    );
}

#[test]
fn scripts_are_deterministic() {
    let a = scripted_session(3, 40);
    let b = scripted_session(3, 40);
    assert_eq!(a.input, b.input);
    assert_eq!(a.algorithm, b.algorithm);
    assert_eq!(a.m, b.m);
}

#[test]
fn fault_free_run_round_trips_both_tiers() {
    // With an all-zero fault profile every scripted op lands, so
    // the three-way comparison must agree with zero mismatches.
    let config = ChaosConfig {
        seeds: 2,
        steps: 30,
        fault: FaultConfig::default(),
    };
    let report = run_chaos(&config);
    assert!(report.passed(), "{}", render_chaos(&report));
    assert!(report.seeds.iter().all(|s| s.recovered_tasks > 0));
    assert_eq!(report.seeds[0].tier, "exact");
    assert_eq!(report.seeds[1].tier, "degraded");
}

#[test]
fn chaotic_run_survives_and_agrees() {
    let config = ChaosConfig {
        seeds: 4,
        steps: 40,
        fault: FaultConfig::chaotic(),
    };
    let report = run_chaos(&config);
    assert!(report.passed(), "{}", render_chaos(&report));
    let faults: u64 = report
        .seeds
        .iter()
        .map(|s| s.disconnects + s.shorts + s.corrupted_bytes + s.delays)
        .sum();
    assert!(faults > 0, "chaotic profile injected nothing");
}

#[test]
fn report_renders() {
    let config = ChaosConfig {
        seeds: 1,
        steps: 10,
        fault: FaultConfig::default(),
    };
    let report = run_chaos(&config);
    let rendered = render_chaos(&report);
    assert!(rendered.contains("chaos soak"));
    assert!(rendered.contains("PASS"));
}
