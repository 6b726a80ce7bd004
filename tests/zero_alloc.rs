//! Proof of the zero-allocation milestone: once an admission state's
//! buffers are warm, **admission probes perform no heap allocations**,
//! and neither do workspace-backed one-shot judgements.
//!
//! A counting global allocator wraps `System`; each scenario warms its
//! buffers first (capacity growth is allowed to allocate), then asserts
//! an allocation delta of **zero** over many repetitions. The counter is
//! **per-thread**: the probe loops run entirely on the test thread, and
//! a process-wide counter picks up unrelated allocations the harness's
//! supervisor thread makes at timing-dependent moments (an intermittent
//! false failure observed in practice).
//!
//! The scenarios cover the incremental demand kernel explicitly: the
//! EY / ECDF one-shot judgements below run multi-round greedy descents
//! whose high-mode QPA warm-resumes and whose admission states keep a
//! warm kernel across probes — all of it allocation-free once the
//! anchor/snapshot buffers reach their (bounded) high-water mark.
//!
//! Whole partitioning runs are pinned as well: a warm run allocates its
//! `m` admission-state boxes and their `Vec` and nothing else, because
//! the states draw their buffers from the workspace and return them on
//! drop (`try_partition_reporting_in` additionally allocates the result
//! it hands back).
//!
//! The service plane's request path is pinned too: reading a frame from
//! a warm `FrameReader` allocates nothing, and decoding a request line
//! allocates only the owned strings of the request it returns.

#![expect(
    unsafe_code,
    reason = "the counting allocator is the one place the workspace needs `unsafe`: \
              a thin pass-through to `System` with a relaxed atomic counter"
)]

use mcsched::analysis::{
    AmcMax, AmcRtb, AnalysisWorkspace, Ecdf, EdfVd, Ey, SchedulabilityTest, WorkspaceRef,
};
use mcsched::core::{presets, AlgorithmSpec, TestName};
use mcsched::gen::{seeded_corpus, DeadlineModel, TaskSetSpec};
use mcsched::model::{Task, TaskId, TaskSet};
use mcsched::service::protocol::{parse_envelope, Envelope, EvalRequest, Request, RequestId};
use netframe::FrameReader;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by *this* thread (const-initialised: reading it
    /// never allocates, so the counter cannot count itself).
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Bumps the calling thread's counter; silently skipped during thread
/// teardown (when the TLS slot is already destroyed).
fn bump() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

/// Counts every allocation and reallocation; frees are untracked (a probe
/// that frees must have allocated first, so zero allocations ⇒ zero
/// churn).
struct CountingAllocator;

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Runs `f` and returns how many allocations the calling thread
/// performed in it.
fn count_allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A mixed workload that every test admits partially: some tasks commit,
/// later probes run against non-trivial committed state.
fn committed_tasks() -> Vec<Task> {
    vec![
        Task::hi(0, 10, 1, 2).unwrap(),
        Task::lo(1, 20, 3).unwrap(),
        Task::hi_constrained(2, 25, 2, 4, 20).unwrap(),
        Task::lo_constrained(3, 12, 1, 5).unwrap(),
        Task::hi(4, 40, 2, 5).unwrap(),
    ]
}

/// Probe candidates: one admissible (never committed), one rejected.
fn probes() -> Vec<Task> {
    vec![
        Task::lo(90, 30, 1).unwrap(),
        Task::hi(91, 10, 6, 9).unwrap(),
    ]
}

/// Asserts zero allocations across repeated `try_admit` probes on a
/// warmed state of `test`.
fn assert_zero_alloc_admission(test: &dyn SchedulabilityTest) {
    let ws = WorkspaceRef::new();
    let mut state = test.admission_state_in(&ws);
    for t in committed_tasks() {
        if state.try_admit(&t) {
            state.commit(t);
        }
    }
    let probes = probes();
    // Warm-up pass: let every scratch buffer reach its high-water mark.
    for p in &probes {
        let _ = state.try_admit(p);
    }
    // Steady state: not a single heap allocation across 64 probe rounds.
    let allocs = count_allocations(|| {
        for _ in 0..64 {
            for p in &probes {
                std::hint::black_box(state.try_admit(std::hint::black_box(p)));
            }
        }
    });
    assert_eq!(
        allocs,
        0,
        "{}: steady-state admission probes allocated {allocs} times",
        test.name()
    );
}

/// Asserts zero allocations across repeated workspace-backed one-shot
/// judgements of `test`.
fn assert_zero_alloc_one_shot(test: &dyn SchedulabilityTest, sets: &[TaskSet]) {
    let mut ws = AnalysisWorkspace::new();
    for ts in sets {
        let _ = test.is_schedulable_in(ts, &mut ws); // warm-up
    }
    let allocs = count_allocations(|| {
        for _ in 0..32 {
            for ts in sets {
                std::hint::black_box(test.is_schedulable_in(std::hint::black_box(ts), &mut ws));
            }
        }
    });
    assert_eq!(
        allocs,
        0,
        "{}: steady-state one-shot judgements allocated {allocs} times",
        test.name()
    );
}

/// Asserts zero allocations across warm QPA resumes: a tuning-heavy set
/// (every HC task needs several tightening rounds) judged repeatedly
/// through one workspace, plus an admission state whose stats must show
/// the kernel actually resumed fixpoints while staying allocation-free.
fn assert_zero_alloc_warm_qpa() {
    // Three overrunning HC tasks: the untightened start violates at the
    // switch and the greedy descent iterates check → tighten rounds, so
    // every judgement exercises the kernel's warm-resume path.
    let ts = TaskSet::try_from_tasks(vec![
        Task::hi(0, 12, 2, 6).unwrap(),
        Task::hi(1, 20, 3, 9).unwrap(),
        Task::hi(2, 33, 4, 11).unwrap(),
        Task::lo(3, 25, 4).unwrap(),
    ])
    .unwrap();
    let ecdf = Ecdf::new();
    let mut ws = AnalysisWorkspace::new();
    let _ = ecdf.is_schedulable_in(&ts, &mut ws); // warm-up
    let allocs = count_allocations(|| {
        for _ in 0..32 {
            std::hint::black_box(ecdf.is_schedulable_in(std::hint::black_box(&ts), &mut ws));
        }
    });
    assert_eq!(allocs, 0, "warm QPA resume allocated {allocs} times");

    // The admission state's warm kernel: repeated probes must both reuse
    // fixpoints (observable in the stats) and allocate nothing.
    let ws = WorkspaceRef::new();
    let mut state = ecdf.admission_state_in(&ws);
    for t in ts.iter() {
        if state.try_admit(t) {
            state.commit(*t);
        }
    }
    // A light HC probe: it passes the O(1) structural pre-reject and
    // adds high-mode demand, so every probe re-runs the greedy tuner
    // over the warm kernel.
    let probe = Task::hi(90, 200, 1, 3).unwrap();
    let _ = state.try_admit(&probe); // warm-up
    let before = state.stats();
    let allocs = count_allocations(|| {
        for _ in 0..64 {
            std::hint::black_box(state.try_admit(std::hint::black_box(&probe)));
        }
    });
    assert_eq!(
        allocs, 0,
        "admission probes with warm kernel allocated {allocs} times"
    );
    let after = state.stats();
    assert!(
        after.qpa_resumed > before.qpa_resumed,
        "probes did not resume any fixpoint: {before:?} → {after:?}"
    );
    // A light LC probe against the committed tuning: it is admitted by
    // one low-mode check of the tuned assignment, with no search, and
    // stays allocation-free.
    let probe = Task::lo(91, 30, 2).unwrap();
    let _ = state.try_admit(&probe); // warm-up
    let before = state.stats();
    let allocs = count_allocations(|| {
        for _ in 0..64 {
            std::hint::black_box(state.try_admit(std::hint::black_box(&probe)));
        }
    });
    assert_eq!(
        allocs, 0,
        "LC probes against the committed tuning allocated {allocs} times"
    );
    let after = state.stats();
    assert!(
        after.incremental >= before.incremental + 64,
        "LC probes were not answered from the committed tuning: {before:?} → {after:?}"
    );
}

/// A wide committed set (20 tasks, mixed criticality, light utilisation):
/// four times the 5-task scenarios above, so the SoA lanes and the rtb
/// kernel's position-list scratch must hold their grown capacity.
fn committed_tasks_wide() -> Vec<Task> {
    (0..20u32)
        .map(|i| {
            let period = 60 + 17 * u64::from(i);
            if i % 3 == 0 {
                Task::hi(i, period, 1, 2).unwrap()
            } else {
                Task::lo(i, period, 1).unwrap()
            }
        })
        .collect()
}

/// Asserts the lane view itself is allocation-free once warm:
/// repeated full rebuilds of the SoA lanes (one-shot judgements over a
/// 20-task set, which reload the view every call) and repeated
/// delta-updated admission probes against a 20-task committed state must
/// not touch the heap.
fn assert_zero_alloc_wide_lanes() {
    let wide = TaskSet::try_from_tasks(committed_tasks_wide()).unwrap();
    for test in [
        &AmcRtb::new() as &dyn SchedulabilityTest,
        &AmcMax::new(),
        // The demand lanes: one-shot judgements rebuild the SoA view
        // every call; admission probes delta-update it (push/pop around
        // every query, replace_vd inside every tuner descent).
        &Ey::new(),
        &Ecdf::new(),
    ] {
        // One-shot: every call rebuilds the lane view from scratch into
        // warm buffers (resize + overwrite, growth only on first use).
        let mut ws = AnalysisWorkspace::new();
        assert!(test.is_schedulable_in(&wide, &mut ws), "warm-up verdict");
        let allocs = count_allocations(|| {
            for _ in 0..32 {
                std::hint::black_box(test.is_schedulable_in(std::hint::black_box(&wide), &mut ws));
            }
        });
        assert_eq!(
            allocs,
            0,
            "{}: wide one-shot rebuilds allocated {allocs} times",
            test.name()
        );

        // Delta path: probes insert into / remove from the 20-position
        // lane view around every admission query.
        let ws = WorkspaceRef::new();
        let mut state = test.admission_state_in(&ws);
        for t in committed_tasks_wide() {
            assert!(state.try_admit(&t), "{}: wide set must admit", test.name());
            state.commit(t);
        }
        let probes = probes();
        for p in &probes {
            let _ = state.try_admit(p);
        }
        let allocs = count_allocations(|| {
            for _ in 0..64 {
                for p in &probes {
                    std::hint::black_box(state.try_admit(std::hint::black_box(p)));
                }
            }
        });
        assert_eq!(
            allocs,
            0,
            "{}: wide admission probes allocated {allocs} times",
            test.name()
        );
    }
}

#[test]
fn admission_and_one_shot_paths_are_allocation_free() {
    let tests: Vec<Box<dyn SchedulabilityTest>> = vec![
        Box::new(EdfVd::new()),
        Box::new(Ey::new()),
        Box::new(Ecdf::new()),
        Box::new(AmcRtb::new()),
        Box::new(AmcMax::new()),
    ];
    let sets = vec![
        TaskSet::try_from_tasks(committed_tasks()).unwrap(),
        TaskSet::try_from_tasks(vec![
            Task::hi(0, 10, 2, 4).unwrap(),
            Task::hi(1, 25, 3, 7).unwrap(),
            Task::lo(2, 20, 5).unwrap(),
            Task::lo(3, 15, 2).unwrap(),
        ])
        .unwrap(),
    ];
    for test in &tests {
        assert_zero_alloc_admission(test.as_ref());
        assert_zero_alloc_one_shot(test.as_ref(), &sets);
    }
    assert_zero_alloc_warm_qpa();
    assert_zero_alloc_wide_lanes();
}

/// Allocations `try_partition_reporting_in` makes for the value it
/// returns: the partition's `Vec` plus one buffer per non-empty
/// processor, or the error's per-processor load `Vec`.
fn result_allocations(
    result: &Result<mcsched::core::Partition, mcsched::core::PartitionError>,
) -> u64 {
    match result {
        Ok(p) => 1 + p.iter().filter(|ts| !ts.is_empty()).count() as u64,
        Err(_) => 1,
    }
}

/// Warm partitioning runs through one workspace allocate only their `m`
/// state boxes and the `Vec` holding them (plus, for
/// `try_partition_reporting_in`, the returned value): every test, every
/// preset strategy, m = 2 and 4, over a seeded corpus of mixed verdicts.
#[test]
fn warm_partition_runs_allocate_only_their_states() {
    for m in [2usize, 4] {
        let corpus = seeded_corpus(16, 0xa110c ^ m as u64, |p| {
            TaskSetSpec::paper_defaults(m, p, DeadlineModel::Implicit)
        });
        assert!(corpus.len() >= 12, "corpus came out short");
        for test in TestName::ALL {
            for strategy in presets::all() {
                let algo = AlgorithmSpec::new(strategy, test);
                let ws = WorkspaceRef::new();
                // Warm-up pass: every buffer reaches the high-water mark
                // of the roles it plays over the corpus.
                for ts in &corpus {
                    let _ = algo.accepts_in(ts, m, &ws);
                    let _ = algo.try_partition_reporting_in(ts, m, &ws);
                }
                let bound = m as u64 + 1;
                let mut accepted = 0usize;
                for ts in &corpus {
                    let mut verdict = false;
                    let allocs = count_allocations(|| {
                        verdict = algo.accepts_in(std::hint::black_box(ts), m, &ws);
                    });
                    assert!(
                        allocs <= bound,
                        "{} m={m}: warm accepts_in allocated {allocs} times (bound {bound})",
                        algo.name()
                    );
                    let mut run = None;
                    let allocs = count_allocations(|| {
                        run =
                            Some(algo.try_partition_reporting_in(std::hint::black_box(ts), m, &ws));
                    });
                    let (result, _) = run.expect("ran");
                    let owned = result_allocations(&result);
                    assert!(
                        allocs <= bound + owned,
                        "{} m={m}: warm try_partition_reporting_in allocated {allocs} times \
                         (bound {bound} + {owned} for the result)",
                        algo.name()
                    );
                    assert_eq!(verdict, result.is_ok(), "{}", algo.name());
                    accepted += usize::from(verdict);
                }
                assert!(
                    accepted < corpus.len(),
                    "{} m={m}: the corpus must exercise rejections too",
                    algo.name()
                );
            }
        }
    }
}

/// A warm `ClusterSession::probe` allocates nothing: CU-UDP places HC
/// tasks by worst-fit over the utilization difference, so every probe
/// of an HC task builds a keyed fit order in the session's own scratch,
/// and an LC probe takes the first-fit order. Probes both land and fail.
#[test]
fn warm_session_probes_are_allocation_free() {
    for test in [TestName::EdfVd, TestName::Ecdf, TestName::AmcMax] {
        // Worst-fit spreads three heavy HC tasks over the three
        // processors, so a fourth fits nowhere.
        let mut session = AlgorithmSpec::new(presets::cu_udp(), test).open_cluster(3);
        for id in 0..3 {
            assert!(session.admit(Task::hi(id, 10, 5, 9).unwrap()).is_ok());
        }
        let probes = [
            Task::hi(90, 100, 1, 2).unwrap(),
            Task::hi(91, 10, 5, 9).unwrap(),
            Task::lo(92, 100, 1).unwrap(),
        ];
        let mut landed = Vec::new();
        for p in &probes {
            landed.push(session.probe(p).is_some()); // warm-up
        }
        assert!(
            landed.contains(&true) && landed.contains(&false),
            "{landed:?}"
        );
        let allocs = count_allocations(|| {
            for _ in 0..64 {
                for p in &probes {
                    std::hint::black_box(session.probe(std::hint::black_box(p)));
                }
            }
        });
        assert_eq!(
            allocs,
            0,
            "{}: warm session probes allocated {allocs} times",
            session.name()
        );
    }
}

/// Allocations of one warm `parse_envelope` of `request`, rendered with
/// a numeric id.
fn decode_allocations(request: Request) -> u64 {
    let line = Envelope::with_id(RequestId::Num(41), request).render();
    assert!(parse_envelope(&line).is_ok(), "{line}"); // warm-up
    count_allocations(|| {
        std::hint::black_box(parse_envelope(std::hint::black_box(&line))).ok();
    })
}

#[test]
fn request_decoding_allocates_only_the_owned_strings() {
    let task = Task::hi(7, 100, 10, 20).unwrap();
    let probe = Task::lo(8, 50, 5).unwrap();
    let op_id = Some("op-7".to_owned());
    for (what, request, want) in [
        ("admit", Request::Admit { task, op_id: None }, 0),
        (
            "remove",
            Request::Remove {
                task_id: TaskId(7),
                op_id: None,
            },
            0,
        ),
        ("query", Request::Query { probe: Some(probe) }, 0),
        (
            "admit with op_id",
            Request::Admit {
                task,
                op_id: op_id.clone(),
            },
            1,
        ),
        (
            "remove with op_id",
            Request::Remove {
                task_id: TaskId(7),
                op_id,
            },
            1,
        ),
    ] {
        let allocs = decode_allocations(request);
        assert_eq!(allocs, want, "{what}: decoding allocated {allocs} times");
    }
    // An eval owns its algorithm name and its task set.
    let tasks: Vec<Task> = (0..12u32)
        .map(|i| {
            if i % 2 == 0 {
                Task::hi(i, 100 + u64::from(i), 2, 4).unwrap()
            } else {
                Task::lo(i, 100 + u64::from(i), 3).unwrap()
            }
        })
        .collect();
    let eval = Request::Eval(EvalRequest {
        algorithm: "CU-UDP-ECDF".to_owned(),
        m: 4,
        tasks: TaskSet::try_from_tasks(tasks).unwrap(),
    });
    let allocs = decode_allocations(eval);
    assert!(
        allocs <= 5,
        "12-task eval: decoding allocated {allocs} times"
    );
}

#[test]
fn lent_frames_are_allocation_free_once_warm() {
    let line = Envelope::new(Request::Query {
        probe: Some(Task::hi(3, 30, 5, 9).unwrap()),
    })
    .render();
    let stream = format!("{line}\n").repeat(65);
    let mut frames = FrameReader::new(stream.as_bytes(), 4096);
    // Warm-up: the reader's buffer grows to hold one frame.
    assert_eq!(frames.read_frame().unwrap(), Some(line.as_str()));
    let allocs = count_allocations(|| {
        for _ in 0..64 {
            std::hint::black_box(frames.read_frame().unwrap());
        }
    });
    assert_eq!(allocs, 0, "64 warm frame reads allocated {allocs} times");
    assert_eq!(frames.read_frame().unwrap(), None);
}
