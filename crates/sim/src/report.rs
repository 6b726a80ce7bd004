//! Simulation outcomes: traces, miss records, aggregate statistics.

use mcsched_model::{Criticality, TaskId, Time};
use serde::Serialize;
use std::fmt;

/// A deadline miss that the scheduler was required to prevent.
///
/// By construction the simulator only records *required* misses: in low
/// mode every job's real deadline counts; after a mode switch LC jobs are
/// dropped (never counted) and HC jobs keep counting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MissRecord {
    /// The task whose job missed.
    pub task: TaskId,
    /// The job's release instant.
    pub release: Time,
    /// The missed absolute deadline.
    pub deadline: Time,
    /// The task's criticality.
    pub criticality: Criticality,
}

impl fmt::Display for MissRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}) released {} missed deadline {}",
            self.task, self.criticality, self.release, self.deadline
        )
    }
}

/// One event in a simulation trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum TraceEvent {
    /// A job was released.
    Release {
        /// Instant.
        at: Time,
        /// Releasing task.
        task: TaskId,
    },
    /// A job signalled completion.
    Complete {
        /// Instant.
        at: Time,
        /// Completing task.
        task: TaskId,
    },
    /// A HC job exhausted `C^L` without signalling: the processor switched
    /// to high mode.
    ModeSwitch {
        /// Instant.
        at: Time,
        /// The overrunning task.
        task: TaskId,
    },
    /// The processor idled and returned to low mode.
    ModeReset {
        /// Instant.
        at: Time,
    },
    /// An LC job was discarded at a mode switch (or its release was
    /// suppressed during high mode).
    Drop {
        /// Instant.
        at: Time,
        /// Dropped task.
        task: TaskId,
    },
    /// A required deadline was missed.
    Miss(MissRecord),
}

impl TraceEvent {
    /// The instant the event occurred.
    pub fn at(&self) -> Time {
        match *self {
            TraceEvent::Release { at, .. }
            | TraceEvent::Complete { at, .. }
            | TraceEvent::ModeSwitch { at, .. }
            | TraceEvent::ModeReset { at }
            | TraceEvent::Drop { at, .. } => at,
            TraceEvent::Miss(m) => m.deadline,
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Release { at, task } => write!(f, "[{at:>6}] release  {task}"),
            TraceEvent::Complete { at, task } => write!(f, "[{at:>6}] complete {task}"),
            TraceEvent::ModeSwitch { at, task } => {
                write!(f, "[{at:>6}] MODE SWITCH (overrun by {task})")
            }
            TraceEvent::ModeReset { at } => write!(f, "[{at:>6}] mode reset (idle)"),
            TraceEvent::Drop { at, task } => write!(f, "[{at:>6}] drop     {task}"),
            TraceEvent::Miss(m) => write!(f, "[{:>6}] MISS     {m}", m.deadline),
        }
    }
}

/// Aggregate outcome of one simulation run.
#[derive(Debug, Clone, PartialEq, Default, Serialize)]
pub struct SimReport {
    misses: Vec<MissRecord>,
    trace: Vec<TraceEvent>,
    mode_switches: u32,
    mode_resets: u32,
    released: u64,
    completed: u64,
    dropped: u64,
    horizon: Time,
}

impl SimReport {
    pub(crate) fn new(horizon: Time) -> Self {
        SimReport {
            horizon,
            ..SimReport::default()
        }
    }

    pub(crate) fn push_event(&mut self, record_trace: bool, ev: TraceEvent) {
        match ev {
            TraceEvent::Release { .. } => self.released += 1,
            TraceEvent::Complete { .. } => self.completed += 1,
            TraceEvent::ModeSwitch { .. } => self.mode_switches += 1,
            TraceEvent::ModeReset { .. } => self.mode_resets += 1,
            TraceEvent::Drop { .. } => self.dropped += 1,
            TraceEvent::Miss(m) => self.misses.push(m),
        }
        if record_trace {
            self.trace.push(ev);
        }
    }

    /// `true` iff no required deadline was missed.
    pub fn is_success(&self) -> bool {
        self.misses.is_empty()
    }

    /// The recorded misses.
    pub fn misses(&self) -> &[MissRecord] {
        &self.misses
    }

    /// The event trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &[TraceEvent] {
        &self.trace
    }

    /// Number of low→high mode switches.
    pub fn mode_switches(&self) -> u32 {
        self.mode_switches
    }

    /// Number of high→low resets (idle instants).
    pub fn mode_resets(&self) -> u32 {
        self.mode_resets
    }

    /// Jobs released (LC releases suppressed in high mode are *not*
    /// counted here; they appear as drops).
    pub fn released(&self) -> u64 {
        self.released
    }

    /// Jobs that signalled completion.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// LC jobs discarded at switches plus LC releases suppressed during
    /// high mode.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The simulated horizon.
    pub fn horizon(&self) -> Time {
        self.horizon
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "horizon={} released={} completed={} dropped={} switches={} resets={} misses={}",
            self.horizon,
            self.released,
            self.completed,
            self.dropped,
            self.mode_switches,
            self.mode_resets,
            self.misses.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_accounting() {
        let mut r = SimReport::new(Time::new(100));
        r.push_event(
            true,
            TraceEvent::Release {
                at: Time::new(0),
                task: TaskId(0),
            },
        );
        r.push_event(
            true,
            TraceEvent::Complete {
                at: Time::new(5),
                task: TaskId(0),
            },
        );
        r.push_event(
            true,
            TraceEvent::ModeSwitch {
                at: Time::new(7),
                task: TaskId(0),
            },
        );
        r.push_event(true, TraceEvent::ModeReset { at: Time::new(9) });
        r.push_event(
            true,
            TraceEvent::Drop {
                at: Time::new(7),
                task: TaskId(1),
            },
        );
        assert_eq!(r.released(), 1);
        assert_eq!(r.completed(), 1);
        assert_eq!(r.mode_switches(), 1);
        assert_eq!(r.mode_resets(), 1);
        assert_eq!(r.dropped(), 1);
        assert_eq!(r.trace().len(), 5);
        assert!(r.is_success());
    }

    #[test]
    fn misses_fail_the_run() {
        let mut r = SimReport::new(Time::new(10));
        let miss = MissRecord {
            task: TaskId(2),
            release: Time::new(0),
            deadline: Time::new(8),
            criticality: Criticality::High,
        };
        r.push_event(false, TraceEvent::Miss(miss));
        assert!(!r.is_success());
        assert_eq!(r.misses(), &[miss]);
        assert!(r.trace().is_empty(), "tracing disabled");
    }

    #[test]
    fn displays() {
        let miss = MissRecord {
            task: TaskId(1),
            release: Time::new(3),
            deadline: Time::new(13),
            criticality: Criticality::Low,
        };
        assert!(miss.to_string().contains("τ1"));
        assert!(TraceEvent::Miss(miss).to_string().contains("MISS"));
        assert!(TraceEvent::ModeReset { at: Time::new(4) }
            .to_string()
            .contains("reset"));
        let r = SimReport::new(Time::new(9));
        assert!(r.to_string().contains("horizon=9"));
        assert_eq!(
            TraceEvent::Miss(miss).at(),
            Time::new(13),
            "miss events sort by deadline"
        );
    }
}
