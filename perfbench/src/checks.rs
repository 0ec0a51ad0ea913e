//! Operation accounting: every iteration and every correctness check is
//! one attempted operation, and every daemon error, timeout or failed
//! check is one failed operation.

use fleet::FleetReport;

use crate::workload::Workload;

/// The correctness checks a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Every iteration's report is byte-identical to the first one's.
    Repeat,
    /// The daemon's report equals a bare `Fleet::run` of the same
    /// configuration, both rendered through `chronosd::render`.
    DaemonVsBare,
    /// `restore(checkpoint)` run to the horizon equals the uninterrupted
    /// run (traced run only).
    Restore,
    /// `secure_36k` at one thread equals two threads (traced run only).
    Threads,
    /// The scenario anchors the e14/e17/e18 bench targets assert.
    Anchors,
}

impl Check {
    /// Every check.
    pub const ALL: [Check; 5] = [
        Check::Repeat,
        Check::DaemonVsBare,
        Check::Restore,
        Check::Threads,
        Check::Anchors,
    ];

    /// The `--corrupt` name.
    pub fn name(self) -> &'static str {
        match self {
            Check::Repeat => "repeat",
            Check::DaemonVsBare => "daemon-vs-bare",
            Check::Restore => "restore",
            Check::Threads => "threads",
            Check::Anchors => "anchors",
        }
    }

    /// Parses a `--corrupt` name.
    pub fn parse(name: &str) -> Option<Check> {
        Check::ALL.into_iter().find(|c| c.name() == name)
    }
}

/// Attempted and failed operations of one run, with a note per failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// One line per failure, for the human-readable output.
    pub failures: Vec<String>,
    /// Self-test: the check whose input is deliberately corrupted, to
    /// show that its failure is detected and counted.
    pub corrupt: Option<Check>,
}

impl Tally {
    /// Counts one operation that succeeded when `ok`.
    pub fn op(&mut self, what: &str, ok: bool) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
        ok
    }

    /// Counts one operation that failed with `error`.
    pub fn error(&mut self, what: &str, error: &str) {
        self.op(&format!("{what}: {error}"), false);
    }

    /// Counts one `check` that `got` is byte-identical to `expected`.
    pub fn same_bytes(&mut self, check: Check, expected: &str, got: &str) -> bool {
        let ok = expected == got && self.corrupt != Some(check);
        self.op(&format!("check {}: reports differ", check.name()), ok)
    }

    /// Counts one check per semantic anchor of `workload` on `report`.
    pub fn anchors(&mut self, workload: Workload, report: &FleetReport) -> bool {
        let stalled;
        let report = if self.corrupt == Some(Check::Anchors) {
            stalled = FleetReport {
                events: 0,
                ..report.clone()
            };
            &stalled
        } else {
            report
        };
        let mut all = true;
        for (name, holds) in workload.anchors(report) {
            all &= self.op(&format!("check anchors: {name}"), holds);
        }
        all
    }

    /// Failed over attempted operations.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// True when no operation failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::Fleet;

    #[test]
    fn byte_mismatch_is_a_failed_operation() {
        let mut t = Tally::default();
        assert!(t.same_bytes(Check::Repeat, "{\"a\":1}", "{\"a\":1}"));
        assert!(!t.same_bytes(Check::Restore, "{\"a\":1}", "{\"a\":2}"));
        assert_eq!((t.attempted, t.failed), (2, 1));
        assert!(!t.correct());
        assert_eq!(t.error_rate(), 0.5);
        assert_eq!(
            t.failures,
            vec!["check restore: reports differ".to_string()]
        );
    }

    #[test]
    fn corrupting_a_check_fails_only_that_check() {
        for check in Check::ALL.into_iter().filter(|c| *c != Check::Anchors) {
            let mut t = Tally {
                corrupt: Some(check),
                ..Tally::default()
            };
            for other in Check::ALL.into_iter().filter(|c| *c != Check::Anchors) {
                assert_eq!(t.same_bytes(other, "x", "x"), other != check);
            }
            assert_eq!(t.failed, 1);
        }
    }

    #[test]
    fn daemon_errors_count_as_failures() {
        let mut t = Tally::default();
        t.error("submit", "daemon error: job \"a\" already exists");
        assert_eq!((t.attempted, t.failed), (1, 1));
        assert!(t.failures[0].starts_with("submit: daemon error"));
    }

    #[test]
    fn an_empty_tally_is_not_correct() {
        assert!(!Tally::default().correct());
    }

    #[test]
    fn check_names_round_trip() {
        for check in Check::ALL {
            assert_eq!(Check::parse(check.name()), Some(check));
        }
        assert_eq!(Check::parse("nothing"), None);
    }

    #[test]
    fn unstepped_fleets_fail_every_anchor() {
        for w in Workload::ALL {
            let report = Fleet::new(w.config(3, 64)).report();
            let mut t = Tally::default();
            assert!(!t.anchors(w, &report), "{}", w.name());
            assert_eq!(t.failed, t.attempted, "{}", w.name());
            assert!(t.attempted >= 2);
        }
    }
}
