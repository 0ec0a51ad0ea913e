//! The three workloads: what each one builds from the seed, and the
//! semantic anchors its report must satisfy.

use chronos_pitfalls::experiments::{e14_config, e17_config, e18_config};
use chronosd::Json;
use fleet::{FleetAttack, FleetConfig, FleetReport};
use netsim::time::{SimDuration, SimTime};

/// Resolver caches in the secure and daemon workloads.
pub const RESOLVERS: usize = 4;
/// Per-sample NTP loss and DNS SERVFAIL probability of the daemon job.
pub const LOSS: f64 = 0.15;
/// Daemon job slice length, simulated seconds.
pub const SLICE_S: u64 = 60;
/// Simulated second at which the daemon job parks for checkpointing.
pub const PAUSE_AT_S: u64 = 3_000;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's headline case: one poisoned resolver, plain Chronos.
    Chronos100k,
    /// All-NTS-plus-Roughtime fleet behind four poisoned resolvers,
    /// stepped on the sharded parallel path.
    Secure36k,
    /// An E17 fault-lane fleet run as a daemon job, paused, checkpointed
    /// and resumed as a new job.
    DaemonResume36k,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::Chronos100k,
        Workload::Secure36k,
        Workload::DaemonResume36k,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Chronos100k => "chronos_100k",
            Workload::Secure36k => "secure_36k",
            Workload::DaemonResume36k => "daemon_resume_36k",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fleet size the workload is named for.
    pub fn default_clients(self) -> usize {
        match self {
            Workload::Chronos100k => 100_000,
            Workload::Secure36k | Workload::DaemonResume36k => 36_000,
        }
    }

    /// Whether the workload goes through `chronosd`.
    pub fn uses_daemon(self) -> bool {
        self == Workload::DaemonResume36k
    }

    /// The fleet configuration the workload steps. For the daemon
    /// workload this is the configuration the daemon builds from
    /// [`Workload::daemon_spec`], i.e. the bare-run twin of the job.
    pub fn config(self, seed: u64, clients: usize) -> FleetConfig {
        match self {
            Workload::Chronos100k => {
                let attack = FleetAttack::paper_default(
                    SimTime::from_secs(400),
                    SimDuration::from_millis(500),
                );
                FleetConfig {
                    threads: 1,
                    ..e14_config(seed, clients, Some(attack))
                }
            }
            Workload::Secure36k => FleetConfig {
                threads: 2,
                ..e18_config(seed, clients, RESOLVERS, 1.0, RESOLVERS)
            },
            Workload::DaemonResume36k => FleetConfig {
                threads: 1,
                ..e17_config(seed, clients, RESOLVERS, LOSS, RESOLVERS)
            },
        }
    }

    /// The `e17-fleet` submit spec of the daemon workload.
    pub fn daemon_spec(seed: u64, clients: usize) -> Json {
        Json::Obj(vec![
            ("kind".into(), Json::str("e17-fleet")),
            ("seed".into(), Json::u64(seed)),
            ("clients".into(), Json::usize(clients)),
            ("resolvers".into(), Json::usize(RESOLVERS)),
            ("loss".into(), Json::f64(LOSS)),
            ("outage_coverage".into(), Json::usize(RESOLVERS)),
            ("threads".into(), Json::usize(1)),
            ("slice_s".into(), Json::u64(SLICE_S)),
            ("pause_at_s".into(), Json::u64(PAUSE_AT_S)),
        ])
    }

    /// The semantic anchors the repository's e14/e17/e18 bench targets
    /// assert for this scenario, as `(name, holds)` pairs.
    pub fn anchors(self, report: &FleetReport) -> Vec<(&'static str, bool)> {
        let tier = |label: &str| report.tiers.iter().find(|t| t.label == label);
        let mut anchors = vec![("events stepped", report.events > 0)];
        match self {
            Workload::Chronos100k => {
                anchors.push((
                    "final shifted fraction > 0.9",
                    report.final_shifted_fraction > 0.9,
                ));
            }
            Workload::Secure36k => {
                anchors.push(("secure tiers re-key", report.secure.rekeys > 0));
                let captures =
                    |label| tier(label).is_some_and(|t| t.secure.captured_associations > 0);
                anchors.push(("NTS tier captures associations", captures("nts")));
                anchors.push((
                    "Roughtime tier captures associations",
                    captures("roughtime"),
                ));
            }
            Workload::DaemonResume36k => {
                anchors.push(("loss drops NTP samples", report.faults.ntp_losses > 0));
                anchors.push(("loss starves rounds into panics", report.totals.panics > 0));
                anchors.push(("boot outage forces retries", report.faults.boot_retries > 0));
            }
        }
        anchors
    }
}
