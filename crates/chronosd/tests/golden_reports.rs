//! Golden report digests: pins the exact bytes of
//! [`chronosd::render::report_json`] for three ~2 000-client fleets that
//! between them cover every poll lane (Chronos pool rounds and selection,
//! plain NTP, panic rounds, boot retries, serve-stale, NTS and Roughtime).
//!
//! The digests are FNV-1a-64 over the rendered JSON line. A kernel change
//! that is meant to be a pure speed-up (same draws, same decisions) must
//! leave all three unchanged; a change that moves any byte of any report
//! fails here. A change that is *meant* to alter results updates the
//! constants and says so in its change log.

use chronos_pitfalls::experiments::{e14_config, e17_config, e18_config};
use chronosd::render::report_json;
use fleet::{Fleet, FleetAttack, FleetConfig};
use netsim::time::{SimDuration, SimTime};

const SEED: u64 = 11;
const CLIENTS: usize = 2_000;
const RESOLVERS: usize = 4;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(config: FleetConfig) -> u64 {
    let report = Fleet::new(config).run();
    fnv1a64(report_json(&report).render().as_bytes())
}

/// The paper's headline case: one shared resolver, the 89-server farm
/// poisoned at 400 s, Chronos pool rounds and selection throughout.
#[test]
fn chronos_paper_default_report_is_pinned() {
    let attack = FleetAttack::paper_default(SimTime::from_secs(400), SimDuration::from_millis(500));
    let config = e14_config(SEED, CLIENTS, Some(attack));
    assert_eq!(
        digest(config),
        0x6366_8e2a_f1ff_9338,
        "e14 report bytes changed"
    );
}

/// The fault plan: sample loss, SERVFAIL, outages on every resolver with
/// serve-stale, plain-NTP boot retries and Chronos panic rounds.
#[test]
fn fault_lanes_report_is_pinned() {
    let config = e17_config(SEED, CLIENTS, RESOLVERS, 0.15, RESOLVERS);
    assert_eq!(
        digest(config),
        0x23a7_1244_805d_a618,
        "e17 report bytes changed"
    );
}

/// Full secure deployment: NTS re-keys and Roughtime majority rounds
/// behind four poisoned resolver timelines.
#[test]
fn secure_tiers_report_is_pinned() {
    let config = e18_config(SEED, CLIENTS, RESOLVERS, 1.0, RESOLVERS);
    assert_eq!(
        digest(config),
        0x449f_7424_8e4c_1db5,
        "e18 report bytes changed"
    );
}
