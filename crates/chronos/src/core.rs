//! The Chronos stepping state machine, detached from the network.
//!
//! [`crate::client::ChronosClient`] couples three things: a netsim `Node`
//! (packet I/O, timers), the DNS/NTP exchanges, and the *decision state
//! machine* of the NDSS'18 paper — phases, retry accounting, the drift
//! envelope, and the accept/reject/panic transitions around
//! [`crate::select`]. This module is that third piece alone, operating on
//! **borrowed state** so callers choose the memory layout:
//!
//! * the packet-level client keeps one [`Phase`]/[`ChronosStats`]/retry
//!   counter per node and borrows them per round;
//! * the population engine (`fleet` crate) keeps struct-of-arrays columns
//!   for millions of clients and borrows one lane at a time — no `Node`,
//!   no `IpStack`, no per-client allocation.
//!
//! The functions here are the *entire* shared logic: a round concluded via
//! [`conclude_sample_round`] / [`conclude_panic_round`] updates phase,
//! retries, stats and the envelope anchor exactly the way the packet-level
//! client always did (the client now delegates to them), so the two
//! implementations cannot drift apart.
//!
//! The same borrowed-state idea covers the *other* client kind the paper
//! compares against: [`conclude_plain_round`] is the plain-NTP analogue,
//! delegating to [`ntplab::combine::ntpd_pipeline_with`] — the exact
//! intersection → cluster → combine code the packet-level
//! [`ntplab::plain::PlainNtpClient`] runs — so a heterogeneous fleet's two
//! client kinds share one decision API (this module) and one
//! implementation per kind (this crate's selection, `ntplab`'s pipeline).
//!
//! # Examples
//!
//! Stepping one Chronos sample round over borrowed state — the exact call
//! both the packet-level client and a fleet's struct-of-arrays lane make:
//!
//! ```
//! use chronos::config::ChronosConfig;
//! use chronos::core::{conclude_sample_round, ChronosStats, CoreState, Phase, RoundOutcome};
//! use chronos::select::SelectScratch;
//! use netsim::time::SimTime;
//!
//! let config = ChronosConfig::default();
//! // The borrowed per-client state: one SoA lane or one client's fields.
//! let (mut phase, mut retries) = (Phase::Syncing, 0u32);
//! let (mut last_update, mut stats) = (None, ChronosStats::default());
//! let mut scratch = SelectScratch::new();
//!
//! // Fifteen servers agreeing on a +2 ms offset: the round accepts and
//! // anchors the drift envelope at `now`.
//! let offsets_ns = vec![2_000_000i64; 15];
//! let now = SimTime::from_secs(100);
//! let outcome = conclude_sample_round(
//!     &config,
//!     &mut CoreState {
//!         phase: &mut phase,
//!         retries: &mut retries,
//!         last_update: &mut last_update,
//!         stats: &mut stats,
//!     },
//!     &mut scratch,
//!     &offsets_ns,
//!     now,
//! );
//! assert!(matches!(outcome, RoundOutcome::Accept { correction_ns: 2_000_000, .. }));
//! assert_eq!(last_update, Some(now));
//! assert_eq!(stats.accepts, 1);
//! ```

use crate::config::ChronosConfig;
use crate::select::{chronos_select_with, panic_select_with, ChronosDecision, SelectScratch};
use netsim::time::SimTime;
use ntplab::combine::{ntpd_pipeline_with, PipelineOutcome, PipelineScratch};
use ntplab::select::PeerSample;
use std::net::Ipv4Addr;

/// Lifecycle phase of a Chronos client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Gathering the server pool via DNS (paper: 24 hourly queries).
    PoolGeneration,
    /// Normal operation: sample, select, update.
    Syncing,
    /// Querying the entire pool after K rejected samples.
    Panic,
}

/// Counters describing client activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChronosStats {
    /// Pool-generation DNS queries sent.
    pub pool_queries: u64,
    /// Pool rounds that ended in timeout/SERVFAIL.
    pub pool_failures: u64,
    /// Sample rounds started.
    pub polls: u64,
    /// Accepted updates.
    pub accepts: u64,
    /// Rejected sample rounds (disagreement/envelope/too-few).
    pub rejects: u64,
    /// Panic-mode episodes.
    pub panics: u64,
}

impl ChronosStats {
    /// Element-wise sum, for fleet-level aggregation.
    pub fn accumulate(&mut self, other: &ChronosStats) {
        self.pool_queries += other.pool_queries;
        self.pool_failures += other.pool_failures;
        self.polls += other.polls;
        self.accepts += other.accepts;
        self.rejects += other.rejects;
        self.panics += other.panics;
    }
}

/// The per-client decision state a stepping call borrows: one lane of a
/// struct-of-arrays fleet, or the owned fields of a packet-level client.
#[derive(Debug)]
pub struct CoreState<'a> {
    /// Lifecycle phase (mutated on panic entry/exit).
    pub phase: &'a mut Phase,
    /// Consecutive rejected rounds (K counter).
    pub retries: &'a mut u32,
    /// When the clock last accepted a correction (envelope anchor).
    pub last_update: &'a mut Option<SimTime>,
    /// Activity counters.
    pub stats: &'a mut ChronosStats,
}

/// What the caller must do after a concluded sample round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundOutcome {
    /// Apply `correction_ns` to the clock and poll again next interval.
    Accept {
        /// The accepted correction (survivors' mean offset, ns).
        correction_ns: i64,
        /// Number of surviving samples averaged.
        survivors: usize,
    },
    /// Resample immediately with fresh randomness.
    Resample,
    /// K rejections reached: query the whole pool (phase is already
    /// [`Phase::Panic`] and the episode is counted).
    EnterPanic,
}

/// The drift envelope `ERR + drift·Δt` at `now`, in nanoseconds.
///
/// A cold client (`last_update == None`) is unconstrained: the first
/// accepted correction may be arbitrarily large.
pub fn envelope_ns(config: &ChronosConfig, last_update: Option<SimTime>, now: SimTime) -> i64 {
    match last_update {
        None => i64::MAX, // cold start: first update is unconstrained
        Some(at) => {
            let dt = now.duration_since(at);
            config.err.as_nanos() as i64 + (dt.as_nanos() as f64 * config.drift_ppm / 1e6) as i64
        }
    }
}

/// Concludes one sample round over the raw offsets (ns, relative to the
/// local clock): runs selection, updates retries/stats/phase/envelope
/// anchor, and tells the caller what to do next.
///
/// On [`RoundOutcome::Accept`] the caller applies the correction to its
/// clock; on [`RoundOutcome::EnterPanic`] the phase has already moved to
/// [`Phase::Panic`] and the panic episode is counted — the caller queries
/// the whole pool and later calls [`conclude_panic_round`].
///
/// Lossy-round contract: callers that model packet loss (the fleet's
/// fault-injection lanes) hand in only the *surviving* subset of a
/// round's samples. A round starved below `2·trim + 1` survivors rejects
/// (`TooFewSamples` inside selection) like any other bad round — K such
/// rounds escalate into a genuine panic episode, so availability faults
/// exercise the exact panic machinery the paper's attack does.
pub fn conclude_sample_round(
    config: &ChronosConfig,
    state: &mut CoreState<'_>,
    scratch: &mut SelectScratch,
    offsets_ns: &[i64],
    now: SimTime,
) -> RoundOutcome {
    let envelope = envelope_ns(config, *state.last_update, now);
    let decision = chronos_select_with(
        scratch,
        offsets_ns,
        config.trim,
        config.omega.as_nanos() as i64,
        envelope,
    );
    match decision {
        ChronosDecision::Accept {
            correction_ns,
            survivors,
        } => {
            *state.last_update = Some(now);
            *state.retries = 0;
            state.stats.accepts += 1;
            RoundOutcome::Accept {
                correction_ns,
                survivors,
            }
        }
        ChronosDecision::Reject(_) => {
            state.stats.rejects += 1;
            *state.retries += 1;
            if *state.retries >= config.max_retries {
                *state.phase = Phase::Panic;
                state.stats.panics += 1;
                RoundOutcome::EnterPanic
            } else {
                RoundOutcome::Resample
            }
        }
    }
}

/// Concludes a panic round over the whole pool's offsets: returns the
/// correction to apply (if any samples arrived), re-anchors the envelope,
/// clears the retry counter and returns the phase to [`Phase::Syncing`].
pub fn conclude_panic_round(
    state: &mut CoreState<'_>,
    scratch: &mut SelectScratch,
    offsets_ns: &[i64],
    now: SimTime,
) -> Option<i64> {
    let correction = panic_select_with(scratch, offsets_ns);
    if correction.is_some() {
        *state.last_update = Some(now);
    }
    *state.retries = 0;
    *state.phase = Phase::Syncing;
    correction
}

/// What a concluded plain-NTP poll round decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlainRoundOutcome {
    /// The pipeline found a majority clique: apply `correction_ns`.
    Correction {
        /// The combined correction (root-distance-weighted survivor mean).
        correction_ns: i64,
        /// Samples surviving intersection + clustering.
        survivors: usize,
    },
    /// No majority clique of truechimers: leave the clock alone.
    NoMajority,
    /// No samples arrived this round.
    NoSamples,
}

/// Concludes one plain-NTP poll round over raw offsets (ns, relative to
/// the local clock), updating the shared [`ChronosStats`] counters —
/// the borrowed-state plain analogue of [`conclude_sample_round`].
///
/// Delegates to [`ntplab::combine::ntpd_pipeline_with`] — the same
/// intersection → cluster → combine implementation the packet-level
/// [`ntplab::plain::PlainNtpClient`] runs — over synthetic
/// [`PeerSample`]s whose correctness-interval radius is the caller's
/// `root_distance_ns` (a mean-field path budget standing in for the
/// per-exchange δ/2 + ε a packet client measures; all samples share it,
/// so the combine weights are uniform and the correction is the survivor
/// mean). `scratch` is caller-owned: with a warm scratch the round
/// allocates nothing and sorts nothing — the intersection bounds come
/// from edge counts ([`ntplab::select`]), and the survivor filter and
/// clustering work in place on the scratch's sample vector.
///
/// Counter mapping onto the shared [`ChronosStats`]: a correction counts
/// as an *accept*, a no-majority round as a *reject* (the plain client's
/// `updates`/`no_majority` counters respectively); plain clients never
/// panic.
pub fn conclude_plain_round(
    stats: &mut ChronosStats,
    scratch: &mut PipelineScratch,
    offsets_ns: &[i64],
    root_distance_ns: i64,
) -> PlainRoundOutcome {
    let samples = offsets_ns.iter().map(|&offset_ns| PeerSample {
        server: Ipv4Addr::UNSPECIFIED,
        offset_ns,
        // root_distance = delay/2 + dispersion.
        delay_ns: 2 * root_distance_ns,
        dispersion_ns: 0,
    });
    match ntpd_pipeline_with(scratch, samples) {
        PipelineOutcome::Correction(c) => {
            stats.accepts += 1;
            PlainRoundOutcome::Correction {
                correction_ns: c.offset_ns,
                survivors: c.survivors,
            }
        }
        PipelineOutcome::NoMajority => {
            stats.rejects += 1;
            PlainRoundOutcome::NoMajority
        }
        PipelineOutcome::NoSamples => PlainRoundOutcome::NoSamples,
    }
}

/// What a concluded Roughtime cross-reference round decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoughtimeOutcome {
    /// A strict majority of source midpoints agreed within the agreement
    /// radius: apply their mean.
    Correction {
        /// Mean offset of the agreeing cluster (ns).
        correction_ns: i64,
        /// Number of sources inside the agreeing cluster.
        agreeing: usize,
    },
    /// No strict majority of sources agreed — the signed midpoints are
    /// mutually inconsistent evidence of misbehaviour (the cross-check
    /// Roughtime exists for). The clock is left alone and the caller
    /// should count a detected inconsistency.
    Inconsistent,
    /// No source responded this round.
    NoSamples,
}

/// Concludes one Roughtime fetch round by cross-referencing the signed
/// midpoints of M independently-resolved sources — the borrowed-state
/// Roughtime analogue of [`conclude_plain_round`].
///
/// The decision is majority-of-midpoints: the largest set of sources
/// whose offsets span at most `agreement_ns` wins if it is a *strict*
/// majority (`2·cluster > M`), and the correction is the cluster mean.
/// Anything short of a strict majority is a detected inconsistency — the
/// clock is not steered by evidence the sources themselves dispute.
///
/// With a single source (M = 1) the lone midpoint is trivially a strict
/// majority, so the lane degenerates to an unchecked single-server fetch
/// — exactly the ETH2-Medalla failure mode the redundancy exists to
/// rule out.
///
/// `offsets_ns` is sorted in place (caller-owned scratch). Counter
/// mapping: a correction counts as an *accept*, an inconsistent round as
/// a *reject*; Roughtime clients never panic.
pub fn conclude_roughtime_round(
    stats: &mut ChronosStats,
    offsets_ns: &mut [i64],
    agreement_ns: i64,
) -> RoughtimeOutcome {
    if offsets_ns.is_empty() {
        return RoughtimeOutcome::NoSamples;
    }
    offsets_ns.sort_unstable();
    let n = offsets_ns.len();
    // Largest window [i, j) with spread ≤ agreement_ns, earliest window
    // on ties (deterministic, and ties cannot both be strict majorities).
    let (mut best_start, mut best_len) = (0usize, 1usize);
    let mut start = 0usize;
    for end in 0..n {
        while offsets_ns[end] - offsets_ns[start] > agreement_ns {
            start += 1;
        }
        let len = end - start + 1;
        if len > best_len {
            (best_start, best_len) = (start, len);
        }
    }
    if 2 * best_len > n {
        let cluster = &offsets_ns[best_start..best_start + best_len];
        let sum: i128 = cluster.iter().map(|&o| i128::from(o)).sum();
        stats.accepts += 1;
        RoughtimeOutcome::Correction {
            correction_ns: (sum / best_len as i128) as i64,
            agreeing: best_len,
        }
    } else {
        stats.rejects += 1;
        RoughtimeOutcome::Inconsistent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::time::SimDuration;

    const MS: i64 = 1_000_000;

    fn state_tuple() -> (Phase, u32, Option<SimTime>, ChronosStats) {
        (Phase::Syncing, 0, None, ChronosStats::default())
    }

    #[test]
    fn cold_start_envelope_is_unbounded() {
        let cfg = ChronosConfig::default();
        assert_eq!(envelope_ns(&cfg, None, SimTime::from_secs(5)), i64::MAX);
        let anchored = envelope_ns(
            &cfg,
            Some(SimTime::ZERO),
            SimTime::ZERO + SimDuration::from_hours(1),
        );
        // ERR (100 ms) + 30 ppm over an hour (108 ms).
        assert_eq!(anchored, 100 * MS + 108 * MS);
    }

    #[test]
    fn accept_anchors_envelope_and_counts() {
        let cfg = ChronosConfig::default();
        let (mut phase, mut retries, mut last, mut stats) = state_tuple();
        let mut scratch = SelectScratch::new();
        let offsets = vec![2 * MS; 15];
        let now = SimTime::from_secs(100);
        let out = conclude_sample_round(
            &cfg,
            &mut CoreState {
                phase: &mut phase,
                retries: &mut retries,
                last_update: &mut last,
                stats: &mut stats,
            },
            &mut scratch,
            &offsets,
            now,
        );
        assert_eq!(
            out,
            RoundOutcome::Accept {
                correction_ns: 2 * MS,
                survivors: 5
            }
        );
        assert_eq!(last, Some(now));
        assert_eq!(stats.accepts, 1);
        assert_eq!(phase, Phase::Syncing);
    }

    #[test]
    fn k_rejections_enter_panic_and_panic_round_recovers() {
        let cfg = ChronosConfig {
            max_retries: 2,
            ..ChronosConfig::default()
        };
        let (mut phase, mut retries, _, mut stats) = state_tuple();
        let mut last = Some(SimTime::ZERO);
        let mut scratch = SelectScratch::new();
        // Agreeing but far outside the envelope: rejected every time.
        let offsets = vec![900 * MS; 15];
        let now = SimTime::from_secs(64);
        let mut st = CoreState {
            phase: &mut phase,
            retries: &mut retries,
            last_update: &mut last,
            stats: &mut stats,
        };
        assert_eq!(
            conclude_sample_round(&cfg, &mut st, &mut scratch, &offsets, now),
            RoundOutcome::Resample
        );
        assert_eq!(
            conclude_sample_round(&cfg, &mut st, &mut scratch, &offsets, now),
            RoundOutcome::EnterPanic
        );
        assert_eq!(*st.phase, Phase::Panic);
        assert_eq!(st.stats.panics, 1);
        assert_eq!(st.stats.rejects, 2);
        // Panic over a fully shifted pool drags the clock and resyncs.
        let pool = vec![500 * MS; 90];
        let correction = conclude_panic_round(&mut st, &mut scratch, &pool, now);
        assert_eq!(correction, Some(500 * MS));
        assert_eq!(*st.phase, Phase::Syncing);
        assert_eq!(*st.retries, 0);
        assert_eq!(*st.last_update, Some(now));
    }

    /// The lossy-round contract the fleet's fault lanes lean on: a round
    /// whose surviving sample subset is starved below `2·trim + 1` (here:
    /// emptied entirely) rejects, and K starved rounds enter panic — loss
    /// drives the same escalation path as a disagreeing pool.
    #[test]
    fn starved_rounds_reject_until_panic() {
        let cfg = ChronosConfig {
            max_retries: 2,
            ..ChronosConfig::default()
        };
        let (mut phase, mut retries, mut last, mut stats) = state_tuple();
        let mut scratch = SelectScratch::new();
        let now = SimTime::from_secs(64);
        let mut st = CoreState {
            phase: &mut phase,
            retries: &mut retries,
            last_update: &mut last,
            stats: &mut stats,
        };
        assert_eq!(
            conclude_sample_round(&cfg, &mut st, &mut scratch, &[], now),
            RoundOutcome::Resample,
            "an empty round is a reject, not a no-op"
        );
        assert_eq!(
            conclude_sample_round(&cfg, &mut st, &mut scratch, &[2 * MS], now),
            RoundOutcome::EnterPanic,
            "one survivor is still below 2·trim + 1"
        );
        assert_eq!(*st.phase, Phase::Panic);
        assert_eq!(st.stats.rejects, 2);
        assert_eq!(st.stats.panics, 1);
        assert_eq!(st.stats.accepts, 0);
    }

    #[test]
    fn empty_panic_round_still_resyncs_without_anchor() {
        let (_, _, mut last, mut stats) = state_tuple();
        let mut phase = Phase::Panic;
        let mut retries = 3;
        let mut scratch = SelectScratch::new();
        let mut st = CoreState {
            phase: &mut phase,
            retries: &mut retries,
            last_update: &mut last,
            stats: &mut stats,
        };
        assert_eq!(
            conclude_panic_round(&mut st, &mut scratch, &[], SimTime::from_secs(9)),
            None
        );
        assert_eq!(*st.phase, Phase::Syncing);
        assert_eq!(*st.retries, 0);
        assert_eq!(*st.last_update, None, "no samples, no envelope anchor");
    }

    #[test]
    fn plain_round_follows_an_agreeing_pool_and_counts_accepts() {
        let mut stats = ChronosStats::default();
        let mut scratch = PipelineScratch::new();
        // Four servers agreeing on +500 ms (the unanimous-liar case the
        // packet-level PlainNtpClient test pins): combined correction is
        // the survivor mean, counted as an accept.
        let out = conclude_plain_round(&mut stats, &mut scratch, &[500 * MS; 4], 3 * MS);
        assert_eq!(
            out,
            PlainRoundOutcome::Correction {
                correction_ns: 500 * MS,
                survivors: 4
            }
        );
        assert_eq!(stats.accepts, 1);
        assert_eq!(stats.rejects, 0);
    }

    #[test]
    fn plain_round_with_no_majority_counts_a_reject() {
        let mut stats = ChronosStats::default();
        let mut scratch = PipelineScratch::new();
        // Four servers scattered far beyond the correctness radius: no
        // clique of 3 intervals shares a point.
        let offsets = [-300 * MS, -100 * MS, 100 * MS, 300 * MS];
        let out = conclude_plain_round(&mut stats, &mut scratch, &offsets, MS);
        assert_eq!(out, PlainRoundOutcome::NoMajority);
        assert_eq!(stats.rejects, 1);
        assert_eq!(stats.accepts, 0);
    }

    #[test]
    fn plain_round_with_no_samples_is_a_no_op() {
        let mut stats = ChronosStats::default();
        let mut scratch = PipelineScratch::new();
        assert_eq!(
            conclude_plain_round(&mut stats, &mut scratch, &[], MS),
            PlainRoundOutcome::NoSamples
        );
        assert_eq!(stats, ChronosStats::default());
    }

    #[test]
    fn roughtime_majority_accepts_the_cluster_mean() {
        let mut stats = ChronosStats::default();
        // Two honest sources agree near zero; one captured source claims
        // +500 ms. 2-of-3 is a strict majority → mean of the agreeing pair.
        let mut offsets = [2 * MS, 500 * MS, -2 * MS];
        let out = conclude_roughtime_round(&mut stats, &mut offsets, 10 * MS);
        assert_eq!(
            out,
            RoughtimeOutcome::Correction {
                correction_ns: 0,
                agreeing: 2
            }
        );
        assert_eq!(stats.accepts, 1);
        assert_eq!(stats.rejects, 0);
    }

    #[test]
    fn roughtime_split_sources_are_a_detected_inconsistency() {
        let mut stats = ChronosStats::default();
        // A 1-vs-1 split is not a strict majority: the signed midpoints
        // contradict each other and the clock must not move.
        let mut offsets = [0, 500 * MS];
        assert_eq!(
            conclude_roughtime_round(&mut stats, &mut offsets, 10 * MS),
            RoughtimeOutcome::Inconsistent
        );
        assert_eq!(stats.rejects, 1);
        // 2-vs-2 likewise (largest window is half, not a majority).
        let mut offsets = [0, MS, 500 * MS, 501 * MS];
        assert_eq!(
            conclude_roughtime_round(&mut stats, &mut offsets, 10 * MS),
            RoughtimeOutcome::Inconsistent
        );
        assert_eq!(stats.rejects, 2);
    }

    #[test]
    fn roughtime_single_source_degenerates_to_unchecked_fetch() {
        let mut stats = ChronosStats::default();
        // M = 1 (Medalla): the lone midpoint is trivially a strict
        // majority — nothing cross-checks it.
        let mut offsets = [500 * MS];
        assert_eq!(
            conclude_roughtime_round(&mut stats, &mut offsets, 10 * MS),
            RoughtimeOutcome::Correction {
                correction_ns: 500 * MS,
                agreeing: 1
            }
        );
        assert_eq!(stats.accepts, 1);
    }

    #[test]
    fn roughtime_empty_round_is_a_no_op() {
        let mut stats = ChronosStats::default();
        assert_eq!(
            conclude_roughtime_round(&mut stats, &mut [], 10 * MS),
            RoughtimeOutcome::NoSamples
        );
        assert_eq!(stats, ChronosStats::default());
    }

    #[test]
    fn stats_accumulate() {
        let mut a = ChronosStats {
            polls: 1,
            accepts: 1,
            ..ChronosStats::default()
        };
        let b = ChronosStats {
            polls: 2,
            rejects: 3,
            panics: 1,
            pool_queries: 4,
            pool_failures: 1,
            accepts: 0,
        };
        a.accumulate(&b);
        assert_eq!(a.polls, 3);
        assert_eq!(a.rejects, 3);
        assert_eq!(a.accepts, 1);
        assert_eq!(a.pool_queries, 4);
        assert_eq!(a.pool_failures, 1);
        assert_eq!(a.panics, 1);
    }
}
