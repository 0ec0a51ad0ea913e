//! The fleet's resolver-cache model — one instance per resolver.
//!
//! Mirrors the `dnslab` semantics the packet-level scenarios exercise,
//! reduced to what pool composition depends on:
//!
//! * the benign zone rotates `per_response` addresses per *upstream fetch*
//!   (cf. [`dnslab::zone::Rotation`]), and the recursive resolver caches
//!   each fetched batch for the record TTL (150 s for pool.ntp.org) — so
//!   clients querying inside one TTL window all see the *same* batch;
//! * a poisoned entry (however it got there) freezes the cache for its
//!   attacker-chosen TTL: every query in `[at, at + ttl)` returns the
//!   malicious record set.
//!
//! Answers are batch *identities*, not addresses: batch `b` stands for the
//! rotation slice `addrs[b·k mod U .. b·k+k mod U]`, and since the engine
//! only needs pool composition (which servers lie) the identity is enough.
//!
//! # Multiple resolvers
//!
//! A fleet runs `R` **independent** resolvers
//! ([`crate::config::FleetConfig::resolvers`]); clients hash onto them via
//! [`crate::cohort::resolver_of`]. Each resolver is its own
//! [`ResolverModel`] built by [`ResolverModel::for_resolver`]:
//!
//! * resolver 0 is the *legacy* resolver — rotation phase 0 and exactly
//!   the configured benign TTL, so an `R = 1` fleet reproduces the
//!   single-resolver engine byte for byte;
//! * resolvers `1..R` draw a rotation phase and a benign-TTL perturbation
//!   (0.5–1.5× the configured TTL, whole seconds) from a per-resolver RNG
//!   stream keyed by `(fleet seed, resolver id)` — real resolver caches
//!   are not in lockstep, and the diversity is what partial poisoning
//!   experiments measure against;
//! * a resolver is **poisoned** only when the attack's
//!   [`poisoned_resolvers`](crate::config::FleetAttack::poisoned_resolvers)
//!   subset covers its id — the knob behind fraction-of-resolvers-poisoned
//!   sweeps (E16).
//!
//! # Examples
//!
//! The deterministic pre-pass that unlocks intra-fleet parallelism:
//! pool-query times are static, so the cache's full answer timeline
//! replays up front and is then read immutably — and therefore
//! concurrently — by every shard:
//!
//! ```
//! use fleet::config::FleetConfig;
//! use fleet::resolver::{DnsAnswer, QuerySchedule, ResolverModel};
//!
//! let model = ResolverModel::new(&FleetConfig::default());
//! // Two clients: one boots at t=0 and queries 3 times, 200 s apart; a
//! // plain-NTP straggler boots at t=10 s and queries exactly once.
//! let schedules = [
//!     QuerySchedule { start_ns: 0, interval_ns: 200_000_000_000, rounds: 3 },
//!     QuerySchedule { start_ns: 10_000_000_000, interval_ns: 0, rounds: 1 },
//! ];
//! let timeline = model.timeline(&schedules);
//! // Both early queries fall inside one 150 s TTL window: same batch.
//! assert_eq!(timeline.answer(0), timeline.answer(10_000_000_000));
//! // The second Chronos round refetched: the rotation moved on.
//! assert!(matches!(timeline.answer(200_000_000_000), DnsAnswer::Benign { batch: 1, .. }));
//! assert_eq!(timeline.fetches(), 3);
//! ```

use crate::config::FleetConfig;
use crate::rng::{client_seed, FleetRng};

/// Salt folded into the fleet seed before deriving a resolver's rotation
/// phase and TTL perturbation, so resolver diversity draws are
/// decorrelated from client streams and the resolver *assignment* hash.
const RESOLVER_TRAIT_SALT: u64 = 0x0d1f_f3a5_0f00_dcaf;

/// TTL (seconds) attached to answers served stale under RFC 8767: the
/// RFC recommends re-marking stale data with a short TTL ("on the order
/// of 30 seconds") rather than the record's original — which also means a
/// stale serve *launders* an attacker's day-long TTL past the §V
/// reject-TTL-above mitigation (the mitigated client sees 30 s, not
/// 86 401 s). Documented attack surface, exercised by E17.
pub const STALE_TTL_SECS: u32 = 30;

/// What one DNS query returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DnsAnswer {
    /// A benign rotation batch (`per_response` addresses, identified by
    /// the rotation residue `batch % rotation_batches`).
    Benign {
        /// Rotation batch identity.
        batch: u64,
        /// Record TTL, seconds.
        ttl_secs: u32,
    },
    /// The attacker's record set.
    Poisoned {
        /// Malicious records in the response.
        farm_size: usize,
        /// Record TTL, seconds.
        ttl_secs: u32,
    },
    /// An expired benign batch served under the RFC 8767 serve-stale
    /// policy (outage or SERVFAIL rescue). Carries [`STALE_TTL_SECS`].
    StaleBenign {
        /// Rotation batch identity of the stale entry.
        batch: u64,
    },
    /// The attacker's record set served *past* its TTL under serve-stale
    /// — the policy extending the poisoning window. Carries
    /// [`STALE_TTL_SECS`].
    StalePoisoned {
        /// Malicious records in the stale entry.
        farm_size: usize,
    },
    /// The query failed: a SERVFAIL, or an outage with nothing serveable
    /// from the (possibly stale) cache.
    Fail,
}

/// One client's static pool-query schedule, the input to the timeline
/// pre-pass: queries fire at `start + k·interval` for `k < rounds`.
/// A plain-NTP client is `{ start, interval: 0, rounds: 1 }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuerySchedule {
    /// First query time, ns.
    pub start_ns: u64,
    /// Spacing between queries, ns (irrelevant when `rounds == 1`).
    pub interval_ns: u64,
    /// Number of queries.
    pub rounds: u64,
}

/// One resolver's cache (shared by every client assigned to it, or
/// consulted read-only per client — see
/// [`FleetConfig::shared_cache`](crate::config::FleetConfig::shared_cache)).
#[derive(Debug, Clone, PartialEq)]
pub struct ResolverModel {
    ttl_ns: u64,
    benign_ttl_secs: u32,
    /// Rotation phase: this resolver's upstream fetches start `phase`
    /// batches into the rotation (0 for the legacy resolver 0).
    phase: u64,
    poison: Option<(u64, u64, usize, u32)>, // (from, until, farm, ttl)
    /// This resolver's outage windows `(start_ns, end_ns)`, sorted and
    /// non-overlapping (from [`crate::config::FaultPlan::outages`]).
    outages: Vec<(u64, u64)>,
    /// Serve-stale budget in ns (`None`: no RFC 8767, fail instead).
    max_stale_ns: Option<u64>,
    /// Upstream fetches that succeeded (== batches served so far).
    cursor: u64,
    /// Upstream fetch *attempts* that failed: cache misses during an
    /// outage. A failed fetch is still a fetch ([`Self::fetches`]); a
    /// stale serve is not (it never contacts upstream).
    failed_fetches: u64,
    cached_batch: u64,
    cached_until: u64,
    primed: bool,
}

impl ResolverModel {
    /// The legacy single-resolver constructor: resolver 0 of `config`
    /// (phase 0, configured TTL, poisoned whenever an attack exists).
    pub fn new(config: &FleetConfig) -> Self {
        ResolverModel::for_resolver(config, 0)
    }

    /// The resolver with id `r` of `config`'s fleet: per-resolver rotation
    /// phase, TTL draw, and poisoned-or-not flag (see the module docs).
    pub fn for_resolver(config: &FleetConfig, r: usize) -> Self {
        // Resolver 0 keeps the configured TTL at exact nanosecond
        // resolution — the legacy contract (R = 1 byte-identical to the
        // pre-cohort engine) must hold for fractional TTLs too. Only the
        // perturbed resolvers 1..R quantize to whole seconds.
        let (phase, ttl_ns, ttl_secs) = if r == 0 {
            (
                0,
                config.benign_ttl.as_nanos(),
                config.benign_ttl.as_secs() as u32,
            )
        } else {
            let mut rng =
                FleetRng::from_seed(client_seed(config.seed ^ RESOLVER_TRAIT_SALT, r as u64));
            let phase = rng.range_u64(config.rotation_batches() as u64);
            // 0.5–1.5× the configured TTL, whole seconds, never zero.
            let base_secs = config.benign_ttl.as_secs().max(1);
            let ttl = (base_secs / 2 + rng.range_u64(base_secs)).max(1);
            (phase, ttl * 1_000_000_000, ttl as u32)
        };
        let poison = config.attack.and_then(|a| {
            if !a.poisons_resolver(r) {
                return None;
            }
            let (from, until) = a.window_ns();
            Some((from, until, a.farm_size, a.ttl_secs))
        });
        ResolverModel {
            ttl_ns,
            benign_ttl_secs: ttl_secs,
            phase,
            poison,
            outages: config
                .faults
                .resolver_outages(r)
                .iter()
                .map(|w| (w.start_ns, w.end_ns()))
                .collect(),
            max_stale_ns: config
                .faults
                .serve_stale
                .map(|s| s.max_stale_secs.saturating_mul(1_000_000_000)),
            cursor: 0,
            failed_fetches: 0,
            cached_batch: 0,
            cached_until: 0,
            primed: false,
        }
    }

    /// Empties the cache and rewinds the rotation (fleet-reuse support).
    pub fn reset(&mut self) {
        self.cursor = 0;
        self.failed_fetches = 0;
        self.cached_batch = 0;
        self.cached_until = 0;
        self.primed = false;
    }

    /// Upstream fetch attempts so far — a failed fetch (cache miss during
    /// an outage) is still a fetch; a stale serve is not (it is answered
    /// from cache without contacting upstream). Successful fetches alone
    /// equal `fetches() - failed_fetches()` (== batches served).
    pub fn fetches(&self) -> u64 {
        self.cursor + self.failed_fetches
    }

    /// Upstream fetch attempts that failed (cache misses during outages).
    pub fn failed_fetches(&self) -> u64 {
        self.failed_fetches
    }

    /// The end of the outage window containing `now_ns`, if any.
    fn outage_end_at(&self, now_ns: u64) -> Option<u64> {
        self.outages
            .iter()
            .find(|&&(s, e)| now_ns >= s && now_ns < e)
            .map(|&(_, e)| e)
    }

    /// The serve-stale answer at `now_ns`: the cache entry with the
    /// *latest write time* (a cache holds one entry per name, so the most
    /// recent write is what is in it), served while `now < expiry +
    /// max_stale` (RFC 8767), else [`DnsAnswer::Fail`]. The benign entry
    /// was written when it was fetched; a poison entry is written at the
    /// window opening (ties are impossible: no upstream fetch happens
    /// inside the poison window).
    fn stale_or_fail(&self, now_ns: u64) -> DnsAnswer {
        let Some(budget) = self.max_stale_ns else {
            return DnsAnswer::Fail;
        };
        let benign = self.primed.then(|| {
            (
                self.cached_until.saturating_sub(self.ttl_ns),
                self.cached_until,
                DnsAnswer::StaleBenign {
                    batch: self.cached_batch,
                },
            )
        });
        let poisoned = self.poison.and_then(|(from, until, farm_size, _)| {
            (now_ns >= from).then_some((from, until, DnsAnswer::StalePoisoned { farm_size }))
        });
        let candidate = match (benign, poisoned) {
            (Some(b), Some(p)) => Some(if p.0 >= b.0 { p } else { b }),
            (b, p) => b.or(p),
        };
        match candidate {
            Some((_, expiry, answer)) if now_ns < expiry.saturating_add(budget) => answer,
            _ => DnsAnswer::Fail,
        }
    }

    /// This resolver's rotation phase (0 for the legacy resolver 0).
    pub fn rotation_phase(&self) -> u64 {
        self.phase
    }

    /// Whether this resolver serves the attacker's records (at any time).
    pub fn is_poisoned(&self) -> bool {
        self.poison.is_some()
    }

    /// Answers a query through the shared cache at `now_ns`.
    ///
    /// Fault semantics: the poison window and a fresh cached batch are
    /// *cache hits* — they answer even during an outage (the attacker
    /// injects the cache directly, and hits never contact upstream). A
    /// cache miss during an outage is a failed upstream fetch; the
    /// resolver then serves stale (RFC 8767, if configured and within
    /// budget) or fails the query.
    pub fn query_shared(&mut self, now_ns: u64) -> DnsAnswer {
        if let Some((from, until, farm_size, ttl_secs)) = self.poison {
            if now_ns >= from && now_ns < until {
                return DnsAnswer::Poisoned {
                    farm_size,
                    ttl_secs,
                };
            }
        }
        if self.primed && now_ns < self.cached_until {
            return DnsAnswer::Benign {
                batch: self.cached_batch,
                ttl_secs: self.benign_ttl_secs,
            };
        }
        if self.outage_end_at(now_ns).is_some() {
            self.failed_fetches += 1;
            return self.stale_or_fail(now_ns);
        }
        self.cached_batch = self.phase + self.cursor;
        self.cursor += 1;
        self.cached_until = now_ns.saturating_add(self.ttl_ns);
        self.primed = true;
        DnsAnswer::Benign {
            batch: self.cached_batch,
            ttl_secs: self.benign_ttl_secs,
        }
    }

    /// Answers a query for an *independent* client (no shared cache): the
    /// client's `round` index is its private rotation position, offset by
    /// this resolver's phase. With no shared cache there is nothing to
    /// serve stale from, so an outage (outside the poison window) simply
    /// fails the query.
    pub fn query_independent(&self, now_ns: u64, round: u64) -> DnsAnswer {
        if let Some((from, until, farm_size, ttl_secs)) = self.poison {
            if now_ns >= from && now_ns < until {
                return DnsAnswer::Poisoned {
                    farm_size,
                    ttl_secs,
                };
            }
        }
        if self.outage_end_at(now_ns).is_some() {
            return DnsAnswer::Fail;
        }
        DnsAnswer::Benign {
            batch: self.phase + round,
            ttl_secs: self.benign_ttl_secs,
        }
    }

    /// Precomputes the shared cache's full answer timeline for the clients
    /// assigned to this resolver, given their static query `schedules`.
    ///
    /// This is the deterministic pre-pass that makes intra-fleet
    /// parallelism possible: the cache is the only cross-client coupling,
    /// and its state advances *only* at query times — which are static
    /// (`start + k·interval`, independent of what the answers contain).
    /// The replay runs [`ResolverModel::query_shared`] itself on a scratch
    /// copy, visiting one query per answer-change boundary (a cache expiry
    /// or a poison-window edge) and skipping the runs of queries in
    /// between, which provably return the boundary query's answer without
    /// touching cache state. The result answers any actual query time
    /// read-only — and therefore concurrently from every shard. See the
    /// module-level example.
    pub fn timeline(&self, schedules: &[QuerySchedule]) -> ResolverTimeline {
        let mut sim = self.clone();
        sim.reset();
        let mut segments: Vec<(u64, DnsAnswer)> = Vec::new();
        let mut writes: Vec<(u64, u64, DnsAnswer)> = Vec::new();
        let mut t = next_query_at_or_after(schedules, 0);
        while let Some(tq) = t {
            let cursor_before = sim.cursor;
            let answer = sim.query_shared(tq);
            if sim.cursor > cursor_before {
                // A successful upstream fetch wrote the cache: record it
                // for serve-stale lookups ([`ResolverTimeline::stale_answer`]).
                writes.push((
                    tq,
                    sim.cached_until,
                    DnsAnswer::StaleBenign {
                        batch: sim.cached_batch,
                    },
                ));
            }
            if segments.last().map(|&(_, a)| a) != Some(answer) {
                segments.push((tq, answer));
            }
            // The answer — and the cache state — cannot change before the
            // next boundary: a poisoned window runs to its end; a benign
            // answer holds until the cached batch expires or the poison
            // window opens; a stale/failed answer holds until the outage
            // lifts, the stale budget runs out, or the poison window
            // opens (nothing writes the cache during an outage).
            let boundary = match answer {
                DnsAnswer::Poisoned { .. } => {
                    let (_, until, _, _) = sim.poison.expect("poisoned answer implies a window");
                    until
                }
                DnsAnswer::Benign { .. } => {
                    let mut b = sim.cached_until;
                    if let Some((from, _, _, _)) = sim.poison {
                        if from > tq {
                            b = b.min(from);
                        }
                    }
                    b
                }
                DnsAnswer::StaleBenign { .. }
                | DnsAnswer::StalePoisoned { .. }
                | DnsAnswer::Fail => {
                    let mut b = sim
                        .outage_end_at(tq)
                        .expect("stale/failed answers only happen inside outages");
                    if let Some(budget) = sim.max_stale_ns {
                        match answer {
                            DnsAnswer::StaleBenign { .. } => {
                                b = b.min(sim.cached_until.saturating_add(budget));
                            }
                            DnsAnswer::StalePoisoned { .. } => {
                                let (_, until, _, _) =
                                    sim.poison.expect("stale poison implies a window");
                                b = b.min(until.saturating_add(budget));
                            }
                            _ => {}
                        }
                    }
                    if let Some((from, _, _, _)) = sim.poison {
                        if from > tq {
                            b = b.min(from);
                        }
                    }
                    // Every query this segment skips was one more failed
                    // upstream attempt (the visited one is already
                    // counted inside `query_shared`).
                    sim.failed_fetches +=
                        count_queries_in(schedules, tq, b.max(tq + 1)).saturating_sub(1);
                    b
                }
            };
            t = next_query_at_or_after(schedules, boundary.max(tq + 1));
        }
        // The poison landing is a cache write too (the attacker injects
        // the entry directly): merge it into time order for stale lookups.
        if let Some((from, until, farm_size, _)) = sim.poison {
            let i = writes.partition_point(|&(w, _, _)| w <= from);
            writes.insert(i, (from, until, DnsAnswer::StalePoisoned { farm_size }));
        }
        ResolverTimeline {
            segments,
            writes,
            max_stale_ns: sim.max_stale_ns,
            fetches: sim.cursor,
            failed_fetches: sim.failed_fetches,
        }
    }
}

/// Number of scheduled queries with time in `[lo, hi)`.
fn count_queries_in(schedules: &[QuerySchedule], lo: u64, hi: u64) -> u64 {
    schedules
        .iter()
        .map(|s| {
            if s.rounds == 0 || hi <= s.start_ns {
                return 0;
            }
            if s.interval_ns == 0 {
                // All of this client's queries fired at `start`.
                return if s.start_ns >= lo { s.rounds } else { 0 };
            }
            let k_lo = if s.start_ns >= lo {
                0
            } else {
                (lo - s.start_ns).div_ceil(s.interval_ns)
            };
            let k_hi = ((hi - 1 - s.start_ns) / s.interval_ns + 1).min(s.rounds);
            k_hi.saturating_sub(k_lo.min(s.rounds))
        })
        .sum()
}

/// The first pool-query time at or after `from` across the given client
/// query schedules.
fn next_query_at_or_after(schedules: &[QuerySchedule], from: u64) -> Option<u64> {
    schedules
        .iter()
        .filter_map(|s| {
            if from <= s.start_ns {
                return Some(s.start_ns);
            }
            if s.interval_ns == 0 {
                return None; // all of this client's queries were at `start`
            }
            let k = (from - s.start_ns).div_ceil(s.interval_ns);
            (k < s.rounds).then(|| s.start_ns + k * s.interval_ns)
        })
        .min()
}

/// The precomputed answer function of one shared resolver cache over one
/// run: `(start_ns, answer)` segments, piecewise-constant between actual
/// query times (see [`ResolverModel::timeline`]). Immutable after
/// construction, so shards stepping in parallel read it without
/// synchronization.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ResolverTimeline {
    segments: Vec<(u64, DnsAnswer)>,
    /// Every cache write of the replay — `(write_ns, expiry_ns, entry)`
    /// with the entry in its stale form — in time order, for SERVFAIL
    /// serve-stale lookups.
    writes: Vec<(u64, u64, DnsAnswer)>,
    /// The resolver's serve-stale budget, ns (`None`: fail instead).
    max_stale_ns: Option<u64>,
    fetches: u64,
    failed_fetches: u64,
}

impl ResolverTimeline {
    /// A timeline with no queries (independent-cache fleets, or a
    /// resolver no client hashed onto).
    pub fn empty() -> Self {
        ResolverTimeline::default()
    }

    /// The answer every query at `now_ns` receives.
    ///
    /// # Panics
    ///
    /// Panics when `now_ns` precedes the first recorded query — a query
    /// time the pre-pass did not know about, which would mean the static
    /// query schedule and the engine disagree.
    pub fn answer(&self, now_ns: u64) -> DnsAnswer {
        let i = self.segments.partition_point(|&(start, _)| start <= now_ns);
        assert!(i > 0, "query at {now_ns} ns precedes the resolver timeline");
        self.segments[i - 1].1
    }

    /// Upstream fetch attempts of the replay — failed attempts included,
    /// stale serves not, matching [`ResolverModel::fetches`].
    pub fn fetches(&self) -> u64 {
        self.fetches + self.failed_fetches
    }

    /// Upstream fetch attempts that failed (cache misses during outages).
    pub fn failed_fetches(&self) -> u64 {
        self.failed_fetches
    }

    /// Number of answer-change segments recorded.
    pub fn segments(&self) -> usize {
        self.segments.len()
    }

    /// The RFC 8767 answer a SERVFAIL-hit query at `now_ns` receives:
    /// the cache entry with the latest write at or before `now_ns`,
    /// served (in its stale form) while `now < expiry + max_stale`, else
    /// [`DnsAnswer::Fail`]. With no serve-stale policy every SERVFAIL
    /// fails outright — even when the cache still holds a fresh entry,
    /// because the SERVFAIL models the resolver's recursive lookup
    /// machinery failing, not a cache miss.
    pub fn stale_answer(&self, now_ns: u64) -> DnsAnswer {
        let Some(budget) = self.max_stale_ns else {
            return DnsAnswer::Fail;
        };
        let i = self.writes.partition_point(|&(w, _, _)| w <= now_ns);
        if i == 0 {
            return DnsAnswer::Fail;
        }
        let (_, expiry, entry) = self.writes[i - 1];
        if now_ns < expiry.saturating_add(budget) {
            entry
        } else {
            DnsAnswer::Fail
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FleetAttack;
    use netsim::time::{SimDuration, SimTime};

    const SEC: u64 = 1_000_000_000;

    fn config(attack: Option<FleetAttack>) -> FleetConfig {
        FleetConfig {
            attack,
            ..FleetConfig::default()
        }
    }

    /// Uniform schedules, the shape every pre-cohort test used.
    fn uniform(starts: &[u64], interval_ns: u64, rounds: u64) -> Vec<QuerySchedule> {
        starts
            .iter()
            .map(|&start_ns| QuerySchedule {
                start_ns,
                interval_ns,
                rounds,
            })
            .collect()
    }

    #[test]
    fn shared_cache_serves_one_batch_per_ttl_window() {
        let mut r = ResolverModel::new(&config(None));
        let a = r.query_shared(0);
        let b = r.query_shared(100 * SEC); // inside the 150 s TTL
        assert_eq!(a, b, "cached batch is shared");
        let c = r.query_shared(151 * SEC);
        assert!(matches!(c, DnsAnswer::Benign { batch: 1, .. }));
        assert_eq!(r.fetches(), 2);
    }

    #[test]
    fn poison_window_freezes_the_cache_for_everyone() {
        let attack =
            FleetAttack::paper_default(SimTime::from_secs(500), SimDuration::from_millis(500));
        let mut r = ResolverModel::new(&config(Some(attack)));
        assert!(matches!(r.query_shared(0), DnsAnswer::Benign { .. }));
        for t in [500u64, 600, 86_000, 86_900] {
            assert!(
                matches!(
                    r.query_shared(t * SEC),
                    DnsAnswer::Poisoned { farm_size: 89, .. }
                ),
                "t={t}s inside the window"
            );
        }
        // 500 + 86 401 s: the poisoned entry finally expires.
        assert!(matches!(
            r.query_shared(86_901 * SEC),
            DnsAnswer::Benign { .. }
        ));
    }

    #[test]
    fn independent_mode_keys_rotation_by_round() {
        let r = ResolverModel::new(&config(None));
        assert!(matches!(
            r.query_independent(0, 0),
            DnsAnswer::Benign { batch: 0, .. }
        ));
        assert!(matches!(
            r.query_independent(0, 7),
            DnsAnswer::Benign { batch: 7, .. }
        ));
    }

    #[test]
    fn resolver_zero_is_the_legacy_resolver() {
        let cfg = config(None);
        let r0 = ResolverModel::for_resolver(&cfg, 0);
        assert_eq!(r0.rotation_phase(), 0);
        assert_eq!(r0, ResolverModel::new(&cfg));
        // The legacy contract holds at nanosecond resolution: a
        // fractional benign TTL must not be quantized on resolver 0
        // (pre-cohort, ttl_ns was exactly `benign_ttl.as_nanos()`).
        let fractional = FleetConfig {
            benign_ttl: SimDuration::from_millis(500),
            ..config(None)
        };
        let mut r0 = ResolverModel::for_resolver(&fractional, 0);
        assert_eq!(r0.ttl_ns, 500_000_000);
        let a = r0.query_shared(0);
        assert_eq!(r0.query_shared(499_000_000), a, "still cached at 499 ms");
        assert_ne!(r0.query_shared(SEC / 2), a, "expired at exactly 500 ms");
    }

    #[test]
    fn additional_resolvers_draw_phase_and_ttl() {
        let mut cfg = config(None);
        cfg.resolvers = 16;
        let batches = cfg.rotation_batches() as u64;
        let models: Vec<ResolverModel> = (0..16)
            .map(|r| ResolverModel::for_resolver(&cfg, r))
            .collect();
        // Deterministic per (seed, id)…
        for (r, m) in models.iter().enumerate() {
            assert_eq!(m, &ResolverModel::for_resolver(&cfg, r));
            assert!(m.rotation_phase() < batches);
            // TTL stays within the documented 0.5–1.5× band.
            let base = cfg.benign_ttl.as_secs();
            assert!(m.ttl_ns >= base / 2 * SEC && m.ttl_ns < (base + base / 2 + 1) * SEC);
        }
        // …but not all in lockstep: phases and TTLs vary across ids.
        assert!(
            models.iter().any(|m| m.rotation_phase() != 0),
            "some non-zero phase among 16 resolvers"
        );
        assert!(
            models.iter().any(|m| m.ttl_ns != models[0].ttl_ns),
            "some TTL diversity among 16 resolvers"
        );
        // A different fleet seed redraws the traits.
        let reseeded = ResolverModel::for_resolver(
            &FleetConfig {
                seed: cfg.seed + 1,
                ..cfg.clone()
            },
            3,
        );
        assert_ne!(
            (reseeded.rotation_phase(), reseeded.ttl_ns),
            (models[3].rotation_phase(), models[3].ttl_ns),
        );
        // The phase offsets rotation identity in both query modes.
        let phased: Vec<_> = models.iter().filter(|m| m.rotation_phase() > 0).collect();
        let m = phased[0];
        assert!(matches!(
            m.query_independent(0, 0),
            DnsAnswer::Benign { batch, .. } if batch == m.rotation_phase()
        ));
    }

    #[test]
    fn partial_poisoning_splits_the_resolver_set() {
        let attack =
            FleetAttack::paper_default(SimTime::from_secs(100), SimDuration::from_millis(500))
                .with_poisoned_resolvers(2);
        let mut cfg = config(Some(attack));
        cfg.resolvers = 4;
        for r in 0..4 {
            let m = ResolverModel::for_resolver(&cfg, r);
            assert_eq!(m.is_poisoned(), r < 2, "resolver {r}");
        }
        // `None` poisons every resolver (the legacy semantics).
        let all =
            FleetAttack::paper_default(SimTime::from_secs(100), SimDuration::from_millis(500));
        assert!(all.poisoned_resolvers.is_none());
        for r in 0..4 {
            assert!(ResolverModel::for_resolver(&config(Some(all)), r).is_poisoned());
        }
    }

    /// The pre-pass contract: for every actual query time, the timeline
    /// answers exactly what the incremental shared cache would have.
    fn assert_timeline_matches_incremental(model: &ResolverModel, schedules: &[QuerySchedule]) {
        let timeline = model.timeline(schedules);
        // Replay the exact query multiset in time order, incrementally.
        let mut times: Vec<u64> = schedules
            .iter()
            .flat_map(|s| (0..s.rounds).map(move |k| s.start_ns + k * s.interval_ns))
            .collect();
        times.sort_unstable();
        let mut incremental = model.clone();
        incremental.reset();
        for &t in &times {
            assert_eq!(
                timeline.answer(t),
                incremental.query_shared(t),
                "answer diverged at t={t} ns"
            );
        }
        assert_eq!(timeline.fetches(), incremental.fetches());
        assert_eq!(timeline.failed_fetches(), incremental.failed_fetches());
    }

    #[test]
    fn timeline_matches_incremental_cache_benign() {
        let model = ResolverModel::new(&config(None));
        // Staggered boots, queries denser and sparser than the 150 s TTL.
        let starts: Vec<u64> = (0..7).map(|i| i * 37 * SEC).collect();
        assert_timeline_matches_incremental(&model, &uniform(&starts, 200 * SEC, 6));
        assert_timeline_matches_incremental(&model, &uniform(&starts, 40 * SEC, 9));
        // A lone sparse client: every query refetches.
        assert_timeline_matches_incremental(&model, &uniform(&[5 * SEC], 400 * SEC, 8));
    }

    #[test]
    fn timeline_matches_incremental_cache_poisoned() {
        let early =
            FleetAttack::paper_default(SimTime::from_secs(300), SimDuration::from_millis(500));
        let starts: Vec<u64> = (0..9).map(|i| i * 53 * SEC).collect();
        let model = ResolverModel::new(&config(Some(early)));
        assert_timeline_matches_incremental(&model, &uniform(&starts, 200 * SEC, 24));
        // Poison opening mid-TTL-window and a short-TTL poison that ends
        // while the pre-poison benign batch is still fresh.
        let mid_window = FleetAttack {
            at: SimTime::from_secs(70),
            ttl_secs: 60,
            farm_size: 89,
            shift_ns: 500_000_000,
            poisoned_resolvers: None,
        };
        let model = ResolverModel::new(&config(Some(mid_window)));
        assert_timeline_matches_incremental(&model, &uniform(&starts, 25 * SEC, 30));
    }

    #[test]
    fn timeline_handles_heterogeneous_schedules() {
        // A Chronos cohort (24 rounds, 200 s apart) sharing the cache with
        // plain-NTP one-shot resolutions and a fast-cadence tier — the
        // cohort shapes PR 5 introduces.
        let mut schedules = uniform(&[0, 40 * SEC, 170 * SEC], 200 * SEC, 24);
        schedules.extend(uniform(&[15 * SEC, 400 * SEC, 401 * SEC], 0, 1));
        schedules.extend(uniform(&[90 * SEC], 64 * SEC, 50));
        let benign = ResolverModel::new(&config(None));
        assert_timeline_matches_incremental(&benign, &schedules);
        let attack =
            FleetAttack::paper_default(SimTime::from_secs(390), SimDuration::from_millis(500));
        let poisoned = ResolverModel::new(&config(Some(attack)));
        assert_timeline_matches_incremental(&poisoned, &schedules);
        // A phased non-zero resolver replays identically too.
        let mut cfg = config(Some(attack));
        cfg.resolvers = 8;
        assert_timeline_matches_incremental(&ResolverModel::for_resolver(&cfg, 5), &schedules);
    }

    #[test]
    fn timeline_lookup_shape() {
        let model = ResolverModel::new(&config(None));
        let tl = model.timeline(&uniform(&[0, 10 * SEC], 200 * SEC, 3));
        // One batch per 150 s window over the span: answers inside a
        // window are constant.
        assert_eq!(tl.answer(0), tl.answer(10 * SEC));
        assert!(tl.segments() >= 2, "rotation advanced across windows");
        assert_eq!(ResolverTimeline::empty().segments(), 0);
    }

    #[test]
    #[should_panic(expected = "precedes the resolver timeline")]
    fn timeline_rejects_queries_before_the_first() {
        let model = ResolverModel::new(&config(None));
        let tl = model.timeline(&uniform(&[10 * SEC], 200 * SEC, 2));
        tl.answer(SEC);
    }

    fn outage(start_s: u64, len_s: u64) -> crate::config::OutageWindow {
        crate::config::OutageWindow {
            start_ns: start_s * SEC,
            duration_ns: len_s * SEC,
        }
    }

    fn faulty_config(
        attack: Option<FleetAttack>,
        outages: Vec<Vec<crate::config::OutageWindow>>,
        max_stale_secs: Option<u64>,
    ) -> FleetConfig {
        FleetConfig {
            attack,
            faults: crate::config::FaultPlan {
                outages,
                serve_stale: max_stale_secs
                    .map(|s| crate::config::ServeStalePolicy { max_stale_secs: s }),
                ..crate::config::FaultPlan::default()
            },
            ..FleetConfig::default()
        }
    }

    #[test]
    fn outage_without_serve_stale_fails_cache_misses_only() {
        // Outage 200–400 s; the 150 s benign TTL expires inside it.
        let cfg = faulty_config(None, vec![vec![outage(200, 200)]], None);
        let mut r = ResolverModel::new(&cfg);
        let a = r.query_shared(0);
        assert!(matches!(a, DnsAnswer::Benign { batch: 0, .. }));
        // 210 s: inside the outage but the next query misses (TTL 150 s).
        assert_eq!(r.query_shared(210 * SEC), DnsAnswer::Fail);
        assert_eq!(r.query_shared(399 * SEC), DnsAnswer::Fail);
        // Outage over: a fresh fetch resumes the rotation where it left.
        assert!(matches!(
            r.query_shared(400 * SEC),
            DnsAnswer::Benign { batch: 1, .. }
        ));
        // Fetch accounting: 2 successes + 2 failures, no stale serves.
        assert_eq!(r.fetches(), 4);
        assert_eq!(r.failed_fetches(), 2);
    }

    #[test]
    fn fresh_cache_hits_survive_an_outage() {
        let cfg = faulty_config(None, vec![vec![outage(100, 40)]], None);
        let mut r = ResolverModel::new(&cfg);
        let a = r.query_shared(0);
        // 120 s: inside the outage but the 150 s entry is still fresh —
        // a cache hit needs no upstream.
        assert_eq!(r.query_shared(120 * SEC), a);
        assert_eq!(r.failed_fetches(), 0);
    }

    #[test]
    fn serve_stale_bridges_an_outage_within_budget() {
        // Outage 200–2000 s, stale budget 600 s, benign TTL 150 s.
        let cfg = faulty_config(None, vec![vec![outage(200, 1800)]], Some(600));
        let mut r = ResolverModel::new(&cfg);
        r.query_shared(100 * SEC); // entry expires at 250 s
        assert!(matches!(
            r.query_shared(300 * SEC),
            DnsAnswer::StaleBenign { batch: 0 }
        ));
        // Budget runs out at expiry (250 s) + 600 s = 850 s.
        assert!(matches!(
            r.query_shared(849 * SEC),
            DnsAnswer::StaleBenign { .. }
        ));
        assert_eq!(r.query_shared(850 * SEC), DnsAnswer::Fail);
        // A stale serve is not a fetch; a failed one is.
        assert_eq!(r.failed_fetches(), 3);
        assert_eq!(r.fetches(), 1 + 3);
    }

    #[test]
    fn serve_stale_extends_the_poison_past_its_ttl() {
        // Short poison 100–160 s, outage 150–700 s, stale budget 400 s:
        // the dead poisoned entry keeps being served until 160+400 s.
        let poison = FleetAttack {
            at: SimTime::from_secs(100),
            ttl_secs: 60,
            farm_size: 89,
            shift_ns: 500_000_000,
            poisoned_resolvers: None,
        };
        let cfg = faulty_config(Some(poison), vec![vec![outage(150, 550)]], Some(400));
        let mut r = ResolverModel::new(&cfg);
        assert!(matches!(
            r.query_shared(120 * SEC),
            DnsAnswer::Poisoned { .. }
        ));
        // Poison TTL over, outage on: the latest cache write is the
        // poison landing, so serve-stale re-serves the attacker.
        assert!(matches!(
            r.query_shared(200 * SEC),
            DnsAnswer::StalePoisoned { farm_size: 89 }
        ));
        assert!(matches!(
            r.query_shared(559 * SEC),
            DnsAnswer::StalePoisoned { .. }
        ));
        assert_eq!(r.query_shared(560 * SEC), DnsAnswer::Fail);
    }

    #[test]
    fn independent_queries_fail_during_outages() {
        let poison =
            FleetAttack::paper_default(SimTime::from_secs(300), SimDuration::from_millis(500));
        let cfg = faulty_config(Some(poison), vec![vec![outage(100, 100)]], Some(3600));
        let r = ResolverModel::new(&cfg);
        assert!(matches!(
            r.query_independent(50 * SEC, 0),
            DnsAnswer::Benign { .. }
        ));
        assert_eq!(r.query_independent(150 * SEC, 1), DnsAnswer::Fail);
        // The poison window still answers (cache injection, not upstream).
        let in_poison_outage = faulty_config(Some(poison), vec![vec![outage(250, 200)]], None);
        let r = ResolverModel::new(&in_poison_outage);
        assert!(matches!(
            r.query_independent(350 * SEC, 2),
            DnsAnswer::Poisoned { .. }
        ));
    }

    #[test]
    fn timeline_matches_incremental_cache_under_outages() {
        let starts: Vec<u64> = (0..9).map(|i| i * 53 * SEC).collect();
        let mut schedules = uniform(&starts, 200 * SEC, 24);
        schedules.extend(uniform(&[15 * SEC, 400 * SEC, 401 * SEC], 0, 1));
        schedules.extend(uniform(&[90 * SEC], 64 * SEC, 50));
        let attack =
            FleetAttack::paper_default(SimTime::from_secs(390), SimDuration::from_millis(500));
        let outage_sets = [
            vec![outage(200, 300)],
            vec![outage(0, 100), outage(600, 1200)],
            vec![outage(350, 100), outage(1000, 2500)],
        ];
        for attack in [None, Some(attack)] {
            for outages in &outage_sets {
                for stale in [None, Some(120), Some(3600)] {
                    let cfg = faulty_config(attack, vec![outages.clone()], stale);
                    let model = ResolverModel::new(&cfg);
                    assert_timeline_matches_incremental(&model, &schedules);
                    // A phased, perturbed-TTL resolver replays too.
                    let mut multi = cfg.clone();
                    multi.resolvers = 8;
                    multi.faults.outages = vec![outages.clone(); 6];
                    assert_timeline_matches_incremental(
                        &ResolverModel::for_resolver(&multi, 5),
                        &schedules,
                    );
                }
            }
        }
    }

    #[test]
    fn short_poison_inside_outage_replays_exactly() {
        // The nasty interleaving: poison opens *during* an outage, expires
        // before it lifts, and serve-stale bridges the remainder.
        let poison = FleetAttack {
            at: SimTime::from_secs(300),
            ttl_secs: 100,
            farm_size: 89,
            shift_ns: 500_000_000,
            poisoned_resolvers: None,
        };
        let cfg = faulty_config(Some(poison), vec![vec![outage(200, 900)]], Some(500));
        let starts: Vec<u64> = (0..7).map(|i| i * 37 * SEC).collect();
        let model = ResolverModel::new(&cfg);
        assert_timeline_matches_incremental(&model, &uniform(&starts, 40 * SEC, 40));
        let tl = model.timeline(&uniform(&starts, 40 * SEC, 40));
        assert!(tl.failed_fetches() > 0, "the outage forced failures");
    }

    #[test]
    fn stale_answer_serves_the_latest_write_within_budget() {
        let cfg = faulty_config(None, Vec::new(), Some(600));
        let model = ResolverModel::new(&cfg);
        let tl = model.timeline(&uniform(&[0], 200 * SEC, 3));
        // SERVFAIL rescue at 10 s: the 0 s fetch is the latest write.
        assert!(matches!(
            tl.stale_answer(10 * SEC),
            DnsAnswer::StaleBenign { batch: 0 }
        ));
        // At 300 s the latest write is the 200 s refetch (batch 1).
        assert!(matches!(
            tl.stale_answer(300 * SEC),
            DnsAnswer::StaleBenign { batch: 1 }
        ));
        // The last fetch (400 s, expiry 550 s) ages out at 550+600 s.
        assert!(matches!(
            tl.stale_answer(1149 * SEC),
            DnsAnswer::StaleBenign { batch: 2 }
        ));
        assert_eq!(tl.stale_answer(1150 * SEC), DnsAnswer::Fail);
        // Without a policy every SERVFAIL fails outright.
        let strict = ResolverModel::new(&config(None)).timeline(&uniform(&[0], 200 * SEC, 3));
        assert_eq!(strict.stale_answer(10 * SEC), DnsAnswer::Fail);
    }

    #[test]
    fn reset_rewinds_rotation_and_cache() {
        let mut r = ResolverModel::new(&config(None));
        r.query_shared(0);
        r.query_shared(200 * SEC);
        assert_eq!(r.fetches(), 2);
        r.reset();
        assert_eq!(r.fetches(), 0);
        assert!(matches!(
            r.query_shared(0),
            DnsAnswer::Benign { batch: 0, .. }
        ));
    }
}
