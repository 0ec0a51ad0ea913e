//! Authoritative zone data, including pool-style rotating answer sets.
//!
//! The `pool.ntp.org` zone answers every A query with a small rotating
//! subset of a large server universe — the behaviour Chronos' pool
//! generation leans on (4 addresses per response, 150 s TTL).

use crate::name::Name;
use crate::wire::{Question, RData, Record, RecordType};
use std::net::Ipv4Addr;

/// TTL pool.ntp.org uses for its A records.
pub const POOL_NTP_TTL: u32 = 150;

/// Addresses per pool.ntp.org response.
pub const POOL_ADDRS_PER_RESPONSE: usize = 4;

/// A rotating answer set (round-robin over a server universe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rotation {
    /// The full universe of addresses.
    pub addrs: Vec<Ipv4Addr>,
    /// How many addresses each response carries.
    pub per_response: usize,
    /// TTL on the rotating records.
    pub ttl: u32,
    cursor: usize,
}

impl Rotation {
    /// Creates a rotation serving `per_response` of `addrs` per query.
    ///
    /// # Panics
    ///
    /// Panics if `addrs` is empty or `per_response` is zero.
    pub fn new(addrs: Vec<Ipv4Addr>, per_response: usize, ttl: u32) -> Self {
        assert!(!addrs.is_empty(), "rotation needs at least one address");
        assert!(per_response > 0, "rotation must serve at least one address");
        Rotation {
            addrs,
            per_response,
            ttl,
            cursor: 0,
        }
    }

    /// Rewinds the rotation to its starting position (world-reuse support).
    pub fn reset(&mut self) {
        self.cursor = 0;
    }

    /// The next batch of addresses (advances the cursor).
    pub fn next_batch(&mut self) -> Vec<Ipv4Addr> {
        let n = self.per_response.min(self.addrs.len());
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.addrs[self.cursor]);
            self.cursor = (self.cursor + 1) % self.addrs.len();
        }
        out
    }
}

/// The outcome of a zone lookup: the sections of the eventual response.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ZoneAnswer {
    /// Answer records.
    pub answers: Vec<Record>,
    /// Authority records (NS on success, SOA on NXDOMAIN).
    pub authorities: Vec<Record>,
    /// Additional records (glue).
    pub additionals: Vec<Record>,
    /// `true` when the name does not exist in the zone.
    pub nxdomain: bool,
}

/// An authoritative zone.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    ns: Vec<(Name, Ipv4Addr)>,
    records: Vec<Record>,
    rotation: Option<Rotation>,
    ns_ttl: u32,
    /// Whether positive answers carry the NS set + glue. Real pool zones do;
    /// it is also what inflates responses past small MTUs.
    include_authority: bool,
    /// Marker used by the measurement study (no cryptography modelled).
    signed: bool,
}

impl Zone {
    /// Creates an empty zone rooted at `origin`.
    pub fn new(origin: Name) -> Self {
        Zone {
            origin,
            ns: Vec::new(),
            records: Vec::new(),
            rotation: None,
            ns_ttl: 3600,
            include_authority: true,
            signed: false,
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// Adds a nameserver (name + glue address). Returns `self` for chaining.
    pub fn with_ns(mut self, ns_name: Name, glue: Ipv4Addr) -> Self {
        self.ns.push((ns_name, glue));
        self
    }

    /// Adds `count` synthetic nameservers `ns1..nsN.<origin>` with glue in
    /// `glue_base + i`.
    pub fn with_synthetic_ns(mut self, count: usize, glue_base: Ipv4Addr) -> Self {
        let base = u32::from(glue_base);
        for i in 0..count {
            let name = self
                .origin
                .prepend(&format!("ns{}", i + 1))
                .expect("synthetic ns label is valid");
            self.ns.push((name, Ipv4Addr::from(base + i as u32)));
        }
        self
    }

    /// Adds a static record. Returns `self` for chaining.
    pub fn with_record(mut self, record: Record) -> Self {
        self.records.push(record);
        self
    }

    /// Installs a rotating answer set at the origin. Returns `self`.
    pub fn with_rotation(mut self, rotation: Rotation) -> Self {
        self.rotation = Some(rotation);
        self
    }

    /// Controls whether positive answers include NS + glue.
    pub fn with_authority_sections(mut self, include: bool) -> Self {
        self.include_authority = include;
        self
    }

    /// Marks the zone as DNSSEC-signed (study metadata only).
    pub fn with_signed(mut self, signed: bool) -> Self {
        self.signed = signed;
        self
    }

    /// Whether the zone is marked signed.
    pub fn is_signed(&self) -> bool {
        self.signed
    }

    /// The nameserver set (names and glue addresses).
    pub fn nameservers(&self) -> &[(Name, Ipv4Addr)] {
        &self.ns
    }

    /// `true` if `name` belongs to this zone.
    pub fn contains(&self, name: &Name) -> bool {
        name.is_subdomain_of(&self.origin)
    }

    /// Rewinds run state (the rotation cursor) to the freshly-built zone
    /// (world-reuse support); records and delegations are untouched.
    pub fn reset(&mut self) {
        if let Some(rot) = &mut self.rotation {
            rot.reset();
        }
    }

    /// Answers a question. Advances the rotation cursor on rotating hits.
    pub fn answer(&mut self, q: &Question) -> ZoneAnswer {
        let mut out = ZoneAnswer::default();
        if !self.contains(&q.name) {
            out.nxdomain = true;
            return out;
        }
        // Rotating set at the origin.
        if q.qtype == RecordType::A && q.name == self.origin {
            if let Some(rot) = &mut self.rotation {
                let ttl = rot.ttl;
                for addr in rot.next_batch() {
                    out.answers.push(Record::a(q.name.clone(), addr, ttl));
                }
            }
        }
        // NS queries at the origin.
        if q.qtype == RecordType::Ns && q.name == self.origin {
            for (ns_name, _) in &self.ns {
                out.answers.push(Record {
                    name: self.origin.clone(),
                    ttl: self.ns_ttl,
                    rdata: RData::Ns(ns_name.clone()),
                });
            }
        }
        // Glue A queries for the nameservers themselves.
        if q.qtype == RecordType::A {
            for (ns_name, glue) in &self.ns {
                if *ns_name == q.name {
                    out.answers
                        .push(Record::a(q.name.clone(), *glue, self.ns_ttl));
                }
            }
        }
        // Static records.
        for r in &self.records {
            if r.name == q.name && (r.rtype() == q.qtype || r.rtype() == RecordType::Cname) {
                out.answers.push(r.clone());
            }
        }
        if out.answers.is_empty() {
            out.nxdomain = true;
            out.authorities.push(self.soa_record());
            return out;
        }
        if self.include_authority {
            for (ns_name, glue) in &self.ns {
                out.authorities.push(Record {
                    name: self.origin.clone(),
                    ttl: self.ns_ttl,
                    rdata: RData::Ns(ns_name.clone()),
                });
                out.additionals
                    .push(Record::a(ns_name.clone(), *glue, self.ns_ttl));
            }
        }
        out
    }

    fn soa_record(&self) -> Record {
        let mname = self
            .ns
            .first()
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| self.origin.clone());
        Record {
            name: self.origin.clone(),
            ttl: 300,
            rdata: RData::Soa {
                mname,
                rname: self
                    .origin
                    .prepend("hostmaster")
                    .unwrap_or_else(|_| self.origin.clone()),
                serial: 20201016, // 2020-10-16, the paper's arXiv date
                refresh: 7200,
                retry: 3600,
                expire: 1_209_600,
                minimum: 300,
            },
        }
    }
}

/// Builds the simulated `pool.ntp.org` zone: `universe` rotating NTP server
/// addresses (4 per response, TTL 150 s) behind `ns_count` nameservers.
///
/// NTP server addresses are `10.32.0.0/16`-ish starting at `10.32.0.1`;
/// nameserver glue lives in `203.0.113.0/24`.
pub fn pool_ntp_zone(universe: usize, ns_count: usize) -> Zone {
    let origin: Name = "pool.ntp.org".parse().expect("static name");
    let addrs: Vec<Ipv4Addr> = (0..universe as u32)
        .map(|i| Ipv4Addr::from(u32::from(Ipv4Addr::new(10, 32, 0, 1)) + i))
        .collect();
    Zone::new(origin)
        .with_synthetic_ns(ns_count, Ipv4Addr::new(203, 0, 113, 1))
        .with_rotation(Rotation::new(addrs, POOL_ADDRS_PER_RESPONSE, POOL_NTP_TTL))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(name: &str, qtype: RecordType) -> Question {
        Question {
            name: name.parse().unwrap(),
            qtype,
        }
    }

    #[test]
    fn rotation_round_robins_without_repeats_until_wrap() {
        let addrs: Vec<Ipv4Addr> = (1..=10u8).map(|i| Ipv4Addr::new(10, 0, 0, i)).collect();
        let mut rot = Rotation::new(addrs.clone(), 4, 150);
        let mut seen = Vec::new();
        for _ in 0..5 {
            seen.extend(rot.next_batch());
        }
        assert_eq!(seen.len(), 20);
        // First 10 are the universe in order, then it wraps.
        assert_eq!(&seen[..10], &addrs[..]);
        assert_eq!(&seen[10..20], &addrs[..]);
    }

    #[test]
    fn pool_zone_answers_four_fresh_addrs_per_query() {
        let mut zone = pool_ntp_zone(96, 4);
        let q1 = zone.answer(&q("pool.ntp.org", RecordType::A));
        let q2 = zone.answer(&q("pool.ntp.org", RecordType::A));
        assert_eq!(q1.answers.len(), 4);
        assert_eq!(q2.answers.len(), 4);
        let a1: Vec<_> = q1.answers.iter().filter_map(Record::as_a).collect();
        let a2: Vec<_> = q2.answers.iter().filter_map(Record::as_a).collect();
        assert!(a1.iter().all(|a| !a2.contains(a)), "fresh batch each time");
        assert!(q1.answers.iter().all(|r| r.ttl == POOL_NTP_TTL));
    }

    #[test]
    fn twenty_four_queries_yield_ninety_six_distinct_servers() {
        let mut zone = pool_ntp_zone(400, 4);
        let mut all = Vec::new();
        for _ in 0..24 {
            let ans = zone.answer(&q("pool.ntp.org", RecordType::A));
            all.extend(ans.answers.iter().filter_map(Record::as_a));
        }
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 96, "paper: 24 hourly queries x 4 = 96 servers");
    }

    #[test]
    fn positive_answers_carry_ns_and_glue() {
        let mut zone = pool_ntp_zone(96, 4);
        let ans = zone.answer(&q("pool.ntp.org", RecordType::A));
        assert_eq!(ans.authorities.len(), 4);
        assert_eq!(ans.additionals.len(), 4);
        assert!(ans
            .authorities
            .iter()
            .all(|r| matches!(r.rdata, RData::Ns(_))));
        assert!(ans.additionals.iter().all(|r| r.as_a().is_some()));
    }

    #[test]
    fn authority_sections_can_be_disabled() {
        let mut zone = pool_ntp_zone(96, 4).with_authority_sections(false);
        let ans = zone.answer(&q("pool.ntp.org", RecordType::A));
        assert!(ans.authorities.is_empty());
        assert!(ans.additionals.is_empty());
    }

    #[test]
    fn glue_queries_answered_directly() {
        let mut zone = pool_ntp_zone(96, 4);
        let ans = zone.answer(&q("ns1.pool.ntp.org", RecordType::A));
        assert_eq!(ans.answers.len(), 1);
        assert_eq!(ans.answers[0].as_a(), Some(Ipv4Addr::new(203, 0, 113, 1)));
    }

    #[test]
    fn ns_query_lists_nameservers() {
        let mut zone = pool_ntp_zone(96, 3);
        let ans = zone.answer(&q("pool.ntp.org", RecordType::Ns));
        assert_eq!(ans.answers.len(), 3);
    }

    #[test]
    fn out_of_zone_and_missing_names() {
        let mut zone = pool_ntp_zone(96, 4);
        let foreign = zone.answer(&q("example.com", RecordType::A));
        assert!(foreign.nxdomain);
        let missing = zone.answer(&q("nope.pool.ntp.org", RecordType::A));
        assert!(missing.nxdomain);
        assert!(
            matches!(missing.authorities[0].rdata, RData::Soa { .. }),
            "negative answers carry the SOA"
        );
    }

    #[test]
    fn static_records_and_mx() {
        let origin: Name = "victim.example".parse().unwrap();
        let mut zone = Zone::new(origin.clone())
            .with_ns(
                "ns1.victim.example".parse().unwrap(),
                Ipv4Addr::new(9, 9, 9, 9),
            )
            .with_record(Record {
                name: origin.clone(),
                ttl: 300,
                rdata: RData::Mx {
                    preference: 10,
                    exchange: "mail.victim.example".parse().unwrap(),
                },
            })
            .with_record(Record::a(
                "mail.victim.example".parse().unwrap(),
                Ipv4Addr::new(10, 9, 9, 1),
                300,
            ));
        let mx = zone.answer(&q("victim.example", RecordType::Mx));
        assert_eq!(mx.answers.len(), 1);
        let a = zone.answer(&q("mail.victim.example", RecordType::A));
        assert_eq!(a.answers[0].as_a(), Some(Ipv4Addr::new(10, 9, 9, 1)));
    }

    #[test]
    fn signed_flag_is_metadata() {
        let zone = pool_ntp_zone(4, 1).with_signed(true);
        assert!(zone.is_signed());
    }
}
