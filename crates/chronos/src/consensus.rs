//! Consensus-based pool generation — the paper's recommended direction.
//!
//! The paper's conclusion points at "proposals for generating distributed
//! consensus in a secure way" (Jeitner et al., *Secure Consensus Generation
//! with Distributed DoH*, DSN-W 2020): instead of trusting one resolver,
//! query **k independent resolvers** and accept an address into the pool
//! only when enough of them agree. A single poisoned resolver then
//! contributes nothing unless the attacker compromises a quorum.
//!
//! This module implements the pool-side aggregation: per-round answers from
//! multiple resolvers are combined under a [`ConsensusRule`], feeding the
//! same [`crate::pool::PoolGenerator`] bookkeeping.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

/// How multi-resolver answers are combined.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConsensusRule {
    /// Accept an address vouched for by any resolver (no protection —
    /// the union is as weak as the weakest resolver).
    Union,
    /// Accept only addresses reported by **more than half** the resolvers.
    Majority,
    /// Accept only addresses reported by **every** resolver.
    Intersection,
    /// Accept addresses reported by at least `k` resolvers.
    Threshold(
        /// The quorum size.
        usize,
    ),
}

impl ConsensusRule {
    /// The quorum required under this rule for `resolvers` participants.
    pub fn quorum(&self, resolvers: usize) -> usize {
        match *self {
            ConsensusRule::Union => 1,
            ConsensusRule::Majority => resolvers / 2 + 1,
            ConsensusRule::Intersection => resolvers,
            ConsensusRule::Threshold(k) => k.clamp(1, resolvers.max(1)),
        }
    }
}

/// Outcome of combining one round's answers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusRound {
    /// Addresses that met the quorum, in deterministic order.
    pub accepted: Vec<Ipv4Addr>,
    /// Addresses reported by at least one resolver but below quorum.
    pub rejected: Vec<Ipv4Addr>,
    /// Resolvers that answered this round.
    pub responders: usize,
}

/// Combines per-resolver answer sets under `rule`.
///
/// Duplicate addresses within one resolver's answer count once. The
/// answer order is normalised (sorted) so outcomes are deterministic
/// regardless of resolver arrival order.
pub fn combine_round(answers: &[Vec<Ipv4Addr>], rule: ConsensusRule) -> ConsensusRound {
    let responders = answers.iter().filter(|a| !a.is_empty()).count();
    let quorum = rule.quorum(answers.len());
    let mut votes: BTreeMap<Ipv4Addr, usize> = BTreeMap::new();
    for answer in answers {
        let mut seen: Vec<Ipv4Addr> = answer.clone();
        seen.sort_unstable();
        seen.dedup();
        for addr in seen {
            *votes.entry(addr).or_insert(0) += 1;
        }
    }
    let mut accepted = Vec::new();
    let mut rejected = Vec::new();
    for (addr, count) in votes {
        if count >= quorum {
            accepted.push(addr);
        } else {
            rejected.push(addr);
        }
    }
    ConsensusRound {
        accepted,
        rejected,
        responders,
    }
}

/// Analytic capture model: with `poisoned` of `resolvers` resolvers under
/// attacker control (all reporting the attacker's addresses consistently),
/// does the attacker's record set reach the pool under `rule`?
pub fn attacker_reaches_pool(rule: ConsensusRule, resolvers: usize, poisoned: usize) -> bool {
    poisoned >= rule.quorum(resolvers)
}

/// Minimum resolvers the attacker must poison to reach the pool.
pub fn min_poisoned_resolvers(rule: ConsensusRule, resolvers: usize) -> usize {
    rule.quorum(resolvers)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 0, o)
    }

    fn evil(o: u8) -> Ipv4Addr {
        Ipv4Addr::new(198, 18, 0, o)
    }

    #[test]
    fn quorums() {
        assert_eq!(ConsensusRule::Union.quorum(5), 1);
        assert_eq!(ConsensusRule::Majority.quorum(5), 3);
        assert_eq!(ConsensusRule::Majority.quorum(4), 3);
        assert_eq!(ConsensusRule::Intersection.quorum(5), 5);
        assert_eq!(ConsensusRule::Threshold(2).quorum(5), 2);
        assert_eq!(ConsensusRule::Threshold(9).quorum(5), 5, "clamped");
    }

    #[test]
    fn union_accepts_single_poisoned_resolver() {
        // Resolver 3 is poisoned; the rest answer honestly. The benign
        // answers disagree (pool rotation!), which is exactly why Union is
        // the only rule plain rotation data can use — and why it is unsafe.
        let answers = vec![vec![a(1), a(2)], vec![a(3), a(4)], vec![evil(1), evil(2)]];
        let union = combine_round(&answers, ConsensusRule::Union);
        assert!(union.accepted.contains(&evil(1)));
        let majority = combine_round(&answers, ConsensusRule::Majority);
        assert!(majority.accepted.is_empty(), "nothing reaches 2-of-3");
    }

    #[test]
    fn majority_filters_minority_poison() {
        // With agreeing honest resolvers (e.g. DoH to the same stable
        // backend, as the DSN-W proposal assumes), majority keeps the pool
        // clean until the attacker owns a quorum.
        let honest = vec![a(1), a(2), a(3), a(4)];
        let answers = vec![honest.clone(), honest.clone(), vec![evil(1), evil(2)]];
        let round = combine_round(&answers, ConsensusRule::Majority);
        assert_eq!(round.accepted, honest);
        assert_eq!(round.rejected, vec![evil(1), evil(2)]);
        assert_eq!(round.responders, 3);
    }

    #[test]
    fn intersection_requires_unanimity() {
        let honest = vec![a(1), a(2)];
        let mut tainted = honest.clone();
        tainted.push(evil(1));
        let answers = vec![honest.clone(), tainted, honest.clone()];
        let round = combine_round(&answers, ConsensusRule::Intersection);
        assert_eq!(round.accepted, honest);
        assert_eq!(round.rejected, vec![evil(1)]);
    }

    #[test]
    fn duplicates_within_one_answer_count_once() {
        let answers = vec![vec![evil(1), evil(1), evil(1)], vec![a(1)]];
        let round = combine_round(&answers, ConsensusRule::Majority);
        assert!(round.accepted.is_empty(), "self-voting does not help");
    }

    #[test]
    fn empty_answers_are_absent_responders() {
        let answers = vec![vec![a(1)], Vec::new(), vec![a(1)]];
        let round = combine_round(&answers, ConsensusRule::Majority);
        assert_eq!(round.responders, 2);
        assert_eq!(round.accepted, vec![a(1)]);
    }

    #[test]
    fn capture_thresholds() {
        assert!(attacker_reaches_pool(ConsensusRule::Union, 5, 1));
        assert!(!attacker_reaches_pool(ConsensusRule::Majority, 5, 2));
        assert!(attacker_reaches_pool(ConsensusRule::Majority, 5, 3));
        assert!(!attacker_reaches_pool(ConsensusRule::Intersection, 5, 4));
        assert_eq!(min_poisoned_resolvers(ConsensusRule::Majority, 24), 13);
    }

    #[test]
    fn deterministic_order() {
        let answers = vec![vec![a(9), a(1)], vec![a(1), a(9)]];
        let r1 = combine_round(&answers, ConsensusRule::Majority);
        let reversed = vec![vec![a(1), a(9)], vec![a(9), a(1)]];
        let r2 = combine_round(&reversed, ConsensusRule::Majority);
        assert_eq!(r1, r2);
        assert_eq!(r1.accepted, vec![a(1), a(9)]);
    }
}
