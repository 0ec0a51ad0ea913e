//! Packet tracing for assertions and debugging.
//!
//! The world records a bounded history of transmission outcomes. Tests use
//! it to assert, e.g., that a response really was fragmented in transit or
//! that a spoofed packet reached the victim.

use crate::ip::{IpProto, Ipv4Packet};
use crate::node::NodeId;
use crate::time::SimTime;
use std::collections::VecDeque;
use std::net::Ipv4Addr;

/// A compact record of one packet transmission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the packet entered the network.
    pub time: SimTime,
    /// The transmitting node.
    pub from: NodeId,
    /// The node it was routed to, if any.
    pub to: Option<NodeId>,
    /// What happened to it.
    pub outcome: TraceOutcome,
    /// Source address on the wire (may be spoofed).
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Transport protocol.
    pub proto: IpProto,
    /// Total length in bytes.
    pub len: usize,
    /// IP identification field.
    pub id: u16,
    /// Fragment offset in bytes (0 for unfragmented).
    pub frag_offset: usize,
    /// More-fragments flag.
    pub more_fragments: bool,
}

/// Transmission outcome recorded in the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// Scheduled for delivery.
    Delivered,
    /// Lost to random packet loss.
    Lost,
    /// No node owns the destination address.
    NoRoute,
    /// Fragmented in transit by a core router (this entry describes the
    /// original packet; fragments get their own `Delivered` entries).
    FragmentedInTransit,
    /// Dropped because DF was set and the packet exceeded the path MTU;
    /// an ICMP "fragmentation needed" was generated.
    DfDropped,
    /// Routed to a hijacker instead of the legitimate owner.
    Hijacked,
}

/// A bounded in-memory packet trace.
#[derive(Debug)]
pub struct Trace {
    enabled: bool,
    capacity: usize,
    entries: VecDeque<TraceEntry>,
    total_recorded: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new(65_536)
    }
}

impl Trace {
    /// Creates an enabled trace holding at most `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Trace {
            enabled: true,
            capacity,
            entries: VecDeque::new(),
            total_recorded: 0,
        }
    }

    /// Enables or disables recording (counters keep advancing).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// `true` if recording is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    pub(crate) fn record(
        &mut self,
        time: SimTime,
        from: NodeId,
        to: Option<NodeId>,
        outcome: TraceOutcome,
        pkt: &Ipv4Packet,
    ) {
        self.total_recorded += 1;
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(TraceEntry {
            time,
            from,
            to,
            outcome,
            src: pkt.src,
            dst: pkt.dst,
            proto: pkt.proto,
            len: pkt.total_len(),
            id: pkt.id,
            frag_offset: pkt.frag_offset_bytes(),
            more_fragments: pkt.more_fragments,
        });
    }

    /// All retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Entries matching a predicate.
    pub fn filter<'a>(
        &'a self,
        mut pred: impl FnMut(&TraceEntry) -> bool + 'a,
    ) -> impl Iterator<Item = &'a TraceEntry> {
        self.entries.iter().filter(move |e| pred(e))
    }

    /// Count of entries matching a predicate.
    pub fn count(&self, pred: impl FnMut(&&TraceEntry) -> bool) -> usize {
        self.entries.iter().filter(pred).count()
    }

    /// Number of record calls made over the trace's lifetime (including
    /// while disabled or after eviction).
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// Drops all retained entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Drops all entries *and* zeroes the lifetime counter, keeping the
    /// enabled flag and capacity (world-reuse support).
    pub fn reset(&mut self) {
        self.entries.clear();
        self.total_recorded = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pkt() -> Ipv4Packet {
        Ipv4Packet::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            IpProto::Udp,
            Bytes::from_static(b"abc"),
        )
    }

    #[test]
    fn records_and_filters() {
        let mut trace = Trace::new(10);
        trace.record(
            SimTime::ZERO,
            NodeId::new(0),
            Some(NodeId::new(1)),
            TraceOutcome::Delivered,
            &pkt(),
        );
        trace.record(
            SimTime::from_secs(1),
            NodeId::new(0),
            None,
            TraceOutcome::NoRoute,
            &pkt(),
        );
        assert_eq!(trace.entries().count(), 2);
        assert_eq!(trace.count(|e| e.outcome == TraceOutcome::Delivered), 1);
        assert_eq!(trace.total_recorded(), 2);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut trace = Trace::new(2);
        for i in 0..3 {
            trace.record(
                SimTime::from_secs(i),
                NodeId::new(0),
                None,
                TraceOutcome::Delivered,
                &pkt(),
            );
        }
        assert_eq!(trace.entries().count(), 2);
        assert_eq!(
            trace.entries().next().unwrap().time,
            SimTime::from_secs(1),
            "oldest entry evicted"
        );
        assert_eq!(trace.total_recorded(), 3);
    }

    #[test]
    fn disabled_trace_counts_but_keeps_nothing() {
        let mut trace = Trace::new(10);
        trace.set_enabled(false);
        trace.record(
            SimTime::ZERO,
            NodeId::new(0),
            None,
            TraceOutcome::Delivered,
            &pkt(),
        );
        assert_eq!(trace.entries().count(), 0);
        assert_eq!(trace.total_recorded(), 1);
        assert!(!trace.is_enabled());
    }
}
