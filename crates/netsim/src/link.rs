//! Link and path models: latency, jitter, loss and MTU.
//!
//! The simulator models the Internet as a full mesh: every pair of nodes has
//! a *path* whose properties derive from a default profile plus optional
//! per-pair overrides, and each node has an *access link* whose MTU bounds
//! the path MTU. Core routers fragment (or reject, for DF) packets larger
//! than the path MTU.

use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::SimDuration;
use std::collections::HashMap;

/// A one-way latency distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
    /// Fixed delay.
    Constant(SimDuration),
    /// Uniform in `[min, max]`.
    Uniform {
        /// Lower bound.
        min: SimDuration,
        /// Upper bound (inclusive).
        max: SimDuration,
    },
    /// Normally distributed with a floor.
    Normal {
        /// Mean delay.
        mean: SimDuration,
        /// Standard deviation.
        std_dev: SimDuration,
        /// Hard lower bound applied after sampling.
        floor: SimDuration,
    },
}

impl LatencyModel {
    /// Samples a delay.
    pub fn sample(&self, rng: &mut SimRng) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                debug_assert!(min <= max, "uniform latency requires min <= max");
                let span = max.as_nanos() - min.as_nanos();
                if span == 0 {
                    min
                } else {
                    use rand::Rng;
                    SimDuration::from_nanos(min.as_nanos() + rng.gen_range(0..=span))
                }
            }
            LatencyModel::Normal {
                mean,
                std_dev,
                floor,
            } => {
                let sampled = rng.normal(mean.as_nanos() as f64, std_dev.as_nanos() as f64);
                let clamped = sampled.max(floor.as_nanos() as f64);
                SimDuration::from_nanos(clamped as u64)
            }
        }
    }

    /// A typical wide-area path: 40 ms ± 8 ms, floored at 5 ms.
    pub fn internet_default() -> Self {
        LatencyModel::Normal {
            mean: SimDuration::from_millis(40),
            std_dev: SimDuration::from_millis(8),
            floor: SimDuration::from_millis(5),
        }
    }
}

/// Properties of the path between two nodes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathProfile {
    /// One-way latency distribution.
    pub latency: LatencyModel,
    /// Independent per-packet loss probability in `[0, 1]`.
    pub loss: f64,
}

impl PathProfile {
    /// A lossless path with constant latency — convenient in tests.
    pub fn constant(latency: SimDuration) -> Self {
        PathProfile {
            latency: LatencyModel::Constant(latency),
            loss: 0.0,
        }
    }
}

impl Default for PathProfile {
    fn default() -> Self {
        PathProfile {
            latency: LatencyModel::internet_default(),
            loss: 0.0,
        }
    }
}

/// Per-node access link configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessLink {
    /// MTU of the node's access link.
    pub mtu: u16,
}

impl Default for AccessLink {
    fn default() -> Self {
        AccessLink {
            mtu: crate::ip::ETHERNET_MTU,
        }
    }
}

/// The full-mesh topology: default path profile, per-node access links and
/// per-pair overrides.
#[derive(Debug, Clone)]
pub struct Topology {
    default_path: PathProfile,
    access: Vec<AccessLink>,
    overrides: HashMap<(NodeId, NodeId), PathProfile>,
    /// MTU of the simulated core; paths never exceed it.
    core_mtu: u16,
}

impl Default for Topology {
    fn default() -> Self {
        Topology {
            default_path: PathProfile::default(),
            access: Vec::new(),
            overrides: HashMap::new(),
            core_mtu: crate::ip::ETHERNET_MTU,
        }
    }
}

impl Topology {
    /// Creates a topology with the given default path profile.
    pub fn new(default_path: PathProfile) -> Self {
        Topology {
            default_path,
            ..Topology::default()
        }
    }

    /// Registers a node's access link; called by the world as nodes join.
    pub(crate) fn register_node(&mut self, link: AccessLink) {
        self.access.push(link);
    }

    /// Sets the access-link MTU for `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node has not been registered.
    pub fn set_access_mtu(&mut self, node: NodeId, mtu: u16) {
        self.access[node.index()].mtu = mtu;
    }

    /// Sets the core MTU shared by all paths.
    pub fn set_core_mtu(&mut self, mtu: u16) {
        self.core_mtu = mtu;
    }

    /// Overrides the profile of the (directed) path `from -> to`.
    pub fn set_path(&mut self, from: NodeId, to: NodeId, profile: PathProfile) {
        self.overrides.insert((from, to), profile);
    }

    /// Overrides both directions between `a` and `b`.
    pub fn set_path_bidirectional(&mut self, a: NodeId, b: NodeId, profile: PathProfile) {
        self.overrides.insert((a, b), profile);
        self.overrides.insert((b, a), profile);
    }

    /// Changes the default profile applied to unconfigured paths.
    pub fn set_default_path(&mut self, profile: PathProfile) {
        self.default_path = profile;
    }

    /// The profile of the path `from -> to`.
    pub fn path(&self, from: NodeId, to: NodeId) -> PathProfile {
        self.overrides
            .get(&(from, to))
            .copied()
            .unwrap_or(self.default_path)
    }

    /// The path MTU between two nodes: the minimum of both access links and
    /// the core.
    pub fn path_mtu(&self, from: NodeId, to: NodeId) -> u16 {
        let a = self
            .access
            .get(from.index())
            .copied()
            .unwrap_or_default()
            .mtu;
        let b = self.access.get(to.index()).copied().unwrap_or_default().mtu;
        a.min(b).min(self.core_mtu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_latency_is_exact() {
        let mut rng = SimRng::seed_from(1);
        let m = LatencyModel::Constant(SimDuration::from_millis(25));
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(25));
        }
    }

    #[test]
    fn uniform_latency_in_bounds() {
        let mut rng = SimRng::seed_from(2);
        let (min, max) = (SimDuration::from_millis(10), SimDuration::from_millis(20));
        let m = LatencyModel::Uniform { min, max };
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= min && d <= max, "sample {d} out of bounds");
        }
    }

    #[test]
    fn degenerate_uniform_is_constant() {
        let mut rng = SimRng::seed_from(2);
        let d = SimDuration::from_millis(7);
        let m = LatencyModel::Uniform { min: d, max: d };
        assert_eq!(m.sample(&mut rng), d);
    }

    #[test]
    fn normal_latency_respects_floor() {
        let mut rng = SimRng::seed_from(3);
        let m = LatencyModel::Normal {
            mean: SimDuration::from_millis(10),
            std_dev: SimDuration::from_millis(50),
            floor: SimDuration::from_millis(5),
        };
        for _ in 0..1000 {
            assert!(m.sample(&mut rng) >= SimDuration::from_millis(5));
        }
    }

    #[test]
    fn path_mtu_is_min_of_links_and_core() {
        let mut topo = Topology::default();
        topo.register_node(AccessLink { mtu: 1500 });
        topo.register_node(AccessLink { mtu: 576 });
        assert_eq!(path_between(&topo), 576);
        topo.set_core_mtu(548);
        assert_eq!(path_between(&topo), 548);
        topo.set_access_mtu(NodeId::new(0), 100);
        assert_eq!(path_between(&topo), 100);
    }

    fn path_between(topo: &Topology) -> u16 {
        topo.path_mtu(NodeId::new(0), NodeId::new(1))
    }

    #[test]
    fn overrides_apply_per_direction() {
        let mut topo = Topology::default();
        topo.register_node(AccessLink::default());
        topo.register_node(AccessLink::default());
        let (a, b) = (NodeId::new(0), NodeId::new(1));
        let fast = PathProfile::constant(SimDuration::from_millis(1));
        topo.set_path(a, b, fast);
        assert_eq!(topo.path(a, b), fast);
        assert_ne!(topo.path(b, a), fast);
        topo.set_path_bidirectional(a, b, fast);
        assert_eq!(topo.path(b, a), fast);
    }
}
