//! Node inventory.

use crate::node::{Node, NodeId};
use workload::params;

/// An inventory of computation nodes.
#[derive(Clone, Debug)]
pub struct Cluster {
    nodes: Vec<Node>,
    reference_rating: f64,
}

impl Cluster {
    /// Creates a cluster from explicit nodes; `reference_rating` is the
    /// rating job runtimes are expressed against.
    ///
    /// # Panics
    /// Panics if `nodes` is empty, if a node's id is not its position
    /// (`nodes[i].id == NodeId(i)`: every lookup indexes by id), or if
    /// `reference_rating` is not positive.
    pub fn new(nodes: Vec<Node>, reference_rating: f64) -> Self {
        assert!(!nodes.is_empty(), "a cluster needs at least one node");
        for (i, node) in nodes.iter().enumerate() {
            assert!(
                node.id.0 as usize == i,
                "node at position {i} has id {}; ids must be dense from 0",
                node.id.0
            );
        }
        assert!(reference_rating > 0.0, "reference rating must be > 0");
        Cluster {
            nodes,
            reference_rating,
        }
    }

    /// A homogeneous cluster of `n` nodes at the given rating (which also
    /// becomes the reference rating, so speed factors are exactly 1).
    pub fn homogeneous(n: usize, rating: f64) -> Self {
        let nodes = (0..n)
            .map(|i| Node::new(NodeId(i as u32), rating))
            .collect();
        Cluster::new(nodes, rating)
    }

    /// The paper's machine: 128 SDSC SP2 nodes at SPEC rating 168.
    pub fn sdsc_sp2() -> Self {
        Cluster::homogeneous(params::SDSC_SP2_NODES, params::SDSC_SP2_SPEC_RATING)
    }

    /// All nodes, ordered by id.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Number of nodes (= processors; nodes are single-processor).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the cluster has no nodes (unreachable by construction,
    /// provided for API completeness).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The rating runtimes are expressed against.
    pub fn reference_rating(&self) -> f64 {
        self.reference_rating
    }

    /// Speed factor of a node relative to the reference rating.
    pub fn speed_factor(&self, id: NodeId) -> f64 {
        self.nodes[id.0 as usize].speed_factor(self.reference_rating)
    }

    /// `true` when all nodes share one rating.
    pub fn is_homogeneous(&self) -> bool {
        self.nodes.windows(2).all(|w| w[0].rating == w[1].rating)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sdsc_sp2_matches_paper() {
        let c = Cluster::sdsc_sp2();
        assert_eq!(c.len(), 128);
        assert!(c.is_homogeneous());
        assert_eq!(c.speed_factor(NodeId(0)), 1.0);
        assert_eq!(c.reference_rating(), 168.0);
    }

    #[test]
    fn heterogeneous_speed_factors() {
        let nodes = vec![Node::new(NodeId(0), 168.0), Node::new(NodeId(1), 336.0)];
        let c = Cluster::new(nodes, 168.0);
        assert!(!c.is_homogeneous());
        assert_eq!(c.speed_factor(NodeId(1)), 2.0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_cluster_rejected() {
        Cluster::new(vec![], 168.0);
    }

    #[test]
    #[should_panic(expected = "ids must be dense from 0")]
    fn non_dense_node_ids_rejected() {
        Cluster::new(vec![Node::new(NodeId(5), 168.0)], 168.0);
    }
}
