//! Online recursive multi-section (Algorithm 1 of the paper).
//!
//! Every streamed node is routed down the multi-section tree: it is first
//! assigned to one of the root's children (the topmost hierarchy layer),
//! then, within the chosen block, to one of its children, and so on until a
//! leaf — i.e. an actual block / PE — is reached. Because each layer's
//! decision only depends on nodes streamed earlier, the result is *identical*
//! to running `ℓ` successive passes of the per-layer partitioner, but needs
//! only a single pass.
//!
//! One procedure, `Descent::place`, does this for every tree-scored path:
//! the sequential sink here, restreaming ([`crate::ReOms`]), and the
//! threaded driver of §3.4 ([`crate::parallel`]), which also runs the
//! threaded flat Fennel/LDG as the descent over a one-level tree. The
//! descent is read-only: it reads assignments and tree-node loads through a
//! `DescentView` (plain slices or atomics) and returns the leaf block; the
//! caller adds the node's weight along the leaf's path. It gathers the
//! node's assigned neighbours once, then per level scores the children with
//! Fennel (using the adapted `αᵢ` of §3.2 by default) or LDG through the
//! shared [`select`] and the load-keyed `BaseCache`, and keeps only the
//! neighbours below the chosen child. The hybrid mode solves the bottom
//! layers with Hashing for an additional speedup at some quality cost
//! (Theorem 3).

use crate::config::{OmsConfig, OnePassConfig, ScorerKind};
use crate::executor::{BatchExecutor, NodeSink};
use crate::hierarchy::HierarchySpec;
use crate::mstree::MultisectionTree;
use crate::onepass::{FlatObjective, StreamingPartitioner};
use crate::partition::{Partition, UNASSIGNED};
use crate::scorer::{select, select_hashing, BaseCache};
use crate::{BlockId, PartitionError, Result};
use oms_graph::{CsrGraph, EdgeWeight, InMemoryStream, NodeId, NodeStream, NodeWeight};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// The online recursive multi-section partitioner (OMS / nh-OMS).
#[derive(Clone, Debug)]
pub struct OnlineMultiSection {
    tree: MultisectionTree,
    config: OmsConfig,
}

impl OnlineMultiSection {
    /// OMS: multi-section along an explicit communication hierarchy.
    pub fn with_hierarchy(hierarchy: HierarchySpec, config: OmsConfig) -> Self {
        OnlineMultiSection {
            tree: MultisectionTree::from_hierarchy(&hierarchy),
            config,
        }
    }

    /// nh-OMS: plain `k`-way partitioning through an artificial recursive
    /// `b`-section hierarchy (`b` comes from [`OmsConfig::base_b`]).
    pub fn flat(k: u32, config: OmsConfig) -> Result<Self> {
        if k == 0 {
            return Err(PartitionError::InvalidConfig(
                "the number of blocks k must be positive".into(),
            ));
        }
        if config.base_b < 2 {
            return Err(PartitionError::InvalidConfig(
                "the multi-section base must be at least 2".into(),
            ));
        }
        Ok(OnlineMultiSection {
            tree: MultisectionTree::flat(k, config.base_b),
            config,
        })
    }

    /// Builds an OMS instance from an explicit, pre-built multi-section tree.
    pub fn with_tree(tree: MultisectionTree, config: OmsConfig) -> Self {
        OnlineMultiSection { tree, config }
    }

    /// The underlying multi-section tree.
    pub fn tree(&self) -> &MultisectionTree {
        &self.tree
    }

    /// The configuration in use.
    pub fn config(&self) -> &OmsConfig {
        &self.config
    }

    /// Flat `k`-way Fennel or LDG as the descent over a one-level tree
    /// (`k` leaves under the root). Every leaf covers one block, so its
    /// capacity is `L_max` and its adapted `α` is the global one: the same
    /// scores, bit for bit, as the flat state.
    pub(crate) fn one_level(
        k: u32,
        config: OnePassConfig,
        objective: FlatObjective,
    ) -> Result<Self> {
        let scorer = match objective {
            FlatObjective::Fennel => ScorerKind::Fennel,
            FlatObjective::Ldg => ScorerKind::Ldg,
        };
        let config = OmsConfig::default()
            .epsilon(config.epsilon)
            .gamma(config.gamma)
            .seed(config.seed)
            .scorer(scorer)
            .base_b(k.max(2));
        Self::flat(k, config)
    }

    /// The first child depth decided by Hashing: every level under the
    /// [`ScorerKind::Hashing`] scorer, the `hashing_bottom_layers` deepest
    /// levels in hybrid mode (layers count from the bottom), none otherwise.
    fn hashed_from(&self) -> usize {
        if self.config.scorer == ScorerKind::Hashing {
            return 1;
        }
        (self.tree.max_depth() + 1)
            .saturating_sub(self.config.hashing_bottom_layers)
            .max(1)
    }
}

/// Read access to the state a descent scores against: each node's block
/// and each tree node's load. Plain slices serve the sequential sink;
/// atomic slices serve the threaded driver, whose readers see the other
/// threads' assignments as they are published.
pub(crate) trait DescentView {
    /// The block of `node`, or [`UNASSIGNED`].
    fn block_of(&self, node: NodeId) -> BlockId;
    /// The current load of a tree node.
    fn load(&self, tree_node: u32) -> NodeWeight;
}

impl DescentView for (&[BlockId], &[NodeWeight]) {
    #[inline(always)]
    fn block_of(&self, node: NodeId) -> BlockId {
        self.0[node as usize]
    }

    #[inline(always)]
    fn load(&self, tree_node: u32) -> NodeWeight {
        self.1[tree_node as usize]
    }
}

/// The threaded view. Both loads are `Acquire`, pairing with the writer's
/// `Release` store of an assignment and its `AcqRel` load updates: a
/// reader that sees a node in a block also sees the weight staged for it.
impl DescentView for (&[AtomicU32], &[AtomicU64]) {
    #[inline(always)]
    fn block_of(&self, node: NodeId) -> BlockId {
        self.0[node as usize].load(Ordering::Acquire)
    }

    #[inline(always)]
    fn load(&self, tree_node: u32) -> NodeWeight {
        self.1[tree_node as usize].load(Ordering::Acquire)
    }
}

/// The read-only half of the multi-section descent: the tree, every tree
/// node's capacity `t·L_max` and `α`, and the scoring rule. Shared by all
/// threads of a threaded run.
pub(crate) struct Descent<'a> {
    tree: &'a MultisectionTree,
    capacities: Vec<NodeWeight>,
    alphas: Vec<f64>,
    /// The scoring rule of the non-hashed levels.
    objective: FlatObjective,
    gamma: f64,
    seed: u64,
    /// First child depth decided by Hashing ([`OnlineMultiSection::hashed_from`]).
    hashed_from: usize,
    max_fan_out: usize,
}

/// The per-thread half of the descent: scratch buffers, the base cache and
/// the work tally. Allocated once per pass (per chunk when threaded); the
/// steady state allocates nothing.
pub(crate) struct DescentScratch {
    /// The node's assigned neighbours still below the current tree node.
    below: Vec<(BlockId, EdgeWeight)>,
    /// Connectivity towards each child of the current tree node.
    conn: Vec<EdgeWeight>,
    bases: BaseCache,
    /// Nodes placed since the caller last drained the tally into the
    /// `NodesScored` counter (plain adds on the hot path, as in the flat
    /// state).
    pub(crate) scored: u64,
}

impl<'a> Descent<'a> {
    /// The descent of `oms` over a graph with `n` nodes, `m` edges and total
    /// node weight `total_weight`.
    pub(crate) fn new(
        oms: &'a OnlineMultiSection,
        n: usize,
        m: usize,
        total_weight: NodeWeight,
    ) -> Self {
        let tree = &oms.tree;
        let config = &oms.config;
        Descent {
            tree,
            capacities: tree.capacities(total_weight, config.epsilon),
            alphas: tree.alphas(m, n, config.alpha_mode),
            objective: match config.scorer {
                ScorerKind::Ldg => FlatObjective::Ldg,
                // Hashing never scores; the objective is unused.
                ScorerKind::Fennel | ScorerKind::Hashing => FlatObjective::Fennel,
            },
            gamma: config.gamma,
            seed: config.seed,
            hashed_from: oms.hashed_from(),
            max_fan_out: (0..tree.num_nodes() as u32)
                .map(|v| tree.children(v).len())
                .max()
                .unwrap_or(0),
        }
    }

    /// The tree the descent routes through.
    pub(crate) fn tree(&self) -> &'a MultisectionTree {
        self.tree
    }

    /// Fresh scratch for one thread.
    pub(crate) fn scratch(&self) -> DescentScratch {
        DescentScratch {
            below: Vec::new(),
            conn: vec![0; self.max_fan_out],
            bases: BaseCache::new(self.tree.num_nodes()),
            scored: 0,
        }
    }

    /// Routes `node` down the tree and returns its leaf block. Reads only:
    /// the caller records the assignment and adds `weight` along
    /// `path_of_block` of the result.
    #[inline]
    pub(crate) fn place<V: DescentView>(
        &self,
        scratch: &mut DescentScratch,
        node: NodeId,
        weight: NodeWeight,
        neighbors: impl Iterator<Item = (NodeId, EdgeWeight)>,
        view: &V,
    ) -> BlockId {
        let tree = self.tree;
        let DescentScratch {
            below,
            conn,
            bases,
            scored,
        } = scratch;
        *scored += 1;
        below.clear();
        // Hashed levels sit at the bottom, so if the top level hashes, no
        // level scores and the neighbours are never needed.
        if self.hashed_from > 1 {
            for (u, w) in neighbors {
                let b = view.block_of(u);
                if b != UNASSIGNED {
                    below.push((b, w));
                }
            }
        }
        let mut cur = tree.root();
        let mut depth = 0usize;
        loop {
            let children = tree.children(cur);
            if children.is_empty() {
                break;
            }
            let chosen = if depth + 1 >= self.hashed_from {
                // Mix the subproblem id into the seed so different
                // subproblems shuffle nodes independently.
                let seed = self.seed ^ (cur as u64).wrapping_mul(0x9E3779B97F4A7C15);
                select_hashing(children.len(), node, seed)
            } else {
                // Children have consecutive ids, so the per-tree-node
                // arrays are read as slices.
                let (first, len) = (children[0] as usize, children.len());
                let capacities = &self.capacities[first..first + len];
                let alphas = &self.alphas[first..first + len];
                let conn = &mut conn[..len];
                for &(b, w) in below.iter() {
                    conn[tree.child_index(tree.path_of_block(b)[depth]) as usize] += w;
                }
                let (objective, gamma) = (self.objective, self.gamma);
                let chosen = select(
                    len,
                    weight,
                    |i| view.load((first + i) as u32),
                    |i| capacities[i],
                    |i, load| {
                        let base = bases.get(first + i, load, |w| {
                            objective.base(w, capacities[i], alphas[i], gamma)
                        });
                        objective.combine(conn[i] as f64, base)
                    },
                );
                // Reset the touched connectivities (O(neighbours), not
                // O(fan-out)) and keep the neighbours below the chosen child,
                // none past a leaf.
                let next = children[chosen];
                let descend = !tree.children(next).is_empty();
                below.retain(|&(b, _)| {
                    let child = tree.path_of_block(b)[depth];
                    conn[tree.child_index(child) as usize] = 0;
                    descend && child == next
                });
                chosen
            };
            cur = children[chosen];
            depth += 1;
        }
        tree.leaf_block(cur)
            .expect("descent always terminates at a leaf")
    }
}

/// The multi-section descent as a [`NodeSink`]: the sequential view of
/// the assignments and tree-node weights (Lemma 1: `O(k)` of them). From
/// the second pass on (restreaming / remapping), each node's previous
/// assignment is removed along its whole tree path before the descent is
/// re-run.
pub(crate) struct OmsSink<'a> {
    descent: Descent<'a>,
    scratch: DescentScratch,
    assignments: Vec<BlockId>,
    node_weights: Vec<NodeWeight>,
    tree_weights: Vec<NodeWeight>,
    restreaming: bool,
}

impl<'a> OmsSink<'a> {
    pub(crate) fn new<S: NodeStream>(oms: &'a OnlineMultiSection, stream: &S) -> Self {
        let n = stream.num_nodes();
        let descent = Descent::new(oms, n, stream.num_edges(), stream.total_node_weight());
        OmsSink {
            scratch: descent.scratch(),
            descent,
            assignments: vec![UNASSIGNED; n],
            node_weights: vec![0; n],
            tree_weights: vec![0; oms.tree.num_nodes()],
            restreaming: false,
        }
    }

    pub(crate) fn into_partition(self) -> Partition {
        let k = self.descent.tree.num_blocks();
        Partition::from_assignments(k, self.assignments, &self.node_weights)
    }

    /// Adds `w` to every tree node on the path of `block` (subtracts it
    /// when `remove`).
    fn add_along_path(&mut self, block: BlockId, w: NodeWeight, remove: bool) {
        for &tree_node in self.descent.tree.path_of_block(block) {
            let slot = &mut self.tree_weights[tree_node as usize];
            *slot = if remove { *slot - w } else { *slot + w };
        }
    }
}

impl NodeSink for OmsSink<'_> {
    fn begin_pass(&mut self, pass: usize) {
        self.restreaming = pass > 0;
    }

    fn process(&mut self, node: oms_graph::StreamedNode<'_>) {
        let v = node.node as usize;
        if self.restreaming && self.assignments[v] != UNASSIGNED {
            self.add_along_path(self.assignments[v], self.node_weights[v], true);
            self.assignments[v] = UNASSIGNED;
        }
        let view = (&self.assignments[..], &self.tree_weights[..]);
        let block = self.descent.place(
            &mut self.scratch,
            node.node,
            node.weight,
            node.neighbors_weighted(),
            &view,
        );
        self.add_along_path(block, node.weight, false);
        self.assignments[v] = block;
        self.node_weights[v] = node.weight;
    }

    fn end_pass(&mut self, _pass: usize) {
        let scored = std::mem::take(&mut self.scratch.scored);
        oms_obs::counter_add(oms_obs::CounterId::NodesScored, scored);
    }

    fn assignments(&self) -> Option<&[BlockId]> {
        Some(&self.assignments)
    }

    fn num_blocks(&self) -> u32 {
        self.descent.tree.num_blocks()
    }

    /// Replaces the assignment array and rebuilds every tree-node weight
    /// along the blocks' paths (the executor's revert-on-worsen guard).
    fn restore(&mut self, assignments: &[BlockId]) -> bool {
        self.assignments.copy_from_slice(assignments);
        self.tree_weights.fill(0);
        for v in 0..self.assignments.len() {
            if self.assignments[v] != UNASSIGNED {
                self.add_along_path(self.assignments[v], self.node_weights[v], false);
            }
        }
        true
    }
}

impl StreamingPartitioner for OnlineMultiSection {
    fn partition_stream<S: NodeStream>(&self, stream: &mut S) -> Result<Partition> {
        let mut sink = OmsSink::new(self, stream);
        BatchExecutor::default().run(stream, &mut sink)?;
        Ok(sink.into_partition())
    }

    fn num_blocks(&self) -> u32 {
        self.tree.num_blocks()
    }

    fn name(&self) -> &'static str {
        "oms"
    }
}

impl OnlineMultiSection {
    /// Convenience wrapper streaming an in-memory graph in natural order.
    pub fn partition_graph(&self, graph: &CsrGraph) -> Result<Partition> {
        self.partition_stream(&mut InMemoryStream::new(graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AlphaMode, OmsConfig, ScorerKind};
    use crate::onepass::{Fennel, Hashing};
    use crate::OnePassConfig;
    use oms_gen::planted_partition;

    fn two_cliques() -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
                edges.push((u + 5, v + 5));
            }
        }
        edges.push((0, 5));
        CsrGraph::from_edges(10, &edges).unwrap()
    }

    #[test]
    fn oms_with_hierarchy_produces_valid_partition() {
        let g = planted_partition(200, 8, 0.2, 0.01, 3);
        let h = HierarchySpec::parse("2:2:2").unwrap();
        let oms = OnlineMultiSection::with_hierarchy(h, OmsConfig::default());
        let p = oms.partition_graph(&g).unwrap();
        assert_eq!(p.num_blocks(), 8);
        assert_eq!(p.num_nodes(), 200);
        assert!(p.validate(&vec![1; 200]));
        assert!(p.is_balanced(0.03 + 1e-9), "imbalance {}", p.imbalance());
    }

    #[test]
    fn oms_flat_produces_valid_partition_for_non_power_of_base() {
        let g = planted_partition(300, 10, 0.15, 0.01, 5);
        for k in [3u32, 5, 10, 13, 37] {
            let oms = OnlineMultiSection::flat(k, OmsConfig::default()).unwrap();
            let p = oms.partition_graph(&g).unwrap();
            assert_eq!(p.num_blocks(), k);
            assert!(
                p.is_balanced(0.03 + 1e-9),
                "k={k} imbalance {}",
                p.imbalance()
            );
            assert_eq!(p.num_nodes(), 300);
        }
    }

    #[test]
    fn oms_separates_two_cliques_with_ldg_scorer() {
        // With the LDG scorer and ε = 0, the first clique exactly fills one
        // block and the second clique is forced into the other, cutting only
        // the bridge edge (the Fennel scorer's additive penalty spreads the
        // first few nodes on such tiny graphs — see the baseline tests).
        let g = two_cliques();
        let oms =
            OnlineMultiSection::flat(2, OmsConfig::default().epsilon(0.0).scorer(ScorerKind::Ldg))
                .unwrap();
        let p = oms.partition_graph(&g).unwrap();
        assert_eq!(p.edge_cut(&g), 1);
        assert!(p.is_balanced(0.0));
    }

    #[test]
    fn nh_oms_cut_is_close_to_fennel_and_better_than_hashing() {
        // Headline relationship of the paper (Fig. 2b): Fennel cuts slightly
        // fewer edges than nh-OMS; both cut far fewer than Hashing.
        let g = planted_partition(600, 16, 0.12, 0.004, 11);
        let k = 16;
        let fennel = Fennel::new(k, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        let hashing = Hashing::new(k, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        let oms = OnlineMultiSection::flat(k, OmsConfig::default())
            .unwrap()
            .partition_graph(&g)
            .unwrap();
        let (c_f, c_h, c_o) = (fennel.edge_cut(&g), hashing.edge_cut(&g), oms.edge_cut(&g));
        assert!(c_o < c_h, "oms {c_o} must beat hashing {c_h}");
        // nh-OMS may cut somewhat more than Fennel (paper: ~5 % more); allow
        // a generous factor to keep the test robust.
        assert!(
            (c_o as f64) < 2.0 * c_f as f64 + 10.0,
            "oms {c_o} too far from fennel {c_f}"
        );
    }

    #[test]
    fn oms_single_block_assigns_everything_to_block_zero() {
        let g = two_cliques();
        let oms = OnlineMultiSection::flat(1, OmsConfig::default()).unwrap();
        let p = oms.partition_graph(&g).unwrap();
        assert!(p.assignments().iter().all(|&b| b == 0));
    }

    #[test]
    fn oms_with_ldg_scorer_works() {
        let g = planted_partition(200, 8, 0.2, 0.01, 7);
        let oms =
            OnlineMultiSection::flat(8, OmsConfig::default().scorer(ScorerKind::Ldg)).unwrap();
        let p = oms.partition_graph(&g).unwrap();
        assert!(p.is_balanced(0.03 + 1e-9));
        let hashing = Hashing::new(8, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        assert!(p.edge_cut(&g) <= hashing.edge_cut(&g));
    }

    #[test]
    fn oms_with_hashing_scorer_matches_multi_level_hashing_balance() {
        let g = planted_partition(400, 8, 0.1, 0.01, 9);
        let oms =
            OnlineMultiSection::flat(8, OmsConfig::default().scorer(ScorerKind::Hashing)).unwrap();
        let p = oms.partition_graph(&g).unwrap();
        assert_eq!(p.num_nodes(), 400);
        // Hashing ignores balance constraints but should remain statistically
        // balanced.
        assert!(p.imbalance() < 0.5, "imbalance {}", p.imbalance());
    }

    #[test]
    fn hybrid_hashing_layers_degrade_quality_but_keep_validity() {
        let g = planted_partition(500, 16, 0.12, 0.004, 13);
        let h = HierarchySpec::parse("2:2:2:2").unwrap();
        let pure = OnlineMultiSection::with_hierarchy(h.clone(), OmsConfig::default())
            .partition_graph(&g)
            .unwrap();
        let hybrid =
            OnlineMultiSection::with_hierarchy(h, OmsConfig::default().hashing_bottom_layers(2))
                .partition_graph(&g)
                .unwrap();
        assert_eq!(hybrid.num_nodes(), 500);
        assert!(hybrid.edge_cut(&g) >= pure.edge_cut(&g));
    }

    #[test]
    fn hybrid_layer_selection_counts_from_bottom() {
        let h = HierarchySpec::parse("2:2:2").unwrap();
        let oms =
            OnlineMultiSection::with_hierarchy(h, OmsConfig::default().hashing_bottom_layers(2));
        // Tree depth 3: the decision at child depth 1 (top layer) stays with
        // Fennel, the ones at depths 2 and 3 use Hashing.
        assert_eq!(oms.hashed_from(), 2);
        let all = OnlineMultiSection::with_hierarchy(
            HierarchySpec::parse("2:2:2").unwrap(),
            OmsConfig::default().hashing_bottom_layers(5),
        );
        assert_eq!(all.hashed_from(), 1);
        let none = OnlineMultiSection::flat(8, OmsConfig::default()).unwrap();
        assert_eq!(none.hashed_from(), none.tree().max_depth() + 1);
    }

    #[test]
    fn adapted_alpha_differs_from_global_alpha_in_results_or_quality() {
        let g = planted_partition(400, 16, 0.1, 0.01, 17);
        let h = HierarchySpec::parse("4:4").unwrap();
        let adapted = OnlineMultiSection::with_hierarchy(h.clone(), OmsConfig::default())
            .partition_graph(&g)
            .unwrap();
        let global = OnlineMultiSection::with_hierarchy(
            h,
            OmsConfig::default().alpha_mode(AlphaMode::Global),
        )
        .partition_graph(&g)
        .unwrap();
        // Both must be valid; they will usually differ.
        assert!(adapted.is_balanced(0.031));
        assert_eq!(global.num_nodes(), 400);
    }

    #[test]
    fn oms_is_deterministic() {
        let g = planted_partition(300, 8, 0.15, 0.01, 19);
        let make = || {
            OnlineMultiSection::flat(8, OmsConfig::default().seed(5))
                .unwrap()
                .partition_graph(&g)
                .unwrap()
        };
        assert_eq!(make(), make());
    }

    #[test]
    fn zero_blocks_is_rejected() {
        assert!(OnlineMultiSection::flat(0, OmsConfig::default()).is_err());
        assert!(OnlineMultiSection::flat(4, OmsConfig::default().base_b(1)).is_err());
    }

    #[test]
    fn streaming_partitioner_trait_is_implemented() {
        let oms = OnlineMultiSection::flat(4, OmsConfig::default()).unwrap();
        assert_eq!(oms.name(), "oms");
        assert_eq!(oms.num_blocks(), 4);
    }

    #[test]
    fn hierarchy_partition_has_lower_mapping_cost_than_hashing() {
        // The headline process-mapping claim (Fig. 2a): on a hierarchy
        // S = 2:2:2 with distances D = 1:10:100, OMS produces a mapping with
        // a far lower communication cost J than a random (Hashing)
        // assignment.
        let g = planted_partition(400, 8, 0.15, 0.004, 23);
        let h = HierarchySpec::parse("2:2:2").unwrap();
        let d = crate::DistanceSpec::paper_default();
        let cost = |p: &Partition| -> u64 {
            g.edges()
                .map(|(u, v, w)| w * d.distance(&h, p.block_of(u), p.block_of(v)))
                .sum()
        };
        let oms = OnlineMultiSection::with_hierarchy(h.clone(), OmsConfig::default())
            .partition_graph(&g)
            .unwrap();
        let hashing = Hashing::new(8, OnePassConfig::default())
            .partition_graph(&g)
            .unwrap();
        assert!(
            cost(&oms) < cost(&hashing),
            "OMS mapping cost {} must beat Hashing {}",
            cost(&oms),
            cost(&hashing)
        );
    }
}
