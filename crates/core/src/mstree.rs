//! The multi-section tree.
//!
//! Online recursive multi-section keeps the *whole hierarchy* of blocks and
//! sub-blocks in memory (Lemma 1 of the paper shows this is only `O(k)`
//! weights). The tree comes in two flavours:
//!
//! * built from a communication hierarchy `S = a1:…:aℓ` — every internal
//!   node at depth `d` has `a_{ℓ−d}` children and all leaves sit at depth
//!   `ℓ`; the leaf order matches the PE numbering of
//!   [`crate::HierarchySpec`], so a leaf assignment *is* a process mapping;
//! * built by recursive `b`-section for an arbitrary number of blocks `k`
//!   (Algorithm 2, `BuildHierarchy`) — used by nh-OMS when no hierarchy is
//!   given. When `k` is not a power of `b` the tree is irregular and blocks
//!   cover different numbers of original blocks `t`, which is reflected in
//!   their capacities (`t·L_max`) and their adapted Fennel `α`.

use crate::hierarchy::HierarchySpec;
use crate::scorer::fennel_alpha;
use crate::{AlphaMode, BlockId};
use oms_graph::NodeWeight;

const NO_PARENT: u32 = u32::MAX;

/// A static tree of partitioning subproblems.
#[derive(Clone, Debug)]
pub struct MultisectionTree {
    parent: Vec<u32>,
    children: Vec<Vec<u32>>,
    child_index: Vec<u32>,
    depth: Vec<u32>,
    covered: Vec<u32>,
    leaf_block: Vec<Option<BlockId>>,
    /// For every original block id: the tree nodes on the path from depth 1
    /// down to its leaf (the root is implicit).
    block_paths: Vec<Vec<u32>>,
    root: u32,
    k: u32,
    max_depth: usize,
}

impl MultisectionTree {
    /// Builds the tree mirroring a communication hierarchy `S = a1:…:aℓ`.
    ///
    /// The root's children correspond to the *top* hierarchy level `aℓ`
    /// (assigned first by Algorithm 1), leaves to single PEs.
    pub fn from_hierarchy(hierarchy: &HierarchySpec) -> Self {
        let k = hierarchy.total_blocks();
        let factors = hierarchy.factors();
        let levels = factors.len();
        let mut tree = MultisectionTree::empty(k);
        let root = tree.add_node(NO_PARENT, 0, k);
        tree.root = root;
        // Recursive splitting over contiguous block-id ranges. At depth `d`
        // the children count is `a_{ℓ-d}` (factors are stored lowest level
        // first).
        let mut stack: Vec<(u32, u32, u32)> = vec![(root, 0, k)];
        while let Some((node, lo, hi)) = stack.pop() {
            let d = tree.depth[node as usize] as usize;
            if hi - lo == 1 {
                tree.leaf_block[node as usize] = Some(lo);
                continue;
            }
            let fan_out = factors[levels - 1 - d];
            let step = (hi - lo) / fan_out;
            for i in 0..fan_out {
                let c_lo = lo + i * step;
                let c_hi = c_lo + step;
                let child = tree.add_node(node, (d + 1) as u32, c_hi - c_lo);
                stack.push((child, c_lo, c_hi));
            }
        }
        tree.finalise();
        tree
    }

    /// Builds an artificial recursive `b`-section tree over `k` blocks
    /// (Algorithm 2 generalised from bisection to `b`-section).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `base_b < 2`.
    pub fn flat(k: u32, base_b: u32) -> Self {
        assert!(k > 0, "cannot build a tree over zero blocks");
        assert!(base_b >= 2, "the multi-section base must be at least 2");
        let mut tree = MultisectionTree::empty(k);
        let root = tree.add_node(NO_PARENT, 0, k);
        tree.root = root;
        let mut stack: Vec<(u32, u32, u32)> = vec![(root, 0, k)];
        while let Some((node, lo, hi)) = stack.pop() {
            let size = hi - lo;
            if size == 1 {
                tree.leaf_block[node as usize] = Some(lo);
                continue;
            }
            let d = tree.depth[node as usize];
            let fan_out = base_b.min(size);
            // Split the covered range into `fan_out` parts whose sizes differ
            // by at most one (BuildHierarchy's ⌊(kL+kR)/2⌋ split generalised).
            let base = size / fan_out;
            let remainder = size % fan_out;
            let mut c_lo = lo;
            for i in 0..fan_out {
                let extent = base + if i < remainder { 1 } else { 0 };
                let child = tree.add_node(node, d + 1, extent);
                stack.push((child, c_lo, c_lo + extent));
                c_lo += extent;
            }
            debug_assert_eq!(c_lo, hi);
        }
        tree.finalise();
        tree
    }

    fn empty(k: u32) -> Self {
        MultisectionTree {
            parent: Vec::new(),
            children: Vec::new(),
            child_index: Vec::new(),
            depth: Vec::new(),
            covered: Vec::new(),
            leaf_block: Vec::new(),
            block_paths: vec![Vec::new(); k as usize],
            root: 0,
            k,
            max_depth: 0,
        }
    }

    fn add_node(&mut self, parent: u32, depth: u32, covered: u32) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(parent);
        self.children.push(Vec::new());
        self.depth.push(depth);
        self.covered.push(covered);
        self.leaf_block.push(None);
        if parent == NO_PARENT {
            self.child_index.push(0);
        } else {
            let idx = self.children[parent as usize].len() as u32;
            self.children[parent as usize].push(id);
            self.child_index.push(idx);
        }
        self.max_depth = self.max_depth.max(depth as usize);
        id
    }

    fn finalise(&mut self) {
        // Children were pushed via a stack, so their order within a parent
        // may be reversed relative to the covered block ranges; restore the
        // creation order, which is ascending node id (ranges were created in
        // ascending order for `from_hierarchy` and `flat` alike).
        for kids in &mut self.children {
            kids.sort_unstable();
        }
        for (parent, kids) in self.children.iter().enumerate() {
            for (idx, &child) in kids.iter().enumerate() {
                let _ = parent;
                self.child_index[child as usize] = idx as u32;
            }
        }
        // Record the root-to-leaf path of every block.
        for node in 0..self.parent.len() as u32 {
            if let Some(block) = self.leaf_block[node as usize] {
                let mut path = Vec::with_capacity(self.depth[node as usize] as usize);
                let mut cur = node;
                while cur != self.root {
                    path.push(cur);
                    cur = self.parent[cur as usize];
                }
                path.reverse();
                self.block_paths[block as usize] = path;
            }
        }
    }

    /// Total number of tree nodes (internal + leaves).
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// The root node id.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Number of original blocks `k` covered by the whole tree.
    pub fn num_blocks(&self) -> u32 {
        self.k
    }

    /// Maximum leaf depth (the number of assignment layers `ℓ`).
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Children of a node (empty for leaves), in order. Their ids are
    /// consecutive: both builders create all children of a node at once.
    pub fn children(&self, node: u32) -> &[u32] {
        &self.children[node as usize]
    }

    /// Parent of a node (`None` for the root).
    pub fn parent(&self, node: u32) -> Option<u32> {
        let p = self.parent[node as usize];
        (p != NO_PARENT).then_some(p)
    }

    /// Depth of a node (root = 0).
    pub fn depth(&self, node: u32) -> u32 {
        self.depth[node as usize]
    }

    /// Number of original blocks covered by a node (`t` in §3.3).
    pub fn covered(&self, node: u32) -> u32 {
        self.covered[node as usize]
    }

    /// Index of a node within its parent's child list.
    pub fn child_index(&self, node: u32) -> u32 {
        self.child_index[node as usize]
    }

    /// The original block id of a leaf node, `None` for internal nodes.
    pub fn leaf_block(&self, node: u32) -> Option<BlockId> {
        self.leaf_block[node as usize]
    }

    /// The tree nodes on the path from depth 1 to the leaf of `block`.
    pub fn path_of_block(&self, block: BlockId) -> &[u32] {
        &self.block_paths[block as usize]
    }

    /// The leaf node of `block`. For the degenerate single-block tree the
    /// root itself is the leaf.
    pub fn leaf_of_block(&self, block: BlockId) -> u32 {
        self.block_paths[block as usize]
            .last()
            .copied()
            .unwrap_or(self.root)
    }

    /// Capacity of every tree node: `t · L_max` where `L_max` is the balance
    /// constraint of the original `k`-way problem (§3.2/§3.3).
    pub fn capacities(&self, total_weight: NodeWeight, epsilon: f64) -> Vec<NodeWeight> {
        let lmax = crate::Partition::capacity(total_weight, self.k, epsilon);
        self.covered
            .iter()
            .map(|&t| t as NodeWeight * lmax)
            .collect()
    }

    /// Fennel `α` of every tree node seen as a *candidate block* of its
    /// parent's subproblem.
    ///
    /// With [`AlphaMode::Adapted`] the value is `√(k/t)·m/n^{3/2}`, which
    /// specialises to the paper's `αᵢ = α/√(Π_{r<i} a_r)` for homogeneous
    /// hierarchies and to the `√t`-scaled correction of §3.3 for
    /// heterogeneous subproblems. With [`AlphaMode::Global`] every node gets
    /// the original `k`-way `α`.
    pub fn alphas(&self, m: usize, n: usize, mode: AlphaMode) -> Vec<f64> {
        let global = fennel_alpha(self.k, m, n);
        match mode {
            AlphaMode::Global => vec![global; self.num_nodes()],
            AlphaMode::Adapted => self
                .covered
                .iter()
                .map(|&t| global / (t as f64).sqrt())
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hierarchy_tree_shape() {
        let h = HierarchySpec::parse("2:3").unwrap(); // k = 6, top level 3
        let tree = MultisectionTree::from_hierarchy(&h);
        assert_eq!(tree.num_blocks(), 6);
        assert_eq!(tree.max_depth(), 2);
        assert_eq!(tree.children(tree.root()).len(), 3);
        for &child in tree.children(tree.root()) {
            assert_eq!(tree.children(child).len(), 2);
            assert_eq!(tree.covered(child), 2);
        }
        // 1 root + 3 internals + 6 leaves
        assert_eq!(tree.num_nodes(), 10);
    }

    #[test]
    fn hierarchy_leaf_numbering_matches_pe_ids() {
        // S = 2:2: PE id = x1 + 2*x2. The root's first child covers PEs {0,1}
        // (x2 = 0), its second child PEs {2,3}.
        let h = HierarchySpec::parse("2:2").unwrap();
        let tree = MultisectionTree::from_hierarchy(&h);
        let top = tree.children(tree.root());
        let blocks_under = |node: u32| -> Vec<BlockId> {
            let mut blocks: Vec<BlockId> = (0..tree.num_blocks())
                .filter(|&b| tree.path_of_block(b).contains(&node))
                .collect();
            blocks.sort_unstable();
            blocks
        };
        assert_eq!(blocks_under(top[0]), vec![0, 1]);
        assert_eq!(blocks_under(top[1]), vec![2, 3]);
    }

    #[test]
    fn block_paths_have_hierarchy_depth() {
        let h = HierarchySpec::parse("4:16:8").unwrap();
        let tree = MultisectionTree::from_hierarchy(&h);
        assert_eq!(tree.num_blocks(), 512);
        for b in 0..512 {
            let path = tree.path_of_block(b);
            assert_eq!(path.len(), 3);
            assert_eq!(tree.leaf_block(*path.last().unwrap()), Some(b));
            // The path must be a parent chain starting below the root.
            assert_eq!(tree.parent(path[0]), Some(tree.root()));
            for w in path.windows(2) {
                assert_eq!(tree.parent(w[1]), Some(w[0]));
            }
        }
    }

    #[test]
    fn storage_is_linear_in_k() {
        // Lemma 1: the whole tree stores at most 2k block weights.
        for spec in ["2:2:2:2:2", "4:4:4", "2:3:5"] {
            let h = HierarchySpec::parse(spec).unwrap();
            let tree = MultisectionTree::from_hierarchy(&h);
            assert!(tree.num_nodes() <= 2 * tree.num_blocks() as usize + 1);
        }
    }

    #[test]
    fn flat_tree_power_of_base_is_uniform() {
        let tree = MultisectionTree::flat(16, 4);
        assert_eq!(tree.max_depth(), 2);
        assert_eq!(tree.children(tree.root()).len(), 4);
        for &c in tree.children(tree.root()) {
            assert_eq!(tree.children(c).len(), 4);
            assert_eq!(tree.covered(c), 4);
        }
    }

    #[test]
    fn flat_tree_heterogeneous_coverage() {
        // k = 5 with bisection: root children cover 3 and 2 blocks.
        let tree = MultisectionTree::flat(5, 2);
        let top = tree.children(tree.root());
        assert_eq!(top.len(), 2);
        let mut coverage: Vec<u32> = top.iter().map(|&c| tree.covered(c)).collect();
        coverage.sort_unstable();
        assert_eq!(coverage, vec![2, 3]);
        // Every block has a distinct leaf.
        let mut leaves: Vec<u32> = (0..5).map(|b| tree.leaf_of_block(b)).collect();
        leaves.sort_unstable();
        leaves.dedup();
        assert_eq!(leaves.len(), 5);
    }

    #[test]
    fn flat_tree_single_block() {
        let tree = MultisectionTree::flat(1, 4);
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.max_depth(), 0);
        assert_eq!(tree.leaf_block(tree.root()), Some(0));
        assert_eq!(tree.path_of_block(0).len(), 0);
    }

    #[test]
    fn capacities_scale_with_coverage() {
        let tree = MultisectionTree::flat(5, 2);
        // total weight 100, eps 0 → Lmax = 20; root capacity 100.
        let caps = tree.capacities(100, 0.0);
        assert_eq!(caps[tree.root() as usize], 100);
        let top = tree.children(tree.root());
        let mut top_caps: Vec<_> = top.iter().map(|&c| caps[c as usize]).collect();
        top_caps.sort_unstable();
        assert_eq!(top_caps, vec![40, 60]);
    }

    #[test]
    fn adapted_alpha_matches_paper_formula_for_uniform_hierarchy() {
        // S = 4:4, k = 16. A child of the root covers t = 4 blocks, so its α
        // must be α_global / 2 = α / sqrt(Π_{r<ℓ} a_r).
        let h = HierarchySpec::parse("4:4").unwrap();
        let tree = MultisectionTree::from_hierarchy(&h);
        let m = 10_000;
        let n = 1_000;
        let alphas = tree.alphas(m, n, AlphaMode::Adapted);
        let global = fennel_alpha(16, m, n);
        let top_child = tree.children(tree.root())[0];
        assert!((alphas[top_child as usize] - global / 2.0).abs() < 1e-12);
        let leaf = tree.leaf_of_block(0);
        assert!((alphas[leaf as usize] - global).abs() < 1e-12);
    }

    #[test]
    fn global_alpha_is_constant() {
        let tree = MultisectionTree::flat(7, 2);
        let alphas = tree.alphas(100, 50, AlphaMode::Global);
        let first = alphas[0];
        assert!(alphas.iter().all(|&a| (a - first).abs() < 1e-15));
    }

    #[test]
    fn child_indices_are_consistent() {
        let tree = MultisectionTree::flat(13, 4);
        for node in 0..tree.num_nodes() as u32 {
            for (i, &child) in tree.children(node).iter().enumerate() {
                assert_eq!(tree.child_index(child) as usize, i);
                assert_eq!(tree.parent(child), Some(node));
                assert_eq!(tree.depth(child), tree.depth(node) + 1);
            }
        }
    }

    #[test]
    fn children_have_consecutive_ids() {
        let trees = [
            MultisectionTree::flat(37, 4),
            MultisectionTree::flat(4096, 4096),
            MultisectionTree::from_hierarchy(&HierarchySpec::parse("2:3:4").unwrap()),
        ];
        for tree in trees {
            for node in 0..tree.num_nodes() as u32 {
                let kids = tree.children(node);
                for (i, &child) in kids.iter().enumerate() {
                    assert_eq!(child, kids[0] + i as u32);
                }
            }
        }
    }

    #[test]
    fn covered_counts_sum_to_parent() {
        let tree = MultisectionTree::flat(37, 3);
        for node in 0..tree.num_nodes() as u32 {
            let kids = tree.children(node);
            if !kids.is_empty() {
                let sum: u32 = kids.iter().map(|&c| tree.covered(c)).sum();
                assert_eq!(sum, tree.covered(node));
            }
        }
    }

    #[test]
    #[should_panic]
    fn flat_tree_with_base_one_panics() {
        MultisectionTree::flat(8, 1);
    }
}
