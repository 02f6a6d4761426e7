//! Scoring primitives shared by every scoring kernel.
//!
//! Two kernels place nodes: the flat `O(m + nk)` state of Fennel/LDG
//! ([`crate::onepass`]) and the one multi-section descent of OMS / nh-OMS
//! ([`crate::oms`]), which the threaded drivers ([`crate::parallel`]) run
//! vertex-centrically. Both pick a block (or a tree node's child) through the
//! one max-score [`select`] below, and both score a candidate as
//! `combine(conn, base)`, where `base` is the pre-evaluated penalty of
//! [`FlatObjective::base`](crate::FlatObjective::base): the flat state
//! keeps it in an eager per-block arena, the descent in the load-keyed
//! `BaseCache`.
//!
//! Every select follows the same rules: only candidates that can still take
//! the node are considered, ties break towards the lighter candidate, then
//! the lower index, and when nothing fits, the least relatively loaded
//! candidate is the fallback so the stream always makes progress.

use oms_graph::{NodeId, NodeWeight};

/// The max-score candidate among `len` candidates for a node of weight
/// `node_weight`: the feasible candidate (`weight + node_weight ≤
/// capacity`) with the highest score, ties to the lighter one, then the
/// lower index; the least relatively loaded candidate when none is
/// feasible.
///
/// `weight_of(i)` and `capacity_of(i)` describe candidate `i`, and
/// `score_of(i, weight)` scores it at the load just read. The loop is
/// branch-free in its hot comparisons: infeasible candidates are scored
/// too (the value is never used) and the running best is updated with
/// conditional moves.
#[inline(always)]
pub fn select<W, C, S>(
    len: usize,
    node_weight: NodeWeight,
    weight_of: W,
    capacity_of: C,
    mut score_of: S,
) -> usize
where
    W: Fn(usize) -> NodeWeight,
    C: Fn(usize) -> NodeWeight,
    S: FnMut(usize, NodeWeight) -> f64,
{
    let mut has_best = false;
    let mut best_i = 0usize;
    let mut best_s = 0.0f64;
    let mut best_w: NodeWeight = 0;
    for i in 0..len {
        let weight = weight_of(i);
        let s = score_of(i, weight);
        let feasible = weight + node_weight <= capacity_of(i);
        let better = feasible && (!has_best || s > best_s || (s == best_s && weight < best_w));
        best_i = if better { i } else { best_i };
        best_s = if better { s } else { best_s };
        best_w = if better { weight } else { best_w };
        has_best |= better;
    }
    if has_best {
        best_i
    } else {
        least_loaded(len, weight_of, capacity_of)
    }
}

/// The fallback of [`select`]: the candidate with the smallest relative
/// load `weight / capacity`, compared in `f64` (a `u64` cross-multiplied
/// compare could order differently for loads that round to the same
/// double); the first one on ties.
fn least_loaded<W, C>(len: usize, weight_of: W, capacity_of: C) -> usize
where
    W: Fn(usize) -> NodeWeight,
    C: Fn(usize) -> NodeWeight,
{
    let mut fallback = 0usize;
    let mut fallback_load = f64::INFINITY;
    for i in 0..len {
        let load = weight_of(i) as f64 / capacity_of(i).max(1) as f64;
        if load < fallback_load {
            fallback_load = load;
            fallback = i;
        }
    }
    fallback
}

/// Load-keyed cache of pre-evaluated penalty bases, one entry per
/// candidate (per tree node in the descent). The base
/// ([`FlatObjective::base`](crate::FlatObjective::base)) is a pure function of the candidate's load and
/// its fixed capacity and `α`, so an entry is recomputed only when the load
/// read differs from the cached one: one `powf` per observed load change
/// instead of one per candidate per node, with bit-identical scores. Keying
/// on the load rather than on assignment events keeps it correct for a
/// reader that sees other threads' updates.
pub(crate) struct BaseCache {
    /// `(load, base)` per entry, side by side so a lookup touches one line.
    entries: Vec<(NodeWeight, f64)>,
}

impl BaseCache {
    pub(crate) fn new(len: usize) -> Self {
        BaseCache {
            // `NodeWeight::MAX` never matches a real load, so every entry is
            // computed on first use.
            entries: vec![(NodeWeight::MAX, 0.0); len],
        }
    }

    /// The base of entry `idx` at load `weight`; `base(weight)` evaluates
    /// it ([`FlatObjective::base`](crate::FlatObjective::base) with the
    /// entry's parameters) on a miss.
    #[inline(always)]
    pub(crate) fn get(
        &mut self,
        idx: usize,
        weight: NodeWeight,
        base: impl FnOnce(NodeWeight) -> f64,
    ) -> f64 {
        let entry = &mut self.entries[idx];
        if entry.0 != weight {
            *entry = (weight, base(weight));
        }
        entry.1
    }
}

/// Deterministic node hash used by the Hashing scorer. Splitmix64 over the
/// node id and the seed: cheap, uniform, reproducible.
#[inline]
pub fn hash_node(node: NodeId, seed: u64) -> u64 {
    let mut x = (node as u64)
        .wrapping_add(seed)
        .wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Picks a candidate uniformly by hashing the node id.
pub fn select_hashing(num_candidates: usize, node: NodeId, seed: u64) -> usize {
    debug_assert!(num_candidates > 0);
    (hash_node(node, seed) % num_candidates as u64) as usize
}

/// The global Fennel parameter `α = √k · m / n^{3/2}` of a `k`-way
/// partitioning problem on a graph with `n` nodes and `m` edges.
pub fn fennel_alpha(k: u32, m: usize, n: usize) -> f64 {
    if n == 0 {
        return 0.0;
    }
    (k as f64).sqrt() * m as f64 / (n as f64).powf(1.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatObjective;

    /// A candidate as the tests describe it: load, capacity, connectivity.
    type Cand = (NodeWeight, NodeWeight, u64);

    /// Runs the shared select over `cands` with the objective's direct
    /// score, `α = 1`, `γ = 1.5`.
    fn pick(objective: FlatObjective, cands: &[Cand], node_weight: NodeWeight) -> usize {
        select(
            cands.len(),
            node_weight,
            |i| cands[i].0,
            |i| cands[i].1,
            |i, weight| objective.score(cands[i].2, weight, cands[i].1, 1.0, 1.5),
        )
    }

    #[test]
    fn fennel_prefers_connectivity() {
        let cands = [(10, 100, 0), (10, 100, 5)];
        assert_eq!(pick(FlatObjective::Fennel, &cands, 1), 1);
    }

    #[test]
    fn fennel_penalises_heavy_blocks() {
        // Equal connectivity: the lighter block wins through the additive
        // penalty.
        let cands = [(90, 100, 3), (10, 100, 3)];
        assert_eq!(pick(FlatObjective::Fennel, &cands, 1), 1);
    }

    #[test]
    fn select_respects_capacity() {
        // Block 1 has more neighbors but cannot take the node.
        let cands = [(10, 100, 0), (100, 100, 9)];
        assert_eq!(pick(FlatObjective::Fennel, &cands, 1), 0);
        assert_eq!(pick(FlatObjective::Ldg, &cands, 1), 0);
        // Exactly filling a block is still feasible.
        let cands = [(10, 100, 0), (95, 100, 20)];
        assert_eq!(pick(FlatObjective::Fennel, &cands, 5), 1);
    }

    #[test]
    fn fallback_picks_least_loaded_when_everything_is_full() {
        let cands = [(100, 100, 0), (99, 100, 0), (100, 100, 5)];
        assert_eq!(pick(FlatObjective::Fennel, &cands, 5), 1);
        assert_eq!(pick(FlatObjective::Ldg, &cands, 5), 1);
    }

    #[test]
    fn fallback_compares_relative_load_and_keeps_the_first_minimum() {
        // 60/100 = 0.6 beats 50/50 = 1.0 although it is heavier; of two
        // equal relative loads the lower index wins.
        let cands = [(50, 50, 0), (60, 100, 0), (30, 50, 0)];
        assert_eq!(pick(FlatObjective::Fennel, &cands, 100), 1);
        let cands = [(50, 50, 0), (40, 40, 0)];
        assert_eq!(pick(FlatObjective::Ldg, &cands, 100), 0);
    }

    #[test]
    fn ldg_prefers_connectivity_scaled_by_remaining_capacity() {
        // Block 0: 4 neighbors but nearly full; block 1: 3 neighbors, empty.
        let cands = [(90, 100, 4), (0, 100, 3)];
        assert_eq!(pick(FlatObjective::Ldg, &cands, 1), 1);
    }

    #[test]
    fn ldg_scales_by_each_candidates_own_capacity() {
        // Same load and connectivity; the larger capacity leaves more room.
        let cands = [(50, 100, 4), (50, 200, 4)];
        assert_eq!(pick(FlatObjective::Ldg, &cands, 1), 1);
    }

    #[test]
    fn ties_break_to_the_lighter_block_then_the_lower_index() {
        // No neighbors anywhere: all LDG scores are 0, lighter block wins.
        let cands = [(5, 100, 0), (2, 100, 0), (9, 100, 0)];
        assert_eq!(pick(FlatObjective::Ldg, &cands, 1), 1);
        // Identical candidates: the lowest index wins.
        let cands = [(7, 100, 1), (7, 100, 1), (7, 100, 1)];
        assert_eq!(pick(FlatObjective::Fennel, &cands, 1), 0);
        assert_eq!(pick(FlatObjective::Ldg, &cands, 1), 0);
    }

    #[test]
    fn base_cache_matches_the_direct_score_bit_for_bit() {
        let mut cache = BaseCache::new(2);
        for objective in [FlatObjective::Fennel, FlatObjective::Ldg] {
            for weight in [0u64, 1, 7, 99, 1 << 40] {
                let base = cache.get(1, weight, |w| objective.base(w, 100, 0.37, 1.5));
                let direct = objective.score(5, weight, 100, 0.37, 1.5);
                assert_eq!(objective.combine(5.0, base).to_bits(), direct.to_bits());
            }
        }
    }

    #[test]
    fn hashing_is_deterministic_and_in_range() {
        for node in 0..1000u32 {
            let a = select_hashing(7, node, 42);
            let b = select_hashing(7, node, 42);
            assert_eq!(a, b);
            assert!(a < 7);
        }
    }

    #[test]
    fn hashing_spreads_nodes_roughly_uniformly() {
        let k = 8;
        let mut counts = vec![0usize; k];
        for node in 0..8000u32 {
            counts[select_hashing(k, node, 1)] += 1;
        }
        for &c in &counts {
            assert!(c > 800 && c < 1200, "bucket count {c} far from uniform");
        }
    }

    #[test]
    fn alpha_formula() {
        // α = sqrt(k) * m / n^1.5
        let alpha = fennel_alpha(4, 1000, 100);
        assert!((alpha - 2.0 * 1000.0 / 1000.0).abs() < 1e-12);
        assert_eq!(fennel_alpha(4, 10, 0), 0.0);
    }

    #[test]
    fn fennel_score_formula() {
        let expected = 7.0 - 0.5 * 1.5 * 4.0f64.powf(0.5);
        let got = FlatObjective::Fennel.score(7, 4, 100, 0.5, 1.5);
        assert!((got - expected).abs() < 1e-12);
    }

    #[test]
    fn ldg_score_formula() {
        let got = FlatObjective::Ldg.score(4, 25, 100, 0.0, 1.5);
        assert!((got - 4.0 * 0.75).abs() < 1e-12);
    }
}
