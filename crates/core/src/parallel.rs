//! Shared-memory parallelisation (§3.4 of the paper).
//!
//! The descent that places every node ([`crate::oms`]) is vertex-centric,
//! so it is parallelised by splitting the stream of nodes among threads.
//! The paper's OpenMP `parallel for` becomes the batch executor's parallel
//! dispatch ([`BatchExecutor::run_parallel`]): contiguous node chunks
//! balanced by *edge mass* rather than node count, so skewed degree
//! distributions do not starve some threads while a hub-heavy chunk hogs
//! another. Each chunk runs the same read-only descent as the sequential
//! sink, with per-thread scratch and base cache, over an atomic view of
//! the shared state:
//!
//! * the tree-node weights, updated with atomic additions so that the
//!   balance constraint stays consistent, and
//! * the assignment array, written once per node by exactly one thread and
//!   read (racily but harmlessly) by the others when they look up the blocks
//!   of already-streamed neighbors.
//!
//! Threaded flat Fennel/LDG is the same driver over a one-level tree. As in
//! the paper, a block could in principle be overloaded if several threads
//! decide to use its last free slot simultaneously; this is rare and
//! deliberately not synchronised.

use crate::config::OnePassConfig;
use crate::executor::{
    measure_pass, BatchExecutor, PassOutcome, PassTracker, PassTrajectory, RestreamOptions,
};
use crate::oms::{Descent, OnlineMultiSection};
use crate::partition::{Partition, UNASSIGNED};
use crate::scorer::hash_node;
use crate::{BlockId, Result};
use oms_graph::{CsrGraph, InMemoryStream};
use oms_obs::Stopwatch;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Parallel Hashing: embarrassingly parallel, provided for the scalability
/// comparison (it is so cheap that parallel overheads dominate, exactly as
/// the paper observes).
pub fn hashing_parallel(
    graph: &CsrGraph,
    k: u32,
    config: OnePassConfig,
    threads: usize,
) -> Result<Partition> {
    let n = graph.num_nodes();
    let mut assignments: Vec<BlockId> = vec![UNASSIGNED; n];
    BatchExecutor::default().run_parallel_mut(graph, threads, &mut assignments, |lo, _hi, out| {
        for (slot, v) in out.iter_mut().zip(lo..) {
            *slot = (hash_node(v, config.seed) % k as u64) as BlockId;
        }
    });
    Ok(Partition::from_assignments(
        k,
        assignments,
        graph.node_weights(),
    ))
}

impl OnlineMultiSection {
    /// Shared-memory parallel OMS / nh-OMS over an in-memory graph.
    ///
    /// Semantically identical to [`OnlineMultiSection::partition_graph`]
    /// except that nodes streamed concurrently by other threads may not yet
    /// be visible when a node gathers its neighbors' assignments — the same
    /// relaxation the paper's OpenMP implementation makes.
    pub fn partition_graph_parallel(&self, graph: &CsrGraph, threads: usize) -> Result<Partition> {
        self.partition_graph_parallel_restream(graph, threads, 1, 0.0, false)
            .map(|(p, _)| p)
    }

    /// Multi-pass parallel OMS: up to `passes` parallel passes; from the
    /// second pass on, a node's weight is removed along its whole tree path
    /// before the descent is re-run against the previous pass's assignment
    /// (restreaming / remapping). Per-pass quality is measured on the
    /// in-memory graph, and the shared [`PassTracker`] applies the
    /// sequential engine's convergence early exit and revert-on-worsen
    /// guard ([`BatchExecutor::run_restream`]). With `threads > 1` the moves
    /// inside one pass are racy, so the trajectory — while always
    /// non-increasing — is not deterministic.
    pub fn partition_graph_parallel_restream(
        &self,
        graph: &CsrGraph,
        threads: usize,
        passes: usize,
        convergence: f64,
        tracked: bool,
    ) -> Result<(Partition, PassTrajectory)> {
        let tree = self.tree();
        let n = graph.num_nodes();
        let passes = passes.max(1);
        let descent = Descent::new(self, n, graph.num_edges(), graph.total_node_weight());

        let assignments: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(UNASSIGNED)).collect();
        let tree_weights: Vec<AtomicU64> =
            (0..tree.num_nodes()).map(|_| AtomicU64::new(0)).collect();
        let mut tracker = PassTracker::new(RestreamOptions::tracked(passes, convergence));

        for pass in 0..passes {
            let clock = Stopwatch::start();
            let moved = parallel_pass(graph, threads, pass, &descent, &assignments, &tree_weights);
            let seconds = clock.seconds();
            if !tracked && passes == 1 {
                break;
            }
            let snapshot: Vec<BlockId> = assignments
                .iter()
                .map(|a| a.load(Ordering::Relaxed))
                .collect();
            let (edge_cut, imbalance) = measure_pass(
                &mut InMemoryStream::new(graph),
                &snapshot,
                tree.num_blocks(),
            )?;
            let last = pass + 1 == passes;
            match tracker.observe(last, moved, seconds, edge_cut, imbalance, &snapshot) {
                PassOutcome::Continue => {}
                PassOutcome::Stop => break,
                PassOutcome::Revert(best) => {
                    for w in &tree_weights {
                        w.store(0, Ordering::Relaxed);
                    }
                    for (v, &b) in best.iter().enumerate() {
                        assignments[v].store(b, Ordering::Relaxed);
                        if b == UNASSIGNED {
                            continue;
                        }
                        let w = graph.node_weight(v as u32);
                        for &tree_node in tree.path_of_block(b) {
                            tree_weights[tree_node as usize].fetch_add(w, Ordering::Relaxed);
                        }
                    }
                    break;
                }
            }
        }
        let assignments = assignments.into_iter().map(AtomicU32::into_inner).collect();
        Ok((
            Partition::from_assignments(tree.num_blocks(), assignments, graph.node_weights()),
            tracker.finish(),
        ))
    }
}

/// One vertex-centric parallel pass of the multi-section descent. Returns
/// the number of nodes whose block changed.
fn parallel_pass(
    graph: &CsrGraph,
    threads: usize,
    pass: usize,
    descent: &Descent<'_>,
    assignments: &[AtomicU32],
    tree_weights: &[AtomicU64],
) -> usize {
    let tree = descent.tree();
    let moved = AtomicUsize::new(0);
    let scored = AtomicU64::new(0);
    BatchExecutor::default().run_parallel(graph, threads, |lo, hi| {
        let mut scratch = descent.scratch();
        let view = (assignments, tree_weights);
        let mut local_moved = 0usize;
        for v in lo..hi {
            let node_weight = graph.node_weight(v);
            let old = if pass > 0 {
                // Restreaming: publish the unassignment (swap on the slot)
                // before removing the node along its previous tree path, so
                // concurrently-read tree weights are only ever overstated
                // mid-move, never understated.
                let prev = assignments[v as usize].swap(UNASSIGNED, Ordering::AcqRel);
                if prev != UNASSIGNED {
                    for &tree_node in tree.path_of_block(prev) {
                        tree_weights[tree_node as usize].fetch_sub(node_weight, Ordering::AcqRel);
                    }
                }
                prev
            } else {
                UNASSIGNED
            };
            let block = descent.place(
                &mut scratch,
                v,
                node_weight,
                graph.neighbors_weighted(v),
                &view,
            );
            // Mirror image of the unassignment: stage the weight along the
            // leaf's path, then publish the assignment.
            for &tree_node in tree.path_of_block(block) {
                tree_weights[tree_node as usize].fetch_add(node_weight, Ordering::AcqRel);
            }
            assignments[v as usize].store(block, Ordering::Release);
            if block != old {
                local_moved += 1;
            }
        }
        moved.fetch_add(local_moved, Ordering::Relaxed);
        scored.fetch_add(scratch.scored, Ordering::Relaxed);
    });
    // The observer slot is thread-local: the per-thread tallies reach it
    // from the driver thread.
    oms_obs::counter_add(oms_obs::CounterId::NodesScored, scored.into_inner());
    moved.into_inner()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::onepass::{Fennel, FlatObjective, Ldg, StreamingPartitioner};
    use crate::restream::{ReFennel, ReOms};
    use crate::{HierarchySpec, OmsConfig, ScorerKind};
    use oms_gen::planted_partition;

    fn one_level(k: u32, objective: FlatObjective) -> OnlineMultiSection {
        OnlineMultiSection::one_level(k, OnePassConfig::default(), objective).unwrap()
    }

    fn hierarchy(spec: &str, config: OmsConfig) -> OnlineMultiSection {
        OnlineMultiSection::with_hierarchy(HierarchySpec::parse(spec).unwrap(), config)
    }

    #[test]
    fn parallel_hashing_matches_sequential_hashing() {
        let g = planted_partition(300, 4, 0.1, 0.01, 3);
        let cfg = OnePassConfig::default().seed(7);
        let seq = crate::Hashing::new(8, cfg).partition_graph(&g).unwrap();
        let par = hashing_parallel(&g, 8, cfg, 4).unwrap();
        assert_eq!(
            seq, par,
            "hashing is deterministic, threads must not matter"
        );
    }

    #[test]
    fn parallel_fennel_produces_valid_balanced_partition() {
        let g = planted_partition(600, 8, 0.1, 0.005, 5);
        let p = one_level(8, FlatObjective::Fennel)
            .partition_graph_parallel(&g, 4)
            .unwrap();
        assert_eq!(p.num_nodes(), 600);
        assert!(p.validate(&vec![1; 600]));
        assert!(p.imbalance() < 0.1, "imbalance {}", p.imbalance());
    }

    #[test]
    fn parallel_ldg_produces_valid_partition() {
        let g = planted_partition(400, 8, 0.1, 0.01, 7);
        let p = one_level(8, FlatObjective::Ldg)
            .partition_graph_parallel(&g, 3)
            .unwrap();
        assert_eq!(p.num_nodes(), 400);
        assert!(p.imbalance() < 0.2);
    }

    #[test]
    fn single_thread_matches_the_sequential_kernel() {
        // With one thread the chunked driver processes nodes in natural
        // order, so the threaded descent must coincide with the sequential
        // kernel of every row: the descent over hierarchy, irregular,
        // hybrid and LDG trees, and the flat state for Fennel/LDG.
        let g = planted_partition(300, 8, 0.12, 0.01, 9);
        let cfg = OnePassConfig::default();
        let threaded = |oms: &OnlineMultiSection| oms.partition_graph_parallel(&g, 1).unwrap();
        let descent = |oms: OnlineMultiSection| (oms.partition_graph(&g).unwrap(), threaded(&oms));
        let rows = [
            (
                "oms 4:4:4",
                descent(hierarchy("4:4:4", OmsConfig::default())),
            ),
            (
                "nh-oms 8",
                descent(OnlineMultiSection::flat(8, OmsConfig::default()).unwrap()),
            ),
            (
                "nh-oms 37",
                descent(OnlineMultiSection::flat(37, OmsConfig::default()).unwrap()),
            ),
            (
                "oms 2:2:2, hybrid=1",
                descent(hierarchy(
                    "2:2:2",
                    OmsConfig::default().hashing_bottom_layers(1),
                )),
            ),
            (
                "oms 4:4:4, LDG",
                descent(hierarchy(
                    "4:4:4",
                    OmsConfig::default().scorer(ScorerKind::Ldg),
                )),
            ),
            (
                "fennel 16",
                (
                    Fennel::new(16, cfg).partition_graph(&g).unwrap(),
                    threaded(&one_level(16, FlatObjective::Fennel)),
                ),
            ),
            (
                "ldg 16",
                (
                    Ldg::new(16, cfg).partition_graph(&g).unwrap(),
                    threaded(&one_level(16, FlatObjective::Ldg)),
                ),
            ),
            (
                "oms 4:4, passes=3",
                (
                    ReOms::new(hierarchy("4:4", OmsConfig::default()), 3)
                        .partition_graph(&g)
                        .unwrap(),
                    hierarchy("4:4", OmsConfig::default())
                        .partition_graph_parallel_restream(&g, 1, 3, 0.0, false)
                        .unwrap()
                        .0,
                ),
            ),
            (
                "fennel 8, passes=3",
                (
                    ReFennel::new(8, cfg, 3).partition_graph(&g).unwrap(),
                    one_level(8, FlatObjective::Fennel)
                        .partition_graph_parallel_restream(&g, 1, 3, 0.0, false)
                        .unwrap()
                        .0,
                ),
            ),
        ];
        for (name, (sequential, threaded)) in rows {
            assert_eq!(
                sequential, threaded,
                "{name}: T = 1 differs from sequential"
            );
        }
    }

    #[test]
    fn parallel_oms_many_threads_still_beats_hashing() {
        let g = planted_partition(800, 16, 0.08, 0.003, 13);
        let oms = hierarchy("4:4", OmsConfig::default());
        let p = oms.partition_graph_parallel(&g, 8).unwrap();
        let hash = hashing_parallel(&g, 16, OnePassConfig::default(), 8).unwrap();
        assert_eq!(p.num_nodes(), 800);
        assert!(p.validate(&vec![1; 800]));
        assert!(p.edge_cut(&g) < hash.edge_cut(&g));
        // Atomic weight updates keep the imbalance low even under contention.
        assert!(p.imbalance() < 0.25, "imbalance {}", p.imbalance());
    }

    #[test]
    fn parallel_fennel_balances_skewed_degrees_across_threads() {
        // A graph with a few hubs: the edge-mass chunking must still produce
        // a valid, reasonably balanced partition.
        let g = oms_gen::barabasi_albert(800, 6, 11);
        let p = one_level(8, FlatObjective::Fennel)
            .partition_graph_parallel(&g, 4)
            .unwrap();
        assert_eq!(p.num_nodes(), 800);
        assert!(p.validate(&vec![1; 800]));
        assert!(p.imbalance() < 0.25, "imbalance {}", p.imbalance());
    }

    #[test]
    fn parallel_oms_on_empty_graph() {
        let g = CsrGraph::empty(0);
        let oms = OnlineMultiSection::flat(4, OmsConfig::default()).unwrap();
        let p = oms.partition_graph_parallel(&g, 4).unwrap();
        assert_eq!(p.num_nodes(), 0);
    }

    #[test]
    fn move_protocol_never_understates_a_visible_assignment() {
        // Regression for the unassign ordering bug: the kernels used to
        // `fetch_sub` the weight *before* clearing the assignment slot,
        // leaving a window where a concurrent scorer saw the node in its
        // block but its weight already gone from the load vector. The fixed
        // protocol is: swap the slot to UNASSIGNED, then subtract; add,
        // then publish the new assignment. This walks every observation
        // point of that four-step protocol and checks the invariant scoring
        // threads rely on — whenever the slot points at a block, the
        // block's weight includes the node (overstatement is allowed,
        // understatement never).
        let w = 5u64;
        let slot = AtomicU32::new(0);
        let weights = [AtomicU64::new(w), AtomicU64::new(0)];
        let check = |step: &str| {
            let b = slot.load(Ordering::Acquire);
            if b != UNASSIGNED {
                assert!(
                    weights[b as usize].load(Ordering::Acquire) >= w,
                    "block {b} visibly underweighted after {step}"
                );
            }
        };
        check("init");
        // Step 1: publish the unassignment first (kernel: swap).
        let old = slot.swap(UNASSIGNED, Ordering::AcqRel);
        assert_eq!(old, 0);
        check("swap");
        // Step 2: only then retire the weight.
        weights[old as usize].fetch_sub(w, Ordering::AcqRel);
        check("fetch_sub");
        // Step 3: stage the weight in the target block...
        weights[1].fetch_add(w, Ordering::AcqRel);
        check("fetch_add");
        // Step 4: ...and only then publish the assignment.
        slot.store(1, Ordering::Release);
        check("store");
    }

    #[test]
    fn parallel_restream_stress_stays_consistent() {
        // Multi-threaded, multi-pass restreaming under contention: whatever
        // interleaving the threads produce, the unassign/assign protocol
        // must keep the shared load vector consistent enough that the final
        // partition is complete and within the racy-capacity slack. An
        // ordering bug here shows up as a u64 wrap-around (a block weight
        // near 2^64 makes every block look full and the fallback path
        // explodes the imbalance) or as systematic capacity overshoot.
        let g = planted_partition(600, 8, 0.1, 0.01, 29);
        for seed in 0..4 {
            let cfg = OnePassConfig::default().seed(seed);
            let oms = OnlineMultiSection::one_level(8, cfg, FlatObjective::Fennel).unwrap();
            let (p, trajectory) = oms
                .partition_graph_parallel_restream(&g, 4, 3, 0.0, true)
                .unwrap();
            assert_eq!(p.num_nodes(), 600);
            assert!(p.validate(&vec![1; 600]));
            assert!(p.imbalance() < 0.25, "imbalance {}", p.imbalance());
            assert!(trajectory.is_non_increasing(), "{trajectory:?}");
        }
    }
}
