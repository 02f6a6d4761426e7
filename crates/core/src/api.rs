//! The unified, object-safe partitioning API.
//!
//! Every algorithm family in this workspace — the flat one-pass baselines
//! ([`Hashing`], [`Ldg`], [`Fennel`]), online recursive multi-section
//! ([`OnlineMultiSection`], both OMS and nh-OMS), the restreaming variants,
//! the shared-memory parallel drivers and the in-memory multilevel baseline
//! (registered by `oms-multilevel`) — is reachable through three pieces:
//!
//! * [`Partitioner`] — a dyn-compatible trait: `run` takes any
//!   `&mut dyn NodeStream` and returns a [`PartitionReport`]. It is
//!   blanket-implemented for every [`StreamingPartitioner`], so existing
//!   algorithms participate for free.
//! * [`JobSpec`] — a parseable, round-trippable description of a
//!   partitioning job (`"oms:4:16:8@eps=0.03,threads=8"`), with
//!   [`JobSpec::build`] as the factory producing a `Box<dyn Partitioner>`.
//! * The **dispatch registry** — a shared name → constructor table
//!   ([`register_algorithm`], [`registered_algorithms`]) that downstream
//!   crates extend (`oms_multilevel::register_algorithms()` adds the
//!   `multilevel` and `rms` baselines) and every frontend (CLI, bench
//!   harness, examples) resolves jobs against.
//!
//! ## Job specification grammar
//!
//! ```text
//! <algorithm>:<shape>[@<options>]
//!
//! shape    := k                   flat k-way partitioning, e.g. "fennel:64"
//!           | a1:a2:...:aℓ        hierarchical multi-section, e.g. "oms:4:16:8"
//! options  := key=value[,key=value]*
//!             eps=<f64>           allowed imbalance ε          (default 0.03)
//!             seed=<u64>          RNG seed                     (default 0)
//!             threads=<usize>     shared-memory parallelism    (default 1)
//!             shards=<usize>      shard workers of the deterministic
//!                                 sharded engine (S-way bulk-synchronous
//!                                 rounds with seeded message exchange;
//!                                 only for algorithms marked shardable;
//!                                 mutually exclusive with threads>1)
//!                                                              (default 1)
//!             passes=<usize>      restreaming passes (upper bound
//!                                 when conv= is set)           (default 1)
//!             conv=<f64>          relative edge-cut improvement below
//!                                 which a multi-pass run stops early
//!                                 (0 = fixed passes; the run always stops
//!                                 once no node moves)          (default 0)
//!             base=<u32>          nh-OMS multi-section base    (default 4)
//!             hybrid=<usize>      bottom tree layers solved with Hashing
//!                                 (the hybrid mapping of §3.2, default 0)
//!             buf=<nodes>         buffer size of the buffered streaming
//!                                 algorithms, in nodes (0 = algorithm
//!                                 default)
//!             lambda=<f64>        balance weight λ of the vertex-cut edge
//!                                 partitioners (the `e-*` algorithms of
//!                                 `oms-edgepart`; HDRF's balance knob)
//!                                 (default 1)
//!             drift=<f64>         drift threshold of dynamic maintenance:
//!                                 past it, the `oms-dynamic` layer falls
//!                                 back to a full restream (default 0.2)
//!             repair=<policy>     local-repair policy of dynamic
//!                                 maintenance: off | local | boundary
//!                                 (default boundary)
//!             window=<usize>      sliding-window cadence of dynamic
//!                                 maintenance: quality checkpoints are
//!                                 taken every `window` delta batches (the
//!                                 final batch always checkpoints)
//!                                 (default 1)
//!             dist=d1:d2:...      PE distances; enables the mapping
//!                                 objective J in the report
//! ```
//!
//! Algorithm names starting with `e-` (`e-hash`, `e-dbh`, `e-greedy`)
//! describe **edge partitioning** jobs under the vertex-cut objective; they
//! share this grammar (the shape is the flat block count `k`, `lambda=`
//! tunes the balance term) but are dispatched through the edge-partitioner
//! registry of the `oms-edgepart` crate rather than [`JobSpec::build`].
//!
//! `Display` renders the canonical form (options at non-default values only,
//! in the fixed order above), so `JobSpec` round-trips through strings.
//!
//! ## Example
//!
//! ```
//! use oms_core::api::JobSpec;
//! use oms_graph::{CsrGraph, InMemoryStream};
//!
//! let graph = CsrGraph::from_edges(8, &[
//!     (0, 1), (1, 2), (2, 3), (3, 0),
//!     (4, 5), (5, 6), (6, 7), (7, 4),
//!     (0, 4),
//! ]).unwrap();
//! let job: JobSpec = "oms:2:2@dist=1:10".parse().unwrap();
//! let partitioner = job.build().unwrap();
//! let report = partitioner.run(&mut InMemoryStream::new(&graph)).unwrap();
//! assert_eq!(report.partition.num_blocks(), 4);
//! assert!(report.mapping_cost.unwrap() >= report.edge_cut);
//! ```

use crate::config::{OmsConfig, OnePassConfig};
use crate::executor::{PassStats, PassTrajectory};
use crate::hierarchy::{DistanceSpec, HierarchySpec};
use crate::oms::OnlineMultiSection;
use crate::onepass::{Fennel, FlatObjective, Hashing, Ldg, StreamingPartitioner};
use crate::parallel::hashing_parallel;
use crate::partition::Partition;
use crate::restream::{ReFennel, ReHashing, ReLdg, ReOms};
use crate::shard::{ShardStats, ShardedFlat};
use crate::{BlockId, PartitionError, Result};
use oms_graph::{CsrGraph, EdgeWeight, NodeId, NodeStream, NodeWeight};
use oms_obs::Stopwatch;
use std::borrow::Cow;
use std::fmt;
use std::str::FromStr;
use std::sync::{Mutex, OnceLock};

// ----------------------------------------------------------------- the trait

/// The unified result of one partitioning run.
///
/// Fields mirror what the `oms-metrics` evaluation pipeline consumes: the
/// partition itself, the edge-cut `cut(Π)`, the imbalance
/// `max_i c(V_i)/(c(V)/k) − 1`, the process-mapping objective `J(C, D, Π)`
/// when a topology was attached to the job, and the wall time of the
/// partitioning pass (metric passes are excluded).
#[derive(Clone, Debug)]
pub struct PartitionReport {
    /// Registry name of the algorithm that produced the partition.
    pub algorithm: String,
    /// Edge-cut of the produced partition.
    pub edge_cut: u64,
    /// Imbalance of the produced partition.
    pub imbalance: f64,
    /// Mapping cost `J`, present when the job carries a topology (`dist=`).
    pub mapping_cost: Option<u64>,
    /// Wall time of the partitioning pass in seconds.
    pub seconds: f64,
    /// Per-pass quality trajectory of a multi-pass (restreaming) run, in
    /// pass order. Empty for algorithms that do not track passes.
    pub trajectory: Vec<PassStats>,
    /// Message statistics of runs driven by the sharded engine
    /// (`shards=S` jobs): per-shard message counts, rounds, and the
    /// seeded message-log hash. `None` for single-replica runs.
    pub shard_stats: Option<ShardStats>,
    /// The partition itself.
    pub partition: Partition,
}

impl PartitionReport {
    /// Number of blocks of the underlying partition.
    pub fn num_blocks(&self) -> u32 {
        self.partition.num_blocks()
    }

    /// Whether the partition satisfies the balance constraint for `epsilon`.
    pub fn is_balanced(&self, epsilon: f64) -> bool {
        self.partition.is_balanced(epsilon)
    }

    /// Total node weight `c(V)` of the partitioned graph. Equals `n` on
    /// unweighted graphs.
    pub fn total_node_weight(&self) -> NodeWeight {
        self.partition.total_weight()
    }

    /// Weight of the heaviest block `max_i c(V_i)` — the quantity the
    /// balance constraint `L_max` bounds. Equals the largest block *size*
    /// only on unweighted graphs.
    pub fn max_block_weight(&self) -> NodeWeight {
        self.partition.max_block_weight()
    }
}

/// An object-safe partitioner: any algorithm that can turn a node stream
/// into a [`Partition`].
///
/// The trait is deliberately dyn-compatible so heterogeneous frontends can
/// hold `Box<dyn Partitioner>` built from a [`JobSpec`] and drive any
/// algorithm — streaming, restreaming, parallel or in-memory — through one
/// entry point. It is blanket-implemented for every
/// [`StreamingPartitioner`]; algorithms that need random access to the graph
/// (parallel drivers, multilevel) implement it directly and use
/// [`stream_graph`] to borrow (or, from a pure stream, collect) one.
pub trait Partitioner {
    /// Registry name of the algorithm (used in reports).
    fn name(&self) -> String;

    /// Number of blocks this partitioner produces.
    fn num_blocks(&self) -> u32;

    /// Computes the partition for the nodes delivered by `stream`.
    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition>;

    /// Like [`Partitioner::partition`], but additionally returns the
    /// per-pass quality trajectory of multi-pass (restreaming) runs. The
    /// default wraps [`Partitioner::partition`] with an empty trajectory;
    /// restreaming algorithms override it.
    fn partition_tracked(
        &self,
        stream: &mut dyn NodeStream,
    ) -> Result<(Partition, PassTrajectory)> {
        Ok((self.partition(stream)?, PassTrajectory::default()))
    }

    /// The topology this job maps onto, when one was specified.
    fn topology(&self) -> Option<(&HierarchySpec, &DistanceSpec)> {
        None
    }

    /// Message statistics of the most recent run, for partitioners driven
    /// by the sharded engine ([`ShardedFlat`]).
    /// `None` for the classic single-replica engines.
    fn shard_stats(&self) -> Option<ShardStats> {
        None
    }

    /// Runs the partitioner and evaluates the result into a
    /// [`PartitionReport`] (edge-cut, imbalance, optional mapping cost `J`,
    /// wall time). The final edge-cut is taken from the engine's last
    /// metric pass when a trajectory was tracked; untracked runs pay one
    /// extra metric pass over the stream. `seconds` covers everything
    /// [`Partitioner::partition_tracked`] does — for multi-pass runs that
    /// includes the engine's per-pass metric passes (the per-pass
    /// [`PassStats::seconds`] exclude them).
    fn run(&self, stream: &mut dyn NodeStream) -> Result<PartitionReport> {
        let clock = Stopwatch::start();
        let (partition, trajectory) = self.partition_tracked(stream)?;
        let seconds = clock.seconds();
        let edge_cut = match trajectory.final_edge_cut() {
            // The trajectory's last accepted pass is the returned
            // partition; its cut was already measured stream-side.
            Some(cut) => cut,
            None => {
                stream.reset()?;
                stream_edge_cut(stream, partition.assignments())?
            }
        };
        let mapping_cost = match self.topology() {
            Some((hierarchy, distances)) => {
                stream.reset()?;
                Some(stream_mapping_cost(
                    stream,
                    partition.assignments(),
                    hierarchy,
                    distances,
                )?)
            }
            None => None,
        };
        Ok(PartitionReport {
            algorithm: self.name(),
            edge_cut,
            imbalance: partition.imbalance(),
            mapping_cost,
            seconds,
            trajectory: trajectory.stats,
            shard_stats: self.shard_stats(),
            partition,
        })
    }
}

impl<T: StreamingPartitioner> Partitioner for T {
    fn name(&self) -> String {
        StreamingPartitioner::name(self).to_string()
    }

    fn num_blocks(&self) -> u32 {
        StreamingPartitioner::num_blocks(self)
    }

    fn partition(&self, mut stream: &mut dyn NodeStream) -> Result<Partition> {
        self.partition_stream(&mut stream)
    }

    fn partition_tracked(
        &self,
        mut stream: &mut dyn NodeStream,
    ) -> Result<(Partition, PassTrajectory)> {
        self.partition_stream_tracked(&mut stream)
    }
}

// ------------------------------------------------------------ stream metrics

/// Weighted edge-cut of `assignments`, computed with one pass over the
/// stream. An edge incident to an unassigned node counts as cut.
///
/// This is a thin wrapper around [`crate::executor::measure_pass`] — the
/// *one* weighted edge-walk in the workspace — so the cut reported here can
/// never drift from the per-pass cut the restreaming engine measures.
pub fn stream_edge_cut(stream: &mut dyn NodeStream, assignments: &[BlockId]) -> Result<u64> {
    crate::executor::measure_pass(stream, assignments, 0).map(|(cut, _)| cut)
}

/// Mapping cost `J(C, D, Π) = Σ_{u,v} ω(u,v) · D(Π(u), Π(v))`, computed with
/// one pass over the stream.
pub fn stream_mapping_cost(
    stream: &mut dyn NodeStream,
    assignments: &[BlockId],
    hierarchy: &HierarchySpec,
    distances: &DistanceSpec,
) -> Result<u64> {
    let mut twice = 0u64;
    stream.for_each_node(&mut |node| {
        let own = assignments[node.node as usize];
        for (u, w) in node.neighbors_weighted() {
            twice += w * distances.distance(hierarchy, own, assignments[u as usize]);
        }
    })?;
    Ok(twice / 2)
}

/// The stream's graph for a random-access algorithm: borrowed when the
/// stream already holds one in memory ([`NodeStream::as_graph`]), otherwise
/// collected once out of one stream pass.
///
/// Random-access algorithms behind the unified API (threaded drivers,
/// multilevel) call this; only streams without an in-memory graph trade the
/// streaming memory guarantee for applicability.
pub fn stream_graph<'a>(stream: &'a mut dyn NodeStream) -> Result<Cow<'a, CsrGraph>> {
    if stream.as_graph().is_some() {
        // Downgrade to a shared borrow for the full lifetime; probing first
        // keeps that borrow off the fallback path below.
        let stream: &'a dyn NodeStream = stream;
        return Ok(Cow::Borrowed(stream.as_graph().expect("probed above")));
    }
    let n = stream.num_nodes();
    let mut node_weights: Vec<NodeWeight> = vec![1; n];
    let mut adjacency: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    let mut edge_weights: Vec<Vec<EdgeWeight>> = vec![Vec::new(); n];
    stream.for_each_node(&mut |node| {
        let i = node.node as usize;
        node_weights[i] = node.weight;
        adjacency[i] = node.neighbors.to_vec();
        edge_weights[i] = node.edge_weights.to_vec();
    })?;
    let mut xadj = Vec::with_capacity(n + 1);
    xadj.push(0usize);
    let mut adjncy = Vec::new();
    let mut eweights = Vec::new();
    for i in 0..n {
        adjncy.extend_from_slice(&adjacency[i]);
        eweights.extend_from_slice(&edge_weights[i]);
        xadj.push(adjncy.len());
    }
    CsrGraph::from_csr(xadj, adjncy, eweights, node_weights)
        .map(Cow::Owned)
        .map_err(PartitionError::Graph)
}

/// An owned copy of the stream's graph ([`stream_graph`], cloned when
/// borrowed), for callers that must keep it past the stream.
pub fn materialize_stream(stream: &mut dyn NodeStream) -> Result<CsrGraph> {
    stream_graph(stream).map(Cow::into_owned)
}

// -------------------------------------------------------- parallel adapters

/// Adapter running parallel Hashing behind the object-safe API.
struct ParallelHashing {
    k: u32,
    config: OnePassConfig,
    threads: usize,
}

impl Partitioner for ParallelHashing {
    fn name(&self) -> String {
        "hashing".to_string()
    }

    fn num_blocks(&self) -> u32 {
        self.k
    }

    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        let graph = stream_graph(stream)?;
        hashing_parallel(&graph, self.k, self.config, self.threads)
    }
}

/// Adapter running the vertex-centric parallel descent behind the
/// object-safe API: threaded OMS / nh-OMS, and threaded flat Fennel/LDG as
/// the descent over a one-level tree. `passes > 1` restreams the graph with
/// the same kernel.
struct ParallelOms {
    name: &'static str,
    oms: OnlineMultiSection,
    threads: usize,
    passes: usize,
    convergence: f64,
}

impl ParallelOms {
    fn run(
        &self,
        stream: &mut dyn NodeStream,
        tracked: bool,
    ) -> Result<(Partition, PassTrajectory)> {
        let graph = stream_graph(stream)?;
        self.oms.partition_graph_parallel_restream(
            &graph,
            self.threads,
            self.passes,
            self.convergence,
            tracked,
        )
    }
}

impl Partitioner for ParallelOms {
    fn name(&self) -> String {
        self.name.to_string()
    }

    fn num_blocks(&self) -> u32 {
        self.oms.tree().num_blocks()
    }

    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        Ok(self.run(stream, false)?.0)
    }

    fn partition_tracked(
        &self,
        stream: &mut dyn NodeStream,
    ) -> Result<(Partition, PassTrajectory)> {
        self.run(stream, true)
    }
}

/// The partitioner produced by [`JobSpec::build`]: the algorithm picked from
/// the registry, labelled with its registry name and optionally carrying the
/// job's topology for mapping-cost evaluation.
struct JobPartitioner {
    name: String,
    topology: Option<(HierarchySpec, DistanceSpec)>,
    inner: Box<dyn Partitioner>,
}

impl Partitioner for JobPartitioner {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn num_blocks(&self) -> u32 {
        self.inner.num_blocks()
    }

    fn partition(&self, stream: &mut dyn NodeStream) -> Result<Partition> {
        self.inner.partition(stream)
    }

    fn partition_tracked(
        &self,
        stream: &mut dyn NodeStream,
    ) -> Result<(Partition, PassTrajectory)> {
        self.inner.partition_tracked(stream)
    }

    fn topology(&self) -> Option<(&HierarchySpec, &DistanceSpec)> {
        self.topology.as_ref().map(|(h, d)| (h, d))
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        self.inner.shard_stats()
    }
}

// ----------------------------------------------------------------- job spec

/// Default allowed imbalance ε (the paper's 3 %).
pub const DEFAULT_EPSILON: f64 = 0.03;
/// Default nh-OMS multi-section base (the paper's tuned `b = 4`).
pub const DEFAULT_BASE_B: u32 = 4;
/// Default balance weight λ of the vertex-cut edge partitioners (HDRF's
/// recommended λ = 1: replica affinity and balance weighted equally).
pub const DEFAULT_LAMBDA: f64 = 1.0;
/// Default drift threshold of dynamic maintenance (`drift=`): a full
/// restream triggers once moved mass plus cut regression exceed 20 % since
/// the last full pass.
pub const DEFAULT_DRIFT: f64 = 0.2;

/// How dynamic maintenance (`oms-dynamic`) repairs a partition as deltas
/// arrive — the `repair=` job option.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RepairPolicy {
    /// Apply graph mutations and load bookkeeping only; no node is ever
    /// re-scored (newly inserted nodes are still placed once).
    Off,
    /// Re-score exactly the nodes a delta touches (the endpoints of a
    /// changed edge, the former neighbors of a deleted node).
    Local,
    /// Like `Local`, plus one cascade wave: when a touched node changes
    /// blocks, its boundary neighbors are re-scored as well.
    #[default]
    Boundary,
}

impl RepairPolicy {
    /// The canonical spelling used by the job grammar.
    pub fn name(&self) -> &'static str {
        match self {
            RepairPolicy::Off => "off",
            RepairPolicy::Local => "local",
            RepairPolicy::Boundary => "boundary",
        }
    }

    /// Parses a `repair=` value.
    pub fn parse(s: &str) -> Result<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" => Ok(RepairPolicy::Off),
            "local" => Ok(RepairPolicy::Local),
            "boundary" => Ok(RepairPolicy::Boundary),
            other => Err(PartitionError::InvalidSpec(format!(
                "unknown repair policy '{other}' (known: off, local, boundary)"
            ))),
        }
    }
}

impl fmt::Display for RepairPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The block structure a job asks for: flat `k`-way or hierarchical.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobShape {
    /// Plain `k`-way partitioning.
    Flat(u32),
    /// Multi-section along a communication hierarchy `a1:a2:…:aℓ`.
    Hierarchy(HierarchySpec),
}

impl JobShape {
    /// Total number of blocks / PEs.
    pub fn num_blocks(&self) -> u32 {
        match self {
            JobShape::Flat(k) => *k,
            JobShape::Hierarchy(h) => h.total_blocks(),
        }
    }

    /// The hierarchy, when the shape is hierarchical.
    pub fn hierarchy(&self) -> Option<&HierarchySpec> {
        match self {
            JobShape::Flat(_) => None,
            JobShape::Hierarchy(h) => Some(h),
        }
    }
}

impl fmt::Display for JobShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobShape::Flat(k) => write!(f, "{k}"),
            JobShape::Hierarchy(h) => write!(f, "{}", h.to_string_spec()),
        }
    }
}

/// A complete, serialisable description of one partitioning job.
///
/// See the [module documentation](self) for the string grammar.
/// `JobSpec` ↔ string conversion round-trips: `Display` prints the
/// canonical form and [`FromStr`] parses it back to an equal value.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Registry name of the algorithm (`hashing`, `ldg`, `fennel`, `oms`,
    /// `nh-oms`, `multilevel`, …).
    pub algorithm: String,
    /// Flat `k` or hierarchy.
    pub shape: JobShape,
    /// Allowed imbalance ε.
    pub epsilon: f64,
    /// RNG seed.
    pub seed: u64,
    /// Shared-memory threads (`> 1` selects the parallel drivers).
    pub threads: usize,
    /// Shard workers (`> 1` selects the deterministic sharded engine for
    /// algorithms whose registry entry supports it). Mutually exclusive
    /// with `threads > 1`.
    pub shards: usize,
    /// Stream passes (`> 1` selects the restreaming variants; an upper
    /// bound when `convergence` is set).
    pub passes: usize,
    /// Relative edge-cut improvement below which a multi-pass run stops
    /// early (`0.0` = run the fixed number of passes; the engine still
    /// stops once no node moves between passes).
    pub convergence: f64,
    /// Multi-section base for nh-OMS.
    pub base_b: u32,
    /// Number of bottom tree layers solved with Hashing (the hybrid mapping
    /// of §3.2); only meaningful for `oms` / `nh-oms`.
    pub hashing_bottom_layers: usize,
    /// Buffer size (in nodes) of the buffered streaming algorithms; `0`
    /// selects the algorithm's default.
    pub buffer: usize,
    /// Balance weight λ of the vertex-cut edge partitioners (the `e-*`
    /// algorithms); larger values trade replication factor for edge-count
    /// balance. Ignored by node partitioners.
    pub lambda: f64,
    /// Drift threshold of dynamic maintenance: once cumulative moved mass
    /// plus cut regression since the last full pass exceed this fraction,
    /// the `oms-dynamic` layer falls back to a full restream. Ignored by
    /// one-shot runs.
    pub drift: f64,
    /// Local-repair policy of dynamic maintenance. Ignored by one-shot
    /// runs.
    pub repair: RepairPolicy,
    /// Sliding-window cadence of dynamic maintenance: quality checkpoints
    /// are taken every `window` delta batches (the final batch of a trace
    /// always checkpoints, whatever the cadence). Ignored by one-shot runs.
    pub window: usize,
    /// PE distances; when present, [`Partitioner::run`] also reports the
    /// mapping objective `J`. Requires a hierarchical shape.
    pub distances: Option<DistanceSpec>,
}

impl JobSpec {
    /// A flat `k`-way job with default options.
    pub fn flat(algorithm: impl Into<String>, k: u32) -> Self {
        JobSpec {
            algorithm: algorithm.into(),
            shape: JobShape::Flat(k),
            epsilon: DEFAULT_EPSILON,
            seed: 0,
            threads: 1,
            shards: 1,
            passes: 1,
            convergence: 0.0,
            base_b: DEFAULT_BASE_B,
            hashing_bottom_layers: 0,
            buffer: 0,
            lambda: DEFAULT_LAMBDA,
            drift: DEFAULT_DRIFT,
            repair: RepairPolicy::default(),
            window: 1,
            distances: None,
        }
    }

    /// A hierarchical job with default options.
    pub fn hierarchical(algorithm: impl Into<String>, hierarchy: HierarchySpec) -> Self {
        let mut spec = JobSpec::flat(algorithm, 0);
        spec.shape = JobShape::Hierarchy(hierarchy);
        spec
    }

    /// Parses the `<algorithm>:<shape>[@<options>]` form (same as
    /// [`FromStr`]).
    pub fn parse(s: &str) -> Result<Self> {
        s.parse()
    }

    /// Sets the allowed imbalance ε.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the number of shared-memory threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the number of shard workers of the deterministic sharded
    /// engine.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the number of restreaming passes.
    pub fn passes(mut self, passes: usize) -> Self {
        self.passes = passes;
        self
    }

    /// Sets the convergence threshold of multi-pass runs (relative
    /// edge-cut improvement below which the run stops early).
    pub fn convergence(mut self, min_improvement: f64) -> Self {
        self.convergence = min_improvement;
        self
    }

    /// Sets the nh-OMS multi-section base.
    pub fn base_b(mut self, base_b: u32) -> Self {
        self.base_b = base_b;
        self
    }

    /// Solves the given number of bottom tree layers with Hashing (the
    /// hybrid mapping of §3.2).
    pub fn hashing_bottom_layers(mut self, layers: usize) -> Self {
        self.hashing_bottom_layers = layers;
        self
    }

    /// Sets the buffer size (in nodes) of the buffered streaming algorithms.
    pub fn buffer(mut self, nodes: usize) -> Self {
        self.buffer = nodes;
        self
    }

    /// Sets the balance weight λ of the vertex-cut edge partitioners.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the drift threshold of dynamic maintenance.
    pub fn drift(mut self, drift: f64) -> Self {
        self.drift = drift;
        self
    }

    /// Sets the local-repair policy of dynamic maintenance.
    pub fn repair(mut self, repair: RepairPolicy) -> Self {
        self.repair = repair;
        self
    }

    /// Sets the sliding-window checkpoint cadence of dynamic maintenance.
    pub fn window(mut self, window: usize) -> Self {
        self.window = window;
        self
    }

    /// Attaches PE distances (enables the mapping objective `J`).
    pub fn distances(mut self, distances: DistanceSpec) -> Self {
        self.distances = Some(distances);
        self
    }

    /// Total number of blocks / PEs the job produces.
    pub fn num_blocks(&self) -> u32 {
        self.shape.num_blocks()
    }

    /// The flat one-pass configuration corresponding to this job.
    pub fn one_pass_config(&self) -> OnePassConfig {
        OnePassConfig::default()
            .epsilon(self.epsilon)
            .seed(self.seed)
    }

    /// The OMS configuration corresponding to this job.
    pub fn oms_config(&self) -> OmsConfig {
        OmsConfig::default()
            .epsilon(self.epsilon)
            .seed(self.seed)
            .base_b(self.base_b)
            .hashing_bottom_layers(self.hashing_bottom_layers)
    }

    /// Builds the partitioner this job describes, dispatching through the
    /// shared algorithm registry.
    ///
    /// The returned `Box<dyn Partitioner>` reports under the registry name
    /// and, when `dist=` was given, evaluates the mapping objective `J` in
    /// [`Partitioner::run`].
    pub fn build(&self) -> Result<Box<dyn Partitioner>> {
        let info = find_algorithm(&self.algorithm).ok_or_else(|| {
            let known: Vec<&str> = registered_algorithms().iter().map(|a| a.name).collect();
            PartitionError::InvalidSpec(format!(
                "unknown algorithm '{}' (registered: {})",
                self.algorithm,
                known.join(", ")
            ))
        })?;
        if self.num_blocks() == 0 {
            return Err(PartitionError::InvalidConfig(
                "the number of blocks k must be positive".into(),
            ));
        }
        if self.passes == 0 {
            return Err(PartitionError::InvalidConfig(
                "passes must be at least 1".into(),
            ));
        }
        if self.threads == 0 {
            return Err(PartitionError::InvalidConfig(
                "threads must be at least 1".into(),
            ));
        }
        if self.shards == 0 {
            return Err(PartitionError::InvalidConfig(
                "shards must be at least 1".into(),
            ));
        }
        if self.shards > 1 && !info.supports_sharding {
            return Err(PartitionError::InvalidConfig(format!(
                "algorithm '{}' does not support the sharded engine (shards=)",
                info.name
            )));
        }
        if self.shards > 1 && self.threads > 1 {
            return Err(PartitionError::InvalidConfig(
                "shards= and threads= are mutually exclusive: the sharded engine \
                 owns its workers"
                    .into(),
            ));
        }
        if !self.epsilon.is_finite() || self.epsilon < 0.0 {
            return Err(PartitionError::InvalidConfig(
                "epsilon must be non-negative".into(),
            ));
        }
        if !self.convergence.is_finite() || self.convergence < 0.0 {
            return Err(PartitionError::InvalidConfig(
                "conv must be non-negative".into(),
            ));
        }
        if !self.lambda.is_finite() || self.lambda < 0.0 {
            return Err(PartitionError::InvalidConfig(
                "lambda must be non-negative".into(),
            ));
        }
        if !self.drift.is_finite() || self.drift <= 0.0 {
            return Err(PartitionError::InvalidConfig(
                "drift must be positive".into(),
            ));
        }
        if self.window == 0 {
            return Err(PartitionError::InvalidConfig(
                "window must be at least 1".into(),
            ));
        }
        if self.convergence > 0.0 && self.passes <= 1 {
            return Err(PartitionError::InvalidConfig(
                "conv= only applies to multi-pass runs; set passes=<N> (the pass budget) as well"
                    .into(),
            ));
        }
        let inner = (info.build)(self)?;
        let topology = match (&self.shape, &self.distances) {
            (_, None) => None,
            (JobShape::Hierarchy(h), Some(d)) => {
                if d.num_levels() < h.num_levels() {
                    return Err(PartitionError::InvalidSpec(format!(
                        "dist= has {} levels but the hierarchy has {}",
                        d.num_levels(),
                        h.num_levels()
                    )));
                }
                Some((h.clone(), d.clone()))
            }
            (JobShape::Flat(_), Some(_)) => {
                return Err(PartitionError::InvalidSpec(
                    "dist= requires a hierarchical shape (a1:a2:...)".into(),
                ))
            }
        };
        Ok(Box::new(JobPartitioner {
            name: info.name.to_string(),
            topology,
            inner,
        }))
    }
}

impl fmt::Display for JobSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.algorithm, self.shape)?;
        let mut options: Vec<String> = Vec::new();
        if self.epsilon != DEFAULT_EPSILON {
            options.push(format!("eps={}", self.epsilon));
        }
        if self.seed != 0 {
            options.push(format!("seed={}", self.seed));
        }
        if self.threads != 1 {
            options.push(format!("threads={}", self.threads));
        }
        if self.shards != 1 {
            options.push(format!("shards={}", self.shards));
        }
        if self.passes != 1 {
            options.push(format!("passes={}", self.passes));
        }
        if self.convergence != 0.0 {
            options.push(format!("conv={}", self.convergence));
        }
        if self.base_b != DEFAULT_BASE_B {
            options.push(format!("base={}", self.base_b));
        }
        if self.hashing_bottom_layers != 0 {
            options.push(format!("hybrid={}", self.hashing_bottom_layers));
        }
        if self.buffer != 0 {
            options.push(format!("buf={}", self.buffer));
        }
        if self.lambda != DEFAULT_LAMBDA {
            options.push(format!("lambda={}", self.lambda));
        }
        if self.drift != DEFAULT_DRIFT {
            options.push(format!("drift={}", self.drift));
        }
        if self.repair != RepairPolicy::default() {
            options.push(format!("repair={}", self.repair));
        }
        if self.window != 1 {
            options.push(format!("window={}", self.window));
        }
        if let Some(d) = &self.distances {
            let joined: Vec<String> = d.distances().iter().map(u64::to_string).collect();
            options.push(format!("dist={}", joined.join(":")));
        }
        if !options.is_empty() {
            write!(f, "@{}", options.join(","))?;
        }
        Ok(())
    }
}

impl FromStr for JobSpec {
    type Err = PartitionError;

    fn from_str(s: &str) -> Result<Self> {
        let (head, options) = match s.split_once('@') {
            Some((head, options)) => (head, Some(options)),
            None => (s, None),
        };
        let mut parts = head.split(':');
        let algorithm = parts.next().unwrap_or("").trim();
        if algorithm.is_empty() {
            return Err(PartitionError::InvalidSpec(format!(
                "job spec '{s}' is missing an algorithm name"
            )));
        }
        let factors: std::result::Result<Vec<u32>, _> =
            parts.map(|p| p.trim().parse::<u32>()).collect();
        let factors = factors.map_err(|_| {
            PartitionError::InvalidSpec(format!(
                "job spec '{s}': the shape after '{algorithm}:' must be a k or a1:a2:... list"
            ))
        })?;
        let shape = match factors.len() {
            0 => {
                return Err(PartitionError::InvalidSpec(format!(
                    "job spec '{s}' is missing a shape: use '{algorithm}:<k>' or '{algorithm}:<a1:a2:...>'"
                )))
            }
            1 => JobShape::Flat(factors[0]),
            _ => JobShape::Hierarchy(HierarchySpec::new(factors)?),
        };

        let mut spec = JobSpec::flat(algorithm, 0);
        spec.shape = shape;
        if let Some(options) = options {
            for pair in options.split(',') {
                let pair = pair.trim();
                if pair.is_empty() {
                    continue;
                }
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(PartitionError::InvalidSpec(format!(
                        "job option '{pair}' is not of the form key=value"
                    )));
                };
                let (key, value) = (key.trim(), value.trim());
                let parse_err = |what: &str| {
                    PartitionError::InvalidSpec(format!("job option '{key}={value}': {what}"))
                };
                match key {
                    "eps" | "epsilon" => {
                        spec.epsilon = value
                            .parse()
                            .map_err(|_| parse_err("expected a floating-point value"))?;
                        if !spec.epsilon.is_finite() || spec.epsilon < 0.0 {
                            return Err(parse_err("epsilon must be non-negative"));
                        }
                    }
                    "seed" => {
                        spec.seed = value.parse().map_err(|_| parse_err("expected an integer"))?;
                    }
                    "threads" => {
                        spec.threads =
                            value.parse().map_err(|_| parse_err("expected an integer"))?;
                        if spec.threads == 0 {
                            return Err(parse_err("threads must be at least 1"));
                        }
                    }
                    "shards" => {
                        spec.shards = value.parse().map_err(|_| parse_err("expected an integer"))?;
                        if spec.shards == 0 {
                            return Err(parse_err("shards must be at least 1"));
                        }
                    }
                    "passes" => {
                        spec.passes = value.parse().map_err(|_| parse_err("expected an integer"))?;
                        if spec.passes == 0 {
                            return Err(parse_err("passes must be at least 1"));
                        }
                    }
                    "conv" | "convergence" => {
                        spec.convergence = value
                            .parse()
                            .map_err(|_| parse_err("expected a floating-point value"))?;
                        if !spec.convergence.is_finite() || spec.convergence < 0.0 {
                            return Err(parse_err("conv must be non-negative"));
                        }
                    }
                    "base" => {
                        spec.base_b = value.parse().map_err(|_| parse_err("expected an integer"))?;
                    }
                    "hybrid" => {
                        spec.hashing_bottom_layers =
                            value.parse().map_err(|_| parse_err("expected an integer"))?;
                    }
                    "buf" | "buffer" => {
                        spec.buffer = value.parse().map_err(|_| parse_err("expected an integer"))?;
                    }
                    "lambda" => {
                        spec.lambda = value
                            .parse()
                            .map_err(|_| parse_err("expected a floating-point value"))?;
                        if !spec.lambda.is_finite() || spec.lambda < 0.0 {
                            return Err(parse_err("lambda must be non-negative"));
                        }
                    }
                    "drift" => {
                        spec.drift = value
                            .parse()
                            .map_err(|_| parse_err("expected a floating-point value"))?;
                        if !spec.drift.is_finite() || spec.drift <= 0.0 {
                            return Err(parse_err("drift must be positive"));
                        }
                    }
                    "repair" => {
                        spec.repair = RepairPolicy::parse(value)?;
                    }
                    "window" => {
                        spec.window = value.parse().map_err(|_| parse_err("expected an integer"))?;
                        if spec.window == 0 {
                            return Err(parse_err("window must be at least 1"));
                        }
                    }
                    "dist" | "distances" => {
                        spec.distances = Some(DistanceSpec::parse(value)?);
                    }
                    _ => {
                        return Err(PartitionError::InvalidSpec(format!(
                            "unknown job option '{key}' (known: eps, seed, threads, shards, passes, conv, base, hybrid, buf, lambda, drift, repair, window, dist)"
                        )))
                    }
                }
            }
        }
        Ok(spec)
    }
}

// ----------------------------------------------------------------- registry

/// One entry of the shared algorithm registry.
#[derive(Clone, Copy)]
pub struct AlgorithmInfo {
    /// Canonical registry name (what [`JobSpec::algorithm`] refers to).
    pub name: &'static str,
    /// Accepted alternative spellings.
    pub aliases: &'static [&'static str],
    /// One-line description for `--help`-style listings.
    pub description: &'static str,
    /// Whether the algorithm exploits a hierarchical shape (rather than just
    /// flattening it to `k`).
    pub supports_hierarchy: bool,
    /// Whether the `oms-dynamic` layer can maintain this algorithm's
    /// partitions incrementally (ReFennel-style local re-scoring of touched
    /// nodes). Only the flat one-pass scorers qualify; hierarchical,
    /// parallel-only and in-memory algorithms need a full re-run.
    pub supports_repair: bool,
    /// Whether the deterministic sharded engine (`shards=S`) can drive this
    /// algorithm. Only the flat one-pass scorers with a load-vector state
    /// qualify; hashing is stateless and the hierarchical / in-memory
    /// algorithms have no replicated sink state to reconcile.
    pub supports_sharding: bool,
    /// Constructor turning a [`JobSpec`] into the boxed algorithm.
    pub build: fn(&JobSpec) -> Result<Box<dyn Partitioner>>,
}

impl fmt::Debug for AlgorithmInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AlgorithmInfo")
            .field("name", &self.name)
            .field("aliases", &self.aliases)
            .field("description", &self.description)
            .field("supports_hierarchy", &self.supports_hierarchy)
            .field("supports_repair", &self.supports_repair)
            .field("supports_sharding", &self.supports_sharding)
            .finish()
    }
}

static REGISTRY: OnceLock<Mutex<Vec<AlgorithmInfo>>> = OnceLock::new();

fn registry() -> &'static Mutex<Vec<AlgorithmInfo>> {
    REGISTRY.get_or_init(|| Mutex::new(builtin_algorithms()))
}

/// Registers (or replaces, by name) an algorithm in the shared registry.
///
/// Downstream crates use this to plug additional backends into
/// [`JobSpec::build`]; `oms_multilevel::register_algorithms()` adds the
/// in-memory `multilevel` and `rms` baselines this way.
pub fn register_algorithm(info: AlgorithmInfo) {
    let mut algorithms = registry().lock().expect("algorithm registry poisoned");
    match algorithms.iter_mut().find(|a| a.name == info.name) {
        Some(slot) => *slot = info,
        None => algorithms.push(info),
    }
}

/// A snapshot of every registered algorithm, in registration order.
pub fn registered_algorithms() -> Vec<AlgorithmInfo> {
    registry()
        .lock()
        .expect("algorithm registry poisoned")
        .clone()
}

/// Looks an algorithm up by canonical name or alias (case-insensitive).
pub fn find_algorithm(name: &str) -> Option<AlgorithmInfo> {
    let wanted = name.to_ascii_lowercase();
    registered_algorithms()
        .into_iter()
        .find(|a| a.name == wanted || a.aliases.iter().any(|&alias| alias == wanted))
}

fn build_hashing(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
    let k = spec.num_blocks();
    let config = spec.one_pass_config();
    // Hashing is a fixed point after one pass no matter how it is driven,
    // so restreaming (sequential, with the immediate fixed-point exit)
    // takes precedence over the parallel driver.
    Ok(if spec.passes > 1 {
        Box::new(ReHashing::new(k, config, spec.passes).convergence(spec.convergence))
    } else if spec.threads > 1 {
        Box::new(ParallelHashing {
            k,
            config,
            threads: spec.threads,
        })
    } else {
        Box::new(Hashing::new(k, config))
    })
}

fn build_ldg(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
    let k = spec.num_blocks();
    let config = spec.one_pass_config();
    Ok(if spec.shards > 1 {
        Box::new(
            ShardedFlat::new(k, config, FlatObjective::Ldg, spec.shards)
                .passes(spec.passes)
                .convergence(spec.convergence),
        )
    } else if spec.threads > 1 {
        Box::new(ParallelOms {
            name: "ldg",
            oms: OnlineMultiSection::one_level(k, config, FlatObjective::Ldg)?,
            threads: spec.threads,
            passes: spec.passes,
            convergence: spec.convergence,
        })
    } else if spec.passes > 1 {
        Box::new(ReLdg::new(k, config, spec.passes).convergence(spec.convergence))
    } else {
        Box::new(Ldg::new(k, config))
    })
}

fn build_fennel(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
    let k = spec.num_blocks();
    let config = spec.one_pass_config();
    Ok(if spec.shards > 1 {
        Box::new(
            ShardedFlat::new(k, config, FlatObjective::Fennel, spec.shards)
                .passes(spec.passes)
                .convergence(spec.convergence),
        )
    } else if spec.threads > 1 {
        Box::new(ParallelOms {
            name: "fennel",
            oms: OnlineMultiSection::one_level(k, config, FlatObjective::Fennel)?,
            threads: spec.threads,
            passes: spec.passes,
            convergence: spec.convergence,
        })
    } else if spec.passes > 1 {
        Box::new(ReFennel::new(k, config, spec.passes).convergence(spec.convergence))
    } else {
        Box::new(Fennel::new(k, config))
    })
}

fn finish_oms(
    spec: &JobSpec,
    _algorithm: &str,
    oms: OnlineMultiSection,
) -> Result<Box<dyn Partitioner>> {
    Ok(if spec.threads > 1 {
        Box::new(ParallelOms {
            name: "oms",
            oms,
            threads: spec.threads,
            passes: spec.passes,
            convergence: spec.convergence,
        })
    } else if spec.passes > 1 {
        Box::new(ReOms::new(oms, spec.passes).convergence(spec.convergence))
    } else {
        Box::new(oms)
    })
}

fn build_oms(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
    let config = spec.oms_config();
    let oms = match &spec.shape {
        JobShape::Hierarchy(h) => OnlineMultiSection::with_hierarchy(h.clone(), config),
        JobShape::Flat(k) => OnlineMultiSection::flat(*k, config)?,
    };
    finish_oms(spec, "oms", oms)
}

fn build_nh_oms(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
    // nh-OMS always uses the artificial base-b tree, even when the shape was
    // written as a hierarchy (only the product k matters).
    let oms = OnlineMultiSection::flat(spec.num_blocks(), spec.oms_config())?;
    finish_oms(spec, "nh-oms", oms)
}

fn builtin_algorithms() -> Vec<AlgorithmInfo> {
    vec![
        AlgorithmInfo {
            name: "hashing",
            aliases: &["hash"],
            description: "random hash assignment (fastest, worst quality)",
            supports_hierarchy: false,
            supports_repair: false,
            supports_sharding: false,
            build: build_hashing,
        },
        AlgorithmInfo {
            name: "ldg",
            aliases: &["reldg"],
            description: "linear deterministic greedy; passes>1 = ReLDG, threads>1 = parallel",
            supports_hierarchy: false,
            supports_repair: true,
            supports_sharding: true,
            build: build_ldg,
        },
        AlgorithmInfo {
            name: "fennel",
            aliases: &["refennel"],
            description: "Fennel one-pass; passes>1 = ReFennel, threads>1 = parallel",
            supports_hierarchy: false,
            supports_repair: true,
            supports_sharding: true,
            build: build_fennel,
        },
        AlgorithmInfo {
            name: "oms",
            aliases: &["reoms"],
            description: "online recursive multi-section (hierarchy shape = OMS, flat k = nh-OMS)",
            supports_hierarchy: true,
            supports_repair: false,
            supports_sharding: false,
            build: build_oms,
        },
        AlgorithmInfo {
            name: "nh-oms",
            aliases: &["nhoms"],
            description: "nh-OMS: k-way partitioning through the artificial base-b tree",
            supports_hierarchy: false,
            supports_repair: false,
            supports_sharding: false,
            build: build_nh_oms,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use oms_graph::InMemoryStream;

    fn two_communities() -> CsrGraph {
        CsrGraph::from_edges(
            8,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 0),
                (4, 5),
                (5, 6),
                (6, 7),
                (7, 4),
                (0, 4),
            ],
        )
        .unwrap()
    }

    #[test]
    fn parse_flat_spec() {
        let spec = JobSpec::parse("fennel:64").unwrap();
        assert_eq!(spec.algorithm, "fennel");
        assert_eq!(spec.shape, JobShape::Flat(64));
        assert_eq!(spec.epsilon, DEFAULT_EPSILON);
        assert_eq!(spec.num_blocks(), 64);
    }

    #[test]
    fn parse_hierarchy_spec_with_options() {
        let spec = JobSpec::parse("oms:4:16:8@eps=0.05,threads=8,seed=3").unwrap();
        assert_eq!(spec.algorithm, "oms");
        assert_eq!(
            spec.shape,
            JobShape::Hierarchy(HierarchySpec::parse("4:16:8").unwrap())
        );
        assert_eq!(spec.epsilon, 0.05);
        assert_eq!(spec.threads, 8);
        assert_eq!(spec.seed, 3);
        assert_eq!(spec.num_blocks(), 512);
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        for text in [
            "fennel:64",
            "oms:4:16:8",
            "oms:4:16:8@eps=0.05,threads=8",
            "ldg:16@passes=3",
            "fennel:64@shards=4",
            "ldg:16@seed=5,shards=2,passes=3",
            "nh-oms:10@seed=7,base=2",
            "ldg:16@passes=4,conv=0.02",
            "oms:2:2:2@dist=1:10:100",
            "oms:4:4:4@hybrid=2",
            "buffered:4@buf=4096",
            "buffered:8@eps=0.05,seed=3,buf=2048",
            "e-greedy:32@lambda=1.5",
            "e-hash:8@seed=7",
            "e-dbh:16@passes=3",
            "e-greedy:8@seed=3,passes=3,lambda=0.5",
            "fennel:8@drift=0.5",
            "fennel:8@repair=local",
            "ldg:16@seed=3,drift=0.05,repair=off",
            "fennel:8@eps=0.05,passes=2,drift=0.4,repair=local",
            "fennel:8@window=4",
            "ldg:16@drift=0.05,repair=local,window=3",
        ] {
            let spec = JobSpec::parse(text).unwrap();
            assert_eq!(spec.to_string(), text, "canonical form");
            assert_eq!(
                JobSpec::parse(&spec.to_string()).unwrap(),
                spec,
                "round trip"
            );
        }
    }

    #[test]
    fn invalid_specs_are_rejected() {
        for bad in [
            "",
            "fennel",
            "fennel:abc",
            "fennel:16@wat=1",
            "fennel:16@threads",
            "fennel:16@threads=0",
            "fennel:16@passes=0",
            "fennel:16@shards=0",
            "fennel:16@shards=abc",
            "fennel:16@eps=-1",
            "oms:4:1:8",
            "e-greedy:8@lambda=-1",
            "e-greedy:8@lambda=abc",
            "fennel:8@drift=0",
            "fennel:8@drift=-0.5",
            "fennel:8@drift=abc",
            "fennel:8@repair=sometimes",
            "fennel:8@window=0",
            "fennel:8@window=abc",
        ] {
            assert!(JobSpec::parse(bad).is_err(), "'{bad}' should not parse");
        }
    }

    #[test]
    fn unknown_algorithm_is_rejected_at_build_time() {
        let Err(err) = JobSpec::parse("frobnicate:8").unwrap().build() else {
            panic!("unknown algorithm should not build");
        };
        let msg = err.to_string();
        assert!(msg.contains("unknown algorithm"), "{msg}");
        assert!(
            msg.contains("fennel"),
            "should list known algorithms: {msg}"
        );
    }

    #[test]
    fn zero_blocks_rejected_at_build_time() {
        assert!(JobSpec::parse("fennel:0").unwrap().build().is_err());
    }

    #[test]
    fn sharding_is_gated_at_build_time() {
        // Only algorithms whose registry entry supports the sharded engine
        // accept shards>1, and shards and threads are mutually exclusive.
        for bad in [
            "hashing:4@shards=2",
            "oms:4@shards=2",
            "nh-oms:4@shards=2",
            "fennel:4@shards=2,threads=2",
        ] {
            assert!(
                JobSpec::parse(bad).unwrap().build().is_err(),
                "'{bad}' should not build"
            );
        }
        assert!(JobSpec::parse("fennel:4@shards=2").unwrap().build().is_ok());
        assert!(JobSpec::parse("ldg:4@shards=2").unwrap().build().is_ok());
    }

    #[test]
    fn sharded_jobs_report_shard_stats() {
        let graph = two_communities();
        let report = JobSpec::parse("fennel:4@shards=2")
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        let stats = report.shard_stats.expect("sharded run reports stats");
        assert_eq!(stats.shards, 2);
        assert_eq!(stats.messages_sent.len(), 2);
        // Classic runs report none.
        let report = JobSpec::parse("fennel:4")
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        assert!(report.shard_stats.is_none());
    }

    #[test]
    fn dist_requires_hierarchy() {
        assert!(JobSpec::parse("fennel:8@dist=1:10")
            .unwrap()
            .build()
            .is_err());
        assert!(JobSpec::parse("oms:2:2@dist=1").unwrap().build().is_err());
        assert!(JobSpec::parse("oms:2:2@dist=1:10").unwrap().build().is_ok());
    }

    #[test]
    fn built_partitioners_run_and_report() {
        let graph = two_communities();
        for text in [
            "hashing:4",
            "ldg:4",
            "fennel:4",
            "oms:4",
            "oms:2:2",
            "nh-oms:4",
            "fennel:4@passes=3",
            "ldg:4@passes=2",
            "oms:4@passes=2",
            "fennel:4@threads=2",
            "ldg:4@threads=2",
            "fennel:4@shards=2",
            "ldg:4@shards=2",
            "fennel:4@shards=2,passes=2",
            "hashing:4@threads=2",
            "oms:2:2@threads=2",
        ] {
            let job = JobSpec::parse(text).unwrap();
            let partitioner = job.build().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(partitioner.num_blocks(), 4, "{text}");
            let report = partitioner
                .run(&mut InMemoryStream::new(&graph))
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(report.partition.num_nodes(), 8, "{text}");
            assert!(report.partition.validate(&[1; 8]), "{text}");
            assert!(report.mapping_cost.is_none(), "{text}");
        }
    }

    #[test]
    fn report_includes_mapping_cost_with_distances() {
        let graph = two_communities();
        let job = JobSpec::parse("oms:2:2@dist=1:10").unwrap();
        let report = job
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        let j = report.mapping_cost.expect("topology given");
        assert!(j >= report.edge_cut, "J = {j} < cut = {}", report.edge_cut);
        assert_eq!(report.algorithm, "oms");
    }

    #[test]
    fn stream_edge_cut_matches_partition_edge_cut() {
        let graph = two_communities();
        let partition = JobSpec::parse("fennel:2")
            .unwrap()
            .build()
            .unwrap()
            .partition(&mut InMemoryStream::new(&graph))
            .unwrap();
        let via_stream =
            stream_edge_cut(&mut InMemoryStream::new(&graph), partition.assignments()).unwrap();
        assert_eq!(via_stream, partition.edge_cut(&graph));
    }

    #[test]
    fn materialize_stream_round_trips_the_graph() {
        let graph = two_communities();
        let rebuilt = materialize_stream(&mut InMemoryStream::new(&graph)).unwrap();
        assert_eq!(graph, rebuilt);
    }

    #[test]
    fn stream_graph_borrows_an_in_memory_graph_and_collects_a_pure_stream() {
        /// A stream that hides its in-memory graph.
        struct Pure<'g>(InMemoryStream<'g>);
        impl NodeStream for Pure<'_> {
            fn num_nodes(&self) -> usize {
                self.0.num_nodes()
            }
            fn num_edges(&self) -> usize {
                self.0.num_edges()
            }
            fn total_node_weight(&self) -> NodeWeight {
                self.0.total_node_weight()
            }
            fn for_each_node(
                &mut self,
                f: &mut dyn FnMut(oms_graph::StreamedNode<'_>),
            ) -> oms_graph::Result<()> {
                self.0.for_each_node(f)
            }
        }
        let graph = two_communities();
        let mut memory = InMemoryStream::new(&graph);
        let borrowed = stream_graph(&mut memory).unwrap();
        assert!(matches!(borrowed, Cow::Borrowed(g) if std::ptr::eq(g, &graph)));
        let mut pure = Pure(InMemoryStream::new(&graph));
        let collected = stream_graph(&mut pure).unwrap();
        assert!(matches!(collected, Cow::Owned(ref g) if *g == graph));
    }

    #[test]
    fn aliases_resolve() {
        assert_eq!(find_algorithm("refennel").unwrap().name, "fennel");
        assert_eq!(find_algorithm("OMS").unwrap().name, "oms");
        assert!(find_algorithm("does-not-exist").is_none());
    }

    #[test]
    fn registry_can_be_extended_and_replaced() {
        fn build_dummy(spec: &JobSpec) -> Result<Box<dyn Partitioner>> {
            Ok(Box::new(Hashing::new(
                spec.num_blocks(),
                OnePassConfig::default(),
            )))
        }
        register_algorithm(AlgorithmInfo {
            name: "dummy-test-algo",
            aliases: &[],
            description: "test-only",
            supports_hierarchy: false,
            supports_repair: false,
            supports_sharding: false,
            build: build_dummy,
        });
        assert!(find_algorithm("dummy-test-algo").is_some());
        let p = JobSpec::parse("dummy-test-algo:4")
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(p.name(), "dummy-test-algo");
        // Re-registering replaces rather than duplicates.
        register_algorithm(AlgorithmInfo {
            name: "dummy-test-algo",
            aliases: &[],
            description: "replaced",
            supports_hierarchy: false,
            supports_repair: false,
            supports_sharding: false,
            build: build_dummy,
        });
        let count = registered_algorithms()
            .iter()
            .filter(|a| a.name == "dummy-test-algo")
            .count();
        assert_eq!(count, 1);
    }

    #[test]
    fn every_builtin_supports_passes() {
        let graph = two_communities();
        for text in [
            "hashing:4@passes=3",
            "ldg:4@passes=3",
            "fennel:4@passes=2,threads=2",
            "oms:4@passes=2,threads=2",
            "nh-oms:4@passes=2",
        ] {
            let report = JobSpec::parse(text)
                .unwrap()
                .build()
                .unwrap_or_else(|e| panic!("{text}: {e}"))
                .run(&mut InMemoryStream::new(&graph))
                .unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(report.partition.num_nodes(), 8, "{text}");
            assert!(report.partition.validate(&[1; 8]), "{text}");
        }
    }

    #[test]
    fn multi_pass_reports_carry_a_trajectory() {
        let graph = two_communities();
        let report = JobSpec::parse("fennel:2@passes=4,seed=1")
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        assert!(!report.trajectory.is_empty());
        assert!(
            report
                .trajectory
                .windows(2)
                .all(|w| w[1].edge_cut <= w[0].edge_cut),
            "trajectory must be non-increasing: {:?}",
            report.trajectory
        );
        assert_eq!(
            report.trajectory.last().unwrap().edge_cut,
            report.edge_cut,
            "the reported cut is the final accepted pass"
        );
        // Single-pass runs keep an empty trajectory.
        let single = JobSpec::parse("fennel:2@seed=1")
            .unwrap()
            .build()
            .unwrap()
            .run(&mut InMemoryStream::new(&graph))
            .unwrap();
        assert!(single.trajectory.is_empty());
    }

    #[test]
    fn convergence_spec_round_trips_and_validates() {
        let spec = JobSpec::parse("fennel:8@passes=5,conv=0.01").unwrap();
        assert_eq!(spec.passes, 5);
        assert_eq!(spec.convergence, 0.01);
        assert_eq!(spec.to_string(), "fennel:8@passes=5,conv=0.01");
        assert!(JobSpec::parse("fennel:8@conv=-0.5").is_err());
        assert!(JobSpec::parse("fennel:8@conv=abc").is_err());
        // conv without a multi-pass budget parses but does not build: a
        // single pass can never converge, so the flag would silently do
        // nothing.
        assert!(JobSpec::parse("fennel:8@conv=0.01")
            .unwrap()
            .build()
            .is_err());
    }
}
