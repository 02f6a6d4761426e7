//! The traced run: the same path as [`crate::path::run`], with the
//! `oms_obs` recorder installed and every call into a layer timed from
//! outside, plus floor probes that bound what each layer could save.

use crate::json::Record;
use crate::path::{peak_rss_mib, read_graph, write_assignments};
use crate::workload::{stream_file, trace_file, BoxError, Workload};
use oms_core::api::stream_mapping_cost;
use oms_core::{materialize_stream, stream_edge_cut, BlockId, JobSpec, Partition, PassStats};
use oms_dynamic::PartitionState;
use oms_graph::io::DiskStream;
use oms_graph::{EdgeStream, EdgesOf, InMemoryStream, NodeStream, DEFAULT_BATCH_SIZE};
use oms_obs::{CounterId, ObsCore};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Runs `f` and returns its result with its wall time in seconds.
fn timed<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<(T, f64), E> {
    let start = Instant::now();
    let value = f()?;
    Ok((value, start.elapsed().as_secs_f64()))
}

/// The per-layer metrics of one traced run. Metrics a workload has no
/// call for are listed under `not_applicable` and carry no value.
struct Layers {
    rec: Record,
    not_applicable: Vec<String>,
}

impl Layers {
    fn num(&mut self, key: &str, value: Option<f64>) {
        match value {
            Some(v) => {
                self.rec.num(key, v);
            }
            None => self.not_applicable.push(key.to_string()),
        }
    }

    fn set(&mut self, key: &str, value: f64) {
        self.rec.num(key, value);
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The recorder's counters that the flat kernel, the restream engine and
/// the dynamic layer emit.
fn counters(l: &mut Layers, core: &ObsCore) {
    for id in [
        CounterId::NodesScored,
        CounterId::DegLe2FastPath,
        CounterId::RestreamPasses,
        CounterId::RestreamReverts,
        CounterId::DeltasApplied,
        CounterId::RepairRescored,
        CounterId::RepairMoves,
        CounterId::DriftFallbacks,
    ] {
        l.set(
            &format!("obs.{}", id.name()),
            core.metrics().counter(id) as f64,
        );
    }
    let m = core.metrics();
    let rescored = m.counter(CounterId::RepairRescored) as f64;
    l.set(
        "dynamic.rescored_per_delta",
        ratio(rescored, m.counter(CounterId::DeltasApplied) as f64),
    );
    l.set(
        "dynamic.move_yield",
        ratio(m.counter(CounterId::RepairMoves) as f64, rescored),
    );
}

/// Pass timings from a restream trajectory. A run without a trajectory is
/// one pass, the whole partition call.
fn passes(l: &mut Layers, trajectory: &[PassStats], partition_s: f64) {
    let pass = |i: usize| trajectory.get(i);
    l.num(
        "core.pass0_s",
        Some(pass(0).map_or(partition_s, |p| p.seconds)),
    );
    l.num("core.pass1_s", pass(1).map(|p| p.seconds));
    l.num("core.pass2_s", pass(2).map(|p| p.seconds));
    l.set("core.moved_pass1", pass(1).map_or(0, |p| p.moved) as f64);
    l.set("core.moved_pass2", pass(2).map_or(0, |p| p.moved) as f64);
    let overhead = (!trajectory.is_empty())
        .then(|| partition_s - trajectory.iter().map(|p| p.seconds).sum::<f64>());
    l.num("core.restream_overhead_s", overhead);
}

/// Probes that do not depend on the job: the sectioned decode of the v3
/// file, the neighbour-gather floor, the graph copy the threaded engine
/// makes, and the hashing executor floor.
fn floors(
    l: &mut Layers,
    dir: &Path,
    graph: &oms_graph::CsrGraph,
    k: u32,
) -> Result<f64, BoxError> {
    let mut decoded = 0usize;
    let ((), decode_s) = timed(|| {
        DiskStream::open(stream_file(dir))?
            .for_each_batch(DEFAULT_BATCH_SIZE, &mut |batch| decoded += batch.len())
    })?;
    if decoded != graph.num_nodes() {
        return Err(format!("decoded {decoded} of {} nodes", graph.num_nodes()).into());
    }
    l.set("io.decode_s", decode_s);

    let mut sum = 0u64;
    let ((), gather_s) = timed(|| {
        EdgesOf(InMemoryStream::new(graph)).for_each_edge(&mut |e| {
            sum = sum.wrapping_add(u64::from(e.u ^ e.v) + e.weight);
        })
    })?;
    black_box(sum);
    l.set("core.gather_floor_s", gather_s);

    let (copy, materialize_s) = timed(|| materialize_stream(&mut InMemoryStream::new(graph)))?;
    black_box(&copy);
    drop(copy);
    l.set("parallel.materialize_s", materialize_s);

    let hashing = JobSpec::flat("hashing", k).build()?;
    let (_, drive_s) = timed(|| hashing.partition(&mut InMemoryStream::new(graph)))?;
    l.set("core.drive_floor_s", drive_s);
    Ok(drive_s)
}

/// Heaviest block above `L_max`, in node weight (0 when within bounds).
fn overshoot(block_weights: &[u64], total: u64, job: &JobSpec) -> f64 {
    let l_max = Partition::capacity(total, job.num_blocks(), job.epsilon);
    let max = block_weights.iter().copied().max().unwrap_or(0);
    max.saturating_sub(l_max) as f64
}

/// One traced run of workload `w`; writes the assignment to `out`.
///
/// The path the CLI takes runs first, under one wall clock, with the
/// recorder installed and each call into a layer timed; `trace.coverage`
/// is the share of that wall clock the timed calls account for. The
/// probes run after it: the same partitioning call untraced (for
/// `core.trace_overhead`), report passes the path does not take, and the
/// floors.
pub fn trace(w: &Workload, dir: &Path, out: &Path) -> Result<Record, BoxError> {
    let mut l = Layers {
        rec: Record::default(),
        not_applicable: Vec::new(),
    };
    let (hierarchy, distances) = w.topology()?;
    let input_bytes = std::fs::metadata(w.graph_file(dir))?.len() as f64;

    let path_clock = Instant::now();
    let ((job, partitioner), build_s) = timed(|| -> Result<_, BoxError> {
        let job = w.job()?;
        // The churn path builds no partitioner: `PartitionState` does.
        let partitioner = (!w.churn).then(|| job.build()).transpose()?;
        Ok((job, partitioner))
    })?;
    let (graph, read_s) = timed(|| read_graph(w, dir))?;
    l.set("mem.after_read_mib", peak_rss_mib()?);
    let mut on_path = build_s + read_s;

    let measure = |stream: &mut dyn NodeStream, assignments: &[BlockId]| {
        timed(|| stream_edge_cut(stream, assignments)).map(|(_, s)| s)
    };
    let cost = |stream: &mut dyn NodeStream, assignments: &[BlockId]| {
        timed(|| stream_mapping_cost(stream, assignments, &hierarchy, &distances)).map(|(_, s)| s)
    };
    let (path_s, traced_s, untraced_s, measure_s, cost_s);
    if let Some(partitioner) = partitioner {
        let (core, guard) = oms_obs::recording(oms_obs::DEFAULT_CAPACITY);
        let ((partition, trajectory), partition_s) =
            timed(|| partitioner.partition_tracked(&mut InMemoryStream::new(&graph)))?;
        drop(guard);
        l.set("mem.after_partition_mib", peak_rss_mib()?);
        on_path += partition_s;
        // `Partitioner::run` measures the cut only when the engine kept no
        // trajectory, and scores `J` only when the job carries a topology.
        let assignments = partition.assignments();
        let measured = trajectory.stats.is_empty();
        let scored = job.distances.is_some();
        let stream = || InMemoryStream::new(&graph);
        let measured_s = measured
            .then(|| measure(&mut stream(), assignments))
            .transpose()?;
        let scored_s = scored
            .then(|| cost(&mut stream(), assignments))
            .transpose()?;
        let ((), write_s) = timed(|| write_assignments(out, assignments))?;
        path_s = path_clock.elapsed().as_secs_f64();
        on_path += measured_s.unwrap_or(0.0) + scored_s.unwrap_or(0.0) + write_s;
        l.set("output.write_s", write_s);

        untraced_s = timed(|| partitioner.partition_tracked(&mut stream()))?.1;
        measure_s = measured_s.map_or_else(|| measure(&mut stream(), assignments), Ok)?;
        cost_s = scored_s.map_or_else(|| cost(&mut stream(), assignments), Ok)?;
        counters(&mut l, &core);
        passes(&mut l, &trajectory.stats, partition_s);
        l.set(
            "parallel.overshoot_nodes",
            overshoot(partition.block_weights(), partition.total_weight(), &job),
        );
        traced_s = partition_s;
        // Static paths read no trace and keep no dynamic state.
        for key in [
            "io.trace_read_s",
            "dynamic.init_s",
            "dynamic.apply_s",
            "dynamic.batch_p50_ms",
            "dynamic.batch_max_ms",
            "dynamic.fallback_s",
        ] {
            l.num(key, None);
        }
    } else {
        let (trace, trace_read_s) = timed(|| oms_graph::read_delta_trace(trace_file(dir)))?;
        let (core, guard) = oms_obs::recording(oms_obs::DEFAULT_CAPACITY);
        let (mut state, init_s) =
            timed(|| PartitionState::new(&job, &mut InMemoryStream::new(&graph)))?;
        let initial = state.trajectory().to_vec();
        let mut batch_ms = Vec::with_capacity(trace.len());
        let (mut apply_s, mut fallback_s) = (0.0, 0.0);
        for batch in &trace {
            let (stats, seconds) = timed(|| state.apply(batch))?;
            apply_s += seconds;
            batch_ms.push(seconds * 1e3);
            if stats.restreams > 0 {
                fallback_s += seconds;
            }
        }
        drop(guard);
        l.set("mem.after_partition_mib", peak_rss_mib()?);
        let ((), write_s) = timed(|| write_assignments(out, state.assignments()))?;
        path_s = path_clock.elapsed().as_secs_f64();
        on_path += trace_read_s + init_s + apply_s + write_s;
        l.set("output.write_s", write_s);

        let mut untraced = PartitionState::new(&job, &mut InMemoryStream::new(&graph))?;
        untraced_s = trace.iter().try_fold(0.0, |sum, batch| {
            untraced.apply(batch).map(|stats| sum + stats.seconds)
        })?;
        drop(untraced);
        let assignments = state.assignments().to_vec();
        measure_s = measure(state.graph_stream(), &assignments)?;
        cost_s = cost(state.graph_stream(), &assignments)?;
        counters(&mut l, &core);
        // The pass metrics describe the initial run inside `PartitionState::new`.
        passes(&mut l, &initial, init_s);
        l.set(
            "parallel.overshoot_nodes",
            overshoot(state.block_weights(), state.graph().live_weight(), &job),
        );
        batch_ms.sort_by(f64::total_cmp);
        l.num("io.trace_read_s", Some(trace_read_s));
        l.num("dynamic.init_s", Some(init_s));
        l.num("dynamic.apply_s", Some(apply_s));
        l.num(
            "dynamic.batch_p50_ms",
            batch_ms.get(batch_ms.len() / 2).copied(),
        );
        l.num("dynamic.batch_max_ms", batch_ms.last().copied());
        l.num("dynamic.fallback_s", Some(fallback_s));
        traced_s = apply_s;
    }
    l.set("io.read_s", read_s);
    l.set("io.input_bytes", input_bytes);
    l.set("io.read_mib_per_s", input_bytes / (1 << 20) as f64 / read_s);
    l.set("api.build_s", build_s);
    l.set("core.partition_s", traced_s);
    l.set("core.trace_overhead", traced_s / untraced_s);
    l.set("core.measure_pass_s", measure_s);
    l.set("mapping.cost_pass_s", cost_s);
    l.set("trace.path_s", path_s);
    l.set("trace.coverage", on_path / path_s);

    let drive_s = floors(&mut l, dir, &graph, job.num_blocks())?;
    l.set("core.score_select_s", traced_s - drive_s);
    let t1_s = if job.threads > 1 {
        let t1 = JobSpec {
            threads: 1,
            ..job.clone()
        }
        .build()?;
        timed(|| t1.partition_tracked(&mut InMemoryStream::new(&graph)))?.1
    } else {
        untraced_s
    };
    let speedup = t1_s / untraced_s;
    l.set("parallel.t1_s", t1_s);
    l.set("parallel.speedup", speedup);
    l.set("parallel.efficiency", speedup / job.threads as f64);

    let mut rec = l.rec;
    rec.strings("not_applicable", &l.not_applicable);
    Ok(rec)
}

#[cfg(test)]
mod tests {
    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(super::ratio(3.0, 0.0), 0.0);
        assert_eq!(super::ratio(3.0, 2.0), 1.5);
    }
}
