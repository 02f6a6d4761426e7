//! The timed path — input file → job → partition → assignment file — and
//! the checks every run's output must pass.

use crate::json::Record;
use crate::workload::{stream_file, trace_file, BoxError, Format, Workload};
use oms_core::{materialize_stream, Partition, UNASSIGNED};
use oms_dynamic::PartitionState;
use oms_graph::io::{read_metis, read_stream_file};
use oms_graph::{CsrGraph, DeltaBatch, InMemoryStream};
use oms_mapping::Topology;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Reads the workload's graph the way the CLI does for its file type.
pub fn read_graph(w: &Workload, dir: &Path) -> Result<CsrGraph, BoxError> {
    let path = w.graph_file(dir);
    Ok(match w.format {
        Format::Stream => read_stream_file(path)?,
        Format::Metis => read_metis(path)?,
    })
}

/// Writes one block id per line, as `oms --output` does.
pub fn write_assignments(path: &Path, assignments: &[u32]) -> Result<(), BoxError> {
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::with_capacity(1 << 20, file);
    let mut buf = [0u8; 11];
    for &block in assignments {
        buf[10] = b'\n';
        let (mut value, mut start) = (block, 10);
        loop {
            start -= 1;
            buf[start] = b'0' + (value % 10) as u8;
            value /= 10;
            if value == 0 {
                break;
            }
        }
        w.write_all(&buf[start..])?;
    }
    w.flush()?;
    Ok(())
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
pub fn peak_rss_mib() -> Result<f64, BoxError> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()?;
    Ok(kib / 1024.0)
}

/// What an assignment file is checked against.
pub struct Reference<'a> {
    /// The graph the assignment partitions (the final state for `churn`).
    pub graph: &'a CsrGraph,
    /// Liveness per id (`churn` deletes nodes); `None` means all live.
    pub alive: Option<&'a [bool]>,
    pub k: u32,
    pub epsilon: f64,
    pub threads: usize,
    pub topology: &'a Topology,
}

impl<'a> Reference<'a> {
    pub fn new(
        graph: &'a CsrGraph,
        alive: Option<&'a [bool]>,
        job: &oms_core::JobSpec,
        topology: &'a Topology,
    ) -> Self {
        Reference {
            graph,
            alive,
            k: job.num_blocks(),
            epsilon: job.epsilon,
            threads: job.threads,
            topology,
        }
    }
}

/// The outcome of checking one assignment file.
pub struct Verdict {
    pub failures: Vec<String>,
    /// Edge cut recounted with `oms_metrics::edge_cut`.
    pub cut: u64,
    /// `J` recounted with `oms_mapping::mapping_cost` (0 when ids were
    /// out of range and `J` could not be scored).
    pub mapping_cost: u64,
}

/// Checks an assignment against the reference graph:
///
/// * one line per node id, every live node's block below `k`, every dead
///   id unassigned;
/// * the heaviest block at most `L_max = ⌈(1+ε)·c(V)/k⌉`, plus the
///   racy-capacity slack `(T−1)·max c(v)` of the threaded engine;
/// * the recounted cut and `J` equal the claimed ones, when claimed.
pub fn check(
    r: &Reference<'_>,
    ids: &[u32],
    claimed_cut: Option<u64>,
    claimed_cost: Option<u64>,
) -> Verdict {
    let mut failures = Vec::new();
    let n = r.graph.num_nodes();
    if ids.len() != n {
        failures.push(format!("assignment has {} lines, expected {n}", ids.len()));
        return Verdict {
            failures,
            cut: 0,
            mapping_cost: 0,
        };
    }
    let alive = |v: usize| r.alive.is_none_or(|a| a[v]);
    let mut block_weights = vec![0u64; r.k as usize];
    let (mut total, mut heaviest_node, mut bad) = (0u64, 0u64, 0usize);
    for (v, &id) in ids.iter().enumerate() {
        if !alive(v) {
            if id != UNASSIGNED {
                bad += 1;
            }
            continue;
        }
        let weight = r.graph.node_weight(v as u32);
        total += weight;
        heaviest_node = heaviest_node.max(weight);
        match block_weights.get_mut(id as usize) {
            Some(b) => *b += weight,
            None => bad += 1,
        }
    }
    if bad > 0 {
        failures.push(format!("{bad} ids out of range (k = {})", r.k));
    }
    let l_max = Partition::capacity(total, r.k, r.epsilon);
    let slack = (r.threads as u64 - 1) * heaviest_node;
    let max_block = block_weights.iter().copied().max().unwrap_or(0);
    if max_block > l_max + slack {
        failures.push(format!(
            "max block weight {max_block} > L_max {l_max} + slack {slack}"
        ));
    }
    let cut = oms_metrics::edge_cut(r.graph, ids);
    if let Some(claimed) = claimed_cut.filter(|&c| c != cut) {
        failures.push(format!("claimed cut {claimed}, recounted {cut}"));
    }
    let mapping_cost = if bad == 0 {
        oms_mapping::mapping_cost(r.graph, ids, r.topology)
    } else {
        0
    };
    if let Some(claimed) = claimed_cost.filter(|&j| j != mapping_cost) {
        failures.push(format!("claimed J {claimed}, recounted {mapping_cost}"));
    }
    Verdict {
        failures,
        cut,
        mapping_cost,
    }
}

/// Parses an assignment file (one block id per line).
pub fn read_assignments(path: &Path) -> Result<Vec<u32>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    text.lines()
        .enumerate()
        .map(|(i, line)| {
            line.trim()
                .parse()
                .map_err(|_| format!("line {}: '{line}' is not a block id", i + 1))
        })
        .collect()
}

/// Replaces the first block id of an assignment file with `k`, an id no
/// valid assignment contains. Used by the self-test to prove the checks
/// catch a corrupted output.
fn corrupt(path: &Path, k: u32) -> Result<(), BoxError> {
    let text = std::fs::read_to_string(path)?;
    let rest = text.split_once('\n').map_or("", |(_, rest)| rest);
    std::fs::write(path, format!("{k}\n{rest}"))?;
    Ok(())
}

/// The final state of a `churn` run: the graph after every delta, with
/// liveness per id, and the maintained partition.
pub struct ChurnResult {
    pub state: PartitionState,
    pub graph: CsrGraph,
    pub alive: Vec<bool>,
}

impl ChurnResult {
    fn finish(mut state: PartitionState) -> Result<ChurnResult, BoxError> {
        let graph = materialize_stream(state.graph_stream())?;
        let alive = (0..graph.num_nodes() as u32)
            .map(|v| state.graph().is_alive(v))
            .collect();
        Ok(ChurnResult {
            state,
            graph,
            alive,
        })
    }
}

/// Replays the churn workload untimed (for checking a CLI-written file).
pub fn replay_churn(w: &Workload, dir: &Path) -> Result<ChurnResult, BoxError> {
    let graph = read_stream_file(stream_file(dir))?;
    let trace = oms_graph::read_delta_trace(trace_file(dir))?;
    let mut state = PartitionState::new(&w.job()?, &mut InMemoryStream::new(&graph))?;
    for batch in &trace {
        state.apply(batch)?;
    }
    ChurnResult::finish(state)
}

/// One fresh-process run of the timed path. Returns the run's end-to-end
/// metrics, the quality it reported, and the failures of its checks.
pub fn run(w: &Workload, dir: &Path, out: &Path, corrupt_output: bool) -> Result<Record, BoxError> {
    let job = w.job()?;
    let (hierarchy, distances) = w.topology()?;
    let topology = Topology::new(hierarchy, distances)?;
    let corrupt_k = corrupt_output.then(|| job.num_blocks());
    let mut rec = Record::default();
    let clock = Instant::now();
    // `omega` is the total edge weight ω(E): RMAT folds duplicate edge
    // draws into weights, and the cut is weighted.
    let (n, omega, cut, claimed_cost, verdict);
    if w.churn {
        let graph = read_stream_file(stream_file(dir))?;
        let trace: Vec<DeltaBatch> = oms_graph::read_delta_trace(trace_file(dir))?;
        let mut state = PartitionState::new(&job, &mut InMemoryStream::new(&graph))?;
        let setup_s = clock.elapsed().as_secs_f64();
        let (mut apply_s, mut deltas) = (0.0, 0usize);
        for batch in &trace {
            let stats = state.apply(batch)?;
            apply_s += stats.seconds;
            deltas += stats.deltas;
        }
        write_assignments(out, state.assignments())?;
        let wall_s = clock.elapsed().as_secs_f64();
        rec.num("wall_s", wall_s)
            .num("setup_s", setup_s)
            .num("partition_s", apply_s)
            .num("deltas_per_s", deltas as f64 / apply_s)
            .num("peak_rss_mib", peak_rss_mib()?);
        let done = ChurnResult::finish(state)?;
        (n, omega, cut) = (
            done.graph.num_nodes(),
            done.graph.total_edge_weight(),
            done.state.edge_cut(),
        );
        claimed_cost = None;
        let r = Reference::new(&done.graph, Some(&done.alive), &job, &topology);
        verdict = verify(out, corrupt_k, &r, Some(cut), None)?;
    } else {
        let partitioner = job.build()?;
        let graph = read_graph(w, dir)?;
        let setup_s = clock.elapsed().as_secs_f64();
        let report = partitioner.run(&mut InMemoryStream::new(&graph))?;
        write_assignments(out, report.partition.assignments())?;
        let wall_s = clock.elapsed().as_secs_f64();
        rec.num("wall_s", wall_s)
            .num("setup_s", setup_s)
            .num("partition_s", report.seconds)
            // Every node of a static stream is one arrival to place.
            .num("deltas_per_s", graph.num_nodes() as f64 / report.seconds)
            .num("peak_rss_mib", peak_rss_mib()?);
        (n, omega, cut) = (
            graph.num_nodes(),
            graph.total_edge_weight(),
            report.edge_cut,
        );
        claimed_cost = report.mapping_cost;
        let r = Reference::new(&graph, None, &job, &topology);
        verdict = verify(out, corrupt_k, &r, Some(cut), claimed_cost)?;
    }
    let cost = claimed_cost.unwrap_or(verdict.mapping_cost);
    rec.num("edge_cut_frac", cut as f64 / omega as f64)
        .num("mapping_cost", cost as f64)
        .int("n", n as u64)
        .int("edge_weight", omega)
        .int("cut", cut)
        .int("cost", cost)
        .strings("failures", &verdict.failures);
    Ok(rec)
}

/// Reads back the file a run wrote and checks it, outside the timed path.
/// With `corrupt_k`, first overwrites the file's first id with that value.
fn verify(
    out: &Path,
    corrupt_k: Option<u32>,
    r: &Reference<'_>,
    claimed_cut: Option<u64>,
    claimed_cost: Option<u64>,
) -> Result<Verdict, BoxError> {
    if let Some(k) = corrupt_k {
        corrupt(out, k)?;
    }
    Ok(match read_assignments(out) {
        Ok(ids) => check(r, &ids, claimed_cut, claimed_cost),
        Err(e) => Verdict {
            failures: vec![e],
            cut: 0,
            mapping_cost: 0,
        },
    })
}

/// Checks an assignment file written by someone else (the `oms` CLI):
/// validity only; the caller compares the recounted cut and `J`.
pub fn check_file(w: &Workload, dir: &Path, file: &Path) -> Result<Record, BoxError> {
    let job = w.job()?;
    let (hierarchy, distances) = w.topology()?;
    let topology = Topology::new(hierarchy, distances)?;
    let verdict = if w.churn {
        let done = replay_churn(w, dir)?;
        let r = Reference::new(&done.graph, Some(&done.alive), &job, &topology);
        verify(file, None, &r, None, None)?
    } else {
        let graph = read_graph(w, dir)?;
        verify(
            file,
            None,
            &Reference::new(&graph, None, &job, &topology),
            None,
            None,
        )?
    };
    let mut rec = Record::default();
    rec.int("cut", verdict.cut)
        .int("cost", verdict.mapping_cost)
        .strings("failures", &verdict.failures);
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn check_catches_range_balance_and_count_errors() {
        // Two triangles joined by one edge; k = 2.
        let graph =
            CsrGraph::from_edges(6, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)])
                .unwrap();
        let topology = Topology::parse("2", "1").unwrap();
        let r = Reference {
            graph: &graph,
            alive: None,
            k: 2,
            epsilon: 0.0,
            threads: 1,
            topology: &topology,
        };
        let good = check(&r, &[0, 0, 0, 1, 1, 1], Some(1), Some(1));
        assert!(good.failures.is_empty(), "{:?}", good.failures);
        assert_eq!((good.cut, good.mapping_cost), (1, 1));

        let out_of_range = check(&r, &[2, 0, 0, 1, 1, 1], None, None);
        assert!(out_of_range.failures[0].contains("out of range"));

        let unbalanced = check(&r, &[0, 0, 0, 0, 1, 1], None, None);
        assert!(unbalanced.failures[0].contains("max block weight"));
        // One node over L_max is within the slack of a 2-thread run.
        let threaded = Reference { threads: 2, ..r };
        assert!(check(&threaded, &[0, 0, 0, 0, 1, 1], None, None)
            .failures
            .is_empty());

        let wrong_cut = check(&r, &[0, 0, 0, 1, 1, 1], Some(2), None);
        assert!(wrong_cut.failures[0].contains("claimed cut"));
        let short = check(&r, &[0, 0, 0], None, None);
        assert!(short.failures[0].contains("lines"));
    }

    #[test]
    fn dead_ids_must_stay_unassigned() {
        let graph = CsrGraph::from_edges(3, &[(0, 1)]).unwrap();
        let topology = Topology::parse("2", "1").unwrap();
        let alive = [true, true, false];
        let r = Reference {
            graph: &graph,
            alive: Some(&alive),
            k: 2,
            epsilon: 0.0,
            threads: 1,
            topology: &topology,
        };
        assert!(check(&r, &[0, 1, UNASSIGNED], None, None)
            .failures
            .is_empty());
        assert!(!check(&r, &[0, 1, 0], None, None).failures.is_empty());
    }
}
