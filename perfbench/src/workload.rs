//! The four workloads and the seeded inputs they run on.

use crate::json::Record;
use oms_core::{DistanceSpec, HierarchySpec, JobSpec};
use oms_gen::{ChurnConfig, ChurnScheme, RmatParams};
use oms_graph::io::{write_metis, write_stream_file_with, StreamFormatVersion, StreamWriteOptions};
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type BoxError = Box<dyn std::error::Error>;

/// Which generated graph a workload reads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// RMAT (Graph500 parameters), written as v3 stream and METIS.
    Rmat,
    /// Erdős–Rényi G(n, m) plus a community-drift churn trace.
    Er,
}

impl Family {
    pub fn name(self) -> &'static str {
        match self {
            Family::Rmat => "rmat",
            Family::Er => "er",
        }
    }

    pub fn parse(s: &str) -> Option<Family> {
        match s {
            "rmat" => Some(Family::Rmat),
            "er" => Some(Family::Er),
            _ => None,
        }
    }
}

/// Input size: `full` is the benchmark, `tiny` the self-test.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Tiny,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }
}

/// The file a workload reads its graph from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Format {
    /// Binary vertex stream, format v3 (`.oms`).
    Stream,
    /// METIS text.
    Metis,
}

impl Format {
    /// Parses a file name as `describe` prints it.
    pub fn from_file(name: &str) -> Option<Format> {
        match name {
            "graph.oms" => Some(Format::Stream),
            "graph.metis" => Some(Format::Metis),
            _ => None,
        }
    }
}

/// One workload: an input, a job, and the path the `oms` CLI takes for it.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub family: Family,
    pub format: Format,
    /// The job spec as the CLI would build it.
    pub job: &'static str,
    /// `true` for the `apply-deltas` path (`PartitionState` + trace).
    pub churn: bool,
    /// Topology on which `J` is scored. For the `map-*` workloads it is the
    /// job's own; the flat workloads lay their `k` blocks onto a two-level
    /// machine with distances 1:10 (how Fig. 2a scores Fennel).
    pub hierarchy: &'static str,
    pub distances: &'static str,
    /// The `oms` CLI command line of the same job; `{graph}` and `{trace}`
    /// stand for the input files.
    pub cli: &'static [&'static str],
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "map-4096",
        family: Family::Rmat,
        format: Format::Stream,
        job: "oms:4:16:64@dist=1:10:100",
        churn: false,
        hierarchy: "4:16:64",
        distances: "1:10:100",
        cli: &[
            "map",
            "{graph}",
            "--hierarchy",
            "4:16:64",
            "--distances",
            "1:10:100",
        ],
    },
    Workload {
        name: "map-4096-t2",
        family: Family::Rmat,
        format: Format::Stream,
        job: "oms:4:16:64@threads=2,dist=1:10:100",
        churn: false,
        hierarchy: "4:16:64",
        distances: "1:10:100",
        cli: &[
            "map",
            "{graph}",
            "--hierarchy",
            "4:16:64",
            "--distances",
            "1:10:100",
            "--threads",
            "2",
        ],
    },
    Workload {
        name: "fennel-64-metis",
        family: Family::Rmat,
        format: Format::Metis,
        job: "fennel:64@passes=3",
        churn: false,
        hierarchy: "4:16",
        distances: "1:10",
        cli: &["partition", "{graph}", "--job", "fennel:64@passes=3"],
    },
    Workload {
        name: "churn",
        family: Family::Er,
        format: Format::Stream,
        job: "fennel:32@repair=boundary",
        churn: true,
        hierarchy: "2:16",
        distances: "1:10",
        cli: &[
            "apply-deltas",
            "{graph}",
            "{trace}",
            "--k",
            "32",
            "--algo",
            "fennel",
            "--repair",
            "boundary",
            "--reference",
            "off",
        ],
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    pub fn job(&self) -> Result<JobSpec, BoxError> {
        Ok(self.job.parse()?)
    }

    pub fn topology(&self) -> Result<(HierarchySpec, DistanceSpec), BoxError> {
        Ok((
            HierarchySpec::parse(self.hierarchy)?,
            DistanceSpec::parse(self.distances)?,
        ))
    }

    /// What `run.py` needs to know: the input family, the input files
    /// (relative to the input directory), and the CLI command line of the
    /// same job.
    pub fn describe(&self) -> Record {
        let name = |path: PathBuf| path.to_string_lossy().into_owned();
        let mut inputs = vec![name(self.graph_file(Path::new("")))];
        if self.churn {
            inputs.push(name(trace_file(Path::new(""))));
        }
        let cli: Vec<String> = self.cli.iter().map(|s| s.to_string()).collect();
        let mut rec = Record::default();
        rec.str("family", self.family.name())
            .strings("inputs", &inputs)
            .strings("cli", &cli);
        rec
    }

    /// The file the timed path reads the graph from.
    pub fn graph_file(&self, dir: &Path) -> PathBuf {
        match self.format {
            Format::Stream => stream_file(dir),
            Format::Metis => metis_file(dir),
        }
    }
}

pub fn stream_file(dir: &Path) -> PathBuf {
    dir.join("graph.oms")
}

pub fn metis_file(dir: &Path) -> PathBuf {
    dir.join("graph.metis")
}

pub fn trace_file(dir: &Path) -> PathBuf {
    dir.join("churn.deltas")
}

/// Generates inputs of `family` from `seed` into `dir` and returns the
/// generation time in seconds (graph generation plus writing the files).
///
/// RMAT: scale 20 with 8·2^20 edge draws (n = 1 048 576), written in each
/// of `formats`. ER: n = 200 000, m = 800 000, written as v3 stream, plus
/// a community-drift churn trace of 40 batches × 5 000 operations drawn
/// with seed `seed + 2`.
pub fn generate(
    family: Family,
    seed: u64,
    scale: Scale,
    formats: &[Format],
    dir: &Path,
) -> Result<f64, BoxError> {
    std::fs::create_dir_all(dir)?;
    let start = Instant::now();
    let v3 = StreamWriteOptions {
        version: StreamFormatVersion::V3,
        ..Default::default()
    };
    match family {
        Family::Rmat => {
            let scale_bits = match scale {
                Scale::Full => 20,
                Scale::Tiny => 12,
            };
            let graph =
                oms_gen::rmat_graph(scale_bits, 8 << scale_bits, RmatParams::GRAPH500, seed);
            for format in formats {
                match format {
                    Format::Stream => write_stream_file_with(&graph, stream_file(dir), v3)?,
                    Format::Metis => write_metis(&graph, metis_file(dir))?,
                }
            }
        }
        Family::Er => {
            let (n, batches, ops) = match scale {
                Scale::Full => (200_000, 40, 5_000),
                Scale::Tiny => (2_000, 8, 100),
            };
            let graph = oms_gen::erdos_renyi_gnm(n, 4 * n, seed);
            let config = ChurnConfig {
                scheme: ChurnScheme::CommunityDrift { communities: 8 },
                batches,
                ops_per_batch: ops,
                seed: seed.wrapping_add(2),
                ..ChurnConfig::default()
            };
            let trace = oms_gen::churn_trace(&graph, &config);
            write_stream_file_with(&graph, stream_file(dir), v3)?;
            oms_graph::write_delta_trace(trace_file(dir), &trace)?;
        }
    }
    Ok(start.elapsed().as_secs_f64())
}
