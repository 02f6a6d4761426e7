//! Golden hashes of the sequential scoring kernels.
//!
//! Every tree-scored path (sequential OMS / nh-OMS, hybrid, restreamed OMS,
//! OMS with the LDG scorer) runs through the one multi-section descent, and
//! the flat Fennel/LDG baselines through the flat `O(m + nk)` state. Both
//! share one max-score select. The FNV-1a hashes below pin the exact
//! assignment each job produces on one seeded, weighted RMAT graph; they
//! were recorded with the per-level candidate-vector scorer that preceded
//! the shared descent, so a refactor of the kernels that changes a single
//! decision (a tie broken differently, a base evaluated in another order,
//! a neighbour counted at the wrong level) fails here. The buffered
//! baseline's commit step uses the same select and is pinned alongside.

use oms::gen::RmatParams;
use oms::prelude::*;

/// FNV-1a over the little-endian bytes of the assignment array.
fn fnv1a(assignments: &[BlockId]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in assignments {
        for byte in b.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

/// RMAT scale 12 (skewed degrees, isolated and degree-≤ 2 nodes) with
/// power-law node weights and degree-proportional edge weights.
fn graph() -> CsrGraph {
    let g = rmat_graph(12, 24_000, RmatParams::default(), 5);
    let g = power_law_node_weights(&g, 8, 6);
    degree_proportional_edge_weights(&g)
}

fn oms_with(spec: &str, config: OmsConfig) -> Box<dyn Partitioner> {
    let h = HierarchySpec::parse(spec).unwrap();
    Box::new(OnlineMultiSection::with_hierarchy(h, config))
}

fn jobs() -> Vec<(&'static str, Box<dyn Partitioner>, u64)> {
    register_multilevel_algorithms();
    let job = |spec: &str| JobSpec::parse(spec).unwrap().build().unwrap();
    vec![
        ("oms:4:4:4", job("oms:4:4:4"), 0x39bb_8f70_8062_224e),
        ("nh-oms:37", job("nh-oms:37"), 0x785f_0ff4_d73c_152a),
        (
            "oms:2:2:2@hybrid=1",
            job("oms:2:2:2@hybrid=1"),
            0x410a_96d0_1084_a300,
        ),
        (
            "oms:4:4@passes=3",
            job("oms:4:4@passes=3"),
            0x9168_f562_2301_51ac,
        ),
        (
            "oms 4:4:4, LDG scorer",
            oms_with("4:4:4", OmsConfig::default().scorer(ScorerKind::Ldg)),
            0xd765_264e_fa65_dffd,
        ),
        (
            "oms 4:4:4, Hashing scorer",
            oms_with(
                "4:4:4",
                OmsConfig::default().scorer(ScorerKind::Hashing).seed(9),
            ),
            0x13dd_7d5b_70c7_3d31,
        ),
        (
            "oms 4:4:4, global alpha",
            oms_with("4:4:4", OmsConfig::default().alpha_mode(AlphaMode::Global)),
            0xa269_e98e_277c_d6a7,
        ),
        ("fennel:64", job("fennel:64"), 0x4f79_9d99_56d5_1da6),
        ("ldg:16", job("ldg:16"), 0x4381_407b_738c_859b),
        (
            "buffered:16@buf=200",
            job("buffered:16@buf=200"),
            0xb5b3_f6fa_69e0_5f38,
        ),
    ]
}

#[test]
fn sequential_kernels_match_their_golden_hashes() {
    let g = graph();
    let mut failures = Vec::new();
    for (name, partitioner, expected) in jobs() {
        let p = partitioner.partition(&mut InMemoryStream::new(&g)).unwrap();
        let got = fnv1a(p.assignments());
        if got != expected {
            failures.push(format!(
                "{name}: got {got:#018x}, expected {expected:#018x}"
            ));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
