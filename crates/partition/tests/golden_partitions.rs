//! Golden partitions: the HP and GP assignments of three small generated
//! instances are pinned by hash and connectivity cut, so a change to the
//! partitioners' internals that is meant to be output-identical (a faster
//! heap, a flatter coarsening, a cheaper normalization) is checked against
//! recorded outputs rather than against itself.
//!
//! The instances cover the regimes the partitioners see:
//! - a dense Reddit-like social graph where every column net has more pins
//!   than the coarsening's matching cap, so coarsening stalls and greedy
//!   growth runs on the whole hypergraph;
//! - a road grid (low degree, deep coarsening hierarchy);
//! - a co-purchase graph (small dense communities);
//! - a directed citation graph whose hubs have more graph-model edges than
//!   the FM's eager-update cap (96 nets).
//!
//! A mismatch prints the instance's actual rows, so a deliberate change to
//! partition output can re-record them in one run.

use pargcn_graph::gen::{community, grid, pref_attach, social};
use pargcn_graph::Graph;
use pargcn_partition::hmultilevel::coarsen::coarsen_once;
use pargcn_partition::{partition_rows, Hypergraph, Method, Partition, DEFAULT_EPSILON};
use pargcn_util::rng::{SeedableRng, StdRng};

/// `(method, p, assignment hash, connectivity cut)`.
type Golden = (&'static str, usize, u64, u64);

/// FNV-1a over the little-endian bytes of the assignment.
fn assignment_hash(part: &Partition) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &a in part.assignment() {
        for b in a.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Partitions `g` with HP and GP at p ∈ {2, 3, 4} (seed 1, default ε) and
/// compares against `expected`.
fn assert_golden(g: &Graph, expected: &[Golden]) {
    let a = g.normalized_adjacency();
    let h = Hypergraph::column_net_model(&a);
    let mut actual = Vec::new();
    for method in [Method::Hp, Method::Gp] {
        for p in [2, 3, 4] {
            let part = partition_rows(g, &a, method, p, DEFAULT_EPSILON, 1);
            actual.push((
                method.name(),
                p,
                assignment_hash(&part),
                h.connectivity_cut(&part),
            ));
        }
    }
    let rows: String = actual
        .iter()
        .map(|(m, p, hash, cut)| format!("    (\"{m}\", {p}, {hash:#018x}, {cut}),\n"))
        .collect();
    assert_eq!(actual, expected, "actual rows:\n{rows}");
}

fn reddit_like() -> Graph {
    social::generate(500, 330.0, false, 11)
}

#[test]
fn reddit_like_instance_stalls_coarsening() {
    // Every column net is larger than the matching cap (64 pins), so no
    // pair scores and the first level fails the 0.95 reduction test: the
    // bisection grows and refines on the whole hypergraph.
    let h = Hypergraph::column_net_model(&reddit_like().normalized_adjacency());
    let (coarse, _) = coarsen_once(&h, &mut StdRng::seed_from_u64(1));
    assert!(
        coarse.n_vertices() as f64 > h.n_vertices() as f64 * 0.95,
        "coarsened {} -> {}",
        h.n_vertices(),
        coarse.n_vertices()
    );
}

#[test]
fn golden_reddit_like() {
    assert_golden(
        &reddit_like(),
        &[
            ("HP", 2, 0x9f169d1802c204a5, 500),
            ("HP", 3, 0xd130a9d0891da914, 1000),
            ("HP", 4, 0x292b51dba48c84d5, 1500),
            ("GP", 2, 0x0878cc58663c7334, 500),
            ("GP", 3, 0xe5e72ab661e80276, 1000),
            ("GP", 4, 0x37d3dfc98d1d4697, 1495),
        ],
    );
}

#[test]
fn golden_road() {
    assert_golden(
        &grid::road_network(1600, 3),
        &[
            ("HP", 2, 0x28eee1965d2840c4, 57),
            ("HP", 3, 0xa85b6bb31dc93464, 84),
            ("HP", 4, 0x847f2f17fce38947, 116),
            ("GP", 2, 0x96a0b4c1c55b8474, 49),
            ("GP", 3, 0xd4f36df5ed6e05c6, 103),
            ("GP", 4, 0x0fca5ebfec2f0a24, 125),
        ],
    );
}

#[test]
fn golden_copurchase() {
    assert_golden(
        &community::copurchase(800, 6.0, false, 5),
        &[
            ("HP", 2, 0x9442aee376a72264, 65),
            ("HP", 3, 0x6de947efb21333a7, 124),
            ("HP", 4, 0x9e2ea0c292f03167, 224),
            ("GP", 2, 0x648befe7e925e094, 62),
            ("GP", 3, 0xe992a7b2face7817, 111),
            ("GP", 4, 0x61be9014f586e1d4, 189),
        ],
    );
}

#[test]
fn golden_citation_like() {
    let g = pref_attach::generate(400, 32, true, 7);
    let model = Hypergraph::graph_model(&g.normalized_adjacency());
    let max_degree = (0..g.n()).map(|v| model.nets_of(v).len()).max();
    assert!(max_degree > Some(96), "max degree {max_degree:?}");
    assert_golden(
        &g,
        &[
            ("HP", 2, 0x507d2120708c9b84, 216),
            ("HP", 3, 0x39ffc7e0db9c35b7, 438),
            ("HP", 4, 0xfa271bc4749a0927, 653),
            ("GP", 2, 0xb94a7df5c561dbb4, 313),
            ("GP", 3, 0xe68263e6504ef236, 595),
            ("GP", 4, 0x05600005d90c24c4, 833),
        ],
    );
}
