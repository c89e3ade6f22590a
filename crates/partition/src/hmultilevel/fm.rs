//! Fiduccia–Mattheyses bisection refinement for hypergraphs.
//!
//! For a bisection, the connectivity−1 metric reduces to the cut-net
//! metric: a net costs `cost(n)` iff it has pins on both sides. The FM gain
//! of moving `v` from side `s` to side `t` is therefore
//!
//! * `+cost(n)` for every net where `v` is the *last* pin on `s`
//!   (the net becomes internal), and
//! * `−cost(n)` for every net where `t` currently has *no* pins
//!   (the net becomes cut).
//!
//! On a 2-pin net (the graph model) this is the edge-cut gain: external
//! minus internal edge weight.
//!
//! Per-net side pin counts make that gain O(incident nets) to evaluate, and
//! a lazy max-heap keeps the implementation simple: stale heap keys are
//! detected by recomputing the exact gain on pop. Within a pass every
//! vertex moves at most once, and the pass rolls back to its best prefix.

use crate::hypergraph::Hypergraph;
use std::collections::BinaryHeap;

/// Nets larger than this do not propagate gain updates eagerly (see the
/// comment at the update site).
const UPDATE_NET_CAP: usize = 32;

/// Per-pass bound on lazy-heap stale-key corrections per vertex.
const MAX_STALE_CORRECTIONS: u8 = 6;

/// Vertices incident to more nets than this never receive eager gain
/// updates (their gain recompute is itself expensive).
const UPDATE_VERTEX_CAP: usize = 96;

/// Refines side labels in place. `frac0` is the target side-0 weight
/// fraction, `epsilon` the allowed imbalance over the target, and
/// `max_passes` bounds the number of full FM passes.
pub fn refine(h: &Hypergraph, side: &mut [u8], frac0: f64, epsilon: f64, max_passes: usize) {
    let n = h.n_vertices();
    if n < 2 {
        return;
    }
    let total: u64 = h.vertex_weights().iter().sum();
    let cap0 = ((total as f64) * frac0 * (1.0 + epsilon)).ceil() as u64;
    let cap1 = ((total as f64) * (1.0 - frac0) * (1.0 + epsilon)).ceil() as u64;

    let mut side_weight = [0u64; 2];
    for v in 0..n {
        side_weight[side[v] as usize] += h.vertex_weights()[v];
    }
    // counts[net][s] = pins of `net` currently on side s.
    let mut counts = vec![[0u32; 2]; h.n_nets()];
    for (net, count) in counts.iter_mut().enumerate() {
        for &pin in h.pins(net) {
            count[side[pin as usize] as usize] += 1;
        }
    }

    // Per-pass state, allocated once and reset at the top of each pass.
    let mut locked = vec![false; n];
    // Bounds the lazy-exact churn: a vertex whose heap key keeps going
    // stale (hubs on skewed graphs — every neighbor move shifts their
    // gain) is dropped for the rest of the pass after a few corrections
    // instead of being recomputed indefinitely. Hubs rarely move
    // profitably anyway, and the next pass reconsiders everything.
    let mut stale_corrections = vec![0u8; n];
    let mut heap: BinaryHeap<(i64, u32)> = BinaryHeap::with_capacity(n);
    let mut log: Vec<u32> = Vec::new();

    for _pass in 0..max_passes {
        locked.fill(false);
        stale_corrections.fill(0);
        // Each pass drains the heap, so it starts empty.
        debug_assert!(heap.is_empty());
        for v in 0..n {
            heap.push((gain(h, side, &counts, v), v as u32));
        }

        log.clear();
        let mut cumulative = 0i64;
        let mut best_cumulative = 0i64;
        let mut best_len = 0usize;

        while let Some((key, v)) = heap.pop() {
            let v = v as usize;
            if locked[v] {
                continue;
            }
            let exact = gain(h, side, &counts, v);
            if exact != key {
                stale_corrections[v] = stale_corrections[v].saturating_add(1);
                if stale_corrections[v] <= MAX_STALE_CORRECTIONS {
                    heap.push((exact, v as u32));
                }
                continue;
            }
            let from = side[v] as usize;
            let to = 1 - from;
            let w = h.vertex_weights()[v];
            let cap_to = if to == 0 { cap0 } else { cap1 };
            if side_weight[to] + w > cap_to {
                continue;
            }
            apply_move(h, side, &mut counts, v);
            side_weight[from] -= w;
            side_weight[to] += w;
            locked[v] = true;
            cumulative += exact;
            log.push(v as u32);
            if cumulative > best_cumulative {
                best_cumulative = cumulative;
                best_len = log.len();
            }
            // Gains of co-pins may have changed. Propagate eagerly only
            // through small nets: pushing every pin of a hub column after
            // every move is quadratic on dense graphs, and the lazy-exact
            // pop (recompute-and-re-push on stale key) already guarantees
            // that no move is ever applied with a wrong gain — skipping a
            // push only delays when an improved vertex gets re-examined.
            for &net in h.nets_of(v) {
                let pins = h.pins(net as usize);
                if pins.len() > UPDATE_NET_CAP {
                    continue;
                }
                for &u in pins {
                    // Skip hub co-pins: recomputing a hub's gain costs
                    // O(its incident nets) and hubs are co-pins of *many*
                    // moved vertices — eager updates for them are what made
                    // skewed graphs quadratic. Their original lazy entry
                    // still gets them considered.
                    if !locked[u as usize] && h.nets_of(u as usize).len() <= UPDATE_VERTEX_CAP {
                        heap.push((gain(h, side, &counts, u as usize), u));
                    }
                }
            }
        }

        for &v in log.iter().skip(best_len).rev() {
            let v = v as usize;
            let from = side[v] as usize;
            let to = 1 - from;
            let w = h.vertex_weights()[v];
            apply_move(h, side, &mut counts, v);
            side_weight[from] -= w;
            side_weight[to] += w;
        }
        if best_cumulative <= 0 {
            break;
        }
    }
}

/// Flips `v`'s side and updates per-net counts.
#[inline]
fn apply_move(h: &Hypergraph, side: &mut [u8], counts: &mut [[u32; 2]], v: usize) {
    let from = side[v] as usize;
    let to = 1 - from;
    for &net in h.nets_of(v) {
        counts[net as usize][from] -= 1;
        counts[net as usize][to] += 1;
    }
    side[v] = to as u8;
}

/// Exact FM gain of moving `v` to the other side, from per-net counts.
#[inline]
pub(crate) fn gain(h: &Hypergraph, side: &[u8], counts: &[[u32; 2]], v: usize) -> i64 {
    let s = side[v] as usize;
    let t = 1 - s;
    let mut g = 0i64;
    for &net in h.nets_of(v) {
        let c = counts[net as usize];
        let cost = h.net_cost(net as usize) as i64;
        if c[t] == 0 {
            g -= cost; // net becomes cut
        }
        if c[s] == 1 {
            g += cost; // v is the last pin on s: net becomes internal
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Partition;

    fn cut_of(h: &Hypergraph, side: &[u8]) -> u64 {
        h.connectivity_cut(&Partition::new(side.iter().map(|&s| s as u32).collect(), 2))
    }

    /// Two dense net clusters joined by a single bridge net.
    fn two_clusters() -> Hypergraph {
        let mut nets = Vec::new();
        // Cluster A over {0..4}: all triples sharing vertex 0.
        for i in 1..5u32 {
            nets.push(vec![0, i]);
            nets.push(vec![i, (i % 4) + 1]);
        }
        // Cluster B over {5..9}.
        for i in 6..10u32 {
            nets.push(vec![5, i]);
            nets.push(vec![i, ((i - 5) % 4) + 6]);
        }
        // Bridge.
        nets.push(vec![4, 5]);
        let costs = vec![1u64; nets.len()];
        Hypergraph::new(vec![1; 10], nets, costs)
    }

    #[test]
    fn recovers_clusters_from_interleaved_start() {
        let h = two_clusters();
        let mut side: Vec<u8> = (0..10).map(|v| (v % 2) as u8).collect();
        refine(&h, &mut side, 0.5, 0.05, 10);
        assert_eq!(cut_of(&h, &side), 1, "only the bridge net should be cut");
    }

    #[test]
    fn gain_formula_on_known_configuration() {
        let h = Hypergraph::new(vec![1; 3], vec![vec![0, 1], vec![0, 2]], vec![1, 4]);
        let side = vec![0u8, 0, 1];
        let mut counts = vec![[0u32; 2]; 2];
        for (net, count) in counts.iter_mut().enumerate() {
            for &p in h.pins(net) {
                count[side[p as usize] as usize] += 1;
            }
        }
        // Moving v0 to side 1: net0 {0,1} becomes cut (−1); net1 {0,2}
        // becomes internal since v0 was the last side-0 pin (+4). Gain +3.
        assert_eq!(gain(&h, &side, &counts, 0), 3);
        // Moving v1: net0 {0,1} is internal to side 0 and becomes cut (−1).
        assert_eq!(gain(&h, &side, &counts, 1), -1);
    }

    #[test]
    fn never_worsens() {
        let h = two_clusters();
        let mut side: Vec<u8> = vec![0, 1, 1, 0, 0, 1, 0, 1, 0, 1];
        let before = cut_of(&h, &side);
        refine(&h, &mut side, 0.5, 0.1, 3);
        assert!(cut_of(&h, &side) <= before);
    }

    #[test]
    fn respects_balance() {
        let h = two_clusters();
        let mut side: Vec<u8> = (0..10).map(|v| if v < 5 { 0 } else { 1 }).collect();
        refine(&h, &mut side, 0.5, 0.05, 10);
        let w0 = side.iter().filter(|&&s| s == 0).count();
        assert!((4..=6).contains(&w0));
    }

    #[test]
    fn weighted_nets_dominate_decisions() {
        // A cheap net pulls v1 right, an expensive net pulls it left.
        let h = Hypergraph::new(
            vec![1, 1, 1, 1],
            vec![vec![0, 1], vec![1, 2], vec![2, 3], vec![0, 3]],
            vec![10, 1, 10, 1],
        );
        let mut side = vec![0u8, 1, 1, 0];
        // Current cut: net0 (10, cut) + net2 (10, cut)… refine with loose
        // balance so FM can fix it to cut the two cheap nets instead.
        refine(&h, &mut side, 0.5, 0.1, 10);
        assert!(cut_of(&h, &side) <= 2, "cut {}", cut_of(&h, &side));
    }
}
