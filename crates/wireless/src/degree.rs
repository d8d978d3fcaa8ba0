//! Random simple connected graphs with a prescribed degree sequence.
//!
//! The paper (§5.1) builds its wireless overlap topology with the generator
//! of Viger & Latapy ("Efficient and simple generation of random simple
//! connected graphs with prescribed degree sequence", COCOON'05): realize
//! the degree sequence as a simple graph, randomize it with double edge
//! swaps, and restore connectivity with swaps that preserve degrees. This
//! module implements that pipeline for the gateway overlap graph.
//!
//! # Layout
//!
//! Every step of the pipeline preserves degrees, so a [`Graph`] is one CSR
//! adjacency whose row offsets are fixed by the degree sequence: node `u`'s
//! neighbours are `adj[off[u]..off[u + 1]]`, as `u32`. Havel–Hakimi fills
//! the rows by appending. The swap loop works on the edge list alone and
//! tests candidate edges against an n × n adjacency bit matrix (one bit per
//! `(min, max)` pair: 31 KiB at n = 500), so a rejected swap costs two bit
//! reads and an accepted one flips four bits; the rows are refilled from
//! the edge list when the loop ends. The matrix is why
//! [`prescribed_degree_graph`] caps `n²` at [`MAX_TOPOLOGY_PAIRS`] (16 MiB).
//! Rows are sorted after Havel–Hakimi and again after the swap loop, so a
//! graph handed out always has sorted rows.
//!
//! # Why the graphs cannot change
//!
//! Every graph (and with it every output byte of a run) is a function of
//! the RNG draws, and the draws depend only on three orders, which this
//! layout keeps exactly:
//!
//! * Havel–Hakimi's pick order — remaining degree descending, then node
//!   descending — read from degree buckets instead of a re-sorted list;
//! * the swap loop's edge list, which starts as the sorted `(u < v)` list
//!   and is updated entry by entry exactly as before;
//! * the connectivity repair's candidate order — components by smallest
//!   node, edges `(u < v)` by sorted `u` then sorted row — which holds
//!   because the repair re-sorts every row it touches.
//!
//! The test module keeps the previous set-based generator as an oracle and
//! checks edge-list and RNG-state equality against it.

use crate::shard::{topology_pair_count, MAX_TOPOLOGY_PAIRS};
use insomnia_simcore::{SimError, SimResult, SimRng};

/// An undirected simple graph on `n` nodes with fixed degrees, stored as
/// one CSR adjacency (rows sorted).
#[derive(Debug, Clone)]
pub struct Graph {
    /// `off[u]..off[u + 1]` is node `u`'s row of `adj`.
    off: Vec<usize>,
    /// Concatenated neighbour rows.
    adj: Vec<u32>,
}

impl Graph {
    /// An edgeless graph whose rows are sized for `degrees` (to be filled).
    fn with_degrees(degrees: &[usize]) -> Self {
        let mut off = Vec::with_capacity(degrees.len() + 1);
        let mut total = 0usize;
        off.push(0);
        for &d in degrees {
            total += d;
            off.push(total);
        }
        Graph { off, adj: vec![0; total] }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.off.len() - 1
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        self.adj.len() / 2
    }

    /// True if `{u, v}` is an edge.
    pub fn has_edge(&self, u: usize, v: usize) -> bool {
        let (row, x) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(row).contains(&(x as u32))
    }

    /// Degree of node `u`.
    pub fn degree(&self, u: usize) -> usize {
        self.off[u + 1] - self.off[u]
    }

    /// Neighbors of `u`, sorted.
    pub fn neighbors(&self, u: usize) -> &[u32] {
        &self.adj[self.off[u]..self.off[u + 1]]
    }

    fn row_mut(&mut self, u: u32) -> &mut [u32] {
        let u = u as usize;
        &mut self.adj[self.off[u]..self.off[u + 1]]
    }

    /// Overwrites `old` with `new` in `u`'s row (degrees never change).
    fn replace(&mut self, u: u32, old: u32, new: u32) {
        let row = self.row_mut(u);
        let slot = row.iter().position(|&x| x == old).expect("replaced edge exists");
        row[slot] = new;
    }

    fn sort_rows(&mut self) {
        for u in 0..self.n() {
            self.row_mut(u as u32).sort_unstable();
        }
    }

    /// All edges as sorted `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::with_capacity(self.m());
        for u in 0..self.n() {
            out.extend(
                self.neighbors(u).iter().map(|&v| v as usize).filter(|&v| u < v).map(|v| (u, v)),
            );
        }
        out
    }

    /// Connected components as sorted lists of nodes, ordered by their
    /// smallest node.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let n = self.n();
        let mut seen = vec![false; n];
        let mut out = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(u) = stack.pop() {
                comp.push(u);
                for &v in self.neighbors(u) {
                    if !seen[v as usize] {
                        seen[v as usize] = true;
                        stack.push(v as usize);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// True if the graph is connected (singleton graphs count as connected).
    pub fn is_connected(&self) -> bool {
        let n = self.n();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0u32];
        seen[0] = true;
        let mut reached = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u as usize) {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        reached == n
    }
}

/// Generates a random simple *connected* graph with the given degree
/// sequence, following Viger–Latapy: Havel–Hakimi realization, edge-swap
/// randomization, connectivity repair via degree-preserving swaps.
///
/// Fails if the sequence is not graphical or cannot be connected (sum of
/// degrees < 2(n−1) or any degree is 0 with n > 1).
pub fn prescribed_degree_graph(degrees: &[usize], rng: &mut SimRng) -> SimResult<Graph> {
    let n = degrees.len();
    if n == 0 {
        return Err(SimError::InvalidInput("empty degree sequence".into()));
    }
    let sum: usize = degrees.iter().sum();
    if !sum.is_multiple_of(2) {
        return Err(SimError::InvalidInput("degree sum must be even".into()));
    }
    if n > 1 && degrees.contains(&0) {
        return Err(SimError::InvalidInput("zero-degree node cannot be connected".into()));
    }
    if sum / 2 < n.saturating_sub(1) {
        return Err(SimError::InvalidInput("too few edges to connect the graph".into()));
    }
    // The swap loop's adjacency matrix holds n² bits; the bound also keeps
    // every node index within `u32`.
    if topology_pair_count(n, n).is_none_or(|pairs| pairs > MAX_TOPOLOGY_PAIRS) {
        return Err(SimError::InvalidInput(format!(
            "{n} nodes need a {n} x {n} adjacency matrix, over the budget of \
             {MAX_TOPOLOGY_PAIRS} pairs"
        )));
    }

    let mut g = havel_hakimi(degrees)?;
    let swap_attempts = 10 * g.m().max(1);
    randomize_edges(&mut g, rng, swap_attempts);
    connect(&mut g, rng)?;
    debug_assert!(g.is_connected());
    debug_assert!((0..n).all(|u| g.degree(u) == degrees[u]));
    Ok(g)
}

/// Havel–Hakimi: deterministic realization of a graphical sequence.
///
/// Each step connects the node with the largest remaining degree (ties to
/// the larger node) to the next `d` nodes in that order. `bucket[k]` holds
/// the nodes of remaining degree `k` in ascending order, so the pick order
/// reads buckets top-down, each from its back; the decremented run of
/// bucket `k` is merged into bucket `k − 1`.
fn havel_hakimi(degrees: &[usize]) -> SimResult<Graph> {
    let n = degrees.len();
    let not_graphical = || SimError::InvalidInput("degree sequence not graphical".into());
    if degrees.iter().any(|&d| d >= n) {
        return Err(not_graphical());
    }
    let mut g = Graph::with_degrees(degrees);
    let mut fill: Vec<usize> = g.off[..n].to_vec();
    let mut bucket: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, &d) in degrees.iter().enumerate() {
        if d > 0 {
            bucket[d].push(u as u32);
        }
    }
    let mut alive = degrees.iter().filter(|&&d| d > 0).count();
    let mut top = n - 1;
    // Targets of one step, grouped in runs `(source bucket, range)`.
    let mut taken: Vec<u32> = Vec::new();
    let mut runs: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    loop {
        while top > 0 && bucket[top].is_empty() {
            top -= 1;
        }
        if top == 0 {
            break;
        }
        let d = top;
        let u = bucket[d].pop().expect("non-empty top bucket");
        alive -= 1;
        if alive < d {
            return Err(not_graphical());
        }
        taken.clear();
        let mut need = d;
        let mut k = d;
        while need > 0 {
            let b = &mut bucket[k];
            let start = b.len() - need.min(b.len());
            let from = taken.len();
            taken.extend_from_slice(&b[start..]);
            runs.push((k, from..taken.len()));
            need -= b.len() - start;
            b.truncate(start);
            k -= 1;
        }
        for &v in &taken {
            g.adj[fill[u as usize]] = v;
            fill[u as usize] += 1;
            g.adj[fill[v as usize]] = u;
            fill[v as usize] += 1;
        }
        for (k, run) in runs.drain(..) {
            if k == 1 {
                alive -= run.len();
            } else {
                merge_ascending(&mut bucket[k - 1], &taken[run]);
            }
        }
    }
    g.sort_rows();
    Ok(g)
}

/// Merges the ascending `run` into the ascending `into`, in place from the
/// back (cost: `run` plus the elements of `into` above `run`'s minimum).
fn merge_ascending(into: &mut Vec<u32>, run: &[u32]) {
    let mut i = into.len();
    let mut j = run.len();
    into.resize(i + j, 0);
    while j > 0 {
        let w = i + j - 1;
        if i > 0 && into[i - 1] > run[j - 1] {
            into[w] = into[i - 1];
            i -= 1;
        } else {
            into[w] = run[j - 1];
            j -= 1;
        }
    }
}

/// Randomizes a graph in place with double edge swaps that keep it simple
/// and preserve all degrees.
///
/// The swaps rewrite the sorted `(u < v)` edge list, whose order drives the
/// RNG draws, and test candidate edges against an [`EdgeBits`] matrix of
/// the same graph. When the loop ends the CSR rows are refilled from the
/// edge list and sorted.
fn randomize_edges(g: &mut Graph, rng: &mut SimRng, attempts: usize) {
    let n = g.n();
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(g.m());
    for u in 0..n {
        edges.extend(g.neighbors(u).iter().filter(|&&v| (u as u32) < v).map(|&v| (u as u32, v)));
    }
    if edges.len() < 2 {
        return;
    }
    let mut bits = EdgeBits::new(n);
    for &(u, v) in &edges {
        bits.flip(u, v);
    }
    for _ in 0..attempts {
        let i = rng.below_usize(edges.len());
        let j = rng.below_usize(edges.len());
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        // Swap to (a,c),(b,d) or (a,d),(b,c), chosen at random.
        let ((p, q), (r, s)) = if rng.chance(0.5) { ((a, c), (b, d)) } else { ((a, d), (b, c)) };
        if p == q || r == s || bits.get(p, q) || bits.get(r, s) {
            continue;
        }
        // An accepted swap has four distinct endpoints (a shared one makes
        // a self-loop or an existing edge), so the four pairs are distinct.
        bits.flip(a, b);
        bits.flip(c, d);
        bits.flip(p, q);
        bits.flip(r, s);
        edges[i] = (p.min(q), p.max(q));
        edges[j] = (r.min(s), r.max(s));
    }
    let mut fill: Vec<usize> = g.off[..n].to_vec();
    for &(u, v) in &edges {
        g.adj[fill[u as usize]] = v;
        fill[u as usize] += 1;
        g.adj[fill[v as usize]] = u;
        fill[v as usize] += 1;
    }
    g.sort_rows();
}

/// The swap loop's adjacency test: bit `min · n + max` is set iff
/// `{min, max}` is an edge.
struct EdgeBits {
    n: usize,
    words: Vec<u64>,
}

impl EdgeBits {
    /// An empty matrix over `n` nodes (`n²` bits).
    fn new(n: usize) -> Self {
        EdgeBits { n, words: vec![0; (n * n).div_ceil(64)] }
    }

    fn index(&self, x: u32, y: u32) -> usize {
        x.min(y) as usize * self.n + x.max(y) as usize
    }

    /// True if `{x, y}` is an edge.
    fn get(&self, x: u32, y: u32) -> bool {
        let i = self.index(x, y);
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Adds `{x, y}` if absent, removes it if present.
    fn flip(&mut self, x: u32, y: u32) {
        let i = self.index(x, y);
        self.words[i / 64] ^= 1 << (i % 64);
    }
}

/// Makes the graph connected with degree-preserving swaps: take an edge
/// `(c, d)` inside a cycle-containing component and an edge `(a, b)` of
/// another component, rewire to `(a, d), (c, b)`. Falls back to an error if
/// the structure makes repair impossible within a bounded number of rounds.
fn connect(g: &mut Graph, rng: &mut SimRng) -> SimResult<()> {
    if g.is_connected() {
        return Ok(());
    }
    for _round in 0..4 * g.n().max(4) {
        let comps = g.components();
        if comps.len() <= 1 {
            return Ok(());
        }
        // Pick any edge from the first component and any from the second;
        // a double swap merges the two components while preserving degrees.
        let edge_in = |comp: &[usize], g: &Graph, rng: &mut SimRng| -> Option<(u32, u32)> {
            let mut candidates: Vec<(u32, u32)> = Vec::new();
            for &u in comp {
                for &v in g.neighbors(u) {
                    if (u as u32) < v {
                        candidates.push((u as u32, v));
                    }
                }
            }
            if candidates.is_empty() {
                None
            } else {
                Some(candidates[rng.below_usize(candidates.len())])
            }
        };
        let (a, b) = edge_in(&comps[0], g, rng)
            .ok_or_else(|| SimError::InvalidInput("isolated component without edges".into()))?;
        let (c, d) = edge_in(&comps[1], g, rng)
            .ok_or_else(|| SimError::InvalidInput("isolated component without edges".into()))?;
        // (a,c) and (b,d) are cross-component, hence cannot be existing edges.
        g.replace(a, b, c);
        g.replace(b, a, d);
        g.replace(c, d, a);
        g.replace(d, c, b);
        for x in [a, b, c, d] {
            g.row_mut(x).sort_unstable();
        }
    }
    if g.is_connected() {
        Ok(())
    } else {
        Err(SimError::BudgetExhausted("connectivity repair did not converge".into()))
    }
}

/// Draws a right-skewed degree sequence with the given mean (matching the
/// per-household "networks in range" distributions measured in the paper's
/// references): shifted Poisson with a minimum overlap of two (urban
/// deployments in the cited measurements see several networks everywhere),
/// clamped to `[2, n-1]`, parity-corrected.
pub fn household_degree_sequence(n: usize, mean: f64, rng: &mut SimRng) -> Vec<usize> {
    assert!(n >= 3, "need at least three gateways");
    assert!(mean >= 2.0, "mean gateway-overlap degree below 2 unsupported");
    // Rejection-sample until the sequence is graphical (Erdős–Gallai) —
    // clamping high draws to n−1 on small graphs can otherwise produce
    // unrealizable sequences.
    for _ in 0..200 {
        let mut degrees: Vec<usize> = (0..n)
            .map(|_| {
                let d = 2 + rng.poisson((mean - 2.0).max(0.0)) as usize;
                d.min(n - 1)
            })
            .collect();
        // Parity fix: bump one node (without exceeding n-1).
        if degrees.iter().sum::<usize>() % 2 == 1 {
            if let Some(d) = degrees.iter_mut().find(|d| **d < n - 1) {
                *d += 1;
            } else {
                degrees[0] -= 1; // all at n-1 (only possible for tiny n)
            }
        }
        if is_graphical(&degrees) {
            return degrees;
        }
    }
    // Pathological parameters (mean ≈ n): fall back to a near-regular
    // sequence, which is always graphical for even sums.
    let d = (mean.round() as usize).clamp(2, n - 1);
    let mut degrees = vec![d; n];
    if degrees.iter().sum::<usize>() % 2 == 1 {
        degrees[0] = if d < n - 1 { d + 1 } else { d - 1 };
    }
    degrees
}

/// Erdős–Gallai test: is the (even-sum) degree sequence realizable as a
/// simple graph?
///
/// Linear time: a counting sort (every degree is below `n`), then for each
/// `k` the right-hand side `k(k−1) + Σ_{i≥k} min(d_i, k)` from `p`, the
/// number of degrees `≥ k` (a pointer that only moves down): positions
/// `k..p` contribute `k` each, the rest their suffix sum.
pub fn is_graphical(degrees: &[usize]) -> bool {
    let n = degrees.len();
    if degrees.iter().any(|&d| d >= n) {
        return false;
    }
    let mut count = vec![0usize; n];
    for &d in degrees {
        count[d] += 1;
    }
    // Descending order and its suffix sums: suffix[i] = Σ_{j≥i} d_j.
    let mut d = Vec::with_capacity(n);
    for (x, &c) in count.iter().enumerate().rev() {
        d.extend(std::iter::repeat_n(x, c));
    }
    let mut suffix = vec![0usize; n + 1];
    for i in (0..n).rev() {
        suffix[i] = suffix[i + 1] + d[i];
    }
    if !suffix[0].is_multiple_of(2) {
        return false;
    }
    let mut p = n;
    for k in 1..=n {
        while p > 0 && d[p - 1] < k {
            p -= 1;
        }
        let lhs = suffix[0] - suffix[k];
        let split = p.max(k);
        let rhs = k * (k - 1) + (split - k) * k + suffix[split];
        if lhs > rhs {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Builds a sorted-row graph from an edge list (test fixture).
    fn graph_from_edges(n: usize, edges: &[(usize, usize)]) -> Graph {
        let mut degrees = vec![0usize; n];
        for &(u, v) in edges {
            degrees[u] += 1;
            degrees[v] += 1;
        }
        let mut g = Graph::with_degrees(&degrees);
        let mut fill = g.off[..n].to_vec();
        for &(u, v) in edges {
            g.adj[fill[u]] = v as u32;
            fill[u] += 1;
            g.adj[fill[v]] = u as u32;
            fill[v] += 1;
        }
        g.sort_rows();
        g
    }

    #[test]
    fn havel_hakimi_realizes_simple_sequences() {
        let g = havel_hakimi(&[2, 2, 2]).unwrap(); // triangle
        assert_eq!(g.m(), 3);
        assert!(g.is_connected());
        let g = havel_hakimi(&[3, 1, 1, 1]).unwrap(); // star
        assert_eq!(g.degree(0), 3);
    }

    #[test]
    fn rejects_non_graphical() {
        assert!(havel_hakimi(&[3, 1, 1]).is_err()); // odd handshake handled upstream, this is ungraphical
        assert!(prescribed_degree_graph(&[5, 1, 1, 1, 1, 1], &mut SimRng::new(1)).is_ok());
        assert!(prescribed_degree_graph(&[4, 4, 1, 1], &mut SimRng::new(1)).is_err());
    }

    #[test]
    fn rejects_odd_sum_and_zero_degrees() {
        let mut rng = SimRng::new(2);
        assert!(prescribed_degree_graph(&[1, 1, 1], &mut rng).is_err());
        assert!(prescribed_degree_graph(&[0, 2, 2, 2], &mut rng).is_err());
    }

    #[test]
    fn preserves_degrees_and_connectivity() {
        let rng = SimRng::new(3);
        for seed in 0..5u64 {
            let mut r = rng.fork_idx("case", seed);
            let degrees = household_degree_sequence(40, 4.6, &mut r);
            let g = prescribed_degree_graph(&degrees, &mut r).unwrap();
            assert!(g.is_connected());
            for (u, &d) in degrees.iter().enumerate() {
                assert_eq!(g.degree(u), d, "node {u}");
            }
        }
    }

    #[test]
    fn randomization_changes_structure_but_not_degrees() {
        let degrees = vec![3usize; 20]; // 3-regular on 20 nodes
        let g1 = prescribed_degree_graph(&degrees, &mut SimRng::new(10)).unwrap();
        let g2 = prescribed_degree_graph(&degrees, &mut SimRng::new(11)).unwrap();
        assert_ne!(g1.edges(), g2.edges(), "different seeds should differ");
        assert!(g1.edges().len() == 30 && g2.edges().len() == 30);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let degrees = vec![4usize; 30];
        let g1 = prescribed_degree_graph(&degrees, &mut SimRng::new(7)).unwrap();
        let g2 = prescribed_degree_graph(&degrees, &mut SimRng::new(7)).unwrap();
        assert_eq!(g1.edges(), g2.edges());
    }

    #[test]
    fn household_sequence_hits_target_mean() {
        let mut rng = SimRng::new(4);
        let degrees = household_degree_sequence(400, 4.6, &mut rng);
        let mean = degrees.iter().sum::<usize>() as f64 / degrees.len() as f64;
        assert!((mean - 4.6).abs() < 0.4, "mean degree {mean}");
        assert!(degrees.iter().all(|&d| (2..400).contains(&d)), "min overlap is 2");
        assert_eq!(degrees.iter().sum::<usize>() % 2, 0);
    }

    #[test]
    fn erdos_gallai_known_cases() {
        assert!(is_graphical(&[2, 2, 2])); // triangle
        assert!(is_graphical(&[3, 3, 3, 3])); // K4
        assert!(is_graphical(&[3, 1, 1, 1])); // star
        assert!(is_graphical(&[4, 1, 1, 1, 1, 0])); // K1,4 star + isolate
        assert!(!is_graphical(&[3, 1, 1])); // odd sum
        assert!(!is_graphical(&[4, 4, 1, 1])); // degree 4 impossible on 4 nodes
        assert!(!is_graphical(&[5, 5, 5, 1, 1, 1])); // Erdős–Gallai violation
    }

    #[test]
    fn components_and_edges_helpers() {
        let g = graph_from_edges(5, &[(2, 3), (0, 1)]);
        assert_eq!(g.components(), vec![vec![0, 1], vec![2, 3], vec![4]]);
        assert!(!g.is_connected());
        assert_eq!(g.edges(), vec![(0, 1), (2, 3)]);
        assert_eq!(g.m(), 2);
        assert_eq!(g.neighbors(3), &[2]);
        assert!(g.has_edge(3, 2) && !g.has_edge(1, 2));
    }

    #[test]
    fn bucket_merge_keeps_ascending_order() {
        let mut into = vec![1, 4, 9];
        merge_ascending(&mut into, &[0, 5, 10]);
        assert_eq!(into, [0, 1, 4, 5, 9, 10]);
        let mut empty = Vec::new();
        merge_ascending(&mut empty, &[2, 3]);
        assert_eq!(empty, [2, 3]);
    }

    /// The set-based generator this module replaced, kept verbatim as the
    /// equivalence oracle: a full re-sort per Havel–Hakimi step, adjacency
    /// in hash sets, neighbours sorted on every read.
    mod oracle {
        use insomnia_simcore::{SimError, SimResult, SimRng};
        use std::collections::HashSet;

        pub struct Graph {
            adj: Vec<HashSet<usize>>,
        }

        impl Graph {
            fn new(n: usize) -> Self {
                Graph { adj: vec![HashSet::new(); n] }
            }

            fn n(&self) -> usize {
                self.adj.len()
            }

            fn m(&self) -> usize {
                self.adj.iter().map(|a| a.len()).sum::<usize>() / 2
            }

            fn add_edge(&mut self, u: usize, v: usize) {
                if u != v {
                    self.adj[u].insert(v);
                    self.adj[v].insert(u);
                }
            }

            fn remove_edge(&mut self, u: usize, v: usize) {
                self.adj[u].remove(&v);
                self.adj[v].remove(&u);
            }

            fn has_edge(&self, u: usize, v: usize) -> bool {
                self.adj[u].contains(&v)
            }

            fn neighbors(&self, u: usize) -> Vec<usize> {
                let mut ns: Vec<usize> = self.adj[u].iter().copied().collect();
                ns.sort_unstable();
                ns
            }

            pub fn edges(&self) -> Vec<(usize, usize)> {
                let mut out = Vec::with_capacity(self.m());
                for (u, ns) in self.adj.iter().enumerate() {
                    for &v in ns {
                        if u < v {
                            out.push((u, v));
                        }
                    }
                }
                out.sort_unstable();
                out
            }

            fn components(&self) -> Vec<Vec<usize>> {
                let n = self.n();
                let mut seen = vec![false; n];
                let mut out = Vec::new();
                for start in 0..n {
                    if seen[start] {
                        continue;
                    }
                    let mut comp = Vec::new();
                    let mut stack = vec![start];
                    seen[start] = true;
                    while let Some(u) = stack.pop() {
                        comp.push(u);
                        for &v in &self.adj[u] {
                            if !seen[v] {
                                seen[v] = true;
                                stack.push(v);
                            }
                        }
                    }
                    comp.sort_unstable();
                    out.push(comp);
                }
                out
            }
        }

        pub fn prescribed_degree_graph(degrees: &[usize], rng: &mut SimRng) -> SimResult<Graph> {
            let n = degrees.len();
            if n == 0 {
                return Err(SimError::InvalidInput("empty degree sequence".into()));
            }
            let sum: usize = degrees.iter().sum();
            if !sum.is_multiple_of(2) {
                return Err(SimError::InvalidInput("degree sum must be even".into()));
            }
            if n > 1 && degrees.contains(&0) {
                return Err(SimError::InvalidInput("zero-degree node cannot be connected".into()));
            }
            if sum / 2 < n.saturating_sub(1) {
                return Err(SimError::InvalidInput("too few edges to connect the graph".into()));
            }
            let mut g = havel_hakimi(degrees)?;
            let swap_attempts = 10 * g.m().max(1);
            randomize_edges(&mut g, rng, swap_attempts);
            connect(&mut g, rng)?;
            Ok(g)
        }

        pub fn havel_hakimi(degrees: &[usize]) -> SimResult<Graph> {
            let n = degrees.len();
            let mut g = Graph::new(n);
            let mut remaining: Vec<(usize, usize)> = degrees.iter().copied().zip(0..n).collect();
            loop {
                remaining.sort_unstable_by(|a, b| b.cmp(a));
                let (d, u) = remaining[0];
                if d == 0 {
                    break;
                }
                if d >= remaining.len() {
                    return Err(SimError::InvalidInput("degree sequence not graphical".into()));
                }
                for item in remaining.iter_mut().take(d + 1).skip(1) {
                    if item.0 == 0 {
                        return Err(SimError::InvalidInput("degree sequence not graphical".into()));
                    }
                    g.add_edge(u, item.1);
                    item.0 -= 1;
                }
                remaining[0].0 = 0;
            }
            Ok(g)
        }

        fn randomize_edges(g: &mut Graph, rng: &mut SimRng, attempts: usize) {
            let mut edges = g.edges();
            if edges.len() < 2 {
                return;
            }
            for _ in 0..attempts {
                let i = rng.below_usize(edges.len());
                let j = rng.below_usize(edges.len());
                if i == j {
                    continue;
                }
                let (a, b) = edges[i];
                let (c, d) = edges[j];
                let ((p, q), (r, s)) =
                    if rng.chance(0.5) { ((a, c), (b, d)) } else { ((a, d), (b, c)) };
                if p == q || r == s || g.has_edge(p, q) || g.has_edge(r, s) {
                    continue;
                }
                g.remove_edge(a, b);
                g.remove_edge(c, d);
                g.add_edge(p, q);
                g.add_edge(r, s);
                edges[i] = if p < q { (p, q) } else { (q, p) };
                edges[j] = if r < s { (r, s) } else { (s, r) };
            }
        }

        fn connect(g: &mut Graph, rng: &mut SimRng) -> SimResult<()> {
            for _round in 0..4 * g.n().max(4) {
                let comps = g.components();
                if comps.len() <= 1 {
                    return Ok(());
                }
                let edge_in =
                    |comp: &[usize], g: &Graph, rng: &mut SimRng| -> Option<(usize, usize)> {
                        let mut candidates: Vec<(usize, usize)> = Vec::new();
                        for &u in comp {
                            for v in g.neighbors(u) {
                                if u < v {
                                    candidates.push((u, v));
                                }
                            }
                        }
                        if candidates.is_empty() {
                            None
                        } else {
                            Some(candidates[rng.below_usize(candidates.len())])
                        }
                    };
                let (a, b) = edge_in(&comps[0], g, rng).ok_or_else(|| {
                    SimError::InvalidInput("isolated component without edges".into())
                })?;
                let (c, d) = edge_in(&comps[1], g, rng).ok_or_else(|| {
                    SimError::InvalidInput("isolated component without edges".into())
                })?;
                g.remove_edge(a, b);
                g.remove_edge(c, d);
                g.add_edge(a, c);
                g.add_edge(b, d);
            }
            if g.components().len() <= 1 {
                Ok(())
            } else {
                Err(SimError::BudgetExhausted("connectivity repair did not converge".into()))
            }
        }

        /// Quadratic Erdős–Gallai.
        pub fn is_graphical(degrees: &[usize]) -> bool {
            let mut d: Vec<usize> = degrees.to_vec();
            d.sort_unstable_by(|a, b| b.cmp(a));
            let n = d.len();
            let total: usize = d.iter().sum();
            if !total.is_multiple_of(2) {
                return false;
            }
            if d.first().is_some_and(|&x| x >= n) {
                return false;
            }
            let mut lhs = 0usize;
            for k in 1..=n {
                lhs += d[k - 1];
                let rhs: usize = k * (k - 1) + d[k..].iter().map(|&x| x.min(k)).sum::<usize>();
                if lhs > rhs {
                    return false;
                }
            }
            true
        }
    }

    /// Both generators from one seed: identical result (edge list or the
    /// error), and the RNG left at the same position.
    fn assert_matches_oracle(degrees: &[usize], seed: u64) {
        let (mut r_new, mut r_old) = (SimRng::new(seed), SimRng::new(seed));
        let new = prescribed_degree_graph(degrees, &mut r_new);
        let old = oracle::prescribed_degree_graph(degrees, &mut r_old);
        match (new, old) {
            (Ok(g), Ok(o)) => {
                assert_eq!(g.edges(), o.edges(), "degrees {degrees:?} seed {seed}");
                for u in 0..g.n() {
                    assert!(g.neighbors(u).windows(2).all(|w| w[0] < w[1]), "row {u} unsorted");
                }
            }
            (Err(e), Err(o)) => assert_eq!(e.to_string(), o.to_string()),
            (new, old) => panic!(
                "degrees {degrees:?} seed {seed}: new ok={} oracle ok={}",
                new.is_ok(),
                old.is_ok()
            ),
        }
        assert_eq!(r_new.below(u64::MAX), r_old.below(u64::MAX), "RNG position diverged");
    }

    #[test]
    fn havel_hakimi_matches_the_oracle_on_small_cases() {
        for degrees in [
            &[2, 2, 2][..],
            &[3, 1, 1, 1],
            &[3, 1, 1],
            &[4, 4, 1, 1],
            &[5, 5, 5, 1, 1, 1],
            &[3, 3, 2, 2, 2, 1, 1],
            &[1, 1, 0, 2, 2],
            &[0, 0, 0],
        ] {
            match (havel_hakimi(degrees), oracle::havel_hakimi(degrees)) {
                (Ok(g), Ok(o)) => assert_eq!(g.edges(), o.edges(), "{degrees:?}"),
                (Err(e), Err(o)) => assert_eq!(e.to_string(), o.to_string()),
                (g, o) => panic!("{degrees:?}: new ok={} oracle ok={}", g.is_ok(), o.is_ok()),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Household sequences — including low means, where the swap loop
        /// often disconnects the graph and `connect` repairs it — give the
        /// oracle's graph and RNG position.
        #[test]
        fn household_graphs_match_the_oracle(seed in any::<u64>(), n in 3usize..80, mean in 2.0f64..7.0) {
            let mut rng = SimRng::new(seed);
            let degrees = household_degree_sequence(n, mean, &mut rng);
            assert_matches_oracle(&degrees, seed ^ 0x5eed);
        }

        /// Arbitrary even-sum sequences without zeros: the same graph when
        /// the oracle calls them graphical, the same error otherwise.
        #[test]
        fn arbitrary_sequences_match_the_oracle(
            seed in any::<u64>(),
            raw in prop::collection::vec(1usize..12, 3..80),
        ) {
            let mut degrees = raw;
            if degrees.iter().sum::<usize>() % 2 == 1 {
                degrees[0] += 1;
            }
            assert_matches_oracle(&degrees, seed);
        }

        /// Linear Erdős–Gallai agrees with the quadratic one on any input:
        /// zeros, odd sums and entries ≥ n included.
        #[test]
        fn is_graphical_matches_the_quadratic_oracle(
            degrees in prop::collection::vec(0usize..20, 0..40),
        ) {
            prop_assert_eq!(is_graphical(&degrees), oracle::is_graphical(&degrees), "{:?}", degrees);
        }
    }

    #[test]
    fn household_graphs_match_the_oracle_at_shard_scale() {
        // Shard-sized gateway graphs at the presets' overlap degree: the
        // swap loop runs ~10⁴ attempts, far more than the proptests reach.
        for n in [200usize, 500, 625] {
            for seed in 0..4u64 {
                let degrees = household_degree_sequence(n, 6.0, &mut SimRng::new(seed));
                assert_matches_oracle(&degrees, seed ^ 0x5eed);
            }
        }
    }

    #[test]
    fn rejects_graphs_past_the_matrix_budget() {
        // 11 585² fits the budget; 11 586² does not, and nothing is built.
        const { assert!(11_585u64 * 11_585 <= MAX_TOPOLOGY_PAIRS) };
        let err = prescribed_degree_graph(&vec![2; 11_586], &mut SimRng::new(1)).unwrap_err();
        assert!(matches!(err, SimError::InvalidInput(_)), "{err}");
        assert!(err.to_string().contains("11586 x 11586"), "{err}");
    }

    #[test]
    fn connect_repairs_match_the_oracle() {
        // Two-regular sequences split into several cycles under swaps, so
        // every seed exercises the repair loop.
        let mut repaired = 0;
        for seed in 0..64u64 {
            let degrees = vec![2usize; 12 + (seed % 8) as usize];
            let mut probe = SimRng::new(seed);
            let mut g = havel_hakimi(&degrees).unwrap();
            let attempts = 10 * g.m();
            randomize_edges(&mut g, &mut probe, attempts);
            repaired += usize::from(!g.is_connected());
            assert_matches_oracle(&degrees, seed);
        }
        assert!(repaired > 0, "no seed needed a connectivity repair");
    }
}
