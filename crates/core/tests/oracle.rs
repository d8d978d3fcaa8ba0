//! Optimal on instances whose optimum is known by construction.
//!
//! A disjoint star has a centre gateway and `m ≥ 2` users; each user
//! reaches the centre and one private leaf gateway, and capacity is ample.
//! Stars share no gateway, so every star needs at least one online gateway
//! of its own, and only its centre covers all of its users with one: the
//! unique minimum cover of `k` stars is their `k` centres. Each star's
//! leaves take lower gateway indices than its centre, so the search
//! branches on a leaf first and has to back out of it.

use insomnia_core::{solve, SolverInput};

/// `k` disjoint stars, star `s` with `2 + s % 3` users. Returns the input
/// and the centres.
fn disjoint_stars(k: usize) -> (SolverInput, Vec<usize>) {
    let (mut reach, mut centres) = (Vec::new(), Vec::new());
    let mut next_gw = 0;
    for s in 0..k {
        let m = 2 + s % 3;
        let centre = next_gw + m;
        for leaf in next_gw..centre {
            reach.push(vec![(leaf, 12.0e6), (centre, 12.0e6)]);
        }
        centres.push(centre);
        next_gw = centre + 1;
    }
    let demands = vec![0.2e6; reach.len()];
    let ample = demands.iter().sum::<f64>();
    let input = SolverInput::new(demands, reach, next_gw, vec![ample; next_gw], 0)
        .expect("well-formed stars");
    (input, centres)
}

#[test]
fn disjoint_stars_need_exactly_their_centres() {
    for k in 1..=8 {
        let (input, centres) = disjoint_stars(k);
        let out = solve(&input);
        assert_eq!(out.online, centres, "k = {k}");
        assert!(out.proven_optimal, "k = {k}: {} nodes", out.nodes);
    }
}
