//! Property-based tests of topology generation and load estimation.

use insomnia_simcore::SimRng;
use insomnia_wireless::{
    binomial_topology, household_degree_sequence, overlap_topology, prescribed_degree_graph,
    ChannelModel, Link, LoadWindow, SeqCounter, SeqNumEstimator, Topology,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Prescribed-degree graphs exactly realize their sequence and are
    /// connected, for any feasible household sequence.
    #[test]
    fn degree_graphs_realize_sequence(seed in any::<u64>(), n in 6usize..60, mean in 2.5f64..6.0) {
        let mut rng = SimRng::new(seed);
        let degrees = household_degree_sequence(n, mean, &mut rng);
        let g = prescribed_degree_graph(&degrees, &mut rng).unwrap();
        prop_assert!(g.is_connected());
        for (u, &d) in degrees.iter().enumerate() {
            prop_assert_eq!(g.degree(u), d);
        }
        // Simple graph: no self loops (implied by API) and consistent edges.
        for (u, v) in g.edges() {
            prop_assert!(u < v);
            prop_assert!(g.has_edge(u, v) && g.has_edge(v, u));
        }
    }

    /// Overlap topologies keep every client attached to its home at the
    /// home rate, neighbors at the neighbor rate.
    #[test]
    fn overlap_topologies_are_well_formed(
        seed in any::<u64>(),
        n_gw in 4usize..30,
        clients_per_gw in 1usize..8,
        mean in 2.5f64..6.0,
    ) {
        let mut rng = SimRng::new(seed);
        let home: Vec<usize> = (0..n_gw * clients_per_gw).map(|c| c % n_gw).collect();
        let channel = ChannelModel::default();
        let t = overlap_topology(&home, n_gw, mean, channel, &mut rng).unwrap();
        for c in 0..t.n_clients() {
            let h = t.home_of(c);
            prop_assert_eq!(t.rate_bps(c, h), Some(channel.home_bps));
            for link in t.reachable(c) {
                if link.gateway != h {
                    prop_assert_eq!(link.rate_bps, channel.neighbor_bps);
                }
            }
            prop_assert!(!t.reachable(c).is_empty());
        }
    }

    /// The flat builders give every client the same sorted links as a
    /// `Topology::new` over per-client lists drawn from the same RNG.
    #[test]
    fn flat_topologies_match_per_client_lists(
        seed in any::<u64>(),
        n_gw in 3usize..40,
        clients_per_gw in 1usize..8,
        mean in 1.0f64..7.0,
    ) {
        let channel = ChannelModel::default();
        // Homes in a scrambled order, so rows are not filled gateway by gateway.
        let home: Vec<usize> = (0..n_gw * clients_per_gw).map(|c| (c * 7 + 3) % n_gw).collect();
        let per_client = |extra: &mut dyn FnMut(usize, &mut Vec<Link>)| -> Topology {
            let links = home
                .iter()
                .map(|&h| {
                    let mut ls = vec![Link { gateway: h, rate_bps: channel.home_bps }];
                    extra(h, &mut ls);
                    ls
                })
                .collect();
            Topology::new(n_gw, home.clone(), links).unwrap()
        };

        let t = overlap_topology(&home, n_gw, mean, channel, &mut SimRng::new(seed)).unwrap();
        let mut rng = SimRng::new(seed);
        let degrees = household_degree_sequence(n_gw, (mean - 1.0).max(2.0), &mut rng);
        let graph = prescribed_degree_graph(&degrees, &mut rng).unwrap();
        let reference = per_client(&mut |h, ls| {
            for &nb in graph.neighbors(h) {
                ls.push(Link { gateway: nb as usize, rate_bps: channel.neighbor_bps });
            }
        });
        for c in 0..home.len() {
            prop_assert_eq!(t.reachable(c), reference.reachable(c), "overlap client {}", c);
        }

        let t = binomial_topology(&home, n_gw, mean, channel, &mut SimRng::new(seed)).unwrap();
        let mut rng = SimRng::new(seed);
        let p = (mean - 1.0) / (n_gw as f64 - 1.0);
        let reference = per_client(&mut |h, ls| {
            for g in 0..n_gw {
                if g != h && rng.chance(p) {
                    ls.push(Link { gateway: g, rate_bps: channel.neighbor_bps });
                }
            }
        });
        for c in 0..home.len() {
            prop_assert_eq!(t.reachable(c), reference.reachable(c), "binomial client {}", c);
        }
    }

    /// Binomial topologies match their target density in expectation.
    #[test]
    fn binomial_density_is_calibrated(seed in any::<u64>(), mean in 1.0f64..10.0) {
        let mut rng = SimRng::new(seed);
        let n_gw = 40;
        let home: Vec<usize> = (0..400).map(|c| c % n_gw).collect();
        let t = binomial_topology(&home, n_gw, mean, ChannelModel::default(), &mut rng).unwrap();
        prop_assert!((t.mean_degree() - mean).abs() < 0.6,
            "target {mean}, got {}", t.mean_degree());
    }

    /// The SN estimator recovers any constant frame rate exactly,
    /// regardless of rate and observation cadence (while below the
    /// wraparound bound).
    #[test]
    fn seqnum_estimator_is_exact_for_constant_rates(
        fps in 1u64..1_500,
        cadence_ms in 200u64..2_000,
    ) {
        let mut gw = SeqCounter::new();
        let mut est = SeqNumEstimator::new(60_000);
        let mut t = 0u64;
        for _ in 0..50 {
            est.observe(t, gw.current_sn());
            // Frames sent during the next interval (kept below the 4096
            // wraparound bound by construction: 1500 fps × 2 s = 3000).
            gw.add_frames(fps * cadence_ms / 1_000);
            t += cadence_ms;
        }
        let measured = est.frames_per_sec().unwrap();
        let expected = (fps * cadence_ms / 1_000) as f64 * 1_000.0 / cadence_ms as f64;
        prop_assert!((measured - expected).abs() < 1e-6,
            "measured {measured} vs {expected}");
    }

    /// The load window's byte count equals the sum of deposits inside the
    /// window, for arbitrary deposit patterns.
    #[test]
    fn load_window_conserves_bytes(
        deposits in prop::collection::vec((0u64..120_000, 1u64..100_000), 1..100),
    ) {
        let window = 60_000u64;
        let mut w = LoadWindow::new(window);
        let mut sorted = deposits.clone();
        sorted.sort_by_key(|d| d.0);
        for &(t, b) in &sorted {
            w.add(t, b);
        }
        let now = sorted.last().unwrap().0;
        let expect: u64 = sorted
            .iter()
            .filter(|(t, _)| t + window > now)
            .map(|&(_, b)| b)
            .sum();
        prop_assert_eq!(w.bytes_in_window(now), expect);
    }
}
