//! Topology builders for the paper's two evaluation settings.
//!
//! * [`overlap_topology`] — the main scenario: a gateway overlap graph with
//!   a prescribed (household-like) degree distribution; a client reaches its
//!   home gateway plus the gateways adjacent to it (§5.1, mean 5.6 networks
//!   in range).
//! * [`binomial_topology`] — the density sweep of Fig. 10: every non-home
//!   gateway is reachable independently with a probability chosen to hit a
//!   target mean number of available gateways per client.

use crate::channel::ChannelModel;
use crate::degree::{household_degree_sequence, prescribed_degree_graph};
use crate::topology::{Link, Rows, Topology};
use insomnia_simcore::{SimError, SimResult, SimRng};

/// Builds the main-scenario topology: gateway overlap graph with mean degree
/// `mean_networks_in_range − 1`, clients reaching home + home's neighbors.
///
/// `home[c]` gives each client's home gateway (from the trace).
pub fn overlap_topology(
    home: &[usize],
    n_gateways: usize,
    mean_networks_in_range: f64,
    channel: ChannelModel,
    rng: &mut SimRng,
) -> SimResult<Topology> {
    if !channel.is_valid() {
        return Err(SimError::InvalidConfig("invalid channel model".into()));
    }
    if mean_networks_in_range < 1.0 {
        return Err(SimError::InvalidConfig("mean networks in range must be ≥ 1".into()));
    }
    if n_gateways < 3 {
        return Err(SimError::InvalidConfig("need at least three gateways".into()));
    }
    // A client sees its home plus the home's graph neighbors, so the gateway
    // graph needs mean degree (networks-in-range − 1), floored at the
    // generator's minimum overlap of 2.
    let gw_mean = (mean_networks_in_range - 1.0).max(2.0);
    let degrees = household_degree_sequence(n_gateways, gw_mean, rng);
    let graph = prescribed_degree_graph(&degrees, rng)?;

    // One sorted row per gateway (its home link merged into its sorted
    // neighbours); every client copies its home gateway's row. An
    // out-of-range home gets an empty row, which `from_rows` rejects.
    let mut gw_links: Vec<Link> = Vec::with_capacity(n_gateways + 2 * graph.m());
    let mut gw_off = Vec::with_capacity(n_gateways + 1);
    gw_off.push(0);
    for h in 0..n_gateways {
        let nbs = graph.neighbors(h);
        let split = nbs.partition_point(|&nb| (nb as usize) < h);
        let link = |nb: &u32| Link { gateway: *nb as usize, rate_bps: channel.neighbor_bps };
        gw_links.extend(nbs[..split].iter().map(link));
        gw_links.push(Link { gateway: h, rate_bps: channel.home_bps });
        gw_links.extend(nbs[split..].iter().map(link));
        gw_off.push(gw_links.len());
    }
    let row = |h: usize| if h < n_gateways { &gw_links[gw_off[h]..gw_off[h + 1]] } else { &[] };
    let mut rows = Rows::with_capacity(home.len(), home.iter().map(|&h| row(h).len()).sum());
    for &h in home {
        rows.links.extend_from_slice(row(h));
        rows.end_row();
    }
    Topology::from_rows(n_gateways, home.to_vec(), rows)
}

/// Builds the Fig. 10 density-sweep topology: each non-home gateway is in
/// range independently with probability `(mean_in_range − 1)/(n − 1)`.
///
/// `mean_in_range = 1` reproduces the paper's leftmost point: clients can
/// only reach their own gateway.
pub fn binomial_topology(
    home: &[usize],
    n_gateways: usize,
    mean_in_range: f64,
    channel: ChannelModel,
    rng: &mut SimRng,
) -> SimResult<Topology> {
    if !channel.is_valid() {
        return Err(SimError::InvalidConfig("invalid channel model".into()));
    }
    if n_gateways < 1 {
        return Err(SimError::InvalidConfig("need at least one gateway".into()));
    }
    if mean_in_range < 1.0 || mean_in_range > n_gateways as f64 {
        return Err(SimError::InvalidConfig(format!(
            "mean_in_range {mean_in_range} outside [1, {n_gateways}]"
        )));
    }
    let p = if n_gateways == 1 { 0.0 } else { (mean_in_range - 1.0) / (n_gateways as f64 - 1.0) };
    let expected = (mean_in_range * home.len() as f64) as usize;
    let mut rows = Rows::with_capacity(home.len(), expected);
    for &h in home {
        // Gateways in index order, so the row comes out sorted; the home
        // link takes no draw.
        for g in 0..n_gateways {
            if g == h {
                rows.links.push(Link { gateway: h, rate_bps: channel.home_bps });
            } else if rng.chance(p) {
                rows.links.push(Link { gateway: g, rate_bps: channel.neighbor_bps });
            }
        }
        rows.end_row();
    }
    Topology::from_rows(n_gateways, home.to_vec(), rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn homes(n_clients: usize, n_gateways: usize) -> Vec<usize> {
        (0..n_clients).map(|c| c % n_gateways).collect()
    }

    #[test]
    fn overlap_matches_paper_density() {
        let mut rng = SimRng::new(1);
        let home = homes(272, 40);
        let t = overlap_topology(&home, 40, 5.6, ChannelModel::default(), &mut rng).unwrap();
        assert_eq!(t.n_clients(), 272);
        let mean = t.mean_degree();
        assert!((mean - 5.6).abs() < 0.8, "mean networks in range {mean}");
        // Every client reaches home at 12 Mbps and neighbors at 6 Mbps.
        for c in 0..t.n_clients() {
            let h = t.home_of(c);
            assert_eq!(t.rate_bps(c, h), Some(12.0e6));
            for l in t.reachable(c) {
                if l.gateway != h {
                    assert_eq!(l.rate_bps, 6.0e6);
                }
            }
        }
    }

    #[test]
    fn clients_sharing_home_share_neighborhood() {
        let mut rng = SimRng::new(2);
        let home = homes(80, 10);
        let t = overlap_topology(&home, 10, 4.0, ChannelModel::default(), &mut rng).unwrap();
        // Clients 0 and 10 share home gateway 0, so they see the same set.
        let a: Vec<usize> = t.reachable(0).iter().map(|l| l.gateway).collect();
        let b: Vec<usize> = t.reachable(10).iter().map(|l| l.gateway).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn binomial_hits_target_mean() {
        let mut rng = SimRng::new(3);
        let home = homes(1000, 40);
        for target in [1.0, 2.0, 5.0, 10.0] {
            let t =
                binomial_topology(&home, 40, target, ChannelModel::default(), &mut rng).unwrap();
            let mean = t.mean_degree();
            assert!((mean - target).abs() < 0.35, "target {target}, got {mean}");
        }
    }

    #[test]
    fn binomial_mean_one_is_home_only() {
        let mut rng = SimRng::new(4);
        let home = homes(50, 10);
        let t = binomial_topology(&home, 10, 1.0, ChannelModel::default(), &mut rng).unwrap();
        for c in 0..50 {
            assert_eq!(t.reachable(c).len(), 1);
            assert_eq!(t.reachable(c)[0].gateway, t.home_of(c));
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let mut rng = SimRng::new(5);
        let home = homes(4, 2);
        assert!(overlap_topology(&home, 2, 0.5, ChannelModel::default(), &mut rng).is_err());
        assert!(binomial_topology(&home, 2, 3.0, ChannelModel::default(), &mut rng).is_err());
        let bad = ChannelModel { home_bps: 1.0, neighbor_bps: 2.0 };
        assert!(overlap_topology(&home, 2, 2.0, bad, &mut rng).is_err());
    }

    #[test]
    fn overlap_rejects_fewer_than_three_gateways() {
        let mut rng = SimRng::new(6);
        for n in 0..3 {
            let home = homes(6, n.max(1));
            let err = overlap_topology(&home, n, 4.0, ChannelModel::default(), &mut rng);
            assert!(matches!(err, Err(SimError::InvalidConfig(_))), "{n} gateways: {err:?}");
        }
        assert!(overlap_topology(&homes(6, 3), 3, 4.0, ChannelModel::default(), &mut rng).is_ok());
    }
}
