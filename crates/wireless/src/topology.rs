//! Client ↔ gateway reachability with per-link available bandwidth.
//!
//! This is the `w_ij` of the paper's problem formulation (§3.1): the maximum
//! available bandwidth between user `i` and gateway `j` given the wireless
//! channel, with `w_ij = 0` meaning "out of range".

use insomnia_simcore::{SimError, SimResult};
use serde::{Deserialize, Serialize};

/// A reachable gateway and the wireless rate towards it, in bit/s.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Link {
    /// Gateway index.
    pub gateway: usize,
    /// Maximum available wireless bandwidth on this link, bit/s.
    pub rate_bps: f64,
}

/// Bipartite reachability between clients and gateways, stored as one
/// flat link array with per-client offsets (CSR).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Topology {
    n_gateways: usize,
    /// `links[off[c]..off[c + 1]]` lists the gateways client `c` can reach,
    /// sorted by index; always contains the client's home gateway.
    links: Vec<Link>,
    /// Row offsets into `links`, one per client plus the end.
    off: Vec<usize>,
    /// `home[c]` is client `c`'s own gateway.
    home: Vec<usize>,
}

impl Topology {
    /// Builds a topology from per-client home gateways and link lists.
    ///
    /// Each client's link list is sorted and must include its home gateway;
    /// duplicate gateway entries are rejected.
    pub fn new(n_gateways: usize, home: Vec<usize>, links: Vec<Vec<Link>>) -> SimResult<Self> {
        if home.len() != links.len() {
            return Err(SimError::InvalidInput("home/links length mismatch".into()));
        }
        let mut rows = Rows::with_capacity(home.len(), links.iter().map(Vec::len).sum());
        for mut ls in links {
            ls.sort_by_key(|l| l.gateway);
            rows.links.extend(ls);
            rows.end_row();
        }
        Topology::from_rows(n_gateways, home, rows)
    }

    /// Validates every row of `rows` (client `c`'s row is its link list,
    /// which the builders emit sorted by gateway), then takes them over
    /// without copying.
    pub(crate) fn from_rows(n_gateways: usize, home: Vec<usize>, rows: Rows) -> SimResult<Self> {
        let Rows { links, off } = rows;
        assert_eq!(off.len(), home.len() + 1, "one row per client");
        for (c, &h) in home.iter().enumerate() {
            let ls = &links[off[c]..off[c + 1]];
            debug_assert!(ls.is_sorted_by_key(|l| l.gateway), "client {c}'s row is unsorted");
            if ls.windows(2).any(|w| w[0].gateway == w[1].gateway) {
                return Err(SimError::InvalidInput(format!("client {c} has duplicate links")));
            }
            if ls.iter().any(|l| l.gateway >= n_gateways) {
                return Err(SimError::InvalidInput(format!("client {c} links out of range")));
            }
            if ls.iter().any(|l| !(l.rate_bps > 0.0)) {
                return Err(SimError::InvalidInput(format!("client {c} has non-positive rate")));
            }
            if h >= n_gateways {
                return Err(SimError::InvalidInput(format!("client {c} home out of range")));
            }
            if !ls.iter().any(|l| l.gateway == h) {
                return Err(SimError::InvalidInput(format!(
                    "client {c} cannot reach its own home gateway"
                )));
            }
        }
        Ok(Topology { n_gateways, links, off, home })
    }

    /// Number of clients.
    pub fn n_clients(&self) -> usize {
        self.home.len()
    }

    /// Number of gateways.
    pub fn n_gateways(&self) -> usize {
        self.n_gateways
    }

    /// Client `c`'s home gateway.
    pub fn home_of(&self, c: usize) -> usize {
        self.home[c]
    }

    /// Gateways reachable by client `c` (sorted by index, includes home).
    pub fn reachable(&self, c: usize) -> &[Link] {
        &self.links[self.off[c]..self.off[c + 1]]
    }

    /// Wireless rate between client `c` and gateway `g`, if in range.
    pub fn rate_bps(&self, c: usize, g: usize) -> Option<f64> {
        let ls = self.reachable(c);
        ls.binary_search_by_key(&g, |l| l.gateway).ok().map(|i| ls[i].rate_bps)
    }

    /// Mean number of gateways in range per client ("networks in range";
    /// the paper's scenario has 5.6).
    pub fn mean_degree(&self) -> f64 {
        if self.home.is_empty() {
            return 0.0;
        }
        self.links.len() as f64 / self.home.len() as f64
    }
}

/// Per-client link rows being filled in client order: the flat arrays a
/// [`Topology`] takes over.
pub(crate) struct Rows {
    /// Links of the finished rows plus the open one.
    pub(crate) links: Vec<Link>,
    off: Vec<usize>,
}

impl Rows {
    /// Empty rows with room for `clients` rows of `links` links in total.
    pub(crate) fn with_capacity(clients: usize, links: usize) -> Self {
        let mut off = Vec::with_capacity(clients + 1);
        off.push(0);
        Rows { links: Vec::with_capacity(links), off }
    }

    /// Closes the open row: the links pushed since the last call.
    pub(crate) fn end_row(&mut self) {
        self.off.push(self.links.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(g: usize, mbps: f64) -> Link {
        Link { gateway: g, rate_bps: mbps * 1e6 }
    }

    fn simple() -> Topology {
        Topology::new(
            3,
            vec![0, 1],
            vec![
                vec![link(0, 12.0), link(1, 6.0)],
                vec![link(1, 12.0), link(0, 6.0), link(2, 6.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn accessors_work() {
        let t = simple();
        assert_eq!(t.n_clients(), 2);
        assert_eq!(t.n_gateways(), 3);
        assert_eq!(t.home_of(0), 0);
        assert_eq!(t.rate_bps(0, 0), Some(12e6));
        assert_eq!(t.rate_bps(0, 2), None);
        assert!(t.rate_bps(1, 2).is_some());
        assert!((t.mean_degree() - 2.5).abs() < 1e-12);
        assert_eq!(t.reachable(0), &[link(0, 12.0), link(1, 6.0)]);
    }

    #[test]
    fn links_are_sorted_even_if_input_is_not() {
        let t = simple();
        let gws: Vec<usize> = t.reachable(1).iter().map(|l| l.gateway).collect();
        assert_eq!(gws, vec![0, 1, 2]);
    }

    #[test]
    fn rejects_home_not_in_links() {
        let err = Topology::new(2, vec![1], vec![vec![link(0, 6.0)]]);
        assert!(err.is_err());
    }

    #[test]
    fn rejects_duplicate_links() {
        let err = Topology::new(2, vec![0], vec![vec![link(0, 6.0), link(0, 12.0)]]);
        assert!(err.is_err());
    }

    #[test]
    fn rejects_out_of_range_gateway() {
        let err = Topology::new(2, vec![0], vec![vec![link(0, 6.0), link(5, 6.0)]]);
        assert!(err.is_err());
    }

    #[test]
    fn rejects_zero_rate() {
        let err = Topology::new(1, vec![0], vec![vec![Link { gateway: 0, rate_bps: 0.0 }]]);
        assert!(err.is_err());
    }

    #[test]
    fn rejects_length_mismatch() {
        let err = Topology::new(1, vec![0, 0], vec![vec![link(0, 6.0)]]);
        assert!(err.is_err());
    }
}
