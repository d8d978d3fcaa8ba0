//! Trace analyses behind Figs. 2, 3 and 4: utilization series, AP-level
//! inter-burst gap histograms and per-client demands.

use crate::trace::Trace;
use insomnia_simcore::{BinSeries, Histogram, SimTime};

/// Average AP downlink utilization in percent, binned over time, assuming
/// every AP has a backhaul of `backhaul_bps`. This reproduces Fig. 3's
/// y-axis: flow bytes are attributed to their arrival bin and averaged
/// across *all* APs (idle APs count as zero, as in the paper).
pub fn ap_utilization_percent_series(trace: &Trace, backhaul_bps: f64, bin_ms: u64) -> BinSeries {
    assert!(backhaul_bps > 0.0);
    let horizon_ms = trace.horizon.as_millis();
    let mut series = BinSeries::new(horizon_ms, bin_ms);
    // Accumulate bytes per (bin, nothing per-AP needed for the average):
    // mean over APs of per-AP utilization equals total bytes divided by
    // (n_aps × capacity × bin length).
    let n_bins = horizon_ms.div_ceil(bin_ms) as usize;
    let mut bytes_per_bin = vec![0u64; n_bins];
    for f in &trace.flows {
        let idx = (f.start.as_millis() / bin_ms) as usize;
        if idx < n_bins {
            bytes_per_bin[idx] += f.bytes;
        }
    }
    let bin_s = bin_ms as f64 / 1_000.0;
    for (i, &bytes) in bytes_per_bin.iter().enumerate() {
        let bits = bytes as f64 * 8.0;
        let util = bits / (trace.n_aps as f64 * backhaul_bps * bin_s);
        series.add(i as u64 * bin_ms, util * 100.0);
    }
    series
}

/// The paper's Fig. 4 bin edges for inter-packet gaps: one-second bins up to
/// 21 s, then 21–40 s and 40–60 s; gaps above 60 s land in the overflow bin.
pub fn paper_gap_bin_edges() -> Vec<f64> {
    let mut edges: Vec<f64> = (0..=21).map(|s| s as f64).collect();
    edges.push(40.0);
    edges.push(60.0);
    edges
}

/// Histogram of AP-level inter-burst gaps in `[from, to)`, weighted by gap
/// duration — i.e. each bin holds the *fraction of idle time* made of gaps
/// of that size, exactly Fig. 4's y-axis.
///
/// Gaps are computed per AP between consecutive burst arrivals of any client
/// homed at that AP (the trace view an AP's backhaul sees).
pub fn gap_histogram_paper_bins(trace: &Trace, from: SimTime, to: SimTime) -> Histogram {
    let mut hist = Histogram::new(paper_gap_bin_edges());
    // Collect per-AP sorted arrival times within the window.
    let mut per_ap: Vec<Vec<u64>> = vec![Vec::new(); trace.n_aps];
    for f in trace.flows_between(from, to) {
        per_ap[trace.home_of(f.client).index()].push(f.start.as_millis());
    }
    for arrivals in per_ap.iter_mut() {
        arrivals.sort_unstable();
        // Bracket with the window edges so leading/trailing silence counts
        // as idle time too (an AP with no traffic at all contributes one
        // window-length gap).
        let mut prev = from.as_millis();
        for &a in arrivals.iter() {
            let gap_s = (a - prev) as f64 / 1_000.0;
            if gap_s > 0.0 {
                hist.add_weighted(gap_s, gap_s);
            }
            prev = a;
        }
        let tail_s = (to.as_millis() - prev) as f64 / 1_000.0;
        if tail_s > 0.0 {
            hist.add_weighted(tail_s, tail_s);
        }
    }
    hist
}

/// Mean downlink demand per client over `[from, to)`, in bit/s; index by
/// `ClientId::index()`. This is the `d_i` of the paper's ILP (Eq. 1).
pub fn per_client_demand_bps(trace: &Trace, from: SimTime, to: SimTime) -> Vec<f64> {
    let mut bytes = vec![0u64; trace.n_clients()];
    for f in trace.flows_between(from, to) {
        bytes[f.client.index()] += f.bytes;
    }
    let span_s = (to - from).as_secs_f64().max(1e-9);
    bytes.into_iter().map(|b| b as f64 * 8.0 / span_s).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{FlowKind, FlowRecord};
    use crate::ids::{ApId, ClientId};
    use crate::session::Session;

    fn trace_with_flows(flows: Vec<(u32, u64, u64)>) -> Trace {
        // (client, start_s, bytes); two clients homed at two APs.
        let horizon = SimTime::from_hours(1);
        Trace {
            horizon,
            n_aps: 2,
            home: vec![ApId(0), ApId(1)],
            flows: flows
                .into_iter()
                .map(|(c, s, b)| FlowRecord {
                    client: ClientId(c),
                    start: SimTime::from_secs(s),
                    bytes: b,
                    kind: FlowKind::Web,
                })
                .collect(),
            sessions: vec![
                Session { client: ClientId(0), start: SimTime::ZERO, end: horizon },
                Session { client: ClientId(1), start: SimTime::ZERO, end: horizon },
            ],
        }
    }

    #[test]
    fn utilization_math_checks_out() {
        // 450 kB in one 60 s bin on 2 APs of 6 Mbps:
        // 3.6e6 bits / (2 × 6e6 × 60) = 0.5%.
        let t = trace_with_flows(vec![(0, 10, 450_000)]);
        let s = ap_utilization_percent_series(&t, 6.0e6, 60_000);
        let means = s.bin_means_or_zero();
        assert!((means[0] - 0.5).abs() < 1e-9, "got {}", means[0]);
        assert_eq!(means[1], 0.0);
    }

    #[test]
    fn gap_histogram_weights_by_duration() {
        // AP0: bursts at 10 s and 20 s within a 60 s window ⇒ gaps 10, 10, 40.
        // AP1: silent ⇒ one 60 s gap (overflow bucket is ≥60).
        let t = trace_with_flows(vec![(0, 10, 1_000), (0, 20, 1_000)]);
        let h = gap_histogram_paper_bins(&t, SimTime::ZERO, SimTime::from_secs(60));
        // Total idle weight: 10+10+40+60 = 120.
        assert!((h.total() - 120.0).abs() < 1e-9);
        assert!((h.overflow() - 60.0).abs() < 1e-9);
        // The two 10 s gaps sit in the 10-11 bin.
        assert!((h.counts()[10] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn paper_bins_have_expected_shape() {
        let edges = paper_gap_bin_edges();
        assert_eq!(edges.first(), Some(&0.0));
        assert_eq!(edges.last(), Some(&60.0));
        assert_eq!(edges.len(), 24); // 22 one-second edges + 40 + 60
    }

    #[test]
    fn demand_is_bits_per_second() {
        let t = trace_with_flows(vec![(0, 0, 750_000), (1, 30, 75_000)]);
        let d = per_client_demand_bps(&t, SimTime::ZERO, SimTime::from_secs(60));
        assert!((d[0] - 100_000.0).abs() < 1e-6); // 6 Mbit over 60 s
        assert!((d[1] - 10_000.0).abs() < 1e-6);
    }
}
