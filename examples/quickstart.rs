//! Quickstart: simulate one day of the paper's main scenario and print the
//! headline numbers for each scheme.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use insomnia::core::{
    build_world, run_single_source_threads, savings_percent_series, summarize, ArrivalSource,
    ScenarioConfig, SchemeResult, SchemeSpec,
};
use insomnia::simcore::{default_threads, SimRng};

fn main() {
    // The §5.1 evaluation scenario: 272 clients, 40 gateways, 24 hours,
    // 6 Mbps ADSL, one DSLAM with 4 line cards behind 12 4-switches.
    let mut cfg = ScenarioConfig::default();
    cfg.repetitions = 1; // one repetition keeps the quickstart fast

    let (trace, topo) = build_world(&cfg);
    println!(
        "world: {} clients, {} gateways, {} flows, mean {:.1} networks in range",
        topo.n_clients(),
        topo.n_gateways(),
        trace.flows.len(),
        topo.mean_degree()
    );

    let base_user = cfg.power.no_sleep_user_w(topo.n_gateways());
    let base_isp = cfg.power.no_sleep_isp_w(topo.n_gateways(), cfg.dslam.n_cards);
    println!("no-sleep baseline draw: {:.0} W\n", base_user + base_isp);

    println!(
        "{:<28} {:>10} {:>10} {:>9} {:>10}",
        "scheme", "savings", "peak save", "mean gw", "peak cards"
    );
    for spec in [
        SchemeSpec::soi(),
        SchemeSpec::soi_k_switch(),
        SchemeSpec::bh2_k_switch(),
        SchemeSpec::optimal(),
    ] {
        let arrivals = ArrivalSource::Slice(&trace.flows);
        let rng = SimRng::new(cfg.seed);
        let run = run_single_source_threads(&cfg, spec, arrivals, &topo, rng, default_threads());
        // Wrap the single run in the aggregate container the metrics expect.
        let result = SchemeResult::from_single(spec, run);
        let s = summarize(&result, base_user, base_isp);
        println!(
            "{:<28} {:>9.1}% {:>9.1}% {:>9.1} {:>10.2}",
            s.name, s.mean_savings_pct, s.peak_savings_pct, s.mean_gateways, s.peak_cards
        );
        // The savings series behind Fig. 6 is one call away:
        let _series = savings_percent_series(&result.total_power_w(), base_user + base_isp);
    }

    println!("\nSee `cargo run --release -p insomnia-bench --bin figures -- all`");
    println!("to regenerate every figure and table of the paper's evaluation.");
}
