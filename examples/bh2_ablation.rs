//! Ablations of BH2's design choices (the §5.1 sensitivity analysis):
//!
//! * the ambiguous §3.1 return-home rule — verbatim vs. our default
//!   resolution (see DESIGN.md),
//! * the backup requirement (0 vs 1),
//! * the load thresholds around the paper's (10%, 50%),
//! * the k-switch size against the fixed and full fabrics.
//!
//! ```sh
//! cargo run --release --example bh2_ablation
//! ```

use insomnia::core::{
    build_world, run_single_source_threads, summarize, ArrivalSource, ScenarioConfig, SchemeResult,
    SchemeSpec,
};
use insomnia::simcore::SimRng;

fn run(cfg: &ScenarioConfig, spec: SchemeSpec, label: &str) {
    let (trace, topo) = build_world(cfg);
    let arrivals = ArrivalSource::Slice(&trace.flows);
    let r = run_single_source_threads(cfg, spec, arrivals, &topo, SimRng::new(cfg.seed), 1);
    let result = SchemeResult::from_single(spec, r);
    let base_user = cfg.power.no_sleep_user_w(topo.n_gateways());
    let base_isp = cfg.power.no_sleep_isp_w(topo.n_gateways(), cfg.dslam.n_cards);
    let s = summarize(&result, base_user, base_isp);
    println!(
        "{label:<44} save {:5.1}%  peak gw {:5.1}  peak cards {:4.2}",
        s.mean_savings_pct, s.peak_gateways, s.peak_cards
    );
}

fn main() {
    println!("-- return-home rule (the §3.1 ambiguity) --");
    let cfg = ScenarioConfig::default();
    run(&cfg, SchemeSpec::bh2_k_switch(), "default rule (stay when no candidates)");
    let mut literal = ScenarioConfig::default();
    literal.bh2.literal_return_home = true;
    run(&literal, SchemeSpec::bh2_k_switch(), "verbatim rule (return home)");

    println!("\n-- backups --");
    run(&cfg, SchemeSpec::bh2_no_backup_k_switch(), "no backup");
    run(&cfg, SchemeSpec::bh2_k_switch(), "1 backup (paper default)");

    println!("\n-- load thresholds (paper: low 10%, high 50%) --");
    for (low, high) in [(0.05, 0.50), (0.10, 0.50), (0.20, 0.50), (0.10, 0.30), (0.10, 0.80)] {
        let mut c = ScenarioConfig::default();
        c.bh2.low_threshold = low;
        c.bh2.high_threshold = high;
        run(&c, SchemeSpec::bh2_k_switch(), &format!("low {low:.2} / high {high:.2}"));
    }

    println!("\n-- ISP fabric --");
    run(&cfg, SchemeSpec::soi(), "BH2 off: SoI, fixed wiring");
    run(&cfg, SchemeSpec::bh2_k_switch(), "BH2 + 4-switches");
    let mut k2 = ScenarioConfig::default();
    k2.k_switch = 2;
    run(&k2, SchemeSpec::bh2_k_switch(), "BH2 + 2-switches");
    run(&cfg, SchemeSpec::bh2_full_switch(), "BH2 + full switch");

    println!("\nReading: the verbatim return-home rule collapses aggregation —");
    println!("see EXPERIMENTS.md, 'Known deviations', for the analysis.");
}
