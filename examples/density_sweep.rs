//! Fig. 10: how does neighborhood density affect BH2's aggregation?
//!
//! Sweeps the mean number of gateways each user can connect to (binomial
//! connectivity matrices, as in §5.2.5) and reports the mean number of
//! online gateways during peak hours.
//!
//! ```sh
//! cargo run --release --example density_sweep
//! ```

use insomnia::core::{density_sweep, ScenarioConfig};

fn main() {
    let mut cfg = ScenarioConfig::default();
    cfg.repetitions = 2; // keep the example fast; the figures binary uses 10

    println!("BH2 (1 backup) + k-switch, mean online gateways 11-19h:");
    println!("{:>16} {:>18}", "mean available", "online gateways");
    let densities: Vec<f64> = (1..=10).map(f64::from).collect();
    for p in density_sweep(&cfg, &densities) {
        let bar = "#".repeat((p.online_gateways.round() as usize).min(60));
        println!("{:>16.0} {:>18.1}  {bar}", p.mean_available, p.online_gateways);
    }
    println!("\ndensity 1 = clients can only use their home gateway (SoI-like);");
    println!("already at 2 available gateways the online count drops sharply, and");
    println!("the curve flattens around 5-6 — the paper's diminishing-returns shape.");
}
