//! The golden-trace regression gate.
//!
//! `tests/golden/<preset>.jsonl` freezes the batch-runner JSONL of every
//! `shards = 1` paper preset (schemes `no-sleep,soi,bh2`, one seed, two
//! repetitions — the CLI's `--quick`, full 24 h horizon), generated by the
//! PR 2 driver *before* completion metrics moved to the streaming quantile
//! sketch. Each test below re-runs the identical batch through today's
//! code and demands byte-for-byte equality: any drift in the trace
//! generator, topology builder, schemes, RNG discipline, JSONL schema —
//! or in the sketch's exact-below-cutoff promise — trips it.
//!
//! `tests/golden/paper-default-doze.jsonl` extends the same freeze to the
//! PR 8 sleep policies (`multi-doze,adaptive-soi`) on paper-default, and
//! `tests/golden/paper-default-zoo.jsonl` to the five schemes no other
//! golden runs (`soi+k,soi+full,bh2-nb,bh2+full,optimal`): the k-switch and
//! full-switch fabrics, BH2 without a backup, and Optimal. Its sibling
//! `paper-default-zoo.counters.json` pins the `insomnia profile --counters`
//! work counts of all ten schemes on the same command; CI checks it.
//! `tests/golden/paper-default-binomial-optimal.jsonl` pins Optimal where
//! its search runs out of nodes (`--set topology=binomial --set
//! repetitions=1 --set horizon_hours=16.0`): 89 of its 960 solves return
//! the unproven greedy cover.
//!
//! Refreshing after an *intentional* semantics change (see README):
//!
//! ```sh
//! scripts/refresh-goldens.sh
//! ```
//!
//! CI additionally replays the same comparison through the release CLI and
//! `insomnia compare` (exit-code gate), so the goldens guard both the
//! library path and the binary path.

use insomnia::scenarios::{
    compare_jsonl, parse_scheme_list, run_batch, BatchRun, JobRecord, Registry,
};
use std::collections::BTreeMap;

/// Runs one preset exactly like `insomnia run --scenario <name>
/// --schemes <schemes> --seeds 1 --quick` and compares the JSONL bytes
/// against the committed golden `tests/golden/<golden>.jsonl`.
fn assert_schemes_match_golden(preset: &str, schemes: &str, golden: &str) {
    assert_overrides_match_golden(preset, schemes, &[], golden);
}

/// [`assert_schemes_match_golden`] with `--set key=value` overrides,
/// applied as `insomnia run` applies them: in order, before the preset's
/// inheritance chain and the `--quick` clamp.
fn assert_overrides_match_golden(preset: &str, schemes: &str, sets: &[&str], golden: &str) {
    let reg = Registry::builtin();
    let mut spec = reg.get_or_err(preset).unwrap_or_else(|e| panic!("{preset}: {e}")).spec.clone();
    for set in sets {
        let (key, value) = set.split_once('=').expect("key=value");
        spec = spec.with_assignment(key, value).unwrap_or_else(|e| panic!("--set {set}: {e}"));
    }
    let mut cfg = reg.resolve_spec(&spec).unwrap_or_else(|e| panic!("resolve {preset}: {e}"));
    cfg.repetitions = cfg.repetitions.min(2); // the CLI's --quick
    let batch = BatchRun {
        scenarios: vec![(preset.to_string(), cfg)],
        schemes: parse_scheme_list(schemes).unwrap(),
        seeds: 1,
        threads: 0,
    };
    let mut out = Vec::new();
    run_batch(&batch, &mut out).unwrap_or_else(|e| panic!("run {preset}: {e}"));
    let got = String::from_utf8(out).expect("JSONL is UTF-8");

    let path = format!("{}/tests/golden/{golden}.jsonl", env!("CARGO_MANIFEST_DIR"));
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e} (see refresh recipe above)"));

    if got != want {
        // Byte inequality is the failure; the structured diff just makes
        // the report readable (which metric moved, by how much).
        let report = compare_jsonl("golden", &want, "current", &got, 0.0)
            .map(|r| r.render())
            .unwrap_or_else(|e| format!("(diff unavailable: {e})"));
        panic!(
            "{preset}: JSONL drifted from tests/golden/{golden}.jsonl\n{report}\
             If the change is intentional, refresh the goldens (recipe in this file's header)."
        );
    }
}

fn assert_matches_golden(preset: &str) {
    assert_schemes_match_golden(preset, "no-sleep,soi,bh2", preset);
}

#[test]
fn golden_paper_default() {
    assert_matches_golden("paper-default");
}

#[test]
fn golden_dense_urban() {
    assert_matches_golden("dense-urban");
}

#[test]
fn golden_rural_sparse() {
    assert_matches_golden("rural-sparse");
}

#[test]
fn golden_flash_crowd() {
    assert_matches_golden("flash-crowd");
}

#[test]
fn golden_weekend_diurnal() {
    assert_matches_golden("weekend-diurnal");
}

#[test]
fn golden_no_wireless_sharing() {
    assert_matches_golden("no-wireless-sharing");
}

#[test]
fn golden_paper_default_doze_schemes() {
    assert_schemes_match_golden("paper-default", "multi-doze,adaptive-soi", "paper-default-doze");
}

#[test]
fn golden_paper_default_zoo_schemes() {
    assert_schemes_match_golden(
        "paper-default",
        "soi+k,soi+full,bh2-nb,bh2+full,optimal",
        "paper-default-zoo",
    );
}

/// Optimal where its branch-and-bound runs out of nodes: on the binomial
/// topology the morning ramp's solves exhaust the 200 000-node budget and
/// fall back to the greedy cover (every Optimal solve of the zoo golden is
/// proven), so this pins the budget-exhaustion regime's plan.
#[test]
fn golden_paper_default_binomial_optimal() {
    assert_overrides_match_golden(
        "paper-default",
        "optimal",
        &["topology=binomial", "repetitions=1", "horizon_hours=16.0"],
        "paper-default-binomial-optimal",
    );
}

/// Physical sanity of the committed paper-preset goldens (the giga/tera
/// smoke files excluded): byte equality alone would let a golden refreshed
/// after a physics bug pass silently. Per seed, where the schemes are
/// present, energy must order bh2 < soi < no-sleep; every sleeping scheme
/// must save a share of energy strictly inside (0, 100) %, and no-sleep,
/// the baseline, exactly 0 %.
#[test]
fn goldens_obey_physical_invariants() {
    let dir = format!("{}/tests/golden", env!("CARGO_MANIFEST_DIR"));
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("golden directory")
        .map(|e| e.expect("golden entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".jsonl") && !name.contains("smoke")
        })
        .collect();
    paths.sort();
    assert!(paths.len() >= 7, "expected every paper-preset golden, found {paths:?}");
    for path in paths {
        let text = std::fs::read_to_string(&path).expect("read golden");
        let name = path.display();
        // (scenario, seed index) -> scheme -> energy, kWh.
        let mut energy: BTreeMap<(String, usize), BTreeMap<String, f64>> = BTreeMap::new();
        for line in text.lines() {
            let r: JobRecord =
                serde_json::from_str(line).unwrap_or_else(|e| panic!("{name}: {e}: {line}"));
            if r.scheme == "no-sleep" {
                assert_eq!(r.mean_savings_pct, 0.0, "{name}: no-sleep is the baseline");
            } else {
                assert!(
                    r.mean_savings_pct > 0.0 && r.mean_savings_pct < 100.0,
                    "{name}: {} saves {} %",
                    r.scheme,
                    r.mean_savings_pct
                );
            }
            energy.entry((r.scenario, r.seed_index)).or_default().insert(r.scheme, r.energy_kwh);
        }
        for ((scenario, seed), by_scheme) in &energy {
            let order: Vec<(&str, f64)> = ["bh2", "soi", "no-sleep"]
                .into_iter()
                .filter_map(|s| by_scheme.get(s).map(|&e| (s, e)))
                .collect();
            for pair in order.windows(2) {
                assert!(
                    pair[0].1 < pair[1].1,
                    "{name}: {scenario} seed {seed}: {} ({} kWh) must use less energy than {} \
                     ({} kWh)",
                    pair[0].0,
                    pair[0].1,
                    pair[1].0,
                    pair[1].1
                );
            }
        }
    }
}
