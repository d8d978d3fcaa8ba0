//! The built-in scenario preset catalogue.
//!
//! Presets are [`ScenarioSpec`]s with a name and a one-line story. They
//! exercise the knobs the substrate crates expose — diurnal shapes and
//! surge windows (`insomnia-traffic`), overlap vs binomial reachability
//! (`insomnia-wireless` via `TopologyKind`), backhaul/channel rates and
//! DSLAM geometry — and every one of them validates through
//! [`ScenarioConfig::validate`](insomnia_core::ScenarioConfig).
//!
//! The sparse/low-cost variants follow the deployment regimes of Verma et
//! al. (low-cost rural access networks) and the edge-greening variants of
//! Ansari et al. (GATE); the control preset isolates how much of BH2's
//! saving depends on wireless sharing at all.

use crate::spec::ScenarioSpec;
use insomnia_core::ScenarioConfig;
use insomnia_simcore::{SimError, SimResult};

/// A named, documented scenario spec.
#[derive(Debug, Clone)]
pub struct Preset {
    /// Registry key (`insomnia run --scenario <name>`).
    pub name: &'static str,
    /// One-line story.
    pub summary: &'static str,
    /// The spec (sparse: only deviations from the paper defaults).
    pub spec: ScenarioSpec,
}

/// The preset catalogue.
#[derive(Debug, Clone)]
pub struct Registry {
    presets: Vec<Preset>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::builtin()
    }
}

impl Registry {
    /// The built-in catalogue.
    pub fn builtin() -> Self {
        let preset = |name: &'static str, summary: &'static str, toml: &str| Preset {
            name,
            summary,
            spec: {
                let mut s = ScenarioSpec::from_toml(toml).expect("builtin preset TOML parses");
                s.name = Some(name.to_string());
                s.summary = Some(summary.to_string());
                s
            },
        };
        Registry {
            presets: vec![
                preset(
                    "paper-default",
                    "the paper's §5.1 evaluation: 272 clients, 40 gateways, 24 h office day",
                    "",
                ),
                preset(
                    "dense-urban",
                    "packed metro block: more clients per gateway, rich overlap, heavier demand",
                    r#"
n_clients = 480
n_aps = 48
mean_networks_in_range = 9.0
rate_scale = 1.4
always_on_frac = 0.12
"#,
                ),
                preset(
                    "rural-sparse",
                    "low-cost rural deployment: long loops at 2.5 Mbps, thin overlap, light demand",
                    r#"
n_clients = 96
n_aps = 24
topology = "binomial"
mean_networks_in_range = 1.8
backhaul_mbps = 2.5
neighbor_mbps = 3.0
rate_scale = 0.5
worker_frac = 0.30
always_on_frac = 0.04
wake_time_s = 90.0
"#,
                ),
                preset(
                    "flash-crowd",
                    "an evening event floods the network: 19-22 h surge at 6x burst intensity",
                    r#"
rate_scale = 1.2
always_on_frac = 0.10

[surge]
start_h = 19.0
end_h = 22.0
intensity = 6.0
"#,
                ),
                preset(
                    "weekend-diurnal",
                    "the same building on a weekend: shallow afternoon bump, machines left on",
                    r#"
diurnal = "weekend"
worker_frac = 0.18
always_on_frac = 0.12
rate_scale = 0.8
"#,
                ),
                preset(
                    "no-wireless-sharing",
                    "control: clients reach only their home gateway, so BH2 degenerates to SoI",
                    r#"
topology = "binomial"
mean_networks_in_range = 1.0
"#,
                ),
                // Each of the 64 shards is one dense-urban-like DSLAM
                // neighborhood (1600 clients / 200 gateways on a 20 x 10
                // port DSLAM); minute-level sampling and a single
                // repetition keep a 10^5-client day tractable.
                preset(
                    "dense-metro",
                    "metro aggregation area: 64 DSLAM neighborhoods, 102400 clients sharing wireless",
                    r#"
n_clients = 102400
n_aps = 12800
shards = 64
n_cards = 20
ports_per_card = 10
k_switch = 4
mean_networks_in_range = 7.0
rate_scale = 1.2
always_on_frac = 0.12
sample_period_s = 60.0
repetitions = 1
"#,
                ),
                // 256 dense-metro-class neighborhoods (4000 clients / 500
                // gateways on a 64 x 8 port DSLAM each). `completion_cutoff
                // = 0` streams every completion time into the per-shard
                // quantile sketch from the first flow: completion-metric
                // memory is O(shards x buckets) instead of one sample per
                // flow — the knob that makes 10^6 clients fit.
                preset(
                    "mega-city",
                    "mega-city scale: 256 DSLAM neighborhoods, 1.02M clients, streaming quantiles",
                    r#"
n_clients = 1024000
n_aps = 128000
shards = 256
n_cards = 64
ports_per_card = 8
k_switch = 4
mean_networks_in_range = 7.0
rate_scale = 1.2
always_on_frac = 0.12
sample_period_s = 60.0
repetitions = 1
completion_cutoff = 0
"#,
                ),
                // 2048 neighborhoods of 5000 clients / 625 gateways (80 x 8
                // port DSLAMs). An order of magnitude past mega-city: only
                // runnable because nothing is O(world) anymore — traces
                // stream per (rep x shard) task (O(clients) cursor state,
                // never a flow vector), the event heap is O(active flows),
                // and completion metrics are O(shards x buckets)
                // (`completion_cutoff = 0`). Peak RSS is O(threads x shard).
                preset(
                    "giga-metro",
                    "giga-metro scale: 2048 DSLAM neighborhoods, 10.24M clients, streamed traces",
                    r#"
n_clients = 10240000
n_aps = 1280000
shards = 2048
n_cards = 80
ports_per_card = 8
k_switch = 4
mean_networks_in_range = 7.0
rate_scale = 1.2
always_on_frac = 0.12
sample_period_s = 60.0
repetitions = 1
completion_cutoff = 0
"#,
                ),
                // 20480 giga-metro-class neighborhoods (5000 clients / 625
                // gateways on an 80 x 8 port DSLAM each): the 10^8-client
                // regime. The last O(world) state was the *merge* layer —
                // per-gateway online-seconds vectors and the retained
                // (rep x shard) result matrix — so `online_cutoff = 0`
                // streams per-gateway online time into a mergeable
                // log-bucket histogram (reported as the JSONL
                // `online_time_quantiles` grid) and the shard fold absorbs
                // each task's result the moment it lands: merge state is
                // O(shards x buckets), peak RSS O(threads x shard +
                // shards x buckets).
                preset(
                    "tera-metro",
                    "tera-metro scale: 20480 DSLAM neighborhoods, 102.4M clients, streamed merges",
                    r#"
n_clients = 102400000
n_aps = 12800000
shards = 20480
n_cards = 80
ports_per_card = 8
k_switch = 4
mean_networks_in_range = 7.0
rate_scale = 1.2
always_on_frac = 0.12
sample_period_s = 60.0
repetitions = 1
completion_cutoff = 0
online_cutoff = 0
"#,
                ),
            ],
        }
    }

    /// All presets, in catalogue order.
    pub fn presets(&self) -> &[Preset] {
        &self.presets
    }

    /// Preset names, in catalogue order.
    pub fn names(&self) -> Vec<&'static str> {
        self.presets.iter().map(|p| p.name).collect()
    }

    /// Looks a preset up by name.
    pub fn get(&self, name: &str) -> Option<&Preset> {
        self.presets.iter().find(|p| p.name == name)
    }

    /// Looks a preset up by name, with the canonical "unknown scenario"
    /// error listing what exists.
    pub fn get_or_err(&self, name: &str) -> SimResult<&Preset> {
        self.get(name).ok_or_else(|| self.unknown(name))
    }

    /// Resolves a spec against the catalogue: walks the `base` inheritance
    /// chain (child fields win), then materializes the config.
    pub fn resolve_spec(&self, spec: &ScenarioSpec) -> SimResult<ScenarioConfig> {
        self.flatten(spec, 0)?.to_config()
    }

    /// Resolves a preset by name.
    pub fn resolve(&self, name: &str) -> SimResult<ScenarioConfig> {
        self.resolve_spec(&self.get_or_err(name)?.spec)
    }

    /// Applies the whole inheritance chain, returning a base-free spec.
    pub fn flatten(&self, spec: &ScenarioSpec, depth: usize) -> SimResult<ScenarioSpec> {
        if depth > 8 {
            return Err(SimError::InvalidConfig("scenario `base` chain too deep (cycle?)".into()));
        }
        let Some(base_name) = &spec.base else {
            return Ok(spec.clone());
        };
        let base = self.get_or_err(base_name)?;
        let parent = self.flatten(&base.spec, depth + 1)?;
        let mut merged = spec.merged_over(&parent);
        merged.base = None;
        Ok(merged)
    }

    /// Expands named specs into a batch's named, resolved scenarios — the
    /// one path by which `insomnia run`, `insomnia sweep` and the figure
    /// harness turn specs into jobs. Every `key=value` of `sets` applies
    /// to every spec, in order; a `sweep = (key, values)` then clones each
    /// spec once per value, named `{name}/{key}={value}`; each result is
    /// flattened against the catalogue and resolved, and `quick` clamps
    /// its repetitions to 2.
    pub fn expand(
        &self,
        mut specs: Vec<(String, ScenarioSpec)>,
        sets: &[&str],
        sweep: Option<(&str, &[&str])>,
        quick: bool,
    ) -> SimResult<Vec<(String, ScenarioConfig)>> {
        for assignment in sets {
            let (key, value) = assignment.split_once('=').ok_or_else(|| {
                SimError::InvalidInput(format!("--set expects key=value, got `{assignment}`"))
            })?;
            for (_, spec) in &mut specs {
                *spec = spec.with_assignment(key.trim(), value.trim())?;
            }
        }
        if let Some((param, values)) = sweep {
            let mut swept = Vec::with_capacity(specs.len() * values.len());
            for (name, spec) in &specs {
                for v in values {
                    swept.push((format!("{name}/{param}={v}"), spec.with_assignment(param, v)?));
                }
            }
            specs = swept;
        }
        specs
            .into_iter()
            .map(|(name, spec)| {
                let mut cfg = self
                    .flatten(&spec, 0)?
                    .to_config()
                    .map_err(|e| SimError::InvalidConfig(format!("scenario `{name}`: {e}")))?;
                if quick {
                    cfg.repetitions = cfg.repetitions.min(2);
                }
                Ok((name, cfg))
            })
            .collect()
    }

    fn unknown(&self, name: &str) -> SimError {
        SimError::InvalidInput(format!(
            "unknown scenario `{name}` (known: {})",
            self.names().join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insomnia_core::TopologyKind;

    #[test]
    fn catalogue_has_at_least_six_distinct_presets() {
        let r = Registry::builtin();
        assert!(r.presets().len() >= 6, "got {}", r.presets().len());
        let mut names = r.names();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), r.presets().len(), "duplicate preset names");
    }

    #[test]
    fn every_preset_resolves_and_validates() {
        let r = Registry::builtin();
        for p in r.presets() {
            let cfg = r.resolve(p.name).unwrap_or_else(|e| panic!("{}: {e}", p.name));
            cfg.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn paper_default_is_the_paper_default() {
        let cfg = Registry::builtin().resolve("paper-default").unwrap();
        let def = ScenarioConfig::default();
        assert_eq!(cfg.trace.n_clients, def.trace.n_clients);
        assert_eq!(cfg.trace.n_aps, def.trace.n_aps);
        assert_eq!(cfg.backhaul_bps, def.backhaul_bps);
        assert_eq!(cfg.mean_networks_in_range, def.mean_networks_in_range);
    }

    #[test]
    fn presets_differ_where_it_matters() {
        let r = Registry::builtin();
        let rural = r.resolve("rural-sparse").unwrap();
        assert_eq!(rural.topology, TopologyKind::Binomial);
        assert!(rural.backhaul_bps < 3.0e6);
        let control = r.resolve("no-wireless-sharing").unwrap();
        assert_eq!(control.mean_networks_in_range, 1.0);
        let crowd = r.resolve("flash-crowd").unwrap();
        assert!(crowd.trace.surge.is_some());
        let weekend = r.resolve("weekend-diurnal").unwrap();
        assert_eq!(weekend.trace.profile, insomnia_traffic::DiurnalKind::Weekend);
    }

    #[test]
    fn dense_metro_is_a_six_figure_sharded_scenario() {
        let cfg = Registry::builtin().resolve("dense-metro").unwrap();
        assert!(cfg.trace.n_clients >= 100_000, "got {}", cfg.trace.n_clients);
        assert!(cfg.shards >= 64, "got {}", cfg.shards);
        // Every shard fits its DSLAM and the topology pair budget.
        cfg.validate().unwrap();
        // All presets below metro scale stay on the paper's single DSLAM.
        for p in Registry::builtin().presets() {
            if !["dense-metro", "mega-city", "giga-metro", "tera-metro"].contains(&p.name) {
                let c = Registry::builtin().resolve(p.name).unwrap();
                assert_eq!(c.shards, 1, "{} must stay unsharded", p.name);
            }
        }
    }

    #[test]
    fn mega_city_is_a_seven_figure_streaming_scenario() {
        let cfg = Registry::builtin().resolve("mega-city").unwrap();
        assert!(cfg.trace.n_clients >= 1_000_000, "got {}", cfg.trace.n_clients);
        assert_eq!(cfg.shards, 256);
        assert_eq!(cfg.completion_cutoff, 0, "mega-city must never retain per-flow samples");
        cfg.validate().unwrap();
        // Every smaller preset keeps the exact completion memory model.
        for p in Registry::builtin().presets() {
            if !["mega-city", "giga-metro", "tera-metro"].contains(&p.name) {
                let c = Registry::builtin().resolve(p.name).unwrap();
                assert_eq!(
                    c.completion_cutoff,
                    insomnia_core::DEFAULT_COMPLETION_CUTOFF,
                    "{} must stay exact",
                    p.name
                );
            }
        }
    }

    #[test]
    fn giga_metro_is_an_eight_figure_streaming_scenario() {
        let cfg = Registry::builtin().resolve("giga-metro").unwrap();
        assert!(cfg.trace.n_clients >= 10_000_000, "got {}", cfg.trace.n_clients);
        assert_eq!(cfg.shards, 2048);
        assert_eq!(cfg.completion_cutoff, 0, "giga-metro must never retain per-flow samples");
        assert_eq!(cfg.repetitions, 1);
        // Every shard fits its DSLAM, the topology pair budget, and the
        // overlap builder's minimum — validated like any other preset.
        cfg.validate().unwrap();
        // 5000 clients / 625 gateways per neighborhood: the same density
        // class as dense-metro, an order of magnitude more of them.
        let span = insomnia_wireless::shard_spans(cfg.trace.n_clients, cfg.trace.n_aps, cfg.shards)
            .unwrap()[0];
        assert_eq!(span.n_clients, 5_000);
        assert_eq!(span.n_gateways, 625);
    }

    #[test]
    fn tera_metro_is_a_nine_figure_streaming_scenario() {
        let cfg = Registry::builtin().resolve("tera-metro").unwrap();
        assert!(cfg.trace.n_clients >= 100_000_000, "got {}", cfg.trace.n_clients);
        assert!(cfg.shards >= 8192, "got {}", cfg.shards);
        assert_eq!(cfg.completion_cutoff, 0, "tera-metro must never retain per-flow samples");
        assert_eq!(cfg.online_cutoff, 0, "tera-metro must never retain per-gateway vectors");
        assert_eq!(cfg.repetitions, 1);
        cfg.validate().unwrap();
        // Same neighborhood class as giga-metro, an order of magnitude
        // more of them.
        let span = insomnia_wireless::shard_spans(cfg.trace.n_clients, cfg.trace.n_aps, cfg.shards)
            .unwrap()[0];
        assert_eq!(span.n_clients, 5_000);
        assert_eq!(span.n_gateways, 625);
        // Every smaller preset keeps the exact per-gateway memory model
        // (and with it, the frozen sharded JSONL schema — the giga-metro
        // smoke reference must not grow an online-time grid).
        for p in Registry::builtin().presets() {
            if p.name != "tera-metro" {
                let c = Registry::builtin().resolve(p.name).unwrap();
                assert_eq!(
                    c.online_cutoff,
                    insomnia_core::DEFAULT_COMPLETION_CUTOFF,
                    "{} must keep exact per-gateway online accounting",
                    p.name
                );
            }
        }
    }

    #[test]
    fn base_inheritance_resolves_through_the_registry() {
        let r = Registry::builtin();
        let child = ScenarioSpec::from_toml("base = \"rural-sparse\"\nrate_scale = 2.0\n").unwrap();
        let cfg = r.resolve_spec(&child).unwrap();
        assert_eq!(cfg.trace.rate_scale, 2.0, "child override");
        assert_eq!(cfg.backhaul_bps, 2.5e6, "inherited from rural-sparse");
        let bad = ScenarioSpec::from_toml("base = \"missing\"\n").unwrap();
        assert!(r.resolve_spec(&bad).is_err());
    }
}
