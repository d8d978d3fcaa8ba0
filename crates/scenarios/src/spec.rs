//! Declarative scenario specifications.
//!
//! A [`ScenarioSpec`] is the TOML-serializable description of one
//! evaluation scenario. Every field is optional: unset fields inherit from
//! the spec named by `base` (a registry preset), and ultimately from the
//! paper's §5.1 defaults. Resolution happens structurally — specs are
//! merged as serde value trees, so adding a knob is one struct field, not
//! bespoke merge code.
//!
//! Inheritance can override fields but not *unset* them (TOML has no
//! null): a child of `flash-crowd` keeps its surge window. To neutralize
//! an inherited surge, set `surge.intensity = 1.0` (a ×1 surge is a
//! no-op); for anything else, inherit from a base without the field.
//!
//! ```toml
//! name = "rural-evening-surge"
//! base = "rural-sparse"
//! summary = "rural deployment hit by an evening live-stream"
//!
//! [surge]
//! start_h = 19.0
//! end_h = 22.0
//! intensity = 5.0
//! ```

use insomnia_access::{PowerLadder, PowerState};
use insomnia_core::{AdaptiveSoiParams, Bh2Params, ScenarioConfig, TopologyKind};
use insomnia_simcore::{SimDuration, SimError, SimResult, SimTime};
use insomnia_traffic::{DiurnalKind, SurgeWindow};
use serde::{Deserialize, Serialize, Value};

/// BH2 parameter overrides (§3.1 / §5.1 knobs).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Bh2Spec {
    /// Low load threshold (paper: 0.10).
    pub low_threshold: Option<f64>,
    /// High load threshold (paper: 0.50).
    pub high_threshold: Option<f64>,
    /// Decision epoch, seconds (paper: 150).
    pub epoch_s: Option<f64>,
    /// Load estimation window, seconds (paper: 60).
    pub load_window_s: Option<f64>,
    /// Minimum backup gateways (paper: 1).
    pub backup: Option<usize>,
    /// §3.1's verbatim return-home rule (ablation).
    pub literal_return_home: Option<bool>,
}

/// Gateway power-state ladder override, shallowest level first. Expressed
/// as parallel scalar arrays (the TOML layer has no arrays-of-tables):
/// level `i` is `watts[i]` / `wake_s[i]` / `dwell_s[i]`.
///
/// ```toml
/// [power_states]
/// watts = [6.0, 4.0, 2.0]
/// wake_s = [5.0, 20.0, 60.0]
/// dwell_s = [300.0, 900.0, 0.0]
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PowerStatesSpec {
    /// Draw per level, watts (non-increasing with depth).
    pub watts: Option<Vec<f64>>,
    /// Wake latency to full-active per level, seconds (non-decreasing).
    pub wake_s: Option<Vec<f64>>,
    /// Idle dwell per level before a multi-doze descent, seconds. Must be
    /// positive above the deepest level; the deepest entry is unused.
    /// Unset = all zero (a ladder only fixed-policy schemes can use).
    pub dwell_s: Option<Vec<f64>>,
}

impl PowerStatesSpec {
    fn to_ladder(&self) -> SimResult<PowerLadder> {
        let bad = |msg: String| SimError::InvalidConfig(format!("power_states: {msg}"));
        let watts =
            self.watts.as_ref().ok_or_else(|| bad("needs `watts` (one entry per level)".into()))?;
        let wake_s = self
            .wake_s
            .as_ref()
            .ok_or_else(|| bad("needs `wake_s` (one entry per level)".into()))?;
        if watts.is_empty() {
            return Err(bad("needs at least one level".into()));
        }
        if wake_s.len() != watts.len()
            || self.dwell_s.as_ref().is_some_and(|d| d.len() != watts.len())
        {
            return Err(bad(format!(
                "arrays must be parallel: {} watts, {} wake_s, {:?} dwell_s entries",
                watts.len(),
                wake_s.len(),
                self.dwell_s.as_ref().map(Vec::len),
            )));
        }
        let states = (0..watts.len())
            .map(|i| {
                Ok(PowerState {
                    watts: watts[i],
                    wake: span("power_states.wake_s", wake_s[i], 1.0)?,
                    dwell: span(
                        "power_states.dwell_s",
                        self.dwell_s.as_ref().map_or(0.0, |d| d[i]),
                        1.0,
                    )?,
                })
            })
            .collect::<SimResult<_>>()?;
        Ok(PowerLadder::new(states))
    }
}

/// Adaptive-SOI estimator overrides.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveSoiSpec {
    /// Timeout = `gain ×` the smoothed inter-arrival gap (default 2).
    pub gain: Option<f64>,
    /// EWMA smoothing factor in `(0, 1]` (default 0.25).
    pub alpha: Option<f64>,
    /// Lower clamp on the adapted timeout, seconds (default 10).
    pub min_timeout_s: Option<f64>,
    /// Upper clamp on the adapted timeout, seconds (default 300).
    pub max_timeout_s: Option<f64>,
}

/// Flash-crowd window overrides.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SurgeSpec {
    /// Window start, hour of day.
    pub start_h: Option<f64>,
    /// Window end, hour of day.
    pub end_h: Option<f64>,
    /// Intensity multiplier inside the window.
    pub intensity: Option<f64>,
}

/// A declarative scenario: every knob optional, unset = inherit.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Scenario name (reporting key in JSONL/summary output).
    pub name: Option<String>,
    /// Preset this spec inherits unset fields from.
    pub base: Option<String>,
    /// One-line human description.
    pub summary: Option<String>,

    /// Number of wireless clients (paper: 272).
    pub n_clients: Option<usize>,
    /// Number of APs / home gateways (paper: 40).
    pub n_aps: Option<usize>,
    /// Simulated day length, hours (paper: 24).
    pub horizon_hours: Option<f64>,
    /// Fraction of clients whose machine stays on all day.
    pub always_on_frac: Option<f64>,
    /// Fraction of clients with a full working-day session.
    pub worker_frac: Option<f64>,
    /// Global demand multiplier (1.0 = the paper's utilization).
    pub rate_scale: Option<f64>,
    /// Diurnal shape: `"office"`, `"residential"` or `"weekend"`.
    pub diurnal: Option<String>,
    /// Optional flash-crowd window.
    pub surge: Option<SurgeSpec>,

    /// Topology generator: `"overlap"` (paper) or `"binomial"` (Fig. 10
    /// densities, down to 1.0 = no wireless sharing).
    pub topology: Option<String>,
    /// Mean networks in range per client (paper: 5.6).
    pub mean_networks_in_range: Option<f64>,
    /// Client↔home wireless rate, Mbit/s (paper: 12).
    pub home_mbps: Option<f64>,
    /// Client↔neighbor wireless rate, Mbit/s (paper: 6).
    pub neighbor_mbps: Option<f64>,

    /// ADSL backhaul per gateway, Mbit/s (paper: 6).
    pub backhaul_mbps: Option<f64>,
    /// DSLAM line cards (paper: 4).
    pub n_cards: Option<usize>,
    /// Ports per line card (paper: 12).
    pub ports_per_card: Option<usize>,
    /// k of the HDF k-switches (paper: 4).
    pub k_switch: Option<usize>,

    /// SoI idle timeout, seconds (paper: 60).
    pub idle_timeout_s: Option<f64>,
    /// Gateway wake-up time, seconds (paper: 60).
    pub wake_time_s: Option<f64>,
    /// Gateway power-state ladder override (unset = the binary on/off
    /// model, or multi-doze's default three-level ladder).
    pub power_states: Option<PowerStatesSpec>,
    /// Adaptive-SOI estimator overrides.
    pub adaptive_soi: Option<AdaptiveSoiSpec>,
    /// Max gateway utilization in the optimal ILP, `(0, 1]`.
    pub q_max_utilization: Option<f64>,
    /// Optimal scheme re-solve period, seconds (paper: 60).
    pub optimal_period_s: Option<f64>,
    /// Metric sampling period, seconds (paper: 1).
    pub sample_period_s: Option<f64>,
    /// Independent DSLAM-neighborhood shards the population splits over
    /// (1 = the paper's single-DSLAM world).
    pub shards: Option<usize>,
    /// Repetitions averaged per job (paper: 10).
    pub repetitions: Option<usize>,
    /// Master seed (per-batch-job seeds derive from it).
    pub seed: Option<u64>,
    /// Completion-metric memory model: raw per-flow samples (exact
    /// quantiles) while the pooled flow count stays at or below this
    /// cutoff, streaming log-bucket sketch above it. `0` = always stream
    /// (the mega-city setting). Default: 4 Mi samples.
    pub completion_cutoff: Option<usize>,
    /// Online-time-metric memory model, the per-gateway sibling of
    /// `completion_cutoff`: raw positional per-gateway online seconds
    /// (exact quantiles, Fig. 9b pairing) while the gateway count stays at
    /// or below this cutoff, streaming log-bucket histogram above it. `0`
    /// = always stream (the tera-metro setting), which also turns on the
    /// `online_time_quantiles` grid in sharded JSONL records. Default:
    /// 4 Mi gateways.
    pub online_cutoff: Option<usize>,
    /// BH2 overrides.
    pub bh2: Option<Bh2Spec>,
}

/// Every legal top-level key of a scenario spec, each with the legal keys
/// inside it (empty for scalars) — the whitelist [`ScenarioSpec::from_toml`]
/// and [`ScenarioSpec::with_override`] check documents against. Derived
/// deserialization ignores unknown keys, which turns a typo'd section
/// (`[power_state]` for `[power_states]`) or key (`bh2.epoch` for
/// `bh2.epoch_s`) into a silently default run; rejecting up front with a
/// did-you-mean hint is cheaper than debugging a wrong experiment. The
/// keys are read off the serialized structs (every field, unset ones as
/// null), so a new field needs no second edit; only a new section needs
/// its default set below.
fn spec_keys() -> Vec<(String, Vec<String>)> {
    let full = ScenarioSpec {
        surge: Some(SurgeSpec::default()),
        power_states: Some(PowerStatesSpec::default()),
        adaptive_soi: Some(AdaptiveSoiSpec::default()),
        bh2: Some(Bh2Spec::default()),
        ..ScenarioSpec::default()
    };
    let keys =
        |v: &Value| v.as_map().map_or(Vec::new(), |m| m.iter().map(|(k, _)| k.clone()).collect());
    let tree = full.to_value();
    tree.as_map()
        .expect("a spec serializes as a map")
        .iter()
        .map(|(k, v)| (k.clone(), keys(v)))
        .collect()
}

/// Levenshtein edit distance (small strings only — key names).
fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Formats an unknown-key error, appending a `did you mean` hint when a
/// known key sits within a small edit distance of the typo.
pub(crate) fn unknown_key_message(prefix: &str, key: &str, known: &[impl AsRef<str>]) -> String {
    let best = known
        .iter()
        .map(|k| (levenshtein(key, k.as_ref()), k.as_ref()))
        .min()
        .filter(|&(d, _)| d <= 1 + key.len() / 4);
    match best {
        Some((_, hint)) => format!("{prefix} (did you mean `{hint}`?)"),
        None => prefix.to_string(),
    }
}

/// Rejects unknown top-level keys/sections of a parsed spec document, and
/// unknown keys inside its sections.
fn check_spec_keys(doc: &Value, context: &str) -> SimResult<()> {
    let unknown = |key: &str, shown: &str, known: &[String]| {
        SimError::InvalidInput(unknown_key_message(
            &format!("{context}: unknown key `{shown}`"),
            key,
            known,
        ))
    };
    let Some(m) = doc.as_map() else {
        return Ok(());
    };
    let known = spec_keys();
    for (key, value) in m {
        let Some((_, fields)) = known.iter().find(|(k, _)| k == key) else {
            let names: Vec<String> = known.iter().map(|(k, _)| k.clone()).collect();
            return Err(unknown(key, key, &names));
        };
        if let (false, Some(inner)) = (fields.is_empty(), value.as_map()) {
            if let Some((field, _)) = inner.iter().find(|(f, _)| !fields.contains(f)) {
                return Err(unknown(field, &format!("{key}.{field}"), fields));
            }
        }
    }
    Ok(())
}

impl ScenarioSpec {
    /// Parses a spec from TOML text. Unknown top-level keys or sections
    /// are rejected (with a did-you-mean hint) rather than silently
    /// ignored — a typo'd `[power_state]` must not run a default-config
    /// experiment.
    pub fn from_toml(text: &str) -> SimResult<Self> {
        let doc: Value = toml::parse_document(text)
            .map_err(|e| SimError::InvalidInput(format!("scenario TOML: {e}")))?;
        check_spec_keys(&doc, "scenario TOML")?;
        ScenarioSpec::from_value(&doc)
            .map_err(|e| SimError::InvalidInput(format!("scenario TOML: {e}")))
    }

    /// Renders the spec as TOML (unset fields omitted).
    pub fn to_toml(&self) -> String {
        toml::to_string(self).expect("spec serializes")
    }

    /// Overlays `self` onto `base`: fields set here win, everything else
    /// inherits. Performed structurally on the serde value trees so nested
    /// tables (`bh2`, `surge`) merge per-field.
    pub fn merged_over(&self, base: &ScenarioSpec) -> ScenarioSpec {
        let mut tree = base.to_value();
        merge_value(&mut tree, &self.to_value());
        ScenarioSpec::from_value(&tree).expect("merged spec tree stays well-formed")
    }

    /// Applies one `dotted.key = value` TOML fragment (the `sweep` / `--set`
    /// mechanism) and returns the updated spec.
    pub fn with_override(&self, assignment: &str) -> SimResult<ScenarioSpec> {
        let frag: Value = toml::parse_document(assignment)
            .map_err(|e| SimError::InvalidInput(format!("override `{assignment}`: {e}")))?;
        if frag.as_map().map(|m| m.is_empty()).unwrap_or(true) {
            return Err(SimError::InvalidInput(format!(
                "override `{assignment}` assigns nothing (expected key = value)"
            )));
        }
        check_spec_keys(&frag, &format!("override `{assignment}`"))?;
        let mut tree = self.to_value();
        merge_value(&mut tree, &frag);
        ScenarioSpec::from_value(&tree)
            .map_err(|e| SimError::InvalidInput(format!("override `{assignment}`: {e}")))
    }

    /// [`ScenarioSpec::with_override`] from a split key/value pair, quoting
    /// the value when it is not a bare TOML scalar — so
    /// `--set diurnal=weekend` and `--param topology --values binomial`
    /// work without shell-escaped quotes.
    pub fn with_assignment(&self, key: &str, value: &str) -> SimResult<ScenarioSpec> {
        match self.with_override(&format!("{key} = {value}")) {
            Ok(spec) => Ok(spec),
            Err(bare_err) => {
                let quoted = value.replace('\\', "\\\\").replace('"', "\\\"");
                self.with_override(&format!("{key} = \"{quoted}\"")).map_err(|_| bare_err)
            }
        }
    }

    /// Resolves the spec (with all inheritance already applied) into a
    /// validated [`ScenarioConfig`].
    pub fn to_config(&self) -> SimResult<ScenarioConfig> {
        let mut cfg = ScenarioConfig::default();
        let t = &mut cfg.trace;
        set(&mut t.n_clients, &self.n_clients);
        set(&mut t.n_aps, &self.n_aps);
        if let Some(h) = self.horizon_hours {
            t.horizon = SimTime::from_millis(span("horizon_hours", h, 3_600.0)?.as_millis());
        }
        set(&mut t.always_on_frac, &self.always_on_frac);
        set(&mut t.worker_frac, &self.worker_frac);
        set(&mut t.rate_scale, &self.rate_scale);
        if let Some(d) = &self.diurnal {
            t.profile = parse_diurnal(d)?;
        }
        if let Some(s) = &self.surge {
            let surge = SurgeWindow {
                start_h: s.start_h.ok_or_else(|| missing("surge.start_h"))?,
                end_h: s.end_h.ok_or_else(|| missing("surge.end_h"))?,
                intensity: s.intensity.ok_or_else(|| missing("surge.intensity"))?,
            };
            // Out-of-range hours would silently never match any hour of
            // day, making the "flash crowd" a no-op — reject instead.
            if !(0.0..24.0).contains(&surge.start_h) || !(0.0..24.0).contains(&surge.end_h) {
                return Err(SimError::InvalidConfig(format!(
                    "surge hours must be in [0, 24): got {}..{}",
                    surge.start_h, surge.end_h
                )));
            }
            if surge.start_h == surge.end_h {
                return Err(SimError::InvalidConfig(format!(
                    "surge window is empty (start == end == {}); use 0..23.99 for all day",
                    surge.start_h
                )));
            }
            // 50 is the gap model's clamp ceiling; higher values would be
            // silently truncated, so reject them here instead.
            if !(surge.intensity > 0.0) || surge.intensity > 50.0 {
                return Err(SimError::InvalidConfig(format!(
                    "surge intensity must be in (0, 50], got {}",
                    surge.intensity
                )));
            }
            t.surge = Some(surge);
        }

        if let Some(k) = &self.topology {
            cfg.topology = parse_topology(k)?;
        }
        set(&mut cfg.mean_networks_in_range, &self.mean_networks_in_range);
        if let Some(m) = self.home_mbps {
            cfg.channel.home_bps = m * 1.0e6;
        }
        if let Some(m) = self.neighbor_mbps {
            cfg.channel.neighbor_bps = m * 1.0e6;
        }
        if let Some(m) = self.backhaul_mbps {
            cfg.backhaul_bps = m * 1.0e6;
        }
        set(&mut cfg.dslam.n_cards, &self.n_cards);
        set(&mut cfg.dslam.ports_per_card, &self.ports_per_card);
        set(&mut cfg.k_switch, &self.k_switch);

        set_duration(&mut cfg.idle_timeout, &self.idle_timeout_s, "idle_timeout_s")?;
        set_duration(&mut cfg.wake_time, &self.wake_time_s, "wake_time_s")?;
        if let Some(ps) = &self.power_states {
            cfg.power_states = Some(ps.to_ladder()?);
        }
        if let Some(a) = &self.adaptive_soi {
            let p: &mut AdaptiveSoiParams = &mut cfg.adaptive;
            set(&mut p.gain, &a.gain);
            set(&mut p.alpha, &a.alpha);
            set_duration(&mut p.min_timeout, &a.min_timeout_s, "adaptive_soi.min_timeout_s")?;
            set_duration(&mut p.max_timeout, &a.max_timeout_s, "adaptive_soi.max_timeout_s")?;
        }
        set(&mut cfg.q_max_utilization, &self.q_max_utilization);
        set_duration(&mut cfg.optimal_period, &self.optimal_period_s, "optimal_period_s")?;
        set_duration(&mut cfg.sample_period, &self.sample_period_s, "sample_period_s")?;
        set(&mut cfg.shards, &self.shards);
        set(&mut cfg.repetitions, &self.repetitions);
        set(&mut cfg.seed, &self.seed);
        set(&mut cfg.completion_cutoff, &self.completion_cutoff);
        set(&mut cfg.online_cutoff, &self.online_cutoff);

        if let Some(b) = &self.bh2 {
            let p: &mut Bh2Params = &mut cfg.bh2;
            set(&mut p.low_threshold, &b.low_threshold);
            set(&mut p.high_threshold, &b.high_threshold);
            set_duration(&mut p.epoch, &b.epoch_s, "bh2.epoch_s")?;
            set_duration(&mut p.load_window, &b.load_window_s, "bh2.load_window_s")?;
            set(&mut p.backup, &b.backup);
            set(&mut p.literal_return_home, &b.literal_return_home);
        }

        if !cfg.channel.is_valid() {
            return Err(SimError::InvalidConfig(
                "wireless rates must be positive with home ≥ neighbor".into(),
            ));
        }
        cfg.validate()?;
        Ok(cfg)
    }

    /// The inverse of [`ScenarioSpec::to_config`]: a fully-explicit spec
    /// mirroring a resolved config — what `insomnia show` prints.
    pub fn explicit(name: &str, summary: Option<&str>, cfg: &ScenarioConfig) -> ScenarioSpec {
        ScenarioSpec {
            name: Some(name.to_string()),
            base: None,
            summary: summary.map(str::to_string),
            n_clients: Some(cfg.trace.n_clients),
            n_aps: Some(cfg.trace.n_aps),
            horizon_hours: Some(cfg.trace.horizon.as_secs_f64() / 3_600.0),
            always_on_frac: Some(cfg.trace.always_on_frac),
            worker_frac: Some(cfg.trace.worker_frac),
            rate_scale: Some(cfg.trace.rate_scale),
            diurnal: Some(diurnal_key(cfg.trace.profile).to_string()),
            surge: cfg.trace.surge.map(|s| SurgeSpec {
                start_h: Some(s.start_h),
                end_h: Some(s.end_h),
                intensity: Some(s.intensity),
            }),
            topology: Some(topology_key(cfg.topology).to_string()),
            mean_networks_in_range: Some(cfg.mean_networks_in_range),
            home_mbps: Some(cfg.channel.home_bps / 1.0e6),
            neighbor_mbps: Some(cfg.channel.neighbor_bps / 1.0e6),
            backhaul_mbps: Some(cfg.backhaul_bps / 1.0e6),
            n_cards: Some(cfg.dslam.n_cards),
            ports_per_card: Some(cfg.dslam.ports_per_card),
            k_switch: Some(cfg.k_switch),
            idle_timeout_s: Some(cfg.idle_timeout.as_secs_f64()),
            wake_time_s: Some(cfg.wake_time.as_secs_f64()),
            power_states: cfg.power_states.as_ref().map(|l| PowerStatesSpec {
                watts: Some(l.states().iter().map(|s| s.watts).collect()),
                wake_s: Some(l.states().iter().map(|s| s.wake.as_secs_f64()).collect()),
                dwell_s: Some(l.states().iter().map(|s| s.dwell.as_secs_f64()).collect()),
            }),
            adaptive_soi: Some(AdaptiveSoiSpec {
                gain: Some(cfg.adaptive.gain),
                alpha: Some(cfg.adaptive.alpha),
                min_timeout_s: Some(cfg.adaptive.min_timeout.as_secs_f64()),
                max_timeout_s: Some(cfg.adaptive.max_timeout.as_secs_f64()),
            }),
            q_max_utilization: Some(cfg.q_max_utilization),
            optimal_period_s: Some(cfg.optimal_period.as_secs_f64()),
            sample_period_s: Some(cfg.sample_period.as_secs_f64()),
            shards: Some(cfg.shards),
            repetitions: Some(cfg.repetitions),
            seed: Some(cfg.seed),
            completion_cutoff: Some(cfg.completion_cutoff),
            online_cutoff: Some(cfg.online_cutoff),
            bh2: Some(Bh2Spec {
                low_threshold: Some(cfg.bh2.low_threshold),
                high_threshold: Some(cfg.bh2.high_threshold),
                epoch_s: Some(cfg.bh2.epoch.as_secs_f64()),
                load_window_s: Some(cfg.bh2.load_window.as_secs_f64()),
                backup: Some(cfg.bh2.backup),
                literal_return_home: Some(cfg.bh2.literal_return_home),
            }),
        }
    }
}

fn set<T: Clone>(dst: &mut T, src: &Option<T>) {
    if let Some(v) = src {
        *dst = v.clone();
    }
}

fn set_duration(dst: &mut SimDuration, src: &Option<f64>, key: &str) -> SimResult<()> {
    if let Some(s) = src {
        *dst = span(key, *s, 1.0)?;
    }
    Ok(())
}

/// `value` spans of `unit_s` seconds each, as whole milliseconds. Rejects
/// what [`SimDuration::from_secs_f64`] would silently clamp — NaN, negative
/// spans and spans past `u64` milliseconds — with an error naming `key`.
fn span(key: &str, value: f64, unit_s: f64) -> SimResult<SimDuration> {
    let secs = value * unit_s;
    if secs >= 0.0 && (secs * 1_000.0).round() < u64::MAX as f64 {
        return Ok(SimDuration::from_secs_f64(secs));
    }
    let field = key.trim_end_matches("_s").trim_end_matches("_hours").replace(['.', '_'], " ");
    Err(SimError::InvalidConfig(format!(
        "{field} (`{key}`) must be a finite, non-negative span below 2^64 ms, got {value}"
    )))
}

fn missing(field: &str) -> SimError {
    SimError::InvalidConfig(format!("surge windows need `{field}`"))
}

fn parse_diurnal(key: &str) -> SimResult<DiurnalKind> {
    match key.trim().to_ascii_lowercase().as_str() {
        "office" | "office-building" => Ok(DiurnalKind::OfficeBuilding),
        "residential" => Ok(DiurnalKind::Residential),
        "weekend" => Ok(DiurnalKind::Weekend),
        other => Err(SimError::InvalidConfig(format!(
            "unknown diurnal profile `{other}` (office, residential, weekend)"
        ))),
    }
}

fn diurnal_key(kind: DiurnalKind) -> &'static str {
    match kind {
        DiurnalKind::OfficeBuilding => "office",
        DiurnalKind::Residential => "residential",
        DiurnalKind::Weekend => "weekend",
    }
}

fn parse_topology(key: &str) -> SimResult<TopologyKind> {
    match key.trim().to_ascii_lowercase().as_str() {
        "overlap" => Ok(TopologyKind::Overlap),
        "binomial" => Ok(TopologyKind::Binomial),
        other => {
            Err(SimError::InvalidConfig(format!("unknown topology `{other}` (overlap, binomial)")))
        }
    }
}

fn topology_key(kind: TopologyKind) -> &'static str {
    match kind {
        TopologyKind::Overlap => "overlap",
        TopologyKind::Binomial => "binomial",
    }
}

/// Recursively merges `over` into `base`: maps merge per key, `Null`
/// overlay entries are skipped (unset `Option` fields), everything else
/// replaces.
fn merge_value(base: &mut Value, over: &Value) {
    match (base, over) {
        (Value::Map(b), Value::Map(o)) => {
            for (k, ov) in o {
                if matches!(ov, Value::Null) {
                    continue;
                }
                match b.iter_mut().find(|(bk, _)| bk == k) {
                    Some((_, bv)) => merge_value(bv, ov),
                    None => b.push((k.clone(), ov.clone())),
                }
            }
        }
        (b, o) => {
            if !matches!(o, Value::Null) {
                *b = o.clone();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_spec_resolves_to_paper_defaults() {
        let cfg = ScenarioSpec::default().to_config().unwrap();
        let def = ScenarioConfig::default();
        assert_eq!(cfg.trace.n_clients, def.trace.n_clients);
        assert_eq!(cfg.backhaul_bps, def.backhaul_bps);
        assert_eq!(cfg.seed, def.seed);
        assert_eq!(cfg.bh2.epoch, def.bh2.epoch);
    }

    #[test]
    fn toml_fields_land_in_config() {
        let spec = ScenarioSpec::from_toml(
            r#"
name = "mini"
n_clients = 68
n_aps = 10
horizon_hours = 6.0
backhaul_mbps = 4.0
topology = "binomial"
mean_networks_in_range = 2.5
diurnal = "weekend"

[surge]
start_h = 19.0
end_h = 22.0
intensity = 6.0

[bh2]
low_threshold = 0.05
epoch_s = 300.0
"#,
        )
        .unwrap();
        let cfg = spec.to_config().unwrap();
        assert_eq!(cfg.trace.n_clients, 68);
        assert_eq!(cfg.trace.horizon, SimTime::from_hours(6));
        assert_eq!(cfg.backhaul_bps, 4.0e6);
        assert_eq!(cfg.topology, TopologyKind::Binomial);
        assert_eq!(cfg.trace.profile, DiurnalKind::Weekend);
        let s = cfg.trace.surge.unwrap();
        assert_eq!(s.intensity, 6.0);
        assert_eq!(cfg.bh2.low_threshold, 0.05);
        assert_eq!(cfg.bh2.epoch, SimDuration::from_secs(300));
        // Unset fields keep the paper defaults.
        assert_eq!(cfg.bh2.high_threshold, 0.50);
        assert_eq!(cfg.idle_timeout, SimDuration::from_secs(60));
    }

    #[test]
    fn merge_overlays_nested_tables() {
        let base =
            ScenarioSpec::from_toml("n_clients = 100\n[bh2]\nlow_threshold = 0.05\nbackup = 2\n")
                .unwrap();
        let child = ScenarioSpec::from_toml("rate_scale = 2.0\n[bh2]\nbackup = 0\n").unwrap();
        let merged = child.merged_over(&base);
        assert_eq!(merged.n_clients, Some(100));
        assert_eq!(merged.rate_scale, Some(2.0));
        let bh2 = merged.bh2.unwrap();
        assert_eq!(bh2.low_threshold, Some(0.05), "inherited");
        assert_eq!(bh2.backup, Some(0), "overridden");
    }

    #[test]
    fn overrides_apply_dotted_keys() {
        let spec = ScenarioSpec::default().with_override("bh2.high_threshold = 0.8").unwrap();
        assert_eq!(spec.bh2.unwrap().high_threshold, Some(0.8));
        assert!(ScenarioSpec::default().with_override("garbage").is_err());
    }

    #[test]
    fn assignments_auto_quote_string_values() {
        let spec = ScenarioSpec::default().with_assignment("diurnal", "weekend").unwrap();
        assert_eq!(spec.diurnal.as_deref(), Some("weekend"));
        let spec = spec.with_assignment("bh2.backup", "2").unwrap();
        assert_eq!(spec.bh2.unwrap().backup, Some(2));
        // Type mismatches still surface the original error.
        assert!(ScenarioSpec::default().with_assignment("n_clients", "banana").is_err());
    }

    #[test]
    fn out_of_range_surges_are_rejected() {
        let bad_hours = ScenarioSpec {
            surge: Some(SurgeSpec { start_h: Some(25.0), end_h: Some(28.0), intensity: Some(6.0) }),
            ..Default::default()
        };
        assert!(bad_hours.to_config().is_err(), "hours past 24 can never match");
        let bad_intensity = ScenarioSpec {
            surge: Some(SurgeSpec { start_h: Some(19.0), end_h: Some(22.0), intensity: Some(0.0) }),
            ..Default::default()
        };
        assert!(bad_intensity.to_config().is_err(), "zero intensity is a silent no-op");
        let clamped = ScenarioSpec {
            surge: Some(SurgeSpec {
                start_h: Some(19.0),
                end_h: Some(22.0),
                intensity: Some(500.0),
            }),
            ..Default::default()
        };
        assert!(clamped.to_config().is_err(), "values past the gap clamp would silently truncate");
        // Midnight-wrapping windows stay legal.
        let wrap = ScenarioSpec {
            surge: Some(SurgeSpec { start_h: Some(22.0), end_h: Some(2.0), intensity: Some(6.0) }),
            ..Default::default()
        };
        assert!(wrap.to_config().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let spec = ScenarioSpec { k_switch: Some(3), ..Default::default() };
        assert!(spec.to_config().is_err(), "3 does not divide 4 cards");
        let spec = ScenarioSpec { diurnal: Some("lunar".into()), ..Default::default() };
        assert!(spec.to_config().is_err());
        let spec = ScenarioSpec {
            topology: Some("binomial".into()),
            mean_networks_in_range: Some(900.0),
            ..Default::default()
        };
        assert!(spec.to_config().is_err());
        // Durations that `from_secs_f64` would clamp are rejected by name.
        for (key, doc) in [
            ("horizon_hours", "horizon_hours = inf"),
            ("horizon_hours", "horizon_hours = 1e30"),
            ("idle_timeout_s", "idle_timeout_s = -1"),
            ("wake_time_s", "wake_time_s = nan"),
            ("optimal_period_s", "optimal_period_s = -inf"),
            ("sample_period_s", "sample_period_s = 1e17"),
            ("adaptive_soi.min_timeout_s", "adaptive_soi.min_timeout_s = -5"),
            ("adaptive_soi.max_timeout_s", "adaptive_soi.max_timeout_s = inf"),
            ("bh2.epoch_s", "bh2.epoch_s = -1"),
            ("bh2.load_window_s", "bh2.load_window_s = nan"),
            ("power_states.wake_s", "power_states.watts = [2.0]\npower_states.wake_s = [-1.0]"),
            (
                "power_states.dwell_s",
                "power_states.watts = [2.0]\npower_states.wake_s = [1.0]\n\
                 power_states.dwell_s = [inf]",
            ),
        ] {
            let err = ScenarioSpec::from_toml(doc).unwrap().to_config().unwrap_err().to_string();
            assert!(err.contains(&format!("`{key}`")), "{doc}: {err}");
        }
    }

    #[test]
    fn power_states_and_adaptive_soi_land_in_config() {
        let spec = ScenarioSpec::from_toml(
            r#"
[power_states]
watts = [6.0, 4.0, 2.0]
wake_s = [5.0, 20.0, 60.0]
dwell_s = [300.0, 900.0, 0.0]

[adaptive_soi]
gain = 3.0
alpha = 0.5
min_timeout_s = 15.0
max_timeout_s = 120.0
"#,
        )
        .unwrap();
        let cfg = spec.to_config().unwrap();
        let ladder = cfg.power_states.as_ref().unwrap();
        assert_eq!(ladder.n_levels(), 3);
        assert_eq!(ladder.watts(1), 4.0);
        assert_eq!(ladder.wake(2), SimDuration::from_secs(60));
        assert_eq!(ladder.dwell(0), SimDuration::from_secs(300));
        assert_eq!(cfg.adaptive.gain, 3.0);
        assert_eq!(cfg.adaptive.alpha, 0.5);
        assert_eq!(cfg.adaptive.min_timeout, SimDuration::from_secs(15));
        assert_eq!(cfg.adaptive.max_timeout, SimDuration::from_secs(120));
        // Unset sections keep the defaults.
        let plain = ScenarioSpec::default().to_config().unwrap();
        assert!(plain.power_states.is_none());
        assert_eq!(plain.adaptive.gain, 2.0);
    }

    #[test]
    fn malformed_power_states_are_rejected() {
        // Ragged parallel arrays.
        let ragged =
            ScenarioSpec::from_toml("[power_states]\nwatts = [6.0, 2.0]\nwake_s = [60.0]\n")
                .unwrap();
        assert!(ragged.to_config().is_err());
        // Missing wake_s entirely.
        let partial = ScenarioSpec::from_toml("[power_states]\nwatts = [6.0, 2.0]\n").unwrap();
        assert!(partial.to_config().is_err());
        // Watts increasing with depth fail the ladder's own validation.
        let rising = ScenarioSpec::from_toml(
            "[power_states]\nwatts = [2.0, 6.0]\nwake_s = [5.0, 60.0]\ndwell_s = [300.0, 0.0]\n",
        )
        .unwrap();
        assert!(rising.to_config().is_err());
        // Bad adaptive clamps are rejected too.
        let clamps = ScenarioSpec::from_toml(
            "[adaptive_soi]\nmin_timeout_s = 300.0\nmax_timeout_s = 10.0\n",
        )
        .unwrap();
        assert!(clamps.to_config().is_err());
    }

    #[test]
    fn unknown_keys_are_rejected_with_a_hint() {
        // The classic silent footgun: a typo'd section name used to parse
        // fine and run a default-config experiment.
        let err =
            ScenarioSpec::from_toml("[power_state]\nwatts = [6.0, 2.0]\nwake_s = [5.0, 60.0]\n")
                .unwrap_err()
                .to_string();
        assert!(err.contains("unknown key `power_state`"), "{err}");
        assert!(err.contains("did you mean `power_states`?"), "{err}");

        let err = ScenarioSpec::from_toml("n_client = 68\n").unwrap_err().to_string();
        assert!(err.contains("did you mean `n_clients`?"), "{err}");

        // A key nowhere near the schema gets no misleading hint.
        let err = ScenarioSpec::from_toml("zzzzzzzzzz = 1\n").unwrap_err().to_string();
        assert!(err.contains("unknown key"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");

        // Overrides go through the same gate.
        let err = ScenarioSpec::default().with_override("repetition = 3").unwrap_err().to_string();
        assert!(err.contains("did you mean `repetitions`?"), "{err}");
        // Known dotted keys still work.
        assert!(ScenarioSpec::default().with_override("bh2.backup = 2").is_ok());

        // Keys inside a section are checked too, in TOML and overrides alike.
        let err = ScenarioSpec::default().with_override("bh2.epoch = 30").unwrap_err().to_string();
        assert!(err.contains("unknown key `bh2.epoch`"), "{err}");
        assert!(err.contains("did you mean `epoch_s`?"), "{err}");
        for doc in [
            "[surge]\nstart = 19.0\n",
            "[power_states]\nwatt = [6.0]\n",
            "[adaptive_soi]\ngain_x = 3.0\n",
            "[bh2]\nepoch = 30.0\n",
        ] {
            let err = ScenarioSpec::from_toml(doc).unwrap_err().to_string();
            assert!(err.contains("unknown key"), "{doc}: {err}");
        }
    }

    #[test]
    fn explicit_spec_roundtrips_through_toml() {
        let cfg = ScenarioConfig::default();
        let spec = ScenarioSpec::explicit("paper-default", Some("the §5.1 scenario"), &cfg);
        let text = spec.to_toml();
        let back = ScenarioSpec::from_toml(&text).unwrap();
        assert_eq!(spec, back);
        let cfg2 = back.to_config().unwrap();
        assert_eq!(cfg2.trace.n_clients, cfg.trace.n_clients);
        assert_eq!(cfg2.bh2.epoch, cfg.bh2.epoch);
        assert_eq!(cfg2.seed, cfg.seed);
    }
}
