//! The `insomnia profile` backend: parse a telemetry sidecar, render the
//! phase-breakdown table, and expose the deterministic counter totals the
//! CI drift gate compares.

use crate::counters::RunCounters;
use crate::record::{
    JobTelemetryRecord, ManifestRecord, PhaseRecord, SummaryRecord, TelemetryRecord,
};
use serde::{Deserialize, Serialize};

/// The deterministic subset of a sidecar's summary: everything here is
/// byte-identical at any thread count, which is what lets CI `cmp` the
/// serialized form against a committed golden file while wall-clock and
/// RSS vary freely run to run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CounterTotals {
    /// Jobs completed.
    pub jobs: usize,
    /// `(repetition × shard)` tasks completed.
    pub tasks: u64,
    /// Events delivered over the whole batch.
    pub events: u64,
    /// Trace flows over the whole batch.
    pub flows: u64,
    /// Merged counters.
    pub counters: RunCounters,
}

/// A parsed sidecar, reduced to what the profile table renders.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// The run manifest, when the sidecar has one.
    pub manifest: Option<ManifestRecord>,
    /// Phase spans, in sidecar order.
    pub phases: Vec<PhaseRecord>,
    /// Per-job records, in sidecar order.
    pub jobs: Vec<JobTelemetryRecord>,
    /// The run summary, when the sidecar has one.
    pub summary: Option<SummaryRecord>,
    /// Task records seen (individual records are folded, not retained).
    pub n_tasks: u64,
    /// Smallest per-task event count (0 when no tasks).
    pub task_events_min: u64,
    /// Largest per-task event count.
    pub task_events_max: u64,
    /// Events summed over task records (mean = sum / n_tasks).
    task_events_sum: u64,
    /// Topology-build time summed over task records, milliseconds (the
    /// topology part of the `world-build` phase).
    pub topology_ms: f64,
    /// Event-loop load per scheme, in order of first appearance.
    pub schemes: Vec<SchemeLoop>,
}

/// One scheme's event-loop load, folded from the task records of the tasks
/// it simulated (checkpoint-resumed tasks ran no loop and are left out).
#[derive(Debug, Clone, PartialEq)]
pub struct SchemeLoop {
    /// Machine scheme key.
    pub scheme: String,
    /// Simulated tasks.
    pub tasks: u64,
    /// Event-loop wall-clock summed over the tasks, milliseconds.
    pub loop_ms: f64,
    /// Events delivered, summed over the tasks.
    pub events: u64,
    /// Smallest per-task event-loop time, milliseconds.
    pub task_ms_min: f64,
    /// Largest per-task event-loop time, milliseconds.
    pub task_ms_max: f64,
}

impl SchemeLoop {
    /// Events delivered per event-loop second, in millions (`None` when
    /// no loop time was recorded).
    fn mevents_per_s(&self) -> Option<f64> {
        (self.loop_ms > 0.0).then(|| self.events as f64 / self.loop_ms / 1e3)
    }
}

impl ProfileReport {
    /// Parses a sidecar's JSONL text. Unknown record types are an error
    /// (the schema is versioned); blank lines are skipped.
    pub fn from_jsonl(text: &str) -> Result<ProfileReport, String> {
        let mut report = ProfileReport {
            manifest: None,
            phases: Vec::new(),
            jobs: Vec::new(),
            summary: None,
            n_tasks: 0,
            task_events_min: u64::MAX,
            task_events_max: 0,
            task_events_sum: 0,
            topology_ms: 0.0,
            schemes: Vec::new(),
        };
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let rec: TelemetryRecord =
                serde_json::from_str(line).map_err(|e| format!("telemetry line {}: {e}", i + 1))?;
            match rec {
                TelemetryRecord::Manifest(m) => report.manifest = Some(m),
                TelemetryRecord::Task(t) => {
                    let ev = t.counters.delivered();
                    report.n_tasks += 1;
                    report.task_events_min = report.task_events_min.min(ev);
                    report.task_events_max = report.task_events_max.max(ev);
                    report.task_events_sum += ev;
                    report.topology_ms += t.topology_ms;
                    if t.counters.tasks_resumed == 0 {
                        report.note_scheme_task(&t.scheme, t.loop_ms, ev);
                    }
                }
                TelemetryRecord::Job(j) => report.jobs.push(j),
                TelemetryRecord::Phase(p) => report.phases.push(p),
                TelemetryRecord::Summary(s) => report.summary = Some(s),
            }
        }
        if report.n_tasks == 0 {
            report.task_events_min = 0;
        }
        if report.summary.is_none() && report.jobs.is_empty() && report.phases.is_empty() {
            return Err(
                "no telemetry records found (is this a result JSONL, not a sidecar?)".to_string()
            );
        }
        Ok(report)
    }

    /// Folds one simulated task into its scheme's [`SchemeLoop`] row.
    fn note_scheme_task(&mut self, scheme: &str, loop_ms: f64, events: u64) {
        let at = match self.schemes.iter().position(|s| s.scheme == scheme) {
            Some(at) => at,
            None => {
                self.schemes.push(SchemeLoop {
                    scheme: scheme.to_string(),
                    tasks: 0,
                    loop_ms: 0.0,
                    events: 0,
                    task_ms_min: f64::INFINITY,
                    task_ms_max: 0.0,
                });
                self.schemes.len() - 1
            }
        };
        let row = &mut self.schemes[at];
        row.tasks += 1;
        row.loop_ms += loop_ms;
        row.events += events;
        row.task_ms_min = row.task_ms_min.min(loop_ms);
        row.task_ms_max = row.task_ms_max.max(loop_ms);
    }

    /// The deterministic counter totals (the CI drift gate's payload).
    pub fn counter_totals(&self) -> Result<CounterTotals, String> {
        let s = self.summary.as_ref().ok_or("sidecar has no summary record")?;
        Ok(CounterTotals {
            jobs: s.jobs,
            tasks: s.tasks,
            events: s.events,
            flows: s.flows,
            counters: s.counters,
        })
    }

    /// Fraction of the run's wall-clock attributed to named phase spans
    /// (`None` without a summary). Can exceed 1 when phases overlap across
    /// worker threads — busy time is summed per task, wall-clock is not.
    pub fn attributed_fraction(&self) -> Option<f64> {
        let wall = self.summary.as_ref()?.wall_ms;
        if wall <= 0.0 {
            return None;
        }
        Some(self.phases.iter().map(|p| p.busy_ms).sum::<f64>() / wall)
    }

    /// Renders the profile: manifest header, phase-breakdown table
    /// (busy share of wall-clock, events/s and flows/s, per-task spread),
    /// per-task event spread, and the deterministic counter taxonomy.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("== run\n");
        if let Some(m) = &self.manifest {
            let scenarios: Vec<String> = m
                .scenarios
                .iter()
                .map(|s| format!("{} ({} shards x {} reps)", s.name, s.shards, s.repetitions))
                .collect();
            out.push_str(&format!(
                "scenarios: {}; schemes: {}; seeds {}; threads {}; jobs {}\n",
                scenarios.join(", "),
                m.schemes.join(","),
                m.seeds,
                m.threads,
                m.jobs,
            ));
        }
        if let Some(s) = &self.summary {
            let rss = match s.peak_rss_mib {
                Some(mib) => format!("{mib:.0} MiB"),
                None => "n/a".to_string(),
            };
            out.push_str(&format!(
                "wall-clock {:.1} s; peak RSS {}; {} events; {} flows; {} job(s), {} task(s)\n",
                s.wall_ms / 1_000.0,
                rss,
                s.events,
                s.flows,
                s.jobs,
                s.tasks,
            ));
        } else {
            // An absent summary means the producing run died before its
            // final record: every rate below would silently render as 0 /
            // "-". Say so instead of letting the zeros read as measurements.
            out.push_str(
                "warning: incomplete sidecar (no summary) — wall-clock shares, event/flow \
                 rates and counter totals are unavailable\n",
            );
        }

        out.push_str("\n== phases\n");
        out.push_str(&format!(
            "{:<12} {:>10} {:>7} {:>12} {:>12} {:>7}  {}\n",
            "phase", "busy [s]", "share", "events/s", "flows/s", "tasks", "task ms min/mean/max"
        ));
        let wall = self.summary.as_ref().map(|s| s.wall_ms).unwrap_or(0.0);
        let (events, flows) =
            self.summary.as_ref().map(|s| (s.events as f64, s.flows as f64)).unwrap_or((0.0, 0.0));
        let share_of_wall = |ms: f64| {
            if wall > 0.0 {
                format!("{:.1}%", 100.0 * ms / wall)
            } else {
                "-".to_string()
            }
        };
        for p in &self.phases {
            let busy_s = p.busy_ms / 1_000.0;
            let share = share_of_wall(p.busy_ms);
            // Rates only where the phase does that work: the event loop
            // delivers events over arrived flows; world-build generates
            // the flows (stream setup replays every burst draw).
            let rate = |total: f64| {
                if busy_s > 0.0 && total > 0.0 {
                    format!("{:.0}", total / busy_s)
                } else {
                    "-".to_string()
                }
            };
            let (ev_rate, fl_rate) = match p.phase.as_str() {
                "event-loop" => (rate(events), rate(flows)),
                "world-build" => ("-".to_string(), rate(flows)),
                _ => ("-".to_string(), "-".to_string()),
            };
            let spread = if p.tasks == 0 {
                "-".to_string()
            } else {
                format!("{:.1}/{:.1}/{:.1}", p.task_ms_min, p.task_ms_mean, p.task_ms_max)
            };
            out.push_str(&format!(
                "{:<12} {:>10.2} {:>7} {:>12} {:>12} {:>7}  {}\n",
                p.phase, busy_s, share, ev_rate, fl_rate, p.tasks, spread
            ));
            // World-build split into the topology build (from the task
            // records) and the trace setup pass (the rest); older sidecars
            // carry no topology time and render as before.
            if p.phase == "world-build" && self.topology_ms > 0.0 && p.busy_ms > 0.0 {
                let trace_ms = (p.busy_ms - self.topology_ms).max(0.0);
                for (part, ms) in [("  topology", self.topology_ms), ("  trace-setup", trace_ms)] {
                    out.push_str(&format!(
                        "{:<13} {:>9.2} {:>7}  {:.1}% of world-build\n",
                        part,
                        ms / 1_000.0,
                        share_of_wall(ms),
                        100.0 * ms / p.busy_ms,
                    ));
                }
            }
        }
        if let Some(frac) = self.attributed_fraction() {
            out.push_str(&format!(
                "attributed: {:.1}% of {:.1} s wall-clock in named phases\n",
                100.0 * frac,
                wall / 1_000.0,
            ));
        }

        if let Some(mean) = self.task_events_sum.checked_div(self.n_tasks) {
            out.push_str(&format!(
                "\n== per-task spread\nevents per task min/mean/max: {}/{}/{}\n",
                self.task_events_min, mean, self.task_events_max,
            ));
        }

        if !self.schemes.is_empty() {
            out.push_str("\n== per scheme\n");
            out.push_str(&format!(
                "{:<14} {:>6} {:>12} {:>12} {:>8}  {}\n",
                "scheme", "tasks", "loop [ms]", "events", "Mev/s", "task ms min/max"
            ));
            for row in &self.schemes {
                let rate = row.mevents_per_s().map_or("-".to_string(), |r| format!("{r:.2}"));
                out.push_str(&format!(
                    "{:<14} {:>6} {:>12.1} {:>12} {:>8}  {:.1}/{:.1}\n",
                    row.scheme,
                    row.tasks,
                    row.loop_ms,
                    row.events,
                    rate,
                    row.task_ms_min,
                    row.task_ms_max
                ));
            }
        }

        if let Some(s) = &self.summary {
            out.push_str("\n== deterministic counters\n");
            let c = &s.counters;
            let rows: [(&str, u64); 19] = [
                ("arrivals", c.arrivals),
                ("departures", c.departures),
                ("wake_dones", c.wake_dones),
                ("idle_checks", c.idle_checks),
                ("bh2_ticks", c.bh2_ticks),
                ("optimal_solves", c.optimal_solves),
                ("samples", c.samples),
                ("doze_ticks", c.doze_ticks),
                ("cancelled_departures", c.cancelled_departures),
                ("cancelled_idle_checks", c.cancelled_idle_checks),
                ("cancelled_doze_ticks", c.cancelled_doze_ticks),
                ("heap_pushes", c.heap_pushes),
                ("peak_heap", c.peak_heap),
                ("flows_total", c.flows_total),
                ("flows_completed", c.flows_completed),
                ("peak_active_flows", c.peak_active_flows),
                ("stream_refills", c.stream_refills),
                ("merge_pops", c.merge_pops),
                ("fold_absorptions", c.fold_absorptions),
            ];
            for (name, v) in rows {
                out.push_str(&format!("{name:<22} {v}\n"));
            }
            // Runs that reused prototype worlds across schemes or
            // repetitions get a note quantifying the skipped setup passes;
            // runs without the cache (one scheme at one repetition, any
            // legacy sidecar) render exactly as before.
            if c.proto_cache_builds > 0 || c.proto_cache_hits > 0 {
                out.push_str(&format!(
                    "\nworld-reuse: {} prototype world build(s) served {} cached task \
                     setup(s) — the shard-major cross-scheme cache skipped that many \
                     FlowStream setup passes\n",
                    c.proto_cache_builds, c.proto_cache_hits,
                ));
            }
        }
        out
    }
}

/// Renders a before/after comparison of two sidecars (`insomnia profile A
/// B`): wall-clock, total events/flows, overall events/s and flows/s, the
/// busy time of every phase present in both runs, and the event-loop time
/// and M events/s of every scheme present in both, each with its relative
/// change. Rates use each run's own wall-clock, so the table answers "how
/// much faster is B" in one read; a differing event or flow total (whole
/// run or per scheme) is flagged, since then the runs did different work
/// and the rate delta is not a pure speed comparison.
pub fn render_delta(a: &ProfileReport, b: &ProfileReport) -> Result<String, String> {
    let sa = a.summary.as_ref().ok_or("first sidecar has no summary record")?;
    let sb = b.summary.as_ref().ok_or("second sidecar has no summary record")?;
    let rate =
        |n: u64, wall_ms: f64| if wall_ms > 0.0 { n as f64 / (wall_ms / 1_000.0) } else { 0.0 };
    let delta = |old: f64, new: f64| {
        if old > 0.0 {
            format!("{:+.1}%", 100.0 * (new - old) / old)
        } else if new > 0.0 {
            // A zero baseline admits no percentage (the naive division
            // prints inf%); B's column already shows the absolute value, so
            // just flag that the metric appeared.
            "(was 0)".to_string()
        } else {
            "n/a".to_string()
        }
    };
    let mut out = String::new();
    out.push_str("== profile delta (A -> B)\n");
    out.push_str(&format!("{:<20} {:>14} {:>14} {:>9}\n", "metric", "A", "B", "delta"));
    let mut row = |name: &str, va: f64, vb: f64, fmt: fn(f64) -> String| {
        out.push_str(&format!(
            "{:<20} {:>14} {:>14} {:>9}\n",
            name,
            fmt(va),
            fmt(vb),
            delta(va, vb)
        ));
    };
    let secs = |v: f64| format!("{:.2} s", v / 1_000.0);
    let count = |v: f64| format!("{v:.0}");
    row("wall-clock", sa.wall_ms, sb.wall_ms, secs);
    row("events", sa.events as f64, sb.events as f64, count);
    row("flows", sa.flows as f64, sb.flows as f64, count);
    row("events/s", rate(sa.events, sa.wall_ms), rate(sb.events, sb.wall_ms), count);
    row("flows/s", rate(sa.flows, sa.wall_ms), rate(sb.flows, sb.wall_ms), count);
    for pa in &a.phases {
        if let Some(pb) = b.phases.iter().find(|p| p.phase == pa.phase) {
            row(&format!("{} [busy]", pa.phase), pa.busy_ms, pb.busy_ms, secs);
        }
    }
    if sa.events != sb.events || sa.flows != sb.flows {
        if sa.events == 0 || sb.events == 0 {
            out.push_str(
                "warning: one run reports zero delivered events — incomplete sidecar (summary \
                 written before any work?); its rates render as 0, not as measured speed\n",
            );
        } else {
            out.push_str(
                "warning: the runs did different amounts of work (event/flow totals differ); \
                 rate deltas are not a pure speed comparison\n",
            );
        }
    }
    // One row per scheme both runs simulated.
    let (mut rows, mut differ) = (String::new(), Vec::new());
    for sa in &a.schemes {
        let Some(sb) = b.schemes.iter().find(|s| s.scheme == sa.scheme) else { continue };
        let (name, ma, mb) = (&sa.scheme, sa.loop_ms, sb.loop_ms);
        let [ra, rb] = [sa, sb].map(|s| s.mevents_per_s().unwrap_or(0.0));
        let (dm, dr) = (delta(ma, mb), delta(ra, rb));
        rows.push_str(&format!(
            "{name:<14} {ma:>10.1} {mb:>10.1} {dm:>9} {ra:>8.2} {rb:>8.2} {dr:>9}\n"
        ));
        if sa.events != sb.events {
            differ.push(name.as_str());
        }
    }
    if !rows.is_empty() {
        out.push_str("\n== per scheme (event loop, A -> B)\n");
        out.push_str(
            "scheme             A [ms]     B [ms]     delta  A Mev/s  B Mev/s     delta\n",
        );
        out.push_str(&rows);
    }
    if !differ.is_empty() {
        out.push_str(&format!(
            "warning: scheme(s) {} delivered different event totals in A and B; their rate \
             deltas are not a pure speed comparison\n",
            differ.join(", ")
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{ManifestScenario, TaskRecord};

    fn sidecar() -> String {
        let counters = RunCounters {
            arrivals: 100,
            departures: 100,
            samples: 10,
            flows_total: 120,
            flows_completed: 100,
            peak_heap: 9,
            peak_active_flows: 5,
            fold_absorptions: 2,
            ..RunCounters::default()
        };
        let recs = vec![
            TelemetryRecord::Manifest(ManifestRecord {
                version: 1,
                scenarios: vec![ManifestScenario {
                    name: "smoke".into(),
                    shards: 2,
                    repetitions: 1,
                    n_clients: 272,
                }],
                schemes: vec!["soi".into()],
                seeds: 1,
                threads: 1,
                jobs: 1,
            }),
            TelemetryRecord::Task(TaskRecord {
                job: 0,
                scenario: "smoke".into(),
                scheme: "soi".into(),
                seed_index: 0,
                rep: 0,
                shard: 0,
                n_shards: 2,
                setup_ms: 5.0,
                topology_ms: 2.0,
                loop_ms: 20.0,
                finished: 1,
                total: 2,
                merged: 0,
                fold_queue: 0,
                counters,
            }),
            TelemetryRecord::Job(JobTelemetryRecord {
                job: 0,
                scenario: "smoke".into(),
                scheme: "soi".into(),
                seed_index: 0,
                wall_ms: 50.0,
                fold_ms: 2.0,
                shards: 2,
                counters,
            }),
            TelemetryRecord::Phase(PhaseRecord {
                phase: "event-loop".into(),
                parent: "run".into(),
                busy_ms: 40.0,
                tasks: 2,
                task_ms_min: 15.0,
                task_ms_mean: 20.0,
                task_ms_max: 25.0,
            }),
            TelemetryRecord::Summary(SummaryRecord {
                wall_ms: 50.0,
                jobs: 1,
                tasks: 2,
                events: counters.delivered(),
                flows: counters.flows_total,
                peak_rss_mib: Some(24.0),
                counters,
            }),
        ];
        let mut text = String::new();
        for r in &recs {
            text.push_str(&serde_json::to_string(&r.to_value()).unwrap());
            text.push('\n');
        }
        text
    }

    #[test]
    fn parses_and_renders_a_sidecar() {
        let report = ProfileReport::from_jsonl(&sidecar()).unwrap();
        assert!(report.manifest.is_some());
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.n_tasks, 1);
        assert_eq!(report.task_events_min, 210);
        let rendered = report.render();
        assert!(rendered.contains("event-loop"), "{rendered}");
        assert!(rendered.contains("peak RSS 24 MiB"), "{rendered}");
        assert!(rendered.contains("attributed: 80.0%"), "{rendered}");
        assert!(rendered.contains("fold_absorptions       2"), "{rendered}");
        // One simulated soi task: 210 events over a 20 ms loop.
        assert_eq!(report.schemes.len(), 1);
        assert!(rendered.contains("== per scheme"), "{rendered}");
        let row = rendered.lines().find(|l| l.starts_with("soi ")).expect("soi row");
        assert_eq!(
            row.split_whitespace().collect::<Vec<_>>(),
            ["soi", "1", "20.0", "210", "0.01", "20.0/20.0"]
        );
        // No prototype-cache activity in this sidecar: the world-reuse note
        // must stay absent so legacy renders are unchanged.
        assert!(!rendered.contains("world-reuse"), "{rendered}");
    }

    #[test]
    fn topology_share_renders_under_world_build() {
        let mut report = ProfileReport::from_jsonl(&sidecar()).unwrap();
        assert_eq!(report.topology_ms, 2.0);
        // Without a world-build phase there is nothing to break down.
        assert!(!report.render().contains("topology"));
        report.phases.insert(
            0,
            PhaseRecord {
                phase: "world-build".into(),
                parent: "run".into(),
                busy_ms: 5.0,
                tasks: 1,
                task_ms_min: 5.0,
                task_ms_mean: 5.0,
                task_ms_max: 5.0,
            },
        );
        let rendered = report.render();
        let lines: Vec<&str> = rendered.lines().collect();
        let at = lines.iter().position(|l| l.starts_with("world-build")).expect("world-build row");
        let row = lines[at + 1];
        assert!(row.starts_with("  topology"), "{rendered}");
        assert!(row.contains("4.0%") && row.ends_with("40.0% of world-build"), "{rendered}");
        // The trace setup pass is the rest of world-build: 3 of 5 ms.
        let row = lines[at + 2];
        assert!(row.starts_with("  trace-setup"), "{rendered}");
        assert!(row.contains("6.0%") && row.ends_with("60.0% of world-build"), "{rendered}");
        // Sub-rows keep the busy column aligned with the phase rows.
        let busy_end = |l: &str| l.find(" 0.00").map(|i| i + 5);
        assert_eq!(busy_end(lines[at + 1]), busy_end(lines[at + 2]), "{rendered}");
    }

    #[test]
    fn world_reuse_note_appears_with_proto_cache_activity() {
        let mut report = ProfileReport::from_jsonl(&sidecar()).unwrap();
        let c = &mut report.summary.as_mut().unwrap().counters;
        c.proto_cache_builds = 2;
        c.proto_cache_hits = 4;
        let rendered = report.render();
        assert!(
            rendered.contains("world-reuse: 2 prototype world build(s) served 4 cached task"),
            "{rendered}"
        );
    }

    #[test]
    fn counter_totals_are_the_deterministic_subset() {
        let report = ProfileReport::from_jsonl(&sidecar()).unwrap();
        let totals = report.counter_totals().unwrap();
        assert_eq!(totals.events, 210);
        assert_eq!(totals.flows, 120);
        let json = serde_json::to_string(&totals).unwrap();
        assert!(json.starts_with("{\"jobs\":1,\"tasks\":2,\"events\":210,\"flows\":120"), "{json}");
        assert!(!json.contains("wall"), "no wall-clock in the drift payload: {json}");
        assert!(!json.contains("rss"), "no RSS in the drift payload: {json}");
    }

    #[test]
    fn delta_reports_rates_and_matching_phases() {
        let a = ProfileReport::from_jsonl(&sidecar()).unwrap();
        // B: same work, half the wall-clock and event-loop busy time.
        let mut b = a.clone();
        let sb = b.summary.as_mut().unwrap();
        sb.wall_ms = 25.0;
        b.phases[0].busy_ms = 20.0;
        let rendered = render_delta(&a, &b).unwrap();
        assert!(rendered.contains("wall-clock"), "{rendered}");
        assert!(rendered.contains("+100.0%"), "events/s doubles: {rendered}");
        assert!(rendered.contains("event-loop [busy]"), "{rendered}");
        assert!(rendered.contains("-50.0%"), "busy halves: {rendered}");
        assert!(!rendered.contains("warning"), "identical work, no warning: {rendered}");

        // Different totals flag the comparison.
        b.summary.as_mut().unwrap().events += 1;
        let rendered = render_delta(&a, &b).unwrap();
        assert!(rendered.contains("warning"), "{rendered}");

        // A summary-less sidecar cannot be compared.
        let mut c = a.clone();
        c.summary = None;
        assert!(render_delta(&a, &c).is_err());
    }

    #[test]
    fn delta_reports_one_row_per_shared_scheme() {
        let a = ProfileReport::from_jsonl(&sidecar()).unwrap();
        // B: soi's loop takes half as long for the same 210 events, and B
        // also ran bh2, which A did not.
        let mut b = a.clone();
        b.schemes[0].loop_ms = 10.0;
        b.schemes.push(SchemeLoop { scheme: "bh2".into(), ..b.schemes[0].clone() });
        let rendered = render_delta(&a, &b).unwrap();
        assert!(rendered.contains("== per scheme (event loop, A -> B)"), "{rendered}");
        let rows: Vec<&str> = rendered.lines().filter(|l| l.starts_with("soi ")).collect();
        assert_eq!(rows.len(), 1, "{rendered}");
        assert_eq!(
            rows[0].split_whitespace().collect::<Vec<_>>(),
            ["soi", "20.0", "10.0", "-50.0%", "0.01", "0.02", "+100.0%"]
        );
        assert!(!rendered.contains("bh2"), "a scheme only B ran gets no row: {rendered}");
        assert!(!rendered.contains("warning"), "same work, no warning: {rendered}");

        // A per-scheme event drift is flagged even when the run totals agree.
        b.schemes[0].events += 1;
        let rendered = render_delta(&a, &b).unwrap();
        assert!(rendered.contains("warning: scheme(s) soi delivered different"), "{rendered}");

        // No scheme in common: no per-scheme section.
        b.schemes.remove(0);
        assert!(!render_delta(&a, &b).unwrap().contains("== per scheme"));
    }

    #[test]
    fn summaryless_sidecar_warns_instead_of_rendering_zero_rates() {
        // Keep only the records preceding the summary: a run that died
        // mid-batch leaves exactly this shape behind.
        let truncated: String = sidecar()
            .lines()
            .filter(|l| !l.contains("\"summary\""))
            .map(|l| [l, "\n"].concat())
            .collect();
        let report = ProfileReport::from_jsonl(&truncated).unwrap();
        assert!(report.summary.is_none());
        let rendered = report.render();
        assert!(rendered.contains("incomplete sidecar (no summary)"), "{rendered}");
        // The complete sidecar must not carry the warning.
        let full = ProfileReport::from_jsonl(&sidecar()).unwrap().render();
        assert!(!full.contains("incomplete sidecar"), "{full}");
    }

    #[test]
    fn delta_zero_baseline_renders_was_zero_not_inf() {
        let a = ProfileReport::from_jsonl(&sidecar()).unwrap();
        let mut b = a.clone();
        // A metric absent in A, present in B: flows 0 -> 120.
        let mut a0 = a.clone();
        a0.summary.as_mut().unwrap().flows = 0;
        let rendered = render_delta(&a0, &b).unwrap();
        assert!(rendered.contains("(was 0)"), "{rendered}");
        assert!(!rendered.contains("inf"), "{rendered}");
        assert!(!rendered.contains("NaN"), "{rendered}");

        // Zero on both sides stays n/a.
        b.summary.as_mut().unwrap().flows = 0;
        let rendered = render_delta(&a0, &b).unwrap();
        assert!(rendered.contains("n/a"), "{rendered}");
    }

    #[test]
    fn delta_flags_zero_event_runs_as_incomplete() {
        let a = ProfileReport::from_jsonl(&sidecar()).unwrap();
        let mut b = a.clone();
        b.summary.as_mut().unwrap().events = 0;
        let rendered = render_delta(&a, &b).unwrap();
        assert!(rendered.contains("incomplete sidecar"), "{rendered}");
    }

    #[test]
    fn rejects_non_sidecar_input() {
        assert!(ProfileReport::from_jsonl("").is_err());
        assert!(ProfileReport::from_jsonl("{\"scenario\":\"x\"}\n").is_err());
    }
}
