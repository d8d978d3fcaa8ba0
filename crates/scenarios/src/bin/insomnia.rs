//! The `insomnia` CLI: declarative scenarios in, JSONL + summary tables out.
//!
//! ```text
//! insomnia list
//! insomnia show rural-sparse
//! insomnia run --scenario paper-default --schemes no-sleep,soi,bh2 --seeds 3 --out runs.jsonl
//! insomnia sweep --scenario paper-default --set bh2.low_threshold=0.05 --schemes bh2 --seeds 2
//! ```

use insomnia_scenarios::{
    check_rss_budget, compare_jsonl, load_checkpoint, manifest_for, parse_scheme_list,
    peak_rss_mib, run_batch_controlled, BatchRun, CheckpointWriter, FaultPlan, ProfileReport,
    Registry, RunControl, ScenarioSpec, Telemetry,
};
use insomnia_simcore::{SimError, SimResult};
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

/// SIGINT → a cooperative cancel flag. First ^C asks the batch runner to
/// stop (workers finish their in-flight task, the checkpoint and telemetry
/// sidecar flush, the process exits 130); the handler then restores the
/// default disposition so a second ^C kills immediately.
#[cfg(unix)]
mod sigint {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};

    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();

    const SIGINT: i32 = 2;
    const SIG_DFL: usize = 0;

    // Declared by hand: the workspace vendors no libc crate, but std
    // already links the platform libc this symbol lives in.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_sigint(_: i32) {
        // Only async-signal-safe work here: one atomic store, then
        // restore the default handler (signal(2) is on the safe list).
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::Relaxed);
        }
        unsafe {
            signal(SIGINT, SIG_DFL);
        }
    }

    /// Installs the handler (idempotent) and returns the shared flag.
    pub fn install() -> Arc<AtomicBool> {
        let flag = FLAG.get_or_init(|| Arc::new(AtomicBool::new(false))).clone();
        unsafe {
            signal(SIGINT, on_sigint as extern "C" fn(i32) as usize);
        }
        flag
    }
}

#[cfg(not(unix))]
mod sigint {
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    /// No signal wiring off Unix; the flag simply never trips.
    pub fn install() -> Arc<AtomicBool> {
        Arc::new(AtomicBool::new(false))
    }
}

const USAGE: &str = "\
insomnia — scenario orchestration for the Insomnia in the Access reproduction

USAGE:
    insomnia list
        Show the scenario registry.

    insomnia show <scenario | --spec FILE>
        Print the fully-resolved scenario as TOML.

    insomnia run [--scenario NAME[,NAME...]] [--spec FILE]
                 --schemes KEY[,KEY...] [--seeds N] [--threads N]
                 [--out FILE] [--set dotted.key=value]...
                 [--quick] [--max-rss-mib N] [--telemetry FILE] [--quiet]
                 [--checkpoint FILE [--resume]] [--retries N] [--faults FILE]
        Expand the (scenario x scheme x seed) matrix, run it in parallel,
        stream one JSON line per job (stdout, or FILE with --out) and print
        the aggregated summary table. Per-job wall-clock and event-count
        telemetry plus a shard-level progress heartbeat for sharded worlds
        go to stderr, never into the JSONL. --telemetry additionally writes
        a structured sidecar (one JSON record per line: manifest, task, job,
        phase, summary) for `insomnia profile`; --quiet suppresses the
        stderr heartbeat/telemetry lines without touching the result JSONL.
        --checkpoint appends one CRC-framed record per completed
        (repetition x shard) task to FILE; after a crash or ^C (exit 130),
        the same command plus --resume replays those records and simulates
        only what is missing — the final JSONL is byte-identical to an
        uninterrupted run.

    insomnia sweep --param dotted.key --values V1,V2,...
                 [--scenario NAME] [--spec FILE]
                 --schemes KEY[,KEY...] [--seeds N] [--threads N] [--out FILE]
        Like run, but clones the scenario once per value of the swept key.

    insomnia compare A.jsonl B.jsonl [--tol REL]
        Diff two batch outputs record-by-record with a per-metric relative
        tolerance (default 0 = byte-equivalent numbers). Exits non-zero on
        any difference: the regression gate for algorithm changes.

    insomnia profile <SIDECAR> [<SIDECAR_B>] [--counters]
        Render a telemetry sidecar (from run --telemetry) as a phase
        breakdown: wall-clock share per phase, events/s and flows/s,
        per-task spread, and the deterministic counter taxonomy. With
        --counters, print only the thread-count-invariant counter totals
        as one JSON line (the CI drift-gate payload). With two sidecars,
        print a before/after delta instead — wall-clock, events/s and
        flows/s, per-phase busy time, and event-loop time and M events/s
        per scheme — the one-command A/B for performance work.

SCHEME KEYS:
    no-sleep  soi  soi+k  soi+full  bh2  bh2-nb  bh2+full  optimal
    multi-doze  adaptive-soi

OPTIONS:
    --seeds N      seeds per (scenario, scheme) cell        [default: 1]
    --threads N    worker threads of the one task pool every job's
                   (repetition x shard) tasks share; the pool runs
                   min(N, tasks) workers (0 = all cores)     [default: 0]
    --quick        force repetitions <= 2 for fast smoke runs
    --set K=V      override a spec key (repeatable), e.g. --set n_clients=68
    --max-rss-mib N  fail the run if peak resident memory (VmHWM from
                   /proc/self/status) exceeds N MiB — the CI memory gate
                   for streaming-quantile scenarios like mega-city
    --telemetry FILE  write a structured JSONL telemetry sidecar to FILE
                   (never mixed into the result JSONL)
    --quiet        suppress the stderr heartbeat/telemetry lines; results,
                   sidecars and exit codes are unchanged
    --checkpoint FILE  append a CRC-framed JSONL record per completed
                   (repetition x shard) task, flushed as it completes; the
                   file starts with a manifest (schema version, config
                   hash, seeds, schemes) that --resume verifies
    --resume       with --checkpoint: verify the manifest, drop a torn
                   final record if the last run died mid-write, replay the
                   cached tasks and simulate only the missing ones
    --retries N    extra attempts for a (repetition x shard) task whose
                   simulation panics (default: 1; 0 disables). Retries
                   replay the identical RNG stream, so a transient fault
                   changes no output bytes
    --faults FILE  deterministic fault injection from a [faults] TOML
                   table (panic_tasks, random_panics, io_error_tasks,
                   torn_tail_task) — the chaos-test harness
    --counters     profile: print only the deterministic counter totals
    --tol REL      compare: per-metric relative tolerance   [default: 0]
";

/// Value-taking flags of `run` and `sweep` (one list: `sweep` hands its
/// arguments on to `cmd_run`, which parses them again).
const RUN_VALUED: &[&str] = &[
    "scenario",
    "spec",
    "schemes",
    "seeds",
    "threads",
    "out",
    "set",
    "param",
    "values",
    "max-rss-mib",
    "telemetry",
    "checkpoint",
    "retries",
    "faults",
];

/// Bare switches of `run` and `sweep`.
const RUN_SWITCHES: &[&str] = &["quick", "quiet", "resume"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("insomnia: {e}");
            // 130 = died of SIGINT, the shell convention scripts test for.
            if matches!(e, SimError::Interrupted(_)) {
                ExitCode::from(130u8)
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

fn dispatch(args: &[String]) -> SimResult<()> {
    // `-h`/`--help` anywhere, or `insomnia help`, prints the usage.
    if args.iter().any(|a| a == "-h" || a == "--help") {
        return print_out(USAGE);
    }
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("show") => cmd_show(&args[1..]),
        Some("run") => cmd_run(&args[1..], None),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("help") | None => print_out(USAGE),
        Some(other) => {
            Err(SimError::InvalidInput(format!("unknown subcommand `{other}` (try --help)")))
        }
    }
}

/// Writes `text` to stdout: the one way the subcommands print. A reader
/// that closed the pipe early (`insomnia list | head -1`) already has what
/// it wanted, so `BrokenPipe` is not an error; any other write error is.
fn print_out(text: &str) -> SimResult<()> {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != std::io::ErrorKind::BrokenPipe => {
            Err(SimError::InvalidInput(format!("write stdout: {e}")))
        }
        _ => Ok(()),
    }
}

/// Simple flag parser: `--key value` pairs plus positionals.
struct Flags {
    positional: Vec<String>,
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

impl Flags {
    fn parse(args: &[String], valued: &[&str], bare: &[&str]) -> SimResult<Flags> {
        let mut f = Flags { positional: Vec::new(), pairs: Vec::new(), switches: Vec::new() };
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            if let Some(name) = a.strip_prefix("--") {
                if bare.contains(&name) {
                    f.switches.push(name.to_string());
                } else if valued.contains(&name) {
                    i += 1;
                    let v = args
                        .get(i)
                        .ok_or_else(|| SimError::InvalidInput(format!("--{name} needs a value")))?;
                    f.pairs.push((name.to_string(), v.clone()));
                } else {
                    return Err(SimError::InvalidInput(format!("unknown flag --{name}")));
                }
            } else {
                f.positional.push(a.clone());
            }
            i += 1;
        }
        Ok(f)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.pairs.iter().rev().find(|(k, _)| k == name).map(|(_, v)| v.as_str())
    }

    fn get_all(&self, name: &str) -> Vec<&str> {
        self.pairs.iter().filter(|(k, _)| k == name).map(|(_, v)| v.as_str()).collect()
    }

    fn has(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    fn get_usize(&self, name: &str, default: usize) -> SimResult<usize> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                SimError::InvalidInput(format!("--{name} expects an integer, got `{v}`"))
            }),
        }
    }
}

fn cmd_list() -> SimResult<()> {
    let reg = Registry::builtin();
    let mut text = format!("{:<22} {:>8} {:>6} summary\n", "scenario", "clients", "APs");
    for p in reg.presets() {
        text += &match reg.resolve(p.name) {
            Ok(cfg) => format!(
                "{:<22} {:>8} {:>6} {}\n",
                p.name, cfg.trace.n_clients, cfg.trace.n_aps, p.summary
            ),
            Err(e) => format!("{:<22} {:>8} {:>6} INVALID: {e}\n", p.name, "-", "-"),
        };
    }
    print_out(&text)
}

fn load_specs(flags: &Flags, reg: &Registry) -> SimResult<Vec<(String, ScenarioSpec)>> {
    let mut specs = Vec::new();
    if let Some(path) = flags.get("spec") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SimError::InvalidInput(format!("read {path}: {e}")))?;
        let spec = ScenarioSpec::from_toml(&text)?;
        let name = spec.name.clone().unwrap_or_else(|| {
            path.rsplit('/').next().unwrap_or(path).trim_end_matches(".toml").to_string()
        });
        specs.push((name, spec));
    }
    for list in flags.get_all("scenario") {
        for name in list.split(',').filter(|s| !s.is_empty()) {
            let p = reg.get_or_err(name)?;
            specs.push((name.to_string(), p.spec.clone()));
        }
    }
    if specs.is_empty() {
        return Err(SimError::InvalidInput(
            "pick scenarios with --scenario NAME[,NAME...] and/or --spec FILE".into(),
        ));
    }
    Ok(specs)
}

fn cmd_show(args: &[String]) -> SimResult<()> {
    let flags = Flags::parse(args, &["spec"], &[])?;
    let reg = Registry::builtin();
    let (name, spec) = if let Some(pos) = flags.positional.first() {
        (pos.clone(), reg.get_or_err(pos)?.spec.clone())
    } else {
        load_specs(&flags, &reg)?.remove(0)
    };
    let flat = reg.flatten(&spec, 0)?;
    let cfg = flat.to_config()?;
    let summary = spec.summary.clone();
    let explicit = ScenarioSpec::explicit(&name, summary.as_deref(), &cfg);
    print_out(&explicit.to_toml())
}

fn cmd_run(args: &[String], sweep: Option<(&str, &[&str])>) -> SimResult<()> {
    // The config phase starts here: flag parsing, spec resolution and
    // world configs, up to the moment the batch runner takes over.
    let config_start = Instant::now();
    let flags = Flags::parse(args, RUN_VALUED, RUN_SWITCHES)?;
    if sweep.is_none() && (flags.get("param").is_some() || flags.get("values").is_some()) {
        return Err(SimError::InvalidInput(
            "--param/--values belong to the `sweep` subcommand (plain `run` would ignore them)"
                .into(),
        ));
    }
    let reg = Registry::builtin();
    let specs = load_specs(&flags, &reg)?;
    let scenarios = reg.expand(specs, &flags.get_all("set"), sweep, flags.has("quick"))?;
    let schemes = parse_scheme_list(flags.get("schemes").ok_or_else(|| {
        SimError::InvalidInput("pick schemes with --schemes KEY[,KEY...]".into())
    })?)?;

    let batch = BatchRun {
        scenarios,
        schemes,
        seeds: flags.get_usize("seeds", 1)?,
        threads: flags.get_usize("threads", 0)?,
    };
    let quiet = flags.has("quiet");
    let mut tel = if quiet { Telemetry::quiet() } else { Telemetry::stderr() };
    if let Some(path) = flags.get("telemetry") {
        let file = std::fs::File::create(path)
            .map_err(|e| SimError::InvalidInput(format!("create {path}: {e}")))?;
        tel = tel.with_jsonl(Box::new(std::io::BufWriter::new(file)));
    }
    if !quiet {
        eprintln!(
            "running {} jobs ({} scenarios x {} schemes x {} seeds) on {} threads...",
            batch.n_jobs(),
            batch.scenarios.len(),
            batch.schemes.len(),
            batch.seeds,
            if batch.threads == 0 { "all".to_string() } else { batch.threads.to_string() },
        );
    }
    tel.config_ms = config_start.elapsed().as_secs_f64() * 1e3;

    // Crash-safety wiring: checkpoint sidecar, resume cache, retry budget,
    // fault plan, and the ^C cancel flag.
    let checkpoint_path = flags.get("checkpoint").map(str::to_string);
    if flags.has("resume") && checkpoint_path.is_none() {
        return Err(SimError::InvalidInput("--resume needs --checkpoint FILE".into()));
    }
    let mut ctl = RunControl {
        max_attempts: flags.get_usize("retries", 1)?.saturating_add(1),
        cancel: Some(sigint::install()),
        ..RunControl::default()
    };
    if let Some(path) = flags.get("faults") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SimError::InvalidInput(format!("read {path}: {e}")))?;
        ctl.faults = Some(FaultPlan::from_toml(&text)?);
    }
    if let Some(path) = &checkpoint_path {
        let manifest = manifest_for(&batch);
        if flags.has("resume") {
            let loaded = load_checkpoint(Path::new(path))?;
            loaded.manifest.verify_against(&manifest)?;
            if !quiet {
                if loaded.dropped_tail {
                    eprintln!("# checkpoint {path}: dropped a torn final record");
                }
                eprintln!("# resuming: replaying {} checkpointed task(s)", loaded.tasks.len());
            }
            ctl.resume = Some(loaded.tasks);
            ctl.checkpoint = Some(CheckpointWriter::append(Path::new(path))?);
        } else {
            ctl.checkpoint = Some(CheckpointWriter::create(Path::new(path), &manifest)?);
        }
    }

    let result = match flags.get("out") {
        Some(path) => {
            let mut file = std::io::BufWriter::new(
                std::fs::File::create(path)
                    .map_err(|e| SimError::InvalidInput(format!("create {path}: {e}")))?,
            );
            let r = run_batch_controlled(&batch, &mut file, &tel, ctl);
            file.flush().map_err(|e| SimError::InvalidInput(format!("flush {path}: {e}")))?;
            if let (Ok(s), false) = (&r, quiet) {
                eprintln!("wrote {} records to {path}", s.records.len());
            }
            r
        }
        None => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            let r = run_batch_controlled(&batch, &mut lock, &tel, ctl);
            lock.flush().ok();
            r
        }
    };
    let summary = match result {
        Ok(s) => s,
        Err(e) => {
            // The checkpoint stays valid on both failure paths; spell out
            // the recovery command so the hint survives log scraping.
            if let Some(path) = &checkpoint_path {
                match &e {
                    SimError::Interrupted(_) | SimError::TaskFailed(_) => eprintln!(
                        "insomnia: completed tasks are saved — re-run the same command \
                         with --checkpoint {path} --resume"
                    ),
                    _ => {}
                }
            }
            return Err(e);
        }
    };
    if !quiet {
        eprint!("\n{}", summary.table());
    }
    match flags.get("max-rss-mib") {
        Some(v) => {
            let budget: f64 = v.parse().map_err(|_| {
                SimError::InvalidInput(format!("--max-rss-mib expects MiB, got `{v}`"))
            })?;
            // The budget stays enforced under --quiet; only the OK-path
            // chatter is suppressed.
            match check_rss_budget(budget)? {
                Some(peak) if !quiet => {
                    eprintln!("# peak RSS {peak:.0} MiB (budget {budget:.0} MiB)")
                }
                Some(_) => {}
                None if !quiet => {
                    eprintln!("# peak RSS unavailable on this platform; budget not enforced")
                }
                None => {}
            }
        }
        None => {
            if !quiet {
                if let Some(peak) = peak_rss_mib() {
                    eprintln!("# peak RSS {peak:.0} MiB");
                }
            }
        }
    }
    Ok(())
}

fn cmd_profile(args: &[String]) -> SimResult<()> {
    let flags = Flags::parse(args, &[], &["counters"])?;
    let load = |path: &str| -> SimResult<ProfileReport> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SimError::InvalidInput(format!("read {path}: {e}")))?;
        ProfileReport::from_jsonl(&text).map_err(|e| SimError::InvalidInput(format!("{path}: {e}")))
    };
    match flags.positional.as_slice() {
        [path] => {
            let report = load(path)?;
            if flags.has("counters") {
                let totals = report.counter_totals().map_err(SimError::InvalidInput)?;
                let line = serde_json::to_string(&totals).map_err(|e| {
                    SimError::InvalidInput(format!("serialize counter totals: {e}"))
                })?;
                print_out(&format!("{line}\n"))
            } else {
                print_out(&report.render())
            }
        }
        [a_path, b_path] => {
            if flags.has("counters") {
                return Err(SimError::InvalidInput(
                    "--counters takes one sidecar; the two-sidecar form prints a delta".into(),
                ));
            }
            let delta = insomnia_telemetry::render_delta(&load(a_path)?, &load(b_path)?)
                .map_err(SimError::InvalidInput)?;
            print_out(&delta)
        }
        _ => Err(SimError::InvalidInput(
            "profile needs one telemetry sidecar (report) or two (before/after delta): \
             insomnia profile run.telemetry.jsonl [other.telemetry.jsonl]"
                .into(),
        )),
    }
}

fn cmd_compare(args: &[String]) -> SimResult<()> {
    let flags = Flags::parse(args, &["tol"], &[])?;
    let [a_path, b_path] = flags.positional.as_slice() else {
        return Err(SimError::InvalidInput(
            "compare needs exactly two JSONL files: insomnia compare a.jsonl b.jsonl".into(),
        ));
    };
    let tol: f64 = match flags.get("tol") {
        None => 0.0,
        Some(v) => v.parse().map_err(|_| {
            SimError::InvalidInput(format!("--tol expects a relative tolerance, got `{v}`"))
        })?,
    };
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| SimError::InvalidInput(format!("read {path}: {e}")))
    };
    let report = compare_jsonl(a_path, &read(a_path)?, b_path, &read(b_path)?, tol)?;
    print_out(&report.render())?;
    if report.matches() {
        Ok(())
    } else {
        Err(SimError::InvalidInput(format!(
            "{a_path} and {b_path} differ beyond relative tolerance {tol}"
        )))
    }
}

fn cmd_sweep(args: &[String]) -> SimResult<()> {
    let flags = Flags::parse(args, RUN_VALUED, RUN_SWITCHES)?;
    let param = flags
        .get("param")
        .ok_or_else(|| SimError::InvalidInput("sweep needs --param dotted.key".into()))?
        .to_string();
    let values: Vec<&str> = flags
        .get("values")
        .ok_or_else(|| SimError::InvalidInput("sweep needs --values V1,V2,...".into()))?
        .split(',')
        .filter(|v| !v.is_empty())
        .collect();
    if values.is_empty() {
        return Err(SimError::InvalidInput("--values is empty".into()));
    }
    cmd_run(args, Some((&param, &values)))
}
