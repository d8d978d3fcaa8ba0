//! Bad user input to `insomnia run` must end in a prompt error, never a
//! hang or a panic. Each case runs the CLI under a wall-clock deadline and
//! kills it on overrun, so a regression fails the test instead of stalling
//! the suite. A closed stdout must not panic the printing subcommands
//! either, and `-h`/`--help` anywhere (or `insomnia help`) prints the
//! usage and exits 0.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const DEADLINE: Duration = Duration::from_secs(60);

/// Runs `insomnia run` on a short BH2 batch with `set` applied; returns the
/// exit code and stderr, or panics if the CLI overruns the deadline.
fn run_bh2_with(set: &str) -> (Option<i32>, String) {
    run_bh2_args(&["--set", set])
}

/// [`run_bh2_with`] with arbitrary extra arguments.
fn run_bh2_args(extra: &[&str]) -> (Option<i32>, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_insomnia"))
        .args(["run", "--scenario", "paper-default", "--schemes", "bh2", "--quick"])
        .args(["--set", "horizon_hours=0.1", "--quiet"])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn insomnia");
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("poll insomnia") {
            break status;
        }
        if start.elapsed() > DEADLINE {
            child.kill().expect("kill overrunning insomnia");
            child.wait().unwrap();
            panic!("`{}` still running after {DEADLINE:?}", extra.join(" "));
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().unwrap(), &mut stderr).unwrap();
    (status.code(), stderr)
}

#[test]
fn zero_bh2_durations_exit_with_a_config_error() {
    for (set, field) in [
        ("bh2.epoch_s=0", "bh2 epoch"),
        ("bh2.epoch_s=-1", "bh2 epoch"),
        ("bh2.epoch_s=0.0001", "bh2 epoch"),
        ("bh2.load_window_s=0", "bh2 load window"),
    ] {
        let (code, stderr) = run_bh2_with(set);
        assert_eq!(code, Some(1), "`--set {set}` must exit 1 (stderr: {stderr})");
        assert!(
            stderr.contains("invalid configuration") && stderr.contains(field),
            "`--set {set}` must name `{field}`: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "`--set {set}` panicked: {stderr}");
    }
}

#[test]
fn nested_key_typos_and_unrepresentable_durations_exit_with_an_error() {
    for (set, needles) in [
        ("bh2.epoch=30", ["unknown key `bh2.epoch`", "did you mean `epoch_s`?"]),
        ("adaptive_soi.gain_x=3", ["unknown key `adaptive_soi.gain_x`", "invalid input"]),
        ("horizon_hours=inf", ["invalid configuration", "`horizon_hours`"]),
        ("horizon_hours=1e30", ["invalid configuration", "`horizon_hours`"]),
        ("horizon_hours=nan", ["invalid configuration", "`horizon_hours`"]),
        ("idle_timeout_s=-1", ["invalid configuration", "`idle_timeout_s`"]),
        ("wake_time_s=-1", ["invalid configuration", "`wake_time_s`"]),
    ] {
        let (code, stderr) = run_bh2_with(set);
        assert_eq!(code, Some(1), "`--set {set}` must exit 1 (stderr: {stderr})");
        for needle in needles {
            assert!(stderr.contains(needle), "`--set {set}` must report `{needle}`: {stderr}");
        }
        assert!(!stderr.contains("panicked"), "`--set {set}` panicked: {stderr}");
    }
}

#[test]
fn horizon_shorter_than_one_sample_exits_with_a_config_error() {
    // Either override leaves no room for a single metric sample; the run
    // must fail up front, not after simulating with empty series.
    for set in ["horizon_hours=0.0001", "sample_period_s=100000"] {
        let (code, stderr) = run_bh2_with(set);
        assert_eq!(code, Some(1), "`--set {set}` must exit 1 (stderr: {stderr})");
        for needle in ["invalid configuration", "sample_period_s", "horizon"] {
            assert!(stderr.contains(needle), "`--set {set}` must report `{needle}`: {stderr}");
        }
        assert!(!stderr.contains("non-finite"), "`--set {set}` ran to a NaN record: {stderr}");
        assert!(!stderr.contains("panicked"), "`--set {set}` panicked: {stderr}");
    }
}

#[test]
fn the_removed_shards_flag_is_an_unknown_flag() {
    // `--set shards=N` is the one way to override the shard count.
    let (code, stderr) = run_bh2_args(&["--shards", "2"]);
    assert_eq!(code, Some(1), "`--shards` must exit 1 (stderr: {stderr})");
    assert!(stderr.contains("unknown flag --shards"), "{stderr}");
    let (code, stderr) = run_bh2_with("shards=0");
    assert_eq!(code, Some(1), "`--set shards=0` must exit 1 (stderr: {stderr})");
    assert!(stderr.contains("invalid configuration"), "{stderr}");
}

#[test]
fn printing_subcommands_exit_cleanly_on_a_closed_stdout() {
    let dir = std::env::temp_dir().join(format!("cli-closed-stdout-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = dir.join("a.jsonl");
    let sidecar = dir.join("a.telemetry.jsonl");
    let (code, stderr) =
        run_bh2_args(&["--out", out.to_str().unwrap(), "--telemetry", sidecar.to_str().unwrap()]);
    assert_eq!(code, Some(0), "{stderr}");
    // A copy with one metric changed, so `compare` fails with exit 1.
    let text = std::fs::read_to_string(&out).unwrap();
    let other = dir.join("b.jsonl");
    std::fs::write(&other, text.replacen("\"energy_kwh\":", "\"energy_kwh\":1", 1)).unwrap();
    let (out, other, sidecar) =
        (out.to_str().unwrap(), other.to_str().unwrap(), sidecar.to_str().unwrap());
    // Each case with the exit status it has on an open stdout.
    for (args, want) in [
        (&["list"][..], 0),
        (&["show", "paper-default"], 0),
        (&["--help"], 0),
        (&["profile", sidecar], 0),
        (&["profile", "--counters", sidecar], 0),
        (&["profile", sidecar, sidecar], 0),
        (&["compare", out, out], 0),
        (&["compare", out, other], 1),
    ] {
        // The reader end is dropped before the spawn: every write hits EPIPE.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let done = Command::new(env!("CARGO_BIN_EXE_insomnia"))
            .args(args)
            .stdout(Stdio::from(writer))
            .stderr(Stdio::piped())
            .output()
            .expect("spawn insomnia");
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(want), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked: {stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn help_anywhere_prints_the_usage_and_exits_0() {
    for args in [
        &["--help"][..],
        &["-h"],
        &["help"],
        &["run", "--help"],
        &["run", "--scenario", "paper-default", "-h"],
        &["sweep", "-h"],
        &["show", "--help"],
        &["compare", "--help"],
        &["profile", "--help"],
    ] {
        let done = Command::new(env!("CARGO_BIN_EXE_insomnia"))
            .args(args)
            .stdin(Stdio::null())
            .output()
            .expect("spawn insomnia");
        let (stdout, stderr) =
            (String::from_utf8_lossy(&done.stdout), String::from_utf8_lossy(&done.stderr));
        assert_eq!(done.status.code(), Some(0), "{args:?}: {stderr}");
        assert!(stdout.contains("USAGE:") && stdout.contains("insomnia run"), "{args:?}: {stdout}");
        assert!(stderr.is_empty(), "{args:?} wrote to stderr: {stderr}");
    }
}
