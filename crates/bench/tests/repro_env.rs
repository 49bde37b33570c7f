//! `repro` rejects a malformed environment with a usage error (exit 2
//! and the variable's name on stderr) instead of a panic (exit 101)
//! from deep inside the run.

use std::process::Command;

/// The variables `repro` validates up front.
const VARS: [&str; 3] = ["PC_FAULT", "PC_RX_ENGINE", "PC_RSS_QUEUES"];

/// Runs `repro fig5` with exactly one of [`VARS`] set to `value`.
fn repro_with(var: &str, value: &str) -> std::process::Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
    for v in VARS {
        cmd.env_remove(v);
    }
    cmd.env(var, value)
        .env("PC_BENCH_THREADS", "1")
        .arg("fig5")
        .output()
        .expect("spawn repro")
}

#[test]
fn malformed_environment_exits_2_naming_the_variable() {
    let cases = [
        ("PC_FAULT", "no-such-site:0"),
        ("PC_FAULT", "stale-lru"),
        ("PC_RX_ENGINE", "turbo"),
        ("PC_RSS_QUEUES", "0"),
        ("PC_RSS_QUEUES", "many"),
        ("PC_RSS_QUEUES", "1000000"),
    ];
    for (var, value) in cases {
        let out = repro_with(var, value);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={value}: {stderr}");
        assert!(
            stderr.contains(var),
            "{var}={value}: stderr names it: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{var}={value}: {stderr}");
        assert!(out.stdout.is_empty(), "{var}={value}: nothing ran");
    }
}

#[test]
fn well_formed_environment_runs() {
    for (var, value) in [("PC_RX_ENGINE", "per-access"), ("PC_RSS_QUEUES", "2")] {
        let out = repro_with(var, value);
        assert!(
            out.status.success(),
            "{var}={value}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
