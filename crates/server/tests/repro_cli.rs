//! The `repro` command line: bad arguments are usage errors (non-zero
//! exit, no panic, nothing built or written), and a small run succeeds.

use std::process::{Command, Output};

fn repro(dir: &std::path::Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn repro")
}

fn assert_usage_error(out: &Output, expect: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exited 0; stderr: {stderr}");
    assert!(!stderr.contains("panicked"), "panicked: {stderr}");
    assert!(stderr.contains(expect), "expected {expect:?} in: {stderr}");
    assert!(out.stdout.is_empty(), "printed output before failing");
}

#[test]
fn non_finite_or_non_positive_scale_is_a_usage_error() {
    let dir = std::env::temp_dir();
    for scale in ["nan", "NaN", "inf", "-inf", "0", "-1"] {
        let out = repro(&dir, &["--scale", scale, "table1"]);
        assert_usage_error(&out, "--scale must be finite and positive");
    }
    assert_usage_error(&repro(&dir, &["--scale", "big"]), "bad --scale big");
}

#[test]
fn removed_bench_flags_are_unknown_and_write_nothing() {
    let dir = std::env::temp_dir().join(format!("atlas-repro-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    for args in [
        &["--scale", "0.01", "--bench-json"][..],
        &["--scale", "0.01", "--bench-json", "out.json"],
        &["--scale", "0.01", "--assert-speedup"],
    ] {
        assert_usage_error(&repro(&dir, args), "unknown experiment: --");
    }
    // The future-work report sections are gone too.
    for name in ["ext", "f1b"] {
        let expect = format!("unknown experiment: {name}");
        assert_usage_error(&repro(&dir, &["--scale", "0.01", name]), &expect);
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    std::fs::remove_dir_all(&dir).unwrap();
    assert!(written.is_empty(), "repro wrote {written:?}");
}

#[test]
fn small_table1_run_succeeds() {
    let out = repro(
        &std::env::temp_dir(),
        &["--scale", "0.01", "--seed", "23", "table1"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("Indian Subcontinent"));
}
