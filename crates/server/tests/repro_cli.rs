//! The `repro` command line: bad arguments are usage errors (non-zero
//! exit, no panic, nothing built or written), and small runs succeed in
//! text and JSON mode.
//!
//! The `--json` run is also pinned across commits: each artifact
//! document and `all` is hashed as printed and compared with
//! `fixtures/repro_json_digests.txt` (`<sha256> <experiment>`). A change
//! that alters them on purpose re-records the list from this test's
//! failure output and says why.

use std::process::{Command, Output};

use recipedb::digest::Sha256;

const REPRO_JSON_FIXTURE: &str = include_str!("fixtures/repro_json_digests.txt");

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

#[test]
fn every_linkage_the_server_accepts_is_accepted() {
    let dir = std::env::temp_dir();
    assert_usage_error(
        &repro(&dir, &["--linkage", "mystery", "table1"]),
        "unknown linkage mystery",
    );
    let out = repro(&dir, &["--scale", "0.01", "--linkage", "median", "figure2"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(stderr.contains("linkage median"), "{stderr}");
}

/// Split `--json` output into its pretty-printed documents, each with
/// its text as printed: each one ends at a closing bracket in the first
/// column.
fn json_documents(stdout: &str) -> Vec<(String, serde_json::Value)> {
    let mut docs = Vec::new();
    let mut current = String::new();
    for line in stdout.lines() {
        current.push_str(line);
        current.push('\n');
        if line == "}" || line == "]" {
            let doc = serde_json::from_str(&current).expect("each document parses");
            docs.push((std::mem::take(&mut current), doc));
        }
    }
    assert!(current.trim().is_empty(), "trailing output: {current}");
    docs
}

#[test]
fn json_documents_parse_and_all_holds_the_single_documents() {
    let experiments = [
        "table1", "figure1", "figure2", "figure3", "figure4", "figure5", "figure6", "validate",
    ];
    let mut args = vec!["--scale", "0.01", "--seed", "23", "--json"];
    args.extend(experiments);
    args.push("all");
    let out = repro(&std::env::temp_dir(), &args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    let docs = json_documents(&String::from_utf8(out.stdout).unwrap());
    // One document per experiment, then `all`, then the metrics snapshot.
    assert_eq!(docs.len(), experiments.len() + 2);
    assert!(docs[experiments.len() + 1].1["metrics"]["spans"]
        .as_object()
        .is_some());
    let all = docs[experiments.len()]
        .1
        .as_object()
        .expect("all is an object");
    let keys: Vec<&str> = all.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["table1", "figure2", "figure3", "figure4", "figure5", "figure6", "figure1"]
    );
    for (key, member) in all.iter() {
        let i = experiments.iter().position(|e| e == key).unwrap();
        assert_eq!(member, &docs[i].1, "all.{key} differs from --json {key}");
    }

    // The metrics document carries `_ms` timings; every other document
    // is a pure function of the corpus and config.
    let actual: Vec<String> = experiments
        .iter()
        .chain(&["all"])
        .zip(&docs)
        .map(|(name, (text, _))| format!("{} {name}", Sha256::hex_digest(text.as_bytes())))
        .collect();
    let expected: Vec<&str> = REPRO_JSON_FIXTURE.lines().collect();
    assert_eq!(
        actual,
        expected,
        "repro --json documents differ from fixtures/repro_json_digests.txt; full list:\n{}",
        actual.join("\n")
    );

    let out = repro(
        &std::env::temp_dir(),
        &["--scale", "0.01", "--json", "stats"],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "stats has no JSON form");
    assert!(stderr.contains("stats has no JSON view"), "{stderr}");
}
