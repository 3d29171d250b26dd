//! The benchmark must time the build `repro` ships. Its package has its own
//! `[profile.release]`, copied from the root manifest, because Cargo reads
//! profiles only from the root of the workspace being built; this test
//! fails when the copy drifts.

use std::path::Path;

/// The `key = value` lines of `[profile.release]` in a manifest's text,
/// sorted, without comments or blank lines.
fn release_profile(manifest: &str) -> Vec<(String, String)> {
    let mut lines = manifest
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim());
    assert!(
        lines.any(|l| l == "[profile.release]"),
        "no [profile.release] table"
    );
    let mut table: Vec<(String, String)> = lines
        .take_while(|l| !l.starts_with('['))
        .filter_map(|l| l.split_once('='))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    table.sort();
    table
}

fn read(manifest: &Path) -> String {
    std::fs::read_to_string(manifest).unwrap_or_else(|e| panic!("{}: {e}", manifest.display()))
}

#[test]
fn release_profile_equals_the_root_manifests() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = release_profile(&read(&here.join("../Cargo.toml")));
    let ours = release_profile(&read(&here.join("Cargo.toml")));
    assert!(!root.is_empty(), "the root [profile.release] is empty");
    assert_eq!(
        ours, root,
        "benchmark/Cargo.toml [profile.release] differs from the root manifest's: \
         the benchmark would time a different build than `repro`"
    );
}

#[test]
fn the_parser_skips_comments_and_stops_at_the_next_table() {
    let table = release_profile(
        "[package]\nname = \"x\"\n\n# why\n[profile.release]\nlto = \"fat\" # comment\n\n\
         codegen-units = 1\n[profile.dev]\nopt-level = 3\n",
    );
    assert_eq!(
        table,
        vec![
            ("codegen-units".to_string(), "1".to_string()),
            ("lto".to_string(), "\"fat\"".to_string())
        ]
    );
}
