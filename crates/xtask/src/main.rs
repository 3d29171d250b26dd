//! Repository automation. `cargo xtask lint` enforces the determinism and
//! hygiene rules the simulation depends on (see `VERIFICATION.md` §lint and
//! `DESIGN.md`):
//!
//! * `wall-clock` — no `std::time::Instant` / `SystemTime` in library
//!   crates. Simulated time comes exclusively from `mts-sim`; wall-clock
//!   reads make runs irreproducible.
//! * `no-print` — no `println!` / `print!` in library crates. Human-facing
//!   output belongs to report types (`Display`) and the binaries.
//! * `no-unwrap` — no `.unwrap()` / `.expect(` in library crates outside
//!   `#[cfg(test)]`. Library code returns errors; panics in the datapath
//!   would take the whole simulated host down.
//! * `hashmap-iter` — no iteration over `HashMap` / `HashSet` in library
//!   crates unless the same expression is an order-insensitive reduction
//!   (`.sum()`, `.count()`, `.any(..)`, `.all(..)`, `.fold` into min/max).
//!   Hash iteration order is nondeterministic across runs and platforms;
//!   anything order-sensitive must sort first or use a `BTreeMap`.
//! * `lossy-cast` — no `as u8`..`as i64` truncating casts in `meters.rs`,
//!   `billing.rs` or the `isocheck` crate. The cycle-conservation identity
//!   and the verifier's atom masks depend on exact integer arithmetic; a
//!   silent truncation corrupts both without failing any test. `as usize` /
//!   `as u128` (never lossy here) and float casts (rounding by intent) are
//!   exempt.
//! * `device-programming` — no call that programs a device
//!   (`install_static_mac(`, `remove_static_mac(`, `create_vf(`,
//!   `configure_vf(`, `remove_vf(`, `set_filters(`, `flush_table(`,
//!   `remove_rule(`, a vswitch `.install(` or `sw.clear(`) in any library
//!   crate outside `crates/core/src/delta.rs`. A configuration change is a
//!   `ConfigDelta`, and `ConfigDelta::apply` there is the one place that
//!   programs a device: convergence, fault injection, supervisor restarts,
//!   misconfigurations and churn generators build deltas, so the log the
//!   verifier replays is what the devices ran. The device crates
//!   (`mts-nic`, `mts-vswitch`), which define these methods, are out of
//!   scope.
//! * `global-state` — no `static` holding interior mutability (`Mutex`,
//!   `RwLock`, `Atomic*`, `OnceLock`, `Cell`/`RefCell`) and no
//!   `thread_local!`. Process-global mutable state outlives the world and
//!   the call that filled it: a memo keyed by less than its input answers
//!   for the wrong one, and a global counter makes a run's output depend on
//!   what ran before it in the same process.
//!
//! A finding is waived by a comment `lint:allow(<check>)` on the same line
//! or the line directly above, which is expected to justify *why* the site
//! is safe. A waiver that no longer suppresses any finding is itself an
//! `unused-waiver` finding — stale waivers silently license future
//! regressions. Binary crates (no `src/lib.rs`), `src/bin/`, tests, benches
//! and doc comments are out of scope.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint finding.
struct Finding {
    file: PathBuf,
    line: usize,
    check: &'static str,
    excerpt: String,
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("lint") => lint(),
        other => {
            eprintln!(
                "usage: cargo xtask lint    (got {:?})\n\n\
                 lint checks: wall-clock, no-print, no-unwrap, hashmap-iter, lossy-cast,\n\
                 device-programming, global-state\n\
                 (plus unused-waiver: a lint:allow tag that suppresses nothing)",
                other.unwrap_or("nothing")
            );
            ExitCode::from(2)
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let mut findings = Vec::new();
    let mut files = 0usize;
    for crate_dir in sorted_dirs(&root.join("crates")) {
        let src = crate_dir.join("src");
        // Library crates only: binaries may print and may choose to panic.
        if !src.join("lib.rs").is_file() {
            continue;
        }
        for file in rust_files(&src) {
            // `src/bin/` targets inside a library crate are binaries too.
            if file.components().any(|c| c.as_os_str() == "bin") {
                continue;
            }
            files += 1;
            if let Ok(text) = fs::read_to_string(&file) {
                scan_file(&file, &text, &mut findings);
            }
        }
    }
    if findings.is_empty() {
        println!("xtask lint: {files} library files clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!(
                "{}:{}: [{}] {}",
                f.file.display(),
                f.line,
                f.check,
                f.excerpt.trim()
            );
        }
        println!(
            "xtask lint: {} finding(s) in {files} files; waive with a justified `lint:allow(<check>)` comment",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/xtask; the workspace root is two up.
    match std::env::var("CARGO_MANIFEST_DIR") {
        Ok(d) => PathBuf::from(d)
            .ancestors()
            .nth(2)
            .map(Path::to_path_buf)
            .unwrap_or_else(|| PathBuf::from(".")),
        Err(_) => PathBuf::from("."),
    }
}

fn sorted_dirs(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect()
        })
        .unwrap_or_default();
    out.sort();
    out
}

fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for p in fs::read_dir(&d)
            .map(|rd| rd.flatten().map(|e| e.path()).collect::<Vec<_>>())
            .unwrap_or_default()
        {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                out.push(p);
            }
        }
    }
    out.sort();
    out
}

/// Strips comments from a line, returning `(code, comment)`. String
/// literals are respected so `"//"` inside a string does not truncate.
fn split_comment(line: &str) -> (String, String) {
    let b = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'\\' if in_str => i += 1, // skip escaped char
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < b.len() && b[i + 1] == b'/' => {
                return (line[..i].to_string(), line[i..].to_string());
            }
            _ => {}
        }
        i += 1;
    }
    (line.to_string(), String::new())
}

/// Identifiers declared with a `HashMap` / `HashSet` type in this file
/// (fields `name: HashMap<..>` and bindings `let name = HashMap::new()`).
fn hash_idents(lines: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for line in lines {
        let (code, _) = split_comment(line);
        for ty in ["HashMap", "HashSet"] {
            if let Some(pos) = code.find(ty) {
                // Expand to the start of the full type identifier so alias
                // wrappers (`FastHashMap<..>`) bind their field name too.
                let ty_start = code[..pos]
                    .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                    .map(|i| i + 1)
                    .unwrap_or(0);
                // `name: HashMap<...>` — walk back over `: `.
                let before = code[..ty_start].trim_end();
                if let Some(before) = before.strip_suffix(':') {
                    if let Some(id) = trailing_ident(before.trim_end()) {
                        out.push(id);
                    }
                }
                // `let [mut] name = HashMap::new()`.
                if let Some(eq) = code[..ty_start].rfind('=') {
                    if let Some(id) = trailing_ident(code[..eq].trim_end()) {
                        out.push(id);
                    }
                }
            }
        }
    }
    out.sort();
    out.dedup();
    out
}

fn trailing_ident(s: &str) -> Option<String> {
    let end = s.len();
    let start = s
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .map(|i| i + 1)
        .unwrap_or(0);
    let id = &s[start..end];
    let ok = !id.is_empty()
        && !id.chars().next().is_some_and(|c| c.is_ascii_digit())
        && !matches!(id, "mut" | "let" | "pub" | "ref");
    if ok {
        Some(id.to_string())
    } else {
        None
    }
}

const ITER_METHODS: [&str; 7] = [
    ".iter()",
    ".iter_mut()",
    ".keys()",
    ".values()",
    ".values_mut()",
    ".drain(",
    ".into_iter()",
];

/// Order-insensitive terminal reductions: iterating a hash container into
/// one of these is deterministic regardless of iteration order.
const REDUCTIONS: [&str; 6] = [".sum()", ".count()", ".any(", ".all(", ".min()", ".max()"];

/// One `lint:allow(<check>)` comment, tracked so waivers that no longer
/// suppress anything are themselves reported (`unused-waiver`).
struct WaiverSite {
    idx: usize, // 0-based line the tag appears on
    check: String,
    used: bool,
}

/// Every check name tagged `lint:allow(<check>)` in a comment.
fn waiver_tags(comment: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = comment[from..].find("lint:allow(") {
        let start = from + pos + "lint:allow(".len();
        match comment[start..].find(')') {
            Some(end) => {
                out.push(comment[start..start + end].to_string());
                from = start + end;
            }
            None => break,
        }
    }
    out
}

/// Marks (and reports) whether a waiver for `check` covers the finding on
/// line `idx`: the tag may sit on the same line or the line directly above.
fn waive(waivers: &mut [WaiverSite], idx: usize, check: &str) -> bool {
    let mut hit = false;
    for w in waivers.iter_mut() {
        if w.check == check && (w.idx == idx || w.idx + 1 == idx) {
            w.used = true;
            hit = true;
        }
    }
    hit
}

/// The `lossy-cast` check only covers the files whose arithmetic feeds the
/// cycle-conservation identity and the verifier's atom masks: the metering
/// and billing pipeline, and everything in `mts-isocheck`.
fn lossy_cast_scope(file: &Path) -> bool {
    let name = file.file_name().and_then(|n| n.to_str()).unwrap_or("");
    name == "meters.rs"
        || name == "billing.rs"
        || file.components().any(|c| c.as_os_str() == "isocheck")
}

/// The `device-programming` check covers every library crate but the two
/// device crates, which define the calls; the delta applier in
/// `crates/core/src/delta.rs` is the one file allowed to make them.
fn device_programming_scope(file: &Path) -> bool {
    let path = file.to_string_lossy().replace('\\', "/");
    !path.contains("crates/nic/")
        && !path.contains("crates/vswitch/")
        && !path.ends_with("crates/core/src/delta.rs")
}

/// Calls that program a NIC or a vswitch.
const DEVICE_PROGRAMMING: [&str; 10] = [
    "install_static_mac(",
    "remove_static_mac(",
    "create_vf(",
    "configure_vf(",
    "remove_vf(",
    "set_filters(",
    "flush_table(",
    "remove_rule(",
    ".install(",
    "sw.clear(",
];

/// The interior-mutability types a `static` must not hold (`Cell<` covers
/// `RefCell` and `OnceCell`, `Atomic` every atomic integer).
const GLOBAL_STATE_TYPES: [&str; 5] = ["Mutex", "RwLock", "Atomic", "OnceLock", "Cell<"];

/// A `static` item holding interior mutability, or a `thread_local!`.
fn is_global_state(code: &str) -> bool {
    let mut words = code.split_whitespace();
    let first = words.next().unwrap_or("");
    let is_static =
        first == "static" || (first.starts_with("pub") && words.next() == Some("static"));
    code.contains("thread_local!")
        || (is_static && GLOBAL_STATE_TYPES.iter().any(|ty| code.contains(ty)))
}

const LOSSY_CAST_TARGETS: [&str; 8] = ["u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64"];

/// `as u8`/`as i64`-style casts that can silently truncate or wrap.
/// `as usize`, `as u128` and float casts are out of scope: the former two
/// never lose integer bits on supported targets, the latter are rounding by
/// declared intent.
fn has_lossy_cast(code: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find(" as ") {
        let start = from + pos + " as ".len();
        let ident: String = code[start..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
            .collect();
        if LOSSY_CAST_TARGETS.contains(&ident.as_str()) {
            return true;
        }
        from = start;
    }
    false
}

fn scan_file(file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let lines: Vec<&str> = text.lines().collect();
    let hash_ids = hash_idents(&lines);
    let lossy_scope = lossy_cast_scope(file);
    let programming_scope = device_programming_scope(file);
    let mut waivers: Vec<WaiverSite> = Vec::new();

    // Pass: walk lines, skipping `#[cfg(test)]` items via brace counting.
    let mut skip_depth = 0i64; // >0: inside a cfg(test) block
    let mut pending_cfg_test = false;
    for (idx, raw) in lines.iter().enumerate() {
        let lineno = idx + 1;
        let (code, comment) = split_comment(raw);
        let code = code.trim_end().to_string();

        if skip_depth > 0 {
            skip_depth += brace_delta(&code);
            continue;
        }
        if pending_cfg_test {
            if code.trim_start().starts_with("#[") {
                continue; // more attributes on the same item
            }
            let delta = brace_delta(&code);
            if delta > 0 {
                skip_depth = delta;
            }
            // Single-line item (e.g. `use mts_sim::Time;` or a one-line fn):
            // just this line is skipped.
            pending_cfg_test = false;
            continue;
        }
        if code.contains("#[cfg(test)]") {
            pending_cfg_test = true;
            continue;
        }

        for check in waiver_tags(&comment) {
            waivers.push(WaiverSite {
                idx,
                check,
                used: false,
            });
        }
        let mut push = |check: &'static str| {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                check,
                excerpt: raw.to_string(),
            });
        };

        if (code.contains("std::time")
            || code.contains("Instant::now")
            || code.contains("SystemTime"))
            && !waive(&mut waivers, idx, "wall-clock")
        {
            push("wall-clock");
        }
        if (code.contains("println!") || has_bare_print(&code))
            && !waive(&mut waivers, idx, "no-print")
        {
            push("no-print");
        }
        if (code.contains(".unwrap()") || code.contains(".expect("))
            && !waive(&mut waivers, idx, "no-unwrap")
        {
            push("no-unwrap");
        }
        if lossy_scope && has_lossy_cast(&code) && !waive(&mut waivers, idx, "lossy-cast") {
            push("lossy-cast");
        }
        if programming_scope
            && DEVICE_PROGRAMMING.iter().any(|call| code.contains(call))
            && !waive(&mut waivers, idx, "device-programming")
        {
            push("device-programming");
        }
        if is_global_state(&code) && !waive(&mut waivers, idx, "global-state") {
            push("global-state");
        }
        if iterates_hash(&lines, idx, &code, &hash_ids) && !waive(&mut waivers, idx, "hashmap-iter")
        {
            push("hashmap-iter");
        }
    }

    // A waiver that suppressed nothing is stale: the code it justified is
    // gone or changed, and the comment now silently licenses a future
    // regression. Report it so it gets deleted alongside the fix.
    for w in &waivers {
        if !w.used {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: w.idx + 1,
                check: "unused-waiver",
                excerpt: lines.get(w.idx).copied().unwrap_or_default().to_string(),
            });
        }
    }
}

/// `print!` that is not the tail of `println!` / `eprint!` / `eprintln!`.
fn has_bare_print(code: &str) -> bool {
    let mut from = 0;
    while let Some(pos) = code[from..].find("print!") {
        let abs = from + pos;
        let prev = code[..abs].chars().next_back();
        if !matches!(prev, Some('e') | Some('n')) {
            return true;
        }
        from = abs + "print!".len();
    }
    false
}

fn brace_delta(code: &str) -> i64 {
    let mut d = 0i64;
    let mut in_str = false;
    let mut chars = code.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' if in_str => {
                chars.next();
            }
            '"' => in_str = !in_str,
            '{' if !in_str => d += 1,
            '}' if !in_str => d -= 1,
            _ => {}
        }
    }
    d
}

/// Does this line start an iteration over a known hash-typed identifier,
/// without reducing order-insensitively in the same expression? Method
/// chains split across lines are handled by joining a small window around
/// the match.
fn iterates_hash(lines: &[&str], idx: usize, code: &str, hash_ids: &[String]) -> bool {
    if hash_ids.is_empty() {
        return false;
    }
    let hit = ITER_METHODS.iter().any(|m| code.contains(m));
    if !hit {
        return false;
    }
    // Receiver: join the previous two lines (chains like `self\n.table\n.iter()`).
    let lo = idx.saturating_sub(2);
    let joined: String = lines[lo..=idx]
        .iter()
        .map(|l| split_comment(l).0)
        .collect::<Vec<_>>()
        .join("");
    let compact: String = joined.chars().filter(|c| !c.is_whitespace()).collect();
    let receiver_is_hash = hash_ids.iter().any(|id| {
        ITER_METHODS.iter().any(|m| {
            compact.contains(&format!("{id}{m}")) || compact.contains(&format!(".{id}{m}"))
        })
    });
    if !receiver_is_hash {
        return false;
    }
    // Same-statement reduction forgives the iteration. Look ahead to the
    // end of the statement (a `;` or unindented close) within a few lines.
    let hi = (idx + 3).min(lines.len() - 1);
    let stmt: String = lines[idx..=hi]
        .iter()
        .map(|l| split_comment(l).0)
        .collect::<Vec<_>>()
        .join("");
    !REDUCTIONS.iter().any(|r| stmt.contains(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossy_cast_detection() {
        assert!(has_lossy_cast("let x = y as u8;"));
        assert!(has_lossy_cast("f(a as i64)"));
        assert!(has_lossy_cast("(mask >> 64) as u64"));
        assert!(!has_lossy_cast("let x = y as usize;"));
        assert!(!has_lossy_cast("let x = y as u128;"));
        assert!(!has_lossy_cast("let x = y as f64;"));
        assert!(!has_lossy_cast("let x = y.into();"));
        // `as` as a word, not a cast operator.
        assert!(!has_lossy_cast("// treated as utterly safe"));
    }

    #[test]
    fn lossy_cast_scope_is_meters_billing_isocheck() {
        assert!(lossy_cast_scope(Path::new("crates/core/src/meters.rs")));
        assert!(lossy_cast_scope(Path::new("crates/core/src/billing.rs")));
        assert!(lossy_cast_scope(Path::new("crates/isocheck/src/engine.rs")));
        assert!(!lossy_cast_scope(Path::new("crates/core/src/runtime.rs")));
    }

    #[test]
    fn waiver_tag_extraction() {
        assert_eq!(
            waiver_tags("// lint:allow(lossy-cast): bounded by spec"),
            vec!["lossy-cast".to_string()]
        );
        assert_eq!(
            waiver_tags("// lint:allow(no-unwrap) lint:allow(no-print)"),
            vec!["no-unwrap".to_string(), "no-print".to_string()]
        );
        assert!(waiver_tags("// plain comment").is_empty());
    }

    fn scan(src: &str, file: &str) -> Vec<(usize, &'static str)> {
        let mut findings = Vec::new();
        scan_file(Path::new(file), src, &mut findings);
        findings.into_iter().map(|f| (f.line, f.check)).collect()
    }

    #[test]
    fn waived_finding_is_suppressed_and_waiver_counts_as_used() {
        let src = "// lint:allow(lossy-cast): index is bounded\nlet x = i as u8;\n";
        assert!(scan(src, "crates/isocheck/src/model.rs").is_empty());
    }

    #[test]
    fn unwaived_lossy_cast_is_reported_in_scope_only() {
        let src = "let x = i as u8;\n";
        assert_eq!(
            scan(src, "crates/core/src/billing.rs"),
            vec![(1, "lossy-cast")]
        );
        assert!(scan(src, "crates/core/src/runtime.rs").is_empty());
    }

    #[test]
    fn stale_waiver_is_reported() {
        let src = "// lint:allow(lossy-cast): obsolete justification\nlet x = u8::from(b);\n";
        assert_eq!(
            scan(src, "crates/isocheck/src/header.rs"),
            vec![(1, "unused-waiver")]
        );
    }

    #[test]
    fn waiver_in_test_code_is_not_stale() {
        let src = "#[cfg(test)]\nmod tests {\n    // lint:allow(no-unwrap): tests may panic\n    fn f() {}\n}\n";
        assert!(scan(src, "crates/core/src/billing.rs").is_empty());
    }

    #[test]
    fn device_programming_is_confined_to_the_delta_applier() {
        let src = "fn f(sw: &mut VirtualSwitch) {\n    let _ = sw.install(0, rule);\n}\n";
        assert_eq!(
            scan(src, "crates/core/src/reconcile.rs"),
            vec![(2, "device-programming")]
        );
        assert_eq!(
            scan(src, "crates/faults/src/inject.rs"),
            vec![(2, "device-programming")]
        );
        assert!(scan(src, "crates/core/src/delta.rs").is_empty());
        assert!(scan(src, "crates/vswitch/src/switch.rs").is_empty());
        let nic = "nic.create_vf(pf, vf, cfg)?;\nsw.set_filters(rules);\nvs.inst.sw.clear();\n";
        assert_eq!(
            scan(nic, "crates/isocheck/src/misconfig.rs"),
            vec![
                (1, "device-programming"),
                (2, "device-programming"),
                (3, "device-programming")
            ]
        );
        let reads = "let n = sw.rule_count();\nlog.clear();\n";
        assert!(scan(reads, "crates/fuzz/src/deltas.rs").is_empty());
        let test_only = "#[cfg(test)]\nmod tests {\n    fn f() { sw.flush_table(); }\n}\n";
        assert!(scan(test_only, "crates/core/src/attacks.rs").is_empty());
    }

    #[test]
    fn global_state_is_flagged_in_every_library_file() {
        for (src, flagged) in [
            (
                "static MEMO: Mutex<BTreeSet<String>> = Mutex::new(BTreeSet::new());",
                true,
            ),
            ("pub static NEXT: AtomicU64 = AtomicU64::new(1);", true),
            (
                "pub(crate) static CACHE: OnceLock<Table> = OnceLock::new();",
                true,
            ),
            ("static LOCK: RwLock<u8> = RwLock::new(0);", true),
            (
                "thread_local! { static SEEN: RefCell<u64> = RefCell::new(0); }",
                true,
            ),
            ("static NAMES: [&str; 2] = [\"a\", \"b\"];", false),
            ("const LIMIT: usize = 64;", false),
            ("fn f(m: &Mutex<u8>) -> &'static str { \"x\" }", false),
            ("let counter = AtomicU64::new(0);", false),
        ] {
            assert_eq!(is_global_state(src), flagged, "{src}");
        }
        let src = "static N: AtomicU64 = AtomicU64::new(1);\n";
        assert_eq!(
            scan(src, "crates/net/src/frame.rs"),
            vec![(1, "global-state")]
        );
        let waived = "// lint:allow(global-state): ids are unique per process\n\
                      static N: AtomicU64 = AtomicU64::new(1);\n";
        assert!(scan(waived, "crates/net/src/frame.rs").is_empty());
    }

    #[test]
    fn hash_alias_wrappers_bind_field_names() {
        let ids = hash_idents(&["    table: FastHashMap<(u16, u64), Entry>,"]);
        assert_eq!(ids, vec!["table".to_string()]);
    }
}
