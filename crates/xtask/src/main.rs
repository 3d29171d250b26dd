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
//! * `dead-pub` — no `pub fn` or `pub const` that no other Rust file
//!   names. A reference is an identifier on a code line of any `.rs` file
//!   under `crates/`, `src/`, `tests/`, `examples/`, `vendor/` or
//!   `benchmark/src` other than the item's own; comment lines, `use` lines
//!   and string literals do not count, nor do the file's own tests. An item
//!   only its own file calls is private; one only its own tests call is
//!   dead code with a test. The frozen benchmark harness counts as a
//!   caller, so what it names stays public without a list of exemptions.
//! * `unused-dep` — no `[dependencies]` or `[dev-dependencies]` entry whose
//!   crate no `.rs` file of its package names (the root package owns
//!   `src/`, `tests/` and `examples/`; every other package its directory).
//!   Its waiver is a `# lint:allow(unused-dep)` comment in `Cargo.toml`.
//!
//! A finding is waived by a comment `lint:allow(<check>)` on the same line
//! or the line directly above, which is expected to justify *why* the site
//! is safe. A waiver that no longer suppresses any finding is itself an
//! `unused-waiver` finding — stale waivers silently license future
//! regressions. Binary crates (no `src/lib.rs`), `src/bin/`, tests, benches
//! and doc comments are out of scope.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Every check `cargo xtask lint` runs, in the order the docs list them.
const CHECKS: [&str; 9] = [
    "wall-clock",
    "no-print",
    "no-unwrap",
    "hashmap-iter",
    "lossy-cast",
    "device-programming",
    "global-state",
    "dead-pub",
    "unused-dep",
];

/// One lint finding.
struct Finding {
    file: PathBuf,
    line: usize,
    check: &'static str,
    excerpt: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (file, line, check) = (self.file.display(), self.line, self.check);
        write!(f, "{file}:{line}: [{check}] {}", self.excerpt.trim())
    }
}

/// One Rust file that can name a library item, read once for every check.
struct Source {
    path: PathBuf, // relative to the workspace root
    text: String,
}

/// Identifier → the indices (into the source list) of the files whose code
/// names it, ascending.
type RefIndex = HashMap<String, Vec<usize>>;

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        Some("lint") => lint(),
        other => {
            eprintln!(
                "usage: cargo xtask lint    (got {:?})\n\n\
                 lint checks: {}\n\
                 (plus unused-waiver: a lint:allow tag that suppresses nothing)",
                other.unwrap_or("nothing"),
                CHECKS.join(", ")
            );
            ExitCode::from(2)
        }
    }
}

fn lint() -> ExitCode {
    let (findings, files) = lint_repo(&workspace_root());
    if findings.is_empty() {
        println!("xtask lint: {files} library files clean");
        ExitCode::SUCCESS
    } else {
        for f in &findings {
            println!("{f}");
        }
        println!(
            "xtask lint: {} finding(s) in {files} files; waive with a justified `lint:allow(<check>)` comment",
            findings.len()
        );
        ExitCode::FAILURE
    }
}

/// Runs every check over the repository at `root`: the findings, and the
/// number of library files scanned.
fn lint_repo(root: &Path) -> (Vec<Finding>, usize) {
    let sources = read_sources(root);
    let index = reference_index(&sources);
    let mut findings = Vec::new();
    let mut files = 0usize;
    for (i, src) in sources.iter().enumerate() {
        if is_library_file(root, &src.path) {
            files += 1;
            scan_file(&src.path, &src.text, (&index, i), &mut findings);
        }
    }
    for (manifest, dirs) in packages(root) {
        if let Ok(text) = fs::read_to_string(root.join(&manifest)) {
            scan_manifest(&manifest, &text, &names_in(&sources, &dirs), &mut findings);
        }
    }
    (findings, files)
}

/// Every `.rs` file that can call a library item: the frozen benchmark
/// harness's too.
fn read_sources(root: &Path) -> Vec<Source> {
    let dirs = [
        "crates",
        "src",
        "tests",
        "examples",
        "vendor",
        "benchmark/src",
    ];
    let files = dirs.iter().flat_map(|dir| rust_files(&root.join(dir)));
    files
        .filter_map(|file| {
            let text = fs::read_to_string(&file).ok()?;
            let path = file.strip_prefix(root).ok()?.to_path_buf();
            Some(Source { path, text })
        })
        .collect()
}

/// A file of a library crate's `src/` (a crate with `src/lib.rs`), outside
/// `src/bin/`: binaries may print and may choose to panic.
fn is_library_file(root: &Path, path: &Path) -> bool {
    let krate: PathBuf = path.iter().take(2).collect();
    krate.starts_with("crates")
        && path.starts_with(krate.join("src"))
        && !path.iter().any(|c| c == "bin")
        && root.join(krate).join("src/lib.rs").is_file()
}

/// Every package's manifest with the directories its Rust files live in.
fn packages(root: &Path) -> Vec<(PathBuf, Vec<PathBuf>)> {
    let mut out = vec![(
        "Cargo.toml".into(),
        ["src", "tests", "examples"].map(PathBuf::from).to_vec(),
    )];
    for dir in sorted_dirs(&root.join("crates"))
        .into_iter()
        .chain(sorted_dirs(&root.join("vendor")))
    {
        let dir = dir.strip_prefix(root).unwrap_or(&dir).to_path_buf();
        out.push((dir.join("Cargo.toml"), vec![dir]));
    }
    out
}

/// Every identifier the code of the files under `dirs` names.
fn names_in(sources: &[Source], dirs: &[PathBuf]) -> HashSet<String> {
    let files = sources
        .iter()
        .filter(|s| dirs.iter().any(|d| s.path.starts_with(d)));
    let lines = files.flat_map(|s| code_lines(&s.text));
    lines
        .flat_map(|l| idents(&l).map(str::to_string).collect::<Vec<_>>())
        .collect()
}

/// One pass over every source: which files name each identifier on a line
/// that can call it (not a comment, a string or a `use` item).
fn reference_index(sources: &[Source]) -> RefIndex {
    let mut index = RefIndex::new();
    for (i, src) in sources.iter().enumerate() {
        let mut in_use = false;
        for code in code_lines(&src.text) {
            let item = code.trim_start().trim_start_matches("pub ");
            if in_use
                || item.starts_with("use ")
                || item.starts_with("pub(") && item.contains(") use ")
            {
                in_use = !code.contains(';');
                continue;
            }
            for id in idents(&code) {
                let files = index.entry(id.to_string()).or_default();
                if files.last() != Some(&i) {
                    files.push(i);
                }
            }
        }
    }
    index
}

/// The code of each line of `text` ([`split_comment`]); a string left
/// open at a line's end continues on the next.
fn code_lines(text: &str) -> impl Iterator<Item = String> + '_ {
    let mut in_str = false;
    text.lines().map(move |line| {
        let (code, _) = split_comment(&if in_str {
            format!("\"{line}")
        } else {
            line.to_string()
        });
        in_str = code.matches('"').count() % 2 == 1;
        code
    })
}

/// The identifiers (and keywords) of a code line.
fn idents(code: &str) -> impl Iterator<Item = &str> {
    code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| w.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_'))
}

/// The name a `pub fn`, `pub const fn` or `pub const` item declares on
/// this code line.
fn pub_item(code: &str) -> Option<&str> {
    let rest = code.trim_start().strip_prefix("pub ")?;
    let rest = ["const fn ", "const ", "fn "]
        .iter()
        .find_map(|p| rest.strip_prefix(p))?;
    idents(rest).next().filter(|name| *name != "_")
}

/// `unused-dep` over one manifest: every dependency whose crate `named`
/// (the identifiers of the package's code) lacks.
fn scan_manifest(
    manifest: &Path,
    text: &str,
    named: &HashSet<String>,
    findings: &mut Vec<Finding>,
) {
    let lines: Vec<&str> = text.lines().collect();
    let mut waivers = Vec::new();
    let mut section = "";
    for (idx, raw) in lines.iter().enumerate() {
        let (code, comment) = raw.split_once('#').unwrap_or((raw, ""));
        waivers.extend(waivers_at(idx, comment));
        let code = code.trim();
        if code.starts_with('[') {
            section = code;
            continue;
        }
        let key = code.split(['.', '=']).next().unwrap_or("").trim();
        if matches!(section, "[dependencies]" | "[dev-dependencies]")
            && !key.is_empty()
            && !named.contains(&key.replace('-', "_"))
            && !waive(&mut waivers, idx, "unused-dep")
        {
            let excerpt = raw.to_string();
            findings.push(Finding {
                file: manifest.to_path_buf(),
                line: idx + 1,
                check: "unused-dep",
                excerpt,
            });
        }
    }
    stale_waivers(manifest, &lines, &waivers, findings);
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

/// Splits a line into `(code, comment)`, with the contents of string
/// literals in the code blanked: `"//"` inside a string does not truncate,
/// and a name inside one is not code.
fn split_comment(line: &str) -> (String, String) {
    let mut code = String::with_capacity(line.len());
    let mut in_str = false;
    let mut chars = line.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => in_str = !in_str,
            '/' if !in_str && chars.peek().is_some_and(|&(_, n)| n == '/') => {
                return (code, line[i..].to_string());
            }
            '\\' if in_str => {
                chars.next(); // the escaped char
                continue;
            }
            _ if in_str => continue,
            _ => {}
        }
        code.push(c);
    }
    (code, String::new())
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

/// The waivers a comment on line `idx` declares.
fn waivers_at(idx: usize, comment: &str) -> impl Iterator<Item = WaiverSite> {
    waiver_tags(comment)
        .into_iter()
        .map(move |check| WaiverSite {
            idx,
            check,
            used: false,
        })
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

/// Every per-line check over one library file; `(index, this)` is the
/// reference index and this file's place in it, for `dead-pub`.
fn scan_file(
    file: &Path,
    text: &str,
    (index, this): (&RefIndex, usize),
    findings: &mut Vec<Finding>,
) {
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

        waivers.extend(waivers_at(idx, &comment));
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
        let dead = |name| index.get(name).is_none_or(|f| f.iter().all(|&f| f == this));
        if pub_item(&code).is_some_and(dead) && !waive(&mut waivers, idx, "dead-pub") {
            push("dead-pub");
        }
    }
    stale_waivers(file, &lines, &waivers, findings);
}

/// A waiver that suppressed nothing is stale: the code it justified is
/// gone or changed, and the comment now silently licenses a future
/// regression. Report it so it gets deleted alongside the fix.
fn stale_waivers(file: &Path, lines: &[&str], waivers: &[WaiverSite], findings: &mut Vec<Finding>) {
    for w in waivers {
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
        scan_file(Path::new(file), src, (&RefIndex::new(), 0), &mut findings);
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

    /// `dead-pub` (and stale waivers) over `lib`, a library file, with
    /// `others` as the rest of the repository's Rust files.
    fn dead_pub(lib: &str, others: &[(&str, &str)]) -> Vec<(usize, &'static str)> {
        let lib = ("crates/demo/src/lib.rs", lib);
        let sources: Vec<Source> = std::iter::once(&lib)
            .chain(others)
            .map(|(path, text)| Source {
                path: path.into(),
                text: text.to_string(),
            })
            .collect();
        let mut findings = Vec::new();
        scan_file(
            Path::new(lib.0),
            lib.1,
            (&reference_index(&sources), 0),
            &mut findings,
        );
        findings.into_iter().map(|f| (f.line, f.check)).collect()
    }

    #[test]
    fn dead_pub_counts_only_code_in_other_files() {
        assert_eq!(pub_item("    pub fn helper(&self) -> u8 {"), Some("helper"));
        assert_eq!(pub_item("pub const fn size() -> u64 {"), Some("size"));
        assert_eq!(pub_item("    pub const LIMIT: usize = 64;"), Some("LIMIT"));
        for other in [
            "pub(crate) fn helper() {}",
            "pub struct Helper;",
            "fn helper() {}",
        ] {
            assert_eq!(pub_item(other), None, "{other}");
        }
        // Called only by its own file's tests: dead.
        let lib = "pub fn helper() -> u8 {\n    1\n}\n#[cfg(test)]\nmod tests {\n    \
                   #[test]\n    fn t() {\n        assert_eq!(super::helper(), 1);\n    }\n}\n";
        let dead = vec![(1, "dead-pub")];
        assert_eq!(dead_pub(lib, &[]), dead);
        // Named elsewhere only in comments, doc links, strings and `use` items: dead.
        let named = "//! See [`mts_demo::helper`].\nuse mts_demo::helper;\nuse mts_demo::{\n    \
                     helper,\n};\nfn f() {\n    let s = \"helper\"; // helper()\n    \
                     /// helper() in a doc example\n    let t = \"a string \\\n    helper\";\n}\n";
        assert_eq!(dead_pub(lib, &[("crates/other/src/lib.rs", named)]), dead);
        // Called from another crate's tests or from the benchmark: live.
        let lib = "pub fn helper() {}\npub const LIMIT: u8 = 1;\n";
        let call = "fn t() {\n    mts_demo::helper();\n    let _ = mts_demo::LIMIT;\n}\n";
        for caller in ["crates/other/tests/it.rs", "benchmark/src/workloads.rs"] {
            assert!(dead_pub(lib, &[(caller, call)]).is_empty(), "{caller}");
        }
    }

    #[test]
    fn dead_pub_waivers_suppress_and_go_stale() {
        let waived = "// lint:allow(dead-pub): the harness calls it by name\npub fn helper() {}\n";
        assert!(dead_pub(waived, &[]).is_empty());
        let called = [("crates/other/src/lib.rs", "fn f() { helper(); }\n")];
        assert_eq!(dead_pub(waived, &called), vec![(1, "unused-waiver")]);
    }

    #[test]
    fn a_dependency_no_file_names_is_reported() {
        let unused = |manifest: &str, named: &[&str]| {
            let named = named.iter().map(|n| n.to_string()).collect();
            let mut findings = Vec::new();
            scan_manifest(Path::new("Cargo.toml"), manifest, &named, &mut findings);
            findings
                .into_iter()
                .map(|f| (f.line, f.check))
                .collect::<Vec<_>>()
        };
        let manifest = "[package]\nname = \"mts-demo\"\n\n[dependencies]\nmts-sim.workspace = true\n\
                        serde = { path = \"../serde\" }\n\n[dev-dependencies]\nproptest.workspace = true\n\n\
                        [lints]\nworkspace = true\n";
        assert_eq!(unused(manifest, &["mts_sim", "serde"]), [(9, "unused-dep")]);
        assert_eq!(
            unused(manifest, &["proptest"]),
            [(5, "unused-dep"), (6, "unused-dep")]
        );
        let waived = "[dependencies]\nmts-sim.workspace = true # lint:allow(unused-dep): pinned\n";
        assert_eq!(unused(waived, &[]), []);
        assert_eq!(unused(waived, &["mts_sim"]), [(2, "unused-waiver")]);
    }

    #[test]
    fn the_repository_is_lint_clean() {
        let root = workspace_root();
        let (findings, files) = lint_repo(&root);
        assert!(files > 0, "no library files under {}", root.display());
        let report: Vec<String> = findings.iter().map(|f| f.to_string()).collect();
        assert!(report.is_empty(), "{}", report.join("\n"));
        // Few `dead-pub` waivers; `unused-dep` only for the frozen lock's edges.
        let sources = read_sources(&root).into_iter();
        let library: String = sources
            .filter(|s| is_library_file(&root, &s.path))
            .map(|s| s.text)
            .collect();
        assert!(library.matches("lint:allow(dead-pub)").count() <= 5);
        let read = |path: PathBuf| fs::read_to_string(root.join(path)).unwrap_or_default();
        let manifests: String = packages(&root).into_iter().map(|(m, _)| read(m)).collect();
        for waiver in manifests
            .lines()
            .filter(|l| l.contains("lint:allow(unused-dep)"))
        {
            assert!(waiver.contains("benchmark/Cargo.lock"), "{waiver}");
        }
    }

    #[test]
    fn the_docs_list_exactly_the_checks() {
        fn bullets<'a>(text: &'a str, prefix: &str) -> Vec<&'a str> {
            let names = text
                .lines()
                .filter_map(|l| l.strip_prefix(prefix)?.strip_prefix("* `"));
            names.filter_map(|rest| rest.split('`').next()).collect()
        }
        let read = |doc: &str| fs::read_to_string(workspace_root().join(doc)).unwrap_or_default();
        let verification = read("VERIFICATION.md");
        let section = verification.split("## 9. `cargo xtask lint`").nth(1);
        let section = section
            .and_then(|s| s.split("\n## ").next())
            .unwrap_or_default();
        assert_eq!(bullets(section, ""), CHECKS, "VERIFICATION.md §9");
        assert!(section.contains("`unused-waiver`"), "VERIFICATION.md §9");
        assert_eq!(
            bullets(include_str!("main.rs"), "//! "),
            CHECKS,
            "module doc"
        );
        let design = read("DESIGN.md");
        let row = design
            .lines()
            .find(|l| l.starts_with("| `xtask`"))
            .unwrap_or_default();
        for check in CHECKS.iter().chain(&["unused-waiver"]) {
            assert!(
                row.contains(&format!("`{check}`")),
                "DESIGN.md's xtask row lacks {check}"
            );
        }
    }
}
