//! The committed crasher corpus: minimized cases pinned as regression
//! tests.
//!
//! Every case is one file under `tests/corpus/` with a tiny header (lines
//! prefixed `#!`, which cannot clash with fault-plan `#` comments), a
//! `#! ---` separator, and the payload — hex for byte surfaces, verbatim
//! text for textual ones:
//!
//! ```text
//! #! surface: wire
//! #! note: vxlan nesting one past the decap cap
//! #! format: hex
//! #! expect: reject:encap-too-deep
//! #! ---
//! 52540000…
//! ```
//!
//! `expect` pins the disposition: `accept` (parses, all invariants hold)
//! or `reject:<label>` (the typed error). Replay fails on any invariant
//! violation *or* a disposition change — a crasher that starts parsing
//! differently is a regression even if it no longer crashes.

use crate::{plan, wire, CaseOutcome, Surface};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One pinned corpus case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorpusCase {
    /// File stem, used as the test label.
    pub name: String,
    /// Which fuzz surface replays it.
    pub surface: Surface,
    /// Human explanation of what the case pins.
    pub note: String,
    /// Expected disposition: `accept` or `reject:<label>`.
    pub expect: String,
    /// The raw case payload (bytes for wire, UTF-8 text for plan).
    pub data: Vec<u8>,
}

impl fmt::Display for CorpusCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} ({} bytes)",
            self.name,
            self.surface.label(),
            self.expect,
            self.data.len()
        )
    }
}

/// The committed corpus directory (workspace `tests/corpus/`).
pub fn corpus_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/corpus"))
}

fn hex_encode(data: &[u8]) -> String {
    let mut out = String::with_capacity(data.len() * 2 + data.len() / 16);
    for (i, b) in data.iter().enumerate() {
        if i > 0 && i % 32 == 0 {
            out.push('\n');
        }
        out.push_str(&format!("{b:02x}"));
    }
    out
}

fn hex_decode(text: &str) -> Result<Vec<u8>, String> {
    let compact: String = text.chars().filter(|c| !c.is_whitespace()).collect();
    if !compact.len().is_multiple_of(2) {
        return Err("odd hex digit count".to_string());
    }
    let mut out = Vec::with_capacity(compact.len() / 2);
    let bytes = compact.as_bytes();
    for pair in bytes.chunks(2) {
        let s = std::str::from_utf8(pair).map_err(|e| e.to_string())?;
        out.push(u8::from_str_radix(s, 16).map_err(|e| format!("bad hex {s:?}: {e}"))?);
    }
    Ok(out)
}

/// Renders a case into the on-disk format.
pub fn encode(case: &CorpusCase) -> String {
    let is_text = case.surface == Surface::Plan;
    let mut out = String::new();
    out.push_str(&format!("#! surface: {}\n", case.surface.label()));
    out.push_str(&format!("#! note: {}\n", case.note));
    out.push_str(&format!(
        "#! format: {}\n",
        if is_text { "text" } else { "hex" }
    ));
    out.push_str(&format!("#! expect: {}\n", case.expect));
    out.push_str("#! ---\n");
    if is_text {
        out.push_str(&String::from_utf8_lossy(&case.data));
    } else {
        out.push_str(&hex_encode(&case.data));
    }
    out.push('\n');
    out
}

/// Parses the on-disk format back into a case.
fn decode(name: &str, text: &str) -> Result<CorpusCase, String> {
    let mut surface = None;
    let mut note = String::new();
    let mut expect = String::new();
    let mut format = "hex".to_string();
    let mut payload = Vec::new();
    let mut in_payload = false;
    for line in text.lines() {
        if !in_payload {
            if let Some(rest) = line.strip_prefix("#!") {
                let rest = rest.trim();
                if rest == "---" {
                    in_payload = true;
                } else if let Some((k, v)) = rest.split_once(':') {
                    let v = v.trim().to_string();
                    match k.trim() {
                        "surface" => surface = Surface::from_label(&v),
                        "note" => note = v,
                        "expect" => expect = v,
                        "format" => format = v,
                        _ => return Err(format!("{name}: unknown header key {k:?}")),
                    }
                } else {
                    return Err(format!("{name}: malformed header line {line:?}"));
                }
            } else {
                return Err(format!("{name}: payload before `#! ---` separator"));
            }
        } else {
            payload.push(line.to_string());
        }
    }
    let surface = surface.ok_or_else(|| format!("{name}: missing surface header"))?;
    let body = payload.join("\n");
    let data = match format.as_str() {
        "text" => body.into_bytes(),
        "hex" => hex_decode(&body)?,
        other => return Err(format!("{name}: unknown format {other:?}")),
    };
    Ok(CorpusCase {
        name: name.to_string(),
        surface,
        note,
        expect,
        data,
    })
}

/// Loads every `.case` file from `dir`, sorted by name.
fn load_dir(dir: &Path) -> Result<Vec<CorpusCase>, String> {
    let mut cases = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    for path in paths {
        let name = path
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_default();
        let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        cases.push(decode(&name, &text)?);
    }
    Ok(cases)
}

/// Loads the committed corpus.
pub fn load_all() -> Result<Vec<CorpusCase>, String> {
    load_dir(&corpus_dir())
}

/// Writes a case into `dir` as `<name>.case`.
pub fn save_into(dir: &Path, case: &CorpusCase) -> Result<PathBuf, String> {
    fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.case", case.name));
    fs::write(&path, encode(case)).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// Parses a pinned stream case's `seed=`, `spec=`, `ops=[..]` text.
fn parse_stream_case(
    case: &CorpusCase,
) -> Result<(u64, mts_core::DeploymentSpec, Vec<u64>), String> {
    let text = std::str::from_utf8(&case.data)
        .map_err(|e| format!("{}: stream text not UTF-8: {e}", case.name))?;
    let mut seed = None;
    let mut spec = None;
    let mut ops = Vec::new();
    for line in text.lines() {
        if let Some(v) = line.strip_prefix("seed=") {
            seed = Some(
                v.trim()
                    .parse::<u64>()
                    .map_err(|e| format!("{}: bad seed: {e}", case.name))?,
            );
        } else if let Some(v) = line.strip_prefix("spec=") {
            let label = v.trim();
            spec = mts_isocheck::shipped_matrix()
                .into_iter()
                .find(|s| s.label() == label);
            if spec.is_none() {
                return Err(format!(
                    "{}: spec {label:?} not in shipped matrix",
                    case.name
                ));
            }
        } else if let Some(v) = line.strip_prefix("ops=") {
            let inner = v.trim().trim_start_matches('[').trim_end_matches(']');
            for tok in inner.split(',') {
                let tok = tok.trim();
                if tok.is_empty() {
                    continue;
                }
                ops.push(
                    tok.parse::<u64>()
                        .map_err(|e| format!("{}: bad op index {tok:?}: {e}", case.name))?,
                );
            }
        }
    }
    Ok((
        seed.ok_or_else(|| format!("{}: missing seed=", case.name))?,
        spec.ok_or_else(|| format!("{}: missing spec=", case.name))?,
        ops,
    ))
}

/// The disposition label of an oracle outcome.
fn disposition(outcome: &CaseOutcome) -> String {
    match outcome {
        CaseOutcome::Accepted => "accept".to_string(),
        CaseOutcome::Rejected(label) => format!("reject:{label}"),
        CaseOutcome::Violation(why) => format!("VIOLATION: {why}"),
    }
}

/// Replays one case through its surface oracle. `Err` means the case
/// violates an invariant or its pinned disposition changed.
pub fn replay(case: &CorpusCase) -> Result<(), String> {
    let outcome = match case.surface {
        Surface::Wire => wire::check_bytes(&case.data),
        Surface::Plan => {
            let text = std::str::from_utf8(&case.data)
                .map_err(|e| format!("{}: corpus text not UTF-8: {e}", case.name))?;
            plan::check_text(text)
        }
        Surface::Delta | Surface::Reconcile => {
            // Stream cases pin `seed=`, `spec=`, and `ops=[..]` as text.
            // Once the divergence they caught is fixed, the stream must
            // stay clean forever — that is the regression being pinned.
            let (seed, spec, ops) = parse_stream_case(case)?;
            let run = match case.surface {
                Surface::Delta => crate::deltas::run_case,
                _ => crate::reconcile::run_case,
            };
            return run(seed, spec, &ops)
                .map_err(|why| format!("{}: pinned stream case fails again: {why}", case.name));
        }
    };
    if let CaseOutcome::Violation(why) = &outcome {
        return Err(format!(
            "{}: invariant violation on replay: {why}",
            case.name
        ));
    }
    let got = disposition(&outcome);
    if !case.expect.is_empty() && got != case.expect {
        return Err(format!(
            "{}: disposition changed: pinned {:?}, got {got:?}",
            case.name, case.expect
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrips_hex() {
        let case = CorpusCase {
            name: "wire-sample".to_string(),
            surface: Surface::Wire,
            note: "sample bytes".to_string(),
            expect: "reject:truncated".to_string(),
            data: (0..100u8).collect(),
        };
        let text = encode(&case);
        let back = decode("wire-sample", &text).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn encode_decode_roundtrips_text() {
        let case = CorpusCase {
            name: "plan-sample".to_string(),
            surface: Surface::Plan,
            note: "a plan with comments".to_string(),
            expect: "accept".to_string(),
            data: b"# heh\n@1ms crash vswitch=0".to_vec(),
        };
        let text = encode(&case);
        let back = decode("plan-sample", &text).unwrap();
        assert_eq!(back, case);
    }

    #[test]
    fn decode_rejects_junk() {
        assert!(decode("x", "no header").is_err());
        assert!(decode("x", "#! surface: wire\n#! ---\nzz").is_err());
        assert!(decode("x", "#! ---\nffff").is_err());
    }
}
