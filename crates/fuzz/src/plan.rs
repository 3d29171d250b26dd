//! Fuzzing the fault-plan text parser: `mts_faults::FaultPlan::parse`.
//!
//! Fault plans are operator-authored text, so the parser sees typos, not
//! just machine output. The generator emits mostly-valid plans (every verb
//! of the grammar, comments, blank lines) and then mutates at the grammar
//! level: dropped `@` prefixes, missing keys, malformed numbers, absurd
//! durations, unknown verbs, and stray junk tokens.
//!
//! The oracle: `parse` must return `Ok` or a typed [`PlanParseError`](mts_faults::PlanParseError) —
//! never panic — and a plan that parses once must parse again to the same
//! event list (parser determinism).

use crate::shrink;
use crate::{CaseOutcome, Crasher, Surface, SurfaceStats};
use mts_faults::FaultPlan;
use mts_sim::DetRng;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs the plan oracle on one text case.
pub fn check_text(text: &str) -> CaseOutcome {
    let result = catch_unwind(AssertUnwindSafe(|| FaultPlan::parse(text)));
    let plan = match result {
        Err(_) => return CaseOutcome::Violation("panic in FaultPlan::parse".to_string()),
        Ok(Err(_)) => return CaseOutcome::Rejected("plan-parse-error"),
        Ok(Ok(p)) => p,
    };
    // Determinism: a second parse of the same text must yield the same
    // event list.
    let again = catch_unwind(AssertUnwindSafe(|| FaultPlan::parse(text)));
    match again {
        Err(_) => CaseOutcome::Violation("panic on re-parse of accepted plan".to_string()),
        Ok(Err(e)) => CaseOutcome::Violation(format!("accepted plan rejected on re-parse: {e}")),
        Ok(Ok(p2)) => {
            if format!("{:?}", plan.events) == format!("{:?}", p2.events) {
                CaseOutcome::Accepted
            } else {
                CaseOutcome::Violation("re-parse yields different events".to_string())
            }
        }
    }
}

const VERBS: &[&str] = &[
    "crash",
    "hang",
    "slow",
    "flush-veb",
    "wipe-flows",
    "lose-rules",
    "link-flap",
    "vhost-stall",
    "controller-loss",
];

fn random_dur(rng: &mut DetRng) -> String {
    let unit = ["ns", "us", "ms", "s"][rng.index(4)];
    format!("{}{}", rng.below(500), unit)
}

/// Emits one syntactically valid plan line for a random verb.
fn valid_line(rng: &mut DetRng) -> String {
    let at = random_dur(rng);
    match VERBS[rng.index(VERBS.len())] {
        "crash" => {
            if rng.chance(0.5) {
                format!(
                    "@{at} crash vswitch={} crashloop={}",
                    rng.below(4),
                    rng.below(4)
                )
            } else {
                format!("@{at} crash vswitch={}", rng.below(4))
            }
        }
        "hang" => format!(
            "@{at} hang vswitch={} heal={}",
            rng.below(4),
            random_dur(rng)
        ),
        "slow" => format!(
            "@{at} slow vswitch={} factor={} heal={}",
            rng.below(4),
            rng.between(2, 16),
            random_dur(rng)
        ),
        "flush-veb" => format!("@{at} flush-veb pf={}", rng.below(2)),
        "wipe-flows" => format!("@{at} wipe-flows vswitch={}", rng.below(4)),
        "lose-rules" => format!(
            "@{at} lose-rules vswitch={} fraction=0.{}",
            rng.below(4),
            rng.between(1, 9)
        ),
        "link-flap" => format!(
            "@{at} link-flap pf={} down={}",
            rng.below(2),
            random_dur(rng)
        ),
        "vhost-stall" => format!(
            "@{at} vhost-stall tenant={} stall={}",
            rng.below(4),
            random_dur(rng)
        ),
        _ => format!("@{at} controller-loss down={}", random_dur(rng)),
    }
}

/// Applies one grammar-level mutation to a valid line.
fn mutate_line(rng: &mut DetRng, line: &str) -> String {
    match rng.below(8) {
        0 => line.strip_prefix('@').unwrap_or(line).to_string(), // drop the @
        1 => {
            // Drop a token.
            let tokens: Vec<&str> = line.split_whitespace().collect();
            let drop = rng.index(tokens.len());
            tokens
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != drop)
                .map(|(_, t)| *t)
                .collect::<Vec<_>>()
                .join(" ")
        }
        2 => line.replace('=', " "), // break key=value
        3 => format!("{line} bogus={}", rng.below(100)), // unknown key
        4 => format!("@99999999999s {}", &line[1..]), // overflow duration
        5 => line.replacen(|c: char| c.is_ascii_digit(), "x", 1), // bad number
        6 => {
            // Unknown verb.
            let mut tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
            if tokens.len() > 1 {
                tokens[1] = "explode".to_string();
            }
            tokens.join(" ")
        }
        _ => {
            // Junk suffix characters.
            let mut junk = vec![0u8; rng.between(1, 12) as usize];
            rng.fill(&mut junk);
            let junk: String = junk.iter().map(|b| (b'!' + b % 64) as char).collect();
            format!("{line}{junk}")
        }
    }
}

/// Generates one plan text case: a handful of lines, each valid with
/// probability ~0.6, plus occasional comments and blank lines.
pub fn generate_case(rng: &mut DetRng) -> String {
    let mut lines = Vec::new();
    for _ in 0..rng.between(1, 8) {
        if rng.chance(0.1) {
            lines.push(format!("# comment {}", rng.below(100)));
            continue;
        }
        if rng.chance(0.05) {
            lines.push(String::new());
            continue;
        }
        let line = valid_line(rng);
        if rng.chance(0.4) {
            lines.push(mutate_line(rng, &line));
        } else {
            lines.push(line);
        }
    }
    lines.join("\n")
}

/// Runs the fault-plan surface for `budget` cases.
pub fn fuzz(rng: &mut DetRng, budget: u64) -> SurfaceStats {
    let mut stats = SurfaceStats::new(Surface::Plan);
    for i in 0..budget {
        let mut case_rng = rng.derive_indexed("plan-case", i);
        let text = generate_case(&mut case_rng);
        match check_text(&text) {
            CaseOutcome::Accepted => stats.accepted += 1,
            CaseOutcome::Rejected(label) => stats.reject(label),
            CaseOutcome::Violation(why) => {
                let minimized = shrink::shrink_lines(&text, |t| {
                    matches!(check_text(t), CaseOutcome::Violation(_))
                });
                stats.crashers.push(Crasher {
                    surface: Surface::Plan,
                    note: why,
                    data: minimized.into_bytes(),
                });
            }
        }
        stats.cases += 1;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_lines_parse_for_every_verb() {
        let rng = DetRng::new(3).derive("plan-unit");
        for i in 0..200 {
            let line = valid_line(&mut rng.derive_indexed("l", i));
            match check_text(&line) {
                CaseOutcome::Accepted => {}
                other => panic!("{line:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn mutations_never_panic() {
        let rng = DetRng::new(7).derive("plan-mut");
        for i in 0..400 {
            let mut r = rng.derive_indexed("m", i);
            let line = valid_line(&mut r);
            let mutated = mutate_line(&mut r, &line);
            if let CaseOutcome::Violation(why) = check_text(&mutated) {
                panic!("{mutated:?}: {why}");
            }
        }
    }

    #[test]
    fn small_budget_runs_clean() {
        let mut rng = DetRng::new(41);
        let stats = fuzz(&mut rng, 300);
        assert_eq!(stats.cases, 300);
        assert!(stats.crashers.is_empty(), "{:?}", stats.crashers);
        assert!(stats.accepted > 0);
        assert!(stats.rejected() > 0);
    }
}
