//! Seeded property tests with shrinking list inputs.
//!
//! A property is a closure with plain `assert!`s. [`check_list`] runs it on
//! `cases` inputs, each drawn from a [`DetRng`] derived from the test's name
//! and the case index, so a case replays from those two alone. A case that
//! panics has its list minimised with [`shrink_set`] (ddmin over the
//! elements, order kept), and the runner panics again naming the test, the
//! case and the minimal input. [`check`] is the same for an input with no
//! list to shrink.

use crate::shrink::shrink_set;
pub use mts_sim::DetRng;
use std::any::Any;
use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs `prop` on `cases` inputs drawn by `gen`, seeded by `name`.
pub fn check<S: Debug>(name: &str, cases: u64, gen: impl Fn(&mut DetRng) -> S, prop: impl Fn(&S)) {
    check_list(
        name,
        cases,
        |rng| (gen(rng), Vec::<()>::new()),
        |s, _| prop(s),
    );
}

/// Runs `prop` on `cases` inputs drawn by `gen`, seeded by `name`: a
/// context `S` that stays fixed and a list that is minimised when a case
/// fails.
pub fn check_list<S: Debug, T: Clone + Debug>(
    name: &str,
    cases: u64,
    gen: impl Fn(&mut DetRng) -> (S, Vec<T>),
    prop: impl Fn(&S, &[T]),
) {
    let root = DetRng::new(0);
    for case in 0..cases {
        let (s, list) = gen(&mut root.derive_indexed(name, case));
        let fails = |l: &[T]| catch_unwind(AssertUnwindSafe(|| prop(&s, l))).err();
        let Some(first) = fails(&list) else {
            continue;
        };
        let (list, why) = if list.is_empty() {
            (String::new(), first)
        } else {
            let minimal = shrink_set(&list, |l| fails(l).is_some());
            let why = fails(&minimal).unwrap_or(first);
            (format!("\n  list: {minimal:?}"), why)
        };
        let why = message(why.as_ref());
        panic!("property `{name}` failed on case {case}: {why}\n  input: {s:?}{list}");
    }
}

/// The text a panic carried.
fn message(payload: &(dyn Any + Send)) -> &str {
    match payload.downcast_ref::<String>() {
        Some(s) => s,
        None => payload.downcast_ref::<&str>().copied().unwrap_or("panic"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn failure(run: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(run)).expect_err("the property fails");
        message(payload.as_ref()).to_string()
    }

    #[test]
    fn a_failing_list_is_reported_minimal() {
        let gen = |rng: &mut DetRng| ((), (0..200).map(|_| rng.below(10)).collect());
        let msg = failure(|| check_list("no_sevens", 50, gen, |_, l| assert!(!l.contains(&7))));
        assert!(
            msg.starts_with("property `no_sevens` failed on case 0: "),
            "{msg}"
        );
        assert!(msg.ends_with("list: [7]"), "{msg}");
    }

    #[test]
    fn cases_replay_from_the_name_and_index() {
        let draws = |name| {
            let seen = std::cell::RefCell::new(Vec::new());
            check(
                name,
                8,
                |rng| rng.below(1 << 40),
                |&x| seen.borrow_mut().push(x),
            );
            seen.into_inner()
        };
        assert_eq!(draws("a"), draws("a"));
        assert_ne!(draws("a"), draws("b"));
        let msg = failure(|| check("odd", 64, |rng| rng.below(1 << 40), |x| assert!(x % 2 == 0)));
        assert!(msg.contains("property `odd` failed on case"), "{msg}");
        assert!(msg.contains("input: "), "{msg}");
    }
}
