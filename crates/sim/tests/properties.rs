//! Property tests for the simulation substrate.

use mts_fuzz::prop::{check, check_list, DetRng};
use mts_sim::{CoreId, CpuCore, Dur, Engine, Histogram, Ring, Time};

const CASES: u64 = 64;

/// `len` values drawn uniformly from `[lo, hi]`.
fn values(rng: &mut DetRng, len: u64, lo: u64, hi: u64) -> Vec<u64> {
    (0..len).map(|_| rng.between(lo, hi)).collect()
}

/// Histogram percentiles stay within ~3.2% of exact order statistics.
#[test]
fn histogram_tracks_exact_percentiles() {
    let gen = |rng: &mut DetRng| {
        let len = rng.between(50, 399);
        let values = values(rng, len, 1, 99_999_999);
        (1.0 + rng.unit() * 98.0, values)
    };
    let name = "histogram_tracks_exact_percentiles";
    check_list(name, CASES, gen, |&p, values| {
        let mut h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        let mut values = values.to_vec();
        values.sort_unstable();
        let rank = ((p / 100.0) * values.len() as f64).ceil().max(1.0) as usize - 1;
        let exact = values[rank];
        let approx = h.percentile(p);
        // The bucket containing `exact` has a lower bound within 1/32.
        assert!(approx <= exact, "approx {approx} > exact {exact}");
        assert!(
            exact - approx <= exact / 16 + 1,
            "p{p}: approx {approx} too far below exact {exact}"
        );
    });
}

/// Merging histograms equals recording everything into one.
#[test]
fn histogram_merge_is_homomorphic() {
    let gen = |rng: &mut DetRng| {
        let (la, lb) = (rng.between(1, 199), rng.between(1, 199));
        (values(rng, la, 1, 999_999), values(rng, lb, 1, 999_999))
    };
    check("histogram_merge_is_homomorphic", CASES, gen, |(a, b)| {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        let mut hall = Histogram::new();
        for &v in a {
            ha.record(v);
            hall.record(v);
        }
        for &v in b {
            hb.record(v);
            hall.record(v);
        }
        ha.merge(&hb);
        assert_eq!(ha.count(), hall.count());
        assert_eq!(ha.min(), hall.min());
        assert_eq!(ha.max(), hall.max());
        for p in [10.0, 50.0, 90.0] {
            assert_eq!(ha.percentile(p), hall.percentile(p));
        }
    });
}

/// Rings preserve FIFO order and never exceed capacity.
#[test]
fn ring_is_fifo_and_bounded() {
    let gen = |rng: &mut DetRng| {
        let cap = rng.between(1, 63) as usize;
        let len = rng.between(1, 299);
        (cap, (0..len).map(|_| rng.chance(0.5)).collect())
    };
    check_list("ring_is_fifo_and_bounded", CASES, gen, |&cap, ops| {
        let mut r: Ring<u64> = Ring::new(cap);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut next = 0u64;
        for &push in ops {
            if push {
                let accepted = r.push(next);
                if model.len() < cap {
                    assert!(accepted);
                    model.push_back(next);
                } else {
                    assert!(!accepted);
                }
                next += 1;
            } else {
                assert_eq!(r.pop(), model.pop_front());
            }
            assert!(r.len() <= cap);
            assert_eq!(r.len(), model.len());
        }
    });
}

/// Events fire in nondecreasing time order regardless of insertion order.
#[test]
fn engine_fires_in_time_order() {
    let gen = |rng: &mut DetRng| {
        let len = rng.between(1, 199);
        ((), values(rng, len, 0, 999_999))
    };
    check_list("engine_fires_in_time_order", CASES, gen, |_, times| {
        let mut e: Engine<Vec<u64>> = Engine::new();
        let mut fired: Vec<u64> = Vec::new();
        for &t in times {
            e.schedule_at(Time::from_nanos(t), move |w: &mut Vec<u64>, _| w.push(t));
        }
        e.run(&mut fired);
        assert_eq!(fired.len(), times.len());
        for w in fired.windows(2) {
            assert!(w[0] <= w[1], "out of order: {w:?}");
        }
    });
}

/// A core never grants overlapping intervals and time never reverses.
#[test]
fn core_grants_never_overlap() {
    let gen = |rng: &mut DetRng| {
        let len = rng.between(1, 199);
        let req = |rng: &mut DetRng| (rng.below(1_000_000), rng.between(1, 4_999), rng.below(4));
        ((), (0..len).map(|_| req(rng)).collect())
    };
    check_list("core_grants_never_overlap", CASES, gen, |_, reqs| {
        let mut core = CpuCore::new(CoreId(0), Dur::nanos(120));
        let mut sorted = reqs.to_vec();
        sorted.sort_by_key(|(t, _, _)| *t);
        let mut last_end = Time::ZERO;
        for (t, cost, user) in sorted {
            let g = core.acquire(Time::from_nanos(t), user, Dur::nanos(cost));
            assert!(g.start >= last_end, "overlap: {:?} < {last_end:?}", g.start);
            assert!(g.end >= g.start + Dur::nanos(cost));
            last_end = g.end;
        }
    });
}
