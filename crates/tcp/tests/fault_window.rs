//! Property test: TCP across a *fault window* either completes or fails
//! cleanly — never hangs, never double-delivers.
//!
//! The channel is healthy, then goes totally dark for a window (the
//! blast-radius experiments' vswitch outage seen from the transport
//! layer), then comes back — optionally with residual burst loss. The
//! properties:
//!
//! - **No stuck connections.** Every run terminates: either all bytes
//!   arrive, or the sender's RTO retry budget (`rto_max_retries`)
//!   exhausts and the connection resets. There is no third state.
//! - **No duplicated delivered bytes.** Whatever the outage does to the
//!   retransmission exchange, in-order delivery never exceeds the bytes
//!   sent (retransmitted data must not be delivered twice).
//! - If the window is shorter than the retry budget allows, the transfer
//!   completes exactly.

mod common;

use common::{run_transfer, Channel, Outcome};
use mts_fuzz::prop::{check, DetRng};
use mts_sim::{Dur, Time};
use mts_tcp::TcpConfig;

/// Transfers `bytes` over a channel with 100 us delay that goes dark for
/// `dark_ms` from `dark_from_ms` and loses `loss` per mille outside that
/// window, from a sender that resets after `max_retries` RTOs. The
/// handshake happens before the window opens.
fn transfer(
    bytes: u64,
    (dark_from_ms, dark_ms): (u64, u64),
    loss: u16,
    seed: u64,
    max_retries: u32,
) -> Outcome {
    let cfg = TcpConfig {
        rto_max_retries: max_retries,
        ..TcpConfig::default()
    };
    let from = Time::ZERO + Dur::millis(dark_from_ms);
    let ch = Channel {
        dark: (from, from + Dur::millis(dark_ms)),
        loss_permille: loss,
        rng: DetRng::new(seed),
        delay: Dur::micros(100),
    };
    run_transfer(bytes, cfg, ch, 200_000)
}

/// Neither completed nor closed within the step budget.
fn stuck(o: &Outcome, bytes: u64) -> bool {
    o.delivered < bytes && !o.client_closed
}

const CASES: u64 = 32;

/// Complete or fail cleanly — and never deliver a byte twice.
#[test]
fn outage_completes_or_resets_cleanly() {
    let gen = |rng: &mut DetRng| {
        let (bytes, dark) = (rng.between(1, 99_999), (rng.below(20), rng.below(30_000)));
        let (loss, seed) = (rng.below(200) as u16, rng.between(0, u64::MAX));
        (bytes, dark, loss, seed, rng.between(3, 7) as u32)
    };
    let name = "outage_completes_or_resets_cleanly";
    check(name, CASES, gen, |&(bytes, dark, loss, seed, retries)| {
        let o = transfer(bytes, dark, loss, seed, retries);
        assert!(!stuck(&o, bytes), "connection neither completed nor closed");
        assert!(
            o.delivered <= bytes,
            "delivered {} > sent {bytes}",
            o.delivered
        );
        assert_eq!(o.server_total, o.delivered, "stack accounting disagrees");
        if !o.client_closed {
            assert_eq!(o.delivered, bytes, "open connection must have finished");
        }
    });
}

/// A short flap (well inside the retry budget) is absorbed: the
/// transfer completes exactly, no duplicates, no reset.
#[test]
fn short_flap_is_survived() {
    let gen = |rng: &mut DetRng| {
        let dark = (rng.below(10), rng.between(1, 399));
        (rng.between(1, 99_999), dark, rng.between(0, u64::MAX))
    };
    check(
        "short_flap_is_survived",
        CASES,
        gen,
        |&(bytes, dark, seed)| {
            let o = transfer(bytes, dark, 0, seed, 15);
            assert!(!stuck(&o, bytes));
            assert_eq!(o.delivered, bytes);
            assert!(!o.client_closed || o.delivered == bytes);
        },
    );
}

/// Deterministic witness for the give-up path: a permanent blackout must
/// end in a clean reset after exactly the configured retries, with the
/// retransmission gaps growing (exponential backoff) — no infinite loop.
#[test]
fn permanent_blackout_exhausts_retries_and_resets() {
    // Dark from t=0: no data segment ever crosses (the handshake happens
    // out of band above), so the sender must burn its whole retry budget.
    let o = transfer(50_000, (0, 10_000_000), 0, 1, 5);
    assert!(!stuck(&o, 50_000));
    assert!(o.client_closed, "sender must give up");
    assert!(o.delivered < 50_000);
}
