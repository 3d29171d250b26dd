//! Property test: TCP delivers everything, in order, over a lossy channel.
//!
//! Two stacks exchange segments through a channel with seeded random loss
//! (up to 40%); timers are driven faithfully. The stack must deliver
//! exactly the bytes sent, for any loss rate, seed and transfer size —
//! the end-to-end argument as a property.

mod common;

use common::{run_transfer, Channel, Outcome};
use mts_fuzz::prop::{check, DetRng};
use mts_sim::{Dur, Time};
use mts_tcp::TcpConfig;

/// Transfers `bytes` with `loss_permille` loss and `delay_us` one-way
/// delay.
///
/// The sender never gives up: at 38% loss a run of `rto_max_retries` (15)
/// lost retransmissions or ACKs ends about one 177 kB transfer in thirty
/// in a clean reset, which `fault_window.rs` covers. The property here is
/// delivery by a sender that keeps retrying.
fn transfer(bytes: u64, loss_permille: u16, seed: u64, delay_us: u64) -> Outcome {
    let cfg = TcpConfig {
        rto_max_retries: u32::MAX,
        ..TcpConfig::default()
    };
    let ch = Channel {
        dark: (Time::ZERO, Time::ZERO),
        loss_permille,
        rng: DetRng::new(seed),
        delay: Dur::micros(delay_us),
    };
    run_transfer(bytes, cfg, ch, 100_000)
}

const CASES: u64 = 48;

#[test]
fn all_bytes_arrive_despite_losses() {
    let gen = |rng: &mut DetRng| {
        let (bytes, loss_permille) = (rng.between(1, 199_999), rng.below(400) as u16);
        (
            bytes,
            loss_permille,
            rng.between(0, u64::MAX),
            rng.between(10, 499),
        )
    };
    let name = "all_bytes_arrive_despite_losses";
    check(name, CASES, gen, |&(bytes, loss, seed, delay_us)| {
        let o = transfer(bytes, loss, seed, delay_us);
        assert!(!o.client_closed, "the sender gave up");
        assert_eq!(o.delivered, bytes, "incremental deliveries disagree");
        assert_eq!(o.server_total, bytes, "stack accounting disagrees");
    });
}

#[test]
fn lossless_transfer_is_exact_and_fast() {
    let gen = |rng: &mut DetRng| rng.between(1, 499_999);
    check(
        "lossless_transfer_is_exact_and_fast",
        CASES,
        gen,
        |&bytes| {
            assert_eq!(transfer(bytes, 0, 1, 50).delivered, bytes);
        },
    );
}
