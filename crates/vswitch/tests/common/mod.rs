//! Generators both vswitch property suites share.

use mts_fuzz::prop::DetRng;
use mts_net::{Frame, MacAddr};
use std::net::Ipv4Addr;

/// Any `u32`.
pub fn arb_u32(rng: &mut DetRng) -> u32 {
    rng.below(1 << 32) as u32
}

/// A 64-byte UDP frame with random MACs, IPs and ports, tagged four times
/// in five.
pub fn arb_frame(rng: &mut DetRng) -> Frame {
    let (src, dst) = (MacAddr::local(arb_u32(rng)), MacAddr::local(arb_u32(rng)));
    let (sip, dip) = (Ipv4Addr::from(arb_u32(rng)), Ipv4Addr::from(arb_u32(rng)));
    let (sp, dp) = (rng.below(1 << 16) as u16, rng.below(1 << 16) as u16);
    let f = Frame::udp_data(src, dst, sip, dip, sp, dp, 64);
    match rng.below(5) {
        0 => f,
        _ => f.with_vlan(rng.between(1, 4094) as u16),
    }
}
