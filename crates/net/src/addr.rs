//! MAC addresses.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A 48-bit IEEE 802 MAC address.
///
/// # Examples
///
/// ```
/// use mts_net::MacAddr;
/// let m: MacAddr = "52:54:00:00:01:02".parse().unwrap();
/// assert_eq!(m.to_string(), "52:54:00:00:01:02");
/// assert!(m.is_unicast());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
    /// The all-zeros address (unset / placeholder).
    pub const ZERO: MacAddr = MacAddr([0; 6]);

    /// Creates a MAC address from six octets.
    pub const fn new(o: [u8; 6]) -> Self {
        MacAddr(o)
    }

    /// Builds a deterministic, locally-administered unicast address from a
    /// 32-bit tag — used by the testbed to mint VF and VM addresses.
    pub const fn local(tag: u32) -> Self {
        let b = tag.to_be_bytes();
        // 0x52 has the locally-administered bit set and the multicast bit clear.
        MacAddr([0x52, 0x54, b[0], b[1], b[2], b[3]])
    }

    /// Returns the raw octets.
    pub const fn octets(self) -> [u8; 6] {
        self.0
    }

    /// Returns whether this is the broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Returns whether the group (multicast) bit is set.
    pub fn is_multicast(self) -> bool {
        self.0[0] & 0x01 != 0
    }

    /// Returns whether this is a unicast address.
    pub fn is_unicast(self) -> bool {
        !self.is_multicast()
    }

    /// Inverse of [`MacAddr::as_u64`]: rebuilds the address from the low
    /// 48 bits of `v` (the upper 16 bits are ignored).
    pub const fn from_u64(v: u64) -> Self {
        let b = v.to_be_bytes();
        MacAddr([b[2], b[3], b[4], b[5], b[6], b[7]])
    }

    /// Returns the address as a `u64` (upper 16 bits zero), handy for hashing.
    pub fn as_u64(self) -> u64 {
        let o = self.0;
        (u64::from(o[0]) << 40)
            | (u64::from(o[1]) << 32)
            | (u64::from(o[2]) << 24)
            | (u64::from(o[3]) << 16)
            | (u64::from(o[4]) << 8)
            | u64::from(o[5])
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let o = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            o[0], o[1], o[2], o[3], o[4], o[5]
        )
    }
}

impl fmt::Debug for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Error parsing a MAC address from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MacParseError(String);

impl fmt::Display for MacParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid MAC address: {}", self.0)
    }
}

impl std::error::Error for MacParseError {}

impl FromStr for MacAddr {
    type Err = MacParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split(':').collect();
        if parts.len() != 6 {
            return Err(MacParseError(s.to_string()));
        }
        let mut o = [0u8; 6];
        for (i, p) in parts.iter().enumerate() {
            o[i] = u8::from_str_radix(p, 16).map_err(|_| MacParseError(s.to_string()))?;
        }
        Ok(MacAddr(o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_roundtrip() {
        let text = "aa:bb:cc:dd:ee:0f";
        let m: MacAddr = text.parse().unwrap();
        assert_eq!(m.to_string(), text);
        assert_eq!(m.octets(), [0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0x0f]);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert!("aa:bb:cc:dd:ee".parse::<MacAddr>().is_err());
        assert!("aa:bb:cc:dd:ee:ff:00".parse::<MacAddr>().is_err());
        assert!("zz:bb:cc:dd:ee:ff".parse::<MacAddr>().is_err());
        assert!("".parse::<MacAddr>().is_err());
    }

    #[test]
    fn classification_bits() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        let m = MacAddr::new([0x01, 0, 0x5e, 0, 0, 1]);
        assert!(m.is_multicast());
        assert!(!m.is_broadcast());
        let u = MacAddr::local(7);
        assert!(u.is_unicast());
    }

    #[test]
    fn local_is_deterministic_and_distinct() {
        assert_eq!(MacAddr::local(1), MacAddr::local(1));
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
        assert_eq!(
            MacAddr::local(0x01020304).octets(),
            [0x52, 0x54, 1, 2, 3, 4]
        );
    }

    #[test]
    fn as_u64_is_injective_on_octets() {
        let a = MacAddr::new([1, 2, 3, 4, 5, 6]);
        assert_eq!(a.as_u64(), 0x0102_0304_0506);
        assert_ne!(a.as_u64(), MacAddr::new([1, 2, 3, 4, 5, 7]).as_u64());
    }

    #[test]
    fn from_u64_roundtrips() {
        for m in [
            MacAddr::BROADCAST,
            MacAddr::ZERO,
            MacAddr::local(0xdead_beef),
            MacAddr::new([1, 2, 3, 4, 5, 6]),
        ] {
            assert_eq!(MacAddr::from_u64(m.as_u64()), m);
        }
        // Upper 16 bits are ignored.
        assert_eq!(
            MacAddr::from_u64(0xffff_0102_0304_0506),
            MacAddr::new([1, 2, 3, 4, 5, 6])
        );
    }
}
