//! A `u64` rendered in decimal on the stack.
//!
//! Instrumentation sites label series by tenant, vswitch, PF and port
//! index; `to_string()` there is a heap allocation per metric update.
//! [`Decimal`] derefs to `str`, so `("tenant", &Decimal::of(t))` reads the
//! same as the `&t.to_string()` it replaces and allocates nothing.

use std::ops::Deref;

/// The decimal digits of a `u64` (at most 20), right-aligned in place.
#[derive(Clone, Copy, Debug)]
pub struct Decimal {
    buf: [u8; 20],
    start: u8,
}

impl Decimal {
    pub fn of(mut v: u64) -> Self {
        let mut buf = [b'0'; 20];
        let mut start = buf.len();
        loop {
            start -= 1;
            buf[start] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        Decimal {
            buf,
            start: start as u8,
        }
    }

    pub fn as_str(&self) -> &str {
        // ASCII digits only, so this never takes the default.
        std::str::from_utf8(&self.buf[usize::from(self.start)..]).unwrap_or_default()
    }
}

impl Deref for Decimal {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_to_string() {
        for v in [0u64, 7, 10, 99, 100, 4_294_967_295, u64::MAX - 1, u64::MAX] {
            assert_eq!(Decimal::of(v).as_str(), v.to_string());
        }
        assert_eq!(&*Decimal::of(3), "3");
    }
}
