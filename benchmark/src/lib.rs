//! The MTS simulator's benchmark: six fixed-work workloads, end-to-end
//! metrics measured with tracing off, and a per-layer trace recorded from
//! the outside, around calls into each crate's public functions.
//!
//! Wall clock and the counting allocator live here and nowhere in the
//! simulator. See `README.md` beside this crate for how every number is
//! measured.

pub mod alloc;
pub mod compare;
pub mod harness;
pub mod json;
pub mod layers;
pub mod report;
pub mod spans;
pub mod stats;
pub mod workloads;
