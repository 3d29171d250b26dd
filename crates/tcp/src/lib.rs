//! A simplified Reno TCP stack over the simulated network.
//!
//! The paper's workload evaluation (Sec. 5) benchmarks TCP applications —
//! iperf, Apache and Memcached — whose performance is governed by TCP
//! dynamics: handshake latency, congestion-window growth, loss recovery and
//! RTT sensitivity. This crate provides exactly that, as a *poll-style*
//! state machine with explicit time:
//!
//! - [`Connection`] — one endpoint: Reno congestion control (slow start,
//!   congestion avoidance, fast retransmit/recovery, RTO with exponential
//!   backoff), delayed ACKs, out-of-order reassembly (ranges only — payload
//!   is modelled as byte counts), and the full open/close handshakes.
//! - [`TcpConfig`] — MSS, initial window, RTO bounds, receive window.
//!
//! Segments carry no payload bytes, only lengths ([`mts_net::TcpSegment`]);
//! internally the stream is tracked with 64-bit offsets so multi-gigabyte
//! iperf transfers survive 32-bit sequence wraparound.
//!
//! The stack is deliberately runtime-agnostic: every method takes `now` and
//! appends the segments to emit to a caller-owned buffer; `mts-core` wires
//! it to the event engine.

pub mod config;
pub mod conn;

pub use config::TcpConfig;
pub use conn::{ConnStats, Connection, Output, Progress, State};
