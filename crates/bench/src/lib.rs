//! Figure-reproduction harness for the MTS paper.
//!
//! [`figures`] regenerates every panel of Fig. 5 and Fig. 6, Table 1, the
//! Sec. 3.2 VF-count table, the Sec. 4.2 packet-size sweep and the
//! isolation matrix, and [`slo`] the noisy-neighbour, billing-accuracy and
//! cycle-conservation panels; the `repro` binary prints them and writes CSV
//! files. Timing the simulator is `benchmark/`'s job, not this crate's.
//!
//! Every deployment the Fig. 5, packet-size and Fig. 6 runs simulate is
//! built with the run's own deploy function and statically verified by
//! `mts-isocheck` before it is simulated ([`precheck`]); the `repro verify`
//! target runs the full static suite, including seeded-misconfiguration
//! negative controls. See `VERIFICATION.md`.

pub mod figures;
pub mod precheck;
pub mod slo;

pub use slo::{run_slo_panel, SloPanel};

pub use figures::{
    fig5_panel, fig6_panel, isolation_matrix, pktsize_sweep, vf_count_table, Fig5Panel, Fig6Panel,
    ReproOpts,
};
