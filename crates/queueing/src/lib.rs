//! Queueing-theory substrate for wormhole-routing performance models.
//!
//! This crate provides the analytical building blocks used by the
//! Greenberg–Guan (ICPP 1997) wormhole-routing model and its baselines:
//!
//! * [`mg1`] — the M/G/1 queue (Pollaczek–Khinchine mean waiting time,
//!   paper Eq. 4/6) and its M/M/1 and M/D/1 special cases.
//! * [`mmm`] — the M/M/m queue solved exactly (Erlang B and Erlang C).
//! * [`mgm`] — M/G/m approximations: Hokstad's two-server closed form
//!   (paper Eq. 7/8) and the Lee–Longton style scaling of the exact M/M/m
//!   wait by `(1 + C_b²)/2`, which coincides with Hokstad at `m = 2` and
//!   realizes the paper's "extendable to more than two servers" remark.
//! * [`wormhole`] — the wormhole-specific corrections: the Draper–Ghosh
//!   service-variance surrogate `C_b² = (x̄ − s/f)²/x̄²` (paper Eq. 5), and
//!   convenience waiting-time wrappers (paper Eq. 6 and Eq. 8).
//! * [`blocking`] — the blocking-probability correction
//!   `P(i|j) = 1 − m·(λᵢ/λⱼ)·R(i|j)` (paper Eq. 10) that adapts
//!   Poisson-arrival queueing results to wormhole routing.
//! * [`gg1`] — the Kingman / Allen–Cunneen G/G/1 correction for
//!   non-Poisson (bursty MMPP) arrivals, used by the workload extension.
//! * [`lanes`] — multi-lane (virtual-channel) extensions: the
//!   flit-multiplexing residence stretch used by the `wormsim-core`
//!   framework (which prices lane *availability* through M/G/(m·L)
//!   lane-slot waits, i.e. [`mgm`] at `m·L` servers), plus a standalone
//!   geometric-occupancy-tail composition with Eq. 10 for single-station
//!   analyses; all exact no-ops at `L = 1`.
//! * [`distribution`] — service-time distribution descriptions by moments.
//! * [`solver`] — bracketing root finding, used to locate saturation
//!   points.
//!
//! # Conventions
//!
//! Time is measured in router cycles (the paper's "clock steps"); rates are
//! events per cycle. Unless stated otherwise, `lambda` is the **total**
//! Poisson arrival rate offered to a queueing station (for a multi-server
//! station this is the combined rate over all servers), `mean_service` is
//! the mean service time `x̄` of one server, and the offered load in erlangs
//! is `a = λ·x̄` with per-server utilization `ρ = a/m`.
//!
//! All checked entry points return [`QueueingError::Saturated`] when the
//! stability condition `ρ < 1` fails; `*_or_inf` variants return
//! `f64::INFINITY` instead, which composes conveniently with plotting and
//! saturation scans.
//!
//! # Example
//!
//! ```
//! use wormsim_queueing::{mg1, mgm, wormhole};
//!
//! // A wormhole channel serving 16-flit worms with mean service time 20
//! // cycles, fed at 0.01 worms/cycle.
//! let scv = wormhole::wormhole_scv(20.0, 16.0);
//! let w1 = mg1::waiting_time(0.01, 20.0, scv).unwrap();
//!
//! // The same traffic pooled onto a pair of redundant up-links.
//! let w2 = mgm::hokstad_mg2_waiting_time(0.02, 20.0, scv).unwrap();
//! assert!(w2 < w1, "pooling two servers must not increase waiting");
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

pub mod blocking;
pub mod distribution;
pub mod error;
pub mod gg1;
pub mod lanes;
pub mod mg1;
pub mod mgm;
pub mod mmm;
pub mod solver;
pub mod wormhole;

pub use blocking::blocking_probability;
pub use distribution::ServiceMoments;
pub use error::QueueingError;
pub use solver::BisectionConfig;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, QueueingError>;

/// Numerical tolerance used by internal sanity checks and tests.
///
/// Chosen loose enough to absorb accumulated floating-point error in the
/// Erlang recurrences at large `m`, and tight enough that model-level
/// discrepancies (which are orders of magnitude larger) are still caught.
pub const EPSILON: f64 = 1e-9;

#[cfg(test)]
mod crate_tests {
    use super::*;

    #[test]
    fn prelude_reexports_are_usable() {
        let moments = ServiceMoments::deterministic(4.0);
        assert_eq!(moments.mean(), 4.0);
        assert_eq!(moments.scv(), 0.0);
        let err = QueueingError::Saturated { utilization: 1.5 };
        assert!(err.to_string().contains("saturated"));
    }

    #[test]
    fn doc_example_holds() {
        let scv = wormhole::wormhole_scv(20.0, 16.0);
        let w1 = mg1::waiting_time(0.01, 20.0, scv).unwrap();
        let w2 = mgm::hokstad_mg2_waiting_time(0.02, 20.0, scv).unwrap();
        assert!(w2 < w1);
    }
}
