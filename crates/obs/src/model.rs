//! Analytical-model telemetry: the per-station blocking/residence
//! breakdown of a solved spec. Plain data — rendering and export live
//! with the consumers.

/// Per-station (per traffic class) solution breakdown from the modeling
/// framework: where a worm's residence time at this station comes from
/// and how blocked its inbound forwards are.
#[derive(Debug, Clone, PartialEq)]
pub struct StationBreakdown {
    /// Class name as given to the framework spec.
    pub name: String,
    /// Arrival rate λ at this station (worms/cycle).
    pub lambda: f64,
    /// Number of servers (bundle width) at the station.
    pub servers: u32,
    /// Effective service time x̄ from the solved model (cycles).
    pub service_time: f64,
    /// Queueing wait W at this station (cycles).
    pub waiting_time: f64,
    /// Lane-slot residence time (equals x̄ when L = 1).
    pub residence: f64,
    /// Per-server utilization λ·x̄ (per-channel arrival rate × service
    /// time; the station's combined rate m·λ over its m servers).
    pub utilization: f64,
    /// Traffic-weighted mean of Eq. 10 blocking factors over the
    /// forwards *into* this station (1.0 when nothing forwards here or
    /// blocking is disabled).
    pub inbound_blocking: f64,
}
