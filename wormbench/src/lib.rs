//! End-to-end and per-layer benchmark of wormsim: four workloads that
//! span every crate between a user's question and an answer (see
//! `README.md` next to this crate's manifest).

pub mod adapter;
pub mod bench;
pub mod calibrate;
pub mod digest;
pub mod inputs;
pub mod pins;
pub mod stats;
pub mod trace;
pub mod workloads;
