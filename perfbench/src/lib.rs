//! The AkitaRTM reproduction's benchmark: simulation host time on the
//! paper's 4-chiplet MCM-GPU, what live monitoring costs, and how fast the
//! dashboard's queries are answered, end to end and split by layer.
//! `README.md` in this directory describes the workloads and metrics.

#![deny(unsafe_code)]

pub mod bench;
pub mod digest;
pub mod host;
pub mod queries;
pub mod runner;
pub mod stats;
