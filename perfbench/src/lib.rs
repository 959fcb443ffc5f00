//! A serving benchmark for Graphiti.
//!
//! Two workloads (`read`, `write`) drive a durable,
//! group-committing Graphiti service over a unix socket from two
//! closed-loop client connections.  End-to-end metrics come from the
//! benchmark's own client-side samples; `--trace 1` adds a run that times
//! the public entry point of each layer on the same inputs and reads the
//! registry cells the program keeps.  See `perfbench/README.md`.

pub mod data;
pub mod layers;
pub mod report;
pub mod rng;
pub mod run;
pub mod stats;
