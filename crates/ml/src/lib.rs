//! # antdt-ml — minimal ML substrate
//!
//! The AntDT paper's statistical-integrity claims (§VII-D2: AUC unaffected by
//! failovers; gradient accumulation preserving the global batch) need *real*
//! gradient math, not just a timing model. This crate provides exactly enough ML
//! to make those experiments honest:
//!
//! * one-hot classification datasets in a flat CSR layout ([`data`]),
//! * a factorization-machine model — the stand-in for the XDeepFM CTR model
//!   trained on Criteo in the paper ([`model`]),
//! * an SGD optimizer ([`optim`]),
//! * exact AUC ([`metrics`]).
//!
//! Simulated time and real math are decoupled: the training runtimes in
//! `antdt-core` can run with real gradients (integrity experiments) or with
//! cost-model-only "ghost" math (large timing sweeps).

pub mod data;
mod lanes;
pub mod metrics;
pub mod model;
pub mod optim;

pub use data::{Dataset, Row};
pub use metrics::auc;
pub use model::FactorizationMachine;
pub use optim::Sgd;
