//! # antdt-ml — minimal ML substrate
//!
//! The AntDT paper's statistical-integrity claims (§VII-D2: AUC unaffected by
//! failovers; gradient accumulation preserving the global batch) need *real*
//! gradient math, not just a timing model. This crate provides exactly enough ML
//! to make those experiments honest:
//!
//! * sparse classification datasets in a flat CSR layout ([`data`]),
//! * logistic-regression and factorization-machine models — the FM standing in
//!   for the XDeepFM CTR model trained on Criteo in the paper ([`model`]),
//! * SGD and momentum optimizers plus gradient accumulation ([`optim`],
//!   [`accum`]),
//! * exact AUC / log-loss metrics ([`metrics`]).
//!
//! Simulated time and real math are decoupled: the training runtimes in
//! `antdt-core` can run with real gradients (integrity experiments) or with
//! cost-model-only "ghost" math (large timing sweeps).

pub mod accum;
pub mod data;
mod lanes;
pub mod metrics;
pub mod model;
pub mod optim;

pub use accum::GradAccumulator;
pub use data::{Dataset, Row};
pub use metrics::{auc, log_loss};
pub use model::{FactorizationMachine, LogisticRegression, Model};
pub use optim::{AdaGrad, Momentum, Optimizer, Sgd};
