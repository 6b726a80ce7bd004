//! # mcsched-service
//!
//! The admission-control service plane: the partitioning algorithms of
//! `mcsched-core` served over newline-delimited JSON, one request or
//! reply per line.
//!
//! * [`protocol`] — the versioned wire format (protocol v1): request
//!   envelopes, replies, and the one-pass request decoder;
//! * [`server`] — the TCP server (`mcexp serve`) and the one-connection
//!   loop `mcexp eval` runs over stdin/stdout, with live
//!   [`ClusterSession`](mcsched_core::ClusterSession)s, bounded worker
//!   pools and typed overload replies;
//! * [`journal`] — the append-only record of committed session
//!   operations behind `serve --journal` / `--recover`;
//! * [`service`] — the `eval` verb's one-shot verdict.
//!
//! The seed oracles (`mcsched-oracle`) are a dev-dependency only: the
//! chaos soak (`cargo test -p mcsched-service --test chaos`) drives
//! seeded fault schedules through [`server::serve_connection_outcome`]
//! and holds every recovered session against their clone-and-retest
//! cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod protocol;
pub mod server;
pub mod service;
