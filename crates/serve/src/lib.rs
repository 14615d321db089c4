//! # coca-serve — resident COCA control service on live signal streams
//!
//! Everything before this crate runs the controller over *materialized*
//! traces; the paper's setting is a control loop that never ends. This
//! crate is that loop as a process:
//!
//! * **Ingest** ([`ingest`]): workload/price/renewable slot updates arrive
//!   as NDJSON ([`proto::InMsg`]) on stdin or a TCP socket and flow into
//!   the engine through the push-capable
//!   [`SlotSource`](coca_dcsim::SlotSource) channel — bounded, in-order,
//!   backpressured.
//! * **Control** ([`service`]): [`SimEngine::run_service`] drives the COCA
//!   controller slot by slot, never busy-waiting on a quiet stream.
//! * **Publish** ([`publish`], [`sink`]): each slot's decision — speed
//!   vector, load split, deficit-queue telemetry — is published as one
//!   NDJSON line ([`proto::OutMsg`]) to stdout and any TCP subscriber.
//! * **Observe** ([`http`]): a minimal HTTP endpoint serves the
//!   [`coca_obs`] metrics registry in Prometheus text format.
//! * **Restart** ([`service::write_checkpoint`]): SIGTERM → atomic
//!   checkpoint → exit; `--resume` continues bit-exactly where the
//!   previous process stopped.
//!
//! The wire format is pinned by `schemas/serve.schema.json` and validated
//! by the `validate-serve` binary; `DESIGN.md` §17 documents the
//! architecture and the backpressure/bit-exactness contracts.
//!
//! [`SimEngine::run_service`]: coca_dcsim::SimEngine::run_service

#![deny(missing_docs, unsafe_code)]
// Diagnostics go through `coca_obs::logger`; only the binaries print.
#![deny(clippy::print_stdout, clippy::print_stderr)]

pub mod http;
pub mod ingest;
pub mod proto;
pub mod publish;
pub mod replay;
pub mod schema;
pub mod service;
pub mod sink;

pub use http::{http_get, spawn_metrics_server};
pub use ingest::{run_ingest, IngestStats};
pub use proto::{DecisionMsg, InMsg, OutMsg, PROTO_VERSION};
pub use publish::{spawn_acceptor, Publisher};
pub use replay::replay;
pub use service::{
    read_checkpoint, run_batch, run_stream, write_checkpoint, ServeConfig, ServeReport,
};
pub use sink::WireSink;
