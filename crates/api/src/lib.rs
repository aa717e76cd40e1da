//! HTTP query/serving front end for the juridical archive.
//!
//! The paper's data-center side ends at offline `AuditBundle` files;
//! this crate is the read path that makes the archive *usable* at
//! reader scale — investigators, insurers, and regulators querying
//! block history, reconstructing timelines, and downloading
//! court-ready proofs over plain HTTP:
//!
//! | Endpoint | Serves |
//! |---|---|
//! | `GET /healthz` | liveness probe |
//! | `GET /metrics` | Prometheus exposition of the wired registry |
//! | `GET /v1/trains` | fleet inventory: heads, segment/request counts |
//! | `GET /v1/trains/<id>/blocks?from_sn=&limit=` | cursor-paginated block summaries |
//! | `GET /v1/trains/<id>/timeline?from_ms=&to_ms=` | juridical timeline analysis |
//! | `GET /v1/trains/<id>/bundle/<sn>` | `.zab` audit bundle, verifiable offline |
//!
//! Matching the repo's zero-dependency shim discipline, the crate
//! brings its own strict HTTP/1.1 parser ([`http`]) and threaded server
//! ([`ApiServer`]) instead of axum/hyper. Policy lives in front of the
//! archive: bearer-token auth ([`auth`]), per-client token-bucket rate
//! limiting ([`ratelimit`]), and a response cache keyed on immutable
//! archive state ([`cache`]) — sealed segments never change, so cached
//! responses never invalidate. [`ApiService`] is the transport-free
//! core (testable and benchmarkable without sockets); a minimal
//! keep-alive [`HttpClient`] drives load tests and smoke jobs.

#![warn(missing_docs)]

pub mod auth;
pub mod cache;
pub mod client;
pub mod http;
pub mod ratelimit;
mod server;

/// The JSON writer behind every response: the workspace's one writer,
/// shared with the trace dumps.
pub use zugchain_telemetry::json;

pub use client::{ClientResponse, HttpClient};
pub use server::{ApiConfig, ApiServer, ApiService, Backend};
