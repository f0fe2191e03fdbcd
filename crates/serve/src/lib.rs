//! sentinel-serve: a networked compile-and-simulate service.
//!
//! Turns the schedule/simulate pipeline into a long-lived service:
//! `POST /v1/compile` schedules assembly text and reports schedule
//! statistics; `POST /v1/simulate` runs a suite benchmark or inline
//! source and reports `Measurement`-style execution statistics;
//! `GET /metrics` exposes the shared metrics registry in Prometheus
//! text format; `GET /healthz` answers liveness probes.
//!
//! Everything is `std`-only: a hand-rolled HTTP/1.1 layer
//! ([`http`]), a fixed worker pool with a bounded queue and 429
//! backpressure ([`pool`]), a content-hash result cache ([`cache`]),
//! and SIGINT-triggered graceful drain ([`signal`], [`server`]).
//! Responses are deterministic bytes — the same request always gets
//! the same body, whether computed or cached, HTTP or in-process.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod cli;
pub mod client;
pub mod http;
pub mod pool;
pub mod prom;
pub mod server;
pub mod signal;
