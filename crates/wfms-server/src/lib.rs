//! # wfms-server
//!
//! A long-lived workflow service runtime on top of the engine: where
//! `fmtm run` executes a fixed cohort of instances and exits, this
//! crate keeps a process-template federation open for business —
//! accepting starts continuously, surviving restarts, and reporting
//! health — the client/server split of a FlowMark-class WFMS.
//!
//! Three layers:
//!
//! * [`shard`] — the sharded instance manager. N shards, each an
//!   [`wfms_engine::Engine`] with its own durable journal and worker
//!   thread; one bounded admission queue per shard with explicit
//!   `Overloaded` rejection at the high-water mark; per-shard **group
//!   commit** (a journal flush at the end of every batch,
//!   acknowledgements only after it); restart recovery through the
//!   engine's forward-recovery path. What the data directory pins
//!   across reopens (`server.meta.json`, `templates/`) is `store.rs`.
//! * [`http`] — a hand-rolled, zero-dependency HTTP/1.1 subset: an
//!   incremental [`http::Decoder`] that parses pipelined keep-alive
//!   requests from per-connection buffers, hard input limits, typed
//!   400/413 errors.
//! * [`server`] — epoll-backed reactor threads ([`poll`]) that share
//!   the listener `EPOLLEXCLUSIVE` and serve the route table of
//!   `routes.rs` (`POST /instances`, `GET /instances/:id`,
//!   `GET /worklist`, `POST /worklist/:item/complete`, `GET /metrics`,
//!   `POST /admin/drain`, `POST /admin/stop`, …); submit replies are
//!   batched behind each shard's group commit, so a `201` on the wire
//!   implies durability.
//!
//! [`client`] is the matching side: a keep-alive HTTP client with
//! request pipelining, the `fmtm load` generator (closed-loop and
//! open-loop target-RPS schedules with coordinated-omission-corrected
//! latency percentiles), and the verification helpers the
//! crash-restart drill uses.
//!
//! The wire protocol, on-disk layout and recovery guarantee are
//! documented in `docs/serving.md`.

pub mod api;
pub mod client;
pub mod http;
pub mod poll;
mod routes;
pub mod server;
pub mod shard;
mod store;
pub mod tenant;

pub use client::{
    latency_curve, run_load, verify_ids, wait_ready, CurvePoint, Http1Client, LoadOptions,
    LoadReport,
};
pub use server::{Server, ServerConfig};
pub use shard::{
    DeployReport, MigrationPolicy, PoolConfig, PoolError, ShardOpened, ShardPool, Sink,
    SubmitDispatch, SubmitOutcome, SubmitReply,
};
pub use tenant::{parse_tenants, Tenant, TenantSpec, TenantTable, MAX_TENANTS, TENANT_BITS};
