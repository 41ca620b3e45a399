//! Wire-level request/response types for the JSON protocol.
//!
//! Instance and work-item ids on the wire are *external* ids — the
//! shard index is folded into the low bits (see
//! [`crate::shard::ShardPool`]) so a client talks to the pool as if
//! it were one engine.

use serde::{Deserialize, Serialize};
use wfms_model::{Container, ProcessDefinition};

/// Body of `POST /instances`.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SubmitRequest {
    /// Process template to start. Defaults to the server's default
    /// process (the first spec on the `fmtm serve` command line).
    pub process: Option<String>,
    /// Seed values for the process input container.
    pub input: Option<Container>,
}

/// Body of a `201` answer to `POST /instances`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubmitResponse {
    /// External instance id.
    pub id: u64,
    /// Status after the automatic part ran: `"running"` (parked on
    /// manual work or deadlines), `"finished"` or `"cancelled"`.
    pub status: String,
    /// Process output container (final once `status` is `finished`).
    pub output: Container,
}

/// Body of `GET /instances/:id`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StatusResponse {
    /// External instance id.
    pub id: u64,
    /// Process template name.
    pub process: String,
    /// `"running"`, `"finished"` or `"cancelled"`.
    pub status: String,
    /// Template version (spec content hash, hex) the instance is
    /// currently pinned to.
    pub version: String,
    /// Process output container.
    pub output: Container,
}

/// Body of `POST /admin/deploy`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeployRequest {
    /// The new process definition to register side-by-side with any
    /// existing versions of the same name.
    pub definition: ProcessDefinition,
    /// Migration policy for running instances of the process:
    /// `"drain-old"` (default) or `"migrate"` /
    /// `"migrate-at-scope-boundary"`.
    pub policy: Option<String>,
}

/// Body of a `200` answer to `POST /admin/deploy`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeployResponse {
    /// Process template name.
    pub process: String,
    /// Version (spec content hash, hex) now the default for new
    /// submissions of the process.
    pub version: String,
    /// Running instances migrated to the new version.
    pub migrated: u64,
    /// Running instances left draining under their old version (not at
    /// a scope boundary, or policy was `drain-old`).
    pub skipped: u64,
    /// Running instances already on the deployed version.
    pub already_current: u64,
}

/// One work item in a `GET /worklist` answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ItemDto {
    /// External work-item id.
    pub id: u64,
    /// External id of the owning instance.
    pub instance: u64,
    /// Activity path inside the instance.
    pub path: String,
    /// Execution attempt this item belongs to.
    pub attempt: u32,
    /// People the item is offered to.
    pub offered_to: Vec<String>,
}

/// Body of `GET /worklist`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorklistResponse {
    /// Open items across all shards, in external-id order.
    pub items: Vec<ItemDto>,
}

/// Body of `POST /worklist/:item/complete`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CompleteRequest {
    /// Person completing the item (must be on the offer list or the
    /// claimant).
    pub person: String,
}

/// Body of `POST /admin/drain` and `POST /admin/stop` answers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DrainResponse {
    /// Journal events dropped by the drain checkpoints, across shards.
    pub compacted_events: usize,
}

/// Body of a `200` answer to `POST /admin/reload-tenants`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReloadTenantsResponse {
    /// Live (authenticatable) tenants after the reload.
    pub tenants: usize,
}

/// Body of `GET /healthz`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Health {
    /// `"ok"` or `"draining"`.
    pub status: String,
    /// Number of shards.
    pub shards: usize,
    /// Instances resumed from shard journals at the last startup.
    pub recovered_instances: u64,
}

/// Uniform error body for every non-2xx answer.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ErrorResponse {
    /// Machine-readable error class: `"overloaded"`, `"draining"`,
    /// `"not_found"`, `"bad_request"`, `"conflict"`, `"internal"`,
    /// `"unauthorized"` (401: missing/unknown API key) or
    /// `"forbidden"` (403: another tenant's resource).
    pub error: String,
    /// Human-readable detail.
    pub detail: String,
}

impl ErrorResponse {
    /// Builds an error body.
    pub fn new(error: &str, detail: impl Into<String>) -> Self {
        Self {
            error: error.to_owned(),
            detail: detail.into(),
        }
    }
}
