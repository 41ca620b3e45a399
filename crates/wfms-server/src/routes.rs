//! The route table: what each method and path answers.
//!
//! Every route, synchronous or deferred, produces an [`Answer`]; the
//! reactor ([`crate::server`]) renders it into the connection's reply
//! FIFO. Read-path routes answer on the reactor. Every route that
//! writes — a submit, a work-item completion, a deploy, a tenant
//! reload, a drain or stop — validates on the reactor, hands the work
//! to the shard worker that owns it ([`answer_later`]) and is answered
//! from the completion that worker posts after its flush: a reactor
//! runs no program, writes no journal and touches no file.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use wfms_engine::{EngineError, InstanceStatus, WorklistError};
use wfms_model::{Container, ProcessDefinition};
use wfms_observe::Value;

use crate::api::*;
use crate::deploy::{DeployReport, MigrationPolicy};
use crate::http::Request;
use crate::server::{Completion, Deferred, ReactorShared, ServerState, Turn};
use crate::shard::{PoolError, Sink, SubmitDispatch, SubmitReply, STOPPED};
use crate::tenant::{bearer_token, Tenant};

const JSON: &str = "application/json";
const PROM: &str = "text/plain; version=0.0.4";

fn status_str(s: InstanceStatus) -> &'static str {
    match s {
        InstanceStatus::Running => "running",
        InstanceStatus::Finished => "finished",
        InstanceStatus::Cancelled => "cancelled",
    }
}

/// A route's reply, before rendering: every route, synchronous or
/// deferred, produces one, and [`Conn::reply`] renders it.
pub(crate) struct Answer {
    pub(crate) status: u16,
    pub(crate) content_type: &'static str,
    pub(crate) body: String,
    /// Extra response headers (`allow`, `www-authenticate`,
    /// `retry-after`).
    pub(crate) extra: Vec<(&'static str, &'static str)>,
    /// Force `connection: close` regardless of the request's
    /// keep-alive wish — the error-path rule for 401/403/429: never
    /// leave a connection open after refusing to serve it.
    pub(crate) force_close: bool,
}

impl Answer {
    fn text(status: u16, content_type: &'static str, body: String) -> Answer {
        Answer {
            status,
            content_type,
            body,
            extra: Vec::new(),
            force_close: false,
        }
    }

    /// `value` as the JSON body.
    fn json<T: serde::Serialize>(status: u16, value: &T) -> Answer {
        let body = serde_json::to_string(value).expect("a reply body serializes");
        Answer::text(status, JSON, body)
    }

    /// The uniform error body: `{"error": class, "detail": detail}`.
    pub(crate) fn error(status: u16, class: &str, detail: &str) -> Answer {
        Answer::json(status, &ErrorResponse::new(class, detail))
    }

    fn header(mut self, name: &'static str, value: &'static str) -> Answer {
        self.extra.push((name, value));
        self
    }

    fn closing(mut self) -> Answer {
        self.force_close = true;
        self
    }
}

/// `403`: authenticated, but the resource belongs to another tenant.
/// Closes the connection.
fn forbidden(detail: &str) -> Answer {
    Answer::error(403, "forbidden", detail).closing()
}

fn method_not_allowed(allow: &'static str) -> Answer {
    Answer::error(405, "bad_request", "method not allowed").header("allow", allow)
}

/// A request body as the route's JSON shape, or the `400` that says
/// why not.
fn json_body<T: serde::Deserialize>(req: &Request) -> Result<T, Answer> {
    let text = std::str::from_utf8(&req.body)
        .map_err(|_| Answer::error(400, "bad_request", "body is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| Answer::error(400, "bad_request", &format!("bad body: {e}")))
}

/// Routes one request: a synchronous answer goes into a ready slot;
/// every route that writes allocates a pending slot that a completion
/// fills later.
pub(crate) fn dispatch(turn: &mut Turn<'_>, req: &Request) {
    let state = turn.state;
    let close = req.wants_close();
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    // Data-plane routes authenticate when tenancy is enabled; the ops
    // plane (healthz, metrics, admin) stays open — it is the operator's
    // surface, not a tenant's, and quota/fairness never apply to it.
    let data_plane = matches!(segments.first(), Some(&"instances" | &"worklist"));
    let tenant: Option<Arc<Tenant>> = if state.pool.tenancy_enabled() && data_plane {
        let resolved = req
            .header("authorization")
            .and_then(bearer_token)
            .and_then(|token| state.pool.authenticate(token.as_bytes()));
        match resolved {
            Some(t) => Some(t),
            None => {
                let detail = if req.header("authorization").is_none() {
                    "missing Authorization header (expected `Bearer <api-key>`)"
                } else {
                    "unrecognized API key"
                };
                // Challenges with `www-authenticate` and closes.
                let refusal = Answer::error(401, "unauthorized", detail)
                    .header("www-authenticate", "Bearer")
                    .closing();
                return turn.conn.reply(None, refusal, close, false);
            }
        }
    } else {
        None
    };
    let answer = match segments.as_slice() {
        ["instances"] => match req.method.as_str() {
            "POST" => return submit(turn, req, tenant, close),
            _ => method_not_allowed("POST"),
        },
        ["instances", id] => match req.method.as_str() {
            "GET" => instance_status(state, id, tenant.as_ref()),
            _ => method_not_allowed("GET"),
        },
        ["worklist"] => match req.method.as_str() {
            "GET" => worklist(state, req, tenant.as_ref()),
            _ => method_not_allowed("GET"),
        },
        ["worklist", item, "complete"] => match req.method.as_str() {
            "POST" => match complete_request(state, req, item, tenant.as_ref()) {
                Ok((ext, person)) => {
                    let sink =
                        answer_later(turn, close, false, move |done| complete_answer(ext, done));
                    return state.pool.complete_with(ext, person, sink);
                }
                Err(refusal) => refusal,
            },
            _ => method_not_allowed("POST"),
        },
        ["metrics"] => match req.method.as_str() {
            "GET" => Answer::text(200, PROM, scrape(state)),
            _ => method_not_allowed("GET"),
        },
        ["healthz"] => match req.method.as_str() {
            "GET" => {
                let draining = state.draining.load(Ordering::SeqCst);
                let health = Health {
                    status: if draining { "draining" } else { "ok" }.to_owned(),
                    shards: state.pool.shards(),
                    recovered_instances: state.pool.recovered_instances(),
                };
                Answer::json(200, &health)
            }
            _ => method_not_allowed("GET"),
        },
        ["admin", "deploy"] => match req.method.as_str() {
            "POST" => match deploy_request(state, req) {
                Ok((definition, policy)) => {
                    let sink = answer_later(turn, close, false, deploy_answer);
                    return state.pool.deploy_with(definition, policy, sink);
                }
                Err(refusal) => refusal,
            },
            _ => method_not_allowed("POST"),
        },
        ["admin", "reload-tenants"] => match req.method.as_str() {
            "POST" => match &state.tenants_path {
                Some(path) => {
                    let sink = answer_later(turn, close, false, reload_answer);
                    return state.pool.reload_tenants(path.clone(), sink);
                }
                None => Answer::error(
                    400,
                    "bad_request",
                    "tenancy is not enabled on this server (start with --tenants)",
                ),
            },
            _ => method_not_allowed("POST"),
        },
        ["admin", verb @ ("drain" | "stop")] => match req.method.as_str() {
            "POST" => {
                // The stop answer always closes the connection, and no
                // more requests are read from it: the server is about
                // to exit.
                let stop = *verb == "stop";
                turn.conn.input_dead |= stop;
                state.draining.store(true, Ordering::SeqCst);
                let sink = answer_later(turn, close || stop, stop, drain_answer);
                return state.pool.drain_with(sink);
            }
            _ => method_not_allowed("POST"),
        },
        _ => Answer::error(404, "not_found", "no such route"),
    };
    turn.conn.reply(None, answer, close, false);
}

/// Promises this request a reply slot and returns the sink that fills
/// it: whatever thread the pool answers on — a shard worker, after its
/// flush — renders the answer there and posts it to this reactor's
/// completion queue, exactly as a submit's reply travels. A sink
/// dropped uncalled — its job was abandoned by a worker that died —
/// still fills the slot, as a submission's would be: `500 shard worker
/// stopped`.
fn answer_later<T>(
    turn: &mut Turn<'_>,
    close: bool,
    stop: bool,
    render: impl FnOnce(T) -> Answer + Send + 'static,
) -> Sink<T> {
    let promised = Promised {
        shared: Some(Arc::clone(turn.shared)),
        conn: turn.token,
        slot: turn.conn.alloc_slot(),
        close,
        stop,
    };
    Box::new(move |result| promised.fill(render(result)))
}

/// A reply slot a deferred route promised, filled exactly once: by
/// [`Promised::fill`], or on drop with the abandoned job's `500`.
struct Promised {
    /// `None` once filled.
    shared: Option<Arc<ReactorShared>>,
    conn: u64,
    slot: u64,
    close: bool,
    stop: bool,
}

impl Promised {
    fn fill(mut self, answer: Answer) {
        self.post(answer);
    }

    fn post(&mut self, answer: Answer) {
        if let Some(shared) = self.shared.take() {
            shared.post(Completion {
                conn: self.conn,
                slot: self.slot,
                close: self.close,
                stop: self.stop,
                answer: Deferred::Answer(answer),
            });
        }
    }
}

impl Drop for Promised {
    fn drop(&mut self) {
        self.post(Answer::error(500, "internal", STOPPED));
    }
}

/// The reply to a submit, from what its shard answered after the group
/// commit.
pub(crate) fn submit_answer(reply: SubmitReply) -> Answer {
    match reply {
        Ok((id, status, output)) => Answer::json(
            201,
            &SubmitResponse {
                id,
                status: status_str(status).to_owned(),
                output,
            },
        ),
        Err((error, true)) => Answer::error(404, "not_found", &error),
        Err((error, false)) => Answer::error(500, "internal", &error),
    }
}

/// `POST /instances`: validate on the reactor, then hand the start to
/// its shard. The response slot is filled by the group-commit
/// completion — the reactor never waits on a journal flush.
fn submit(turn: &mut Turn<'_>, req: &Request, tenant: Option<Arc<Tenant>>, close: bool) {
    let state = turn.state;
    let body = if state.draining.load(Ordering::SeqCst) {
        Err(Answer::error(503, "draining", "server is draining"))
    } else if req.body.is_empty() {
        Ok(SubmitRequest::default())
    } else {
        json_body(req)
    };
    let body = match body {
        Ok(body) => body,
        Err(refusal) => return turn.conn.reply(None, refusal, close, false),
    };
    let process = body
        .process
        .unwrap_or_else(|| state.default_process.clone());
    let input = body.input.unwrap_or_else(Container::empty);

    let (conn, slot) = (turn.token, turn.conn.alloc_slot());
    let sink = {
        let shared = Arc::clone(turn.shared);
        Box::new(move |reply: SubmitReply| {
            shared.post(Completion {
                conn,
                slot,
                close,
                stop: false,
                answer: Deferred::Submit(reply),
            });
        })
    };
    if let SubmitDispatch::Overloaded { depth, capacity } =
        state.pool.submit_with(&process, input, tenant, sink)
    {
        // The sink was dropped uncalled; fill the slot now. A 429
        // always closes (error-path rule) and names a retry horizon —
        // overload is measured in group-commit batches, so one second
        // is conservatively past it.
        let detail = format!("queue at high-water mark ({depth}/{capacity})");
        let refusal = Answer::error(429, "overloaded", &detail)
            .header("retry-after", "1")
            .closing();
        turn.conn.reply(Some(slot), refusal, close, false);
    }
}

/// `POST /admin/reload-tenants`: shard 0's worker has re-read the
/// tenants file the server was started with and swapped the live table.
fn reload_answer(reloaded: Result<usize, PoolError>) -> Answer {
    match reloaded {
        Ok(tenants) => Answer::json(200, &ReloadTenantsResponse { tenants }),
        Err(PoolError::Rejected(e)) => Answer::error(400, "bad_request", &e),
        Err(e) => Answer::error(500, "internal", &e.to_string()),
    }
}

/// `POST /admin/drain|stop`: every shard has run dry and checkpointed.
/// A failed drain on the stop path still stops the server — it answers
/// with the drain result and stops regardless.
fn drain_answer(drained: Result<usize, EngineError>) -> Answer {
    match drained {
        Ok(compacted_events) => Answer::json(200, &DrainResponse { compacted_events }),
        Err(e) => Answer::error(500, "internal", &e.to_string()),
    }
}

/// `POST /admin/deploy`, the part done on the reactor: parse and
/// policy-check.
fn deploy_request(
    state: &ServerState,
    req: &Request,
) -> Result<(ProcessDefinition, MigrationPolicy), Answer> {
    if state.draining.load(Ordering::SeqCst) {
        return Err(Answer::error(503, "draining", "server is draining"));
    }
    let body: DeployRequest = json_body(req)?;
    let policy = match body.policy.as_deref() {
        None => MigrationPolicy::DrainOld,
        Some(s) => MigrationPolicy::parse(s).ok_or_else(|| {
            let detail = format!("unknown policy {s:?} (expected \"drain-old\" or \"migrate\")");
            Answer::error(400, "bad_request", &detail)
        })?,
    };
    Ok((body.definition, policy))
}

/// `POST /admin/deploy`: every shard has registered (and migrated,
/// per policy) and flushed.
fn deploy_answer(deployed: Result<DeployReport, PoolError>) -> Answer {
    match deployed {
        Ok(report) => Answer::json(
            200,
            &DeployResponse {
                process: report.process,
                version: report.version,
                migrated: report.migrated,
                skipped: report.skipped,
                already_current: report.already_current,
            },
        ),
        Err(e @ PoolError::Rejected(_)) => Answer::error(400, "bad_request", &e.to_string()),
        Err(e) => Answer::error(500, "internal", &e.to_string()),
    }
}

fn instance_status(state: &Arc<ServerState>, id: &str, tenant: Option<&Arc<Tenant>>) -> Answer {
    let Ok(ext) = id.parse::<u64>() else {
        return Answer::error(400, "bad_request", "instance id must be an integer");
    };
    // Wrong-tenant reads are refused *before* resolution: the slot is
    // part of the id, so a mismatch is a cross-tenant probe, not a
    // lookup miss.
    if let Some(t) = tenant {
        if state.pool.slot_of(ext) != Some(t.slot) {
            return forbidden(&format!("instance {ext} belongs to another tenant"));
        }
    }
    match state.pool.status(ext) {
        Some((process, status, version, output)) => Answer::json(
            200,
            &StatusResponse {
                id: ext,
                process,
                status: status_str(status).to_owned(),
                version,
                output,
            },
        ),
        None => Answer::error(404, "not_found", &format!("no instance {ext}")),
    }
}

fn worklist(state: &Arc<ServerState>, req: &Request, tenant: Option<&Arc<Tenant>>) -> Answer {
    let person = match req.query_param("person") {
        Ok(Some(p)) => p,
        Ok(None) => return Answer::error(400, "bad_request", "missing ?person= query parameter"),
        Err(e) => return Answer::error(400, "bad_request", &e.message()),
    };
    let items = state
        .pool
        .worklist(&person, tenant.map(|t| t.slot))
        .into_iter()
        .map(|(id, instance, item)| ItemDto {
            id,
            instance,
            path: item.path,
            attempt: item.attempt,
            offered_to: item.offered_to,
        })
        .collect();
    Answer::json(200, &WorklistResponse { items })
}

/// `POST /worklist/:id/complete`, the part done on the reactor: the
/// item's wire id and who completes it.
fn complete_request(
    state: &Arc<ServerState>,
    req: &Request,
    item: &str,
    tenant: Option<&Arc<Tenant>>,
) -> Result<(u64, String), Answer> {
    let ext = item
        .parse::<u64>()
        .map_err(|_| Answer::error(400, "bad_request", "work-item id must be an integer"))?;
    if tenant.is_some_and(|t| state.pool.slot_of(ext) != Some(t.slot)) {
        let detail = format!("work item {ext} belongs to another tenant");
        return Err(forbidden(&detail));
    }
    let body: CompleteRequest = json_body(req)?;
    Ok((ext, body.person))
}

/// `POST /worklist/:id/complete`: the item's shard has executed it,
/// navigated onward and flushed.
fn complete_answer(ext: u64, done: Result<(), EngineError>) -> Answer {
    match done {
        Ok(()) => Answer::text(200, JSON, "{}".to_owned()),
        Err(EngineError::Worklist(WorklistError::NoSuchItem(_))) => {
            Answer::error(404, "not_found", &format!("no work item {ext}"))
        }
        Err(e @ EngineError::Worklist(_)) | Err(e @ EngineError::BadActivityState { .. }) => {
            Answer::error(409, "conflict", &e.to_string())
        }
        Err(EngineError::UnknownInstance(_)) => {
            Answer::error(404, "not_found", "owning instance is gone")
        }
        Err(e) => Answer::error(500, "internal", &e.to_string()),
    }
}

/// `GET /metrics`: the pool's snapshot — what the shards count on its
/// registry (the hot-path `nav.*` hooks are off under `serve`, so those
/// read 0) and what their engines sample, the `journal.*` and
/// `db.wal_*` levels among it: the bound on a long-lived server's
/// memory, where an operator can see it — and the server's own two
/// levels.
fn scrape(state: &Arc<ServerState>) -> String {
    let mut snapshot = state.pool.snapshot();
    let recovered = state.pool.recovered_instances() as i64;
    let queued = Value::Gauge(state.pool.queue_depth());
    snapshot.push("server.queue.depth", None, queued);
    snapshot.push("server.recovered.instances", None, Value::Gauge(recovered));
    snapshot.to_prometheus()
}
