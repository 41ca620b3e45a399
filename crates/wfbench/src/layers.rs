//! Every call into the program under test.
//!
//! The workloads, probes, tracer and checker are written against this
//! facade only (a unit test enforces it), so a rename in a program
//! API is a one-file follow-up. Each function is a thin wrapper around
//! one public function of one layer; layer names in the per-layer
//! metrics are `crate.module` of the function wrapped.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::Arc;

use exotica::{AtmSpec, PipelineOutput};
use txn_substrate::{
    DurabilityPolicy, FailurePlan, MultiDatabase, ProgramContext, ProgramRegistry, Value,
};
use wfms_engine::{
    audit, recover_from, recover_with_policy, Engine, EngineConfig, Event, InstanceId,
    InstanceStatus, Journal, Observer, RefEngine,
};
use wfms_model::{Container, Expr};
use wfms_observe::{Histogram, Registry};
use wfms_server::api::{StatusResponse, SubmitRequest, SubmitResponse};
use wfms_server::http::{render_response, Decoder, Request};
use wfms_server::{
    PoolConfig, Server, ServerConfig, ShardPool, SubmitDispatch, SubmitOutcome, Tenant, TenantSpec,
    TENANT_BITS,
};

/// Process name of the 8-step linear saga.
pub const SAGA: &str = "saga8";
/// Process name of the Figure 3 flexible transaction.
pub const FLEX: &str = "figure3";
/// Steps of the saga.
pub const SAGA_STEPS: usize = 8;

/// The `fmtm serve` defaults, used on both sides of any comparison.
pub const FLUSH_POLICY: &str = "batched:64";
const DURABILITY: DurabilityPolicy = DurabilityPolicy::Batched { n: 64 };
pub const BATCH_MAX: usize = 64;
pub const QUEUE_CAPACITY: usize = 1024;

/// The two tenants of the tenanted workload: equal-length names and
/// keys, so journal and request bytes do not depend on which tenant
/// the seed picks.
pub const TENANTS: [(&str, &str); 2] = [
    ("tenant_a", "wfbench-key-aaaaaaaaaaaa"),
    ("tenant_b", "wfbench-key-bbbbbbbbbbbb"),
];

// ---------------------------------------------------------------- specs

pub fn saga_text() -> String {
    exotica::emit_spec(&AtmSpec::Saga(atm::fixtures::linear_saga(SAGA, SAGA_STEPS)))
}

pub fn flex_text() -> String {
    exotica::emit_spec(&AtmSpec::Flexible(atm::fixtures::figure3_spec()))
}

/// A specification taken through the Figure 5 pipeline.
pub struct Translated(PipelineOutput);

/// `exotica.pipeline`: spec text → executable template.
pub fn translate(text: &str) -> Translated {
    Translated(exotica::run_pipeline(text).expect("the benchmark's fixed specs translate"))
}

impl Translated {
    /// Top-level pipeline stages with their wall time in microseconds
    /// (the per-pass `analyze:*` breakdown is left out).
    pub fn stage_us(&self) -> Vec<(&'static str, f64)> {
        self.0
            .stage_nanos
            .iter()
            .filter(|(stage, _)| !stage.starts_with("analyze:"))
            .map(|(stage, ns)| (*stage, *ns as f64 / 1e3))
            .collect()
    }
}

/// Step label → abort probability.
pub type Plan<'a> = &'a [(&'a str, f64)];

/// The substrate one engine runs against.
#[derive(Clone)]
pub struct World {
    fed: Arc<MultiDatabase>,
    programs: Arc<ProgramRegistry>,
}

/// `exotica.provision`: a three-site multidatabase and the programs
/// of `specs`, failing per `plan` from streams seeded by `seed`.
pub fn world(specs: &[&Translated], seed: u64, plan: Plan<'_>) -> World {
    let parsed: Vec<AtmSpec> = specs.iter().map(|t| t.0.spec.clone()).collect();
    let plans: Vec<(String, FailurePlan)> = plan
        .iter()
        .map(|(label, p)| ((*label).to_owned(), FailurePlan::Probability { p: *p }))
        .collect();
    let (fed, programs) = exotica::provision(&exotica::steps_of_all(&parsed), seed, &plans);
    World { fed, programs }
}

// ------------------------------------------------------------- outcomes

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum State {
    Running,
    Finished,
    Cancelled,
}

impl From<InstanceStatus> for State {
    fn from(s: InstanceStatus) -> Self {
        match s {
            InstanceStatus::Running => State::Running,
            InstanceStatus::Finished => State::Finished,
            InstanceStatus::Cancelled => State::Cancelled,
        }
    }
}

fn state_of_wire(s: &str) -> Option<State> {
    match s {
        "running" => Some(State::Running),
        "finished" => Some(State::Finished),
        "cancelled" => Some(State::Cancelled),
        _ => None,
    }
}

/// A process output container, compared whole and read through the
/// two facts the translations publish.
#[derive(Debug, Clone, PartialEq)]
pub struct Output(Container);

impl Output {
    fn flag(&self, member: &str) -> bool {
        self.0.get(member).and_then(Value::as_int) == Some(1)
    }

    /// The translated process's `Committed` member.
    pub fn committed(&self) -> bool {
        self.flag("Committed")
    }

    /// Index of the path a flexible transaction committed through.
    pub fn via(&self) -> Option<usize> {
        (0..3).find(|i| self.flag(&format!("Via_{i}")))
    }
}

/// What the program said about one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub id: u64,
    pub state: State,
    pub output: Output,
}

fn input(order: u32) -> Container {
    let mut c = Container::empty();
    c.set("order", Value::Int(i64::from(order)));
    c
}

// --------------------------------------------------------------- engine

/// An embedded engine.
pub struct Eng(Engine);

/// `wfms-engine.engine`: a fresh engine over `world` with `templates`
/// registered; journal in memory, or mirrored to `journal` under the
/// serve flush policy; `observed` switches every metric hook on.
pub fn engine(
    world: &World,
    templates: &[&Translated],
    journal: Option<&Path>,
    observed: bool,
) -> Eng {
    let engine = Engine::with_config(
        Arc::clone(&world.fed),
        Arc::clone(&world.programs),
        EngineConfig {
            journal_path: journal.map(Path::to_path_buf),
            durability: DURABILITY,
            observer: observed.then(|| Arc::new(Observer::enabled())),
            ..EngineConfig::default()
        },
    );
    for t in templates {
        engine.register_compiled(Arc::clone(&t.0.template));
    }
    Eng(engine)
}

impl Eng {
    /// `Engine::register` of the definition (validate, compile,
    /// optimize, insert) — the cost `register_compiled` skips.
    pub fn register(&self, t: &Translated) {
        self.0
            .register(t.0.process.clone())
            .expect("pipeline output validates");
    }

    pub fn start(&self, process: &str, order: u32) -> u64 {
        self.0
            .start(process, input(order))
            .expect("registered process")
            .0
    }

    pub fn run(&self, id: u64) -> State {
        self.0
            .run_to_quiescence(InstanceId(id))
            .expect("no step limit, no journal fault")
            .into()
    }

    pub fn flush(&self) {
        self.0.flush_journal().expect("journal flushes");
    }

    pub fn read(&self, id: u64) -> Option<(State, Output)> {
        let status = self.0.status(InstanceId(id)).ok()?;
        let output = self.0.output(InstanceId(id)).ok()?;
        Some((status.into(), Output(output)))
    }

    pub fn instances(&self) -> usize {
        self.0.instances().len()
    }

    /// Activity executions journalled for instance `id`
    /// (`audit::summarize`).
    pub fn executions(&self, id: u64) -> u64 {
        audit::summarize(&self.0.events_for(InstanceId(id)), InstanceId(id)).executions
    }

    /// A copy of the journal (the engine hands out nothing cheaper),
    /// to be taken once and asked everything.
    pub fn journal(&self) -> Events {
        Events(self.0.journal_events())
    }

    /// `Engine::checkpoint`: snapshot + compaction; events dropped.
    pub fn checkpoint(&self) -> usize {
        self.0.checkpoint()
    }
}

/// Journal events held outside an engine.
pub struct Events(Vec<Event>);

impl Events {
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Execution order (`audit::execution_order`, paths joined by
    /// spaces) of instances `1..=n`, index 0 unused; an event of any
    /// other instance is an error. One pass groups the events by
    /// instance first: the audit function filters the whole list per
    /// call, which is quadratic over a round.
    pub fn orders(self, n: usize) -> Result<Vec<String>, String> {
        let mut groups: Vec<Vec<Event>> = vec![Vec::new(); n + 1];
        for event in self.0 {
            if let Some(InstanceId(i)) = event.instance() {
                groups
                    .get_mut(i as usize)
                    .filter(|_| i > 0)
                    .ok_or_else(|| format!("journal names instance {i}, beyond the {n} started"))?
                    .push(event);
            }
        }
        Ok(groups
            .iter()
            .enumerate()
            .map(|(i, g)| audit::execution_order(g, InstanceId(i as u64)).join(" "))
            .collect())
    }

    /// The first `n` events.
    pub fn truncated(mut self, n: usize) -> Events {
        self.0.truncate(n);
        self
    }

    pub fn chunks(&self, size: usize) -> Vec<Events> {
        self.0.chunks(size).map(|c| Events(c.to_vec())).collect()
    }
}

/// A file-mirrored journal on its own, for the append/flush probes.
pub struct JournalFile(Journal);

/// `wfms-engine.journal`: `Journal::with_file_policy` under the serve
/// flush policy.
pub fn journal_file(path: &Path) -> JournalFile {
    JournalFile(Journal::with_file_policy(path, DURABILITY).expect("journal file opens"))
}

impl JournalFile {
    /// `Journal::append_batch`: encode + one group-commit write.
    pub fn append_batch(&self, batch: Events) {
        self.0.append_batch(batch.0);
    }

    pub fn flush(&self) {
        self.0.flush();
    }
}

/// Bytes the program's journal writes for `events`: they are appended
/// to a fresh journal file at `path` and the file is measured.
pub fn journal_bytes(events: Events, path: &Path) -> Result<u64, String> {
    let file = journal_file(path);
    file.append_batch(events);
    file.flush();
    path.metadata()
        .map(|m| m.len())
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `wfms-engine.journal`: the journal file decoded the way recovery
/// reads it (`Journal::with_file_policy`, then its events), so the
/// on-disk format stays the program's business.
pub fn journal_read(path: &Path) -> Result<Events, String> {
    Journal::with_file_policy(path, DURABILITY)
        .map(|journal| Events(journal.into_events()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `wfms-engine.recovery`: `recover_from` on already-decoded events —
/// replay alone, no file I/O.
pub fn replay(events: Events, templates: &[&Translated], world: &World) -> Eng {
    Eng(recover_from(
        Journal::new(),
        events.0,
        definitions(templates),
        wfms_engine::OrgModel::new(),
        Arc::clone(&world.fed),
        Arc::clone(&world.programs),
    )
    .expect("journal replays"))
}

/// `wfms-engine.recovery`: `recover_with_policy` — decode and replay.
pub fn recover(path: &Path, templates: &[&Translated], world: &World) -> Eng {
    Eng(recover_with_policy(
        path,
        DURABILITY,
        definitions(templates),
        wfms_engine::OrgModel::new(),
        Arc::clone(&world.fed),
        Arc::clone(&world.programs),
    )
    .expect("journal recovers"))
}

fn definitions(templates: &[&Translated]) -> Vec<wfms_model::ProcessDefinition> {
    templates.iter().map(|t| t.0.process.clone()).collect()
}

/// Execution order of instances `1..=n` read from a journal *file*:
/// [`journal_read`], then [`Events::orders`].
pub fn journal_orders(path: &Path, n: usize) -> Result<Vec<String>, String> {
    journal_read(path)?.orders(n)
}

// ----------------------------------------------------------------- pool

/// An authenticated tenant.
#[derive(Clone)]
pub struct TenantHandle(Arc<Tenant>);

/// The sharded instance manager: one shard, serve defaults.
#[derive(Clone)]
pub struct Pool(Arc<ShardPool>);

/// `wfms-server.shard`: `ShardPool::open` on `dir` — creates it, or
/// recovers what it holds. One shard; queue, batch and flush policy
/// are the `fmtm serve` defaults.
pub fn open_pool(
    dir: &Path,
    templates: &[&Translated],
    tenancy: bool,
    seed: u64,
    plan: Plan<'_>,
) -> Result<Pool, String> {
    let mut cfg = PoolConfig::new(dir);
    cfg.shards = 1;
    cfg.queue_capacity = QUEUE_CAPACITY;
    cfg.batch_max = BATCH_MAX;
    cfg.durability = DURABILITY;
    cfg.templates = definitions(templates);
    if tenancy {
        cfg.tenants = TENANTS
            .iter()
            .map(|(name, key)| TenantSpec {
                name: (*name).to_owned(),
                key: (*key).to_owned(),
                weight: 1,
                max_inflight: 256,
            })
            .collect();
    }
    let provision = |shard: usize| {
        let w = world(templates, seed.wrapping_add(shard as u64), plan);
        (w.fed, w.programs)
    };
    ShardPool::open(cfg, Arc::new(Registry::new()), &provision)
        .map(|pool| Pool(Arc::new(pool)))
        .map_err(|e| e.to_string())
}

fn reply_of(id: u64, status: InstanceStatus, output: Container) -> Reply {
    Reply {
        id,
        state: status.into(),
        output: Output(output),
    }
}

impl Pool {
    /// `ShardPool::submit_as`: blocks until the group commit.
    pub fn submit(
        &self,
        process: &str,
        order: u32,
        tenant: Option<&TenantHandle>,
    ) -> Result<Reply, String> {
        match self
            .0
            .submit_as(process, input(order), tenant.map(|t| Arc::clone(&t.0)))
        {
            SubmitOutcome::Accepted { id, status, output } => Ok(reply_of(id, status, output)),
            SubmitOutcome::Overloaded { depth, capacity } => {
                Err(format!("overloaded ({depth}/{capacity})"))
            }
            SubmitOutcome::Failed { error, .. } => Err(error),
        }
    }

    /// `ShardPool::submit_with`: queues the start; `sink` fires on the
    /// shard worker after the group commit. False when refused.
    pub fn submit_with(
        &self,
        process: &str,
        order: u32,
        tenant: Option<&TenantHandle>,
        sink: impl FnOnce(Result<Reply, String>) + Send + 'static,
    ) -> bool {
        let sink = Box::new(move |reply: wfms_server::SubmitReply| {
            sink(
                reply
                    .map(|(id, status, output)| reply_of(id, status, output))
                    .map_err(|(error, _)| error),
            );
        });
        matches!(
            self.0.submit_with(
                process,
                input(order),
                tenant.map(|t| Arc::clone(&t.0)),
                sink
            ),
            SubmitDispatch::Dispatched
        )
    }

    /// `ShardPool::status`: process name and current reply of `id`.
    pub fn status(&self, id: u64) -> Option<(String, Reply)> {
        self.0
            .status(id)
            .map(|(process, status, _version, output)| (process, reply_of(id, status, output)))
    }

    /// `ShardPool::authenticate`.
    pub fn authenticate(&self, key: &str) -> Option<TenantHandle> {
        self.0.authenticate(key.as_bytes()).map(TenantHandle)
    }

    /// `ShardPool::drain`: barrier, flush, checkpoint, flush.
    pub fn drain(&self) -> Result<usize, String> {
        self.0.drain().map_err(|e| e.to_string())
    }

    /// Stops the worker without draining: the journal stays
    /// uncheckpointed, as after a crash.
    pub fn stop(&self) {
        self.0.stop();
    }

    /// `(running, finished, cancelled)`.
    pub fn counts(&self) -> (u64, u64, u64) {
        self.0.instance_counts()
    }

    /// `wfms-observe.registry`: the pool registry as Prometheus text.
    pub fn metrics_text(&self) -> String {
        self.0.registry().snapshot().to_prometheus()
    }
}

/// The shard journal inside a pool data directory.
pub fn shard_journal(dir: &Path) -> std::path::PathBuf {
    dir.join("shard-0.journal")
}

/// The shard-local instance id inside a wire id: with tenancy the top
/// `TENANT_BITS` carry the tenant slot; with one shard the rest is
/// the local id (docs/serving.md).
pub fn local_id(wire_id: u64, tenancy: bool) -> u64 {
    if tenancy {
        wire_id & (u64::MAX >> TENANT_BITS)
    } else {
        wire_id
    }
}

/// The HTTP front end over a pool.
pub struct Http(Server);

/// `wfms-server.server`: `Server::start` on an ephemeral loopback
/// port, one reactor.
pub fn serve(pool: &Pool, default_process: &str) -> std::io::Result<Http> {
    let mut cfg = ServerConfig::new(default_process);
    cfg.reactors = 1;
    Server::start(Arc::clone(&pool.0), cfg).map(Http)
}

impl Http {
    pub fn addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Stops reactors and shard worker without a drain checkpoint.
    pub fn stop(self) {
        self.0.shutdown(false);
    }
}

// ------------------------------------------------------------ wire codec

/// The server's incremental request decoder, one per connection.
#[derive(Default)]
pub struct HttpDecoder(Decoder);

/// A decoded request.
pub struct HttpRequest(Request);

impl HttpDecoder {
    /// `wfms-server.http`: `Decoder::push` + `next_request`.
    pub fn decode(&mut self, bytes: &[u8]) -> Option<HttpRequest> {
        self.0.push(bytes);
        self.0.next_request().ok().flatten().map(HttpRequest)
    }
}

impl HttpRequest {
    pub fn is_post(&self) -> bool {
        self.0.method == "POST"
    }

    /// The id of a `GET /instances/:id`.
    pub fn instance_id(&self) -> Option<u64> {
        self.0.path.strip_prefix("/instances/")?.parse().ok()
    }

    /// The bearer token, as the server's dispatch extracts it.
    pub fn bearer(&self) -> Option<&str> {
        self.0
            .header("authorization")
            .and_then(wfms_server::tenant::bearer_token)
    }

    /// `wfms-server.api`: the body parsed as a `SubmitRequest`;
    /// process name and `order` input.
    pub fn submit_body(&self) -> Option<(String, u32)> {
        let text = std::str::from_utf8(&self.0.body).ok()?;
        let body: SubmitRequest = serde_json::from_str(text).ok()?;
        let order = body.input?.get("order")?.as_int()?;
        Some((body.process?, u32::try_from(order).ok()?))
    }
}

fn wire_state(state: State) -> &'static str {
    match state {
        State::Running => "running",
        State::Finished => "finished",
        State::Cancelled => "cancelled",
    }
}

/// `wfms-server.api`: a `SubmitResponse` rendered.
pub fn render_submit_body(reply: &Reply) -> String {
    serde_json::to_string(&SubmitResponse {
        id: reply.id,
        status: wire_state(reply.state).to_owned(),
        output: reply.output.0.clone(),
    })
    .expect("submit body serializes")
}

/// `wfms-server.api`: a `StatusResponse` rendered.
pub fn render_status_body(process: &str, reply: &Reply) -> String {
    serde_json::to_string(&StatusResponse {
        id: reply.id,
        process: process.to_owned(),
        status: wire_state(reply.state).to_owned(),
        version: "0000000000000000".to_owned(),
        output: reply.output.0.clone(),
    })
    .expect("status body serializes")
}

/// `wfms-server.http`: `render_response`.
pub fn render_http(status: u16, body: &str, out: &mut Vec<u8>) {
    render_response(out, status, "application/json", &[], body.as_bytes(), false);
}

/// A `201` body read back by the checker.
pub fn parse_submit_body(body: &[u8]) -> Option<Reply> {
    let r: SubmitResponse = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    Some(Reply {
        id: r.id,
        state: state_of_wire(&r.status)?,
        output: Output(r.output),
    })
}

/// A `GET /instances/:id` body read back by the checker.
pub fn parse_status_body(body: &[u8]) -> Option<(String, Reply)> {
    let r: StatusResponse = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    let reply = Reply {
        id: r.id,
        state: state_of_wire(&r.status)?,
        output: Output(r.output),
    };
    Some((r.process, reply))
}

// ------------------------------------------------- single-function probes

/// `wfms-model.expr`: the transition condition every translated
/// connector carries, against a finished activity's output.
pub struct ExprProbe {
    expr: Expr,
    env: Container,
}

impl Default for ExprProbe {
    fn default() -> Self {
        let mut env = Container::empty();
        env.set("RC", Value::Int(1));
        Self {
            expr: Expr::parse("RC = 1").expect("condition parses"),
            env,
        }
    }
}

impl ExprProbe {
    pub fn eval(&self) -> bool {
        self.expr.eval_bool(&self.env).expect("condition evaluates")
    }

    /// `wfms-model.container`: `Container::clone`.
    pub fn clone_env(&self) -> usize {
        self.env.clone().len()
    }
}

/// `wfms-observe.histogram`: `Histogram::record`.
#[derive(Default)]
pub struct HistogramProbe(Histogram);

impl HistogramProbe {
    pub fn record(&self, v: u64) {
        self.0.record(v);
    }

    pub fn count(&self) -> u64 {
        self.0.count()
    }
}

impl World {
    /// `txn-substrate.program`: `ProgramRegistry::invoke` of a
    /// provisioned program — begin, lock, write, log, commit.
    pub fn invoke(&self, program: &str) -> bool {
        let mut ctx = ProgramContext::new(Arc::clone(&self.fed));
        self.programs.invoke(program, &mut ctx).is_committed()
    }
}

/// `atm.native`: the spec run by the native executor for its model,
/// no workflow engine involved. True when it committed.
pub fn run_native(t: &Translated, world: &World) -> bool {
    let (fed, programs) = (Arc::clone(&world.fed), Arc::clone(&world.programs));
    match &t.0.spec {
        AtmSpec::Saga(spec) => atm::SagaExecutor::new(fed, programs)
            .run(spec)
            .expect("well-formed saga")
            .is_committed(),
        AtmSpec::Flexible(spec) => atm::FlexExecutor::new(fed, programs)
            .run(spec)
            .expect("well-formed flexible transaction")
            .is_committed(),
    }
}

/// `wfms-engine.interp`: the reference interpreter.
pub struct RefEng(RefEngine);

pub fn ref_engine(world: &World, templates: &[&Translated]) -> RefEng {
    let mut engine = RefEngine::new(Arc::clone(&world.fed), Arc::clone(&world.programs));
    for def in definitions(templates) {
        engine.register(def);
    }
    RefEng(engine)
}

impl RefEng {
    pub fn run_once(&mut self, process: &str, order: u32) -> State {
        let id = self.0.start(process, input(order));
        self.0.run_to_quiescence(id).into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The journal file read back gives the orders, and the bytes, of
    /// the journal in memory, compensation included.
    #[test]
    fn journal_file_agrees_with_the_engine_journal() {
        let scratch = crate::host::Scratch::create("orders").unwrap();
        let path = scratch.root.join("j.journal");
        let (saga, flex) = (translate(&saga_text()), translate(&flex_text()));
        let both = [&saga, &flex];
        let w = world(&both, 3, &[("S6", 0.5), ("T8", 0.5), ("T4", 0.3)]);
        let eng = engine(&w, &both, Some(&path), false);
        let n = 40;
        for i in 0..n {
            let id = eng.start(if i % 2 == 0 { SAGA } else { FLEX }, 100_000 + i);
            assert_eq!(eng.run(id), State::Finished);
        }
        eng.flush();
        let from_audit = eng.journal().orders(n as usize).unwrap();
        let from_file = journal_orders(&path, n as usize).unwrap();
        assert_eq!(from_audit, from_file);
        let written = journal_bytes(eng.journal(), &scratch.root.join("copy.journal"));
        assert_eq!(written, Ok(path.metadata().unwrap().len()));
        assert!(from_file.iter().any(|o| o.contains("Compensation/Comp_S1")));
        assert!(from_file.iter().any(|o| o.ends_with(" T7")));
        assert!(from_file[0].is_empty() && !from_file[1].is_empty());

        // An instance id beyond `n` is an error, not a silent skip.
        assert!(journal_orders(&path, 3).is_err());
    }

    /// The checker's legal shapes against what the engine really
    /// does when each Figure 3 step, and a saga step, is made to fail.
    #[test]
    fn checker_accepts_every_forced_ending_and_rejects_a_swapped_reply() {
        use crate::check::{judge, Ending};
        let (saga, flex) = (translate(&saga_text()), translate(&flex_text()));
        let both = [&saga, &flex];
        let ending = |process: &str, plan: Plan<'_>| {
            let eng = engine(&world(&both, 1, plan), &both, None, false);
            let id = eng.start(process, 123_456);
            assert_eq!(eng.run(id), State::Finished);
            let (state, output) = eng.read(id).unwrap();
            let order = eng.journal().orders(1).unwrap().remove(1);
            let reply = Reply { id, state, output };
            (judge(process, Some(&order), &reply), order, reply)
        };
        assert_eq!(ending(SAGA, &[]).0, Some(Ending::SagaCommitted));
        assert_eq!(
            ending(SAGA, &[("S1", 1.0)]).0,
            Some(Ending::SagaCompensated)
        );
        assert_eq!(
            ending(SAGA, &[("S8", 1.0)]).0,
            Some(Ending::SagaCompensated)
        );
        assert_eq!(ending(FLEX, &[]).0, Some(Ending::FlexVia(0)));
        for (step, want) in [
            ("T1", Ending::FlexAborted),
            ("T2", Ending::FlexAborted),
            ("T4", Ending::FlexVia(2)),
            ("T5", Ending::FlexVia(1)),
            ("T6", Ending::FlexVia(1)),
            ("T8", Ending::FlexVia(1)),
        ] {
            let (got, order, reply) = ending(FLEX, &[(step, 1.0)]);
            assert_eq!(
                got,
                Some(want),
                "{step} fails: ran [{order}], answered {reply:?}"
            );
        }
        // A reply that does not belong to the order it is judged with.
        let (_, committed_order, _) = ending(SAGA, &[]);
        let (_, _, compensated_reply) = ending(SAGA, &[("S6", 1.0)]);
        assert_eq!(
            judge(SAGA, Some(&committed_order), &compensated_reply),
            None
        );
        assert_eq!(
            judge(FLEX, Some(&committed_order), &compensated_reply),
            None
        );
        // Without the journal the reply is taken at its word.
        assert_eq!(
            judge(SAGA, None, &compensated_reply),
            Some(Ending::SagaCompensated)
        );
    }

    #[test]
    fn wire_ids_fold_the_tenant_slot() {
        assert_eq!(local_id(17, false), 17);
        assert_eq!(local_id((2u64 << 56) | 17, true), 17);
    }

    #[test]
    fn bodies_round_trip_through_the_program_types() {
        let reply = Reply {
            id: 9,
            state: State::Finished,
            output: Output(input(5)),
        };
        assert_eq!(
            parse_submit_body(render_submit_body(&reply).as_bytes()),
            Some(reply.clone())
        );
        let (process, back) =
            parse_status_body(render_status_body(FLEX, &reply).as_bytes()).unwrap();
        assert_eq!((process.as_str(), back), (FLEX, reply));
        assert_eq!(parse_submit_body(b"{\"error\":\"overloaded\"}"), None);
    }
}
