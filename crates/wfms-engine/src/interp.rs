//! A reference interpreter — the navigator *before* compiled
//! templates, kept as an executable specification.
//!
//! [`RefEngine`] walks the raw [`ProcessDefinition`] the way the
//! original engine did: string-keyed activity maps, a depth-first
//! rescan of the definition on every step to find the next runnable
//! activity, and transition/exit conditions evaluated from their
//! `Expr` trees on every use. It supports the full single-threaded
//! semantics — program, no-op and block activities; AND/OR joins; dead
//! path elimination; exit-condition loops; data connectors; **manual
//! activities** with worklists, claims and deadline notifications —
//! and journals the same [`Event`]s in the same order as the compiled
//! navigator, so it serves two purposes:
//!
//! * the **baseline** of the compiled navigator in `report` §B13 and
//!   in `wfbench`'s `wfms-engine.interp.ref_run_us` — the honest
//!   "before" of the optimisation, not a strawman;
//! * a **differential oracle**: property tests drive random process
//!   graphs (including manual and deadline-bearing activities) through
//!   both engines and require identical event sequences, statuses and
//!   outputs.
//!
//! Recovery and parallel scheduling stay out of scope — those paths
//! are exercised against the real engine directly.

use crate::event::{Event, InstanceId, WorkItemId};
use crate::org::OrgModel;
use crate::state::{join_path, ActState, ActivityRt, InstanceStatus};
use crate::worklist::{WorkItem, WorkItemState, WorklistError, WorklistStore};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use txn_substrate::frame::Name;
use txn_substrate::{
    MultiDatabase, ProgramContext, ProgramOutcome, ProgramRegistry, Value, VirtualClock,
};
use wfms_model::{ActivityKind, Container, ProcessDefinition, StartCondition, RC_MEMBER};

/// String-keyed per-scope runtime state, as the original engine kept
/// it.
#[derive(Debug, Clone, Default)]
struct RefScope {
    activities: HashMap<String, ActivityRt>,
    connectors: HashMap<(String, String), bool>,
    input: Container,
    output: Container,
    children: HashMap<String, RefScope>,
}

impl RefScope {
    fn for_definition(def: &ProcessDefinition) -> Self {
        Self {
            activities: def
                .activities
                .iter()
                .map(|a| (a.name.clone(), ActivityRt::default()))
                .collect(),
            connectors: HashMap::new(),
            input: def.input.instantiate(),
            output: def.output.instantiate(),
            children: HashMap::new(),
        }
    }

    fn all_terminated(&self) -> bool {
        self.activities
            .values()
            .all(|rt| rt.state == ActState::Terminated)
    }
}

struct RefInstance {
    id: InstanceId,
    def: Arc<ProcessDefinition>,
    root: RefScope,
    status: InstanceStatus,
}

impl RefInstance {
    fn resolve(&self, path: &[String]) -> Option<(&ProcessDefinition, &RefScope)> {
        let mut def: &ProcessDefinition = &self.def;
        let mut scope = &self.root;
        for seg in path {
            let act = def.activity(seg)?;
            let ActivityKind::Block { process } = &act.kind else {
                return None;
            };
            scope = scope.children.get(seg)?;
            def = process;
        }
        Some((def, scope))
    }

    fn resolve_mut(&mut self, path: &[String]) -> Option<(&ProcessDefinition, &mut RefScope)> {
        let mut def: &ProcessDefinition = &self.def;
        let mut scope = &mut self.root;
        for seg in path {
            let act = def.activity(seg)?;
            let ActivityKind::Block { process } = &act.kind else {
                return None;
            };
            scope = scope.children.get_mut(seg)?;
            def = process;
        }
        Some((def, scope))
    }
}

/// The definition-walking reference engine. Same program registry,
/// multidatabase and clock wiring as [`crate::Engine`]; only the
/// navigation machinery differs.
pub struct RefEngine {
    defs: HashMap<String, Arc<ProcessDefinition>>,
    instances: BTreeMap<InstanceId, RefInstance>,
    journal: Vec<Event>,
    programs: Arc<ProgramRegistry>,
    multidb: Arc<MultiDatabase>,
    clock: VirtualClock,
    next_instance: u64,
    org: OrgModel,
    worklists: WorklistStore,
    next_item: u64,
}

impl RefEngine {
    /// Builds a reference engine sharing the multidatabase's clock.
    pub fn new(multidb: Arc<MultiDatabase>, programs: Arc<ProgramRegistry>) -> Self {
        Self::with_org(multidb, programs, OrgModel::new())
    }

    /// Builds a reference engine with an organization model, enabling
    /// manual activities and deadline notifications.
    pub fn with_org(
        multidb: Arc<MultiDatabase>,
        programs: Arc<ProgramRegistry>,
        org: OrgModel,
    ) -> Self {
        let clock = multidb.clock().clone();
        Self {
            defs: HashMap::new(),
            instances: BTreeMap::new(),
            journal: Vec::new(),
            programs,
            multidb,
            clock,
            next_instance: 1,
            org,
            worklists: WorklistStore::new(),
            next_item: 1,
        }
    }

    /// Registers a definition (assumed valid; the caller validates).
    pub fn register(&mut self, def: ProcessDefinition) {
        self.defs.insert(def.name.clone(), Arc::new(def));
    }

    /// Starts an instance; panics on an unknown process name (this is
    /// a test oracle, not a public API).
    pub fn start(&mut self, process: &str, input: Container) -> InstanceId {
        let def = Arc::clone(self.defs.get(process).expect("registered process"));
        let id = InstanceId(self.next_instance);
        self.next_instance += 1;
        let mut inst = RefInstance {
            id,
            root: RefScope::for_definition(&def),
            def,
            status: InstanceStatus::Running,
        };
        for (k, v) in input.iter() {
            inst.root.input.set(k, v.clone());
        }
        self.journal.push(Event::InstanceStarted {
            instance: id,
            process: inst.def.name.as_str().into(),
            tenant: None,
            input: inst.root.input.clone(),
            at: self.clock.now(),
        });
        self.seed_scope(&mut inst, &[]);
        self.instances.insert(id, inst);
        id
    }

    /// Drives one instance until no automatic activity is runnable.
    pub fn run_to_quiescence(&mut self, id: InstanceId) -> InstanceStatus {
        let mut inst = self.instances.remove(&id).expect("known instance");
        while let Some(path) = Self::find_runnable(&inst) {
            self.execute_activity(&mut inst, &path, None);
        }
        let status = inst.status;
        self.instances.insert(id, inst);
        status
    }

    /// The worklist of `person`, as the real engine reports it.
    pub fn worklist(&self, person: &str) -> Vec<WorkItem> {
        let Some(person) = Name::find(person) else {
            return Vec::new();
        };
        self.worklists
            .worklist(person)
            .into_iter()
            .cloned()
            .collect()
    }

    /// Executes a work item on behalf of `person` (claiming it first
    /// if still offered), then continues automatic navigation — the
    /// oracle twin of [`crate::Engine::execute_item`].
    pub fn execute_item(&mut self, item: WorkItemId, person: &str) -> Result<(), WorklistError> {
        let it = self
            .worklists
            .get(item)
            .ok_or(WorklistError::NoSuchItem(item))?
            .clone();
        let by = match it.state {
            WorkItemState::Offered => {
                let WorkItemState::Claimed(by) = self.worklists.claim(item, person)?.state else {
                    unreachable!("a claim that succeeds holds the item")
                };
                self.journal.push(Event::WorkItemClaimed {
                    item,
                    person: by,
                    at: self.clock.now(),
                });
                by
            }
            WorkItemState::Claimed(p) if p == person => p,
            WorkItemState::Claimed(p) => {
                return Err(WorklistError::AlreadyClaimed {
                    item,
                    by: p.to_string(),
                })
            }
            WorkItemState::Closed => return Err(WorklistError::Closed(item)),
        };
        let mut inst = self
            .instances
            .remove(&it.instance)
            .expect("item's instance exists");
        let path: Vec<String> = it.path.split('/').map(str::to_owned).collect();
        let ready = inst
            .resolve(&path[..path.len() - 1])
            .and_then(|(_, s)| s.activities.get(&path[path.len() - 1]))
            .is_some_and(|rt| rt.state == ActState::Ready);
        assert!(ready, "open work item implies a ready activity");
        self.execute_activity(&mut inst, &path, Some(by));
        while let Some(p) = Self::find_runnable(&inst) {
            self.execute_activity(&mut inst, &p, None);
        }
        self.instances.insert(it.instance, inst);
        Ok(())
    }

    /// Advances the virtual clock and delivers due deadline
    /// notifications, instance by instance in id order — the oracle
    /// twin of [`crate::Engine::advance_clock`].
    pub fn advance_clock(&mut self, ticks: txn_substrate::Tick) -> Vec<(String, String)> {
        self.clock.advance(ticks);
        let ids: Vec<InstanceId> = self.instances.keys().copied().collect();
        let mut sent = Vec::new();
        for id in ids {
            let mut inst = self.instances.remove(&id).expect("known instance");
            if inst.status == InstanceStatus::Running {
                sent.extend(self.check_deadlines(&mut inst));
            }
            self.instances.insert(id, inst);
        }
        sent
    }

    /// Walks the definition for ready manual activities whose deadline
    /// elapsed, notifying each eligible person's manager once per
    /// readiness period. Scan order matches the compiled navigator:
    /// deadline activities of a scope in declaration order, then
    /// running blocks in declaration order.
    fn check_deadlines(&mut self, inst: &mut RefInstance) -> Vec<(String, String)> {
        fn scan(
            def: &ProcessDefinition,
            scope: &mut RefScope,
            prefix: &mut Vec<String>,
            now: txn_substrate::Tick,
            org: &OrgModel,
            due: &mut Vec<(Vec<String>, Vec<Name>)>,
        ) {
            for act in &def.activities {
                if act.automatic_start {
                    continue;
                }
                let Some(deadline) = act.deadline else {
                    continue;
                };
                let Some(rt) = scope.activities.get_mut(&act.name) else {
                    continue;
                };
                if rt.state == ActState::Ready && !rt.notified {
                    if let Some(since) = rt.ready_since {
                        if since + deadline <= now {
                            rt.notified = true;
                            let mut managers: Vec<Name> = org
                                .resolve(&act.staff)
                                .iter()
                                .filter_map(|p| org.manager_of(p).map(|m| m.name))
                                .collect();
                            managers.sort();
                            managers.dedup();
                            let mut path = prefix.clone();
                            path.push(act.name.clone());
                            due.push((path, managers));
                        }
                    }
                }
            }
            for act in &def.activities {
                if let ActivityKind::Block { process } = &act.kind {
                    let running = scope
                        .activities
                        .get(&act.name)
                        .is_some_and(|rt| rt.state == ActState::Running);
                    if running {
                        if let Some(child) = scope.children.get_mut(&act.name) {
                            prefix.push(act.name.clone());
                            scan(process, child, prefix, now, org, due);
                            prefix.pop();
                        }
                    }
                }
            }
        }

        let now = self.clock.now();
        let mut due = Vec::new();
        let def = Arc::clone(&inst.def);
        scan(
            &def,
            &mut inst.root,
            &mut Vec::new(),
            now,
            &self.org,
            &mut due,
        );

        let mut sent = Vec::new();
        for (path, managers) in due {
            let path_str = join_path(&path);
            for person in managers {
                self.journal.push(Event::NotificationSent {
                    instance: inst.id,
                    path: path_str.clone().into(),
                    person,
                    at: now,
                });
                sent.push((path_str.clone(), person.to_string()));
            }
        }
        sent
    }

    /// Runs every instance to quiescence, in id order.
    pub fn run_all(&mut self) {
        let ids: Vec<InstanceId> = self.instances.keys().copied().collect();
        for id in ids {
            self.run_to_quiescence(id);
        }
    }

    /// Current status of an instance.
    pub fn status(&self, id: InstanceId) -> InstanceStatus {
        self.instances[&id].status
    }

    /// The process output container of an instance.
    pub fn output(&self, id: InstanceId) -> Container {
        self.instances[&id].root.output.clone()
    }

    /// All journalled events.
    pub fn events(&self) -> &[Event] {
        &self.journal
    }

    /// Events of one instance, in order.
    pub fn events_for(&self, id: InstanceId) -> Vec<Event> {
        self.journal
            .iter()
            .filter(|e| e.instance() == Some(id))
            .cloned()
            .collect()
    }

    fn seed_scope(&mut self, inst: &mut RefInstance, scope_path: &[String]) {
        let Some((def, _)) = inst.resolve(scope_path) else {
            return;
        };
        let starts: Vec<String> = def
            .start_activities()
            .iter()
            .map(|a| a.name.clone())
            .collect();
        for name in starts {
            let mut path = scope_path.to_vec();
            path.push(name);
            self.make_ready(inst, &path);
        }
    }

    fn make_ready(&mut self, inst: &mut RefInstance, path: &[String]) {
        let instance = inst.id;
        let now = self.clock.now();
        let (name, scope_path) = path.split_last().expect("path never empty");
        let Some((def, scope)) = inst.resolve_mut(scope_path) else {
            return;
        };
        let act = def.activity(name).expect("activity exists");
        let automatic = act.automatic_start;
        let staff = act.staff.clone();
        let rt = scope.activities.get_mut(name).expect("activity exists");
        rt.state = ActState::Ready;
        rt.ready_since = Some(now);
        rt.notified = false;
        let attempt = rt.attempt;
        self.journal.push(Event::ActivityReady {
            instance,
            path: join_path(path).into(),
            attempt,
            at: now,
        });
        if !automatic {
            let persons = self.org.resolve(&staff);
            let item = WorkItemId(self.next_item);
            self.next_item += 1;
            self.worklists.offer(WorkItem {
                id: item,
                instance,
                path: join_path(path).into(),
                attempt,
                offered_to: persons.clone(),
                state: WorkItemState::Offered,
                offered_at: now,
            });
            self.journal.push(Event::WorkItemOffered {
                instance,
                path: join_path(path).into(),
                item,
                persons: persons.into(),
                at: now,
            });
        }
    }

    /// The original hot path: rescan the definition depth-first in
    /// declaration order for the first ready automatic activity.
    fn find_runnable(inst: &RefInstance) -> Option<Vec<String>> {
        fn scan(
            def: &ProcessDefinition,
            scope: &RefScope,
            prefix: &mut Vec<String>,
        ) -> Option<Vec<String>> {
            for act in &def.activities {
                let rt = scope.activities.get(&act.name)?;
                match rt.state {
                    ActState::Ready if act.automatic_start => {
                        let mut p = prefix.clone();
                        p.push(act.name.clone());
                        return Some(p);
                    }
                    ActState::Running => {
                        if let ActivityKind::Block { process } = &act.kind {
                            if let Some(child) = scope.children.get(&act.name) {
                                prefix.push(act.name.clone());
                                let found = scan(process, child, prefix);
                                prefix.pop();
                                if found.is_some() {
                                    return found;
                                }
                            }
                        }
                    }
                    _ => {}
                }
            }
            None
        }
        if inst.status != InstanceStatus::Running {
            return None;
        }
        scan(&inst.def, &inst.root, &mut Vec::new())
    }

    fn execute_activity(&mut self, inst: &mut RefInstance, path: &[String], by: Option<Name>) {
        let instance = inst.id;
        let (name, scope_path) = path.split_last().expect("path never empty");
        let input = Self::materialize_input(inst, scope_path, name);

        let Some((def, scope)) = inst.resolve_mut(scope_path) else {
            return;
        };
        let Some(act) = def.activity(name) else {
            return;
        };
        let kind = act.kind.clone();
        let rt = scope.activities.get_mut(name).expect("activity exists");
        rt.state = ActState::Running;
        rt.input = input.clone();
        let attempt = rt.attempt;
        self.journal.push(Event::ActivityStarted {
            instance,
            path: join_path(path).into(),
            attempt,
            by,
            input: input.clone(),
            at: self.clock.now(),
        });

        match kind {
            ActivityKind::NoOp => {
                let outputs: BTreeMap<String, Value> = input
                    .iter()
                    .map(|(k, v)| (k.to_owned(), v.clone()))
                    .collect();
                self.complete_execution(inst, path, 1, outputs);
            }
            ActivityKind::Program { program } => {
                let mut ctx = ProgramContext::new(Arc::clone(&self.multidb));
                ctx.attempt = attempt;
                ctx.params = input.params().clone();
                let outcome = self.programs.invoke(&program, &mut ctx);
                let (rc, outputs) = match outcome {
                    ProgramOutcome::Committed { rc, outputs } => (rc, outputs),
                    ProgramOutcome::Aborted { rc, .. } => (rc, BTreeMap::new()),
                };
                self.complete_execution(inst, path, rc, outputs);
            }
            ActivityKind::Block { process } => {
                let mut child = RefScope::for_definition(&process);
                for (k, v) in input.iter() {
                    child.input.set(k, v.clone());
                }
                let Some((_, scope)) = inst.resolve_mut(scope_path) else {
                    return;
                };
                scope.children.insert(name.clone(), child);
                self.seed_scope(inst, path);
                self.check_scope_completion(inst, path);
            }
        }
    }

    fn materialize_input(inst: &RefInstance, scope_path: &[String], name: &str) -> Container {
        let Some((def, scope)) = inst.resolve(scope_path) else {
            return Container::empty();
        };
        let Some(act) = def.activity(name) else {
            return Container::empty();
        };
        let mut input = act.input.instantiate();
        for d in &def.data {
            let targets_us =
                matches!(&d.to, wfms_model::DataEndpoint::ActivityInput(a) if a == name);
            if !targets_us {
                continue;
            }
            let source: Option<&Container> = match &d.from {
                wfms_model::DataEndpoint::ProcessInput => Some(&scope.input),
                wfms_model::DataEndpoint::ActivityOutput(s) => scope
                    .activities
                    .get(s)
                    .filter(|rt| rt.is_terminated() && rt.executed)
                    .map(|rt| &rt.output),
                _ => None,
            };
            let Some(source) = source else { continue };
            for m in &d.mappings {
                if let Some(v) = source.get(&m.from_member) {
                    input.set(&m.to_member, v.clone());
                }
            }
        }
        input
    }

    fn complete_execution(
        &mut self,
        inst: &mut RefInstance,
        path: &[String],
        rc: i64,
        outputs: BTreeMap<String, Value>,
    ) {
        let instance = inst.id;
        let (name, scope_path) = path.split_last().expect("path never empty");
        let Some((def, scope)) = inst.resolve_mut(scope_path) else {
            return;
        };
        let Some(act) = def.activity(name) else {
            return;
        };
        let schema = def.effective_output(act);

        let mut output = schema.instantiate();
        for (k, v) in outputs {
            if schema.has(&k) {
                output.set(&k, v);
            }
        }
        output.set(RC_MEMBER, Value::Int(rc));

        let rt = scope.activities.get_mut(name).expect("activity exists");
        rt.state = ActState::Finished;
        rt.output = output.clone();
        let attempt = rt.attempt;
        self.journal.push(Event::ActivityFinished {
            instance,
            path: join_path(path).into(),
            attempt,
            output: output.clone(),
            at: self.clock.now(),
        });
        self.worklists.close_for(instance, join_path(path).into());
        self.decide_exit(inst, path);
    }

    fn decide_exit(&mut self, inst: &mut RefInstance, path: &[String]) {
        let instance = inst.id;
        let (name, scope_path) = path.split_last().expect("path never empty");
        let Some((def, scope)) = inst.resolve(scope_path) else {
            return;
        };
        let Some(act) = def.activity(name) else {
            return;
        };
        let exit = act.exit.clone();
        let is_block = act.kind.is_block();
        let Some(rt) = scope.activities.get(name) else {
            return;
        };
        let output = rt.output.clone();

        let exit_ok = match &exit.expr {
            None => true,
            Some(e) => e.eval_bool(&output).unwrap_or(true),
        };
        if exit_ok {
            self.terminate_activity(inst, path, true);
        } else {
            let Some((_, scope)) = inst.resolve_mut(scope_path) else {
                return;
            };
            if is_block {
                scope.children.remove(name);
            }
            let rt = scope.activities.get_mut(name).expect("activity exists");
            rt.attempt += 1;
            let next_attempt = rt.attempt;
            rt.state = ActState::Waiting;
            self.journal.push(Event::ActivityRescheduled {
                instance,
                path: join_path(path).into(),
                next_attempt,
                at: self.clock.now(),
            });
            self.make_ready(inst, path);
        }
    }

    fn terminate_activity(&mut self, inst: &mut RefInstance, path: &[String], executed: bool) {
        let instance = inst.id;
        let (name, scope_path) = path.split_last().expect("path never empty");
        let Some((def, scope)) = inst.resolve_mut(scope_path) else {
            return;
        };
        let rt = scope.activities.get_mut(name).expect("activity exists");
        rt.state = ActState::Terminated;
        rt.executed = executed;
        let output = rt.output.clone();
        self.journal.push(Event::ActivityTerminated {
            instance,
            path: join_path(path).into(),
            executed,
            at: self.clock.now(),
        });
        self.worklists.close_for(instance, join_path(path).into());

        if executed {
            for d in &def.data {
                let from_us =
                    matches!(&d.from, wfms_model::DataEndpoint::ActivityOutput(a) if a == name);
                if from_us && d.to == wfms_model::DataEndpoint::ProcessOutput {
                    for m in &d.mappings {
                        if let Some(v) = output.get(&m.from_member) {
                            scope.output.set(&m.to_member, v.clone());
                        }
                    }
                }
            }
        }

        let outgoing: Vec<(String, wfms_model::Expr)> = def
            .outgoing(name)
            .into_iter()
            .map(|c| (c.to.clone(), c.condition.clone()))
            .collect();
        for (to, cond) in outgoing {
            // A cascade finished the instance: nothing follows its finish.
            if inst.status != InstanceStatus::Running {
                break;
            }
            let value = executed && cond.eval_bool(&output).unwrap_or(false);
            {
                let Some((_, scope)) = inst.resolve_mut(scope_path) else {
                    return;
                };
                scope.connectors.insert((name.clone(), to.clone()), value);
            }
            self.journal.push(Event::ConnectorEvaluated {
                instance,
                scope: join_path(scope_path).into(),
                from: name.clone().into(),
                to: to.clone().into(),
                value,
                at: self.clock.now(),
            });
            let mut target_path = scope_path.to_vec();
            target_path.push(to);
            self.update_target(inst, &target_path);
        }

        self.check_scope_completion(inst, scope_path);
    }

    fn update_target(&mut self, inst: &mut RefInstance, path: &[String]) {
        let (name, scope_path) = path.split_last().expect("path never empty");
        let Some((def, scope)) = inst.resolve(scope_path) else {
            return;
        };
        let Some(act) = def.activity(name) else {
            return;
        };
        let Some(rt) = scope.activities.get(name) else {
            return;
        };
        if rt.state != ActState::Waiting {
            return;
        }
        let values: Vec<Option<bool>> = def
            .incoming(name)
            .iter()
            .map(|c| {
                scope
                    .connectors
                    .get(&(c.from.clone(), c.to.clone()))
                    .copied()
            })
            .collect();
        let decision = match act.start {
            StartCondition::And => {
                if values.contains(&Some(false)) {
                    Some(false)
                } else if values.iter().all(|v| *v == Some(true)) {
                    Some(true)
                } else {
                    None
                }
            }
            StartCondition::Or => {
                if values.contains(&Some(true)) {
                    Some(true)
                } else if values.iter().all(|v| *v == Some(false)) {
                    Some(false)
                } else {
                    None
                }
            }
        };
        match decision {
            Some(true) => self.make_ready(inst, path),
            Some(false) => self.terminate_activity(inst, path, false),
            None => {}
        }
    }

    fn check_scope_completion(&mut self, inst: &mut RefInstance, scope_path: &[String]) {
        let instance = inst.id;
        let Some((_, scope)) = inst.resolve(scope_path) else {
            return;
        };
        if !scope.all_terminated() {
            return;
        }
        let output = scope.output.clone();

        if scope_path.is_empty() {
            if inst.status == InstanceStatus::Running {
                inst.status = InstanceStatus::Finished;
                self.journal.push(Event::InstanceFinished {
                    instance,
                    output,
                    at: self.clock.now(),
                });
            }
            return;
        }

        let (block_name, parent_path) = scope_path.split_last().expect("non-empty");
        let Some((_, parent)) = inst.resolve(parent_path) else {
            return;
        };
        let Some(rt) = parent.activities.get(block_name) else {
            return;
        };
        if rt.state != ActState::Running {
            return;
        }
        let rc = output.get(RC_MEMBER).and_then(|v| v.as_int()).unwrap_or(1);
        let outputs: BTreeMap<String, Value> = output
            .iter()
            .map(|(k, v)| (k.to_owned(), v.clone()))
            .collect();
        self.complete_execution(inst, scope_path, rc, outputs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfms_model::ProcessBuilder;

    fn world() -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
        let fed = MultiDatabase::new(0);
        fed.add_database("db");
        let programs = Arc::new(ProgramRegistry::new());
        programs.register_fn("ok", |_ctx| ProgramOutcome::Committed {
            rc: 1,
            outputs: BTreeMap::new(),
        });
        (fed, programs)
    }

    #[test]
    fn runs_a_chain_to_finished() {
        let (fed, programs) = world();
        let def = ProcessBuilder::new("p")
            .program("A", "ok")
            .program("B", "ok")
            .connect_when("A", "B", "RC = 1")
            .build()
            .unwrap();
        let mut eng = RefEngine::new(fed, programs);
        eng.register(def);
        let id = eng.start("p", Container::empty());
        assert_eq!(eng.run_to_quiescence(id), InstanceStatus::Finished);
        assert!(eng
            .events()
            .iter()
            .any(|e| matches!(e, Event::InstanceFinished { .. })));
    }

    #[test]
    fn dead_path_elimination_terminates_unexecuted_branch() {
        let (fed, programs) = world();
        let def = ProcessBuilder::new("p")
            .program("A", "ok")
            .program("B", "ok")
            .program("C", "ok")
            .connect_when("A", "B", "RC = 1")
            .connect_when("A", "C", "RC = 0")
            .build()
            .unwrap();
        let mut eng = RefEngine::new(fed, programs);
        eng.register(def);
        let id = eng.start("p", Container::empty());
        assert_eq!(eng.run_to_quiescence(id), InstanceStatus::Finished);
        let dead = eng.events_for(id).iter().any(
            |e| matches!(e, Event::ActivityTerminated { path, executed: false, .. } if path == "C"),
        );
        assert!(dead, "C must be dead-path eliminated");
    }
}
