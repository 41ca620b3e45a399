//! Equivalence of native transaction-model execution and the
//! Exotica-translated workflow processes, under systematic failure
//! injection — the operational heart of the paper's claim that
//! "advanced transaction models can be implemented using current
//! workflow management systems".
//!
//! Every scenario runs twice in isolated worlds with identical
//! deterministic failure scripts; the final state of every local
//! database and the commit/abort outcome must match exactly.

use std::sync::Arc;

use atm::fixtures::{self, figure3_spec, FIGURE3_STEPS};
use atm::SagaExecutor;
use exotica::verify::{compare, FederationState, Installer};
use proptest::prelude::*;
use txn_substrate::{on_attempts, FailurePlan, MultiDatabase};
use wfms_engine::{Engine, InstanceStatus};
use wfms_model::{Container, ProcessDefinition};

// ---------------------------------------------------------------------
// Sagas
// ---------------------------------------------------------------------

fn saga_installer(
    n: usize,
) -> impl Fn(&std::sync::Arc<txn_substrate::MultiDatabase>, &txn_substrate::ProgramRegistry) {
    move |fed, reg| fixtures::register_saga_programs(fed, reg, n)
}

#[test]
fn saga_equivalence_at_every_abort_position() {
    for n in [1usize, 2, 3, 5, 8] {
        let spec = fixtures::linear_saga("s", n);
        let install = saga_installer(n);
        let installer: Installer<'_> = &install;
        // j = n means no failure (full commit).
        for j in 1..=n + 1 {
            let plans: Vec<(String, FailurePlan)> = if j <= n {
                vec![(format!("S{j}"), FailurePlan::Always)]
            } else {
                vec![]
            };
            let report = compare(&atm::check_saga(&spec).unwrap(), installer, &plans, 42).unwrap();
            assert!(
                report.equivalent(),
                "n={n} abort at S{j}:\n{}",
                report.diff()
            );
            assert_eq!(report.native_committed, j > n);
        }
    }
}

#[test]
fn saga_equivalence_with_flaky_compensations() {
    // Abort at S4; compensations of S2 and S3 need retries.
    let n = 5;
    let spec = fixtures::linear_saga("s", n);
    let install = saga_installer(n);
    let installer: Installer<'_> = &install;
    let plans = vec![
        ("S4".to_string(), FailurePlan::Always),
        ("undo_S3".to_string(), FailurePlan::FirstN(2)),
        ("undo_S2".to_string(), on_attempts([0, 2])),
    ];
    let report = compare(&atm::check_saga(&spec).unwrap(), installer, &plans, 7).unwrap();
    assert!(report.equivalent(), "{}", report.diff());
    assert!(!report.native_committed);
}

#[test]
fn saga_equivalence_with_transient_forward_failures() {
    // A forward step failing transiently still aborts the saga (saga
    // forward steps are not retried by either implementation).
    let n = 3;
    let spec = fixtures::linear_saga("s", n);
    let install = saga_installer(n);
    let installer: Installer<'_> = &install;
    let plans = vec![("S2".to_string(), FailurePlan::FirstN(1))];
    let report = compare(&atm::check_saga(&spec).unwrap(), installer, &plans, 3).unwrap();
    assert!(report.equivalent(), "{}", report.diff());
    assert!(!report.native_committed);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The García-Molina/Salem guarantee, checked against both
    /// implementations at once: random saga sizes, random abort
    /// positions, random compensation flakiness.
    #[test]
    fn saga_equivalence_randomised(
        n in 1usize..10,
        abort_at in 1usize..12,
        flaky_comp in 0usize..12,
        flaky_tries in 1u32..4,
        seed in 0u64..1000,
    ) {
        let spec = fixtures::linear_saga("s", n);
        let install = saga_installer(n);
        let installer: Installer<'_> = &install;
        let mut plans: Vec<(String, FailurePlan)> = Vec::new();
        if abort_at <= n {
            plans.push((format!("S{abort_at}"), FailurePlan::Always));
        }
        if flaky_comp >= 1 && flaky_comp <= n {
            plans.push((format!("undo_S{flaky_comp}"), FailurePlan::FirstN(flaky_tries)));
        }
        let report = compare(&atm::check_saga(&spec).unwrap(), installer, &plans, seed).unwrap();
        prop_assert!(report.equivalent(), "{}", report.diff());
        prop_assert_eq!(report.native_committed, abort_at > n);
    }
}

// ---------------------------------------------------------------------
// Figures 2 and 4 against each other: a saga is a one-path flexible
// transaction
// ---------------------------------------------------------------------

type World = (Arc<MultiDatabase>, Arc<txn_substrate::ProgramRegistry>);
type Plans = [(String, FailurePlan)];

fn federation_state(fed: &MultiDatabase) -> FederationState {
    fed.names()
        .into_iter()
        .map(|name| {
            (
                name.clone(),
                fed.db(&name).unwrap().snapshot().into_iter().collect(),
            )
        })
        .collect()
}

/// Runs `def` to its end in `world`: did it commit, and what is left.
fn run_process(def: &ProcessDefinition, (fed, registry): World) -> (bool, FederationState) {
    let engine = Engine::new(Arc::clone(&fed), registry);
    engine.register(def.clone()).unwrap();
    let id = engine.start(&def.name, Container::empty()).unwrap();
    assert_eq!(
        engine.run_to_quiescence(id).unwrap(),
        InstanceStatus::Finished
    );
    let out = engine.output(id).unwrap();
    let committed = out.get("Committed").and_then(|v| v.as_int()) == Some(1);
    (committed, federation_state(&fed))
}

/// The saga three ways, each in a world `world` makes under `plans`:
/// the Figure 2 process, the Figure 4 process of its one-path form, and
/// the native executor. All three reach the same outcome and leave the
/// same state; the native outcome is returned.
fn three_ways(
    spec: &atm::SagaSpec,
    world: &dyn Fn(&Plans) -> World,
    plans: &Plans,
) -> atm::SagaOutcome {
    let checked = atm::check_saga(spec).unwrap();
    let figure2 = run_process(&exotica::translate_saga(&checked).unwrap(), world(plans));
    let figure4 = run_process(&exotica::translate_flex(&checked).unwrap(), world(plans));
    let (fed, registry) = world(plans);
    let native = SagaExecutor::new(Arc::clone(&fed), registry)
        .run(spec)
        .unwrap();
    let native_side = (native.is_committed(), federation_state(&fed));
    assert_eq!(figure2, native_side, "Figure 2 vs native under {plans:?}");
    assert_eq!(figure4, native_side, "Figure 4 vs native under {plans:?}");
    native.outcome
}

/// Every subset of `steps` failing permanently, each with a flaky
/// first compensation.
fn subsets(steps: &[String], first_compensation: &str) -> Vec<Vec<(String, FailurePlan)>> {
    (0..1usize << steps.len())
        .map(|bits| {
            let failing = steps
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0);
            failing
                .map(|(_, s)| (s.clone(), FailurePlan::Always))
                .chain([(first_compensation.to_owned(), FailurePlan::FirstN(1))])
                .collect()
        })
        .collect()
}

#[test]
fn figures_2_and_4_agree_on_every_saga_failure_subset() {
    for n in 1..=8 {
        let spec = fixtures::linear_saga("s", n);
        let checked = atm::check_saga(&spec).unwrap();
        // Both constructions: 2n + 3 activities (saga8: 19).
        assert_eq!(
            exotica::translate_saga(&checked)
                .unwrap()
                .total_activities(),
            exotica::translate_flex(&checked)
                .unwrap()
                .total_activities(),
        );
        let world = |plans: &Plans| {
            let fed = MultiDatabase::new(0);
            let registry = Arc::new(txn_substrate::ProgramRegistry::new());
            fixtures::register_saga_programs(&fed, &registry, n);
            for (label, plan) in plans {
                fed.injector().set_plan(label, plan.clone());
            }
            (fed, registry)
        };
        let steps: Vec<String> = spec.steps().map(|s| s.name.clone()).collect();
        for plans in subsets(&steps, "undo_S1") {
            three_ways(&spec, &world, &plans);
        }
    }

    // The shipped saga, provisioned the way `fmtm run` provisions it.
    let text = include_str!("../../../examples/specs/trip.saga");
    let parsed = exotica::parse_spec(text).unwrap();
    let exotica::ParsedSpec::Saga(trip) = &parsed else {
        panic!("trip.saga is a saga")
    };
    let provisioned = exotica::steps_of(&parsed);
    let world = |plans: &Plans| exotica::provision(&provisioned, 0, plans);
    let steps: Vec<String> = trip.steps().map(|s| s.name.clone()).collect();
    let first_compensation = trip.steps[0].compensation.clone().unwrap();
    for plans in subsets(&steps, &first_compensation) {
        three_ways(trip, &world, &plans);
    }
}

#[test]
fn a_saga_never_retries_a_forward_step() {
    // RETRIABLE on a saga step is accepted, and it is not a retry: one
    // transient failure of B rolls the saga back, natively and under
    // both figures.
    let text = r#"
        SAGA r
          STEP A PROGRAM "do_S1" COMPENSATION "undo_S1"
          STEP B PROGRAM "do_S2" COMPENSATION "undo_S2" RETRIABLE
        END
    "#;
    assert!(exotica::run_pipeline(text).is_ok(), "stage 2 accepts it");
    assert_eq!(exotica::lint_source(text, &[]).unwrap(), vec![]);
    let parsed = exotica::parse_spec(text).unwrap();
    let exotica::ParsedSpec::Saga(spec) = &parsed else {
        panic!("a saga")
    };
    let provisioned = exotica::steps_of(&parsed);
    let world = |plans: &Plans| exotica::provision(&provisioned, 0, plans);
    let plans = [("B".to_string(), FailurePlan::FirstN(1))];
    assert_eq!(
        three_ways(spec, &world, &plans),
        atm::SagaOutcome::RolledBack {
            abort_step: "B".into()
        }
    );
}

// ---------------------------------------------------------------------
// Flexible transactions — the Figure 3 example
// ---------------------------------------------------------------------

#[test]
fn figure3_equivalence_for_every_single_permanent_failure() {
    let spec = figure3_spec();
    let installer: Installer<'_> = &fixtures::register_figure3_programs;
    for fail in FIGURE3_STEPS {
        if spec.step(fail).unwrap().class.is_retriable() {
            continue; // a permanently failing retriable step livelocks by design
        }
        let plans = vec![(fail.to_string(), FailurePlan::Always)];
        let report = compare(&atm::check_flex(&spec).unwrap(), installer, &plans, 11).unwrap();
        assert!(
            report.equivalent(),
            "permanent failure of {fail}:\n{}",
            report.diff()
        );
    }
}

#[test]
fn figure3_equivalence_for_every_pair_of_failures() {
    // Permanent failure on one non-retriable step plus a transient
    // failure on any other step (including retriables).
    let spec = figure3_spec();
    let installer: Installer<'_> = &fixtures::register_figure3_programs;
    for a in FIGURE3_STEPS {
        if spec.step(a).unwrap().class.is_retriable() {
            continue;
        }
        for b in FIGURE3_STEPS {
            if a == b {
                continue;
            }
            let plans = vec![
                (a.to_string(), FailurePlan::Always),
                (b.to_string(), FailurePlan::FirstN(2)),
            ];
            let report = compare(&atm::check_flex(&spec).unwrap(), installer, &plans, 23).unwrap();
            assert!(
                report.equivalent(),
                "permanent {a} + transient {b}:\n{}",
                report.diff()
            );
        }
    }
}

#[test]
fn figure3_paper_narrative_outcomes() {
    // The appendix narrative, pinned against the workflow execution:
    // who commits via which path, what gets compensated.
    let spec = figure3_spec();
    let installer: Installer<'_> = &fixtures::register_figure3_programs;

    // T8 aborts: T5, T6 compensated; commits via p2 (T7 runs).
    let report = compare(
        &atm::check_flex(&spec).unwrap(),
        installer,
        &[("T8".to_string(), FailurePlan::Always)],
        5,
    )
    .unwrap();
    assert!(report.equivalent(), "{}", report.diff());
    assert!(report.workflow_committed);
    let flat: std::collections::BTreeMap<String, i64> = report
        .workflow_state
        .values()
        .flatten()
        .filter_map(|(k, v)| v.as_int().map(|i| (k.clone(), i)))
        .collect();
    assert_eq!(flat.get("T5"), Some(&-1), "T5 compensated");
    assert_eq!(flat.get("T6"), Some(&-1), "T6 compensated");
    assert_eq!(flat.get("T7"), Some(&1), "T7 committed");
    assert_eq!(flat.get("T8"), None, "T8 never committed");

    // T4 aborts: falls to p3, T3 commits, nothing compensated.
    let report = compare(
        &atm::check_flex(&spec).unwrap(),
        installer,
        &[("T4".to_string(), FailurePlan::Always)],
        5,
    )
    .unwrap();
    assert!(report.equivalent(), "{}", report.diff());
    let flat: std::collections::BTreeMap<String, i64> = report
        .workflow_state
        .values()
        .flatten()
        .filter_map(|(k, v)| v.as_int().map(|i| (k.clone(), i)))
        .collect();
    assert_eq!(flat.get("T1"), Some(&1));
    assert_eq!(flat.get("T2"), Some(&1));
    assert_eq!(flat.get("T3"), Some(&1));
    assert_eq!(flat.get("T5"), None);

    // T2 aborts: full abort, T1 compensated.
    let report = compare(
        &atm::check_flex(&spec).unwrap(),
        installer,
        &[("T2".to_string(), FailurePlan::Always)],
        5,
    )
    .unwrap();
    assert!(report.equivalent(), "{}", report.diff());
    assert!(!report.workflow_committed);
    let flat: std::collections::BTreeMap<String, i64> = report
        .workflow_state
        .values()
        .flatten()
        .filter_map(|(k, v)| v.as_int().map(|i| (k.clone(), i)))
        .collect();
    assert_eq!(flat.get("T1"), Some(&-1), "T1 compensated");
}

#[test]
fn figure3_equivalence_with_retriable_flakiness() {
    let spec = figure3_spec();
    let installer: Installer<'_> = &fixtures::register_figure3_programs;
    for (fail, retriable) in [("T8", "T7"), ("T4", "T3")] {
        let plans = vec![
            (fail.to_string(), FailurePlan::Always),
            (retriable.to_string(), FailurePlan::FirstN(3)),
        ];
        let report = compare(&atm::check_flex(&spec).unwrap(), installer, &plans, 9).unwrap();
        assert!(
            report.equivalent(),
            "{fail} + flaky {retriable}:\n{}",
            report.diff()
        );
        assert!(report.workflow_committed);
    }
}

#[test]
fn compensatable_retriable_members_never_fail_their_segment() {
    // A segment containing a compensatable-AND-retriable step: the
    // step's transient failures are absorbed inside the segment (exit
    // condition in the workflow, retry loop natively); the segment
    // only fails at its plain-compensatable members.
    use atm::FlexStep;
    let spec = atm::FlexSpec::new(
        "cr",
        vec![
            FlexStep::compensatable("C1", "prog_C1", "comp_C1"),
            FlexStep::compensatable_retriable("CR", "prog_CR", "comp_CR"),
            FlexStep::pivot("P", "prog_P"),
            FlexStep::retriable("R", "prog_R"),
        ],
        vec![vec!["C1", "CR", "P"], vec!["C1", "CR", "R"]],
    );
    assert!(atm::check_flex(&spec).is_ok());
    let installer_impl = move |fed: &std::sync::Arc<txn_substrate::MultiDatabase>,
                               reg: &txn_substrate::ProgramRegistry| {
        if fed.db("db").is_none() {
            fed.add_database("db");
        }
        for step in ["C1", "CR", "P", "R"] {
            reg.register(std::sync::Arc::new(
                txn_substrate::KvProgram::write(&format!("prog_{step}"), "db", step, 1i64)
                    .with_label(step),
            ));
            reg.register(std::sync::Arc::new(txn_substrate::KvProgram::write(
                &format!("comp_{step}"),
                "db",
                step,
                txn_substrate::Value::Int(-1),
            )));
        }
    };
    let installer: Installer<'_> = &installer_impl;

    // CR flakes twice, P fails permanently: both implementations must
    // absorb CR's flakiness, then fall to path 1 and commit via R.
    let plans = vec![
        ("CR".to_string(), FailurePlan::FirstN(2)),
        ("P".to_string(), FailurePlan::Always),
    ];
    let report = compare(&atm::check_flex(&spec).unwrap(), installer, &plans, 3).unwrap();
    assert!(report.equivalent(), "{}", report.diff());
    assert!(report.workflow_committed);

    // C1 fails permanently: full abort before anything else runs.
    let plans = vec![("C1".to_string(), FailurePlan::Always)];
    let report = compare(&atm::check_flex(&spec).unwrap(), installer, &plans, 3).unwrap();
    assert!(report.equivalent(), "{}", report.diff());
    assert!(!report.workflow_committed);
}

// ---------------------------------------------------------------------
// Flexible transactions — a parameterised family beyond Figure 3
// ---------------------------------------------------------------------

/// Builds the family member `family(a, b)`:
///
/// ```text
/// p0 = A1..Aa  X  B1..Bb  Y      (A*, B* compensatable; X, Y pivots)
/// p1 = A1..Aa  X  R1             (R1 retriable)
/// p2 = A1..Aa  R2                (R2 retriable)
/// ```
///
/// Y's failure falls to p1 (compensating B*), X's to p2 (directly),
/// and segment failures route through their own compensations.
fn family_spec(a: usize, b: usize) -> atm::FlexSpec {
    use atm::FlexStep;
    let mut steps = Vec::new();
    let mut p0: Vec<String> = Vec::new();
    for i in 1..=a {
        let name = format!("A{i}");
        steps.push(FlexStep::compensatable(
            &name,
            &format!("prog_{name}"),
            &format!("comp_{name}"),
        ));
        p0.push(name);
    }
    steps.push(FlexStep::pivot("X", "prog_X"));
    p0.push("X".into());
    for i in 1..=b {
        let name = format!("B{i}");
        steps.push(FlexStep::compensatable(
            &name,
            &format!("prog_{name}"),
            &format!("comp_{name}"),
        ));
        p0.push(name);
    }
    steps.push(FlexStep::pivot("Y", "prog_Y"));
    p0.push("Y".into());
    steps.push(FlexStep::retriable("R1", "prog_R1"));
    steps.push(FlexStep::retriable("R2", "prog_R2"));

    let mut p1: Vec<String> = p0[..a + 1].to_vec();
    p1.push("R1".into());
    let mut p2: Vec<String> = p0[..a].to_vec();
    p2.push("R2".into());

    atm::FlexSpec {
        name: format!("family_{a}_{b}"),
        steps,
        paths: vec![p0, p1, p2],
    }
}

/// Installs marker programs for [`family_spec`] on two databases.
fn install_family(
    spec: &atm::FlexSpec,
) -> impl Fn(&std::sync::Arc<txn_substrate::MultiDatabase>, &txn_substrate::ProgramRegistry) {
    let steps = spec.steps.clone();
    move |fed, reg| {
        for site in ["left", "right"] {
            if fed.db(site).is_none() {
                fed.add_database(site);
            }
        }
        for (i, step) in steps.iter().enumerate() {
            let site = ["left", "right"][i % 2];
            reg.register(std::sync::Arc::new(
                txn_substrate::KvProgram::write(&step.program, site, &step.name, 1i64)
                    .with_label(&step.name),
            ));
            if let Some(comp) = &step.compensation {
                reg.register(std::sync::Arc::new(txn_substrate::KvProgram::write(
                    comp,
                    site,
                    &step.name,
                    txn_substrate::Value::Int(-1),
                )));
            }
        }
    }
}

#[test]
fn family_specs_are_well_formed_and_translate() {
    for a in 1..=3 {
        for b in 1..=3 {
            let spec = family_spec(a, b);
            let checked =
                atm::check_flex(&spec).unwrap_or_else(|e| panic!("family({a},{b}): {e:?}"));
            exotica::translate_flex(&checked)
                .unwrap_or_else(|e| panic!("family({a},{b}) failed to translate: {e}"));
        }
    }
}

// ---------------------------------------------------------------------
// Flexible transactions — small random specs, every failure scenario
// ---------------------------------------------------------------------

/// A 64-bit LCG: the corpus is the same on every run and machine.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % n as u64) as usize
    }
}

/// A small flexible transaction: 2–5 steps of the four classes and 2–4
/// paths, each after the first extending a proper prefix of an earlier
/// one with 1–3 steps it lacks.
fn random_flex(seed: u64) -> atm::FlexSpec {
    use atm::FlexStep;
    let mut rng = Lcg(seed);
    let n = 2 + rng.below(4);
    let names: Vec<String> = (0..n).map(|i| format!("S{i}")).collect();
    let steps = names
        .iter()
        .map(|s| {
            let (prog, comp) = (format!("prog_{s}"), format!("comp_{s}"));
            match rng.below(4) {
                0 => FlexStep::compensatable(s, &prog, &comp),
                1 => FlexStep::retriable(s, &prog),
                2 => FlexStep::compensatable_retriable(s, &prog, &comp),
                _ => FlexStep::pivot(s, &prog),
            }
        })
        .collect();
    let mut paths: Vec<Vec<String>> = Vec::new();
    for _ in 0..2 + rng.below(3) {
        let mut path = match paths.len() {
            0 => Vec::new(),
            len => {
                let base: &Vec<String> = &paths[rng.below(len)];
                base[..rng.below(base.len())].to_vec()
            }
        };
        // Three times in four, only steps no path has yet: a step in two
        // continuations is outside the translation class, and without
        // this bias few specs would translate.
        let fresh = |s: &&String| !paths.iter().flatten().any(|p| p == *s);
        let mut unused: Vec<&String> = names.iter().filter(|s| !path.contains(s)).collect();
        if rng.below(4) != 0 && unused.iter().any(fresh) {
            unused.retain(fresh);
        }
        for _ in 0..1 + rng.below(unused.len().min(3)) {
            path.push(unused.remove(rng.below(unused.len())).clone());
        }
        paths.push(path);
    }
    atm::FlexSpec {
        name: format!("gen_{seed}"),
        steps,
        paths,
    }
}

/// Every subset of the steps that may abort, as permanent failures.
fn failure_scenarios(spec: &atm::FlexSpec) -> Vec<Vec<(String, FailurePlan)>> {
    let may_fail: Vec<&String> = spec
        .steps
        .iter()
        .filter(|s| !s.class.is_retriable())
        .map(|s| &s.name)
        .collect();
    (0..1usize << may_fail.len())
        .map(|bits| {
            may_fail
                .iter()
                .enumerate()
                .filter(|(i, _)| bits & (1 << i) != 0)
                .map(|(_, s)| (s.to_string(), FailurePlan::Always))
                .collect()
        })
        .collect()
}

/// The paper's equivalence beyond Figure 3, over `SPECS` seeded specs
/// and every failure scenario of each: nothing panics; a spec the
/// model rules accept never strands a committed step on the native
/// executor (a panic while it runs one is it trying to undo a step
/// with no compensation); and a spec the translator accepts compiles
/// to one start activity and behaves exactly like the native executor.
#[test]
fn random_flex_specs_keep_the_model_guarantees() {
    use std::panic::{catch_unwind, AssertUnwindSafe};
    const SPECS: u64 = 2000;
    let mut panics: Vec<String> = Vec::new();
    let mut stranded: Vec<String> = Vec::new();
    let mut inequivalent: Vec<String> = Vec::new();
    let (mut accepted, mut translated) = (0u64, 0u64);
    for seed in 0..SPECS {
        let spec = random_flex(seed);
        let label = format!("{:?}", spec.paths);
        let caught = |what: &str, e: Box<dyn std::any::Any + Send>| {
            let msg = e
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            format!("{what} on {label}: {msg}")
        };
        let text = exotica::emit_spec(&exotica::AtmSpec::Flexible(spec.clone()));
        if let Err(e) = catch_unwind(|| exotica::lint_source(&text, &[])) {
            panics.push(caught("lint_source", e));
        }
        let ok = match catch_unwind(|| atm::check_flex(&spec).is_ok()) {
            Ok(ok) => ok,
            Err(e) => {
                panics.push(caught("check_flex", e));
                continue;
            }
        };
        accepted += u64::from(ok);
        let install = install_family(&spec);
        for plans in failure_scenarios(&spec) {
            let run = catch_unwind(AssertUnwindSafe(|| {
                let fed = txn_substrate::MultiDatabase::new(0);
                let registry = std::sync::Arc::new(txn_substrate::ProgramRegistry::new());
                install(&fed, &registry);
                for (label, plan) in &plans {
                    fed.injector().set_plan(label, plan.clone());
                }
                atm::FlexExecutor::new(fed, registry).run(&spec)
            }));
            match run {
                Err(e) => {
                    let e = caught("FlexExecutor::run", e);
                    if ok {
                        stranded.push(format!("{e} under {plans:?}"));
                    }
                    panics.push(e);
                }
                Ok(Ok(res)) => {
                    // Whatever committed and does not persist was
                    // compensated.
                    let compensated = res.trace.compensated();
                    if let Some(left) =
                        res.trace.committed().into_iter().find(|s| {
                            !res.committed.iter().any(|c| c == s) && !compensated.contains(s)
                        })
                    {
                        stranded.push(format!("{label} under {plans:?} leaves {left}"));
                    }
                }
                Ok(Err(_)) => assert!(!ok, "{label}: accepted spec refused by the executor"),
            }
        }
        let Ok(checked) = atm::check_flex(&spec) else {
            continue; // an ill-formed spec has nothing to translate
        };
        let def = match catch_unwind(AssertUnwindSafe(|| exotica::translate_flex(&checked))) {
            Ok(Ok(def)) => def,
            Ok(Err(_)) => continue,
            Err(e) => {
                panics.push(caught("translate_flex", e));
                continue;
            }
        };
        translated += 1;
        let starts = def.start_activities().len();
        if starts != 1 {
            inequivalent.push(format!("{label}: {starts} start activities"));
            continue;
        }
        let installer: Installer<'_> = &install;
        for plans in failure_scenarios(&spec) {
            let report =
                compare(&atm::check_flex(&spec).unwrap(), installer, &plans, seed).unwrap();
            if !report.equivalent() {
                inequivalent.push(format!("{label} under {plans:?}:\n{}", report.diff()));
            }
        }
    }
    for (what, found) in [
        ("panics", &panics),
        ("stranded steps", &stranded),
        ("translations unlike the model", &inequivalent),
    ] {
        let shown = &found[..found.len().min(3)];
        assert!(found.is_empty(), "{} {what}, e.g. {shown:#?}", found.len());
    }
    // The corpus exercises both verdicts of both gates.
    assert!(
        (SPECS / 2..SPECS).contains(&accepted),
        "{accepted} accepted"
    );
    assert!(
        (100..accepted / 2).contains(&translated),
        "{translated} translated"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Equivalence across the family under a random single permanent
    /// failure and a random transient one.
    #[test]
    fn family_equivalence_randomised(
        a in 1usize..4,
        b in 1usize..4,
        fail_idx in 0usize..16,
        transient_idx in 0usize..16,
        transient_tries in 1u32..3,
        seed in 0u64..500,
    ) {
        let spec = family_spec(a, b);
        let names: Vec<String> = spec.steps.iter().map(|s| s.name.clone()).collect();
        let mut plans: Vec<(String, FailurePlan)> = Vec::new();
        // Permanent failure only on non-retriable steps.
        let fail = &names[fail_idx % names.len()];
        if !spec.step(fail).unwrap().class.is_retriable() {
            plans.push((fail.clone(), FailurePlan::Always));
        }
        let transient = &names[transient_idx % names.len()];
        if transient != fail {
            plans.push((transient.clone(), FailurePlan::FirstN(transient_tries)));
        }
        let install = install_family(&spec);
        let installer: Installer<'_> = &install;
        let report = compare(&atm::check_flex(&spec).unwrap(), installer, &plans, seed).unwrap();
        prop_assert!(report.equivalent(), "family({},{}) plans {:?}:\n{}",
            a, b, report.scenario, report.diff());
    }
}
