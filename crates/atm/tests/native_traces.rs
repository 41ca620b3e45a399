//! The native executors, run by run. Each line of
//! `tests/fixtures/native_traces.golden` is one scripted run: its
//! outcome, its trace, the steps still committed (flexible runs), and
//! the final marker of every step. The file was written by the build
//! before the saga executor's loop became the flexible one's, so any
//! change of behaviour in either executor shows up here as a moved line.

use std::sync::Arc;

use atm::fixtures::{self, FIGURE3_STEPS};
use atm::{FlexExecutor, SagaExecutor, SagaSpec, StepSpec};
use txn_substrate::{on_attempts, FailurePlan, MultiDatabase, ProgramRegistry};

type Plans = Vec<(String, FailurePlan)>;

fn world(
    install: impl Fn(&Arc<MultiDatabase>, &ProgramRegistry),
    plans: &Plans,
) -> (Arc<MultiDatabase>, Arc<ProgramRegistry>) {
    let fed = MultiDatabase::new(0);
    let registry = Arc::new(ProgramRegistry::new());
    install(&fed, &registry);
    for (label, plan) in plans {
        fed.injector().set_plan(label, plan.clone());
    }
    (fed, registry)
}

fn markers(fed: &Arc<MultiDatabase>, steps: &[String]) -> String {
    steps
        .iter()
        .map(|s| match fixtures::marker(fed, s) {
            Some(v) => format!("{s}={v}"),
            None => format!("{s}=_"),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn label(plans: &Plans) -> String {
    let parts: Vec<String> = plans.iter().map(|(l, p)| format!("{l}:{p:?}")).collect();
    format!("[{}]", parts.join(", "))
}

fn saga_line(spec: &SagaSpec, n: usize, plans: &Plans, max_retries: Option<u32>) -> String {
    let (fed, registry) = world(|f, r| fixtures::register_saga_programs(f, r, n), plans);
    let mut exec = SagaExecutor::new(Arc::clone(&fed), registry);
    if let Some(max) = max_retries {
        exec.max_compensation_retries = max;
    }
    let res = exec.run(spec).unwrap();
    let steps: Vec<String> = spec.steps().map(|s| s.name.clone()).collect();
    format!(
        "saga {} {}: {:?} | {} | {}",
        spec.name,
        label(plans),
        res.outcome,
        res.trace.compact(),
        markers(&fed, &steps)
    )
}

fn flex_line(plans: &Plans, max_retries: Option<u32>) -> String {
    let (fed, registry) = world(fixtures::register_figure3_programs, plans);
    let mut exec = FlexExecutor::new(Arc::clone(&fed), registry);
    if let Some(max) = max_retries {
        exec.max_retries = max;
    }
    let res = exec.run(&fixtures::figure3_spec()).unwrap();
    let steps: Vec<String> = FIGURE3_STEPS.iter().map(|s| s.to_string()).collect();
    format!(
        "flex figure3 {}: {:?} | {} | committed {:?} | {}",
        label(plans),
        res.outcome,
        res.trace.compact(),
        res.committed,
        markers(&fed, &steps)
    )
}

fn always(step: &str) -> (String, FailurePlan) {
    (step.to_string(), FailurePlan::Always)
}

fn runs() -> Vec<String> {
    let mut out = Vec::new();

    // linear_saga(8): every abort position (9 = none), each with a clean
    // and a flaky compensation of S1.
    let saga8 = fixtures::linear_saga("saga8", 8);
    for j in 1..=9 {
        for flaky in [false, true] {
            let mut plans = Plans::new();
            if j <= 8 {
                plans.push(always(&format!("S{j}")));
            }
            if flaky {
                plans.push(("undo_S1".into(), on_attempts([0, 2])));
            }
            out.push(saga_line(&saga8, 8, &plans, None));
        }
    }
    // A compensation that never commits, past a small retry bound.
    out.push(saga_line(
        &fixtures::linear_saga("saga2", 2),
        2,
        &vec![always("S2"), always("undo_S1")],
        Some(3),
    ));
    // A compensatable-and-retriable saga step that fails once: sagas
    // never retry a forward step.
    let retriable = SagaSpec::linear(
        "retriable",
        vec![
            StepSpec::compensatable("S1", "do_S1", "undo_S1"),
            StepSpec::compensatable_retriable("S2", "do_S2", "undo_S2"),
            StepSpec::compensatable("S3", "do_S3", "undo_S3"),
        ],
    );
    out.push(saga_line(
        &retriable,
        3,
        &vec![("S2".into(), FailurePlan::FirstN(1))],
        None,
    ));
    // The saga recorded as "staged": its three steps, in order.
    let staged = SagaSpec::linear(
        "staged",
        vec![
            StepSpec::compensatable("S1", "do_S1", "undo_S1"),
            StepSpec::compensatable("S2", "do_S2", "undo_S2"),
            StepSpec::compensatable("S3", "do_S3", "undo_S3"),
        ],
    );
    for plans in [vec![], vec![always("S2")], vec![always("S3")]] {
        out.push(saga_line(&staged, 3, &plans, None));
    }

    // Figure 3: no failure, every single permanent failure of a step
    // that may abort, every such failure with a transient one anywhere
    // else, every pair of permanent failures, and the flaky retriables.
    let spec = fixtures::figure3_spec();
    let may_abort: Vec<&str> = FIGURE3_STEPS
        .into_iter()
        .filter(|name| {
            !spec
                .steps
                .iter()
                .any(|s| s.name == *name && s.class.is_retriable())
        })
        .collect();
    out.push(flex_line(&vec![], None));
    for a in &may_abort {
        out.push(flex_line(&vec![always(a)], None));
    }
    for a in &may_abort {
        for b in FIGURE3_STEPS {
            if *a != b {
                let plans = vec![always(a), (b.to_string(), FailurePlan::FirstN(2))];
                out.push(flex_line(&plans, None));
            }
        }
    }
    for (i, a) in may_abort.iter().enumerate() {
        for b in &may_abort[i + 1..] {
            out.push(flex_line(&vec![always(a), always(b)], None));
        }
    }
    for (fail, retriable) in [("T8", "T7"), ("T4", "T3")] {
        let plans = vec![
            always(fail),
            (retriable.to_string(), FailurePlan::FirstN(3)),
        ];
        out.push(flex_line(&plans, None));
    }
    // A retriable step that never commits, past a small retry bound.
    out.push(flex_line(&vec![always("T4"), always("T3")], Some(5)));
    out
}

#[test]
fn native_runs_match_the_recorded_traces() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/native_traces.golden"
    );
    let pinned = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let now = runs();
    let pinned: Vec<&str> = pinned.lines().collect();
    assert_eq!(now.len(), pinned.len(), "number of recorded runs");
    for (now, pinned) in now.iter().zip(&pinned) {
        assert_eq!(now, pinned);
    }
}
