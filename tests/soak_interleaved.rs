//! Soak: many saga and flexible-transaction instances interleaved on
//! one engine, navigated round-robin one step at a time. Instance
//! state must stay fully isolated: every instance ends with exactly
//! the outcome it would have had running alone.

use atm::fixtures;
use std::sync::Arc;
use txn_substrate::{FailurePlan, KvProgram, MultiDatabase, ProgramRegistry, Value};
use wftx::engine::{Engine, InstanceId, InstanceStatus};
use wftx::model::Container;

#[test]
fn round_robin_interleaving_of_many_instances() {
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());

    // Per-instance programs: instance i writes its own keys, and its
    // step S2 fails iff i is odd (scripted per-label).
    let n_inst = 24usize;
    let mut defs = Vec::new();
    for i in 0..n_inst {
        let mut steps = Vec::new();
        for j in 1..=3 {
            let step = format!("I{i}_S{j}");
            registry.register(Arc::new(
                KvProgram::write(&format!("do_{step}"), "db", &step, 1i64).with_label(&step),
            ));
            registry.register(Arc::new(KvProgram::write(
                &format!("undo_{step}"),
                "db",
                &step,
                Value::Int(-1),
            )));
            steps.push(atm::StepSpec::compensatable(
                &step,
                &format!("do_{step}"),
                &format!("undo_{step}"),
            ));
        }
        if i % 2 == 1 {
            fed.injector()
                .set_plan(&format!("I{i}_S2"), FailurePlan::Always);
        }
        let spec = atm::SagaSpec::linear(&format!("saga_{i}"), steps);
        defs.push(exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap());
    }

    let engine = Engine::new(Arc::clone(&fed), registry);
    let mut ids = Vec::new();
    for def in &defs {
        engine.register(def.clone()).unwrap();
        ids.push(engine.start(&def.name, Container::empty()).unwrap());
    }

    // Round-robin stepping until global quiescence.
    loop {
        let mut progressed = false;
        for &id in &ids {
            if engine.step(id).unwrap() {
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let db = fed.db("db").unwrap();
    for (i, &id) in ids.iter().enumerate() {
        assert_eq!(
            engine.status(id).unwrap(),
            InstanceStatus::Finished,
            "i={i}"
        );
        let committed = engine
            .output(id)
            .unwrap()
            .get("Committed")
            .and_then(|v| v.as_int())
            == Some(1);
        assert_eq!(committed, i % 2 == 0, "i={i}");
        // Database effects exactly as if run alone.
        for j in 1..=3 {
            let key = format!("I{i}_S{j}");
            let expected = if i % 2 == 0 {
                Some(Value::Int(1))
            } else if j == 1 {
                Some(Value::Int(-1)) // compensated
            } else {
                None // S2 failed, S3 never ran
            };
            assert_eq!(db.peek(&key), expected, "i={i} j={j}");
        }
    }
}

#[test]
fn interleaved_flex_instances_stay_isolated() {
    // Three Figure 3 instances with different failure scripts,
    // interleaved. Scripting is per-world, so give each instance its
    // own step labels by cloning the spec with renamed steps.
    let fed = MultiDatabase::new(0);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());

    let scenarios: &[(&str, Option<&str>)] = &[
        ("a", None),         // happy: commits via p1
        ("b", Some("b_T8")), // T8 fails: commits via p2
        ("c", Some("b_T2")), // (label below) T2 fails: aborts
    ];
    let mut defs = Vec::new();
    for (tag, _) in scenarios {
        let mut spec = fixtures::figure3_spec();
        spec.name = format!("flex_{tag}");
        for step in &mut spec.steps {
            let new = format!("{tag}_{}", step.name);
            step.program = format!("prog_{new}");
            step.compensation = step.compensation.as_ref().map(|_| format!("comp_{new}"));
            registry.register(Arc::new(
                KvProgram::write(&step.program, "db", &new, 1i64).with_label(&new),
            ));
            if let Some(c) = &step.compensation {
                registry.register(Arc::new(KvProgram::write(c, "db", &new, Value::Int(-1))));
            }
            step.name = new;
        }
        for path in &mut spec.paths {
            for s in path {
                *s = format!("{tag}_{s}");
            }
        }
        defs.push(exotica::translate_flex(&atm::check_flex(&spec).unwrap()).unwrap());
    }
    fed.injector().set_plan("b_T8", FailurePlan::Always);
    fed.injector().set_plan("c_T2", FailurePlan::Always);

    let engine = Engine::new(Arc::clone(&fed), registry);
    let mut ids: Vec<InstanceId> = Vec::new();
    for def in &defs {
        engine.register(def.clone()).unwrap();
        ids.push(engine.start(&def.name, Container::empty()).unwrap());
    }
    loop {
        let mut progressed = false;
        for &id in &ids {
            if engine.step(id).unwrap() {
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }

    let outcome = |k: usize| {
        engine
            .output(ids[k])
            .unwrap()
            .get("Committed")
            .and_then(|v| v.as_int())
    };
    assert_eq!(outcome(0), Some(1), "a: happy");
    assert_eq!(outcome(1), Some(1), "b: commits via p2");
    assert_eq!(outcome(2), Some(0), "c: aborted");

    let db = fed.db("db").unwrap();
    assert_eq!(db.peek("a_T8"), Some(Value::Int(1)));
    assert_eq!(db.peek("b_T5"), Some(Value::Int(-1)), "b compensated T5");
    assert_eq!(db.peek("b_T7"), Some(Value::Int(1)));
    assert_eq!(db.peek("c_T1"), Some(Value::Int(-1)), "c compensated T1");
    assert_eq!(
        db.peek("c_T3"),
        None,
        "c's retriable fallback contains T2; aborted"
    );
}
