//! The Figure 3 flexible transaction, end to end: specification text
//! → Exotica pipeline → Figure 4 workflow process → execution on the
//! multidatabase under scripted failures, with the native flexible
//! transaction executor run alongside as the oracle.
//!
//! ```sh
//! cargo run --example flexible_multidb
//! ```

use atm::fixtures;
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
use wftx::engine::{audit, Engine, InstanceStatus};
use wftx::model::Container;

fn main() {
    // The specification, in the pre-processor's textual format.
    let spec = fixtures::figure3_spec();
    let spec_text = exotica::emit_spec(&exotica::ParsedSpec::Flexible(spec.clone()));
    println!("---- specification ----\n{spec_text}");

    let out = exotica::run_pipeline(&spec_text).expect("pipeline succeeds");
    println!(
        "translated to workflow process {:?}: {} activities ({} including blocks), depth {}",
        out.process.name,
        out.process.activities.len(),
        out.process.total_activities(),
        out.process.nesting_depth(),
    );

    let scenarios: &[(&str, Vec<(&str, FailurePlan)>)] = &[
        ("happy path (commits via p1)", vec![]),
        (
            "T8 aborts (compensate T6, T5; commit via p2)",
            vec![("T8", FailurePlan::Always)],
        ),
        (
            "T4 aborts (fall through to p3; T3 retried twice)",
            vec![("T4", FailurePlan::Always), ("T3", FailurePlan::FirstN(2))],
        ),
        (
            "T2 aborts (full abort; compensate T1)",
            vec![("T2", FailurePlan::Always)],
        ),
    ];

    let checked = atm::check_flex(&spec).expect("Figure 3 is well-formed");
    for (title, plans) in scenarios {
        println!("==== {title} ====");
        let fed = MultiDatabase::new(0);
        let programs = Arc::new(ProgramRegistry::new());
        fixtures::register_figure3_programs(&fed, &programs);
        for (label, plan) in plans {
            fed.injector().set_plan(label, plan.clone());
        }

        let engine = Engine::new(Arc::clone(&fed), programs);
        engine.register(out.process.clone()).unwrap();
        let id = engine.start("figure3", Container::empty()).unwrap();
        assert_eq!(
            engine.run_to_quiescence(id).unwrap(),
            InstanceStatus::Finished
        );

        let output = engine.output(id).unwrap();
        let committed = output.get("Committed").and_then(|v| v.as_int()) == Some(1);
        let via = (0..3)
            .find(|k| {
                output
                    .get(&exotica::flexible::via_member(*k))
                    .and_then(|v| v.as_int())
                    == Some(1)
            })
            .map(|k| format!("p{}", k + 1))
            .unwrap_or_else(|| "-".into());
        println!(
            "outcome: {} {}",
            if committed {
                "COMMITTED via"
            } else {
                "ABORTED"
            },
            if committed { via } else { String::new() }
        );
        print!("markers:");
        for t in fixtures::FIGURE3_STEPS {
            match fixtures::marker(&fed, t) {
                Some(1) => print!(" {t}=committed"),
                Some(-1) => print!(" {t}=compensated"),
                _ => {}
            }
        }
        println!();

        let s = audit::summarize(&engine.journal_events(), id);
        println!(
            "navigation: {} executions, {} dead-path eliminations, {} reschedules",
            s.executions, s.eliminated, s.reschedules
        );

        // Oracle: the native executor under the same failure script.
        let plans_owned: Vec<(String, FailurePlan)> = plans
            .iter()
            .map(|(l, p)| (l.to_string(), p.clone()))
            .collect();
        let installer: exotica::verify::Installer<'_> = &fixtures::register_figure3_programs;
        let report = exotica::compare(&checked, installer, &plans_owned, 7).unwrap();
        assert!(report.equivalent(), "{}", report.diff());
        println!("native executor agrees: OK\n");
    }
}
