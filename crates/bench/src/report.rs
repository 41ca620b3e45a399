//! `report` — the one producer of EXPERIMENTS.md's E-series checks and
//! B1–B13 tables.
//!
//! Runs every experiment once with fixed iteration counts (means, no
//! confidence intervals) and prints compact tables: the per-figure
//! functional results (E-series) and the quantitative sweeps (B-series).
//! `ci/report_drift.sh` compares the table structure with EXPERIMENTS.md.
//!
//! ```sh
//! cargo run --release -p bench --bin report
//! ```

use atm::fixtures;
use bench::*;
use std::sync::Arc;
use txn_substrate::{FailurePlan, MultiDatabase, ProgramRegistry};
use wfms_engine::{recover_from, Journal, OrgModel};

fn main() {
    println!("wftx experiment report (see EXPERIMENTS.md for interpretation)");
    println!("================================================================\n");
    e_series();
    b1_saga_scaling();
    b2_compensation();
    b3_flex_success();
    b4_dpe();
    b5_recovery();
    b6_worklist();
    b7_translator();
    b8_substrate();
    b9_ablation();
    b10_makespan();
    b11_global_atomicity();
    b12_simulation();
    b13_nav_compiled();
}

/// E-series: functional reproduction of every figure / appendix trace.
fn e_series() {
    println!("-- E-series: figure reproductions (functional) --");
    // E1: meta-model + FDL round trip.
    let e1 = fixtures::linear_saga("e1", 3);
    let def = exotica::translate_saga(&atm::check_saga(&e1).unwrap()).unwrap();
    let fdl = wfms_fdl::emit(&def);
    let back = wfms_fdl::parse_and_validate(&fdl).unwrap();
    println!(
        "E1 figure1  meta-model + FDL round trip: {}",
        ok(back == def)
    );

    // E2: saga guarantee at every abort point (n = 6).
    let n = 6;
    let spec = fixtures::linear_saga("e2", n);
    let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
    let mut all = true;
    for j in 1..=n {
        let w = saga_world(n, 0);
        script(&w, &[(&format!("S{j}"), FailurePlan::Always)]);
        let committed = run_workflow(&w, &def);
        let mut okay = !committed;
        for i in 1..j {
            okay &= fixtures::marker(&w.0, &format!("S{i}")) == Some(-1);
        }
        for i in j..=n {
            okay &= fixtures::marker(&w.0, &format!("S{i}")) != Some(1);
        }
        all &= okay;
    }
    println!(
        "E2 figure2  saga translation, all abort points: {}",
        ok(all)
    );

    // E3: Figure 3 spec well-formed, three paths.
    let f3 = fixtures::figure3_spec();
    println!(
        "E3 figure3  flexible spec well-formed ({} steps, {} paths): {}",
        f3.steps.len(),
        f3.paths.len(),
        ok(atm::check_flex(&f3).is_ok())
    );

    // E4: translation equivalence over single permanent failures.
    let installer: exotica::verify::Installer<'_> = &fixtures::register_figure3_programs;
    let checked = atm::check_flex(&f3).unwrap();
    let mut all = true;
    for fail in fixtures::FIGURE3_STEPS {
        if f3.step(fail).unwrap().class.is_retriable() {
            continue;
        }
        let plans = vec![(fail.to_string(), FailurePlan::Always)];
        let r = exotica::compare(&checked, installer, &plans, 1).unwrap();
        all &= r.equivalent();
    }
    println!(
        "E4 figure4  flex translation ≡ native (all failures): {}",
        ok(all)
    );

    // E5: pipeline stages.
    let spec_text = exotica::emit_spec(&exotica::ParsedSpec::Flexible(f3.clone()));
    let out = exotica::run_pipeline(&spec_text);
    println!(
        "E5 figure5  spec→FDL→template pipeline: {}",
        ok(out.is_ok())
    );

    println!("E6/E7 appendix traces: covered by `cargo test --test appendix_traces`\n");
}

fn ok(b: bool) -> &'static str {
    if b {
        "OK"
    } else {
        "FAILED"
    }
}

fn b9_ablation() {
    use txn_substrate::FailurePlan;
    println!("-- B9 (ablation): Figure 2 blocks vs flat construction (µs/run, mean of 200) --");
    println!(
        "{:>4} {:>14} {:>12} {:>16} {:>14}",
        "n", "blocks_ok", "flat_ok", "blocks_comp", "flat_comp"
    );
    for n in [4usize, 16, 64] {
        let spec = fixtures::linear_saga("s", n);
        let checked = atm::check_saga(&spec).unwrap();
        let block = exotica::translate_saga(&checked).unwrap();
        let flat = exotica::translate_saga_flat(&checked).unwrap();
        let mid = format!("S{}", n / 2 + 1);
        let t_block = time_us(200, || {
            let w = saga_world(n, 0);
            assert!(run_workflow(&w, &block));
        });
        let t_flat = time_us(200, || {
            let w = saga_world(n, 0);
            assert!(run_workflow(&w, &flat));
        });
        let t_block_c = time_us(200, || {
            let w = saga_world(n, 0);
            script(&w, &[(&mid, FailurePlan::Always)]);
            assert!(!run_workflow(&w, &block));
        });
        let t_flat_c = time_us(200, || {
            let w = saga_world(n, 0);
            script(&w, &[(&mid, FailurePlan::Always)]);
            assert!(!run_workflow(&w, &flat));
        });
        println!(
            "{:>4} {:>14.1} {:>12.1} {:>16.1} {:>14.1}",
            n, t_block, t_flat, t_block_c, t_flat_c
        );
    }
    println!();
}

fn b10_makespan() {
    println!("-- B10: simulated business makespan of Figure 3 scenarios (virtual ticks) --");
    let scenarios: &[(&str, Vec<(&str, FailurePlan)>)] = &[
        ("happy (p1)", vec![]),
        (
            "T8 fails (comp T6,T5; p2)",
            vec![("T8", FailurePlan::Always)],
        ),
        ("T4 fails (p3)", vec![("T4", FailurePlan::Always)]),
        (
            "T4 fails + T3 flaky x2",
            vec![("T4", FailurePlan::Always), ("T3", FailurePlan::FirstN(2))],
        ),
        ("T2 fails (abort)", vec![("T2", FailurePlan::Always)]),
    ];
    let def =
        exotica::translate_flex(&atm::check_flex(&fixtures::figure3_spec()).unwrap()).unwrap();
    println!("{:<28} {:>9}", "scenario", "ticks");
    for (name, plans) in scenarios {
        let w = timed_figure3_world(0);
        script(&w, plans);
        run_workflow(&w, &def);
        println!("{:<28} {:>9}", name, w.0.clock().now());
    }
    println!();
}

/// A one-database world whose Figure 3 programs take these virtual
/// durations, each compensation half its step's (B10, B12).
fn timed_figure3_world(seed: u64) -> World {
    use txn_substrate::{KvProgram, Value};
    let durations = [10, 20, 40, 20, 30, 30, 50, 20];
    let fed = MultiDatabase::new(seed);
    fed.add_database("db");
    let registry = Arc::new(ProgramRegistry::new());
    for (step, d) in fixtures::FIGURE3_STEPS.iter().zip(durations) {
        registry.register(Arc::new(
            KvProgram::write(&format!("prog_{step}"), "db", step, 1i64)
                .with_label(step)
                .with_duration(d),
        ));
        registry.register(Arc::new(
            KvProgram::write(&format!("comp_{step}"), "db", step, Value::Int(-1))
                .with_duration(d / 2),
        ));
    }
    (fed, registry)
}

fn b11_global_atomicity() {
    use atm::{GlobalTxn, SiteWrites, StepSpec, TwoPcExecutor, TwoPcOutcome};
    use txn_substrate::{KvProgram, Value};
    println!("-- B11: 2PC global transaction vs saga under per-site commit failures --");
    println!(
        "   (1000 trials/point, 3 sites; probability p of unilateral abort at each site's commit)"
    );
    println!(
        "{:>5} {:>10} {:>10} {:>10} | {:>10} {:>12} {:>6}",
        "p", "2pc_ok", "2pc_abort", "2pc_TORN", "saga_ok", "saga_comp", "torn"
    );
    let sites = ["site_a", "site_b", "site_c"];
    for p10 in [0, 1, 2, 4] {
        let p = p10 as f64 / 10.0;
        let trials = 1000;
        let (mut ok2, mut ab2, mut torn2) = (0, 0, 0);
        let (mut oks, mut comps, mut torns) = (0, 0, 0);
        for t in 0..trials {
            // --- 2PC world ---
            let fed = MultiDatabase::new(5000 + t);
            for s in sites {
                fed.add_database(s);
                fed.injector()
                    .set_plan(&format!("{s}/commit"), FailurePlan::Probability { p });
            }
            let g = GlobalTxn {
                name: "g".into(),
                sites: sites
                    .iter()
                    .map(|s| SiteWrites {
                        db: s.to_string(),
                        writes: vec![("k".into(), Value::Int(1))],
                    })
                    .collect(),
            };
            match TwoPcExecutor::new(Arc::clone(&fed)).run(&g).outcome {
                TwoPcOutcome::Committed => ok2 += 1,
                TwoPcOutcome::Aborted { .. } | TwoPcOutcome::Blocked { .. } => ab2 += 1,
                TwoPcOutcome::Heuristic { .. } => torn2 += 1,
            }
            // --- saga world (same failure probability, at the step label) ---
            let fed = MultiDatabase::new(5000 + t);
            let registry = Arc::new(ProgramRegistry::new());
            let mut steps = Vec::new();
            for s in sites {
                fed.add_database(s);
                fed.injector().set_plan(s, FailurePlan::Probability { p });
                registry.register(Arc::new(
                    KvProgram::write(&format!("w_{s}"), s, "k", 1i64).with_label(s),
                ));
                registry.register(Arc::new(KvProgram::delete(&format!("u_{s}"), s, "k")));
                steps.push(StepSpec::compensatable(
                    s,
                    &format!("w_{s}"),
                    &format!("u_{s}"),
                ));
            }
            let exec = atm::SagaExecutor::new(Arc::clone(&fed), registry);
            let res = exec.run(&atm::SagaSpec::linear("s", steps)).unwrap();
            // Torn = some but not all keys present afterwards.
            let present = sites
                .iter()
                .filter(|s| fed.db(s).unwrap().peek("k").is_some())
                .count();
            if res.is_committed() {
                oks += 1;
            } else {
                comps += 1;
            }
            if present != 0 && present != sites.len() {
                torns += 1;
            }
        }
        println!(
            "{:>5.1} {:>10} {:>10} {:>10} | {:>10} {:>12} {:>6}",
            p, ok2, ab2, torn2, oks, comps, torns
        );
    }
    println!();
}

fn b12_simulation() {
    println!("-- B12: Monte-Carlo process simulation (Figure 3, durations as B10) --");
    println!("   (the §3.3 'simulation' WFMS feature: makespan distribution at failure prob p)");
    let spec = fixtures::figure3_spec();
    let def = exotica::translate_flex(&atm::check_flex(&spec).unwrap()).unwrap();
    println!(
        "{:>5} {:>9} {:>7} {:>7} {:>7} {:>7}",
        "p", "commit%", "p50", "p90", "p99", "max"
    );
    for p10 in [1, 2, 3] {
        let p = p10 as f64 / 10.0;
        let trials = 400;
        let mut makespans = Vec::with_capacity(trials);
        let mut commits = 0;
        for t in 0..trials {
            let w = timed_figure3_world(9000 + t as u64);
            for st in &spec.steps {
                if !st.class.is_retriable() {
                    w.0.injector()
                        .set_plan(&st.name, FailurePlan::Probability { p });
                }
            }
            if run_workflow(&w, &def) {
                commits += 1;
            }
            makespans.push(w.0.clock().now());
        }
        makespans.sort_unstable();
        let q = |f: f64| makespans[((makespans.len() - 1) as f64 * f) as usize];
        println!(
            "{:>5.1} {:>8.1}% {:>7} {:>7} {:>7} {:>7}",
            p,
            commits as f64 / trials as f64 * 100.0,
            q(0.5),
            q(0.9),
            q(0.99),
            makespans.last().unwrap()
        );
    }
    println!();
}

fn b1_saga_scaling() {
    println!("-- B1: saga latency, native vs workflow (µs/run, mean of 200) --");
    println!(
        "{:>4} {:>12} {:>12} {:>7}",
        "n", "native", "workflow", "ratio"
    );
    for n in [2usize, 4, 8, 16, 32, 64] {
        let spec = fixtures::linear_saga("s", n);
        let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
        let t_native = time_us(200, || {
            let w = saga_world(n, 0);
            assert!(run_saga_native(&w, &spec));
        });
        let t_wf = time_us(200, || {
            let w = saga_world(n, 0);
            assert!(run_workflow(&w, &def));
        });
        println!(
            "{:>4} {:>12.1} {:>12.1} {:>7.2}",
            n,
            t_native,
            t_wf,
            t_wf / t_native
        );
    }
    println!();
}

fn b2_compensation() {
    let n = 16;
    println!("-- B2: abort position vs cost (16-step saga, µs/run of 200) --");
    println!(
        "{:>9} {:>10} {:>12} {:>12}",
        "abort_at", "comps", "native", "workflow"
    );
    let spec = fixtures::linear_saga("s", n);
    let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
    for j in [1usize, 4, 8, 12, 16] {
        let label = format!("S{j}");
        let t_native = time_us(200, || {
            let w = saga_world(n, 0);
            script(&w, &[(&label, FailurePlan::Always)]);
            assert!(!run_saga_native(&w, &spec));
        });
        let t_wf = time_us(200, || {
            let w = saga_world(n, 0);
            script(&w, &[(&label, FailurePlan::Always)]);
            assert!(!run_workflow(&w, &def));
        });
        println!("{:>9} {:>10} {:>12.1} {:>12.1}", j, j - 1, t_native, t_wf);
    }
    println!();
}

fn b3_flex_success() {
    println!("-- B3: Figure 3 success rate vs per-step abort probability --");
    println!("   (1000 trials/point; native executor; pivots+compensatables fail with p)");
    println!(
        "{:>5} {:>9} {:>7} {:>7} {:>7} {:>8}",
        "p", "commit%", "via_p1", "via_p2", "via_p3", "aborted"
    );
    let spec = fixtures::figure3_spec();
    for p10 in 0..=8 {
        let p = p10 as f64 / 10.0;
        let mut via = [0u32; 3];
        let mut aborted = 0u32;
        let trials = 1000;
        for t in 0..trials {
            let fed = MultiDatabase::new(1000 + t as u64);
            let registry = Arc::new(ProgramRegistry::new());
            fixtures::register_figure3_programs(&fed, &registry);
            for step in &spec.steps {
                if !step.class.is_retriable() {
                    fed.injector()
                        .set_plan(&step.name, FailurePlan::Probability { p });
                }
            }
            let exec = atm::FlexExecutor::new(Arc::clone(&fed), registry);
            match exec.run(&spec).unwrap().outcome {
                atm::FlexOutcome::CommittedVia(k) => via[k] += 1,
                atm::FlexOutcome::Aborted => aborted += 1,
                atm::FlexOutcome::Stuck { .. } => aborted += 1,
            }
        }
        let commit = via.iter().sum::<u32>() as f64 / trials as f64 * 100.0;
        println!(
            "{:>5.1} {:>8.1}% {:>7} {:>7} {:>7} {:>8}",
            p, commit, via[0], via[1], via[2], aborted
        );
    }
    println!();
}

fn b4_dpe() {
    println!("-- B4: dead path elimination (µs/run, mean of 100) --");
    println!(
        "{:>9} {:>14} {:>14} {:>7}",
        "n", "eliminated", "executed", "ratio"
    );
    for n in [8usize, 32, 128, 512] {
        let dead = chain_process(n, "fail");
        let live = chain_process(n, "ok");
        let t_dead = time_us(100, || {
            let w = plain_world(0);
            run_process(&w, &dead);
        });
        let t_live = time_us(100, || {
            let w = plain_world(0);
            run_process(&w, &live);
        });
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>7.2}",
            n,
            t_dead,
            t_live,
            t_dead / t_live
        );
    }
    println!();
}

fn b5_recovery() {
    println!("-- B5: journal replay (µs, mean of 50) --");
    println!("{:>10} {:>12}", "events", "replay");
    for instances in [2usize, 8, 32, 128] {
        let n = 8;
        let spec = fixtures::linear_saga("s", n);
        let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
        let w = saga_world(n, 0);
        let engine = wfms_engine::Engine::new(Arc::clone(&w.0), Arc::clone(&w.1));
        engine.register(def.clone()).unwrap();
        for _ in 0..instances {
            let id = engine
                .start(&def.name, wfms_model::Container::empty())
                .unwrap();
            engine.run_to_quiescence(id).unwrap();
        }
        let events = engine.journal_events();
        let len = events.len();
        let t = time_us(50, || {
            let w2 = saga_world(n, 0);
            let _ = recover_from(
                Journal::new(),
                events.clone(),
                vec![def.clone()],
                OrgModel::new(),
                Arc::clone(&w2.0),
                Arc::clone(&w2.1),
            )
            .unwrap();
        });
        println!("{:>10} {:>12.1}", len, t);
    }
    // Checkpoint ablation: same 128-instance journal, compacted.
    {
        let n = 8;
        let spec = fixtures::linear_saga("s", n);
        let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
        let w = saga_world(n, 0);
        let engine = wfms_engine::Engine::new(Arc::clone(&w.0), Arc::clone(&w.1));
        engine.register(def.clone()).unwrap();
        for _ in 0..128 {
            let id = engine
                .start(&def.name, wfms_model::Container::empty())
                .unwrap();
            engine.run_to_quiescence(id).unwrap();
        }
        engine.checkpoint();
        let events = engine.journal_events();
        let len = events.len();
        let t = time_us(50, || {
            let w2 = saga_world(n, 0);
            let _ = recover_from(
                Journal::new(),
                events.clone(),
                vec![def.clone()],
                OrgModel::new(),
                Arc::clone(&w2.0),
                Arc::clone(&w2.1),
            )
            .unwrap();
        });
        println!(
            "{:>10} {:>12.1}   (after engine checkpoint: 128 instances -> {len} events)",
            len, t
        );
    }
    println!(
        "(a journal *file* is replayed by the pass that opens it: decode, apply, drop — no \
         event list; the database side of recovery, WAL redo, is bounded by the checkpoint \
         rule: see B8)"
    );
    println!();
}

fn b6_worklist() {
    use wfms_engine::{Engine, EngineConfig};
    use wfms_model::{Activity, Container, ProcessBuilder};
    println!("-- B6: worklist offer+claim+execute (µs/item, mean of 200) --");
    println!("{:>7} {:>12}", "clerks", "cycle");
    for m in [1usize, 4, 16, 64] {
        let mut org = OrgModel::new().person("boss", &["manager"]);
        for i in 0..m {
            org = org.person_under(&format!("clerk{i}"), &["clerk"], "boss", 2);
        }
        let def = ProcessBuilder::new("manual")
            .activity(Activity::program("M", "ok").for_role("clerk"))
            .build()
            .unwrap();
        let t = time_us(200, || {
            let w = plain_world(0);
            let engine = Engine::with_config(
                Arc::clone(&w.0),
                Arc::clone(&w.1),
                EngineConfig {
                    org: org.clone(),
                    ..EngineConfig::default()
                },
            );
            engine.register(def.clone()).unwrap();
            let id = engine.start("manual", Container::empty()).unwrap();
            engine.run_to_quiescence(id).unwrap();
            let who = format!("clerk{}", m - 1);
            let item = engine.worklist(&who)[0].id;
            engine.execute_item(item, &who).unwrap();
        });
        println!("{:>7} {:>12.1}", m, t);
    }
    println!();
}

fn b7_translator() {
    println!("-- B7: Exotica/FMTM pre-processor (µs, mean of 300) --");
    println!(
        "{:>6} {:>11} {:>10} {:>11} {:>10}",
        "steps", "translate", "emit", "import", "fdl_bytes"
    );
    for n in [4usize, 16, 64] {
        let spec = fixtures::linear_saga("s", n);
        let t_tr = time_us(300, || {
            exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
        });
        let def = exotica::translate_saga(&atm::check_saga(&spec).unwrap()).unwrap();
        let t_emit = time_us(300, || {
            wfms_fdl::emit(&def);
        });
        let fdl = wfms_fdl::emit(&def);
        let t_imp = time_us(300, || {
            wfms_fdl::parse_and_validate(&fdl).unwrap();
        });
        println!(
            "{:>6} {:>11.1} {:>10.1} {:>11.1} {:>10}",
            n,
            t_tr,
            t_emit,
            t_imp,
            fdl.len()
        );
    }
    let f3 = fixtures::figure3_spec();
    let t = time_us(300, || {
        exotica::translate_flex(&atm::check_flex(&f3).unwrap()).unwrap();
    });
    println!("figure3 flexible translation: {t:.1} µs\n");
}

fn b13_nav_compiled() {
    println!("-- B13: compiled navigator vs reference interpreter (µs/run, mean of 50) --");
    println!(
        "{:>6} {:>12} {:>12} {:>8}",
        "n", "reference", "compiled", "speedup"
    );
    for n in [25usize, 100, 400] {
        let (t_ref, t_cmp) = reference_vs_compiled(&plain_world(0), &chain_process(n, "ok"), 50);
        println!(
            "{:>6} {:>12.1} {:>12.1} {:>8.2}",
            n,
            t_ref,
            t_cmp,
            t_ref / t_cmp
        );
    }

    // The optimizer's effect is small beside a shared host's noise, so
    // the two templates run in interleaved rounds and each keeps its
    // fastest round.
    let (gates, dead_len, rounds) = (40, 5, 8);
    let def = const_heavy_process(gates, dead_len);
    let compiled = wfms_engine::CompiledProcess::compile(def.clone());
    let (_, stats) = wfms_engine::optimize::optimize(&compiled);
    let w = plain_world(0);
    let (unopt, opt) = (unoptimized_engine(&w, &def), compiled_engine(&w, &def));
    let (mut t_unopt, mut t_opt) = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        t_unopt = t_unopt.min(time_us(16, || {
            run_compiled_once(&unopt, &def.name);
        }));
        t_opt = t_opt.min(time_us(16, || {
            run_compiled_once(&opt, &def.name);
        }));
    }
    println!(
        "{:<19} {:>12} {:>12} {:>8} {:>12} {:>7}",
        "template", "unoptimized", "optimized", "speedup", "plans_fixed", "pruned"
    );
    println!(
        "{:<19} {:>12.1} {:>12.1} {:>8.2} {:>12} {:>7}   (best of {rounds} rounds of 16)",
        format!("const_heavy {gates}x{dead_len}"),
        t_unopt,
        t_opt,
        t_unopt / t_opt,
        stats.plans_fixed,
        stats.dead_acts
    );

    // The gallery shapes are 4–10 activities, so more runs per mean.
    println!(
        "{:<19} {:>12} {:>12} {:>8}   (mean of 200)",
        "pattern", "reference", "compiled", "speedup"
    );
    for name in PATTERN_WORKLOADS {
        let (def, w) = pattern_workload(name);
        let (t_ref, t_cmp) = reference_vs_compiled(&w, &def, 200);
        println!(
            "{:<19} {:>12.1} {:>12.1} {:>8.2}",
            name,
            t_ref,
            t_cmp,
            t_ref / t_cmp
        );
    }
    println!();
}

/// Mean µs per run of `def` on the reference interpreter, then on the
/// compiled engine, each with the template registered once.
fn reference_vs_compiled(w: &World, def: &wfms_model::ProcessDefinition, iters: u32) -> (f64, f64) {
    let mut reference = reference_engine(w, def);
    let t_ref = time_us(iters, || {
        run_reference_once(&mut reference, &def.name);
    });
    let engine = compiled_engine(w, def);
    let t_cmp = time_us(iters, || {
        run_compiled_once(&engine, &def.name);
    });
    (t_ref, t_cmp)
}

fn b8_substrate() {
    use txn_substrate::{Database, DbConfig};
    println!("-- B8: substrate 2PL (increments on 4 hot keys) --");
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "threads", "txns", "txn/s", "deadlocks"
    );
    for threads in [1usize, 2, 4, 8] {
        let db = Arc::new(Database::new(DbConfig::named("d")));
        let per = 5_000usize;
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for _ in 0..threads {
                let db = Arc::clone(&db);
                s.spawn(move || {
                    for i in 0..per {
                        let key = format!("hot{}", i % 4);
                        loop {
                            let mut t = db.begin();
                            let cur = match t.get(&key) {
                                Ok(v) => v.and_then(|v| v.as_int()).unwrap_or(0),
                                Err(_) => continue,
                            };
                            if t.put(&key, cur + 1).is_err() {
                                continue;
                            }
                            if t.commit().is_ok() {
                                break;
                            }
                        }
                    }
                });
            }
        });
        let dt = start.elapsed().as_secs_f64();
        let total = per * threads;
        println!(
            "{:>8} {:>12} {:>12.0} {:>10}",
            threads,
            total,
            total as f64 / dt,
            db.stats().deadlock_aborts
        );
    }
    // WAL redo: 10 000 single-write commits on 256 keys, then crash +
    // recover. The database checkpoints its own log past
    // max(4096, 4 × keys) records, so redo is bounded, not the history.
    let db = Database::new(DbConfig::named("d"));
    let commits = 10_000i64;
    for i in 0..commits {
        let mut t = db.begin();
        t.put(&format!("k{}", i % 256), i).unwrap();
        t.commit().unwrap();
    }
    let before = db.snapshot();
    let mut replayed = 0;
    let t = time_us(100, || {
        db.crash();
        replayed = db.recover();
    });
    assert_eq!(db.snapshot(), before);
    println!("{:>8} {:>12} {:>12}", "commits", "replayed", "redo");
    println!(
        "{:>8} {:>12} {:>12.1}   (WAL redo, 256 keys; µs per crash + recover, mean of 100)",
        commits, replayed, t
    );
    println!();
}
