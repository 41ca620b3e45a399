//! `navbench` — measures the two headline navigation numbers and
//! writes them to `BENCH_nav.json` (the artifact uploaded by CI):
//!
//! * **nav_compiled**: per-run navigation latency of the compiled
//!   engine vs. the string-keyed reference interpreter on a
//!   100-activity chain (templates registered once; the timed body is
//!   start + run-to-quiescence);
//! * **observe_overhead**: the same 100-activity chain with the
//!   observability layer on (live metrics registry) vs. off — the
//!   overhead the `fmtm run --metrics-out` / `fmtm top` paths pay;
//! * **const_prune**: a constant-condition-heavy template run from
//!   its raw compiled form vs. the optimized form the analyzer-driven
//!   optimizer produces (plans decided, dead branches pruned) — the
//!   navigator win `wfms_engine::optimize` buys at registration time;
//! * **patterns**: the workflow-pattern gallery shapes
//!   (`examples/patterns/`: parallel split/sync, discriminator,
//!   2-of-3 quorum), reference vs. compiled — chain workloads miss
//!   the join bookkeeping these exercise;
//! * **submit_path**: µs per submission through the service runtime,
//!   at the shard-pool layer (group commit, no network), over a
//!   loopback HTTP/1.1 keep-alive connection request-by-request, and
//!   pipelined in bursts of 64 (the batch shares one group commit, so
//!   the wire cost amortizes); plus an open-loop `latency_curve` —
//!   latency-under-load percentiles at fixed offered rates, measured
//!   from each request's scheduled arrival.
//!
//! The host's core count is recorded alongside the numbers: the
//! serving-path sections run a shard worker, a reactor and a client
//! thread, so they read differently on one core.
//!
//! ```sh
//! cargo run --release -p bench --bin navbench -- [--quick] [--out PATH]
//! ```

use bench::nav::{
    compiled_engine, const_heavy_process, observed_engine, pattern_workload, reference_engine,
    run_compiled_once, run_reference_once, unoptimized_engine, PATTERN_WORKLOADS,
};
use bench::{chain_process, plain_world, time_us};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wfms_model::Container;
use wfms_server::{
    latency_curve, Http1Client, LoadOptions, PoolConfig, Server, ServerConfig, ShardPool,
    SubmitOutcome,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_nav.json".to_string());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (iters, chain_len): (u32, usize) = if quick { (15, 100) } else { (50, 100) };

    // -- nav_compiled: 100-activity chain, register once, run many --
    let def = chain_process(chain_len, "ok");
    let w = plain_world(0);
    let mut reference = reference_engine(&w, &def);
    let t_ref = time_us(iters, || {
        run_reference_once(&mut reference, "chain");
    });
    let engine = compiled_engine(&w, &def);
    let t_compiled = time_us(iters, || {
        run_compiled_once(&engine, "chain");
    });
    let nav_speedup = t_ref / t_compiled;
    println!("nav_compiled ({chain_len}-activity chain, mean of {iters}):");
    println!("  reference  {t_ref:>10.1} µs/run");
    println!("  compiled   {t_compiled:>10.1} µs/run   ({nav_speedup:.2}x)");

    // -- observe_overhead: same chain, observability layer on --
    // Interleaved rounds with min-of-means: a single long mean absorbs
    // scheduler spikes on shared hosts and can swamp a sub-5% effect;
    // the per-round minimum is a robust floor for both engines.
    let observed = observed_engine(&w, &def);
    let rounds = if quick { 5 } else { 8 };
    let per_round = (iters / 3).max(5);
    let (mut t_off, mut t_on) = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        t_off = t_off.min(time_us(per_round, || {
            run_compiled_once(&engine, "chain");
        }));
        t_on = t_on.min(time_us(per_round, || {
            run_compiled_once(&observed, "chain");
        }));
    }
    let overhead_pct = (t_on / t_off - 1.0) * 100.0;
    println!("observe_overhead (same chain, metrics registry live, best of {rounds} rounds):");
    println!("  metrics off {t_off:>9.1} µs/run");
    println!("  metrics on  {t_on:>9.1} µs/run   ({overhead_pct:+.1}%)");

    // -- const_prune: constant-heavy template, optimizer on vs off --
    // Same interleaved min-of-means discipline as observe_overhead.
    let (gates, dead_len) = if quick { (20, 4) } else { (40, 5) };
    let cdef = const_heavy_process(gates, dead_len);
    let (_, opt_stats) =
        wfms_engine::optimize::optimize(&wfms_engine::CompiledProcess::compile(cdef.clone()));
    let unopt = unoptimized_engine(&w, &cdef);
    let opt = compiled_engine(&w, &cdef);
    let (mut t_unopt, mut t_opt) = (f64::MAX, f64::MAX);
    for _ in 0..rounds {
        t_unopt = t_unopt.min(time_us(per_round, || {
            run_compiled_once(&unopt, "const_heavy");
        }));
        t_opt = t_opt.min(time_us(per_round, || {
            run_compiled_once(&opt, "const_heavy");
        }));
    }
    let prune_speedup = t_unopt / t_opt;
    println!(
        "const_prune ({gates} gates x {dead_len} dead, {} plans fixed, \
         {} activities pruned, best of {rounds} rounds):",
        opt_stats.plans_fixed, opt_stats.dead_acts
    );
    println!("  unoptimized {t_unopt:>9.1} µs/run");
    println!("  optimized   {t_opt:>9.1} µs/run   ({prune_speedup:.2}x)");

    // -- patterns: the gallery shapes, reference vs compiled --
    // Tiny processes (4–10 activities), so many iterations per
    // measurement; what varies across them is the join bookkeeping
    // (AND/OR decisions, dead-path elimination of losing branches).
    let pattern_iters = iters * 4;
    let mut pattern_rows = Vec::new();
    println!("patterns (gallery shapes, mean of {pattern_iters}):");
    for name in PATTERN_WORKLOADS {
        let (pdef, pw) = pattern_workload(name);
        let mut reference = reference_engine(&pw, &pdef);
        let p_ref = time_us(pattern_iters, || {
            run_reference_once(&mut reference, &pdef.name);
        });
        let engine = compiled_engine(&pw, &pdef);
        let p_compiled = time_us(pattern_iters, || {
            run_compiled_once(&engine, &pdef.name);
        });
        let p_speedup = p_ref / p_compiled;
        println!(
            "  {name:<20} reference {p_ref:>6.1} µs/run   \
             compiled {p_compiled:>6.1} µs/run   ({p_speedup:.2}x)"
        );
        pattern_rows.push(format!(
            "    \"{name}\": {{\n      \"reference_us\": {p_ref:.1},\n      \
             \"compiled_us\": {p_compiled:.1},\n      \"speedup\": {p_speedup:.2}\n    }}"
        ));
    }
    let patterns_json = pattern_rows.join(",\n");

    // -- submit_path: service-runtime submissions, pool and wire --
    // One shard so the measurement is per-submit cost, not spread.
    // The pool path is start + navigate + group commit; the HTTP path
    // adds parse + serialize on a keep-alive loopback connection.
    let submit_iters = if quick { 200 } else { 1000 };
    let data_dir = std::env::temp_dir().join(format!("navbench-submit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&data_dir);
    let submit_def = chain_process(8, "ok");
    let mut pool_cfg = PoolConfig::new(&data_dir);
    pool_cfg.templates = vec![submit_def.clone()];
    // Group-commit batches as deep as the pipelining burst below, so
    // a full burst shares a single journal flush.
    pool_cfg.batch_max = 128;
    let provision = |_shard: usize| {
        let (fed, registry) = plain_world(0);
        (fed, registry)
    };
    let pool = ShardPool::open(
        pool_cfg,
        Arc::new(wfms_observe::Registry::new()),
        &provision,
    )
    .expect("pool opens");
    let t_pool = time_us(submit_iters, || {
        let outcome = pool.submit("chain", Container::empty());
        assert!(matches!(outcome, SubmitOutcome::Accepted { .. }));
    });
    let server = Server::start(Arc::new(pool), ServerConfig::new("chain")).expect("server starts");
    let url = server.local_addr().to_string();
    let mut client = Http1Client::new(&url);
    let t_http = time_us(submit_iters, || {
        let (code, _body) = client.request("POST", "/instances", Some("{}")).unwrap();
        assert_eq!(code, 201);
    });
    // Pipelined wire cost: bursts share the shard's group commit, so
    // the per-submit price amortizes parse + flush + wakeups across
    // the batch — the number the event-loop front end exists for.
    let burst = 128usize;
    let bursts = (submit_iters as usize / burst).max(4);
    let start = Instant::now();
    for _ in 0..bursts {
        let answers = client
            .pipelined("POST", "/instances", Some("{}"), burst)
            .expect("pipelined burst");
        assert_eq!(answers.len(), burst);
        for (code, _body) in &answers {
            assert_eq!(*code, 201);
        }
    }
    let t_http_pipelined = start.elapsed().as_secs_f64() * 1e6 / (bursts * burst) as f64;
    let pipelined_accept_per_sec = 1e6 / t_http_pipelined;
    // Latency under offered load: open-loop schedule per rate, so the
    // percentiles charge queueing delay to the server.
    let curve_rates: &[f64] = if quick {
        &[1000.0, 4000.0]
    } else {
        &[1000.0, 4000.0, 8000.0]
    };
    let per_rate = Duration::from_millis(if quick { 400 } else { 1000 });
    let mut curve_opts = LoadOptions::new(url.clone());
    curve_opts.connections = 2;
    let curve = latency_curve(&curve_opts, curve_rates, per_rate);
    server.shutdown(true);
    let _ = std::fs::remove_dir_all(&data_dir);
    let wire_overhead = t_http / t_pool;
    println!("submit_path (8-step chain, 1 shard, mean of {submit_iters}):");
    println!("  pool       {t_pool:>10.1} µs/submit");
    println!("  http       {t_http:>10.1} µs/submit   ({wire_overhead:.2}x pool)");
    println!(
        "  pipelined  {t_http_pipelined:>10.1} µs/submit   \
         ({pipelined_accept_per_sec:.0} accepted/sec, bursts of {burst})"
    );
    let mut curve_rows = Vec::with_capacity(curve.len());
    for p in &curve {
        println!(
            "  open-loop  offered {:>6.0}/s  achieved {:>6.0}/s  \
             p50 {:>6}us p95 {:>6}us p99 {:>6}us  ({} errors)",
            p.offered_rps, p.achieved_rps, p.p50_us, p.p95_us, p.p99_us, p.errors
        );
        curve_rows.push(format!(
            "      {{\n        \"offered_rps\": {:.0},\n        \
             \"achieved_rps\": {:.0},\n        \"accepted\": {},\n        \
             \"errors\": {},\n        \"p50_us\": {},\n        \
             \"p95_us\": {},\n        \"p99_us\": {}\n      }}",
            p.offered_rps, p.achieved_rps, p.accepted, p.errors, p.p50_us, p.p95_us, p.p99_us
        ));
    }
    let curve_json = curve_rows.join(",\n");

    // The workspace serde_json shim has no `json!` macro; the schema
    // is fixed, so emit it directly.
    let (plans_fixed, dead_acts) = (opt_stats.plans_fixed, opt_stats.dead_acts);
    let json = format!(
        "{{\n  \"cores\": {cores},\n  \
         \"nav_compiled\": {{\n    \"chain_len\": {chain_len},\n    \
         \"reference_us\": {t_ref:.1},\n    \"compiled_us\": {t_compiled:.1},\n    \
         \"speedup\": {nav_speedup:.2}\n  }},\n  \
         \"observe_overhead\": {{\n    \"chain_len\": {chain_len},\n    \
         \"baseline_us\": {t_off:.1},\n    \"observed_us\": {t_on:.1},\n    \
         \"overhead_pct\": {overhead_pct:.1}\n  }},\n  \
         \"const_prune\": {{\n    \"gates\": {gates},\n    \"dead_len\": {dead_len},\n    \
         \"plans_fixed\": {plans_fixed},\n    \"dead_acts\": {dead_acts},\n    \
         \"unoptimized_us\": {t_unopt:.1},\n    \"optimized_us\": {t_opt:.1},\n    \
         \"speedup\": {prune_speedup:.2}\n  }},\n  \
         \"patterns\": {{\n{patterns_json}\n  }},\n  \
         \"submit_path\": {{\n    \"chain_len\": 8,\n    \"shards\": 1,\n    \
         \"pool_us\": {t_pool:.1},\n    \"http_us\": {t_http:.1},\n    \
         \"wire_overhead\": {wire_overhead:.2},\n    \
         \"http_pipelined_us\": {t_http_pipelined:.1},\n    \
         \"pipelined_accept_per_sec\": {pipelined_accept_per_sec:.0},\n    \
         \"latency_curve\": [\n{curve_json}\n    ]\n  }},\n  \
         \"quick\": {quick}\n}}\n"
    );
    std::fs::write(&out, &json).unwrap_or_else(|e| panic!("write {out}: {e}"));
    println!("wrote {out}");
}
