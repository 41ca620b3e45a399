//! Names, units, directions and regression bounds of every metric and
//! workload. `BENCHMARK.json` at the repository root carries the same
//! table for the driver; a unit test keeps the two identical.

use crate::stats::median;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: something a user or operator of the system
/// sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen
    /// before `compare` says `worse`.
    pub bound: f64,
    /// Whether the benchmark driver sees it (`BENCHMARK.json`).
    pub driver: bool,
}

impl EndToEnd {
    /// The reading of `windows[round][position]`: the median over
    /// rounds of each round's median window.
    pub fn read(&self, windows: &[Vec<f64>]) -> f64 {
        let per_round: Vec<f64> = windows.iter().map(|r| median(r)).collect();
        median(&per_round)
    }
}

pub const SETUP_S: &str = "setup_s";
pub const INST_PER_S: &str = "inst_per_s";
pub const OPS_PER_S: &str = "ops_per_s";
pub const SUBMIT_P50_US: &str = "submit_p50_us";
pub const SUBMIT_P99_US: &str = "submit_p99_us";
pub const READ_P50_US: &str = "read_p50_us";
pub const CPU_US_PER_INST: &str = "cpu_us_per_inst";
pub const JOURNAL_BYTES_PER_INST: &str = "journal_bytes_per_inst";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";
/// The last end-to-end metric. It is absent from `BENCHMARK.json`
/// (the driver wants metrics that are never 0 and counts failures
/// through `attempted`/`failed` instead); `compare` treats any rise
/// as `worse`.
pub const FAILED_FRAC: &str = "failed_frac";

const fn metric(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        driver: true,
    }
}

pub const END_TO_END: [EndToEnd; 9] = [
    metric(SETUP_S, "s", Better::Lower, 0.25),
    metric(INST_PER_S, "1/s", Better::Higher, 0.25),
    metric(OPS_PER_S, "1/s", Better::Higher, 0.25),
    metric(SUBMIT_P50_US, "us", Better::Lower, 0.25),
    // Ten samples beyond it in a round of `flex_mix_http` (2 000
    // submits: 20) are few, and between runs the reading spreads twice
    // as wide as the p50's. As a driver metric it could only ever fail
    // the benchmark, never a change, so the driver does not see it;
    // `run` prints it and `compare` judges it like the rest.
    EndToEnd {
        driver: false,
        ..metric(SUBMIT_P99_US, "us", Better::Lower, 0.25)
    },
    metric(READ_P50_US, "us", Better::Lower, 0.25),
    metric(CPU_US_PER_INST, "us", Better::Lower, 0.25),
    metric(JOURNAL_BYTES_PER_INST, "B", Better::Lower, 0.02),
    metric(PEAK_RSS_MB, "MiB", Better::Lower, 0.10),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric: `crate.module.what`, measured from outside the
/// program in the traced pass. No bound; it explains, it does not gate.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

pub const PER_LAYER: [PerLayer; 54] = [
    lower("exotica.pipeline.parse_us", "us"),
    lower("exotica.pipeline.model-rules_us", "us"),
    lower("exotica.pipeline.translate_us", "us"),
    lower("exotica.pipeline.import-analyze_us", "us"),
    lower("exotica.pipeline.compile_us", "us"),
    lower("exotica.pipeline.optimize_us", "us"),
    lower("exotica.pipeline.total_us", "us"),
    lower("wfms-engine.registry.register_us", "us"),
    lower("wfms-server.shard.open_empty_ms", "ms"),
    lower("wfms-server.http.decode_post_ns", "ns"),
    lower("wfms-server.http.decode_get_ns", "ns"),
    lower("wfms-server.http.render_ns", "ns"),
    lower("wfms-server.api.body_parse_ns", "ns"),
    lower("wfms-server.api.body_render_ns", "ns"),
    lower("wfms-server.tenant.auth_ns", "ns"),
    lower("wfms-server.server.rtt_floor_us", "us"),
    lower("wfms-server.server.wire_overhead_us", "us"),
    lower("wfms-server.shard.submit_us", "us"),
    lower("wfms-server.shard.submit_burst_us", "us"),
    lower("wfms-server.shard.status_us_at_1k", "us"),
    lower("wfms-server.shard.status_us_at_10k", "us"),
    lower("wfms-server.shard.drain_ms", "ms"),
    lower("wfms-engine.engine.start_us", "us"),
    lower("wfms-engine.navigator.run_us.saga_commit", "us"),
    lower("wfms-engine.navigator.run_us.saga_compensate", "us"),
    lower("wfms-engine.navigator.run_us.flex_p1", "us"),
    lower("wfms-engine.navigator.run_us.flex_alt", "us"),
    lower("wfms-engine.navigator.us_per_activity", "us"),
    lower("wfms-engine.interp.ref_run_us", "us"),
    lower("wfms-engine.state.rss_kb_per_inst", "KiB"),
    lower("wfms-engine.journal.append_us_per_event", "us"),
    lower("wfms-engine.journal.flush_us", "us"),
    lower("wfms-engine.journal.bytes_per_event", "B"),
    lower("wfms-engine.journal.events_per_inst", "count"),
    lower("wfms-engine.journal.mirror_cost_us_per_inst", "us"),
    lower("wfms-engine.recovery.replay_us_per_event", "us"),
    lower("wfms-engine.recovery.checkpointed_open_ms", "ms"),
    lower("wfms-engine.engine.checkpoint_ms", "ms"),
    lower("wfms-engine.metrics.observe_overhead_pct", "%"),
    lower("txn-substrate.program.invoke_us", "us"),
    lower("txn-substrate.program.share_of_run", "ratio"),
    lower("wfms-model.expr.eval_ns", "ns"),
    lower("wfms-model.container.clone_ns", "ns"),
    lower("wfms-observe.histogram.record_ns", "ns"),
    lower("wfms-observe.registry.render_us", "us"),
    lower("atm.saga.native_run_us", "us"),
    lower("atm.flexible.native_run_us", "us"),
    lower("exotica.wf_over_native.saga", "ratio"),
    lower("exotica.wf_over_native.flex", "ratio"),
    lower("loadgen.cpu_us_per_op", "us"),
    lower("trace.op_us", "us"),
    lower("trace.overhead_pct", "%"),
    PerLayer {
        name: "trace.coverage",
        unit: "ratio",
        better: Better::Higher,
    },
    PerLayer {
        name: "trace.spans",
        unit: "count",
        better: Better::Higher,
    },
];

/// The four workloads. Names are final.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SagaCommitHttp,
    FlexMixHttp,
    EngineAtmMix,
    RecoverReplay,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::SagaCommitHttp,
        Workload::FlexMixHttp,
        Workload::EngineAtmMix,
        Workload::RecoverReplay,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SagaCommitHttp => "saga_commit_http",
            Workload::FlexMixHttp => "flex_mix_http",
            Workload::EngineAtmMix => "engine_atm_mix",
            Workload::RecoverReplay => "recover_replay",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Why the workload exists: which layers do the work, which do
    /// none.
    pub fn why(self) -> &'static str {
        match self {
            Workload::SagaCommitHttp => {
                "8-step saga, every step commits, over HTTP: the write path through every layer; journal encode, group commit and substrate programs do most of the work, HTTP little"
            }
            Workload::FlexMixHttp => {
                "Figure 3 flexible transaction with seeded failures, 1 submit : 2 status reads, tenancy on: HTTP decode/render, auth and instance lookup do most of the work, the journal little"
            }
            Workload::EngineAtmMix => {
                "embedded engine, in-memory journal, sagas that compensate and Figure 3 alternatives: navigation, conditions and the substrate do all the work; HTTP, shard and journal encoding none"
            }
            Workload::RecoverReplay => {
                "reopen a pool on an uncheckpointed journal of 4 000 sagas: journal decode and replay do all the work, navigation of new work and HTTP none"
            }
        }
    }

    /// Seconds one round takes, run and checked, on the 2-core sandbox
    /// the benchmark was sized on. `--seconds` buys whole rounds at
    /// this price, so the number of rounds never depends on how fast
    /// the code under test happens to be. `engine_atm_mix` is priced
    /// above its cost (≈ 1.3 s): ten of its rounds already resolve
    /// it.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::SagaCommitHttp => 5.8,
            Workload::FlexMixHttp => 6.5,
            Workload::EngineAtmMix => 2.0,
            Workload::RecoverReplay => 1.7,
        }
    }

    /// Measured rounds for a `--seconds` budget: at least two; one in
    /// quick mode.
    pub fn rounds(self, seconds: u64, quick: bool) -> usize {
        if quick {
            1
        } else {
            ((seconds as f64 / self.nominal_round_s()).ceil() as usize).max(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        names.extend(Workload::ALL.iter().map(|w| w.name()));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len());
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(w.why().len() <= 200, "{}", w.name());
        }
    }

    #[test]
    fn setup_has_the_largest_bound_and_none_exceeds_a_quarter() {
        let setup = end_to_end(SETUP_S).unwrap();
        for m in &END_TO_END {
            assert!(m.bound <= setup.bound && m.bound <= 0.25, "{}", m.name);
        }
    }

    #[test]
    fn seconds_buy_whole_rounds() {
        assert_eq!(Workload::SagaCommitHttp.rounds(20, false), 4);
        assert_eq!(Workload::FlexMixHttp.rounds(20, false), 4);
        assert_eq!(Workload::EngineAtmMix.rounds(20, false), 10);
        assert_eq!(Workload::RecoverReplay.rounds(20, false), 12);
        assert_eq!(Workload::SagaCommitHttp.rounds(30, false), 6);
        assert_eq!(Workload::RecoverReplay.rounds(1, false), 2);
        assert_eq!(Workload::RecoverReplay.rounds(60, true), 1);
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what
    /// the program prints. They must not drift.
    #[test]
    fn benchmark_json_matches_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let json = crate::report::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| json.get(key).and_then(|v| v.items()).expect(key);
        let e2e = list("end_to_end");
        let seen_by_driver: Vec<&EndToEnd> = END_TO_END.iter().filter(|m| m.driver).collect();
        assert_eq!(e2e.len(), seen_by_driver.len());
        for (have, want) in e2e.iter().zip(seen_by_driver) {
            assert_eq!(have.text_at("name").as_deref(), Some(want.name));
            assert_eq!(have.text_at("unit").as_deref(), Some(want.unit));
            assert_eq!(have.text_at("better").as_deref(), Some(want.better.word()));
            assert_eq!(have.number_at("bound"), Some(want.bound));
        }
        let layers = list("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (have, want) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(have.text_at("name").as_deref(), Some(want.name));
            assert_eq!(have.text_at("unit").as_deref(), Some(want.unit));
            assert_eq!(have.text_at("better").as_deref(), Some(want.better.word()));
        }
        let workloads = list("workloads");
        assert_eq!(workloads.len(), Workload::ALL.len());
        for (have, want) in workloads.iter().zip(Workload::ALL) {
            assert_eq!(have.text_at("name").as_deref(), Some(want.name()));
            assert_eq!(have.text_at("why").as_deref(), Some(want.why()));
        }
    }
}
