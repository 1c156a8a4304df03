//! `figures trace` / `figures report`: replay a named chaos scenario
//! through the *full stack* — MPO policy, market simulator, load
//! balancer, request-level runner — with telemetry enabled, and
//! export the byte-stable trace plus human-readable explanations.
//!
//! The chaos scenarios in `spotweb-sim` exercise a fixed cluster; the
//! replay here instead drives [`spotweb_sim::run_full_stack`] with the
//! real [`spotweb_core::SpotWebPolicy`] so the trace carries the whole
//! decision story: one `decision` record per MPO solve, `forecast`
//! records from the workload predictor, per-backend `drain` /
//! `backend_death` / `replacement_started` timelines around the
//! injected faults, and an `interval_summary` per control interval.
//!
//! Determinism contract (see DESIGN.md): the trace JSONL is a pure
//! function of `(scenario, seed)` — wall-clock solver timings are
//! kept in a separate store and exported only via
//! `BENCH_telemetry.json`.

use spotweb_core::{SpotWebConfig, SpotWebPolicy};
use spotweb_market::{Catalog, CloudSim};
use spotweb_sim::{
    run_full_stack, FaultKind, FaultPlan, RunnerConfig, RunnerReport, NAMED_SCENARIOS,
};
use spotweb_telemetry::{TelemetrySink, TraceEvent};
use spotweb_workload::Trace;

use crate::bridge::PolicyBridge;

/// Result of a traced full-stack replay: the shared telemetry sink
/// (trace + metrics + timings) plus the runner's own report.
pub struct TraceRun {
    /// Normalized scenario name.
    pub scenario: String,
    /// Seed the replay ran with.
    pub seed: u64,
    /// The telemetry store the whole stack wrote into.
    pub sink: TelemetrySink,
    /// The runner's aggregate report.
    pub report: RunnerReport,
}

/// Normalize a scenario name: accept `revocation_storm` for
/// `revocation-storm` (the paper harness convention is hyphens).
pub fn normalize_scenario(name: &str) -> String {
    name.replace('_', "-")
}

/// What a named scenario compiles to: the fault timeline plus the
/// balancer mode. Shared by `figures trace` and `figures sweep` so
/// both commands replay exactly the same faults.
pub struct ScenarioSetup {
    /// Compiled fault timeline for a `markets`-market catalog.
    pub plan: FaultPlan,
    /// Whether the load balancer runs transiency-aware.
    pub transiency_aware: bool,
}

/// Compile a **normalized** scenario name (one of [`NAMED_SCENARIOS`])
/// into its fault plan for a catalog of `markets` markets. Returns
/// `None` for unknown names — callers produce the helpful error.
pub fn scenario_setup(name: &str, markets: usize) -> Option<ScenarioSetup> {
    let all_markets: Vec<usize> = (0..markets).collect();
    // The MPO policy concentrates the fleet wherever it is cheapest,
    // so correlated storms hit every market to guarantee the serving
    // capacity is actually revoked.
    let mut plan = FaultPlan::new();
    let mut transiency_aware = true;
    match name {
        "revocation-storm" | "revocation-storm-vanilla" => {
            plan = plan.at(
                400.0,
                FaultKind::CorrelatedRevocation {
                    markets: all_markets.clone(),
                    warning_secs: None,
                },
            );
            transiency_aware = name == "revocation-storm";
        }
        "zero-warning" => {
            plan = plan.at(
                400.0,
                FaultKind::CorrelatedRevocation {
                    markets: all_markets.clone(),
                    warning_secs: Some(0.0),
                },
            );
        }
        "backend-flaps" => {
            for &m in &all_markets {
                plan = plan.at(
                    400.0,
                    FaultKind::BackendFlap {
                        target: m,
                        down_secs: 60.0,
                    },
                );
            }
        }
        "slow-start-storm" => {
            plan = plan
                .at(200.0, FaultKind::StartupDelay { extra_secs: 120.0 })
                .at(200.0, FaultKind::WarmupStall { extra_secs: 60.0 })
                .at(
                    400.0,
                    FaultKind::CorrelatedRevocation {
                        markets: all_markets.clone(),
                        warning_secs: None,
                    },
                );
        }
        _ => return None,
    }
    Some(ScenarioSetup {
        plan,
        transiency_aware,
    })
}

/// Replay `scenario` (any of [`NAMED_SCENARIOS`], underscores
/// accepted) through the full stack with telemetry enabled.
pub fn run_trace(scenario: &str, seed: u64) -> Result<TraceRun, String> {
    let name = normalize_scenario(scenario);
    let catalog = Catalog::fig4_testbed();
    let Some(setup) = scenario_setup(&name, catalog.len()) else {
        return Err(format!(
            "unknown trace scenario {name:?}; known: {NAMED_SCENARIOS:?}"
        ));
    };
    // Four 5-minute control intervals: long enough for the storm to
    // land mid-run with warmed replacements before the end, short
    // enough that a CI double-run stays cheap.
    let interval_secs = 300.0;
    let intervals = 4;
    let ScenarioSetup {
        plan,
        transiency_aware,
    } = setup;

    let sink = TelemetrySink::enabled();
    let config = RunnerConfig {
        interval_secs,
        intervals,
        seed,
        faults: Some(plan),
        telemetry: sink.clone(),
        lb: spotweb_lb::LoadBalancerConfig {
            transiency_aware,
            ..spotweb_lb::LoadBalancerConfig::default()
        },
        ..RunnerConfig::default()
    };
    let mut cloud = CloudSim::new(catalog.clone(), seed, 100);
    cloud.warm_up(8);
    let trace = Trace::new(interval_secs, vec![300.0; intervals + 2]);
    let policy = SpotWebPolicy::new(
        SpotWebConfig {
            interval_secs,
            ..SpotWebConfig::default()
        },
        catalog.len(),
    )
    .with_telemetry(sink.clone());
    let mut bridge = PolicyBridge {
        policy: Box::new(policy),
        catalog,
    };
    let report = run_full_stack(&mut bridge, &mut cloud, &trace, &config);
    Ok(TraceRun {
        scenario: name,
        seed,
        sink,
        report,
    })
}

/// Render a traced run as a human-readable explanation: the decision
/// story per interval, forecast accuracy, and the drain/replacement
/// timeline around every injected fault.
pub fn render_report(run: &TraceRun) -> String {
    let mut out = String::with_capacity(8192);
    let r = &run.report;
    out.push_str(&format!(
        "scenario {} (seed {})\n\
         served {} dropped {} ({:.2}% drops), p50 {:.0} ms, p99 {:.0} ms, cost ${:.2}\n\
         revocations {}, migrated sessions {}, trace events {} (dropped {})\n",
        run.scenario,
        run.seed,
        r.served,
        r.dropped,
        100.0 * r.drop_fraction,
        1000.0 * r.p50,
        1000.0 * r.p99,
        r.cost,
        r.revocations,
        r.migrated_sessions,
        run.sink.events().len(),
        run.sink.dropped_events(),
    ));

    for e in run.sink.events() {
        match &e.event {
            TraceEvent::Decision(d) => {
                let chosen: Vec<String> = d
                    .markets
                    .iter()
                    .filter(|m| m.chosen)
                    .map(|m| format!("{}×{}", m.servers, m.name))
                    .collect();
                let rejected = d.markets.iter().filter(|m| !m.chosen).count();
                out.push_str(&format!(
                    "[t={:7.1}] decision #{}: observed {:.0} rps, objective {:.4}, \
                     chose [{}], rejected {} markets\n",
                    e.t,
                    d.interval,
                    d.observed_rps,
                    d.objective,
                    chosen.join(", "),
                    rejected
                ));
                for m in d.markets.iter().filter(|m| !m.chosen) {
                    out.push_str(&format!("             rejected {}: {}\n", m.name, m.reason));
                }
            }
            TraceEvent::Forecast(f) => {
                out.push_str(&format!(
                    "[t={:7.1}] forecast {} step {}: actual {:.1}, predicted {:.1} \
                     (err {:+.1}), padded {:.1} (+{:.1} CI)\n",
                    e.t, f.quantity, f.step, f.actual, f.predicted, f.error, f.padded, f.ci_pad
                ));
            }
            TraceEvent::Drain(d) => {
                out.push_str(&format!(
                    "[t={:7.1}] drain backend {} (market {}, {}): warning {:.0}s, \
                     deadline {:.1}, migrated {}, stayed {}, gap {:.0} rps\n",
                    e.t,
                    d.backend,
                    d.market,
                    d.kind,
                    d.warning_secs,
                    d.deadline,
                    d.sessions_migrated,
                    d.sessions_stayed,
                    d.capacity_gap_rps
                ));
            }
            TraceEvent::BackendDeath {
                backend,
                market,
                sessions_lost,
            } => {
                out.push_str(&format!(
                    "[t={:7.1}] death backend {backend} (market {market}), \
                     {sessions_lost} sessions lost\n",
                    e.t
                ));
            }
            TraceEvent::ReplacementStarted {
                replaces,
                backend,
                market,
                ready_at,
            } => {
                out.push_str(&format!(
                    "[t={:7.1}] replacement backend {backend} for {replaces} \
                     (market {market}), ready at {ready_at:.1}\n",
                    e.t
                ));
            }
            TraceEvent::FaultInjected { fault, detail } => {
                out.push_str(&format!("[t={:7.1}] FAULT {fault}: {detail}\n", e.t));
            }
            TraceEvent::IntervalSummary {
                interval,
                fleet_size,
                arrival_rate,
                throughput,
                drop_rate,
                p99_latency,
                ..
            } => {
                out.push_str(&format!(
                    "[t={:7.1}] interval {interval} summary: fleet {fleet_size}, \
                     arrivals {arrival_rate:.0} rps, throughput {throughput:.0} rps, \
                     drops {:.2}%, p99 {:.0} ms\n",
                    e.t,
                    100.0 * drop_rate,
                    1000.0 * p99_latency
                ));
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_is_byte_identical_across_runs_and_tells_the_story() {
        let a = run_trace("revocation_storm", 1234).expect("runs");
        let b = run_trace("revocation-storm", 1234).expect("runs");
        assert_eq!(a.scenario, "revocation-storm", "underscores normalize");
        let jsonl_a = a.sink.export_jsonl();
        assert_eq!(jsonl_a, b.sink.export_jsonl(), "trace must be byte-stable");
        assert!(!jsonl_a.is_empty());

        let events = a.sink.events();
        let count = |k: &str| events.iter().filter(|e| e.event.kind() == k).count();
        assert_eq!(count("decision"), 4, "one DecisionRecord per MPO solve");
        assert!(count("forecast") >= 3, "forecast-vs-actual per step");
        assert!(count("drain") > 0, "storm must drain backends");
        assert!(count("backend_death") > 0);
        assert!(count("replacement_started") > 0);
        assert_eq!(count("interval_summary"), 4);

        // Wall-clock timings exist but never contaminate the trace.
        assert!(a.sink.render_timings_json().contains("mpo_solve_secs"));
        assert!(!jsonl_a.contains("solve_secs"));

        let report = render_report(&a);
        assert!(report.contains("decision #"));
        assert!(report.contains("FAULT correlated_revocation"));
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        assert!(run_trace("kernel-panic", 1).is_err());
    }
}
