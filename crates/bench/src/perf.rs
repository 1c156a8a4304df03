//! `figures perf`: the request-level simulator throughput baseline and
//! the `BENCH_runner.json` performance record.
//!
//! Each entry replays one chaos scenario (the same fault plans as
//! `figures trace`/`figures sweep`, via [`crate::telem::scenario_setup`])
//! through the full stack with telemetry enabled, at a request rate
//! high enough that the per-arrival hot loop dominates the wall clock,
//! and reports **simulated requests per wall-second** — the number the
//! hot-path work in `sim::runner`/`sim::service`/`spotweb-telemetry`
//! is meant to move.
//!
//! Determinism contract (same split as `BENCH_sweep.json`): everything
//! a run *simulates* — arrivals, drops, latencies, digests — is a pure
//! function of (scenario, seed) and goes to stdout as byte-stable
//! [`RunSummary`] JSON lines; wall-clock numbers are inherently
//! machine-dependent and exit only through `BENCH_runner.json` and
//! stderr.
//!
//! `BENCH_runner.json` layout:
//!
//! * `seed` — seed every entry ran with.
//! * `nproc` — host parallelism ([`spotweb_sim::nproc`]); on a 1-core
//!   box `--shards` cannot show a wall-clock win, so consumers must
//!   check this before reading the throughput columns.
//! * `shards` — arrival shards the per-scenario entries ran with
//!   (`--shards N`; the report bytes are shard-count-invariant, only
//!   the wall clock moves).
//! * `scenarios[]` — per scenario: offered `rps`, `simulated_secs`,
//!   deterministic `arrivals`/`summary`, `wall_secs`, and
//!   `requests_per_wall_second`.
//! * `digest` — FNV digest over the deterministic summaries (ties the
//!   perf record to the equivalence goldens).
//! * `day_scale` — the week-class stress point (`--full` only; `null`
//!   otherwise): `--hours` simulated hours (default 24) of 20 krps
//!   traffic, with a `per_hour` wall-clock series (flat per-hour
//!   throughput is the constant-work acceptance signal) and the
//!   process peak RSS (`VmHWM`) against the [`MEM_GATE_BYTES`] bound.

use spotweb_market::{Catalog, CloudSim};
use spotweb_sim::sweep::{digest, RunSummary};
use spotweb_sim::{
    run_full_stack_observed, runner::ReactiveCheapestPolicy, RunnerConfig, NAMED_SCENARIOS,
};
use spotweb_telemetry::json::{json_f64, json_string};
use spotweb_telemetry::TelemetrySink;
use spotweb_workload::Trace;

use crate::telem::{normalize_scenario, scenario_setup};

/// Offered load for the per-scenario throughput entries (req/s). High
/// enough that the arrival loop dominates the interval bookkeeping.
pub const PERF_RPS: f64 = 2000.0;

/// Offered load of the `--full` day-scale stress entry (req/s) — the
/// paper's peak Wikipedia rate (§5).
pub const DAY_SCALE_RPS: f64 = 20_000.0;

/// Peak-RSS bound for `figures perf --full --mem-gate` (bytes).
///
/// The long-horizon run's steady-state footprint is set by *active*
/// state — the monitor window, in-flight requests, the live fleet —
/// not by how many hours it simulates (dead backends are compacted
/// away, the billing ledger only tracks live entries, and the monitor
/// ring holds one window of records). The dominant term at the
/// 20 krps stress point is the monitor ring itself: one interval
/// (3600 s) of per-request records is ~72 M × 16 B ≈ 1.1 GiB of data
/// in a deque whose power-of-two capacity growth reserves ~2 GiB.
/// Measured peaks plateau at ~2.15 GiB from the second simulated hour
/// on, identical at 4 and at 168 hours; this 3 GiB bound is the
/// "state stopped being constant" alarm, not a tight budget.
pub const MEM_GATE_BYTES: u64 = 3 * 1024 * 1024 * 1024;

/// Peak resident set size (`VmHWM`) of the current process, in bytes.
///
/// Linux-only (`/proc/self/status`); `None` elsewhere, in which case
/// the mem gate reports "unavailable" rather than failing.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// One simulated hour of the day/week-scale entry, as observed from
/// the host: how many requests that hour generated and how long it
/// took on the wall clock. A constant-work control path shows a flat
/// `requests_per_wall_second` column; per-hour degradation is exactly
/// the accumulated-state signature the compaction work removes.
#[derive(Debug, Clone)]
pub struct HourlyThroughput {
    /// 1-based simulated hour.
    pub hour: usize,
    /// Arrivals (routed + dropped) within this hour.
    pub arrivals: u64,
    /// Wall-clock seconds this hour took to simulate.
    pub wall_secs: f64,
    /// `arrivals / wall_secs` (0 if the hour took no measurable time).
    pub requests_per_wall_second: f64,
}

/// One measured perf entry.
#[derive(Debug, Clone)]
pub struct PerfRun {
    /// Deterministic run summary (policy is always `reactive`: the MPO
    /// solver is measured by `BENCH_sweep.json`; this harness isolates
    /// the request path).
    pub summary: RunSummary,
    /// Offered Poisson rate (req/s).
    pub rps: f64,
    /// Simulated horizon (seconds).
    pub simulated_secs: f64,
    /// Requests generated (served + dropped).
    pub arrivals: u64,
    /// Wall-clock seconds for the run (machine-dependent; quarantined
    /// to `BENCH_runner.json`).
    pub wall_secs: f64,
    /// Per-simulated-hour wall-clock series (only populated by
    /// [`run_one_hourly`]; empty for the short per-scenario entries).
    pub per_hour: Vec<HourlyThroughput>,
}

impl PerfRun {
    /// Simulated requests processed per wall-clock second.
    pub fn requests_per_wall_second(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.arrivals as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Replay `scenario` through the full stack with the reactive policy
/// at `rps` offered load for `intervals × interval_secs` simulated
/// seconds, timing the run. Telemetry is enabled — the interned
/// counter path is part of what this harness measures. `shards` is
/// the arrival shard count (`RunnerConfig::shards`); the report is
/// byte-identical at any value, only the wall clock moves.
pub fn run_one(
    scenario: &str,
    seed: u64,
    rps: f64,
    interval_secs: f64,
    intervals: usize,
    shards: usize,
) -> Result<PerfRun, String> {
    run_one_inner(scenario, seed, rps, interval_secs, intervals, shards, false)
}

/// [`run_one`] at one-hour intervals for `hours` simulated hours,
/// recording the wall-clock cost of every simulated hour through the
/// runner's interval-observation hook (the hook is host-side only —
/// the simulated run is byte-identical to an unobserved one). Always
/// runs at one shard: a pre-generated hour of 20 krps arrivals is
/// ~1.1 GiB per pipeline slot, which would trade the mem gate for a
/// wall-clock win; the lazy single-shard arrival path is what the
/// gate certifies.
pub fn run_one_hourly(
    scenario: &str,
    seed: u64,
    rps: f64,
    hours: usize,
) -> Result<PerfRun, String> {
    run_one_inner(scenario, seed, rps, 3600.0, hours, 1, true)
}

#[allow(clippy::too_many_arguments)]
fn run_one_inner(
    scenario: &str,
    seed: u64,
    rps: f64,
    interval_secs: f64,
    intervals: usize,
    shards: usize,
    hourly: bool,
) -> Result<PerfRun, String> {
    let name = normalize_scenario(scenario);
    let catalog = Catalog::fig4_testbed();
    let Some(setup) = scenario_setup(&name, catalog.len()) else {
        return Err(format!(
            "unknown perf scenario {name:?}; known: {NAMED_SCENARIOS:?}"
        ));
    };
    let sink = TelemetrySink::enabled();
    let config = RunnerConfig {
        interval_secs,
        intervals,
        seed,
        shards,
        faults: Some(setup.plan),
        telemetry: sink.clone(),
        lb: spotweb_lb::LoadBalancerConfig {
            transiency_aware: setup.transiency_aware,
            ..spotweb_lb::LoadBalancerConfig::default()
        },
        ..RunnerConfig::default()
    };
    let mut cloud = CloudSim::new(catalog.clone(), seed, 100);
    cloud.warm_up(8);
    let trace = Trace::new(interval_secs, vec![rps; intervals + 2]);
    let mut policy = ReactiveCheapestPolicy {
        headroom: 1.3,
        capacities: catalog.markets().iter().map(|m| m.capacity_rps()).collect(),
    };
    let started = std::time::Instant::now();
    // (cumulative arrivals, elapsed wall secs) at each interval end;
    // deltas between consecutive entries are the per-hour series.
    let mut ticks: Vec<(u64, f64)> = Vec::new();
    let report =
        run_full_stack_observed(&mut policy, &mut cloud, &trace, &config, &mut |_, cum| {
            if hourly {
                ticks.push((cum, started.elapsed().as_secs_f64()));
            }
        });
    let wall_secs = started.elapsed().as_secs_f64();
    let mut per_hour = Vec::with_capacity(ticks.len());
    let mut prev = (0u64, 0.0f64);
    for (hour, &(cum, elapsed)) in ticks.iter().enumerate() {
        let arrivals = cum - prev.0;
        let hour_wall = elapsed - prev.1;
        per_hour.push(HourlyThroughput {
            hour: hour + 1,
            arrivals,
            wall_secs: hour_wall,
            requests_per_wall_second: if hour_wall > 0.0 {
                arrivals as f64 / hour_wall
            } else {
                0.0
            },
        });
        prev = (cum, elapsed);
    }
    let summary = RunSummary {
        policy: "reactive".to_string(),
        scenario: name,
        seed,
        served: report.served as u64,
        dropped: report.dropped,
        drop_fraction: report.drop_fraction,
        p50: report.p50,
        p99: report.p99,
        cost: report.cost,
        revocations: u64::from(report.revocations),
        migrated_sessions: report.migrated_sessions,
        mpo_solves: 0,
        admm_iterations: 0,
    };
    Ok(PerfRun {
        arrivals: summary.served + summary.dropped,
        summary,
        rps,
        simulated_secs: interval_secs * intervals as f64,
        wall_secs,
        per_hour,
    })
}

/// Result of [`run_command`]: deterministic stdout body plus the
/// rendered `BENCH_runner.json`.
pub struct PerfOutput {
    /// Per-entry JSON lines (byte-stable, scenario order) for stdout.
    pub summary_lines: String,
    /// The rendered `BENCH_runner.json` contents.
    pub bench_json: String,
    /// Aggregate simulated-requests-per-wall-second over the
    /// per-scenario entries (stderr reporting).
    pub aggregate_rps: f64,
    /// Process peak RSS after the runs, bytes (`None` off-Linux).
    pub peak_rss_bytes: Option<u64>,
    /// Host parallelism recorded in the bench file.
    pub nproc: usize,
    /// `Some(diagnostic)` when `--mem-gate` was requested and the peak
    /// RSS exceeded (or could not be measured against)
    /// [`MEM_GATE_BYTES`]; the caller turns this into a non-zero exit
    /// *after* writing `BENCH_runner.json`, so the failing record is
    /// still inspectable.
    pub mem_gate_violation: Option<String>,
}

fn render_entry(r: &PerfRun) -> String {
    let mut entry = format!(
        "{{\"scenario\":{},\"rps\":{},\"simulated_secs\":{},\"arrivals\":{},\
         \"wall_secs\":{},\"requests_per_wall_second\":{}",
        json_string(&r.summary.scenario),
        json_f64(r.rps),
        json_f64(r.simulated_secs),
        r.arrivals,
        json_f64(r.wall_secs),
        json_f64(r.requests_per_wall_second()),
    );
    if !r.per_hour.is_empty() {
        entry.push_str(",\"per_hour\":[");
        for (i, h) in r.per_hour.iter().enumerate() {
            if i > 0 {
                entry.push(',');
            }
            entry.push_str(&format!(
                "{{\"hour\":{},\"arrivals\":{},\"wall_secs\":{},\
                 \"requests_per_wall_second\":{}}}",
                h.hour,
                h.arrivals,
                json_f64(h.wall_secs),
                json_f64(h.requests_per_wall_second),
            ));
        }
        entry.push(']');
    }
    entry.push_str(&format!(",\"summary\":{}}}", r.summary.to_json()));
    entry
}

/// Execute the perf command: measure every trace scenario at
/// [`PERF_RPS`] with `shards` arrival shards, optionally (`full`) the
/// `hours`-long 20 krps stress point (24 = day scale, 168 = week
/// scale), and render both the stdout body and `BENCH_runner.json`.
/// With `mem_gate`, check the process peak RSS against
/// [`MEM_GATE_BYTES`] and report a violation for the caller to turn
/// into a non-zero exit.
pub fn run_command(
    seed: u64,
    full: bool,
    hours: usize,
    mem_gate: bool,
    shards: usize,
) -> Result<PerfOutput, String> {
    // Same horizon shape as the sweep grid: four 5-minute intervals —
    // one revocation storm lands mid-run — but at PERF_RPS the arrival
    // loop processes ~2.4 M requests per entry.
    let mut runs = Vec::with_capacity(NAMED_SCENARIOS.len());
    for scenario in NAMED_SCENARIOS {
        runs.push(run_one(scenario, seed, PERF_RPS, 300.0, 4, shards)?);
    }
    let day_scale = if full {
        // `hours` simulated hours of 20 krps: the paper-scale stress
        // point (≈1.7 G requests per day). Reported separately, with a
        // per-hour wall-clock series, so the per-scenario entries stay
        // cheap enough for CI while the long run proves the control
        // path does constant work per interval.
        Some(run_one_hourly(
            "revocation-storm",
            seed,
            DAY_SCALE_RPS,
            hours,
        )?)
    } else {
        None
    };

    let summaries: Vec<RunSummary> = runs.iter().map(|r| r.summary.clone()).collect();
    let corpus_digest = digest(&summaries);
    let total_arrivals: u64 = runs.iter().map(|r| r.arrivals).sum();
    let total_wall: f64 = runs.iter().map(|r| r.wall_secs).sum();
    let aggregate_rps = if total_wall > 0.0 {
        total_arrivals as f64 / total_wall
    } else {
        0.0
    };

    let mut summary_lines = String::new();
    for s in &summaries {
        summary_lines.push_str(&s.to_json());
        summary_lines.push('\n');
    }

    let mut entries = String::new();
    for (i, r) in runs.iter().enumerate() {
        if i > 0 {
            entries.push(',');
        }
        entries.push_str("\n    ");
        entries.push_str(&render_entry(r));
    }
    let day_json = match &day_scale {
        Some(r) => render_entry(r),
        None => "null".to_string(),
    };
    let peak_rss = peak_rss_bytes();
    let rss_json = match peak_rss {
        Some(b) => b.to_string(),
        None => "null".to_string(),
    };
    let host_nproc = spotweb_sim::nproc();
    let bench_json = format!(
        "{{\n  \"seed\": {seed},\n  \"nproc\": {host_nproc},\n  \
         \"shards\": {shards},\n  \"scenarios\": [{entries}\n  ],\n  \
         \"aggregate_requests_per_wall_second\": {},\n  \
         \"digest\": {},\n  \"day_scale\": {day_json},\n  \
         \"peak_rss_bytes\": {rss_json},\n  \
         \"mem_gate_bytes\": {MEM_GATE_BYTES}\n}}\n",
        json_f64(aggregate_rps),
        json_string(&corpus_digest),
    );

    let mem_gate_violation = if mem_gate {
        match peak_rss {
            Some(b) if b > MEM_GATE_BYTES => Some(format!(
                "mem gate: peak RSS {b} bytes exceeds the {MEM_GATE_BYTES}-byte bound \
                 (state is accumulating with simulated hours)"
            )),
            Some(_) => None,
            None => Some(
                "mem gate: peak RSS unavailable (no /proc/self/status VmHWM on this platform)"
                    .to_string(),
            ),
        }
    } else {
        None
    };

    Ok(PerfOutput {
        summary_lines,
        bench_json,
        aggregate_rps,
        peak_rss_bytes: peak_rss,
        nproc: host_nproc,
        mem_gate_violation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perf_entry_is_deterministic_apart_from_wall_clock() {
        let a = run_one("zero-warning", 7, 200.0, 60.0, 2, 1).unwrap();
        let b = run_one("zero_warning", 7, 200.0, 60.0, 2, 1).unwrap();
        assert_eq!(a.summary.to_json(), b.summary.to_json());
        assert_eq!(a.arrivals, b.arrivals);
        assert!(a.arrivals > 0);
        // Shards move the wall clock, never the simulated run.
        let sharded = run_one("zero-warning", 7, 200.0, 60.0, 2, 4).unwrap();
        assert_eq!(a.summary.to_json(), sharded.summary.to_json());
        assert_eq!(a.arrivals, sharded.arrivals);
    }

    #[test]
    fn unknown_scenario_is_a_helpful_error() {
        let err = run_one("kernel-panic", 7, 200.0, 60.0, 1, 1).unwrap_err();
        assert!(err.contains("known:"), "{err}");
    }

    #[test]
    fn hourly_series_partitions_the_run() {
        let run = run_one_hourly("zero-warning", 7, 5.0, 2).unwrap();
        assert_eq!(run.per_hour.len(), 2);
        let hour_sum: u64 = run.per_hour.iter().map(|h| h.arrivals).sum();
        assert_eq!(hour_sum, run.arrivals, "hours must partition the arrivals");
        // The observation hook must not perturb the simulated run.
        let unobserved = run_one("zero-warning", 7, 5.0, 3600.0, 2, 1).unwrap();
        assert_eq!(run.summary.to_json(), unobserved.summary.to_json());
        assert!(unobserved.per_hour.is_empty());
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn peak_rss_reads_vm_hwm() {
        let rss = peak_rss_bytes().expect("Linux exposes VmHWM");
        // A test process has at least a few pages resident and fits in
        // the long-horizon gate with room to spare.
        assert!(rss > 4096, "implausibly small peak RSS {rss}");
        assert!(rss < MEM_GATE_BYTES, "test binary alone breaches the gate");
    }
}
