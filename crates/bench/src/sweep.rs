//! `figures sweep`: the deterministic policy × scenario × seed grid,
//! fanned out over `spotweb_sim::sweep` workers, plus the
//! `BENCH_sweep.json` performance baseline.
//!
//! Each grid cell replays one chaos scenario (the same fault plans as
//! `figures trace`, via [`crate::telem::scenario_setup`]) through the full
//! stack — policy, market simulator, load balancer, request-level
//! runner — with its own seeded cloud and its own [`TelemetrySink`].
//! Per-run summaries ([`RunSummary`]) are a pure function of
//! (policy, scenario, seed): the command runs the grid at `--jobs 1`
//! and at `--jobs J` and proves the two renderings byte-identical via
//! FNV digests before reporting the wall-clock speedup.
//!
//! `BENCH_sweep.json` layout (all wall-clock fields are inherently
//! machine-dependent; everything under `"runs[].summary"` is
//! deterministic):
//!
//! * `jobs` — worker count of the parallel pass.
//! * `nproc` — host parallelism ([`spotweb_sim::nproc`]); on a 1-core
//!   box the `speedup` column cannot exceed ~1.0, so consumers (and
//!   the CLI verdict) must check this before reading it.
//! * `runs[]` — per run: `label`, deterministic `summary`, and
//!   `wall_secs` from the parallel pass.
//! * `serial_wall_secs` / `parallel_wall_secs` / `speedup` — grid
//!   wall-clock at `--jobs 1` vs `--jobs J` and their ratio.
//! * `digest_serial` / `digest_parallel` / `digests_match` — the
//!   determinism proof for this invocation.
//! * `warm_start` — mean ADMM iterations per MPO solve with the
//!   receding-horizon warm start on vs off (see [`warm_start_probe`]).

use spotweb_core::{build_policy, ForecastBundle, MpoOptimizer, SpotWebConfig, ZooConfig};
use spotweb_linalg::Matrix;
use spotweb_market::{Catalog, CloudSim};
use spotweb_sim::sweep::{digest, run_sweep, RunSummary, SweepResult};
use spotweb_sim::{run_full_stack, runner::ReactiveCheapestPolicy, RunnerConfig, NAMED_SCENARIOS};
use spotweb_telemetry::json::{json_f64, json_string};
use spotweb_telemetry::{names, TelemetrySink};
use spotweb_workload::Trace;

use crate::bridge::PolicyBridge;
use crate::telem::{normalize_scenario, scenario_setup};

/// Policy names the sweep grid runs.
pub const SWEEP_POLICIES: &[&str] = &["spotweb", "reactive"];

/// One grid cell: which policy replays which scenario at which seed.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Policy name (one of [`SWEEP_POLICIES`]).
    pub policy: String,
    /// Normalized scenario name (one of [`NAMED_SCENARIOS`]).
    pub scenario: String,
    /// Seed for this run's cloud + fault compilation.
    pub seed: u64,
}

/// Build the grid: every policy × the requested scenarios × `seed`.
/// `scenario` restricts to one scenario (underscores accepted); `None`
/// sweeps all of them. Errors helpfully on unknown names.
pub fn build_grid(scenario: Option<&str>, seed: u64) -> Result<Vec<SweepSpec>, String> {
    let scenarios: Vec<String> = match scenario {
        Some(raw) => {
            let name = normalize_scenario(raw);
            if !NAMED_SCENARIOS.contains(&name.as_str()) {
                return Err(format!(
                    "unknown sweep scenario '{name}'; known: {}",
                    NAMED_SCENARIOS.join(", ")
                ));
            }
            vec![name]
        }
        None => NAMED_SCENARIOS.iter().map(|s| s.to_string()).collect(),
    };
    let mut grid = Vec::with_capacity(SWEEP_POLICIES.len() * scenarios.len());
    for policy in SWEEP_POLICIES {
        for s in &scenarios {
            grid.push(SweepSpec {
                policy: policy.to_string(),
                scenario: s.clone(),
                seed,
            });
        }
    }
    Ok(grid)
}

/// Run one grid cell through the full stack. Everything the run
/// touches — cloud, fault plan, policy, telemetry — is created here
/// from the spec, so concurrent cells share nothing (the sweep
/// determinism contract).
pub fn run_one(spec: &SweepSpec) -> RunSummary {
    let catalog = Catalog::fig4_testbed();
    let setup = scenario_setup(&spec.scenario, catalog.len())
        .expect("grid specs are validated at construction");
    let interval_secs = 300.0;
    let intervals = 4;
    let sink = TelemetrySink::enabled();
    let config = RunnerConfig {
        interval_secs,
        intervals,
        seed: spec.seed,
        faults: Some(setup.plan),
        telemetry: sink.clone(),
        lb: spotweb_lb::LoadBalancerConfig {
            transiency_aware: setup.transiency_aware,
            ..spotweb_lb::LoadBalancerConfig::default()
        },
        ..RunnerConfig::default()
    };
    let mut cloud = CloudSim::new(catalog.clone(), spec.seed, 100);
    cloud.warm_up(8);
    let trace = Trace::new(interval_secs, vec![300.0; intervals + 2]);

    let report = if spec.policy == "reactive" {
        // The runner's built-in baseline is not a `spotweb_core::Policy`
        // — it stays outside the factory.
        let mut policy = ReactiveCheapestPolicy {
            headroom: 1.3,
            capacities: catalog.markets().iter().map(|m| m.capacity_rps()).collect(),
        };
        run_full_stack(&mut policy, &mut cloud, &trace, &config)
    } else {
        // Everything else — spotweb and the policy zoo — builds through
        // the shared factory, so the sweep, the tournament and the CLI
        // agree on what each name means.
        let policy = build_policy(
            &spec.policy,
            &SpotWebConfig {
                interval_secs,
                ..SpotWebConfig::default()
            },
            &ZooConfig::default(),
            catalog.len(),
            spec.seed,
            &sink,
        )
        .expect("grid specs are validated at construction");
        let mut bridge = PolicyBridge { policy, catalog };
        run_full_stack(&mut bridge, &mut cloud, &trace, &config)
    };

    RunSummary {
        policy: spec.policy.clone(),
        scenario: spec.scenario.clone(),
        seed: spec.seed,
        served: report.served as u64,
        dropped: report.dropped,
        drop_fraction: report.drop_fraction,
        p50: report.p50,
        p99: report.p99,
        cost: report.cost,
        revocations: u64::from(report.revocations),
        migrated_sessions: report.migrated_sessions,
        mpo_solves: sink.counter(names::MPO_SOLVES_TOTAL),
        admm_iterations: sink.counter(names::ADMM_ITERATIONS_TOTAL),
    }
}

/// Run `specs` at `jobs` workers, results in grid order.
pub fn run_grid(jobs: usize, specs: Vec<SweepSpec>) -> Vec<SweepResult> {
    run_sweep(jobs, specs, |_, spec| run_one(&spec))
}

/// Mean ADMM iterations per MPO solve with the receding-horizon warm
/// start on vs off, measured on a deterministic 18-market, H=4
/// price-drift sequence (the Fig. 7(b) shape). The first solve of each
/// sequence is cold by construction and excluded from both means.
#[derive(Debug, Clone)]
pub struct WarmStartStats {
    /// Markets in the probe problem.
    pub markets: usize,
    /// Horizon of the probe problem.
    pub horizon: usize,
    /// Solves averaged (per mode, excluding the first).
    pub solves: usize,
    /// Mean iterations per solve, warm start disabled.
    pub cold_mean_iterations: f64,
    /// Mean iterations per solve, warm start enabled.
    pub warm_mean_iterations: f64,
}

impl WarmStartStats {
    /// Fraction of cold-start iterations the warm start saves.
    pub fn saved_fraction(&self) -> f64 {
        if self.cold_mean_iterations == 0.0 {
            0.0
        } else {
            1.0 - self.warm_mean_iterations / self.cold_mean_iterations
        }
    }
}

/// Measure [`WarmStartStats`]: run the same 8-interval receding-horizon
/// sequence twice — warm start enabled vs disabled — and average the
/// per-solve ADMM iterations. Fully deterministic (the price drift is
/// a fixed arithmetic pattern, no RNG).
pub fn warm_start_probe() -> WarmStartStats {
    const MARKETS: usize = 18;
    const INTERVALS: usize = 8;
    let catalog = Catalog::ec2_subset(MARKETS);
    let config = SpotWebConfig::default();
    let horizon = config.horizon;
    let base_prices: Vec<f64> = catalog
        .markets()
        .iter()
        .map(|m| m.instance.on_demand_price * 0.3)
        .collect();
    let fails = vec![0.05; MARKETS];
    let cov = Matrix::identity(MARKETS).scaled(1e-4);

    let run = |warm: bool| -> Vec<usize> {
        let mut opt = MpoOptimizer::new(config.clone());
        opt.set_warm_start(warm);
        let mut prev = vec![0.0; MARKETS];
        let mut iters = Vec::with_capacity(INTERVALS);
        for t in 0..INTERVALS {
            // Small deterministic drift so consecutive problems differ
            // the way live price forecasts do.
            let prices: Vec<f64> = base_prices
                .iter()
                .enumerate()
                .map(|(i, p)| p * (1.0 + 0.01 * ((t * 7 + i * 3) % 5) as f64))
                .collect();
            let workload = 5000.0 + 100.0 * t as f64;
            let forecast = ForecastBundle::flat(workload, &prices, &fails, horizon);
            let d = opt
                .optimize(&catalog, &forecast, &cov, &prev)
                .expect("probe problem is well-posed");
            prev = d.first().to_vec();
            iters.push(d.iterations);
        }
        iters
    };

    let mean_tail = |iters: &[usize]| -> f64 {
        let tail = &iters[1..];
        tail.iter().sum::<usize>() as f64 / tail.len() as f64
    };
    let cold = run(false);
    let warm = run(true);
    WarmStartStats {
        markets: MARKETS,
        horizon,
        solves: INTERVALS - 1,
        cold_mean_iterations: mean_tail(&cold),
        warm_mean_iterations: mean_tail(&warm),
    }
}

/// Result of [`run_command`]: the bench record plus the deterministic
/// stdout body (one JSON line per run, grid order).
pub struct SweepOutput {
    /// Per-run JSON lines (byte-stable, grid order) for stdout.
    pub summary_lines: String,
    /// The rendered `BENCH_sweep.json` contents.
    pub bench_json: String,
    /// Whether the serial and parallel digests matched.
    pub digests_match: bool,
    /// Speedup of the parallel pass over the serial pass.
    pub speedup: f64,
    /// Host parallelism recorded in the bench file.
    pub nproc: usize,
}

/// Execute the sweep command: run the grid serially, run it again at
/// `jobs` workers, verify byte-identical summaries, and render both
/// the stdout body and `BENCH_sweep.json`.
pub fn run_command(jobs: usize, scenario: Option<&str>, seed: u64) -> Result<SweepOutput, String> {
    let grid = build_grid(scenario, seed)?;
    let started_serial = std::time::Instant::now();
    let serial = run_grid(1, grid.clone());
    let serial_elapsed = started_serial.elapsed().as_secs_f64();
    let started_parallel = std::time::Instant::now();
    let parallel = run_grid(jobs, grid);
    let parallel_elapsed = started_parallel.elapsed().as_secs_f64();
    let warm_start = warm_start_probe();

    let serial_summaries: Vec<RunSummary> = serial.iter().map(|r| r.summary.clone()).collect();
    let parallel_summaries: Vec<RunSummary> = parallel.iter().map(|r| r.summary.clone()).collect();
    let digest_serial = digest(&serial_summaries);
    let digest_parallel = digest(&parallel_summaries);
    let digests_match = digest_serial == digest_parallel
        && serial_summaries
            .iter()
            .zip(&parallel_summaries)
            .all(|(a, b)| a.to_json() == b.to_json());
    let speedup = if parallel_elapsed > 0.0 {
        serial_elapsed / parallel_elapsed
    } else {
        0.0
    };

    let mut summary_lines = String::new();
    for s in &parallel_summaries {
        summary_lines.push_str(&s.to_json());
        summary_lines.push('\n');
    }

    let mut runs_json = String::new();
    for (i, r) in parallel.iter().enumerate() {
        if i > 0 {
            runs_json.push(',');
        }
        runs_json.push_str(&format!(
            "\n    {{\"label\":{},\"wall_secs\":{},\"summary\":{}}}",
            json_string(&r.summary.label()),
            json_f64(r.wall_secs),
            r.summary.to_json(),
        ));
    }
    let host_nproc = spotweb_sim::nproc();
    let bench_json = format!(
        "{{\n  \"jobs\": {jobs},\n  \"nproc\": {host_nproc},\n  \"runs\": [{runs_json}\n  ],\n  \
         \"serial_wall_secs\": {},\n  \"parallel_wall_secs\": {},\n  \
         \"speedup\": {},\n  \"digest_serial\": {},\n  \
         \"digest_parallel\": {},\n  \"digests_match\": {digests_match},\n  \
         \"warm_start\": {{\"markets\": {}, \"horizon\": {}, \"solves\": {}, \
         \"cold_mean_iterations\": {}, \"warm_mean_iterations\": {}, \
         \"iterations_saved_fraction\": {}}}\n}}\n",
        json_f64(serial_elapsed),
        json_f64(parallel_elapsed),
        json_f64(speedup),
        json_string(&digest_serial),
        json_string(&digest_parallel),
        warm_start.markets,
        warm_start.horizon,
        warm_start.solves,
        json_f64(warm_start.cold_mean_iterations),
        json_f64(warm_start.warm_mean_iterations),
        json_f64(warm_start.saved_fraction()),
    );

    Ok(SweepOutput {
        summary_lines,
        bench_json,
        digests_match,
        speedup,
        nproc: host_nproc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_policies_and_scenarios() {
        let grid = build_grid(None, 1234).unwrap();
        assert_eq!(grid.len(), SWEEP_POLICIES.len() * NAMED_SCENARIOS.len());
        let one = build_grid(Some("revocation_storm"), 7).unwrap();
        assert_eq!(one.len(), SWEEP_POLICIES.len());
        assert!(one.iter().all(|s| s.scenario == "revocation-storm"));
        let err = build_grid(Some("kernel-panic"), 7).unwrap_err();
        assert!(err.contains("known:"), "error lists known scenarios: {err}");
    }

    #[test]
    fn sweep_runs_are_deterministic_across_job_counts() {
        // Small grid (one scenario) to keep the double pass cheap; the
        // root tests/sweep.rs golden test covers the CLI-visible path.
        let grid = build_grid(Some("zero-warning"), 1234).unwrap();
        let serial = run_grid(1, grid.clone());
        let parallel = run_grid(4, grid);
        let s: Vec<String> = serial.iter().map(|r| r.summary.to_json()).collect();
        let p: Vec<String> = parallel.iter().map(|r| r.summary.to_json()).collect();
        assert_eq!(s, p, "sweep output must be byte-identical at any jobs");
        // The spotweb run actually exercised the optimizer.
        let spot = &serial[0].summary;
        assert_eq!(spot.policy, "spotweb");
        assert!(spot.mpo_solves > 0);
        assert!(spot.admm_iterations > 0);
    }

    #[test]
    fn warm_start_probe_shows_iteration_savings() {
        let stats = warm_start_probe();
        assert!(
            stats.warm_mean_iterations < stats.cold_mean_iterations,
            "warm {} vs cold {}",
            stats.warm_mean_iterations,
            stats.cold_mean_iterations
        );
        assert!(stats.saved_fraction() > 0.0);
    }
}
