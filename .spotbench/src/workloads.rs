//! The four workloads: how each builds its inputs from a seed
//! ([`prepare`]) and runs one timed pass over them ([`run_pass`]).
//!
//! A pass is a fixed amount of simulated work. Its outcome metrics
//! (`sim_*`) are a pure function of the workload, the size and the
//! seed; only its host timings vary.

use std::time::Instant;

use spotweb_core::evaluate::{simulate_costs, EvalOptions};
use spotweb_core::{build_policy, SpotWebConfig, SpotWebPolicy, ZooConfig};
use spotweb_lb::LoadBalancerConfig;
use spotweb_market::{Catalog, CloudSim};
use spotweb_sim::runner::ReactiveCheapestPolicy;
use spotweb_sim::{
    parallel_map, run_full_stack_observed, FaultKind, FaultPlan, RunnerConfig, RunnerReport,
};
use spotweb_telemetry::{names, TelemetrySink};
use spotweb_workload::{wikipedia_like, Trace};

use crate::adapter::{DecideLog, Driven, FleetAdapter, TimedPolicy};
use crate::stats::{derive_seed, fnv64};

/// p99 latency SLO a grid cell is judged against (the tournament's).
pub const SLO_P99_SECS: f64 = 0.5;

/// Policies of the grid workload: the factory-built zoo plus the
/// runner's reactive baseline.
pub const GRID_POLICIES: &[&str] = &[
    "spotweb",
    "reactive",
    "exosphere",
    "index-tracking",
    "het-spot-groups",
    "randomized-market",
];

/// Chaos scenarios of the grid workload.
pub const GRID_SCENARIOS: &[&str] = &[
    "revocation-storm",
    "revocation-storm-vanilla",
    "zero-warning",
    "backend-flaps",
    "slow-start-storm",
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Request-level full stack under a correlated revocation storm.
    Storm,
    /// Request-level full stack over one simulated day.
    Diurnal,
    /// Interval-level decision path on the 36-market catalog.
    Fleet36,
    /// Policy × scenario × seed tournament grid.
    Grid,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Storm,
        Workload::Diurnal,
        Workload::Fleet36,
        Workload::Grid,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Storm => "storm",
            Workload::Diurnal => "diurnal",
            Workload::Fleet36 => "fleet36",
            Workload::Grid => "grid",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs the request-level simulator.
    pub fn request_level(self) -> bool {
        self != Workload::Fleet36
    }
}

/// Input sizes. `full` is the measured configuration; `tiny` keeps
/// every workload's shape at a size a smoke test can afford.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// storm: 300 s intervals per run.
    pub storm_intervals: usize,
    /// storm: constant arrival rate (req/s).
    pub storm_rps: f64,
    /// diurnal: hourly intervals per run.
    pub diurnal_hours: usize,
    /// diurnal: mean arrival rate (req/s).
    pub diurnal_rps: f64,
    /// fleet36: hourly decisions per run.
    pub fleet_intervals: usize,
    /// fleet36: mean arrival rate (req/s).
    pub fleet_rps: f64,
    /// grid: seeds derived per policy × scenario.
    pub grid_seeds: usize,
    /// grid: 300 s intervals per cell.
    pub grid_intervals: usize,
    /// grid: constant arrival rate per cell (req/s).
    pub grid_rps: f64,
    /// Calls per repetition of a traced run's per-call replays.
    pub replay_calls: u64,
}

impl Sizes {
    /// The measured configuration.
    pub fn full() -> Sizes {
        Sizes {
            storm_intervals: 8,
            storm_rps: 2000.0,
            diurnal_hours: 24,
            diurnal_rps: 100.0,
            fleet_intervals: 1008,
            fleet_rps: 20_000.0,
            grid_seeds: 3,
            grid_intervals: 4,
            grid_rps: 300.0,
            replay_calls: 200_000,
        }
    }

    /// Smoke-test configuration.
    pub fn tiny() -> Sizes {
        Sizes {
            storm_intervals: 3,
            storm_rps: 100.0,
            diurnal_hours: 3,
            diurnal_rps: 5.0,
            fleet_intervals: 12,
            fleet_rps: 20_000.0,
            grid_seeds: 1,
            grid_intervals: 2,
            grid_rps: 20.0,
            replay_calls: 2_000,
        }
    }
}

/// One full-stack run's inputs.
pub struct Cell {
    /// Policy name (`spotweb`, a zoo name, or `reactive`).
    pub policy: String,
    adapter: FleetAdapter,
    cloud: CloudSim,
    trace: Trace,
    config: RunnerConfig,
    sink: TelemetrySink,
    faults_expected: usize,
}

/// One interval-level harness run's inputs.
pub struct FleetRun {
    policy: TimedPolicy,
    catalog: Catalog,
    trace: Trace,
    options: EvalOptions,
    sink: TelemetrySink,
}

/// A workload's inputs for one pass.
pub enum Prepared {
    /// Request-level cells (one for storm and diurnal, the whole grid
    /// for grid).
    Cells(Vec<Cell>),
    /// The interval-level harness run.
    Fleet(Box<FleetRun>),
}

/// Telemetry counters one pass accumulated (deterministic).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counters {
    /// MPO solves that returned a decision.
    pub mpo_solves: u64,
    /// MPO solves that failed.
    pub solve_failures: u64,
    /// ADMM iterations over all solves.
    pub admm_iterations: u64,
    /// Warm-started solves.
    pub warm_solves: u64,
    /// Cold solves.
    pub cold_solves: u64,
    /// Solves that reused a cached factorization.
    pub factor_reuse: u64,
    /// Requests the balancer's admission control rejected.
    pub admission_rejections: u64,
}

impl Counters {
    fn read(sink: &TelemetrySink) -> Counters {
        Counters {
            mpo_solves: sink.counter(names::MPO_SOLVES_TOTAL),
            solve_failures: sink.counter(names::MPO_SOLVE_FAILURES_TOTAL),
            admm_iterations: sink.counter(names::ADMM_ITERATIONS_TOTAL),
            warm_solves: sink.counter(names::MPO_WARM_SOLVES_TOTAL),
            cold_solves: sink.counter(names::MPO_COLD_SOLVES_TOTAL),
            factor_reuse: sink.counter(names::MPO_FACTOR_REUSE_TOTAL),
            admission_rejections: sink.counter(names::LB_ADMISSION_REJECTIONS_TOTAL),
        }
    }

    fn add(&mut self, o: &Counters) {
        self.mpo_solves += o.mpo_solves;
        self.solve_failures += o.solve_failures;
        self.admm_iterations += o.admm_iterations;
        self.warm_solves += o.warm_solves;
        self.cold_solves += o.cold_solves;
        self.factor_reuse += o.factor_reuse;
        self.admission_rejections += o.admission_rejections;
    }
}

/// The outcome of one pass.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Host seconds the pass took (inputs excluded).
    pub wall: f64,
    /// Worker threads the pass ran on.
    pub jobs: usize,
    /// Simulated requests offered (served + dropped).
    pub requests: f64,
    /// Simulated requests dropped.
    pub dropped: f64,
    /// Simulated decision intervals.
    pub intervals: u64,
    /// Simulated spend ($): summed over cells, SLO penalty included on
    /// the interval-level harness.
    pub cost: f64,
    /// Simulated p99 latency of each request-level cell (s).
    pub p99s: Vec<f64>,
    /// Cells whose simulated p99 exceeds [`SLO_P99_SECS`].
    pub slo_misses: u64,
    /// Simulation runs (cells) completed.
    pub cells: u64,
    /// Policy decisions made.
    pub decisions: u64,
    /// Deterministic outcome metrics, compared bit for bit between
    /// passes; the `sim_*` entries are the reported ones.
    pub sim: Vec<(&'static str, f64)>,
    /// Per-cell report digests, in grid order.
    pub digests: Vec<u64>,
    /// Host timings of the policy adapters.
    pub log: DecideLog,
    /// Host seconds of each MPO (SpotWeb) decision, in order.
    pub mpo_decide_secs: Vec<f64>,
    /// Solver wall seconds the telemetry sink recorded.
    pub mpo_solve_secs: f64,
    /// Host seconds between consecutive simulated intervals.
    pub interval_walls: Vec<f64>,
    /// Host seconds of each cell.
    pub cell_walls: Vec<f64>,
    /// Telemetry counters.
    pub counters: Counters,
    /// Sessions migrated by the balancer.
    pub migrations: u64,
    /// Operations the program failed to complete (unsolved decisions,
    /// unaccounted requests, cells failing a check).
    pub failed: u64,
    /// Operations attempted: requests, or decisions on fleet36.
    pub attempted: u64,
    /// Cells that failed an output check.
    pub cells_failed: u64,
    /// Output-check failures, one line each.
    pub errors: Vec<String>,
}

fn spotweb_config(interval_secs: f64) -> SpotWebConfig {
    SpotWebConfig {
        interval_secs,
        ..SpotWebConfig::default()
    }
}

fn request_config(
    interval_secs: f64,
    intervals: usize,
    seed: u64,
    faults: Option<FaultPlan>,
    transiency_aware: bool,
    sink: &TelemetrySink,
) -> RunnerConfig {
    RunnerConfig {
        interval_secs,
        intervals,
        seed,
        shards: 1,
        faults,
        telemetry: sink.clone(),
        lb: LoadBalancerConfig {
            transiency_aware,
            ..LoadBalancerConfig::default()
        },
        ..RunnerConfig::default()
    }
}

/// A chaos scenario's fault plan for a catalog of `markets` markets
/// and whether its balancer is transiency-aware.
pub fn scenario_plan(name: &str, markets: usize) -> (FaultPlan, bool) {
    let all: Vec<usize> = (0..markets).collect();
    let storm = |warning_secs| FaultKind::CorrelatedRevocation {
        markets: all.clone(),
        warning_secs,
    };
    match name {
        "revocation-storm" => (FaultPlan::new().at(400.0, storm(None)), true),
        "revocation-storm-vanilla" => (FaultPlan::new().at(400.0, storm(None)), false),
        "zero-warning" => (FaultPlan::new().at(400.0, storm(Some(0.0))), true),
        "backend-flaps" => {
            let plan = all.iter().fold(FaultPlan::new(), |p, &m| {
                p.at(
                    400.0,
                    FaultKind::BackendFlap {
                        target: m,
                        down_secs: 60.0,
                    },
                )
            });
            (plan, true)
        }
        "slow-start-storm" => (
            FaultPlan::new()
                .at(200.0, FaultKind::StartupDelay { extra_secs: 120.0 })
                .at(200.0, FaultKind::WarmupStall { extra_secs: 60.0 })
                .at(400.0, storm(None)),
            true,
        ),
        other => panic!("unknown grid scenario {other}"),
    }
}

#[allow(clippy::too_many_arguments)]
fn request_cell(
    policy: &str,
    catalog: Catalog,
    interval_secs: f64,
    intervals: usize,
    trace: Trace,
    seed: u64,
    plan: Option<FaultPlan>,
    transiency_aware: bool,
) -> Cell {
    let sink = TelemetrySink::enabled();
    let mut cloud = CloudSim::new(catalog.clone(), seed, 100);
    cloud.warm_up(8);
    let horizon = interval_secs * intervals as f64;
    let faults_expected = plan.as_ref().map_or(0, |p| p.compile(seed, horizon).len());
    let driven = match policy {
        "reactive" => Driven::Reactive(ReactiveCheapestPolicy {
            headroom: 1.3,
            capacities: catalog.markets().iter().map(|m| m.capacity_rps()).collect(),
        }),
        name => Driven::Core(
            build_policy(
                name,
                &spotweb_config(interval_secs),
                &ZooConfig::default(),
                catalog.len(),
                seed,
                &sink,
            )
            .expect("grid policies are registered"),
        ),
    };
    Cell {
        policy: policy.to_string(),
        adapter: FleetAdapter::new(driven, catalog),
        cloud,
        trace,
        config: request_config(
            interval_secs,
            intervals,
            seed,
            plan,
            transiency_aware,
            &sink,
        ),
        sink,
        faults_expected,
    }
}

/// Build a workload's inputs for one pass: catalog, warmed-up cloud,
/// arrival trace, fault plan (compiled once to know what must fire)
/// and policy.
pub fn prepare(workload: Workload, seed: u64, sizes: &Sizes) -> Prepared {
    match workload {
        Workload::Storm => {
            let catalog = Catalog::fig4_testbed();
            let (plan, aware) = scenario_plan("revocation-storm", catalog.len());
            let n = sizes.storm_intervals;
            let trace = Trace::new(300.0, vec![sizes.storm_rps; n + 2]);
            Prepared::Cells(vec![request_cell(
                "spotweb",
                catalog,
                300.0,
                n,
                trace,
                seed,
                Some(plan),
                aware,
            )])
        }
        Workload::Diurnal => {
            let catalog = Catalog::ec2_subset(9);
            let n = sizes.diurnal_hours;
            let trace = wikipedia_like(n + 2, seed).with_mean(sizes.diurnal_rps);
            Prepared::Cells(vec![request_cell(
                "spotweb", catalog, 3600.0, n, trace, seed, None, true,
            )])
        }
        Workload::Fleet36 => {
            let catalog = Catalog::ec2_us_east_36();
            let n = sizes.fleet_intervals;
            let trace = wikipedia_like(n + 1, seed).with_mean(sizes.fleet_rps);
            let sink = TelemetrySink::enabled();
            let policy =
                SpotWebPolicy::new(SpotWebConfig::default().with_horizon(4), catalog.len())
                    .with_telemetry(sink.clone());
            Prepared::Fleet(Box::new(FleetRun {
                policy: TimedPolicy::new(Box::new(policy)),
                catalog,
                trace,
                options: EvalOptions {
                    intervals: n,
                    seed,
                    ..EvalOptions::default()
                },
                sink,
            }))
        }
        Workload::Grid => {
            let mut cells = Vec::new();
            for policy in GRID_POLICIES {
                for scenario in GRID_SCENARIOS {
                    for k in 0..sizes.grid_seeds {
                        let catalog = Catalog::fig4_testbed();
                        let (plan, aware) = scenario_plan(scenario, catalog.len());
                        let n = sizes.grid_intervals;
                        let trace = Trace::new(300.0, vec![sizes.grid_rps; n + 2]);
                        cells.push(request_cell(
                            policy,
                            catalog,
                            300.0,
                            n,
                            trace,
                            derive_seed(seed, k as u64),
                            Some(plan),
                            aware,
                        ));
                    }
                }
            }
            Prepared::Cells(cells)
        }
    }
}

/// What one request-level cell produced.
struct CellOutcome {
    policy: String,
    report: RunnerReport,
    wall: f64,
    interval_walls: Vec<f64>,
    log: DecideLog,
    counters: Counters,
    mpo_solve_secs: f64,
    errors: Vec<String>,
}

/// Total seconds of a named timing in the sink's timing store.
fn timing_total(sink: &TelemetrySink, name: &str) -> f64 {
    let json = sink.render_timings_json();
    let Some(at) = json.find(&format!("\"{name}\"")) else {
        return 0.0;
    };
    let rest = &json[at..];
    let key = "\"total_secs\": ";
    rest.find(key)
        .and_then(|i| {
            let tail = &rest[i + key.len()..];
            let end = tail.find([',', '}']).unwrap_or(tail.len());
            tail[..end].trim().parse::<f64>().ok()
        })
        .unwrap_or(0.0)
}

fn run_cell(cell: Cell) -> CellOutcome {
    let Cell {
        policy,
        mut adapter,
        mut cloud,
        trace,
        config,
        sink,
        faults_expected,
    } = cell;
    let start = Instant::now();
    let mut last = start;
    let mut interval_walls = Vec::with_capacity(config.intervals);
    let mut arrivals = 0u64;
    let report = run_full_stack_observed(
        &mut adapter,
        &mut cloud,
        &trace,
        &config,
        &mut |_, cumulative| {
            let now = Instant::now();
            interval_walls.push(now.duration_since(last).as_secs_f64());
            last = now;
            arrivals = cumulative;
        },
    );
    let wall = start.elapsed().as_secs_f64();

    let mut errors = Vec::new();
    let label = format!("{policy} seed {}", config.seed);
    for v in &report.invariant_violations {
        errors.push(format!("{label}: invariant violation: {v}"));
    }
    let accounted = report.served as u64 + report.dropped;
    if accounted != arrivals {
        errors.push(format!(
            "{label}: served + dropped = {accounted} but the balancer saw {arrivals} arrivals"
        ));
    }
    let served_counter = sink.counter(names::REQUESTS_SERVED_TOTAL);
    let dropped_counters = sink.counter(names::REQUESTS_KILLED_IN_FLIGHT_TOTAL)
        + sink.counter(names::LB_ADMISSION_REJECTIONS_TOTAL)
        + sink.counter(names::LB_NO_BACKEND_DROPS_TOTAL);
    if served_counter != report.served as u64 || dropped_counters != report.dropped {
        errors.push(format!(
            "{label}: report says {} served / {} dropped, telemetry counters say {served_counter} / {dropped_counters}",
            report.served, report.dropped
        ));
    }
    if report.faults_fired != faults_expected {
        errors.push(format!(
            "{label}: {} faults fired, plan compiles to {faults_expected}",
            report.faults_fired
        ));
    }
    if adapter.log.decide_secs.len() != config.intervals {
        errors.push(format!(
            "{label}: {} decisions for {} intervals",
            adapter.log.decide_secs.len(),
            config.intervals
        ));
    }
    CellOutcome {
        policy,
        report,
        wall,
        interval_walls,
        log: adapter.log,
        counters: Counters::read(&sink),
        mpo_solve_secs: timing_total(&sink, names::MPO_SOLVE_SECS),
        errors,
    }
}

/// Digest of everything a cell's report says, floats by their exact
/// bits (the derived `Debug` form round-trips every `f64`).
fn report_digest(report: &RunnerReport) -> u64 {
    fnv64(&format!("{report:?}"))
}

/// Run one pass over `prepared` with `jobs` worker threads (grid
/// only; every other workload is one serial run).
pub fn run_pass(workload: Workload, prepared: Prepared, jobs: usize) -> Pass {
    match prepared {
        Prepared::Cells(cells) => {
            let n_cells = cells.len();
            let start = Instant::now();
            let outcomes = parallel_map(jobs, cells, |_, cell| run_cell(cell));
            let wall = start.elapsed().as_secs_f64();
            let mut pass = Pass {
                wall,
                jobs: jobs.max(1).min(n_cells),
                cells: n_cells as u64,
                ..Pass::default()
            };
            let (mut served, mut revocations) = (0u64, 0u64);
            for o in outcomes {
                let r = &o.report;
                pass.requests += (r.served as u64 + r.dropped) as f64;
                pass.dropped += r.dropped as f64;
                served += r.served as u64;
                revocations += u64::from(r.revocations);
                pass.migrations += r.migrated_sessions;
                pass.intervals += r.fleet_sizes.len() as u64;
                pass.decisions += o.log.decide_secs.len() as u64;
                if o.policy == "spotweb" {
                    pass.mpo_decide_secs.extend(&o.log.decide_secs);
                }
                pass.cost += r.cost;
                pass.slo_misses += u64::from(r.p99 > SLO_P99_SECS);
                pass.p99s.push(r.p99);
                pass.digests.push(report_digest(r));
                pass.counters.add(&o.counters);
                pass.mpo_solve_secs += o.mpo_solve_secs;
                pass.interval_walls.extend(o.interval_walls);
                pass.cell_walls.push(o.wall);
                pass.log.extend(o.log);
                if !o.errors.is_empty() {
                    pass.cells_failed += 1;
                    pass.errors.extend(o.errors);
                }
            }
            pass.sim = vec![
                ("cost", pass.cost),
                ("served", served as f64),
                ("dropped", pass.dropped),
                ("revocations", revocations as f64),
                ("migrations", pass.migrations as f64),
                ("mpo_solves", pass.counters.mpo_solves as f64),
                ("admm_iterations", pass.counters.admm_iterations as f64),
            ];
            pass.attempted = pass.requests as u64;
            pass.failed = pass.cells_failed + pass.counters.solve_failures;
            if matches!(workload, Workload::Storm | Workload::Diurnal)
                && (pass.counters.mpo_solves == 0 || pass.counters.admm_iterations == 0)
            {
                pass.errors
                    .push("MPO is not in the loop: no solve or no ADMM iteration".to_string());
            }
            pass
        }
        Prepared::Fleet(run) => {
            let FleetRun {
                mut policy,
                catalog,
                trace,
                options,
                sink,
            } = *run;
            let start = Instant::now();
            let report = simulate_costs(&mut policy, &catalog, &trace, &options);
            let wall = start.elapsed().as_secs_f64();
            let counters = Counters::read(&sink);
            let decisions = policy.log.decide_secs.len() as u64;
            let mut errors = Vec::new();
            if decisions != options.intervals as u64 || report.records.len() != options.intervals {
                errors.push(format!(
                    "fleet36: {decisions} decisions and {} records for {} intervals",
                    report.records.len(),
                    options.intervals
                ));
            }
            if counters.mpo_solves + counters.solve_failures != decisions {
                errors.push(format!(
                    "fleet36: {} solves + {} failures for {decisions} decisions",
                    counters.mpo_solves, counters.solve_failures
                ));
            }
            if counters.mpo_solves == 0 || counters.admm_iterations == 0 {
                errors.push("fleet36: MPO did not solve".to_string());
            }
            let revoked: u64 = report
                .records
                .iter()
                .map(|r| u64::from(r.revoked_servers))
                .sum();
            Pass {
                wall,
                jobs: 1,
                requests: report.total_requests,
                dropped: report.dropped_requests,
                intervals: report.records.len() as u64,
                cells: 1,
                decisions,
                cost: report.total_cost(),
                sim: vec![
                    ("cost", report.total_cost()),
                    ("dropped", report.dropped_requests),
                    ("provisioning_usd", report.provisioning_cost),
                    ("penalty_usd", report.penalty_cost),
                    ("revoked_servers", revoked as f64),
                    ("mpo_solves", counters.mpo_solves as f64),
                    ("admm_iterations", counters.admm_iterations as f64),
                ],
                digests: Vec::new(),
                p99s: Vec::new(),
                slo_misses: 0,
                mpo_decide_secs: policy.log.decide_secs.clone(),
                mpo_solve_secs: timing_total(&sink, names::MPO_SOLVE_SECS),
                interval_walls: policy.log.interval_secs.clone(),
                cell_walls: vec![wall],
                log: policy.log,
                failed: counters.solve_failures + u64::from(!errors.is_empty()),
                attempted: decisions,
                counters,
                migrations: 0,
                cells_failed: u64::from(!errors.is_empty()),
                errors,
            }
        }
    }
}

/// A pass's outcome metrics: simulated spend, drop fraction and, on
/// the request-level workloads, the median cell p99 and the share of
/// cells missing the p99 SLO. A pure function of the workload, the
/// sizes and the seed.
pub fn outcome(pass: &Pass) -> Vec<(&'static str, f64, &'static str)> {
    let mut out = vec![
        ("sim_cost_usd", pass.cost, "USD"),
        (
            "sim_drop_frac",
            pass.dropped / pass.requests.max(1.0),
            "frac",
        ),
    ];
    if !pass.p99s.is_empty() {
        out.push(("sim_p99_s", crate::stats::median(&pass.p99s), "s"));
        out.push((
            "sim_slo_miss_frac",
            pass.slo_misses as f64 / pass.cells as f64,
            "frac",
        ));
    }
    out
}
