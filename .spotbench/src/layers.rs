//! The traced run: per-layer metrics.
//!
//! Three sources, none of which adds code to the program:
//!
//! * the benchmark's own timers around the calls it makes (the policy
//!   adapters, the runner's per-interval hook, per-cell walls);
//! * the program's `prof` span tree and `TelemetrySink` counters and
//!   timings, read after a profiled pass;
//! * short replays of a layer's public per-call functions on the
//!   workload's inputs, which give nanoseconds per call.
//!
//! The run makes one untraced pass (as an end-to-end pass does) and
//! one profiled pass on a single worker thread, checks that both
//! simulated the same thing, and reports span times as shares of the
//! profiled pass's wall time so that they reconcile against it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use spotweb_core::evaluate::EvalOptions;
use spotweb_lb::{LoadBalancer, LoadBalancerConfig, MonitorWindow, RouteOutcome};
use spotweb_market::{estimate_correlation, Catalog, CloudSim};
use spotweb_sim::{CalendarQueue, RunnerConfig, ServiceModel};
use spotweb_telemetry::prof::{self, MergedNode};
use spotweb_workload::rng::{stream_id, CounterStream, DOMAIN_ARRIVAL_GAP, DOMAIN_ARRIVAL_SESSION};

use crate::stats::{median, quantile};
use crate::workloads::{run_pass, Pass, Sizes, Workload};
use crate::{compare_outcomes, e2e_jobs, metric, prepared, tail_quantile, Args, Metric};

/// Repetitions per replay; the median is reported.
const REPLAY_REPS: usize = 5;

/// Summed figures of every span with one name.
#[derive(Debug, Default, Clone, Copy)]
struct SpanSum {
    total: f64,
    self_secs: f64,
    count: u64,
}

#[derive(Debug, Default)]
struct SpanTable {
    by_name: BTreeMap<String, SpanSum>,
    lock_waits: u64,
    lock_wait_secs: f64,
}

impl SpanTable {
    fn from_tree(root: &MergedNode) -> SpanTable {
        let mut table = SpanTable::default();
        table.absorb(root);
        table
    }

    fn absorb(&mut self, node: &MergedNode) {
        self.lock_waits += node.lock_waits;
        self.lock_wait_secs += node.lock_wait_secs;
        if !node.name.is_empty() {
            let s = self.by_name.entry(node.name.clone()).or_default();
            s.total += node.total_secs;
            s.self_secs += node.self_secs();
            s.count += node.count;
        }
        for c in &node.children {
            self.absorb(c);
        }
    }

    fn get(&self, name: &str) -> SpanSum {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

/// The inputs a workload's replays run on.
struct ReplayInputs {
    catalog: Catalog,
    rate: f64,
    interval_secs: f64,
    intervals: usize,
    /// Calls per replay repetition.
    calls: u64,
}

fn replay_inputs(workload: Workload, sizes: &Sizes) -> ReplayInputs {
    match workload {
        Workload::Storm => ReplayInputs {
            catalog: Catalog::fig4_testbed(),
            rate: sizes.storm_rps,
            interval_secs: 300.0,
            intervals: sizes.storm_intervals,
            calls: sizes.replay_calls,
        },
        Workload::Diurnal => ReplayInputs {
            catalog: Catalog::ec2_subset(9),
            rate: sizes.diurnal_rps,
            interval_secs: 3600.0,
            intervals: sizes.diurnal_hours,
            calls: sizes.replay_calls,
        },
        Workload::Fleet36 => ReplayInputs {
            catalog: Catalog::ec2_us_east_36(),
            rate: sizes.fleet_rps,
            interval_secs: 3600.0,
            intervals: sizes.fleet_intervals,
            calls: sizes.replay_calls,
        },
        Workload::Grid => ReplayInputs {
            catalog: Catalog::fig4_testbed(),
            rate: sizes.grid_rps,
            interval_secs: 300.0,
            intervals: sizes.grid_intervals,
            calls: sizes.replay_calls,
        },
    }
}

/// Median over [`REPLAY_REPS`] repetitions of `rep`'s nanoseconds per
/// call; `rep` makes `calls` calls.
fn ns_per_call(calls: u64, mut rep: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let t = Instant::now();
            rep();
            t.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .collect();
    median(&samples)
}

/// `workload::rng`: one inter-arrival gap draw plus one session draw.
fn replay_draws(seed: u64, inp: &ReplayInputs, sessions: u64) -> f64 {
    let gaps = CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_GAP, 0));
    let sess = CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_SESSION, 0));
    ns_per_call(inp.calls, || {
        let (mut t, mut s) = (0.0f64, 0u64);
        for i in 0..inp.calls {
            t += gaps.exp_at(black_box(i), inp.rate);
            s ^= sess.range_at(black_box(i), sessions);
        }
        black_box((t, s));
    })
}

/// A balancer serving `inp.rate` with ~30% headroom spread over every
/// market of the catalog.
fn replay_balancer(inp: &ReplayInputs) -> LoadBalancer {
    let mut lb = LoadBalancer::new(LoadBalancerConfig::default());
    let n = inp.catalog.len();
    let mut weights = Vec::with_capacity(n);
    for m in inp.catalog.markets() {
        let cap = m.capacity_rps();
        let servers = (1.3 * inp.rate / (n as f64 * cap)).ceil().max(1.0) as usize;
        for _ in 0..servers {
            lb.add_backend_up(m.id, cap);
        }
        weights.push(1.0 / n as f64);
    }
    lb.update_portfolio_weights(&weights, 0.0);
    lb
}

/// `LoadBalancer::route` plus `complete` for one session-keyed request.
fn replay_route(seed: u64, inp: &ReplayInputs, sessions: u64) -> f64 {
    let sess = CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_SESSION, 0));
    let mut lb = replay_balancer(inp);
    let mut now = 0.0;
    ns_per_call(inp.calls, || {
        for i in 0..inp.calls {
            now += 1.0 / inp.rate;
            if let RouteOutcome::Routed(b) = lb.route(Some(sess.range_at(i, sessions)), now) {
                lb.complete(b, None);
            }
        }
    })
}

/// `MonitorWindow::record_served` at the workload's arrival rate.
fn replay_monitor(inp: &ReplayInputs) -> f64 {
    let mut window = MonitorWindow::new(inp.interval_secs);
    let mut now = 0.0;
    ns_per_call(inp.calls, || {
        for _ in 0..inp.calls {
            now += 1.0 / inp.rate;
            window.record_served(now, 0.1);
        }
        black_box(window.len());
    })
}

/// `ServiceModel::admit` on one server of the catalog's first market
/// at 90% utilization.
fn replay_admit(inp: &ReplayInputs, service_secs: f64) -> f64 {
    let cap = inp.catalog.market(0).capacity_rps();
    let mut server = ServiceModel::new(cap, service_secs, 0.0);
    let gap = 1.0 / (0.9 * cap);
    let mut now = 0.0;
    ns_per_call(inp.calls, || {
        for _ in 0..inp.calls {
            now += gap;
            black_box(server.admit(now));
        }
    })
}

/// `CalendarQueue` push of one completion plus the pops falling due,
/// at the workload's arrival rate.
fn replay_calendar(seed: u64, inp: &ReplayInputs, service_secs: f64) -> f64 {
    let jitter = CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_GAP, 1));
    let mut queue = CalendarQueue::new(service_secs * 0.5);
    let mut now = 0.0;
    let mut counter = 0u64;
    ns_per_call(inp.calls, || {
        for _ in 0..inp.calls {
            now += 1.0 / inp.rate;
            while queue.peek_done().is_some_and(|d| d <= now) {
                black_box(queue.pop());
            }
            counter += 1;
            let service = service_secs * (1.0 + jitter.unit_f64_at(counter));
            queue.push(now + service, (counter % 64) as usize, now);
        }
    })
}

/// `CloudSim::step` plus `sample_revocations` against a two-server
/// per-market fleet, in milliseconds.
fn replay_market(seed: u64, inp: &ReplayInputs) -> f64 {
    let mut cloud = CloudSim::new(inp.catalog.clone(), seed, 100);
    cloud.warm_up(8);
    let fleet = vec![2u32; inp.catalog.len()];
    let steps = 200;
    let samples: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..steps {
                black_box(cloud.step());
                black_box(cloud.sample_revocations(&fleet));
            }
            t.elapsed().as_secs_f64() * 1e3 / steps as f64
        })
        .collect();
    median(&samples)
}

/// `estimate_correlation` on a failure history as long as the
/// interval-level harness accumulates over the workload, in
/// milliseconds.
fn replay_covariance(seed: u64, inp: &ReplayInputs) -> f64 {
    let options = EvalOptions::default();
    let mut cloud = options.provider.cloud(inp.catalog.clone(), seed, 24 * 60);
    cloud.warm_up(options.cloud_warmup + inp.intervals);
    let history = cloud.history().failure_matrix();
    let samples: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            let t = Instant::now();
            black_box(estimate_correlation(black_box(&history), 0.1));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Run the traced measurement and return the per-layer metrics plus
/// the passes it made (for failure accounting).
pub fn traced(args: &Args, errors: &mut Vec<String>) -> (Vec<Metric>, Vec<Pass>) {
    let w = args.workload;
    let jobs = e2e_jobs(w);

    let plain = run_pass(w, prepared(args), jobs);
    let session = prof::begin();
    let traced = run_pass(w, prepared(args), 1);
    let profile = session.finish();

    errors.extend(plain.errors.iter().cloned());
    errors.extend(traced.errors.iter().cloned());
    compare_outcomes(
        &format!("traced (jobs 1) vs untraced (jobs {jobs})"),
        &plain,
        &traced,
        errors,
    );
    crate::print_outcome(&plain);

    let spans = SpanTable::from_tree(&profile.merged());
    let wall = traced.wall;
    let share = |name: &str| ratio(spans.get(name).total, wall);

    // Reconciliation: the layers with a span of their own (request
    // level) or timed from outside (interval level) against the wall.
    let layered = if w.request_level() {
        [
            "lb.route",
            "runner.control_batch",
            "runner.drain",
            "runner.billing",
            "runner.rollup",
        ]
        .iter()
        .map(|n| spans.get(n).total)
        .sum::<f64>()
    } else {
        traced.log.decide_secs.iter().sum::<f64>()
    };
    let unattributed = 1.0 - ratio(layered, wall);

    let inp = replay_inputs(w, &args.sizes);
    let defaults = RunnerConfig::default();
    let covariance_ms = if w.request_level() {
        crate::stats::mean(&plain.log.covariance_secs) * 1e3
    } else {
        replay_covariance(args.seed, &inp)
    };
    let c = &plain.counters;
    let mpo_decisions = plain.mpo_decide_secs.len() as f64;
    let mpo_decide_secs: f64 = plain.mpo_decide_secs.iter().sum();
    let busy: f64 = plain.cell_walls.iter().sum();
    let traced_busy: f64 = traced.cell_walls.iter().sum();
    let interval_ms: Vec<f64> = plain.interval_walls.iter().map(|s| s * 1e3).collect();
    // The interval-level harness serves its trace in bulk: no arrival
    // is generated one by one.
    let arrivals = if w.request_level() {
        plain.requests
    } else {
        0.0
    };

    let metrics = vec![
        metric("workload.arrivals", arrivals, "count"),
        metric(
            "workload.draw_ns",
            replay_draws(args.seed, &inp, defaults.sessions),
            "ns",
        ),
        metric(
            "lb.route_calls",
            spans.get("lb.route").count as f64,
            "count",
        ),
        metric("lb.route_share", share("lb.route"), "frac"),
        metric(
            "lb.route_ns",
            replay_route(args.seed, &inp, defaults.sessions),
            "ns",
        ),
        metric("lb.migrations", plain.migrations as f64, "count"),
        metric(
            "lb.admission_rejections",
            c.admission_rejections as f64,
            "count",
        ),
        metric("lb.monitor_ns", replay_monitor(&inp), "ns"),
        metric(
            "sim.arrival_loop_self_share",
            ratio(spans.get("runner.arrival_loop").self_secs, wall),
            "frac",
        ),
        metric("sim.control_share", share("runner.control_batch"), "frac"),
        metric("sim.drain_share", share("runner.drain"), "frac"),
        metric("sim.billing_share", share("runner.billing"), "frac"),
        metric("sim.rollup_share", share("runner.rollup"), "frac"),
        metric(
            "sim.compactions",
            spans.get("runner.compact").count as f64,
            "count",
        ),
        metric(
            "sim.admit_ns",
            replay_admit(&inp, defaults.service_secs),
            "ns",
        ),
        metric(
            "sim.calendar_ns",
            replay_calendar(args.seed, &inp, defaults.service_secs),
            "ns",
        ),
        metric("sim.interval_ms_p50", quantile(&interval_ms, 0.5), "ms"),
        metric("sim.interval_ms_max", quantile(&interval_ms, 1.0), "ms"),
        metric("sim.unattributed_frac", unattributed, "frac"),
        metric(
            "telemetry.hist_lock_acquisitions",
            spans.lock_waits as f64,
            "count",
        ),
        metric(
            "telemetry.hist_lock_wait_share",
            ratio(spans.lock_wait_secs, wall),
            "frac",
        ),
        metric("market.step_ms", replay_market(args.seed, &inp), "ms"),
        metric("market.covariance_ms", covariance_ms, "ms"),
        metric(
            "predict.ms",
            ratio(mpo_decide_secs - plain.mpo_solve_secs, mpo_decisions) * 1e3,
            "ms",
        ),
        metric("core.decisions", plain.decisions as f64, "count"),
        metric(
            "core.decide_ms",
            ratio(mpo_decide_secs, mpo_decisions) * 1e3,
            "ms",
        ),
        metric(
            "core.decide_p50_ms",
            quantile(&plain.mpo_decide_secs, 0.5) * 1e3,
            "ms",
        ),
        metric(
            "core.decide_tail_ms",
            quantile(
                &plain.mpo_decide_secs,
                tail_quantile(plain.mpo_decide_secs.len()),
            ) * 1e3,
            "ms",
        ),
        metric(
            "core.mpo_solve_ms",
            ratio(plain.mpo_solve_secs, c.mpo_solves as f64) * 1e3,
            "ms",
        ),
        metric(
            "core.warm_start_frac",
            ratio(c.warm_solves as f64, (c.warm_solves + c.cold_solves) as f64),
            "frac",
        ),
        metric(
            "core.factor_reuse_frac",
            ratio(c.factor_reuse as f64, c.mpo_solves as f64),
            "frac",
        ),
        metric("core.solve_failures", c.solve_failures as f64, "count"),
        metric("solver.admm_iterations", c.admm_iterations as f64, "count"),
        metric(
            "solver.iters_per_solve",
            ratio(c.admm_iterations as f64, c.mpo_solves as f64),
            "count",
        ),
        metric("sweep.cells", plain.cells as f64, "count"),
        metric("sweep.busy_s", busy, "s"),
        metric(
            "sweep.idle_frac",
            1.0 - ratio(busy, plain.jobs as f64 * plain.wall),
            "frac",
        ),
        metric(
            "sweep.longest_cell_s",
            quantile(&plain.cell_walls, 1.0),
            "s",
        ),
        metric("trace.wall_s", wall, "s"),
        metric(
            "trace.overhead_frac",
            ratio(traced_busy, busy) - 1.0,
            "frac",
        ),
    ];

    println!("# reconciliation over the profiled pass ({wall:.3} s wall):");
    let mut parts: Vec<(String, f64)> = if w.request_level() {
        [
            "lb.route",
            "runner.control_batch",
            "runner.drain",
            "runner.billing",
            "runner.rollup",
        ]
        .iter()
        .map(|n| (n.to_string(), spans.get(n).total))
        .collect()
    } else {
        vec![("policy.decide (adapter)".to_string(), layered)]
    };
    parts.push(("unattributed".to_string(), wall - layered));
    for (name, secs) in &parts {
        println!(
            "#   {name:<28} {secs:>10.4} s  {:>6.2}%",
            100.0 * ratio(*secs, wall)
        );
    }
    if w.request_level() {
        println!(
            "#   of which runner.arrival_loop self time {:.4} s",
            spans.get("runner.arrival_loop").self_secs
        );
    }
    (metrics, vec![plain, traced])
}
