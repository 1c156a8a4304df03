//! Full-stack runner: provisioning policy + market dynamics + load
//! balancer + request-level simulation, wired together the way the
//! paper's Fig. 2 architecture runs in production.
//!
//! Per decision interval the runner:
//! 1. advances the market (prices, failure probabilities),
//! 2. asks the policy for the next fleet (server counts per market),
//! 3. reconciles the cluster — boots new servers (startup + cache
//!    warm-up), gracefully decommissions surplus ones,
//! 4. programs the balancer's WRR weights from the portfolio,
//! 5. samples revocations; victims get a warning, then die,
//! 6. generates Poisson request traffic at the trace's rate and runs
//!    it through the balancer into per-server service queues,
//! 7. accounts cost (per-second billing at current prices) and
//!    latency/drop metrics.
//!
//! The interval length is configurable; request-level simulation is
//! O(requests), and the request loop is built so the per-request
//! constant stays small enough for day- and week-scale runs at paper
//! rates (§5's 20 krps Wikipedia trace) — see DESIGN.md's "Hot-path
//! architecture". Three things keep the per-arrival cost down, all
//! byte-identical to the straightforward structure they replaced:
//!
//! * **Control-event batching** — pending deaths, flaps, and restores
//!   fire lazily at arrival times, so the loop computes the earliest
//!   pending control timepoint once and runs arrivals up to it in a
//!   tight loop touching only the balancer, the service queues, and
//!   the completion calendar. Control scans, `LoadBalancer::tick`,
//!   and the full invariant sweep run at control timepoints and
//!   interval boundaries (every balancer read the tight loop performs
//!   is time-lazy, so deferring `tick` is unobservable).
//! * **Allocation-free queues** — [`ServiceModel`] runs on a fixed
//!   slot array, and the global completion queue is a
//!   [`crate::calendar::CalendarQueue`] (O(1) push/pop in the old
//!   heap's exact total order).
//! * **Interned counters** — per-request counters use
//!   [`CounterHandle`]s resolved once per run instead of string-keyed
//!   registry lookups per event.
//!
//! Every served request's latency is recorded once, into the run's
//! [`LatencyRecorder`]; with telemetry enabled, the recorder's overall
//! histogram is published as `spotweb_request_latency_seconds` in one
//! sink call at the end of the run.
//!
//! Arrivals are drawn from the counter-based, draw-order-free
//! [`crate::rng`] generator, keyed per decision interval — which is
//! what lets [`RunnerConfig::shards`] move one run's arrival
//! generation onto worker threads with byte-identical output at any
//! shard count (see [`crate::shard`] for the pipeline and the
//! invariance argument).

use spotweb_lb::{BackendState, LoadBalancer, LoadBalancerConfig, MonitorWindow, RouteOutcome};
use spotweb_market::billing::{BillingLedger, BillingModel, CostMeter};
use spotweb_market::CloudSim;
use spotweb_telemetry::{names, prof, CounterHandle, TelemetrySink, TraceEvent};
use spotweb_workload::Trace;

use crate::calendar::CalendarQueue;
use crate::faults::{FaultKind, FaultPlan, InvariantChecker};
use crate::metrics::LatencyRecorder;
use crate::service::ServiceModel;
use crate::shard::{
    ArrivalPipeline, ArrivalSupply, InlineArrivals, PipelineArrivals, WindowArrivals, WindowSpec,
};

/// Abstraction over `spotweb-core`'s policies so this crate does not
/// depend on the optimizer: given current observations, return the
/// desired number of servers per market.
pub trait FleetPolicy {
    /// Decide the fleet for the coming interval.
    fn decide_fleet(
        &mut self,
        interval: usize,
        observed_rps: f64,
        prices: &[f64],
        failure_probs: &[f64],
        failure_history: &[Vec<f64>],
    ) -> Vec<u32>;
}

/// Configuration for a full-stack run.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Decision-interval length in seconds (default 600 s; the paper
    /// runs hourly, shortened here because the runner simulates every
    /// request).
    pub interval_secs: f64,
    /// Number of decision intervals to run.
    pub intervals: usize,
    /// Server startup time (s).
    pub startup_secs: f64,
    /// Cache warm-up window (s).
    pub warmup_secs: f64,
    /// Base request service time (s).
    pub service_secs: f64,
    /// Load-balancer configuration.
    pub lb: LoadBalancerConfig,
    /// Distinct user sessions.
    pub sessions: u64,
    /// Provider-imposed maximum instance lifetime (e.g. Google Cloud
    /// terminates preemptible VMs after 24 h). When set, the runner
    /// *proactively relinquishes* servers approaching the cap — a
    /// graceful drain plus replacement, instead of eating the
    /// provider's hard kill (§7 of the paper).
    pub max_lifetime_secs: Option<f64>,
    /// RNG seed (arrivals and revocation sampling share sub-streams).
    pub seed: u64,
    /// Shard count for the run's arrival generation. `1` (the default)
    /// runs fully inline on the calling thread with lazy arrival
    /// generation (no batches materialize — required for day-scale
    /// memory). `K > 1` pre-generates per-interval arrival batches on
    /// `min(K, nproc)` workers; everything else, latency recording
    /// included, stays on the calling thread. The report is
    /// byte-identical at any value (see [`crate::shard`]).
    pub shards: usize,
    /// Optional fault plan (chaos testing). Compiled deterministically
    /// from `seed` at run start. Interval-scoped faults — price
    /// shocks, correlated revocations, startup/warmup stalls — apply
    /// at the start of the interval containing their firing time (the
    /// market itself only evolves per interval); backend flaps fire at
    /// their exact times inside the request loop. `BackendFlap::target`
    /// is interpreted as a *market* index here: the first alive server
    /// of that market flaps.
    pub faults: Option<FaultPlan>,
    /// Telemetry sink. Disabled by default (every hook is a single
    /// branch); when enabled the runner threads the same sink through
    /// the balancer and the market so the whole stack writes one
    /// trace: per-interval spans and summaries, fault injections,
    /// replacement provisioning, drain/death/restore events, and
    /// request latency/drop metrics.
    pub telemetry: TelemetrySink,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            interval_secs: 600.0,
            intervals: 24,
            startup_secs: 55.0,
            warmup_secs: 60.0,
            service_secs: 0.12,
            lb: LoadBalancerConfig::default(),
            sessions: 2000,
            max_lifetime_secs: None,
            seed: 42,
            shards: 1,
            faults: None,
            telemetry: TelemetrySink::disabled(),
        }
    }
}

/// Result of a full-stack run.
#[derive(Debug, Clone)]
pub struct RunnerReport {
    /// Requests served.
    pub served: usize,
    /// Requests dropped.
    pub dropped: u64,
    /// Overall drop fraction.
    pub drop_fraction: f64,
    /// Overall p50 / p90 / p99 latency (s).
    pub p50: f64,
    /// 90th percentile latency (s).
    pub p90: f64,
    /// 99th percentile latency (s).
    pub p99: f64,
    /// Total provisioning spend ($, per-second billing).
    pub cost: f64,
    /// Revocation warnings delivered.
    pub revocations: u32,
    /// Sessions migrated by the balancer.
    pub migrated_sessions: u64,
    /// Servers proactively relinquished at the provider lifetime cap.
    pub lifetime_relinquishments: u32,
    /// Fleet size per interval (total servers).
    pub fleet_sizes: Vec<u32>,
    /// Per-interval latency/drop stats.
    pub buckets: Vec<crate::metrics::BucketStats>,
    /// Compiled faults that fired (0 without a plan).
    pub faults_fired: usize,
    /// Invariant violations the checker observed (empty on a healthy
    /// run; see [`InvariantChecker`]).
    pub invariant_violations: Vec<String>,
}

/// Run `policy` against `cloud` dynamics and `trace` arrivals.
///
/// `trace.rate_at` is sampled at interval boundaries; the Poisson
/// arrival rate is held constant within an interval.
pub fn run_full_stack(
    policy: &mut dyn FleetPolicy,
    cloud: &mut CloudSim,
    trace: &Trace,
    config: &RunnerConfig,
) -> RunnerReport {
    run_full_stack_observed(policy, cloud, trace, config, &mut |_, _| {})
}

/// [`run_full_stack`] with a per-interval observation hook.
///
/// `on_interval(interval, cumulative_arrivals)` is called once at the
/// end of every decision interval with the total arrivals (routed +
/// dropped) seen so far. The hook exists for *host-side* observers —
/// e.g. the bench harness timing wall-clock per simulated hour — and
/// must not feed anything back into the run; the runner's behaviour is
/// identical for any hook.
pub fn run_full_stack_observed(
    policy: &mut dyn FleetPolicy,
    cloud: &mut CloudSim,
    trace: &Trace,
    config: &RunnerConfig,
    on_interval: &mut dyn FnMut(usize, u64),
) -> RunnerReport {
    // Wall-clock profiling span for the whole run (inert unless a
    // prof session is active; distinct from the sim-clock trace spans
    // emitted through `sink` below).
    prof::scope!(names::SPAN_RUNNER_RUN);
    let horizon = config.interval_secs * config.intervals as f64;
    let mut recorder = LatencyRecorder::new(config.interval_secs, horizon);
    run_recorded(policy, cloud, trace, config, on_interval, &mut recorder)
}

/// The run behind [`run_full_stack_observed`], recording into a
/// caller-owned per-interval recorder (tests read it back to check
/// what the run published to telemetry).
fn run_recorded(
    policy: &mut dyn FleetPolicy,
    cloud: &mut CloudSim,
    trace: &Trace,
    config: &RunnerConfig,
    on_interval: &mut dyn FnMut(usize, u64),
    recorder: &mut LatencyRecorder,
) -> RunnerReport {
    if config.shards <= 1 {
        // Inline mode: arrivals generate lazily on this thread (no
        // batch ever materializes — day-scale windows are tens of
        // millions of arrivals).
        let supply = InlineArrivals {
            seed: config.seed,
            sessions: config.sessions,
        };
        run_loop(policy, cloud, trace, config, on_interval, supply, recorder)
    } else {
        // Sharded mode: per-interval window specs are fixed up front
        // (the same boundary rate samples the inline path takes) and
        // gen workers pre-compute arrival batches.
        let specs: Vec<WindowSpec> = (0..config.intervals)
            .map(|i| {
                let t0 = i as f64 * config.interval_secs;
                WindowSpec {
                    t0,
                    t_end: t0 + config.interval_secs,
                    rate: trace.rate_at(t0).max(1e-6),
                }
            })
            .collect();
        let pipeline = ArrivalPipeline::spawn(config.seed, config.sessions, specs, config.shards);
        let supply = PipelineArrivals::new(pipeline);
        run_loop(policy, cloud, trace, config, on_interval, supply, recorder)
    }
}

/// The control loop, generic over the arrival supply. The two
/// instantiations — inline at `shards = 1`, pipeline at `shards > 1` —
/// execute the same counter-RNG draws, the same routing sequence, and
/// the same recorder calls in the same order, so their reports are
/// byte-identical by construction.
fn run_loop<S: ArrivalSupply>(
    policy: &mut dyn FleetPolicy,
    cloud: &mut CloudSim,
    trace: &Trace,
    config: &RunnerConfig,
    on_interval: &mut dyn FnMut(usize, u64),
    mut arrivals: S,
    recorder: &mut LatencyRecorder,
) -> RunnerReport {
    let n_markets = cloud.catalog().len();
    let sink = config.telemetry.clone();
    let mut lb = LoadBalancer::new(config.lb.clone());
    lb.set_telemetry(sink.clone());
    cloud.set_telemetry(sink.clone());
    let mut services: Vec<ServiceModel> = Vec::new();
    // Latest death ever per backend (never cleared; classifies
    // in-flight work that spans a death even across a restore).
    let mut last_death: Vec<Option<f64>> = Vec::new();
    // Backends per market currently alive (ids into lb).
    let mut alive: Vec<Vec<usize>> = vec![Vec::new(); n_markets];
    let horizon = config.interval_secs * config.intervals as f64;
    // Chaos: the plan compiles once, up front, from the run seed.
    let timeline = config
        .faults
        .as_ref()
        .map(|p| p.compile(config.seed, horizon))
        .unwrap_or_default();
    let mut fault_cursor = 0usize;
    let mut faults_fired = 0usize;
    let mut extra_startup = 0.0f64;
    let mut extra_warmup = 0.0f64;
    // In-flight flaps: (fire_time, market, down_secs) and scheduled
    // recoveries (restore_time, backend, market).
    let mut pending_flaps: Vec<(f64, usize, f64)> = Vec::new();
    let mut pending_restores: Vec<(f64, usize, usize)> = Vec::new();
    let mut checker = InvariantChecker::new();
    let mut meter = CostMeter::new(n_markets, BillingModel::PerSecond);
    // Event-driven cost accounting: backends enter the ledger when
    // bought, move to its died list when their death *fires*, and each
    // interval settles in O(live + died this interval) — same charge
    // sequence as the old all-backends scan (see `BillingLedger`).
    let mut billing = BillingLedger::new();
    let mut revocations = 0u32;
    let mut relinquished = 0u32;
    // Birth time per backend, for the provider lifetime cap.
    let mut born_at: Vec<f64> = Vec::new();
    let mut fleet_sizes = Vec::with_capacity(config.intervals);
    // Deferred deaths: (deadline, backend).
    let mut pending_deaths: Vec<(f64, usize)> = Vec::new();
    // (completion_time, backend, arrival_time) in a bucketed calendar
    // queue popping in the exact min-heap order the runner always used
    // — persists across intervals so work spanning a boundary resolves.
    // Bucket width: half a base service time, comfortably under the
    // queue's no-late-insert bound (every completion is scheduled at
    // least one service time ahead of the clock).
    let mut completions = CalendarQueue::new(config.service_secs * 0.5);
    // Interned per-request counters: resolved once here, O(1) in the
    // hot loop (see spotweb_telemetry::CounterHandle).
    let served_counter = sink.counter_handle(names::REQUESTS_SERVED_TOTAL);
    let killed_counter = sink.counter_handle(names::REQUESTS_KILLED_IN_FLIGHT_TOTAL);
    // Application-level monitoring (§5.2): the policy sees the arrival
    // rate the balancer *measured*, not the generator's ground truth.
    let mut monitor = MonitorWindow::new(config.interval_secs);
    #[allow(clippy::too_many_arguments)]
    fn drain_completions(
        upto: f64,
        completions: &mut CalendarQueue,
        lb: &mut LoadBalancer,
        last_death: &[Option<f64>],
        recorder: &mut LatencyRecorder,
        monitor: &mut MonitorWindow,
        checker: &mut InvariantChecker,
        served_counter: &CounterHandle,
        killed_counter: &CounterHandle,
    ) {
        while let Some(done) = completions.peek_done() {
            if done > upto {
                break;
            }
            let (done, b, arrived) = completions.pop().expect("peeked entry");
            match last_death[b] {
                // The server died while this request was in flight (a
                // later restore does not save it).
                Some(d) if d < done && d >= arrived => {
                    recorder.record_drop(arrived);
                    monitor.record_dropped(arrived);
                    checker.on_dropped_in_flight();
                    killed_counter.inc();
                }
                _ => {
                    recorder.record(arrived, done - arrived);
                    monitor.record_served(arrived, done - arrived);
                    lb.complete(b, None);
                    checker.on_served();
                    served_counter.inc();
                }
            }
        }
    }

    for interval in 0..config.intervals {
        let t0 = interval as f64 * config.interval_secs;
        let t_end = t0 + config.interval_secs;
        sink.set_clock(t0);
        let span = sink.span_start("interval");
        prof::scope!(names::SPAN_RUNNER_INTERVAL);
        // Interval-head control work — fault application, policy
        // decide (the mpo.solve span nests here), fleet reconcile,
        // revocation sampling — profiles as one control batch; the
        // guard is dropped just before the arrival loop starts.
        let prof_control = prof::ScopeGuard::enter(names::SPAN_RUNNER_CONTROL_BATCH);

        // Apply this interval's compiled faults. Price shocks land
        // before the market steps so the tick already quotes them;
        // forced revocations queue up for the revocation section below
        // (they need the reconciled fleet); flaps fire at their exact
        // times inside the request loop.
        let mut forced_revocations: Vec<(Vec<usize>, Option<f64>)> = Vec::new();
        while fault_cursor < timeline.len() && timeline[fault_cursor].at_secs < t_end {
            faults_fired += 1;
            // Price shocks trace themselves inside the market façade.
            if sink.is_enabled() {
                let (fault, detail) = match &timeline[fault_cursor].kind {
                    FaultKind::PriceShock { .. } => (None, String::new()),
                    FaultKind::CorrelatedRevocation {
                        markets,
                        warning_secs,
                    } => (
                        Some("correlated_revocation"),
                        match warning_secs {
                            Some(w) => format!("markets {markets:?} warning {w}s"),
                            None => format!("markets {markets:?} default warning"),
                        },
                    ),
                    FaultKind::StartupDelay { extra_secs } => {
                        (Some("startup_delay"), format!("+{extra_secs}s boot"))
                    }
                    FaultKind::WarmupStall { extra_secs } => {
                        (Some("warmup_stall"), format!("+{extra_secs}s warmup"))
                    }
                    FaultKind::BackendFlap { target, down_secs } => (
                        Some("backend_flap"),
                        format!("market {target} down {down_secs}s"),
                    ),
                };
                if let Some(fault) = fault {
                    sink.emit_at(
                        timeline[fault_cursor].at_secs.max(t0),
                        TraceEvent::FaultInjected {
                            fault: fault.to_string(),
                            detail,
                        },
                    );
                }
            }
            match &timeline[fault_cursor].kind {
                FaultKind::PriceShock {
                    market,
                    multiplier,
                    hold_intervals,
                } => {
                    cloud.inject_price_shock(*market, *multiplier, *hold_intervals);
                }
                FaultKind::CorrelatedRevocation {
                    markets,
                    warning_secs,
                } => {
                    forced_revocations.push((markets.clone(), *warning_secs));
                }
                FaultKind::StartupDelay { extra_secs } => {
                    extra_startup += extra_secs;
                }
                FaultKind::WarmupStall { extra_secs } => {
                    extra_warmup += extra_secs;
                }
                FaultKind::BackendFlap { target, down_secs } => {
                    pending_flaps.push((
                        timeline[fault_cursor].at_secs.max(t0),
                        *target,
                        *down_secs,
                    ));
                }
            }
            fault_cursor += 1;
        }

        let tick = cloud.step();
        // Interval 0 has no measurements yet; afterwards the policy is
        // fed the balancer-monitored rate.
        let observed_rps = if interval == 0 {
            trace.rate_at(t0)
        } else {
            // O(1) rolling rates — same float as the full snapshot's
            // `arrival_rate`, without sorting the window's latencies.
            monitor.rates(t0).arrival_rate
        };
        let desired = policy.decide_fleet(
            interval,
            observed_rps,
            &tick.prices,
            &tick.failure_probs,
            &cloud.history().failure_matrix(),
        );
        assert_eq!(desired.len(), n_markets, "policy fleet length");

        // Reconcile the cluster.
        for m in 0..n_markets {
            let have = alive[m].len() as u32;
            let want = desired[m];
            if want > have {
                for _ in 0..(want - have) {
                    let cap = cloud.catalog().market(m).capacity_rps();
                    let startup = config.startup_secs + extra_startup;
                    let warmup = config.warmup_secs + extra_warmup;
                    let id = if interval == 0 {
                        // Bootstrap instantly so the run starts serving.
                        lb.add_backend_up(m, cap)
                    } else {
                        lb.add_backend(m, cap, t0, startup, warmup)
                    };
                    let warm_until = if interval == 0 {
                        0.0
                    } else {
                        t0 + startup + warmup
                    };
                    services.push(ServiceModel::new(cap, config.service_secs, warm_until));
                    last_death.push(None);
                    born_at.push(t0);
                    billing.add(id, m);
                    alive[m].push(id);
                }
            } else if have > want {
                for _ in 0..(have - want) {
                    if let Some(id) = alive[m].pop() {
                        lb.decommission(id, t0);
                        // A decommissioned server keeps serving (as a
                        // drain-fallback) until any replacement capacity
                        // started this interval is warmed up — releasing
                        // it earlier would open a gap on market switches.
                        let linger = t0
                            + config.startup_secs
                            + config.warmup_secs
                            + 50.0 * config.service_secs;
                        pending_deaths.push((linger, id));
                    }
                }
            }
        }

        // Program WRR weights proportional to per-market capacity share.
        let cap_share: Vec<f64> = {
            let caps: Vec<f64> = (0..n_markets)
                .map(|m| alive[m].len() as f64 * cloud.catalog().market(m).capacity_rps())
                .collect();
            let total: f64 = caps.iter().sum();
            if total > 0.0 {
                caps.iter().map(|c| c / total).collect()
            } else {
                vec![0.0; n_markets]
            }
        };
        lb.update_portfolio_weights(&cap_share, t0);

        // Provider lifetime cap (§7): relinquish servers that would hit
        // the cap this interval, replacing them proactively so the
        // graceful drain overlaps the replacement's startup.
        if let Some(cap_secs) = config.max_lifetime_secs {
            for (m, alive_m) in alive.iter_mut().enumerate() {
                let mut idx = 0;
                while idx < alive_m.len() {
                    let id = alive_m[idx];
                    if t0 + config.interval_secs - born_at[id] >= cap_secs {
                        alive_m.remove(idx);
                        relinquished += 1;
                        lb.decommission(id, t0);
                        let linger = t0
                            + config.startup_secs
                            + config.warmup_secs
                            + 50.0 * config.service_secs;
                        pending_deaths.push((linger, id));
                        let cap_rps = cloud.catalog().market(m).capacity_rps();
                        let startup = config.startup_secs + extra_startup;
                        let warmup = config.warmup_secs + extra_warmup;
                        let new_id = lb.add_backend(m, cap_rps, t0, startup, warmup);
                        sink.emit_at(
                            t0,
                            TraceEvent::ReplacementStarted {
                                replaces: id,
                                backend: new_id,
                                market: m,
                                ready_at: t0 + startup + warmup,
                            },
                        );
                        services.push(ServiceModel::new(
                            cap_rps,
                            config.service_secs,
                            t0 + startup + warmup,
                        ));
                        last_death.push(None);
                        born_at.push(t0);
                        billing.add(new_id, m);
                        alive_m.push(new_id);
                    } else {
                        idx += 1;
                    }
                }
            }
        }

        // Sample revocations for this interval; victims drain then die.
        let fleet: Vec<u32> = alive.iter().map(|v| v.len() as u32).collect();
        fleet_sizes.push(fleet.iter().sum());
        let events = cloud.sample_revocations(&fleet);
        let warning = cloud.warning_secs();
        for e in &events {
            if alive[e.market].is_empty() {
                continue;
            }
            let pos = e.server_index % alive[e.market].len();
            let id = alive[e.market].remove(pos);
            revocations += 1;
            lb.revocation_warning(id, t0, warning);
            pending_deaths.push((t0 + warning, id));
            // Reactive reprovisioning (§4.4): request a same-capacity
            // replacement the moment the warning arrives, so it is
            // serving before (or shortly after) the victim dies.
            let cap = cloud.catalog().market(e.market).capacity_rps();
            let startup = config.startup_secs + extra_startup;
            let warmup = config.warmup_secs + extra_warmup;
            let new_id = lb.add_backend(e.market, cap, t0, startup, warmup);
            sink.emit_at(
                t0,
                TraceEvent::ReplacementStarted {
                    replaces: id,
                    backend: new_id,
                    market: e.market,
                    ready_at: t0 + startup + warmup,
                },
            );
            services.push(ServiceModel::new(
                cap,
                config.service_secs,
                t0 + startup + warmup,
            ));
            last_death.push(None);
            born_at.push(t0);
            billing.add(new_id, e.market);
            alive[e.market].push(new_id);
        }

        // Injected correlated revocations (chaos): every alive server
        // in the targeted markets gets a warning — optionally shorter
        // than the provider default — plus a reactive replacement, same
        // as a sampled revocation.
        for (markets, w_opt) in forced_revocations.drain(..) {
            let w = w_opt.unwrap_or(warning);
            for &m in &markets {
                for id in std::mem::take(&mut alive[m]) {
                    revocations += 1;
                    lb.revocation_warning(id, t0, w);
                    pending_deaths.push((t0 + w, id));
                    let cap = cloud.catalog().market(m).capacity_rps();
                    let startup = config.startup_secs + extra_startup;
                    let warmup = config.warmup_secs + extra_warmup;
                    let new_id = lb.add_backend(m, cap, t0, startup, warmup);
                    sink.emit_at(
                        t0,
                        TraceEvent::ReplacementStarted {
                            replaces: id,
                            backend: new_id,
                            market: m,
                            ready_at: t0 + startup + warmup,
                        },
                    );
                    services.push(ServiceModel::new(
                        cap,
                        config.service_secs,
                        t0 + startup + warmup,
                    ));
                    last_death.push(None);
                    born_at.push(t0);
                    billing.add(new_id, m);
                    alive[m].push(new_id);
                }
            }
        }

        // Request-level simulation of the interval. Completions are
        // real events so the balancer's in-flight counts (and with
        // them saturation detection, least-utilized fallback and
        // admission control) reflect genuine queue depth.
        //
        // Control events — deaths, flaps, restores — have always fired
        // lazily at arrival times, so instead of scanning the pending
        // lists per arrival the loop computes the earliest pending
        // control timepoint and runs arrivals up to it in a tight loop
        // that touches only the balancer, the service queues, and the
        // completion calendar. The control scans, `lb.tick`, and the
        // full invariant sweep run when an arrival crosses that
        // timepoint (every balancer read below is time-lazy, so the
        // deferred `tick` is unobservable — states promote on read).
        //
        // Arrivals follow the *true* trace rate (the generator is the
        // outside world; only the policy sees measurements); the rate
        // is constant within the interval, so it is sampled once. The
        // supply yields the interval's arrivals in time order — the
        // identical counter-RNG walk whether generated lazily here
        // (`shards = 1`) or pre-computed by the gen pool.
        drop(prof_control);
        let rate = trace.rate_at(t0).max(1e-6);
        let mut window = arrivals.window(interval, WindowSpec { t0, t_end, rate });
        let mut next_arrival = window.next();
        while next_arrival.is_some() {
            // Earliest pending control timepoint in this interval.
            let mut next_control = t_end;
            for &(deadline, _) in &pending_deaths {
                next_control = next_control.min(deadline);
            }
            for &(fire_time, _, _) in &pending_flaps {
                next_control = next_control.min(fire_time);
            }
            for &(restore_time, _, _) in &pending_restores {
                next_control = next_control.min(restore_time);
            }

            // The tight arrival run: no control is due before
            // `next_control`, so the per-arrival scans would all no-op.
            // One profiling span per batch (not per arrival): in-loop
            // completion drains are accounted to the batch, and the
            // per-request `lb.route` span nests inside it. The block
            // closes the span before the control-timepoint work below.
            {
                prof::scope!(names::SPAN_RUNNER_ARRIVAL_LOOP);
                while let Some((now, session)) = next_arrival {
                    if now >= next_control {
                        break;
                    }
                    drain_completions(
                        now,
                        &mut completions,
                        &mut lb,
                        &last_death,
                        recorder,
                        &mut monitor,
                        &mut checker,
                        &served_counter,
                        &killed_counter,
                    );
                    checker.on_arrival();
                    match lb.route(Some(session), now) {
                        RouteOutcome::Routed(b) => {
                            checker.on_route(&lb, b, now);
                            let done = services[b].admit(now);
                            completions.push(done, b, now);
                        }
                        RouteOutcome::Dropped => {
                            checker.on_dropped_at_admission();
                            recorder.record_drop(now);
                            monitor.record_dropped(now);
                        }
                    }
                    next_arrival = window.next();
                }
            }
            let Some((now, _)) = next_arrival else {
                break;
            };

            // Control timepoint crossed by the next arrival: fire
            // everything due, in the order the per-arrival scans
            // always used (deaths, then flaps, then restores).
            prof::scope!(names::SPAN_RUNNER_CONTROL_BATCH);
            pending_deaths.retain(|&(deadline, id)| {
                if deadline <= now {
                    lb.server_died(id, deadline);
                    services[id].kill(deadline);
                    last_death[id] = Some(deadline);
                    billing.mark_died(id, deadline);
                    // Permanent death: compact the corpse out of the
                    // balancer and free its service queues. Every
                    // arrival routed to `id` precedes the deadline (the
                    // arrival loop breaks at the control timepoint), so
                    // nothing live references the row; completions
                    // still in the calendar resolve through the
                    // retire-safe `lb.complete`.
                    prof::scope!(names::SPAN_RUNNER_COMPACT);
                    lb.retire(id);
                    services[id].release();
                    false
                } else {
                    true
                }
            });
            // Chaos flaps: the first alive server of the target market
            // crashes without warning, then restores after down_secs.
            pending_flaps.retain(|&(fire_time, market, down_secs)| {
                if fire_time <= now {
                    if market < n_markets && !alive[market].is_empty() {
                        let id = alive[market].remove(0);
                        lb.server_died(id, fire_time);
                        services[id].kill(fire_time);
                        last_death[id] = Some(fire_time);
                        // A flap is a temporary death: the backend is
                        // NOT retired (its restore is already
                        // scheduled), but billing stops at fire time
                        // unless the restore lands in the same interval.
                        billing.mark_died(id, fire_time);
                        pending_restores.push((fire_time + down_secs, id, market));
                    }
                    false
                } else {
                    true
                }
            });
            let mut restored: Vec<(f64, usize, usize)> = Vec::new();
            pending_restores.retain(|&(restore_time, id, market)| {
                if restore_time <= now {
                    restored.push((restore_time, id, market));
                    false
                } else {
                    true
                }
            });
            for (restore_time, id, market) in restored {
                let warmup = config.warmup_secs + extra_warmup;
                lb.restore_backend(id, restore_time, warmup);
                billing.restore(id, market);
                let cap = cloud.catalog().market(market).capacity_rps();
                services[id] = ServiceModel::new(cap, config.service_secs, restore_time + warmup);
                alive[market].push(id);
            }
            lb.tick(now);
            checker.check_tick(&lb, now);
        }
        lb.tick(t_end);
        checker.check_tick(&lb, t_end);
        // End-of-interval (and end-of-run) completion drains profile
        // as `runner.drain`; the guard closes before billing/rollup.
        let prof_drain = prof::ScopeGuard::enter(names::SPAN_RUNNER_DRAIN);
        drain_completions(
            t_end,
            &mut completions,
            &mut lb,
            &last_death,
            recorder,
            &mut monitor,
            &mut checker,
            &served_counter,
            &killed_counter,
        );
        // Whatever still runs past the interval end resolves at the top
        // of the next interval (or here if the run is over).
        if interval + 1 == config.intervals {
            drain_completions(
                f64::INFINITY,
                &mut completions,
                &mut lb,
                &last_death,
                recorder,
                &mut monitor,
                &mut checker,
                &served_counter,
                &killed_counter,
            );
        }
        drop(prof_drain);

        // Bill every backend that existed during any part of the
        // interval — including draining/decommissioned servers still
        // finishing work — at this tick's price (per-second model).
        // The ledger replays the old ascending-id scan's exact charge
        // sequence in O(live + died-this-interval).
        {
            prof::scope!(names::SPAN_RUNNER_BILLING);
            billing.settle(t0, config.interval_secs, &tick.prices, &mut meter);
        }

        // End-of-interval rollup: O(1) monitor rates, in place. The
        // eviction this performs at `t_end` is idempotent with the one
        // the next interval's policy read performs at the same
        // timepoint, so a telemetry-enabled run still replays the
        // exact same decisions as a disabled one. (The old full-window
        // clone + snapshot copied and sorted ~rate × window records
        // per interval — at day scale, 72 M — purely to shield the
        // next read; the span now measures the rollup itself, not
        // instrumentation overhead.)
        if sink.is_enabled() {
            prof::scope!(names::SPAN_RUNNER_ROLLUP);
            let rates = monitor.rates(t_end);
            let stats = recorder.bucket_stats(interval);
            sink.gauge(names::FLEET_SIZE, fleet_sizes[interval] as f64);
            sink.emit_at(
                t_end,
                TraceEvent::IntervalSummary {
                    interval: interval as u64,
                    observed_rps,
                    fleet_size: fleet_sizes[interval],
                    arrival_rate: rates.arrival_rate,
                    throughput: rates.throughput,
                    drop_rate: rates.drop_rate,
                    p50_latency: stats.p50,
                    p99_latency: stats.p99,
                },
            );
        }
        sink.set_clock(t_end);
        sink.span_end(span, "interval");
        on_interval(interval, lb.stats().routed + lb.stats().dropped);
    }

    checker.check_drained();
    let (served, dropped) = recorder.totals();
    let overall = recorder.overall_histogram();
    sink.merge_histogram(names::REQUEST_LATENCY_SECONDS, &overall);
    RunnerReport {
        served,
        dropped,
        drop_fraction: recorder.drop_fraction(),
        p50: overall.percentile(50.0),
        p90: overall.percentile(90.0),
        p99: overall.percentile(99.0),
        cost: meter.total(),
        revocations,
        migrated_sessions: lb.stats().migrations,
        lifetime_relinquishments: relinquished,
        fleet_sizes,
        buckets: recorder.all_stats(),
        faults_fired,
        invariant_violations: checker.violations().to_vec(),
    }
}

/// Simple reactive fleet policy for tests and as a reference: size the
/// cheapest-per-request market for the observed rate with headroom.
#[derive(Debug, Clone)]
pub struct ReactiveCheapestPolicy {
    /// Headroom multiplier on the observed rate.
    pub headroom: f64,
    /// Serving capacities per market (req/s).
    pub capacities: Vec<f64>,
}

impl FleetPolicy for ReactiveCheapestPolicy {
    fn decide_fleet(
        &mut self,
        _interval: usize,
        observed_rps: f64,
        prices: &[f64],
        _failure_probs: &[f64],
        _failure_history: &[Vec<f64>],
    ) -> Vec<u32> {
        let per_req: Vec<f64> = prices
            .iter()
            .zip(&self.capacities)
            .map(|(p, c)| p / c)
            .collect();
        let best = per_req
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite prices"))
            .map(|(i, _)| i)
            .expect("non-empty catalog");
        let mut fleet = vec![0u32; prices.len()];
        fleet[best] = ((observed_rps * self.headroom) / self.capacities[best]).ceil() as u32;
        fleet
    }
}

/// Expose backend states for assertions in tests.
pub fn is_down(state: BackendState) -> bool {
    state == BackendState::Down
}

#[cfg(test)]
mod tests {
    use super::*;
    use spotweb_market::Catalog;
    use spotweb_workload::Trace;

    fn flat_trace(rate: f64, config: &RunnerConfig) -> Trace {
        let samples = config.intervals + 2;
        Trace::new(config.interval_secs, vec![rate; samples])
    }

    fn policy(catalog: &Catalog) -> ReactiveCheapestPolicy {
        ReactiveCheapestPolicy {
            headroom: 1.3,
            capacities: catalog.markets().iter().map(|m| m.capacity_rps()).collect(),
        }
    }

    #[test]
    fn steady_run_serves_with_low_latency() {
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            intervals: 6,
            seed: 3,
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 5, 100);
        cloud.warm_up(8);
        let trace = flat_trace(300.0, &config);
        let mut p = policy(&catalog);
        let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
        assert!(r.served > 1000, "served {}", r.served);
        assert!(r.drop_fraction < 0.05, "drops {}", r.drop_fraction);
        assert!(r.p90 < 1.0, "p90 {}", r.p90);
        assert!(r.cost > 0.0);
        assert_eq!(r.fleet_sizes.len(), 6);
    }

    #[test]
    fn deterministic() {
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            intervals: 4,
            seed: 9,
            ..RunnerConfig::default()
        };
        let run = || {
            let mut cloud = CloudSim::new(catalog.clone(), 7, 100);
            cloud.warm_up(8);
            let trace = flat_trace(250.0, &config);
            let mut p = policy(&catalog);
            let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
            (r.served, r.dropped, r.cost.to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn lifetime_cap_relinquishes_gracefully() {
        // GCP-style 24 h cap compressed: servers older than 3 intervals
        // are proactively replaced, and the rotation costs no requests.
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            intervals: 8,
            seed: 6,
            max_lifetime_secs: Some(3.0 * 600.0),
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 11, 100);
        cloud.warm_up(8);
        let trace = flat_trace(250.0, &config);
        let mut p = policy(&catalog);
        let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
        assert!(
            r.lifetime_relinquishments > 0,
            "cap must rotate servers out"
        );
        assert!(
            r.drop_fraction < 0.01,
            "graceful rotation must not drop requests: {}",
            r.drop_fraction
        );
    }

    #[test]
    fn faulted_run_is_deterministic_and_invariant_clean() {
        use crate::faults::{FaultKind, FaultPlan};
        let catalog = Catalog::fig4_testbed();
        let plan = FaultPlan::new()
            .at(
                700.0,
                FaultKind::PriceShock {
                    market: None,
                    multiplier: 3.0,
                    hold_intervals: 2,
                },
            )
            .at(
                1300.0,
                FaultKind::CorrelatedRevocation {
                    // All markets: the reactive policy may have parked
                    // the whole fleet in any one of them.
                    markets: (0..catalog.len()).collect(),
                    warning_secs: None,
                },
            );
        let config = RunnerConfig {
            intervals: 5,
            seed: 11,
            faults: Some(plan),
            ..RunnerConfig::default()
        };
        let run = || {
            let mut cloud = CloudSim::new(catalog.clone(), 5, 100);
            cloud.warm_up(8);
            let trace = flat_trace(250.0, &config);
            let mut p = policy(&catalog);
            run_full_stack(&mut p, &mut cloud, &trace, &config)
        };
        let a = run();
        let b = run();
        assert!(a.faults_fired >= 2, "faults fired {}", a.faults_fired);
        assert!(a.revocations > 0, "forced revocation must deliver warnings");
        assert!(
            a.invariant_violations.is_empty(),
            "violations: {:?}",
            a.invariant_violations
        );
        assert_eq!(
            (a.served, a.dropped, a.cost.to_bits()),
            (b.served, b.dropped, b.cost.to_bits())
        );
    }

    #[test]
    fn sharded_run_is_byte_identical() {
        // The invariance contract in miniature (tests/shard.rs proves
        // it across all scenarios × seeds): the full canonical report
        // rendering must not depend on the shard count, including with
        // faults in play and telemetry enabled.
        use crate::faults::{FaultKind, FaultPlan};
        let catalog = Catalog::fig4_testbed();
        let plan = FaultPlan::new().at(
            700.0,
            FaultKind::CorrelatedRevocation {
                markets: (0..catalog.len()).collect(),
                warning_secs: Some(30.0),
            },
        );
        let run = |shards: usize| {
            let config = RunnerConfig {
                intervals: 4,
                seed: 1234,
                shards,
                faults: Some(plan.clone()),
                telemetry: TelemetrySink::enabled(),
                ..RunnerConfig::default()
            };
            let mut cloud = CloudSim::new(catalog.clone(), 7, 100);
            cloud.warm_up(8);
            let trace = flat_trace(250.0, &config);
            let mut p = policy(&catalog);
            let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
            crate::shard::report_json(&r)
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "shards 4 must match shards 1");
        assert_eq!(serial, run(3), "shards 3 must match shards 1");
    }

    #[test]
    fn zero_interval_run_returns_an_empty_report() {
        let catalog = Catalog::fig4_testbed();
        for shards in [1usize, 3] {
            let config = RunnerConfig {
                intervals: 0,
                shards,
                ..RunnerConfig::default()
            };
            let mut cloud = CloudSim::new(catalog.clone(), 5, 100);
            cloud.warm_up(8);
            let trace = flat_trace(250.0, &config);
            let mut p = policy(&catalog);
            let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
            assert_eq!((r.served, r.dropped), (0, 0), "shards {shards}");
            assert_eq!(r.drop_fraction, 0.0);
            assert!(r.p50.is_nan() && r.p90.is_nan() && r.p99.is_nan());
            assert!(r.buckets.is_empty() && r.fleet_sizes.is_empty());
            assert!(r.invariant_violations.is_empty());
        }
    }

    #[test]
    fn telemetry_latency_histogram_is_the_recorders() {
        // The sink's latency series is published from the run's own
        // recorder, so it must hold exactly the served requests, in
        // exactly the recorder's buckets, at every shard count.
        let catalog = Catalog::fig4_testbed();
        for shards in [1usize, 4] {
            let sink = TelemetrySink::enabled();
            let config = RunnerConfig {
                intervals: 4,
                seed: 9,
                shards,
                telemetry: sink.clone(),
                ..RunnerConfig::default()
            };
            let mut cloud = CloudSim::new(catalog.clone(), 7, 100);
            cloud.warm_up(8);
            let trace = flat_trace(250.0, &config);
            let mut p = policy(&catalog);
            let horizon = config.interval_secs * config.intervals as f64;
            let mut recorder = LatencyRecorder::new(config.interval_secs, horizon);
            let r = run_recorded(
                &mut p,
                &mut cloud,
                &trace,
                &config,
                &mut |_, _| {},
                &mut recorder,
            );
            let want = recorder.overall_histogram();
            let got = sink
                .with_metrics(|m| m.histogram(names::REQUEST_LATENCY_SECONDS).cloned())
                .flatten()
                .expect("latency histogram published");
            assert!(r.served > 1000, "served {}", r.served);
            assert_eq!(got.count(), r.served as u64, "shards {shards}");
            assert_eq!(got.bucket_counts(), want.bucket_counts());
            assert!((got.sum() - want.sum()).abs() <= 1e-12 * want.sum());
            assert_eq!(got.percentile(99.0).to_bits(), r.p99.to_bits());
        }
    }

    #[test]
    fn runner_flap_drops_then_recovers() {
        use crate::faults::{FaultKind, FaultPlan};
        let catalog = Catalog::fig4_testbed();
        // Flap one backend in every market mid-run (the policy
        // concentrates the fleet in whichever market is cheapest, so
        // hitting all of them guarantees a serving backend crashes);
        // the run must absorb the crash and the restored backend must
        // leave the conservation law intact.
        let mut plan = FaultPlan::new();
        for m in 0..catalog.len() {
            plan = plan.at(
                900.0,
                FaultKind::BackendFlap {
                    target: m,
                    down_secs: 60.0,
                },
            );
        }
        let config = RunnerConfig {
            intervals: 4,
            seed: 5,
            faults: Some(plan),
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 5, 100);
        cloud.warm_up(8);
        let trace = flat_trace(250.0, &config);
        let mut p = policy(&catalog);
        let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
        assert_eq!(r.faults_fired, catalog.len());
        assert!(
            r.invariant_violations.is_empty(),
            "violations: {:?}",
            r.invariant_violations
        );
        assert!(r.served > 1000, "served {}", r.served);
        // The final interval is past the restore; it must be healthy.
        let last = r.buckets.last().expect("buckets");
        assert_eq!(last.dropped, 0, "post-restore interval still dropping");
    }

    #[test]
    fn telemetry_neither_perturbs_nor_misses_the_run() {
        // A telemetry-enabled run must replay the exact same requests
        // and dollars as a disabled one (the sink only observes), and
        // the trace must carry the per-interval story.
        let catalog = Catalog::fig4_testbed();
        let run = |sink: TelemetrySink| {
            let config = RunnerConfig {
                intervals: 4,
                seed: 9,
                telemetry: sink,
                ..RunnerConfig::default()
            };
            let mut cloud = CloudSim::new(catalog.clone(), 7, 100);
            cloud.warm_up(8);
            let trace = flat_trace(250.0, &config);
            let mut p = policy(&catalog);
            let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
            (r.served, r.dropped, r.cost.to_bits())
        };
        let quiet = run(TelemetrySink::disabled());
        let sink = TelemetrySink::enabled();
        let traced = run(sink.clone());
        assert_eq!(quiet, traced, "telemetry must be a pure observer");
        let events = sink.events();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert_eq!(
            kinds.iter().filter(|k| **k == "interval_summary").count(),
            4
        );
        assert_eq!(kinds.iter().filter(|k| **k == "span_start").count(), 4);
        assert_eq!(kinds.iter().filter(|k| **k == "span_end").count(), 4);
        assert!(kinds.contains(&"market_tick"));
        assert!(sink.counter("spotweb_requests_served_total") > 0);
        // Same seed, same config: the export is byte-identical.
        let again = TelemetrySink::enabled();
        run(again.clone());
        assert_eq!(sink.export_jsonl(), again.export_jsonl());
    }

    #[test]
    fn fleet_tracks_load_changes() {
        let catalog = Catalog::fig4_testbed();
        let config = RunnerConfig {
            intervals: 6,
            seed: 2,
            ..RunnerConfig::default()
        };
        let mut cloud = CloudSim::new(catalog.clone(), 3, 100);
        cloud.warm_up(8);
        // Load doubles halfway.
        let mut values = vec![200.0; 3];
        values.extend(vec![500.0; 5]);
        let trace = Trace::new(config.interval_secs, values);
        let mut p = policy(&catalog);
        let r = run_full_stack(&mut p, &mut cloud, &trace, &config);
        assert!(
            r.fleet_sizes.last().unwrap() > r.fleet_sizes.first().unwrap(),
            "fleet {:?} should grow with load",
            r.fleet_sizes
        );
    }
}
