//! Deterministic fault injection — the chaos harness.
//!
//! A [`FaultPlan`] scripts *what goes wrong and when*: correlated
//! multi-market revocations (with per-fault warning overrides, down to
//! zero warning), single-backend flaps, price-spike regimes, and
//! delayed startup / cache-warmup stalls for replacement servers.
//! Plans mix timed faults with probabilistic ones;
//! [`FaultPlan::compile`] expands both into one deterministic,
//! time-sorted timeline from a seed, so the same `(plan, seed)` always
//! replays the same failure history.
//!
//! [`ChaosScenario`] runs a compiled plan against the request-level
//! cluster simulation — the crate's one cluster event loop; the
//! paper's Fig. 4(a) experiment is [`ChaosScenario::fig4a`] — while
//! [`crate::runner::run_full_stack`] accepts a plan through
//! [`crate::runner::RunnerConfig`] for interval-granular injections
//! (price shocks need a live market). Both paths drive an
//! [`InvariantChecker`] every tick: requests are conserved
//! (`arrived = served + dropped + in-flight`), no request is ever
//! routed to a `Down` backend, and drain deadlines are honored.

use spotweb_lb::{BackendState, LoadBalancer, LoadBalancerConfig, RouteOutcome};
use spotweb_telemetry::json::{json_f64, json_string};
use spotweb_telemetry::{names, TelemetrySink, TraceEvent};

use crate::engine::{Event, EventQueue};
use crate::metrics::{BucketStats, LatencyRecorder};
use crate::rng::{stream_id, CounterStream, DOMAIN_FAULT_COIN, DOMAIN_SCENARIO_GAP};
use crate::service::ServiceModel;

/// One kind of injected failure.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Revoke every serving (or booting) server in the listed markets
    /// at once — the paper's correlated capacity-loss event.
    /// `warning_secs` overrides the scenario's default warning window
    /// for this event only; `Some(0.0)` models a no-warning kill.
    CorrelatedRevocation {
        /// Markets whose servers are revoked.
        markets: Vec<usize>,
        /// Per-event warning override (`None` = scenario default).
        warning_secs: Option<f64>,
    },
    /// One backend falls out of the cluster for `down_secs` (crash,
    /// network partition, wedged health check), then returns cold.
    /// In [`ChaosScenario`] `target` is a backend id; in
    /// [`crate::runner::run_full_stack`] it is a market index (the
    /// first alive server of that market flaps).
    BackendFlap {
        /// Backend id (cluster scenarios) or market id (full stack).
        target: usize,
        /// Outage length in seconds.
        down_secs: f64,
    },
    /// Spot prices in `market` (all spot markets when `None`) jump by
    /// `multiplier` and the surge regime is pinned for
    /// `hold_intervals` market steps. Only meaningful in full-stack
    /// runs, where a live [`spotweb_market::CloudSim`] quotes prices;
    /// [`ChaosScenario`] ignores it (its cluster has no market).
    PriceShock {
        /// Shocked market (`None` = every spot market).
        market: Option<usize>,
        /// Price multiplier (> 1 spikes, < 1 crashes).
        multiplier: f64,
        /// Market steps the injected regime is pinned for.
        hold_intervals: u32,
    },
    /// From this point on, newly provisioned servers take `extra_secs`
    /// longer to boot (capacity crunch at the provider).
    StartupDelay {
        /// Additional boot time in seconds.
        extra_secs: f64,
    },
    /// From this point on, newly provisioned servers take `extra_secs`
    /// longer to warm their caches (cold upstream data tier).
    WarmupStall {
        /// Additional warm-up time in seconds.
        extra_secs: f64,
    },
}

/// A fault that fires at a known time.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// When the fault fires (seconds into the run).
    pub at_secs: f64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A fault that *may* fire: a Bernoulli coin is tossed every
/// `every_secs` across the run; each success schedules one copy of
/// `kind` at that toss time. [`FaultPlan::compile`] resolves the coins
/// deterministically from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomFault {
    /// Per-toss firing probability.
    pub probability: f64,
    /// Toss spacing in seconds.
    pub every_secs: f64,
    /// The fault template scheduled on success.
    pub kind: FaultKind,
}

/// A scriptable fault plan: timed plus probabilistic injections.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Faults with fixed firing times.
    pub timed: Vec<FaultSpec>,
    /// Faults fired by seeded Bernoulli coins.
    pub random: Vec<RandomFault>,
}

impl FaultPlan {
    /// An empty plan (nothing goes wrong).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Builder: add a fault firing at `at_secs`.
    pub fn at(mut self, at_secs: f64, kind: FaultKind) -> Self {
        assert!(at_secs.is_finite() && at_secs >= 0.0);
        self.timed.push(FaultSpec { at_secs, kind });
        self
    }

    /// Builder: add a probabilistic fault (see [`RandomFault`]).
    pub fn random(mut self, probability: f64, every_secs: f64, kind: FaultKind) -> Self {
        assert!((0.0..=1.0).contains(&probability), "probability in [0,1]");
        assert!(every_secs > 0.0 && every_secs.is_finite());
        self.random.push(RandomFault {
            probability,
            every_secs,
            kind,
        });
        self
    }

    /// `true` when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.timed.is_empty() && self.random.is_empty()
    }

    /// Expand the plan into a deterministic timeline over
    /// `[0, duration_secs)`: timed faults verbatim, plus one resolved
    /// coin toss per window for each probabilistic fault, all drawn
    /// from dedicated counter-RNG streams of `seed` (one stream per
    /// probabilistic fault, counter = firing-window ordinal — see
    /// `crate::rng`). The result is sorted by firing time (stable —
    /// ties keep declaration order), so the same
    /// `(plan, seed, duration)` always yields the same failures.
    pub fn compile(&self, seed: u64, duration_secs: f64) -> Vec<FaultSpec> {
        let mut timeline: Vec<FaultSpec> = self
            .timed
            .iter()
            .filter(|f| f.at_secs < duration_secs)
            .cloned()
            .collect();
        // Dedicated sub-streams: the fault coins never perturb the
        // arrival process draws (same seed, disjoint stream domain).
        for (rf_index, rf) in self.random.iter().enumerate() {
            let coins = CounterStream::new(seed, stream_id(DOMAIN_FAULT_COIN, rf_index as u64));
            let mut t = rf.every_secs;
            let mut window: u64 = 0;
            while t < duration_secs {
                if coins.unit_f64_at(window) < rf.probability {
                    timeline.push(FaultSpec {
                        at_secs: t,
                        kind: rf.kind.clone(),
                    });
                }
                t += rf.every_secs;
                window += 1;
            }
        }
        timeline.sort_by(|a, b| {
            a.at_secs
                .partial_cmp(&b.at_secs)
                .expect("finite fault times")
        });
        timeline
    }
}

/// Cap on recorded violation messages (counts keep accumulating).
const MAX_RECORDED_VIOLATIONS: usize = 16;

/// Checks the simulator's conservation and routing-safety laws.
///
/// The harness reports every request event to the checker, which keeps
/// its own ledger independent of the balancer's counters:
///
/// * **conservation** — `arrived = served + dropped + in-flight` at
///   every tick, with `in-flight = 0` once the run drains;
/// * **ledger agreement** — the balancer's own `routed + dropped`
///   stats must match the arrivals the harness fed it;
/// * **routing safety** — no request is ever routed to a `Down`
///   backend, to a draining backend at/past its drain deadline, or to
///   a booting backend before it is ready.
#[derive(Debug, Clone, Default)]
pub struct InvariantChecker {
    /// Requests that entered the system.
    pub arrived: u64,
    /// Requests served to completion.
    pub served: u64,
    /// Requests dropped (at admission or killed in flight).
    pub dropped: u64,
    in_flight: i64,
    violation_count: u64,
    violations: Vec<String>,
}

impl InvariantChecker {
    /// A fresh checker.
    pub fn new() -> Self {
        InvariantChecker::default()
    }

    fn violate(&mut self, msg: String) {
        self.violation_count += 1;
        if self.violations.len() < MAX_RECORDED_VIOLATIONS {
            self.violations.push(msg);
        }
    }

    /// A request arrived at the balancer.
    pub fn on_arrival(&mut self) {
        self.arrived += 1;
    }

    /// A request was routed to `backend`; validates routing safety
    /// against the backend's current state.
    pub fn on_route(&mut self, lb: &LoadBalancer, backend: usize, now: f64) {
        self.in_flight += 1;
        let Some(b) = lb.backend(backend) else {
            // A retired backend is deader than Down: routing to it is
            // impossible by construction, so treat it as the same
            // violation if it ever happens.
            // spotweb-lint: allow(no-float-display-in-renderers) -- fixed-precision diagnostic, deterministic and golden-locked
            self.violate(format!("t={now:.3}: routed to retired backend {backend}"));
            return;
        };
        match b.state {
            BackendState::Down => {
                // spotweb-lint: allow(no-float-display-in-renderers) -- fixed-precision diagnostic, deterministic and golden-locked
                self.violate(format!("t={now:.3}: routed to down backend {backend}"));
            }
            BackendState::Draining { deadline } if now >= deadline => {
                self.violate(format!(
                    // spotweb-lint: allow(no-float-display-in-renderers) -- fixed-precision diagnostic, deterministic and golden-locked
                    "t={now:.3}: routed to backend {backend} past drain deadline {deadline:.3}"
                ));
            }
            BackendState::Starting { ready_at } if now < ready_at => {
                self.violate(format!(
                    // spotweb-lint: allow(no-float-display-in-renderers) -- fixed-precision diagnostic, deterministic and golden-locked
                    "t={now:.3}: routed to backend {backend} before ready_at {ready_at:.3}"
                ));
            }
            _ => {}
        }
    }

    /// A routed request completed successfully.
    pub fn on_served(&mut self) {
        self.served += 1;
        self.in_flight -= 1;
    }

    /// A request was rejected at admission (never routed).
    pub fn on_dropped_at_admission(&mut self) {
        self.dropped += 1;
    }

    /// A routed request died in flight (its server was killed).
    pub fn on_dropped_in_flight(&mut self) {
        self.dropped += 1;
        self.in_flight -= 1;
    }

    /// Requests currently in flight according to the checker's ledger.
    pub fn in_flight(&self) -> i64 {
        self.in_flight
    }

    /// Run the per-tick checks: ledger conservation and agreement with
    /// the balancer's counters.
    pub fn check_tick(&mut self, lb: &LoadBalancer, now: f64) {
        if self.in_flight < 0 {
            // spotweb-lint: allow(no-float-display-in-renderers) -- fixed-precision diagnostic, deterministic and golden-locked
            self.violate(format!("t={now:.3}: negative in-flight {}", self.in_flight));
        }
        let accounted = self.served + self.dropped + self.in_flight.max(0) as u64;
        if self.arrived != accounted {
            self.violate(format!(
                // spotweb-lint: allow(no-float-display-in-renderers) -- fixed-precision diagnostic, deterministic and golden-locked
                "t={now:.3}: conservation broken: arrived {} != served {} + dropped {} + in-flight {}",
                self.arrived, self.served, self.dropped, self.in_flight
            ));
        }
        let stats = lb.stats();
        if stats.routed + stats.dropped != self.arrived {
            self.violate(format!(
                // spotweb-lint: allow(no-float-display-in-renderers) -- fixed-precision diagnostic, deterministic and golden-locked
                "t={now:.3}: balancer ledger disagrees: routed {} + dropped {} != arrived {}",
                stats.routed, stats.dropped, self.arrived
            ));
        }
    }

    /// Final check once the event queue drains: nothing may remain in
    /// flight.
    pub fn check_drained(&mut self) {
        if self.in_flight != 0 {
            self.violate(format!(
                "run drained with {} requests still in flight",
                self.in_flight
            ));
        }
    }

    /// Recorded violation messages (capped; see
    /// [`InvariantChecker::violation_count`]).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Total violations observed, including ones past the message cap.
    pub fn violation_count(&self) -> u64 {
        self.violation_count
    }

    /// `true` when every invariant held.
    pub fn ok(&self) -> bool {
        self.violation_count == 0
    }
}

/// One server in the initial cluster.
#[derive(Debug, Clone, Copy)]
pub struct ServerSpec {
    /// Market/pool identifier (correlated revocations key on this).
    pub market: usize,
    /// Serving capacity (req/s).
    pub capacity_rps: f64,
}

/// When replacements for lost servers are provisioned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Replacement {
    /// At the revocation warning (the transiency-aware reaction).
    OnWarning,
    /// Once the server actually dies (vanilla health-check reaction).
    OnDeath,
    /// Never — lost capacity stays lost.
    None,
}

/// A fault-scripted cluster scenario: a request-level event loop
/// driven by a [`FaultPlan`] and audited by an [`InvariantChecker`].
#[derive(Debug, Clone)]
pub struct ChaosScenario {
    /// Scenario label (propagated into the report / JSON).
    pub name: String,
    /// Initial cluster.
    pub servers: Vec<ServerSpec>,
    /// Poisson arrival rate (req/s).
    pub arrival_rps: f64,
    /// Total simulated time (seconds).
    pub duration_secs: f64,
    /// Default revocation warning (seconds); individual faults may
    /// override it.
    pub warning_secs: f64,
    /// Replacement VM startup time (seconds).
    pub startup_secs: f64,
    /// Cache warm-up window after startup (seconds).
    pub warmup_secs: f64,
    /// Base request service time (seconds).
    pub service_secs: f64,
    /// Transiency-aware (SpotWeb) or vanilla balancer.
    pub transiency_aware: bool,
    /// Replacement provisioning policy.
    pub replacement: Replacement,
    /// Distinct concurrent user sessions.
    pub sessions: u64,
    /// Metrics bucket width (seconds).
    pub bucket_secs: f64,
    /// RNG seed (arrival process and fault coins).
    pub seed: u64,
    /// What goes wrong.
    pub plan: FaultPlan,
    /// Telemetry sink threaded through the balancer and event queue
    /// (disabled by default). An enabled sink records fault
    /// injections, drains, deaths, restores, and replacement
    /// provisioning into one byte-stable trace.
    pub telemetry: TelemetrySink,
}

impl Default for ChaosScenario {
    fn default() -> Self {
        ChaosScenario {
            name: "custom".to_string(),
            // The Fig. 4(a) testbed cluster: 1120 rps capacity at
            // ~600 rps offered.
            servers: vec![
                ServerSpec {
                    market: 0,
                    capacity_rps: 80.0,
                },
                ServerSpec {
                    market: 0,
                    capacity_rps: 80.0,
                },
                ServerSpec {
                    market: 1,
                    capacity_rps: 160.0,
                },
                ServerSpec {
                    market: 1,
                    capacity_rps: 160.0,
                },
                ServerSpec {
                    market: 2,
                    capacity_rps: 320.0,
                },
                ServerSpec {
                    market: 2,
                    capacity_rps: 320.0,
                },
            ],
            arrival_rps: 600.0,
            duration_secs: 660.0,
            warning_secs: 120.0,
            startup_secs: 55.0,
            warmup_secs: 60.0,
            service_secs: 0.12,
            transiency_aware: true,
            replacement: Replacement::OnWarning,
            sessions: 2000,
            bucket_secs: 60.0,
            seed: 42,
            plan: FaultPlan::new(),
            telemetry: TelemetrySink::disabled(),
        }
    }
}

/// Named scenarios replayed by `figures chaos` and the regression
/// tests. See [`ChaosScenario::named`].
pub const NAMED_SCENARIOS: &[&str] = &[
    "revocation-storm",
    "revocation-storm-vanilla",
    "zero-warning",
    "backend-flaps",
    "slow-start-storm",
];

impl ChaosScenario {
    /// One of the [`NAMED_SCENARIOS`] (panics on an unknown name):
    ///
    /// * `revocation-storm` — correlated revocation of markets 1 and 2
    ///   (86% of capacity) one minute in, default 120 s warning, aware
    ///   balancer reprovisioning on the warning.
    /// * `revocation-storm-vanilla` — the same storm against a
    ///   transiency-oblivious balancer that never reprovisions.
    /// * `zero-warning` — the same correlated loss with *no* warning:
    ///   admission control must shed load until replacements warm up.
    /// * `backend-flaps` — repeated single-backend flaps (timed plus
    ///   probabilistic) with no revocations.
    /// * `slow-start-storm` — a storm whose replacements boot 245 s
    ///   late and warm 60 s slow (provider capacity crunch).
    pub fn named(name: &str) -> ChaosScenario {
        let base = ChaosScenario::default();
        match name {
            "revocation-storm" => ChaosScenario {
                name: name.to_string(),
                plan: FaultPlan::new().at(
                    60.0,
                    FaultKind::CorrelatedRevocation {
                        markets: vec![1, 2],
                        warning_secs: None,
                    },
                ),
                ..base
            },
            "revocation-storm-vanilla" => ChaosScenario {
                name: name.to_string(),
                transiency_aware: false,
                replacement: Replacement::None,
                plan: FaultPlan::new().at(
                    60.0,
                    FaultKind::CorrelatedRevocation {
                        markets: vec![1, 2],
                        warning_secs: None,
                    },
                ),
                ..base
            },
            "zero-warning" => ChaosScenario {
                name: name.to_string(),
                plan: FaultPlan::new().at(
                    120.0,
                    FaultKind::CorrelatedRevocation {
                        markets: vec![1, 2],
                        warning_secs: Some(0.0),
                    },
                ),
                ..base
            },
            "backend-flaps" => ChaosScenario {
                name: name.to_string(),
                plan: FaultPlan::new()
                    .at(
                        100.0,
                        FaultKind::BackendFlap {
                            target: 4,
                            down_secs: 45.0,
                        },
                    )
                    .at(
                        240.0,
                        FaultKind::BackendFlap {
                            target: 5,
                            down_secs: 45.0,
                        },
                    )
                    .random(
                        0.08,
                        30.0,
                        FaultKind::BackendFlap {
                            target: 2,
                            down_secs: 20.0,
                        },
                    ),
                ..base
            },
            "slow-start-storm" => ChaosScenario {
                name: name.to_string(),
                plan: FaultPlan::new()
                    .at(30.0, FaultKind::StartupDelay { extra_secs: 245.0 })
                    .at(30.0, FaultKind::WarmupStall { extra_secs: 60.0 })
                    .at(
                        60.0,
                        FaultKind::CorrelatedRevocation {
                            markets: vec![1, 2],
                            warning_secs: None,
                        },
                    ),
                ..base
            },
            other => panic!("unknown chaos scenario {other:?}; known: {NAMED_SCENARIOS:?}"),
        }
    }

    /// The paper's Fig. 4(a) testbed experiment: the default
    /// six-server cluster at ~600 req/s loses markets 1 and 2 (four of
    /// its six servers) to a correlated revocation three minutes in.
    /// The transiency-aware balancer drains, migrates and reprovisions
    /// on the warning; vanilla WRR keeps routing to the doomed servers
    /// and reprovisions only once they die. Not one of
    /// [`NAMED_SCENARIOS`]: `figures fig4a` renders it.
    pub fn fig4a(aware: bool) -> ChaosScenario {
        ChaosScenario {
            name: "fig4a".to_string(),
            duration_secs: 600.0,
            transiency_aware: aware,
            replacement: if aware {
                Replacement::OnWarning
            } else {
                Replacement::OnDeath
            },
            plan: FaultPlan::new().at(
                180.0,
                FaultKind::CorrelatedRevocation {
                    markets: vec![1, 2],
                    warning_secs: None,
                },
            ),
            ..ChaosScenario::default()
        }
    }

    /// Run the scenario to completion.
    pub fn run(&self) -> ChaosReport {
        assert!(!self.servers.is_empty(), "need at least one server");
        assert!(self.arrival_rps > 0.0 && self.duration_secs > 0.0);

        let timeline = self.plan.compile(self.seed, self.duration_secs);
        // Counter-based gaps: gap `k` belongs to request `k`, so the
        // arrival process is draw-order-free (see `crate::rng`).
        let gaps = CounterStream::new(self.seed, stream_id(DOMAIN_SCENARIO_GAP, 0));
        let sink = self.telemetry.clone();
        let mut lb = LoadBalancer::new(LoadBalancerConfig {
            transiency_aware: self.transiency_aware,
            admission_control: true,
            max_utilization: 0.98,
            max_delay_secs: 2.0,
            service_secs: self.service_secs,
        });
        lb.set_telemetry(sink.clone());
        let mut services: Vec<ServiceModel> = Vec::new();
        // Latest death time of each backend slot (flapped backends may
        // resurrect; the completion handler needs the last death to
        // classify in-flight work that spans it).
        let mut death_time: Vec<Option<f64>> = Vec::new();
        for s in &self.servers {
            lb.add_backend_up(s.market, s.capacity_rps);
            services.push(ServiceModel::new(s.capacity_rps, self.service_secs, 0.0));
            death_time.push(None);
        }

        let mut queue = EventQueue::new();
        queue.set_telemetry(sink.clone());
        let mut recorder = LatencyRecorder::new(self.bucket_secs, self.duration_secs);
        let mut checker = InvariantChecker::new();
        let mut next_request: u64 = 0;
        let mut migrated: u64 = 0;
        let mut lost: u64 = 0;
        let mut warnings: u32 = 0;
        let mut deaths: u32 = 0;
        let mut flaps: u32 = 0;
        let mut faults_fired: usize = 0;
        // StartupDelay / WarmupStall accumulate into these.
        let mut extra_startup = 0.0;
        let mut extra_warmup = 0.0;

        let first = gaps.exp_at(0, self.arrival_rps);
        queue.schedule(
            first,
            Event::Arrival {
                request: 0,
                session: 0,
            },
        );
        next_request += 1;

        for (i, f) in timeline.iter().enumerate() {
            queue.schedule(f.at_secs, Event::FaultTrigger { fault: i });
        }

        while let Some((now, event)) = queue.pop() {
            sink.set_clock(now);
            match event {
                Event::Arrival { request, session } => {
                    lb.tick(now);
                    checker.on_arrival();
                    match lb.route(Some(session), now) {
                        RouteOutcome::Routed(b) => {
                            checker.on_route(&lb, b, now);
                            let done = services[b].admit(now);
                            queue.schedule(
                                done,
                                Event::Completion {
                                    request,
                                    backend: b,
                                    arrived: now,
                                },
                            );
                        }
                        RouteOutcome::Dropped => {
                            checker.on_dropped_at_admission();
                            recorder.record_drop(now);
                        }
                    }
                    checker.check_tick(&lb, now);
                    if request + 1 == next_request {
                        let t_next = now + gaps.exp_at(next_request, self.arrival_rps);
                        if t_next <= self.duration_secs {
                            let session = next_request % self.sessions;
                            queue.schedule(
                                t_next,
                                Event::Arrival {
                                    request: next_request,
                                    session,
                                },
                            );
                            next_request += 1;
                        }
                    }
                }
                Event::Completion {
                    request: _,
                    backend,
                    arrived,
                } => {
                    match death_time[backend] {
                        // The server died while this request was in
                        // flight (admitted before the death, finishing
                        // after — a restore in between does not save
                        // it).
                        Some(d) if d < now && d >= arrived => {
                            recorder.record_drop(arrived);
                            checker.on_dropped_in_flight();
                            sink.count(names::REQUESTS_KILLED_IN_FLIGHT_TOTAL, 1);
                        }
                        _ => {
                            recorder.record(arrived, now - arrived);
                            lb.complete(backend, None);
                            checker.on_served();
                            sink.count(names::REQUESTS_SERVED_TOTAL, 1);
                        }
                    }
                }
                Event::RevocationWarning {
                    backend,
                    warning_secs,
                } => {
                    warnings += 1;
                    let report = lb.revocation_warning(backend, now, warning_secs);
                    migrated += report.migrated_sessions as u64;
                    queue.schedule(now + warning_secs, Event::ServerDeath { backend });
                    if self.replacement == Replacement::OnWarning {
                        self.spawn_replacement(
                            backend,
                            now,
                            extra_startup,
                            extra_warmup,
                            &mut lb,
                            &mut services,
                            &mut death_time,
                            &mut queue,
                        );
                    }
                }
                Event::ServerDeath { backend } => {
                    deaths += 1;
                    lost += lb.server_died(backend, now) as u64;
                    death_time[backend] = Some(now);
                    services[backend].kill(now);
                    if self.replacement == Replacement::OnDeath {
                        self.spawn_replacement(
                            backend,
                            now,
                            extra_startup,
                            extra_warmup,
                            &mut lb,
                            &mut services,
                            &mut death_time,
                            &mut queue,
                        );
                    }
                }
                Event::ServerReady { backend } => {
                    lb.tick(now);
                    let _ = backend;
                }
                Event::BackendRestore { backend } => {
                    lb.restore_backend(backend, now, self.warmup_secs + extra_warmup);
                    services[backend] = ServiceModel::new(
                        lb.backends()[backend].capacity_rps,
                        self.service_secs,
                        now + self.warmup_secs + extra_warmup,
                    );
                }
                Event::FaultTrigger { fault } => {
                    faults_fired += 1;
                    if sink.is_enabled() {
                        let (kind, detail) = match &timeline[fault].kind {
                            FaultKind::CorrelatedRevocation {
                                markets,
                                warning_secs,
                            } => (
                                "correlated_revocation",
                                match warning_secs {
                                    // spotweb-lint: allow(no-float-display-in-renderers) -- debug list rendering in a golden-locked trace detail
                                    Some(w) => format!("markets {markets:?} warning {w}s"),
                                    // spotweb-lint: allow(no-float-display-in-renderers) -- debug list rendering in a golden-locked trace detail
                                    None => format!("markets {markets:?} default warning"),
                                },
                            ),
                            FaultKind::BackendFlap { target, down_secs } => (
                                "backend_flap",
                                format!("backend {target} down {down_secs}s"),
                            ),
                            FaultKind::PriceShock { .. } => {
                                ("price_shock", "ignored (no market in cluster)".to_string())
                            }
                            FaultKind::StartupDelay { extra_secs } => {
                                ("startup_delay", format!("+{extra_secs}s boot"))
                            }
                            FaultKind::WarmupStall { extra_secs } => {
                                ("warmup_stall", format!("+{extra_secs}s warmup"))
                            }
                        };
                        sink.emit_at(
                            now,
                            TraceEvent::FaultInjected {
                                fault: kind.to_string(),
                                detail,
                            },
                        );
                    }
                    match &timeline[fault].kind {
                        FaultKind::CorrelatedRevocation {
                            markets,
                            warning_secs,
                        } => {
                            let w = warning_secs.unwrap_or(self.warning_secs);
                            let victims: Vec<usize> = lb
                                .backends()
                                .iter()
                                .filter(|b| {
                                    markets.contains(&b.market)
                                        && matches!(
                                            b.state,
                                            BackendState::Up | BackendState::Starting { .. }
                                        )
                                })
                                .map(|b| b.id)
                                .collect();
                            for id in victims {
                                queue.schedule(
                                    now,
                                    Event::RevocationWarning {
                                        backend: id,
                                        warning_secs: w,
                                    },
                                );
                            }
                        }
                        FaultKind::BackendFlap { target, down_secs } => {
                            let id = *target;
                            let flappable = id < lb.backends().len()
                                && matches!(
                                    lb.backends()[id].state,
                                    BackendState::Up | BackendState::Starting { .. }
                                );
                            if flappable {
                                flaps += 1;
                                lost += lb.server_died(id, now) as u64;
                                death_time[id] = Some(now);
                                services[id].kill(now);
                                queue.schedule(
                                    now + down_secs,
                                    Event::BackendRestore { backend: id },
                                );
                            }
                        }
                        FaultKind::StartupDelay { extra_secs } => {
                            extra_startup += extra_secs;
                        }
                        FaultKind::WarmupStall { extra_secs } => {
                            extra_warmup += extra_secs;
                        }
                        // No market in the cluster scenario; the
                        // full-stack runner applies price shocks.
                        FaultKind::PriceShock { .. } => {}
                    }
                }
            }
        }

        checker.check_drained();
        let (served, dropped) = recorder.totals();
        let overall = recorder.overall_histogram();
        sink.merge_histogram(names::REQUEST_LATENCY_SECONDS, &overall);
        ChaosReport {
            scenario: self.name.clone(),
            seed: self.seed,
            transiency_aware: self.transiency_aware,
            served,
            dropped,
            drop_fraction: recorder.drop_fraction(),
            p50: overall.percentile(50.0),
            p90: overall.percentile(90.0),
            p99: overall.percentile(99.0),
            migrated_sessions: migrated,
            lost_sessions: lost,
            admission_rejections: lb.stats().admission_rejections,
            revocation_warnings: warnings,
            server_deaths: deaths,
            backend_flaps: flaps,
            faults_fired,
            invariant_violations: checker.violations().to_vec(),
            invariant_violation_count: checker.violation_count(),
            buckets: recorder.all_stats(),
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_replacement(
        &self,
        dying: usize,
        now: f64,
        extra_startup: f64,
        extra_warmup: f64,
        lb: &mut LoadBalancer,
        services: &mut Vec<ServiceModel>,
        death_time: &mut Vec<Option<f64>>,
        queue: &mut EventQueue,
    ) {
        let market = lb.backends()[dying].market;
        let capacity = lb.backends()[dying].capacity_rps;
        let startup = self.startup_secs + extra_startup;
        let warmup = self.warmup_secs + extra_warmup;
        let id = lb.add_backend(market, capacity, now, startup, warmup);
        self.telemetry.emit_at(
            now,
            TraceEvent::ReplacementStarted {
                replaces: dying,
                backend: id,
                market,
                ready_at: now + startup + warmup,
            },
        );
        services.push(ServiceModel::new(
            capacity,
            self.service_secs,
            now + startup + warmup,
        ));
        death_time.push(None);
        queue.schedule(now + startup, Event::ServerReady { backend: id });
    }
}

/// Result of a chaos run, including the invariant audit.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario label.
    pub scenario: String,
    /// Seed the run (arrivals + fault coins) was driven by.
    pub seed: u64,
    /// Balancer mode the scenario ran with.
    pub transiency_aware: bool,
    /// Requests served.
    pub served: usize,
    /// Requests dropped.
    pub dropped: u64,
    /// Overall drop fraction.
    pub drop_fraction: f64,
    /// Overall median latency (seconds).
    pub p50: f64,
    /// Overall p90 latency (seconds).
    pub p90: f64,
    /// Overall p99 latency (seconds).
    pub p99: f64,
    /// Sessions migrated by warnings.
    pub migrated_sessions: u64,
    /// Sessions lost to abrupt deaths.
    pub lost_sessions: u64,
    /// Requests rejected by overload admission control (a subset of
    /// `dropped`; distinguishes deliberate shedding from no-capacity
    /// drops).
    pub admission_rejections: u64,
    /// Revocation warnings delivered.
    pub revocation_warnings: u32,
    /// Servers that actually died.
    pub server_deaths: u32,
    /// Backend flaps injected.
    pub backend_flaps: u32,
    /// Compiled faults that fired.
    pub faults_fired: usize,
    /// Recorded invariant violations (capped at 16 messages).
    pub invariant_violations: Vec<String>,
    /// Total violations observed (including past the cap).
    pub invariant_violation_count: u64,
    /// Per-bucket latency stats.
    pub buckets: Vec<BucketStats>,
}

impl ChaosReport {
    /// `true` when every invariant held for the whole run.
    pub fn invariants_ok(&self) -> bool {
        self.invariant_violation_count == 0
    }

    /// Stable, hand-rendered pretty JSON: key order is fixed, floats
    /// use Rust's shortest round-trip formatting, and non-finite
    /// values render as `null` — so byte-identical output is exactly
    /// run determinism.
    pub fn to_json_pretty(&self) -> String {
        let mut out = String::with_capacity(4096);
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"scenario\": {},\n",
            json_string(&self.scenario)
        ));
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!(
            "  \"transiency_aware\": {},\n",
            self.transiency_aware
        ));
        out.push_str(&format!("  \"served\": {},\n", self.served));
        out.push_str(&format!("  \"dropped\": {},\n", self.dropped));
        out.push_str(&format!(
            "  \"drop_fraction\": {},\n",
            json_f64(self.drop_fraction)
        ));
        out.push_str(&format!("  \"p50\": {},\n", json_f64(self.p50)));
        out.push_str(&format!("  \"p90\": {},\n", json_f64(self.p90)));
        out.push_str(&format!("  \"p99\": {},\n", json_f64(self.p99)));
        out.push_str(&format!(
            "  \"migrated_sessions\": {},\n",
            self.migrated_sessions
        ));
        out.push_str(&format!("  \"lost_sessions\": {},\n", self.lost_sessions));
        out.push_str(&format!(
            "  \"admission_rejections\": {},\n",
            self.admission_rejections
        ));
        out.push_str(&format!(
            "  \"revocation_warnings\": {},\n",
            self.revocation_warnings
        ));
        out.push_str(&format!("  \"server_deaths\": {},\n", self.server_deaths));
        out.push_str(&format!("  \"backend_flaps\": {},\n", self.backend_flaps));
        out.push_str(&format!("  \"faults_fired\": {},\n", self.faults_fired));
        out.push_str(&format!("  \"invariants_ok\": {},\n", self.invariants_ok()));
        out.push_str("  \"invariant_violations\": [");
        for (i, v) in self.invariant_violations.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&json_string(v));
        }
        out.push_str("],\n");
        out.push_str("  \"buckets\": [\n");
        for (i, b) in self.buckets.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"start\": {}, \"count\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"dropped\": {}}}{}\n",
                json_f64(b.start),
                b.count,
                json_f64(b.mean),
                json_f64(b.p50),
                json_f64(b.p90),
                json_f64(b.p99),
                b.dropped,
                if i + 1 < self.buckets.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_is_deterministic_and_sorted() {
        let plan = FaultPlan::new()
            .at(200.0, FaultKind::StartupDelay { extra_secs: 10.0 })
            .at(50.0, FaultKind::WarmupStall { extra_secs: 5.0 })
            .random(
                0.5,
                25.0,
                FaultKind::BackendFlap {
                    target: 0,
                    down_secs: 10.0,
                },
            );
        let a = plan.compile(7, 300.0);
        let b = plan.compile(7, 300.0);
        assert_eq!(a, b, "same (plan, seed) must compile identically");
        assert!(a.windows(2).all(|w| w[0].at_secs <= w[1].at_secs));
        assert!(a.len() > 2, "coins at p=0.5 over 11 windows should fire");
        let c = plan.compile(8, 300.0);
        assert_ne!(a, c, "different seeds resolve different coins");
    }

    #[test]
    fn compile_drops_timed_faults_past_horizon() {
        let plan = FaultPlan::new().at(500.0, FaultKind::StartupDelay { extra_secs: 1.0 });
        assert!(plan.compile(1, 300.0).is_empty());
    }

    #[test]
    fn checker_flags_down_routing() {
        let mut lb = LoadBalancer::new(LoadBalancerConfig::default());
        let b = lb.add_backend_up(0, 100.0);
        lb.server_died(b, 1.0);
        let mut checker = InvariantChecker::new();
        checker.on_arrival();
        checker.on_route(&lb, b, 2.0);
        assert!(!checker.ok());
        assert!(checker.violations()[0].contains("down backend"));
    }

    #[test]
    fn checker_flags_conservation_breaks() {
        let lb = LoadBalancer::new(LoadBalancerConfig::default());
        let mut checker = InvariantChecker::new();
        checker.on_arrival();
        checker.on_served(); // served without ever being routed
        checker.check_tick(&lb, 1.0);
        assert!(!checker.ok());
    }

    fn small(plan: FaultPlan) -> ChaosScenario {
        ChaosScenario {
            servers: vec![
                ServerSpec {
                    market: 0,
                    capacity_rps: 100.0,
                },
                ServerSpec {
                    market: 1,
                    capacity_rps: 100.0,
                },
            ],
            arrival_rps: 120.0,
            duration_secs: 240.0,
            sessions: 200,
            seed: 9,
            plan,
            ..ChaosScenario::default()
        }
    }

    #[test]
    fn quiet_plan_serves_everything_cleanly() {
        let report = small(FaultPlan::new()).run();
        assert_eq!(report.dropped, 0, "no faults, no drops");
        assert_eq!(report.faults_fired, 0);
        assert!(report.invariants_ok(), "{:?}", report.invariant_violations);
        assert!(report.p99 < 1.0, "p99 {}", report.p99);
    }

    #[test]
    fn flap_drops_then_recovers() {
        let plan = FaultPlan::new().at(
            60.0,
            FaultKind::BackendFlap {
                target: 1,
                down_secs: 30.0,
            },
        );
        let report = small(plan).run();
        assert_eq!(report.backend_flaps, 1);
        assert!(report.dropped > 0, "in-flight work dies at the flap");
        assert!(report.invariants_ok(), "{:?}", report.invariant_violations);
        // The last minute is clean again: the backend came back.
        let last = report.buckets.last().unwrap();
        assert_eq!(last.dropped, 0, "flap must heal: {last:?}");
        assert!(last.count > 0);
    }

    #[test]
    fn zero_warning_is_harsher_than_warned() {
        let storm = |warning: Option<f64>| {
            let plan = FaultPlan::new().at(
                60.0,
                FaultKind::CorrelatedRevocation {
                    markets: vec![1],
                    warning_secs: warning,
                },
            );
            small(plan).run()
        };
        let warned = storm(None);
        let unwarned = storm(Some(0.0));
        assert!(warned.invariants_ok());
        assert!(unwarned.invariants_ok());
        assert!(
            unwarned.dropped > warned.dropped,
            "no warning must hurt more: {} vs {}",
            unwarned.dropped,
            warned.dropped
        );
    }

    /// Fig. 4(a) shortened to 420 s at 400 req/s, revoked at 120 s.
    fn quick_fig4a(aware: bool) -> ChaosScenario {
        ChaosScenario {
            duration_secs: 420.0,
            arrival_rps: 400.0,
            seed: 7,
            plan: FaultPlan::new().at(
                120.0,
                FaultKind::CorrelatedRevocation {
                    markets: vec![1, 2],
                    warning_secs: None,
                },
            ),
            ..ChaosScenario::fig4a(aware)
        }
    }

    #[test]
    fn fig4a_aware_recovers_vanilla_drops_and_loses_sessions() {
        let aware = quick_fig4a(true).run();
        let vanilla = quick_fig4a(false).run();
        assert!(aware.invariants_ok(), "{:?}", aware.invariant_violations);
        assert!(
            vanilla.invariants_ok(),
            "{:?}",
            vanilla.invariant_violations
        );
        // The paper's shape: SpotWeb ~0 drops, vanilla (reprovisioning
        // only once its servers die) drops massively after the
        // revocation.
        assert!(
            aware.drop_fraction < 0.01,
            "aware drops {}",
            aware.drop_fraction
        );
        assert!(
            vanilla.drop_fraction > 0.02,
            "vanilla drops {}",
            vanilla.drop_fraction
        );
        assert!(aware.migrated_sessions > 0);
        assert_eq!(vanilla.migrated_sessions, 0);
        assert!(vanilla.lost_sessions > aware.lost_sessions);
        // After the replacements warm up, p90 returns near the
        // pre-failure level (bucket 1 is [60, 120)).
        let before = &aware.buckets[1];
        let recovery = aware.buckets.last().unwrap();
        assert!(before.count > 0 && recovery.count > 0);
        assert!(
            recovery.p90 < 3.0 * before.p90.max(0.05),
            "no recovery: before {} after {}",
            before.p90,
            recovery.p90
        );
    }

    #[test]
    fn fig4a_slow_startup_triggers_admission_control() {
        // §6.1 scenario 3: "system utilization is high, and new
        // instances can not be started within the warning period.
        // Load will be migrated to the other running instances, or
        // dropped until the new instances are available." Replacements
        // take 300 s against a 120 s warning, and the survivors
        // (2 × 80 req/s) cannot carry 400 req/s — the admission
        // controller must shed load without melting the survivors.
        let r = ChaosScenario {
            duration_secs: 600.0,
            startup_secs: 300.0,
            ..quick_fig4a(true)
        }
        .run();
        assert!(r.invariants_ok(), "{:?}", r.invariant_violations);
        // Some requests are necessarily dropped during the gap…
        assert!(r.dropped > 0, "gap must force drops");
        // …but the served ones keep bounded latency (the admission
        // budget is 2 s of queueing).
        assert!(r.p99 < 4.0, "p99 {} — survivors melted", r.p99);
        // And the last minute, after the replacements warm up, is clean.
        let last = r.buckets.last().unwrap();
        assert_eq!(last.dropped, 0, "no drops after recovery");
        assert!(last.p90 < 0.7, "recovered p90 {}", last.p90);
    }

    #[test]
    fn chaos_run_traces_faults_drains_and_replacements() {
        let sink = TelemetrySink::enabled();
        let mut scenario = small(FaultPlan::new().at(
            60.0,
            FaultKind::CorrelatedRevocation {
                markets: vec![1],
                warning_secs: None,
            },
        ));
        scenario.telemetry = sink.clone();
        let report = scenario.run();
        assert!(report.invariants_ok());
        let kinds: Vec<&str> = sink.events().iter().map(|e| e.event.kind()).collect();
        for expected in [
            "fault_injected",
            "drain",
            "backend_death",
            "replacement_started",
        ] {
            assert!(kinds.contains(&expected), "missing {expected} in {kinds:?}");
        }
        assert!(sink.counter("spotweb_sim_events_processed_total") > 0);
        assert_eq!(
            report.admission_rejections,
            sink.counter("spotweb_lb_admission_rejections_total"),
            "report and metrics registry must agree"
        );
    }

    #[test]
    fn chaos_latency_histogram_is_published_from_the_recorder() {
        // One publish at the end of the run: the series holds exactly
        // the served requests, and every figure the report derives
        // from the recorder's overall histogram reads back bit-equal.
        let sink = TelemetrySink::enabled();
        let mut scenario = small(FaultPlan::new().at(
            60.0,
            FaultKind::CorrelatedRevocation {
                markets: vec![1],
                warning_secs: None,
            },
        ));
        scenario.telemetry = sink.clone();
        let report = scenario.run();
        let h = sink
            .with_metrics(|m| m.histogram(names::REQUEST_LATENCY_SECONDS).cloned())
            .flatten()
            .expect("latency histogram published");
        assert!(report.served > 0);
        assert_eq!(h.count(), report.served as u64);
        assert_eq!(h.count(), sink.counter(names::REQUESTS_SERVED_TOTAL));
        for (p, want) in [(50.0, report.p50), (90.0, report.p90), (99.0, report.p99)] {
            assert_eq!(h.percentile(p).to_bits(), want.to_bits(), "p{p}");
        }
        let filled = report.buckets.iter().filter(|b| b.count > 0);
        let sum: f64 = filled.clone().map(|b| b.mean * b.count as f64).sum();
        assert!((h.sum() - sum).abs() <= 1e-12 * sum, "{} vs {sum}", h.sum());
        let min = filled.clone().map(|b| b.min).fold(f64::INFINITY, f64::min);
        let max = filled.map(|b| b.max).fold(f64::NEG_INFINITY, f64::max);
        assert_eq!((h.min(), h.max()), (min, max));
    }

    #[test]
    fn named_scenarios_all_construct() {
        for name in NAMED_SCENARIOS {
            let s = ChaosScenario::named(name);
            assert_eq!(&s.name, name);
            assert!(!s.plan.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown chaos scenario")]
    fn unknown_scenario_panics() {
        let _ = ChaosScenario::named("kernel-panic");
    }

    #[test]
    fn report_json_is_byte_stable() {
        let a = small(FaultPlan::new().at(
            60.0,
            FaultKind::BackendFlap {
                target: 0,
                down_secs: 20.0,
            },
        ))
        .run();
        let b = small(FaultPlan::new().at(
            60.0,
            FaultKind::BackendFlap {
                target: 0,
                down_secs: 20.0,
            },
        ))
        .run();
        assert_eq!(a.to_json_pretty(), b.to_json_pretty());
        assert!(a.to_json_pretty().starts_with("{\n  \"scenario\""));
    }
}
