//! The benchmark's own policy adapters. They drive the program's
//! policies through their public traits and time each call from the
//! outside, so no timer lives inside the program.

use std::time::Instant;

use spotweb_core::policy::{Policy, PolicyObservation};
use spotweb_linalg::Matrix;
use spotweb_market::{estimate_correlation, Catalog};
use spotweb_sim::runner::{FleetPolicy, ReactiveCheapestPolicy};

/// Host timings one adapter collected.
#[derive(Debug, Clone, Default)]
pub struct DecideLog {
    /// Wall seconds of each `decide` call, in call order.
    pub decide_secs: Vec<f64>,
    /// Wall seconds of each covariance estimate the adapter made.
    pub covariance_secs: Vec<f64>,
    /// Wall seconds between consecutive decisions (one per interval
    /// after the first; interval-level harness only).
    pub interval_secs: Vec<f64>,
}

impl DecideLog {
    /// Append another log.
    pub fn extend(&mut self, other: DecideLog) {
        self.decide_secs.extend(other.decide_secs);
        self.covariance_secs.extend(other.covariance_secs);
        self.interval_secs.extend(other.interval_secs);
    }
}

/// Which policy a [`FleetAdapter`] drives.
pub enum Driven {
    /// A `spotweb_core` policy (SpotWeb MPO or a zoo competitor).
    Core(Box<dyn Policy + Send>),
    /// The runner's built-in reactive baseline.
    Reactive(ReactiveCheapestPolicy),
}

/// Drives a policy from the request-level runner's observations: the
/// failure-correlation estimate (timed as the market layer) and the
/// decision (timed as the core layer).
pub struct FleetAdapter {
    driven: Driven,
    catalog: Catalog,
    /// Timings collected so far.
    pub log: DecideLog,
}

impl FleetAdapter {
    /// Adapter for `driven` over `catalog`.
    pub fn new(driven: Driven, catalog: Catalog) -> Self {
        FleetAdapter {
            driven,
            catalog,
            log: DecideLog::default(),
        }
    }
}

impl FleetPolicy for FleetAdapter {
    fn decide_fleet(
        &mut self,
        interval: usize,
        observed_rps: f64,
        prices: &[f64],
        failure_probs: &[f64],
        failure_history: &[Vec<f64>],
    ) -> Vec<u32> {
        match &mut self.driven {
            Driven::Reactive(policy) => {
                let t = Instant::now();
                let fleet = policy.decide_fleet(
                    interval,
                    observed_rps,
                    prices,
                    failure_probs,
                    failure_history,
                );
                self.log.decide_secs.push(t.elapsed().as_secs_f64());
                fleet
            }
            Driven::Core(policy) => {
                let covariance = if failure_history.first().map_or(0, |s| s.len()) >= 2 {
                    let t = Instant::now();
                    let m = estimate_correlation(failure_history, 0.1);
                    self.log.covariance_secs.push(t.elapsed().as_secs_f64());
                    m
                } else {
                    Matrix::identity(self.catalog.len())
                };
                let obs = PolicyObservation {
                    interval,
                    current_workload: observed_rps,
                    prices,
                    failure_probs,
                    covariance: &covariance,
                    oracle: None,
                };
                let t = Instant::now();
                let fleet = policy.decide(&self.catalog, &obs);
                self.log.decide_secs.push(t.elapsed().as_secs_f64());
                fleet
            }
        }
    }
}

/// Wraps a policy for the interval-level harness
/// (`core::evaluate::simulate_costs`), timing each decision and the
/// wall time between consecutive decisions.
pub struct TimedPolicy {
    inner: Box<dyn Policy + Send>,
    last_start: Option<Instant>,
    /// Timings collected so far.
    pub log: DecideLog,
}

impl TimedPolicy {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Policy + Send>) -> Self {
        TimedPolicy {
            inner,
            last_start: None,
            log: DecideLog::default(),
        }
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn decide(&mut self, catalog: &Catalog, obs: &PolicyObservation<'_>) -> Vec<u32> {
        let t = Instant::now();
        if let Some(prev) = self.last_start.replace(t) {
            self.log
                .interval_secs
                .push(t.duration_since(prev).as_secs_f64());
        }
        let fleet = self.inner.decide(catalog, obs);
        self.log.decide_secs.push(t.elapsed().as_secs_f64());
        fleet
    }
}
