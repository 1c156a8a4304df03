//! Figure 4 — transiency-aware load balancing and intelligent
//! over-provisioning.
//!
//! * **Fig. 4(a)**: per-minute latency distribution around an induced
//!   correlated revocation (6-server testbed → our discrete-event
//!   simulator), transiency-aware vs vanilla WRR. Paper: SpotWeb keeps
//!   p90 under 700 ms with zero drops; vanilla drops ~85% of requests
//!   right after the revocation and serves the rest at ~2 s.
//! * **Fig. 4(b)**: the three-week Wikipedia trace used for the
//!   predictor study (same data as Fig. 3(a)).
//! * **Fig. 4(c)**: relative one-step prediction-error histogram for
//!   the \[1\] baseline (spline + AR, no padding). Paper: max
//!   under-provisioning ≈ 16.1%, mean over ≈ 0.03%, max over ≈ 17.3%.
//! * **Fig. 4(d)**: the same histogram for SpotWeb's padded predictor.
//!   Paper: mean over-provisioning ≈ 15%, max ≈ 40%, max under ≈ 3.2%.

use serde::Serialize;
use spotweb_predict::metrics::{backtest, histogram, ErrorSummary};
use spotweb_predict::{AliEldinPredictor, SpotWebPredictor};
use spotweb_sim::ChaosScenario;
use spotweb_workload::wikipedia_like;

/// Per-minute latency row for Fig. 4(a).
#[derive(Debug, Clone, Serialize)]
pub struct LatencyBucket {
    /// Minute start (s).
    pub start_secs: f64,
    /// Served requests.
    pub count: usize,
    /// Mean latency (s).
    pub mean: f64,
    /// Quartiles and tails (s).
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Upper quartile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Dropped requests in the bucket.
    pub dropped: u64,
}

/// One balancer's Fig. 4(a) series.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4aSeries {
    /// `"spotweb"` or `"vanilla"`.
    pub balancer: String,
    /// Per-minute stats.
    pub buckets: Vec<LatencyBucket>,
    /// Overall drop fraction.
    pub drop_fraction: f64,
    /// Overall p90 (s).
    pub p90: f64,
    /// Sessions migrated.
    pub migrated_sessions: u64,
    /// Sessions lost.
    pub lost_sessions: u64,
}

/// Fig. 4(a) output.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4a {
    /// Transiency-aware balancer.
    pub spotweb: Fig4aSeries,
    /// Vanilla WRR baseline.
    pub vanilla: Fig4aSeries,
}

fn run_one(aware: bool, seed: u64) -> Fig4aSeries {
    let report = ChaosScenario {
        seed,
        ..ChaosScenario::fig4a(aware)
    }
    .run();
    Fig4aSeries {
        balancer: if aware { "spotweb" } else { "vanilla" }.into(),
        buckets: report
            .buckets
            .iter()
            .map(|b| LatencyBucket {
                start_secs: b.start,
                count: b.count,
                mean: b.mean,
                p25: b.p25,
                p50: b.p50,
                p75: b.p75,
                p90: b.p90,
                p99: b.p99,
                dropped: b.dropped,
            })
            .collect(),
        drop_fraction: report.drop_fraction,
        p90: report.p90,
        migrated_sessions: report.migrated_sessions,
        lost_sessions: report.lost_sessions,
    }
}

/// Run the Fig. 4(a) failover experiment for both balancers.
pub fn run_fig4a(seed: u64) -> Fig4a {
    Fig4a {
        spotweb: run_one(true, seed),
        vanilla: run_one(false, seed),
    }
}

/// Error-histogram output for Fig. 4(c)/(d).
#[derive(Debug, Clone, Serialize)]
pub struct ErrorHistogram {
    /// `"ali-eldin-2014"` (4c) or `"spotweb"` (4d).
    pub predictor: String,
    /// Histogram bin centers (relative error).
    pub bin_centers: Vec<f64>,
    /// Counts per bin.
    pub counts: Vec<usize>,
    /// Mean over-provisioning (positive errors).
    pub mean_over: f64,
    /// Max over-provisioning.
    pub max_over: f64,
    /// Max under-provisioning.
    pub max_under: f64,
    /// Fraction of under-provisioned steps.
    pub under_fraction: f64,
}

/// Fig. 4(b–d) output.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4bcd {
    /// Fig. 4(b): the evaluation trace (hourly req/s).
    pub trace: Vec<f64>,
    /// Fig. 4(c): baseline predictor error histogram.
    pub baseline: ErrorHistogram,
    /// Fig. 4(d): SpotWeb predictor error histogram.
    pub spotweb: ErrorHistogram,
}

/// Run the predictor-error study on a 5-week trace (2 weeks warm-up +
/// 3 evaluated weeks, mirroring the paper's moving-window setup).
pub fn run_fig4bcd(seed: u64) -> Fig4bcd {
    let trace = wikipedia_like(5 * 7 * 24, seed);
    let warmup = 2 * 7 * 24;
    let errs_base = backtest(&mut AliEldinPredictor::new(), &trace, warmup);
    let errs_sw = backtest(&mut SpotWebPredictor::new(), &trace, warmup);
    let to_hist = |name: &str, errs: &[f64]| {
        let (centers, counts) = histogram(errs, -0.25, 0.55, 40);
        let s = ErrorSummary::of(errs);
        ErrorHistogram {
            predictor: name.to_string(),
            bin_centers: centers,
            counts,
            mean_over: s.mean_over,
            max_over: s.max_over,
            max_under: s.max_under,
            under_fraction: s.under_fraction,
        }
    };
    Fig4bcd {
        trace: trace.values[warmup..].to_vec(),
        baseline: to_hist("ali-eldin-2014", &errs_base),
        spotweb: to_hist("spotweb", &errs_sw),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4a_shape_matches_paper() {
        let f = run_fig4a(7);
        // SpotWeb: (near-)zero drops, p90 well under 0.7 s.
        assert!(f.spotweb.drop_fraction < 0.01);
        assert!(f.spotweb.p90 < 0.7, "p90 {}", f.spotweb.p90);
        assert_eq!(f.spotweb.lost_sessions, 0);
        // Vanilla: drops massively in the failure minute; elevated
        // latency for what it serves.
        assert!(f.vanilla.drop_fraction > 0.03);
        let failure_bucket = f.vanilla.buckets.iter().max_by_key(|b| b.dropped).unwrap();
        let served_frac = failure_bucket.count as f64
            / (failure_bucket.count as f64 + failure_bucket.dropped as f64);
        assert!(
            served_frac < 0.6,
            "vanilla must lose most of the failure minute ({served_frac})"
        );
        assert!(failure_bucket.mean > 1.0, "vanilla latency must spike");
        assert!(f.vanilla.lost_sessions > 0);
    }

    #[test]
    fn fig4cd_shape_matches_paper() {
        let f = run_fig4bcd(11);
        // Padding trades under- for over-provisioning.
        assert!(f.spotweb.max_under <= f.baseline.max_under + 1e-9);
        assert!(f.spotweb.under_fraction < f.baseline.under_fraction);
        assert!(f.spotweb.mean_over > f.baseline.mean_over);
        // Rough magnitudes from §6.2.
        assert!(f.spotweb.mean_over > 0.02 && f.spotweb.mean_over < 0.40);
        assert!(f.spotweb.max_under < 0.15);
        assert_eq!(f.baseline.counts.iter().sum::<usize>(), 3 * 7 * 24);
    }
}
