//! Sharded execution for the full-stack runner.
//!
//! `RunnerConfig::shards > 1` moves one simulation's arrival
//! generation onto worker threads without changing a single byte of
//! its output. The arrival process (counter-RNG draws, exponential
//! gaps) is free of feedback into the control loop, while everything
//! downstream of it — balancer routing, service queues, latency
//! recording, policy decisions, billing — is a serial dependency
//! chain (interval `i+1`'s policy reads interval `i`'s monitor). So
//! the run becomes a two-stage pipeline:
//!
//! 1. **Generation shards** (this module, `ArrivalPipeline`): a pool
//!    of `min(shards, nproc, intervals)` workers pre-generates each
//!    decision interval's arrival batch `(time, session)` from the
//!    counter-based `sim::rng` streams keyed by interval. Because the
//!    generator is draw-order-free, window `w`'s batch never depends
//!    on windows `0..w` — any worker can produce any window, bounded
//!    by a lookahead so memory stays O(shards × window).
//! 2. **The simulation thread**: the unchanged control loop consumes
//!    batches in interval order through `ArrivalSupply` and records
//!    every latency and drop straight into its `LatencyRecorder`. At
//!    `shards = 1` the same generator runs inline and lazily
//!    (`InlineArrivals`) — no batch materialization, which is what
//!    keeps day-scale runs inside the memory gate.
//!
//! Byte-identity between `--shards 1` and `--shards K` is therefore
//! structural, not approximate: both paths execute the same draws, the
//! same routing, and the same recorder calls in the same order (float
//! accumulation is not associative, so the order is what matters).
//! `tests/shard.rs` locks it in across all five chaos scenarios and
//! three seeds, and [`report_json`] / [`report_digest`] are the
//! canonical renderings the proof compares.

use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use spotweb_telemetry::json::{json_f64, json_string, json_u32_array};

use crate::metrics::BucketStats;
use crate::rng::{stream_id, CounterStream, DOMAIN_ARRIVAL_GAP, DOMAIN_ARRIVAL_SESSION};
use crate::runner::RunnerReport;

/// Number of logical cores the runtime reports. Centralized here so
/// the runner, the sweep pool, and the bench reports all agree on the
/// figure they record (satellite: `nproc` lands in every BENCH file).
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

// ---------------------------------------------------------------------------
// Arrival generation
// ---------------------------------------------------------------------------

/// One decision interval's arrival parameters, fixed at run start
/// (the trace rate is sampled at the interval boundary, exactly as the
/// serial loop samples it).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowSpec {
    pub t0: f64,
    pub t_end: f64,
    pub rate: f64,
}

/// The arrival generator for one window: a lazy walk of the
/// counter-RNG streams keyed by the interval index. Both execution
/// modes use this exact type — the inline path iterates it on the
/// simulation thread, the pipeline path iterates it on a gen worker —
/// so the draw sequence is identical by construction.
#[derive(Debug, Clone, Copy)]
pub(crate) struct WindowGen {
    gaps: CounterStream,
    sessions_stream: CounterStream,
    sessions: u64,
    t: f64,
    t_end: f64,
    rate: f64,
    k: u64,
}

impl WindowGen {
    pub(crate) fn new(seed: u64, interval: usize, sessions: u64, spec: WindowSpec) -> Self {
        WindowGen {
            gaps: CounterStream::new(seed, stream_id(DOMAIN_ARRIVAL_GAP, interval as u64)),
            sessions_stream: CounterStream::new(
                seed,
                stream_id(DOMAIN_ARRIVAL_SESSION, interval as u64),
            ),
            sessions,
            t: spec.t0,
            t_end: spec.t_end,
            rate: spec.rate,
            k: 0,
        }
    }

    /// Next arrival `(time, session)` strictly before the window end,
    /// or `None` once the gap walk crosses it. Draw `k` of the gap
    /// stream and draw `k` of the session stream belong to arrival
    /// `k`; the counter advances only on yielded arrivals, so the
    /// sequence is a pure function of `(seed, interval)`.
    pub(crate) fn next(&mut self) -> Option<(f64, u64)> {
        let t = self.t + self.gaps.exp_at(self.k, self.rate);
        if t >= self.t_end {
            return None;
        }
        let session = self.sessions_stream.range_at(self.k, self.sessions);
        self.t = t;
        self.k += 1;
        Some((t, session))
    }
}

/// A window's arrivals, consumed in time order by the control loop.
pub(crate) trait WindowArrivals {
    /// Next arrival `(time, session)` in this window, if any.
    fn next(&mut self) -> Option<(f64, u64)>;
}

impl WindowArrivals for WindowGen {
    fn next(&mut self) -> Option<(f64, u64)> {
        WindowGen::next(self)
    }
}

/// Source of per-interval arrival windows. The control loop requests
/// windows strictly in interval order.
pub(crate) trait ArrivalSupply {
    /// The window iterator type this supply hands out.
    type Window: WindowArrivals;
    /// Open interval `interval`'s arrival window.
    fn window(&mut self, interval: usize, spec: WindowSpec) -> Self::Window;
}

/// `shards = 1`: generate arrivals lazily on the simulation thread.
/// No batch is ever materialized — at day scale a single window is
/// tens of millions of arrivals, and the serial path must stay inside
/// the memory gate.
pub(crate) struct InlineArrivals {
    pub(crate) seed: u64,
    pub(crate) sessions: u64,
}

impl ArrivalSupply for InlineArrivals {
    type Window = WindowGen;
    fn window(&mut self, interval: usize, spec: WindowSpec) -> WindowGen {
        WindowGen::new(self.seed, interval, self.sessions, spec)
    }
}

struct GenState {
    /// Next window index a worker may claim.
    next_claim: usize,
    /// Windows the simulation thread has consumed (`take` watermark).
    consumed: usize,
    /// Finished batches, indexed by window.
    ready: Vec<Option<Vec<(f64, u64)>>>,
    abort: bool,
}

struct GenShared {
    state: Mutex<GenState>,
    /// Workers wait here for lookahead room.
    gen_cv: Condvar,
    /// The simulation thread waits here for its next batch.
    ready_cv: Condvar,
}

/// The generation worker pool: pre-computes per-window arrival batches
/// ahead of the simulation thread, bounded by a lookahead of
/// `2 × shards` windows so memory stays proportional to the shard
/// count rather than the horizon.
pub(crate) struct ArrivalPipeline {
    shared: Arc<GenShared>,
    workers: Vec<JoinHandle<()>>,
}

impl ArrivalPipeline {
    /// Spawn `min(shards, nproc, windows)` workers over `specs`.
    pub(crate) fn spawn(seed: u64, sessions: u64, specs: Vec<WindowSpec>, shards: usize) -> Self {
        let n = specs.len();
        let lookahead = (2 * shards).max(2);
        let shared = Arc::new(GenShared {
            state: Mutex::new(GenState {
                next_claim: 0,
                consumed: 0,
                ready: (0..n).map(|_| None).collect(),
                abort: false,
            }),
            gen_cv: Condvar::new(),
            ready_cv: Condvar::new(),
        });
        let specs = Arc::new(specs);
        let n_workers = shards.min(nproc()).min(n.max(1)).max(1);
        let workers = (0..n_workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                let specs = Arc::clone(&specs);
                std::thread::Builder::new()
                    .name(format!("shard-gen-{w}"))
                    .spawn(move || loop {
                        let claimed = {
                            let mut st = shared.state.lock().expect("gen pool lock");
                            loop {
                                if st.abort || st.next_claim >= n {
                                    return;
                                }
                                if st.next_claim < st.consumed + lookahead {
                                    let c = st.next_claim;
                                    st.next_claim += 1;
                                    break c;
                                }
                                st = shared.gen_cv.wait(st).expect("gen pool lock");
                            }
                        };
                        // Generation is pure arithmetic over the
                        // counter streams: no locks held, no panics.
                        let mut gen = WindowGen::new(seed, claimed, sessions, specs[claimed]);
                        let mut batch = Vec::new();
                        while let Some(a) = gen.next() {
                            batch.push(a);
                        }
                        let mut st = shared.state.lock().expect("gen pool lock");
                        st.ready[claimed] = Some(batch);
                        shared.ready_cv.notify_all();
                    })
                    .expect("spawn shard-gen worker")
            })
            .collect();
        ArrivalPipeline { shared, workers }
    }

    /// Block until window `w`'s batch is ready and take it. Windows
    /// must be taken in ascending order (the control loop's order).
    fn take(&self, w: usize) -> Vec<(f64, u64)> {
        let mut st = self.shared.state.lock().expect("gen pool lock");
        debug_assert_eq!(st.consumed, w, "windows must be taken in order");
        loop {
            if let Some(batch) = st.ready[w].take() {
                st.consumed = w + 1;
                self.shared.gen_cv.notify_all();
                return batch;
            }
            st = self.shared.ready_cv.wait(st).expect("gen pool lock");
        }
    }
}

impl Drop for ArrivalPipeline {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("gen pool lock");
            st.abort = true;
        }
        self.shared.gen_cv.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

/// `shards > 1`: windows come pre-generated from the pipeline.
pub(crate) struct PipelineArrivals {
    pipeline: ArrivalPipeline,
}

impl PipelineArrivals {
    pub(crate) fn new(pipeline: ArrivalPipeline) -> Self {
        PipelineArrivals { pipeline }
    }
}

/// A materialized window batch, replayed in generation order.
pub(crate) struct BatchWindow {
    batch: Vec<(f64, u64)>,
    idx: usize,
}

impl WindowArrivals for BatchWindow {
    fn next(&mut self) -> Option<(f64, u64)> {
        let a = self.batch.get(self.idx).copied();
        self.idx += 1;
        a
    }
}

impl ArrivalSupply for PipelineArrivals {
    type Window = BatchWindow;
    fn window(&mut self, interval: usize, _spec: WindowSpec) -> BatchWindow {
        BatchWindow {
            batch: self.pipeline.take(interval),
            idx: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Canonical report rendering
// ---------------------------------------------------------------------------

fn bucket_json(b: &BucketStats) -> String {
    format!(
        concat!(
            "{{\"start\":{},\"count\":{},\"mean\":{},\"min\":{},",
            "\"p25\":{},\"p50\":{},\"p75\":{},\"p90\":{},\"p99\":{},",
            "\"max\":{},\"dropped\":{}}}"
        ),
        json_f64(b.start),
        b.count,
        json_f64(b.mean),
        json_f64(b.min),
        json_f64(b.p25),
        json_f64(b.p50),
        json_f64(b.p75),
        json_f64(b.p90),
        json_f64(b.p99),
        json_f64(b.max),
        b.dropped,
    )
}

/// Canonical single-line JSON rendering of a [`RunnerReport`] — every
/// field, hand-rolled through the workspace's byte-stable float
/// helpers. String equality of two renderings is the shard-invariance
/// proof (`--shards 1` vs `--shards K`), so this is the only sanctioned
/// serialization of a report.
pub fn report_json(r: &RunnerReport) -> String {
    let buckets: Vec<String> = r.buckets.iter().map(bucket_json).collect();
    let violations: Vec<String> = r
        .invariant_violations
        .iter()
        .map(|v| json_string(v))
        .collect();
    format!(
        concat!(
            "{{\"served\":{},\"dropped\":{},\"drop_fraction\":{},",
            "\"p50\":{},\"p90\":{},\"p99\":{},\"cost\":{},",
            "\"revocations\":{},\"migrated_sessions\":{},",
            "\"lifetime_relinquishments\":{},\"fleet_sizes\":{},",
            "\"buckets\":[{}],\"faults_fired\":{},",
            "\"invariant_violations\":[{}]}}"
        ),
        r.served,
        r.dropped,
        json_f64(r.drop_fraction),
        json_f64(r.p50),
        json_f64(r.p90),
        json_f64(r.p99),
        json_f64(r.cost),
        r.revocations,
        r.migrated_sessions,
        r.lifetime_relinquishments,
        json_u32_array(&r.fleet_sizes),
        buckets.join(","),
        r.faults_fired,
        violations.join(","),
    )
}

/// FNV-1a 64 digest of a report's canonical JSON (the same hash the
/// sweep digests use), newline-terminated so digests of concatenated
/// reports compose.
pub fn report_digest(r: &RunnerReport) -> String {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for b in report_json(r).as_bytes() {
        hash ^= u64::from(*b);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash ^= u64::from(b'\n');
    hash = hash.wrapping_mul(FNV_PRIME);
    format!("{hash:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize, interval_secs: f64, rate: f64) -> Vec<WindowSpec> {
        (0..n)
            .map(|i| {
                let t0 = i as f64 * interval_secs;
                WindowSpec {
                    t0,
                    t_end: t0 + interval_secs,
                    rate,
                }
            })
            .collect()
    }

    #[test]
    fn pipeline_batches_match_inline_generation() {
        let specs = specs(6, 50.0, 80.0);
        for shards in [2usize, 3, 8] {
            let pipeline = ArrivalPipeline::spawn(1234, 500, specs.clone(), shards);
            for (i, spec) in specs.iter().enumerate() {
                let mut inline = WindowGen::new(1234, i, 500, *spec);
                let batch = pipeline.take(i);
                let mut expect = Vec::new();
                while let Some(a) = inline.next() {
                    expect.push(a);
                }
                assert_eq!(batch, expect, "window {i} at {shards} shards");
            }
        }
    }

    #[test]
    fn pipeline_drop_mid_run_joins_cleanly() {
        let specs = specs(64, 10.0, 200.0);
        let pipeline = ArrivalPipeline::spawn(7, 100, specs, 4);
        let _ = pipeline.take(0);
        drop(pipeline); // 63 windows unconsumed: abort must unblock workers
    }

    #[test]
    fn report_json_is_byte_stable() {
        let r = RunnerReport {
            served: 10,
            dropped: 2,
            drop_fraction: 1.0 / 6.0,
            p50: 0.125,
            p90: 0.25,
            p99: 0.5,
            cost: 3.0,
            revocations: 1,
            migrated_sessions: 4,
            lifetime_relinquishments: 0,
            fleet_sizes: vec![2, 3],
            buckets: Vec::new(),
            faults_fired: 1,
            invariant_violations: vec!["x".to_string()],
        };
        let a = report_json(&r);
        assert_eq!(a, report_json(&r.clone()));
        assert!(a.starts_with("{\"served\":10,\"dropped\":2,"));
        assert!(a.contains("\"fleet_sizes\":[2,3]"));
        assert!(a.contains("\"invariant_violations\":[\"x\"]"));
        assert_eq!(report_digest(&r), report_digest(&r.clone()));
    }
}
