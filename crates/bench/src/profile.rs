//! `figures profile` — the self-profiling harness (ISSUE 7).
//!
//! Runs the workspace's own hot paths under a
//! [`spotweb_telemetry::prof`] session and splits the result
//! along the quarantine boundary:
//!
//! * **stdout** — the deterministic span *structure* (names, nesting,
//!   call counts, lock-wait counts) of every phase, byte-identical
//!   across runs of the same seed/flags; CI runs the command twice and
//!   diffs it, and `tests/golden/profile_spans.json` locks the runner
//!   phase.
//! * **`BENCH_profile.json` + `flamegraph.folded`** — wall seconds,
//!   lock-wait seconds, per-thread trees (including per-worker sweep
//!   task counts), and allocation figures. Machine-dependent,
//!   quarantined, uploaded as CI artifacts.
//!
//! Phases:
//!
//! 1. `sweep_serial` — the full `figures sweep` grid at `--jobs 1`.
//! 2. `sweep_parallel` — the same grid at `--jobs J`, so jobs-1 vs
//!    jobs-J skew (ROADMAP item 1's 0.958 "speedup") is directly
//!    attributable per worker.
//! 3. `runner_short` — one perf-style full-stack run (reactive policy,
//!    [`PERF_RPS`] for 4×300 s) covering the runner arrival / control /
//!    drain spans, `lb.route`, and the telemetry histogram locks.
//! 4. `runner_day_scale` (`--full` only) — [`DAY_SCALE_RPS`] at
//!    one-hour intervals for `--hours N` (default 24) simulated hours,
//!    the ROADMAP item-1 day-scale-collapse probe. Hours are a knob so
//!    a scaled probe (e.g. `--hours 2`) can show the degradation trend
//!    without the full ~80-minute day run.

use std::time::Instant;

use spotweb_telemetry::json::{json_f64, json_string};
use spotweb_telemetry::prof;
use spotweb_telemetry::prof::alloc::AllocStats;

use crate::perf::{run_one as perf_run_one, PerfRun, DAY_SCALE_RPS, PERF_RPS};
use crate::sweep::{build_grid, run_grid};
use crate::telem::normalize_scenario;

/// Default scenario for the runner phases: the revocation storm is the
/// nastiest of the five chaos traces (mass revocation mid-run) and the
/// one the day-scale entry in `BENCH_runner.json` uses.
pub const PROFILE_SCENARIO: &str = "revocation_storm";

/// Interval length of the short runner phase (seconds).
pub const SHORT_INTERVAL_SECS: f64 = 300.0;

/// Interval count of the short runner phase.
pub const SHORT_INTERVALS: usize = 4;

/// One profiled phase: the collected profile plus quarantined timing
/// and allocation context.
#[derive(Debug, Clone)]
pub struct ProfilePhase {
    /// Phase name (stable identifier, e.g. `sweep_serial`).
    pub name: String,
    /// Worker threads requested for this phase (1 for runner phases).
    pub jobs: usize,
    /// Wall-clock seconds for the whole phase (quarantined).
    pub wall_secs: f64,
    /// Simulated arrivals processed in this phase, when the phase is a
    /// single runner run (0 for sweep phases — their per-run figures
    /// live in `BENCH_sweep.json`).
    pub arrivals: u64,
    /// The collected span profile.
    pub profile: prof::Profile,
    /// Allocator counters sampled at phase start (zeros without the
    /// `prof-alloc` feature).
    pub alloc_start: AllocStats,
    /// Allocator counters sampled at phase end.
    pub alloc_end: AllocStats,
}

impl ProfilePhase {
    fn run(name: &str, jobs: usize, body: impl FnOnce() -> u64) -> ProfilePhase {
        let alloc_start = prof::alloc::stats();
        let session = prof::begin();
        let started = Instant::now();
        let arrivals = body();
        let wall_secs = started.elapsed().as_secs_f64();
        let profile = session.finish();
        ProfilePhase {
            name: name.to_string(),
            jobs,
            wall_secs,
            arrivals,
            profile,
            alloc_start,
            alloc_end: prof::alloc::stats(),
        }
    }

    /// Deterministic structure entry for the stdout document.
    fn structure_json(&self) -> String {
        format!(
            "{{\"phase\":{},\"jobs\":{},\"spans\":{}}}",
            json_string(&self.name),
            self.jobs,
            self.profile.merged().structure_json()
        )
    }

    /// Quarantined entry for `BENCH_profile.json`.
    fn bench_json(&self) -> String {
        let a0 = self.alloc_start;
        let a1 = self.alloc_end;
        format!(
            concat!(
                "{{\"phase\":{},\"jobs\":{},\"wall_secs\":{},\"arrivals\":{},",
                "\"merged\":{},\"threads\":{},",
                "\"alloc\":{{\"live_bytes_start\":{},\"live_bytes_end\":{},",
                "\"peak_bytes\":{},\"allocated_bytes\":{},\"alloc_calls\":{}}}}}"
            ),
            json_string(&self.name),
            self.jobs,
            json_f64(self.wall_secs),
            self.arrivals,
            self.profile.merged().timed_json(),
            self.profile.threads_json(),
            a0.live_bytes,
            a1.live_bytes,
            a1.peak_bytes,
            a1.allocated_bytes.saturating_sub(a0.allocated_bytes),
            a1.alloc_calls.saturating_sub(a0.alloc_calls),
        )
    }
}

/// Result of [`run_command`]: the three render surfaces plus the raw
/// phases for tests.
#[derive(Debug, Clone)]
pub struct ProfileOutput {
    /// Runner-phase scenario (normalized name).
    pub scenario: String,
    /// Seed shared by every phase.
    pub seed: u64,
    /// `--jobs` of the parallel sweep phase.
    pub jobs: usize,
    /// The profiled phases, in execution order.
    pub phases: Vec<ProfilePhase>,
    /// Deterministic span-structure document (stdout).
    pub spans_json: String,
    /// Quarantined `BENCH_profile.json` body.
    pub bench_json: String,
    /// Collapsed-stack `flamegraph.folded` body (quarantined).
    pub folded: String,
    /// Human-readable attribution summary (stderr; wall-clock figures,
    /// never captured in goldens).
    pub human_summary: String,
}

/// Profile the short runner phase alone (the golden-locked part):
/// returns the phase so tests can compare double runs.
pub fn runner_phase(scenario: &str, seed: u64) -> Result<ProfilePhase, String> {
    let name = normalize_scenario(scenario);
    // Resolve scenario errors before the session starts.
    check_scenario(&name)?;
    let mut result: Option<Result<PerfRun, String>> = None;
    let phase = ProfilePhase::run("runner_short", 1, || {
        let r = perf_run_one(
            &name,
            seed,
            PERF_RPS,
            SHORT_INTERVAL_SECS,
            SHORT_INTERVALS,
            1,
        );
        let arrivals = r.as_ref().map(|p| p.arrivals).unwrap_or(0);
        result = Some(r);
        arrivals
    });
    result.expect("runner body ran").map(|_| phase)
}

/// Profile one pass over the sweep grid at `jobs` workers. The grid
/// replays every policy — this is the phase where the MPO solver
/// (`mpo.solve`) and, at `jobs > 1`, the `sweep.worker` spans appear;
/// the runner phases use the reactive policy to isolate the request
/// path (see `crate::perf`).
pub fn sweep_phase(
    name: &str,
    jobs: usize,
    scenario: Option<&str>,
    seed: u64,
) -> Result<ProfilePhase, String> {
    let grid = build_grid(scenario, seed)?;
    Ok(ProfilePhase::run(name, jobs, move || {
        run_grid(jobs, grid);
        0
    }))
}

fn check_scenario(name: &str) -> Result<(), String> {
    if spotweb_sim::NAMED_SCENARIOS.contains(&name) {
        Ok(())
    } else {
        Err(format!(
            // spotweb-lint: allow(no-float-display-in-renderers) -- stderr error message, no floats involved
            "unknown profile scenario {name:?}; known: {:?}",
            spotweb_sim::NAMED_SCENARIOS
        ))
    }
}

/// The golden document for `tests/golden/profile_spans.json`: the
/// deterministic span structure of the short runner phase.
pub fn runner_spans_golden_json(scenario: &str, seed: u64) -> Result<String, String> {
    let phase = runner_phase(scenario, seed)?;
    Ok(format!(
        "{{\"schema\":\"spotweb-profile-spans/1\",\"scenario\":{},\"seed\":{},\"spans\":{}}}\n",
        json_string(&normalize_scenario(scenario)),
        seed,
        phase.profile.merged().structure_json()
    ))
}

/// Run the full profile harness. `hours` scales the `--full` day-scale
/// phase (24 = the full day). `alloc` asks for allocation accounting
/// and errors unless the binary was built with `--features prof-alloc`.
pub fn run_command(
    jobs: usize,
    scenario: Option<&str>,
    seed: u64,
    full: bool,
    hours: usize,
    alloc: bool,
) -> Result<ProfileOutput, String> {
    if alloc && !prof::alloc::is_enabled() {
        return Err("--alloc needs the counting allocator: rebuild with \
             `cargo run -p spotweb-bench --features prof-alloc --bin figures -- profile --alloc`"
            .to_string());
    }
    let runner_scenario = normalize_scenario(scenario.unwrap_or(PROFILE_SCENARIO));
    check_scenario(&runner_scenario)?;
    let jobs = jobs.max(1);

    let mut phases = Vec::new();
    phases.push(sweep_phase("sweep_serial", 1, scenario, seed)?);
    phases.push(sweep_phase("sweep_parallel", jobs, scenario, seed)?);
    phases.push(runner_phase(&runner_scenario, seed)?);
    if full {
        let hours = hours.max(1);
        let name = format!("runner_day_scale_{hours}h");
        let scen = runner_scenario.clone();
        let mut err: Option<String> = None;
        let phase = ProfilePhase::run(&name, 1, || {
            match perf_run_one(&scen, seed, DAY_SCALE_RPS, 3600.0, hours, 1) {
                Ok(p) => p.arrivals,
                Err(e) => {
                    err = Some(e);
                    0
                }
            }
        });
        if let Some(e) = err {
            return Err(e);
        }
        phases.push(phase);
    }

    let spans: Vec<String> = phases.iter().map(|p| p.structure_json()).collect();
    let spans_json = format!(
        "{{\"schema\":\"spotweb-profile-spans/1\",\"scenario\":{},\"seed\":{},\"jobs\":{},\"phases\":[{}]}}\n",
        json_string(&runner_scenario),
        seed,
        jobs,
        spans.join(",")
    );

    let bench_entries: Vec<String> = phases
        .iter()
        .map(|p| format!("\n  {}", p.bench_json()))
        .collect();
    let bench_json = format!(
        "{{\n \"schema\": \"spotweb-profile/1\",\n \"jobs\": {},\n \"seed\": {},\n \
         \"scenario\": {},\n \"alloc_enabled\": {},\n \"phases\": [{}\n ]\n}}\n",
        jobs,
        seed,
        json_string(&runner_scenario),
        prof::alloc::is_enabled(),
        bench_entries.join(",")
    );

    let mut folded = String::new();
    for p in &phases {
        folded.push_str(&p.profile.folded(&p.name));
    }

    let human_summary = render_summary(&phases);

    Ok(ProfileOutput {
        scenario: runner_scenario,
        seed,
        jobs,
        phases,
        spans_json,
        bench_json,
        folded,
        human_summary,
    })
}

/// Human attribution summary (stderr): per-phase wall time, per-worker
/// task counts, and the top self-time spans of each phase.
fn render_summary(phases: &[ProfilePhase]) -> String {
    let mut out = String::new();
    for p in phases {
        out.push_str(&format!(
            // spotweb-lint: allow(no-float-display-in-renderers) -- stderr wall-clock summary, never golden-locked
            "phase {} (jobs {}): {:.3}s wall",
            p.name, p.jobs, p.wall_secs
        ));
        if p.arrivals > 0 && p.wall_secs > 0.0 {
            let rps = p.arrivals as f64 / p.wall_secs;
            // spotweb-lint: allow(no-float-display-in-renderers) -- stderr wall-clock summary, never golden-locked
            out.push_str(&format!(", {} arrivals, {:.0} req/wall-s", p.arrivals, rps));
        }
        out.push('\n');
        for t in &p.profile.threads {
            let tasks = task_count(t);
            if tasks > 0 {
                out.push_str(&format!("  {}: {} task(s)\n", t.label, tasks));
            }
        }
        let merged = p.profile.merged();
        let mut flat: Vec<(String, f64, f64, u64)> = Vec::new();
        flatten(&merged, "", &mut flat);
        flat.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let total: f64 = flat.iter().map(|f| f.1).sum();
        for (path, self_secs, lock_secs, lock_waits) in flat.iter().take(6) {
            let share = if total > 0.0 {
                100.0 * self_secs / total
            } else {
                0.0
            };
            out.push_str(&format!(
                // spotweb-lint: allow(no-float-display-in-renderers) -- stderr wall-clock summary, never golden-locked
                "  {:>5.1}% self {:.3}s  {path}",
                share, self_secs
            ));
            if *lock_waits > 0 {
                // spotweb-lint: allow(no-float-display-in-renderers) -- stderr wall-clock summary, never golden-locked
                out.push_str(&format!("  (lock waits {lock_waits}, {:.4}s)", lock_secs));
            }
            out.push('\n');
        }
    }
    out
}

fn task_count(tree: &prof::SpanTree) -> u64 {
    tree.nodes
        .iter()
        .filter(|n| n.name == spotweb_telemetry::names::SPAN_SWEEP_TASK)
        .map(|n| n.count)
        .sum()
}

fn flatten(node: &prof::MergedNode, prefix: &str, out: &mut Vec<(String, f64, f64, u64)>) {
    let path = if node.name.is_empty() {
        String::new()
    } else if prefix.is_empty() {
        node.name.clone()
    } else {
        format!("{prefix};{}", node.name)
    };
    if !node.name.is_empty() {
        out.push((
            path.clone(),
            node.self_secs(),
            node.lock_wait_secs,
            node.lock_waits,
        ));
    }
    for c in &node.children {
        flatten(c, &path, out);
    }
}
