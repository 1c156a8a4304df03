//! `spotbench`: the SpotWeb benchmark.
//!
//! ```text
//! spotbench --workload <storm|diurnal|fleet36|grid> [--seed N] [--seconds S]
//!           [--trace 0|1] [--scale full|tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: it builds the
//! workload's inputs from the seed, then runs fixed-size passes over
//! them until `--seconds` is spent and reports work over time across
//! the passes.
//! `--trace 1` runs one untraced and one profiled pass of the same
//! workload and reports the per-layer metrics (see `layers`). Either
//! way the last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the lines before it
//! are a human-readable report. Every output check that fails is
//! printed and makes the exit code 1.

mod adapter;
mod layers;
mod stats;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use stats::{json_num, json_str, median, quantile};
use workloads::{prepare, run_pass, Pass, Sizes, Workload};

/// Setup samples per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 15;

/// Least host time one setup sample spans. A setup of a few
/// microseconds is repeated within a sample and averaged, so that a
/// sample is not timer and cache noise.
const SETUP_SAMPLE_SECS: f64 = 2e-3;

/// Samples a tail percentile must leave beyond it.
const TAIL_SAMPLES: usize = 10;

/// The highest percentile (at most the 99th) with at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it, as a fraction.
pub fn tail_quantile(n: usize) -> f64 {
    (1.0 - TAIL_SAMPLES as f64 / n.max(1) as f64).clamp(0.5, 0.99)
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in BENCHMARK.json.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// Shorthand constructor.
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
}

const USAGE: &str = "usage: spotbench --workload <storm|diurnal|fleet36|grid> [--seed N] \
                     [--seconds S] [--trace 0|1] [--scale full|tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = 1234u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut sizes = Sizes::full();
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !seconds.is_finite() || seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--scale" => {
                sizes = match value()?.as_str() {
                    "full" => Sizes::full(),
                    "tiny" => Sizes::tiny(),
                    other => return Err(format!("--scale takes full or tiny, not {other:?}")),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        sizes,
    })
}

/// Worker threads of the end-to-end passes: the grid fans out over
/// every core, everything else is one serial run.
fn e2e_jobs(workload: Workload) -> usize {
    if workload == Workload::Grid {
        stats::nproc()
    } else {
        1
    }
}

/// Build one pass's inputs.
fn prepared(args: &Args) -> workloads::Prepared {
    prepare(args.workload, args.seed, &args.sizes)
}

/// Median host seconds to build one pass's inputs. Runs after the timed
/// phase, so that the processor is past its start-up transient. The
/// inputs built in a sample stay alive until its clock stops: releasing
/// each set before building the next made the allocator hand memory back
/// and fault it in again, which doubled the run-to-run spread on a
/// virtual machine.
fn measure_setup(args: &Args) -> f64 {
    let samples: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let mut built = Vec::new();
            let t = Instant::now();
            while built.is_empty() || t.elapsed().as_secs_f64() < SETUP_SAMPLE_SECS {
                built.push(prepared(args));
            }
            t.elapsed().as_secs_f64() / built.len() as f64
        })
        .collect();
    median(&samples)
}

/// Bit-for-bit comparison of two passes' outcome metrics and digests.
fn compare_outcomes(what: &str, a: &Pass, b: &Pass, errors: &mut Vec<String>) {
    for ((name, x), (_, y)) in a.sim.iter().zip(&b.sim) {
        if x.to_bits() != y.to_bits() {
            errors.push(format!("{what}: {name} differs ({x:?} vs {y:?})"));
        }
    }
    if a.sim.len() != b.sim.len() {
        errors.push(format!("{what}: outcome metric sets differ"));
    }
    let mismatched = a
        .digests
        .iter()
        .zip(&b.digests)
        .filter(|(x, y)| x != y)
        .count();
    if mismatched > 0 || a.digests.len() != b.digests.len() {
        errors.push(format!("{what}: {mismatched} cell report digests differ"));
    }
}

/// The end-to-end run: passes until the time is spent.
fn end_to_end(args: &Args, errors: &mut Vec<String>) -> (Vec<Metric>, Vec<Pass>) {
    let w = args.workload;
    let jobs = e2e_jobs(w);
    let mut passes: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        passes.push(run_pass(w, prepared(args), jobs));
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / passes.len() as f64;
        if elapsed + per_pass > args.seconds {
            break;
        }
    }

    for (i, p) in passes.iter().enumerate() {
        errors.extend(p.errors.iter().cloned());
        if i > 0 {
            compare_outcomes(&format!("pass {i} vs pass 0"), &passes[0], p, errors);
        }
    }
    // Work over time across every pass. On a shared host whose speed
    // drifts over tens of seconds this varies less from run to run than
    // the median pass does.
    let wall: f64 = passes.iter().map(|p| p.wall).sum();
    let rate = |f: &dyn Fn(&Pass) -> f64| passes.iter().map(f).sum::<f64>() / wall;
    // Decision latency is the paper's optimizer's: SpotWeb MPO
    // decisions only (grid's zoo heuristics decide in microseconds).
    let decide_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.mpo_decide_secs.iter().map(|s| s * 1e3))
        .collect();
    let tail = tail_quantile(decide_ms.len());
    let peak_rss_mb = stats::peak_rss_mb();
    let metrics = vec![
        metric("sim_req_per_s", rate(&|p| p.requests), "1/s"),
        metric("intervals_per_s", rate(&|p| p.intervals as f64), "1/s"),
        metric("cells_per_s", rate(&|p| p.cells as f64), "1/s"),
        metric("setup_s", measure_setup(args), "s"),
        metric("peak_rss_mb", peak_rss_mb, "MiB"),
    ];
    println!(
        "# {} passes in {:.2} s, jobs {jobs}; {} MPO decisions timed: p50 {} ms, p{:.1} {} ms",
        passes.len(),
        start.elapsed().as_secs_f64(),
        decide_ms.len(),
        json_num(quantile(&decide_ms, 0.5)),
        100.0 * tail,
        json_num(quantile(&decide_ms, tail)),
    );
    let walls: Vec<String> = passes.iter().map(|p| format!("{:.3}", p.wall)).collect();
    println!("# pass walls (s): {}", walls.join(" "));
    print_outcome(&passes[0]);
    (metrics, passes)
}

/// Print a pass's outcome metrics, human-readable and as one JSON
/// line.
fn print_outcome(pass: &Pass) {
    let sim = workloads::outcome(pass);
    for (name, value, unit) in &sim {
        println!("# {name:<36} {:>18} {unit}", json_num(*value));
    }
    let body: Vec<String> = sim
        .iter()
        .map(|(n, v, _)| format!("{}: {}", json_str(n), json_num(*v)))
        .collect();
    println!("# outcome {{{}}}", body.join(", "));
}

fn print_meta(args: &Args) {
    println!(
        "# meta {{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"git_rev\":{},\"rustc\":{}}}",
        json_str(args.workload.name()),
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        stats::nproc(),
        json_str(&stats::command_line("git", &["rev-parse", "HEAD"])),
        json_str(&stats::command_line("rustc", &["--version"])),
    );
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("spotbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    print_meta(&args);
    let mut errors = Vec::new();
    let (metrics, passes) = if args.trace {
        layers::traced(&args, &mut errors)
    } else {
        end_to_end(&args, &mut errors)
    };
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let failed: u64 = passes.iter().map(|p| p.failed).sum();
    let dropped: f64 = passes.iter().map(|p| p.dropped).sum();
    let cells_failed: u64 = passes.iter().map(|p| p.cells_failed).sum();
    println!(
        "# accounting: attempted {attempted} {}, failed {failed}, simulated drops {dropped}, cells failing a check {cells_failed}",
        if args.workload.request_level() { "requests" } else { "decisions" }
    );
    for m in &metrics {
        println!("# {:<36} {:>18} {}", m.name, json_num(m.value), m.unit);
    }
    for e in &errors {
        println!("# CHECK FAILED: {e}");
    }
    let correct = errors.is_empty() && metrics.iter().all(|m| m.value.is_finite()) && attempted > 0;
    println!("{}", result_line(correct, attempted, failed, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
