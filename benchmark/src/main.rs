//! The repository's benchmark: four workloads, nine end-to-end metrics, and
//! a separate traced run for the per-layer numbers.  See `README.md`.
//!
//! ```text
//! omq-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every invocation first runs the correctness gate; then, per selected
//! workload, either the end-to-end run (`--trace 0`, the default) or the
//! traced run (`--trace 1`).  Each workload's report ends with one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`.  Any wrong answer
//! or failed operation exits non-zero and prints no metrics.

mod gate;
mod gen;
mod layers;
mod stats;
mod trace;
mod workload;

use gen::{hub, uni, Dataset, HubConfig, UniConfig};
use stats::{better_tail, median, percentile, Better};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{
    calibrate_ms, mismatch, round, setup, BenchError, BenchResult, Ops, PathKind, Samples, Spec,
    WORKLOADS,
};

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// `(name, unit, better)` of the nine end-to-end metrics, in print order:
/// two per-run values, then the seven of [`Samples::series`].
/// `BENCHMARK.json` carries the same list plus each metric's bound.
pub const E2E_METRICS: [(&str, &str, Better); 9] = [
    ("setup_s", "s", Better::Lower),
    ("peak_rss_mb", "MiB", Better::Lower),
    ("ttfa_ms", "ms", Better::Lower),
    ("complete_answers_per_s", "1/s", Better::Higher),
    ("partial_answers_per_s", "1/s", Better::Higher),
    ("multi_answers_per_s", "1/s", Better::Higher),
    ("count_ms", "ms", Better::Lower),
    ("op_p50_ms", "ms", Better::Lower),
    ("op_p90_ms", "ms", Better::Lower),
];

/// Instances of the workload per run, each set up from scratch; `setup_s`
/// is the second-best of their set-up times.
const SETUP_REPS: usize = 5;
/// An instance is measured for its share of `--seconds`, but never for
/// fewer rounds than this.
const MIN_ROUNDS: usize = 2;
/// End-to-end rounds of the traced run: this many untraced, this many
/// traced, alternating.
const TRACE_E2E_ROUNDS: u32 = 6;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 24.0,
        trace: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 || args.seconds > 3600.0 {
                    return Err("--seconds must be positive and at most 3600".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("{message}");
            eprintln!("usage: omq-benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1]");
            return ExitCode::from(2);
        }
    };
    match pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to cpu {cpu}"),
        Err(why) => println!("not pinned to one cpu ({why}): expect noisier numbers"),
    }
    for spec in WORKLOADS
        .iter()
        .filter(|w| args.workload.as_deref().is_none_or(|name| name == w.name))
    {
        let mut ops = Ops::default();
        let outcome = if args.trace {
            traced_run(spec, &args, &mut ops)
        } else {
            end_to_end_run(spec, &args, &mut ops)
        };
        match outcome {
            Ok(metrics) => print_result_line(&ops, &metrics),
            Err(error) => {
                eprintln!(
                    "{}: {error} (ops_attempted {}, ops_failed {})",
                    spec.name, ops.attempted, ops.failed
                );
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Restricts the process, and so every thread the program will start in
/// it, to the highest-numbered CPU it may run on (the lowest takes most of a
/// guest's interrupts).
///
/// The load is one closed loop, so one CPU can carry it.  With two, whenever
/// the program hands work to another thread (the server's worker, `count`'s
/// thread per shard) the other virtual CPU is woken from its halt by an
/// inter-processor interrupt, and how long that takes is the hypervisor's
/// business: alternating pinned and unpinned runs for half an hour,
/// live-refresh's `count_ms` (4 800 thread spawns) drifted 32 % unpinned
/// and 8 % pinned, and wire-paging's spread between runs was 5–11 % pinned
/// against 8–18 % unpinned.  What this costs: a second core's speed-up of
/// the program's own threads is not measured here.
fn pin_to_one_cpu() -> Result<usize, String> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // Room for 1024 CPUs, glibc's own `cpu_set_t`.
    let mut allowed = [0u64; 16];
    let bytes = std::mem::size_of_val(&allowed);
    // SAFETY: `allowed` is `bytes` long and writable; pid 0 is this thread.
    if unsafe { sched_getaffinity(0, bytes, allowed.as_mut_ptr()) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpu = (0..64 * allowed.len())
        .rev()
        .find(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .ok_or("empty affinity mask")?;
    let mut only = [0u64; 16];
    only[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `only` is `bytes` long and readable.  Called before any other
    // thread exists, so every later thread inherits the mask.
    if unsafe { sched_setaffinity(0, bytes, only.as_ptr()) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}

fn datasets(spec: &Spec, seed: u64) -> (Dataset, Dataset) {
    if spec.uni {
        (uni(seed, UniConfig::FULL), uni(seed, UniConfig::SMALL))
    } else {
        (hub(seed, HubConfig::FULL), hub(seed, HubConfig::SMALL))
    }
}

/// The correctness gate (see `gate.rs`): runs before any timing.
fn gate(spec: &Spec, ds: &Dataset, small: &Dataset, ops: &mut Ops) -> BenchResult<()> {
    gate::oracle(small, ops)?;
    let reference = gate::reference(ds, ops)?;
    if spec.path != PathKind::InProcess {
        let own = gate::digests(setup(spec, ds, ops)?.as_mut(), ops)?;
        if own != reference {
            return mismatch(format!(
                "{} returns different answer sets than the in-process path: {own:?} vs {reference:?}",
                spec.name
            ));
        }
    }
    println!(
        "{}: {}\n{}: gate passed on {} (seed {}, {} facts, digest {:x}); answer sets {} {} {}",
        spec.name,
        spec.why,
        spec.name,
        ds.name,
        ds.seed,
        ds.rows.len(),
        ds.digest(),
        reference[0],
        reference[1],
        reference[2],
    );
    Ok(())
}

fn peak_rss_mb() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| BenchError(format!("/proc/self/status: {e}")))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| BenchError("no VmHWM in /proc/self/status".into()))
}

type Metrics = Vec<(&'static str, &'static str, f64)>;

fn end_to_end_run(spec: &Spec, args: &Args, ops: &mut Ops) -> BenchResult<Metrics> {
    let (ds, small) = datasets(spec, args.seed);
    gate(spec, &ds, &small, ops)?;

    // The run is SETUP_REPS instances of the workload one after the other:
    // each is set up from scratch (timed, warm-up round included), measured
    // for its share of `--seconds`, and torn down (untimed).  So `setup_s`
    // has several samples, and no single instance's luck with addresses,
    // hash seeds or thread placement sets the run's values.
    let mut tr = Tracer::new(false);
    let mut setups: Vec<f64> = Vec::new();
    let mut samples = Samples::default();
    let mut calib: Vec<f64> = Vec::new();
    let mut measured = 0.0;
    for instance in 1..=SETUP_REPS {
        let start = Instant::now();
        let mut path = setup(spec, &ds, ops)?;
        round(
            path.as_mut(),
            &spec.batches,
            &mut Samples::default(),
            &mut tr,
            ops,
        )?;
        setups.push(start.elapsed().as_secs_f64());

        // This instance's rounds end when its share of `--seconds` is used
        // up, counted over the whole run so that the last rounds' overruns
        // do not add up.
        let until = args.seconds * instance as f64 / SETUP_REPS as f64;
        let start = Instant::now();
        let mut rounds = 0;
        while rounds < MIN_ROUNDS || measured + start.elapsed().as_secs_f64() < until {
            calib.push(calibrate_ms());
            round(path.as_mut(), &spec.batches, &mut samples, &mut tr, ops)?;
            rounds += 1;
        }
        measured += start.elapsed().as_secs_f64();
    }

    println!(
        "{}: {} rounds in {measured:.1} s; bench.calib_ms median {:.2} (min {:.2}, max {:.2})",
        spec.name,
        calib.len(),
        median(&calib),
        percentile(&calib, 0.0),
        percentile(&calib, 100.0),
    );
    println!(
        "  {:<24} {:>14} {:<5} {:>14} {:>14} {:>7}",
        "metric", "value", "unit", "median", "worse quartile", "samples"
    );
    let mut metrics: Metrics = Vec::new();
    for (i, (name, unit, better)) in E2E_METRICS.into_iter().enumerate() {
        let (value, mid, worse, n) = match i {
            // A set-up lasts 0.3–1 s, too long to lie inside a calm spell
            // of the host more than once or twice in five: the second-best
            // is the best that one lucky instance cannot set.
            0 => {
                let mut sorted = setups.clone();
                sorted.sort_by(f64::total_cmp);
                (
                    sorted[1],
                    median(&setups),
                    sorted[SETUP_REPS - 2],
                    SETUP_REPS,
                )
            }
            1 => {
                let rss = peak_rss_mb()?;
                (rss, rss, rss, 1)
            }
            _ => {
                let values = samples.series()[i - 2];
                let worse = match better {
                    Better::Lower => 75.0,
                    Better::Higher => 25.0,
                };
                (
                    better_tail(values, better),
                    median(values),
                    percentile(values, worse),
                    values.len(),
                )
            }
        };
        println!("  {name:<24} {value:>14.4} {unit:<5} {mid:>14.4} {worse:>14.4} {n:>7}");
        metrics.push((name, unit, value));
    }
    Ok(metrics)
}

fn traced_run(spec: &Spec, args: &Args, ops: &mut Ops) -> BenchResult<Metrics> {
    let (ds, small) = datasets(spec, args.seed);
    gate(spec, &ds, &small, ops)?;

    // The workload's own rounds, untraced and traced in alternation: the
    // trace file shows one request's calls on the workload's path, and the
    // difference between the two kinds of round is the tracing overhead.
    let mut tr = Tracer::new(false);
    let mut path = setup(spec, &ds, ops)?;
    round(
        path.as_mut(),
        &spec.batches,
        &mut Samples::default(),
        &mut tr,
        ops,
    )?; // warm-up
    let mut wall = [Vec::new(), Vec::new()];
    let mut samples = [Samples::default(), Samples::default()];
    for i in 0..2 * TRACE_E2E_ROUNDS {
        let traced = i % 2 == 1;
        tr.set_enabled(traced);
        tr.set_round(i / 2);
        let start = Instant::now();
        tr.span("e2e.round", |tr| {
            round(
                path.as_mut(),
                &spec.batches,
                &mut samples[usize::from(traced)],
                tr,
                ops,
            )
        })?;
        wall[usize::from(traced)].push(start.elapsed().as_secs_f64());
    }
    let [_, traced_samples] = samples;
    drop(path);
    let overhead_pct =
        100.0 * (better_tail(&wall[1], Better::Lower) / better_tail(&wall[0], Better::Lower) - 1.0);

    tr.set_enabled(true);
    let mut values = layers::run(&ds, &mut tr, ops)?;
    values.push(("bench.trace_overhead_pct", overhead_pct));

    let out_dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out_dir.join(format!("trace-{}.json", spec.name));
    std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&file, tr.to_json(spec.name, args.seed)))
        .map_err(|e| BenchError(format!("{}: {e}", file.display())))?;

    println!(
        "{}: {} spans written to {}",
        spec.name,
        tr.spans().len(),
        file.display()
    );
    let mut metrics: Metrics = Vec::new();
    for (name, unit, _) in layers::METRICS {
        let (_, value) = values
            .iter()
            .find(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("layer metric {name} was not measured"));
        println!("  {name:<44} {value:>16.3} {unit}");
        metrics.push((name, unit, *value));
    }
    reconcile(spec, &metrics, &traced_samples);
    Ok(metrics)
}

/// Prints how the layer numbers add up to the end-to-end ones of the traced
/// rounds of the same run.  Informational: the layers are timed by separate
/// calls, so a few percent of disagreement is measurement, not error.
fn reconcile(spec: &Spec, layer: &Metrics, traced: &Samples) {
    let get = |name: &str| {
        layer
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(f64::NAN, |(_, _, v)| *v)
    };
    let e2e = |series: &[f64]| better_tail(series, Better::Lower);
    let line = |what: &str, parts: f64, whole: f64| {
        println!(
            "  reconcile {what}: {parts:.4} vs {whole:.4} ({:+.1} %)",
            100.0 * (parts / whole - 1.0)
        );
    };
    match spec.path {
        PathKind::InProcess => line(
            "chase.warm_ms + data.columnar_build_ms + core.structure_partial_ms + core.open_us.partial vs ttfa_ms",
            get("chase.warm_ms")
                + get("data.columnar_build_ms")
                + get("core.structure_partial_ms")
                + get("core.open_us.partial") / 1e3,
            e2e(&traced.ttfa_ms),
        ),
        PathKind::Wire => {
            line(
                "server.conn_fetch_us + wire.decode_page_us + server.poll_wait_us vs server.fetch_rtt_us",
                get("server.conn_fetch_us") + get("wire.decode_page_us") + get("server.poll_wait_us"),
                get("server.fetch_rtt_us"),
            );
            line(
                "server.fetch_rtt_us vs op_p50_ms",
                get("server.fetch_rtt_us") / 1e3,
                e2e(&traced.op_p50_ms),
            );
            line(
                "3 x server.rtt_floor_us + serve.open_us vs ttfa_ms",
                (3.0 * get("server.rtt_floor_us") + get("serve.open_us")) / 1e3,
                e2e(&traced.ttfa_ms),
            );
        }
        PathKind::Live => line(
            "serve.register_data_us + serve.open_us vs ttfa_ms",
            (get("serve.register_data_us") + get("serve.open_us")) / 1e3,
            e2e(&traced.ttfa_ms),
        ),
    }
}

/// The contract's last line: one JSON object, values with all their digits.
fn print_result_line(ops: &Ops, metrics: &Metrics) {
    println!(
        "  ops_attempted {} ops_failed {}",
        ops.attempted, ops.failed
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use omq_wire::json::{self, Json};

    /// `BENCHMARK.json` must describe exactly what the binary prints: the
    /// four workloads, the nine end-to-end metrics, every per-layer metric,
    /// each with the unit and direction the code uses.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).unwrap().to_vec();
        let text =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_owned();
        let better = |b: Better| match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        };

        let workloads: Vec<(String, String)> = list("workloads")
            .iter()
            .map(|w| (text(w, "name"), text(w, "why")))
            .collect();
        let expected: Vec<(String, String)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_owned(), w.why.to_owned()))
            .collect();
        assert_eq!(workloads, expected);

        let described = |key: &str| -> Vec<(String, String, String)> {
            list(key)
                .iter()
                .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
                .collect()
        };
        let in_code = |metrics: &[(&str, &str, Better)]| -> Vec<(String, String, String)> {
            metrics
                .iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), better(*b).to_owned()))
                .collect()
        };
        assert_eq!(described("end_to_end"), in_code(&E2E_METRICS));
        assert_eq!(described("per_layer"), in_code(layers::METRICS));

        // `setup_s` carries the largest bound, and none exceeds a quarter.
        let bound = |m: &Json| match m.get("bound") {
            Some(Json::Num(b)) => *b,
            other => panic!("bound must be a fraction, not {other:?}"),
        };
        let bounds: Vec<(String, f64)> = list("end_to_end")
            .iter()
            .map(|m| (text(m, "name"), bound(m)))
            .collect();
        let setup = bounds.iter().find(|(n, _)| n == "setup_s").unwrap().1;
        assert!(bounds.iter().all(|(_, b)| *b <= setup && *b <= 0.25));
        assert_eq!(doc.get("paths").and_then(Json::as_arr).unwrap().len(), 1);
    }
}
