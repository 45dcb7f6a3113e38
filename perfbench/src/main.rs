//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <scan_q1|oltp_tpcc|tenants_burst> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Repeats rounds of the workload (fresh inputs from the seed, fresh
//! device, measured phase, checks) for at least `--seconds` host
//! seconds and at least [`MIN_ROUNDS`] rounds, and prints one JSON
//! object as its last line: the end-to-end metrics with `--trace 0`,
//! the per-layer metrics with `--trace 1`. Host metrics are medians
//! over rounds; the end-to-end ones are in reference seconds, rescaled
//! by the [`reference`] kernel timed before and after each round, so
//! that the host's own speed drifts cancel. Simulated metrics must be
//! identical in every round (and between traced and untraced rounds),
//! or the run fails. With `--trace 1` rounds alternate untraced and
//! traced, the spans of the last traced round are written to
//! `perfbench/out/`, and the gap between the two kinds of rounds is
//! the tracing overhead.
//!
//! Exits 1 when any check fails.

mod batch;
mod layers;
mod probe;
mod reference;
mod round;
mod tenants;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use probe::Span;
use round::{Round, Workload};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Fewest rounds per run: the set-up time is their median.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ScanQ1,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or(format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad)?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad)?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The `q`-quantile of `values`, interpolated between closest ranks.
fn quantile(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Fixes glibc's heap thresholds, which otherwise adapt to the
/// process's own allocation history: from one process to the next, the
/// same round then either reuses the heap or returns it to the kernel
/// and page-faults it back (0 or ~10k faults in `tenants_burst`'s
/// `populate`, 28 or 43 ms), and `setup_s` follows. With trimming off
/// and the mmap threshold at its ceiling, every round after the second
/// reuses the heap.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn steady_allocator() {
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` takes two integers, touches only the
    // allocator's own settings, and is called before any other thread
    // exists; both values are in the ranges glibc documents.
    let set = unsafe {
        [
            mallopt(M_TRIM_THRESHOLD, i32::MAX),
            mallopt(M_MMAP_THRESHOLD, 32 << 20),
        ]
    };
    if set.contains(&0) {
        eprintln!("perfbench: warning: mallopt refused a heap threshold");
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn steady_allocator() {}

/// Peak resident memory of this process, from `VmHWM`; the reference
/// kernel's buffers are part of it.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// The unit of a metric, from its name.
fn unit(name: &str) -> &'static str {
    let ends = |suffix| name.ends_with(suffix);
    if ends("pages_per_wall_s") || ends("pages_per_ref_s") {
        "pages/s"
    } else if name.contains("host_ns") || ends("_ns_mean") || ends("_per_event") {
        "ns"
    } else if ends("_us") || name.contains("_us_") {
        "us"
    } else if ends("_ms") {
        "ms"
    } else if ends("_s") {
        "s"
    } else if ends("_mib") {
        "MiB"
    } else if ends("_pct") {
        "%"
    } else if ends("_vs_isc") {
        "x"
    } else if ends("_bytes") {
        "bytes"
    } else if ends("_rate") || ends("_amplification") || name.contains("_per_") {
        "ratio"
    } else {
        "count"
    }
}

/// What one round leaves once its device is dropped.
struct Summary {
    traced: bool,
    /// Pages retired per host second of the measured phase.
    pages_per_wall_s: f64,
    /// Host seconds of one reference pass beside the round: the mean
    /// of the passes before and after it.
    ref_pass_s: f64,
    /// `setup_s` in reference seconds.
    setup_ref_s: f64,
    /// Pages retired per reference second of the measured phase.
    pages_per_ref_s: f64,
    /// The end-to-end `sim_*` metrics and every simulated per-layer
    /// number.
    sim: BTreeMap<&'static str, f64>,
    /// Per-layer host-time numbers (traced rounds only).
    host: Vec<(&'static str, f64)>,
}

fn summarize(r: &Round, ref_pass_s: f64) -> Summary {
    let m = &r.measured;
    let s = &m.probe.ledger.samples;
    let mut sim: BTreeMap<_, _> = layers::simulated(m, r.batches).into_iter().collect();
    sim.extend([
        ("sim_runtime_s", m.makespan.as_secs_f64()),
        ("sim_read_p50_us", layers::quantile_us(&s.read, 0.50)),
        ("sim_read_p90_us", layers::quantile_us(&s.read, 0.90)),
    ]);
    if let Some((rows, checksum)) = r.output {
        sim.insert("workloads.output_rows", rows as f64);
        sim.insert("workloads.output_checksum", checksum);
    }
    let host = if r.traced {
        layers::host(m)
    } else {
        Vec::new()
    };
    Summary {
        traced: r.traced,
        pages_per_wall_s: m.probe.ledger.pages_done as f64 / m.wall_s,
        ref_pass_s,
        setup_ref_s: reference::to_reference_s(m.setup.total_s(), ref_pass_s),
        pages_per_ref_s: m.probe.ledger.pages_done as f64
            / reference::to_reference_s(m.wall_s, ref_pass_s),
        sim,
        host,
    }
}

/// Flags every simulated number that differs from the first round that
/// reported it.
fn determinism(rounds: &[Summary], errors: &mut Vec<String>) -> BTreeMap<&'static str, f64> {
    let mut first: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (i, r) in rounds.iter().enumerate() {
        for (&name, &value) in &r.sim {
            let seen = *first.entry(name).or_insert(value);
            if seen.to_bits() != value.to_bits() {
                errors.push(format!("round {i}: {name} = {value}, round 0 had {seen}"));
            }
        }
    }
    first
}

fn write_spans(spans: &[Span], args: &Args) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench/out");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("spans-{}-{}.csv", args.workload.name(), args.seed));
    let mut out = String::from("id,name,start_ns,end_ns,parent,ticket,calls\n");
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        let ticket = s.ticket.map_or(String::new(), |t| t.to_string());
        let _ = writeln!(
            out,
            "{i},{},{},{},{parent},{ticket},{}",
            s.call.name(),
            s.start_ns,
            s.end_ns,
            s.calls
        );
    }
    std::fs::write(&path, out)?;
    Ok(path.display().to_string())
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[(&str, f64)]) {
    let mut body = String::new();
    for (i, (name, value)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            unit(name)
        );
    }
    let mut stdout = std::io::stdout().lock();
    let _ = writeln!(
        stdout,
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    steady_allocator();
    let began = Instant::now();
    let mut rounds: Vec<Summary> = Vec::new();
    let mut spans = Vec::new();
    let mut errors = Vec::new();
    let mut attempted = 0;
    let mut failed = 0;
    let mut reference = reference::Reference::new();
    while rounds.len() < MIN_ROUNDS || began.elapsed().as_secs_f64() < args.seconds {
        let traced = args.trace && rounds.len() % 2 == 1;
        let ref_before = reference.pass_s();
        match round::run(args.workload, args.seed, traced) {
            Ok(mut r) => {
                let ref_pass_s = (ref_before + reference.pass_s()) / 2.0;
                let ledger = &r.measured.probe.ledger;
                attempted += ledger.pages_attempted;
                failed += ledger.failures;
                errors.extend(ledger.errors.iter().cloned());
                rounds.push(summarize(&r, ref_pass_s));
                if traced {
                    spans = r.measured.probe.take_spans();
                }
            }
            Err(e) => {
                attempted += 1;
                failed += 1;
                errors.push(format!("round {}: {e}", rounds.len()));
                break;
            }
        }
        if !errors.is_empty() {
            break;
        }
    }
    let sim = determinism(&rounds, &mut errors);

    let untraced: Vec<&Summary> = rounds.iter().filter(|r| !r.traced).collect();
    let traced: Vec<&Summary> = rounds.iter().filter(|r| r.traced).collect();
    let median =
        |rs: &[&Summary], f: fn(&Summary) -> f64| quantile(rs.iter().map(|r| f(r)).collect(), 0.5);
    let mut metrics: Vec<(&str, f64)> = Vec::new();
    if errors.is_empty() && !args.trace {
        match round::isc_makespan(args.workload, args.seed) {
            Ok(isc) => {
                let all: Vec<&Summary> = rounds.iter().collect();
                metrics.extend([
                    ("setup_s", median(&all, |r| r.setup_ref_s)),
                    ("pages_per_ref_s", median(&untraced, |r| r.pages_per_ref_s)),
                    (
                        "peak_rss_mib",
                        peak_rss_mib() - reference::Reference::RESIDENT_MIB,
                    ),
                    ("sim_runtime_s", sim["sim_runtime_s"]),
                    (
                        "sim_runtime_vs_isc",
                        sim["sim_runtime_s"] / isc.as_secs_f64(),
                    ),
                    ("sim_read_p50_us", sim["sim_read_p50_us"]),
                    ("sim_read_p90_us", sim["sim_read_p90_us"]),
                ]);
            }
            Err(e) => errors.push(e),
        }
    }
    if errors.is_empty() && args.trace {
        for (i, &(name, _)) in traced[0].host.iter().enumerate() {
            metrics.push((
                name,
                quantile(traced.iter().map(|r| r.host[i].1).collect(), 0.5),
            ));
        }
        let overhead = (median(&untraced, |r| r.pages_per_ref_s)
            / median(&traced, |r| r.pages_per_ref_s)
            - 1.0)
            * 100.0;
        metrics.extend([
            ("bench.tracing_overhead_pct", overhead),
            (
                "bench.pages_per_wall_s",
                median(&untraced, |r| r.pages_per_wall_s),
            ),
            (
                "bench.ref_pass_ms",
                median(&untraced, |r| r.ref_pass_s) * 1e3,
            ),
        ]);
        metrics.extend(
            sim.iter()
                .filter(|(name, _)| {
                    !name.starts_with("sim_") && !name.starts_with("workloads.output")
                })
                .map(|(&name, &v)| (name, v)),
        );
        let dominant = metrics
            .iter()
            .filter(|(name, _)| name.ends_with(".wall_pct"))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("every call has a share");
        eprintln!(
            "perfbench: dominant layer {} ({:.1}% of measured wall time)",
            dominant.0, dominant.1
        );
        match write_spans(&spans, &args) {
            Ok(path) => eprintln!("perfbench: spans written to {path}"),
            Err(e) => errors.push(format!("writing spans: {e}")),
        }
    }

    for e in &errors {
        eprintln!("perfbench: FAILED: {e}");
    }
    let correct = errors.is_empty();
    if correct {
        eprintln!(
            "perfbench: {} seed {} ({} rounds, {} traced): {} pages attempted, {} failed, op_fail_ratio {}",
            args.workload.name(),
            args.seed,
            rounds.len(),
            traced.len(),
            attempted,
            failed,
            failed as f64 / attempted.max(1) as f64
        );
        let rates: Vec<String> = untraced
            .iter()
            .map(|r| format!("{:.0}/{:.1}", r.pages_per_wall_s, r.ref_pass_s * 1e3))
            .collect();
        eprintln!(
            "perfbench: untraced rounds, pages/s / reference pass ms: {}",
            rates.join(" ")
        );
    }
    print_result(
        correct,
        attempted.max(1),
        failed.max(u64::from(!correct)),
        &metrics,
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
