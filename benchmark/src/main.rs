//! `lotusx-loadgen`: the repository's serving benchmark.
//!
//! ```text
//! lotusx-loadgen --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!                [--lifetimes L] [--serve-bin PATH] [--out DIR]
//! ```
//!
//! One invocation measures one workload. `--trace 0` (the default)
//! boots the real `lotusx-serve` binary `L` times, drives each lifetime
//! for `S / L` seconds over loopback and prints the end-to-end metrics;
//! `--trace 1` prints the per-layer metrics instead (one plain and one
//! access-logged lifetime plus an in-process replay under spans). The
//! last line of standard output is one JSON object; see `README.md` for
//! the method and every metric's definition.

mod client;
mod generator;
mod procfs;
mod replica;
mod server;
mod spans;
mod stats;
mod trace;
mod workload;

use generator::{Generator, Oracle, PassLog};
use replica::Replica;
use server::{Scrape, ServerProcess};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workload::Workload;

/// Server lifetimes per run. Address-space layout and the per-process
/// hash seeds make single lifetimes differ (±6 % on `query-hot`), and
/// the host disturbs some; five of four seconds each sample that
/// without freezing ASLR and leave the slowest workload (33 sessions a
/// second) more than ten samples beyond a lifetime's p90.
const DEFAULT_LIFETIMES: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Measured seconds of the whole run, split evenly over lifetimes.
    pub seconds: f64,
    pub trace: bool,
    pub lifetimes: usize,
    pub serve_bin: PathBuf,
    pub out: PathBuf,
}

const USAGE: &str = "usage: lotusx-loadgen --workload query-hot|query-cold|complete-keystroke|session-mix \
                     [--seed N] [--seconds S] [--trace 0|1] [--lifetimes L] [--serve-bin PATH] [--out DIR]";

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2012,
        seconds: 20.0,
        trace: false,
        lifetimes: DEFAULT_LIFETIMES,
        serve_bin: PathBuf::from("target/release/lotusx-serve"),
        out: PathBuf::from("benchmark/out"),
    };
    let mut iter = raw.iter();
    while let Some(flag) = iter.next() {
        let value = iter
            .next()
            .ok_or_else(|| format!("{flag} requires a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--lifetimes" => args.lifetimes = value.parse().map_err(|_| bad())?,
            "--serve-bin" => args.serve_bin = PathBuf::from(value),
            "--out" => args.out = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if workload::spec(&args.workload).is_none() {
        return Err(format!("unknown or missing --workload {:?}", args.workload));
    }
    if !(args.seconds.is_finite() && args.seconds >= 0.1 && args.seconds <= 600.0) {
        return Err("--seconds must be between 0.1 and 600".to_string());
    }
    if args.lifetimes == 0 || args.lifetimes > 64 {
        return Err("--lifetimes must be between 1 and 64".to_string());
    }
    Ok(args)
}

/// Pins the process to one CPU and returns the line that records where
/// and how the run was taken.
fn pin_and_describe(args: &Args) -> String {
    // Read before pinning: afterwards the allowed set is one CPU.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = match procfs::pin_to_lowest_cpu() {
        Ok(cpu) => format!("true cpu={cpu}"),
        Err(e) => {
            eprintln!(
                "WARNING: pinned=false — sched_setaffinity refused ({e}); the generator and \
                 the server will migrate between CPUs and the numbers will be noisier"
            );
            "false cpu=-".to_string()
        }
    };
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "env: nproc={nproc} pinned={cpu} kernel={kernel} lifetimes={}x{:.2}s seed={} server_rev={}",
        args.lifetimes,
        args.seconds / args.lifetimes as f64,
        args.seed,
        git_revision()
    )
}

/// The checked-out commit, read from `.git` without spawning anything;
/// `unknown` outside a git checkout (the driver's copy is not one).
fn git_revision() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let rev = read(".git/HEAD").and_then(|head| match head.strip_prefix("ref: ") {
        Some(reference) => read(&format!(".git/{reference}")),
        None => Some(head),
    });
    rev.map_or("unknown".to_string(), |r| r.chars().take(12).collect())
}

/// One boot-to-shutdown life of a server and what was measured in it.
pub struct Lifetime {
    pub boot: Duration,
    pub warm: PassLog,
    pub measured: PassLog,
    /// Server `utime + stime` over the measured pass, in clock ticks.
    pub server_ticks: u64,
    /// The generator's own, same interval.
    pub client_ticks: u64,
    pub peak_rss_kb: u64,
    /// `/stats` right before and right after the measured pass.
    pub before: Scrape,
    pub after: Scrape,
}

/// Untimed pass per lifetime: long enough to fault everything in and
/// fill the caches the workload relies on, short next to the measured
/// pass.
fn warm_up_for(measure: Duration) -> Duration {
    measure
        .div_f64(3.0)
        .clamp(Duration::from_millis(250), Duration::from_secs(1))
}

pub fn run_lifetime(
    args: &Args,
    replica: &Replica,
    workload: &Workload,
    oracle: &mut Oracle<'_>,
    measure: Duration,
    access_log: Option<&Path>,
) -> Result<Lifetime, String> {
    let extra: Vec<String> = access_log
        .map(|p| vec!["--access-log".to_string(), p.display().to_string()])
        .unwrap_or_default();
    let log = args.out.join(format!("{}.server.log", workload.spec.name));
    let mut server = ServerProcess::spawn(&args.serve_bin, &replica.server_args(), &extra, &log)?;
    let mut generator = Generator::connect(workload, server.addr)?;

    // A workload defined by "every query hits" needs every key cached
    // before the clock starts, however slow the first answers are.
    let all_hits = workload.spec.hits_per_op > 0 && workload.spec.misses_per_op == 0;
    let warm_ops = if all_hits { workload.ops.len() } else { 0 };
    let mut warm = generator.run(warm_up_for(measure), warm_ops, Some(oracle))?;
    let before = server.scrape()?;
    let server_before = server.cpu_ticks()?;
    let client_before = procfs::cpu_ticks(None).map_err(|e| e.to_string())?;
    let mut measured = generator.run(measure, 0, None)?;
    let client_after = procfs::cpu_ticks(None).map_err(|e| e.to_string())?;
    let server_after = server.cpu_ticks()?;
    let after = server.scrape()?;
    let peak_rss_kb = server.peak_rss_kb()?;
    let boot = server.boot;
    drop(generator);
    server.shutdown()?;

    warm.verify(oracle)?;
    measured.verify(oracle)?;
    let lifetime = Lifetime {
        boot,
        warm,
        measured,
        server_ticks: server_after.total() - server_before.total(),
        client_ticks: client_after.total() - client_before.total(),
        peak_rss_kb,
        before,
        after,
    };
    check_gates(workload, &lifetime)?;
    Ok(lifetime)
}

/// Boots a server, stops it as soon as it listens, and returns how long
/// the boot took: one more sample for `setup_s`.
fn boot_only(args: &Args, replica: &Replica, workload: &str) -> Result<Duration, String> {
    let log = args.out.join(format!("{workload}.server.log"));
    let server = ServerProcess::spawn(&args.serve_bin, &replica.server_args(), &[], &log)?;
    let boot = server.boot;
    server.shutdown()?;
    Ok(boot)
}

impl Lifetime {
    /// How far a `server` counter of `/stats` moved over the measured pass.
    pub fn server_delta(&self, counter: &str) -> u64 {
        self.after.server(counter) - self.before.server(counter)
    }

    /// The same for a named obs counter (`cache_hit`, `algo_chosen_*`, …).
    pub fn counter_delta(&self, counter: &str) -> u64 {
        self.after.counter(counter) - self.before.counter(counter)
    }
}

/// The validity gates: conditions under which the numbers would not
/// mean what their names say. A broken gate invalidates the run.
fn check_gates(workload: &Workload, lifetime: &Lifetime) -> Result<(), String> {
    let name = workload.spec.name;
    for counter in ["rejected", "panics"] {
        if lifetime.after.server(counter) != 0 {
            return Err(format!(
                "{name}: invalid run — server counter `{counter}` reads {}",
                lifetime.after.server(counter)
            ));
        }
    }
    let measured = &lifetime.measured;
    if measured.failed > 0 {
        // Failed operations are reported as such; the exact-count gates
        // below presuppose that every operation ran to its end.
        return Ok(());
    }
    let ops = measured.attempted();
    let hits = lifetime.counter_delta("cache_hit");
    let misses = lifetime.counter_delta("cache_miss");
    let (want_hits, want_misses) = (
        ops * workload.spec.hits_per_op,
        ops * workload.spec.misses_per_op,
    );
    if (hits, misses) != (want_hits, want_misses) {
        return Err(format!(
            "{name}: invalid run — query cache saw {hits} hits / {misses} misses over {ops} \
             operations, the workload is defined by {want_hits} / {want_misses}"
        ));
    }
    let accepted = lifetime.server_delta("connections_accepted");
    let want_accepted = if workload.spec.conns == 0 { ops } else { 0 };
    if accepted != want_accepted {
        return Err(format!(
            "{name}: invalid run — {accepted} connections accepted during the measured pass, \
             expected {want_accepted}"
        ));
    }
    Ok(())
}

/// A metric as printed: name, unit, value.
pub type Metric = (&'static str, &'static str, f64);

/// The timing metrics of one measured pass — or of several put together.
#[derive(Clone, Copy)]
struct Reading {
    throughput: f64,
    p50_us: f64,
    p90_us: f64,
    cpu_us_per_op: f64,
}

/// Reads the timing metrics off `lifetimes` as if they were one pass:
/// operations over seconds, percentiles of all latencies in one pool,
/// server CPU over operations. `None` when no operation succeeded.
fn reading(lifetimes: &[&Lifetime]) -> Option<Reading> {
    let ok: u64 = lifetimes.iter().map(|l| l.measured.ok()).sum();
    if ok == 0 {
        return None;
    }
    let seconds: f64 = lifetimes
        .iter()
        .map(|l| l.measured.elapsed.as_secs_f64())
        .sum();
    let ticks: u64 = lifetimes.iter().map(|l| l.server_ticks).sum();
    let mut latencies: Vec<u64> = lifetimes
        .iter()
        .flat_map(|l| l.measured.op_latencies())
        .collect();
    latencies.sort_unstable();
    let us =
        |p: f64| stats::percentile(&latencies, p).expect("ok > 0, so samples exist") as f64 / 1e3;
    Some(Reading {
        throughput: ok as f64 / seconds,
        p50_us: us(50.0),
        p90_us: us(90.0),
        cpu_us_per_op: ticks as f64 * procfs::tick_us() / ok as f64,
    })
}

/// Three ways to turn a run's lifetimes into one reading: the fastest
/// lifetime, the median one (both by throughput, all four numbers from
/// that lifetime), and every sample of every lifetime in one pool.
struct Estimates {
    best: Reading,
    median: Reading,
    pooled: Reading,
}

/// The fastest and the median of `readings`, by throughput; with an
/// even count the median is the slower of the middle two.
fn fastest_and_median(mut readings: Vec<Reading>) -> Option<(Reading, Reading)> {
    readings.sort_by(|a, b| a.throughput.total_cmp(&b.throughput));
    let best = *readings.last()?;
    Some((best, readings[(readings.len() - 1) / 2]))
}

fn estimates(lifetimes: &[Lifetime]) -> Option<Estimates> {
    let each = lifetimes.iter().filter_map(|l| reading(&[l])).collect();
    let (best, median) = fastest_and_median(each)?;
    let pooled = reading(&lifetimes.iter().collect::<Vec<_>>())?;
    Some(Estimates {
        best,
        median,
        pooled,
    })
}

impl Estimates {
    /// One line of JSON for standard error; `aa.sh` tabulates it.
    fn describe(&self) -> String {
        let one = |name: &str, r: &Reading| {
            format!(
                "\"{name}\": {{\"throughput_ops_s\": {}, \"latency_p50_us\": {}, \
                 \"latency_p90_us\": {}, \"server_cpu_us_per_op\": {}}}",
                r.throughput, r.p50_us, r.p90_us, r.cpu_us_per_op
            )
        };
        format!(
            "estimates: {{{}, {}, {}}}",
            one("best", &self.best),
            one("median", &self.median),
            one("pooled", &self.pooled)
        )
    }
}

/// The end-to-end metrics of a run. The three timings are those of the
/// **fastest lifetime**, all from that one lifetime (its p90 goes to
/// standard error with the other estimates: over repeated runs it
/// ranged too far for a bound, see README).
///
/// What disturbs a lifetime on this kind of host only ever slows it: a
/// neighbour thrashing the shared cache, a stalled vCPU, a slow
/// address-space layout; a real regression slows every lifetime, the
/// fastest included. Over repeated runs of one commit (README, "A/A")
/// the fastest lifetime repeated best in three sessions of four, and
/// the pool follows whichever lifetime a disturbance hit. The other two
/// estimates go to standard error with every run, so the choice can be
/// checked again anywhere.
/// `setup_s` is the median of all boots, `server_peak_rss_mb` the
/// maximum.
fn end_to_end(replica: &Replica, best: &Reading, boots: &[f64], peak_kb: u64) -> Vec<Metric> {
    vec![
        ("throughput_ops_s", "1/s", best.throughput),
        ("latency_p50_us", "us", best.p50_us),
        ("server_cpu_us_per_op", "us", best.cpu_us_per_op),
        (
            "setup_s",
            "s",
            stats::median_f64(boots).expect("at least one boot"),
        ),
        ("server_peak_rss_mb", "MB", peak_kb as f64 / 1024.0),
        (
            "snapshot_bytes_per_node",
            "B/node",
            replica.snapshot_bytes_per_node(),
        ),
    ]
}

/// The contract's result line: the last line of standard output.
fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        fields.join(", ")
    )
}

fn run(args: &Args) -> Result<(), String> {
    let environment = pin_and_describe(args);
    // The server records stage timings; the in-process copy of its
    // layers must run the same code.
    lotusx_obs::set_enabled(true);
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    if !args.serve_bin.is_file() {
        return Err(format!(
            "{} not found — build it with `cargo build --release -p lotusx-serve` \
             (benchmark/run.sh does)",
            args.serve_bin.display()
        ));
    }
    let spec = workload::spec(&args.workload).expect("validated by parse_args");
    let lifetimes = args.lifetimes;
    eprintln!("{environment}");
    eprintln!("{}: {}", spec.name, spec.why);

    let replica = Replica::prepare(spec, args.seed, &args.out)?;
    let workload = workload::build(spec, args.seed, &replica);
    for h in replica.hosted() {
        eprintln!(
            "corpus {}: {} elements, boots from {}",
            h.corpus.tenant,
            h.elements,
            h.boot_path().display()
        );
    }
    let measure = Duration::from_secs_f64(args.seconds / lifetimes as f64);
    let mut oracle = Oracle::new(&replica, &workload);

    let (attempted, failed, metrics) = if args.trace {
        trace::run(args, &replica, &workload, &mut oracle, measure)?
    } else {
        let mut done = Vec::new();
        let mut boots = Vec::new();
        for i in 0..lifetimes {
            // Boots are short next to what disturbs them, so each
            // lifetime is preceded by one more boot that only counts.
            boots.push(boot_only(args, &replica, spec.name)?.as_secs_f64());
            let l = run_lifetime(args, &replica, &workload, &mut oracle, measure, None)?;
            boots.push(l.boot.as_secs_f64());
            let r = reading(&[&l]);
            eprintln!(
                "lifetime {}/{}: boot {:.3}s, {} ops in {:.2}s, {} failed, p50 {:.1}us, p90 {:.1}us, cpu {:.2}us/op",
                i + 1,
                lifetimes,
                l.boot.as_secs_f64(),
                l.measured.attempted(),
                l.measured.elapsed.as_secs_f64(),
                l.measured.failed + l.warm.failed,
                r.as_ref().map_or(0.0, |r| r.p50_us),
                r.as_ref().map_or(0.0, |r| r.p90_us),
                r.as_ref().map_or(0.0, |r| r.cpu_us_per_op),
            );
            done.push(l);
        }
        let count = |f: fn(&PassLog) -> u64| -> u64 {
            done.iter().map(|l| f(&l.warm) + f(&l.measured)).sum()
        };
        let fewest = done.iter().map(|l| l.measured.ops.len()).min().unwrap_or(0);
        eprintln!(
            "at least {fewest} samples per lifetime, {} beyond its p90",
            stats::samples_beyond(fewest, 90.0)
        );
        let estimates = estimates(&done).ok_or("no operation succeeded")?;
        eprintln!("{}", estimates.describe());
        let peak_kb = done.iter().map(|l| l.peak_rss_kb).max().unwrap_or(0);
        (
            count(PassLog::attempted),
            count(|p| p.failed),
            end_to_end(&replica, &estimates.best, &boots, peak_kb),
        )
    };

    for (name, unit, value) in &metrics {
        println!("{name:<36} {value:>16.4} {unit}");
    }
    println!("{}", result_line(attempted, failed, &metrics));
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_invocation_parses() {
        let a = parse_args(&strings(&[
            "--workload",
            "query-cold",
            "--seed",
            "7",
            "--seconds",
            "14",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("query-cold", 7, 14.0, true)
        );
        assert_eq!(a.lifetimes, DEFAULT_LIFETIMES);
    }

    #[test]
    fn bad_invocations_are_refused() {
        for bad in [
            &["--workload", "nope"][..],
            &["--seed", "1"],
            &["--workload", "query-hot", "--trace", "2"],
            &["--workload", "query-hot", "--seconds", "0"],
            &["--workload", "query-hot", "--lifetimes", "0"],
            &["--workload", "query-hot", "--seed"],
            &["--workload", "query-hot", "--frobnicate", "1"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let line = result_line(
            10,
            0,
            &[("latency_p50_us", "us", 63.25), ("setup_s", "s", 0.3)],
        );
        let doc = lotusx_obs::parse_json(&line).unwrap();
        assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(true));
        assert_eq!(doc.get("attempted").and_then(|v| v.as_f64()), Some(10.0));
        assert_eq!(doc.get("failed").and_then(|v| v.as_f64()), Some(0.0));
        let m = doc.get("metrics").unwrap();
        let p50 = m.get("latency_p50_us").unwrap();
        assert_eq!(p50.get("value").and_then(|v| v.as_f64()), Some(63.25));
        assert_eq!(p50.get("unit").and_then(|v| v.as_str()), Some("us"));
        assert!(result_line(10, 1, &[]).contains("\"correct\": false"));
    }

    /// `BENCHMARK.json` and the code must name the same workloads and
    /// metrics; the driver refuses a result line that misses one.
    #[test]
    fn benchmark_json_matches_the_code() {
        let doc = lotusx_obs::parse_json(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |section: &str| -> Vec<(String, String)> {
            doc.get(section)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let listed = doc.get("workloads").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(listed.len(), workload::SPECS.len());
        for (spec, w) in workload::SPECS.iter().zip(listed) {
            assert_eq!(w.get("name").and_then(|v| v.as_str()), Some(spec.name));
            assert_eq!(w.get("why").and_then(|v| v.as_str()), Some(spec.why));
        }
        // Every metric is written as a `"name", "unit"` pair of literals.
        let squash = |src: &str| src.split_whitespace().collect::<String>();
        for (section, source) in [
            ("end_to_end", squash(include_str!("main.rs"))),
            ("per_layer", squash(include_str!("trace.rs"))),
        ] {
            for (name, unit) in &names(section) {
                let literal = format!("\"{name}\",\"{unit}\"");
                assert!(
                    source.contains(&literal),
                    "{section}: {name} [{unit}] is not printed"
                );
            }
        }
    }

    #[test]
    fn fastest_and_median_lifetime_by_throughput() {
        let at = |throughput: f64| Reading {
            throughput,
            p50_us: 1e6 / throughput,
            p90_us: 2e6 / throughput,
            cpu_us_per_op: 1.0,
        };
        let pick = |v: &[f64]| {
            fastest_and_median(v.iter().map(|&t| at(t)).collect())
                .map(|(best, median)| (best.throughput, median.throughput, best.p50_us))
        };
        assert_eq!(pick(&[3.0, 1.0, 5.0, 2.0, 4.0]), Some((5.0, 3.0, 2e5)));
        assert_eq!(pick(&[3.0, 1.0, 5.0, 2.0]), Some((5.0, 2.0, 2e5)));
        assert_eq!(pick(&[7.0]), Some((7.0, 7.0, 1e6 / 7.0)));
        assert_eq!(pick(&[]), None);
    }

    #[test]
    fn warm_up_scales_with_the_measured_pass() {
        assert_eq!(warm_up_for(Duration::from_secs(3)), Duration::from_secs(1));
        assert_eq!(warm_up_for(Duration::from_secs(30)), Duration::from_secs(1));
        assert_eq!(
            warm_up_for(Duration::from_millis(300)),
            Duration::from_millis(250)
        );
    }
}
