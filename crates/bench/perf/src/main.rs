//! `bench` — the flagsim benchmark.
//!
//! ```text
//! bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!       [--trace-out FILE] [--smoke]
//! ```
//!
//! One run measures one workload for `--seconds` in its own process and
//! prints every metric by name with its unit, then a `stats_digest` of the
//! results, then (as the last line) one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! `--trace 0` reports the end-to-end metrics, measured untraced;
//! `--trace 1` splits the time between an untraced and a traced phase and
//! reports the per-layer metrics. The exit code is non-zero when any
//! correctness check or probe fidelity gate fails. With no `--workload`
//! the binary re-runs itself once per workload, so peak memory is per
//! workload. See README.md for the workloads and metrics.

mod alloc;
mod probes;
mod trace;
mod workloads;

use flagsim_desim::schedule::{fnv_mix, FNV_OFFSET};
use flagsim_telemetry::json::json_string;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use trace::{quantile, Tracer};
use workloads::{Scale, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

const USAGE: &str = "usage: bench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] \
                     [--trace-out FILE] [--smoke]";

/// Untimed warm-up before the measured phases: caches fill and lazy
/// set-up finishes.
const WARMUP: Duration = Duration::from_millis(500);

/// Share of a traced run's time spent in its untraced phase.
const UNTRACED_SHARE: f64 = 0.4;

#[derive(Debug, Clone, PartialEq)]
struct Opts {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

impl Default for Opts {
    fn default() -> Self {
        Opts {
            workload: None,
            seed: 2025,
            seconds: 20.0,
            trace: false,
            trace_out: None,
            smoke: false,
        }
    }
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts::default();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => opts.workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("bad --seconds".into());
                }
            }
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-out" => opts.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.trace_out.is_some() && (opts.workload.is_none() || !opts.trace) {
        return Err("--trace-out needs --workload and --trace 1".into());
    }
    Ok(opts)
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// Everything one run reports.
struct Report {
    workload: String,
    seed: u64,
    trace: bool,
    attempted: u64,
    failed: u64,
    digest: u64,
    metrics: Vec<Metric>,
    /// The first correctness check that failed.
    problem: Option<String>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problem.is_none()
    }

    /// The human-readable lines, then the JSON result as the last line.
    fn render(&self) -> String {
        let mut out = format!(
            "workload {}  seed {}  trace {}\n",
            self.workload,
            self.seed,
            u8::from(self.trace)
        );
        for m in &self.metrics {
            let _ = writeln!(out, "  {:<44} {} {}", m.name, m.value, m.unit);
        }
        let _ = writeln!(
            out,
            "units {} attempted, {} failed",
            self.attempted, self.failed
        );
        if let Some(p) = &self.problem {
            let _ = writeln!(out, "check failed: {p}");
        }
        let _ = writeln!(out, "stats_digest {:016x}", self.digest);
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json_string(m.name),
                    m.value,
                    json_string(m.unit)
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(",")
        );
        out
    }
}

/// Per-unit samples a phase keeps. The buffers are reserved up front and
/// only touched as units run, so the harness's own memory does not jump
/// with the unit count and move `peak_rss_mb`.
const MAX_UNIT_SAMPLES: usize = 1 << 18;

/// One measured phase: units run back to back until its time is up.
struct Phase {
    units: u64,
    failed: u64,
    reps: u64,
    secs: f64,
    latencies_ms: Vec<f64>,
    /// Reps per second of each unit's call.
    unit_rates: Vec<f64>,
    setups_s: Vec<f64>,
    /// FNV-1a over the first units' result bits.
    digest: u64,
}

impl Phase {
    /// All reps over the phase's wall time.
    fn wall_rate(&self) -> f64 {
        self.reps as f64 / self.secs
    }

    /// The 90th percentile of the units' rates. Interference from other
    /// tenants of a shared host only ever slows a unit down, so the fast
    /// tail tracks the code's speed far more steadily than the total.
    fn fast_rate(&self) -> Result<f64, String> {
        quantile(&self.unit_rates, 0.9).ok_or_else(|| "no units ran".to_owned())
    }
}

/// Run units from index `first` until `budget` has elapsed and at least
/// `min_units` have run; the first `min_units` feed the digest. With
/// `probe`, every unit is followed by the per-layer probes.
///
/// `setups` cold set-ups are spread evenly over the budget, so their
/// median samples the host as the units do; their time is not counted as
/// the phase's.
fn phase(
    w: &mut dyn Workload,
    tr: &mut Tracer,
    probe: bool,
    first: u64,
    budget: Duration,
    min_units: u64,
    setups: usize,
) -> Result<Phase, String> {
    let mut p = Phase {
        units: 0,
        failed: 0,
        reps: 0,
        secs: 0.0,
        latencies_ms: Vec::with_capacity(MAX_UNIT_SAMPLES),
        unit_rates: Vec::with_capacity(MAX_UNIT_SAMPLES),
        setups_s: Vec::with_capacity(setups),
        digest: FNV_OFFSET,
    };
    let start = Instant::now();
    let mut setup_time = Duration::ZERO;
    let active = |setup_time| start.elapsed().saturating_sub(setup_time);
    while p.units < min_units || p.setups_s.len() < setups || active(setup_time) < budget {
        let due = budget.mul_f64(p.setups_s.len() as f64 / setups.max(1) as f64);
        if p.setups_s.len() < setups && active(setup_time) >= due {
            let iv = w.setup(tr)?;
            setup_time += iv.end - iv.start;
            p.setups_s.push(iv.ns() / 1e9);
            continue;
        }
        let u = w.unit(first + p.units, probe.then_some(&mut *tr))?;
        if probe {
            tr.add("bench.unit", u.call, 1);
        }
        if p.units < min_units {
            p.digest = u.bits.iter().fold(p.digest, |h, &b| fnv_mix(h, b));
        }
        p.units += 1;
        p.failed += u64::from(!u.ok);
        p.reps += u.reps;
        if p.latencies_ms.len() < MAX_UNIT_SAMPLES {
            p.latencies_ms.push(u.call.ns() / 1e6);
            p.unit_rates.push(u.reps as f64 / u.call.ns() * 1e9);
        }
    }
    p.secs = active(setup_time).as_secs_f64();
    Ok(p)
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak_rss_mb: /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("peak_rss_mb: no VmHWM line")?;
    Ok(kib / 1024.0)
}

/// A per-run directory for checkpoint files under `.bench_tmp`, removed
/// when the run ends.
struct WorkDir(PathBuf);

impl WorkDir {
    const ROOT: &'static str = ".bench_tmp";

    fn create() -> Result<WorkDir, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(Self::ROOT).join(format!("{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the root.
        let _ = std::fs::remove_dir(Self::ROOT);
    }
}

/// A finished run: its report and the spans its traced phase recorded.
struct Outcome {
    report: Report,
    tracer: Tracer,
}

fn run(name: &str, opts: &Opts) -> Result<Outcome, String> {
    let scale = if opts.smoke {
        Scale::SMOKE
    } else {
        Scale::FULL
    };
    let budget = if opts.smoke {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(opts.seconds)
    };
    let dir = WorkDir::create()?;
    let mut w = workloads::build(name, opts.seed, scale, dir.0.clone())?;
    let mut tr = Tracer::default();
    let warmup = if opts.smoke { Duration::ZERO } else { WARMUP };
    phase(&mut *w, &mut tr, false, 0, warmup, 1, 0)?;

    let plain_budget = if opts.trace {
        budget.mul_f64(UNTRACED_SHARE)
    } else {
        budget
    };
    let plain = phase(
        &mut *w,
        &mut tr,
        false,
        0,
        plain_budget,
        scale.min_units,
        scale.setups,
    )?;
    let mut phases = vec![];
    let metrics = if opts.trace {
        let counting = alloc::Counting::start();
        let traced = phase(
            &mut *w,
            &mut tr,
            true,
            plain.units,
            budget - plain_budget,
            scale.min_units,
            0,
        )?;
        drop(counting);
        let metrics = per_layer(&tr, &plain, &traced)?;
        phases.push(traced);
        metrics
    } else {
        end_to_end(&plain)?
    };
    let digest = plain.digest;
    phases.push(plain);
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not a finite number", m.name));
    }
    let problem = w.check().err();
    Ok(Outcome {
        report: Report {
            workload: name.to_owned(),
            seed: opts.seed,
            trace: opts.trace,
            attempted: phases.iter().map(|p| p.units).sum(),
            failed: phases.iter().map(|p| p.failed).sum(),
            digest,
            metrics,
            problem,
        },
        tracer: tr,
    })
}

fn end_to_end(p: &Phase) -> Result<Vec<Metric>, String> {
    let q = |xs: &[f64], at: f64| quantile(xs, at).ok_or("no samples");
    Ok(vec![
        Metric {
            name: "reps_per_s",
            unit: "1/s",
            value: p.fast_rate()?,
        },
        Metric {
            name: "call_ms_p10",
            unit: "ms",
            value: q(&p.latencies_ms, 0.1)?,
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: q(&p.setups_s, 0.5)?,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb()?,
        },
    ])
}

fn per_layer(tr: &Tracer, plain: &Phase, traced: &Phase) -> Result<Vec<Metric>, String> {
    let m = |name: &str| tr.median(name);
    let call = |at: f64| quantile(&plain.latencies_ms, at).ok_or("no units ran");
    let rep = tr.samples("core.sweep.run_rep");
    let rep_p50 = quantile(rep, 0.5).ok_or("no sampled reps")?;
    let rep_p99 = quantile(rep, 0.99).ok_or("no sampled reps")?;
    let (cost, setup, run, grid) = (
        m("agents.cost.sample")?,
        m("desim.engine.setup")?,
        m("desim.engine.run")?,
        m("grid.verify")?,
    );
    let out = [
        // The untraced phase's median, tail and wall-clock rate: on a
        // shared host they move with other tenants' load too much for an
        // end-to-end bound.
        ("call_ms_p50", "ms", call(0.5)?),
        ("call_ms_p99", "ms", call(0.99)?),
        ("bench.wall_reps_per_s", "1/s", plain.wall_rate()),
        ("core.sweep.rep_ns_p50", "ns", rep_p50),
        ("core.sweep.rep_ns_p99", "ns", rep_p99),
        (
            "core.run.self_ns",
            "ns",
            rep_p50 - cost - setup - run - grid,
        ),
        ("agents.cost.ns_per_rep", "ns", cost),
        (
            "agents.cost.draws_per_rep",
            "count",
            m("agents.cost.draws")?,
        ),
        ("desim.engine.setup_ns", "ns", setup),
        ("desim.engine.run_ns", "ns", run),
        (
            "desim.engine.events_per_rep",
            "count",
            m("desim.engine.events")?,
        ),
        (
            "desim.engine.handoffs_per_rep",
            "count",
            m("desim.engine.handoffs")?,
        ),
        ("desim.trace.record_ns", "ns", m("desim.trace.record")?),
        ("grid.verify_ns", "ns", grid),
        (
            "metrics.streaming.push_ns",
            "ns",
            m("metrics.streaming.push")?,
        ),
        (
            "core.sweep.allocs_per_rep",
            "count",
            m("core.sweep.allocs")?,
        ),
        (
            "core.sweep.alloc_bytes_per_rep",
            "bytes",
            m("core.sweep.alloc_bytes")?,
        ),
        (
            "desim.engine.allocs_per_rep",
            "count",
            m("desim.engine.allocs")?,
        ),
        (
            "core.sweep.retained_bytes_per_rep",
            "bytes",
            m("core.sweep.retained_bytes")?,
        ),
        ("flags.prepare_us", "us", m("flags.prepare")? / 1e3),
        (
            "core.scenario.compile_us",
            "us",
            m("core.scenario.compile")? / 1e3,
        ),
        ("shard.wire.encode_ns", "ns", m("shard.wire.encode")?),
        ("shard.wire.decode_ns", "ns", m("shard.wire.decode")?),
        ("shard.wire.bytes_per_rep", "bytes", m("shard.wire.bytes")?),
        ("shard.merge.accept_ns", "ns", m("shard.merge.accept")?),
        ("shard.lease.request_ns", "ns", m("shard.lease.request")?),
        ("shard.lease.grants", "count", m("shard.lease.grants")?),
        (
            "shard.checkpoint.save_ms",
            "ms",
            m("shard.checkpoint.save")? / 1e6,
        ),
        (
            "shard.checkpoint.bytes",
            "bytes",
            m("shard.checkpoint.bytes")?,
        ),
        (
            "shard.overhead_us_per_rep",
            "us",
            1e6 / plain.fast_rate()? - rep_p50 / 1e3,
        ),
        (
            "core.scenario.run_scheduled_ns_p50",
            "ns",
            m("core.scenario.run_scheduled")?,
        ),
        (
            "simcheck.explore.self_ns_per_schedule",
            "ns",
            m("simcheck.explore.self")?,
        ),
        ("simcheck.fingerprint_ns", "ns", m("simcheck.fingerprint")?),
        (
            "simcheck.explore.schedules_per_verdict",
            "count",
            m("simcheck.explore.schedules")?,
        ),
        (
            "simcheck.explore.classes_per_verdict",
            "count",
            m("simcheck.explore.classes")?,
        ),
        (
            "simcheck.explore.useful_ratio",
            "ratio",
            m("simcheck.explore.useful")?,
        ),
        (
            "simcheck.explore.pruned_sleep_per_verdict",
            "count",
            m("simcheck.explore.pruned_sleep")?,
        ),
        (
            "simcheck.explore.visited_states_per_verdict",
            "count",
            m("simcheck.explore.visited_states")?,
        ),
        (
            "desim.schedule.decisions_per_schedule",
            "count",
            m("desim.schedule.decisions")?,
        ),
        (
            "core.scenario.allocs_per_schedule",
            "count",
            m("core.scenario.allocs")?,
        ),
        (
            "bench.trace_overhead_pct",
            "%",
            (plain.wall_rate() / traced.wall_rate() - 1.0) * 100.0,
        ),
    ];
    Ok(out
        .into_iter()
        .map(|(name, unit, value)| Metric { name, unit, value })
        .collect())
}

/// Re-run this binary once per workload with the same arguments.
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for name in workloads::NAMES {
        let status = std::process::Command::new(&exe)
            .args(args)
            .args(["--workload", name])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = &opts.workload else {
        return run_all(&args);
    };
    let outcome = run(name, &opts).and_then(|o| {
        if let Some(path) = &opts.trace_out {
            let text = o.tracer.chrome_trace()?;
            std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(o)
    });
    match outcome {
        Ok(o) => {
            print!("{}", o.report.render());
            if o.report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flagsim_telemetry::json::{parse, Value};
    use std::collections::BTreeSet;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    fn smoke(name: &str, trace: bool) -> Outcome {
        let opts = Opts {
            workload: Some(name.to_owned()),
            trace,
            smoke: true,
            ..Opts::default()
        };
        run(name, &opts).unwrap_or_else(|e| panic!("{name} (trace {trace}): {e}"))
    }

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        parse(&text).expect("BENCHMARK.json parses")
    }

    /// `(name, unit)` of every entry `BENCHMARK.json` declares in `section`
    /// (the unit is empty for workloads).
    fn declared(section: &str) -> BTreeSet<(String, String)> {
        let field = |m: &Value, k: &str| m.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
        benchmark_json()
            .get(section)
            .and_then(Value::as_array)
            .expect(section)
            .iter()
            .map(|m| (field(m, "name"), field(m, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_these_workloads_and_run_length() {
        let names: BTreeSet<(String, String)> = workloads::NAMES
            .iter()
            .map(|n| (n.to_string(), String::new()))
            .collect();
        assert_eq!(declared("workloads"), names);
        let run_seconds = benchmark_json().get("run_seconds").and_then(Value::as_f64);
        assert_eq!(run_seconds, Some(Opts::default().seconds));
    }

    /// Smoke-run a workload both ways: every check and gate passes, the
    /// emitted metrics are exactly the declared ones, and the result line
    /// has the documented shape.
    fn smoke_workload(name: &str) {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let o = smoke(name, trace);
            let r = &o.report;
            assert!(r.correct(), "{name}: {:?}, {} failed", r.problem, r.failed);
            assert!(r.attempted >= Scale::SMOKE.min_units);
            let emitted: BTreeSet<(String, String)> = r
                .metrics
                .iter()
                .map(|m| (m.name.to_owned(), m.unit.to_owned()))
                .collect();
            assert_eq!(
                emitted,
                declared(section),
                "{name}: metrics differ from BENCHMARK.json"
            );
            let last = r.render().lines().last().unwrap().to_owned();
            let Value::Object(doc) = parse(&last).expect("result line is JSON") else {
                panic!("result line is not an object: {last}")
            };
            let keys: Vec<&str> = doc.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            if trace {
                o.tracer
                    .chrome_trace()
                    .expect("spans form a valid Chrome trace");
            }
        }
    }

    #[test]
    fn smoke_sweep_s4_stream() {
        smoke_workload("sweep-s4-stream");
    }

    #[test]
    fn smoke_sweep_s1_france_retained() {
        smoke_workload("sweep-s1-france-retained");
    }

    #[test]
    fn smoke_shard_s4_tcp() {
        smoke_workload("shard-s4-tcp");
    }

    #[test]
    fn smoke_verify_flowshop() {
        smoke_workload("verify-flowshop");
    }

    #[test]
    fn allocation_counts_repeat_exactly() {
        let counts = || -> Vec<Metric> {
            smoke("sweep-s4-stream", true)
                .report
                .metrics
                .into_iter()
                .filter(|m| {
                    m.name.ends_with("allocs_per_rep") || m.name.ends_with("alloc_bytes_per_rep")
                })
                .collect()
        };
        let first = counts();
        assert_eq!(first.len(), 3);
        assert!(first.iter().all(|m| m.value > 0.0), "{first:?}");
        assert_eq!(first, counts());
    }

    #[test]
    fn digest_depends_on_the_seed_only() {
        let digest = |seed: u64| {
            let opts = Opts {
                seed,
                smoke: true,
                ..Opts::default()
            };
            run("sweep-s1-france-retained", &opts)
                .unwrap()
                .report
                .digest
        };
        assert_eq!(digest(7), digest(7));
        assert_ne!(digest(7), digest(8));
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let o = parse_args(&args(
            "--workload shard-s4-tcp --seed 9 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("shard-s4-tcp"));
        assert_eq!((o.seed, o.seconds, o.trace), (9, 3.0, true));
        assert_eq!(parse_args(&[]).unwrap(), Opts::default());
        for bad in [
            "--trace",
            "--trace 2",
            "--seed x",
            "--seconds -1",
            "--bogus",
            "--trace-out f",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert!(run("no-such-workload", &Opts::default()).is_err());
    }
}
