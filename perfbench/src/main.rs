//! End-to-end and per-layer benchmark of the toppling study, world
//! generation, and query-serving paths.
//!
//! ```text
//! perfbench --workload <study-medium|worldgen-large|serve-read|serve-live>
//!           --seed N --seconds S --trace 0|1 [--smoke]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with no tracing:
//! set-up time, the median latency and the CPU time of the workload's op
//! (a study, a generation, a read), and peak resident memory. `--trace 1`
//! runs the workload again with the span recorder and the counting
//! allocator armed around calls into each layer, and prints every per-layer
//! metric with every span. `--smoke` shrinks every input to
//! tiny scale so the whole path runs in seconds. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod alloc;
mod http;
mod loadgen;
mod procfs;
mod serve;
mod stats;
mod study;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is derived from.
    pub seed: u64,
    /// How long the measured phase runs.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// Tiny inputs, for tests.
    pub smoke: bool,
}

/// Worker threads for study and world generation: the machine's available
/// parallelism.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get())
}

/// The set-up figure: the median of a run's repeated set-ups. Every sample
/// is printed on a `setup` line, so a run's spread can be read back.
pub fn setup_median(samples: &[f64]) -> f64 {
    let list: Vec<String> = samples.iter().map(|s| format!("{s:.6}")).collect();
    println!("setup samples_s={}", list.join(","));
    stats::median(samples).unwrap_or(0.0)
}

/// The end-to-end metrics of a batch workload, whose op is one study or
/// one generation: medians over the run's ops of wall time, process CPU
/// time (both in seconds) and peak resident MiB.
pub fn batch_metrics(out: &mut Outcome, setups: &[f64], wall: &[f64], cpu: &[f64], rss: &[f64]) {
    let med = |v: &[f64]| stats::median(v).unwrap_or(0.0);
    out.metric("setup_s", setup_median(setups), "s");
    out.metric("op_p50_ms", med(wall) * 1e3, "ms");
    out.metric("op_cpu_ms", med(cpu) * 1e3, "ms");
    out.metric("peak_rss_mib", med(rss), "MiB");
}

/// One metric of the result line.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted (studies, generations, reads, ingests).
    pub attempted: u64,
    /// Operations that failed, output checks included.
    pub failed: u64,
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Appends a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Whether a metric of that name is already reported.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// Counts one checked operation; a failed check counts as a failed op.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust prints (non-finite values, which
/// JSON cannot carry, become 0).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// A scratch directory inside the benchmark's own directory, removed on
/// drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates `<package>/.work/<pid>`.
    pub fn create() -> std::io::Result<WorkDir> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &std::path::Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const WORKLOADS: [&str; 4] = ["study-medium", "worldgen-large", "serve-read", "serve-live"];

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed N --seconds S --trace 0|1 [--smoke]",
        WORKLOADS.join("|")
    )
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "study-medium" => study::study_medium(args),
        "worldgen-large" => study::worldgen_large(args),
        "serve-read" => serve::serve_read(args),
        _ => serve::serve_live(args),
    }
}

/// Every traced run prints every per-layer metric, but a workload calls
/// only some layers. After the workload's own traced run, the traced runs
/// of the other workloads are made at tiny scale for one second each, and
/// only the metrics the workload did not report are taken from them; their
/// spans carry their own run ids.
fn probe_other_layers(args: &Args, mut out: Outcome) -> Result<Outcome, String> {
    for workload in WORKLOADS.iter().filter(|&&w| w != args.workload) {
        let probe = Args {
            workload: (*workload).to_owned(),
            seed: args.seed,
            seconds: 1.0,
            trace: true,
            smoke: true,
        };
        let probed = run_workload(&probe).map_err(|e| format!("tiny {workload} probe: {e}"))?;
        out.attempted += probed.attempted;
        out.failed += probed.failed;
        let mut taken = Vec::new();
        for m in probed.metrics {
            if !out.has(&m.name) {
                taken.push(m.name.clone());
                out.metrics.push(m);
            }
        }
        println!(
            "context probe={workload} scale=tiny metrics={}",
            taken.join(",")
        );
    }
    Ok(out)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1).peekable();
    if argv.peek().map(String::as_str) == Some("--fixture") {
        argv.next();
        return match serve::fixture_main(argv) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("fixture failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let host0 = procfs::host_ticks();
    let t0 = std::time::Instant::now();
    let result = run_workload(&args);
    let traced_wall_s = t0.elapsed().as_secs_f64();
    let result = match result {
        Ok(o) if args.trace => probe_other_layers(&args, o).map(|mut o| {
            o.metric("tracing.traced_wall_s", traced_wall_s, "s");
            o
        }),
        other => other,
    };
    let mut outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{} failed: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    let steal = procfs::steal_share(host0, procfs::host_ticks());
    if args.trace {
        outcome.metric("host.steal_share", steal, "share");
    }
    println!(
        "context workload={} seed={} workers={} host.steal_share={steal:.4}",
        args.workload,
        args.seed,
        workers()
    );
    for m in &outcome.metrics {
        println!("metric {} = {} {}", m.name, json_number(m.value), m.unit);
    }
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn args_parse_the_benchmark_command_form() {
        let a = parse_args(argv(
            "--workload serve-read --seed 9 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, "serve-read");
        assert_eq!(a.seed, 9);
        assert_eq!(a.seconds, 10.0);
        assert!(a.trace);
        assert!(!a.smoke);
    }

    #[test]
    fn bad_args_are_refused() {
        assert!(parse_args(argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(argv("--workload serve-read --trace 2")).is_err());
        assert!(parse_args(argv("--workload serve-read --seconds 0")).is_err());
        assert!(parse_args(argv("--workload serve-read --bogus")).is_err());
        assert!(parse_args(argv("--workload serve-read --seed")).is_err());
    }

    #[test]
    fn result_line_has_the_required_keys() {
        let mut o = Outcome::default();
        o.check(true, "fine");
        o.metric("setup_s", 0.25, "s");
        o.metric("weird", f64::NAN, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"weird\": {\"value\": 0.0, \"unit\": \"s\"}}}"
        );
        o.check(false, "broken");
        assert!(o
            .to_json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
