//! `moqdns-perfbench`: the repository's benchmark, one binary for both
//! lanes. `perfbench/run.py` builds it and the `moqdns-relayd` daemon and
//! calls it; run it directly as
//!
//! ```text
//! moqdns-perfbench --workload live-fetch|live-push|sim-metro --seed N \
//!     --seconds S --trace 0|1 --relayd PATH --out DIR
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` runs the workload twice, untraced then traced, each for
//! half of `--seconds`, and prints the
//! per-layer table, the tracing overhead per end-to-end metric and (for
//! `live-fetch`) the reconciliation line, and writes the spans to
//! `DIR/spans-<workload>.jsonl`. Either way the output checks run, the
//! last stdout line is the JSON result, and the exit code is non-zero
//! when a check fails or the run cannot complete.

mod live;
mod metro;
mod pace;
mod procfs;
mod report;
mod stats;
mod timed;
mod trace;

use report::Outcome;
use std::path::PathBuf;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per pass.
    pub seconds: u64,
    /// Traced run (per-layer metrics).
    pub trace: bool,
    /// The `moqdns-relayd` binary.
    pub relayd: PathBuf,
    /// Directory for daemon logs and spans.
    pub out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10,
            trace: false,
            relayd: PathBuf::new(),
            out: PathBuf::from(".bench_build/perfbench"),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut val = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = val()?,
                "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => a.trace = val()? == "1",
                "--relayd" => a.relayd = val()?.into(),
                "--out" => a.out = val()?.into(),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if a.seconds == 0 {
            return Err("--seconds must be at least 1".into());
        }
        Ok(a)
    }
}

/// Seeded generator for workload inputs (splitmix64 stream).
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        moqdns_netsim::splitmix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// Writes the traced pass's spans next to the daemon logs.
pub fn write_spans(args: &Args, spans: &[trace::Span]) {
    let path = args.out.join(format!("spans-{}.jsonl", args.workload));
    match trace::write_jsonl(spans, &path) {
        Ok(()) => println!("  spans: {} records -> {}", spans.len(), path.display()),
        Err(e) => eprintln!("moqdns-perfbench: writing {}: {e}", path.display()),
    }
}

/// One pass of the workload measuring for `seconds`.
fn run_pass(args: &Args, traced: bool, seconds: u64) -> Result<Outcome, String> {
    trace::enable(traced);
    let wall = std::time::Instant::now();
    let steal = procfs::steal_ns().map_err(|e| format!("/proc/stat: {e}"))?;
    let r = match args.workload.as_str() {
        "live-fetch" => live::run(args, live::Kind::Fetch, traced, seconds),
        "live-push" => live::run(args, live::Kind::Push, traced, seconds),
        "sim-metro" => metro::run(args, traced, seconds),
        other => Err(format!("unknown workload {other}")),
    };
    trace::enable(false);
    let mut out = r?;
    let stolen = procfs::steal_ns().map_err(|e| format!("/proc/stat: {e}"))? - steal;
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());
    let share = stolen as f64 / 1e9 / (wall.elapsed().as_secs_f64() * nproc as f64);
    out.layer("host.steal_share", Ok(share));
    out.notes.push(format!(
        "host: hypervisor steal {:.3} s over the pass ({:.2}% of {nproc} CPUs)",
        stolen as f64 / 1e9,
        share * 100.0
    ));
    Ok(out)
}

/// The outside-in half of "per-layer costs add up": the median fetch
/// against the layer costs measured around it. Reported, not gated.
fn reconcile(base: &Outcome, traced: &Outcome) -> Option<String> {
    let p50 = base.get("latency_p50_us")?;
    let stub = traced.get_layer("core.stub.self_us_per_op")?;
    let host = traced.get_layer("relayd.gen.host_self_us_per_op")?;
    let relay = base.get("cpu_us_per_op")?;
    let sum = stub + host + relay;
    Some(format!(
        "reconcile: latency_p50_us {p50:.1} = core.stub {stub:.1} + relayd.gen.host_self {host:.1} \
         + relay cpu {relay:.1} (= {sum:.1}) + residual {:.1} us",
        p50 - sum
    ))
}

fn main() {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("moqdns-perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("moqdns-perfbench: {}: {e}", args.out.display());
        std::process::exit(2);
    }
    // A traced run splits its time between the untraced and traced pass.
    let seconds = if args.trace {
        (args.seconds / 2).max(1)
    } else {
        args.seconds
    };
    let base = match run_pass(&args, false, seconds) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("moqdns-perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    report::print_end_to_end(&args.workload, &base);
    let (correct, line) = if args.trace {
        let mut traced = match run_pass(&args, true, seconds) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("moqdns-perfbench: {} (traced): {e}", args.workload);
                std::process::exit(1);
            }
        };
        // The simulator's phase rates are the workload's own speed: take
        // them from the untraced pass.
        for name in ["sim.join_per_s", "sim.push_per_s"] {
            if let Some(v) = base.get_layer(name) {
                traced.layer(name, Ok(v));
            }
        }
        report::print_per_layer(&args.workload, &traced);
        report::print_overhead(&base, &traced);
        if args.workload == "live-fetch" {
            if let Some(l) = reconcile(&base, &traced) {
                println!("  {l}");
            }
        }
        let correct = base.correct() && traced.correct();
        (correct, report::json_line(correct, &traced, true))
    } else {
        (
            base.correct(),
            report::json_line(base.correct(), &base, false),
        )
    };
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}
