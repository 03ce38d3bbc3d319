//! One benchmark command for the VAQ engine.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-ram|ingest-durable|serve-mapped --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload builds its inputs from `--seed`, sets an index up through
//! the public API of `vaq-core`, runs a closed-loop measured phase with one
//! client thread, checks every answer against an oracle computed here, and
//! prints one JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics (from spans recorded around each
//! call) with `--trace 1`. See README.md.

mod common;
mod ingest_durable;
mod oracle;
mod report;
mod serve_mapped;
mod serve_ram;
mod trace;

use report::{Ledger, Values};
use std::path::PathBuf;
use trace::Tracer;

/// End-to-end metrics: (name, unit). Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("query_exact_p50_us", "us"),
    ("query_exact_p90_us", "us"),
    ("query_skip_p50_us", "us"),
    ("query_skip_p90_us", "us"),
    ("recall_exact_at_10", "frac"),
    ("recall_skip_at_10", "frac"),
    ("add_p50_us", "us"),
    ("reopen_ms", "ms"),
    ("index_bytes_per_row", "B"),
];

/// Per-layer metrics of the traced run: (name, unit). A layer a workload
/// does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("pipeline.varpca_ms", "ms"),
    ("pipeline.subspace_plan_ms", "ms"),
    ("pipeline.bit_plan_ms", "ms"),
    ("pipeline.dictionaries_ms", "ms"),
    ("pipeline.ti_build_ms", "ms"),
    ("encoder.project_us", "us"),
    ("encoder.encode_rows_per_s", "rows/s"),
    ("engine.prepare_us", "us"),
    ("engine.exact_us", "us"),
    ("engine.skip_us", "us"),
    ("engine.batch16_us_per_query", "us"),
    ("engine.exact_visited_per_query", "count"),
    ("engine.exact_pruned_frac", "frac"),
    ("engine.skip_skipped_frac", "frac"),
    ("engine.skip_lookups_per_query", "count"),
    ("qtables.quantize_us", "us"),
    ("qtables.kernel_gvec_per_s", "Gvec/s"),
    ("qtables.kernel_scalar_gvec_per_s", "Gvec/s"),
    ("qtables.kernel_ssse3_gvec_per_s", "Gvec/s"),
    ("qtables.kernel_avx2_gvec_per_s", "Gvec/s"),
    ("qtables.kernel_avx512_gvec_per_s", "Gvec/s"),
    ("segment.seal_add_ms", "ms"),
    ("segment.seals", "count"),
    ("segment.compactions", "count"),
    ("segment.segments", "count"),
    ("segment.buffer_rows", "count"),
    ("segment.visited_per_query", "count"),
    ("wal.delete_p50_us", "us"),
    ("wal.bytes_per_row", "B/row"),
    ("wal.checkpoint_ms", "ms"),
    ("persist.save_ms", "ms"),
    ("persist.load_ms", "ms"),
    ("persist.open_ms", "ms"),
    ("persist.first_query_ms", "ms"),
    ("trace.query_exact_p50_us", "us"),
    ("trace.query_skip_p50_us", "us"),
    ("trace.add_p50_us", "us"),
];

/// State shared by every workload for one run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tr: Tracer,
    pub ledger: Ledger,
    /// Scratch directory for index files, removed when the run ends.
    pub work: PathBuf,
}

impl Ctx {
    /// Drains the program's degradation log and prints it. On the serving
    /// path every entry counts as a failed `op`.
    pub fn drain_degradations(&mut self, phase: &str, serving_op: Option<&'static str>) {
        for what in vaq_core::faults::take_degradations() {
            println!("# degradation [{phase}]: {what}");
            if let Some(op) = serving_op {
                self.ledger.fail(op, format!("{phase}: degraded: {what}"));
            }
        }
    }
}

/// What a workload hands back: end-to-end and per-layer values.
pub struct Outcome {
    pub e2e: Values,
    pub layers: Values,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// The CPU brand string from CPUID (no file outside the checkout is read).
fn cpu_model() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        use std::arch::x86_64::__cpuid;
        // Leaf 0x8000_0000 reports the highest extended leaf; the brand
        // string leaves are read only when it covers them.
        let max = __cpuid(0x8000_0000).eax;
        if max >= 0x8000_0004 {
            let mut bytes = Vec::with_capacity(48);
            for leaf in 0x8000_0002u32..=0x8000_0004 {
                let r = __cpuid(leaf);
                for reg in [r.eax, r.ebx, r.ecx, r.edx] {
                    bytes.extend_from_slice(&reg.to_le_bytes());
                }
            }
            return String::from_utf8_lossy(&bytes).trim_matches(char::from(0)).trim().to_string();
        }
    }
    std::env::consts::ARCH.to_string()
}

fn print_environment() {
    use vaq_linalg::qtables::{active_kernel, kernel_supported, ScanKernel};
    let tiers: Vec<&str> =
        ScanKernel::ALL.iter().filter(|&&k| kernel_supported(k)).map(|k| k.name()).collect();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("# env cpu={:?}", cpu_model());
    println!("# env nproc={nproc}");
    println!("# env active_kernel={}", active_kernel().name());
    println!("# env supported_kernels={}", tiers.join(","));
    println!(
        "# env VAQ_THREADS={}",
        std::env::var("VAQ_THREADS").unwrap_or_else(|_| "unset".into())
    );
    println!("# env thread_budget={}", vaq_core::threads::thread_budget());
    println!("# env git_rev={}", env!("PERFBENCH_GIT_REV"));
    println!("# env rustc={}", env!("PERFBENCH_RUSTC"));
}

fn json_metrics(values: &Values, table: &[(&str, &str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|&(name, unit)| {
            let v = values.get(name).copied().unwrap_or(0.0);
            let v = if v.is_finite() { v } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    print_environment();
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: {}: {e}", work.display());
        std::process::exit(2);
    }
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tr: Tracer::new(args.trace),
        ledger: Ledger::default(),
        work: work.clone(),
    };
    let outcome = match args.workload.as_str() {
        "serve-ram" => serve_ram::run(&mut ctx),
        "ingest-durable" => ingest_durable::run(&mut ctx),
        "serve-mapped" => serve_mapped::run(&mut ctx),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} aborted: {e}", args.workload);
            std::process::exit(1);
        }
    };
    if ctx.tr.enabled() {
        let out = PathBuf::from(".bench_work").join(format!("spans-{}.jsonl", args.workload));
        match ctx.tr.write_jsonl(&out) {
            Ok(()) => println!("# spans: {} written to {}", ctx.tr.len(), out.display()),
            Err(e) => eprintln!("perfbench: {}: {e}", out.display()),
        }
    }
    ctx.ledger.print();
    let (attempted, failed) = ctx.ledger.totals();
    let metrics = if args.trace {
        json_metrics(&outcome.layers, &PER_LAYER)
    } else {
        json_metrics(&outcome.e2e, &END_TO_END)
    };
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}",
        ctx.ledger.correct()
    );
}
