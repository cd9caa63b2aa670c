//! The urk benchmark: four seeded workloads, one per path users take
//! through the system, measured end to end (untraced runs) and layer by
//! layer (traced runs). See `README.md` next to this package.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload cli_cold|eval_hot|eval_raise|serve_mixed --seed N --seconds S --trace 0|1
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! The last line of standard output is the result: `correct`,
//! `attempted`, `failed` and the metrics. The full run record (host,
//! toolchain, seed, sample counts, ratio bases) goes to `results/`.

mod closed;
mod gen;
mod layers;
mod pipeline;
mod reference;
mod report;
mod rng;
mod serve;
mod speed;
mod trace;

const WORKLOADS: [&str; 4] = ["cli_cold", "eval_hot", "eval_raise", "serve_mixed"];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    reference: bool,
    self_test: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "",
        seed: 0,
        seconds: 10.0,
        trace: false,
        reference: false,
        self_test: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                args.workload = WORKLOADS
                    .into_iter()
                    .find(|k| *k == w)
                    .ok_or_else(|| format!("unknown workload {w:?}; one of {WORKLOADS:?}"))?;
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--reference" => args.reference = true,
            "--self-test" => args.self_test = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.workload.is_empty() && !args.self_test {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.self_test {
        for w in WORKLOADS {
            for seed in [args.seed, args.seed + 1] {
                if let Err(e) = gen::seed_self_test(w, seed) {
                    eprintln!("perfbench: {e}");
                    std::process::exit(1);
                }
            }
        }
        println!("seed self-test: one seed gives identical inputs, another seed different ones");
        return;
    }
    if args.reference {
        if let Err(e) = reference::run_child(args.workload, args.seed, args.seconds) {
            eprintln!("perfbench --reference: {e}");
            std::process::exit(1);
        }
        return;
    }
    if let Err(e) = gen::seed_self_test(args.workload, args.seed) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    let run = match args.workload {
        "serve_mixed" => serve::run(args.seed, args.seconds, args.trace),
        w => closed::run(w, args.seed, args.seconds, args.trace),
    };
    let run = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            std::process::exit(1);
        }
    };
    match report::write_record(args.workload, args.seed, args.seconds, args.trace, &run) {
        Ok(path) => eprintln!("perfbench: run record in {}", path.display()),
        Err(e) => eprintln!("perfbench: writing the run record failed: {e}"),
    }
    println!("{}", run.result_line());
    if !run.correct() {
        std::process::exit(1);
    }
}
