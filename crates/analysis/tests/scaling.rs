//! Analysis time must grow linearly with program size.
//!
//! Two shapes: a chain of top-level bindings `c_k x = c_{k-1} (x + 1)`,
//! whose consultation graph is as deep as the program is long (an
//! analysis that re-analyses every binding once per round until nothing
//! changes runs one round per link, so it is quadratic), and a wide
//! fan-in, one binding consulting every other one. Each is timed at size
//! `n` and `8n`; a linear analysis gives a ratio near 8, a quadratic one
//! near 64. Only the analysis is timed — parsing and desugaring happen
//! outside the clock.
//!
//! The two sizes are timed in alternating samples of about equal length
//! (the small program runs eight times per sample), so load from elsewhere
//! on the host slows both sides alike instead of only the longer one.
//!
//! Run it optimised, as CI does: `cargo test --release -p urk-analysis --test scaling`.

use std::time::{Duration, Instant};

use urk_analysis::analyze_program;
use urk_syntax::core::CoreProgram;
use urk_syntax::{desugar_program, parse_program, DataEnv, Symbol};

/// Bindings in the small program; the large one has `SCALE` times as many.
const N: usize = 250;
const SCALE: u32 = 8;
/// Samples per size; the medians are compared.
const RUNS: usize = 5;
/// Generous for a linear ratio of 8, well under a quadratic one.
const MAX_RATIO: f64 = 20.0;

fn desugar(src: &str) -> (CoreProgram, DataEnv) {
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(src).expect("parses"), &mut data).expect("desugars");
    (prog, data)
}

/// `c0 x = x`, `c1 x = c0 (x + 1)`, ... as one program.
fn chain_source(n: usize) -> String {
    let mut src = String::from("c0 x = x\n");
    for k in 1..n {
        src.push_str(&format!("c{k} x = c{} (x + 1)\n", k - 1));
    }
    src
}

fn chain(n: usize) -> (CoreProgram, DataEnv) {
    desugar(&chain_source(n))
}

/// `l0 x = x + 0`, ..., and `top x` summing `l0 x` to `l{n-1} x` as a
/// balanced tree, so no expression nests deeper than `log n`.
fn fan_in(n: usize) -> (CoreProgram, DataEnv) {
    fn sum(lo: usize, hi: usize) -> String {
        if hi - lo == 1 {
            format!("l{lo} x")
        } else {
            let mid = (lo + hi) / 2;
            format!("({} + {})", sum(lo, mid), sum(mid, hi))
        }
    }
    let mut src = String::new();
    for k in 0..n {
        src.push_str(&format!("l{k} x = x + {k}\n"));
    }
    src.push_str(&format!("top x = {}\n", sum(0, n)));
    desugar(&src)
}

/// The mean time of one analysis over `reps` runs.
fn time_per_call(prog: &CoreProgram, data: &DataEnv, reps: u32) -> Duration {
    let t = Instant::now();
    for _ in 0..reps {
        let analysis = analyze_program(prog, data);
        assert_eq!(analysis.summaries.len(), prog.binds.len());
    }
    t.elapsed() / reps
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn assert_linear(what: &str, program: fn(usize) -> (CoreProgram, DataEnv)) {
    let (small, small_data) = program(N);
    let (large, large_data) = program(SCALE as usize * N);
    let (mut t_small, mut t_large) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        t_small.push(time_per_call(&small, &small_data, SCALE));
        t_large.push(time_per_call(&large, &large_data, 1));
    }
    let (t_small, t_large) = (median(t_small), median(t_large));
    let ratio = t_large.as_secs_f64() / t_small.as_secs_f64().max(1e-9);
    assert!(
        ratio < MAX_RATIO,
        "{what}: {} bindings took {t_large:?}, {N} took {t_small:?} — ratio {ratio:.1} \
         (linear is about {SCALE}, must stay under {MAX_RATIO})",
        SCALE as usize * N
    );
}

#[test]
fn a_binding_chain_analyses_in_linear_time() {
    assert_linear("binding chain", chain);
}

#[test]
fn a_wide_fan_in_analyses_in_linear_time() {
    assert_linear("wide fan-in", fan_in);
}

/// The consultation graph is walked without recursing per binding: a
/// chain of 8000 links fits the test thread's own stack, and every link
/// gets a real summary (the chain is acyclic, so nothing is pinned).
#[test]
fn a_long_chain_fits_the_test_threads_stack() {
    let n = 8000;
    let (prog, data) = chain(n);
    let analysis = analyze_program(&prog, &data);
    assert!(analysis.recursive.is_empty());
    let top = analysis
        .summary(Symbol::intern(&format!("c{}", n - 1)))
        .expect("summary");
    assert_eq!(top.demands, vec![true]);
}
