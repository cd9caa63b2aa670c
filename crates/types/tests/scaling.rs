//! Inference time must grow linearly with program size.
//!
//! Two shapes that a scope-scanning generaliser makes quadratic: a chain of
//! top-level bindings (each group would rescan every earlier scheme) and a
//! chain of nested `let`s (each `let` would rescan every enclosing
//! binder). Each is timed at size `n` and `8n`; linear inference gives a
//! ratio near 8, a quadratic one 30 or more. Only inference is timed —
//! parsing and desugaring happen outside the clock.
//!
//! The two sizes are timed in alternating samples of about equal length
//! (the small program runs eight times per sample), so load from elsewhere
//! on the host slows both sides alike instead of only the longer one.
//!
//! Run it optimised, as CI does: `cargo test --release -p urk-types --test scaling`.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};
use urk_types::{infer_expr, infer_program, Type};

/// Bindings in the small program; the large one has `SCALE` times as many.
const N: usize = 1000;
const SCALE: u32 = 8;
/// Samples per size; the medians are compared.
const RUNS: usize = 5;
/// Generous for a linear ratio of 8, well under a quadratic one.
const MAX_RATIO: f64 = 20.0;

/// Deep `let` nesting recurses once per level in the parser and the checker.
const STACK_BYTES: usize = 256 << 20;

/// A prepared program: each call infers its type once.
type Infer = Box<dyn Fn()>;

/// `c0 = 0`, `c1 = c0 + 1`, ... as one program.
fn top_level_chain(n: usize) -> Infer {
    let mut src = String::from("c0 = 0\n");
    for i in 1..n {
        src.push_str(&format!("c{i} = c{} + 1\n", i - 1));
    }
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(&src).expect("parses"), &mut data).expect("desugars");
    Box::new(move || {
        let schemes = infer_program(&prog, &data).expect("types");
        assert_eq!(schemes.len(), n);
    })
}

/// `let c0 = 0 in let c1 = c0 + 1 in ... in c{n-1}`, no parentheses.
fn nested_lets(n: usize) -> Infer {
    let mut src = String::from("let c0 = 0 in ");
    for i in 1..n {
        src.push_str(&format!("let c{i} = c{} + 1 in ", i - 1));
    }
    src.push_str(&format!("c{}", n - 1));
    let data = DataEnv::new();
    let e = desugar_expr(&parse_expr_src(&src).expect("parses"), &data).expect("desugars");
    let globals = HashMap::new();
    Box::new(move || {
        let ty = infer_expr(&e, &data, &globals).expect("types");
        assert_eq!(ty, Type::Int);
    })
}

/// The mean time of one call over `reps` calls.
fn time_per_call(f: &dyn Fn(), reps: u32) -> Duration {
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed() / reps
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

fn assert_linear(what: &str, program: fn(usize) -> Infer) {
    let small = program(N);
    let large = program(SCALE as usize * N);
    let (mut t_small, mut t_large) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        t_small.push(time_per_call(&*small, SCALE));
        t_large.push(time_per_call(&*large, 1));
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

/// Runs `f` on a thread whose stack fits the deepest program (dropping a
/// nested expression recurses too, so the programs live and die there).
fn on_big_stack(f: fn()) {
    let timing = std::thread::Builder::new()
        .stack_size(STACK_BYTES)
        .spawn(f)
        .expect("spawns the timing thread");
    if let Err(panic) = timing.join() {
        std::panic::resume_unwind(panic);
    }
}

#[test]
fn top_level_chain_types_in_linear_time() {
    on_big_stack(|| assert_linear("top-level chain", top_level_chain));
}

#[test]
fn nested_let_chain_types_in_linear_time() {
    on_big_stack(|| assert_linear("nested let chain", nested_lets));
}
