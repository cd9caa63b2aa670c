//! Parse time must grow linearly with nesting depth.
//!
//! Every binding of the program is a tower of parentheses alternating
//! `(e + 1)` with `((f e) +)`: each level is a parenthesised term that
//! starts like a left section. A parser that parses such a term once to
//! try the section and again when it is not one doubles its work per
//! level, so its time grows as `2^d`. The program is timed at depth `d`
//! and `2d`; a linear parser gives a ratio near 2.
//!
//! The two depths are timed in alternating samples of about equal length,
//! so load from elsewhere on the host slows both sides alike instead of
//! only the longer one.
//!
//! Run it optimised, as CI does: `cargo test --release -p urk-syntax --test scaling`.

use std::time::{Duration, Instant};

use urk_syntax::parse_program;

/// Bindings per program.
const BINDINGS: usize = 32;
/// Levels in the shallow program's towers; the deep one has twice as many.
const DEPTH: usize = 8;
/// Samples per depth; the medians are compared.
const RUNS: usize = 5;
/// Generous for a linear ratio of 2, far under an exponential `2^DEPTH`.
const MAX_RATIO: f64 = 8.0;
/// How long a sample of the shallow program should take.
const SAMPLE: Duration = Duration::from_millis(4);

/// `t0 f x = ((f (x + 1)) +)`-style towers, `depth` levels each.
fn towers(depth: usize) -> String {
    let mut src = String::new();
    for b in 0..BINDINGS {
        let mut e = String::from("x");
        for level in 0..depth {
            e = if level % 2 == 0 {
                format!("({e} + 1)")
            } else {
                format!("((f {e}) +)")
            };
        }
        src.push_str(&format!("t{b} f x = {e}\n"));
    }
    src
}

/// The mean time of one parse over `reps` parses.
fn time_per_parse(src: &str, reps: u32) -> Duration {
    let t = Instant::now();
    for _ in 0..reps {
        let prog = parse_program(src).expect("parses");
        assert_eq!(prog.decls.len(), BINDINGS);
    }
    t.elapsed() / reps
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort();
    xs[xs.len() / 2]
}

#[test]
fn parenthesised_section_candidates_parse_in_linear_time() {
    let (shallow, deep) = (towers(DEPTH), towers(2 * DEPTH));
    // Enough shallow parses to fill a sample, half as many deep ones
    // (timed after a warm-up parse).
    time_per_parse(&shallow, 1);
    let one = time_per_parse(&shallow, 1).max(Duration::from_micros(1));
    let reps = (SAMPLE.as_nanos() / one.as_nanos()).clamp(2, 10_000) as u32;
    let (mut t_shallow, mut t_deep) = (Vec::new(), Vec::new());
    for _ in 0..RUNS {
        t_shallow.push(time_per_parse(&shallow, reps));
        t_deep.push(time_per_parse(&deep, reps / 2));
    }
    let (t_shallow, t_deep) = (median(t_shallow), median(t_deep));
    let ratio = t_deep.as_secs_f64() / t_shallow.as_secs_f64().max(1e-9);
    assert!(
        ratio < MAX_RATIO,
        "depth {} took {t_deep:?}, depth {DEPTH} took {t_shallow:?} — ratio {ratio:.1} \
         (linear is about 2, must stay under {MAX_RATIO})",
        2 * DEPTH
    );
}
