//! E16 — cost of the static exception-effect analysis and its consumers.
//!
//! Three prices are measured, all off the evaluation hot path:
//!
//! * `analyze`: the whole-program summary pass (`analyze_program`) over the
//!   Prelude plus the lint demo program;
//! * `lint`: a full `urk lint` pass (analysis plus the per-binding
//!   diagnostic walk), as the CLI runs it;
//! * `verify`: `Code::verify` over the session's compiled arena — the
//!   check that debug builds (and `--verify-code`) run on every link.
//!
//! Expected shape: all three are microseconds-to-low-milliseconds,
//! one-shot costs; none of them touch the per-step evaluation loop.

use criterion::{criterion_group, criterion_main, Criterion};
use urk::Session;

const DEMO: &str = include_str!("../../../examples/lint_demo.urk");

fn bench(c: &mut Criterion) {
    let mut session = Session::new();
    session.load(DEMO).expect("lint demo loads");

    let mut group = c.benchmark_group("analysis_cost");
    group
        .sample_size(20)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1200));

    group.bench_function("analyze", |b| b.iter(|| session.analyze()));

    group.bench_function("lint", |b| {
        b.iter(|| {
            let findings = session.lint();
            assert_eq!(findings.len(), 9, "the demo's finding count is fixed");
            findings
        })
    });

    let code = session.compiled_code();
    group.bench_function("verify", |b| {
        b.iter(|| code.verify().expect("compiler output verifies"))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
