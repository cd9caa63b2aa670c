//! The multi-worker evaluation service: determinism across worker
//! counts and submission orders, soundness of pooled (and cached)
//! answers against the denotational exception sets, fault isolation,
//! and bounded shutdown.
//!
//! The through-line is the paper's refinement criterion: a pool may
//! schedule jobs onto any worker and serve answers from a shared cache
//! *because* every admissible answer is a member of the expression's
//! denoted exception set (or its value) — so none of the pool's
//! non-determinism (scheduling, completion order, cache population
//! races) may ever be observable in the results.

use std::sync::Arc;
use std::time::{Duration, Instant};

use urk::{EvalPool, Exception, JobResult, Options, PoolConfig, Session, Supervisor};

/// A mixed corpus: values, top-level exceptions, exceptions buried in
/// lazy structure, and duplicates (so the cache has something to hit).
const CORPUS: &[&str] = &[
    "sum [1 .. 40]",
    r#"(1/0) + error "Urk""#,
    "zipWith (/) [1, 2] [1, 0]",
    "head (tail [1])",
    "take 5 (iterate (\\x -> x * 2) 1)",
    "sort [3, 1, 2]",
    "sum [1 .. 40]",
    r#"(1/0) + error "Urk""#,
    "length [1 .. 100]",
    "1 + 2 * 3",
];

/// Collapses a job result to what the semantics says is observable: the
/// rendered answer and the representative exception (stats legitimately
/// vary with cache behaviour and scheduling).
fn observable(results: &[JobResult]) -> Vec<Result<(String, Option<Exception>), String>> {
    results
        .iter()
        .map(|r| match r {
            Ok(out) => Ok((out.rendered.clone(), out.exception.clone())),
            Err(e) => Err(e.0.clone()),
        })
        .collect()
}

fn pool_with(workers: usize, cache_cap: usize) -> EvalPool {
    EvalPool::start(
        &[],
        Options::default(),
        PoolConfig {
            workers,
            cache_cap,
            ..PoolConfig::default()
        },
    )
    .expect("pool starts")
}

#[test]
fn batches_are_identical_across_worker_counts() {
    let baseline = {
        let pool = pool_with(1, 128);
        observable(&pool.eval_batch(CORPUS))
    };
    for workers in [2, 8] {
        let pool = pool_with(workers, 128);
        let got = observable(&pool.eval_batch(CORPUS));
        assert_eq!(
            got, baseline,
            "{workers} workers must answer exactly as 1 worker does"
        );
    }
}

#[test]
fn results_are_invariant_under_submission_order_permutation() {
    // A fixed permutation (reverse, then rotate by 3) — no RNG, so the
    // test is reproducible.
    let n = CORPUS.len();
    let perm: Vec<usize> = (0..n).map(|i| (n - 1 - i + 3) % n).collect();
    let permuted: Vec<&str> = perm.iter().map(|&i| CORPUS[i]).collect();

    let pool = pool_with(4, 128);
    let direct = observable(&pool.eval_batch(CORPUS));
    let shuffled = observable(&pool.eval_batch(&permuted));

    for (slot, &orig) in perm.iter().enumerate() {
        assert_eq!(
            shuffled[slot], direct[orig],
            "job {orig} must get the same answer wherever it sits in the batch"
        );
    }
}

#[test]
fn pooled_exception_outcomes_are_members_of_the_denoted_set() {
    // Run the corpus hot enough that later duplicates are served from
    // the cache — cached answers must satisfy the same refinement
    // criterion as fresh ones.
    let pool = pool_with(4, 128);
    let mut results = pool.eval_batch(CORPUS);
    results.extend(pool.eval_batch(CORPUS));

    let oracle = Session::new();
    for (i, result) in results.iter().enumerate() {
        let src = CORPUS[i % CORPUS.len()];
        let out = result.as_ref().expect("corpus jobs succeed");
        match &out.exception {
            None => {
                // A value answer is admissible only when the denotation
                // is not (purely) exceptional at the top.
                // (Structure-buried exceptions render inside the value.)
            }
            Some(e) => {
                let set = oracle
                    .exception_set(src)
                    .expect("oracle evaluates")
                    .unwrap_or_else(|| {
                        panic!("{src}: machine raised {e} but denotation is a value")
                    });
                assert!(
                    set.contains(e),
                    "{src}: representative {e} is not in the denoted set {set}"
                );
            }
        }
    }
    assert!(
        pool.cache_stats().hits > 0,
        "the second round must exercise cached answers"
    );
}

#[test]
fn worker_panics_fail_one_job_not_the_pool() {
    // With typechecking off, an ill-typed term panics the machine; the
    // supervisor turns that into an error on that job only.
    let options = Options {
        typecheck: false,
        ..Options::default()
    };
    let pool = EvalPool::start(
        &[],
        options,
        PoolConfig {
            workers: 2,
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");

    let results = pool.eval_batch(&["1 2", "3 + 4", "1 2", "5 * 5"]);
    assert!(results[0].is_err(), "applying an integer must fail the job");
    assert_eq!(results[1].as_ref().expect("fine").rendered, "7");
    assert!(results[2].is_err());
    assert_eq!(results[3].as_ref().expect("fine").rendered, "25");

    // The pool keeps serving after the panics.
    assert_eq!(pool.eval_one("6 * 7").expect("usable").rendered, "42");
}

#[test]
fn per_job_deadlines_cancel_runaways_without_poisoning_neighbours() {
    let pool = EvalPool::start(
        &[],
        Options::default(),
        PoolConfig {
            workers: 2,
            supervisor: Supervisor::with_deadline(150),
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");

    let diverge = "let f = \\n -> f (n + 1) in f 0";
    let results = pool.eval_batch(&["1 + 1", diverge, "2 + 2", diverge]);

    for i in [1, 3] {
        let out = results[i].as_ref().expect("cancellation is an answer");
        assert_eq!(out.exception, Some(Exception::Timeout));
        assert!(out.timed_out);
        assert!(
            !out.cache_hit,
            "an asynchronous Timeout answer must never come from the cache"
        );
    }
    assert_eq!(results[0].as_ref().expect("fine").rendered, "2");
    assert_eq!(results[2].as_ref().expect("fine").rendered, "4");

    // Run the runaway again: a Timeout is an async outcome, so the
    // previous round must not have cached it.
    let again = pool.eval_one(diverge).expect("cancelled again");
    assert!(!again.cache_hit);
    assert_eq!(again.exception, Some(Exception::Timeout));
}

#[test]
fn shutdown_now_cancels_in_flight_jobs_within_a_bounded_join() {
    // No deadlines: these jobs would run forever unless shutdown's
    // Interrupt stops them.
    let pool = Arc::new(
        EvalPool::start(
            &[],
            Options::default(),
            PoolConfig {
                workers: 2,
                supervisor: Supervisor::default(),
                ..PoolConfig::default()
            },
        )
        .expect("pool starts"),
    );

    let submitter = {
        let pool = Arc::clone(&pool);
        std::thread::spawn(move || {
            let jobs = vec!["let f = \\n -> f (n + 1) in f 0"; 6];
            pool.eval_batch(&jobs)
        })
    };
    // Let the workers pick jobs up before pulling the plug.
    std::thread::sleep(Duration::from_millis(300));

    let started = Instant::now();
    assert!(
        pool.shutdown_now(Duration::from_secs(30)),
        "every worker must exit within the grace period"
    );
    assert!(started.elapsed() < Duration::from_secs(30));

    // The submitter unblocks: every slot has an answer — Interrupt for
    // the in-flight jobs, a pool error for the cancelled queue.
    let results = submitter.join().expect("submitter finishes");
    assert_eq!(results.len(), 6);
    let mut interrupted = 0;
    let mut cancelled = 0;
    for result in &results {
        match result {
            Ok(out) => {
                assert_eq!(out.exception, Some(Exception::Interrupt));
                interrupted += 1;
            }
            Err(e) => {
                assert!(e.0.contains("cancelled"), "unexpected error: {e}");
                cancelled += 1;
            }
        }
    }
    assert!(interrupted >= 1, "some job was in flight when we shut down");
    assert_eq!(interrupted + cancelled, 6);

    // Submitting after shutdown fails cleanly rather than hanging.
    assert!(pool.eval_one("1 + 1").is_err());
}

#[test]
fn a_poisoned_cache_shard_does_not_stop_the_pool() {
    // A panic while holding a shard lock used to poison it, and every
    // later `.expect("...poisoned")` lookup cascaded that one panic into
    // every worker that touched the shard. The locks now recover
    // (`into_inner`): the cache state is a plain map with no cross-lock
    // invariant, so the pool must keep serving — including through the
    // poisoned shard itself.
    let pool = pool_with(2, 64);
    assert_eq!(pool.eval_one("1 + 1").expect("warm").rendered, "2");

    for shard in 0..pool.shared_cache().shard_count() {
        pool.shared_cache().poison_shard_for_test(shard);
    }

    // Fresh evaluations route to (formerly) poisoned shards on both the
    // lookup and insert paths and still answer.
    let exprs: Vec<String> = (0..32).map(|i| format!("{i} * 2")).collect();
    let results = pool.eval_batch(&exprs);
    for (i, r) in results.iter().enumerate() {
        assert_eq!(
            r.as_ref().expect("pool keeps serving").rendered,
            (i * 2).to_string()
        );
    }

    // The cache itself still works: a repeat of the batch hits it.
    let before = pool.cache_stats().hits;
    pool.eval_batch(&exprs);
    assert!(
        pool.cache_stats().hits >= before + exprs.len() as u64,
        "recovered shards must keep caching: {:?}",
        pool.cache_stats()
    );
}

#[test]
fn cache_hit_and_miss_counters_are_stamped_onto_per_result_stats() {
    // One worker makes hit/miss accounting deterministic: the first job
    // populates the cache, the next four hit it.
    let pool = pool_with(1, 64);
    let results = pool.eval_batch(&["sum [1 .. 30]"; 5]);

    let first = results[0].as_ref().expect("evals");
    assert!(!first.cache_hit);
    assert_eq!((first.stats.cache_hits, first.stats.cache_misses), (0, 1));
    assert!(first.stats.steps > 0);

    for r in &results[1..] {
        let out = r.as_ref().expect("evals");
        assert!(out.cache_hit);
        assert_eq!((out.stats.cache_hits, out.stats.cache_misses), (1, 0));
        assert_eq!(out.attempts, 0, "a cache hit runs no machine");
        assert_eq!(
            out.stats.steps, first.stats.steps,
            "a hit reports the populating evaluation's counters"
        );
        assert_eq!(out.rendered, first.rendered);
    }

    let cache = pool.cache_stats();
    assert_eq!((cache.hits, cache.misses, cache.insertions), (4, 1, 1));
    assert_eq!(cache.entries, 1);
    assert!((cache.hit_rate() - 0.8).abs() < 1e-9);

    // And the pooled answer matches a plain single-threaded session's.
    assert_eq!(
        first.rendered,
        Session::new()
            .eval("sum [1 .. 30]")
            .expect("evals")
            .rendered
    );
}

#[test]
fn disabling_the_cache_leaves_counters_untouched() {
    let pool = pool_with(2, 0);
    let results = pool.eval_batch(&["1 + 1", "1 + 1", "1 + 1"]);
    for r in &results {
        let out = r.as_ref().expect("evals");
        assert!(!out.cache_hit);
        assert_eq!((out.stats.cache_hits, out.stats.cache_misses), (0, 0));
    }
    let cache = pool.cache_stats();
    assert_eq!((cache.hits, cache.misses, cache.entries), (0, 0, 0));
}

#[test]
fn verify_code_does_not_perturb_the_cache_key() {
    // The arena verifier is run-only plumbing: it can panic on a corrupt
    // arena but never change an answer, so toggling it must address the
    // same cache entries (like the interrupt handle and the chaos plan).
    let session = Session::new();
    let expr = session.compile_expr("sum [1 .. 10]").expect("compiles");
    let options = Options::default();
    let plain = urk::cache::cache_key(
        &expr,
        &options.machine,
        &options.denot,
        options.render_depth,
        options.tier,
    );
    let verifying = urk::cache::cache_key(
        &expr,
        &urk::MachineConfig {
            verify_code: true,
            ..options.machine.clone()
        },
        &options.denot,
        options.render_depth,
        options.tier,
    );
    assert_eq!(
        plain, verifying,
        "verify_code must not address different cache entries"
    );
}

#[test]
fn optimized_sessions_match_pooled_answers() {
    // The optimiser now runs the exception-effect analysis and its
    // licensed rewrites over the whole program (Prelude included); an
    // optimised session must still answer exactly as the pool's plain
    // workers do on the golden corpus.
    let pool = pool_with(2, 64);
    let golden = observable(&pool.eval_batch(CORPUS));

    let mut optimized = Session::new();
    let report = optimized.optimize().expect("optimizes");
    assert!(report.total_rewrites() > 0);
    for (src, expected) in CORPUS.iter().zip(&golden) {
        let out = optimized.eval(src).expect("evals");
        let expected = expected.as_ref().expect("golden jobs succeed");
        assert_eq!(out.rendered, expected.0, "{src}");
        assert_eq!(out.exception, expected.1, "{src}");
    }
}

#[test]
fn pools_serve_user_programs_loaded_into_every_worker() {
    let pool = EvalPool::start(
        &["double x = x + x", "quad x = double (double x)"],
        Options::default(),
        PoolConfig {
            workers: 3,
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    let results = pool.eval_batch(&["quad 10", "double 21", "quad (double 5)"]);
    let rendered: Vec<&str> = results
        .iter()
        .map(|r| r.as_ref().expect("evals").rendered.as_str())
        .collect();
    assert_eq!(rendered, ["40", "42", "40"]);

    // A bad source is rejected up front, on the calling thread.
    assert!(EvalPool::start(
        &["bad = 1 + 'c'"],
        Options::default(),
        PoolConfig::default()
    )
    .is_err());
}
