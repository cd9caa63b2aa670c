//! The machine's differential battery against the denotational
//! semantics: the flat-code machine must refine the denotation on every
//! corpus the repo already trusts (§4.5 refinement). Tier 1 vs tier 2
//! under the same order is `tests/tier2.rs`'s battery.
//!
//! Four layers of evidence:
//!
//! * the soundness corpus and the paper's worked examples evaluate, under
//!   both deterministic order policies, to the denoted value — or to a
//!   representative exception that is a member of the denoted set;
//! * the same holds through an evaluation pool sharing one image;
//! * the chaos corpus holds §5.1's invariants (soundness under injected
//!   faults, clean heap audit, oracle-consistent re-eval);
//! * vendored-proptest random well-typed core terms refine their
//!   denotation at the machine level under every order policy, and each
//!   policy's choice is deterministic.

use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use urk::{EvalPool, EvalResult, Options, PoolConfig, Session};
use urk_denot::{Denot, DenotEvaluator};
use urk_machine::{compile_program, Machine, MachineConfig, OrderPolicy, Outcome};
use urk_syntax::core::{Alt, Expr, PrimOp};
use urk_syntax::{DataEnv, Symbol};

/// The closed-term corpus from `tests/soundness.rs`: every corner of the
/// semantics — values, laziness, exceptions, `seq`, `mapException`, the
/// unsafe observers, overflow, recursion, buried exceptions.
const CORPUS: &[&str] = &[
    "42",
    "1 + 2 * 3 - 4",
    "7 / 2 + 7 % 2",
    "'x'",
    "\"hello\"",
    "[1, 2, 3]",
    "(1, (2, 3))",
    "Just (Just 0)",
    r"(\x -> 3) (1/0)",
    "let x = raise Overflow in 42",
    "case 1 : raise Overflow of { x : xs -> x; [] -> 0 }",
    "fst (1, 1/0)",
    "1/0",
    "raise Overflow",
    r#"raise (UserError "Urk")"#,
    r#"(1/0) + raise (UserError "Urk")"#,
    "case raise Overflow of { True -> 1; False -> 2 }",
    "case Nothing of { Just n -> n }",
    "raise (raise DivideByZero)",
    "seq (1/0) 2",
    "seq 2 (1/0)",
    r#"mapException (\e -> Overflow) (1/0)"#,
    "unsafeIsException (1/0)",
    "unsafeIsException [1]",
    "case unsafeGetException (1/0) of { OK v -> 0; Bad e -> 1 }",
    "case unsafeGetException 9 of { OK v -> v; Bad e -> 0 }",
    "let m = raise DivideByZero in seq (raise Overflow) ((case 0 < m of { True -> 0; False -> m }) + 0)",
    "9223372036854775807 + 1",
    "negate (0 - 9223372036854775807)",
    "chr 97",
    "ord 'a' + 1",
    "let f = \\n -> if n == 0 then 1 else n * f (n - 1) in f 10",
    "let { isEven = \\n -> if n == 0 then True else isOdd (n - 1)
         ; isOdd = \\n -> if n == 0 then False else isEven (n - 1) }
     in isEven 10",
    "case (1/0, 5) of { (a, b) -> b }",
    "case (1/0, 5) of { (a, b) -> a }",
];

/// The chaos corpus from `tests/chaos.rs`: distinct denotational shapes
/// for the fault plans to race against.
const CHAOS_PROGRAMS: &[(&str, &str)] = &[
    (
        "fib",
        "let f = \\n -> if n < 2 then n else f (n - 1) + f (n - 2) in f 14",
    ),
    (
        "sum-buried-thunk",
        "let s = (let g = \\n -> if n == 0 then 0 else n + g (n - 1) in g 250) in s + 1",
    ),
    (
        "list-length",
        "let { upto = \\n -> if n == 0 then [] else n : upto (n - 1)
             ; len = \\xs -> case xs of { [] -> 0; y : ys -> 1 + len ys } }
         in len (upto 200)",
    ),
    (
        "divide-by-zero-at-depth",
        "let g = \\n -> if n == 0 then 1 / 0 else n + g (n - 1) in g 120",
    ),
    (
        "order-dependent-set",
        r#"(1/0) + (raise (UserError "Urk") + raise Overflow)"#,
    ),
    (
        "match-failure-at-depth",
        "let g = \\n -> if n == 0 then (case [] of { y : ys -> y }) else n + g (n - 1) in g 100",
    ),
];

/// A session with the given order policy.
fn session(order: OrderPolicy) -> Session {
    let mut s = Session::new();
    s.options.machine.order = order;
    s
}

/// Machine and oracle spell buried exceptional fields differently
/// (`raise {...}` vs `Bad {...}`); compare spines only in that case, full
/// renderings otherwise — the same normalization the chaos driver and the
/// fuzz oracle use.
fn renders_agree(machine: &str, denot: &str) -> bool {
    if denot.contains("Bad {") {
        machine.split_whitespace().next() == denot.split_whitespace().next()
    } else {
        machine == denot.replace("(Bad {", "(raise {")
    }
}

/// Asserts that one machine result refines the denotation of `src`: an
/// exception is a member of the denoted set, a value is the denoted one.
fn assert_refines(session: &Session, src: &str, r: &EvalResult) {
    match &r.exception {
        Some(exn) => {
            let set = session
                .exception_set(src)
                .expect("denotes")
                .unwrap_or_else(|| panic!("{src}: machine raised {exn} but the denotation is Ok"));
            assert!(
                set.contains(exn),
                "{src}: machine chose {exn} outside the denoted set {set}"
            );
        }
        None => {
            let oracle = session.denot_show(src, 32).expect("denotes");
            assert!(
                renders_agree(&r.rendered, &oracle),
                "{src}: machine value {} disagrees with the denotation {oracle}",
                r.rendered
            );
        }
    }
}

/// Evaluates `src` on the session's machine and checks it refines the
/// denotation.
fn assert_evaluates_soundly(session: &Session, src: &str) {
    let r = session.eval(src).unwrap_or_else(|e| panic!("{src}: {e}"));
    assert_eq!(r.stats.backend.name(), "compiled", "{src}");
    assert_refines(session, src, &r);
}

#[test]
fn the_soundness_corpus_agrees_under_both_order_policies() {
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        let s = session(order);
        for src in CORPUS {
            assert_evaluates_soundly(&s, src);
        }
    }
}

#[test]
fn the_chaos_corpus_agrees_when_evaluated_normally() {
    let mut s = session(OrderPolicy::LeftToRight);
    // The chaos corpus recurses a few hundred levels deep; give the
    // denotational oracle the same depth guard the chaos driver uses.
    s.options.denot.max_depth = 2_000;
    for (_, src) in CHAOS_PROGRAMS {
        assert_evaluates_soundly(&s, src);
    }
}

#[test]
fn paper_example_programs_agree_through_loaded_definitions() {
    // Loaded top-level definitions exercise the global-reference path of
    // the compiled format (the knot tied through `COp::Global`).
    let program = "safeDiv a b = if b == 0 then Bad DivideByZero else OK (a / b)\n\
                   useIt a b = case safeDiv a b of { OK v -> v; Bad ex -> 0 - 1 }\n\
                   sumTo n = if n == 0 then 0 else n + sumTo (n - 1)";
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        let mut s = session(order);
        s.load(program).expect("loads");
        for src in [
            "useIt 10 2",
            "useIt 10 0",
            "sumTo 100",
            "zipWith (+) [] [1]",
            "zipWith (+) [1] [1, 2]",
            "zipWith (/) [1, 2] [1, 0]",
            "seq (zipWith (/) [1] [0]) 5",
            "seq (forceList (zipWith (/) [1] [0])) 5",
            "take 5 (iterate (\\x -> x * 2) 1)",
            "head []",
            "map (\\x -> x * x) [1, 2, 3]",
        ] {
            assert_evaluates_soundly(&s, src);
        }
    }
}

#[test]
fn the_chaos_corpus_holds_the_invariants_on_the_compiled_backend() {
    let session = Session::new();
    let mut injected_runs = 0u32;
    let mut runs = 0u32;
    for (name, src) in CHAOS_PROGRAMS {
        for seed in 0..12u64 {
            let r = session
                .chaos_check(src, seed)
                .unwrap_or_else(|e| panic!("{name}: front-end error: {e}"));
            assert!(
                r.sound,
                "{name} seed {seed}: unsound — outcome {} not in oracle {} ∪ {:?}",
                r.outcome,
                r.oracle,
                r.plan.injectable()
            );
            assert!(
                r.heap_consistent,
                "{name} seed {seed}: heap audit failed after interrupted compiled run ({})",
                r.outcome
            );
            assert!(
                r.reeval_ok,
                "{name} seed {seed}: compiled re-evaluation after disarming disagrees with {}",
                r.oracle
            );
            runs += 1;
            if r.faults_fired > 0 {
                injected_runs += 1;
            }
        }
    }
    assert!(
        injected_runs >= runs / 3,
        "too few compiled runs actually injected faults: {injected_runs}/{runs}"
    );
}

#[test]
fn first_compiled_eval_pays_for_lowering_and_later_ones_do_not() {
    let session = Session::new();
    let first = session.eval("1 + 2").expect("evals");
    assert!(
        first.stats.compile_ops > 0 && first.stats.compile_micros > 0,
        "the eval that triggers lowering must carry its cost: {:?}",
        first.stats
    );
    // Later evals still lower their own query, but the program image
    // (the Prelude — hundreds of ops) is reused, not recompiled.
    let second = session.eval("3 + 4").expect("evals");
    assert!(
        second.stats.compile_ops > 0 && second.stats.compile_ops < first.stats.compile_ops / 10,
        "later evals must reuse the cached image: first {} ops, second {} ops",
        first.stats.compile_ops,
        second.stats.compile_ops
    );
}

#[test]
fn pools_on_both_backends_agree_with_one_shared_image() {
    let sources: &[&str] = &["double x = x + x\nsquare x = x * x"];
    let exprs: Vec<String> = (0..8)
        .map(|i| format!("double (square {i}) + {i}"))
        .chain(["zipWith (/) [1, 2] [1, 0]".to_string(), "1/0".to_string()])
        .collect();
    let pool = EvalPool::start(
        sources,
        Options::default(),
        PoolConfig {
            workers: 3,
            cache_cap: 64,
            ..PoolConfig::default()
        },
    )
    .expect("pool starts");
    let pooled = pool.eval_batch(&exprs);
    // Every worker links the probe's image; each answer must match a
    // direct evaluation byte for byte and refine the denotation.
    let mut direct = Session::new();
    for src in sources {
        direct.load(src).expect("loads");
    }
    for (src, a) in exprs.iter().zip(&pooled) {
        let a = a.as_ref().expect("pool evals");
        let b = direct.eval(src).expect("evals");
        assert_eq!(a.rendered, b.rendered, "{src}");
        assert_eq!(a.exception, b.exception, "{src}");
        assert_eq!(a.stats.backend.name(), "compiled", "{src}");
        assert_refines(&direct, src, &b);
    }
}

// ----------------------------------------------------------------------
// Random well-typed terms, machine vs denotation.
// ----------------------------------------------------------------------

const POOL: [&str; 4] = ["pa", "pb", "pc", "pd"];

/// Generates a closed Int-typed expression (the `tests/properties.rs`
/// generator): recursion-free, so every term terminates, but `raise`,
/// division and `error` flow everywhere.
fn gen_int(depth: u32, scope: Vec<Symbol>) -> BoxedStrategy<Expr> {
    let var_leaf: BoxedStrategy<Expr> = if scope.is_empty() {
        Just(Expr::Int(7)).boxed()
    } else {
        proptest::sample::select(scope.clone())
            .prop_map(Expr::Var)
            .boxed()
    };
    let leaf = prop_oneof![
        (0i64..100).prop_map(Expr::Int),
        Just(Expr::raise(Expr::con("Overflow", []))),
        Just(Expr::raise(Expr::con("DivideByZero", []))),
        Just(Expr::error("Urk")),
        var_leaf,
    ];
    if depth == 0 {
        return leaf.boxed();
    }
    let sub = move |scope: Vec<Symbol>| gen_int(depth - 1, scope);
    let s0 = scope.clone();
    let s1 = scope.clone();
    let s2 = scope.clone();
    let s3 = scope.clone();
    let s4 = scope.clone();
    let s5 = scope.clone();
    prop_oneof![
        3 => leaf,
        4 => (sub(s0.clone()), sub(s0.clone()), prop_oneof![
                Just(PrimOp::Add), Just(PrimOp::Sub), Just(PrimOp::Mul),
                Just(PrimOp::Div), Just(PrimOp::Mod)
             ])
            .prop_map(|(a, b, op)| Expr::prim(op, [a, b])),
        1 => (sub(s1.clone()), sub(s1.clone()))
            .prop_map(|(a, b)| Expr::prim(PrimOp::Seq, [a, b])),
        2 => (sub(s2.clone()), sub(s2.clone()), sub(s2.clone()), sub(s2.clone()))
            .prop_map(|(a, b, t, f)| {
                Expr::case(
                    Expr::prim(PrimOp::IntLt, [a, b]),
                    vec![
                        Alt::con("True", vec![], t),
                        Alt::con("False", vec![], f),
                    ],
                )
            }),
        2 => (0..POOL.len(), sub(s3.clone())).prop_flat_map(move |(i, rhs)| {
                let v = Symbol::intern(POOL[i]);
                let mut scope2 = s3.clone();
                scope2.push(v);
                sub(scope2).prop_map(move |body| Expr::let_(v, rhs.clone(), body))
             }),
        1 => (0..POOL.len(), sub(s4.clone())).prop_flat_map(move |(i, arg)| {
                let v = Symbol::intern(POOL[i]);
                let mut scope2 = s4.clone();
                scope2.push(v);
                sub(scope2).prop_map(move |body| {
                    Expr::app(Expr::lam(v, body), arg.clone())
                })
             }),
        1 => (0..POOL.len(), sub(s5.clone()), proptest::bool::ANY)
            .prop_flat_map(move |(i, payload, just)| {
                let v = Symbol::intern(POOL[i]);
                let mut scope2 = s5.clone();
                scope2.push(v);
                let s5b = s5.clone();
                (sub(scope2), sub(s5b)).prop_map(move |(just_rhs, nothing_rhs)| {
                    let scrut = if just {
                        Expr::con("Just", [payload.clone()])
                    } else {
                        Expr::con("Nothing", [])
                    };
                    Expr::case(
                        scrut,
                        vec![
                            Alt::con("Just", vec![v], just_rhs),
                            Alt::con("Nothing", vec![], nothing_rhs),
                        ],
                    )
                })
            }),
    ]
    .boxed()
}

fn render_outcome(m: &mut Machine, out: Outcome) -> String {
    match out {
        Outcome::Value(n) => m.render(n, 16),
        Outcome::Caught(e) | Outcome::Uncaught(e) => format!("(raise {e})"),
    }
}

fn compiled_result(e: &Rc<Expr>, policy: OrderPolicy) -> (String, Option<urk_syntax::Exception>) {
    let mut m = Machine::new(MachineConfig {
        order: policy,
        ..MachineConfig::default()
    });
    m.link_code(Arc::new(compile_program(&[])));
    let out = m.eval_code_expr(e, true).expect("terminates");
    let exn = match &out {
        Outcome::Caught(e) | Outcome::Uncaught(e) => Some(e.clone()),
        Outcome::Value(_) => None,
    };
    (render_outcome(&mut m, out), exn)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The validation property: for random well-typed terms and every
    /// order policy, the machine's outcome refines the denotation (a
    /// value is the denoted integer, an exception a member of the set),
    /// and re-running under the same policy reproduces it exactly.
    #[test]
    fn compiled_execution_refines_the_denotation(e in gen_int(4, Vec::new())) {
        let e = Rc::new(e);
        let data = DataEnv::new();
        let denot = DenotEvaluator::new(&data).eval_closed(&e);
        for policy in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft, OrderPolicy::Seeded(11)] {
            let (rendered, exn) = compiled_result(&e, policy);
            prop_assert_eq!(
                (&rendered, &exn),
                (&compiled_result(&e, policy).0, &compiled_result(&e, policy).1),
                "non-deterministic under {:?}", policy
            );
            match (&denot, &exn) {
                (Denot::Bad(set), Some(exn)) => prop_assert!(set.contains(exn),
                    "machine chose {} outside the denoted set {}", exn, set),
                (Denot::Ok(urk_denot::Value::Int(n)), None) => {
                    prop_assert_eq!(&rendered, &n.to_string(), "under {:?}", policy);
                }
                (d, o) => prop_assert!(false, "layer mismatch: {:?} vs {:?}", d, o),
            }
        }
    }
}
