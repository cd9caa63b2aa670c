//! The static-analysis soundness battery.
//!
//! The whole-program exception-effect analysis (`urk-analysis`) promises
//! a *conservative* prediction: whatever exception either machine backend
//! actually raises — and whatever the denotational semantics says the
//! expression's set is — must be inside the statically predicted set.
//! This file enforces that differentially:
//!
//! * over the soundness corpus, at both tiers and both deterministic
//!   order policies: denoted set ⊆ predicted set, and every machine
//!   representative ∈ predicted set;
//! * over ≥256 vendored-proptest random core terms, machine-checked
//!   under every order policy (the runs also pass every arena through
//!   `Code::verify`, which panics in debug builds on any
//!   structural defect — so this battery doubles as the verifier's
//!   accept-side property);
//! * the analysis-licensed optimizer rewrites fire on programs built to
//!   need proofs, and validate as §4.5 identity-or-refinement;
//! * `Code::verify` accepts every compiler-emitted arena for the corpus
//!   programs (the reject side lives in the machine crate's sabotage
//!   tests);
//! * the callee-first `analyze_program` reaches exactly the fixpoint of
//!   the round-based iteration kept here as a reference, on the Prelude,
//!   every checked-in program, the bench workloads and random programs;
//! * a validated tier-2 image analyses its program twice, an unvalidated
//!   one once.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

use proptest::prelude::*;

use urk::{Session, Tier};
use urk_analysis::{analyses_run, analyze_program, Analysis, Effect, Summary};
use urk_denot::{Denot, DenotEvaluator, ExnSet};
use urk_machine::{compile_program, Machine, MachineConfig, OrderPolicy, Outcome};
use urk_syntax::core::{Alt, CoreProgram, Expr, PrimOp};
use urk_syntax::{DataEnv, Symbol};

/// The closed-term corpus from `tests/soundness.rs` / `tests/compiled.rs`.
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
    "9223372036854775807 + 1",
    "chr 97",
    "ord 'a' + 1",
    "let f = \\n -> if n == 0 then 1 else n * f (n - 1) in f 10",
    "case (1/0, 5) of { (a, b) -> b }",
    "case (1/0, 5) of { (a, b) -> a }",
];

/// `smaller ⊆ bigger`, with ⊥ (`All`) as the top of the inclusion order.
fn assert_subset(smaller: &ExnSet, bigger: &ExnSet, ctx: &str) {
    if bigger.is_all() {
        return;
    }
    let members = smaller
        .members()
        .unwrap_or_else(|| panic!("{ctx}: actual set is ⊥ but the prediction {bigger} is finite"));
    for e in &members {
        assert!(
            bigger.contains(e),
            "{ctx}: actual member {e} escapes the predicted set {bigger}"
        );
    }
}

/// Predicted sets over-approximate the denotation and cover every
/// machine representative, for the whole corpus, at both tiers and both
/// deterministic order policies.
#[test]
fn corpus_predictions_cover_denotation_and_both_backends() {
    for order in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft] {
        for tier in [Tier::One, Tier::Two] {
            let mut session = Session::new();
            session.options.machine.order = order;
            session.options.tier = tier;
            for src in CORPUS {
                let predicted = session.predicted_exceptions(src).expect("analyzes");
                if let Some(denoted) = session.exception_set(src).expect("denotes") {
                    assert_subset(&denoted, &predicted, src);
                }
                let out = session.eval(src).expect("evaluates");
                if let Some(exn) = &out.exception {
                    assert!(
                        predicted.contains(exn),
                        "{src}: tier {} machine raised {exn} outside the predicted set {predicted}",
                        tier.name(),
                    );
                }
            }
        }
    }
}

/// Summaries keep the guarantee through loaded top-level definitions
/// (saturated calls, recursion pinned to ⊥, higher-order arguments).
#[test]
fn loaded_programs_keep_predictions_conservative() {
    let program = "safeDiv a b = if b == 0 then Bad DivideByZero else OK (a / b)\n\
                   useIt a b = case safeDiv a b of { OK v -> v; Bad ex -> 0 - 1 }\n\
                   sumTo n = if n == 0 then 0 else n + sumTo (n - 1)\n\
                   partial m = case m of { Just x -> x }";
    for tier in [Tier::One, Tier::Two] {
        let mut session = Session::new();
        session.options.tier = tier;
        session.load(program).expect("loads");
        for src in [
            "useIt 10 2",
            "useIt 10 0",
            "sumTo 50",
            "partial (Just 3)",
            "partial Nothing",
            "zipWith (+) [] [1]",
            "seq (forceList (zipWith (/) [1] [0])) 5",
            "head []",
        ] {
            let predicted = session.predicted_exceptions(src).expect("analyzes");
            if let Some(denoted) = session.exception_set(src).expect("denotes") {
                assert_subset(&denoted, &predicted, src);
            }
            let out = session.eval(src).expect("evaluates");
            if let Some(exn) = &out.exception {
                assert!(
                    predicted.contains(exn),
                    "{src}: machine raised {exn} outside the predicted set {predicted}"
                );
            }
        }
    }
}

/// The optimizer's analysis-licensed rewrites fire on a program that
/// needs proofs to rewrite, and every query validates as §4.5
/// identity-or-refinement through the session pipeline.
#[test]
fn licensed_rewrites_fire_and_validate_through_the_session() {
    let mut session = Session::new();
    session
        .load(
            "deadIs x = case unsafeIsException (1 / 0) of { True -> 1; False -> x }\n\
             getOk = case unsafeGetException (2 + 3) of { OK v -> v + 1; Bad e -> 0 }\n\
             pruned = let k = 1 in case k of { 1 -> 10; 2 -> 20 }",
        )
        .expect("loads");
    let report = session
        .optimize_validated(&["deadIs 7", "getOk", "pruned", "deadIs (1/0)"])
        .expect("optimizes");
    assert!(report.validated(), "{:?}", report.validation);
    let fired: Vec<&str> = report
        .rewrites
        .iter()
        .filter(|(name, n)| name.starts_with("licensed-") && *n > 0)
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        fired.contains(&"licensed-is-exn") && fired.contains(&"licensed-get-exn"),
        "licensed observer folds should fire: {:?}",
        report.rewrites
    );
    // The optimised program still answers identically.
    assert_eq!(session.eval("deadIs 7").expect("evals").rendered, "1");
    assert_eq!(session.eval("getOk").expect("evals").rendered, "6");
    assert_eq!(session.eval("pruned").expect("evals").rendered, "10");
}

/// `Code::verify` accepts every compiler-emitted arena: the session
/// programs used across this battery, plus every per-query extension
/// (checked by the debug-build hook on each compiled evaluation).
#[test]
fn verify_accepts_every_compiler_emitted_arena() {
    let mut session = Session::new();
    session
        .load("double x = x + x\npartial m = case m of { Just x -> x }")
        .expect("loads");
    session
        .compiled_code()
        .verify()
        .expect("the session program compiles to a well-formed arena");
    // And after optimisation rewrites the program:
    session.optimize().expect("optimizes");
    session
        .compiled_code()
        .verify()
        .expect("the optimised program compiles to a well-formed arena");
}

// ----------------------------------------------------------------------
// Random closed core terms (the `tests/compiled.rs` generator).
// ----------------------------------------------------------------------

const POOL: [&str; 4] = ["pa", "pb", "pc", "pd"];

/// Generates a closed Int-typed expression: recursion-free, so every
/// term terminates, but `raise`, division and `error` flow everywhere.
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

fn machine_exception(e: &Rc<Expr>, policy: OrderPolicy) -> Option<urk_syntax::Exception> {
    let mut m = Machine::new(MachineConfig {
        order: policy,
        ..MachineConfig::default()
    });
    // In debug builds the link/compile hooks also run `Code::verify` over
    // the base arena and every query extension.
    m.link_code(Arc::new(compile_program(&[])));
    let out = m.eval_code_expr(e, true).expect("terminates");
    match out {
        Outcome::Caught(e) | Outcome::Uncaught(e) => Some(e),
        Outcome::Value(_) => None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The headline soundness property, ≥256 random closed terms: the
    /// statically predicted set contains the denoted set and whatever
    /// representative the machine raises, under every order policy.
    #[test]
    fn random_terms_stay_inside_the_predicted_set(e in gen_int(4, vec![])) {
        let data = DataEnv::new();
        let e = Rc::new(e);
        let analysis = analyze_program(&CoreProgram::default(), &data);
        let predicted = analysis.predicted_set(&e, &data);

        let ev = DenotEvaluator::new(&data);
        if let Denot::Bad(denoted) = ev.eval_closed(&e) {
            if !predicted.is_all() {
                let members = denoted.members()
                    .unwrap_or_else(|| panic!("denoted ⊥ under finite prediction {predicted}"));
                for exn in &members {
                    prop_assert!(
                        predicted.contains(exn),
                        "denoted member {exn} escapes the predicted set {predicted}",
                    );
                }
            }
        }

        for policy in [OrderPolicy::LeftToRight, OrderPolicy::RightToLeft, OrderPolicy::Seeded(11)] {
            if let Some(exn) = machine_exception(&e, policy) {
                prop_assert!(
                    predicted.contains(&exn),
                    "machine ({policy:?}) raised {exn} outside the predicted set {predicted}",
                );
            }
        }
    }
}

// ----------------------------------------------------------------------
// Equivalence with the optimistic iteration.
// ----------------------------------------------------------------------

/// The round-based iteration `analyze_program` used to run, kept as a
/// reference: pin every self-reachable binding to ⊥, start the rest at
/// "pure", and re-analyse every body against the previous round's
/// summaries until nothing changes (falling back to ⊥ everywhere if a
/// round cap is hit). The callee-first pass must reach the same fixpoint.
fn reference_analysis(prog: &CoreProgram, data: &DataEnv) -> Analysis {
    let peeled: Vec<(Symbol, Vec<Symbol>, Rc<Expr>)> = prog
        .binds
        .iter()
        .map(|(name, rhs)| {
            let mut params = Vec::new();
            let mut body = rhs.clone();
            while let Expr::Lam(x, b) = &*body {
                params.push(*x);
                body = b.clone();
            }
            (*name, params, body)
        })
        .collect();
    let index: HashMap<Symbol, usize> = peeled
        .iter()
        .enumerate()
        .map(|(i, (n, _, _))| (*n, i))
        .collect();
    let succs: Vec<Vec<usize>> = prog
        .binds
        .iter()
        .map(|(_, rhs)| {
            rhs.free_vars()
                .iter()
                .filter_map(|v| index.get(v).copied())
                .collect()
        })
        .collect();
    let self_reachable = |i: usize| {
        let mut seen = vec![false; succs.len()];
        let mut stack: Vec<usize> = succs[i].clone();
        while let Some(j) = stack.pop() {
            if j == i {
                return true;
            }
            if !seen[j] {
                seen[j] = true;
                stack.extend(succs[j].iter().copied());
            }
        }
        false
    };

    let mut an = Analysis::default();
    for (i, (name, params, body)) in peeled.iter().enumerate() {
        let summary = if self_reachable(i) {
            an.recursive.insert(*name);
            Summary {
                arity: params.len(),
                body_effect: Effect::bottom(),
                uses: vec![true; params.len()],
                demands: vec![false; params.len()],
            }
        } else {
            let fv = body.free_vars();
            Summary {
                arity: params.len(),
                body_effect: Effect::pure(),
                uses: params.iter().map(|p| fv.contains(p)).collect(),
                demands: vec![false; params.len()],
            }
        };
        an.summaries.insert(*name, summary);
    }

    let max_rounds = peeled.len().max(8);
    let mut rounds = 0;
    let mut stable = false;
    while rounds < max_rounds && !stable {
        rounds += 1;
        let mut next: Vec<(Symbol, Effect, Vec<bool>)> = Vec::new();
        {
            let analyzer = an.analyzer(data);
            for (name, params, body) in &peeled {
                if an.recursive.contains(name) {
                    continue;
                }
                let mut env: Vec<(Symbol, Effect)> =
                    params.iter().map(|p| (*p, Effect::opaque_arg())).collect();
                let be = analyzer.effect(body, &mut env).normalize();
                let dset = analyzer.demanded(body, &mut Vec::new(), params);
                let demands: Vec<bool> = params.iter().map(|p| dset.contains(p)).collect();
                next.push((*name, be, demands));
            }
        }
        stable = true;
        for (name, be, demands) in next {
            let slot = an.summaries.get_mut(&name).expect("summary exists");
            if slot.body_effect != be || slot.demands != demands {
                stable = false;
                slot.body_effect = be;
                slot.demands = demands;
            }
        }
    }
    if !stable {
        for (name, params, _) in &peeled {
            if !an.recursive.contains(name) {
                an.recursive.insert(*name);
                let slot = an.summaries.get_mut(name).expect("summary exists");
                slot.body_effect = Effect::bottom();
                slot.uses = vec![true; params.len()];
                slot.demands = vec![false; params.len()];
            }
        }
    }
    an
}

/// `analyze_program` and the reference iteration agree on every summary,
/// the recursive set, and the positional facts tier 2 consumes.
fn assert_matches_reference(prog: &CoreProgram, data: &DataEnv, ctx: &str) {
    let fast = analyze_program(prog, data);
    let slow = reference_analysis(prog, data);
    assert_eq!(
        fast.recursive, slow.recursive,
        "{ctx}: recursive sets differ"
    );
    assert_eq!(
        fast.summaries.len(),
        slow.summaries.len(),
        "{ctx}: summary counts differ"
    );
    for (name, s) in &slow.summaries {
        assert_eq!(
            fast.summaries.get(name),
            Some(s),
            "{ctx}: summary of `{name}`"
        );
    }
    assert_eq!(
        fast.binding_facts(&prog.binds),
        slow.binding_facts(&prog.binds),
        "{ctx}: binding facts differ"
    );
}

fn urk_files(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "urk"))
        .collect();
    paths.sort();
    paths
}

#[test]
fn the_single_pass_matches_the_iteration_on_every_checked_in_program() {
    let prelude = Session::new();
    assert_matches_reference(prelude.program(), prelude.data(), "the Prelude");

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = urk_files(&root.join("corpus"));
    assert!(!files.is_empty(), "no checked-in corpus");
    files.push(root.join("examples").join("lint_demo.urk"));
    for path in &files {
        let src = fs::read_to_string(path).expect("read program");
        let mut session = Session::new();
        session
            .load(&src)
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_matches_reference(
            session.program(),
            session.data(),
            &path.display().to_string(),
        );
    }

    let mut workloads = urk_bench::workloads();
    workloads.push(urk_bench::pipeline_workload());
    for w in &workloads {
        let c = urk_bench::compile(w);
        assert_matches_reference(&c.program, &c.data, w.name);
    }
}

/// The program generator's global names; calls may target any of them,
/// so programs mix chains, self-loops, mutual recursion and dead code.
const GLOBALS: [&str; 6] = ["ga", "gb", "gc", "gd", "ge", "gf"];
const PARAMS: [&str; 2] = ["qa", "qb"];

/// A call `g a1 .. ak` with 0–3 arguments: partial, saturated or
/// over-saturated depending on `g`'s arity.
fn gen_call(scope: Vec<Symbol>) -> BoxedStrategy<Expr> {
    let arg = move || gen_int(1, scope.clone());
    (0..GLOBALS.len(), 0..4usize, arg(), arg(), arg())
        .prop_map(|(g, n, a, b, c)| {
            Expr::apps(Expr::var(GLOBALS[g]), [a, b, c].into_iter().take(n))
        })
        .boxed()
}

/// Wraps `acc` around a call in a strict, lazy or case context, or leaves
/// it alone (`how` 4 and up).
fn with_call(acc: Expr, call: Expr, how: u8) -> Expr {
    match how {
        0 => Expr::prim(PrimOp::Add, [acc, call]),
        1 => Expr::prim(PrimOp::Seq, [call, acc]),
        2 => Expr::let_("lz", call, acc),
        3 => Expr::case(
            Expr::prim(PrimOp::IntLt, [call, Expr::Int(3)]),
            vec![
                Alt::con("True", vec![], acc.clone()),
                Alt::con("False", vec![], acc),
            ],
        ),
        _ => acc,
    }
}

/// One binding: `\params -> body` where the body combines a random term
/// over the parameters with up to three calls.
fn gen_binding(name: &'static str) -> BoxedStrategy<(Symbol, Rc<Expr>)> {
    (0..PARAMS.len() + 1)
        .prop_flat_map(move |arity| {
            let params: Vec<Symbol> = PARAMS[..arity].iter().map(|p| Symbol::intern(p)).collect();
            let call = || (gen_call(params.clone()), 0..6u8);
            (
                Just(params.clone()),
                gen_int(2, params.clone()),
                call(),
                call(),
                call(),
            )
        })
        .prop_map(move |(params, base, c0, c1, c2)| {
            let body = [c0, c1, c2]
                .into_iter()
                .fold(base, |acc, (call, how)| with_call(acc, call, how));
            (Symbol::intern(name), Rc::new(Expr::lams(params, body)))
        })
        .boxed()
}

fn gen_program() -> BoxedStrategy<CoreProgram> {
    let binds = (
        gen_binding(GLOBALS[0]),
        gen_binding(GLOBALS[1]),
        gen_binding(GLOBALS[2]),
        gen_binding(GLOBALS[3]),
        gen_binding(GLOBALS[4]),
        gen_binding(GLOBALS[5]),
    );
    (1..GLOBALS.len() + 1, binds)
        .prop_map(|(n, (a, b, c, d, e, f))| CoreProgram {
            binds: [a, b, c, d, e, f].into_iter().take(n).collect(),
            sigs: Vec::new(),
        })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random call graphs: the single pass reaches the iteration's
    /// fixpoint whatever the shape of the consultation graph.
    #[test]
    fn the_single_pass_matches_the_iteration_on_random_programs(prog in gen_program()) {
        assert_matches_reference(&prog, &DataEnv::new(), "random program");
    }
}

/// A validated tier-2 image runs two analyses (the optimiser's licence
/// and the audit's independent re-analysis of it); an unvalidated one
/// runs only the optimiser's.
#[test]
fn a_tier2_image_analyses_once_plus_once_to_audit() {
    for (validate, expected) in [(true, 2), (false, 1)] {
        let mut session = Session::new();
        session.options.tier = Tier::Two;
        session.options.validate_tier2 = validate;
        session
            .load("sq x = x * x\nk = sq 7\nmain = k + 1")
            .expect("loads");
        let before = analyses_run();
        session.compiled_code();
        assert_eq!(
            analyses_run() - before,
            expected,
            "validate_tier2 = {validate}"
        );
    }
}
