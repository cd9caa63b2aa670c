//! The IO differential on the one engine, shared by the suites whose
//! programs perform `main` (`tests/paper_examples.rs`,
//! `tests/concurrency.rs`).
//!
//! Every run through these helpers is checked four ways:
//!
//! * `run_main` and `run_main_concurrent` are performed at tier 1 and at
//!   tier 2 — the same order policy, so the traces and final results must
//!   be identical;
//! * a heap audit follows every run: §5.1's restore and §3.3's poisoning
//!   act on `CBlackhole`s, and none may survive an IO run;
//! * a sequential program performed by the concurrent scheduler behaves
//!   exactly as under the sequential runner;
//! * a sequential program's machine behaviour is one of the semantic
//!   LTS's behaviours (§4.4): the semantic runner replays the machine's
//!   `getException` choices, each of which must be a member of the denoted
//!   set, and must then produce the same trace and final value; an
//!   uncaught exception must be a member of the denoted set.
//!
//! The semantic comparison is skipped when the machine took an
//! asynchronous event or hit a hard limit (the LTS only models
//! asynchrony through an explicit schedule), and for programs that fork
//! or use `MVar`s, which the semantic runner does not perform.

// Each including suite uses the helper for the runner it drives.
#![allow(dead_code)]

use std::collections::VecDeque;

use urk::{Error, ExnSet, IoResult, Session, Tier};
use urk_io::{
    AsyncSchedule, ConcurrentOutcome, Event, ExceptionOracle, OracleChoice, RunOutcome,
    SemIoResult, StringInput,
};
use urk_syntax::{Exception, Symbol};

/// Performs `main` as [`Session::run_main`] does, then runs the
/// differential above. Returns the session's own outcome.
pub fn run_main(s: &mut Session, input: &str) -> Result<RunOutcome, Error> {
    let out = s.run_main(input)?;
    let saved = s.options.tier;
    for tier in [Tier::One, Tier::Two] {
        s.options.tier = tier;
        let seq = audited_run(s, input, false);
        let conc = audited_run(s, input, true);
        let at = format!("tier {}", tier.name());
        assert_eq!(seq.0.trace, out.trace, "{at}: sequential trace");
        assert_eq!(
            format!("{:?}", seq.0.result),
            format!("{:?}", out.result),
            "{at}: sequential result"
        );
        assert_eq!(conc.1.trace, out.trace, "{at}: concurrent trace");
        assert_eq!(
            format!("{:?}", conc.1.main),
            format!("{:?}", out.result),
            "{at}: concurrent main result"
        );
    }
    s.options.tier = saved;
    check_against_semantics(s, input, &out);
    Ok(out)
}

/// Performs `main` as [`Session::run_main_concurrent`] does, then checks
/// both tiers agree on the main result, the trace, and every thread's
/// result, auditing the heap after each run. Returns the session's own
/// outcome.
pub fn run_main_concurrent(s: &mut Session, input: &str) -> Result<ConcurrentOutcome, Error> {
    let out = s.run_main_concurrent(input)?;
    let saved = s.options.tier;
    for tier in [Tier::One, Tier::Two] {
        s.options.tier = tier;
        let (_, conc) = audited_run(s, input, true);
        let at = format!("tier {}", tier.name());
        assert_eq!(conc.trace, out.trace, "{at}: trace");
        assert_eq!(
            format!("{:?}", (&conc.main, &conc.threads)),
            format!("{:?}", (&out.main, &out.threads)),
            "{at}: main and thread results"
        );
    }
    s.options.tier = saved;
    Ok(out)
}

/// One run of `main` on a fresh machine at the session's tier (the
/// sequential runner, or the concurrent one when `concurrent`), with the
/// heap audited afterwards. The unused half of the pair is empty.
fn audited_run(s: &Session, input: &str, concurrent: bool) -> (RunOutcome, ConcurrentOutcome) {
    let mut m = s.machine();
    let root = m
        .global_node(Symbol::intern("main"))
        .expect("the program defines main");
    let mut inp = StringInput::new(input);
    let empty = || RunOutcome {
        result: IoResult::Done(String::new()),
        trace: Default::default(),
    };
    let out = if concurrent {
        let c = urk_io::run_concurrent(&mut m, root, &mut inp);
        (empty(), c)
    } else {
        let r = urk_io::run_machine_node(&mut m, root, &mut inp);
        (
            r,
            ConcurrentOutcome {
                main: IoResult::Done(String::new()),
                trace: Default::default(),
                threads: Vec::new(),
            },
        )
    };
    let audit = m.audit_heap();
    assert!(
        audit.is_consistent(),
        "tier {} ({}): heap audit after the run: {audit}",
        s.options.tier.name(),
        if concurrent {
            "concurrent"
        } else {
            "sequential"
        }
    );
    out
}

/// Replays the machine's `getException` choices into the semantic
/// runner, recording any choice outside the denoted set.
struct Replay {
    choices: VecDeque<Exception>,
    violations: Vec<String>,
}

impl ExceptionOracle for Replay {
    fn choose(&mut self, set: &ExnSet) -> OracleChoice {
        match self.choices.pop_front() {
            Some(e) => {
                if !set.contains(&e) {
                    self.violations
                        .push(format!("machine chose {e} outside the denoted set {set}"));
                }
                OracleChoice::Exception(e)
            }
            None => {
                self.violations.push(format!(
                    "the semantic runner met an exceptional getException ({set}) \
                     where the machine got a value"
                ));
                OracleChoice::Diverge
            }
        }
    }
}

fn check_against_semantics(s: &Session, input: &str, out: &RunOutcome) {
    let asynchronous = out
        .trace
        .events()
        .iter()
        .any(|e| matches!(e, Event::AsyncDelivered(_) | Event::Forked(_)));
    if asynchronous || matches!(out.result, IoResult::MachineError(_)) {
        return;
    }
    let choices = out
        .trace
        .events()
        .iter()
        .filter_map(|e| match e {
            Event::ChoseException(x) => Some(x.clone()),
            _ => None,
        })
        .collect();
    let mut oracle = Replay {
        choices,
        violations: Vec::new(),
    };
    let sem = s
        .run_main_semantic_with(input, &mut oracle, &AsyncSchedule::default())
        .expect("the semantic runner performs main");
    assert!(oracle.violations.is_empty(), "{:?}", oracle.violations);
    assert!(
        oracle.choices.is_empty(),
        "the machine made choices the semantic runner never asked for: {:?}",
        oracle.choices
    );
    assert_eq!(sem.trace, out.trace, "machine trace vs semantic trace");
    match (&out.result, &sem.result) {
        (IoResult::Done(m), SemIoResult::Done(d)) => assert!(
            renders_agree(m, d),
            "final value: machine {m}, semantics {d}"
        ),
        (IoResult::Uncaught(e), SemIoResult::Uncaught(set)) => assert!(
            set.contains(e),
            "uncaught {e} outside the denoted set {set}"
        ),
        (IoResult::OutOfInput, SemIoResult::OutOfInput) => {}
        (m, d) => panic!("machine result {m:?} vs semantic result {d:?}"),
    }
}

/// Machine and oracle spell buried exceptional fields differently
/// (`raise {...}` vs `Bad {...}`); compare spines only in that case, full
/// renderings otherwise — the normalization the chaos driver uses.
fn renders_agree(machine: &str, denot: &str) -> bool {
    if denot.contains("Bad {") {
        machine.split_whitespace().next() == denot.split_whitespace().next()
    } else {
        machine == denot.replace("(Bad {", "(raise {")
    }
}
