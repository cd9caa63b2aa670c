//! Running a program must not grow the symbol interner.
//!
//! The interner never frees a name, so any evaluation step that mints a
//! fresh symbol leaks memory for the life of the process — a long-lived
//! server would grow without bound. An IO `>>=` continuation and a
//! `mapException` handler are the two steps most exposed to this: each
//! applies a node to a node at run time. This file holds one test, so
//! no parallel test can intern names while it measures.

use urk::Session;
use urk_io::{Event, IoResult, StringInput};
use urk_syntax::{Exception, Symbol};

/// 1000 binds, each after a `getException` of a `mapException` whose
/// argument raises — 1000 handler applications on the same machine.
const PROGRAM: &str = r"
iter n = if n == 0
  then return 0
  else getException (mapException (\e -> Overflow) (1 / 0)) >>= \v -> iter (n - 1)
main = iter 1000
";

/// The interner's next free index, observed by interning a new name.
fn probe(k: u32) -> u32 {
    Symbol::intern(&format!("probe-{k}")).raw()
}

#[test]
fn binds_and_map_exception_raises_intern_nothing() {
    let mut s = Session::new();
    s.load(PROGRAM).expect("loads");
    // Lowering and linking happen before the first probe.
    let mut m = s.machine();
    let root = m
        .global_node(Symbol::intern("main"))
        .expect("main is defined");

    let before = probe(0);
    let out = urk_io::run_machine_node(&mut m, root, &mut StringInput::new(""));
    let after = probe(1);

    assert!(
        matches!(out.result, IoResult::Done(ref v) if v == "0"),
        "{:?}",
        out.result
    );
    let chosen = out
        .trace
        .events()
        .iter()
        .filter(|e| **e == Event::ChoseException(Exception::Overflow))
        .count();
    assert_eq!(chosen, 1000, "every iteration raised through mapException");
    assert_eq!(
        after - before,
        1,
        "the run interned {} symbols besides the probe",
        after - before - 1
    );
}
