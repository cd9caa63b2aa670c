//! Incremental typing agrees with whole-program typing.
//!
//! `Session::load` types only the bindings it adds, against the schemes
//! of the earlier loads. These tests check that every top-level scheme it
//! ends with renders exactly as `infer_program` renders it for the same
//! program typed whole, and that the error a late load reports is the
//! whole-program error word for word.

use std::collections::HashMap;
use std::path::Path;

use urk::{Error, Session};
use urk_syntax::{desugar_program, parse_program, DataEnv};
use urk_types::infer_program;

/// The rendered scheme of every binding `infer_program` gives the
/// session's combined program.
fn whole_program_schemes(s: &Session) -> HashMap<String, String> {
    infer_program(s.program(), s.data())
        .expect("the combined program types")
        .into_iter()
        .map(|(name, scheme)| (name.as_str(), scheme.ty.to_string()))
        .collect()
}

/// Every binding of `s` renders the same incrementally and whole.
fn assert_agrees(s: &Session, what: &str) {
    let whole = whole_program_schemes(s);
    assert_eq!(whole.len(), s.program().binds.len(), "{what}");
    for (name, _) in &s.program().binds {
        let name = name.as_str();
        assert_eq!(
            s.type_of_binding(&name).as_deref(),
            Some(whole[&name].as_str()),
            "{what}: '{name}'"
        );
    }
}

/// The error `infer_program` reports for `sources` concatenated.
fn whole_program_error(sources: &[&str]) -> String {
    let src = sources.join("\n");
    let mut data = DataEnv::new();
    let prog = desugar_program(&parse_program(&src).expect("parses"), &mut data).expect("desugars");
    infer_program(&prog, &data)
        .expect_err("the combined program is ill-typed")
        .to_string()
}

#[test]
fn prelude_schemes_match_whole_program_inference() {
    assert_agrees(&Session::new(), "Prelude");
}

#[test]
fn corpus_and_demo_schemes_match_whole_program_inference() {
    let demo = std::fs::read_to_string("examples/lint_demo.urk").expect("lint demo");
    let mut files: Vec<_> = std::fs::read_dir(Path::new("corpus"))
        .expect("corpus directory")
        .map(|e| e.expect("corpus entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "urk"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    for path in files {
        // Prelude, then the case file, then the demo: three loads.
        let mut s = Session::new();
        s.load(&std::fs::read_to_string(&path).expect("case file"))
            .expect("case file loads");
        s.load(&demo).expect("demo loads");
        assert_agrees(&s, &path.display().to_string());
    }
}

#[test]
fn a_late_signature_for_an_earlier_binding_is_checked() {
    let loads = ["g :: a -> a\ng x = x", "f x = x", "f :: a -> b"];
    let mut s = Session::new();
    s.load(loads[0]).expect("loads");
    s.load(loads[1]).expect("loads");
    let err = s.load(loads[2]).expect_err("over-general signature");
    assert!(matches!(err, Error::Type(_)), "{err}");
    let whole = whole_program_error(&[urk::prelude_source(), loads[0], loads[1], loads[2]]);
    assert_eq!(err.to_string(), whole);
    // The rigid variables are numbered after the earlier signature's.
    assert!(whole.contains("!1"), "{whole}");

    // A correct late signature is accepted.
    s.load("f :: Int -> Int")
        .expect("a more specific signature");
}

#[test]
fn an_unchecked_load_is_typed_by_the_next_checked_one() {
    let mut s = Session::new();
    s.options.typecheck = false;
    s.load("u x = x + 1").expect("loads unchecked");
    assert_eq!(s.type_of_binding("u"), None);
    s.options.typecheck = true;
    s.load("v = u 2").expect("loads");
    assert_eq!(s.type_of_binding("u").as_deref(), Some("Int -> Int"));
    assert_eq!(s.type_of_binding("v").as_deref(), Some("Int"));
    assert_agrees(&s, "unchecked tail");

    // An ill-typed unchecked tail fails the next checked load, with the
    // whole-program error.
    let mut s = Session::new();
    s.options.typecheck = false;
    s.load("bad = 1 + 'c'").expect("loads unchecked");
    s.options.typecheck = true;
    let err = s.load("w = 1").expect_err("the tail is typed");
    let whole = whole_program_error(&[urk::prelude_source(), "bad = 1 + 'c'", "w = 1"]);
    assert_eq!(err.to_string(), whole);
}
