//! Replayable on-disk cases and corpus management.
//!
//! A case file is a self-contained `.urk` program: the fuzz prelude
//! followed by one `counterexample = <term>` binding, plus a comment
//! header recording why it was saved. Replaying a case means compiling
//! the file's own bindings and running the oracle on the
//! `counterexample` right-hand side — no state from the producing run is
//! needed. Filenames are content-addressed
//! (`cg-<fingerprint>.urk` / `cx-<fingerprint>.urk`), so re-running the
//! same seed rewrites the same bytes to the same paths.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use urk_syntax::core::Expr;
use urk_syntax::{expr_fingerprint, pretty::pretty, Symbol};

use crate::ctx::{FuzzCtx, FUZZ_PRELUDE_SRC};

/// The binding name every case file uses for its term.
pub const CASE_BIND: &str = "counterexample";

/// A parsed case file: its own evaluation context plus the term.
pub struct CaseFile {
    pub ctx: FuzzCtx,
    pub query: Rc<Expr>,
}

/// Renders a term as a standalone replayable `.urk` program. `note`
/// lines become `--` comments in the header.
pub fn render_case(query: &Expr, notes: &[String]) -> String {
    let mut out = String::new();
    out.push_str("-- urk-fuzz case (replay: urk fuzz --replay <this file>)\n");
    for n in notes {
        out.push_str("-- ");
        out.push_str(n);
        out.push('\n');
    }
    out.push_str(FUZZ_PRELUDE_SRC);
    out.push_str(CASE_BIND);
    out.push_str(" = ");
    out.push_str(&pretty(query));
    out.push('\n');
    out
}

/// Loads a case file: builds a context from every binding *except*
/// `counterexample`, and returns that binding's right-hand side as the
/// query.
pub fn load_case(src: &str) -> Result<CaseFile, String> {
    let full = FuzzCtx::from_source(src)?;
    let name = Symbol::intern(CASE_BIND);
    let query = full
        .binds
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, rhs)| Rc::clone(rhs))
        .ok_or_else(|| format!("case file has no `{CASE_BIND}` binding"))?;
    let ctx = full.without_bind(name)?;
    Ok(CaseFile { ctx, query })
}

/// The content-addressed corpus filename for a term.
pub fn case_filename(query: &Expr) -> String {
    format!("cg-{:016x}.urk", expr_fingerprint(query))
}

/// The content-addressed counterexample filename for a term.
pub fn counterexample_filename(query: &Expr) -> String {
    format!("cx-{:016x}.urk", expr_fingerprint(query))
}

/// Case files in `dir`, sorted by name for deterministic replay order.
pub fn list_cases(dir: &Path) -> Vec<PathBuf> {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = rd
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "urk"))
        .collect();
    files.sort();
    files
}

/// Greedy feature-set-cover minimization: entries are considered
/// smallest-term-first (ties broken by term fingerprint), and an entry is
/// kept iff it contributes a feature no earlier kept entry covers. The
/// result covers exactly the union of input features with a deterministic
/// subset of entries.
pub fn minimize_corpus<T>(entries: Vec<(Rc<Expr>, Vec<u32>, T)>) -> Vec<(Rc<Expr>, Vec<u32>, T)> {
    let mut ordered = entries;
    ordered.sort_by_key(|(e, _, _)| (e.size(), expr_fingerprint(e)));
    let mut covered: BTreeSet<u32> = BTreeSet::new();
    let mut kept = Vec::new();
    for (expr, features, tag) in ordered {
        if features.iter().any(|f| !covered.contains(f)) {
            covered.extend(features.iter().copied());
            kept.push((expr, features, tag));
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use urk_syntax::core::PrimOp;
    use urk_syntax::expr_canonical_bytes;

    #[test]
    fn cases_round_trip_through_disk_format() {
        let term = Expr::add(
            Expr::let_(
                "s",
                Expr::app(Expr::var("fzsum"), Expr::int(9)),
                Expr::add(Expr::var("s"), Expr::var("s")),
            ),
            Expr::prim(PrimOp::Div, [Expr::int(7), Expr::int(0)]),
        );
        let text = render_case(&term, &["check: tier-divergence".into()]);
        let case = load_case(&text).expect("case must reparse");
        assert_eq!(
            expr_canonical_bytes(&case.query),
            expr_canonical_bytes(&term),
            "term must survive print -> parse -> desugar"
        );
        // The case's own context still knows the prelude.
        assert!(case
            .ctx
            .global_names()
            .iter()
            .any(|s| s.as_str() == "fzsum"));
        assert!(case.ctx.well_typed(&case.query));
    }

    #[test]
    fn minimization_is_a_deterministic_cover() {
        let mk = |n: i64| Rc::new(Expr::int(n));
        let entries = vec![
            (
                Rc::new(Expr::add(Expr::int(1), Expr::int(2))),
                vec![1, 2],
                (),
            ),
            (mk(1), vec![1], ()),
            (mk(2), vec![2], ()),
            (mk(3), vec![2, 3], ()),
        ];
        let kept = minimize_corpus(entries.clone());
        // Small terms first: Int(1) covers {1}, Int(2) covers {2}, Int(3)
        // adds {3}; the larger sum is redundant.
        assert_eq!(kept.len(), 3);
        assert!(kept.iter().all(|(e, _, _)| e.size() == 1));
        let again = minimize_corpus(entries);
        assert_eq!(
            kept.iter()
                .map(|(e, _, _)| expr_fingerprint(e))
                .collect::<Vec<_>>(),
            again
                .iter()
                .map(|(e, _, _)| expr_fingerprint(e))
                .collect::<Vec<_>>()
        );
    }
}
