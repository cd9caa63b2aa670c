//! Hindley–Milner type inference (Algorithm W with an in-place
//! substitution and level-based generalisation) over the core language.
//!
//! The paper's primitives get the types of §3.1/§3.5:
//!
//! ```text
//! raise        :: Exception -> a
//! getException :: a -> IO (ExVal a)
//! mapException :: (Exception -> Exception) -> a -> a
//! ```
//!
//! `IO`'s constructors are typed as primitives (`Bind`'s real data-type
//! would need an existential), matching §4.4's reading of `IO` as an
//! algebraic data type at the *semantic* level only.
//!
//! Inference is linear in program size. Top-level schemes are closed, so
//! they live in maps that are looked up but never scanned; only locals are
//! scoped. Every unification variable carries the `let`-level it was
//! created at (Rémy's levels, as in OCaml): binding a variable lowers the
//! levels of the variables it is bound to, and a `let` generalises exactly
//! the variables still above its own level, so generalisation costs the
//! size of the type rather than the depth of the scope. A [`TypeEnv`]
//! grows one load at a time, typing only the bindings it is given.

use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::rc::Rc;
use std::sync::OnceLock;

use urk_syntax::ast::SType;
use urk_syntax::core::{Alt, AltCon, CoreProgram, Expr, PrimOp};
use urk_syntax::{ConInfo, DataEnv, Symbol};

use crate::ty::{names, Scheme, TyVar, Type};

/// A type error with a human-readable message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TypeError(pub String);

impl fmt::Display for TypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "type error: {}", self.0)
    }
}

impl std::error::Error for TypeError {}

/// The closed schemes of a program's top-level bindings, grown one load at
/// a time: [`TypeEnv::extend`] types only the bindings it is given, against
/// the schemes already here.
#[derive(Clone, Debug, Default)]
pub struct TypeEnv {
    schemes: HashMap<Symbol, Scheme>,
    /// Skolems handed out by the signatures checked so far, so a later
    /// signature's rigid variables are numbered — and its error text
    /// reads — exactly as in a whole-program check.
    skolems: u32,
}

impl TypeEnv {
    /// An environment with no bindings.
    pub fn new() -> TypeEnv {
        TypeEnv::default()
    }

    /// The scheme of every binding typed so far.
    pub fn schemes(&self) -> &HashMap<Symbol, Scheme> {
        &self.schemes
    }

    /// Infers schemes for `binds`, which may refer to each other and to
    /// every binding already typed here, then checks `sigs` (which may name
    /// either). On error the environment is unchanged.
    ///
    /// Extending by a program's loads in turn gives the same schemes as
    /// [`infer_program`] on the whole program.
    ///
    /// # Errors
    ///
    /// Returns the first [`TypeError`] encountered.
    pub fn extend(
        &mut self,
        binds: &[(Symbol, Rc<Expr>)],
        sigs: &[(Symbol, SType)],
        data: &DataEnv,
    ) -> Result<(), TypeError> {
        let mut inf = Inferencer::new(data, &self.schemes);
        inf.next_skolem = self.skolems;
        inf.infer_top_level(binds)?;
        for (name, sig) in sigs {
            let inferred = inf
                .top
                .get(name)
                .or_else(|| self.schemes.get(name))
                .cloned()
                .ok_or_else(|| TypeError(format!("signature for '{name}' lacks a binding")))?;
            inf.check_signature(*name, inferred, sig)?;
        }
        let Inferencer {
            top, next_skolem, ..
        } = inf;
        self.schemes.extend(top);
        self.skolems = next_skolem;
        Ok(())
    }
}

/// The state of one unification variable.
enum Slot {
    /// Not yet bound; created at (or since lowered to) this `let`-level.
    Unbound(u32),
    /// Bound to a type.
    Link(Type),
}

/// The inference engine.
///
/// A type error aborts the whole inference, so scopes left open by an
/// early return are never looked at again.
struct Inferencer<'a> {
    data: &'a DataEnv,
    /// Closed schemes typed before this run; looked up, never scanned.
    globals: &'a HashMap<Symbol, Scheme>,
    /// Closed schemes of the top-level groups this run has typed.
    top: HashMap<Symbol, Scheme>,
    /// Unification variables, indexed by [`TyVar`].
    slots: Vec<Slot>,
    /// The current `let`-level: fresh variables are created at it, and a
    /// `let` generalises the variables left above it.
    level: u32,
    /// The innermost binding of each local in scope.
    locals: HashMap<Symbol, Scheme>,
    /// What each local binding shadowed, innermost last, for
    /// [`Inferencer::pop_locals`].
    shadowed: Vec<(Symbol, Option<Scheme>)>,
    next_skolem: u32,
}

/// Infers a scheme for every top-level binding of `prog`, then checks user
/// signatures.
///
/// The top level is split into strongly connected binding groups
/// (dependency analysis, as in Haskell), so that a function is polymorphic
/// in the groups *after* its own: without this, monomorphic recursion
/// would force e.g. every use of `foldl` across the Prelude to one type.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered.
pub fn infer_program(
    prog: &CoreProgram,
    data: &DataEnv,
) -> Result<HashMap<Symbol, Scheme>, TypeError> {
    let mut env = TypeEnv::new();
    env.extend(&prog.binds, &prog.sigs, data)?;
    Ok(env.schemes)
}

/// Splits bindings into strongly connected components in dependency order
/// (Tarjan's algorithm, iterative).
fn binding_groups(binds: &[(Symbol, Rc<Expr>)]) -> Vec<Vec<usize>> {
    let index_of: HashMap<Symbol, usize> = binds
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (*n, i))
        .collect();
    let deps: Vec<Vec<usize>> = binds
        .iter()
        .map(|(_, rhs)| {
            rhs.free_vars()
                .into_iter()
                .filter_map(|v| index_of.get(&v).copied())
                .collect()
        })
        .collect();

    // Iterative Tarjan.
    let n = binds.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut sccs: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;

    enum Phase {
        Enter(usize),
        Resume(usize, usize),
    }

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut work = vec![Phase::Enter(root)];
        while let Some(phase) = work.pop() {
            match phase {
                Phase::Enter(v) => {
                    index[v] = counter;
                    low[v] = counter;
                    counter += 1;
                    stack.push(v);
                    on_stack[v] = true;
                    work.push(Phase::Resume(v, 0));
                }
                Phase::Resume(v, mut i) => {
                    let mut descend = None;
                    while i < deps[v].len() {
                        let w = deps[v][i];
                        i += 1;
                        if index[w] == usize::MAX {
                            descend = Some(w);
                            break;
                        } else if on_stack[w] {
                            low[v] = low[v].min(index[w]);
                        }
                    }
                    match descend {
                        Some(w) => {
                            work.push(Phase::Resume(v, i));
                            work.push(Phase::Enter(w));
                        }
                        None => {
                            if low[v] == index[v] {
                                let mut scc = Vec::new();
                                while let Some(w) = stack.pop() {
                                    on_stack[w] = false;
                                    scc.push(w);
                                    if w == v {
                                        break;
                                    }
                                }
                                scc.sort_unstable();
                                sccs.push(scc);
                            }
                            if let Some(Phase::Resume(parent, _)) = work.last() {
                                let p = *parent;
                                low[p] = low[p].min(low[v]);
                            }
                        }
                    }
                }
            }
        }
    }
    sccs
}

/// Infers the type of a single expression against a global environment.
///
/// `globals` must be closed, as [`infer_program`] returns them.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered.
pub fn infer_expr(
    e: &Expr,
    data: &DataEnv,
    globals: &HashMap<Symbol, Scheme>,
) -> Result<Type, TypeError> {
    let mut inf = Inferencer::new(data, globals);
    let t = inf.infer(e)?;
    Ok(inf.resolve_deep(&t))
}

/// The `IO` pseudo-constructors (§4.4), typed as primitives.
#[derive(Clone, Copy)]
enum IoCon {
    Return,
    Bind,
    GetChar,
    PutChar,
    PutStr,
    GetException,
    Fork,
    Yield,
    NewMVar,
    NewEmptyMVar,
    TakeMVar,
    PutMVar,
    ThrowTo,
}

impl IoCon {
    /// The `IO` constructor named `c`, if any.
    fn of(c: Symbol) -> Option<IoCon> {
        static TABLE: OnceLock<HashMap<Symbol, IoCon>> = OnceLock::new();
        TABLE
            .get_or_init(|| {
                use IoCon::*;
                [
                    ("Return", Return),
                    ("Bind", Bind),
                    ("GetChar", GetChar),
                    ("PutChar", PutChar),
                    ("PutStr", PutStr),
                    ("GetException", GetException),
                    ("Fork", Fork),
                    ("Yield", Yield),
                    ("NewMVar", NewMVar),
                    ("NewEmptyMVar", NewEmptyMVar),
                    ("TakeMVar", TakeMVar),
                    ("PutMVar", PutMVar),
                    ("ThrowTo", ThrowTo),
                ]
                .into_iter()
                .map(|(name, con)| (Symbol::intern(name), con))
                .collect()
            })
            .get(&c)
            .copied()
    }
}

impl<'a> Inferencer<'a> {
    fn new(data: &'a DataEnv, globals: &'a HashMap<Symbol, Scheme>) -> Inferencer<'a> {
        Inferencer {
            data,
            globals,
            top: HashMap::new(),
            slots: Vec::new(),
            level: 0,
            locals: HashMap::new(),
            shadowed: Vec::new(),
            next_skolem: 0,
        }
    }

    fn fresh(&mut self) -> Type {
        new_var(&mut self.slots, self.level)
    }

    // ------------------------------------------------------------------
    // Substitution and unification
    // ------------------------------------------------------------------

    /// Follows bound variables to the first type that is not one.
    fn resolve<'t>(&'t self, mut t: &'t Type) -> &'t Type {
        while let Type::Var(v) = t {
            match &self.slots[v.0 as usize] {
                Slot::Link(next) => t = next,
                Slot::Unbound(_) => break,
            }
        }
        t
    }

    /// [`Inferencer::resolve`], copying only when it follows a variable.
    fn resolve_cow<'t>(&self, t: &'t Type) -> Cow<'t, Type> {
        match t {
            Type::Var(_) => Cow::Owned(self.resolve(t).clone()),
            _ => Cow::Borrowed(t),
        }
    }

    /// Applies the substitution everywhere.
    fn resolve_deep(&self, t: &Type) -> Type {
        match self.resolve(t) {
            Type::Fun(a, b) => Type::fun(self.resolve_deep(a), self.resolve_deep(b)),
            Type::Con(c, args) => {
                Type::Con(*c, args.iter().map(|a| self.resolve_deep(a)).collect())
            }
            other => other.clone(),
        }
    }

    /// Pushes every unbound variable of `t` (with repeats) onto `out`.
    fn unbound_vars(&self, t: &Type, out: &mut Vec<TyVar>) {
        match self.resolve(t) {
            Type::Var(v) => out.push(*v),
            Type::Fun(a, b) => {
                self.unbound_vars(a, out);
                self.unbound_vars(b, out);
            }
            Type::Con(_, args) => args.iter().for_each(|a| self.unbound_vars(a, out)),
            Type::Int | Type::Char | Type::Str | Type::Skolem(_) => {}
        }
    }

    fn unify(&mut self, t1: &Type, t2: &Type) -> Result<(), TypeError> {
        let a = self.resolve_cow(t1);
        let b = self.resolve_cow(t2);
        match (&*a, &*b) {
            (Type::Var(v), Type::Var(w)) if v == w => Ok(()),
            (Type::Var(v), _) => self.bind(*v, &b),
            (_, Type::Var(w)) => self.bind(*w, &a),
            (Type::Int, Type::Int) | (Type::Char, Type::Char) | (Type::Str, Type::Str) => Ok(()),
            (Type::Skolem(m), Type::Skolem(n)) if m == n => Ok(()),
            (Type::Fun(a1, b1), Type::Fun(a2, b2)) => {
                self.unify(a1, a2)?;
                self.unify(b1, b2)
            }
            (Type::Con(c1, args1), Type::Con(c2, args2))
                if c1 == c2 && args1.len() == args2.len() =>
            {
                for (x, y) in args1.iter().zip(args2) {
                    self.unify(x, y)?;
                }
                Ok(())
            }
            _ => Err(TypeError(format!(
                "cannot unify {} with {}",
                self.resolve_deep(&a),
                self.resolve_deep(&b)
            ))),
        }
    }

    /// Binds the unbound variable `v` to `t` after the occurs check,
    /// lowering every variable of `t` to `v`'s level: they are now as
    /// widely scoped as `v` is.
    fn bind(&mut self, v: TyVar, t: &Type) -> Result<(), TypeError> {
        let mut vars = Vec::new();
        self.unbound_vars(t, &mut vars);
        if vars.contains(&v) {
            return Err(TypeError(format!(
                "infinite type: cannot unify {} with {}",
                Type::Var(v),
                self.resolve_deep(t)
            )));
        }
        let Slot::Unbound(level) = self.slots[v.0 as usize] else {
            unreachable!("only resolved, hence unbound, variables are bound");
        };
        for w in vars {
            if let Slot::Unbound(l) = &mut self.slots[w.0 as usize] {
                *l = (*l).min(level);
            }
        }
        self.slots[v.0 as usize] = Slot::Link(t.clone());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Environment and generalization
    // ------------------------------------------------------------------

    fn push_local(&mut self, name: Symbol, scheme: Scheme) {
        let prev = self.locals.insert(name, scheme);
        self.shadowed.push((name, prev));
    }

    /// Ends the scope of every local bound since `shadowed` had length
    /// `mark`.
    fn pop_locals(&mut self, mark: usize) {
        for (name, prev) in self.shadowed.drain(mark..).rev() {
            match prev {
                Some(s) => self.locals.insert(name, s),
                None => self.locals.remove(&name),
            };
        }
    }

    /// Quantifies the variables of `ty` created inside the `let` being
    /// left, i.e. those still above the current level.
    fn generalize(&self, ty: &Type) -> Scheme {
        let ty = self.resolve_deep(ty);
        let mut vars = Vec::new();
        self.unbound_vars(&ty, &mut vars);
        vars.retain(|v| matches!(self.slots[v.0 as usize], Slot::Unbound(l) if l > self.level));
        vars.sort_unstable();
        vars.dedup();
        Scheme { vars, ty }
    }

    // ------------------------------------------------------------------
    // Built-in schemes
    // ------------------------------------------------------------------

    fn primop_scheme(&mut self, op: PrimOp) -> Type {
        use Type as T;
        let int2 = || T::fun(T::Int, T::fun(T::Int, T::Int));
        let cmp = || T::fun(T::Int, T::fun(T::Int, T::bool()));
        match op {
            PrimOp::Add | PrimOp::Sub | PrimOp::Mul | PrimOp::Div | PrimOp::Mod => int2(),
            PrimOp::Neg => T::fun(T::Int, T::Int),
            PrimOp::IntEq | PrimOp::IntLt | PrimOp::IntLe | PrimOp::IntGt | PrimOp::IntGe => cmp(),
            PrimOp::CharEq => T::fun(T::Char, T::fun(T::Char, T::bool())),
            PrimOp::Seq => {
                let a = self.fresh();
                let b = self.fresh();
                T::fun(a, T::fun(b.clone(), b))
            }
            PrimOp::ShowInt => T::fun(T::Int, T::Str),
            PrimOp::StrAppend => T::fun(T::Str, T::fun(T::Str, T::Str)),
            PrimOp::StrLen => T::fun(T::Str, T::Int),
            PrimOp::StrEq => T::fun(T::Str, T::fun(T::Str, T::bool())),
            PrimOp::Ord => T::fun(T::Char, T::Int),
            PrimOp::Chr => T::fun(T::Int, T::Char),
            PrimOp::MapExn => {
                let a = self.fresh();
                T::fun(T::fun(T::exception(), T::exception()), T::fun(a.clone(), a))
            }
            PrimOp::UnsafeIsException => {
                let a = self.fresh();
                T::fun(a, T::bool())
            }
            PrimOp::UnsafeGetException => {
                let a = self.fresh();
                T::fun(a.clone(), T::exval(a))
            }
        }
    }

    /// The result and field types for a data constructor, freshly
    /// instantiated.
    fn con_types(&mut self, info: &ConInfo) -> (Type, Vec<Type>) {
        let mapping: Vec<(Symbol, Type)> =
            info.ty_params.iter().map(|p| (*p, self.fresh())).collect();
        let args = info
            .arg_types
            .iter()
            .map(|t| stype_to_type(t, &mapping))
            .collect();
        let result = Type::Con(info.ty_name, mapping.into_iter().map(|(_, t)| t).collect());
        (result, args)
    }

    /// Types for the `IO` pseudo-constructors (§4.4).
    fn io_con_type(&mut self, c: Symbol, args: &[Type]) -> Result<Type, TypeError> {
        use Type as T;
        let expect = |n: usize| -> Result<(), TypeError> {
            if args.len() == n {
                Ok(())
            } else {
                Err(TypeError(format!(
                    "IO constructor '{c}' applied to {} arguments, expects {n}",
                    args.len()
                )))
            }
        };
        let Some(con) = IoCon::of(c) else {
            return Err(TypeError(format!("unknown IO constructor '{c}'")));
        };
        match con {
            IoCon::Return => {
                expect(1)?;
                Ok(T::io(args[0].clone()))
            }
            IoCon::Bind => {
                expect(2)?;
                let a = self.fresh();
                let b = self.fresh();
                self.unify(&args[0], &T::io(a.clone()))?;
                self.unify(&args[1], &T::fun(a, T::io(b.clone())))?;
                Ok(T::io(b))
            }
            IoCon::GetChar => {
                expect(0)?;
                Ok(T::io(T::Char))
            }
            IoCon::PutChar => {
                expect(1)?;
                self.unify(&args[0], &T::Char)?;
                Ok(T::io(T::unit()))
            }
            IoCon::PutStr => {
                expect(1)?;
                self.unify(&args[0], &T::Str)?;
                Ok(T::io(T::unit()))
            }
            IoCon::GetException => {
                expect(1)?;
                Ok(T::io(T::exval(args[0].clone())))
            }
            IoCon::Fork => {
                expect(1)?;
                let a = self.fresh();
                self.unify(&args[0], &T::io(a))?;
                Ok(T::io(T::Int)) // thread ids are Ints
            }
            IoCon::Yield => {
                expect(0)?;
                Ok(T::io(T::unit()))
            }
            IoCon::NewMVar => {
                expect(1)?;
                Ok(T::io(T::mvar(args[0].clone())))
            }
            IoCon::NewEmptyMVar => {
                expect(0)?;
                let a = self.fresh();
                Ok(T::io(T::mvar(a)))
            }
            IoCon::TakeMVar => {
                expect(1)?;
                let a = self.fresh();
                self.unify(&args[0], &T::mvar(a.clone()))?;
                Ok(T::io(a))
            }
            IoCon::PutMVar => {
                expect(2)?;
                let a = self.fresh();
                self.unify(&args[0], &T::mvar(a.clone()))?;
                self.unify(&args[1], &a)?;
                Ok(T::io(T::unit()))
            }
            IoCon::ThrowTo => {
                expect(2)?;
                self.unify(&args[0], &T::Int)?;
                self.unify(&args[1], &T::exception())?;
                Ok(T::io(T::unit()))
            }
        }
    }

    // ------------------------------------------------------------------
    // Inference proper
    // ------------------------------------------------------------------

    /// Types the top-level `binds` group by group, in dependency order,
    /// adding each group's closed schemes to `top`.
    fn infer_top_level(&mut self, binds: &[(Symbol, Rc<Expr>)]) -> Result<(), TypeError> {
        for group in binding_groups(binds) {
            let group: Vec<(Symbol, Rc<Expr>)> = group.iter().map(|&i| binds[i].clone()).collect();
            for (name, scheme) in self.infer_letrec_group(&group)? {
                self.top.insert(name, scheme);
            }
        }
        Ok(())
    }

    fn infer(&mut self, e: &Expr) -> Result<Type, TypeError> {
        match e {
            Expr::Var(v) => {
                let scheme = self
                    .locals
                    .get(v)
                    .or_else(|| self.top.get(v))
                    .or_else(|| self.globals.get(v))
                    .ok_or_else(|| TypeError(format!("unbound variable '{v}'")))?;
                Ok(instantiate(scheme, &mut self.slots, self.level))
            }
            Expr::Int(_) => Ok(Type::Int),
            Expr::Char(_) => Ok(Type::Char),
            Expr::Str(_) => Ok(Type::Str),
            Expr::Con(c, args) => {
                let arg_tys = args
                    .iter()
                    .map(|a| self.infer(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let data = self.data;
                let info = data
                    .con(*c)
                    .ok_or_else(|| TypeError(format!("unknown constructor '{c}'")))?;
                if info.io_primitive {
                    return self.io_con_type(*c, &arg_tys);
                }
                let (result, fields) = self.con_types(info);
                if fields.len() != arg_tys.len() {
                    return Err(TypeError(format!(
                        "constructor '{c}' applied to {} arguments, expects {}",
                        arg_tys.len(),
                        fields.len()
                    )));
                }
                for (got, want) in arg_tys.iter().zip(&fields) {
                    self.unify(got, want)?;
                }
                Ok(result)
            }
            Expr::App(f, x) => {
                let tf = self.infer(f)?;
                let tx = self.infer(x)?;
                let result = self.fresh();
                self.unify(&tf, &Type::fun(tx, result.clone()))?;
                Ok(result)
            }
            Expr::Lam(x, b) => {
                let targ = self.fresh();
                let mark = self.shadowed.len();
                self.push_local(*x, Scheme::mono(targ.clone()));
                let tbody = self.infer(b)?;
                self.pop_locals(mark);
                Ok(Type::fun(targ, tbody))
            }
            Expr::Let(x, rhs, body) => {
                self.level += 1;
                let trhs = self.infer(rhs)?;
                self.level -= 1;
                let scheme = self.generalize(&trhs);
                let mark = self.shadowed.len();
                self.push_local(*x, scheme);
                let t = self.infer(body)?;
                self.pop_locals(mark);
                Ok(t)
            }
            Expr::LetRec(binds, body) => {
                let mark = self.shadowed.len();
                for (name, scheme) in self.infer_letrec_group(binds)? {
                    self.push_local(name, scheme);
                }
                let t = self.infer(body)?;
                self.pop_locals(mark);
                Ok(t)
            }
            Expr::Case(scrut, alts) => self.infer_case(scrut, alts),
            Expr::Prim(op, args) => {
                let mut ty = self.primop_scheme(*op);
                for a in args {
                    let ta = self.infer(a)?;
                    let result = self.fresh();
                    self.unify(&ty, &Type::fun(ta, result.clone()))?;
                    ty = result;
                }
                Ok(ty)
            }
            Expr::Raise(x) => {
                let tx = self.infer(x)?;
                self.unify(&tx, &Type::exception())?;
                Ok(self.fresh()) // raise :: Exception -> a
            }
        }
    }

    /// Infers one recursive binding group one level down (monomorphic
    /// recursion) and generalises it.
    fn infer_letrec_group(
        &mut self,
        binds: &[(Symbol, Rc<Expr>)],
    ) -> Result<Vec<(Symbol, Scheme)>, TypeError> {
        self.level += 1;
        let mark = self.shadowed.len();
        let placeholders: Vec<Type> = binds.iter().map(|_| self.fresh()).collect();
        for ((name, _), t) in binds.iter().zip(&placeholders) {
            self.push_local(*name, Scheme::mono(t.clone()));
        }
        for ((_, rhs), t) in binds.iter().zip(&placeholders) {
            let got = self.infer(rhs)?;
            self.unify(&got, t)?;
        }
        self.pop_locals(mark);
        self.level -= 1;
        Ok(binds
            .iter()
            .zip(&placeholders)
            .map(|((name, _), t)| (*name, self.generalize(t)))
            .collect())
    }

    fn infer_case(&mut self, scrut: &Expr, alts: &[Alt]) -> Result<Type, TypeError> {
        let tscrut = self.infer(scrut)?;
        let tresult = self.fresh();
        let data = self.data;
        for alt in alts {
            let mark = self.shadowed.len();
            match &alt.con {
                AltCon::Int(_) => self.unify(&tscrut, &Type::Int)?,
                AltCon::Char(_) => self.unify(&tscrut, &Type::Char)?,
                AltCon::Str(_) => self.unify(&tscrut, &Type::Str)?,
                AltCon::Default => {
                    // A default alternative may bind the scrutinee itself.
                    if let Some(b) = alt.binders.first() {
                        self.push_local(*b, Scheme::mono(tscrut.clone()));
                    }
                }
                AltCon::Con(c) => {
                    let info = data
                        .con(*c)
                        .ok_or_else(|| TypeError(format!("unknown constructor '{c}'")))?;
                    if info.io_primitive {
                        return Err(TypeError("IO values cannot be scrutinised by case".into()));
                    }
                    let (result, fields) = self.con_types(info);
                    self.unify(&tscrut, &result)?;
                    if fields.len() != alt.binders.len() {
                        return Err(TypeError(format!(
                            "alternative for '{c}' binds {} variables, expects {}",
                            alt.binders.len(),
                            fields.len()
                        )));
                    }
                    for (b, t) in alt.binders.iter().zip(fields) {
                        self.push_local(*b, Scheme::mono(t));
                    }
                }
            }
            let t = self.infer(&alt.rhs)?;
            self.pop_locals(mark);
            self.unify(&t, &tresult)?;
        }
        Ok(tresult)
    }

    // ------------------------------------------------------------------
    // Signature checking
    // ------------------------------------------------------------------

    /// Checks that the inferred scheme is at least as general as the
    /// declared signature: the declared type, with its variables made
    /// rigid (skolemized), must unify with a fresh instantiation of the
    /// inferred scheme.
    fn check_signature(
        &mut self,
        name: Symbol,
        inferred: Scheme,
        sig: &SType,
    ) -> Result<(), TypeError> {
        let mut mapping = Vec::new();
        let declared = skolemize(sig, &mut mapping, &mut self.next_skolem);
        let got = instantiate(&inferred, &mut self.slots, self.level);
        self.unify(&got, &declared).map_err(|e| {
            TypeError(format!(
                "signature for '{name}' does not match inferred type {}: {}",
                inferred.ty, e.0
            ))
        })
    }
}

/// A fresh instance of `s`, its quantified variables replaced by new
/// variables at `level`.
fn instantiate(s: &Scheme, slots: &mut Vec<Slot>, level: u32) -> Type {
    if s.vars.is_empty() {
        return s.ty.clone();
    }
    let fresh: Vec<Type> = s.vars.iter().map(|_| new_var(slots, level)).collect();
    fn go(t: &Type, vars: &[TyVar], fresh: &[Type]) -> Type {
        match t {
            Type::Var(v) => match vars.iter().position(|q| q == v) {
                Some(i) => fresh[i].clone(),
                None => t.clone(),
            },
            Type::Fun(a, b) => Type::fun(go(a, vars, fresh), go(b, vars, fresh)),
            Type::Con(c, args) => Type::Con(*c, args.iter().map(|a| go(a, vars, fresh)).collect()),
            other => other.clone(),
        }
    }
    go(&s.ty, &s.vars, &fresh)
}

/// A new unbound variable at `level`.
fn new_var(slots: &mut Vec<Slot>, level: u32) -> Type {
    let v = TyVar(u32::try_from(slots.len()).expect("type variables fit in u32"));
    slots.push(Slot::Unbound(level));
    Type::Var(v)
}

/// Converts a surface type, mapping type variables through `mapping`.
fn stype_to_type(t: &SType, mapping: &[(Symbol, Type)]) -> Type {
    match t {
        SType::Var(v) => mapping
            .iter()
            .find(|(p, _)| p == v)
            .map_or_else(Type::unit, |(_, t)| t.clone()),
        SType::Fun(a, b) => Type::fun(stype_to_type(a, mapping), stype_to_type(b, mapping)),
        SType::List(t) => Type::list(stype_to_type(t, mapping)),
        SType::Tuple(items) => Type::Con(
            tuple_name(items.len()),
            items.iter().map(|i| stype_to_type(i, mapping)).collect(),
        ),
        SType::Con(c, args) => base_type(*c, args).unwrap_or_else(|| {
            Type::Con(*c, args.iter().map(|a| stype_to_type(a, mapping)).collect())
        }),
    }
}

/// Converts a signature, giving each type variable a rigid skolem.
fn skolemize(t: &SType, mapping: &mut Vec<(Symbol, Type)>, next: &mut u32) -> Type {
    match t {
        SType::Var(v) => {
            if let Some((_, s)) = mapping.iter().find(|(p, _)| p == v) {
                return s.clone();
            }
            let s = Type::Skolem(*next);
            *next += 1;
            mapping.push((*v, s.clone()));
            s
        }
        SType::Fun(a, b) => Type::fun(skolemize(a, mapping, next), skolemize(b, mapping, next)),
        SType::List(t) => Type::list(skolemize(t, mapping, next)),
        SType::Tuple(items) => Type::Con(
            tuple_name(items.len()),
            items.iter().map(|i| skolemize(i, mapping, next)).collect(),
        ),
        SType::Con(c, args) => base_type(*c, args).unwrap_or_else(|| {
            Type::Con(
                *c,
                args.iter().map(|a| skolemize(a, mapping, next)).collect(),
            )
        }),
    }
}

/// The type constructor of an `n`-tuple.
fn tuple_name(n: usize) -> Symbol {
    if n == 2 {
        names().pair
    } else {
        names().triple
    }
}

/// `Int`, `Char` or `Str`, if that is what `c args` names.
fn base_type(c: Symbol, args: &[SType]) -> Option<Type> {
    let n = names();
    match c {
        _ if !args.is_empty() => None,
        c if c == n.int => Some(Type::Int),
        c if c == n.char => Some(Type::Char),
        c if c == n.str => Some(Type::Str),
        _ => None,
    }
}
