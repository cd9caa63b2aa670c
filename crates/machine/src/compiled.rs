//! The machine's run loop: the abstract machine of [`crate::machine`]
//! executing flat [`crate::code`] ops.
//!
//! Each step runs a prologue (event schedule, interrupt poll, chaos tick,
//! timeout watchdog, stack/heap limits, GC) and then one transition. The
//! loop implements §3.3's stack-trimming raise with thunk poisoning,
//! §5.1's resumable-thunk restore under asynchronous trims, §5.2's
//! detectable black holes, and the operand-order policy (§3.5):
//!
//! * control evaluates a `CodeId` under a slot-addressed [`CEnv`];
//! * suspensions are [`Node::CThunk`]/[`Node::CBlackhole`] (a `Copy`
//!   `CodeId` plus environment — no refcount traffic to suspend);
//! * case dispatch walks pre-lowered [`crate::code::CArm`]s, matching
//!   constructor tags by interned-`u32` compare;
//! * top-level names are direct indices into the machine's global node
//!   table ([`Machine::link_code`] ties the knot through it, so global
//!   thunks carry *empty* environments).

use rand::Rng;
use std::sync::Arc;

use urk_syntax::core::{Expr, PrimOp};
use urk_syntax::{Exception, Symbol};

use crate::code::{compile_apply_entry, compile_query, COp, CPat, Code, CodeId, LinkedCode};
use crate::env::CEnv;
use crate::heap::{HValue, Node, NodeId, Whnf};
use crate::machine::{BlackholeMode, Machine, MachineError, Outcome, PrimResult, Tier};
use crate::OrderPolicy;

/// The run loop's control register.
enum CControl {
    Eval(CodeId, CEnv),
    Enter(NodeId),
    Return(NodeId),
    Raising(Exception),
}

/// Stack frames, with code ids for the deferred work.
enum CFrame {
    Update(NodeId),
    Apply(NodeId),
    /// Scrutinise with the pre-lowered arms at `arms_at..arms_at + n`.
    Select {
        arms_at: u32,
        n: u16,
        env: CEnv,
    },
    PrimArgs {
        op: PrimOp,
        env: CEnv,
        current: u8,
        pending: Option<(u8, CodeId)>,
        results: [Option<NodeId>; 2],
    },
    SeqSecond {
        code: CodeId,
        env: CEnv,
    },
    RaiseEval,
    RaisePayload {
        con: Symbol,
    },
    IsExnCatch,
    UnsafeGetExnCatch,
    MapExnCatch {
        f: CodeId,
        env: CEnv,
    },
    Catch,
}

enum CStep {
    Continue(CControl),
    Done(Outcome),
}

impl Machine {
    /// Links a compiled program into this machine: allocates one knot-tied
    /// thunk per top-level binding (rooted for the machine's life) and
    /// sets the machine's tier tag. The `Arc<Code>` is shared — an
    /// evaluation pool links the same program into every worker.
    ///
    /// # Panics
    ///
    /// Panics if compiled code is already linked (one program per
    /// machine; build a fresh machine to swap programs).
    pub fn link_code(&mut self, base: Arc<Code>) {
        assert!(
            self.code.is_none(),
            "compiled code already linked into this machine"
        );
        if cfg!(debug_assertions) || self.config.verify_code {
            if let Err(e) = base.verify() {
                panic!("refusing to link corrupt compiled code: {e}");
            }
        }
        let entries: Vec<CodeId> = base.globals.iter().map(|(_, e)| *e).collect();
        let tier2 = base.is_tier2();
        let ic_slots = base.ic_slot_count() as usize;
        let mut linked = LinkedCode::new(base);
        for entry in entries {
            // Global rhs code resolves cross-references through the
            // global node table itself, so the environment stays empty —
            // this *is* the recursive knot, tied by indices. Tenured: the
            // global node table is a plain `Vec<NodeId>` the minor
            // collector never rewrites, so the ids must be stable.
            let node = self.alloc_tenured(Node::CThunk {
                code: entry,
                env: CEnv::empty(),
            });
            self.roots.push(node);
            linked.global_nodes.push(node);
        }
        self.code = Some(linked);
        // Inline-cache slots are per-machine and per-link: relinking is
        // impossible (the assert above), so a populated slot can never
        // point at a stale program's callee.
        self.ics = vec![None; ic_slots];
        if tier2 {
            self.stats.tier = Tier::Two;
        }
    }

    /// Compiles a closed query expression against the linked program
    /// into the machine-local extension buffer, charging the work to
    /// `compile_ops`/`compile_micros`.
    fn compile_entry(&mut self, expr: &Expr) -> CodeId {
        let t0 = std::time::Instant::now();
        let code = self
            .code
            .as_mut()
            .expect("no compiled code linked (call link_code first)");
        let (entry, ops) = compile_query(&code.base, &mut code.ext, expr);
        if cfg!(debug_assertions) || self.config.verify_code {
            if let Err(e) = crate::code::verify_query(&code.base, &code.ext, entry, 0) {
                panic!("compiled query failed verification: {e}");
            }
        }
        self.stats.compile_ops += ops;
        self.stats.compile_micros += t0.elapsed().as_micros() as u64;
        entry
    }

    /// Compiles a query expression against the linked program and
    /// evaluates it to WHNF in one episode. With `catch`, a catch mark is
    /// planted at the base of the stack (this is `getException`'s mode).
    pub fn eval_code_expr(&mut self, expr: &Expr, catch: bool) -> Result<Outcome, MachineError> {
        let entry = self.compile_entry(expr);
        self.run_compiled(CControl::Eval(entry, CEnv::empty()), catch)
    }

    /// Compiles a query expression and suspends it as a heap thunk.
    /// Forcing the node (with [`Machine::eval_node`]) runs it, and an
    /// asynchronous trim restores it resumably.
    pub fn alloc_code_thunk(&mut self, expr: &Expr) -> NodeId {
        let entry = self.compile_entry(expr);
        // Tenured: the caller holds the id across evaluations, and nursery
        // ids move at every minor collection.
        self.alloc_tenured(Node::CThunk {
            code: entry,
            env: CEnv::empty(),
        })
    }

    /// The heap node of the linked top-level binding `name` (the
    /// knot-tied, rooted global thunk), if the program defines it.
    pub fn global_node(&self, name: Symbol) -> Option<NodeId> {
        let code = self.code.as_ref()?;
        let g = *code.base.global_index.get(&name)?;
        Some(code.global_nodes[g as usize])
    }

    /// Suspends the application `f x` as a tenured thunk — how the IO
    /// runners feed an action's result to its `>>=` continuation. Every
    /// call shares one two-slot code entry, lowered on first use, so an
    /// application costs one heap cell and interns nothing.
    pub fn apply_node(&mut self, f: NodeId, x: NodeId) -> NodeId {
        let code = self
            .code
            .as_mut()
            .expect("no compiled code linked (call link_code first)");
        let entry = match code.apply_entry {
            Some(entry) => entry,
            None => {
                let entry = compile_apply_entry(&code.base, &mut code.ext);
                if cfg!(debug_assertions) || self.config.verify_code {
                    if let Err(e) = crate::code::verify_query(&code.base, &code.ext, entry, 2) {
                        panic!("application entry failed verification: {e}");
                    }
                }
                code.apply_entry = Some(entry);
                entry
            }
        };
        self.alloc_tenured(Node::CThunk {
            code: entry,
            env: CEnv::empty().push(f).push(x),
        })
    }

    /// Forces an existing node to WHNF in one episode. With `catch`, a
    /// catch mark is planted at the base of the stack (this is
    /// `getException`'s mode).
    pub fn eval_node(&mut self, node: NodeId, catch: bool) -> Result<Outcome, MachineError> {
        let r = self.heap.resolve(node);
        if r.is_imm() {
            // Tagged immediates are already WHNF — nothing to run.
            return Ok(Outcome::Value(r));
        }
        self.run_compiled(CControl::Enter(node), catch)
    }

    fn linked(&self) -> &LinkedCode {
        self.code
            .as_ref()
            .expect("compiled node reached a machine with no linked code")
    }

    fn run_compiled(
        &mut self,
        mut control: CControl,
        catch: bool,
    ) -> Result<Outcome, MachineError> {
        let mut stack: Vec<CFrame> = Vec::with_capacity(64);
        if catch {
            stack.push(CFrame::Catch);
        }
        // A fresh episode: the first op must not pair with the last op of
        // the previous episode in the coverage map.
        if let Some(cov) = self.coverage.as_deref_mut() {
            cov.end_episode();
        }
        loop {
            // --- step accounting, limits, and asynchronous events -------
            self.stats.steps += 1;
            if stack.len() > self.stats.max_stack_depth {
                self.stats.max_stack_depth = stack.len();
            }
            if let Some((at, exn)) = self.config.event_schedule.get(self.next_event) {
                if self.stats.steps >= *at && !matches!(control, CControl::Raising(_)) {
                    self.next_event += 1;
                    control = CControl::Raising(exn.clone());
                }
            }
            if self.interrupt.is_pending() && !matches!(control, CControl::Raising(_)) {
                if let Some(exn) = self.interrupt.take() {
                    self.stats.async_injected += 1;
                    control = CControl::Raising(exn);
                }
            }
            if self.chaos.is_some() {
                if let Some(next) = self.chaos_ctick(&mut control, &mut stack) {
                    control = next;
                }
            }
            if self.stats.steps >= self.next_timeout_at {
                if self.config.timeout_on_step_limit {
                    self.next_timeout_at = self.stats.steps + self.config.max_steps;
                    if !matches!(control, CControl::Raising(ref e) if e.is_asynchronous()) {
                        control = CControl::Raising(Exception::Timeout);
                    }
                } else {
                    return Err(MachineError::StepLimit);
                }
            }
            if stack.len() >= self.config.max_stack && !matches!(control, CControl::Raising(_)) {
                control = CControl::Raising(Exception::StackOverflow);
            }
            if self.config.gc {
                if self.heap.nursery_len() >= self.config.nursery_size {
                    self.minor_ccollect(&mut control, &mut stack);
                }
                if self.heap.live() >= self.next_gc_at && self.heap.live() < self.config.max_heap {
                    self.collect_during_crun(&mut control, &mut stack);
                }
            }
            if self.heap.live() >= self.config.max_heap && !matches!(control, CControl::Raising(_))
            {
                control = CControl::Raising(Exception::HeapOverflow);
            }

            // --- the transition function --------------------------------
            control = match control {
                CControl::Eval(code, env) => self.step_ceval(code, env, &mut stack),
                CControl::Enter(node) => self.step_center(node, &mut stack),
                CControl::Return(node) => CControl::Return(node),
                CControl::Raising(exn) => match self.step_craise(exn, &mut stack) {
                    CStep::Continue(c) => c,
                    CStep::Done(outcome) => return Ok(self.tenure_outcome(outcome)),
                },
            };
            // Return-processing is fused into the producing step: frames
            // are popped until control leaves `Return`, without paying the
            // prologue per pop. Flat code makes this safe — a `Return`
            // never allocates unboundedly or loops (every pop consumes a
            // frame), so limits and asynchronous delivery points are
            // preserved at every step that can actually run code.
            while let CControl::Return(node) = control {
                match self.step_creturn(node, &mut stack) {
                    CStep::Continue(c) => control = c,
                    CStep::Done(outcome) => return Ok(self.tenure_outcome(outcome)),
                }
            }
        }
    }

    /// One step of the armed chaos plan: deliver at most one scheduled
    /// injection, force at most one scheduled collection, advance the
    /// shrinking heap budget, and enforce the active cap (the decisions
    /// come from [`Machine::chaos_decide`]; this applies them with the
    /// loop's control/stack for GC rooting). Returns the replacement
    /// control when a fault fires, `None` when this step is undisturbed.
    fn chaos_ctick(&mut self, control: &mut CControl, stack: &mut [CFrame]) -> Option<CControl> {
        let raising = matches!(&*control, CControl::Raising(_));
        let d = self.chaos_decide(raising)?;
        let sabotage = self
            .chaos
            .as_ref()
            .is_some_and(|st| st.plan.sabotage_forwarding);
        if d.force_minor {
            self.stats.forced_gcs += 1;
            self.minor_ccollect(control, stack);
            if sabotage {
                // Test-only sabotage: strand a stale forwarding pointer
                // to prove the generational audit catches evacuation
                // corruption (the planted cell is unreachable, so
                // execution and re-evaluation stay sound).
                self.heap.plant_stale_forwarding();
            }
        }
        if d.force_gc {
            self.stats.forced_gcs += 1;
            self.collect_during_crun(control, stack);
            if sabotage {
                self.heap.plant_stale_forwarding();
            }
        }
        if let Some(exn) = d.inject {
            self.stats.async_injected += 1;
            return Some(CControl::Raising(exn));
        }
        if let Some(cap) = d.cap {
            if self.heap.live() >= cap && !raising {
                return Some(CControl::Raising(Exception::HeapOverflow));
            }
        }
        None
    }

    /// A minor collection mid-run: evacuates the live nursery into the
    /// tenured space, rewriting the registered roots, the current control,
    /// and every stack frame.
    fn minor_ccollect(&mut self, control: &mut CControl, stack: &mut [CFrame]) {
        let reuses_before = self.heap.reuses();
        let Machine {
            heap, roots, ics, ..
        } = self;
        let outcome = heap.collect_minor(&mut |f| {
            for r in roots.iter_mut() {
                *r = f(*r);
            }
            for slot in ics.iter_mut().flatten() {
                *slot = f(*slot);
            }
            rewrite_ccontrol(control, f);
            for frame in stack.iter_mut() {
                rewrite_cframe(frame, f);
            }
        });
        self.stats.minor_gcs += 1;
        self.stats.gc_runs += 1;
        self.stats.nodes_promoted += outcome.promoted;
        self.stats.gc_freed += outcome.freed;
        self.stats.freelist_reuses += self.heap.reuses() - reuses_before;
    }

    /// Mid-run major collection rooted at the compiled loop's transient
    /// state. Evacuates the nursery first, so the mark table only has to
    /// cover the tenured arena.
    fn collect_during_crun(&mut self, control: &mut CControl, stack: &mut [CFrame]) {
        self.minor_ccollect(control, stack);
        let mut c = crate::gc::Collector::new(self.heap.tenured_len());
        match &*control {
            CControl::Eval(_, env) => c.mark_cenv(env),
            CControl::Enter(n) | CControl::Return(n) => c.mark_root(*n),
            CControl::Raising(_) => {}
        }
        for f in stack.iter() {
            match f {
                CFrame::Update(n) | CFrame::Apply(n) => c.mark_root(*n),
                CFrame::Select { env, .. }
                | CFrame::SeqSecond { env, .. }
                | CFrame::MapExnCatch { env, .. } => c.mark_cenv(env),
                CFrame::PrimArgs { env, results, .. } => {
                    c.mark_cenv(env);
                    for r in results.iter().flatten() {
                        c.mark_root(*r);
                    }
                }
                CFrame::RaiseEval
                | CFrame::RaisePayload { .. }
                | CFrame::IsExnCatch
                | CFrame::UnsafeGetExnCatch
                | CFrame::Catch => {}
            }
        }
        // Registered roots include the global node table (pushed by
        // `link_code`), so every top-level binding survives.
        for r in &self.roots {
            c.mark_root(*r);
        }
        // Inline-cache entries are kept live defensively: a cached callee
        // is always reachable through its global thunk anyway, but marking
        // it here means a slot can never hold a freed node even if that
        // invariant is ever weakened.
        for slot in self.ics.iter().flatten() {
            c.mark_root(*slot);
        }
        c.trace(&self.heap);
        let prev_free = self.heap.free_list();
        let (freed, head) = c.sweep(&mut self.heap, prev_free);
        self.heap.set_free_list(head, freed);
        self.stats.gc_runs += 1;
        self.stats.major_gcs += 1;
        self.stats.gc_freed += freed;
        let live = self.heap.live();
        self.next_gc_at = (live + live / 2).max(self.config.gc_threshold);
    }

    /// Allocates a node for an operand op: slot loads reuse the bound
    /// node (sharing preserved), literals go straight to WHNF (a tagged
    /// immediate where possible), everything else suspends as a `CThunk`
    /// in the nursery.
    fn alloc_code(&mut self, code: CodeId, env: &CEnv) -> NodeId {
        match self.linked().op(code) {
            COp::Local(back) => env.get_back(back),
            COp::Global(g) => self.linked().global_nodes[g as usize],
            COp::Int(n) => self.int_node(n),
            COp::Char(c) => self.alloc_value(HValue::Char(c)),
            COp::Str(i) => {
                let s = self.linked().str_at(i);
                self.alloc_value(HValue::Str(s))
            }
            COp::Con { tag, n: 0, .. } => self.nullary_con_node(tag),
            COp::Spec { body } => self.alloc_spec(body, env),
            _ => self.alloc(Node::CThunk {
                code,
                env: env.clone(),
            }),
        }
    }

    /// Allocates a tier-2 speculation site: builds the value eagerly when
    /// the body is a value form or a ready fused region, falling back to a
    /// plain thunk otherwise. The paper's license (§4–§5) is exactly what
    /// makes the region case sound: a synchronous raise during speculative
    /// evaluation of a *lazy* position is stored as poison — the same
    /// `raise ex` overwrite §3.3 trimming would eventually perform — so
    /// demand that never arrives never observes the exception, and demand
    /// that does arrive raises the same member of the denoted set.
    fn alloc_spec(&mut self, body: CodeId, env: &CEnv) -> NodeId {
        match self.linked().op(body) {
            COp::Lam { body: lam_body } => {
                self.stats.fused_steps += 1;
                self.alloc_value(HValue::CFun {
                    body: lam_body,
                    env: env.clone(),
                })
            }
            COp::Con { tag, args, n } => {
                self.stats.fused_steps += 1;
                let mut fields = Vec::with_capacity(usize::from(n));
                for i in 0..u32::from(n) {
                    let k = self.linked().kid(args + i);
                    fields.push(self.alloc_code(k, env));
                }
                self.alloc_value(HValue::Con(tag, fields))
            }
            COp::Str(i) => {
                self.stats.fused_steps += 1;
                let s = self.linked().str_at(i);
                self.alloc_value(HValue::Str(s))
            }
            _ => {
                // A prim region. Under a Seeded order policy the region
                // stays a thunk: tier 1 draws from the §3.5 stream when
                // the binding is *demanded*, and evaluating here would
                // move (or drop) those draws and desync the per-seed
                // lockstep between the tiers that the differential
                // battery checks.
                if !matches!(self.config.order, OrderPolicy::Seeded(_)) {
                    if let Some(result) = self.exec_region(body, env) {
                        return match result {
                            Ok(v) => v,
                            Err(exn) => self.alloc(Node::Poisoned(exn)),
                        };
                    }
                }
                self.alloc(Node::CThunk {
                    code: body,
                    env: env.clone(),
                })
            }
        }
    }

    /// Evaluates a fused region atomically if every leaf is already a
    /// value (`None` = not ready, caller falls back to stepped
    /// evaluation). Ready regions run as one bounded recursive walk —
    /// verified ≤ [`crate::code::MAX_REGION_OPS`] ops, call-free, so
    /// termination is syntactic and no asynchronous delivery point is
    /// lost: the whole region occupies a single step, exactly like a
    /// tier-1 primitive over immediates.
    fn exec_region(&mut self, root: CodeId, env: &CEnv) -> Option<Result<NodeId, Exception>> {
        if !self.region_ready(root, env) {
            return None;
        }
        self.stats.fused_steps += 1;
        Some(self.region_eval(root, env))
    }

    /// True if every leaf of the region is already in WHNF — a draw-free
    /// pre-scan, so a bail-out to stepped evaluation never perturbs the
    /// §3.5 Seeded stream.
    fn region_ready(&self, code: CodeId, env: &CEnv) -> bool {
        match self.linked().op(code) {
            COp::Local(back) => {
                let n = self.heap.resolve(env.get_back(back));
                n.is_imm() || matches!(self.heap.get(n), Node::Value(_))
            }
            COp::Global(g) => {
                let n = self.heap.resolve(self.linked().global_nodes[g as usize]);
                n.is_imm() || matches!(self.heap.get(n), Node::Value(_))
            }
            COp::Int(_) | COp::Char(_) | COp::Str(_) => true,
            COp::Con { n: 0, .. } => true,
            COp::Prim1 { a, .. } => self.region_ready(a, env),
            COp::Prim2 { a, b, .. } | COp::Seq { a, b } => {
                self.region_ready(a, env) && self.region_ready(b, env)
            }
            // Defensive: `Code::verify` already rejects anything else
            // inside a region.
            _ => false,
        }
    }

    /// Evaluates a ready region. Raises propagate as `Err` — the caller
    /// decides whether that poisons (speculation) or raises (strict
    /// position), which is the entire §3.3 discipline in one line. The
    /// §3.5 Seeded draw advances exactly once per binary primitive, and
    /// the chosen-first operand's subtree evaluates first, so the draw
    /// *sequence* matches the stepped loops op for op.
    fn region_eval(&mut self, code: CodeId, env: &CEnv) -> Result<NodeId, Exception> {
        match self.linked().op(code) {
            COp::Local(back) => Ok(self.heap.resolve(env.get_back(back))),
            COp::Global(g) => Ok(self.heap.resolve(self.linked().global_nodes[g as usize])),
            COp::Int(n) => Ok(self.int_node(n)),
            COp::Char(c) => Ok(self.alloc_value(HValue::Char(c))),
            COp::Str(i) => {
                let s = self.linked().str_at(i);
                Ok(self.alloc_value(HValue::Str(s)))
            }
            COp::Con { tag, .. } => Ok(self.nullary_con_node(tag)),
            COp::Prim1 { op, a } => {
                let na = self.region_eval(a, env)?;
                match self.apply_prim(op, &[na]) {
                    PrimResult::Value(v) => Ok(v),
                    PrimResult::Raise(exn) => Err(exn),
                }
            }
            COp::Prim2 { op, a, b } => {
                let left_first = match self.config.order {
                    OrderPolicy::LeftToRight => true,
                    OrderPolicy::RightToLeft => false,
                    OrderPolicy::Seeded(_) => self.rng.gen_bool(0.5),
                };
                let (na, nb) = if left_first {
                    let na = self.region_eval(a, env)?;
                    (na, self.region_eval(b, env)?)
                } else {
                    let nb = self.region_eval(b, env)?;
                    (self.region_eval(a, env)?, nb)
                };
                match self.apply_prim(op, &[na, nb]) {
                    PrimResult::Value(v) => Ok(v),
                    PrimResult::Raise(exn) => Err(exn),
                }
            }
            COp::Seq { a, b } => {
                self.region_eval(a, env)?;
                self.region_eval(b, env)
            }
            other => unreachable!("op kind {} in a verified fused region", other.kind_index()),
        }
    }

    /// Applies a global through its monomorphic inline cache: a hit jumps
    /// straight into the cached callee's body, a miss resolves through the
    /// global node table and caches the result if it is already a
    /// function value. The cache is per-machine (GC rewrites and marks
    /// the slots) and per-link (relinking panics), so a populated slot is
    /// always the current program's callee.
    fn eval_appg(
        &mut self,
        f: CodeId,
        ic: u32,
        a: CodeId,
        env: &CEnv,
        stack: &mut Vec<CFrame>,
    ) -> CControl {
        let arg = self.alloc_code(a, env);
        if let Some(cached) = self.ics[ic as usize] {
            if let Some(Whnf::CFun { body, env: fenv }) = self.heap.whnf(cached) {
                self.stats.ic_hits += 1;
                let fenv = fenv.clone();
                return CControl::Eval(body, fenv.push(arg));
            }
            self.ics[ic as usize] = None;
        }
        self.stats.ic_misses += 1;
        let g = match self.linked().op(f) {
            COp::Global(g) => g,
            _ => unreachable!("verified: AppG callee is a Global"),
        };
        let node = self.linked().global_nodes[g as usize];
        let resolved = self.heap.resolve(node);
        if let Some(Whnf::CFun { body, env: fenv }) = self.heap.whnf(resolved) {
            let fenv = fenv.clone();
            self.ics[ic as usize] = Some(resolved);
            return CControl::Eval(body, fenv.push(arg));
        }
        stack.push(CFrame::Apply(arg));
        self.enter_fused(node, stack)
    }

    /// Entering a node without paying a separate `Enter` step: values
    /// return directly (the fused-return loop then pops frames in the
    /// same step) and thunks blackhole + push their update frame here,
    /// leaving control at the thunk body — exactly `step_center`'s two
    /// transitions, minus the prologue passes between them. Black holes,
    /// poisoned nodes and foreign suspensions take the full
    /// [`Machine::step_center`] path (they are rare and some — §5.2
    /// detection — must observe the prologue's state).
    fn enter_fused(&mut self, node: NodeId, stack: &mut Vec<CFrame>) -> CControl {
        let node = self.heap.resolve(node);
        // Tagged immediates are their own weak-head normal form — there is
        // no cell to enter.
        if node.is_imm() {
            return CControl::Return(node);
        }
        match self.heap.get(node) {
            Node::Value(_) => CControl::Return(node),
            Node::CThunk { code, env } => {
                let (code, env) = (*code, env.clone());
                // A thunk whose body is already a weak-head normal form
                // (constructor, lambda, literal) or a primitive over
                // immediate operands forces right here: build or apply,
                // update, return — no black-hole write, no Update frame,
                // no extra prologue pass. A synchronous raise poisons the
                // node exactly as trimming past its update frame would
                // (§3.3).
                if let Some(result) = self.fused_force_body(code, &env) {
                    return match result {
                        Ok(v) => {
                            self.stats.thunk_updates += 1;
                            self.heap.set(node, Node::Ind(v));
                            CControl::Return(v)
                        }
                        Err(exn) => {
                            self.heap.set(node, Node::Poisoned(exn.clone()));
                            CControl::Raising(exn)
                        }
                    };
                }
                self.heap.set(
                    node,
                    Node::CBlackhole {
                        code,
                        env: env.clone(),
                    },
                );
                stack.push(CFrame::Update(node));
                CControl::Eval(code, env)
            }
            _ => CControl::Enter(node),
        }
    }

    /// Evaluates an operand position with variable references fused: a
    /// slot or global is entered in this step (forced value or thunk
    /// body), anything structured becomes a fresh `Eval` step.
    fn eval_code_fused(
        &mut self,
        mut code: CodeId,
        env: &CEnv,
        stack: &mut Vec<CFrame>,
    ) -> CControl {
        loop {
            match self.linked().op(code) {
                COp::Local(back) => return self.enter_fused(env.get_back(back), stack),
                COp::Global(g) => {
                    let node = self.linked().global_nodes[g as usize];
                    return self.enter_fused(node, stack);
                }
                COp::App { f, a } => {
                    // The application transition, spine-iterated: each
                    // level suspends its argument and either jumps
                    // straight into a forced callee (direct-call fusion)
                    // or pushes its Apply frame and walks down — the
                    // whole curried spine costs one prologue pass. The
                    // stack-limit check lands on the next prologue, after
                    // the frames are pushed, exactly as a single deep
                    // push would.
                    let arg = self.alloc_code(a, env);
                    let callee = match self.linked().op(f) {
                        COp::Local(back) => Some(env.get_back(back)),
                        COp::Global(g) => Some(self.linked().global_nodes[g as usize]),
                        _ => None,
                    };
                    if let Some(node) = callee {
                        if let Some(Whnf::CFun { body, env: fenv }) = self.heap.whnf(node) {
                            let fenv = fenv.clone();
                            return CControl::Eval(body, fenv.push(arg));
                        }
                    }
                    stack.push(CFrame::Apply(arg));
                    code = f;
                }
                COp::AppG { f, ic, a } => return self.eval_appg(f, ic, a, env, stack),
                _ => {
                    // Anything already in WHNF — a literal, constructor,
                    // lambda, or primitive over immediates — returns (or
                    // raises) in the parent's step; the frame the parent
                    // pushed pops in the fused-return loop (or trims in
                    // the raise path) exactly as it would after a stepped
                    // evaluation.
                    return match self.fused_force_body(code, env) {
                        Some(Ok(v)) => CControl::Return(v),
                        Some(Err(exn)) => CControl::Raising(exn),
                        None => CControl::Eval(code, env.clone()),
                    };
                }
            }
        }
    }

    /// Evaluates a code body that is guaranteed to finish within the
    /// current step — a weak-head normal form to build (constructor,
    /// lambda, literal, forced slot) or a primitive over immediate
    /// operands — without any frame traffic. `None` means the body needs
    /// real stepped evaluation.
    fn fused_force_body(&mut self, code: CodeId, env: &CEnv) -> Option<Result<NodeId, Exception>> {
        match self.linked().op(code) {
            COp::Con { tag, args, n } => {
                if n == 0 {
                    return Some(Ok(self.nullary_con_node(tag)));
                }
                let mut fields = Vec::with_capacity(usize::from(n));
                for i in 0..u32::from(n) {
                    let k = self.linked().kid(args + i);
                    fields.push(self.alloc_code(k, env));
                }
                Some(Ok(self.alloc_value(HValue::Con(tag, fields))))
            }
            COp::Lam { body } => Some(Ok(self.alloc_value(HValue::CFun {
                body,
                env: env.clone(),
            }))),
            COp::Prim1 { .. } | COp::Prim2 { .. } => self.immediate_prim(code, env),
            COp::Fused { body } => self.exec_region(body, env),
            _ => self.immediate_node(code, env).map(Ok),
        }
    }

    /// Evaluates a primitive whose operands are all immediate, in place.
    /// The §3.5 Seeded draw still advances exactly once per binary
    /// primitive evaluation — after the immediacy check, so a bail-out
    /// (which re-evaluates through the stepped path, drawing there)
    /// never double-draws.
    fn immediate_prim(&mut self, code: CodeId, env: &CEnv) -> Option<Result<NodeId, Exception>> {
        match self.linked().op(code) {
            COp::Prim1 { op, a } => {
                let na = self.immediate_node(a, env)?;
                Some(match self.apply_prim(op, &[na]) {
                    PrimResult::Value(v) => Ok(v),
                    PrimResult::Raise(exn) => Err(exn),
                })
            }
            COp::Prim2 { op, a, b } => {
                let na = self.immediate_node(a, env)?;
                let nb = self.immediate_node(b, env)?;
                if let OrderPolicy::Seeded(_) = self.config.order {
                    self.rng.gen_bool(0.5);
                }
                Some(match self.apply_prim(op, &[na, nb]) {
                    PrimResult::Value(v) => Ok(v),
                    PrimResult::Raise(exn) => Err(exn),
                })
            }
            _ => None,
        }
    }

    /// Classifies an operand as already-in-WHNF — a literal or a slot
    /// holding a forced value — and materialises its node. Immediate
    /// operands cannot raise and cannot be interrupted mid-evaluation,
    /// so a parent primitive/case may consume them in its own step
    /// without losing any §3.3/§5.1 behaviour.
    fn immediate_node(&mut self, code: CodeId, env: &CEnv) -> Option<NodeId> {
        match self.linked().op(code) {
            COp::Local(back) => {
                let n = self.heap.resolve(env.get_back(back));
                (n.is_imm() || matches!(self.heap.get(n), Node::Value(_))).then_some(n)
            }
            COp::Global(g) => {
                let n = self.heap.resolve(self.linked().global_nodes[g as usize]);
                (n.is_imm() || matches!(self.heap.get(n), Node::Value(_))).then_some(n)
            }
            COp::Int(n) => Some(self.int_node(n)),
            COp::Char(c) => Some(self.alloc_value(HValue::Char(c))),
            COp::Con { tag, n: 0, .. } => Some(self.nullary_con_node(tag)),
            _ => None,
        }
    }

    fn step_ceval(&mut self, code: CodeId, env: CEnv, stack: &mut Vec<CFrame>) -> CControl {
        let op = self.linked().op(code);
        if let Some(cov) = self.coverage.as_deref_mut() {
            cov.hit(op.kind_index());
        }
        match op {
            COp::Local(back) => self.enter_fused(env.get_back(back), stack),
            COp::Global(g) => {
                let node = self.linked().global_nodes[g as usize];
                self.enter_fused(node, stack)
            }
            COp::Int(n) => CControl::Return(self.int_node(n)),
            COp::Char(c) => CControl::Return(self.alloc_value(HValue::Char(c))),
            COp::Str(i) => {
                let s = self.linked().str_at(i);
                CControl::Return(self.alloc_value(HValue::Str(s)))
            }
            COp::Con { tag, args, n } => {
                if n == 0 {
                    return CControl::Return(self.nullary_con_node(tag));
                }
                let mut fields = Vec::with_capacity(usize::from(n));
                for i in 0..u32::from(n) {
                    let k = self.linked().kid(args + i);
                    fields.push(self.alloc_code(k, &env));
                }
                CControl::Return(self.alloc_value(HValue::Con(tag, fields)))
            }
            COp::Lam { body } => CControl::Return(self.alloc_value(HValue::CFun { body, env })),
            COp::App { .. } => self.eval_code_fused(code, &env, stack),
            COp::Let { rhs, body } => {
                let t = self.alloc_code(rhs, &env);
                // Test-only sabotage: propagate a speculation's stored
                // poison at the binding site — the "unlicensed fusion"
                // that treats a lazy binding as strict. The differential
                // battery proves the oracle catches it.
                if !t.is_imm()
                    && self
                        .chaos
                        .as_ref()
                        .is_some_and(|st| st.plan.sabotage_spec_propagate)
                {
                    if let Node::Poisoned(exn) = self.heap.get(t) {
                        return CControl::Raising(exn.clone());
                    }
                }
                CControl::Eval(body, env.push(t))
            }
            COp::LetRec { rhss, n, body } => {
                // Tie the knot: allocate empty-environment thunks, extend,
                // then rewrite each with the extended environment.
                let mut nodes = Vec::with_capacity(usize::from(n));
                for i in 0..u32::from(n) {
                    let k = self.linked().kid(rhss + i);
                    nodes.push((
                        k,
                        self.alloc(Node::CThunk {
                            code: k,
                            env: CEnv::empty(),
                        }),
                    ));
                }
                let mut env2 = env;
                for (_, nd) in &nodes {
                    env2 = env2.push(*nd);
                }
                for (k, nd) in nodes {
                    self.heap.set(
                        nd,
                        Node::CThunk {
                            code: k,
                            env: env2.clone(),
                        },
                    );
                }
                CControl::Eval(body, env2)
            }
            COp::Case { scrut, arms_at, n } => {
                // A forced scrutinee dispatches in this step — no Select
                // frame, no Eval round trip.
                if let Some(node) = self.immediate_node(scrut, &env) {
                    return self.select_arms(node, arms_at, n, &env);
                }
                stack.push(CFrame::Select {
                    arms_at,
                    n,
                    env: env.clone(),
                });
                self.eval_code_fused(scrut, &env, stack)
            }
            COp::Prim1 { op, a } => {
                if let Some(na) = self.immediate_node(a, &env) {
                    return match self.apply_prim(op, &[na]) {
                        PrimResult::Value(v) => CControl::Return(v),
                        PrimResult::Raise(exn) => CControl::Raising(exn),
                    };
                }
                stack.push(CFrame::PrimArgs {
                    op,
                    env: env.clone(),
                    current: 0,
                    pending: None,
                    results: [None, None],
                });
                self.eval_code_fused(a, &env, stack)
            }
            COp::Prim2 { op, a, b } => {
                // The operand-order policy (§3.5). The Seeded draw must
                // stay one `gen_bool` per binary primitive so both tiers
                // follow one per-seed sequence — including on the fused
                // path below, where the order is
                // unobservable (both operands are values already) but the
                // stream position must still advance.
                let left_first = match self.config.order {
                    OrderPolicy::LeftToRight => true,
                    OrderPolicy::RightToLeft => false,
                    OrderPolicy::Seeded(_) => self.rng.gen_bool(0.5),
                };
                if let Some(na) = self.immediate_node(a, &env) {
                    if let Some(nb) = self.immediate_node(b, &env) {
                        return match self.apply_prim(op, &[na, nb]) {
                            PrimResult::Value(v) => CControl::Return(v),
                            PrimResult::Raise(exn) => CControl::Raising(exn),
                        };
                    }
                }
                let (current, first, pending) = if left_first {
                    (0u8, a, Some((1u8, b)))
                } else {
                    (1u8, b, Some((0u8, a)))
                };
                stack.push(CFrame::PrimArgs {
                    op,
                    env: env.clone(),
                    current,
                    pending,
                    results: [None, None],
                });
                self.eval_code_fused(first, &env, stack)
            }
            COp::Seq { a, b } => {
                // `seq` on a value that already exists is the identity on
                // control: go straight to `b`.
                if self.immediate_node(a, &env).is_some() {
                    return CControl::Eval(b, env);
                }
                stack.push(CFrame::SeqSecond {
                    code: b,
                    env: env.clone(),
                });
                self.eval_code_fused(a, &env, stack)
            }
            COp::MapExn { f, a } => {
                stack.push(CFrame::MapExnCatch {
                    f,
                    env: env.clone(),
                });
                CControl::Eval(a, env)
            }
            COp::IsExn { a } => {
                stack.push(CFrame::IsExnCatch);
                CControl::Eval(a, env)
            }
            COp::GetExn { a } => {
                stack.push(CFrame::UnsafeGetExnCatch);
                CControl::Eval(a, env)
            }
            COp::Raise { a } => {
                stack.push(CFrame::RaiseEval);
                CControl::Eval(a, env)
            }
            COp::Fused { body } => match self.exec_region(body, &env) {
                Some(Ok(v)) => CControl::Return(v),
                Some(Err(exn)) => CControl::Raising(exn),
                // Not every leaf is forced yet: fall back to stepped
                // evaluation of the region body, which is ordinary code.
                None => CControl::Eval(body, env),
            },
            COp::Spec { body } => {
                // Defensive: the pass only emits `Spec` in operand
                // positions (handled by `alloc_code`), but evaluating one
                // directly is still well-defined — build and enter.
                let node = self.alloc_spec(body, &env);
                self.enter_fused(node, stack)
            }
            COp::AppG { f, ic, a } => self.eval_appg(f, ic, a, &env, stack),
        }
    }

    fn step_center(&mut self, node: NodeId, stack: &mut Vec<CFrame>) -> CControl {
        let node = self.heap.resolve(node);
        if node.is_imm() {
            return CControl::Return(node);
        }
        match self.heap.get(node) {
            Node::Value(_) => CControl::Return(node),
            Node::Ind(_) => unreachable!("resolved"),
            Node::Free { .. } => {
                panic!("entered a freed node — a live node escaped the GC roots")
            }
            Node::Forwarded(_) => {
                panic!("entered a stale forwarding pointer — evacuation corruption")
            }
            Node::Poisoned(exn) => CControl::Raising(exn.clone()),
            // §5.2: a black hole is a detectable bottom.
            Node::CBlackhole { .. } => match self.config.blackholes {
                BlackholeMode::Detect => {
                    self.stats.blackholes_detected += 1;
                    CControl::Raising(Exception::NonTermination)
                }
                BlackholeMode::Loop => CControl::Enter(node),
            },
            Node::CThunk { code, env } => {
                let (code, env) = (*code, env.clone());
                self.heap.set(
                    node,
                    Node::CBlackhole {
                        code,
                        env: env.clone(),
                    },
                );
                stack.push(CFrame::Update(node));
                CControl::Eval(code, env)
            }
        }
    }

    fn step_creturn(&mut self, node: NodeId, stack: &mut Vec<CFrame>) -> CStep {
        let Some(frame) = stack.pop() else {
            return CStep::Done(Outcome::Value(node));
        };
        if matches!(frame, CFrame::Catch) {
            // The answer reached the episode's catch mark: finish now.
            // Re-entering the loop with the mark already popped would open
            // a one-step window in which a freshly delivered asynchronous
            // exception finds an empty stack and escapes as `Uncaught`
            // from a fully protected episode.
            return CStep::Done(Outcome::Value(node));
        }
        CStep::Continue(match frame {
            CFrame::Update(target) => {
                self.stats.thunk_updates += 1;
                self.heap.set(target, Node::Ind(node));
                CControl::Return(node)
            }
            CFrame::Apply(arg) => {
                let (body, env) = match self.heap.whnf(node) {
                    Some(Whnf::CFun { body, env }) => (body, env.clone()),
                    _ => panic!("application of a non-function (ill-typed program)"),
                };
                // The compiler reserved the top slot for the argument.
                CControl::Eval(body, env.push(arg))
            }
            CFrame::Select { arms_at, n, env } => self.select_arms(node, arms_at, n, &env),
            CFrame::PrimArgs {
                op,
                env,
                current,
                mut pending,
                mut results,
            } => {
                results[current as usize] = Some(node);
                if let Some((idx, code)) = pending.take() {
                    stack.push(CFrame::PrimArgs {
                        op,
                        env: env.clone(),
                        current: idx,
                        pending: None,
                        results,
                    });
                    self.eval_code_fused(code, &env, stack)
                } else {
                    let mut nodes = [NodeId(0); 2];
                    let mut n = 0;
                    for r in results.into_iter().flatten() {
                        nodes[n] = r;
                        n += 1;
                    }
                    match self.apply_prim(op, &nodes[..n]) {
                        PrimResult::Value(v) => CControl::Return(v),
                        PrimResult::Raise(exn) => CControl::Raising(exn),
                    }
                }
            }
            CFrame::SeqSecond { code, env } => self.eval_code_fused(code, &env, stack),
            CFrame::RaiseEval => self.convert_and_craise(node, stack),
            CFrame::RaisePayload { con } => {
                let exn = match self.heap.whnf(node) {
                    Some(Whnf::Str(s)) => Exception::from_constructor(con, Some(s))
                        .unwrap_or_else(|| panic!("unknown exception constructor '{con}'")),
                    _ => panic!("exception payload is not a string (ill-typed program)"),
                };
                CControl::Raising(exn)
            }
            CFrame::IsExnCatch => CControl::Return(self.bool_node(false)),
            CFrame::UnsafeGetExnCatch => {
                let ok = HValue::Con(Symbol::intern("OK"), vec![node]);
                CControl::Return(self.alloc_value(ok))
            }
            CFrame::MapExnCatch { .. } => CControl::Return(node),
            CFrame::Catch => unreachable!("Catch is finished before the match"),
        })
    }

    /// Matches a WHNF value against the pre-lowered arms, with constructor
    /// match an interned-tag compare and binders pushed positionally.
    fn select_arms(&mut self, node: NodeId, arms_at: u32, n: u16, env: &CEnv) -> CControl {
        let v = self.heap.whnf(node).expect("select on a non-value");
        for i in 0..u32::from(n) {
            let arm = self.linked().arm(arms_at + i);
            let matched = match (arm.pat, &v) {
                (CPat::Default, _) => Some(if arm.bind_scrut {
                    env.push(node)
                } else {
                    env.clone()
                }),
                (CPat::Int(a), Whnf::Int(b)) if a == *b => Some(env.clone()),
                (CPat::Char(a), Whnf::Char(b)) if a == *b => Some(env.clone()),
                (CPat::Str(si), Whnf::Str(s)) if self.linked().str_ref(si) == &***s => {
                    Some(env.clone())
                }
                (CPat::Con(c), Whnf::Con(d, fields)) if c == *d => {
                    let mut env2 = env.clone();
                    for f in fields.iter().take(arm.binders as usize) {
                        env2 = env2.push(*f);
                    }
                    Some(env2)
                }
                _ => None,
            };
            if let Some(env2) = matched {
                return CControl::Eval(arm.rhs, env2);
            }
        }
        CControl::Raising(Exception::PatternMatchFail("case".into()))
    }

    /// Converts a WHNF `Exception` constructor value into a raise,
    /// forcing the string payload first if there is one.
    fn convert_and_craise(&mut self, node: NodeId, stack: &mut Vec<CFrame>) -> CControl {
        let (name, payload) = match self.heap.whnf(node) {
            Some(Whnf::Con(name, fields)) => (name, fields.first().copied()),
            _ => panic!("raise applied to a non-Exception value (ill-typed program)"),
        };
        match payload {
            None => {
                let exn = Exception::from_constructor(name, None)
                    .unwrap_or_else(|| panic!("unknown exception constructor '{name}'"));
                CControl::Raising(exn)
            }
            Some(payload) => {
                stack.push(CFrame::RaisePayload { con: name });
                CControl::Enter(payload)
            }
        }
    }

    /// §3.3's core move: trim the stack to the topmost catch mark.
    /// Synchronous raises poison in-flight thunks, asynchronous ones
    /// restore them (§5.1), handler marks intercept synchronous
    /// exceptions only.
    fn step_craise(&mut self, exn: Exception, stack: &mut Vec<CFrame>) -> CStep {
        let asynchronous = exn.is_asynchronous();
        loop {
            let Some(frame) = stack.pop() else {
                return CStep::Done(Outcome::Uncaught(exn));
            };
            match frame {
                CFrame::Catch => return CStep::Done(Outcome::Caught(exn)),
                CFrame::Update(target) => {
                    let target = self.heap.resolve(target);
                    if asynchronous {
                        // Test-only sabotage: strand the black hole to
                        // prove the heap audit catches a broken restore.
                        let sabotaged = self
                            .chaos
                            .as_ref()
                            .is_some_and(|st| st.plan.sabotage_async_restore);
                        // §5.1: restore a *resumable* suspension.
                        if !sabotaged {
                            if let Node::CBlackhole { code, env } = self.heap.get(target) {
                                let (code, env) = (*code, env.clone());
                                self.heap.set(target, Node::CThunk { code, env });
                                self.stats.thunks_restored += 1;
                            }
                        }
                    } else {
                        // §3.3: overwrite with `raise ex`.
                        self.heap.set(target, Node::Poisoned(exn.clone()));
                        self.stats.thunks_poisoned += 1;
                    }
                    self.stats.frames_trimmed += 1;
                }
                CFrame::IsExnCatch if !asynchronous => {
                    let t = self.bool_node(true);
                    return CStep::Continue(CControl::Return(t));
                }
                CFrame::UnsafeGetExnCatch if !asynchronous => {
                    let ev = self.alloc_exception_value(&exn);
                    let bad = HValue::Con(Symbol::intern("Bad"), vec![ev]);
                    let t = self.alloc_value(bad);
                    return CStep::Continue(CControl::Return(t));
                }
                CFrame::MapExnCatch { f, env } if !asynchronous => {
                    // Rewrite the representative exception through f: no
                    // synthetic application node needed — push the Apply
                    // frame directly and evaluate f.
                    let exn_node = self.alloc_exception_value(&exn);
                    stack.push(CFrame::RaiseEval);
                    stack.push(CFrame::Apply(exn_node));
                    return CStep::Continue(CControl::Eval(f, env));
                }
                _ => {
                    self.stats.frames_trimmed += 1;
                }
            }
        }
    }
}

/// Rewrites every node reference the control register holds — the minor
/// collector's evacuation hook (`f` is idempotent).
fn rewrite_ccontrol(control: &mut CControl, f: &mut dyn FnMut(NodeId) -> NodeId) {
    match control {
        CControl::Eval(_, env) => env.update_nodes(f),
        CControl::Enter(n) | CControl::Return(n) => *n = f(*n),
        CControl::Raising(_) => {}
    }
}

/// Rewrites every node reference a stack frame holds.
fn rewrite_cframe(frame: &mut CFrame, f: &mut dyn FnMut(NodeId) -> NodeId) {
    match frame {
        CFrame::Update(n) | CFrame::Apply(n) => *n = f(*n),
        CFrame::Select { env, .. }
        | CFrame::SeqSecond { env, .. }
        | CFrame::MapExnCatch { env, .. } => env.update_nodes(f),
        CFrame::PrimArgs { env, results, .. } => {
            env.update_nodes(f);
            for r in results.iter_mut().flatten() {
                *r = f(*r);
            }
        }
        CFrame::RaiseEval
        | CFrame::RaisePayload { .. }
        | CFrame::IsExnCatch
        | CFrame::UnsafeGetExnCatch
        | CFrame::Catch => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::code::compile_program;
    use crate::machine::{Backend, MachineConfig, Stats};
    use urk_syntax::{desugar_expr, desugar_program, parse_expr_src, parse_program, DataEnv};

    fn compiled_render(prog_src: &str, query: &str) -> String {
        let mut data = DataEnv::new();
        let prog = desugar_program(&parse_program(prog_src).expect("parses"), &mut data)
            .expect("desugars");
        let code = Arc::new(compile_program(&prog.binds));
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(code);
        let e = desugar_expr(&parse_expr_src(query).expect("parses"), &data).expect("desugars");
        match m.eval_code_expr(&e, false).expect("no machine error") {
            Outcome::Value(n) => m.render(n, 16),
            Outcome::Caught(e) | Outcome::Uncaught(e) => format!("(raise {e})"),
        }
    }

    fn expect(prog: &str, query: &str, want: &str) {
        assert_eq!(compiled_render(prog, query), want, "{query}");
    }

    #[test]
    fn async_delivery_at_every_step_of_a_protected_episode_is_caught() {
        // Regression (found by `urk fuzz`): the catch mark used to be
        // popped one step before the episode returned, so an asynchronous
        // exception delivered on that exact step escaped as `Uncaught`
        // from a catch=true episode. The catch mark must protect the
        // episode up to and including the step on which the answer is
        // returned.
        let data = DataEnv::new();
        let e = desugar_expr(
            &parse_expr_src("seq ((\\x -> x) (19 / 28)) (case Just 3 of { Just v -> 21 })")
                .expect("parses"),
            &data,
        )
        .expect("desugars");
        for at in 1..=64u64 {
            let mut m = Machine::new(MachineConfig {
                event_schedule: vec![(at, Exception::Interrupt)],
                ..MachineConfig::default()
            });
            m.link_code(Arc::new(compile_program(&[])));
            match m.eval_code_expr(&e, true).expect("no machine error") {
                // A value means the episode finished before the delivery
                // point (the event is still pending, so rendering would
                // absorb it — don't).
                Outcome::Value(_) => assert!(
                    m.stats().steps < at,
                    "episode returned a value past the delivery at step {at}"
                ),
                Outcome::Caught(Exception::Interrupt) => {}
                other => panic!("delivery at step {at} produced {other:?}"),
            }
        }
    }

    #[test]
    fn successive_queries_on_one_machine_address_the_extension_correctly() {
        // Regression: the second query compiles into an extension that
        // already holds the first one's ops/kids/arms/strs, and every
        // absolute index must account for that exactly once. Each query
        // exercises all four side tables (constructors, case arms, and
        // string literals).
        let mut data = DataEnv::new();
        let prog = desugar_program(
            &parse_program("classify n = case n of { 0 -> \"zero\"; m -> \"other\" }")
                .expect("parses"),
            &mut data,
        )
        .expect("desugars");
        let code = Arc::new(compile_program(&prog.binds));
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(code);
        for (query, want) in [
            (
                "case classify 0 of { \"zero\" -> Just 1; s -> Nothing }",
                "Just 1",
            ),
            (
                "case classify 5 of { \"zero\" -> Just 1; s -> Nothing }",
                "Nothing",
            ),
            (
                "case classify 0 of { \"zero\" -> Just 2; s -> Nothing }",
                "Just 2",
            ),
        ] {
            let e = desugar_expr(&parse_expr_src(query).expect("parses"), &data).expect("desugars");
            let got = match m.eval_code_expr(&e, false).expect("no machine error") {
                Outcome::Value(n) => m.render(n, 16),
                Outcome::Caught(e) | Outcome::Uncaught(e) => format!("(raise {e})"),
            };
            assert_eq!(got, want, "{query}");
        }
    }

    #[test]
    fn compiled_arithmetic_and_structures() {
        expect("id x = x", "1 + 2 * 3", "7");
        expect("id x = x", "[1, 2]", "Cons 1 (Cons 2 Nil)");
        expect("id x = x", r#"strAppend "ab" "cd""#, r#""abcd""#);
        expect("id x = x", "if 1 < 2 then 10 else 20", "10");
        expect("id x = x", "(id 1, id 'a')", "Pair 1 'a'");
    }

    #[test]
    fn compiled_globals_and_recursion() {
        expect(
            "fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)",
            "fib 15",
            "610",
        );
        expect(
            "double x = x + x\nten = double 5",
            "ten + double 100",
            "210",
        );
    }

    #[test]
    fn compiled_letrec_and_case_dispatch() {
        expect(
            "id x = x",
            "let { mk = \\n -> if n == 0 then [] else n : mk (n - 1)
                 ; len = \\xs -> case xs of { [] -> 0; y:ys -> 1 + len ys } }
             in len (mk 100)",
            "100",
        );
        expect(
            "id x = x",
            "case 'x' of { 'a' -> 1; 'x' -> 2; c -> 3 }",
            "2",
        );
        expect("id x = x", r#"case "hi" of { "lo" -> 1; "hi" -> 2 }"#, "2");
        expect(
            "id x = x",
            "case Nothing of { Just n -> n }",
            r#"(raise PatternMatchFail "case")"#,
        );
    }

    #[test]
    fn compiled_exceptions_trim_and_poison() {
        expect("id x = x", "1/0", "(raise DivideByZero)");
        expect(
            "id x = x",
            r#"raise (UserError "Urk")"#,
            r#"(raise UserError "Urk")"#,
        );
        expect(
            "id x = x",
            "raise (UserError (showInt (1/0)))",
            "(raise DivideByZero)",
        );
        expect(
            "id x = x",
            r#"mapException (\x -> UserError "Urk") (1/0)"#,
            r#"(raise UserError "Urk")"#,
        );
        expect(
            "id x = x",
            r#"mapException (\x -> UserError "Urk") 42"#,
            "42",
        );
        expect("id x = x", "unsafeIsException (1/0)", "True");
        expect("id x = x", "unsafeIsException 3", "False");
        expect(
            "zipWith f [] [] = []\n\
             zipWith f (x:xs) (y:ys) = f x y : zipWith f xs ys\n\
             zipWith f xs ys = raise (UserError \"Unequal lists\")",
            "zipWith (/) [1, 2] [1, 0]",
            "Cons 1 (Cons (raise DivideByZero) Nil)",
        );
    }

    #[test]
    fn compiled_laziness_and_sharing() {
        expect("id x = x", r"(\x -> 3) (1/0)", "3");
        expect("id x = x", "let x = 1/0 in 42", "42");
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(Arc::new(compile_program(&[])));
        let data = DataEnv::new();
        let e = desugar_expr(
            &parse_expr_src("let x = 10 * 10 in x + x").expect("parses"),
            &data,
        )
        .expect("desugars");
        let out = m.eval_code_expr(&e, false).expect("no machine error");
        assert!(matches!(out, Outcome::Value(_)));
        assert_eq!(m.stats().thunk_updates, 1, "shared thunk forced once");
    }

    #[test]
    fn compiled_async_interrupt_restores_thunks_and_resumes() {
        let mut m = Machine::new(MachineConfig {
            event_schedule: vec![(1_000, Exception::Interrupt)],
            ..MachineConfig::default()
        });
        m.link_code(Arc::new(compile_program(&[])));
        let data = DataEnv::new();
        let e = desugar_expr(
            &parse_expr_src("let f = \\n -> if n == 0 then 42 else f (n - 1) in f 100000")
                .expect("parses"),
            &data,
        )
        .expect("desugars");
        // A shared suspension, so the §5.1 restore is observable and
        // resumable.
        let work = m.alloc_code_thunk(&e);
        let first = m.eval_node(work, true).expect("no machine error");
        assert!(matches!(first, Outcome::Caught(Exception::Interrupt)));
        assert!(m.stats().thunks_restored >= 1, "{:?}", m.stats());
        assert_eq!(m.stats().thunks_poisoned, 0);
        assert!(m.audit_heap().is_consistent(), "{:?}", m.audit_heap());
        // The schedule is exhausted; evaluation resumes and completes.
        let second = m.eval_node(work, true).expect("no machine error");
        let Outcome::Value(n) = second else {
            panic!("resumed evaluation should complete, got {second:?}")
        };
        assert_eq!(m.render(n, 4), "42");
    }

    #[test]
    fn compiled_blackhole_detection() {
        assert_eq!(
            compiled_render("id x = x", "let black = black + 1 in black"),
            "(raise NonTermination)"
        );
    }

    #[test]
    fn compiled_gc_under_low_threshold_preserves_results() {
        let mut data = DataEnv::new();
        let prog = desugar_program(
            &parse_program(
                "mk n = if n == 0 then [] else n : mk (n - 1)\n\
                 len xs = case xs of { [] -> 0; y:ys -> 1 + len ys }\n\
                 go i acc = if i == 0 then acc else go (i - 1) (acc + len (mk 50))",
            )
            .expect("parses"),
            &mut data,
        )
        .expect("desugars");
        let mut m = Machine::new(MachineConfig {
            gc_threshold: 2_000,
            ..MachineConfig::default()
        });
        m.link_code(Arc::new(compile_program(&prog.binds)));
        let e =
            desugar_expr(&parse_expr_src("go 100 0").expect("parses"), &data).expect("desugars");
        let out = m.eval_code_expr(&e, false).expect("no machine error");
        let Outcome::Value(n) = out else {
            panic!("{out:?}")
        };
        assert_eq!(m.render(n, 4), "5000");
        assert!(m.stats().gc_runs >= 1, "{:?}", m.stats());
        assert!(m.stats().gc_freed > 0);
    }

    #[test]
    fn compiled_seeded_order_is_deterministic_per_seed() {
        // Same seed, same program: the Seeded policy surfaces the same
        // representative exception on every machine (one rng draw per
        // binary strict primitive), and the sweep surfaces more than one
        // member of the denoted set.
        let data = DataEnv::new();
        let e = desugar_expr(
            &parse_expr_src(r#"((1/0) + raise (UserError "a")) * ((2/0) - raise (UserError "b"))"#)
                .expect("parses"),
            &data,
        )
        .expect("desugars");
        let caught = |seed| {
            let mut m = Machine::new(MachineConfig {
                order: OrderPolicy::Seeded(seed),
                ..MachineConfig::default()
            });
            m.link_code(Arc::new(compile_program(&[])));
            match m.eval_code_expr(&e, true).expect("no machine error") {
                Outcome::Caught(exn) => exn,
                other => panic!("seed {seed}: {other:?}"),
            }
        };
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..16 {
            let exn = caught(seed);
            assert_eq!(exn, caught(seed), "seed {seed}");
            assert!(
                matches!(&exn, Exception::DivideByZero | Exception::UserError(_)),
                "seed {seed}: {exn} is outside the denoted set"
            );
            seen.insert(exn.to_string());
        }
        assert!(
            seen.len() >= 2,
            "one representative for every seed: {seen:?}"
        );
    }

    #[test]
    fn compiled_stats_tag_backend_and_compile_cost() {
        let mut m = Machine::new(MachineConfig::default());
        m.link_code(Arc::new(compile_program(&[])));
        assert_eq!(m.stats().backend, Backend::Compiled);
        let data = DataEnv::new();
        let e = desugar_expr(&parse_expr_src("1 + 2").expect("parses"), &data).expect("desugars");
        let _ = m.eval_code_expr(&e, false).expect("no machine error");
        assert!(m.stats().compile_ops >= 3, "{:?}", m.stats());
        m.reset_stats();
        assert_eq!(m.stats().backend, Backend::Compiled, "tag survives reset");
        assert_eq!(m.stats().compile_ops, 0);
        let _ = Stats::default();
    }

    #[test]
    fn shared_arc_code_serves_multiple_machines() {
        let mut data = DataEnv::new();
        let prog = desugar_program(
            &parse_program("fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)")
                .expect("parses"),
            &mut data,
        )
        .expect("desugars");
        let code = Arc::new(compile_program(&prog.binds));
        let e = desugar_expr(&parse_expr_src("fib 12").expect("parses"), &data).expect("desugars");
        let mut outs = Vec::new();
        for _ in 0..3 {
            let mut m = Machine::new(MachineConfig::default());
            m.link_code(Arc::clone(&code));
            let out = m.eval_code_expr(&e, false).expect("no machine error");
            let Outcome::Value(n) = out else {
                panic!("{out:?}")
            };
            outs.push(m.render(n, 4));
        }
        assert_eq!(outs, vec!["144", "144", "144"]);
        assert_eq!(Arc::strong_count(&code), 1, "machines dropped their links");
    }
}
