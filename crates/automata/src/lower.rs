//! Lowering: compile transitions to flat stepping programs — a whole
//! automaton at once ([`lower`]) or one transition at a time into
//! shared pools ([`Pools::lower`], how the just-in-time core lowers each
//! connected step on first use).
//!
//! The interpreter walks boxed [`Term`] trees on every firing: the
//! valuation fixpoint of [`crate::fire::try_fire`] re-discovers the (static)
//! dataflow order of the assignments, the guard is re-evaluated by recursion
//! over its formula, and every firing allocates a fresh valuation, staging
//! vector and delivery vector. None of that depends on runtime data — the
//! sync set, the dependency order, the guard shape and the commit order are
//! all fixed per transition. This module resolves them **once** into
//! straight-line register programs:
//!
//! * the valuation fixpoint becomes a topologically ordered instruction
//!   sequence over a flat register file (statically detected causal cycles
//!   become a per-transition [`LoweredTransition::unresolved`] marker that
//!   reproduces the interpreter's [`UnresolvedPort`] error on attempt); a
//!   read of a port aliases the register that already holds the port's
//!   value — registers are single-assignment and every use clones — so a
//!   value crossing `k` synchronous hops is not copied `k` times;
//! * guards become early-exit check opcodes in conjunct order (the
//!   short-circuit of [`Guard::And`] is preserved), with integer immediates
//!   riding in the instruction word (the `GuardEqInt` and `GuardMemLen`
//!   opcodes) so the common comparisons never materialize a [`Value`];
//! * the commit phase becomes a fixed tail of delivery / pop / write
//!   opcodes in exactly the interpreter's order (all sources read against
//!   the pre-state, pops before writes, deliveries in assignment order).
//!
//! Executing a lowered transition ([`Pools::try_fire`]) allocates nothing:
//! registers, `Apply` argument buffers and the delivery vector are reusable
//! scratch owned by the caller. The observable contract is *identical* to
//! [`crate::fire::try_fire`] — the differential tests in `reo-runtime`
//! round-trip every paper primitive through both paths.
//!
//! ```
//! use reo_automata::lower::lower;
//! use reo_automata::primitives::fifo1;
//! use reo_automata::{MemId, MemLayout, PortId, Store, Value};
//!
//! let aut = fifo1(PortId(0), PortId(1), MemId(0));
//! let low = lower(&aut).unwrap();
//! let mut store = Store::new(&MemLayout::cells(1));
//! let mut scratch = low.new_scratch();
//! let mut deliveries = Vec::new();
//!
//! // Fill: the transition from the empty state accepts on port 0.
//! let state = low.initial();
//! let next = low
//!     .try_fire(state, 0, &|_| Some(Value::Int(7)), &mut store, &mut scratch, &mut deliveries)
//!     .unwrap()
//!     .expect("guard holds");
//! // Take: the full state's transition delivers the buffered value on port 1.
//! low.try_fire(next, 0, &|_| None, &mut store, &mut scratch, &mut deliveries)
//!     .unwrap()
//!     .expect("guard holds");
//! assert_eq!(deliveries[0].0, PortId(1));
//! assert_eq!(deliveries[0].1.as_int(), Some(7));
//! ```

use crate::assign::Dst;
use crate::automaton::{Automaton, StateId, Transition};
use crate::fire::UnresolvedPort;
use crate::guard::{Cmp, Guard, Pred};
use crate::port::{MemId, PortId, PortSet};
use crate::store::Store;
use crate::term::{Func, Term};
use crate::value::Value;

/// One opcode of a lowered transition's stepping program.
///
/// Programs are laid out as `[resolve ops] [guard ops] [commit ops]`: a
/// failing guard opcode aborts before any opcode with an observable effect
/// has run, so a false guard leaves the store untouched — exactly the
/// interpreter's contract.
#[derive(Clone, Debug)]
enum Op {
    /// Load the pending send on a sync input port into a register.
    Seed { port: PortId, dst: u16 },
    /// Load a constant from the shared pool.
    Const { ix: u16, dst: u16 },
    /// Peek the front of a memory cell (panics on empty, like [`Term::eval`]).
    MemPeek { mem: MemId, dst: u16 },
    /// Call a pure [`Func`] on argument registers.
    Apply {
        func: u16,
        args: Box<[u16]>,
        dst: u16,
    },
    /// Guard: structural (in)equality of two registers.
    GuardCmp { a: u16, b: u16, expect_eq: bool },
    /// Guard: integer fast path — compare a register against an `i64`
    /// immediate without materializing the constant.
    GuardEqInt { a: u16, rhs: i64, expect_eq: bool },
    /// Guard: compare a cell's queue length against an immediate.
    GuardMemLen { mem: MemId, cmp: Cmp, rhs: i64 },
    /// Guard: a named predicate applied to a register.
    GuardPred { pred: u16, arg: u16, expect: bool },
    /// Guard folded to constant false at lower time: never fires.
    Never,
    /// Commit: deliver a register's value to a port.
    Deliver { port: PortId, src: u16 },
    /// Commit: overwrite a cell with a register's value.
    MemSet { mem: MemId, src: u16 },
    /// Commit: enqueue a register's value at the back of a cell.
    MemPush { mem: MemId, src: u16 },
    /// Commit: dequeue the front of a cell.
    MemPop { mem: MemId },
}

/// One lowered transition: metadata for dispatch plus the flat program.
#[derive(Clone, Debug)]
pub struct LoweredTransition {
    /// The synchronization set (dispatch masks are built from it).
    pub sync: PortSet,
    /// Successor state.
    pub target: StateId,
    /// `sync ∩ seeds`, in sync order: the ports whose pending sends both
    /// feed the program and complete when it fires.
    pub send_ports: Box<[PortId]>,
    /// Statically unresolvable dataflow: attempting this transition must
    /// error with [`UnresolvedPort`], matching the interpreter.
    pub unresolved: Option<PortId>,
    ops: Box<[Op]>,
}

/// Reusable execution scratch: the register file and `Apply` argument
/// buffer. One per executing core ([`Pools::fit`] sizes it); no per-firing
/// allocation.
#[derive(Debug, Default)]
pub struct ExecScratch {
    regs: Vec<Value>,
    args: Vec<Value>,
}

/// A whole automaton lowered to stepping programs, one per transition,
/// over shared constant/function/predicate pools.
#[derive(Debug)]
pub struct Lowered {
    name: String,
    initial: StateId,
    states: Vec<Box<[LoweredTransition]>>,
    pools: Pools,
}

/// What the lowering pass assumes about the automaton's environment.
pub struct LowerOptions<'a> {
    /// Ports whose values arrive as pending sends when a transition fires
    /// (the valuation seeds). The engine guarantees exactly the boundary
    /// *inputs* carry sends, so [`lower`] defaults to
    /// [`Automaton::inputs`].
    pub seeds: &'a PortSet,
    /// If set, only deliveries to these ports are emitted (the engine
    /// forwards only boundary *outputs*; internal deliveries evaporate).
    /// `None` keeps every port delivery, matching [`crate::fire::Firing`].
    pub deliver: Option<&'a PortSet>,
}

/// Lowering refused the automaton: the flat instruction encoding packs
/// register and pool indices into `u16`s, and one transition (or the
/// shared pools) needed more than `u16::MAX` of them. Reachable only
/// through adversarial shapes — e.g. a function applied to ~70 000
/// arguments, one register each. The interpreter ([`crate::fire::try_fire`]) has no such encoding limit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LowerError {
    /// One transition's stepping program needs more than `u16::MAX`
    /// registers.
    RegisterOverflow { automaton: String },
    /// A shared pool (`"const"`, `"func"` or `"pred"`) outgrew the `u16`
    /// index space.
    PoolOverflow {
        automaton: String,
        pool: &'static str,
    },
}

impl std::fmt::Display for LowerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LowerError::RegisterOverflow { automaton } => write!(
                f,
                "cannot lower automaton `{automaton}`: one transition needs \
                 more than the {} registers a `u16` register index addresses",
                u16::MAX
            ),
            LowerError::PoolOverflow { automaton, pool } => write!(
                f,
                "cannot lower automaton `{automaton}`: the {pool} pool outgrew \
                 the {} entries a `u16` pool index addresses",
                u16::MAX
            ),
        }
    }
}

impl std::error::Error for LowerError {}

/// Lower a whole automaton: seeds = its inputs, all deliveries kept.
pub fn lower(a: &Automaton) -> Result<Lowered, LowerError> {
    let opts = LowerOptions {
        seeds: a.inputs(),
        deliver: None,
    };
    let mut pools = Pools::default();
    let states = a
        .all_states()
        .map(|s| {
            (a.transitions_from(s).iter())
                .map(|t| pools.lower(a.name(), t, &opts))
                .collect()
        })
        .collect::<Result<_, _>>()?;
    Ok(Lowered {
        name: a.name().to_string(),
        initial: a.initial(),
        states,
        pools,
    })
}

/// The constant/function/predicate pools a set of stepping programs
/// shares, and the executor over them. [`lower`] fills one per
/// automaton; the just-in-time core keeps one per engine and
/// [`lower`](Pools::lower)s each connected step into it on first use.
#[derive(Debug, Default)]
pub struct Pools {
    consts: Vec<Value>,
    funcs: Vec<Func>,
    preds: Vec<Pred>,
    /// Set when any pool index no longer fits a `u16`.
    overflowed: Option<&'static str>,
    /// Registers the widest program lowered so far needs.
    reg_count: usize,
}

impl Pools {
    /// Lower one transition into these pools; `owner` names it in errors.
    pub fn lower(
        &mut self,
        owner: &str,
        t: &Transition,
        opts: &LowerOptions<'_>,
    ) -> Result<LoweredTransition, LowerError> {
        let (lowered, regs) = lower_transition(t, opts, self);
        if regs > u16::MAX as usize {
            return Err(LowerError::RegisterOverflow {
                automaton: owner.to_string(),
            });
        }
        if let Some(pool) = self.overflowed {
            return Err(LowerError::PoolOverflow {
                automaton: owner.to_string(),
                pool,
            });
        }
        self.reg_count = self.reg_count.max(regs);
        Ok(lowered)
    }

    /// Grow `scratch` to hold the widest program lowered so far.
    pub fn fit(&self, scratch: &mut ExecScratch) {
        if scratch.regs.len() < self.reg_count {
            scratch.regs.resize(self.reg_count, Value::Unit);
        }
    }

    fn clamp(&mut self, ix: usize, pool: &'static str) -> u16 {
        if ix > u16::MAX as usize {
            self.overflowed = Some(pool);
            u16::MAX
        } else {
            ix as u16
        }
    }

    fn const_ix(&mut self, v: &Value) -> u16 {
        let ix = match self.consts.iter().position(|c| c.structurally_eq(v)) {
            Some(i) => i,
            None => {
                self.consts.push(v.clone());
                self.consts.len() - 1
            }
        };
        self.clamp(ix, "const")
    }

    fn func_ix(&mut self, f: &Func) -> u16 {
        let ix = match self.funcs.iter().position(|g| g.same(f)) {
            Some(i) => i,
            None => {
                self.funcs.push(f.clone());
                self.funcs.len() - 1
            }
        };
        self.clamp(ix, "func")
    }

    fn pred_ix(&mut self, p: &Pred) -> u16 {
        let ix = match self.preds.iter().position(|q| q.same(p)) {
            Some(i) => i,
            None => {
                self.preds.push(p.clone());
                self.preds.len() - 1
            }
        };
        self.clamp(ix, "pred")
    }
}

/// Per-transition lowering context.
struct Ctx<'a> {
    ops: Vec<Op>,
    /// Port valuation registers (first write wins, like the interpreter).
    port_regs: Vec<(PortId, u16)>,
    /// Registers handed out so far; `usize` so adversarial transitions
    /// count past `u16::MAX` instead of wrapping — [`Pools::lower`] turns
    /// any excess into [`LowerError::RegisterOverflow`].
    next_reg: usize,
    pools: &'a mut Pools,
}

impl Ctx<'_> {
    fn fresh(&mut self) -> u16 {
        let r = self.next_reg.min(u16::MAX as usize) as u16;
        self.next_reg += 1;
        r
    }

    fn port_reg(&self, p: PortId) -> Option<u16> {
        self.port_regs
            .iter()
            .find_map(|&(q, r)| (q == p).then_some(r))
    }

    /// Compile a term into a register. Every port it reads must already be
    /// valued (the caller walks assignments in dependency order).
    fn term(&mut self, t: &Term) -> u16 {
        match t {
            // A port read aliases the register already holding the port's
            // value: registers are single-assignment within a program and
            // every use clones, so no copy is needed.
            Term::Port(p) => self.port_reg(*p).expect("caller checked readiness"),
            Term::Mem(m) => {
                let dst = self.fresh();
                self.ops.push(Op::MemPeek { mem: *m, dst });
                dst
            }
            Term::Const(v) => {
                let ix = self.pools.const_ix(v);
                let dst = self.fresh();
                self.ops.push(Op::Const { ix, dst });
                dst
            }
            Term::Apply(f, args) => {
                let arg_regs: Box<[u16]> = args.iter().map(|a| self.term(a)).collect();
                let func = self.pools.func_ix(f);
                let dst = self.fresh();
                self.ops.push(Op::Apply {
                    func,
                    args: arg_regs,
                    dst,
                });
                dst
            }
        }
    }

    /// Compile one (in)equality conjunct, folding constants and routing
    /// integer immediates through the fast-path opcode.
    fn eq_guard(&mut self, a: &Term, b: &Term, expect_eq: bool) {
        if let (Term::Const(x), Term::Const(y)) = (a, b) {
            if x.structurally_eq(y) != expect_eq {
                self.ops.push(Op::Never);
            }
            return;
        }
        if let Term::Const(Value::Int(k)) = b {
            let r = self.term(a);
            self.ops.push(Op::GuardEqInt {
                a: r,
                rhs: *k,
                expect_eq,
            });
            return;
        }
        if let Term::Const(Value::Int(k)) = a {
            let r = self.term(b);
            self.ops.push(Op::GuardEqInt {
                a: r,
                rhs: *k,
                expect_eq,
            });
            return;
        }
        let ra = self.term(a);
        let rb = self.term(b);
        self.ops.push(Op::GuardCmp {
            a: ra,
            b: rb,
            expect_eq,
        });
    }

    /// Compile a guard in conjunct order (early-exit opcodes preserve the
    /// short-circuit of [`Guard::And`]).
    fn guard(&mut self, g: &Guard) {
        match g {
            Guard::True => {}
            Guard::And(a, b) => {
                self.guard(a);
                self.guard(b);
            }
            Guard::TermEq(a, b) => self.eq_guard(a, b, true),
            Guard::TermNe(a, b) => self.eq_guard(a, b, false),
            Guard::MemLen(m, cmp, n) => self.ops.push(Op::GuardMemLen {
                mem: *m,
                cmp: *cmp,
                rhs: *n,
            }),
            Guard::Pred(p, t) => {
                let arg = self.term(t);
                let pred = self.pools.pred_ix(p);
                self.ops.push(Op::GuardPred {
                    pred,
                    arg,
                    expect: true,
                });
            }
            Guard::NotPred(p, t) => {
                let arg = self.term(t);
                let pred = self.pools.pred_ix(p);
                self.ops.push(Op::GuardPred {
                    pred,
                    arg,
                    expect: false,
                });
            }
        }
    }
}

/// Lower one transition; returns it plus the register count it needs.
fn lower_transition(
    t: &Transition,
    opts: &LowerOptions<'_>,
    pools: &mut Pools,
) -> (LoweredTransition, usize) {
    let send_ports: Box<[PortId]> = t.sync.iter().filter(|p| opts.seeds.contains(*p)).collect();
    let mut ctx = Ctx {
        ops: Vec::new(),
        port_regs: Vec::new(),
        next_reg: 0,
        pools,
    };

    let fail = |p: PortId| LoweredTransition {
        sync: t.sync.clone(),
        target: t.target,
        send_ports: send_ports.clone(),
        unresolved: Some(p),
        ops: Box::new([]),
    };

    // Seed phase: pending sends on the sync set, mirroring the
    // interpreter's valuation seeding.
    for p in send_ports.iter() {
        let dst = ctx.fresh();
        ctx.ops.push(Op::Seed { port: *p, dst });
        ctx.port_regs.push((*p, dst));
    }

    // Resolve phase: the interpreter's retain-loop fixpoint over
    // port-writing assignments, replayed statically in the same order so
    // first-write-wins and the culprit of a causal cycle both match.
    let mut remaining: Vec<&crate::assign::Assign> = t
        .assigns
        .iter()
        .filter(|a| matches!(a.dst, Dst::Port(_)))
        .collect();
    let mut reads = Vec::new();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|a| {
            reads.clear();
            a.src.ports_read(&mut reads);
            if !reads.iter().all(|p| ctx.port_reg(*p).is_some()) {
                return true;
            }
            let r = ctx.term(&a.src);
            if let Dst::Port(p) = a.dst {
                // First write wins (composition upholds single writers;
                // the interpreter tolerates duplicates the same way).
                if ctx.port_reg(p).is_none() {
                    ctx.port_regs.push((p, r));
                }
            }
            false
        });
        if remaining.len() == before {
            reads.clear();
            remaining[0].src.ports_read(&mut reads);
            let culprit = reads
                .iter()
                .find(|p| ctx.port_reg(**p).is_none())
                .copied()
                .unwrap_or(PortId(u32::MAX));
            return (fail(culprit), 0);
        }
    }

    // Guard reads must all be resolved too (same error, same priority).
    let mut guard_ports = Vec::new();
    t.guard.ports_read(&mut guard_ports);
    if let Some(p) = guard_ports.iter().find(|p| ctx.port_reg(**p).is_none()) {
        return (fail(*p), 0);
    }

    // Memory-write sources compile in the commit phase via `ctx.term`,
    // which requires every port read to hold a register — check them here,
    // mirroring the interpreter's commit-source readiness rule.
    for a in &t.assigns {
        if matches!(a.dst, Dst::MemSet(_) | Dst::MemPush(_)) {
            reads.clear();
            a.src.ports_read(&mut reads);
            if let Some(p) = reads.iter().find(|p| ctx.port_reg(**p).is_none()) {
                return (fail(*p), 0);
            }
        }
    }

    // Guard phase: early-exit checks in conjunct order.
    ctx.guard(&t.guard);

    // Commit phase, in the interpreter's exact order: walk assignments —
    // port deliveries straight from the valuation registers, memory-write
    // sources evaluated now (after the guard, against the pre-state) —
    // then pops, then the staged writes.
    let mut staged: Vec<(bool, MemId, u16)> = Vec::new();
    for a in &t.assigns {
        match a.dst {
            Dst::Port(p) => {
                let src = ctx.port_reg(p).expect("resolve phase valued every port");
                if opts.deliver.is_none_or(|d| d.contains(p)) {
                    ctx.ops.push(Op::Deliver { port: p, src });
                }
            }
            Dst::MemSet(m) => {
                let src = ctx.term(&a.src);
                staged.push((false, m, src));
            }
            Dst::MemPush(m) => {
                let src = ctx.term(&a.src);
                staged.push((true, m, src));
            }
        }
    }
    for &m in &t.pops {
        ctx.ops.push(Op::MemPop { mem: m });
    }
    for (is_push, mem, src) in staged {
        ctx.ops.push(if is_push {
            Op::MemPush { mem, src }
        } else {
            Op::MemSet { mem, src }
        });
    }

    let regs = ctx.next_reg;
    (
        LoweredTransition {
            sync: t.sync.clone(),
            target: t.target,
            send_ports,
            unresolved: None,
            ops: ctx.ops.into_boxed_slice(),
        },
        regs,
    )
}

impl Lowered {
    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn initial(&self) -> StateId {
        self.initial
    }

    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    pub fn transition_count(&self) -> usize {
        self.states.iter().map(|s| s.len()).sum()
    }

    /// Registers a scratch file must hold (the max over all transitions).
    pub fn reg_count(&self) -> usize {
        self.pools.reg_count
    }

    pub fn transitions_from(&self, s: StateId) -> &[LoweredTransition] {
        &self.states[s.index()]
    }

    /// Allocate the reusable register file for this program.
    pub fn new_scratch(&self) -> ExecScratch {
        let mut scratch = ExecScratch::default();
        self.pools.fit(&mut scratch);
        scratch
    }

    /// Execute transition `index` out of `state` — [`Pools::try_fire`] plus
    /// the successor state (`Ok(None)` when the guard is false).
    #[inline]
    pub fn try_fire(
        &self,
        state: StateId,
        index: usize,
        input_value: &(impl Fn(PortId) -> Option<Value> + ?Sized),
        store: &mut Store,
        scratch: &mut ExecScratch,
        deliveries: &mut Vec<(PortId, Value)>,
    ) -> Result<Option<StateId>, UnresolvedPort> {
        let t = &self.states[state.index()][index];
        let fired = self
            .pools
            .try_fire(t, input_value, store, scratch, deliveries)?;
        Ok(fired.then_some(t.target))
    }
}

impl Pools {
    /// Execute a program lowered into these pools — the lowered equivalent
    /// of [`crate::fire::try_fire`].
    ///
    /// * `input_value(p)` must return the pending send on seed port `p`
    ///   (the caller has checked operational enabledness).
    /// * `Ok(false)`: guard false, store untouched, `deliveries` cleared.
    /// * `Ok(true)`: fired; `deliveries` holds the port deliveries in
    ///   assignment order and the store is updated.
    /// * `Err`: the dataflow is unresolvable (detected at lower time).
    ///
    /// The `input_value` closure is generic (monomorphized per caller):
    /// seeds are read on the innermost hot path, where an indirect call
    /// per port is measurable. `scratch` must have been [`fit`](Self::fit)
    /// since `t` was lowered.
    #[inline]
    pub fn try_fire(
        &self,
        t: &LoweredTransition,
        input_value: &(impl Fn(PortId) -> Option<Value> + ?Sized),
        store: &mut Store,
        scratch: &mut ExecScratch,
        deliveries: &mut Vec<(PortId, Value)>,
    ) -> Result<bool, UnresolvedPort> {
        if let Some(p) = t.unresolved {
            return Err(UnresolvedPort(p));
        }
        deliveries.clear();
        let regs = &mut scratch.regs;
        for op in t.ops.iter() {
            match op {
                Op::Seed { port, dst } => {
                    regs[*dst as usize] = input_value(*port).ok_or(UnresolvedPort(*port))?;
                }
                Op::Const { ix, dst } => {
                    regs[*dst as usize] = self.consts[*ix as usize].clone();
                }
                Op::MemPeek { mem, dst } => {
                    regs[*dst as usize] = store
                        .peek(*mem)
                        .cloned()
                        .unwrap_or_else(|| panic!("read of empty memory cell {mem:?}"));
                }
                Op::Apply { func, args, dst } => {
                    scratch.args.clear();
                    for &a in args.iter() {
                        scratch.args.push(regs[a as usize].clone());
                    }
                    regs[*dst as usize] = self.funcs[*func as usize].call(&scratch.args);
                }
                Op::GuardCmp { a, b, expect_eq } => {
                    if regs[*a as usize].structurally_eq(&regs[*b as usize]) != *expect_eq {
                        return Ok(false);
                    }
                }
                Op::GuardEqInt { a, rhs, expect_eq } => {
                    let eq = matches!(&regs[*a as usize], Value::Int(x) if x == rhs);
                    if eq != *expect_eq {
                        return Ok(false);
                    }
                }
                Op::GuardMemLen { mem, cmp, rhs } => {
                    if !cmp.holds(store.len(*mem) as i64, *rhs) {
                        return Ok(false);
                    }
                }
                Op::GuardPred { pred, arg, expect } => {
                    if self.preds[*pred as usize].test(&regs[*arg as usize]) != *expect {
                        return Ok(false);
                    }
                }
                Op::Never => return Ok(false),
                Op::Deliver { port, src } => {
                    deliveries.push((*port, regs[*src as usize].clone()));
                }
                Op::MemSet { mem, src } => {
                    store.set(*mem, regs[*src as usize].clone());
                }
                Op::MemPush { mem, src } => {
                    store.push(*mem, regs[*src as usize].clone());
                }
                Op::MemPop { mem } => {
                    store.pop(*mem);
                }
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assign::Assign;
    use crate::fire::try_fire;
    use crate::store::MemLayout;

    fn send_on(p: PortId, v: i64) -> impl Fn(PortId) -> Option<Value> {
        move |q| (q == p).then_some(Value::Int(v))
    }

    /// Drive a lowered automaton and the interpreter side by side over one
    /// transition and compare deliveries and store effects.
    fn roundtrip(
        aut: &Automaton,
        state: StateId,
        index: usize,
        inputs: &dyn Fn(PortId) -> Option<Value>,
    ) {
        let low = lower(aut).unwrap();
        let mut layout = MemLayout::cells(0);
        layout.merge(aut.mem_layout());
        let mut store_i = Store::new(&layout);
        let mut store_c = Store::new(&layout);
        let t = &aut.transitions_from(state)[index];
        let interp = try_fire(t, inputs, &mut store_i);
        let mut scratch = low.new_scratch();
        let mut deliveries = Vec::new();
        let compiled = low.try_fire(
            state,
            index,
            inputs,
            &mut store_c,
            &mut scratch,
            &mut deliveries,
        );
        match (interp, compiled) {
            (Ok(Some(firing)), Ok(Some(target))) => {
                assert_eq!(target, t.target);
                assert_eq!(firing.deliveries.len(), deliveries.len());
                for ((p1, v1), (p2, v2)) in firing.deliveries.iter().zip(deliveries.iter()) {
                    assert_eq!(p1, p2);
                    assert!(v1.structurally_eq(v2), "{v1:?} != {v2:?}");
                }
            }
            (Ok(None), Ok(None)) => {}
            (Err(e1), Err(e2)) => assert_eq!(e1, e2),
            (a, b) => panic!("diverged: interp={a:?} compiled={b:?}"),
        }
        for m in aut.mem_ids() {
            assert_eq!(store_i.len(*m), store_c.len(*m), "cell {m:?} length");
            match (store_i.peek(*m), store_c.peek(*m)) {
                (Some(x), Some(y)) => assert!(x.structurally_eq(y), "cell {m:?}: {x:?} != {y:?}"),
                (x, y) => assert_eq!(x.is_none(), y.is_none(), "cell {m:?} front"),
            }
        }
    }

    #[test]
    fn sync_lowering_matches_interpreter() {
        let aut = crate::primitives::sync(PortId(0), PortId(1));
        roundtrip(&aut, StateId(0), 0, &send_on(PortId(0), 5));
    }

    #[test]
    fn fifo_fill_take_matches_interpreter() {
        let aut = crate::primitives::fifo1(PortId(0), PortId(1), MemId(0));
        let low = lower(&aut).unwrap();
        let mut store = Store::new(&MemLayout::cells(1));
        let mut scratch = low.new_scratch();
        let mut deliveries = Vec::new();
        let s1 = low
            .try_fire(
                low.initial(),
                0,
                &send_on(PortId(0), 42),
                &mut store,
                &mut scratch,
                &mut deliveries,
            )
            .unwrap()
            .unwrap();
        assert_eq!(store.len(MemId(0)), 1);
        let s0 = low
            .try_fire(s1, 0, &|_| None, &mut store, &mut scratch, &mut deliveries)
            .unwrap()
            .unwrap();
        assert_eq!(s0, low.initial());
        assert_eq!(deliveries[0].1.as_int(), Some(42));
        assert!(store.is_cell_empty(MemId(0)));
    }

    #[test]
    fn chained_assignments_resolve_in_dependency_order() {
        // p0 -> internal p1 -> p2, listed out of order: the static fixpoint
        // must find the same order the interpreter's retain loop does.
        let t = Transition::new(
            PortSet::from_iter([PortId(0), PortId(1), PortId(2)]),
            StateId(0),
        )
        .with_assign(Assign::to_port(PortId(2), Term::Port(PortId(1))))
        .with_assign(Assign::to_port(PortId(1), Term::Port(PortId(0))));
        let mut b = crate::automaton::AutomatonBuilder::new("chain");
        let s = b.state();
        b.input(PortId(0));
        b.internal(PortId(1));
        b.output(PortId(2));
        b.transition(s, t);
        let aut = b.build();
        roundtrip(&aut, s, 0, &send_on(PortId(0), 7));
    }

    /// Every transition out of the initial state of the product of
    /// `parts` (later states need a store to match), against the
    /// interpreter.
    fn roundtrip_product(parts: &[Automaton], inputs: &dyn Fn(PortId) -> Option<Value>) -> Lowered {
        let aut = crate::product::product_all(parts, &Default::default()).unwrap();
        for index in 0..aut.transitions_from(aut.initial()).len() {
            roundtrip(&aut, aut.initial(), index, inputs);
        }
        lower(&aut).unwrap()
    }

    #[test]
    fn sync_chain_aliases_one_register_per_hop() {
        // p0 -> p1 -> p2 -> p3 through three Syncs: each hop reads the
        // port the hop before it wrote, so the whole chain is one seed
        // register and one delivery.
        use crate::primitives::sync;
        let chain = [
            sync(PortId(0), PortId(1)),
            sync(PortId(1), PortId(2)),
            sync(PortId(2), PortId(3)),
        ];
        let low = roundtrip_product(&chain, &send_on(PortId(0), 9));
        assert_eq!(low.reg_count(), 1, "port reads alias, they do not copy");
    }

    #[test]
    fn replicator_into_fifo_matches_interpreter() {
        // p0 is replicated to the output p1 and, through the shared vertex
        // p2, into a buffer: the delivery and the memory write read one
        // aliased register.
        let parts = [
            crate::primitives::replicator(PortId(0), &[PortId(1), PortId(2)]),
            crate::primitives::fifo1(PortId(2), PortId(3), MemId(0)),
        ];
        roundtrip_product(&parts, &send_on(PortId(0), 4));
    }

    #[test]
    fn causal_cycle_is_detected_at_lower_time() {
        let t = Transition::new(PortSet::from_iter([PortId(1), PortId(2)]), StateId(0))
            .with_assign(Assign::to_port(PortId(1), Term::Port(PortId(2))))
            .with_assign(Assign::to_port(PortId(2), Term::Port(PortId(1))));
        let mut b = crate::automaton::AutomatonBuilder::new("cycle");
        let s = b.state();
        b.internal(PortId(1));
        b.internal(PortId(2));
        b.transition(s, t);
        let aut = b.build();
        let low = lower(&aut).unwrap();
        let lt = &low.transitions_from(s)[0];
        assert!(lt.unresolved.is_some(), "cycle must be caught statically");
        roundtrip(&aut, s, 0, &|_| None);
    }

    #[test]
    fn guard_reading_unresolved_port_matches_interpreter() {
        let t = Transition::new(PortSet::singleton(PortId(0)), StateId(0)).with_guard(
            Guard::TermEq(Term::Port(PortId(5)), Term::Const(Value::Unit)),
        );
        let mut b = crate::automaton::AutomatonBuilder::new("badguard");
        let s = b.state();
        b.input(PortId(0));
        b.transition(s, t);
        let aut = b.build();
        roundtrip(&aut, s, 0, &send_on(PortId(0), 1));
    }

    #[test]
    fn false_guard_leaves_store_untouched() {
        // Guarded write: `[len(m) > 0] m := p0` with an empty cell — the
        // guard fails and the write must not have happened.
        let m = MemId(0);
        let t = Transition::new(PortSet::singleton(PortId(0)), StateId(0))
            .with_guard(Guard::MemLen(m, Cmp::Gt, 0))
            .with_assign(Assign::set_mem(m, Term::Port(PortId(0))));
        let mut b = crate::automaton::AutomatonBuilder::new("guarded");
        let s = b.state();
        b.input(PortId(0));
        b.mem(m, vec![]);
        b.transition(s, t);
        let aut = b.build();
        let low = lower(&aut).unwrap();
        let mut store = Store::new(&MemLayout::cells(1));
        let mut scratch = low.new_scratch();
        let mut deliveries = Vec::new();
        let out = low
            .try_fire(
                s,
                0,
                &send_on(PortId(0), 1),
                &mut store,
                &mut scratch,
                &mut deliveries,
            )
            .unwrap();
        assert!(out.is_none());
        assert!(store.is_cell_empty(m));
        roundtrip(&aut, s, 0, &send_on(PortId(0), 1));
    }

    #[test]
    fn filter_predicate_guard_round_trips() {
        let even = Pred::new("even", |v| v.as_int().is_some_and(|i| i % 2 == 0));
        let aut = crate::primitives::filter(PortId(0), PortId(1), even);
        for v in [2, 3] {
            for index in 0..aut.transitions_from(StateId(0)).len() {
                roundtrip(&aut, StateId(0), index, &send_on(PortId(0), v));
            }
        }
    }

    #[test]
    fn transform_function_round_trips() {
        let inc = Func::new("inc", |args| Value::Int(args[0].as_int().unwrap() + 1));
        let aut = crate::primitives::transform(PortId(0), PortId(1), inc);
        roundtrip(&aut, StateId(0), 0, &send_on(PortId(0), 41));
    }

    #[test]
    fn constant_guards_fold() {
        let t = Transition::new(PortSet::singleton(PortId(0)), StateId(0)).with_guard(
            Guard::TermEq(Term::Const(Value::Int(1)), Term::Const(Value::Int(2))),
        );
        let mut b = crate::automaton::AutomatonBuilder::new("never");
        let s = b.state();
        b.input(PortId(0));
        b.transition(s, t);
        let aut = b.build();
        let low = lower(&aut).unwrap();
        let mut store = Store::new(&MemLayout::cells(0));
        let mut scratch = low.new_scratch();
        let mut deliveries = Vec::new();
        let out = low
            .try_fire(
                s,
                0,
                &send_on(PortId(0), 1),
                &mut store,
                &mut scratch,
                &mut deliveries,
            )
            .unwrap();
        assert!(out.is_none(), "folded-false guard never fires");
    }

    #[test]
    fn deliver_filter_drops_internal_deliveries() {
        // p0 -> internal p1 -> p2 with only p2 in the deliver set.
        let t = Transition::new(
            PortSet::from_iter([PortId(0), PortId(1), PortId(2)]),
            StateId(0),
        )
        .with_assign(Assign::to_port(PortId(1), Term::Port(PortId(0))))
        .with_assign(Assign::to_port(PortId(2), Term::Port(PortId(1))));
        let mut b = crate::automaton::AutomatonBuilder::new("filtered");
        let s = b.state();
        b.input(PortId(0));
        b.internal(PortId(1));
        b.output(PortId(2));
        b.transition(s, t);
        let aut = b.build();
        let opts = LowerOptions {
            seeds: aut.inputs(),
            deliver: Some(aut.outputs()),
        };
        let mut pools = Pools::default();
        let low = pools
            .lower(aut.name(), &aut.transitions_from(s)[0], &opts)
            .unwrap();
        let mut store = Store::new(&MemLayout::cells(0));
        let mut scratch = ExecScratch::default();
        pools.fit(&mut scratch);
        let mut deliveries = Vec::new();
        let fired = pools.try_fire(
            &low,
            &send_on(PortId(0), 3),
            &mut store,
            &mut scratch,
            &mut deliveries,
        );
        assert!(fired.unwrap());
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, PortId(2));
    }

    #[test]
    fn register_overflow_is_a_typed_error() {
        // One transition whose program needs > u16::MAX registers (a
        // 70 000-argument apply: one register per argument) must be
        // refused, not silently wrapped into aliased registers.
        let f = Func::new("sink", |_| Value::Unit);
        let args: Vec<Term> = (0..70_000).map(|_| Term::Const(Value::Int(1))).collect();
        let t = Transition::new(PortSet::singleton(PortId(0)), StateId(0))
            .with_assign(Assign::set_mem(MemId(0), Term::Apply(f, args)));
        let mut b = crate::automaton::AutomatonBuilder::new("wide");
        let s = b.state();
        b.input(PortId(0));
        b.mem(MemId(0), vec![]);
        b.transition(s, t);
        let aut = b.build();
        assert!(matches!(
            lower(&aut),
            Err(LowerError::RegisterOverflow { .. })
        ));
    }
}
