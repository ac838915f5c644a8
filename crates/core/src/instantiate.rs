//! Instantiation: the run-time share of parametrized compilation.
//!
//! Once `connect` is called and the numbers of connectees (array lengths)
//! are known, the residual [`CompiledNode`] tree is walked: conditionals are
//! decided, iterations unrolled, and each medium-automaton template is
//! stamped out with concrete ports and fresh memory cells — yielding the
//! list of state machines that the execution engines then compose
//! ahead-of-time or just-in-time (Sect. IV-D). It is the one walk of both
//! approaches: the existing one's template defers every primitive, and
//! [`ConnectorInstance::monolithic`] composes what it stamps.

use reo_automata::{
    product_all, remap::remap, simplify, Automaton, Explosion, MemId, MemLayout, PortAllocator,
    PortId, PortSet, ProductOptions,
};

use crate::affine::Env;
use crate::compile::{build_prim, CompiledConnector, CompiledNode, MediumTemplate};
use crate::error::CoreError;
use crate::flat::{FlatBool, FlatInst};
use crate::resolve::{env_from_binding, Binding, Resolver};

/// A fully instantiated connector: concrete medium automata plus interface
/// metadata, ready to hand to an execution engine.
#[derive(Clone, Debug)]
pub struct ConnectorInstance {
    /// The concrete constituents: medium automata, primitives, or the one
    /// [`monolithic`](ConnectorInstance::monolithic) product.
    pub automata: Vec<Automaton>,
    /// Where each constituent came from, parallel to `automata` (empty
    /// once [`monolithic`](ConnectorInstance::monolithic) composed them).
    pub origins: Vec<Origin>,
    /// Concrete ports per formal parameter name.
    pub boundary: Binding,
    /// Merged initial memory layout of all automata.
    pub mem_layout: MemLayout,
}

/// The instantiation address of one constituent: the template node that
/// stamped it, and what it was stamped with. Two instantiations of one
/// template stamp the same constituent where their origins agree up to a
/// renaming of ports and cells.
#[derive(Clone, Debug)]
pub struct Origin {
    /// The stamping [`CompiledNode`]'s address inside its template (stable
    /// for as long as the template is not moved).
    pub node: usize,
    /// The integer arguments; a deferred node's tail count is appended,
    /// so a variadic primitive at two widths has two keys.
    pub iargs: Vec<i64>,
    /// The ports, in template-slot order (a deferred node's tails, then
    /// its heads).
    pub ports: Vec<PortId>,
    /// The memory cells, in slot order.
    pub mems: Vec<MemId>,
}

impl ConnectorInstance {
    /// The existing approach's composition: every constituent composed
    /// into one large automaton within `product` (exceeding it is the
    /// "existing compiler cannot handle this connector" failure of
    /// Fig. 12), its labels simplified down to the boundary ports (\[30\]).
    pub fn monolithic(mut self, product: &ProductOptions) -> Result<Self, Explosion> {
        let keep: PortSet = self.boundary.values().flatten().copied().collect();
        self.automata = vec![simplify(&product_all(&self.automata, product)?, &keep)];
        self.origins.clear();
        Ok(self)
    }
}

/// Instantiation work budget: the maximum number of `prod` iterations
/// unrolled plus constituents stamped in one [`instantiate`] call.
///
/// Without it, an adversarial constant range (`prod (i:1..999999999) …`)
/// turns `connect` into an effectively unbounded loop long before any
/// product budget can intervene. The limit is far above real workloads
/// and exceeding it returns [`CoreError::InstantiationBudget`].
pub const INSTANTIATION_BUDGET: usize = 1 << 21;

/// Instantiate a compiled connector for the given boundary ports.
///
/// `binding` supplies one concrete port array per formal parameter (scalar
/// parameters: singleton arrays); `alloc` must be the allocator those ports
/// came from, and is advanced for private vertices and memory cells.
pub fn instantiate(
    cc: &CompiledConnector,
    binding: &Binding,
    alloc: &mut PortAllocator,
) -> Result<ConnectorInstance, CoreError> {
    for p in cc.params() {
        let ports = binding
            .get(&p.name)
            .ok_or_else(|| CoreError::UnboundLen(p.name.clone()))?;
        if ports.is_empty() {
            return Err(CoreError::EmptyArray(p.name.clone()));
        }
        if !p.is_array && ports.len() != 1 {
            return Err(CoreError::KindMismatch {
                name: p.name.clone(),
                expected_array: false,
            });
        }
    }
    let mut env = env_from_binding(binding);
    let mut resolver = Resolver::new(binding, alloc);
    let mut out = Vec::new();
    let mut work = Work {
        left: INSTANTIATION_BUDGET,
    };
    walk(&cc.root, cc, &mut env, &mut resolver, &mut out, &mut work)?;
    let (automata, origins): (Vec<_>, Vec<_>) = out.into_iter().unzip();
    if automata.is_empty() {
        // A connector with boundary ports but no constituents has no
        // behaviour at all; refuse here so every backend (including the
        // lazy ones that never compose) rejects it uniformly.
        return Err(CoreError::NoConstituents(cc.name.clone()));
    }
    check_vertex_arity(&automata)?;
    let mut mem_layout = MemLayout::cells(alloc.mem_count());
    for a in &automata {
        mem_layout.merge(a.mem_layout());
    }
    Ok(ConnectorInstance {
        automata,
        origins,
        boundary: binding.clone(),
        mem_layout,
    })
}

/// Every vertex joins at most one incoming and one outgoing channel end:
/// a port may be the input of at most one constituent and the output of
/// at most one (fan-in/fan-out are the explicit `Merger`/`Replicator`
/// primitives). Violations composed unsoundly in release builds and
/// tripped `debug_assert`s in the product in debug builds; the one walk
/// refuses them with a typed error for either approach's template.
///
/// Two bitmaps over the port ids mark each port as some constituent's
/// input, and as some constituent's output, so far.
fn check_vertex_arity(automata: &[Automaton]) -> Result<(), CoreError> {
    let last = automata.iter().filter_map(|a| a.ports().as_slice().last());
    let words = last.max().map_or(0, |p| p.index() / 64 + 1);
    let mut marked = [vec![0u64; words], vec![0u64; words]];
    for a in automata {
        for (tail, ports) in [(true, a.inputs()), (false, a.outputs())] {
            let marked = &mut marked[usize::from(!tail)];
            for p in ports.iter() {
                let (word, bit) = (p.index() / 64, 1u64 << (p.index() % 64));
                if marked[word] & bit != 0 {
                    let port = p.to_string();
                    return Err(CoreError::MultipleArcs { port, tail });
                }
                marked[word] |= bit;
            }
        }
    }
    Ok(())
}

/// Remaining instantiation work units (see [`INSTANTIATION_BUDGET`]).
struct Work {
    left: usize,
}

impl Work {
    fn spend(&mut self) -> Result<(), CoreError> {
        match self.left.checked_sub(1) {
            Some(left) => {
                self.left = left;
                Ok(())
            }
            None => Err(CoreError::InstantiationBudget {
                budget: INSTANTIATION_BUDGET,
            }),
        }
    }
}

fn walk(
    node: &CompiledNode,
    cc: &CompiledConnector,
    env: &mut Env,
    resolver: &mut Resolver<'_>,
    out: &mut Vec<(Automaton, Origin)>,
    work: &mut Work,
) -> Result<(), CoreError> {
    let address = node as *const CompiledNode as usize;
    match node {
        CompiledNode::Medium(template) => {
            work.spend()?;
            out.push(stamp(template, address, env, resolver)?);
            Ok(())
        }
        CompiledNode::Deferred(inst) => {
            work.spend()?;
            out.push(build_deferred(inst, address, cc, env, resolver)?);
            Ok(())
        }
        CompiledNode::Seq(parts) => {
            for p in parts {
                walk(p, cc, env, resolver, out, work)?;
            }
            Ok(())
        }
        CompiledNode::For { var, lo, hi, body } => {
            let lo = lo.eval(env)?;
            let hi = hi.eval(env)?;
            // Each iteration costs a unit even if the body stamps nothing
            // (e.g. an `if` with no else), so empty-body ranges terminate.
            for k in lo..=hi {
                work.spend()?;
                env.set_var(var, k);
                walk(body, cc, env, resolver, out, work)?;
            }
            env.remove_var(var);
            Ok(())
        }
        CompiledNode::If {
            cond,
            then_branch,
            else_branch,
        } => {
            if eval_cond(cond, env)? {
                walk(then_branch, cc, env, resolver, out, work)
            } else if let Some(e) = else_branch {
                walk(e, cc, env, resolver, out, work)
            } else {
                Ok(())
            }
        }
    }
}

fn eval_cond(cond: &FlatBool, env: &Env) -> Result<bool, CoreError> {
    Ok(match cond {
        FlatBool::Cmp(op, a, b) => op.holds(a.eval(env)?, b.eval(env)?),
        FlatBool::And(a, b) => eval_cond(a, env)? && eval_cond(b, env)?,
        FlatBool::Or(a, b) => eval_cond(a, env)? || eval_cond(b, env)?,
        FlatBool::Not(a) => !eval_cond(a, env)?,
    })
}

/// Stamp out one medium-automaton instance: symbolic ports to concrete
/// ports, symbolic memory cells to fresh cells.
fn stamp(
    template: &MediumTemplate,
    node: usize,
    env: &Env,
    resolver: &mut Resolver<'_>,
) -> Result<(Automaton, Origin), CoreError> {
    let mut port_map: Vec<PortId> = Vec::with_capacity(template.sym_ports.len());
    for fr in &template.sym_ports {
        let concrete = resolver.resolve_one(fr, env)?;
        if port_map.contains(&concrete) {
            return Err(CoreError::AliasedPorts {
                section: template.automaton.name().to_string(),
                port: concrete.to_string(),
            });
        }
        port_map.push(concrete);
    }
    let mem_map: Vec<MemId> = (0..template.mem_count)
        .map(|_| resolver.alloc().fresh_mem())
        .collect();
    let a = remap(&template.automaton, &|p| port_map[p.index()], &|m| {
        mem_map[m.index()]
    });
    let origin = Origin {
        node,
        iargs: Vec::new(),
        ports: port_map,
        mems: mem_map,
    };
    Ok((a, origin))
}

/// Build a deferred (variable-shape) constituent directly.
fn build_deferred(
    inst: &FlatInst,
    node: usize,
    cc: &CompiledConnector,
    env: &Env,
    resolver: &mut Resolver<'_>,
) -> Result<(Automaton, Origin), CoreError> {
    let mut tails = Vec::new();
    for op in &inst.tails {
        tails.extend(resolver.resolve_operand(op, env)?);
    }
    let mut heads = Vec::new();
    for op in &inst.heads {
        heads.extend(resolver.resolve_operand(op, env)?);
    }
    let mut iargs = inst
        .iargs
        .iter()
        .map(|a| a.eval(env))
        .collect::<Result<Vec<i64>, _>>()?;
    // The resolver's allocator hands out the fresh memory cells.
    let alloc = resolver.alloc();
    let mut mems = Vec::new();
    let mut fresh = || {
        let m = alloc.fresh_mem();
        mems.push(m);
        m
    };
    let a = build_prim(&cc.registry, &inst.prim, &iargs, &tails, &heads, &mut fresh)?;
    iargs.push(tails.len() as i64);
    let mut ports = tails;
    ports.extend(heads);
    let origin = Origin {
        node,
        iargs,
        ports,
        mems,
    };
    Ok((a, origin))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{compile, compile_primitives};
    use crate::examples;
    use crate::ir::Program;

    fn bind(alloc: &mut PortAllocator, spec: &[(&str, usize)]) -> Binding {
        spec.iter()
            .map(|(name, n)| (name.to_string(), alloc.fresh_ports(*n)))
            .collect()
    }

    #[test]
    fn ex11n_with_one_producer_is_single_fifo() {
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11N").unwrap();
        let mut alloc = PortAllocator::new();
        let binding = bind(&mut alloc, &[("tl", 1), ("hd", 1)]);
        let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
        assert_eq!(inst.automata.len(), 1);
        assert_eq!(inst.automata[0].state_count(), 2); // fifo1
    }

    #[test]
    fn ex11n_scales_with_n() {
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11N").unwrap();
        for n in [2usize, 4, 8] {
            let mut alloc = PortAllocator::new();
            let binding = bind(&mut alloc, &[("tl", n), ("hd", n)]);
            let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
            // Fig. 10: 1 Seq2(prev[1];next[N]) + N X-instances + (N-1) Seq2.
            assert_eq!(inst.automata.len(), 1 + n + (n - 1), "n={n}");
            // Private vertices allocated: prev[i], next[i] for each i.
            assert!(alloc.port_count() > 2 * n);
            // Each X carries one buffer cell.
            assert_eq!(inst.mem_layout.len(), n);
        }
    }

    #[test]
    fn iterations_share_cross_referenced_vertices() {
        // Seq2(next[i];prev[i+1]) must resolve prev[i+1] to the same port
        // as X(i+1)'s prev[i+1]: count distinct ports.
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11N").unwrap();
        let mut alloc = PortAllocator::new();
        let binding = bind(&mut alloc, &[("tl", 3), ("hd", 3)]);
        let inst = instantiate(&cc, &binding, &mut alloc).unwrap();
        // Boundary 6 + locals: prev[1..3] and next[1..3] = 6 more.
        assert_eq!(alloc.port_count(), 12);
        // Every automaton's ports are within the allocated range.
        for a in &inst.automata {
            for p in a.ports().iter() {
                assert!(p.index() < alloc.port_count());
            }
        }
    }

    #[test]
    fn huge_constant_prod_range_hits_the_work_budget() {
        // prod (i:1..10⁹) if (#tl == 2) { Sync(tl[1];hd[1]) } — the body
        // stamps nothing for #tl == 1, but every iteration still costs a
        // work unit, so connect returns a typed error instead of spinning.
        use crate::ir::{BExpr, CExpr, Cmp, ConnectorDef, IExpr, Inst, Param, PortRef};
        let def = ConnectorDef {
            name: "Huge".into(),
            tails: vec![Param::array("tl")],
            heads: vec![Param::array("hd")],
            body: CExpr::prod(
                "i",
                IExpr::Const(1),
                IExpr::Const(1_000_000_000),
                CExpr::If {
                    cond: BExpr::Cmp(Cmp::Eq, IExpr::len("tl"), IExpr::Const(2)),
                    then_branch: Box::new(CExpr::Inst(Inst::new(
                        "Sync",
                        vec![PortRef::indexed("tl", IExpr::Const(1))],
                        vec![PortRef::indexed("hd", IExpr::Const(1))],
                    ))),
                    else_branch: None,
                },
            ),
        };
        let prog = Program::new(vec![def]);
        let cc = compile(&prog, "Huge").unwrap();
        let mut alloc = PortAllocator::new();
        let binding = bind(&mut alloc, &[("tl", 1), ("hd", 1)]);
        assert!(matches!(
            instantiate(&cc, &binding, &mut alloc),
            Err(CoreError::InstantiationBudget {
                budget: INSTANTIATION_BUDGET
            })
        ));
    }

    #[test]
    fn missing_binding_is_reported() {
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11N").unwrap();
        let mut alloc = PortAllocator::new();
        let binding = bind(&mut alloc, &[("tl", 2)]);
        assert!(instantiate(&cc, &binding, &mut alloc).is_err());
    }

    #[test]
    fn scalar_param_requires_single_port() {
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11a").unwrap();
        let mut alloc = PortAllocator::new();
        let binding = bind(
            &mut alloc,
            &[("tl1", 2), ("tl2", 1), ("hd1", 1), ("hd2", 1)],
        );
        assert!(matches!(
            instantiate(&cc, &binding, &mut alloc),
            Err(CoreError::KindMismatch { .. })
        ));
    }

    #[test]
    fn fresh_mems_per_instance() {
        // Two instantiations from one compiled connector must not share
        // memory cells when drawn from the same allocator.
        let prog = examples::paper_program();
        let cc = compile(&prog, "ConnectorEx11a").unwrap();
        let mut alloc = PortAllocator::new();
        let b1 = bind(
            &mut alloc,
            &[("tl1", 1), ("tl2", 1), ("hd1", 1), ("hd2", 1)],
        );
        let b2 = bind(
            &mut alloc,
            &[("tl1", 1), ("tl2", 1), ("hd1", 1), ("hd2", 1)],
        );
        let i1 = instantiate(&cc, &b1, &mut alloc).unwrap();
        let i2 = instantiate(&cc, &b2, &mut alloc).unwrap();
        let mems1: Vec<_> = i1.automata.iter().flat_map(|a| a.mem_ids()).collect();
        let mems2: Vec<_> = i2.automata.iter().flat_map(|a| a.mem_ids()).collect();
        for m in &mems1 {
            assert!(!mems2.contains(m));
        }
    }

    /// The existing approach at fixed sizes: the primitive-level template,
    /// instantiated.
    fn primitives(prog: &Program, name: &str, spec: &[(&str, usize)]) -> ConnectorInstance {
        let cc = compile_primitives(prog, name).unwrap();
        let mut alloc = PortAllocator::new();
        let binding = bind(&mut alloc, spec);
        instantiate(&cc, &binding, &mut alloc).unwrap()
    }

    #[test]
    fn elaboration_counts_match_fig9() {
        let prog = examples::paper_program();
        for n in [1usize, 2, 5] {
            let prims = primitives(&prog, "ConnectorEx11N", &[("tl", n), ("hd", n)]);
            let expected = if n == 1 {
                1 // single Fifo1
            } else {
                3 * n + (n - 1) + 1 // X expands to 3 prims each
            };
            assert_eq!(prims.automata.len(), expected, "n={n}");
        }
    }

    #[test]
    fn monolithic_ex11_is_small_and_deadlock_free() {
        use reo_automata::explore::is_deadlock_free;
        let prog = examples::paper_program();
        let inst = primitives(&prog, "ConnectorEx11N", &[("tl", 2), ("hd", 2)]);
        let boundary: PortSet = inst.boundary.values().flatten().copied().collect();
        let inst = inst.monolithic(&ProductOptions::default()).unwrap();
        assert_eq!(inst.automata.len(), 1);
        let large = &inst.automata[0];
        assert!(is_deadlock_free(large));
        // After simplification, labels mention only boundary ports.
        for s in large.all_states() {
            for t in large.transitions_from(s) {
                assert!(t.sync.is_subset(&boundary));
            }
        }
    }

    #[test]
    fn monolithic_explodes_on_wide_unsynchronized_connectors() {
        // N independent producer buffers: k disjoint Fifo1s via prod.
        use crate::ir::*;
        let def = ConnectorDef {
            name: "Buffers".into(),
            tails: vec![Param::array("a")],
            heads: vec![Param::array("b")],
            body: CExpr::prod(
                "i",
                IExpr::Const(1),
                IExpr::len("a"),
                CExpr::Inst(Inst::new(
                    "Fifo1",
                    vec![PortRef::indexed("a", IExpr::var("i"))],
                    vec![PortRef::indexed("b", IExpr::var("i"))],
                )),
            ),
        };
        let prog = Program::new(vec![def]);
        let inst = primitives(&prog, "Buffers", &[("a", 16), ("b", 16)]);
        let opts = ProductOptions {
            max_states: 4096,        // 2^16 states exceeds this
            max_transitions: 65_536, // 3^16 joint steps exceed this first
        };
        let err = inst.monolithic(&opts).unwrap_err();
        assert_eq!((err.limit_states, err.limit_transitions), (4096, 65_536));
    }

    #[test]
    fn monolithic_matches_elaboration_reachability() {
        let prog = examples::paper_program();
        let inst = primitives(&prog, "ConnectorEx11N", &[("tl", 3), ("hd", 3)]);
        let inst = inst.monolithic(&ProductOptions::default()).unwrap();
        let stats = reo_automata::explore::space_stats(&inst.automata[0]);
        // 3 fifo1 buffers x 3 seq2 phases... reachable subset only; just
        // sanity-check the space is nontrivial yet far from exponential.
        assert!(stats.states >= 4);
        assert!(stats.states <= 64);
    }
}
