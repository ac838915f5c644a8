//! Full elaboration — the "existing approach" of the paper.
//!
//! When the number of connectees is fixed up front, a connector definition
//! can be elaborated into the complete flat list of concrete primitive
//! automata, and those can be composed into one "large automaton" before
//! anything runs. This is exactly what Reo's existing compiler does at
//! compile time (Sect. III-B); here it doubles as (a) the Fig. 12 baseline
//! and (b) the ground truth our property tests compare the parametrized
//! pipeline against.

use reo_automata::{
    product_all, simplify as simp, Automaton, PortAllocator, PortSet, ProductOptions,
};

use crate::affine::Env;
use crate::compile::build_prim;
use crate::error::CoreError;
use crate::flat::{flatten, FlatDef, FlatExpr};
use crate::instantiate::{eval_cond, ConnectorInstance};
use crate::ir::Program;
use crate::resolve::{env_from_binding, Binding, Resolver};

/// Elaborate a flattened definition into concrete *primitive* automata —
/// one per constituent instance, no composition performed.
pub fn elaborate(
    flat: &FlatDef,
    program: &Program,
    binding: &Binding,
    alloc: &mut PortAllocator,
) -> Result<Vec<Automaton>, CoreError> {
    let mut env = env_from_binding(binding);
    let mut resolver = Resolver::new(binding, alloc);
    let mut out = Vec::new();
    walk(&flat.body, program, &mut env, &mut resolver, &mut out)?;
    Ok(out)
}

fn walk(
    expr: &FlatExpr,
    program: &Program,
    env: &mut Env,
    resolver: &mut Resolver<'_>,
    out: &mut Vec<Automaton>,
) -> Result<(), CoreError> {
    match expr {
        FlatExpr::Inst(inst) => {
            let mut tails = Vec::new();
            for op in &inst.tails {
                tails.extend(resolver.resolve_operand(op, env)?);
            }
            let mut heads = Vec::new();
            for op in &inst.heads {
                heads.extend(resolver.resolve_operand(op, env)?);
            }
            let iargs = inst
                .iargs
                .iter()
                .map(|a| a.eval(env))
                .collect::<Result<Vec<i64>, _>>()?;
            let alloc = resolver.alloc();
            let mut fresh = || alloc.fresh_mem();
            out.push(build_prim(
                &program.registry,
                &inst.prim,
                &iargs,
                &tails,
                &heads,
                &mut fresh,
            )?);
            Ok(())
        }
        FlatExpr::Mult(parts) => {
            for p in parts {
                walk(p, program, env, resolver, out)?;
            }
            Ok(())
        }
        FlatExpr::Prod { var, lo, hi, body } => {
            let lo = lo.eval(env)?;
            let hi = hi.eval(env)?;
            for k in lo..=hi {
                env.set_var(var, k);
                walk(body, program, env, resolver, out)?;
            }
            env.remove_var(var);
            Ok(())
        }
        FlatExpr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            if eval_cond(cond, env)? {
                walk(then_branch, program, env, resolver, out)
            } else if let Some(e) = else_branch {
                walk(e, program, env, resolver, out)
            } else {
                Ok(())
            }
        }
    }
}

/// Compile with the existing approach: elaborate every primitive for the
/// *fixed* connectee counts given by `binding`, compose all of them into one
/// large automaton within `product` (exceeding it is the "existing compiler
/// cannot handle this connector" failure of Fig. 12), and simplify its
/// labels down to the boundary ports, as the existing compiler does (\[30\]).
pub fn compile_monolithic(
    program: &Program,
    name: &str,
    binding: &Binding,
    alloc: &mut PortAllocator,
    product: &ProductOptions,
) -> Result<ConnectorInstance, CoreError> {
    let flat = flatten(program, name)?;
    let primitives = elaborate(&flat, program, binding, alloc)?;
    if primitives.is_empty() {
        // Same refusal the lazy path makes in `instantiate`: a connector
        // with zero constituents has no behaviour any backend can hold.
        return Err(CoreError::NoConstituents(flat.name.clone()));
    }
    crate::instantiate::check_vertex_arity(&primitives)?;
    let keep: PortSet = binding.values().flatten().copied().collect();
    let large = simp(&product_all(&primitives, product)?, &keep);
    Ok(ConnectorInstance::from_automata(
        vec![large],
        binding.clone(),
        alloc,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use reo_automata::explore::{is_deadlock_free, space_stats};

    fn bind(alloc: &mut PortAllocator, spec: &[(&str, usize)]) -> Binding {
        spec.iter()
            .map(|(name, n)| (name.to_string(), alloc.fresh_ports(*n)))
            .collect()
    }

    #[test]
    fn elaboration_counts_match_fig9() {
        let prog = examples::paper_program();
        let flat = flatten(&prog, "ConnectorEx11N").unwrap();
        for n in [1usize, 2, 5] {
            let mut alloc = PortAllocator::new();
            let binding = bind(&mut alloc, &[("tl", n), ("hd", n)]);
            let prims = elaborate(&flat, &prog, &binding, &mut alloc).unwrap();
            let expected = if n == 1 {
                1 // single Fifo1
            } else {
                3 * n + (n - 1) + 1 // X expands to 3 prims each
            };
            assert_eq!(prims.len(), expected, "n={n}");
        }
    }

    #[test]
    fn monolithic_ex11_is_small_and_deadlock_free() {
        let prog = examples::paper_program();
        let mut alloc = PortAllocator::new();
        let binding = bind(&mut alloc, &[("tl", 2), ("hd", 2)]);
        let inst = compile_monolithic(
            &prog,
            "ConnectorEx11N",
            &binding,
            &mut alloc,
            &ProductOptions::default(),
        )
        .unwrap();
        assert_eq!(inst.automata.len(), 1);
        let large = &inst.automata[0];
        assert!(is_deadlock_free(large));
        // After simplification, labels mention only boundary ports.
        let boundary: PortSet = binding.values().flatten().copied().collect();
        for s in large.all_states() {
            for t in large.transitions_from(s) {
                assert!(t.sync.is_subset(&boundary));
            }
        }
    }

    #[test]
    fn monolithic_explodes_on_wide_unsynchronized_connectors() {
        // N independent producer buffers (the #tl == 1 branch replicated):
        // build a synthetic program of k disjoint Fifo1s via prod.
        use crate::affine::Affine as _A;
        let _ = _A::constant(0); // silence unused import lint paranoia
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
        let mut alloc = PortAllocator::new();
        let binding = bind(&mut alloc, &[("a", 16), ("b", 16)]);
        let opts = ProductOptions {
            max_states: 4096,        // 2^16 states exceeds this
            max_transitions: 65_536, // 3^16 joint steps exceed this first
        };
        let err = compile_monolithic(&prog, "Buffers", &binding, &mut alloc, &opts).unwrap_err();
        assert!(matches!(err, CoreError::Explosion(_)));
    }

    #[test]
    fn monolithic_matches_elaboration_reachability() {
        let prog = examples::paper_program();
        let mut alloc = PortAllocator::new();
        let binding = bind(&mut alloc, &[("tl", 3), ("hd", 3)]);
        let inst = compile_monolithic(
            &prog,
            "ConnectorEx11N",
            &binding,
            &mut alloc,
            &ProductOptions::default(),
        )
        .unwrap();
        let stats = space_stats(&inst.automata[0]);
        // 3 fifo1 buffers x 3 seq2 phases... reachable subset only; just
        // sanity-check the space is nontrivial yet far from exponential.
        assert!(stats.states >= 4);
        assert!(stats.states <= 64);
    }
}
