//! Flattening: step 1 of parametrized compilation (Sect. IV-C).
//!
//! All non-primitive constituents are recursively expanded and in-lined;
//! local vertex names are renamed to be globally unique (Example 9 of the
//! paper: flattening `ConnectorEx11b` yields `ConnectorEx11a` up to
//! renaming). Two subtleties the paper's prose glosses over, handled here:
//!
//! * **Per-instance locals.** A composite inlined under `prod (i: …)` must
//!   get *fresh locals per iteration*. Flattening therefore turns each local
//!   of the inlined definition into an array indexed by the iteration
//!   variables enclosing the inline site.
//! * **Capture avoidance.** Iteration variables of the inlined definition
//!   are renamed too, since actual arguments may mention homonymous
//!   variables of the caller.
//!
//! The result is a [`FlatDef`] whose body mentions only primitive
//! constituents, with all indices in affine canonical form — ready for
//! normalization and template composition.

use reo_automata::{IdMap, Name};

use crate::affine::{canon, Affine, Sym};
use crate::builtins;
use crate::error::CoreError;
use crate::ir::{BExpr, CExpr, ConnectorDef, IExpr, Inst, Param, PortRef, Program};

/// A reference to exactly one vertex, with canonical indices.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FlatRef {
    pub base: Name,
    pub indices: Vec<Affine>,
}

impl std::fmt::Display for FlatRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.base)?;
        for i in &self.indices {
            write!(f, "[{i}]")?;
        }
        Ok(())
    }
}

/// A reference to a contiguous run of vertices `base[lo..hi]` (inclusive,
/// 1-based), each further indexed by `suffix`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatSlice {
    pub base: Name,
    pub lo: Affine,
    pub hi: Affine,
    pub suffix: Vec<Affine>,
}

/// A primitive operand: one vertex or a run of vertices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlatOperand {
    One(FlatRef),
    Many(FlatSlice),
}

impl FlatOperand {
    pub fn is_many(&self) -> bool {
        matches!(self, FlatOperand::Many(_))
    }

    pub fn base(&self) -> &str {
        match self {
            FlatOperand::One(r) => &r.base,
            FlatOperand::Many(s) => &s.base,
        }
    }
}

/// A primitive (builtin or custom) instance with resolved operands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FlatInst {
    pub prim: Name,
    pub iargs: Vec<Affine>,
    pub tails: Vec<FlatOperand>,
    pub heads: Vec<FlatOperand>,
}

impl FlatInst {
    pub fn operands(&self) -> impl Iterator<Item = &FlatOperand> {
        self.tails.iter().chain(self.heads.iter())
    }

    /// Fixed-shape instances (no slice operands, constant integer
    /// arguments) can be composed into medium automata at compile time.
    pub fn is_fixed_shape(&self) -> bool {
        self.operands().all(|o| !o.is_many())
            && self.iargs.iter().all(|a| a.is_constant().is_some())
    }
}

/// A boolean condition in canonical form.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlatBool {
    Cmp(crate::ir::Cmp, Affine, Affine),
    And(Box<FlatBool>, Box<FlatBool>),
    Or(Box<FlatBool>, Box<FlatBool>),
    Not(Box<FlatBool>),
}

/// A flattened body expression: only primitive constituents remain.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlatExpr {
    Inst(FlatInst),
    Mult(Vec<FlatExpr>),
    Prod {
        var: Name,
        lo: Affine,
        hi: Affine,
        body: Box<FlatExpr>,
    },
    If {
        cond: FlatBool,
        then_branch: Box<FlatExpr>,
        else_branch: Option<Box<FlatExpr>>,
    },
}

/// A flattened connector definition.
#[derive(Clone, Debug)]
pub struct FlatDef {
    pub name: String,
    pub tails: Vec<Param>,
    pub heads: Vec<Param>,
    pub body: FlatExpr,
}

impl FlatDef {
    pub fn params(&self) -> impl Iterator<Item = &Param> {
        self.tails.iter().chain(self.heads.iter())
    }

    /// The body, moved out for compilation (an empty `mult` stays behind).
    pub fn take_body(&mut self) -> FlatExpr {
        std::mem::replace(&mut self.body, FlatExpr::Mult(Vec::new()))
    }
}

/// How a formal parameter of an inlined definition maps into the caller's
/// (already flattened) namespace.
#[derive(Clone, Debug)]
enum Binding {
    Scalar(FlatRef),
    /// `formal[k]` ↦ `base[k + offset, suffix…]`, `#formal` ↦ `len`.
    Array {
        base: Name,
        offset: Affine,
        len: Affine,
        suffix: Vec<Affine>,
    },
}

/// Flatten `def_name` of `program` into primitives only.
pub fn flatten(program: &Program, def_name: &str) -> Result<FlatDef, CoreError> {
    let def = program
        .def(def_name)
        .ok_or_else(|| CoreError::UnknownConnector(def_name.to_string()))?;
    let mut fl = Flattener {
        program,
        counter: 0,
        stack: vec![def_name.into()],
    };
    let mut bindings = IdMap::default();
    for p in def.params() {
        let name = Name::new(&p.name);
        let b = if p.is_array {
            Binding::Array {
                base: name.clone(),
                offset: Affine::constant(0),
                len: Affine {
                    constant: 0,
                    terms: vec![(Sym::Len(name.clone()), 1)],
                },
                suffix: Vec::new(),
            }
        } else {
            Binding::Scalar(FlatRef {
                base: name.clone(),
                indices: Vec::new(),
            })
        };
        bindings.insert(name, b);
    }
    let body = fl.inline(def, bindings, Vec::new())?;
    Ok(FlatDef {
        name: def.name.clone(),
        tails: def.tails.clone(),
        heads: def.heads.clone(),
        body,
    })
}

struct Flattener<'p> {
    program: &'p Program,
    counter: usize,
    stack: Vec<Name>,
}

/// Per-definition scope while inlining.
struct Scope {
    bindings: IdMap<Name, Binding>,
    /// Renames of this definition's iteration variables (stacked).
    varmap: IdMap<Name, Name>,
    /// Renames of this definition's local vertex names.
    localmap: IdMap<Name, Name>,
    /// Renamed iteration variables enclosing the *inline site* — locals of
    /// this definition are arrays over exactly these.
    inline_enclosing: Vec<Name>,
    /// `inline_enclosing` plus this definition's own in-scope prod
    /// variables — the enclosing context for *nested* inline sites.
    here_enclosing: Vec<Name>,
}

impl<'p> Flattener<'p> {
    fn fresh(&mut self, base: &str) -> Name {
        self.counter += 1;
        Name::format(format_args!("{base}~{}", self.counter))
    }

    fn inline(
        &mut self,
        def: &ConnectorDef,
        bindings: IdMap<Name, Binding>,
        enclosing: Vec<Name>,
    ) -> Result<FlatExpr, CoreError> {
        let mut scope = Scope {
            bindings,
            varmap: IdMap::default(),
            localmap: IdMap::default(),
            inline_enclosing: enclosing.clone(),
            here_enclosing: enclosing,
        };
        self.walk(&def.body, &mut scope)
    }

    fn walk(&mut self, expr: &CExpr, scope: &mut Scope) -> Result<FlatExpr, CoreError> {
        match expr {
            CExpr::Mult(parts) => {
                let mut out = Vec::with_capacity(parts.len());
                for p in parts {
                    out.push(self.walk(p, scope)?);
                }
                Ok(FlatExpr::Mult(out))
            }
            CExpr::Prod { var, lo, hi, body } => {
                let lo = self.canon_iexpr(lo, scope)?;
                let hi = self.canon_iexpr(hi, scope)?;
                let renamed = self.fresh(var);
                let shadowed = scope.varmap.insert(var.clone(), renamed.clone());
                scope.here_enclosing.push(renamed.clone());
                let body = self.walk(body, scope)?;
                scope.here_enclosing.pop();
                match shadowed {
                    Some(old) => {
                        scope.varmap.insert(var.clone(), old);
                    }
                    None => {
                        scope.varmap.remove(var);
                    }
                }
                Ok(FlatExpr::Prod {
                    var: renamed,
                    lo,
                    hi,
                    body: Box::new(body),
                })
            }
            CExpr::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let cond = self.canon_bexpr(cond, scope)?;
                let then_branch = Box::new(self.walk(then_branch, scope)?);
                let else_branch = match else_branch {
                    Some(e) => Some(Box::new(self.walk(e, scope)?)),
                    None => None,
                };
                Ok(FlatExpr::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            CExpr::Inst(inst) => self.walk_inst(inst, scope),
        }
    }

    fn walk_inst(&mut self, inst: &Inst, scope: &mut Scope) -> Result<FlatExpr, CoreError> {
        let tails = self.resolve_operands(&inst.tails, scope)?;
        let heads = self.resolve_operands(&inst.heads, scope)?;
        let iargs = inst
            .iargs
            .iter()
            .map(|e| self.canon_iexpr(e, scope))
            .collect::<Result<Vec<_>, _>>()?;

        // Primitive (builtin or custom): keep as a flat constituent.
        if builtins::lookup(&inst.name).is_some() || self.program.registry.get(&inst.name).is_some()
        {
            return Ok(FlatExpr::Inst(FlatInst {
                prim: inst.name.clone(),
                iargs,
                tails,
                heads,
            }));
        }

        // Composite: expand and in-line.
        let callee = self
            .program
            .def(&inst.name)
            .ok_or_else(|| CoreError::UnknownPrimitive(inst.name.to_string()))?;
        if self.stack.contains(&inst.name) {
            return Err(CoreError::RecursiveDefinition(inst.name.to_string()));
        }
        if callee.tails.len() != tails.len() || callee.heads.len() != heads.len() {
            return Err(CoreError::ArityMismatch {
                name: inst.name.to_string(),
                expected: format!("({};{})", callee.tails.len(), callee.heads.len()),
                got: format!("({};{})", tails.len(), heads.len()),
            });
        }
        let mut callee_bindings = IdMap::default();
        for (param, operand) in callee
            .tails
            .iter()
            .zip(&tails)
            .chain(callee.heads.iter().zip(&heads))
        {
            let binding = match (param.is_array, operand) {
                (false, FlatOperand::One(r)) => Binding::Scalar(r.clone()),
                (false, FlatOperand::Many(_)) => {
                    return Err(CoreError::SliceAsScalar(param.name.clone()))
                }
                (true, FlatOperand::Many(s)) => Binding::Array {
                    base: s.base.clone(),
                    offset: s.lo.sub(&Affine::constant(1)),
                    len: s.hi.sub(&s.lo).add(&Affine::constant(1)),
                    suffix: s.suffix.clone(),
                },
                (true, FlatOperand::One(_)) => {
                    return Err(CoreError::KindMismatch {
                        name: param.name.clone(),
                        expected_array: true,
                    })
                }
            };
            callee_bindings.insert(Name::new(&param.name), binding);
        }
        self.stack.push(inst.name.clone());
        let result = self.inline(callee, callee_bindings, scope.here_enclosing.clone());
        self.stack.pop();
        result
    }

    fn resolve_operands(
        &mut self,
        refs: &[PortRef],
        scope: &mut Scope,
    ) -> Result<Vec<FlatOperand>, CoreError> {
        refs.iter().map(|r| self.resolve_ref(r, scope)).collect()
    }

    fn resolve_ref(&mut self, r: &PortRef, scope: &mut Scope) -> Result<FlatOperand, CoreError> {
        match r {
            PortRef::Name(n) => {
                if let Some(binding) = scope.bindings.get(n).cloned() {
                    return Ok(match binding {
                        Binding::Scalar(fr) => FlatOperand::One(fr),
                        Binding::Array {
                            base,
                            offset,
                            len,
                            suffix,
                        } => FlatOperand::Many(FlatSlice {
                            base,
                            lo: offset.add(&Affine::constant(1)),
                            hi: offset.add(&len),
                            suffix,
                        }),
                    });
                }
                // A local scalar vertex: one fresh vertex per instance.
                let renamed = self.rename_local(n, scope);
                Ok(FlatOperand::One(FlatRef {
                    base: renamed,
                    indices: enclosing_indices(&scope.inline_enclosing),
                }))
            }
            PortRef::Indexed(n, idxs) => {
                let idxs = idxs
                    .iter()
                    .map(|e| self.canon_iexpr(e, scope))
                    .collect::<Result<Vec<_>, _>>()?;
                if let Some(binding) = scope.bindings.get(n).cloned() {
                    return match binding {
                        Binding::Scalar(_) => Err(CoreError::KindMismatch {
                            name: n.to_string(),
                            expected_array: false,
                        }),
                        Binding::Array {
                            base,
                            offset,
                            suffix,
                            ..
                        } => {
                            if idxs.len() != 1 {
                                return Err(CoreError::KindMismatch {
                                    name: n.to_string(),
                                    expected_array: false,
                                });
                            }
                            let mut indices = vec![idxs[0].add(&offset)];
                            indices.extend(suffix);
                            Ok(FlatOperand::One(FlatRef { base, indices }))
                        }
                    };
                }
                // Local array vertex.
                let renamed = self.rename_local(n, scope);
                let mut indices = idxs;
                indices.extend(enclosing_indices(&scope.inline_enclosing));
                Ok(FlatOperand::One(FlatRef {
                    base: renamed,
                    indices,
                }))
            }
            PortRef::Slice(n, a, b) => {
                let a = self.canon_iexpr(a, scope)?;
                let b = self.canon_iexpr(b, scope)?;
                if let Some(binding) = scope.bindings.get(n).cloned() {
                    return match binding {
                        Binding::Scalar(_) => Err(CoreError::KindMismatch {
                            name: n.to_string(),
                            expected_array: false,
                        }),
                        Binding::Array {
                            base,
                            offset,
                            suffix,
                            ..
                        } => Ok(FlatOperand::Many(FlatSlice {
                            base,
                            lo: a.add(&offset),
                            hi: b.add(&offset),
                            suffix,
                        })),
                    };
                }
                let renamed = self.rename_local(n, scope);
                Ok(FlatOperand::Many(FlatSlice {
                    base: renamed,
                    lo: a,
                    hi: b,
                    suffix: enclosing_indices(&scope.inline_enclosing),
                }))
            }
        }
    }

    fn rename_local(&mut self, n: &Name, scope: &mut Scope) -> Name {
        if let Some(r) = scope.localmap.get(n) {
            return r.clone();
        }
        let renamed = self.fresh(n);
        scope.localmap.insert(n.clone(), renamed.clone());
        renamed
    }

    fn canon_iexpr(&mut self, e: &IExpr, scope: &Scope) -> Result<Affine, CoreError> {
        let raw = canon(e)?;
        // Rewrite: iteration variables to their renames, formal-array
        // lengths to the bound slice widths.
        let mut out = Affine::constant(raw.constant);
        for (sym, c) in &raw.terms {
            let replacement = match sym {
                Sym::Var(v) => match scope.varmap.get(v) {
                    Some(renamed) => Affine {
                        constant: 0,
                        terms: vec![(Sym::Var(renamed.clone()), 1)],
                    },
                    // Unrenamed vars (e.g. `main` parameters) pass through.
                    None => Affine {
                        constant: 0,
                        terms: vec![(sym.clone(), 1)],
                    },
                },
                Sym::Len(a) => match scope.bindings.get(a) {
                    Some(Binding::Array { len, .. }) => len.clone(),
                    Some(Binding::Scalar(_)) => {
                        return Err(CoreError::KindMismatch {
                            name: a.to_string(),
                            expected_array: true,
                        })
                    }
                    None => return Err(CoreError::UnboundLen(a.to_string())),
                },
            };
            out = out.add(&replacement.scale(*c));
        }
        Ok(out)
    }

    fn canon_bexpr(&mut self, e: &BExpr, scope: &Scope) -> Result<FlatBool, CoreError> {
        Ok(match e {
            BExpr::Cmp(op, a, b) => FlatBool::Cmp(
                *op,
                self.canon_iexpr(a, scope)?,
                self.canon_iexpr(b, scope)?,
            ),
            BExpr::And(a, b) => FlatBool::And(
                Box::new(self.canon_bexpr(a, scope)?),
                Box::new(self.canon_bexpr(b, scope)?),
            ),
            BExpr::Or(a, b) => FlatBool::Or(
                Box::new(self.canon_bexpr(a, scope)?),
                Box::new(self.canon_bexpr(b, scope)?),
            ),
            BExpr::Not(a) => FlatBool::Not(Box::new(self.canon_bexpr(a, scope)?)),
        })
    }
}

fn enclosing_indices(vars: &[Name]) -> Vec<Affine> {
    vars.iter()
        .map(|v| Affine {
            constant: 0,
            terms: vec![(Sym::Var(v.clone()), 1)],
        })
        .collect()
}

/// Collect every [`FlatInst`] of a flat expression (all branches, all
/// iteration bodies) — used by analyses and tests.
pub fn all_insts(e: &FlatExpr) -> Vec<&FlatInst> {
    let mut out = Vec::new();
    collect(e, &mut out);
    out
}

fn collect<'a>(e: &'a FlatExpr, out: &mut Vec<&'a FlatInst>) {
    match e {
        FlatExpr::Inst(i) => out.push(i),
        FlatExpr::Mult(parts) => parts.iter().for_each(|p| collect(p, out)),
        FlatExpr::Prod { body, .. } => collect(body, out),
        FlatExpr::If {
            then_branch,
            else_branch,
            ..
        } => {
            collect(then_branch, out);
            if let Some(e) = else_branch {
                collect(e, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;

    #[test]
    fn ex11a_is_already_flat() {
        let prog = examples::paper_program();
        let flat = flatten(&prog, "ConnectorEx11a").unwrap();
        let insts = all_insts(&flat.body);
        assert_eq!(insts.len(), 8); // 4 Repl2 + 2 Fifo1 + 2 Seq2
        assert!(insts.iter().all(|i| i.is_fixed_shape()));
    }

    #[test]
    fn ex11b_flattens_to_ex11a_constituents() {
        // Example 9 of the paper: flattening ConnectorEx11b yields
        // ConnectorEx11a up to assoc/comm of mult and renaming.
        let prog = examples::paper_program();
        let a = flatten(&prog, "ConnectorEx11a").unwrap();
        let b = flatten(&prog, "ConnectorEx11b").unwrap();
        let count = |fd: &FlatDef, prim: &str| {
            all_insts(&fd.body)
                .iter()
                .filter(|i| i.prim == prim)
                .count()
        };
        for prim in ["Repl2", "Fifo1", "Seq2"] {
            assert_eq!(count(&a, prim), count(&b, prim), "{prim}");
        }
    }

    #[test]
    fn inlined_locals_are_renamed_apart() {
        // ConnectorEx11b inlines X twice; the two v/w locals must differ.
        let prog = examples::paper_program();
        let b = flatten(&prog, "ConnectorEx11b").unwrap();
        let insts = all_insts(&b.body);
        let fifo_tails: Vec<String> = insts
            .iter()
            .filter(|i| i.prim == "Fifo1")
            .map(|i| i.tails[0].base().to_string())
            .collect();
        assert_eq!(fifo_tails.len(), 2);
        assert_ne!(fifo_tails[0], fifo_tails[1]);
    }

    #[test]
    fn parametrized_locals_indexed_by_enclosing_var() {
        // In ConnectorEx11N, X is inlined under prod(i): X's local v must
        // become an array over the renamed i.
        let prog = examples::paper_program();
        let n = flatten(&prog, "ConnectorEx11N").unwrap();
        let insts = all_insts(&n.body);
        let fifo = insts.iter().find(|i| i.prim == "Fifo1").unwrap();
        match &fifo.tails[0] {
            FlatOperand::One(r) => {
                assert_eq!(r.indices.len(), 1, "local v must gain the prod index");
            }
            _ => panic!("expected a single vertex"),
        }
    }

    #[test]
    fn formal_array_lengths_substituted() {
        // In the top definition, #tl stays symbolic (Len of the formal).
        let prog = examples::paper_program();
        let n = flatten(&prog, "ConnectorEx11N").unwrap();
        // The body is if (#tl == 1) ...; check the flat condition mentions
        // the formal's length.
        match &n.body {
            FlatExpr::If { cond, .. } => match cond {
                FlatBool::Cmp(_, lhs, _) => {
                    assert!(lhs
                        .terms
                        .iter()
                        .any(|(s, _)| matches!(s, Sym::Len(a) if a == "tl")));
                }
                _ => panic!("expected comparison"),
            },
            other => panic!("expected if at top level, got {other:?}"),
        }
    }

    #[test]
    fn recursion_is_detected() {
        use crate::ir::*;
        let def = ConnectorDef {
            name: "Loop".into(),
            tails: vec![Param::scalar("a")],
            heads: vec![Param::scalar("b")],
            body: CExpr::Inst(Inst::new(
                "Loop",
                vec![PortRef::name("a")],
                vec![PortRef::name("b")],
            )),
        };
        let prog = Program::new(vec![def]);
        assert!(matches!(
            flatten(&prog, "Loop"),
            Err(CoreError::RecursiveDefinition(_))
        ));
    }

    #[test]
    fn unknown_primitive_reported() {
        use crate::ir::*;
        let def = ConnectorDef {
            name: "Bad".into(),
            tails: vec![Param::scalar("a")],
            heads: vec![Param::scalar("b")],
            body: CExpr::Inst(Inst::new(
                "Mystery",
                vec![PortRef::name("a")],
                vec![PortRef::name("b")],
            )),
        };
        let prog = Program::new(vec![def]);
        assert!(matches!(
            flatten(&prog, "Bad"),
            Err(CoreError::UnknownPrimitive(_))
        ));
    }
}
