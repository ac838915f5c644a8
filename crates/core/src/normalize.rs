//! Normalization: step 2 of parametrized compilation (Sect. IV-C).
//!
//! A flat expression is brought into the paper's normal form: from left to
//! right, first a section with only (primitive) constituents, then a section
//! with only iteration expressions, finally a section with only conditional
//! expressions — recursively inside iteration bodies and conditional
//! branches (Example 10). Reordering is sound because `mult` (the product ×)
//! is associative and commutative.
//!
//! Normalization consumes the flat body: every constituent, bound and
//! condition moves into the normal form, which compilation consumes in
//! turn (`compile::Compiler::build`), so nothing on the way from the
//! flattener to a template is copied.

use reo_automata::Name;

use crate::affine::Affine;
use crate::flat::{FlatBool, FlatExpr, FlatInst};

/// A body in normal form.
#[derive(Clone, Debug, Default)]
pub struct NormalForm {
    /// The constituents section — composed into one medium automaton.
    pub insts: Vec<FlatInst>,
    /// The iterations section.
    pub prods: Vec<ProdNF>,
    /// The conditionals section.
    pub conds: Vec<IfNF>,
}

#[derive(Clone, Debug)]
pub struct ProdNF {
    pub var: Name,
    pub lo: Affine,
    pub hi: Affine,
    pub body: NormalForm,
}

#[derive(Clone, Debug)]
pub struct IfNF {
    pub cond: FlatBool,
    pub then_branch: NormalForm,
    pub else_branch: Option<NormalForm>,
}

impl NormalForm {
    pub fn is_empty(&self) -> bool {
        self.insts.is_empty() && self.prods.is_empty() && self.conds.is_empty()
    }

    /// Total number of sections (recursively) — a size metric for tests.
    pub fn section_count(&self) -> usize {
        let here = usize::from(!self.insts.is_empty());
        let prods: usize = self.prods.iter().map(|p| 1 + p.body.section_count()).sum();
        let conds: usize = self
            .conds
            .iter()
            .map(|c| {
                1 + c.then_branch.section_count()
                    + c.else_branch.as_ref().map_or(0, NormalForm::section_count)
            })
            .sum();
        here + prods + conds
    }
}

/// Normalize a flat expression, moving its parts into the normal form.
pub fn normalize(expr: FlatExpr) -> NormalForm {
    let mut nf = NormalForm::default();
    gather(expr, &mut nf);
    nf
}

fn gather(expr: FlatExpr, nf: &mut NormalForm) {
    match expr {
        FlatExpr::Inst(i) => nf.insts.push(i),
        FlatExpr::Mult(parts) => parts.into_iter().for_each(|p| gather(p, nf)),
        FlatExpr::Prod { var, lo, hi, body } => nf.prods.push(ProdNF {
            var,
            lo,
            hi,
            body: normalize(*body),
        }),
        FlatExpr::If {
            cond,
            then_branch,
            else_branch,
        } => nf.conds.push(IfNF {
            cond,
            then_branch: normalize(*then_branch),
            else_branch: else_branch.map(|e| normalize(*e)),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::examples;
    use crate::flat::flatten;

    #[test]
    fn ex11a_is_one_constituent_section() {
        let prog = examples::paper_program();
        let flat = flatten(&prog, "ConnectorEx11a").unwrap();
        let nf = normalize(flat.body);
        assert_eq!(nf.insts.len(), 8);
        assert!(nf.prods.is_empty());
        assert!(nf.conds.is_empty());
    }

    #[test]
    fn ex11n_matches_example_10() {
        // Example 10: after normalization the else branch has the shape
        // [Seq2(prev[1];next[#tl])] ++ [prod X-section, prod Seq2-section].
        let prog = examples::paper_program();
        let flat = flatten(&prog, "ConnectorEx11N").unwrap();
        let nf = normalize(flat.body);
        assert!(nf.insts.is_empty());
        assert!(nf.prods.is_empty());
        assert_eq!(nf.conds.len(), 1);
        let cond = &nf.conds[0];
        // then: single Fifo1 constituent.
        assert_eq!(cond.then_branch.insts.len(), 1);
        assert_eq!(cond.then_branch.insts[0].prim, "Fifo1");
        // else: the trailing Seq2 moves up into the constituents section;
        // two iteration sections follow (Fig. 10's Automaton2/3/4).
        let els = cond.else_branch.as_ref().unwrap();
        assert_eq!(els.insts.len(), 1);
        assert_eq!(els.insts[0].prim, "Seq2");
        assert_eq!(els.prods.len(), 2);
        // X's expansion: 3 constituents in the first prod body.
        assert_eq!(els.prods[0].body.insts.len(), 3);
        assert_eq!(els.prods[1].body.insts.len(), 1);
    }

    #[test]
    fn nested_mults_are_merged() {
        use crate::flat::{FlatOperand, FlatRef};
        let inst = |n: &str| {
            FlatExpr::Inst(FlatInst {
                prim: "Sync".into(),
                iargs: vec![],
                tails: vec![FlatOperand::One(FlatRef {
                    base: format!("{n}a").into(),
                    indices: vec![],
                })],
                heads: vec![FlatOperand::One(FlatRef {
                    base: format!("{n}b").into(),
                    indices: vec![],
                })],
            })
        };
        let e = FlatExpr::Mult(vec![
            inst("x"),
            FlatExpr::Mult(vec![inst("y"), FlatExpr::Mult(vec![inst("z")])]),
        ]);
        let nf = normalize(e);
        assert_eq!(nf.insts.len(), 3);
        assert_eq!(nf.section_count(), 1);
    }
}
