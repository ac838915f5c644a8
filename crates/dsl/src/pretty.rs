//! Pretty-printer: IR back to the textual syntax.
//!
//! `parse_program(pretty(p))` reproduces `p` — the round-trip property the
//! crate's proptests check. Output follows the layout of the paper's
//! Figs. 8/9 (one constituent per `mult` line).

use reo_core::ir::{BExpr, CExpr, ConnectorDef, IExpr, Inst, MainDef, PortRef, Program, TaskInst};

/// Render a whole program.
pub fn pretty_program(p: &Program) -> String {
    let mut out = String::new();
    for def in &p.defs {
        out.push_str(&pretty_def(def));
        out.push('\n');
    }
    if let Some(main) = &p.main {
        out.push_str(&pretty_main(main));
        out.push('\n');
    }
    out
}

/// Render one definition.
pub fn pretty_def(def: &ConnectorDef) -> String {
    let params = |ps: &[reo_core::ir::Param]| {
        ps.iter()
            .map(|p| {
                if p.is_array {
                    format!("{}[]", p.name)
                } else {
                    p.name.clone()
                }
            })
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "{}({};{}) =\n  {}",
        def.name,
        params(&def.tails),
        params(&def.heads),
        pretty_cexpr(&def.body, 1)
    )
}

fn indent(depth: usize) -> String {
    "  ".repeat(depth)
}

fn pretty_cexpr(e: &CExpr, depth: usize) -> String {
    match e {
        CExpr::Inst(inst) => pretty_inst(inst),
        CExpr::Mult(parts) => parts
            .iter()
            .map(|p| pretty_cexpr(p, depth))
            .collect::<Vec<_>>()
            .join(&format!("\n{}mult ", indent(depth))),
        CExpr::Prod { var, lo, hi, body } => format!(
            "prod ({var}:{}..{}) {{ {} }}",
            pretty_iexpr(lo),
            pretty_iexpr(hi),
            pretty_cexpr(body, depth + 1)
        ),
        CExpr::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let mut s = format!(
                "if ({}) {{\n{}{}\n{}}}",
                pretty_bexpr(cond),
                indent(depth + 1),
                pretty_cexpr(then_branch, depth + 1),
                indent(depth)
            );
            if let Some(e) = else_branch {
                s.push_str(&format!(
                    " else {{\n{}{}\n{}}}",
                    indent(depth + 1),
                    pretty_cexpr(e, depth + 1),
                    indent(depth)
                ));
            }
            s
        }
    }
}

fn pretty_inst(inst: &Inst) -> String {
    let refs = |rs: &[PortRef]| rs.iter().map(pretty_ref).collect::<Vec<_>>().join(",");
    let iargs = if inst.iargs.is_empty() {
        String::new()
    } else {
        format!(
            "<{}>",
            inst.iargs
                .iter()
                .map(pretty_iexpr)
                .collect::<Vec<_>>()
                .join(",")
        )
    };
    format!(
        "{}{}({};{})",
        inst.name,
        iargs,
        refs(&inst.tails),
        refs(&inst.heads)
    )
}

fn pretty_ref(r: &PortRef) -> String {
    match r {
        PortRef::Name(n) => n.to_string(),
        PortRef::Indexed(n, idxs) => {
            let mut s = n.to_string();
            for i in idxs {
                s.push_str(&format!("[{}]", pretty_iexpr(i)));
            }
            s
        }
        PortRef::Slice(n, a, b) => format!("{n}[{}..{}]", pretty_iexpr(a), pretty_iexpr(b)),
    }
}

/// Render an index expression (minimally parenthesized).
pub fn pretty_iexpr(e: &IExpr) -> String {
    fn go(e: &IExpr, parent_prec: u8) -> String {
        let (s, prec) = match e {
            IExpr::Const(c) => (c.to_string(), 3),
            IExpr::Var(v) => (v.to_string(), 3),
            IExpr::Len(a) => (format!("#{a}"), 3),
            IExpr::Add(a, b) => (format!("{}+{}", go(a, 1), go(b, 2)), 1),
            IExpr::Sub(a, b) => (format!("{}-{}", go(a, 1), go(b, 2)), 1),
            IExpr::Mul(a, b) => (format!("{}*{}", go(a, 2), go(b, 3)), 2),
        };
        if prec < parent_prec {
            format!("({s})")
        } else {
            s
        }
    }
    go(e, 0)
}

/// Render a boolean expression.
pub fn pretty_bexpr(e: &BExpr) -> String {
    match e {
        BExpr::Cmp(op, a, b) => format!("{} {op} {}", pretty_iexpr(a), pretty_iexpr(b)),
        BExpr::And(a, b) => format!("({}) && ({})", pretty_bexpr(a), pretty_bexpr(b)),
        BExpr::Or(a, b) => format!("({}) || ({})", pretty_bexpr(a), pretty_bexpr(b)),
        BExpr::Not(a) => format!("!({})", pretty_bexpr(a)),
    }
}

fn pretty_main(main: &MainDef) -> String {
    let mut s = format!(
        "main({}) = {}",
        main.params.join(","),
        pretty_inst(&main.connector)
    );
    if !main.tasks.is_empty() {
        s.push_str(" among\n  ");
        s.push_str(
            &main
                .tasks
                .iter()
                .map(pretty_task)
                .collect::<Vec<_>>()
                .join(" and\n  "),
        );
    }
    s
}

fn pretty_task(t: &TaskInst) -> String {
    let args = t.args.iter().map(pretty_ref).collect::<Vec<_>>().join(",");
    match &t.forall {
        Some((v, lo, hi)) => format!(
            "forall ({v}:{}..{}) {}({args})",
            pretty_iexpr(lo),
            pretty_iexpr(hi),
            t.name
        ),
        None => format!("{}({args})", t.name),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_def, parse_program};
    use reo_core::examples;

    #[test]
    fn paper_program_round_trips() {
        let prog = examples::paper_program();
        let text = pretty_program(&prog);
        let back = parse_program(&text).unwrap();
        assert_eq!(prog.defs, back.defs);
    }

    #[test]
    fn iexpr_precedence_respected() {
        // (i+1)*2 must keep its parentheses; i+1*2 must not gain any.
        let src = "A(a;b) = FifoN<(i+1)*2>(a;b)";
        let def = parse_def(src).unwrap();
        let printed = pretty_def(&def);
        let again = parse_def(&printed).unwrap();
        assert_eq!(def, again);
    }

    #[test]
    fn main_round_trips() {
        let src = "
            Id(a[];b[]) = prod (i:1..#a) Sync(a[i];b[i])
            main(N) = Id(out[1..N];in[1..N]) among
              forall (i:1..N) Tasks.pro(out[i]) and Tasks.con(in[1..N])
        ";
        let prog = parse_program(src).unwrap();
        let text = pretty_program(&prog);
        let back = parse_program(&text).unwrap();
        assert_eq!(prog.defs, back.defs);
        assert_eq!(prog.main, back.main);
    }
}
