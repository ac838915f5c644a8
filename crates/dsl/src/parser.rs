//! Recursive-descent parser for the textual connector syntax.
//!
//! Produces `reo-core` IR directly. Grammar (Sect. IV-B of the paper):
//!
//! ```text
//! program  := (def | main)*
//! def      := IDENT '(' params ';' params ')' '=' cexpr
//! param    := IDENT ('[' ']')?
//! cexpr    := term ('mult' term)*
//! term     := 'prod' '(' IDENT ':' iexpr '..' iexpr ')' term
//!           | 'if' '(' bexpr ')' '{' cexpr '}' ('else' '{' cexpr '}')?
//!           | '{' cexpr '}'
//!           | IDENT ('<' iexpr (',' iexpr)* '>')? '(' args ';' args ')'
//! arg      := IDENT ('[' iexpr ('..' iexpr)? ']')?
//! iexpr    := sum of products over INT, IDENT, '#'IDENT, parens, unary '-'
//! bexpr    := ('!'-prefixed, '&&'/'||'-combined) comparisons
//! main     := 'main' '(' idents? ')' '=' term ('among' task ('and' task)*)?
//! task     := ('forall' '(' IDENT ':' iexpr '..' iexpr ')')?
//!             dotted-IDENT '(' arg* ')'
//! ```

use std::fmt;

use reo_core::ir::{
    BExpr, CExpr, Cmp, ConnectorDef, IExpr, Inst, MainDef, Param, PortRef, Program, TaskInst,
};
use reo_core::Name;

use crate::lexer::{lex, LexError, Tok, Token};

/// A parse error with source position.
#[derive(Clone, Debug)]
pub struct ParseError {
    pub message: String,
    pub line: u32,
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "parse error at {}:{}: {}",
            self.line, self.col, self.message
        )
    }
}

impl std::error::Error for ParseError {}

impl From<LexError> for ParseError {
    fn from(e: LexError) -> Self {
        ParseError {
            message: e.message,
            line: e.line,
            col: e.col,
        }
    }
}

/// Parse a whole program.
pub fn parse_program(src: &str) -> Result<Program, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let mut defs = Vec::new();
    let mut main = None;
    while !p.at(&Tok::Eof) {
        if p.at(&Tok::Main) {
            if main.is_some() {
                return Err(p.error("duplicate `main` definition"));
            }
            main = Some(p.parse_main()?);
        } else {
            defs.push(p.parse_def()?);
        }
    }
    let mut prog = Program::new(defs);
    prog.main = main;
    Ok(prog)
}

/// Parse a single connector definition (convenience for tests/doctests).
pub fn parse_def(src: &str) -> Result<ConnectorDef, ParseError> {
    let tokens = lex(src)?;
    let mut p = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let def = p.parse_def()?;
    p.expect(&Tok::Eof)?;
    Ok(def)
}

/// Maximum nesting depth of the recursive grammar (braces, `prod`/`if`
/// bodies, parenthesized index and boolean expressions, unary operators).
///
/// The recursive-descent parser uses the call stack; without a limit,
/// adversarial input like ten thousand nested `{`/`(` overflows the stack
/// and aborts the process. Inputs deeper than this return a regular
/// [`ParseError`] instead. Real connector programs nest a handful of
/// levels; the limit is far above anything reachable by hand.
pub const MAX_NESTING_DEPTH: u32 = 200;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    depth: u32,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.tokens[self.pos].kind
    }

    fn peek2(&self) -> &Tok {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)].kind
    }

    fn at(&self, kind: &Tok) -> bool {
        self.peek() == kind
    }

    fn bump(&mut self) -> Tok {
        let t = self.tokens[self.pos].kind.clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, kind: &Tok) -> bool {
        if self.at(kind) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, kind: &Tok) -> Result<(), ParseError> {
        if self.eat(kind) {
            Ok(())
        } else {
            Err(self.error(&format!("expected {kind}, found {}", self.peek())))
        }
    }

    fn error(&self, message: &str) -> ParseError {
        let t = &self.tokens[self.pos];
        ParseError {
            message: message.to_string(),
            line: t.line,
            col: t.col,
        }
    }

    fn ident(&mut self) -> Result<Name, ParseError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.error(&format!("expected identifier, found {other}"))),
        }
    }

    /// Enter one level of grammar recursion; fails with a typed error once
    /// [`MAX_NESTING_DEPTH`] is exceeded (instead of overflowing the call
    /// stack). Callers must pair with [`Parser::ascend`] on success paths;
    /// error paths abandon the parse, so an unpaired descend is harmless.
    fn descend(&mut self) -> Result<(), ParseError> {
        self.depth += 1;
        if self.depth > MAX_NESTING_DEPTH {
            return Err(self.error(&format!(
                "expression nesting exceeds the maximum depth of {MAX_NESTING_DEPTH}"
            )));
        }
        Ok(())
    }

    fn ascend(&mut self) {
        self.depth -= 1;
    }

    // ---- definitions -----------------------------------------------------

    fn parse_def(&mut self) -> Result<ConnectorDef, ParseError> {
        let name = self.ident()?.to_string();
        self.expect(&Tok::LParen)?;
        let tails = self.parse_params()?;
        self.expect(&Tok::Semi)?;
        let heads = self.parse_params()?;
        self.expect(&Tok::RParen)?;
        self.expect(&Tok::Eq)?;
        let body = self.parse_cexpr()?;
        Ok(ConnectorDef {
            name,
            tails,
            heads,
            body,
        })
    }

    fn parse_params(&mut self) -> Result<Vec<Param>, ParseError> {
        let mut params = Vec::new();
        if matches!(self.peek(), Tok::Ident(_)) {
            loop {
                let name = self.ident()?.to_string();
                let is_array = if self.eat(&Tok::LBracket) {
                    self.expect(&Tok::RBracket)?;
                    true
                } else {
                    false
                };
                params.push(Param { name, is_array });
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        Ok(params)
    }

    // ---- connector expressions --------------------------------------------

    fn parse_cexpr(&mut self) -> Result<CExpr, ParseError> {
        let mut parts = vec![self.parse_term()?];
        while self.eat(&Tok::Mult) {
            parts.push(self.parse_term()?);
        }
        Ok(if parts.len() == 1 {
            parts.pop().expect("len checked")
        } else {
            CExpr::Mult(parts)
        })
    }

    fn parse_term(&mut self) -> Result<CExpr, ParseError> {
        self.descend()?;
        let term = self.parse_term_inner()?;
        self.ascend();
        Ok(term)
    }

    fn parse_term_inner(&mut self) -> Result<CExpr, ParseError> {
        match self.peek().clone() {
            Tok::Prod => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let var = self.ident()?;
                self.expect(&Tok::Colon)?;
                let lo = self.parse_iexpr()?;
                self.expect(&Tok::DotDot)?;
                let hi = self.parse_iexpr()?;
                self.expect(&Tok::RParen)?;
                let body = self.parse_term()?;
                Ok(CExpr::Prod {
                    var,
                    lo,
                    hi,
                    body: Box::new(body),
                })
            }
            Tok::If => {
                self.bump();
                self.expect(&Tok::LParen)?;
                let cond = self.parse_bexpr()?;
                self.expect(&Tok::RParen)?;
                self.expect(&Tok::LBrace)?;
                let then_branch = Box::new(self.parse_cexpr()?);
                self.expect(&Tok::RBrace)?;
                let else_branch = if self.eat(&Tok::Else) {
                    self.expect(&Tok::LBrace)?;
                    let e = self.parse_cexpr()?;
                    self.expect(&Tok::RBrace)?;
                    Some(Box::new(e))
                } else {
                    None
                };
                Ok(CExpr::If {
                    cond,
                    then_branch,
                    else_branch,
                })
            }
            Tok::LBrace => {
                self.bump();
                let inner = self.parse_cexpr()?;
                self.expect(&Tok::RBrace)?;
                Ok(inner)
            }
            Tok::Ident(_) => Ok(CExpr::Inst(self.parse_inst()?)),
            other => Err(self.error(&format!(
                "expected `prod`, `if`, `{{` or a connector instantiation, found {other}"
            ))),
        }
    }

    fn parse_inst(&mut self) -> Result<Inst, ParseError> {
        let name = self.ident()?;
        let mut iargs = Vec::new();
        if self.eat(&Tok::Lt) {
            loop {
                iargs.push(self.parse_iexpr()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
            self.expect(&Tok::Gt)?;
        }
        self.expect(&Tok::LParen)?;
        let tails = self.parse_args()?;
        self.expect(&Tok::Semi)?;
        let heads = self.parse_args()?;
        self.expect(&Tok::RParen)?;
        Ok(Inst {
            name,
            iargs,
            tails,
            heads,
        })
    }

    fn parse_args(&mut self) -> Result<Vec<PortRef>, ParseError> {
        let mut args = Vec::new();
        if matches!(self.peek(), Tok::Ident(_)) {
            loop {
                args.push(self.parse_portref()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        Ok(args)
    }

    fn parse_portref(&mut self) -> Result<PortRef, ParseError> {
        let name = self.ident()?;
        if !self.eat(&Tok::LBracket) {
            return Ok(PortRef::Name(name));
        }
        let first = self.parse_iexpr()?;
        if self.eat(&Tok::DotDot) {
            let hi = self.parse_iexpr()?;
            self.expect(&Tok::RBracket)?;
            return Ok(PortRef::Slice(name, first, hi));
        }
        self.expect(&Tok::RBracket)?;
        Ok(PortRef::Indexed(name, vec![first]))
    }

    // ---- index expressions -------------------------------------------------

    fn parse_iexpr(&mut self) -> Result<IExpr, ParseError> {
        let mut acc = self.parse_imul()?;
        loop {
            if self.eat(&Tok::Plus) {
                acc = IExpr::Add(Box::new(acc), Box::new(self.parse_imul()?));
            } else if self.eat(&Tok::Minus) {
                acc = IExpr::Sub(Box::new(acc), Box::new(self.parse_imul()?));
            } else {
                return Ok(acc);
            }
        }
    }

    fn parse_imul(&mut self) -> Result<IExpr, ParseError> {
        let mut acc = self.parse_iatom()?;
        while self.eat(&Tok::Star) {
            acc = IExpr::Mul(Box::new(acc), Box::new(self.parse_iatom()?));
        }
        Ok(acc)
    }

    fn parse_iatom(&mut self) -> Result<IExpr, ParseError> {
        self.descend()?;
        let atom = self.parse_iatom_inner()?;
        self.ascend();
        Ok(atom)
    }

    fn parse_iatom_inner(&mut self) -> Result<IExpr, ParseError> {
        match self.peek().clone() {
            Tok::Int(v) => {
                self.bump();
                Ok(IExpr::Const(v))
            }
            Tok::Ident(name) => {
                self.bump();
                Ok(IExpr::Var(name))
            }
            Tok::Hash => {
                self.bump();
                Ok(IExpr::Len(self.ident()?))
            }
            Tok::Minus => {
                self.bump();
                Ok(IExpr::Sub(
                    Box::new(IExpr::Const(0)),
                    Box::new(self.parse_iatom()?),
                ))
            }
            Tok::LParen => {
                self.bump();
                let inner = self.parse_iexpr()?;
                self.expect(&Tok::RParen)?;
                Ok(inner)
            }
            other => Err(self.error(&format!("expected index expression, found {other}"))),
        }
    }

    // ---- boolean expressions ------------------------------------------------

    fn parse_bexpr(&mut self) -> Result<BExpr, ParseError> {
        let mut acc = self.parse_band()?;
        while self.eat(&Tok::OrOr) {
            acc = BExpr::Or(Box::new(acc), Box::new(self.parse_band()?));
        }
        Ok(acc)
    }

    fn parse_band(&mut self) -> Result<BExpr, ParseError> {
        let mut acc = self.parse_batom()?;
        while self.eat(&Tok::AndAnd) {
            acc = BExpr::And(Box::new(acc), Box::new(self.parse_batom()?));
        }
        Ok(acc)
    }

    fn parse_batom(&mut self) -> Result<BExpr, ParseError> {
        self.descend()?;
        let atom = self.parse_batom_inner()?;
        self.ascend();
        Ok(atom)
    }

    fn parse_batom_inner(&mut self) -> Result<BExpr, ParseError> {
        if self.eat(&Tok::Bang) {
            return Ok(BExpr::Not(Box::new(self.parse_batom()?)));
        }
        // `(` is ambiguous: parenthesized boolean or parenthesized index
        // expression starting a comparison. Try the boolean reading first
        // and backtrack on failure.
        if self.at(&Tok::LParen) {
            let save = self.pos;
            // A failed speculative parse abandons descend/ascend pairs
            // mid-flight; restore the depth along with the position.
            let save_depth = self.depth;
            self.bump();
            if let Ok(inner) = self.parse_bexpr() {
                if self.eat(&Tok::RParen) {
                    // Could still be the LHS of `&&`/`||` handled by caller.
                    return Ok(inner);
                }
            }
            self.pos = save;
            self.depth = save_depth;
        }
        let lhs = self.parse_iexpr()?;
        let op = match self.peek() {
            Tok::EqEq => Cmp::Eq,
            Tok::Ne => Cmp::Ne,
            Tok::Lt => Cmp::Lt,
            Tok::Le => Cmp::Le,
            Tok::Gt => Cmp::Gt,
            Tok::Ge => Cmp::Ge,
            other => {
                return Err(self.error(&format!("expected comparison operator, found {other}")))
            }
        };
        self.bump();
        let rhs = self.parse_iexpr()?;
        Ok(BExpr::Cmp(op, lhs, rhs))
    }

    // ---- main ---------------------------------------------------------------

    fn parse_main(&mut self) -> Result<MainDef, ParseError> {
        self.expect(&Tok::Main)?;
        let mut params = Vec::new();
        if self.eat(&Tok::LParen) {
            if matches!(self.peek(), Tok::Ident(_)) {
                loop {
                    params.push(self.ident()?.to_string());
                    if !self.eat(&Tok::Comma) {
                        break;
                    }
                }
            }
            self.expect(&Tok::RParen)?;
        }
        self.expect(&Tok::Eq)?;
        let connector = self.parse_inst()?;
        let mut tasks = Vec::new();
        if self.eat(&Tok::Among) {
            loop {
                tasks.push(self.parse_task()?);
                if !self.eat(&Tok::And) {
                    break;
                }
            }
        }
        Ok(MainDef {
            params,
            connector,
            tasks,
        })
    }

    fn parse_task(&mut self) -> Result<TaskInst, ParseError> {
        let forall = if self.eat(&Tok::Forall) {
            self.expect(&Tok::LParen)?;
            let var = self.ident()?.to_string();
            self.expect(&Tok::Colon)?;
            let lo = self.parse_iexpr()?;
            self.expect(&Tok::DotDot)?;
            let hi = self.parse_iexpr()?;
            self.expect(&Tok::RParen)?;
            Some((var, lo, hi))
        } else {
            None
        };
        // Dotted task names: Tasks.pro
        let mut name = self.ident()?.to_string();
        while self.eat(&Tok::Dot) {
            name.push('.');
            name.push_str(&self.ident()?);
        }
        self.expect(&Tok::LParen)?;
        let mut args = Vec::new();
        if matches!(self.peek(), Tok::Ident(_)) {
            loop {
                args.push(self.parse_portref()?);
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        self.expect(&Tok::RParen)?;
        Ok(TaskInst { name, args, forall })
    }
}

/// Sanity: `peek2` is used by no rule today but kept for grammar evolution;
/// reference it so the build stays warning-free.
#[allow(dead_code)]
fn _unused(p: &Parser) -> &Tok {
    p.peek2()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_fig8_connector() {
        let src = "
            ConnectorEx11a(tl1,tl2;hd1,hd2) =
              Repl2(tl1;prev1,v1) mult Repl2(tl2;prev2,v2)
              mult Fifo1(v1;w1) mult Fifo1(v2;w2)
              mult Repl2(w1;next1,hd1) mult Repl2(w2;next2,hd2)
              mult Seq2(next1,prev2;) mult Seq2(prev1,next2;)
        ";
        let def = parse_def(src).unwrap();
        assert_eq!(def.name, "ConnectorEx11a");
        assert_eq!(def.tails.len(), 2);
        assert_eq!(def.heads.len(), 2);
        match &def.body {
            CExpr::Mult(parts) => assert_eq!(parts.len(), 8),
            other => panic!("expected mult, got {other:?}"),
        }
    }

    #[test]
    fn parses_fig9_connector() {
        let src = "
            ConnectorEx11N(tl[];hd[]) =
              if (#tl == 1) {
                Fifo1(tl[1];hd[1])
              } else {
                prod (i:1..#tl) X(tl[i];prev[i],next[i],hd[i])
                mult prod (i:1..#tl-1) Seq2(next[i];prev[i+1])
                mult Seq2(prev[1];next[#tl])
              }
        ";
        let def = parse_def(src).unwrap();
        assert!(def.tails[0].is_array);
        let CExpr::If { else_branch, .. } = &def.body else {
            panic!("expected if");
        };
        let CExpr::Mult(parts) = else_branch.as_deref().unwrap() else {
            panic!("expected mult in else");
        };
        assert_eq!(parts.len(), 3);
        assert!(matches!(parts[0], CExpr::Prod { .. }));
    }

    #[test]
    fn parses_fig9_main() {
        let src = "
            Id(a;b) = Sync(a;b)
            main(N) = Id(out[1..N];in[1..N]) among
              forall (i:1..N) Tasks.pro(out[i]) and Tasks.con(in[1..N])
        ";
        let prog = parse_program(src).unwrap();
        let main = prog.main.unwrap();
        assert_eq!(main.params, vec!["N"]);
        assert_eq!(main.connector.name, "Id");
        assert_eq!(main.tasks.len(), 2);
        assert_eq!(main.tasks[0].name, "Tasks.pro");
        assert!(main.tasks[0].forall.is_some());
        assert!(main.tasks[1].forall.is_none());
    }

    #[test]
    fn integer_arguments_in_angle_brackets() {
        let def = parse_def("B(a;b) = FifoN<3>(a;b)").unwrap();
        let CExpr::Inst(inst) = &def.body else {
            panic!();
        };
        assert_eq!(inst.iargs, vec![IExpr::Const(3)]);
    }

    #[test]
    fn boolean_operators_and_parens() {
        let def =
            parse_def("C(t[];h[]) = if ((#t == 1) || (#t > 2 && !(#h == 0))) { Sync(t[1];h[1]) }")
                .unwrap();
        let CExpr::If { cond, .. } = &def.body else {
            panic!();
        };
        assert!(matches!(cond, BExpr::Or(..)));
    }

    #[test]
    fn parenthesized_arithmetic_comparison() {
        // `(` must backtrack into an index expression here.
        let def = parse_def("C(t[];h[]) = if ((#t - 1) == 1) { Sync(t[1];h[1]) }").unwrap();
        let CExpr::If { cond, .. } = &def.body else {
            panic!();
        };
        assert!(matches!(cond, BExpr::Cmp(Cmp::Eq, ..)));
    }

    #[test]
    fn errors_carry_positions() {
        let err = parse_def("Broken(a;b) = Sync(a;;b)").unwrap_err();
        assert!(err.line >= 1);
        assert!(err.message.contains("expected"));
    }

    #[test]
    fn empty_operand_lists_allowed() {
        // Spouts have no tails; drains no heads.
        let def = parse_def("D(a,b;) = SyncDrain(a,b;)").unwrap();
        assert_eq!(def.heads.len(), 0);
    }

    #[test]
    fn deep_nesting_returns_a_typed_error_not_a_stack_overflow() {
        // Braces nest the connector-expression grammar.
        let n = 50_000;
        let src = format!("D(a;b) = {}Sync(a;b){}", "{".repeat(n), "}".repeat(n));
        let err = parse_def(&src).unwrap_err();
        assert!(err.message.contains("nesting"), "{}", err.message);

        // Parens nest the index-expression grammar.
        let src = format!("D(a;b) = FifoN<{}1{}>(a;b)", "(".repeat(n), ")".repeat(n));
        let err = parse_def(&src).unwrap_err();
        assert!(err.message.contains("nesting"), "{}", err.message);

        // `!` chains nest the boolean grammar.
        let src = format!("D(a;b) = if ({}1 == 1) {{ Sync(a;b) }}", "!".repeat(n));
        let err = parse_def(&src).unwrap_err();
        assert!(err.message.contains("nesting"), "{}", err.message);

        // Unary minus chains nest the index-expression grammar.
        let src = format!("D(a;b) = FifoN<{}1>(a;b)", "-".repeat(n));
        let err = parse_def(&src).unwrap_err();
        assert!(err.message.contains("nesting"), "{}", err.message);
    }

    #[test]
    fn nesting_within_the_limit_still_parses() {
        let n = 64;
        let src = format!("D(a;b) = {}Fifo1(a;b){}", "{".repeat(n), "}".repeat(n));
        parse_def(&src).unwrap();
        // Repeated backtracking over parenthesized comparisons must not
        // leak depth budget across atoms.
        let cond = (0..80).map(|_| "(1 == 1)").collect::<Vec<_>>().join(" && ");
        let src = format!("D(a;b) = if ({cond}) {{ Fifo1(a;b) }}");
        parse_def(&src).unwrap();
    }

    #[test]
    fn negative_literals() {
        let def = parse_def("E(a;b) = Fifo1Full<-1>(a;b)").unwrap();
        let CExpr::Inst(inst) = &def.body else {
            panic!();
        };
        match &inst.iargs[0] {
            IExpr::Sub(lhs, rhs) => {
                assert_eq!(**lhs, IExpr::Const(0));
                assert_eq!(**rhs, IExpr::Const(1));
            }
            other => panic!("expected 0-1, got {other:?}"),
        }
    }
}
