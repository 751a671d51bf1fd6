//! A small three-address front-end language.
//!
//! The paper's front end (SUIF + SPAM) turns C into basic-block expression
//! DAGs plus control flow. This module provides the equivalent substrate: a
//! straight-line language with labels, gotos, and conditional branches that
//! parses directly into a [`Function`] of value-numbered [`BlockDag`]s.
//!
//! ```text
//! func dot(a0, a1, b0, b1) {
//!     s = a0 * b0 + a1 * b1;
//!     if (s > 0) goto pos;
//!     s = 0 - s;
//! pos:
//!     return s;
//! }
//! ```
//!
//! Expressions support `+ - * / & | ^ << >>`, comparisons
//! `== != < <= > >=`, unary `- ~`, the intrinsics `abs(x)`, `min(x, y)`,
//! `max(x, y)`, and memory access `mem[expr]` (reads and writes).
//!
//! Within a block, variable reads resolve to the local defining node when
//! one exists (so `t = a + b; u = t * t;` builds a DAG, not a tree); every
//! variable assigned in a block is written back at block end, and reads in
//! later blocks load it again — see the inter-block value model in
//! [`crate::program`].

use crate::dag::{BlockDag, NodeId};
use crate::op::Op;
use crate::program::{BasicBlock, BlockId, Function, Terminator};
use crate::symbols::{Sym, SymbolTable};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::ops::Range;

/// Error produced by [`parse_function`] with 1-based source position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Human-readable message.
    pub msg: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at {}:{}: {}", self.line, self.col, self.msg)
    }
}

impl Error for ParseError {}

/// One token. Identifiers borrow the source text, so tokens are `Copy`
/// and lexing allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Num(i64),
    Punct(&'static str),
    Eof,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn bump(&mut self) -> Option<u8> {
        let c = self.peek()?;
        self.pos += 1;
        if c == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    fn peek2(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos + 1).copied()
    }

    fn skip_trivia(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                Some(c) if c.is_ascii_whitespace() => {
                    self.bump();
                }
                Some(b'/') if self.peek2() == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(b'/') if self.peek2() == Some(b'*') => {
                    self.bump();
                    self.bump();
                    loop {
                        match self.peek() {
                            None => return Err(self.err("unterminated block comment")),
                            Some(b'*') if self.peek2() == Some(b'/') => {
                                self.bump();
                                self.bump();
                                break;
                            }
                            _ => {
                                self.bump();
                            }
                        }
                    }
                }
                _ => return Ok(()),
            }
        }
    }

    /// The source text from `start` to the current position. Token
    /// boundaries always fall between ASCII bytes.
    fn text_from(&self, start: usize) -> &'a str {
        &self.src[start..self.pos]
    }

    fn next_tok(&mut self) -> Result<(Tok<'a>, u32, u32), ParseError> {
        self.skip_trivia()?;
        let (line, col) = (self.line, self.col);
        let Some(c) = self.peek() else {
            return Ok((Tok::Eof, line, col));
        };
        let tok = if c.is_ascii_alphabetic() || c == b'_' {
            let start = self.pos;
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == b'_')
            {
                self.bump();
            }
            Tok::Ident(self.text_from(start))
        } else if c.is_ascii_digit() {
            let start = self.pos;
            while self.peek().is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
            let text = self.text_from(start);
            let v: i64 = text
                .parse()
                .map_err(|_| self.err(format!("number out of range: {text}")))?;
            Tok::Num(v)
        } else {
            // Two-character operators first.
            let two: Option<&'static str> = match (c, self.peek2()) {
                (b'=', Some(b'=')) => Some("=="),
                (b'!', Some(b'=')) => Some("!="),
                (b'<', Some(b'=')) => Some("<="),
                (b'>', Some(b'=')) => Some(">="),
                (b'<', Some(b'<')) => Some("<<"),
                (b'>', Some(b'>')) => Some(">>"),
                _ => None,
            };
            if let Some(p) = two {
                self.bump();
                self.bump();
                Tok::Punct(p)
            } else {
                let p: &'static str = match c {
                    b'(' => "(",
                    b')' => ")",
                    b'{' => "{",
                    b'}' => "}",
                    b'[' => "[",
                    b']' => "]",
                    b';' => ";",
                    b':' => ":",
                    b',' => ",",
                    b'=' => "=",
                    b'+' => "+",
                    b'-' => "-",
                    b'*' => "*",
                    b'/' => "/",
                    b'&' => "&",
                    b'|' => "|",
                    b'^' => "^",
                    b'~' => "~",
                    b'<' => "<",
                    b'>' => ">",
                    _ => return Err(self.err(format!("unexpected character {:?}", c as char))),
                };
                self.bump();
                Tok::Punct(p)
            }
        };
        Ok((tok, line, col))
    }
}

/// Raw statements collected before block formation.
#[derive(Debug, Clone, Copy)]
enum RawStmt<'a> {
    Label(&'a str),
    Assign(&'a str, ExprId),
    MemStore(ExprId, ExprId),
    Goto(&'a str),
    IfGoto(ExprId, &'a str),
    Return(Option<ExprId>),
}

/// Index of an expression in the parser's arena.
#[derive(Debug, Clone, Copy)]
struct ExprId(u32);

/// Expression AST produced by the Pratt parser, lowered per block. The
/// nodes of every expression in the function live in one arena, and
/// operands refer to each other by [`ExprId`].
#[derive(Debug, Clone, Copy)]
enum Expr<'a> {
    Num(i64),
    Var(&'a str),
    MemLoad(ExprId),
    Unary(Op, ExprId),
    Binary(Op, ExprId, ExprId),
}

struct Parser<'a> {
    lx: Lexer<'a>,
    tok: Tok<'a>,
    line: u32,
    col: u32,
    exprs: Vec<Expr<'a>>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, ParseError> {
        let mut lx = Lexer::new(src);
        let (tok, line, col) = lx.next_tok()?;
        Ok(Parser {
            lx,
            tok,
            line,
            col,
            exprs: Vec::new(),
        })
    }

    fn err(&self, msg: impl Into<String>) -> ParseError {
        ParseError {
            msg: msg.into(),
            line: self.line,
            col: self.col,
        }
    }

    fn advance(&mut self) -> Result<Tok<'a>, ParseError> {
        let (tok, line, col) = self.lx.next_tok()?;
        self.line = line;
        self.col = col;
        Ok(std::mem::replace(&mut self.tok, tok))
    }

    fn expect_punct(&mut self, p: &str) -> Result<(), ParseError> {
        if matches!(self.tok, Tok::Punct(q) if q == p) {
            self.advance()?;
            Ok(())
        } else {
            Err(self.err(format!("expected `{p}`, found {:?}", self.tok)))
        }
    }

    fn eat_punct(&mut self, p: &str) -> Result<bool, ParseError> {
        if matches!(self.tok, Tok::Punct(q) if q == p) {
            self.advance()?;
            Ok(true)
        } else {
            Ok(false)
        }
    }

    fn expect_ident(&mut self) -> Result<&'a str, ParseError> {
        match self.advance()? {
            Tok::Ident(s) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn push(&mut self, e: Expr<'a>) -> ExprId {
        let id = ExprId(self.exprs.len() as u32);
        self.exprs.push(e);
        id
    }

    // Precedence climbing. Lower number binds looser.
    fn binop_prec(p: &str) -> Option<(Op, u8)> {
        Some(match p {
            "|" => (Op::Or, 1),
            "^" => (Op::Xor, 2),
            "&" => (Op::And, 3),
            "==" => (Op::CmpEq, 4),
            "!=" => (Op::CmpNe, 4),
            "<" => (Op::CmpLt, 5),
            "<=" => (Op::CmpLe, 5),
            ">" => (Op::CmpGt, 5),
            ">=" => (Op::CmpGe, 5),
            "<<" => (Op::Shl, 6),
            ">>" => (Op::Shr, 6),
            "+" => (Op::Add, 7),
            "-" => (Op::Sub, 7),
            "*" => (Op::Mul, 8),
            "/" => (Op::Div, 8),
            _ => return None,
        })
    }

    fn parse_expr(&mut self) -> Result<ExprId, ParseError> {
        self.parse_bin(0)
    }

    fn parse_bin(&mut self, min_prec: u8) -> Result<ExprId, ParseError> {
        let mut lhs = self.parse_unary()?;
        while let Tok::Punct(p) = self.tok {
            let Some((op, prec)) = Self::binop_prec(p) else {
                break;
            };
            if prec < min_prec {
                break;
            }
            self.advance()?;
            let rhs = self.parse_bin(prec + 1)?;
            lhs = self.push(Expr::Binary(op, lhs, rhs));
        }
        Ok(lhs)
    }

    fn parse_unary(&mut self) -> Result<ExprId, ParseError> {
        if self.eat_punct("-")? {
            let a = self.parse_unary()?;
            return Ok(self.push(Expr::Unary(Op::Neg, a)));
        }
        if self.eat_punct("~")? {
            let a = self.parse_unary()?;
            return Ok(self.push(Expr::Unary(Op::Compl, a)));
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<ExprId, ParseError> {
        match self.tok {
            Tok::Num(v) => {
                self.advance()?;
                Ok(self.push(Expr::Num(v)))
            }
            Tok::Punct("(") => {
                self.advance()?;
                let e = self.parse_expr()?;
                self.expect_punct(")")?;
                Ok(e)
            }
            Tok::Ident(name) => {
                self.advance()?;
                match name {
                    "mem" => {
                        self.expect_punct("[")?;
                        let addr = self.parse_expr()?;
                        self.expect_punct("]")?;
                        Ok(self.push(Expr::MemLoad(addr)))
                    }
                    "abs" => {
                        self.expect_punct("(")?;
                        let e = self.parse_expr()?;
                        self.expect_punct(")")?;
                        Ok(self.push(Expr::Unary(Op::Abs, e)))
                    }
                    "min" | "max" => {
                        let op = if name == "min" { Op::Min } else { Op::Max };
                        self.expect_punct("(")?;
                        let a = self.parse_expr()?;
                        self.expect_punct(",")?;
                        let b = self.parse_expr()?;
                        self.expect_punct(")")?;
                        Ok(self.push(Expr::Binary(op, a, b)))
                    }
                    _ => Ok(self.push(Expr::Var(name))),
                }
            }
            other => Err(self.err(format!("expected expression, found {other:?}"))),
        }
    }

    fn parse_stmt(&mut self) -> Result<RawStmt<'a>, ParseError> {
        match self.tok {
            Tok::Ident(name) => match name {
                "goto" => {
                    self.advance()?;
                    let target = self.expect_ident()?;
                    self.expect_punct(";")?;
                    Ok(RawStmt::Goto(target))
                }
                "if" => {
                    self.advance()?;
                    self.expect_punct("(")?;
                    let cond = self.parse_expr()?;
                    self.expect_punct(")")?;
                    let kw = self.expect_ident()?;
                    if kw != "goto" {
                        return Err(self.err("expected `goto` after if condition"));
                    }
                    let target = self.expect_ident()?;
                    self.expect_punct(";")?;
                    Ok(RawStmt::IfGoto(cond, target))
                }
                "return" => {
                    self.advance()?;
                    if self.eat_punct(";")? {
                        Ok(RawStmt::Return(None))
                    } else {
                        let e = self.parse_expr()?;
                        self.expect_punct(";")?;
                        Ok(RawStmt::Return(Some(e)))
                    }
                }
                "mem" => {
                    self.advance()?;
                    self.expect_punct("[")?;
                    let addr = self.parse_expr()?;
                    self.expect_punct("]")?;
                    self.expect_punct("=")?;
                    let val = self.parse_expr()?;
                    self.expect_punct(";")?;
                    Ok(RawStmt::MemStore(addr, val))
                }
                _ => {
                    self.advance()?;
                    if self.eat_punct(":")? {
                        Ok(RawStmt::Label(name))
                    } else {
                        self.expect_punct("=")?;
                        let e = self.parse_expr()?;
                        self.expect_punct(";")?;
                        Ok(RawStmt::Assign(name, e))
                    }
                }
            },
            other => Err(self.err(format!("expected statement, found {other:?}"))),
        }
    }
}

/// Block lowering state: the expression arena, the DAG being built, the
/// local variable bindings and the last memory operation for
/// serialization edges. The binding buffers are cleared, not dropped,
/// between blocks.
struct BlockLowerer<'a, 'f> {
    exprs: &'f [Expr<'a>],
    syms: &'f mut SymbolTable,
    dag: BlockDag,
    locals: HashMap<&'a str, NodeId>,
    assigned: Vec<&'a str>,
    last_mem: Option<NodeId>,
}

impl<'a, 'f> BlockLowerer<'a, 'f> {
    fn new(exprs: &'f [Expr<'a>], syms: &'f mut SymbolTable) -> Self {
        BlockLowerer {
            exprs,
            syms,
            dag: BlockDag::new(),
            locals: HashMap::new(),
            assigned: Vec::new(),
            last_mem: None,
        }
    }

    fn lower_expr(&mut self, e: ExprId) -> NodeId {
        match self.exprs[e.0 as usize] {
            Expr::Num(v) => self.dag.add_const(v),
            Expr::Var(name) => {
                if let Some(&n) = self.locals.get(name) {
                    n
                } else {
                    let s = self.syms.intern(name);
                    self.dag.add_input(s)
                }
            }
            Expr::MemLoad(addr) => {
                let a = self.lower_expr(addr);
                let n = self.dag.add_op(Op::Load, &[a]);
                // Serialize against the previous memory operation. Loads
                // never conflict with other loads, but keeping a single
                // chain is simple and conservative.
                if let Some(prev) = self.last_mem {
                    if prev != n {
                        self.dag.add_mem_dep(prev.min(n), prev.max(n));
                    }
                }
                self.last_mem = Some(self.last_mem.map_or(n, |p| p.max(n)));
                n
            }
            Expr::Unary(op, a) => {
                let na = self.lower_expr(a);
                self.dag.add_op(op, &[na])
            }
            Expr::Binary(op, a, b) => {
                let na = self.lower_expr(a);
                let nb = self.lower_expr(b);
                self.dag.add_op(op, &[na, nb])
            }
        }
    }

    fn assign(&mut self, name: &'a str, e: ExprId) {
        let v = self.lower_expr(e);
        if self.locals.insert(name, v).is_none() {
            self.assigned.push(name);
        }
    }

    fn mem_store(&mut self, addr: ExprId, val: ExprId) {
        let a = self.lower_expr(addr);
        let v = self.lower_expr(val);
        let s = self.dag.add_store(a, v);
        if let Some(prev) = self.last_mem {
            self.dag.add_mem_dep(prev, s);
        }
        self.last_mem = Some(s);
    }

    /// Finish the block: write every assigned variable back (in first-
    /// assignment order), return its DAG and reset for the next block.
    fn finish(&mut self) -> BlockDag {
        for &name in &self.assigned {
            let v = self.locals[name];
            let s = self.syms.intern(name);
            self.dag.add_store_var(s, v);
        }
        self.locals.clear();
        self.assigned.clear();
        self.last_mem = None;
        std::mem::take(&mut self.dag)
    }
}

/// A block before lowering: its label, the range of its body statements
/// in the function's body list, and its terminator (`None` falls through
/// to the next block).
struct ProtoBlock<'a> {
    label: Option<&'a str>,
    body: Range<usize>,
    term: Option<RawStmt<'a>>,
}

impl<'a> ProtoBlock<'a> {
    fn starting_at(body_start: usize) -> Self {
        ProtoBlock {
            label: None,
            body: body_start..body_start,
            term: None,
        }
    }
}

/// Parse one function in the mini language into a [`Function`].
///
/// # Errors
///
/// Returns a [`ParseError`] with source position on any lexical, syntactic,
/// or label-resolution failure.
pub fn parse_function(src: &str) -> Result<Function, ParseError> {
    let mut p = Parser::new(src)?;
    let kw = p.expect_ident()?;
    if kw != "func" {
        return Err(p.err("expected `func`"));
    }
    let name = p.expect_ident()?.to_owned();
    p.expect_punct("(")?;
    let mut param_names = Vec::new();
    if !p.eat_punct(")")? {
        loop {
            param_names.push(p.expect_ident()?);
            if p.eat_punct(")")? {
                break;
            }
            p.expect_punct(",")?;
        }
    }
    p.expect_punct("{")?;

    // Split the statements into blocks as they are parsed. A label starts
    // a new block; a control statement ends one. Body statements of all
    // blocks share one list, each block owning a contiguous range.
    let mut bodies: Vec<RawStmt> = Vec::new();
    let mut protos: Vec<ProtoBlock> = vec![ProtoBlock::starting_at(0)];
    while !p.eat_punct("}")? {
        if p.tok == Tok::Eof {
            return Err(p.err("unexpected end of input inside function body"));
        }
        let s = p.parse_stmt()?;
        let cur = protos.last_mut().unwrap();
        match s {
            RawStmt::Label(l) => {
                // Labels always start a fresh block (the current one falls
                // through), except when the current block is still empty
                // and unlabeled.
                if cur.body.is_empty() && cur.label.is_none() && cur.term.is_none() {
                    cur.label = Some(l);
                } else {
                    protos.push(ProtoBlock {
                        label: Some(l),
                        ..ProtoBlock::starting_at(bodies.len())
                    });
                }
            }
            RawStmt::Goto(_) | RawStmt::IfGoto(..) | RawStmt::Return(_) => {
                if cur.term.is_some() {
                    // Unreachable statement after a terminator: start an
                    // anonymous block so label-less dead code still parses.
                    protos.push(ProtoBlock {
                        term: Some(s),
                        ..ProtoBlock::starting_at(bodies.len())
                    });
                } else {
                    cur.term = Some(s);
                }
            }
            body_stmt => {
                if cur.term.is_some() {
                    protos.push(ProtoBlock::starting_at(bodies.len()));
                }
                bodies.push(body_stmt);
                protos.last_mut().unwrap().body.end += 1;
            }
        }
    }

    let mut syms = SymbolTable::new();
    let params: Vec<Sym> = param_names.iter().map(|n| syms.intern(n)).collect();

    // Resolve labels to block ids.
    let mut label_map: HashMap<&str, BlockId> = HashMap::new();
    for (i, pb) in protos.iter().enumerate() {
        if let Some(l) = pb.label {
            if label_map.insert(l, BlockId(i as u32)).is_some() {
                return Err(ParseError {
                    msg: format!("duplicate label `{l}`"),
                    line: 0,
                    col: 0,
                });
            }
        }
    }
    let resolve = |l: &str| -> Result<BlockId, ParseError> {
        label_map.get(l).copied().ok_or_else(|| ParseError {
            msg: format!("unknown label `{l}`"),
            line: 0,
            col: 0,
        })
    };

    let nblocks = protos.len();
    let mut blocks = Vec::with_capacity(nblocks);
    let mut lower = BlockLowerer::new(&p.exprs, &mut syms);
    for (i, pb) in protos.iter().enumerate() {
        let label = pb.label.map(|l| lower.syms.intern(l));
        for s in &bodies[pb.body.clone()] {
            match *s {
                RawStmt::Assign(n, e) => lower.assign(n, e),
                RawStmt::MemStore(a, v) => lower.mem_store(a, v),
                _ => unreachable!("labels/terminators filtered above"),
            }
        }
        let next = BlockId((i + 1) as u32);
        let fallthrough_ok = i + 1 < nblocks;
        let term = match pb.term {
            Some(RawStmt::Goto(l)) => Terminator::Jump(resolve(l)?),
            Some(RawStmt::IfGoto(cond, l)) => {
                let c = lower.lower_expr(cond);
                if !fallthrough_ok {
                    return Err(ParseError {
                        msg: "conditional branch at end of function has no fallthrough".into(),
                        line: 0,
                        col: 0,
                    });
                }
                // The condition must survive until the terminator executes:
                // record it live-out under a synthetic name so the code
                // generator keeps it in a register.
                let csym = lower.syms.fresh("__cond");
                lower.dag.mark_live_out(csym, c);
                Terminator::Branch {
                    cond: c,
                    if_true: resolve(l)?,
                    if_false: next,
                }
            }
            Some(RawStmt::Return(Some(e))) => {
                let v = lower.lower_expr(e);
                let rsym = lower.syms.fresh("__ret");
                lower.dag.mark_live_out(rsym, v);
                Terminator::Return(Some(v))
            }
            Some(RawStmt::Return(None)) => Terminator::Return(None),
            Some(_) => unreachable!(),
            None => {
                if fallthrough_ok {
                    Terminator::Jump(next)
                } else {
                    Terminator::Return(None)
                }
            }
        };
        blocks.push(BasicBlock {
            label,
            dag: lower.finish(),
            term,
        });
    }

    let f = Function {
        name,
        params,
        blocks,
        entry: BlockId(0),
        syms,
    };
    f.validate().map_err(|e| ParseError {
        msg: format!("internal: lowered function failed validation: {e}"),
        line: 0,
        col: 0,
    })?;
    Ok(f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_builds_one_block() {
        let f = parse_function("func f(a, b, c) {\n  t = a + b;\n  u = t * c;\n  out = u - t;\n}")
            .unwrap();
        assert_eq!(f.blocks.len(), 1);
        let dag = &f.blocks[0].dag;
        // 3 inputs + add + mul + sub + 3 storev
        assert_eq!(dag.len(), 9);
        assert_eq!(dag.stores().len(), 3);
        assert!(matches!(f.blocks[0].term, Terminator::Return(None)));
    }

    #[test]
    fn reads_reuse_local_definitions() {
        let f = parse_function("func f(a) { t = a + a; u = t + t; }").unwrap();
        let dag = &f.blocks[0].dag;
        // input a, add, add, storev t, storev u = 5 nodes (value numbering
        // keeps one input).
        assert_eq!(dag.len(), 5);
    }

    #[test]
    fn control_flow_blocks_and_labels() {
        let src = "func f(x) {
            y = x + 1;
            if (y > 10) goto big;
            y = y * 2;
            goto done;
        big:
            y = y - 1;
        done:
            return y;
        }";
        let f = parse_function(src).unwrap();
        assert_eq!(f.blocks.len(), 4);
        match f.blocks[0].term {
            Terminator::Branch {
                if_true, if_false, ..
            } => {
                assert_eq!(if_true, BlockId(2));
                assert_eq!(if_false, BlockId(1));
            }
            ref t => panic!("expected branch, got {t:?}"),
        }
        assert!(matches!(f.blocks[1].term, Terminator::Jump(BlockId(3))));
        // big falls through to done.
        assert!(matches!(f.blocks[2].term, Terminator::Jump(BlockId(3))));
        assert!(matches!(f.blocks[3].term, Terminator::Return(Some(_))));
    }

    #[test]
    fn mem_ops_are_serialized() {
        let f = parse_function("func f(p) { mem[p] = 1; x = mem[p]; mem[p + 1] = x; }").unwrap();
        let dag = &f.blocks[0].dag;
        assert!(dag.mem_deps().len() >= 2, "store->load and load->store");
        // Serialization edges participate in dependence.
        let desc = dag.descendants();
        let stores = dag.stores();
        let first_store = stores[0];
        let second_store = *stores.iter().find(|&&s| s != first_store).unwrap();
        assert!(dag.dependent(&desc, first_store, second_store));
    }

    #[test]
    fn precedence_and_intrinsics() {
        let f = parse_function("func f(a, b) { x = a + b * 2; y = min(a, abs(-b)); }").unwrap();
        let dag = &f.blocks[0].dag;
        // x = add(a, mul(b, 2))
        let x_store = dag
            .iter()
            .find(|(_, n)| n.op == Op::StoreVar && n.sym.map(|s| f.syms.name(s)) == Some("x"))
            .unwrap();
        let add = dag.node(dag.node(x_store.0).args[0]);
        assert_eq!(add.op, Op::Add);
        assert_eq!(dag.node(add.args[1]).op, Op::Mul);
        assert!(dag.iter().any(|(_, n)| n.op == Op::Min));
        assert!(dag.iter().any(|(_, n)| n.op == Op::Abs));
        assert!(dag.iter().any(|(_, n)| n.op == Op::Neg));
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_function("func f() { x = ; }").unwrap_err();
        assert!(e.line >= 1 && e.col > 1, "{e}");
        assert!(parse_function("func f() { goto nowhere; }").is_err());
        assert!(
            parse_function("func f() { a: a: }").is_err() || {
                // duplicate label via two blocks
                parse_function("func f() { a: x = 1; a: y = 2; }").is_err()
            }
        );
    }

    #[test]
    fn unreachable_code_after_terminator_still_parses() {
        let f = parse_function("func f() { return; x = 1; }").unwrap();
        assert_eq!(f.blocks.len(), 2);
        f.validate().unwrap();
    }
}
