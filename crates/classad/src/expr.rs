//! ClassAd expression AST and pretty-printing.
//!
//! Attribute and builtin names are interned [`Sym`]s: constructing,
//! cloning and comparing references costs no allocation, and scope
//! resolution in the evaluator compares symbol ids instead of strings.

use crate::value::Value;
use gintern::Sym;
use std::fmt;

/// Attribute-reference scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    /// Unscoped: look up in the evaluating ad first, then the target.
    None,
    /// `MY.attr` — only the evaluating ad.
    My,
    /// `TARGET.attr` — only the candidate ad.
    Target,
}

/// Binary operators, in the classic ClassAd grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Or,
    And,
    Eq,
    Ne,
    MetaEq,
    MetaNe,
    Lt,
    Le,
    Gt,
    Ge,
    Add,
    Sub,
    Mul,
    Div,
    Mod,
}

impl BinOp {
    /// Binding strength (higher binds tighter).
    pub fn precedence(self) -> u8 {
        match self {
            BinOp::Or => 1,
            BinOp::And => 2,
            BinOp::Eq | BinOp::Ne | BinOp::MetaEq | BinOp::MetaNe => 3,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
            BinOp::Add | BinOp::Sub => 5,
            BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
        }
    }

    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Or => "||",
            BinOp::And => "&&",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::MetaEq => "=?=",
            BinOp::MetaNe => "=!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    Not,
    Neg,
    Plus,
}

/// A ClassAd expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Lit(Value),
    /// Attribute reference (ClassAd names are case-insensitive).  Build
    /// it with [`Expr::attr`] or [`Expr::scoped_attr`].
    Attr {
        scope: Scope,
        /// The interned lowercase name: evaluation resolves it against
        /// an ad's keys as is, without folding case again.
        name: Sym,
        /// The name as written, for printing.
        printed: Sym,
    },
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `cond ? then : else`.
    Cond(Box<Expr>, Box<Expr>, Box<Expr>),
    /// Builtin function call.
    Call(Sym, Vec<Expr>),
}

/// Intern a name's lowercase form without allocating when it is already
/// lowercase.
pub(crate) fn intern_lower(name: &str) -> Sym {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        gintern::intern(&name.to_ascii_lowercase())
    } else {
        gintern::intern(name)
    }
}

impl Expr {
    pub fn attr(name: &str) -> Expr {
        Expr::Attr {
            scope: Scope::None,
            name: intern_lower(name),
            printed: gintern::intern(name),
        }
    }

    pub fn scoped_attr(scope: Scope, name: &str) -> Expr {
        Expr::Attr {
            scope,
            name: intern_lower(name),
            printed: gintern::intern(name),
        }
    }

    pub fn int(i: i64) -> Expr {
        Expr::Lit(Value::Int(i))
    }

    pub fn real(r: f64) -> Expr {
        Expr::Lit(Value::Real(r))
    }

    pub fn string(s: &str) -> Expr {
        Expr::Lit(Value::Str(s.to_string()))
    }

    pub fn boolean(b: bool) -> Expr {
        Expr::Lit(Value::Bool(b))
    }

    /// Canonical form: fold unary negation of numeric literals (the parser
    /// produces this form; `normalize` lets externally built ASTs compare
    /// equal after a print/parse cycle).
    pub fn normalize(self) -> Expr {
        match self {
            Expr::Unary(UnOp::Neg, e) => match e.normalize() {
                Expr::Lit(Value::Int(i)) => Expr::Lit(Value::Int(-i)),
                Expr::Lit(Value::Real(r)) => Expr::Lit(Value::Real(-r)),
                e => Expr::Unary(UnOp::Neg, Box::new(e)),
            },
            Expr::Unary(op, e) => Expr::Unary(op, Box::new(e.normalize())),
            Expr::Binary(op, a, b) => {
                Expr::Binary(op, Box::new(a.normalize()), Box::new(b.normalize()))
            }
            Expr::Cond(c, t, e) => Expr::Cond(
                Box::new(c.normalize()),
                Box::new(t.normalize()),
                Box::new(e.normalize()),
            ),
            Expr::Call(n, args) => Expr::Call(n, args.into_iter().map(Expr::normalize).collect()),
            e => e,
        }
    }

    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
        match self {
            Expr::Lit(v) => write!(f, "{v}"),
            Expr::Attr { scope, printed, .. } => match scope {
                Scope::None => write!(f, "{printed}"),
                Scope::My => write!(f, "MY.{printed}"),
                Scope::Target => write!(f, "TARGET.{printed}"),
            },
            Expr::Unary(op, e) => {
                let sym = match op {
                    UnOp::Not => "!",
                    UnOp::Neg => "-",
                    UnOp::Plus => "+",
                };
                write!(f, "{sym}")?;
                // Unary binds tighter than everything binary.
                e.fmt_prec(f, 7)
            }
            Expr::Binary(op, a, b) => {
                let prec = op.precedence();
                let need_parens = prec < parent_prec;
                if need_parens {
                    write!(f, "(")?;
                }
                a.fmt_prec(f, prec)?;
                write!(f, " {} ", op.symbol())?;
                // Left-associative: the right child needs parens at equal
                // precedence.
                b.fmt_prec(f, prec + 1)?;
                if need_parens {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Cond(c, t, e) => {
                let need_parens = parent_prec > 0;
                if need_parens {
                    write!(f, "(")?;
                }
                c.fmt_prec(f, 1)?;
                write!(f, " ? ")?;
                t.fmt_prec(f, 0)?;
                write!(f, " : ")?;
                e.fmt_prec(f, 0)?;
                if need_parens {
                    write!(f, ")")?;
                }
                Ok(())
            }
            Expr::Call(name, args) => {
                write!(f, "{name}(")?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    a.fmt_prec(f, 0)?;
                }
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn precedence_ordering() {
        assert!(BinOp::Mul.precedence() > BinOp::Add.precedence());
        assert!(BinOp::Add.precedence() > BinOp::Lt.precedence());
        assert!(BinOp::Lt.precedence() > BinOp::Eq.precedence());
        assert!(BinOp::Eq.precedence() > BinOp::And.precedence());
        assert!(BinOp::And.precedence() > BinOp::Or.precedence());
    }

    #[test]
    fn display_parenthesises_correctly() {
        // (1 + 2) * 3 keeps parens; 1 + 2 * 3 doesn't add them.
        let e = Expr::Binary(
            BinOp::Mul,
            Box::new(Expr::Binary(
                BinOp::Add,
                Box::new(Expr::int(1)),
                Box::new(Expr::int(2)),
            )),
            Box::new(Expr::int(3)),
        );
        assert_eq!(e.to_string(), "(1 + 2) * 3");
        let e2 = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::int(1)),
            Box::new(Expr::Binary(
                BinOp::Mul,
                Box::new(Expr::int(2)),
                Box::new(Expr::int(3)),
            )),
        );
        assert_eq!(e2.to_string(), "1 + 2 * 3");
    }

    #[test]
    fn attr_names_lowercased_but_printed_as_written() {
        let e = Expr::scoped_attr(Scope::Target, "CpuLoad");
        match &e {
            Expr::Attr { name, printed, .. } => {
                assert_eq!(name.as_str(), "cpuload");
                assert_eq!(printed.as_str(), "CpuLoad");
            }
            _ => unreachable!(),
        }
        assert_eq!(e.to_string(), "TARGET.CpuLoad");
    }

    #[test]
    fn display_cond_and_call() {
        let e = Expr::Cond(
            Box::new(Expr::attr("x")),
            Box::new(Expr::int(1)),
            Box::new(Expr::int(2)),
        );
        assert_eq!(e.to_string(), "x ? 1 : 2");
        let c = Expr::Call("floor".into(), vec![Expr::real(2.5)]);
        assert_eq!(c.to_string(), "floor(2.5)");
    }
}
