//! Parser for the practical query language of Section IV: the temporal extension of
//! the `MATCH` clause,
//!
//! ```text
//! MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-(y:Person {test = 'pos'})
//! ON contact_tracing
//! ```
//!
//! A pattern is a sequence of node patterns connected either by conventional edge
//! patterns `-[z:meets]->` or by temporal regular expressions `-/…/-` combining the
//! structural operators `FWD`/`BWD`, the temporal operators `NEXT`/`PREV`, label and
//! property tests, concatenation `/`, union `+`, the Kleene star `*` and numerical
//! occurrence indicators `[n, m]` / `[n, _]`.

pub mod lexer;

use tgraph::{Time, Value};

use crate::ast::Axis;
use crate::error::{QueryError, Result};
use lexer::{tokenize, Spanned, Token};

/// Comparison operators usable in property constraints on the reserved word `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A single constraint inside curly braces, e.g. `risk = 'high'` or `time < '10'`.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// A property equality constraint `p = v`.
    Prop(String, Value),
    /// A constraint on the reserved word `time`.
    Time(CmpOp, Time),
}

/// A node pattern `(x:Person {risk = 'high'})`; every component is optional.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodePattern {
    /// The variable bound to the node, if any.
    pub var: Option<String>,
    /// The required node label, if any.
    pub label: Option<String>,
    /// Property and time constraints.
    pub constraints: Vec<Constraint>,
}

/// Direction of a conventional edge pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// `-[…]->`: the edge goes from the pattern on the left to the pattern on the
    /// right.
    Out,
    /// `<-[…]-`: the edge goes from the pattern on the right to the pattern on the
    /// left.
    In,
}

/// A conventional edge pattern `-[z:meets]->`.
#[derive(Debug, Clone, PartialEq)]
pub struct EdgePattern {
    /// The variable bound to the edge, if any.
    pub var: Option<String>,
    /// The required edge label, if any.
    pub label: Option<String>,
    /// Property and time constraints.
    pub constraints: Vec<Constraint>,
    /// Direction of the edge.
    pub direction: Direction,
}

/// Repetition attached to a regular-expression item: `(min, max)` where `max` is
/// `None` for open-ended indicators (`*` is `(0, None)`).
pub type Repetition = (u32, Option<u32>);

/// An atom of a temporal regular expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RegexAtom {
    /// A navigation operator `FWD`, `BWD`, `NEXT` or `PREV`.
    Axis(Axis),
    /// A label test `:Person`.
    Label(String),
    /// A property/time test `{test = 'pos'}`.
    Props(Vec<Constraint>),
    /// A parenthesised sub-expression.
    Group(Box<Regex>),
}

/// An atom with an optional repetition postfix.
#[derive(Debug, Clone, PartialEq)]
pub struct RegexItem {
    /// The atom.
    pub atom: RegexAtom,
    /// The repetition postfix (`*`, `[n, m]` or `[n, _]`), if any.
    pub repeat: Option<Repetition>,
}

/// A concatenation of items separated by `/`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegexSeq {
    /// The concatenated items, in order.
    pub items: Vec<RegexItem>,
}

/// A union (`+`) of concatenations — a full temporal regular expression.
#[derive(Debug, Clone, PartialEq)]
pub struct Regex {
    /// The alternatives of the union; a single alternative means no union.
    pub alternatives: Vec<RegexSeq>,
}

/// One element of a `MATCH` pattern.
#[derive(Debug, Clone, PartialEq)]
pub enum PatternPart {
    /// A node pattern.
    Node(NodePattern),
    /// A conventional edge pattern connecting the neighbouring node patterns.
    Edge(EdgePattern),
    /// A temporal regular expression connecting the neighbouring node patterns.
    Regex(Regex),
}

/// A parsed `MATCH … ON graph` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchClause {
    /// The pattern elements, alternating node patterns and connectors.
    pub parts: Vec<PatternPart>,
    /// The name of the graph given after `ON`.
    pub graph: String,
}

impl MatchClause {
    /// The variables bound by the pattern, left to right.
    pub fn variables(&self) -> Vec<&str> {
        self.parts
            .iter()
            .filter_map(|p| match p {
                PatternPart::Node(n) => n.var.as_deref(),
                PatternPart::Edge(e) => e.var.as_deref(),
                PatternPart::Regex(_) => None,
            })
            .collect()
    }
}

/// The deepest nesting of grouped path expressions `( … )` a query may have.
/// Parsing, compiling, auditing, analysing and executing a query, and dropping
/// it, each recurse once per group level, so a bound keeps every stage within
/// a 2 MiB thread stack, unoptimised builds included; deeper text is a
/// positioned [`QueryError::Parse`].
pub const MAX_GROUP_DEPTH: usize = 64;

/// Parses a complete `MATCH … ON graph` clause.
pub fn parse_match(input: &str) -> Result<MatchClause> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0, len: input.len(), depth: 0 };
    let clause = parser.match_clause()?;
    parser.expect_end()?;
    Ok(clause)
}

/// Parses a bare temporal regular expression (the part between `-/` and `/-`).
pub fn parse_regex(input: &str) -> Result<Regex> {
    let tokens = tokenize(input)?;
    let mut parser = Parser { tokens, pos: 0, len: input.len(), depth: 0 };
    let regex = parser.regex()?;
    parser.expect_end()?;
    Ok(regex)
}

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    len: usize,
    /// Groups open at the current position.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|s| &s.token)
    }

    fn peek_at(&self, offset: usize) -> Option<&Token> {
        self.tokens.get(self.pos + offset).map(|s| &s.token)
    }

    fn position(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.len, |s| s.position)
    }

    fn advance(&mut self) -> Option<Token> {
        let tok = self.tokens.get(self.pos).map(|s| s.token.clone());
        if tok.is_some() {
            self.pos += 1;
        }
        tok
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(QueryError::Parse { message: message.into(), position: self.position() })
    }

    fn expect(&mut self, expected: &Token, what: &str) -> Result<()> {
        match self.peek() {
            Some(t) if t == expected => {
                self.pos += 1;
                Ok(())
            }
            other => self.error(format!("expected {what}, found {other:?}")),
        }
    }

    fn expect_end(&self) -> Result<()> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            self.error("unexpected trailing input")
        }
    }

    fn keyword(&mut self, word: &str) -> Result<()> {
        match self.peek() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(word) => {
                self.pos += 1;
                Ok(())
            }
            other => self.error(format!("expected keyword {word}, found {other:?}")),
        }
    }

    fn ident(&mut self, what: &str) -> Result<String> {
        match self.advance() {
            Some(Token::Ident(s)) => Ok(s),
            other => self.error(format!("expected {what}, found {other:?}")),
        }
    }

    fn match_clause(&mut self) -> Result<MatchClause> {
        self.keyword("MATCH")?;
        let mut parts = Vec::new();
        parts.push(PatternPart::Node(self.node_pattern()?));
        while let Some(Token::Dash | Token::Lt) = self.peek() {
            let connector = self.connector()?;
            parts.push(connector);
            parts.push(PatternPart::Node(self.node_pattern()?));
        }
        self.keyword("ON")?;
        let graph = self.ident("graph name after ON")?;
        Ok(MatchClause { parts, graph })
    }

    fn node_pattern(&mut self) -> Result<NodePattern> {
        self.expect(&Token::LParen, "'(' starting a node pattern")?;
        let mut pattern = NodePattern::default();
        if let Some(Token::Ident(_)) = self.peek() {
            if let Some(Token::Ident(name)) = self.advance() {
                pattern.var = Some(name);
            }
        }
        if self.peek() == Some(&Token::Colon) {
            self.pos += 1;
            pattern.label = Some(self.ident("node label after ':'")?);
        }
        if self.peek() == Some(&Token::LBrace) {
            pattern.constraints = self.constraints()?;
        }
        self.expect(&Token::RParen, "')' closing a node pattern")?;
        Ok(pattern)
    }

    fn constraints(&mut self) -> Result<Vec<Constraint>> {
        self.expect(&Token::LBrace, "'{'")?;
        let mut out = Vec::new();
        loop {
            out.push(self.constraint()?);
            match self.peek() {
                Some(Token::Ident(s)) if s.eq_ignore_ascii_case("and") => {
                    self.pos += 1;
                }
                _ => break,
            }
        }
        self.expect(&Token::RBrace, "'}' closing the property constraints")?;
        Ok(out)
    }

    fn constraint(&mut self) -> Result<Constraint> {
        let name = self.ident("property name")?;
        let op = match self.advance() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => return self.error(format!("expected a comparison operator, found {other:?}")),
        };
        let literal = self.advance();
        if name.eq_ignore_ascii_case("time") {
            // The reserved word `time` compares the time point of the temporal object.
            let value = match literal {
                Some(Token::Number(n)) => n,
                Some(Token::Str(s)) => s.trim().parse::<Time>().map_err(|_| QueryError::Parse {
                    message: format!("'{s}' is not a valid time point"),
                    position: self.position(),
                })?,
                other => return self.error(format!("expected a time literal, found {other:?}")),
            };
            Ok(Constraint::Time(op, value))
        } else {
            if op != CmpOp::Eq {
                return self.error("only '=' comparisons are supported on property values");
            }
            let value = match literal {
                Some(Token::Str(s)) => Value::Str(s),
                Some(Token::Number(n)) => Value::Int(n as i64),
                other => return self.error(format!("expected a literal value, found {other:?}")),
            };
            Ok(Constraint::Prop(name, value))
        }
    }

    fn connector(&mut self) -> Result<PatternPart> {
        // `<-[…]-` starts with '<'; `-[…]->` and `-/…/-` start with '-'.
        if self.peek() == Some(&Token::Lt) {
            self.pos += 1;
            self.expect(&Token::Dash, "'-' after '<'")?;
            let mut edge = self.edge_body()?;
            edge.direction = Direction::In;
            self.expect(&Token::Dash, "'-' closing an incoming edge pattern")?;
            return Ok(PatternPart::Edge(edge));
        }
        self.expect(&Token::Dash, "'-' starting a connector")?;
        match self.peek() {
            Some(Token::LBracket) => {
                let edge = self.edge_body()?;
                self.expect(&Token::Dash, "'-' of '->' closing an edge pattern")?;
                self.expect(&Token::Gt, "'>' of '->' closing an edge pattern")?;
                Ok(PatternPart::Edge(edge))
            }
            Some(Token::Slash) => {
                self.pos += 1;
                let regex = self.regex()?;
                self.expect(&Token::Slash, "'/' closing a path expression")?;
                self.expect(&Token::Dash, "'-' closing a path expression")?;
                Ok(PatternPart::Regex(regex))
            }
            other => self.error(format!("expected '[' or '/' after '-', found {other:?}")),
        }
    }

    fn edge_body(&mut self) -> Result<EdgePattern> {
        self.expect(&Token::LBracket, "'[' starting an edge pattern")?;
        let mut edge = EdgePattern {
            var: None,
            label: None,
            constraints: Vec::new(),
            direction: Direction::Out,
        };
        if let Some(Token::Ident(_)) = self.peek() {
            if let Some(Token::Ident(name)) = self.advance() {
                edge.var = Some(name);
            }
        }
        if self.peek() == Some(&Token::Colon) {
            self.pos += 1;
            edge.label = Some(self.ident("edge label after ':'")?);
        }
        if self.peek() == Some(&Token::LBrace) {
            edge.constraints = self.constraints()?;
        }
        self.expect(&Token::RBracket, "']' closing an edge pattern")?;
        Ok(edge)
    }

    fn regex(&mut self) -> Result<Regex> {
        let mut alternatives = vec![self.regex_seq()?];
        while self.peek() == Some(&Token::Plus) {
            self.pos += 1;
            alternatives.push(self.regex_seq()?);
        }
        Ok(Regex { alternatives })
    }

    fn regex_seq(&mut self) -> Result<RegexSeq> {
        let mut items = vec![self.regex_item()?];
        loop {
            // A '/' continues the concatenation unless it is the '/' of the closing
            // '/-' delimiter (i.e. followed by '-').
            if self.peek() == Some(&Token::Slash) && self.peek_at(1) != Some(&Token::Dash) {
                self.pos += 1;
                items.push(self.regex_item()?);
            } else {
                break;
            }
        }
        Ok(RegexSeq { items })
    }

    fn regex_item(&mut self) -> Result<RegexItem> {
        let atom = match self.peek() {
            Some(Token::Ident(word)) => {
                let axis = match word.to_ascii_uppercase().as_str() {
                    "FWD" => Some(Axis::Fwd),
                    "BWD" => Some(Axis::Bwd),
                    "NEXT" => Some(Axis::Next),
                    "PREV" => Some(Axis::Prev),
                    _ => None,
                };
                match axis {
                    Some(a) => {
                        self.pos += 1;
                        RegexAtom::Axis(a)
                    }
                    None => {
                        return self.error(format!(
                            "unknown navigation operator '{word}' (expected FWD, BWD, NEXT or PREV)"
                        ))
                    }
                }
            }
            Some(Token::Colon) => {
                self.pos += 1;
                RegexAtom::Label(self.ident("label after ':'")?)
            }
            Some(Token::LBrace) => RegexAtom::Props(self.constraints()?),
            Some(Token::LParen) => {
                if self.depth == MAX_GROUP_DEPTH {
                    return self.error(format!(
                        "grouped path expressions nest deeper than {MAX_GROUP_DEPTH} levels"
                    ));
                }
                self.pos += 1;
                self.depth += 1;
                let inner = self.regex()?;
                self.depth -= 1;
                self.expect(&Token::RParen, "')' closing a grouped path expression")?;
                RegexAtom::Group(Box::new(inner))
            }
            other => {
                return self.error(format!("expected a path expression atom, found {other:?}"))
            }
        };
        let repeat = self.repetition()?;
        Ok(RegexItem { atom, repeat })
    }

    fn repetition(&mut self) -> Result<Option<Repetition>> {
        match self.peek() {
            Some(Token::Star) => {
                self.pos += 1;
                Ok(Some((0, None)))
            }
            Some(Token::LBracket) => {
                self.pos += 1;
                let lo = match self.advance() {
                    Some(Token::Number(n)) => n,
                    other => {
                        return self
                            .error(format!("expected a repetition lower bound, found {other:?}"))
                    }
                };
                self.expect(&Token::Comma, "',' in a numerical occurrence indicator")?;
                let hi = match self.advance() {
                    Some(Token::Number(n)) => Some(n),
                    Some(Token::Underscore) => None,
                    other => {
                        return self.error(format!(
                            "expected a repetition upper bound or '_', found {other:?}"
                        ))
                    }
                };
                self.expect(&Token::RBracket, "']' closing a numerical occurrence indicator")?;
                let lo = u32::try_from(lo).map_err(|_| QueryError::Parse {
                    message: "repetition lower bound is too large".to_owned(),
                    position: self.position(),
                })?;
                let hi = match hi {
                    Some(h) => Some(u32::try_from(h).map_err(|_| QueryError::Parse {
                        message: "repetition upper bound is too large".to_owned(),
                        position: self.position(),
                    })?),
                    None => None,
                };
                // An indicator with `lo > hi` is grammatically valid; its repetition
                // range is empty, so the expression relates nothing (the rewrite and
                // the evaluators give it the empty semantics).
                Ok(Some((lo, hi)))
            }
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_q1_simple_node_pattern() {
        let q = parse_match("MATCH (x:Person) ON contact_tracing").unwrap();
        assert_eq!(q.graph, "contact_tracing");
        assert_eq!(q.parts.len(), 1);
        match &q.parts[0] {
            PatternPart::Node(n) => {
                assert_eq!(n.var.as_deref(), Some("x"));
                assert_eq!(n.label.as_deref(), Some("Person"));
                assert!(n.constraints.is_empty());
            }
            other => panic!("unexpected part {other:?}"),
        }
        assert_eq!(q.variables(), vec!["x"]);
    }

    #[test]
    fn parses_property_and_time_constraints() {
        let q = parse_match("MATCH (x:Person {risk = 'low' AND time = '1'}) ON contact_tracing")
            .unwrap();
        match &q.parts[0] {
            PatternPart::Node(n) => {
                assert_eq!(n.constraints.len(), 2);
                assert_eq!(n.constraints[0], Constraint::Prop("risk".into(), Value::str("low")));
                assert_eq!(n.constraints[1], Constraint::Time(CmpOp::Eq, 1));
            }
            other => panic!("unexpected part {other:?}"),
        }
        let q4 = parse_match("MATCH (x:Person {risk = 'low' AND time < '10'}) ON g").unwrap();
        match &q4.parts[0] {
            PatternPart::Node(n) => assert_eq!(n.constraints[1], Constraint::Time(CmpOp::Lt, 10)),
            other => panic!("unexpected part {other:?}"),
        }
    }

    #[test]
    fn parses_edge_patterns() {
        let q = parse_match(
            "MATCH (x:Person {risk = 'low'})-[z:meets]->(y:Person {risk = 'high'}) ON g",
        )
        .unwrap();
        assert_eq!(q.parts.len(), 3);
        match &q.parts[1] {
            PatternPart::Edge(e) => {
                assert_eq!(e.var.as_deref(), Some("z"));
                assert_eq!(e.label.as_deref(), Some("meets"));
                assert_eq!(e.direction, Direction::Out);
            }
            other => panic!("unexpected part {other:?}"),
        }
        assert_eq!(q.variables(), vec!["x", "z", "y"]);

        let q = parse_match("MATCH (a)<-[:visits]-(b) ON g").unwrap();
        match &q.parts[1] {
            PatternPart::Edge(e) => {
                assert_eq!(e.direction, Direction::In);
                assert_eq!(e.label.as_deref(), Some("visits"));
                assert_eq!(e.var, None);
            }
            other => panic!("unexpected part {other:?}"),
        }
    }

    #[test]
    fn parses_the_contact_tracing_regex() {
        let q = parse_match(
            "MATCH (x:Person {risk = 'high'})-/FWD/:meets/FWD/NEXT*/-(y:Person {test = 'pos'}) \
             ON contact_tracing",
        )
        .unwrap();
        assert_eq!(q.parts.len(), 3);
        match &q.parts[1] {
            PatternPart::Regex(r) => {
                assert_eq!(r.alternatives.len(), 1);
                let items = &r.alternatives[0].items;
                assert_eq!(items.len(), 4);
                assert_eq!(items[0].atom, RegexAtom::Axis(Axis::Fwd));
                assert_eq!(items[1].atom, RegexAtom::Label("meets".into()));
                assert_eq!(items[2].atom, RegexAtom::Axis(Axis::Fwd));
                assert_eq!(items[3].atom, RegexAtom::Axis(Axis::Next));
                assert_eq!(items[3].repeat, Some((0, None)));
            }
            other => panic!("unexpected part {other:?}"),
        }
    }

    #[test]
    fn parses_numerical_occurrence_indicators_and_unions() {
        let q = parse_match(
            "MATCH (x:Person {risk = 'high'})-\
             /(FWD/:meets/FWD + FWD/:visits/FWD/:Room/BWD/:visits/BWD)/NEXT[0,12]/-\
             ({test = 'pos'}) ON contact_tracing",
        )
        .unwrap();
        match &q.parts[1] {
            PatternPart::Regex(r) => {
                assert_eq!(r.alternatives.len(), 1);
                let items = &r.alternatives[0].items;
                assert_eq!(items.len(), 2);
                match &items[0].atom {
                    RegexAtom::Group(inner) => {
                        assert_eq!(inner.alternatives.len(), 2);
                        assert_eq!(inner.alternatives[0].items.len(), 3);
                        assert_eq!(inner.alternatives[1].items.len(), 7);
                    }
                    other => panic!("unexpected atom {other:?}"),
                }
                assert_eq!(items[1].atom, RegexAtom::Axis(Axis::Next));
                assert_eq!(items[1].repeat, Some((0, Some(12))));
            }
            other => panic!("unexpected part {other:?}"),
        }
        // The last node pattern has only a property constraint.
        match &q.parts[2] {
            PatternPart::Node(n) => {
                assert_eq!(n.var, None);
                assert_eq!(n.label, None);
                assert_eq!(n.constraints.len(), 1);
            }
            other => panic!("unexpected part {other:?}"),
        }
    }

    #[test]
    fn parses_open_ended_indicators() {
        let r = parse_regex("PREV[2,_]/FWD").unwrap();
        assert_eq!(r.alternatives[0].items[0].repeat, Some((2, None)));
        assert_eq!(r.alternatives[0].items.len(), 2);
    }

    #[test]
    fn rejects_malformed_queries() {
        assert!(parse_match("MATCH (x:Person) contact_tracing").is_err());
        assert!(parse_match("MATCH x:Person ON g").is_err());
        assert!(parse_match("MATCH (x:Person {risk > 'low'}) ON g").is_err());
        assert!(parse_match("MATCH (x)-/UP/-(y) ON g").is_err());
        assert!(parse_match("MATCH (x)-/NEXT/-(y) ON g extra").is_err());
        assert!(parse_regex("FWD/").is_err());
    }

    /// `depth` nested groups around `FWD`, as the regex of a `MATCH` clause.
    fn nested(depth: usize) -> String {
        format!("MATCH (x)-/{}FWD{}/-(y) ON g", "(".repeat(depth), ")".repeat(depth))
    }

    #[test]
    fn nesting_past_the_bound_is_a_positioned_error() {
        assert!(parse_match(&nested(MAX_GROUP_DEPTH)).is_ok());
        // The error points at the first group past the bound.
        let at = "MATCH (x)-/".len() + MAX_GROUP_DEPTH;
        match parse_match(&nested(MAX_GROUP_DEPTH + 1)) {
            Err(QueryError::Parse { position, .. }) => assert_eq!(position, at),
            other => panic!("expected a parse error, got {other:?}"),
        }
        // Far past it, on a thread with the default 2 MiB stack.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| matches!(parse_match(&nested(10_000)), Err(QueryError::Parse { .. })))
            .unwrap();
        assert!(deep.join().unwrap());
    }

    #[test]
    fn unsatisfiable_indicators_parse() {
        // [n, m] with n > m is grammatically valid; its semantics (the union over an
        // empty set of repetition counts) is the empty relation, decided downstream.
        let r = parse_regex("NEXT[5,2]").unwrap();
        assert_eq!(r.alternatives[0].items[0].repeat, Some((5, Some(2))));
        assert!(parse_match("MATCH (x)-/FWD[3,1]/-(y) ON g").is_ok());
    }

    #[test]
    fn multi_hop_patterns_alternate_nodes_and_connectors() {
        let q = parse_match(
            "MATCH (x:Person {test = 'pos'})-/PREV/-(y:Person)-[:visits]->(z:Room) ON g",
        )
        .unwrap();
        assert_eq!(q.parts.len(), 5);
        assert!(matches!(q.parts[0], PatternPart::Node(_)));
        assert!(matches!(q.parts[1], PatternPart::Regex(_)));
        assert!(matches!(q.parts[2], PatternPart::Node(_)));
        assert!(matches!(q.parts[3], PatternPart::Edge(_)));
        assert!(matches!(q.parts[4], PatternPart::Node(_)));
        assert_eq!(q.variables(), vec!["x", "y", "z"]);
    }
}
