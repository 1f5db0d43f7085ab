//! A parser for an XPath-like textual subset.
//!
//! LotusX queries are built on a graphical canvas; this textual syntax is
//! the equivalent notation used in tests, benches and the CLI. Supported
//! grammar (whitespace is insignificant between tokens):
//!
//! ```text
//! query     := ["ordered"] path
//! path      := ("/" | "//")? step (("/" | "//") step)*      -- no leading slash means "//"
//! step      := (NAME | "*") "!"? predicate*
//! predicate := "[" body "]"
//! body      := "." valuetest
//!            | relpath valuetest?
//! relpath   := step (("/" | "//") step)*                    -- leading "//" allowed
//! valuetest := "="  STRING      -- exact (case-insensitive) text equality
//!            | "~"  STRING      -- all terms contained
//!            | ">=" NUMBER | "<=" NUMBER
//!            | "in" NUMBER ".." NUMBER
//! ```
//!
//! `!` marks a step as an output node (if no step is marked, the last step
//! of the main path is the output). Examples:
//!
//! ```
//! use lotusx_twig::xpath::parse_query;
//! let q = parse_query(r#"//book[year >= 2000][author ~ "lu"]/title"#).unwrap();
//! assert_eq!(q.len(), 4);
//! let q = parse_query("ordered //section/title").unwrap();
//! assert!(q.is_ordered());
//! ```

use crate::pattern::{Axis, NodeTest, QNodeId, TwigPattern, ValuePredicate};
use std::fmt;

/// A query-parsing error with a byte position and, when produced by
/// [`parse_query`], a rendered snippet of the offending input.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the query string.
    pub offset: usize,
    /// A two-line window of the input with a caret under the offset,
    /// shown by `Display`. `None` until [`ParseError::with_snippet`].
    pub snippet: Option<String>,
}

/// Bytes of query context shown on each side of the error offset.
const SNIPPET_RADIUS: usize = 30;

impl ParseError {
    /// Attaches a rendered context window of `input` around the error
    /// offset (a truncated copy of the query plus a caret line).
    pub fn with_snippet(mut self, input: &str) -> Self {
        let offset = self.offset.min(input.len());
        let mut start = offset.saturating_sub(SNIPPET_RADIUS);
        while !input.is_char_boundary(start) {
            start -= 1;
        }
        let mut end = (offset + SNIPPET_RADIUS).min(input.len());
        while !input.is_char_boundary(end) {
            end += 1;
        }
        let prefix = if start > 0 { "…" } else { "" };
        let suffix = if end < input.len() { "…" } else { "" };
        let window: String = input[start..end]
            .chars()
            .map(|c| if c == '\n' || c == '\t' { ' ' } else { c })
            .collect();
        let caret_col = prefix.chars().count() + input[start..offset].chars().count();
        self.snippet = Some(format!(
            "  {prefix}{window}{suffix}\n  {}^",
            " ".repeat(caret_col)
        ));
        self
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "query parse error at byte {}: {}",
            self.offset, self.message
        )?;
        if let Some(snippet) = &self.snippet {
            write!(f, "\n{snippet}")?;
        }
        Ok(())
    }
}

impl std::error::Error for ParseError {}

/// The most nodes a parsed pattern may have — more than ten times the
/// largest query any workload in the tree issues. Patterns are walked
/// recursively (this parser's predicate descent, `Display`, the
/// evaluators, the rewriter), so the cap on what the parser hands out is
/// what bounds all of those against a request body of nothing but steps.
pub const MAX_PATTERN_NODES: usize = 64;

/// Parses a query string into a [`TwigPattern`] of at most
/// [`MAX_PATTERN_NODES`] nodes. Errors carry a rendered snippet of the
/// input around the failure offset.
pub fn parse_query(input: &str) -> Result<TwigPattern, ParseError> {
    Parser::new(input)
        .parse()
        .map_err(|e| e.with_snippet(input))
}

struct Parser<'a> {
    input: &'a str,
    pos: usize,
    explicit_output: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            pos: 0,
            explicit_output: false,
        }
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            offset: self.pos,
            snippet: None,
        })
    }

    fn skip_ws(&mut self) {
        while self.input[self.pos..].starts_with(|c: char| c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.input[self.pos..].starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn parse(mut self) -> Result<TwigPattern, ParseError> {
        self.skip_ws();
        let ordered = self.eat_keyword("ordered");
        self.skip_ws();

        let root_axis = self.parse_leading_axis();
        let (root_test, root_output) = self.parse_name()?;
        let mut pattern = TwigPattern::new(root_test, root_axis);
        if root_output {
            pattern.set_output(pattern.root(), true);
            self.explicit_output = true;
        }
        let mut last = pattern.root();
        self.parse_predicates(&mut pattern, last)?;

        loop {
            self.skip_ws();
            let axis = if self.eat("//") {
                Axis::Descendant
            } else if self.eat("/") {
                Axis::Child
            } else {
                break;
            };
            last = self.add_step(&mut pattern, last, axis)?;
            self.parse_predicates(&mut pattern, last)?;
        }

        self.skip_ws();
        if self.pos != self.input.len() {
            return self.err("trailing input after query");
        }
        if !self.explicit_output {
            pattern.set_output(last, true);
        }
        pattern.set_ordered(ordered);
        Ok(pattern)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.input[self.pos..].starts_with(kw) {
            let after = self.input[self.pos + kw.len()..].chars().next();
            if matches!(after, Some(c) if c.is_whitespace()) {
                self.pos += kw.len();
                return true;
            }
        }
        false
    }

    fn parse_leading_axis(&mut self) -> Axis {
        if self.eat("//") {
            Axis::Descendant
        } else if self.eat("/") {
            Axis::Child
        } else {
            // Bare leading name defaults to descendant-from-root — the
            // natural "find it anywhere" semantics of a search UI.
            Axis::Descendant
        }
    }

    /// Parses the step at the cursor and adds it under `parent`; the
    /// (N+1)-th node is an error at the step that would have been it.
    fn add_step(
        &mut self,
        pattern: &mut TwigPattern,
        parent: QNodeId,
        axis: Axis,
    ) -> Result<QNodeId, ParseError> {
        self.skip_ws();
        if pattern.len() == MAX_PATTERN_NODES {
            return self.err(format!("pattern has more than {MAX_PATTERN_NODES} nodes"));
        }
        let (test, output) = self.parse_name()?;
        let node = pattern.add_child(parent, axis, test);
        if output {
            pattern.set_output(node, true);
            self.explicit_output = true;
        }
        Ok(node)
    }

    fn parse_name(&mut self) -> Result<(NodeTest, bool), ParseError> {
        self.skip_ws();
        if self.eat("*") {
            let output = self.eat("!");
            return Ok((NodeTest::Wildcard, output));
        }
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || c == '-' || c == '.' || c == ':' {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.err("expected an element name or '*'");
        }
        let name = self.input[start..self.pos].to_string();
        let output = self.eat("!");
        Ok((NodeTest::Tag(name), output))
    }

    fn parse_predicates(
        &mut self,
        pattern: &mut TwigPattern,
        context: QNodeId,
    ) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if !self.eat("[") {
                return Ok(());
            }
            self.parse_predicate_body(pattern, context)?;
            self.skip_ws();
            if !self.eat("]") {
                return self.err("expected ']' to close predicate");
            }
        }
    }

    fn parse_predicate_body(
        &mut self,
        pattern: &mut TwigPattern,
        context: QNodeId,
    ) -> Result<(), ParseError> {
        self.skip_ws();
        if self.eat(".") {
            // Value test on the context node itself.
            let pred = self.parse_value_test()?;
            pattern.set_predicate(context, Some(pred));
            return Ok(());
        }
        if self.eat("@") {
            // Attribute test on the context node.
            let (test, _) = self.parse_name()?;
            let name = match test {
                NodeTest::Tag(n) => n,
                NodeTest::Wildcard => return self.err("attribute name cannot be '*'"),
            };
            self.skip_ws();
            let pred = if matches!(self.peek(), Some('=' | '~' | '>' | '<' | 'i')) {
                match self.parse_value_test()? {
                    ValuePredicate::Equals(value) => ValuePredicate::AttrEquals { name, value },
                    ValuePredicate::Contains(value) => ValuePredicate::AttrContains { name, value },
                    ValuePredicate::Range { low, high } => {
                        ValuePredicate::AttrRange { name, low, high }
                    }
                    other => other,
                }
            } else {
                ValuePredicate::AttrExists { name }
            };
            pattern.set_predicate(context, Some(pred));
            return Ok(());
        }
        // A relative path branch, optionally ending in a value test.
        let mut axis = if self.eat("//") {
            Axis::Descendant
        } else {
            let _ = self.eat("/");
            Axis::Child
        };
        let mut last = context;
        loop {
            last = self.add_step(pattern, last, axis)?;
            // Nested predicates on branch steps are allowed.
            self.parse_predicates(pattern, last)?;
            self.skip_ws();
            if self.eat("//") {
                axis = Axis::Descendant;
            } else if self.eat("/") {
                axis = Axis::Child;
            } else {
                break;
            }
        }
        self.skip_ws();
        if matches!(self.peek(), Some('=' | '~' | '>' | '<' | 'i')) {
            let pred = self.parse_value_test()?;
            pattern.set_predicate(last, Some(pred));
        }
        Ok(())
    }

    fn parse_value_test(&mut self) -> Result<ValuePredicate, ParseError> {
        self.skip_ws();
        if self.eat(">=") {
            let n = self.parse_number()?;
            return Ok(ValuePredicate::Range {
                low: n,
                high: f64::INFINITY,
            });
        }
        if self.eat("<=") {
            let n = self.parse_number()?;
            return Ok(ValuePredicate::Range {
                low: f64::NEG_INFINITY,
                high: n,
            });
        }
        if self.eat("=") {
            let s = self.parse_string()?;
            return Ok(ValuePredicate::Equals(s));
        }
        if self.eat("~") {
            let s = self.parse_string()?;
            return Ok(ValuePredicate::Contains(s));
        }
        if self.eat("in") {
            let low = self.parse_number()?;
            self.skip_ws();
            if !self.eat("..") {
                return self.err("expected '..' in range predicate");
            }
            let high = self.parse_number()?;
            if low > high {
                return self.err("range low bound exceeds high bound");
            }
            return Ok(ValuePredicate::Range { low, high });
        }
        self.err("expected a value test (=, ~, >=, <=, in)")
    }

    fn parse_string(&mut self) -> Result<String, ParseError> {
        self.skip_ws();
        if !self.eat("\"") {
            return self.err("expected a double-quoted string");
        }
        let start = self.pos;
        match self.input[self.pos..].find('"') {
            Some(rel) => {
                let s = self.input[start..start + rel].to_string();
                self.pos += rel + 1;
                Ok(s)
            }
            None => self.err("unterminated string"),
        }
    }

    fn parse_number(&mut self) -> Result<f64, ParseError> {
        self.skip_ws();
        let start = self.pos;
        if matches!(self.peek(), Some('-' | '+')) {
            self.pos += 1;
        }
        let mut seen_dot = false;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() {
                self.pos += 1;
            } else if c == '.' && !seen_dot && !self.input[self.pos..].starts_with("..") {
                seen_dot = true;
                self.pos += 1;
            } else {
                break;
            }
        }
        self.input[start..self.pos]
            .parse::<f64>()
            .map_err(|_| ParseError {
                message: "expected a number".into(),
                offset: start,
                snippet: None,
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{Axis, NodeTest, ValuePredicate};

    #[test]
    fn parses_simple_path() {
        let q = parse_query("//bib/book//title").unwrap();
        assert_eq!(q.len(), 3);
        assert!(q.is_path());
        let ids: Vec<_> = q.node_ids().collect();
        assert_eq!(q.node(ids[0]).test, NodeTest::Tag("bib".into()));
        assert_eq!(q.node(ids[1]).axis, Axis::Child);
        assert_eq!(q.node(ids[2]).axis, Axis::Descendant);
        // Last step is the default output.
        assert_eq!(q.output_nodes(), vec![ids[2]]);
    }

    #[test]
    fn bare_leading_name_defaults_to_descendant_axis() {
        let q = parse_query("book/title").unwrap();
        assert_eq!(q.node(q.root()).axis, Axis::Descendant);
        let q2 = parse_query("/bib").unwrap();
        assert_eq!(q2.node(q2.root()).axis, Axis::Child);
    }

    #[test]
    fn parses_branching_predicates() {
        let q = parse_query("//book[title][//author]/year").unwrap();
        assert_eq!(q.len(), 4);
        assert!(!q.is_path());
        let root = q.root();
        assert_eq!(q.node(root).children.len(), 3);
        let title = q.node(root).children[0];
        assert_eq!(q.node(title).axis, Axis::Child);
        let author = q.node(root).children[1];
        assert_eq!(q.node(author).axis, Axis::Descendant);
    }

    #[test]
    fn parses_value_tests() {
        let q =
            parse_query(r#"//book[year >= 2000][title = "XML"][author ~ "jiaheng lu"]"#).unwrap();
        let root = q.root();
        let kids = &q.node(root).children;
        assert_eq!(
            q.node(kids[0]).predicate,
            Some(ValuePredicate::Range {
                low: 2000.0,
                high: f64::INFINITY
            })
        );
        assert_eq!(
            q.node(kids[1]).predicate,
            Some(ValuePredicate::Equals("XML".into()))
        );
        assert_eq!(
            q.node(kids[2]).predicate,
            Some(ValuePredicate::Contains("jiaheng lu".into()))
        );
    }

    #[test]
    fn parses_dot_value_test() {
        let q = parse_query(r#"//title[. = "XML"]"#).unwrap();
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.node(q.root()).predicate,
            Some(ValuePredicate::Equals("XML".into()))
        );
    }

    #[test]
    fn parses_range() {
        let q = parse_query("//year[. in 1999..2003]").unwrap();
        assert_eq!(
            q.node(q.root()).predicate,
            Some(ValuePredicate::Range {
                low: 1999.0,
                high: 2003.0
            })
        );
    }

    #[test]
    fn rejects_inverted_range() {
        assert!(parse_query("//year[. in 2003..1999]").is_err());
    }

    #[test]
    fn parses_output_marker() {
        let q = parse_query("//book[author!]/title").unwrap();
        let root = q.root();
        let author = q.node(root).children[0];
        assert_eq!(q.output_nodes(), vec![author]);
    }

    #[test]
    fn parses_ordered_prefix() {
        let q = parse_query("ordered //book/title").unwrap();
        assert!(q.is_ordered());
        // "ordered" must be a standalone word.
        let q2 = parse_query("orderedbook").unwrap();
        assert!(!q2.is_ordered());
        assert_eq!(q2.node(q2.root()).test, NodeTest::Tag("orderedbook".into()));
    }

    #[test]
    fn parses_wildcard() {
        let q = parse_query("//*[title]").unwrap();
        assert_eq!(q.node(q.root()).test, NodeTest::Wildcard);
    }

    #[test]
    fn parses_nested_branch_paths() {
        let q = parse_query(r#"//book[editor/name ~ "smith"]"#).unwrap();
        assert_eq!(q.len(), 3);
        let root = q.root();
        let editor = q.node(root).children[0];
        let name = q.node(editor).children[0];
        assert_eq!(q.node(name).test, NodeTest::Tag("name".into()));
        assert_eq!(
            q.node(name).predicate,
            Some(ValuePredicate::Contains("smith".into()))
        );
    }

    #[test]
    fn parses_nested_predicates_inside_branches() {
        let q = parse_query(r#"//dblp[article[author]/title]"#).unwrap();
        assert_eq!(q.len(), 4);
        let root = q.root();
        let article = q.node(root).children[0];
        assert_eq!(q.node(article).children.len(), 2);
    }

    #[test]
    fn parses_attribute_predicates() {
        let q = parse_query(r#"//book[@year >= 2000]"#).unwrap();
        assert_eq!(
            q.node(q.root()).predicate,
            Some(ValuePredicate::AttrRange {
                name: "year".into(),
                low: 2000.0,
                high: f64::INFINITY
            })
        );
        let q = parse_query(r#"//book[@lang = "en"]"#).unwrap();
        assert_eq!(
            q.node(q.root()).predicate,
            Some(ValuePredicate::AttrEquals {
                name: "lang".into(),
                value: "en".into()
            })
        );
        let q = parse_query(r#"//item[@id ~ "item1"]"#).unwrap();
        assert!(matches!(
            q.node(q.root()).predicate,
            Some(ValuePredicate::AttrContains { .. })
        ));
        let q = parse_query("//book[@isbn]").unwrap();
        assert_eq!(
            q.node(q.root()).predicate,
            Some(ValuePredicate::AttrExists {
                name: "isbn".into()
            })
        );
        assert!(parse_query("//book[@*]").is_err());
    }

    #[test]
    fn attribute_predicate_display_reparses() {
        for text in [
            r#"//book[@year >= 2000]/title"#,
            r#"//book[@lang = "en"]"#,
            r#"//book[@isbn]"#,
            r#"//year[@unit in 1..2]"#,
        ] {
            let q = parse_query(text).unwrap();
            let q2 = parse_query(&q.to_string()).unwrap();
            assert_eq!(q, q2, "{text}");
        }
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse_query("//book[").unwrap_err();
        assert!(err.offset >= 7, "{err}");
        assert!(parse_query("").is_err());
        assert!(parse_query("//book]").is_err());
        assert!(parse_query("//book[year > ]").is_err());
        assert!(parse_query(r#"//t[. = "unterminated]"#).is_err());
    }

    #[test]
    fn errors_display_a_caret_snippet() {
        let err = parse_query("//book[").unwrap_err();
        let text = err.to_string();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("query parse error at byte"));
        assert!(lines[1].contains("//book["));
        // The caret sits under the error offset.
        let caret_col = lines[2].find('^').expect("caret line");
        let snippet_col = lines[1].find("//book[").unwrap();
        assert_eq!(caret_col, snippet_col + err.offset, "{text}");
    }

    #[test]
    fn long_inputs_are_windowed_with_ellipses() {
        let long = format!("//{}[", "x".repeat(200));
        let err = parse_query(&long).unwrap_err();
        let text = err.to_string();
        assert!(text.contains('…'), "{text}");
        assert!(
            text.lines().nth(1).unwrap().chars().count() < 80,
            "window stays short: {text}"
        );
        // Without a snippet (direct construction) Display is one line.
        let bare = ParseError {
            message: "boom".into(),
            offset: 3,
            snippet: None,
        };
        assert_eq!(bare.to_string().lines().count(), 1);
    }

    #[test]
    fn patterns_are_capped_where_the_next_node_would_be_added() {
        let path = |steps: usize| format!("//a{}", "/b".repeat(steps - 1));
        let full = parse_query(&path(MAX_PATTERN_NODES)).unwrap();
        assert_eq!(full.len(), MAX_PATTERN_NODES);
        assert_eq!(parse_query(&full.to_string()).unwrap(), full);

        let err = parse_query(&path(MAX_PATTERN_NODES + 1)).unwrap_err();
        assert_eq!(err.message, "pattern has more than 64 nodes");
        assert_eq!(err.offset, path(MAX_PATTERN_NODES).len() + 1, "{err}");
        assert!(err.to_string().ends_with("^"), "caret snippet: {err}");

        // What used to overflow the stack, in both shapes.
        assert!(parse_query(&path(20_000)).is_err());
        let nested = format!("//a{}{}", "[b".repeat(20_000), "]".repeat(20_000));
        let err = parse_query(&nested).unwrap_err();
        assert_eq!(err.offset, "//a".len() + 2 * (MAX_PATTERN_NODES - 1) + 1);
    }

    #[test]
    fn display_of_parsed_query_reparses_equivalently() {
        let q = parse_query(r#"//book[year >= 2000]/title"#).unwrap();
        let q2 = parse_query(&q.to_string()).unwrap();
        assert_eq!(q, q2);
    }
}
