//! SPARQL 1.1 Query Results serialization: the standard JSON format and
//! a tab-separated text format for command-line use.
//!
//! Both formats have an incremental writer ([`JsonRowsWriter`],
//! [`TsvRowsWriter`]) fed one row at a time from a streaming
//! [`provbench_query::Rows`] iterator; the batch `solutions_to_*`
//! functions are thin drains over them, so streamed and materialized
//! serializations are byte-identical by construction.

use provbench_query::{Bindings, Solutions};
use provbench_rdf::Term;
use std::fmt::Write;

/// Escape a string for inclusion in a JSON string literal.
fn json_escape(s: &str, out: &mut String) {
    // Terms rarely need escaping: copy those in one go.
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
}

fn term_to_json(term: &Term, out: &mut String) {
    out.push('{');
    match term {
        Term::Iri(i) => {
            out.push_str("\"type\":\"uri\",\"value\":\"");
            json_escape(i.as_str(), out);
            out.push('"');
        }
        Term::Blank(b) => {
            out.push_str("\"type\":\"bnode\",\"value\":\"");
            json_escape(b.label(), out);
            out.push('"');
        }
        Term::Literal(l) => {
            out.push_str("\"type\":\"literal\",\"value\":\"");
            json_escape(l.lexical(), out);
            out.push('"');
            if let Some(lang) = l.language() {
                out.push_str(",\"xml:lang\":\"");
                json_escape(lang, out);
                out.push('"');
            } else if !l.is_simple() {
                out.push_str(",\"datatype\":\"");
                json_escape(l.datatype().as_str(), out);
                out.push('"');
            }
        }
    }
    out.push('}');
}

/// Incremental `application/sparql-results+json` serializer: the
/// header is written at construction, each [`push`](Self::push) appends
/// one binding row, and [`finish`](Self::finish) closes the document.
pub struct JsonRowsWriter {
    out: String,
    variables: Vec<String>,
    rows: usize,
}

impl JsonRowsWriter {
    /// Start a result document projecting `variables`.
    pub fn new(variables: &[String]) -> Self {
        let mut out = String::from("{\"head\":{\"vars\":[");
        for (i, v) in variables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape(v, &mut out);
            out.push('"');
        }
        out.push_str("]},\"results\":{\"bindings\":[");
        JsonRowsWriter {
            out,
            variables: variables.to_vec(),
            rows: 0,
        }
    }

    /// Append one solution row.
    pub fn push(&mut self, row: &Bindings) {
        if self.rows > 0 {
            self.out.push(',');
        }
        self.rows += 1;
        self.out.push('{');
        let mut first = true;
        for v in &self.variables {
            if let Some(term) = row.get(v) {
                if !first {
                    self.out.push(',');
                }
                first = false;
                self.out.push('"');
                json_escape(v, &mut self.out);
                self.out.push_str("\":");
                term_to_json(term, &mut self.out);
            }
        }
        self.out.push('}');
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no row has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Close the document and return the serialized bytes.
    pub fn finish(mut self) -> String {
        self.out.push_str("]}}");
        self.out
    }
}

/// Incremental tab-separated serializer: header line at construction,
/// one line per [`push`](Self::push).
pub struct TsvRowsWriter {
    out: String,
    variables: Vec<String>,
    rows: usize,
}

impl TsvRowsWriter {
    /// Start a table with a header line naming `variables`.
    pub fn new(variables: &[String]) -> Self {
        let mut out = variables.join("\t");
        out.push('\n');
        TsvRowsWriter {
            out,
            variables: variables.to_vec(),
            rows: 0,
        }
    }

    /// Append one solution row (unbound variables serialize empty).
    pub fn push(&mut self, row: &Bindings) {
        self.rows += 1;
        for (i, v) in self.variables.iter().enumerate() {
            if i > 0 {
                self.out.push('\t');
            }
            if let Some(t) = row.get(v) {
                // Writing into a `String` cannot fail.
                let _ = write!(self.out, "{t}");
            }
        }
        self.out.push('\n');
    }

    /// Rows pushed so far.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// True if no row has been pushed yet.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Return the serialized table.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Serialize solutions as `application/sparql-results+json`: a drain of
/// [`JsonRowsWriter`], so it matches streamed serialization byte for
/// byte.
pub fn solutions_to_json(solutions: &Solutions) -> String {
    let mut w = JsonRowsWriter::new(&solutions.variables);
    for row in &solutions.rows {
        w.push(row);
    }
    w.finish()
}

/// Serialize solutions as a tab-separated table (header + rows): a
/// drain of [`TsvRowsWriter`].
pub fn solutions_to_tsv(solutions: &Solutions) -> String {
    let mut w = TsvRowsWriter::new(&solutions.variables);
    for row in &solutions.rows {
        w.push(row);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use provbench_query::QueryEngine;
    use provbench_rdf::parse_turtle;

    fn solutions() -> Solutions {
        let (g, _) = parse_turtle(
            r#"@prefix e: <http://e/> .
               e:s e:p "va\"l" ; e:q "fr"@fr ; e:r 42 ."#,
        )
        .unwrap();
        QueryEngine::new(&g)
            .prepare("PREFIX e: <http://e/> SELECT ?p ?o WHERE { ?s ?p ?o } ORDER BY ?p")
            .unwrap()
            .select()
            .unwrap()
    }

    #[test]
    fn json_has_head_and_bindings() {
        let json = solutions_to_json(&solutions());
        assert!(json.starts_with("{\"head\":{\"vars\":[\"p\",\"o\"]}"));
        assert!(json.contains("\"type\":\"uri\""));
        assert!(json.contains("\"type\":\"literal\""));
        assert!(json.contains("\\\"")); // escaped quote in va"l
        assert!(json.contains("\"xml:lang\":\"fr\""));
        assert!(json.contains("XMLSchema#integer"));
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = solutions_to_json(&solutions());
        // Rough structural check without a JSON parser: balanced braces
        // and brackets outside strings.
        let mut depth = 0i32;
        let mut in_str = false;
        let mut escaped = false;
        for c in json.chars() {
            if in_str {
                if escaped {
                    escaped = false;
                } else if c == '\\' {
                    escaped = true;
                } else if c == '"' {
                    in_str = false;
                }
                continue;
            }
            match c {
                '"' => in_str = true,
                '{' | '[' => depth += 1,
                '}' | ']' => depth -= 1,
                _ => {}
            }
        }
        assert_eq!(depth, 0);
        assert!(!in_str);
    }

    #[test]
    fn tsv_rows_match() {
        let s = solutions();
        let tsv = solutions_to_tsv(&s);
        assert_eq!(tsv.lines().count(), 1 + s.len());
        assert!(tsv.starts_with("p\to\n"));
    }

    #[test]
    fn incremental_writers_match_batch() {
        let s = solutions();
        let mut jw = JsonRowsWriter::new(&s.variables);
        let mut tw = TsvRowsWriter::new(&s.variables);
        assert!(jw.is_empty() && tw.is_empty());
        for row in &s.rows {
            jw.push(row);
            tw.push(row);
        }
        assert_eq!(jw.len(), s.len());
        assert_eq!(tw.len(), s.len());
        assert_eq!(jw.finish(), solutions_to_json(&s));
        assert_eq!(tw.finish(), solutions_to_tsv(&s));
    }

    #[test]
    fn empty_solutions() {
        let s = Solutions {
            variables: vec!["x".into()],
            rows: vec![],
        };
        assert_eq!(
            solutions_to_json(&s),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[]}}"
        );
        assert_eq!(solutions_to_tsv(&s), "x\n");
    }
}
