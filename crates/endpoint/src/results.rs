//! SPARQL 1.1 Query Results serialization: the standard JSON format and
//! a tab-separated text format for command-line use.
//!
//! Both formats have one incremental writer ([`JsonRowsWriter`],
//! [`TsvRowsWriter`]), fed one row at a time. A row is positional — one
//! borrowed term per variable, as [`provbench_query::Rows`] lends them
//! — or, through the `push` adapters, a decoded [`Bindings`] map.

use provbench_query::Bindings;
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
/// header is written at construction, each [`push_row`](Self::push_row)
/// appends one binding row, and [`finish`](Self::finish) closes the
/// document.
pub struct JsonRowsWriter {
    out: String,
    variables: Vec<String>,
    /// Each variable's escaped `"name":` member prefix.
    keys: Vec<String>,
    rows: usize,
}

impl JsonRowsWriter {
    /// Start a result document projecting `variables`.
    pub fn new(variables: &[String]) -> Self {
        let mut out = String::from("{\"head\":{\"vars\":[");
        let mut keys = Vec::with_capacity(variables.len());
        for (i, v) in variables.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut key = String::from("\"");
            json_escape(v, &mut key);
            key.push('"');
            out.push_str(&key);
            key.push(':');
            keys.push(key);
        }
        out.push_str("]},\"results\":{\"bindings\":[");
        JsonRowsWriter {
            out,
            variables: variables.to_vec(),
            keys,
            rows: 0,
        }
    }

    /// Append one solution row: one term per variable, in the order the
    /// writer was created with (`None` = unbound, left out).
    pub fn push_row(&mut self, row: &[Option<&Term>]) {
        json_row(
            &mut self.out,
            &mut self.rows,
            &self.keys,
            row.iter().copied(),
        );
    }

    /// Append one solution row given by variable name.
    pub fn push(&mut self, row: &Bindings) {
        let cells = self.variables.iter().map(|v| row.get(v));
        json_row(&mut self.out, &mut self.rows, &self.keys, cells);
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

/// Append one binding object: a member per bound cell, keyed by the
/// variable's prefix in `keys`.
fn json_row<'t>(
    out: &mut String,
    rows: &mut usize,
    keys: &[String],
    cells: impl Iterator<Item = Option<&'t Term>>,
) {
    if *rows > 0 {
        out.push(',');
    }
    *rows += 1;
    out.push('{');
    let mut first = true;
    for (key, term) in keys.iter().zip(cells) {
        if let Some(term) = term {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(key);
            term_to_json(term, out);
        }
    }
    out.push('}');
}

/// Append one tab-separated line, unbound cells empty.
fn tsv_row<'t>(out: &mut String, rows: &mut usize, cells: impl Iterator<Item = Option<&'t Term>>) {
    *rows += 1;
    for (i, term) in cells.enumerate() {
        if i > 0 {
            out.push('\t');
        }
        if let Some(t) = term {
            // Writing into a `String` cannot fail.
            let _ = write!(out, "{t}");
        }
    }
    out.push('\n');
}

/// Incremental tab-separated serializer: header line at construction,
/// one line per [`push_row`](Self::push_row).
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

    /// Append one solution row: one term per variable, in the order the
    /// writer was created with (`None` = unbound, serialized empty).
    pub fn push_row(&mut self, row: &[Option<&Term>]) {
        tsv_row(&mut self.out, &mut self.rows, row.iter().copied());
    }

    /// Append one solution row given by variable name.
    pub fn push(&mut self, row: &Bindings) {
        let cells = self.variables.iter().map(|v| row.get(v));
        tsv_row(&mut self.out, &mut self.rows, cells);
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

#[cfg(test)]
mod tests {
    use super::*;
    use provbench_query::{QueryEngine, Solutions};
    use provbench_rdf::{parse_turtle, Graph};

    const QUERY: &str = "PREFIX e: <http://e/> SELECT ?p ?o ?none WHERE { ?s ?p ?o } ORDER BY ?p";

    fn graph() -> Graph {
        parse_turtle(
            r#"@prefix e: <http://e/> .
               e:s e:p "va\"l" ; e:q "fr"@fr ; e:r 42 ."#,
        )
        .unwrap()
        .0
    }

    fn solutions() -> Solutions {
        QueryEngine::new(&graph())
            .prepare(QUERY)
            .unwrap()
            .select()
            .unwrap()
    }

    fn json_of(s: &Solutions) -> String {
        let mut w = JsonRowsWriter::new(&s.variables);
        s.rows.iter().for_each(|row| w.push(row));
        w.finish()
    }

    fn tsv_of(s: &Solutions) -> String {
        let mut w = TsvRowsWriter::new(&s.variables);
        s.rows.iter().for_each(|row| w.push(row));
        w.finish()
    }

    #[test]
    fn json_has_head_and_bindings() {
        let json = json_of(&solutions());
        assert!(json.starts_with("{\"head\":{\"vars\":[\"p\",\"o\",\"none\"]}"));
        assert!(json.contains("\"type\":\"uri\""));
        assert!(json.contains("\"type\":\"literal\""));
        assert!(json.contains("\\\"")); // escaped quote in va"l
        assert!(json.contains("\"xml:lang\":\"fr\""));
        assert!(json.contains("XMLSchema#integer"));
        // Unbound variables are left out of their binding object.
        assert!(!json.contains("\"none\":"));
    }

    #[test]
    fn json_is_structurally_balanced() {
        let json = json_of(&solutions());
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
        let tsv = tsv_of(&s);
        assert_eq!(tsv.lines().count(), 1 + s.len());
        assert!(tsv.starts_with("p\to\tnone\n"));
        // The unbound last column serializes empty.
        assert!(tsv.lines().skip(1).all(|line| line.ends_with('\t')));
    }

    #[test]
    fn borrowed_rows_serialize_like_named_rows() {
        let g = graph();
        let prepared = QueryEngine::new(&g).prepare(QUERY).unwrap();
        let mut rows = prepared.rows().unwrap();
        let mut jw = JsonRowsWriter::new(rows.variables());
        let mut tw = TsvRowsWriter::new(rows.variables());
        assert!(jw.is_empty() && tw.is_empty());
        rows.try_for_each_row(|row| {
            jw.push_row(row);
            tw.push_row(row);
        })
        .unwrap();
        let s = solutions();
        assert_eq!(jw.len(), s.len());
        assert_eq!(tw.len(), s.len());
        assert_eq!(jw.finish(), json_of(&s));
        assert_eq!(tw.finish(), tsv_of(&s));
    }

    #[test]
    fn empty_solutions() {
        let s = Solutions {
            variables: vec!["x".into()],
            rows: vec![],
        };
        assert_eq!(
            json_of(&s),
            "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[]}}"
        );
        assert_eq!(tsv_of(&s), "x\n");
    }
}
