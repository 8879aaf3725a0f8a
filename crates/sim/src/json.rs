//! The workspace's one JSON module: string escaping, field and array
//! lookup for the flat one-line objects the recorders and sinks write,
//! and the writer for the `BENCH_*.json` result documents.
//!
//! The workspace carries no serialization dependency, so this is a
//! deliberately small subset: lookups scan for `"key":` in the text and
//! assume keys are unique within the object searched and that string
//! values contain no quote characters.

use std::fmt::{Display, Write as _};
use std::path::Path;

/// Escape a free-form string for embedding inside a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Extract the value of `"key":` in a flat JSON object, as a raw token
/// (trimmed number or literal text, or the inside of a quoted string).
pub fn field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = &obj[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// The text between the brackets of `"key": [...]` (whitespace after the
/// colon allowed), matching nested brackets.
pub fn array_field<'a>(obj: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = obj.find(&pat)? + pat.len();
    let rest = obj[start..].trim_start().strip_prefix('[')?;
    let mut depth = 1usize;
    for (i, c) in rest.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => {
                depth -= 1;
                if depth == 0 {
                    return Some(&rest[..i]);
                }
            }
            _ => {}
        }
    }
    None
}

/// Split an array body (as returned by [`array_field`]) at its top-level
/// commas: commas nested in `[...]` or `{...}` stay inside their element.
pub fn split_elements(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' | '{' => depth += 1,
            ']' | '}' => depth -= 1,
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
    out
}

/// A `BENCH_*.json` document: `"quick"` first, then each entry in the
/// order added, two-space indented, with row arrays one row per line.
#[derive(Clone, Debug)]
pub struct BenchDoc {
    body: String,
}

impl BenchDoc {
    /// Start a document recording whether it came from a quick run.
    pub fn new(quick: bool) -> Self {
        BenchDoc {
            body: format!("{{\n  \"quick\": {quick}"),
        }
    }

    /// Append `"key": value`, with `value` written as is (a number, a
    /// literal, or an already-rendered object or array).
    pub fn field(mut self, key: &str, value: impl Display) -> Self {
        let _ = write!(self.body, ",\n  \"{key}\": {value}");
        self
    }

    /// Append `"key": [...]` holding the given rendered row objects.
    pub fn rows(mut self, key: &str, rows: &[String]) -> Self {
        let _ = write!(
            self.body,
            ",\n  \"{key}\": [\n    {}\n  ]",
            rows.join(",\n    ")
        );
        self
    }

    /// The finished document text, newline-terminated.
    pub fn finish(self) -> String {
        self.body + "\n}\n"
    }
}

/// Write a JSON or JSONL document to `path`, creating missing parent
/// directories.
///
/// # Errors
///
/// Refuses — leaving the file untouched — to replace a document that
/// records `"quick": false` with one that records `"quick": true`, so a
/// quick smoke run can never clobber a full-run baseline. I/O failures
/// are returned as text.
pub fn write(path: &Path, doc: &str) -> Result<(), String> {
    if field(doc, "quick") == Some("true") {
        if let Ok(old) = std::fs::read_to_string(path) {
            if field(&old, "quick") == Some("false") {
                return Err(format!(
                    "refusing to overwrite the full-run baseline {} with a quick run",
                    path.display()
                ));
            }
        }
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc).map_err(|e| format!("write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escape_handles_quotes_backslashes_and_controls() {
        assert_eq!(escape("a\"b\\c\nd\te\u{1}"), "a\\\"b\\\\c\\nd\\te\\u0001");
    }

    #[test]
    fn field_reads_numbers_strings_and_spaced_values() {
        let obj = r#"{"kind":"eat","pid":3,"t": 7 }"#;
        assert_eq!(field(obj, "kind"), Some("eat"));
        assert_eq!(field(obj, "pid"), Some("3"));
        assert_eq!(field(obj, "t"), Some("7"));
        assert_eq!(field(obj, "missing"), None);
    }

    #[test]
    fn arrays_nest_and_split_at_top_level_commas() {
        let obj = r#"{"edges":[[0,1],[1,2]],"rows": [{"a":1,"b":[2,3]},{"a":4}]}"#;
        let edges = array_field(obj, "edges").unwrap();
        assert_eq!(split_elements(edges), vec!["[0,1]", "[1,2]"]);
        let rows = array_field(obj, "rows").unwrap();
        assert_eq!(
            split_elements(rows),
            vec![r#"{"a":1,"b":[2,3]}"#, r#"{"a":4}"#]
        );
        assert_eq!(
            split_elements(array_field(r#"{"x":[]}"#, "x").unwrap()).len(),
            0
        );
        assert_eq!(array_field(obj, "missing"), None);
    }

    #[test]
    fn bench_documents_keep_the_committed_layout() {
        let rows = ["{\"n\":8}".to_string(), "{\"n\":16}".to_string()];
        let doc = BenchDoc::new(true)
            .field("max_radius", 1)
            .rows("runs", &rows);
        assert_eq!(
            doc.field("overhead", "{}").finish(),
            "{\n  \"quick\": true,\n  \"max_radius\": 1,\n  \"runs\": [\n    {\"n\":8},\n    \
             {\"n\":16}\n  ],\n  \"overhead\": {}\n}\n"
        );
    }

    fn scratch_file(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("diners-json-{}", std::process::id()));
        dir.join(name)
    }

    #[test]
    fn quick_documents_never_replace_a_full_baseline() {
        let path = scratch_file("refuse/BENCH_x.json");
        let full = BenchDoc::new(false).field("n", 1).finish();
        let quick = BenchDoc::new(true).field("n", 2).finish();
        write(&path, &full).unwrap();
        let err = write(&path, &quick).unwrap_err();
        assert!(err.contains("refusing"), "{err}");
        assert_eq!(std::fs::read_to_string(&path).unwrap(), full);
        // A full run may replace anything; a quick run may replace a
        // quick one or create a fresh file.
        write(&path, &full).unwrap();
        let other = scratch_file("refuse/BENCH_y.json");
        write(&other, &quick).unwrap();
        write(&other, &quick).unwrap();
        std::fs::remove_dir_all(path.parent().unwrap().parent().unwrap()).ok();
    }
}
