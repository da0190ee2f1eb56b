//! A flat JSON object writer for the attempt report (the benchmark has no
//! JSON dependency; values are numbers, booleans, strings and number
//! lists only).

use std::fmt::Write as _;

#[derive(Debug, Default)]
pub struct Report {
    fields: Vec<(String, String)>,
}

impl Report {
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        self.fields.push((key.to_string(), json_num(value)));
        self
    }

    pub fn boolean(&mut self, key: &str, value: bool) -> &mut Self {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    pub fn text(&mut self, key: &str, value: &str) -> &mut Self {
        self.fields.push((key.to_string(), json_str(value)));
        self
    }

    pub fn list(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|&v| json_num(v)).collect();
        self.fields.push((key.to_string(), format!("[{}]", items.join(","))));
        self
    }

    pub fn texts(&mut self, key: &str, values: &[String]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| json_str(v)).collect();
        self.fields.push((key.to_string(), format!("[{}]", items.join(","))));
        self
    }

    /// Nests `other` as an object under `key` (the traced layer report).
    pub fn object(&mut self, key: &str, other: &Report) -> &mut Self {
        self.fields.push((key.to_string(), other.render()));
        self
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:{v}", json_str(k));
        }
        out.push('}');
        out
    }
}

/// Non-finite numbers have no JSON spelling; they become `null`, which
/// the orchestrator's checks treat as a failed value.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
