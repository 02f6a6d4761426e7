//! A flat JSON object writer: every step of the benchmark prints exactly one
//! object on one line, which `run.py` parses.

use std::fmt::Write;

/// An ordered JSON object under construction.
#[derive(Default)]
pub struct Record {
    fields: Vec<(String, String)>,
}

impl Record {
    pub fn num(&mut self, key: &str, value: f64) -> &mut Self {
        // JSON has no NaN or infinity; a non-finite measurement is a bug
        // in the benchmark, so it shows up as `null` rather than a number.
        let text = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        self.push(key, text)
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Self {
        self.push(key, value.to_string())
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Self {
        self.push(key, quote(value))
    }

    pub fn strings(&mut self, key: &str, values: &[String]) -> &mut Self {
        let items: Vec<String> = values.iter().map(|v| quote(v)).collect();
        self.push(key, format!("[{}]", items.join(", ")))
    }

    fn push(&mut self, key: &str, value: String) -> &mut Self {
        self.fields.push((key.to_string(), value));
        self
    }
}

impl std::fmt::Display for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("{}: {v}", quote(k)))
            .collect();
        write!(f, "{{{}}}", body.join(", "))
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_one_flat_object() {
        let mut r = Record::default();
        r.num("t", 0.5)
            .num("bad", f64::NAN)
            .int("n", 3)
            .str("s", "a\"b")
            .strings("e", &["x".into()]);
        assert_eq!(
            r.to_string(),
            r#"{"t": 0.5, "bad": null, "n": 3, "s": "a\"b", "e": ["x"]}"#
        );
    }
}
