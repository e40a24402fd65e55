//! A minimal JSON object writer (the benchmark has no dependencies).

pub struct Obj {
    buf: String,
    first: bool,
}

impl Obj {
    pub fn new() -> Self {
        Self {
            buf: String::from("{"),
            first: true,
        }
    }

    fn key(&mut self, k: &str) {
        if !self.first {
            self.buf.push_str(", ");
        }
        self.first = false;
        push_str_lit(&mut self.buf, k);
        self.buf.push_str(": ");
    }

    /// A number with every digit of its shortest round-trip form;
    /// non-finite values (which JSON cannot hold) become 0.
    pub fn num(&mut self, k: &str, v: f64) {
        self.key(k);
        let v = if v.is_finite() { v } else { 0.0 };
        self.buf.push_str(&format!("{v:?}"));
    }

    pub fn int(&mut self, k: &str, v: u64) {
        self.key(k);
        self.buf.push_str(&v.to_string());
    }

    pub fn bool(&mut self, k: &str, v: bool) {
        self.key(k);
        self.buf.push_str(if v { "true" } else { "false" });
    }

    pub fn str(&mut self, k: &str, v: &str) {
        self.key(k);
        push_str_lit(&mut self.buf, v);
    }

    /// Inserts already-serialized JSON.
    pub fn raw(&mut self, k: &str, json: &str) {
        self.key(k);
        self.buf.push_str(json);
    }

    pub fn finish(mut self) -> String {
        self.buf.push('}');
        self.buf
    }
}

fn push_str_lit(buf: &mut String, s: &str) {
    buf.push('"');
    for c in s.chars() {
        match c {
            '"' => buf.push_str("\\\""),
            '\\' => buf.push_str("\\\\"),
            c if (c as u32) < 0x20 => buf.push_str(&format!("\\u{:04x}", c as u32)),
            c => buf.push(c),
        }
    }
    buf.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_escaped_objects() {
        let mut o = Obj::new();
        o.num("a", 1.5);
        o.int("b", 7);
        o.str("c", "x\"y\n");
        o.num("d", f64::NAN);
        o.bool("e", true);
        assert_eq!(
            o.finish(),
            r#"{"a": 1.5, "b": 7, "c": "x\"y\u000a", "d": 0.0, "e": true}"#
        );
    }
}
