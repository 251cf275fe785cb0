//! Reading JSON back: `bench::json` only writes, and `compare`, the answer
//! digests and `BENCHMARK.json` all have to be read.  A recursive-descent parser
//! into the same [`Json`] value, plus the two lookups the readers need.

use bench::json::Json;

/// Parses one JSON document.
pub fn parse(text: &str) -> Result<Json, String> {
    let mut parser = Parser { bytes: text.as_bytes(), pos: 0 };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(parser.error("trailing characters"));
    }
    Ok(value)
}

/// The value under `key` of an object.
pub fn get<'a>(value: &'a Json, key: &str) -> Option<&'a Json> {
    match value {
        Json::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// A number of any JSON flavour as `f64`.
pub fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Int(i) => Some(*i as f64),
        Json::UInt(u) => Some(*u as f64),
        Json::Float(f) => Some(*f),
        _ => None,
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("JSON: {what} at byte {}", self.pos)
    }

    fn skip_whitespace(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, literal: &str) -> bool {
        let matches = self.bytes[self.pos..].starts_with(literal.as_bytes());
        if matches {
            self.pos += literal.len();
        }
        matches
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        match self.bytes.get(self.pos) {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.error("expected a value")),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut entries = Vec::new();
        self.skip_whitespace();
        if self.eat("}") {
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            if !self.eat(":") {
                return Err(self.error("expected ':'"));
            }
            entries.push((key, self.value()?));
            self.skip_whitespace();
            if self.eat("}") {
                return Ok(Json::Obj(entries));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or '}'"));
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.pos += 1;
        let mut items = Vec::new();
        self.skip_whitespace();
        if self.eat("]") {
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_whitespace();
            if self.eat("]") {
                return Ok(Json::Arr(items));
            }
            if !self.eat(",") {
                return Err(self.error("expected ',' or ']'"));
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.error("expected a string"));
        }
        let mut out = Vec::new();
        loop {
            let Some(&byte) = self.bytes.get(self.pos) else {
                return Err(self.error("unterminated string"));
            };
            self.pos += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let Some(&escape) = self.bytes.get(self.pos) else {
                        return Err(self.error("unterminated escape"));
                    };
                    self.pos += 1;
                    let decoded = match escape {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'"' | b'\\' | b'/' => char::from(escape),
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.error("bad \\u escape"))?;
                            self.pos += 4;
                            code
                        }
                        _ => return Err(self.error("unknown escape")),
                    };
                    out.extend_from_slice(decoded.encode_utf8(&mut [0; 4]).as_bytes());
                }
                byte => out.push(byte),
            }
        }
        String::from_utf8(out).map_err(|_| self.error("string is not UTF-8"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or_default();
        if let Ok(u) = text.parse::<u64>() {
            Ok(Json::UInt(u))
        } else if let Ok(i) = text.parse::<i64>() {
            Ok(Json::Int(i))
        } else {
            text.parse::<f64>().map(Json::Float).map_err(|_| self.error("bad number"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_rendered_report_reads_back_equal() {
        let report = Json::obj([
            ("seed", Json::UInt(42)),
            ("delta", Json::Int(-3)),
            ("trace", Json::Bool(false)),
            ("note", Json::str("tab\there \"quoted\" \\ back\nline \u{1} é")),
            ("nothing", Json::Null),
            (
                "workloads",
                Json::Arr(vec![Json::obj([
                    ("name", Json::str("adhoc-g6")),
                    ("op_ms_p50", Json::Arr(vec![Json::Float(21.25), Json::Float(0.5)])),
                    ("empty", Json::Arr(vec![])),
                    ("none", Json::Obj(vec![])),
                ])]),
            ),
        ]);
        assert_eq!(parse(&report.render()), Ok(report.clone()));
        let first = match get(&report, "workloads") {
            Some(Json::Arr(items)) => &items[0],
            other => panic!("workloads is an array, got {other:?}"),
        };
        assert_eq!(get(first, "name"), Some(&Json::str("adhoc-g6")));
        assert_eq!(get(&report, "seed").and_then(number), Some(42.0));
        assert_eq!(get(&report, "delta").and_then(number), Some(-3.0));
    }

    #[test]
    fn malformed_documents_are_rejected_not_panicked_on() {
        for bad in ["", "{", "[1,", "{\"a\" 1}", "\"open", "tru", "1 2", "{\"a\":1,}", "\"\\u12\""]
        {
            assert!(parse(bad).is_err(), "{bad:?} must not parse");
        }
        assert_eq!(parse(" [1.5e3, -2] "), Ok(Json::Arr(vec![Json::Float(1500.0), Json::Int(-2)])));
    }
}
