//! Minimal JSON rendering and parsing for the telemetry exporters.
//!
//! The workspace has no serde, so this module hand-rolls the small JSON subset the exporters emit: objects with string
//! keys, arrays, strings, booleans, `null` and finite numbers. Rendering is
//! fully deterministic (fixed field order, sorted maps), which is what keeps
//! telemetry exports byte-identical across same-seed runs. The parser exists
//! so tests can round-trip an export and validate its schema.

use std::collections::BTreeMap;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// All numbers parse as `f64`; [`Json::as_u64`] reads back only the
    /// integers a double holds exactly.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup; `None` on missing key or non-object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an unsigned integer, if it is one below 2⁵³. Larger
    /// values are refused: the parse to `f64` may already have rounded them.
    pub fn as_u64(&self) -> Option<u64> {
        const EXACT: f64 = (1u64 << 53) as f64;
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n < EXACT => Some(*n as u64),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_object(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

/// Append `s` to `out` as a JSON string literal (quotes included). Runs
/// that need no escaping are pushed whole, so a clean string is one copy.
pub fn write_str(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.push('"');
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let esc = match b {
            b'"' => "\\\"",
            b'\\' => "\\\\",
            b'\n' => "\\n",
            b'\r' => "\\r",
            b'\t' => "\\t",
            0..=0x1f => "",
            _ => continue,
        };
        // Every escaped byte is ASCII, so `i` is a char boundary.
        out.push_str(&s[run..i]);
        if esc.is_empty() {
            out.push_str("\\u00");
            out.push(HEX[usize::from(b >> 4)] as char);
            out.push(HEX[usize::from(b & 0xf)] as char);
        } else {
            out.push_str(esc);
        }
        run = i + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

/// Append `v` in decimal, without a formatting temporary.
pub(crate) fn write_u64(out: &mut String, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&buf[i..]).expect("ascii digits"));
}

/// Decimal digits of `v`: the bytes [`write_u64`] appends.
pub(crate) fn u64_len(v: u64) -> usize {
    v.checked_ilog10().map_or(1, |d| d as usize + 1)
}

/// Parse a complete JSON document. Errors carry a byte offset and reason.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0 };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing data at byte {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(format!("unexpected byte at {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if matches!(b, b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>().map(Json::Num).map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{0008}'),
                        Some(b'f') => out.push('\u{000c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pairs (the escaper never emits them,
                            // but accept well-formed input).
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                // Step past the last hex digit onto the `\u`
                                // of the required low-surrogate escape.
                                self.pos += 1;
                                if self.peek() != Some(b'\\') {
                                    return Err("lone high surrogate".into());
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err("lone high surrogate".into());
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err("invalid low surrogate".into());
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined).ok_or("bad surrogate pair")?
                            } else {
                                char::from_u32(cp).ok_or("bad \\u escape")?
                            };
                            out.push(c);
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => {
                    return Err(format!("raw control character in string at byte {}", self.pos));
                }
                Some(_) => {
                    // Copy the run up to the next `"`, `\` or control
                    // character in one go; multi-byte UTF-8 sequences pass
                    // through verbatim.
                    let rest = &self.bytes[self.pos..];
                    let len = rest
                        .iter()
                        .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                        .unwrap_or(rest.len());
                    let run = std::str::from_utf8(&rest[..len])
                        .map_err(|_| "invalid utf-8".to_string())?;
                    out.push_str(run);
                    self.pos += len;
                }
            }
        }
    }

    /// Consume `uXXXX` (the caller already saw the backslash; `self.pos` is on
    /// the `u`). Leaves `self.pos` on the last hex digit.
    fn hex4(&mut self) -> Result<u32, String> {
        let start = self.pos + 1;
        let end = start + 4;
        if end > self.bytes.len() {
            return Err("truncated \\u escape".into());
        }
        let hex = std::str::from_utf8(&self.bytes[start..end])
            .map_err(|_| "bad \\u escape".to_string())?;
        let cp = u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape".to_string())?;
        self.pos = end - 1;
        Ok(cp)
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut out = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(out));
        }
        loop {
            self.skip_ws();
            out.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(out));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut out = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(out));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let val = self.value()?;
            out.insert(key, val);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(out));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_documents() {
        let v = parse(r#"{"a": [1, 2.5, "x\n", true, null], "b": {"c": 7}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 5);
        assert_eq!(v.get("a").unwrap().as_array().unwrap()[2].as_str(), Some("x\n"));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn escaping_round_trips() {
        let nasty = "quote \" slash \\ newline \n tab \t ctrl \u{0001} unicode é";
        let mut out = String::new();
        write_str(&mut out, nasty);
        let back = parse(&out).unwrap();
        assert_eq!(back.as_str(), Some(nasty));
    }

    #[test]
    fn long_mixed_strings_round_trip() {
        let mut long = String::new();
        for i in 0..500 {
            long.push_str("ascii run ");
            long.push_str(["é", "中", "🦀"][i % 3]);
            long.push_str(["\n", "\"", "\\"][i % 3]);
        }
        let mut out = String::new();
        write_str(&mut out, &long);
        assert_eq!(parse(&out).unwrap().as_str(), Some(long.as_str()));
        // A `\u` surrogate pair (the escaper never emits one) between runs.
        let doc = format!("\"{}\\ud83e\\udd80{}\"", "a中".repeat(100), "é".repeat(100));
        let want = format!("{}🦀{}", "a中".repeat(100), "é".repeat(100));
        assert_eq!(parse(&doc).unwrap().as_str(), Some(want.as_str()));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{}  x").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn large_integers_stay_exact() {
        // Simulated-time microsecond stamps fit well inside f64's 2^53.
        let v = parse("2592000000000").unwrap();
        assert_eq!(v.as_u64(), Some(2_592_000_000_000));
        assert_eq!(parse("9007199254740991").unwrap().as_u64(), Some((1 << 53) - 1));
    }

    #[test]
    fn integers_a_double_cannot_hold_are_refused() {
        // 2^53 + 1 parses to 2^53: reading it back would be off by one.
        assert_eq!(parse("9007199254740993").unwrap().as_u64(), None);
        assert_eq!(parse("9007199254740992").unwrap().as_u64(), None);
        // 2^64 does not fit a u64 at all; it must not saturate to u64::MAX.
        assert_eq!(parse("18446744073709551616").unwrap().as_u64(), None);
    }

    #[test]
    fn raw_control_characters_in_strings_are_rejected() {
        for doc in ["\"a\u{0001}b\"", "\"tab\there\"", "[\"ok\", \"line\nbreak\"]"] {
            let err = parse(doc).expect_err("a raw control character is not JSON");
            assert!(err.contains("control character"), "{err}");
        }
        let err = parse("{\"k\": \"v\u{001f}\"}").unwrap_err();
        assert!(err.ends_with("at byte 8"), "{err}");
        // Escaped, the same characters are fine.
        assert_eq!(parse("\"a\\u0001b\\t\"").unwrap().as_str(), Some("a\u{0001}b\t"));
    }
}
