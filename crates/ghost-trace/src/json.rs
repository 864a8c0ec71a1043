//! Minimal JSON tree: a parser, a writer, and a checked integer accessor,
//! so Chrome traces can be validated and `repro.json` documents written
//! and read without pulling a serde dependency into the offline build.
//! Supports the full JSON grammar (objects, arrays, strings with escapes,
//! numbers, booleans, null); numbers are `f64`, so integers are exact
//! only up to 2⁵³ — wider values travel as decimal strings.

use std::fmt;

/// A parsed JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on objects; `None` for other variants or missing keys.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric member `key` as an integer of type `T`. Rejects — naming
    /// the field — a member that is missing, not a number, not finite,
    /// fractional, negative, above 2⁵³ (where `f64` stops being exact), or
    /// out of `T`'s range, so a hand-edited document cannot wrap or
    /// truncate into a different value.
    pub fn uint<T: TryFrom<u64>>(&self, key: &str) -> Result<T, String> {
        let n = self
            .get(key)
            .and_then(Json::as_num)
            .ok_or_else(|| format!("missing numeric field '{key}'"))?;
        if !(n.is_finite() && n >= 0.0 && n.fract() == 0.0 && n <= (1u64 << 53) as f64) {
            return Err(format!(
                "field '{key}': {n} is not a non-negative integer of at most 2^53"
            ));
        }
        T::try_from(n as u64).map_err(|_| format!("field '{key}': {n} is out of range"))
    }

    fn write(&self, f: &mut fmt::Formatter<'_>, depth: usize) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(n) if n.is_finite() => write!(f, "{n}"),
            Json::Num(_) => f.write_str("null"),
            Json::Str(s) => write!(f, "\"{}\"", escape(s)),
            Json::Arr(items) => write_seq(f, depth, "[]", items, |f, v| v.write(f, depth + 1)),
            Json::Obj(members) => write_seq(f, depth, "{}", members, |f, (k, v)| {
                write!(f, "\"{}\": ", escape(k))?;
                v.write(f, depth + 1)
            }),
        }
    }
}

/// Writes the document. Containers nested less than two deep put one
/// member per line; deeper ones stay on one line, so a top-level list of
/// small objects reads as one object per line.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write(f, 0)
    }
}

fn write_seq<T>(
    f: &mut fmt::Formatter<'_>,
    depth: usize,
    brackets: &str,
    items: &[T],
    each: impl Fn(&mut fmt::Formatter<'_>, &T) -> fmt::Result,
) -> fmt::Result {
    let broken = depth < 2 && !items.is_empty();
    f.write_str(&brackets[..1])?;
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(",")?;
        }
        if broken {
            write!(f, "\n{:w$}", "", w = 2 * depth + 2)?;
        } else if i > 0 {
            f.write_str(" ")?;
        }
        each(f, item)?;
    }
    if broken {
        write!(f, "\n{:w$}", "", w = 2 * depth)?;
    }
    f.write_str(&brackets[1..])
}

/// Parses `input` as one JSON document; trailing non-whitespace is an error.
pub fn parse(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == ch {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", ch as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_num(b, pos),
        _ => Err(format!("unexpected byte at {}", *pos)),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, val: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(val)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    while let Some(&c) = b.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(out),
            b'\\' => {
                let esc = *b.get(*pos).ok_or("unterminated escape")?;
                *pos += 1;
                match esc {
                    b'"' => out.push('"'),
                    b'\\' => out.push('\\'),
                    b'/' => out.push('/'),
                    b'b' => out.push('\u{8}'),
                    b'f' => out.push('\u{c}'),
                    b'n' => out.push('\n'),
                    b'r' => out.push('\r'),
                    b't' => out.push('\t'),
                    b'u' => {
                        let hex = b
                            .get(*pos..*pos + 4)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        *pos += 4;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos - 1)),
                }
            }
            _ => {
                // Re-decode multi-byte UTF-8 sequences from the source.
                let width = utf8_width(c);
                if width == 1 {
                    out.push(c as char);
                } else {
                    let start = *pos - 1;
                    let end = start + width;
                    let s = b
                        .get(start..end)
                        .and_then(|sl| std::str::from_utf8(sl).ok())
                        .ok_or("invalid utf-8 in string")?;
                    out.push_str(s);
                    *pos = end;
                }
            }
        }
    }
    Err("unterminated string".into())
}

fn utf8_width(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos)?;
        members.push((key, val));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

/// Escapes `s` for embedding in a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_basic_document() {
        let doc =
            r#"{"a": [1, 2.5, -3e2], "b": {"nested": true}, "s": "hi\n\"there\"", "n": null}"#;
        let v = parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_num(),
            Some(-300.0)
        );
        assert_eq!(v.get("b").unwrap().get("nested"), Some(&Json::Bool(true)));
        assert_eq!(v.get("s").unwrap().as_str(), Some("hi\n\"there\""));
        assert_eq!(v.get("n"), Some(&Json::Null));
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("{").is_err());
        assert!(parse("[1,]").is_err());
        assert!(parse("{\"a\" 1}").is_err());
        assert!(parse("[1] trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn escape_round_trips() {
        let raw = "line\nwith \"quotes\" and \\slash\\ and \t tab";
        let doc = format!("{{\"k\": \"{}\"}}", escape(raw));
        let v = parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(raw));
    }

    #[test]
    fn parses_unicode_escape_and_utf8() {
        let v = parse("{\"k\": \"\\u00e9 caf\u{e9}\"}").unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("\u{e9} caf\u{e9}"));
    }

    #[test]
    fn writer_output_parses_back_and_breaks_two_levels() {
        let doc = Json::Obj(vec![
            ("s".into(), Json::Str("a \"q\"\n".into())),
            ("n".into(), Json::Num(120_000_000.0)),
            (
                "list".into(),
                Json::Arr(vec![
                    Json::Obj(vec![
                        ("k".into(), Json::Num(1.0)),
                        ("b".into(), Json::Bool(true)),
                    ]),
                    Json::Obj(vec![]),
                ]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            ("nan".into(), Json::Num(f64::NAN)),
        ]);
        let text = doc.to_string();
        assert_eq!(
            text,
            "{\n  \"s\": \"a \\\"q\\\"\\n\",\n  \"n\": 120000000,\n  \"list\": [\n    \
             {\"k\": 1, \"b\": true},\n    {}\n  ],\n  \"empty\": [],\n  \"nan\": null\n}"
        );
        let back = parse(&text).unwrap();
        assert_eq!(back.get("list"), doc.get("list"));
        assert_eq!(back.get("s"), doc.get("s"));
        assert_eq!(back.to_string(), text, "writing is a fixpoint");
    }

    #[test]
    fn uint_rejects_what_a_cast_would_mangle() {
        let v = parse(
            r#"{"ok": 65535, "big": 70000, "neg": -1, "frac": 1.5, "huge": 1e300,
                "edge": 9007199254740992, "past": 9007199254740994, "s": "7"}"#,
        )
        .unwrap();
        assert_eq!(v.uint::<u16>("ok"), Ok(65535));
        assert_eq!(v.uint::<u64>("edge"), Ok(1 << 53));
        for key in ["big", "neg", "frac", "huge", "past", "s", "absent"] {
            let err = v.uint::<u16>(key).unwrap_err();
            assert!(err.contains(&format!("'{key}'")), "{key}: {err}");
        }
        assert_eq!(v.uint::<u32>("big"), Ok(70000));
        assert!(v.uint::<u64>("past").is_err());
    }
}
