//! The workspace's one JSON codec: a value type, a recursive-descent
//! parser that rejects nesting deeper than [`MAX_DEPTH`], a pretty printer
//! for artifacts (`BENCH_*.json`, read back by `bench_check`) and a compact
//! one-line renderer for serve frames and store records. [`crate::chrome`]
//! escapes its strings through the same writer.

use std::fmt::Write as _;

/// Deepest container nesting [`Json::parse`] accepts. The deepest document
/// the workspace writes (a store record) nests about seven levels.
pub const MAX_DEPTH: usize = 64;

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (parsed as `f64`; integers ≤ 2⁵³ round-trip exactly).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member by key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// String value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// Array elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Convenience: integer-valued number builder.
    pub fn int(v: u64) -> Json {
        Json::Num(v as f64)
    }

    /// Pretty-prints with two-space indentation and a trailing newline —
    /// stable formatting so committed baselines diff cleanly.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, Some(0));
        out.push('\n');
        out
    }

    /// Renders on one line with no trailing newline, as the wire needs:
    /// `{"k": v,"k2": v2}` and `[a,b]`, scalars as [`Json::render`] writes
    /// them.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, None);
        out
    }

    /// Pretty-prints at `indent` levels, or on one line for `None`.
    fn write_into(&self, out: &mut String, indent: Option<usize>) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(n) => {
                // Integers without a decimal point, floats with full
                // round-trip precision. JSON has no NaN/±inf literal — a
                // non-finite value (e.g. a NaN energy estimate) renders as
                // null rather than corrupting the document.
                if !n.is_finite() {
                    out.push_str("null");
                } else if n.fract() == 0.0 && n.abs() < 9.0e15 {
                    let _ = write!(out, "{}", *n as i64);
                } else {
                    let _ = write!(out, "{n}");
                }
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => write_seq(out, "[]", items, indent, |out, item, indent| {
                item.write_into(out, indent)
            }),
            Json::Obj(members) => write_seq(out, "{}", members, indent, |out, (k, v), indent| {
                write_string(out, k);
                out.push_str(": ");
                v.write_into(out, indent);
            }),
        }
    }

    /// Parses a JSON document (the subset above; `\uXXXX` escapes are
    /// accepted for BMP code points). Containers nested deeper than
    /// [`MAX_DEPTH`] are an error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }
}

/// Writes `items` between the two `brackets`, comma-separated; pretty
/// layout puts each item on its own line one level deeper than `indent`.
fn write_seq<T>(
    out: &mut String,
    brackets: &str,
    items: &[T],
    indent: Option<usize>,
    mut write_item: impl FnMut(&mut String, &T, Option<usize>),
) {
    let (open, close) = brackets.split_at(1);
    out.push_str(open);
    if !items.is_empty() {
        let inner = indent.map(|i| i + 1);
        for (i, item) in items.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            if let Some(level) = inner {
                out.push('\n');
                out.push_str(&"  ".repeat(level));
            }
            write_item(out, item, inner);
        }
        if let Some(level) = indent {
            out.push('\n');
            out.push_str(&"  ".repeat(level));
        }
    }
    out.push_str(close);
}

/// Appends `s` as a JSON string literal, quotes included.
pub(crate) fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, b: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&b) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected {:?} at byte {} (found {:?})",
            b as char,
            *pos,
            bytes.get(*pos).map(|&b| b as char)
        ))
    }
}

/// `depth` counts the containers enclosing the value at `pos`.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth >= MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} at byte {pos}",
            pos = *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}", pos = *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
    {
        *pos += 1;
    }
    std::str::from_utf8(&bytes[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or_else(|| format!("bad number at byte {start}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .ok_or("bad \\u escape")?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the contiguous run up to the next quote or escape as
                // one validated chunk. (Validating the whole remaining
                // buffer per character made parsing quadratic — a 10 KB
                // document cost milliseconds, which the serve hit path
                // noticed.) Multi-byte UTF-8 sequences contain no `"`/`\`
                // bytes, so the bytewise scan cannot split a scalar.
                let start = *pos;
                while *pos < bytes.len() && bytes[*pos] != b'"' && bytes[*pos] != b'\\' {
                    *pos += 1;
                }
                let chunk = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
                out.push_str(chunk);
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(bytes, pos, depth)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            other => return Err(format!("expected ',' or ']', found {other:?}")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        let value = parse_value(bytes, pos, depth)?;
        members.push((key, value));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            other => return Err(format!("expected ',' or '}}', found {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cello_tensor::gen::{for_cases, SplitMix64};

    #[test]
    fn round_trips_bench_shape() {
        let doc = Json::Obj(vec![
            ("schema".into(), Json::int(1)),
            (
                "workloads".into(),
                Json::Arr(vec![Json::Obj(vec![
                    ("name".into(), Json::Str("cg/G2_circuit".into())),
                    ("nodes".into(), Json::int(4)),
                    ("tuned_cycles".into(), Json::int(123_456_789)),
                    ("rank_correlation".into(), Json::Num(0.9375)),
                    ("ok".into(), Json::Bool(true)),
                ])]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert_eq!(back, doc);
        let w = &back.get("workloads").unwrap().as_array().unwrap()[0];
        assert_eq!(w.get("name").unwrap().as_str(), Some("cg/G2_circuit"));
        assert_eq!(w.get("tuned_cycles").unwrap().as_f64(), Some(123_456_789.0));
    }

    #[test]
    fn parses_hand_written_json() {
        let back =
            Json::parse(r#" { "a": [1, -2.5, 3e2], "b": "x\n\"y\"", "c": null, "d": false } "#)
                .unwrap();
        assert_eq!(
            back.get("a").unwrap().as_array().unwrap()[2].as_f64(),
            Some(300.0)
        );
        assert_eq!(back.get("b").unwrap().as_str(), Some("x\n\"y\""));
        assert_eq!(back.get("c"), Some(&Json::Null));
        assert_eq!(back.get("d"), Some(&Json::Bool(false)));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in ["{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "1 2"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn integers_render_without_decimal_point() {
        assert_eq!(Json::int(42).render(), "42\n");
        assert_eq!(Json::Num(0.5).render(), "0.5\n");
    }

    /// Non-finite numbers have no JSON literal: they render as null and the
    /// document stays parseable.
    #[test]
    fn non_finite_renders_as_null() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let doc = Json::Obj(vec![("e".into(), Json::Num(bad))]);
            let text = doc.render();
            let back = Json::parse(&text).unwrap();
            assert_eq!(back.get("e"), Some(&Json::Null));
        }
    }

    #[test]
    fn escaping_covers_control_chars() {
        let escaped = |s: &str| Json::Str(s.into()).compact();
        assert_eq!(escaped("a\"b\\c\td\u{1}"), "\"a\\\"b\\\\c\\td\\u0001\"");
        assert_eq!(escaped("plain"), "\"plain\"");
        assert_eq!(
            escaped("\r\n\u{1f}\u{7f}\u{1F600}/"),
            "\"\\r\\n\\u001f\u{7f}\u{1F600}/\""
        );
    }

    /// Nesting past [`MAX_DEPTH`] is an error, not a stack overflow.
    #[test]
    fn nesting_deeper_than_the_cap_is_an_error() {
        let nested = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
        for hostile in ["[".repeat(1 << 20), "{\"a\":".repeat(50_000)] {
            assert!(Json::parse(&hostile).unwrap_err().contains("nesting"));
        }
    }

    /// Byte-for-byte reference for [`Json::compact`]: every scalar and key
    /// pretty-printed on its own and its trailing newline trimmed.
    fn reference_compact(v: &Json) -> String {
        match v {
            Json::Arr(items) => {
                let inner: Vec<String> = items.iter().map(reference_compact).collect();
                format!("[{}]", inner.join(","))
            }
            Json::Obj(members) => {
                let inner: Vec<String> = members
                    .iter()
                    .map(|(k, v)| {
                        let key = Json::Str(k.clone()).render();
                        format!("{}: {}", key.trim_end(), reference_compact(v))
                    })
                    .collect();
                format!("{{{}}}", inner.join(","))
            }
            other => other.render().trim_end().to_string(),
        }
    }

    /// `v` as it reads back: non-finite numbers come back as `Null`.
    fn finite(v: &Json) -> Json {
        match v {
            Json::Num(n) if !n.is_finite() => Json::Null,
            Json::Arr(items) => Json::Arr(items.iter().map(finite).collect()),
            Json::Obj(m) => Json::Obj(m.iter().map(|(k, v)| (k.clone(), finite(v))).collect()),
            other => other.clone(),
        }
    }

    /// Random trees up to `depth` containers deep with adversarial keys,
    /// strings and numbers (NaN, ±inf, any bit pattern).
    fn arb_json(rng: &mut SplitMix64, depth: u32) -> Json {
        match rng.below(if depth == 0 { 4 } else { 6 }) {
            0 => Json::Null,
            1 => Json::Bool(rng.next_u64() & 1 == 1),
            2 => Json::Num(match rng.below(4) {
                0 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.below(3) as usize],
                1 => (rng.next_u64() >> 10) as f64 - (1u64 << 53) as f64,
                2 => rng.below(1_000_000) as f64 / 1024.0,
                _ => f64::from_bits(rng.next_u64()),
            }),
            3 => Json::Str(arb_string(rng)),
            4 => Json::Arr(
                (0..rng.below(5))
                    .map(|_| arb_json(rng, depth - 1))
                    .collect(),
            ),
            _ => Json::Obj(
                (0..rng.below(5))
                    .map(|_| (arb_string(rng), arb_json(rng, depth - 1)))
                    .collect(),
            ),
        }
    }

    fn arb_string(rng: &mut SplitMix64) -> String {
        let nasty: Vec<char> =
            "\"\\\n\r\t\u{0}\u{8}\u{1f}\u{7f}\u{85}\u{2028}\u{3000}\u{1F600}\u{10FFFF}"
                .chars()
                .collect();
        (0..rng.below(12))
            .map(|_| match rng.below(3) {
                0 => nasty[rng.below(nasty.len() as u64) as usize],
                1 => (b' ' + rng.below(95) as u8) as char,
                _ => char::from_u32(rng.below(0x11_0000) as u32).unwrap_or('\u{fffd}'),
            })
            .collect()
    }

    #[test]
    fn compact_matches_the_reference_and_both_renderers_round_trip() {
        let name = "compact_matches_the_reference_and_both_renderers_round_trip";
        for_cases(name, 512, |rng| {
            let v = arb_json(rng, 4);
            let line = v.compact();
            assert_eq!(&line, &reference_compact(&v));
            let expected = finite(&v);
            assert_eq!(Json::parse(&line).unwrap(), expected);
            assert_eq!(Json::parse(&v.render()).unwrap(), expected);
        });
    }
}
