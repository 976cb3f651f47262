//! Minimal JSON reader/writer shared by the workspace's tooling: bench
//! summaries are merged with it and the planning service's JSONL request
//! protocol parses with it. The offline workspace has no serde
//! implementation (the shim only provides no-op derives), hence this
//! self-contained recursive-descent parser. It covers exactly the JSON the
//! workspace emits: objects, arrays, strings with the escapes
//! [`crate::json::push_str`] produces, finite numbers, booleans, `null`.
//! Writing goes through [`crate::json`], the workspace's one JSON writer.

use crate::json;

/// A parsed JSON value. Object member order is preserved, so merged files
/// stay stable and diffable across runs.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// Object with insertion-ordered members.
    Obj(Vec<(String, Json)>),
    /// Array.
    Arr(Vec<Json>),
    /// String.
    Str(String),
    /// Number (f64 holds every counter the workspace emits exactly).
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// Null.
    Null,
}

impl Json {
    /// Member lookup on an object (`None` for other variants).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    json::push_str(out, k);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Str(s) => json::push_str(out, s),
            Json::Num(v) => json::push_f64(out, *v),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Null => out.push_str("null"),
        }
    }
}

/// Compact JSON serialization (so `to_string()` round-trips via [`parse`]).
impl std::fmt::Display for Json {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Recursively union `new` into `old`: objects merge member-wise (members
/// only in `old` survive, members in both take `new`'s value — merged
/// recursively when both sides are objects), anything else is replaced by
/// `new`. This is exactly the "latest writer wins per key, nobody drops the
/// other's rows" policy the bench summaries need.
pub fn merge(old: &Json, new: &Json) -> Json {
    match (old, new) {
        (Json::Obj(o), Json::Obj(n)) => {
            let mut merged = o.clone();
            for (k, nv) in n {
                match merged.iter_mut().find(|(mk, _)| mk == k) {
                    Some((_, ov)) => *ov = merge(ov, nv),
                    None => merged.push((k.clone(), nv.clone())),
                }
            }
            Json::Obj(merged)
        }
        _ => new.clone(),
    }
}

/// Parse a JSON document (surrounding whitespace tolerated). Errors carry a
/// byte offset for debugging corrupt summaries.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let v = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing data at byte {pos}"));
    }
    Ok(v)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {}", c as char, *pos))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut members = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(members));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                members.push((key, value));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(members));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_number(bytes, pos),
        None => Err("unexpected end of input".into()),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
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
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {}", *pos));
    }
    *pos += 1;
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
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or_else(|| format!("bad \\u escape at byte {}", *pos))?;
                        out.push(char::from_u32(hex).unwrap_or('\u{FFFD}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Advance one UTF-8 scalar (the input is a &str, so byte
                // boundaries are valid).
                let rest = &bytes[*pos..];
                let ch_len = std::str::from_utf8(rest)
                    .map_err(|_| "invalid utf-8".to_string())?
                    .chars()
                    .next()
                    .map(char::len_utf8)
                    .unwrap_or(1);
                out.push_str(std::str::from_utf8(&rest[..ch_len]).unwrap());
                *pos += ch_len;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_the_obs_snapshot_shape() {
        let text = r#"{"bench":"plan","wall_ms":{"a":1.5,"b":2},"observability":{"counters":{"x.y":3},"histograms":{"h":{"count":2,"sum":3.5,"min":1,"max":2.5}}}}"#;
        let v = parse(text).unwrap();
        assert_eq!(parse(&v.to_string()).unwrap(), v);
        assert_eq!(v.get("bench"), Some(&Json::Str("plan".into())));
    }

    #[test]
    fn merge_unions_objects_latest_wins() {
        let old = parse(r#"{"wall_ms":{"a":1,"b":2},"tag":"old"}"#).unwrap();
        let new = parse(r#"{"wall_ms":{"b":9,"c":3},"tag":"new"}"#).unwrap();
        let m = merge(&old, &new);
        let wall = m.get("wall_ms").unwrap();
        assert_eq!(wall.get("a"), Some(&Json::Num(1.0)));
        assert_eq!(wall.get("b"), Some(&Json::Num(9.0)));
        assert_eq!(wall.get("c"), Some(&Json::Num(3.0)));
        assert_eq!(m.get("tag"), Some(&Json::Str("new".into())));
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("{\"a\":").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("nope").is_err());
    }
}
