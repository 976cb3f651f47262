//! The workspace's one `key = value` text codec: the service journal and
//! snapshot, the service configuration header and fuzz `.case` files all
//! read and write through it, so they share one definition of the format.
//!
//! It has three layers, each reader beside its writer:
//!
//! * **documents** — one `key = value` pair per line ([`lines`], [`put`]).
//!   Blank and `#` lines are skipped, and errors carry 1-based line numbers.
//! * **records** — a value made of whitespace-separated `k=v` tokens after
//!   an optional bare `kind` word ([`Record`], [`RecordWriter`]). Values go
//!   out through `Display` and come back through `FromStr`, so integers are
//!   range-checked by their type. [`Flag`] is a strict `0|1`, [`Bits`] is
//!   an `f64` as its 16 hex bit digits, and [`List`] is a comma list.
//! * **structs** — a [`Fields`] impl names each key once. [`write_fields`]
//!   and [`Line::set_in`] serve the writer and the reader from that list.

use std::fmt::{self, Display, Write as _};
use std::str::FromStr;

/// A `0|1` flag; any other text is an error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Flag(pub bool);

impl Display for Flag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(if self.0 { "1" } else { "0" })
    }
}

impl FromStr for Flag {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "0" => Ok(Flag(false)),
            "1" => Ok(Flag(true)),
            _ => Err(format!("expected 0 or 1, got {s:?}")),
        }
    }
}

/// An `f64` as the 16 hex digits of its bits, so it round-trips exactly.
#[derive(Clone, Copy, Debug)]
pub struct Bits(pub f64);

impl Display for Bits {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0.to_bits())
    }
}

impl FromStr for Bits {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return Err(format!("expected 16 hex digits, got {s:?}"));
        }
        let bits = u64::from_str_radix(s, 16).map_err(|e| e.to_string())?;
        Ok(Bits(f64::from_bits(bits)))
    }
}

/// A comma list such as `0,2,5`, empty for no items. Any cloneable
/// sequence of displayable items writes; a `Vec` reads back.
#[derive(Clone, Debug)]
pub struct List<I>(pub I);

impl<I: Clone + IntoIterator<Item: Display>> Display for List<I> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, item) in self.0.clone().into_iter().enumerate() {
            if i > 0 {
                f.write_char(',')?;
            }
            item.fmt(f)?;
        }
        Ok(())
    }
}

impl<T: FromStr<Err: Display>> FromStr for List<Vec<T>> {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, String> {
        if s.is_empty() {
            return Ok(List(Vec::new()));
        }
        let items = s.split(',').map(|item| parse(item.trim()));
        items.collect::<Result<_, _>>().map(List)
    }
}

fn parse<T: FromStr<Err: Display>>(s: &str) -> Result<T, String> {
    s.parse().map_err(|e: T::Err| e.to_string())
}

// --- documents ---------------------------------------------------------------

/// A document error and the 1-based line it was found on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Error {
    /// 1-based line number.
    pub line: usize,
    /// What is wrong with the line.
    pub msg: String,
}

impl Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl From<Error> for String {
    fn from(e: Error) -> String {
        e.to_string()
    }
}

/// One `key = value` line of a document, both sides trimmed.
#[derive(Clone, Copy, Debug)]
pub struct Line<'a> {
    /// 1-based line number.
    pub no: usize,
    /// Text before the first `=`.
    pub key: &'a str,
    /// Text after the first `=`.
    pub value: &'a str,
}

impl Line<'_> {
    /// An error on this line.
    pub fn error(&self, msg: impl Display) -> Error {
        Error {
            line: self.no,
            msg: msg.to_string(),
        }
    }

    /// The value, parsed.
    pub fn parse<T: FromStr<Err: Display>>(&self) -> Result<T, Error> {
        parse(self.value).map_err(|e| self.error(format_args!("{}: {e}", self.key)))
    }

    /// Set the field of `x` this line names, when its key is `prefix`
    /// followed by one of `x`'s keys. `Ok(false)`: the prefix differs.
    pub fn set_in(&self, prefix: &str, x: &mut impl Fields) -> Result<bool, Error> {
        let Some(key) = self.key.strip_prefix(prefix) else {
            return Ok(false);
        };
        set_field(x, key, self.value).map_err(|e| self.error(e))?;
        Ok(true)
    }
}

/// The `key = value` lines of `text`, skipping blank and `#` lines. A line
/// without `=` is an error.
pub fn lines(text: &str) -> impl Iterator<Item = Result<Line<'_>, Error>> {
    let lines = text.lines().zip(1..);
    lines.filter_map(|(raw, no)| match raw.trim() {
        "" => None,
        line if line.starts_with('#') => None,
        line => Some(match line.split_once('=') {
            Some((key, value)) => Ok(Line {
                no,
                key: key.trim(),
                value: value.trim(),
            }),
            None => Err(Error {
                line: no,
                msg: format!("expected `key = value`: {raw:?}"),
            }),
        }),
    })
}

/// Append one `key = value` line.
pub fn put(out: &mut String, key: &str, value: impl Display) {
    let _ = writeln!(out, "{key} = {value}");
}

// --- records -----------------------------------------------------------------

/// A borrowed `[kind] k=v …` record: an optional leading word without `=`,
/// then `k=v` tokens separated by whitespace. Keys it is not asked for are
/// ignored.
#[derive(Clone, Debug)]
pub struct Record<'a> {
    kind: &'a str,
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Record<'a> {
    /// Split a record into its kind (empty when absent) and tokens.
    pub fn parse(text: &'a str) -> Result<Record<'a>, String> {
        let mut tokens = text.split_whitespace().peekable();
        let kind = tokens.next_if(|t| !t.contains('=')).unwrap_or_default();
        let fields = tokens
            .map(|t| {
                t.split_once('=')
                    .ok_or_else(|| format!("expected k=v token, got {t:?}"))
            })
            .collect::<Result<_, _>>()?;
        Ok(Record { kind, fields })
    }

    /// The leading word, or `""`.
    pub fn kind(&self) -> &'a str {
        self.kind
    }

    /// The unparsed value of `key`, if present.
    pub fn raw(&self, key: &str) -> Option<&'a str> {
        self.fields.iter().find(|(k, _)| *k == key).map(|&(_, v)| v)
    }

    /// `key`'s value parsed; `None` when absent, an error when malformed.
    pub fn opt<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Option<T>, String> {
        let value = self.raw(key).map(parse).transpose();
        value.map_err(|e| self.error(key, e))
    }

    /// `key`'s value parsed; an error when absent or malformed.
    pub fn get<T: FromStr<Err: Display>>(&self, key: &str) -> Result<T, String> {
        self.opt(key)?.ok_or_else(|| self.error(key, "missing"))
    }

    /// `key`'s [`Flag`].
    pub fn flag(&self, key: &str) -> Result<bool, String> {
        self.get(key).map(|Flag(b)| b)
    }

    /// `key`'s [`Bits`].
    pub fn bits(&self, key: &str) -> Result<f64, String> {
        self.get(key).map(|Bits(x)| x)
    }

    /// `key`'s [`List`].
    pub fn list<T: FromStr<Err: Display>>(&self, key: &str) -> Result<Vec<T>, String> {
        self.get(key).map(|List(v)| v)
    }

    fn error(&self, key: &str, e: impl Display) -> String {
        match self.kind {
            "" => format!("{key}: {e}"),
            kind => format!("{kind}.{key}: {e}"),
        }
    }
}

/// Writes one `[kind] k=v …` record, the inverse of [`Record::parse`].
pub struct RecordWriter<'a, W: fmt::Write> {
    out: &'a mut W,
    sep: &'static str,
    result: fmt::Result,
}

impl<'a, W: fmt::Write> RecordWriter<'a, W> {
    /// Start a record led by `kind` (none when empty).
    pub fn new(out: &'a mut W, kind: &str) -> Self {
        let result = out.write_str(kind);
        let sep = if kind.is_empty() { "" } else { " " };
        RecordWriter { out, sep, result }
    }

    /// Append `key=value`.
    pub fn put(mut self, key: &str, value: impl Display) -> Self {
        let sep = std::mem::replace(&mut self.sep, " ");
        self.result = self
            .result
            .and_then(|()| write!(self.out, "{sep}{key}={value}"));
        self
    }

    /// Append `key=value` when there is a value.
    pub fn opt(self, key: &str, value: Option<impl Display>) -> Self {
        match value {
            Some(v) => self.put(key, v),
            None => self,
        }
    }

    /// The first write error, if any.
    pub fn finish(self) -> fmt::Result {
        self.result
    }
}

// --- structs -----------------------------------------------------------------

/// A struct read and written as `key = value` lines, its keys listed once.
pub trait Fields: Clone {
    /// Every field in text order, borrowed mutably so the one list serves
    /// the reader ([`Line::set_in`]) and the writer ([`write_fields`]).
    fn fields_mut(&mut self) -> Vec<Field<'_>>;
}

/// One field of a [`Fields`] struct.
pub struct Field<'a> {
    key: &'static str,
    value: FieldValue<'a>,
    written: bool,
}

/// A borrowed field of one of the types a [`Fields`] struct may hold.
pub enum FieldValue<'a> {
    /// An integer.
    U64(&'a mut u64),
    /// A size or count.
    Usize(&'a mut usize),
    /// A [`Flag`].
    Flag(&'a mut bool),
    /// An optional index [`List`], written only when present.
    List(&'a mut Option<Vec<usize>>),
}

macro_rules! field_value_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl<'a> From<&'a mut $t> for FieldValue<'a> {
            fn from(v: &'a mut $t) -> Self {
                FieldValue::$variant(v)
            }
        }
    )*};
}
field_value_from!(u64 => U64, usize => Usize, bool => Flag, Option<Vec<usize>> => List);

impl<'a> Field<'a> {
    /// The field named `key`.
    pub fn new(key: &'static str, value: impl Into<FieldValue<'a>>) -> Self {
        let value = value.into();
        Field {
            key,
            value,
            written: true,
        }
    }

    /// Write the field only when `cond` holds; it is read either way.
    pub fn written_if(self, cond: bool) -> Self {
        Field {
            written: cond,
            ..self
        }
    }
}

/// Append `<prefix><key> = <value>` for every written field of `x`.
pub fn write_fields(out: &mut String, prefix: &str, x: &impl Fields) {
    for Field { key, value, .. } in x.clone().fields_mut().iter().filter(|f| f.written) {
        let _ = match value {
            FieldValue::U64(v) => writeln!(out, "{prefix}{key} = {v}"),
            FieldValue::Usize(v) => writeln!(out, "{prefix}{key} = {v}"),
            FieldValue::Flag(v) => writeln!(out, "{prefix}{key} = {}", Flag(**v)),
            FieldValue::List(Some(v)) => writeln!(out, "{prefix}{key} = {}", List(v.iter())),
            FieldValue::List(None) => Ok(()),
        };
    }
}

/// Set the field of `x` named `key` from its text.
pub fn set_field(x: &mut impl Fields, key: &str, text: &str) -> Result<(), String> {
    let mut fields = x.fields_mut();
    let Some(Field { value, .. }) = fields.iter_mut().find(|f| f.key == key) else {
        return Err(format!("unknown key {key:?}"));
    };
    let set = match value {
        FieldValue::U64(v) => parse(text).map(|t| **v = t),
        FieldValue::Usize(v) => parse(text).map(|t| **v = t),
        FieldValue::Flag(v) => parse(text).map(|Flag(t)| **v = t),
        FieldValue::List(v) => parse(text).map(|List(t)| **v = Some(t)),
    };
    set.map_err(|e| format!("{key}: {e}"))
}

/// `(key, value)` for every field of a struct of `u64` counters.
///
/// # Panics
///
/// When a field of `x` is not a `u64`.
pub fn u64_fields(x: &impl Fields) -> Vec<(&'static str, u64)> {
    let mut x = x.clone();
    let fields = x.fields_mut().into_iter();
    fields
        .map(|Field { key, value, .. }| match value {
            FieldValue::U64(v) => (key, *v),
            _ => panic!("{key} is not a u64 field"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, Default, PartialEq)]
    struct Sample {
        n: u64,
        size: usize,
        on: bool,
        keep: Option<Vec<usize>>,
    }

    impl Fields for Sample {
        fn fields_mut(&mut self) -> Vec<Field<'_>> {
            let on = self.on;
            vec![
                Field::new("n", &mut self.n),
                Field::new("size", &mut self.size),
                Field::new("on", &mut self.on).written_if(on),
                Field::new("keep", &mut self.keep),
            ]
        }
    }

    #[test]
    fn fields_round_trip_and_skip_unwritten() {
        let x = Sample {
            n: 7,
            size: 3,
            on: false,
            keep: Some(vec![0, 4]),
        };
        let mut text = String::from("# header\n\n");
        write_fields(&mut text, "s.", &x);
        assert_eq!(text, "# header\n\ns.n = 7\ns.size = 3\ns.keep = 0,4\n");
        let mut back = Sample::default();
        for line in lines(&text) {
            assert!(line.unwrap().set_in("s.", &mut back).unwrap());
        }
        assert_eq!(back, x);
    }

    #[test]
    fn document_errors_carry_line_numbers() {
        let mut x = Sample::default();
        let errs: Vec<String> = lines("n = 1\n# c\nnonsense\nn = x\nbad = 1\non = 2\n")
            .filter_map(|l| l.and_then(|l| l.set_in("", &mut x)).err())
            .map(String::from)
            .collect();
        assert_eq!(errs.len(), 4, "{errs:?}");
        assert!(
            errs[0].starts_with("line 3: expected `key = value`"),
            "{errs:?}"
        );
        assert!(errs[1].starts_with("line 4: n: "), "{errs:?}");
        assert!(errs[2].starts_with("line 5: unknown key"), "{errs:?}");
        assert!(
            errs[3].starts_with("line 6: on: expected 0 or 1"),
            "{errs:?}"
        );
    }

    #[test]
    fn records_round_trip_with_typed_getters() {
        let mut text = String::new();
        let _ = RecordWriter::new(&mut text, "reg")
            .put("id", 3u32)
            .put("srcs", List([0u32, 2, 5].iter()))
            .opt("deadline", None::<u64>)
            .put("f", Flag(true))
            .put("x", Bits(0.1))
            .put("none", List(Vec::<u32>::new()))
            .finish();
        assert_eq!(text, "reg id=3 srcs=0,2,5 f=1 x=3fb999999999999a none=");
        let r = Record::parse(&text).unwrap();
        assert_eq!(r.kind(), "reg");
        assert_eq!(r.get::<u32>("id"), Ok(3));
        assert_eq!(r.list::<u32>("srcs"), Ok(vec![0, 2, 5]));
        assert_eq!(r.list::<u32>("none"), Ok(vec![]));
        assert_eq!(r.opt::<u64>("deadline"), Ok(None));
        assert_eq!(r.flag("f"), Ok(true));
        assert_eq!(r.bits("x").map(f64::to_bits), Ok(0.1f64.to_bits()));
        assert!(r.get::<u64>("missing").unwrap_err().contains("reg.missing"));

        let kindless = Record::parse("id=4294967297 f=2 x=3fb9 l=1,,2").unwrap();
        assert_eq!(kindless.kind(), "");
        assert!(kindless.get::<u32>("id").is_err(), "range-checked");
        assert_eq!(kindless.get::<u64>("id"), Ok(4_294_967_297));
        assert!(kindless.flag("f").is_err());
        assert!(kindless.bits("x").is_err());
        assert!(kindless.list::<u32>("l").is_err());
        assert!(Record::parse("reg id=1 torn").is_err());
    }
}
