//! A small SQL-ish parser for continuous SPJ queries.
//!
//! The paper writes its queries in SQL (Section 1.1):
//!
//! ```sql
//! SELECT FLIGHTS.STATUS, WEATHER.FORECAST, CHECK-INS.STATUS
//! FROM FLIGHTS, WEATHER, CHECK-INS
//! WHERE FLIGHTS.DEPARTING = 'ATLANTA'
//!   AND FLIGHTS.DESTN = WEATHER.CITY
//!   AND FLIGHTS.NUM = CHECK-INS.FLNUM
//!   AND FLIGHTS.DP-TIME < 12
//! ```
//!
//! [`parse_query`] turns exactly that subset — `SELECT` projection list (or
//! `*`), `FROM` stream list, `WHERE` conjunction of equi-join predicates
//! (`a.x = b.y`) and selections (`a.x <op> literal`) — into a validated
//! [`Query`] against a [`Catalog`]. String literals are folded to stable
//! numeric codes (the statistics model is numeric); selection selectivities
//! come from a [`SelectivityHints`] table with conservative per-operator
//! defaults.

use crate::predicate::{CmpOp, JoinPredicate, SelectionPredicate};
use crate::query::{Query, QueryId};
use crate::stream::{Catalog, StreamId};
use dsq_net::NodeId;
use std::fmt;

/// Parse failure with a human-readable message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SQL parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError(msg.into()))
}

/// Selectivity estimates for selection predicates, used when the catalog
/// has no per-attribute statistics.
#[derive(Clone, Debug)]
pub struct SelectivityHints {
    /// `(attribute name, selectivity)` overrides.
    pub per_attribute: Vec<(String, f64)>,
    /// Default selectivity of equality selections.
    pub eq_default: f64,
    /// Default selectivity of range selections.
    pub range_default: f64,
}

impl Default for SelectivityHints {
    fn default() -> Self {
        SelectivityHints {
            per_attribute: Vec::new(),
            eq_default: 0.1,
            range_default: 0.3,
        }
    }
}

impl SelectivityHints {
    /// Add a per-attribute override.
    pub fn with(mut self, attr: impl Into<String>, selectivity: f64) -> Self {
        self.per_attribute.push((attr.into(), selectivity));
        self
    }

    fn lookup(&self, attr: &str, op: CmpOp) -> f64 {
        self.per_attribute
            .iter()
            .find(|(a, _)| a.eq_ignore_ascii_case(attr))
            .map(|(_, s)| *s)
            .unwrap_or(match op {
                CmpOp::Eq => self.eq_default,
                _ => self.range_default,
            })
    }
}

/// Fold a string literal to a stable numeric code (FNV-1a over the
/// uppercased bytes, mapped into [0, 1e6)).
pub fn string_code(s: &str) -> f64 {
    (dsq_obs::fnv64(s.to_ascii_uppercase().as_bytes()) % 1_000_000) as f64
}

/// Parse a `SELECT … FROM … [WHERE …]` statement into a [`Query`].
///
/// Stream names are resolved against the catalog (case-insensitive); the
/// result is delivered to `sink`.
pub fn parse_query(
    sql: &str,
    catalog: &Catalog,
    id: QueryId,
    sink: NodeId,
    hints: &SelectivityHints,
) -> Result<Query, ParseError> {
    let upper = sql.to_ascii_uppercase();
    let select_pos = match upper.find("SELECT") {
        Some(p) => p,
        None => return err("missing SELECT"),
    };
    let from_pos = match upper.find(" FROM ") {
        Some(p) => p,
        None => return err("missing FROM"),
    };
    let where_pos = upper.find(" WHERE ");

    let select_clause = sql[select_pos + "SELECT".len()..from_pos].trim();
    let from_clause = match where_pos {
        Some(w) => sql[from_pos + " FROM ".len()..w].trim(),
        None => sql[from_pos + " FROM ".len()..].trim(),
    };
    let where_clause = where_pos.map(|w| sql[w + " WHERE ".len()..].trim());

    // FROM: resolve stream names.
    let mut sources = Vec::new();
    for name in from_clause.split(',') {
        let name = name.trim();
        if name.is_empty() {
            return err("empty stream name in FROM");
        }
        let sid = resolve_stream(catalog, name)?;
        if sources.contains(&sid) {
            return err(format!("duplicate stream {name} in FROM"));
        }
        sources.push(sid);
    }
    if sources.is_empty() {
        return err("FROM lists no streams");
    }

    // SELECT: projection list.
    let mut projection = Vec::new();
    if select_clause != "*" {
        for item in select_clause.split(',') {
            let item = item.trim();
            let (stream, attr) = split_qualified(item)?;
            let sid = resolve_stream(catalog, stream)?;
            if !sources.contains(&sid) {
                return err(format!("projected stream {stream} not in FROM"));
            }
            if !catalog.stream(sid).schema.has(&attr)
                && !catalog.stream(sid).schema.attributes.is_empty()
            {
                return err(format!("unknown attribute {stream}.{attr}"));
            }
            projection.push((sid, attr));
        }
    }

    // WHERE: conjunction of joins and selections.
    let mut selections = Vec::new();
    let mut join_predicates = Vec::new();
    if let Some(clause) = where_clause {
        for cond in split_conjuncts(clause) {
            parse_condition(
                &cond,
                catalog,
                &sources,
                hints,
                &mut selections,
                &mut join_predicates,
            )?;
        }
    }

    let query = Query {
        id,
        sources,
        sink,
        selections,
        join_predicates,
        projection,
    };
    query.validate();
    Ok(query)
}

fn resolve_stream(catalog: &Catalog, name: &str) -> Result<StreamId, ParseError> {
    catalog
        .streams()
        .iter()
        .find(|s| s.name.eq_ignore_ascii_case(name))
        .map(|s| s.id)
        .ok_or_else(|| ParseError(format!("unknown stream {name}")))
}

/// Split `STREAM.ATTR` (stream names may contain `-`, attributes may too,
/// so split on the *first* dot).
fn split_qualified(item: &str) -> Result<(&str, String), ParseError> {
    match item.split_once('.') {
        Some((s, a)) if !s.trim().is_empty() && !a.trim().is_empty() => {
            Ok((s.trim(), a.trim().to_string()))
        }
        _ => err(format!("expected STREAM.ATTR, got {item:?}")),
    }
}

/// Split a WHERE clause on top-level `AND` (case-insensitive), respecting
/// single-quoted strings.
fn split_conjuncts(clause: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth_quote = false;
    let mut cur = String::new();
    let chars: Vec<char> = clause.chars().collect();
    let mut i = 0;
    while i < chars.len() {
        if chars[i] == '\'' {
            depth_quote = !depth_quote;
        }
        // Look for the word AND outside quotes.
        if !depth_quote
            && i + 3 <= chars.len()
            && chars[i..]
                .iter()
                .take(3)
                .collect::<String>()
                .eq_ignore_ascii_case("and")
            && (i == 0 || chars[i - 1].is_whitespace())
            && (i + 3 == chars.len() || chars[i + 3].is_whitespace())
        {
            out.push(cur.trim().to_string());
            cur.clear();
            i += 3;
            continue;
        }
        cur.push(chars[i]);
        i += 1;
    }
    if !cur.trim().is_empty() {
        out.push(cur.trim().to_string());
    }
    out.retain(|c| !c.is_empty());
    out
}

fn parse_condition(
    cond: &str,
    catalog: &Catalog,
    sources: &[StreamId],
    hints: &SelectivityHints,
    selections: &mut Vec<SelectionPredicate>,
    joins: &mut Vec<JoinPredicate>,
) -> Result<(), ParseError> {
    // Find the comparison operator (longest first).
    let ops = [
        ("<=", CmpOp::Le),
        (">=", CmpOp::Ge),
        ("=", CmpOp::Eq),
        ("<", CmpOp::Lt),
        (">", CmpOp::Gt),
    ];
    let (op_str, op, pos) = ops
        .iter()
        .filter_map(|(s, o)| cond.find(s).map(|p| (*s, *o, p)))
        .min_by_key(|(_, _, p)| *p)
        .ok_or_else(|| ParseError(format!("no comparison operator in {cond:?}")))?;
    let lhs = cond[..pos].trim();
    let rhs = cond[pos + op_str.len()..].trim();

    let (lstream_name, lattr) = split_qualified(lhs)?;
    let lstream = resolve_stream(catalog, lstream_name)?;
    if !sources.contains(&lstream) {
        return err(format!("stream {lstream_name} not in FROM"));
    }

    // RHS: another qualified attribute (join) or a literal (selection).
    let looks_like_attr = rhs.contains('.')
        && !rhs.starts_with('\'')
        && rhs.parse::<f64>().is_err()
        && resolve_stream(catalog, rhs.split('.').next().unwrap_or("")).is_ok();
    if looks_like_attr {
        if op != CmpOp::Eq {
            return err("only equi-joins are supported");
        }
        let (rstream_name, rattr) = split_qualified(rhs)?;
        let rstream = resolve_stream(catalog, rstream_name)?;
        if !sources.contains(&rstream) {
            return err(format!("stream {rstream_name} not in FROM"));
        }
        if rstream == lstream {
            return err("self-joins are not supported");
        }
        joins.push(JoinPredicate::new(lstream, lattr, rstream, rattr));
    } else {
        let value = if let Some(stripped) = rhs.strip_prefix('\'') {
            let inner = stripped
                .strip_suffix('\'')
                .ok_or_else(|| ParseError(format!("unterminated string literal {rhs:?}")))?;
            string_code(inner)
        } else {
            rhs.parse::<f64>()
                .map_err(|_| ParseError(format!("bad literal {rhs:?}")))?
        };
        let selectivity = hints.lookup(&lattr, op);
        selections.push(SelectionPredicate::new(
            lstream,
            lattr,
            op,
            value,
            selectivity,
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::Schema;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_stream(
            "FLIGHTS",
            60.0,
            NodeId(0),
            Schema::new(["NUM", "STATUS", "DEPARTING", "DESTN", "DP-TIME"]),
        );
        c.add_stream(
            "WEATHER",
            40.0,
            NodeId(1),
            Schema::new(["CITY", "FORECAST"]),
        );
        c.add_stream(
            "CHECK-INS",
            80.0,
            NodeId(2),
            Schema::new(["FLNUM", "STATUS"]),
        );
        c
    }

    #[test]
    fn parses_the_papers_q1() {
        let c = catalog();
        let sql = "SELECT FLIGHTS.STATUS, WEATHER.FORECAST, CHECK-INS.STATUS \
                   FROM FLIGHTS, WEATHER, CHECK-INS \
                   WHERE FLIGHTS.DEPARTING = 'ATLANTA' \
                     AND FLIGHTS.DESTN = WEATHER.CITY \
                     AND FLIGHTS.NUM = CHECK-INS.FLNUM \
                     AND FLIGHTS.DP-TIME < 12";
        let q = parse_query(sql, &c, QueryId(1), NodeId(5), &SelectivityHints::default()).unwrap();
        assert_eq!(q.sources.len(), 3);
        assert_eq!(q.join_predicates.len(), 2);
        assert_eq!(q.selections.len(), 2);
        assert_eq!(q.projection.len(), 3);
        let departing = q.selections.iter().find(|s| s.attr == "DEPARTING").unwrap();
        assert_eq!(departing.op, CmpOp::Eq);
        assert_eq!(departing.value, string_code("ATLANTA"));
        let dptime = q.selections.iter().find(|s| s.attr == "DP-TIME").unwrap();
        assert_eq!(dptime.op, CmpOp::Lt);
        assert_eq!(dptime.value, 12.0);
    }

    #[test]
    fn parses_the_papers_q2_and_filters_subsume() {
        let c = catalog();
        let q2 = parse_query(
            "SELECT FLIGHTS.STATUS, CHECK-INS.STATUS FROM FLIGHTS, CHECK-INS \
             WHERE FLIGHTS.DEPARTING = 'ATLANTA' AND FLIGHTS.NUM = CHECK-INS.FLNUM \
             AND FLIGHTS.DP-TIME < 12",
            &c,
            QueryId(0),
            NodeId(4),
            &SelectivityHints::default(),
        )
        .unwrap();
        let q1 = parse_query(
            "SELECT * FROM FLIGHTS, WEATHER, CHECK-INS \
             WHERE FLIGHTS.DEPARTING = 'ATLANTA' AND FLIGHTS.DESTN = WEATHER.CITY \
             AND FLIGHTS.NUM = CHECK-INS.FLNUM AND FLIGHTS.DP-TIME < 12",
            &c,
            QueryId(1),
            NodeId(5),
            &SelectivityHints::default(),
        )
        .unwrap();
        assert!(crate::predicate::selections_compatible(
            &q2.selections,
            &q1.selections
        ));
    }

    #[test]
    fn select_star_means_no_projection() {
        let c = catalog();
        let q = parse_query(
            "SELECT * FROM FLIGHTS, WEATHER WHERE FLIGHTS.DESTN = WEATHER.CITY",
            &c,
            QueryId(0),
            NodeId(3),
            &SelectivityHints::default(),
        )
        .unwrap();
        assert!(q.projection.is_empty());
        assert_eq!(q.join_predicates.len(), 1);
    }

    #[test]
    fn case_insensitive_keywords_and_names() {
        let c = catalog();
        let q = parse_query(
            "select flights.STATUS from Flights, weather where FLIGHTS.DESTN = weather.CITY",
            &c,
            QueryId(0),
            NodeId(3),
            &SelectivityHints::default(),
        )
        .unwrap();
        assert_eq!(q.sources.len(), 2);
    }

    #[test]
    fn selectivity_hints_apply() {
        let c = catalog();
        let hints = SelectivityHints::default().with("DEPARTING", 0.02);
        let q = parse_query(
            "SELECT * FROM FLIGHTS WHERE FLIGHTS.DEPARTING = 'ATLANTA'",
            &c,
            QueryId(0),
            NodeId(3),
            &hints,
        )
        .unwrap();
        assert_eq!(q.selections[0].selectivity, 0.02);
    }

    #[test]
    fn error_cases() {
        let c = catalog();
        let h = SelectivityHints::default();
        for (sql, needle) in [
            ("FROM FLIGHTS", "missing SELECT"),
            ("SELECT * FLIGHTS", "missing FROM"),
            ("SELECT * FROM NOPE", "unknown stream"),
            ("SELECT * FROM FLIGHTS, FLIGHTS", "duplicate stream"),
            (
                "SELECT * FROM FLIGHTS, WEATHER WHERE FLIGHTS.DESTN < WEATHER.CITY",
                "equi-join",
            ),
            (
                "SELECT * FROM FLIGHTS WHERE FLIGHTS.NUM = FLIGHTS.STATUS",
                "self-join",
            ),
            (
                "SELECT * FROM FLIGHTS WHERE FLIGHTS.DP-TIME ! 5",
                "no comparison",
            ),
            (
                "SELECT * FROM FLIGHTS WHERE FLIGHTS.DEPARTING = 'ATLANTA",
                "unterminated",
            ),
            ("SELECT WEATHER.CITY FROM FLIGHTS", "not in FROM"),
            ("SELECT FLIGHTS.NOPE FROM FLIGHTS", "unknown attribute"),
        ] {
            let e = parse_query(sql, &c, QueryId(0), NodeId(0), &h).unwrap_err();
            assert!(
                e.0.contains(needle),
                "for {sql:?} expected {needle:?} in {:?}",
                e.0
            );
        }
    }

    #[test]
    fn string_codes_are_stable_and_case_insensitive() {
        assert_eq!(string_code("Atlanta"), string_code("ATLANTA"));
        assert_ne!(string_code("ATLANTA"), string_code("BOSTON"));
        assert!(string_code("ATLANTA") >= 0.0 && string_code("ATLANTA") < 1e6);
    }

    #[test]
    fn quoted_and_inside_string_is_not_a_conjunction() {
        let c = catalog();
        let q = parse_query(
            "SELECT * FROM FLIGHTS WHERE FLIGHTS.DEPARTING = 'PORT AND HARBOR'",
            &c,
            QueryId(0),
            NodeId(0),
            &SelectivityHints::default(),
        )
        .unwrap();
        assert_eq!(q.selections.len(), 1);
        assert_eq!(q.selections[0].value, string_code("PORT AND HARBOR"));
    }
}
