//! A compact, deterministic byte codec for U-relational values
//! ("segments").
//!
//! This module is pure in-memory encode/decode: `put_*` functions append a
//! value's canonical little-endian encoding to a byte buffer, and
//! [`SegmentCursor`] decodes it back through the crate's *validated*
//! constructors ([`Condition::new`], [`WTable::add_variable`],
//! [`URelation::insert`]), so a decoded value is a well-formed value or the
//! decode fails with [`UrelError::Corrupt`].  Framing, content digests, and
//! file I/O are deliberately **not** here — they belong to the engine's
//! storage layer, which wraps these payloads in digest-verified segment
//! files for the spill tier and the checkpoint store.
//!
//! Encoding is canonical: the same value always encodes to the same bytes
//! (maps iterate in `BTreeMap` order, floats are stored as `to_bits` of the
//! already-normalised [`pdb::F64`]), so payload digests double as content
//! digests.
//!
//! Wire format (all integers little-endian):
//!
//! | item      | layout                                                    |
//! |-----------|-----------------------------------------------------------|
//! | value     | tag `u8` (0 null, 1 bool, 2 int, 3 float, 4 str) + payload|
//! | string    | `u32` byte length + UTF-8 bytes                           |
//! | tuple     | `u32` arity + values                                      |
//! | condition | `u32` pair count + (var name string, value)*              |
//! | row       | condition + tuple                                         |
//! | relation  | `u32` attr count + names, `u64` row count, rows           |
//! | w-table   | `u32` var count + (name, `u32` alt count, (value, f64)*)* |

use crate::condition::Condition;
use crate::error::{Result, UrelError};
use crate::urelation::{URelation, URow};
use crate::variable::Var;
use crate::wtable::WTable;
use pdb::{Schema, Tuple, Value};

fn corrupt(msg: impl Into<String>) -> UrelError {
    UrelError::Corrupt(msg.into())
}

fn len_u32(len: usize, what: &str) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| panic!("{what} length {len} exceeds u32 range"))
}

/// Appends a raw byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a float as the little-endian bits of its IEEE-754 encoding.
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, len_u32(s.len(), "string"));
    out.extend_from_slice(s.as_bytes());
}

/// Appends a tagged value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => put_u8(out, 0),
        Value::Bool(b) => {
            put_u8(out, 1);
            put_u8(out, u8::from(*b));
        }
        Value::Int(i) => {
            put_u8(out, 2);
            put_u64(out, *i as u64);
        }
        Value::Float(x) => {
            put_u8(out, 3);
            put_f64(out, x.get());
        }
        Value::Str(s) => {
            put_u8(out, 4);
            put_str(out, s);
        }
    }
}

/// Appends an arity-prefixed tuple.
pub fn put_tuple(out: &mut Vec<u8>, t: &Tuple) {
    put_u32(out, len_u32(t.arity(), "tuple"));
    for v in t.values() {
        put_value(out, v);
    }
}

/// Appends a condition as its sorted `(variable, value)` pairs.
pub fn put_condition(out: &mut Vec<u8>, c: &Condition) {
    put_u32(out, len_u32(c.len(), "condition"));
    for (var, value) in c.iter() {
        put_str(out, var.name());
        put_value(out, value);
    }
}

/// Appends one U-row (condition, then tuple).
pub fn put_row(out: &mut Vec<u8>, row: &URow) {
    put_condition(out, &row.condition);
    put_tuple(out, &row.tuple);
}

/// Appends a whole U-relation: schema header, row count, then the rows in
/// canonical order.
pub fn put_relation(out: &mut Vec<u8>, rel: &URelation) {
    put_u32(out, len_u32(rel.schema().arity(), "schema"));
    for attr in rel.schema().attrs() {
        put_str(out, attr);
    }
    put_u64(out, rel.len() as u64);
    for row in rel.iter() {
        put_row(out, row);
    }
}

/// Appends a W-table: variable count, then each variable's name and
/// distribution in `BTreeMap` order.
pub fn put_wtable(out: &mut Vec<u8>, w: &WTable) {
    let vars: Vec<_> = w.iter().collect();
    put_u32(out, len_u32(vars.len(), "w-table"));
    for (var, dist) in vars {
        put_str(out, var.name());
        put_u32(out, len_u32(dist.len(), "distribution"));
        for (value, p) in dist {
            put_value(out, value);
            put_f64(out, *p);
        }
    }
}

/// A bounds-checked decoding cursor over an encoded segment payload.
///
/// Every `take_*` mirrors the corresponding `put_*`; any truncation,
/// unknown tag, or constructor rejection surfaces as
/// [`UrelError::Corrupt`] rather than a panic or a silently wrong value.
#[derive(Debug)]
pub struct SegmentCursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SegmentCursor<'a> {
    /// Starts decoding at the front of `buf`.
    pub fn new(buf: &'a [u8]) -> SegmentCursor<'a> {
        SegmentCursor { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when every byte has been consumed — decoders use this to reject
    /// trailing garbage.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!(
                "truncated: wanted {n} bytes, {} left",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Decodes one byte.
    pub fn take_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Decodes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Decodes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Decodes a float from its IEEE-754 bits.
    pub fn take_f64(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Decodes a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<String> {
        let len = self.take_u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| corrupt("string is not valid UTF-8"))
    }

    /// Decodes a tagged value.
    pub fn take_value(&mut self) -> Result<Value> {
        match self.take_u8()? {
            0 => Ok(Value::Null),
            1 => match self.take_u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(corrupt(format!("bool byte {b} is neither 0 nor 1"))),
            },
            2 => Ok(Value::Int(self.take_u64()? as i64)),
            3 => Ok(Value::float(self.take_f64()?)),
            4 => Ok(Value::Str(self.take_str()?)),
            t => Err(corrupt(format!("unknown value tag {t}"))),
        }
    }

    /// Decodes an arity-prefixed tuple.
    pub fn take_tuple(&mut self) -> Result<Tuple> {
        let arity = self.take_u32()? as usize;
        let mut values = Vec::with_capacity(arity.min(self.remaining()));
        for _ in 0..arity {
            values.push(self.take_value()?);
        }
        Ok(Tuple::new(values))
    }

    /// Decodes a condition through [`Condition::new`], so duplicate
    /// variables are rejected.
    pub fn take_condition(&mut self) -> Result<Condition> {
        let pairs = self.take_u32()? as usize;
        let mut assignments = Vec::with_capacity(pairs.min(self.remaining()));
        for _ in 0..pairs {
            let var = Var::new(self.take_str()?);
            let value = self.take_value()?;
            assignments.push((var, value));
        }
        Condition::new(assignments)
    }

    /// Decodes one U-row.
    fn take_row(&mut self) -> Result<URow> {
        let condition = self.take_condition()?;
        let tuple = self.take_tuple()?;
        Ok(URow { condition, tuple })
    }

    /// Decodes a relation's schema header and row count, leaving the cursor
    /// positioned at the first row.
    fn take_relation_header(&mut self) -> Result<(Schema, u64)> {
        let arity = self.take_u32()? as usize;
        let mut attrs = Vec::with_capacity(arity.min(self.remaining()));
        for _ in 0..arity {
            attrs.push(self.take_str()?);
        }
        let schema = Schema::new(attrs).map_err(|e| corrupt(format!("bad schema: {e}")))?;
        let rows = self.take_u64()?;
        Ok((schema, rows))
    }

    /// Decodes a whole relation through [`URelation::from_row_vec`], so
    /// arity mismatches are rejected, and so is a row the header counted
    /// twice.
    pub fn take_relation(&mut self) -> Result<URelation> {
        let (schema, rows) = self.take_relation_header()?;
        // Every row takes at least one byte: the remaining bytes bound what
        // a corrupt header can make us reserve.
        let mut decoded = Vec::with_capacity(rows.min(self.remaining() as u64) as usize);
        for _ in 0..rows {
            decoded.push(self.take_row()?);
        }
        let rel = URelation::from_row_vec(schema, decoded)?;
        if rel.len() as u64 != rows {
            return Err(corrupt(format!(
                "relation header promised {rows} distinct rows, decoded {}",
                rel.len()
            )));
        }
        Ok(rel)
    }

    /// Decodes a W-table through [`WTable::add_variable`], so invalid
    /// distributions are rejected.
    pub fn take_wtable(&mut self) -> Result<WTable> {
        let vars = self.take_u32()? as usize;
        let mut w = WTable::new();
        for _ in 0..vars {
            let var = Var::new(self.take_str()?);
            let alts = self.take_u32()? as usize;
            let mut dist = Vec::with_capacity(alts.min(self.remaining()));
            for _ in 0..alts {
                let value = self.take_value()?;
                let p = self.take_f64()?;
                dist.push((value, p));
            }
            w.add_variable(var, dist)?;
        }
        Ok(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb::{schema, tuple};

    fn sample_relation() -> URelation {
        let mut u = URelation::empty(schema!["A", "B"]);
        for i in 0..12i64 {
            let cond = Condition::new([
                (Var::new(format!("x{}", i % 4)), Value::Int(i % 3)),
                (Var::new("shared"), Value::str("s")),
            ])
            .unwrap();
            u.insert(cond, tuple![i, format!("row-{i}")]).unwrap();
        }
        u.insert(Condition::always(), tuple![-1, "total"]).unwrap();
        u
    }

    fn sample_wtable() -> WTable {
        let mut w = WTable::new();
        w.add_variable(
            Var::new("x"),
            [(Value::str("h"), 0.5), (Value::str("t"), 0.5)],
        )
        .unwrap();
        w.add_variable(
            Var::new("y"),
            [
                (Value::Int(1), 0.25),
                (Value::Int(2), 0.25),
                (Value::float(0.5), 0.5),
            ],
        )
        .unwrap();
        w
    }

    #[test]
    fn values_round_trip_exactly() {
        let values = [
            Value::Null,
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::float(-0.0),
            Value::float(f64::MIN_POSITIVE),
            Value::float(std::f64::consts::PI),
            Value::str(""),
            Value::str("héllo 世界"),
        ];
        let mut buf = Vec::new();
        for v in &values {
            put_value(&mut buf, v);
        }
        let mut cur = SegmentCursor::new(&buf);
        for v in &values {
            assert_eq!(&cur.take_value().unwrap(), v);
        }
        assert!(cur.is_exhausted());
    }

    #[test]
    fn relation_round_trips_bit_identically() {
        let u = sample_relation();
        let mut buf = Vec::new();
        put_relation(&mut buf, &u);
        let mut cur = SegmentCursor::new(&buf);
        let back = cur.take_relation().unwrap();
        assert!(cur.is_exhausted());
        assert_eq!(back, u);
        assert_eq!(back.content_digest(), u.content_digest());

        let mut again = Vec::new();
        put_relation(&mut again, &back);
        assert_eq!(again, buf, "canonical encoding is deterministic");
    }

    #[test]
    fn wtable_round_trips() {
        let w = sample_wtable();
        let mut buf = Vec::new();
        put_wtable(&mut buf, &w);
        let mut cur = SegmentCursor::new(&buf);
        let back = cur.take_wtable().unwrap();
        assert!(cur.is_exhausted());
        assert_eq!(back, w);
    }

    #[test]
    fn streaming_header_plus_rows_matches_whole_relation_decode() {
        let u = sample_relation();
        let mut buf = Vec::new();
        put_relation(&mut buf, &u);
        let mut cur = SegmentCursor::new(&buf);
        let (schema, rows) = cur.take_relation_header().unwrap();
        let mut streamed = URelation::empty(schema);
        for _ in 0..rows {
            let row = cur.take_row().unwrap();
            streamed.insert(row.condition, row.tuple).unwrap();
        }
        assert!(cur.is_exhausted());
        assert_eq!(streamed, u);
    }

    #[test]
    fn truncation_is_rejected_at_every_prefix() {
        let u = sample_relation();
        let mut buf = Vec::new();
        put_relation(&mut buf, &u);
        for cut in 0..buf.len() {
            let mut cur = SegmentCursor::new(&buf[..cut]);
            let decoded = cur.take_relation();
            // A strict prefix must either fail or leave nothing decodable;
            // it can never silently produce the full relation.
            if let Ok(rel) = decoded {
                assert_ne!(rel, u, "prefix of {cut} bytes decoded the full relation");
            }
        }
    }

    #[test]
    fn malformed_payloads_are_classified_corrupt() {
        // Unknown value tag.
        let mut cur = SegmentCursor::new(&[9u8]);
        assert!(matches!(cur.take_value(), Err(UrelError::Corrupt(_))));
        // Bool byte out of range.
        let mut cur = SegmentCursor::new(&[1u8, 7]);
        assert!(matches!(cur.take_value(), Err(UrelError::Corrupt(_))));
        // Invalid UTF-8 in a string.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xFF, 0xFE]);
        let mut cur = SegmentCursor::new(&buf);
        assert!(matches!(cur.take_str(), Err(UrelError::Corrupt(_))));
        // Truncated u64.
        let mut cur = SegmentCursor::new(&[1u8, 2, 3]);
        assert!(matches!(cur.take_u64(), Err(UrelError::Corrupt(_))));
    }

    #[test]
    fn decode_goes_through_validating_constructors() {
        // A condition that assigns the same variable twice is rejected.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_str(&mut buf, "x");
        put_value(&mut buf, &Value::Int(1));
        put_str(&mut buf, "x");
        put_value(&mut buf, &Value::Int(2));
        let mut cur = SegmentCursor::new(&buf);
        assert!(cur.take_condition().is_err());

        // A relation row whose arity disagrees with the schema is rejected.
        let mut buf = Vec::new();
        put_u32(&mut buf, 1); // schema: one attribute
        put_str(&mut buf, "A");
        put_u64(&mut buf, 1); // one row
        put_u32(&mut buf, 0); // empty condition
        put_tuple(&mut buf, &tuple![1, 2]); // arity 2 ≠ 1
        let mut cur = SegmentCursor::new(&buf);
        assert!(cur.take_relation().is_err());
    }
}
