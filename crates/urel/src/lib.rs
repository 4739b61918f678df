//! # U-relational databases
//!
//! The succinct and complete representation system for probabilistic
//! databases used throughout Koch (PODS 2008), Section 3: a finite set of
//! independent discrete random variables (the [`WTable`]) together with
//! representation relations ([`URelation`]) whose rows pair a data tuple with
//! a [`Condition`] — a partial assignment of variables to domain values.
//!
//! A tuple is in relation `R` of the possible world identified by a total
//! assignment `f*` iff some row `⟨f, t⟩ ∈ U_R` has `f` consistent with `f*`.
//!
//! **Representation.**  Every positive-RA translation of Section 3 *reads*
//! its inputs and builds a new relation; only `repair-key` appends to `W`.
//! So a [`URelation`]'s row set and a [`WTable`]'s variable map are
//! immutable once built and held shared, copy-on-write: `clone` is O(1),
//! and a `&mut` method of a value that shares its content copies it once
//! before editing — the holder of a clone never sees an edit made through
//! another.  Only `urelation.rs` and `wtable.rs` know this; equality,
//! order, hashing, content digests, `approx_bytes` and the [`segment`]
//! bytes are functions of content alone.  A value derived from content —
//! the engine's join index of a relation, its compiled space of a W-table
//! — is memoised with it ([`URelation::derived`], [`WTable::derived`]),
//! in one memo type that every edit clears.  A [`UDatabase`] is a map of such
//! values, so its `clone` is pointer copies too.
//!
//! Rows are cheap to build: a [`Condition`] is one vector of
//! `(variable, value)` pairs sorted by variable, ordered, compared and
//! hashed exactly as the sorted map with the same pairs, and
//! [`URelation::from_row_vec`] builds an operator's whole output with one
//! sort and one bulk build of the row set.
//!
//! The module [`convert`] implements both directions of Theorem 3.1
//! (completeness of the representation system): decoding a [`UDatabase`]
//! into an explicit [`pdb::ProbabilisticDatabase`] and encoding any explicit
//! database back into a U-relational one.  [`decompose`] provides the
//! vertical decomposition for attribute-level uncertainty mentioned in the
//! same section.
//!
//! ```
//! use urel::{Condition, UDatabase, URelation, Var};
//! use pdb::{schema, tuple, Value};
//!
//! // Figure 1(a): the picked coin is fair with probability 2/3.
//! let mut db = UDatabase::new();
//! db.add_variable(Var::new("c"), [
//!     (Value::str("fair"), 2.0 / 3.0),
//!     (Value::str("2headed"), 1.0 / 3.0),
//! ]).unwrap();
//! let mut ur = URelation::empty(schema!["CoinType"]);
//! ur.insert(Condition::new([(Var::new("c"), Value::str("fair"))]).unwrap(),
//!           tuple!["fair"]).unwrap();
//! db.set_relation("R", ur, false);
//! let event = db.event_for("R", &tuple!["fair"]).unwrap();
//! assert!((event[0].weight(db.wtable()).unwrap() - 2.0 / 3.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod columnar;
mod condition;
pub mod convert;
pub mod decompose;
mod delta;
mod error;
mod memo;
pub mod segment;
mod udb;
mod urelation;
mod variable;
mod wtable;

pub use columnar::ColumnarChunk;
pub use condition::Condition;
pub use convert::{
    decode, decode_default, encode, total_assignments, DEFAULT_DECODE_LIMIT, WORLD_VAR,
};
pub use delta::RelationDelta;
pub use error::{Result, UrelError};
pub use udb::UDatabase;
pub use urelation::{TupleEvents, URelation, URow};
pub use variable::Var;
pub use wtable::{WTable, WTABLE_TOLERANCE};
