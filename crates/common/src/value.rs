//! The dynamically-typed value domain shared by both data models.
//!
//! Values appear as node/edge properties in property graphs, as attribute
//! values in relational tuples, and as literals in both query languages.
//! `Null` follows SQL semantics: it compares as `Unknown`, propagates through
//! arithmetic, and is skipped by aggregates (except `COUNT(*)`).

use crate::intern::intern;
use crate::truth::Truth;
use crate::{Error, Result};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A database value.
///
/// Strings are stored as interned [`Arc<str>`] (see [`crate::intern()`]):
/// cloning a `Value` is always cheap — at most a reference-count bump —
/// which both evaluators rely on when materializing rows, bindings, and
/// grouping keys.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Value {
    /// SQL `NULL` / Cypher `null`.
    Null,
    /// Boolean value.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// String value (interned; clones share one allocation).
    Str(Arc<str>),
}

impl Value {
    /// Convenience constructor for string values (interned).
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(intern(s.as_ref()))
    }

    /// Constructor for derived, likely-unique strings (concatenation
    /// results, formatted identifiers): wraps without interning, so
    /// transient values produced on evaluation hot paths don't accumulate
    /// in the global intern table.
    pub fn str_owned(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// Returns `true` if this value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Returns the value as an `f64` when it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Returns the value as an `i64` when it is an integer.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the value as a string slice when it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Three-valued equality following SQL semantics: any comparison with
    /// `Null` yields `Unknown`.
    pub fn sql_eq(&self, other: &Value) -> Truth {
        if self.is_null() || other.is_null() {
            return Truth::Unknown;
        }
        Truth::from_bool(self.strict_eq(other))
    }

    /// Strict structural equality where `Null == Null`. This is the equality
    /// used for grouping keys, `UNION` deduplication, and table equivalence
    /// (Definition 4.4), where two `Null`s are considered the same entry.
    pub fn strict_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a == b || (a.is_nan() && b.is_nan()),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                (*a as f64) == *b
            }
            // Interned strings are pointer-identical when equal, so the
            // byte comparison is only reached for non-interned duplicates.
            (Value::Str(a), Value::Str(b)) => Arc::ptr_eq(a, b) || a == b,
            _ => false,
        }
    }

    /// Total ordering used by `ORDER BY`, grouping, and deterministic output:
    /// `Null` sorts first, then booleans, numbers, strings.  Numbers compare
    /// through `f64`, with NaN above every number and equal to itself (as in
    /// PostgreSQL).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        let (ra, rb) = (rank(self), rank(other));
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            _ => {
                let a = self.as_f64().unwrap_or(f64::NAN);
                let b = other.as_f64().unwrap_or(f64::NAN);
                a.partial_cmp(&b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
            }
        }
    }

    /// Three-valued comparison with the given operator.
    pub fn compare(&self, op: CmpOp, other: &Value) -> Truth {
        if self.is_null() || other.is_null() {
            return Truth::Unknown;
        }
        let ord = match (self, other) {
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            _ => match (self.as_f64(), other.as_f64()) {
                (Some(a), Some(b)) => match a.partial_cmp(&b) {
                    Some(o) => o,
                    None => return Truth::Unknown,
                },
                // Heterogeneous comparison (e.g. string vs int): only
                // equality/inequality are meaningful.
                _ => {
                    return match op {
                        CmpOp::Eq => Truth::from_bool(self.strict_eq(other)),
                        CmpOp::Ne => Truth::from_bool(!self.strict_eq(other)),
                        _ => Truth::Unknown,
                    };
                }
            },
        };
        let b = match op {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        };
        Truth::from_bool(b)
    }

    /// Arithmetic with SQL `NULL` propagation. Integer arithmetic stays
    /// integral when both operands are integers (except division by zero,
    /// which yields `Null` as in most SQL dialects' permissive mode).
    pub fn arith(&self, op: BinArith, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        match (self, other) {
            (Value::Int(a), Value::Int(b)) => Ok(match op {
                BinArith::Add => Value::Int(a.wrapping_add(*b)),
                BinArith::Sub => Value::Int(a.wrapping_sub(*b)),
                BinArith::Mul => Value::Int(a.wrapping_mul(*b)),
                BinArith::Div => {
                    if *b == 0 {
                        Value::Null
                    } else {
                        Value::Int(a.wrapping_div(*b))
                    }
                }
                BinArith::Mod => {
                    if *b == 0 {
                        Value::Null
                    } else {
                        Value::Int(a.wrapping_rem(*b))
                    }
                }
            }),
            _ => {
                let (a, b) = match (self.as_f64(), other.as_f64()) {
                    (Some(a), Some(b)) => (a, b),
                    _ => {
                        // String concatenation with `+` is permitted for
                        // convenience; anything else is a type error.
                        if op == BinArith::Add {
                            if let (Value::Str(a), Value::Str(b)) = (self, other) {
                                return Ok(Value::str_owned(format!("{a}{b}")));
                            }
                        }
                        return Err(Error::eval(format!(
                            "cannot apply {op:?} to {self:?} and {other:?}"
                        )));
                    }
                };
                Ok(match op {
                    BinArith::Add => Value::Float(a + b),
                    BinArith::Sub => Value::Float(a - b),
                    BinArith::Mul => Value::Float(a * b),
                    BinArith::Div => {
                        if b == 0.0 {
                            Value::Null
                        } else {
                            Value::Float(a / b)
                        }
                    }
                    BinArith::Mod => {
                        if b == 0.0 {
                            Value::Null
                        } else {
                            Value::Float(a % b)
                        }
                    }
                })
            }
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.strict_eq(other)
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.total_cmp(other)
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => 0u8.hash(state),
            Value::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Value::Int(i) => {
                2u8.hash(state);
                (*i as f64).to_bits().hash(state);
            }
            Value::Float(f) => {
                2u8.hash(state);
                f.to_bits().hash(state);
            }
            Value::Str(s) => {
                3u8.hash(state);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<i32> for Value {
    fn from(i: i32) -> Self {
        Value::Int(i as i64)
    }
}

impl From<f64> for Value {
    fn from(f: f64) -> Self {
        Value::Float(f)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::str(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::str(s)
    }
}

impl From<Arc<str>> for Value {
    fn from(s: Arc<str>) -> Self {
        Value::Str(s)
    }
}

/// Comparison operators shared by both query languages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Returns the operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// SQL surface syntax for the operator.
    pub fn as_sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// Binary arithmetic operators shared by both query languages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinArith {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
}

impl BinArith {
    /// SQL/Cypher surface syntax for the operator.
    pub fn as_str(self) -> &'static str {
        match self {
            BinArith::Add => "+",
            BinArith::Sub => "-",
            BinArith::Mul => "*",
            BinArith::Div => "/",
            BinArith::Mod => "%",
        }
    }
}

/// Aggregation functions shared by both query languages (Fig. 9 / Fig. 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggKind {
    /// `COUNT`
    Count,
    /// `SUM`
    Sum,
    /// `AVG`
    Avg,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
}

impl AggKind {
    /// Surface syntax of the aggregate.
    pub fn as_str(self) -> &'static str {
        match self {
            AggKind::Count => "Count",
            AggKind::Sum => "Sum",
            AggKind::Avg => "Avg",
            AggKind::Min => "Min",
            AggKind::Max => "Max",
        }
    }

    /// Parses an aggregate name case-insensitively.
    pub fn from_name(name: &str) -> Option<AggKind> {
        match name.to_ascii_lowercase().as_str() {
            "count" => Some(AggKind::Count),
            "sum" => Some(AggKind::Sum),
            "avg" => Some(AggKind::Avg),
            "min" => Some(AggKind::Min),
            "max" => Some(AggKind::Max),
            _ => None,
        }
    }

    /// Folds a stream of values according to the aggregate's SQL semantics
    /// (Fig. 19 for the Cypher side, which mirrors SQL):
    /// `Null` inputs are skipped; if *all* inputs are `Null` (or the input is
    /// empty for non-COUNT aggregates) the result is `Null`; `COUNT` counts
    /// non-null inputs and returns `0` for an empty input.
    pub fn fold<'a>(self, values: impl IntoIterator<Item = &'a Value>) -> Value {
        let mut count: i64 = 0;
        let mut sum: f64 = 0.0;
        let mut all_int = true;
        let mut isum: i64 = 0;
        let mut min: Option<Value> = None;
        let mut max: Option<Value> = None;
        for v in values {
            if v.is_null() {
                continue;
            }
            count += 1;
            if let Some(f) = v.as_f64() {
                sum += f;
                if let Some(i) = v.as_i64() {
                    isum = isum.wrapping_add(i);
                } else {
                    all_int = false;
                }
            } else {
                all_int = false;
            }
            min = Some(match min {
                None => v.clone(),
                Some(m) => {
                    if v.total_cmp(&m) == Ordering::Less {
                        v.clone()
                    } else {
                        m
                    }
                }
            });
            max = Some(match max {
                None => v.clone(),
                Some(m) => {
                    if v.total_cmp(&m) == Ordering::Greater {
                        v.clone()
                    } else {
                        m
                    }
                }
            });
        }
        match self {
            AggKind::Count => Value::Int(count),
            AggKind::Sum => {
                if count == 0 {
                    // SUM over zero non-NULL inputs is NULL, whether the
                    // input was empty or all-NULL.
                    Value::Null
                } else if all_int {
                    Value::Int(isum)
                } else {
                    Value::Float(sum)
                }
            }
            AggKind::Avg => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / count as f64)
                }
            }
            AggKind::Min => min.unwrap_or(Value::Null),
            AggKind::Max => max.unwrap_or(Value::Null),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_propagates_through_comparison() {
        assert_eq!(Value::Null.compare(CmpOp::Eq, &Value::Int(1)), Truth::Unknown);
        assert_eq!(Value::Int(1).compare(CmpOp::Eq, &Value::Null), Truth::Unknown);
        assert_eq!(Value::Int(1).compare(CmpOp::Eq, &Value::Int(1)), Truth::True);
        assert_eq!(Value::Int(1).compare(CmpOp::Lt, &Value::Int(2)), Truth::True);
    }

    #[test]
    fn strict_eq_treats_nulls_equal() {
        assert!(Value::Null.strict_eq(&Value::Null));
        assert!(Value::Int(3).strict_eq(&Value::Float(3.0)));
        assert!(!Value::Int(3).strict_eq(&Value::Str("3".into())));
    }

    #[test]
    fn arithmetic_null_and_div_zero() {
        assert_eq!(Value::Null.arith(BinArith::Add, &Value::Int(2)).unwrap(), Value::Null);
        assert_eq!(Value::Int(6).arith(BinArith::Div, &Value::Int(0)).unwrap(), Value::Null);
        assert_eq!(Value::Int(6).arith(BinArith::Div, &Value::Int(2)).unwrap(), Value::Int(3));
        assert_eq!(
            Value::Float(1.5).arith(BinArith::Mul, &Value::Int(2)).unwrap(),
            Value::Float(3.0)
        );
    }

    #[test]
    fn string_concat_with_plus() {
        assert_eq!(
            Value::str("ab").arith(BinArith::Add, &Value::str("cd")).unwrap(),
            Value::str("abcd")
        );
        assert!(Value::str("ab").arith(BinArith::Mul, &Value::str("cd")).is_err());
    }

    #[test]
    fn aggregates_skip_nulls() {
        let vals = [Value::Int(1), Value::Null, Value::Int(3)];
        assert_eq!(AggKind::Count.fold(vals.iter()), Value::Int(2));
        assert_eq!(AggKind::Sum.fold(vals.iter()), Value::Int(4));
        assert_eq!(AggKind::Avg.fold(vals.iter()), Value::Float(2.0));
        assert_eq!(AggKind::Min.fold(vals.iter()), Value::Int(1));
        assert_eq!(AggKind::Max.fold(vals.iter()), Value::Int(3));
    }

    #[test]
    fn aggregates_over_all_nulls() {
        let vals = [Value::Null, Value::Null];
        assert_eq!(AggKind::Count.fold(vals.iter()), Value::Int(0));
        assert_eq!(AggKind::Sum.fold(vals.iter()), Value::Null);
        assert_eq!(AggKind::Min.fold(vals.iter()), Value::Null);
    }

    #[test]
    fn aggregates_over_empty() {
        let vals: Vec<Value> = vec![];
        assert_eq!(AggKind::Count.fold(vals.iter()), Value::Int(0));
        assert_eq!(AggKind::Sum.fold(vals.iter()), Value::Null);
        assert_eq!(AggKind::Avg.fold(vals.iter()), Value::Null);
    }

    #[test]
    fn total_order_groups_types() {
        let mut vals = [Value::str("z"), Value::Int(5), Value::Null, Value::Bool(true)];
        vals.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Int(5));
        assert_eq!(vals[3], Value::str("z"));
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }
}
