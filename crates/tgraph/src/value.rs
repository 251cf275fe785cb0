//! Property values.
//!
//! Definition III.1 of the paper draws property values from an uninterpreted infinite
//! set `Val`.  For practical queries we distinguish strings, integers and booleans;
//! equality comparisons (the only operation the language performs on values) work
//! across the three variants and never coerce.

use std::fmt;

/// A property value attached to a node or an edge at one or more time points.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// A string value, e.g. `'low'`, `'pos'`, `'park'`.
    Str(String),
    /// An integer value, e.g. a room number.
    Int(i64),
    /// A boolean value.
    Bool(bool),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Self {
        Value::Str(s.into())
    }

    /// Returns the string content if this value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the integer content if this value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// Returns the boolean content if this value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_match_variants() {
        assert_eq!(Value::str("low").as_str(), Some("low"));
        assert_eq!(Value::from(42i64).as_int(), Some(42));
        assert_eq!(Value::from(true).as_bool(), Some(true));
        assert_eq!(Value::from("x").as_int(), None);
        assert_eq!(Value::from(1i64).as_str(), None);
    }

    #[test]
    fn equality_does_not_coerce() {
        assert_ne!(Value::str("1"), Value::Int(1));
        assert_ne!(Value::Bool(true), Value::Int(1));
        assert_eq!(Value::str("pos"), Value::from("pos"));
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::str("park").to_string(), "'park'");
        assert_eq!(Value::Int(750).to_string(), "750");
        assert_eq!(Value::Bool(false).to_string(), "false");
    }
}
