//! Cell values for tabular data.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One cell of a [`crate::Table`]: categorical or continuous.
///
/// ```
/// use kinet_data::Value;
/// let v = Value::cat("udp");
/// assert_eq!(v.as_cat(), Some("udp"));
/// ```
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum Value {
    /// A categorical value.
    Cat(String),
    /// A continuous (numeric) value.
    Num(f64),
}

impl Value {
    /// Builds a categorical value.
    pub fn cat(s: impl Into<String>) -> Self {
        Value::Cat(s.into())
    }

    /// Builds a numeric value.
    pub fn num(v: f64) -> Self {
        Value::Num(v)
    }

    /// The categorical payload, if any.
    pub fn as_cat(&self) -> Option<&str> {
        match self {
            Value::Cat(s) => Some(s),
            Value::Num(_) => None,
        }
    }

    /// The numeric payload, if any.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            Value::Cat(_) => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Cat(s) => f.write_str(s),
            Value::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    write!(f, "{}", *v as i64)
                } else {
                    write!(f, "{v}")
                }
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::cat(s)
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Cat(s)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Num(v as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        assert_eq!(Value::cat("x").as_cat(), Some("x"));
        assert_eq!(Value::cat("x").as_num(), None);
        assert_eq!(Value::num(1.5).as_num(), Some(1.5));
    }

    #[test]
    fn display_integral_floats_without_fraction() {
        assert_eq!(Value::num(443.0).to_string(), "443");
        assert_eq!(Value::num(1.5).to_string(), "1.5");
        assert_eq!(Value::cat("tcp").to_string(), "tcp");
    }

    #[test]
    fn conversions() {
        let v: Value = "udp".into();
        assert_eq!(v.as_cat(), Some("udp"));
        let v: Value = 5i64.into();
        assert_eq!(v.as_num(), Some(5.0));
    }
}
