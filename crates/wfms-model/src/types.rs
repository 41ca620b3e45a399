//! Data types of container members.

use serde::{Deserialize, Serialize};
use std::fmt;
use txn_substrate::Value;

/// The type of one container member. FlowMark containers hold typed
/// variables; this reproduction supports the three types the paper's
/// constructions use (integers for return codes and state flags,
/// strings for names and reasons, booleans for conditions).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// 64-bit signed integer.
    Int,
    /// UTF-8 string.
    Str,
    /// Boolean.
    Bool,
}

impl DataType {
    /// The neutral default value of this type (used to initialise
    /// container members that no data connector has written).
    pub fn default_value(self) -> Value {
        match self {
            DataType::Int => Value::Int(0),
            DataType::Str => Value::Str(String::new()),
            DataType::Bool => Value::Bool(false),
        }
    }

    /// The type of `value`, if it is one of the container types.
    pub fn of(value: &Value) -> Option<DataType> {
        match value {
            Value::Int(_) => Some(DataType::Int),
            Value::Str(_) => Some(DataType::Str),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Bytes(_) => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "INT",
            DataType::Str => "STRING",
            DataType::Bool => "BOOL",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_typed() {
        for ty in [DataType::Int, DataType::Str, DataType::Bool] {
            assert_eq!(DataType::of(&ty.default_value()), Some(ty));
        }
    }

    #[test]
    fn of_inverts_admits() {
        assert_eq!(DataType::of(&Value::Int(3)), Some(DataType::Int));
        assert_eq!(DataType::of(&Value::from("s")), Some(DataType::Str));
        assert_eq!(DataType::of(&Value::Bool(true)), Some(DataType::Bool));
        assert_eq!(DataType::of(&Value::Bytes(vec![1])), None);
    }

    #[test]
    fn display_names_match_fdl_keywords() {
        assert_eq!(DataType::Int.to_string(), "INT");
        assert_eq!(DataType::Str.to_string(), "STRING");
        assert_eq!(DataType::Bool.to_string(), "BOOL");
    }
}
