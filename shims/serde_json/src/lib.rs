//! Offline stand-in for [`serde_json`](https://docs.rs/serde_json).
//!
//! Provides the subset the workspace uses: [`Value`] (re-exported from the
//! `serde` shim so derives and text share one data model), [`to_string`],
//! [`from_str`], [`to_value`] and a [`json!`] macro for flat objects and
//! arrays with literal keys — the shape of every `json!` call in this
//! workspace. Nested `json!` object/array literals are not supported; build
//! nested trees from [`Value`] variants directly.

use std::fmt;

pub use serde::{Number, Value};

mod parse;

/// Serialisation/deserialisation error.
#[derive(Debug)]
pub struct Error(pub(crate) String);

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for Error {}

/// Serialises `value` to compact JSON text.
pub fn to_string<T: serde::Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    Ok(value.to_json_value().to_string())
}

/// Converts any serialisable value into a [`Value`] tree.
pub fn to_value<T: serde::Serialize + ?Sized>(value: &T) -> Value {
    value.to_json_value()
}

/// Parses JSON text into any deserialisable type.
pub fn from_str<T: serde::Deserialize>(text: &str) -> Result<T, Error> {
    let value = parse::parse(text)?;
    T::from_json_value(&value).map_err(Error)
}

/// Builds a [`Value`] from a flat literal: `json!(null)`, `json!([a, b])` or
/// `json!({ "key": expr, ... })`. Values are serialised by reference, so
/// borrowed fields (e.g. `inst.name` behind `&self`) work without cloning at
/// the call site.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($element:expr),* $(,)? ]) => {
        $crate::Value::Array(vec![ $( $crate::to_value(&$element) ),* ])
    };
    ({ $($key:literal : $value:expr),* $(,)? }) => {
        $crate::Value::Object(vec![
            $( (::std::string::String::from($key), $crate::to_value(&$value)) ),*
        ])
    };
    ($other:expr) => { $crate::to_value(&$other) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_macro_builds_flat_objects() {
        let cut: u64 = 42;
        let name = String::from("rgg15");
        let missing: Option<u64> = None;
        let v = json!({
            "experiment": "fig3", "graph": name, "cut": cut,
            "time": 0.25, "ok": true, "baseline": missing,
        });
        assert_eq!(v["experiment"], "fig3");
        assert_eq!(v["graph"], "rgg15");
        assert_eq!(v["cut"], 42);
        assert_eq!(v["time"], 0.25);
        assert_eq!(v["ok"], true);
        assert!(v["baseline"].is_null());
        assert!(v["absent"].is_null());
    }

    #[test]
    fn to_string_then_from_str_round_trips() {
        let v = json!({ "a": 1, "b": "x\"y", "c": -2.5 });
        let text = to_string(&v).unwrap();
        let back: Value = from_str(&text).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn parses_nested_documents() {
        let v: Value = from_str(r#"{"a":[1,2,{"b":null}],"c":true,"d":"s","e":1e3}"#).unwrap();
        assert_eq!(v["a"][1], 2);
        assert!(v["a"][2]["b"].is_null());
        assert_eq!(v["c"], true);
        assert_eq!(v["e"], 1000);
    }

    #[test]
    fn large_u64_values_round_trip_exactly() {
        let sentinel = u64::MAX;
        let v = json!({ "cut": sentinel });
        let text = to_string(&v).unwrap();
        assert_eq!(text, r#"{"cut":18446744073709551615}"#);
        let back: Value = from_str(&text).unwrap();
        assert_eq!(back["cut"], u64::MAX);
        let typed: u64 = from_str("18446744073709551615").unwrap();
        assert_eq!(typed, u64::MAX);
    }

    #[test]
    fn integer_deserialize_rejects_fractions_and_out_of_range() {
        assert!(from_str::<u64>("3.7").is_err());
        assert!(from_str::<u64>("-5").is_err());
        assert!(from_str::<u8>("300").is_err());
        assert_eq!(from_str::<i64>("-5").unwrap(), -5);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(from_str::<Value>("{").is_err());
        assert!(from_str::<Value>("[1,]").is_err());
        assert!(from_str::<Value>("nul").is_err());
        assert!(from_str::<Value>("1 2").is_err());
    }
}
