//! Offline stand-in for [`serde`](https://docs.rs/serde).
//!
//! Real serde separates the data model (`Serializer`/`Deserializer` visitors)
//! from formats; this shim collapses that design to the one format the
//! workspace uses — JSON. [`Serialize`] converts a value into a [`Value`]
//! tree, [`Deserialize`] reads one back, and the `serde_json` shim handles
//! text. The derive macros (re-exported from `serde_derive`) cover plain
//! structs with named fields and fieldless enums, which is exactly what the
//! KaPPa crates derive.

mod value;

pub use serde_derive::{Deserialize, Serialize};
pub use value::{Number, Value};

/// Error string produced when deserialisation fails.
pub type DeError = String;

/// Conversion of a value into the JSON data model.
pub trait Serialize {
    /// Represents `self` as a [`Value`] tree.
    fn to_json_value(&self) -> Value;
}

/// Reconstruction of a value from the JSON data model.
pub trait Deserialize: Sized {
    /// Rebuilds `Self` from a [`Value`] tree.
    fn from_json_value(value: &Value) -> Result<Self, DeError>;
}

impl<T: Serialize + ?Sized> Serialize for &T {
    fn to_json_value(&self) -> Value {
        (**self).to_json_value()
    }
}

macro_rules! impl_serde_int {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Number(Number::from_i128(*self as i128))
            }
        }
        impl Deserialize for $t {
            fn from_json_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Number(n) => {
                        // Like real serde: fractional or out-of-range values
                        // are an error, never a silent truncation.
                        let i = n
                            .as_i128()
                            .ok_or_else(|| format!("expected integer, found {n}"))?;
                        <$t>::try_from(i).map_err(|_| {
                            format!(
                                "{i} is out of range for {}",
                                ::std::any::type_name::<$t>()
                            )
                        })
                    }
                    other => Err(format!("expected number, found {other}")),
                }
            }
        }
    )*};
}

impl_serde_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_serde_float {
    ($($t:ty),*) => {$(
        impl Serialize for $t {
            fn to_json_value(&self) -> Value {
                Value::Number(Number::from_f64(*self as f64))
            }
        }
        impl Deserialize for $t {
            fn from_json_value(value: &Value) -> Result<Self, DeError> {
                match value {
                    Value::Number(n) => Ok(n.as_f64() as $t),
                    other => Err(format!("expected number, found {other}")),
                }
            }
        }
    )*};
}

impl_serde_float!(f32, f64);

impl Serialize for bool {
    fn to_json_value(&self) -> Value {
        Value::Bool(*self)
    }
}

impl Deserialize for bool {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Bool(b) => Ok(*b),
            other => Err(format!("expected bool, found {other}")),
        }
    }
}

impl Serialize for str {
    fn to_json_value(&self) -> Value {
        Value::String(self.to_string())
    }
}

impl Serialize for String {
    fn to_json_value(&self) -> Value {
        Value::String(self.clone())
    }
}

impl Deserialize for String {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::String(s) => Ok(s.clone()),
            other => Err(format!("expected string, found {other}")),
        }
    }
}

impl<T: Serialize> Serialize for Vec<T> {
    fn to_json_value(&self) -> Value {
        Value::Array(self.iter().map(Serialize::to_json_value).collect())
    }
}

impl<T: Deserialize> Deserialize for Vec<T> {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Array(items) => items.iter().map(T::from_json_value).collect(),
            other => Err(format!("expected array, found {other}")),
        }
    }
}

impl<T: Serialize> Serialize for Option<T> {
    fn to_json_value(&self) -> Value {
        match self {
            Some(v) => v.to_json_value(),
            None => Value::Null,
        }
    }
}

impl<T: Deserialize> Deserialize for Option<T> {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        match value {
            Value::Null => Ok(None),
            other => T::from_json_value(other).map(Some),
        }
    }
}

impl Serialize for std::time::Duration {
    /// Mirrors real serde's `{ "secs": u64, "nanos": u32 }` encoding.
    fn to_json_value(&self) -> Value {
        Value::Object(vec![
            ("secs".to_string(), self.as_secs().to_json_value()),
            ("nanos".to_string(), self.subsec_nanos().to_json_value()),
        ])
    }
}

impl Deserialize for std::time::Duration {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        let secs = value
            .get("secs")
            .ok_or_else(|| "missing field `secs`".to_string())
            .and_then(u64::from_json_value)?;
        let nanos = value
            .get("nanos")
            .ok_or_else(|| "missing field `nanos`".to_string())
            .and_then(u32::from_json_value)?;
        Ok(std::time::Duration::new(secs, nanos))
    }
}

impl Serialize for Value {
    fn to_json_value(&self) -> Value {
        self.clone()
    }
}

impl Deserialize for Value {
    fn from_json_value(value: &Value) -> Result<Self, DeError> {
        Ok(value.clone())
    }
}
