//! Shared helpers for decoding `serde::json::Value` trees into typed
//! structures, used by the [`SweepGrid`](crate::sweep::SweepGrid) and
//! sample-config parse paths and the [`jobs`](crate::jobs) layer.
//! [`SweepReport::from_json`](crate::report::SweepReport::from_json)
//! builds no tree; it pulls `serde::json::Reader` events directly.
//!
//! All decoders report errors as plain strings carrying the field path that
//! failed — good enough to debug a malformed job file, with no error-type
//! machinery to maintain.

use serde::json::Value;

/// A decode failure: the field path and what was wrong with it.
pub type DecodeError = String;

/// Required object field.
pub(crate) fn field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a Value, DecodeError> {
    v.get(key)
        .ok_or_else(|| format!("{ctx}: missing field {key:?}"))
}

/// A JSON string.
pub(crate) fn as_str<'a>(v: &'a Value, ctx: &str) -> Result<&'a str, DecodeError> {
    v.as_str().ok_or_else(|| format!("{ctx}: expected string"))
}

/// A finite-or-NaN number: JSON `null` decodes as NaN, mirroring the
/// writers' convention of emitting `null` for non-finite values.
pub(crate) fn as_f64(v: &Value, ctx: &str) -> Result<f64, DecodeError> {
    if v.is_null() {
        return Ok(f64::NAN);
    }
    v.as_f64().ok_or_else(|| format!("{ctx}: expected number"))
}

/// A non-negative integer in `u64` range.
pub(crate) fn as_u64(v: &Value, ctx: &str) -> Result<u64, DecodeError> {
    v.as_u64()
        .ok_or_else(|| format!("{ctx}: expected unsigned integer"))
}

/// A non-negative integer in `u32` range.
pub(crate) fn as_u32(v: &Value, ctx: &str) -> Result<u32, DecodeError> {
    u32::try_from(as_u64(v, ctx)?).map_err(|_| format!("{ctx}: integer out of u32 range"))
}

/// A non-negative integer in `usize` range.
pub(crate) fn as_usize(v: &Value, ctx: &str) -> Result<usize, DecodeError> {
    usize::try_from(as_u64(v, ctx)?).map_err(|_| format!("{ctx}: integer out of usize range"))
}

/// A count of at least 1 in `usize` range: a zero is an error naming the
/// field, never silently raised to 1.
pub(crate) fn as_count(v: &Value, ctx: &str) -> Result<usize, DecodeError> {
    match as_usize(v, ctx)? {
        0 => Err(format!("{ctx}: 0 is not a count (need at least 1)")),
        n => Ok(n),
    }
}

/// A JSON boolean.
pub(crate) fn as_bool(v: &Value, ctx: &str) -> Result<bool, DecodeError> {
    v.as_bool().ok_or_else(|| format!("{ctx}: expected bool"))
}

/// A JSON array.
pub(crate) fn as_array<'a>(v: &'a Value, ctx: &str) -> Result<&'a [Value], DecodeError> {
    v.as_array().ok_or_else(|| format!("{ctx}: expected array"))
}

/// A JSON object (ordered field list).
pub(crate) fn as_object<'a>(v: &'a Value, ctx: &str) -> Result<&'a [(String, Value)], DecodeError> {
    v.as_object()
        .ok_or_else(|| format!("{ctx}: expected object"))
}

/// Required `f64` field of an object.
pub(crate) fn f64_field(v: &Value, key: &str, ctx: &str) -> Result<f64, DecodeError> {
    as_f64(field(v, key, ctx)?, &format!("{ctx}.{key}"))
}

/// Required `u32` field of an object.
pub(crate) fn u32_field(v: &Value, key: &str, ctx: &str) -> Result<u32, DecodeError> {
    as_u32(field(v, key, ctx)?, &format!("{ctx}.{key}"))
}

/// Required string field of an object.
pub(crate) fn str_field<'a>(v: &'a Value, key: &str, ctx: &str) -> Result<&'a str, DecodeError> {
    as_str(field(v, key, ctx)?, &format!("{ctx}.{key}"))
}
