//! Data substrate for the WebRobot reproduction.
//!
//! Web RPA programs take a *data source* `I` as input — a JSON-like
//! semi-structured value (paper §3.1):
//!
//! ```text
//! I     ::= { key : value, ··, key : value }
//! key   ::= string
//! value ::= string | integer | I | [ value, ··, value ]
//! ```
//!
//! This crate provides the [`Value`] type, concrete *value paths*
//! ([`ValuePath`]: the `θ ::= x | θ[key] | θ[i]` of the action language),
//! navigation ([`Value::get`], [`Value::get_array`]), and a self-contained
//! JSON subset parser/printer ([`parse_json`], [`Value::to_json`]) so the
//! repository needs no external serialization crate.
//!
//! # Example
//!
//! ```
//! # use webrobot_data::{parse_json, ValuePath, PathSeg};
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data = parse_json(r#"{"zips": ["48105", "10001"]}"#)?;
//! let path = ValuePath::new(vec![PathSeg::key("zips"), PathSeg::Index(2)]);
//! assert_eq!(data.get(&path).unwrap().as_str(), Some("10001"));
//! # Ok(())
//! # }
//! ```

mod json;
mod value;

pub use json::{parse_json, JsonError, MAX_JSON_DEPTH};
pub use value::{PathSeg, Value, ValuePath};
