//! Building blocks of `repro.json` documents, shared by every family's
//! [`crate::ChaosCase::encode`] / `decode`: field codecs over the
//! [`Json`] tree, the [`coded_enum!`] name-and-fields table, and the
//! [`FaultKind`] table itself.
//!
//! Integers go through [`num`], which reads them back with the checked
//! [`Json::uint`]. The tree's numbers are `f64`, so the two fields that
//! use the whole `u64` range — seeds and status-word payloads — go
//! through [`wide`] instead and travel as decimal strings. Times and
//! durations stay numbers: they are exact up to 2⁵³ ns (104 days), and a
//! document that says more is rejected, not rounded.

use ghost_lab::PolicyKind;
use ghost_sim::faults::{FaultEvent, FaultKind};
use ghost_trace::json::Json;

/// A value with a JSON object form.
pub trait Coded: Sized {
    fn encode(&self) -> Json;
    fn decode(v: &Json) -> Result<Self, String>;
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<const N: usize>(members: [(&str, Json); N]) -> Json {
    Json::Obj(members.map(|(k, v)| (k.to_string(), v)).into())
}

/// A string value.
pub fn text(s: &str) -> Json {
    Json::Str(s.to_string())
}

/// An array of coded values.
pub fn list<T: Coded>(items: &[T]) -> Json {
    Json::Arr(items.iter().map(Coded::encode).collect())
}

/// The string member `key`.
pub fn str_field<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing string field '{key}'"))
}

/// The array member `key`, every element decoded.
pub fn list_field<T: Coded>(v: &Json, key: &str) -> Result<Vec<T>, String> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing array field '{key}'"))?
        .iter()
        .map(T::decode)
        .collect()
}

/// The string member `key` looked up by name (`what` names the
/// vocabulary in the error).
pub fn named_field<T>(
    v: &Json,
    key: &str,
    what: &str,
    from_name: impl Fn(&str) -> Option<T>,
) -> Result<T, String> {
    let name = str_field(v, key)?;
    from_name(name).ok_or_else(|| format!("field '{key}': unknown {what} '{name}'"))
}

/// The policy named by member `key`, if the family `admits` it.
pub fn policy_field(
    v: &Json,
    key: &str,
    admits: fn(PolicyKind) -> bool,
) -> Result<PolicyKind, String> {
    let policy = named_field(v, key, "policy", PolicyKind::from_name)?;
    if admits(policy) {
        Ok(policy)
    } else {
        let name = policy.name();
        Err(format!(
            "field '{key}': policy '{name}' is not in this family's pool"
        ))
    }
}

/// Integer fields of at most 2⁵³: JSON numbers, range-checked on the way in.
pub mod num {
    use super::Json;

    pub fn enc(n: impl Into<u64>) -> Json {
        Json::Num(n.into() as f64)
    }

    pub fn dec<T: TryFrom<u64>>(v: &Json, key: &str) -> Result<T, String> {
        v.uint(key)
    }
}

/// Full-range `u64` fields (seeds, status-word payloads): decimal strings.
pub mod wide {
    use super::{str_field, text, Json};

    pub fn enc(n: u64) -> Json {
        text(&n.to_string())
    }

    pub fn dec(v: &Json, key: &str) -> Result<u64, String> {
        let digits = str_field(v, key)?;
        digits
            .parse()
            .map_err(|e| format!("field '{key}': '{digits}': {e}"))
    }
}

/// CPU-id fields.
pub mod cpu {
    use super::Json;
    use ghost_sim::topology::CpuId;

    pub fn enc(cpu: CpuId) -> Json {
        super::num::enc(cpu.0)
    }

    pub fn dec(v: &Json, key: &str) -> Result<CpuId, String> {
        v.uint(key).map(CpuId)
    }
}

/// Implements [`Coded`] for an enum of named-field variants from one
/// table: `"name" => Variant { field: codec, .. }`, where `codec` is one
/// of this module's field codecs ([`num`], [`wide`], [`cpu`]). A value
/// encodes as `{tag: "name", field: .., ..}` and decodes by the same
/// rows, so the two directions cannot drift apart. Unit variants are
/// written `Variant {}`.
macro_rules! coded_enum {
    ($ty:ident, $tag:literal, $what:literal, {
        $($name:literal => $var:ident { $($field:ident: $codec:ident),* }),* $(,)?
    }) => {
        impl $crate::codec::Coded for $ty {
            fn encode(&self) -> ghost_trace::json::Json {
                match self {
                    $($ty::$var { $($field),* } => $crate::codec::obj([
                        ($tag, $crate::codec::text($name)),
                        $((stringify!($field), $crate::codec::$codec::enc(*$field))),*
                    ]),)*
                }
            }

            fn decode(v: &ghost_trace::json::Json) -> Result<Self, String> {
                match $crate::codec::str_field(v, $tag)? {
                    $($name => Ok($ty::$var {
                        $($field: $crate::codec::$codec::dec(v, stringify!($field))?),*
                    }),)*
                    other => Err(format!(concat!("unknown ", $what, " '{}'"), other)),
                }
            }
        }
    };
}

pub(crate) use coded_enum;

coded_enum!(FaultKind, "kind", "fault kind", {
    "agent-crash" => AgentCrash { cpu: cpu },
    "agent-hang" => AgentHang { cpu: cpu, dur: num },
    "agent-slow" => AgentSlow { cpu: cpu, dur: num, factor: num },
    "queue-overflow" => QueueOverflow { dur: num },
    "ipi-delay" => IpiDelay { dur: num, extra: num },
    "ipi-loss" => IpiLoss { dur: num },
    "spurious-wakeup" => SpuriousWakeup { nth: num },
    "tick-skew" => TickSkew { dur: num, extra: num },
    "upgrade" => Upgrade {},
});

/// A plan event is its fault's object with the injection time in front.
impl Coded for FaultEvent {
    fn encode(&self) -> Json {
        let Json::Obj(mut members) = self.kind.encode() else {
            unreachable!("coded_enum! encodes objects");
        };
        members.insert(0, ("at".to_string(), num::enc(self.at)));
        Json::Obj(members)
    }

    fn decode(v: &Json) -> Result<Self, String> {
        Ok(FaultEvent {
            at: v.uint("at")?,
            kind: FaultKind::decode(v)?,
        })
    }
}
