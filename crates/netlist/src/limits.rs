//! Resource limits for compilation and execution.
//!
//! Maurer's compiled techniques trade robustness for speed: the PC-set
//! and parallel compilers allocate state proportional to depth × nets,
//! so a pathological netlist can exhaust memory where the interpreted
//! event-driven baseline would plod along safely. [`ResourceLimits`]
//! gives every compiler a budget to enforce *before* allocating;
//! exceeding one yields a typed [`LimitExceeded`] instead of an OOM
//! kill or silent wraparound.
//!
//! This lives in the netlist crate — the root of the workspace
//! dependency graph — so the technique crates (`uds-pcset`,
//! `uds-parallel`) can enforce limits inside their compilers and
//! `uds-core` can build its budget/fallback layer on top.

use std::fmt;
use std::time::Instant;

/// A resource a budget can constrain.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Resource {
    /// Circuit depth (longest path, in gate delays).
    Depth,
    /// Gate count.
    Gates,
    /// Primary-input count.
    Inputs,
    /// Words per bit-field (parallel technique).
    FieldWords,
    /// Estimated bytes of simulator state.
    MemoryBytes,
    /// Wall-clock compile deadline.
    Deadline,
    /// An arithmetic quantity overflowed its machine type — the
    /// hard ceiling that exists even when no explicit limit is set.
    Arithmetic,
}

impl Resource {
    /// Human-readable unit-carrying name.
    pub fn describe(self) -> &'static str {
        match self {
            Resource::Depth => "circuit depth",
            Resource::Gates => "gate count",
            Resource::Inputs => "primary-input count",
            Resource::FieldWords => "bit-field words",
            Resource::MemoryBytes => "estimated memory bytes",
            Resource::Deadline => "wall-clock deadline",
            Resource::Arithmetic => "machine-arithmetic range",
        }
    }
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.describe())
    }
}

/// A typed budget violation: which resource, how much was needed, and
/// how much the budget allowed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LimitExceeded {
    /// The constrained resource.
    pub resource: Resource,
    /// How much the circuit needed (saturated when overflowing `u64`).
    pub needed: u64,
    /// The configured allowance.
    pub allowed: u64,
}

impl fmt::Display for LimitExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.resource {
            Resource::Deadline => write!(
                f,
                "budget exceeded: {} ({} ms allowed, {} ms elapsed)",
                self.resource, self.allowed, self.needed
            ),
            Resource::Arithmetic => write!(
                f,
                "budget exceeded: {} (a compile-time quantity overflowed its machine type — circuit too large to address)",
                self.resource
            ),
            _ => write!(
                f,
                "budget exceeded: {} (needed {}, allowed {})",
                self.resource, self.needed, self.allowed
            ),
        }
    }
}

impl std::error::Error for LimitExceeded {}

/// Compile-time resource budget. `None` fields are unconstrained.
///
/// The default budget is fully open; [`ResourceLimits::production`]
/// mirrors what a service front end would enforce against untrusted
/// input.
#[derive(Clone, Copy, Debug, Default)]
pub struct ResourceLimits {
    /// Maximum circuit depth, in gate delays.
    pub max_depth: Option<u32>,
    /// Maximum gate count.
    pub max_gates: Option<u64>,
    /// Maximum primary inputs.
    pub max_inputs: Option<u64>,
    /// Maximum words per bit-field (parallel technique). Words are
    /// counted at the active arena width: a circuit of depth d needs
    /// `ceil((d + 1) / 64)` words per net at the default 64-bit width
    /// and `ceil((d + 1) / 32)` at 32, so a cap admits twice the depth
    /// at 64 bits. [`ResourceLimits::production`]'s 128 words reach
    /// depth 8191 at 64 bits and 4095 at 32; at 64 its `max_depth` of
    /// 4096 binds first.
    pub max_field_words: Option<u32>,
    /// Maximum estimated bytes of simulator state.
    pub max_memory_bytes: Option<u64>,
    /// Wall-clock deadline for compilation.
    pub deadline: Option<Instant>,
}

impl ResourceLimits {
    /// A fully open budget (every check passes).
    pub fn unlimited() -> Self {
        ResourceLimits::default()
    }

    /// A conservative budget suitable for untrusted input: depth ≤
    /// 4096, ≤ 1M gates, ≤ 64Ki inputs, ≤ 128 words per field, ≤ 256
    /// MiB of simulator state.
    pub fn production() -> Self {
        ResourceLimits {
            max_depth: Some(4096),
            max_gates: Some(1 << 20),
            max_inputs: Some(1 << 16),
            max_field_words: Some(128),
            max_memory_bytes: Some(256 << 20),
            deadline: None,
        }
    }

    /// Checks one quantity against one optional ceiling.
    pub fn check(
        resource: Resource,
        needed: u64,
        allowed: Option<u64>,
    ) -> Result<(), LimitExceeded> {
        match allowed {
            Some(allowed) if needed > allowed => Err(LimitExceeded {
                resource,
                needed,
                allowed,
            }),
            _ => Ok(()),
        }
    }

    /// Checks circuit depth.
    pub fn check_depth(&self, depth: u32) -> Result<(), LimitExceeded> {
        Self::check(
            Resource::Depth,
            u64::from(depth),
            self.max_depth.map(u64::from),
        )
    }

    /// Checks gate count.
    pub fn check_gates(&self, gates: usize) -> Result<(), LimitExceeded> {
        Self::check(Resource::Gates, gates as u64, self.max_gates)
    }

    /// Checks primary-input count.
    pub fn check_inputs(&self, inputs: usize) -> Result<(), LimitExceeded> {
        Self::check(Resource::Inputs, inputs as u64, self.max_inputs)
    }

    /// Checks words-per-field.
    pub fn check_field_words(&self, words: u32) -> Result<(), LimitExceeded> {
        Self::check(
            Resource::FieldWords,
            u64::from(words),
            self.max_field_words.map(u64::from),
        )
    }

    /// Checks an estimated memory footprint.
    pub fn check_memory(&self, bytes: u64) -> Result<(), LimitExceeded> {
        Self::check(Resource::MemoryBytes, bytes, self.max_memory_bytes)
    }

    /// Checks the wall-clock deadline (call between compile phases).
    pub fn check_deadline(&self) -> Result<(), LimitExceeded> {
        match self.deadline {
            Some(deadline) if Instant::now() > deadline => {
                let over = Instant::now().saturating_duration_since(deadline);
                Err(LimitExceeded {
                    resource: Resource::Deadline,
                    needed: over.as_millis() as u64,
                    allowed: 0,
                })
            }
            _ => Ok(()),
        }
    }
}

/// A checked product that reports [`Resource::Arithmetic`] on overflow
/// instead of wrapping — the error that replaces the unchecked
/// `a * b` sizing arithmetic of the original compilers.
pub fn checked_mul_u64(a: u64, b: u64) -> Result<u64, LimitExceeded> {
    a.checked_mul(b).ok_or(LimitExceeded {
        resource: Resource::Arithmetic,
        needed: u64::MAX,
        allowed: u64::MAX,
    })
}

/// Checked sum analogous to [`checked_mul_u64`].
pub fn checked_add_u64(a: u64, b: u64) -> Result<u64, LimitExceeded> {
    a.checked_add(b).ok_or(LimitExceeded {
        resource: Resource::Arithmetic,
        needed: u64::MAX,
        allowed: u64::MAX,
    })
}

/// Narrows a quantity into `u32` (arena addressing), reporting
/// [`Resource::Arithmetic`] when it does not fit.
pub fn narrow_u32(value: u64) -> Result<u32, LimitExceeded> {
    u32::try_from(value).map_err(|_| LimitExceeded {
        resource: Resource::Arithmetic,
        needed: value,
        allowed: u64::from(u32::MAX),
    })
}

/// Narrows a quantity into `u16` (packed instruction fields), reporting
/// [`Resource::Arithmetic`] when it does not fit.
pub fn narrow_u16(value: usize) -> Result<u16, LimitExceeded> {
    u16::try_from(value).map_err(|_| LimitExceeded {
        resource: Resource::Arithmetic,
        needed: value as u64,
        allowed: u64::from(u16::MAX),
    })
}

/// Narrows a signed quantity into `i16` (packed instruction fields),
/// reporting [`Resource::Arithmetic`] when it does not fit.
pub fn narrow_i16(value: i64) -> Result<i16, LimitExceeded> {
    i16::try_from(value).map_err(|_| LimitExceeded {
        resource: Resource::Arithmetic,
        needed: value.unsigned_abs(),
        allowed: i16::MAX as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_passes_everything() {
        let limits = ResourceLimits::unlimited();
        limits.check_depth(u32::MAX).unwrap();
        limits.check_gates(usize::MAX).unwrap();
        limits.check_memory(u64::MAX).unwrap();
        limits.check_deadline().unwrap();
    }

    #[test]
    fn violations_carry_needed_and_allowed() {
        let limits = ResourceLimits {
            max_depth: Some(8),
            ..ResourceLimits::unlimited()
        };
        let err = limits.check_depth(9).unwrap_err();
        assert_eq!(err.resource, Resource::Depth);
        assert_eq!(err.needed, 9);
        assert_eq!(err.allowed, 8);
        assert!(err.to_string().contains("depth"));
        limits.check_depth(8).unwrap();
    }

    #[test]
    fn production_budget_is_finite() {
        let limits = ResourceLimits::production();
        assert!(limits.check_depth(10_000).is_err());
        assert!(limits.check_gates(2 << 20).is_err());
        assert!(limits.check_memory(1 << 30).is_err());
        assert!(limits.check_depth(100).is_ok());
    }

    #[test]
    fn expired_deadline_reports() {
        let limits = ResourceLimits {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(5)),
            ..ResourceLimits::unlimited()
        };
        let err = limits.check_deadline().unwrap_err();
        assert_eq!(err.resource, Resource::Deadline);
    }

    #[test]
    fn checked_arithmetic_reports_overflow() {
        assert!(checked_mul_u64(u64::MAX, 2).is_err());
        assert_eq!(checked_mul_u64(6, 7).unwrap(), 42);
        assert!(checked_add_u64(u64::MAX, 1).is_err());
        assert_eq!(checked_add_u64(40, 2).unwrap(), 42);
    }
}
