//! Criticality levels for dual-criticality systems.

use std::fmt;

/// The criticality level `χi` of a task in a dual-criticality system.
///
/// Ordered so that `Low < High`, which lets criticality-aware partitioning
/// strategies sort on it directly.
///
/// # Example
///
/// ```
/// use mcsched_model::Criticality;
///
/// assert!(Criticality::Low < Criticality::High);
/// assert!(Criticality::High.is_high());
/// assert_eq!(Criticality::Low.to_string(), "LC");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Criticality {
    /// Low criticality (`LC`). Deadlines only guaranteed in low mode.
    #[default]
    Low,
    /// High criticality (`HC`). Deadlines guaranteed in both modes.
    High,
}

impl Criticality {
    /// `true` for [`Criticality::High`].
    #[inline]
    pub const fn is_high(self) -> bool {
        matches!(self, Criticality::High)
    }

    /// `true` for [`Criticality::Low`].
    #[inline]
    pub const fn is_low(self) -> bool {
        matches!(self, Criticality::Low)
    }

    /// Both levels, low first.
    pub const ALL: [Criticality; 2] = [Criticality::Low, Criticality::High];
}

impl fmt::Display for Criticality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Criticality::Low => write!(f, "LC"),
            Criticality::High => write!(f, "HC"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_low_below_high() {
        assert!(Criticality::Low < Criticality::High);
        assert_eq!(Criticality::Low.max(Criticality::High), Criticality::High);
    }

    #[test]
    fn predicates() {
        assert!(Criticality::High.is_high());
        assert!(!Criticality::High.is_low());
        assert!(Criticality::Low.is_low());
        assert!(!Criticality::Low.is_high());
    }

    #[test]
    fn display() {
        assert_eq!(Criticality::Low.to_string(), "LC");
        assert_eq!(Criticality::High.to_string(), "HC");
    }

    #[test]
    fn default_is_low() {
        assert_eq!(Criticality::default(), Criticality::Low);
    }

    #[test]
    fn all_covers_both() {
        assert_eq!(Criticality::ALL.len(), 2);
        assert_eq!(Criticality::ALL[0], Criticality::Low);
        assert_eq!(Criticality::ALL[1], Criticality::High);
    }
}
