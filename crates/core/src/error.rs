//! Top-level error type aggregating the component crates'.

use std::error::Error;
use std::fmt;

/// Errors surfaced by controller construction and simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OtemError {
    /// A component model rejected its parameters.
    Battery(otem_battery::BatteryError),
    /// The ultracapacitor model rejected its parameters.
    Ultracap(otem_ultracap::UltracapError),
    /// A converter rejected its parameters.
    Converter(otem_converter::ConverterError),
    /// The thermal plant rejected its parameters.
    Thermal(otem_thermal::ThermalError),
    /// The HEES layer reported an error.
    Hees(otem_hees::HeesError),
    /// The drive-cycle substrate reported an error.
    Cycle(otem_drivecycle::CycleError),
    /// A configuration field was out of range.
    InvalidConfig {
        /// Name of the offending field.
        field: &'static str,
        /// Human-readable constraint that was violated.
        constraint: &'static str,
    },
}

impl fmt::Display for OtemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Battery(e) => write!(f, "battery: {e}"),
            Self::Ultracap(e) => write!(f, "ultracapacitor: {e}"),
            Self::Converter(e) => write!(f, "converter: {e}"),
            Self::Thermal(e) => write!(f, "thermal plant: {e}"),
            Self::Hees(e) => write!(f, "HEES: {e}"),
            Self::Cycle(e) => write!(f, "drive cycle: {e}"),
            Self::InvalidConfig { field, constraint } => {
                write!(
                    f,
                    "invalid configuration: {field} must satisfy {constraint}"
                )
            }
        }
    }
}

impl Error for OtemError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Battery(e) => Some(e),
            Self::Ultracap(e) => Some(e),
            Self::Converter(e) => Some(e),
            Self::Thermal(e) => Some(e),
            Self::Hees(e) => Some(e),
            Self::Cycle(e) => Some(e),
            Self::InvalidConfig { .. } => None,
        }
    }
}

impl From<otem_battery::BatteryError> for OtemError {
    fn from(e: otem_battery::BatteryError) -> Self {
        Self::Battery(e)
    }
}
impl From<otem_ultracap::UltracapError> for OtemError {
    fn from(e: otem_ultracap::UltracapError) -> Self {
        Self::Ultracap(e)
    }
}
impl From<otem_converter::ConverterError> for OtemError {
    fn from(e: otem_converter::ConverterError) -> Self {
        Self::Converter(e)
    }
}
impl From<otem_thermal::ThermalError> for OtemError {
    fn from(e: otem_thermal::ThermalError) -> Self {
        Self::Thermal(e)
    }
}
impl From<otem_hees::HeesError> for OtemError {
    fn from(e: otem_hees::HeesError) -> Self {
        Self::Hees(e)
    }
}
impl From<otem_drivecycle::CycleError> for OtemError {
    fn from(e: otem_drivecycle::CycleError) -> Self {
        Self::Cycle(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OtemError>();
    }

    #[test]
    fn wrapping_preserves_source() {
        let e = OtemError::from(otem_thermal::ThermalError::InvalidParameter {
            name: "x",
            value: 0.0,
            constraint: "> 0",
        });
        assert!(e.source().is_some());
    }
}
