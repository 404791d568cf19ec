//! Error type for the HEES architectures.

use otem_battery::BatteryError;
use otem_converter::ConverterError;
use otem_ultracap::UltracapError;
use std::error::Error;
use std::fmt;

/// Errors returned by the HEES architecture models.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HeesError {
    /// The battery model rejected a parameter or request.
    Battery(BatteryError),
    /// The ultracapacitor model rejected a parameter or request.
    Ultracap(UltracapError),
    /// A converter rejected a parameter or transfer.
    Converter(ConverterError),
}

impl fmt::Display for HeesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Battery(e) => write!(f, "battery: {e}"),
            Self::Ultracap(e) => write!(f, "ultracapacitor: {e}"),
            Self::Converter(e) => write!(f, "converter: {e}"),
        }
    }
}

impl Error for HeesError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            Self::Battery(e) => Some(e),
            Self::Ultracap(e) => Some(e),
            Self::Converter(e) => Some(e),
        }
    }
}

impl From<BatteryError> for HeesError {
    fn from(e: BatteryError) -> Self {
        Self::Battery(e)
    }
}

impl From<UltracapError> for HeesError {
    fn from(e: UltracapError) -> Self {
        Self::Ultracap(e)
    }
}

impl From<ConverterError> for HeesError {
    fn from(e: ConverterError) -> Self {
        Self::Converter(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<HeesError>();
    }

    #[test]
    fn sources_chain() {
        let e = HeesError::from(BatteryError::InvalidParameter {
            name: "x",
            value: 0.0,
            constraint: "> 0",
        });
        assert!(e.source().is_some());
        assert!(e.to_string().contains("battery"));
    }
}
