use std::error::Error;
use std::fmt;

/// Error returned when constructing invalid radio parameters or timelines.
#[derive(Debug, Clone, PartialEq)]
pub enum RadioError {
    /// A power level was negative or not finite.
    InvalidPower {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value in milliwatts.
        value_mw: f64,
    },
    /// A duration was negative or not finite.
    InvalidDuration {
        /// Name of the offending parameter.
        name: &'static str,
        /// The rejected value in seconds.
        value_s: f64,
    },
    /// DCH power must dominate FACH power, which must dominate idle power.
    PowerOrdering {
        /// Idle power in milliwatts.
        idle_mw: f64,
        /// FACH power in milliwatts.
        fach_mw: f64,
        /// DCH power in milliwatts.
        dch_mw: f64,
    },
    /// A transmission had a negative start time or duration.
    InvalidTransmission {
        /// Start time of the rejected transmission in seconds.
        start_s: f64,
        /// Duration of the rejected transmission in seconds.
        duration_s: f64,
    },
}

impl fmt::Display for RadioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadioError::InvalidPower { name, value_mw } => {
                write!(f, "power parameter `{name}` is invalid: {value_mw} mW")
            }
            RadioError::InvalidDuration { name, value_s } => {
                write!(f, "duration parameter `{name}` is invalid: {value_s} s")
            }
            RadioError::PowerOrdering {
                idle_mw,
                fach_mw,
                dch_mw,
            } => write!(
                f,
                "power ordering violated: need idle ({idle_mw} mW) <= fach ({fach_mw} mW) <= dch ({dch_mw} mW)"
            ),
            RadioError::InvalidTransmission { start_s, duration_s } => write!(
                f,
                "transmission with start {start_s} s and duration {duration_s} s is invalid"
            ),
        }
    }
}

impl Error for RadioError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Transmission;

    #[test]
    fn parameter_errors_name_the_parameter_and_its_value() {
        let power = RadioError::InvalidPower {
            name: "dch_mw",
            value_mw: -1.0,
        };
        assert_eq!(
            power.to_string(),
            "power parameter `dch_mw` is invalid: -1 mW"
        );
        let duration = RadioError::InvalidDuration {
            name: "t1_s",
            value_s: f64::NAN,
        };
        assert_eq!(
            duration.to_string(),
            "duration parameter `t1_s` is invalid: NaN s"
        );
    }

    #[test]
    fn an_ordering_error_lists_all_three_power_levels() {
        let err = RadioError::PowerOrdering {
            idle_mw: 20.0,
            fach_mw: 700.0,
            dch_mw: 500.0,
        };
        assert_eq!(
            err.to_string(),
            "power ordering violated: need idle (20 mW) <= fach (700 mW) <= dch (500 mW)"
        );
    }

    #[test]
    fn a_transmission_outside_time_fails_validation_with_its_timing() {
        assert_eq!(Transmission::new(0.0, 0.0).validate(), Ok(()));
        for (start_s, duration_s) in [(-1.0, 2.0), (1.0, -0.5), (f64::INFINITY, 1.0)] {
            let err = Transmission::new(start_s, duration_s)
                .validate()
                .unwrap_err();
            assert_eq!(
                err,
                RadioError::InvalidTransmission {
                    start_s,
                    duration_s
                }
            );
            assert!(
                err.to_string().contains(&format!("{duration_s} s")),
                "{err}"
            );
        }
        let nan = Transmission::new(1.0, f64::NAN).validate();
        assert!(matches!(nan, Err(RadioError::InvalidTransmission { .. })));
    }
}
