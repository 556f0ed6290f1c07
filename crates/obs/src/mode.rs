//! [`ObsMode`]: how much observability a run records.

use serde::{Deserialize, Serialize};

/// How much the observability layer records during a run. Callers set it
/// per scenario (`Scenario::obs`) or per grid (`RunGrid::obs`); nothing
/// reads it from the environment.
///
/// The default is [`ObsMode::Off`]: no events are allocated and the
/// simulation output is bit-for-bit identical to a run without the
/// observability layer compiled in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ObsMode {
    /// Record nothing (zero-cost; the default).
    #[default]
    Off,
    /// Record every event, exportable as JSON Lines.
    Jsonl,
}

impl ObsMode {
    /// Whether any recording happens at all.
    pub fn is_enabled(self) -> bool {
        self != ObsMode::Off
    }
}

impl std::fmt::Display for ObsMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObsMode::Off => write!(f, "off"),
            ObsMode::Jsonl => write!(f, "jsonl"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_off() {
        assert_eq!(ObsMode::default(), ObsMode::Off);
        assert!(!ObsMode::Off.is_enabled());
        assert!(ObsMode::Jsonl.is_enabled());
    }

    #[test]
    fn display_names_the_mode() {
        assert_eq!(ObsMode::Off.to_string(), "off");
        assert_eq!(ObsMode::Jsonl.to_string(), "jsonl");
    }
}
