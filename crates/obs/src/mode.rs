//! The `ETRAIN_OBS` knob: how much observability a run records.

use serde::{Deserialize, Serialize};

/// Environment variable that selects the observability mode for binaries
/// and tests that do not set one programmatically (mirrors
/// `ETRAIN_ORACLE`).
pub const OBS_ENV: &str = "ETRAIN_OBS";

/// How much the observability layer records during a run.
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
    /// Strict [`OBS_ENV`] reader: `Ok(Off)` when unset or empty, the
    /// parsed mode otherwise, and `Err` (with the parse reason) for an
    /// unrecognized value. Binaries call this so a typo like
    /// `ETRAIN_OBS=jsnol` fails fast instead of silently recording
    /// nothing.
    pub fn try_from_env() -> Result<Self, String> {
        match std::env::var(OBS_ENV) {
            Err(_) => Ok(ObsMode::Off),
            Ok(raw) if raw.trim().is_empty() => Ok(ObsMode::Off),
            Ok(raw) => raw.parse(),
        }
    }

    /// Reads the mode from the [`OBS_ENV`] environment variable.
    ///
    /// Unset, empty, or unparseable values fall back to [`ObsMode::Off`]
    /// so that stray environment state can never change results — but an
    /// unparseable value warns once on stderr rather than being swallowed
    /// silently (library contexts cannot fail fast; binaries use
    /// [`ObsMode::try_from_env`]).
    pub fn from_env() -> Self {
        ObsMode::try_from_env().unwrap_or_else(|reason| {
            static WARN_ONCE: std::sync::Once = std::sync::Once::new();
            WARN_ONCE.call_once(|| {
                eprintln!("warning: ignoring {reason}; observability stays off");
            });
            ObsMode::Off
        })
    }

    /// Whether any recording happens at all.
    pub fn is_enabled(self) -> bool {
        self != ObsMode::Off
    }
}

impl std::str::FromStr for ObsMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "0" | "false" | "none" => Ok(ObsMode::Off),
            "jsonl" | "on" | "1" | "true" => Ok(ObsMode::Jsonl),
            other => Err(format!(
                "unknown {OBS_ENV} mode {other:?} (expected off or jsonl)"
            )),
        }
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
    fn parses_all_spellings() {
        assert_eq!("off".parse::<ObsMode>().unwrap(), ObsMode::Off);
        assert_eq!(" JSONL ".parse::<ObsMode>().unwrap(), ObsMode::Jsonl);
        assert_eq!("on".parse::<ObsMode>().unwrap(), ObsMode::Jsonl);
        assert!("journal".parse::<ObsMode>().is_err());
        let err = "ring".parse::<ObsMode>().unwrap_err();
        assert!(err.contains("expected off or jsonl"), "{err}");
    }

    #[test]
    fn numeric_and_boolean_aliases_parse() {
        for off in ["0", "false", "none", "OFF"] {
            assert_eq!(off.parse::<ObsMode>().unwrap(), ObsMode::Off, "{off}");
        }
        for on in ["1", "true", "True"] {
            assert_eq!(on.parse::<ObsMode>().unwrap(), ObsMode::Jsonl, "{on}");
        }
        // An empty value means "unset" only to the env reader; as a
        // spelling it is an error like any other.
        assert!("".parse::<ObsMode>().is_err());
    }

    #[test]
    fn default_is_off() {
        assert_eq!(ObsMode::default(), ObsMode::Off);
        assert!(!ObsMode::Off.is_enabled());
        assert!(ObsMode::Jsonl.is_enabled());
    }

    #[test]
    fn display_round_trips() {
        for mode in [ObsMode::Off, ObsMode::Jsonl] {
            assert_eq!(mode.to_string().parse::<ObsMode>().unwrap(), mode);
        }
    }
}
