//! One module per reproduced table/figure plus the ablations.

pub mod ablate_dormancy;
pub mod ablate_faults;
pub mod ablate_jitter;
pub mod ablate_k;
pub mod ablate_overload;
pub mod ablate_prediction;
pub mod ablate_radio;
pub mod capture_study;
pub mod chaos;
pub mod explain;
pub mod ext_day;
pub mod ext_grid;
pub mod ext_push_poll;
pub mod fig10a;
pub mod fig10b;
pub mod fig10c;
pub mod fig11;
pub mod fig1a;
pub mod fig1b;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig6;
pub mod fig7a;
pub mod fig7b;
pub mod fig8a;
pub mod fig8b;
pub mod fleet_savings;
pub mod offline_gap;
pub mod table1;

use etrain_sim::Scenario;

use crate::Settings;

/// The standard 2-hour paper scenario (λ = 0.08, three trains, synthetic
/// drive trace) under `settings`' oracle and observability modes,
/// shortened in quick mode.
pub(crate) fn paper_base(settings: Settings) -> Scenario {
    settings
        .paper_default()
        .duration_secs(if settings.quick { 2400 } else { 7200 })
        .seed(7)
}

/// Formats joules with one decimal.
pub(crate) fn j(value: f64) -> String {
    format!("{value:.1}")
}

/// Formats seconds with one decimal.
pub(crate) fn s(value: f64) -> String {
    format!("{value:.1}")
}

/// Formats a ratio as a percentage with one decimal.
pub(crate) fn pct(value: f64) -> String {
    format!("{:.1}%", value * 100.0)
}
