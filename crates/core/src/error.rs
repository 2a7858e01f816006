//! Error type for model evaluations.

use std::fmt;
use wormsim_queueing::QueueingError;

/// Errors raised while evaluating an analytical model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A queueing computation failed at a specific channel class — most
    /// commonly saturation of that class at the requested load.
    Queueing {
        /// Human-readable channel-class label (paper notation, e.g. `<0,1>`).
        class: String,
        /// The underlying queueing error.
        source: QueueingError,
    },
    /// The network specification was internally inconsistent.
    Spec(String),
    /// The saturation search could not bracket a solution.
    Saturation(String),
    /// Knee bracketing ([`crate::framework::NetworkSpec::find_knee`])
    /// could not produce a bracket.
    Knee(wormsim_guard::KneeError),
}

impl ModelError {
    /// Convenience constructor tagging a queueing error with its channel.
    pub fn at(class: impl Into<String>, source: QueueingError) -> Self {
        ModelError::Queueing {
            class: class.into(),
            source,
        }
    }

    /// True when the failure is a saturation (as opposed to a usage error).
    #[must_use]
    pub fn is_saturation(&self) -> bool {
        matches!(
            self,
            ModelError::Queueing {
                source: QueueingError::Saturated { .. },
                ..
            } | ModelError::Saturation(_)
        )
    }

    /// True when a queueing computation rejected a value the *solve
    /// itself* produced — a negative or non-finite service time, wait, or
    /// probability. On a spec that passed
    /// [`crate::framework::NetworkSpec::validate`] these are not usage
    /// errors but the numerical signature of a load past the knee (a
    /// service time left the model's physical domain), so the
    /// saturation-aware entry points report them as saturation.
    #[must_use]
    pub fn is_domain_excursion(&self) -> bool {
        matches!(
            self,
            ModelError::Queueing {
                source: QueueingError::InvalidServiceTime { .. }
                    | QueueingError::InvalidRate { .. }
                    | QueueingError::InvalidScv { .. }
                    | QueueingError::InvalidProbability { .. }
                    | QueueingError::Numerical { .. },
                ..
            }
        )
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Queueing { class, source } => {
                write!(f, "channel class {class}: {source}")
            }
            ModelError::Spec(msg) => write!(f, "invalid network specification: {msg}"),
            ModelError::Saturation(msg) => write!(f, "saturation search failed: {msg}"),
            ModelError::Knee(e) => write!(f, "knee bracketing failed: {e}"),
        }
    }
}

impl std::error::Error for ModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ModelError::Queueing { source, .. } => Some(source),
            ModelError::Knee(source) => Some(source),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_class_context() {
        let err = ModelError::at("<0,1>", QueueingError::Saturated { utilization: 1.2 });
        let msg = err.to_string();
        assert!(msg.contains("<0,1>"));
        assert!(msg.contains("saturated"));
    }

    #[test]
    fn saturation_detection() {
        assert!(
            ModelError::at("<1,0>", QueueingError::Saturated { utilization: 1.0 }).is_saturation()
        );
        assert!(ModelError::Saturation("no bracket".into()).is_saturation());
        assert!(!ModelError::Spec("bad".into()).is_saturation());
        assert!(!ModelError::at("<1,0>", QueueingError::InvalidServerCount).is_saturation());
    }

    #[test]
    fn error_source_chain() {
        use std::error::Error as _;
        let err = ModelError::at("x", QueueingError::InvalidServerCount);
        assert!(err.source().is_some());
        assert!(ModelError::Spec("s".into()).source().is_none());
        assert!(ModelError::Knee(wormsim_guard::KneeError::InvalidConfig)
            .source()
            .is_some());
    }

    #[test]
    fn knee_display_names_the_bracketer() {
        assert!(
            ModelError::Knee(wormsim_guard::KneeError::InfeasibleAtFloor { load: 0.01 })
                .to_string()
                .contains("knee")
        );
    }
}
