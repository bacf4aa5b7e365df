//! Error type for model construction and validation.

use std::error::Error;
use std::fmt;

/// Errors raised while constructing or validating model objects.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ModelError {
    /// A cache block index does not fit the cache geometry.
    BlockOutOfRange {
        /// The offending block index.
        block: usize,
        /// The number of cache sets.
        capacity: usize,
    },
    /// A decoded block set's word count does not match its capacity.
    MalformedBlockSet {
        /// The number of cache sets the set claims.
        capacity: usize,
        /// The number of 64-bit words it carried.
        words: usize,
    },
    /// A required task field was not supplied to the builder.
    MissingField {
        /// Name of the missing builder field.
        field: &'static str,
    },
    /// A task field has an invalid value (zero period, `MD^r > MD`, ...).
    InvalidTask {
        /// Task name.
        task: String,
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The task set violates a global invariant (duplicate priorities,
    /// inconsistent block-set capacities, empty set).
    InvalidTaskSet {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The platform description is invalid (zero cores, zero cache sets...).
    InvalidPlatform {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A task references a core outside the platform.
    CoreOutOfRange {
        /// Task name.
        task: String,
        /// The referenced core index.
        core: usize,
        /// Number of cores in the platform.
        cores: usize,
    },
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::BlockOutOfRange { block, capacity } => {
                write!(
                    f,
                    "cache block {block} out of range for {capacity} cache sets"
                )
            }
            ModelError::MalformedBlockSet { capacity, words } => {
                let needs = capacity.div_ceil(64);
                write!(
                    f,
                    "block set over {capacity} cache sets needs {needs} words, got {words}"
                )
            }
            ModelError::MissingField { field } => {
                write!(f, "task builder is missing required field `{field}`")
            }
            ModelError::InvalidTask { task, reason } => {
                write!(f, "invalid task `{task}`: {reason}")
            }
            ModelError::InvalidTaskSet { reason } => write!(f, "invalid task set: {reason}"),
            ModelError::InvalidPlatform { reason } => write!(f, "invalid platform: {reason}"),
            ModelError::CoreOutOfRange { task, core, cores } => {
                write!(
                    f,
                    "task `{task}` assigned to core {core} but platform has {cores} cores"
                )
            }
        }
    }
}

impl Error for ModelError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ModelError::BlockOutOfRange {
            block: 9,
            capacity: 8,
        };
        assert_eq!(e.to_string(), "cache block 9 out of range for 8 cache sets");
        let e = ModelError::MissingField { field: "period" };
        assert!(e.to_string().contains("period"));
        let e = ModelError::InvalidTask {
            task: "t".into(),
            reason: "zero period".into(),
        };
        assert!(e.to_string().contains("zero period"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn assert_good_error<E: Error + Send + Sync + 'static>() {}
        assert_good_error::<ModelError>();
    }
}
