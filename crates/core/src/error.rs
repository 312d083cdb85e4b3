//! Error types for the keyword index.

use std::fmt;

use hyperdex_hypercube::DimensionError;

/// Errors raised by the keyword index and search layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The hypercube dimensionality or a bit pattern was invalid.
    Dimension(DimensionError),
    /// A keyword was empty (or whitespace-only) after normalization.
    EmptyKeyword,
    /// A keyword's normalized text is longer than
    /// [`MAX_KEYWORD_LEN`](crate::keyword::MAX_KEYWORD_LEN) bytes.
    KeywordTooLong {
        /// The normalized length in bytes.
        len: usize,
    },
    /// A keyword set would hold more than
    /// [`MAX_KEYWORDS`](crate::keyword::MAX_KEYWORDS) distinct keywords.
    TooManyKeywords {
        /// The number of distinct keywords offered.
        count: usize,
    },
    /// An operation that requires keywords received an empty set.
    EmptyKeywordSet,
    /// A superset-search threshold of zero was requested.
    ZeroThreshold,
    /// A decomposed index was asked about an unknown field.
    UnknownField {
        /// The field name that has no hypercube.
        field: String,
    },
    /// A fault-tolerant search was configured with a zero base timeout
    /// (the retry machinery would spin without ever waiting).
    ZeroTimeout,
    /// A churn configuration was rejected (zero interval, empty
    /// membership, double enable, …).
    InvalidChurnConfig {
        /// Why the configuration was rejected.
        reason: &'static str,
    },
    /// A network connection to a cluster endpoint was lost (refused,
    /// reset, or closed mid-request) and could not be re-established
    /// within the client's reconnect budget.
    ConnectionLost {
        /// The endpoint that went away, e.g. `127.0.0.1:7401`.
        endpoint: String,
        /// What the transport observed, e.g. "connection refused".
        detail: String,
    },
    /// A request did not complete within its deadline. The connection
    /// may still be healthy — the reply is simply late or lost.
    Timeout {
        /// What was being waited on, e.g. "pin reply" or "connect".
        operation: String,
        /// The deadline that expired, in milliseconds.
        after_ms: u64,
    },
    /// A client received a well-formed frame of a kind no client is
    /// ever sent (a worker-bound request, say): the peer is not
    /// speaking the client protocol.
    UnexpectedFrame {
        /// The frame kind, e.g. `RegionQuery`.
        kind: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Dimension(e) => write!(f, "{e}"),
            Error::EmptyKeyword => write!(f, "keyword is empty after normalization"),
            Error::KeywordTooLong { len } => write!(
                f,
                "keyword is {len} bytes after normalization; the limit is {}",
                crate::keyword::MAX_KEYWORD_LEN
            ),
            Error::TooManyKeywords { count } => write!(
                f,
                "keyword set would hold {count} keywords; the limit is {}",
                crate::keyword::MAX_KEYWORDS
            ),
            Error::EmptyKeywordSet => write!(f, "operation requires at least one keyword"),
            Error::ZeroThreshold => write!(f, "superset search threshold must be positive"),
            Error::UnknownField { field } => {
                write!(f, "no hypercube registered for field `{field}`")
            }
            Error::ZeroTimeout => {
                write!(f, "fault-tolerant search requires a positive base timeout")
            }
            Error::InvalidChurnConfig { reason } => {
                write!(f, "invalid churn configuration: {reason}")
            }
            Error::ConnectionLost { endpoint, detail } => {
                write!(f, "connection to {endpoint} lost: {detail}")
            }
            Error::Timeout {
                operation,
                after_ms,
            } => {
                write!(f, "{operation} timed out after {after_ms} ms")
            }
            Error::UnexpectedFrame { kind } => {
                write!(f, "received a {kind} frame, which no client is ever sent")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Dimension(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DimensionError> for Error {
    fn from(e: DimensionError) -> Self {
        Error::Dimension(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_lowercase_and_informative() {
        assert!(Error::EmptyKeyword.to_string().contains("empty"));
        assert!(Error::ZeroThreshold.to_string().contains("positive"));
        assert!(Error::UnknownField { field: "os".into() }
            .to_string()
            .contains("os"));
    }

    #[test]
    fn net_errors_name_the_endpoint_and_deadline() {
        let lost = Error::ConnectionLost {
            endpoint: "127.0.0.1:7401".into(),
            detail: "connection refused".into(),
        };
        assert!(lost.to_string().contains("127.0.0.1:7401"));
        assert!(lost.to_string().contains("refused"));
        let late = Error::Timeout {
            operation: "pin reply".into(),
            after_ms: 250,
        };
        assert!(late.to_string().contains("pin reply"));
        assert!(late.to_string().contains("250"));
    }

    #[test]
    fn dimension_error_converts_and_sources() {
        use std::error::Error as _;
        let inner = hyperdex_hypercube::Shape::new(0).unwrap_err();
        let err: Error = inner.clone().into();
        assert_eq!(err, Error::Dimension(inner));
        assert!(err.source().is_some());
        assert!(Error::EmptyKeyword.source().is_none());
    }
}
