//! Error types for trace parsing and I/O.

use crate::{Addr, ADDR_BITS};
use std::error::Error;
use std::fmt;
use std::io;

/// An error produced while parsing a textual trace.
#[derive(Debug)]
pub struct ParseTraceError {
    line: u64,
    message: String,
}

impl ParseTraceError {
    pub(crate) fn new(line: u64, message: impl Into<String>) -> Self {
        ParseTraceError {
            line,
            message: message.into(),
        }
    }

    /// 1-based line number at which parsing failed.
    pub fn line(&self) -> u64 {
        self.line
    }

    /// Human-readable description of the problem.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.message)
    }
}

impl Error for ParseTraceError {}

/// An error produced while reading or writing a trace.
#[derive(Debug)]
pub enum TraceIoError {
    /// The underlying reader or writer failed.
    Io(io::Error),
    /// The byte stream was not a valid trace in the expected format.
    Parse(ParseTraceError),
    /// A binary trace had a bad magic number or version.
    BadHeader {
        /// What was found instead of the expected header.
        found: String,
    },
    /// A binary trace ended in the middle of a record.
    Truncated {
        /// 1-based index of the incomplete record.
        record: u64,
        /// How many of the record's bytes were present.
        got: usize,
        /// How many bytes a full record needs.
        expected: usize,
    },
    /// A binary record carried an access-kind byte outside the format.
    BadKind {
        /// 1-based index of the offending record.
        record: u64,
        /// The kind byte found.
        found: u8,
    },
    /// A binary record carried a zero or absurdly large access size.
    BadSize {
        /// 1-based index of the offending record.
        record: u64,
        /// The size byte found.
        found: u8,
    },
    /// A binary record carried an address a
    /// [`MemoryAccess`](crate::MemoryAccess) cannot hold (not below
    /// `2^`[`ADDR_BITS`](crate::ADDR_BITS)).
    AddrOutOfRange {
        /// 1-based index of the offending record.
        record: u64,
        /// The address found.
        addr: Addr,
    },
}

impl fmt::Display for TraceIoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceIoError::Io(e) => write!(f, "trace i/o failed: {e}"),
            TraceIoError::Parse(e) => e.fmt(f),
            TraceIoError::BadHeader { found } => {
                write!(f, "not a smith85 binary trace (found header {found:?})")
            }
            TraceIoError::Truncated {
                record,
                got,
                expected,
            } => write!(
                f,
                "binary trace truncated at record {record}: got {got} of {expected} bytes"
            ),
            TraceIoError::BadKind { record, found } => write!(
                f,
                "binary trace record {record}: bad access kind byte {found}"
            ),
            TraceIoError::BadSize { record, found } => write!(
                f,
                "binary trace record {record}: bad access size {found}"
            ),
            TraceIoError::AddrOutOfRange { record, addr } => write!(
                f,
                "binary trace record {record}: address {addr} does not fit in {ADDR_BITS} bits"
            ),
        }
    }
}

impl Error for TraceIoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceIoError::Io(e) => Some(e),
            TraceIoError::Parse(e) => Some(e),
            TraceIoError::BadHeader { .. }
            | TraceIoError::Truncated { .. }
            | TraceIoError::BadKind { .. }
            | TraceIoError::BadSize { .. }
            | TraceIoError::AddrOutOfRange { .. } => None,
        }
    }
}

impl From<io::Error> for TraceIoError {
    fn from(e: io::Error) -> Self {
        TraceIoError::Io(e)
    }
}

impl From<ParseTraceError> for TraceIoError {
    fn from(e: ParseTraceError) -> Self {
        TraceIoError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_line_number() {
        let err = ParseTraceError::new(17, "bad kind");
        assert!(err.to_string().contains("line 17"));
        assert_eq!(err.line(), 17);
        assert_eq!(err.message(), "bad kind");
    }

    #[test]
    fn io_error_wraps_source() {
        let err: TraceIoError = io::Error::other("boom").into();
        assert!(err.to_string().contains("boom"));
        assert!(Error::source(&err).is_some());
    }
}
