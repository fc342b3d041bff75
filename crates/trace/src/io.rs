//! On-disk trace formats.
//!
//! Two formats are supported:
//!
//! * **Text** — one access per line, `<kind> <hex-addr> <size>`, where
//!   `<kind>` is `I`, `R` or `W` (or the Dinero-style digits `2`, `0`, `1`).
//!   Blank lines and `#` comments are ignored. Human-readable; good for
//!   small fixtures.
//! * **Binary** — a 8-byte header (`b"S85T"` magic, format version, access
//!   count implied by length) followed by 10 bytes per access (u8 kind,
//!   u8 size, u64 little-endian address). Compact; good for large traces.
//!
//! ```
//! use smith85_trace::io::{read_text, write_text};
//! use smith85_trace::{Addr, MemoryAccess, Trace};
//!
//! # fn main() -> Result<(), smith85_trace::TraceIoError> {
//! let trace: Trace = vec![MemoryAccess::ifetch(Addr::new(0x40), 4)].into();
//! let mut buf = Vec::new();
//! write_text(&mut buf, &trace)?;
//! let back = read_text(buf.as_slice())?;
//! assert_eq!(back, trace);
//! # Ok(())
//! # }
//! ```

use crate::error::{ParseTraceError, TraceIoError};
use crate::{AccessKind, Addr, MemoryAccess, Trace, ADDR_BITS};
use std::io::{BufRead, BufReader, Read, Write};

/// Magic bytes opening a binary trace.
pub const BINARY_MAGIC: [u8; 4] = *b"S85T";
/// Current binary format version.
pub const BINARY_VERSION: u8 = 1;
/// Largest access size, in bytes, any supported machine issues. The widest
/// real reference in the paper's trace set is 8 bytes (IBM 370 doubleword);
/// 64 leaves headroom for vector machines while still catching corrupt
/// size bytes.
pub const MAX_ACCESS_SIZE: u8 = 64;

/// Writes a trace in the text format.
///
/// # Errors
///
/// Returns an error if the underlying writer fails. A `&mut` reference to a
/// writer can be passed where a writer is expected.
pub fn write_text<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceIoError> {
    for access in trace {
        writeln!(
            w,
            "{} {:x} {}",
            access.kind().mnemonic(),
            access.addr(),
            access.size()
        )?;
    }
    Ok(())
}

/// Writes a trace in the classic Dinero input format: one `label address`
/// pair per line, labels `0` (read), `1` (write), `2` (instruction
/// fetch), addresses in hex, no size column. Lossy for access sizes
/// (Dinero carries none); [`read_text`] reads it back with sizes
/// defaulted to 4.
///
/// # Errors
///
/// Returns an error if the underlying writer fails.
pub fn write_dinero<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceIoError> {
    for access in trace {
        let label = match access.kind() {
            AccessKind::Read => 0,
            AccessKind::Write => 1,
            AccessKind::InstructionFetch => 2,
        };
        writeln!(w, "{} {:x}", label, access.addr())?;
    }
    Ok(())
}

/// Reads a trace in the text format.
///
/// # Errors
///
/// Returns an error if the reader fails or a line cannot be parsed; parse
/// errors carry the 1-based line number.
pub fn read_text<R: Read>(r: R) -> Result<Trace, TraceIoError> {
    let reader = BufReader::new(r);
    let mut trace = Trace::new();
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx as u64 + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        trace.push(parse_line(line, lineno)?);
    }
    Ok(trace)
}

fn parse_line(line: &str, lineno: u64) -> Result<MemoryAccess, ParseTraceError> {
    let mut fields = line.split_whitespace();
    let kind_tok = fields
        .next()
        .ok_or_else(|| ParseTraceError::new(lineno, "missing access kind"))?;
    let kind = parse_kind(kind_tok)
        .ok_or_else(|| ParseTraceError::new(lineno, format!("bad access kind {kind_tok:?}")))?;
    let addr_tok = fields
        .next()
        .ok_or_else(|| ParseTraceError::new(lineno, "missing address"))?;
    let addr_str = addr_tok.trim_start_matches("0x");
    let addr = u64::from_str_radix(addr_str, 16)
        .map_err(|e| ParseTraceError::new(lineno, format!("bad address {addr_tok:?}: {e}")))?;
    let size = match fields.next() {
        // Size column is optional; Dinero traces omit it. Default to 4.
        None => 4,
        Some(tok) => tok
            .parse::<u8>()
            .map_err(|e| ParseTraceError::new(lineno, format!("bad size {tok:?}: {e}")))?,
    };
    if fields.next().is_some() {
        return Err(ParseTraceError::new(lineno, "trailing fields"));
    }
    if size == 0 || size > MAX_ACCESS_SIZE {
        return Err(ParseTraceError::new(
            lineno,
            format!("access size must be in 1..={MAX_ACCESS_SIZE}, got {size}"),
        ));
    }
    MemoryAccess::try_new(kind, Addr::new(addr), size).ok_or_else(|| {
        ParseTraceError::new(
            lineno,
            format!("address {addr:#x} does not fit in {ADDR_BITS} bits"),
        )
    })
}

fn parse_kind(tok: &str) -> Option<AccessKind> {
    match tok {
        "I" | "i" | "2" => Some(AccessKind::InstructionFetch),
        "R" | "r" | "0" => Some(AccessKind::Read),
        "W" | "w" | "1" => Some(AccessKind::Write),
        _ => None,
    }
}

/// Writes a trace in the binary format.
///
/// # Errors
///
/// Returns an error if the underlying writer fails.
pub fn write_binary<W: Write>(mut w: W, trace: &Trace) -> Result<(), TraceIoError> {
    w.write_all(&BINARY_MAGIC)?;
    w.write_all(&[BINARY_VERSION, 0, 0, 0])?;
    for access in trace {
        let mut rec = [0u8; 10];
        rec[0] = access.kind().index() as u8;
        rec[1] = access.size();
        rec[2..].copy_from_slice(&access.addr().get().to_le_bytes());
        w.write_all(&rec)?;
    }
    Ok(())
}

/// Reads a trace in the binary format.
///
/// Never panics, whatever the bytes: every way a file can be malformed maps
/// to a typed [`TraceIoError`] variant —
///
/// * wrong magic, unsupported version, or a header cut short:
///   [`TraceIoError::BadHeader`],
/// * a file ending mid-record (truncation, or trailing garbage shorter
///   than a record): [`TraceIoError::Truncated`],
/// * a kind byte outside `0..=2`: [`TraceIoError::BadKind`],
/// * a zero or larger-than-[`MAX_ACCESS_SIZE`] size byte:
///   [`TraceIoError::BadSize`],
/// * an address not below `2^`[`ADDR_BITS`], which a [`MemoryAccess`]
///   cannot hold: [`TraceIoError::AddrOutOfRange`].
///
/// # Errors
///
/// As above, plus [`TraceIoError::Io`] for reader failures.
pub fn read_binary<R: Read>(mut r: R) -> Result<Trace, TraceIoError> {
    let mut header = [0u8; 8];
    let got = read_full(&mut r, &mut header)?;
    if got < header.len() {
        return Err(TraceIoError::BadHeader {
            found: format!("{got}-byte file"),
        });
    }
    if header[..4] != BINARY_MAGIC {
        return Err(TraceIoError::BadHeader {
            found: format!("{:02x?}", &header[..4]),
        });
    }
    if header[4] != BINARY_VERSION {
        return Err(TraceIoError::BadHeader {
            found: format!("version {}", header[4]),
        });
    }
    let mut trace = Trace::new();
    let mut rec = [0u8; 10];
    let mut n: u64 = 0;
    loop {
        let got = read_full(&mut r, &mut rec)?;
        if got == 0 {
            break;
        }
        n += 1;
        if got < rec.len() {
            return Err(TraceIoError::Truncated {
                record: n,
                got,
                expected: rec.len(),
            });
        }
        let kind = match rec[0] {
            0 => AccessKind::InstructionFetch,
            1 => AccessKind::Read,
            2 => AccessKind::Write,
            other => return Err(TraceIoError::BadKind { record: n, found: other }),
        };
        let size = rec[1];
        if size == 0 || size > MAX_ACCESS_SIZE {
            return Err(TraceIoError::BadSize { record: n, found: size });
        }
        let mut addr_bytes = [0u8; 8];
        addr_bytes.copy_from_slice(&rec[2..]);
        let addr = Addr::new(u64::from_le_bytes(addr_bytes));
        let access = MemoryAccess::try_new(kind, addr, size)
            .ok_or(TraceIoError::AddrOutOfRange { record: n, addr })?;
        trace.push(access);
    }
    Ok(trace)
}

/// Fills `buf` from `r` as far as the stream allows, returning how many
/// bytes were read (less than `buf.len()` only at EOF).
fn read_full<R: Read>(r: &mut R, buf: &mut [u8]) -> Result<usize, TraceIoError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        vec![
            MemoryAccess::ifetch(Addr::new(0x1000), 4),
            MemoryAccess::read(Addr::new(0xdead_beef), 8),
            MemoryAccess::write(Addr::new(0x0), 1),
        ]
        .into()
    }

    #[test]
    fn text_roundtrip() {
        let mut buf = Vec::new();
        write_text(&mut buf, &sample()).unwrap();
        assert_eq!(read_text(buf.as_slice()).unwrap(), sample());
    }

    #[test]
    fn binary_roundtrip() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), sample());
    }

    #[test]
    fn text_accepts_comments_blank_lines_and_dinero_digits() {
        let text = "# a comment\n\n2 40\n0 100 4\n1 104 4\n";
        let t = read_text(text.as_bytes()).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.as_slice()[0].kind(), AccessKind::InstructionFetch);
        assert_eq!(t.as_slice()[0].size(), 4); // defaulted
        assert_eq!(t.as_slice()[1].kind(), AccessKind::Read);
        assert_eq!(t.as_slice()[2].kind(), AccessKind::Write);
    }

    #[test]
    fn dinero_format_roundtrips_modulo_sizes() {
        let mut buf = Vec::new();
        write_dinero(&mut buf, &sample()).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("2 1000"));
        let back = read_text(buf.as_slice()).unwrap();
        assert_eq!(back.len(), sample().len());
        for (a, b) in back.iter().zip(sample().iter()) {
            assert_eq!(a.kind(), b.kind());
            assert_eq!(a.addr(), b.addr());
            assert_eq!(a.size(), 4); // sizes defaulted
        }
    }

    #[test]
    fn text_accepts_0x_prefix() {
        let t = read_text("I 0xff 4\n".as_bytes()).unwrap();
        assert_eq!(t.as_slice()[0].addr(), Addr::new(0xff));
    }

    #[test]
    fn text_rejects_bad_kind_with_line_number() {
        let err = read_text("I 40 4\nQ 50 4\n".as_bytes()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
    }

    #[test]
    fn text_rejects_zero_size_and_trailing_fields() {
        assert!(read_text("I 40 0\n".as_bytes()).is_err());
        assert!(read_text("I 40 4 junk\n".as_bytes()).is_err());
        assert!(read_text("I\n".as_bytes()).is_err());
        assert!(read_text("I zz 4\n".as_bytes()).is_err());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_binary(&b"NOPE\x01\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadHeader { .. }));
    }

    #[test]
    fn binary_rejects_bad_version() {
        let err = read_binary(&b"S85T\x09\0\0\0"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadHeader { .. }));
    }

    #[test]
    fn binary_rejects_truncated_record() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.pop();
        let err = read_binary(buf.as_slice()).unwrap_err();
        match err {
            TraceIoError::Truncated {
                record,
                got,
                expected,
            } => {
                assert_eq!(record, 3);
                assert_eq!(got, 9);
                assert_eq!(expected, 10);
            }
            other => panic!("expected Truncated, got {other}"),
        }
    }

    #[test]
    fn binary_rejects_truncated_header() {
        let err = read_binary(&b"S85T\x01"[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadHeader { .. }), "{err}");
        let err = read_binary(&b""[..]).unwrap_err();
        assert!(matches!(err, TraceIoError::BadHeader { .. }), "{err}");
    }

    #[test]
    fn binary_rejects_trailing_bytes() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf.extend_from_slice(b"junk");
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, TraceIoError::Truncated { record: 4, got: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn binary_rejects_bad_kind_byte() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        buf[8] = 7; // kind byte of the first record
        let err = read_binary(buf.as_slice()).unwrap_err();
        assert!(
            matches!(err, TraceIoError::BadKind { record: 1, found: 7 }),
            "{err}"
        );
    }

    #[test]
    fn binary_rejects_absurd_size_field() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        for bad in [0u8, MAX_ACCESS_SIZE + 1, 255] {
            buf[9] = bad; // size byte of the first record
            let err = read_binary(buf.as_slice()).unwrap_err();
            assert!(
                matches!(err, TraceIoError::BadSize { record: 1, found } if found == bad),
                "{err}"
            );
        }
    }

    #[test]
    fn corrupt_binary_errors_never_panic() {
        // Feed every prefix of a valid file plus a byte-flipped variant;
        // any outcome but a panic is acceptable.
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        for len in 0..buf.len() {
            let _ = read_binary(&buf[..len]);
            let mut flipped = buf.clone();
            flipped[len] ^= 0xff;
            let _ = read_binary(flipped.as_slice());
        }
    }

    /// A binary trace as written before `MemoryAccess` became one packed
    /// word: every kind, sizes 1 to 64, and addresses up to `2^54 - 1`.
    const PRE_PACKING_BINARY: &[u8] = b"S85T\x01\x00\x00\x00\
        \x00\x04\x40\x00\x00\x00\x00\x00\x00\x00\
        \x01\x08\xef\xbe\xad\xde\x00\x00\x00\x00\
        \x02\x01\x00\x00\x00\x00\x00\x00\x00\x00\
        \x01\x10\x34\x12\x00\x00\x00\x40\x00\x00\
        \x00\x40\xff\xff\xff\xff\xff\xff\x3f\x00";

    #[test]
    fn binary_format_is_unchanged_by_the_packed_layout() {
        let expected: Trace = vec![
            MemoryAccess::ifetch(Addr::new(0x40), 4),
            MemoryAccess::read(Addr::new(0xdead_beef), 8),
            MemoryAccess::write(Addr::new(0), 1),
            MemoryAccess::read(Addr::new(0x4000_0000_1234), 16),
            MemoryAccess::ifetch(Addr::new((1 << ADDR_BITS) - 1), 64),
        ]
        .into();
        assert_eq!(read_binary(PRE_PACKING_BINARY).unwrap(), expected);
        let mut buf = Vec::new();
        write_binary(&mut buf, &expected).unwrap();
        assert_eq!(buf, PRE_PACKING_BINARY);
    }

    #[test]
    fn widest_address_round_trips_both_formats() {
        let widest: Trace = vec![MemoryAccess::write(Addr::new((1 << ADDR_BITS) - 1), 8)].into();
        let mut buf = Vec::new();
        write_text(&mut buf, &widest).unwrap();
        assert_eq!(read_text(buf.as_slice()).unwrap(), widest);
        buf.clear();
        write_binary(&mut buf, &widest).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), widest);
    }

    #[test]
    fn text_rejects_an_address_wider_than_addr_bits_with_line_number() {
        for addr in [1u64 << ADDR_BITS, u64::MAX] {
            let text = format!("I 40 4\nR {addr:x} 4\n");
            match read_text(text.as_bytes()).unwrap_err() {
                TraceIoError::Parse(err) => {
                    assert_eq!(err.line(), 2);
                    assert!(err.message().contains("54 bits"), "{err}");
                }
                other => panic!("expected a parse error, got {other}"),
            }
        }
    }

    #[test]
    fn binary_rejects_an_address_wider_than_addr_bits() {
        let mut buf = Vec::new();
        write_binary(&mut buf, &sample()).unwrap();
        for addr in [1u64 << ADDR_BITS, u64::MAX] {
            // Address bytes of the second record.
            buf[20..28].copy_from_slice(&addr.to_le_bytes());
            let err = read_binary(buf.as_slice()).unwrap_err();
            assert!(
                matches!(err, TraceIoError::AddrOutOfRange { record: 2, addr: a } if a.get() == addr),
                "{err}"
            );
            assert!(err.to_string().contains("record 2"), "{err}");
        }
    }

    #[test]
    fn empty_trace_roundtrips_both_formats() {
        let empty = Trace::new();
        let mut buf = Vec::new();
        write_text(&mut buf, &empty).unwrap();
        assert_eq!(read_text(buf.as_slice()).unwrap(), empty);
        buf.clear();
        write_binary(&mut buf, &empty).unwrap();
        assert_eq!(read_binary(buf.as_slice()).unwrap(), empty);
    }
}
