//! Golden-file test: a hand-written trace fixture with known
//! characteristics, guarding the text format and the characterizer
//! against silent semantic drift.

use smith85_trace::io::{read_text, write_binary, read_binary};
use smith85_trace::AccessKind;

const FIXTURE: &str = include_str!("fixtures/sample.trace");

#[test]
fn fixture_parses_with_known_characteristics() {
    let trace = read_text(FIXTURE.as_bytes()).expect("fixture parses");
    assert_eq!(trace.len(), 12);
    let s = trace.characteristics();
    assert_eq!(s.ifetches(), 8);
    assert_eq!(s.reads(), 2);
    assert_eq!(s.writes(), 2);
    // Instruction lines: 0x1000-0x100c is one 16-byte line; data at
    // 0x8000-0x8004 is one line.
    assert_eq!(s.instruction_lines(), 1);
    assert_eq!(s.data_lines(), 1);
    assert_eq!(s.address_space_bytes(), 32);
    // The loop back from 0x100c to 0x1000 is the only detected branch
    // (backward); it happens once per iteration boundary.
    assert_eq!(s.branches(), 1);
}

#[test]
fn fixture_roundtrips_to_binary() {
    let trace = read_text(FIXTURE.as_bytes()).unwrap();
    let mut bin = Vec::new();
    write_binary(&mut bin, &trace).unwrap();
    let back = read_binary(bin.as_slice()).unwrap();
    assert_eq!(back, trace);
    assert_eq!(back.as_slice()[4].kind(), AccessKind::Write);
}
