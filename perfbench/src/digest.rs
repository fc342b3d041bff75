//! Digests of rendered experiment output, checked against references
//! kept with the benchmark.
//!
//! The paper suite's inputs are fixed (the calibrated catalog at the
//! paper's trace length), so each experiment's rendered table must come
//! out byte-identical on every run. The benchmark stores one digest per
//! experiment in `reference/suite_paper.digests` and fails the run on
//! any mismatch, so a "faster" suite that prints different numbers is
//! never counted as a gain.

use std::collections::BTreeMap;

/// 128-bit FNV-1a digest of `bytes`, as 32 hex digits.
pub fn digest(bytes: &[u8]) -> String {
    const OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
    const PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;
    let h = bytes
        .iter()
        .fold(OFFSET, |h, &b| (h ^ u128::from(b)).wrapping_mul(PRIME));
    format!("{h:032x}")
}

/// Parses a reference file: one `name digest` pair per line; blank lines
/// and `#` comments are skipped.
pub fn parse_reference(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            Some((parts.next()?.to_string(), parts.next()?.to_string()))
        })
        .collect()
}

/// Whether `rendered` matches the reference digest for `name`; a name
/// the reference does not list never matches.
pub fn matches(reference: &BTreeMap<String, String>, name: &str, rendered: &str) -> bool {
    reference.get(name).map(String::as_str) == Some(digest(rendered.as_bytes()).as_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_one_byte_change_fails_the_check() {
        let rendered = "Table 1\nMVS1  0.7097  0.6212\n".to_string();
        let reference = parse_reference(&format!(
            "# experiment digest\ntable1 {}\n",
            digest(rendered.as_bytes())
        ));
        assert!(matches(&reference, "table1", &rendered));
        let mut bytes = rendered.clone().into_bytes();
        for i in 0..bytes.len() {
            let original = bytes[i];
            bytes[i] = original ^ 0x01;
            let changed = String::from_utf8(bytes.clone()).expect("ascii stays utf-8");
            assert!(!matches(&reference, "table1", &changed), "flip at byte {i}");
            bytes[i] = original;
        }
        assert!(!matches(&reference, "table1", &format!("{rendered} ")));
        assert!(!matches(&reference, "table2", &rendered));
    }
}
