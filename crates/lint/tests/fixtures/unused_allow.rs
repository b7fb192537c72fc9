//! Fixture for the `unused-allow` rule: a stale escape hatch that no
//! longer suppresses anything is itself a finding.
//! Linted under the pretend path `crates/core/src/merge.rs`.

pub fn tidy(total_bytes: u64) -> u64 {
    // lint: allow(unit, "stale: there is no unit mix here any more")
    total_bytes + 1
}
