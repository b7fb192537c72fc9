//! Known-bad fixture for the escape hatch itself: `lint: allow`
//! directives that are missing a justification, use an unknown rule key,
//! or do not parse at all. None of these may suppress anything.
//! Linted under the pretend path `crates/darshan/src/text.rs`.

pub fn score(start_time: f64, total_bytes: f64) -> f64 {
    // lint: allow(unit)
    let a = total_bytes + start_time;
    // lint: allow(unit, unquoted words)
    let b = start_time - total_bytes;
    // lint: allow(frobnication, "not a rule")
    let c = total_bytes - start_time;
    // lint: allowance("nonsense")
    a + b + c
}
