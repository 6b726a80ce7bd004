// Fixture for rule `no-panic` (linted as crates/service/src/server.rs).
// Violations below are deliberate; spans are asserted by tests/fixtures.rs.

fn handle(opt: Option<u32>, xs: &[u32]) -> u32 {
    let a = opt.unwrap();
    let b = opt.expect("present");
    if a == 0 {
        panic!("boom");
    }
    let c = xs[0];
    // mclint: allow(no-panic) reason="fixture: suppressed on purpose"
    let d = xs[1];
    a + b + c + d
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_panic() {
        let v: Option<u32> = None;
        v.unwrap();
    }
}
