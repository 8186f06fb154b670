//@ path: crates/hybridmem/src/stack.rs
fn tag(kind: u32) -> String {
    format!("kind-{kind}")
}

pub fn access(kind: u32) -> usize {
    tag(kind).len()
}
