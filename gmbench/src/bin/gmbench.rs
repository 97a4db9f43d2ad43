//! The end-to-end benchmark binary (default allocator).
fn main() {
    std::process::exit(gmbench::main_entry());
}
