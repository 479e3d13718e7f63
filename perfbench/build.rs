//! Captures the effective `-C target-cpu=…` flag at compile time so every
//! result can record it in its provenance: kernels built for `native`
//! and for the portable baseline are not comparable.

fn main() {
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-env-changed=RUSTFLAGS");
    let flags: Vec<String> = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .map(|v| v.split('\x1f').map(str::to_string).collect())
        .or_else(|_| {
            std::env::var("RUSTFLAGS").map(|v| v.split_whitespace().map(str::to_string).collect())
        })
        .unwrap_or_default();
    let mut target_cpu = String::from("generic");
    for (i, flag) in flags.iter().enumerate() {
        if let Some(cpu) = flag.strip_prefix("-Ctarget-cpu=") {
            target_cpu = cpu.to_string();
        } else if flag == "-C" {
            if let Some(cpu) = flags.get(i + 1).and_then(|f| f.strip_prefix("target-cpu=")) {
                target_cpu = cpu.to_string();
            }
        }
    }
    println!("cargo:rustc-env=H3DFACT_TARGET_CPU={target_cpu}");
}
