//! Records the compiler version and build profile for the result's host
//! block; the benchmark runs from a checkout that may not be a git
//! repository, so these are captured when it is built.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    println!("cargo:rustc-env=SERVEDBENCH_RUSTC={version}");
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    println!("cargo:rustc-env=SERVEDBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
}
