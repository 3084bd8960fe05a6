//! What machine and which code a result came from.

use std::fs;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    pub cpu: String,
    pub cores: usize,
    /// The SIMD feature flags the kernels can use, in a fixed order.
    pub simd: Vec<String>,
}

const SIMD_FLAGS: [&str; 8] = [
    "sse4_2", "avx", "avx2", "avx512f", "avx512bw", "avx512vl", "asimd", "sve",
];

impl Fingerprint {
    pub fn of_this_machine() -> Fingerprint {
        let cpuinfo = fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
        let field = |name: &str| {
            cpuinfo
                .lines()
                .find(|l| l.starts_with(name))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        };
        let cpu = field("model name")
            .or_else(|| field("Model"))
            .unwrap_or_else(|| std::env::consts::ARCH.to_string());
        let flags = field("flags")
            .or_else(|| field("Features"))
            .unwrap_or_default();
        let have: Vec<&str> = flags.split_whitespace().collect();
        let simd = SIMD_FLAGS
            .iter()
            .filter(|f| have.contains(f))
            .map(|f| f.to_string())
            .collect();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        Fingerprint { cpu, cores, simd }
    }

    /// One line: `cpu=<model>; cores=<n>; simd=<a,b,..>`.
    pub fn render(&self) -> String {
        format!(
            "cpu={}; cores={}; simd={}",
            self.cpu,
            self.cores,
            self.simd.join(",")
        )
    }
}

/// The revision of the code under test: an FNV-1a digest of the
/// repository's and the benchmark's sources as they are on disk, so
/// uncommitted changes get a revision of their own; the git commit, when
/// the tree is a git checkout, follows for reference.
pub fn code_revision(root: &Path) -> String {
    let mut files = Vec::new();
    for dir in ["crates", "src", "wirebench/src"] {
        collect(&root.join(dir), &mut files);
    }
    files.push(root.join("Cargo.toml"));
    files.push(root.join("wirebench/Cargo.toml"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for f in files {
        let name = f
            .strip_prefix(root)
            .unwrap_or(&f)
            .to_string_lossy()
            .into_owned();
        for b in name.bytes().chain(fs::read(&f).unwrap_or_default()) {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }
    match git_head(root) {
        Some(rev) => format!("src:{h:016x} git:{rev}"),
        None => format!("src:{h:016x}"),
    }
}

fn git_head(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}
