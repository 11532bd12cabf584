//! The run context printed with every run, so that figures from different
//! machines or builds are never compared silently.

/// CPU time stolen by the hypervisor so far, in `/proc/stat` ticks (0
/// when the file is unreadable).
#[must_use]
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    info.lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|rest| rest.split_once(':'))
        .map_or_else(|| "unknown".to_owned(), |(_, m)| m.trim().to_owned())
}

fn feature(detected: bool) -> &'static str {
    if detected {
        "1"
    } else {
        "0"
    }
}

/// Machine and build facts: core count, CPU model, the ISA extensions the
/// kernels dispatch on, whether the `obs` feature is compiled in, and
/// whether this is an optimized build.
#[must_use]
pub fn machine() -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    #[cfg(target_arch = "x86_64")]
    let (avx2, bmi2, aes) = (
        std::arch::is_x86_feature_detected!("avx2"),
        std::arch::is_x86_feature_detected!("bmi2"),
        std::arch::is_x86_feature_detected!("aes"),
    );
    #[cfg(not(target_arch = "x86_64"))]
    let (avx2, bmi2, aes) = (false, false, false);
    vec![
        ("nproc".to_owned(), nproc.to_string()),
        ("cpu".to_owned(), cpu_model()),
        ("avx2".to_owned(), feature(avx2).to_owned()),
        ("bmi2".to_owned(), feature(bmi2).to_owned()),
        ("aes".to_owned(), feature(aes).to_owned()),
        ("obs".to_owned(), feature(sepe_obs::enabled()).to_owned()),
        (
            "optimized".to_owned(),
            feature(!cfg!(debug_assertions)).to_owned(),
        ),
    ]
}
