//! The host block written with every result, and the rule that refuses
//! to compare results from different hosts.

use condspec_stats::Json;

/// Where and how a result was measured.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: u64,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu: String,
    /// `rustc -V` of the compiler that built the benchmark.
    pub rustc: String,
    /// Cargo build profile.
    pub profile: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown`.
    pub commit: String,
}

/// Fields that identify a host; `commit` is not one of them, since
/// comparing two commits on one host is the point.
const IDENTITY: [&str; 4] = ["nproc", "cpu", "rustc", "profile"];

impl Host {
    /// Describes the running host.
    pub fn current() -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|v| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        // Never look for a repository above the working directory.
        let cwd = std::env::current_dir().unwrap_or_default();
        let commit = std::process::Command::new("git")
            .args(["rev-parse", "HEAD"])
            .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get() as u64),
            cpu,
            rustc: env!("PERFBENCH_RUSTC_VERSION").to_string(),
            profile: env!("PERFBENCH_PROFILE").to_string(),
            commit,
        }
    }

    /// The block as JSON.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("nproc", Json::from(self.nproc)),
            ("cpu", Json::from(self.cpu.as_str())),
            ("rustc", Json::from(self.rustc.as_str())),
            ("profile", Json::from(self.profile.as_str())),
            ("commit", Json::from(self.commit.as_str())),
        ])
    }
}

/// `Err` naming the first identity field on which two host blocks
/// differ (or are missing); results from different hosts must not be
/// compared.
pub fn same_host(a: &Json, b: &Json) -> Result<(), String> {
    for field in IDENTITY {
        let (x, y) = (a.get(field), b.get(field));
        if x.is_none() || x != y {
            return Err(format!(
                "host field `{field}` differs: {} vs {}",
                x.map_or("missing".to_string(), Json::render),
                y.map_or("missing".to_string(), Json::render)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hosts_differing_in_cpu_count_are_refused_and_commits_may_differ() {
        let a = Host::current();
        let mut b = a.clone();
        b.commit = "another".to_string();
        assert!(same_host(&a.to_json(), &b.to_json()).is_ok());
        b.nproc += 1;
        let err = same_host(&a.to_json(), &b.to_json()).unwrap_err();
        assert!(err.contains("nproc"), "{err}");
    }
}
