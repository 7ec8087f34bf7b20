//! Minimal argument parsing shared by the figure binaries.
//!
//! Flags:
//! * `--max-procs N`      — largest process count of the sweep (default 8192);
//! * `--bytes-per-proc N` — micro/VPIC bytes per process (default 256 MiB;
//!   accepts suffixes K/M/G);
//! * `--compute-gap S`    — seconds of emulated computation between VPIC
//!   checkpoints (default 60, the paper's sleep);
//! * `--threads N`        — OS threads driving ranks concurrently
//!   (default 1, the deterministic rank loop; figure benches stay at 1 so
//!   their CSVs are reproducible);
//! * `--quick`            — shorthand for `--max-procs 512
//!   --bytes-per-proc 16M` (fast smoke runs).

use crate::figures::VpicScale;

/// Parsed harness options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Largest process count.
    pub max_procs: usize,
    /// Bytes per process for micro phases.
    pub bytes_per_proc: u64,
    /// VPIC compute gap in seconds.
    pub compute_gap: f64,
    /// OS threads driving ranks concurrently (1 = rank loop).
    pub threads: usize,
    /// Directory to also write per-figure CSV files into.
    pub csv_dir: Option<std::path::PathBuf>,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            max_procs: 8192,
            bytes_per_proc: 256 << 20,
            compute_gap: 60.0,
            threads: 1,
            csv_dir: None,
        }
    }
}

impl Options {
    /// Parse from an argument iterator (skip the program name first).
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => {
                    opts.max_procs = 512;
                    opts.bytes_per_proc = 16 << 20;
                }
                "--max-procs" => {
                    let v = args.next().ok_or("--max-procs needs a value")?;
                    opts.max_procs = v.parse().map_err(|e| format!("--max-procs: {e}"))?;
                }
                "--bytes-per-proc" => {
                    let v = args.next().ok_or("--bytes-per-proc needs a value")?;
                    opts.bytes_per_proc = parse_bytes(&v)?;
                }
                "--compute-gap" => {
                    let v = args.next().ok_or("--compute-gap needs a value")?;
                    opts.compute_gap = v.parse().map_err(|e| format!("--compute-gap: {e}"))?;
                }
                "--threads" => {
                    let v = args.next().ok_or("--threads needs a value")?;
                    opts.threads = v.parse().map_err(|e| format!("--threads: {e}"))?;
                    if opts.threads == 0 {
                        return Err("--threads must be at least 1".into());
                    }
                }
                "--csv-dir" => {
                    let v = args.next().ok_or("--csv-dir needs a value")?;
                    opts.csv_dir = Some(std::path::PathBuf::from(v));
                }
                "--help" | "-h" => {
                    return Err("usage: [--quick] [--max-procs N] [--bytes-per-proc N[K|M|G]] [--compute-gap SECONDS] [--threads N] [--csv-dir DIR]".into());
                }
                other => return Err(format!("unknown flag '{other}'")),
            }
        }
        Ok(opts)
    }

    /// Parse from `std::env::args()`.
    pub fn from_env() -> Options {
        match Options::parse(std::env::args().skip(1)) {
            Ok(o) => o,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// The VPIC scaling implied by these options (bytes per proc → particle
    /// count at 8 variables × 4 bytes).
    pub fn vpic_scale(&self) -> VpicScale {
        VpicScale {
            particles_per_proc: (self.bytes_per_proc / 32).max(1),
            compute_gap: self.compute_gap,
        }
    }
}

/// Parse "64", "16M", "1G", "512K" into bytes.
pub fn parse_bytes(s: &str) -> Result<u64, String> {
    let s = s.trim();
    let (num, mult) = match s.chars().last() {
        Some('K') | Some('k') => (&s[..s.len() - 1], 1u64 << 10),
        Some('M') | Some('m') => (&s[..s.len() - 1], 1u64 << 20),
        Some('G') | Some('g') => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>()
        .map(|n| n * mult)
        .map_err(|e| format!("bad byte count '{s}': {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        Options::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.max_procs, 8192);
        assert_eq!(o.bytes_per_proc, 256 << 20);
    }

    #[test]
    fn quick_mode() {
        let o = parse(&["--quick"]).unwrap();
        assert_eq!(o.max_procs, 512);
        assert_eq!(o.bytes_per_proc, 16 << 20);
    }

    #[test]
    fn explicit_flags() {
        let o = parse(&[
            "--max-procs",
            "1024",
            "--bytes-per-proc",
            "8M",
            "--compute-gap",
            "5",
        ])
        .unwrap();
        assert_eq!(o.max_procs, 1024);
        assert_eq!(o.bytes_per_proc, 8 << 20);
        assert_eq!(o.compute_gap, 5.0);
    }

    #[test]
    fn byte_suffixes() {
        assert_eq!(parse_bytes("7").unwrap(), 7);
        assert_eq!(parse_bytes("2K").unwrap(), 2048);
        assert_eq!(parse_bytes("3m").unwrap(), 3 << 20);
        assert_eq!(parse_bytes("1G").unwrap(), 1 << 30);
        assert!(parse_bytes("x").is_err());
    }

    #[test]
    fn csv_dir_flag() {
        let o = parse(&["--csv-dir", "/tmp/figs"]).unwrap();
        assert_eq!(
            o.csv_dir.as_deref(),
            Some(std::path::Path::new("/tmp/figs"))
        );
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&["--bogus"]).is_err());
    }

    #[test]
    fn threads_flag() {
        assert_eq!(parse(&[]).unwrap().threads, 1);
        assert_eq!(parse(&["--threads", "8"]).unwrap().threads, 8);
        assert!(parse(&["--threads", "0"]).is_err());
        assert!(parse(&["--threads"]).is_err());
    }

    #[test]
    fn vpic_scale_derivation() {
        let o = parse(&["--bytes-per-proc", "256M"]).unwrap();
        assert_eq!(o.vpic_scale().particles_per_proc, 8 << 20);
    }
}
