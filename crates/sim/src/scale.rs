/// How big an experiment run should be.
///
/// The same experiment code serves paper-scale runs (`full`), interactive
/// exploration (`medium`), and CI smoke tests (`quick`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct Scale {
    /// Dynamic instructions per trace.
    pub trace_len: usize,
    /// Workloads per suite (distinct seeds).
    pub workloads_per_suite: usize,
}

impl Scale {
    /// Paper-scale: 4 workloads per suite, 2M instructions each.
    pub fn full() -> Scale {
        Scale {
            trace_len: 2_000_000,
            workloads_per_suite: 4,
        }
    }

    /// Interactive: 2 workloads per suite, 500K instructions.
    pub fn medium() -> Scale {
        Scale {
            trace_len: 500_000,
            workloads_per_suite: 2,
        }
    }

    /// Smoke-test: 1 workload per suite, 60K instructions.
    pub fn quick() -> Scale {
        Scale {
            trace_len: 60_000,
            workloads_per_suite: 1,
        }
    }

    /// The scale a `--quick` / `--medium` / `--full` flag names.
    pub fn from_flag(flag: &str) -> Option<Scale> {
        match flag {
            "--quick" => Some(Scale::quick()),
            "--medium" => Some(Scale::medium()),
            "--full" => Some(Scale::full()),
            _ => None,
        }
    }

    /// Parses `--quick` / `--medium` / `--full` style argv, defaulting to
    /// full (benchmark binaries use this). The first scale flag wins, as
    /// before, but every argument is still inspected: an unrecognized
    /// `--*` flag is an error rather than a silent fall-through to the
    /// 2M-instruction full-scale default. Non-flag (positional) arguments
    /// are ignored; callers with their own flag vocabulary must strip it
    /// before delegating here.
    ///
    /// # Errors
    ///
    /// Returns [`ScaleArgError`] naming the offending flag and listing the
    /// accepted ones.
    pub fn from_args<I: IntoIterator<Item = String>>(args: I) -> Result<Scale, ScaleArgError> {
        let mut chosen: Option<Scale> = None;
        for arg in args {
            match Scale::from_flag(&arg) {
                Some(scale) => chosen = chosen.or(Some(scale)),
                None if arg.starts_with("--") => return Err(ScaleArgError { flag: arg }),
                None => {}
            }
        }
        Ok(chosen.unwrap_or_else(Scale::full))
    }
}

/// An unrecognized `--*` flag passed to [`Scale::from_args`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScaleArgError {
    /// The flag as given on the command line.
    pub flag: String,
}

impl std::fmt::Display for ScaleArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unrecognized flag {:?} (accepted scale flags: --quick, --medium, --full)",
            self.flag
        )
    }
}

impl std::error::Error for ScaleArgError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_of_scales() {
        assert!(Scale::quick().trace_len < Scale::medium().trace_len);
        assert!(Scale::medium().trace_len < Scale::full().trace_len);
    }

    #[test]
    fn from_args_parses() {
        let q = Scale::from_args(["--quick".to_string()]);
        assert_eq!(q, Ok(Scale::quick()));
        let f = Scale::from_args(["whatever".to_string()]);
        assert_eq!(f, Ok(Scale::full()));
        let m = Scale::from_args(["x".to_string(), "--medium".to_string()]);
        assert_eq!(m, Ok(Scale::medium()));
        // First scale flag wins, as in the pre-Result parser.
        let first = Scale::from_args(["--quick".to_string(), "--full".to_string()]);
        assert_eq!(first, Ok(Scale::quick()));
    }

    #[test]
    fn from_args_rejects_unknown_flags() {
        // The motivating typo: `--qiuck` must not silently run full-scale.
        let err = Scale::from_args(["--qiuck".to_string()]).unwrap_err();
        assert_eq!(err.flag, "--qiuck");
        let msg = err.to_string();
        assert!(msg.contains("--qiuck"), "{msg}");
        for accepted in ["--quick", "--medium", "--full"] {
            assert!(msg.contains(accepted), "{msg} should list {accepted}");
        }
        // A valid flag does not excuse a bogus one elsewhere in argv.
        let err = Scale::from_args(["--quick".to_string(), "--bogus".to_string()]).unwrap_err();
        assert_eq!(err.flag, "--bogus");
    }
}
