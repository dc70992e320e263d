//! Quick/full experiment scaling.

use std::sync::OnceLock;
use tlb_engine::env_knob::parse_with;

/// How big to run the experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Default: smaller host counts / shorter traffic windows that preserve
    /// each figure's shape. Minutes for the whole suite.
    Quick,
    /// The paper's parameters (256 hosts, longer traces). Slower.
    Full,
}

impl Scale {
    /// `TLB_SCALE` from the environment, read once: `quick` or `full`, any
    /// case. Anything else warns on stderr and runs quick.
    pub fn from_env() -> Scale {
        static SCALE: OnceLock<Scale> = OnceLock::new();
        *SCALE.get_or_init(|| parse_with("TLB_SCALE", Scale::Quick, parse_scale))
    }

    /// Pick between the quick and full value of a parameter.
    pub fn pick<T>(self, quick: T, full: T) -> T {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

fn parse_scale(s: &str) -> Result<Scale, String> {
    match s {
        "quick" => Ok(Scale::Quick),
        "full" => Ok(Scale::Full),
        _ => Err("want quick or full".into()),
    }
}

fn parse_seed(s: &str) -> Result<u64, String> {
    s.parse()
        .map_err(|_| "want an unsigned 64-bit integer".into())
}

/// The base RNG seed: `TLB_SEED` from the environment, read once. A value
/// that is not a `u64` warns on stderr and runs the default seed.
pub fn base_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    // The default is the paper's conference dates.
    *SEED.get_or_init(|| parse_with("TLB_SEED", 20190805, parse_seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grammars_accept_only_what_they_name() {
        // `parse_with` hands over trimmed, lower-cased text.
        assert_eq!(parse_scale("full"), Ok(Scale::Full));
        assert_eq!(parse_scale("quick"), Ok(Scale::Quick));
        assert!(parse_scale("ful").is_err());
        assert_eq!(parse_seed("20190901"), Ok(20190901));
        assert!(parse_seed("abc").is_err());
        assert!(parse_seed("-1").is_err());
    }

    #[test]
    fn pick_selects_by_scale() {
        assert_eq!(Scale::Quick.pick(1, 2), 1);
        assert_eq!(Scale::Full.pick(1, 2), 2);
    }
}
