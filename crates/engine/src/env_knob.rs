//! The parser behind every `TLB_*` variable the workspace reads:
//! `TLB_THREADS` (the sweep thread pool, `vendor/rayon`) and the figure
//! harness's `TLB_SCALE` / `TLB_SEED` (`tlb-bench`).
//!
//! It owns the mechanics: normalization (trim + ASCII-lowercase), the
//! empty-value → default rule, and the warning for a value the knob's
//! grammar rejects:
//!
//! ```text
//! warning: ignoring invalid TLB_THREADS="many" (want a positive integer)
//! ```
//!
//! The helper lives in `tlb-engine` (the workspace's root crate, no
//! dependencies) so the rayon stand-in can reach it; `tlb_engine::env_knob`
//! is its one import path.

/// Read env var `var` through `parse`, which receives the trimmed,
/// ASCII-lowercased value (never empty) and returns either the parsed
/// value or the `want …` expectation clause. Unset or empty values yield
/// `default` silently; a rejected value warns on stderr and yields
/// `default`.
pub fn parse_with<T>(var: &str, default: T, parse: impl FnOnce(&str) -> Result<T, String>) -> T {
    match std::env::var(var) {
        Ok(raw) => {
            let norm = raw.trim().to_ascii_lowercase();
            if norm.is_empty() {
                return default;
            }
            match parse(&norm) {
                Ok(v) => v,
                Err(expect) => {
                    eprintln!("warning: ignoring invalid {var}={norm:?} ({expect})");
                    default
                }
            }
        }
        Err(_) => default,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_with_reads_env_through_custom_grammar() {
        let var = "TLB_ENV_KNOB_PARSE_UNIT_TEST";
        let parse = |s: &str| {
            s.parse::<u32>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| "want a positive integer".to_string())
        };
        std::env::set_var(var, " 12 ");
        assert_eq!(parse_with(var, 7, parse), 12);
        std::env::set_var(var, "0");
        assert_eq!(
            parse_with(var, 7, parse),
            7,
            "rejected value must fall back"
        );
        std::env::set_var(var, "twelve");
        assert_eq!(parse_with(var, 7, parse), 7);
        std::env::set_var(var, "");
        assert_eq!(parse_with(var, 7, parse), 7, "empty value must fall back");
        std::env::remove_var(var);
        assert_eq!(parse_with(var, 7, parse), 7);
    }
}
