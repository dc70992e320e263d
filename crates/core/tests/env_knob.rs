//! The `TLB_THREADS`-style knob parser, exercised through the `tlb-core`
//! re-export.

use tlb_core::env_knob;

/// One test body for every environment interaction: the process environment
/// is global, so the set/invalid/unset sequences must not run concurrently
/// on the same variable.
#[test]
fn invalid_values_fall_back_to_the_default() {
    let var = "TLB_CORE_ENV_KNOB_TEST";
    let parse = |s: &str| {
        s.parse::<u32>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or_else(|| "want a positive integer".to_string())
    };
    std::env::set_var(var, " 3 ");
    assert_eq!(env_knob::parse_with(var, 1u32, parse), 3);
    for bad in ["0", "-2", "many"] {
        std::env::set_var(var, bad);
        assert_eq!(
            env_knob::parse_with(var, 1u32, parse),
            1,
            "{bad:?} must fall back"
        );
    }
    std::env::remove_var(var);
    assert_eq!(env_knob::parse_with(var, 1u32, parse), 1);
}
