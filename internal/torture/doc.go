// Package torture holds the adversarial-input and resource-governance
// test matrix: deterministic generators for pathological rule sets
// (deep nesting, long precedence chains, memo-busting overlap) and the
// TestTorture_* suites that drive them against the engine under gas,
// wall-clock and capacity budgets. Everything is seeded and
// reproducible; the suite is CI tier and race-clean.
package torture
