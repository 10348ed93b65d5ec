package solver

// DeltaChecks reports how many §3.2 tests checkDelta has held against
// the reference, so tests outside the package can require theirs to be
// non-vacuous.
func DeltaChecks() int64 { return deltaChecks.Load() }

// SetChecks switches the solver tests' self-checks (checkGraphCache's
// rebuilds and checkDelta's renamed copies) on or off; benchmarks time
// the solver without them.
func SetChecks(on bool) {
	checkGraphCache = on
	deltaCheck = nil
	if on {
		deltaCheck = checkDelta
	}
}
