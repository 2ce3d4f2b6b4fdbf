package core

// DerivedPins reports, per pin, whether e keeps no row for it (derivedPin),
// for tests outside the package that drive e through its callers.
func DerivedPins(e *Engine) []bool {
	out := make([]bool, len(e.rows))
	for p, r := range e.rows {
		out[p] = r.derived
	}
	return out
}
