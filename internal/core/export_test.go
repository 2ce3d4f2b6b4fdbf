package core

// Pin kinds PinKinds reports.
const (
	KindStored  = 's'
	KindDerived = 'd'
	KindDead    = 'x'
)

// PinKinds reports, per pin, whether e stores its row, keeps none because the
// pin is derived (derivedPin) or keeps none because it is dead (livePin), for
// tests outside the package that drive e through its callers.
func PinKinds(e *Engine) []byte {
	out := make([]byte, len(e.rows))
	for p, r := range e.rows {
		switch {
		case r.dead:
			out[p] = KindDead
		case r.derived:
			out[p] = KindDerived
		default:
			out[p] = KindStored
		}
	}
	return out
}
