package core

// rowsInUse returns how many shadow rows the overlay has handed out and not
// recycled. Between Propagates that is one per shadowed pin; more is a leak.
func (o *Overlay) rowsInUse() int { return int(o.nRows) - len(o.freeRows) }
