// Package fence holds the fencing epoch of a replicated root: the
// generation number that decides which primary is live. Epochs only move
// forward, so a primary that comes back after a partition can never serve
// under an older one.
//
// Epoch lives in its own package because an unexported field is writable
// from anywhere in the package that declares it; here, nothing but Raise
// can write it. The one move left to other packages is reassigning the
// whole value (x = fence.Epoch{}), and integers read through Load are
// plain integers that nothing polices.
package fence

// Epoch is a raise-only fencing epoch. The zero value is epoch 0. It is
// not safe for concurrent use: its owner's mutex guards it.
type Epoch struct{ v uint64 }

// Load returns the current epoch.
func (e *Epoch) Load() uint64 { return e.v }

// Raise moves the epoch to next when next is above it, and reports
// whether it moved. A lower or equal next changes nothing.
func (e *Epoch) Raise(next uint64) (moved bool) {
	if next <= e.v {
		return false
	}
	e.v = next
	return true
}

// Stale reports whether seen is below the current epoch.
func (e *Epoch) Stale(seen uint64) bool { return seen < e.v }
