package fl

import (
	"math"
	"sync"
	"sync/atomic"
)

// Arena pools fixed-dimension update vectors and Update structs for the
// serving hot path. The transport layer decodes every incoming delta into
// an arena vector, hands the resulting Update to Buffer.Add (transferring
// ownership — see Buffer.Add), and recycles it after round commit, so the
// steady-state ingest path performs no per-update allocations.
//
// Ownership contract: a vector obtained from GetVec (or an Update from
// GetUpdate) is owned by exactly one holder at a time. PutVec/PutUpdate
// end that ownership; touching the memory afterwards is a bug, as is
// returning the same vector twice. Recycling is best-effort — an update
// that leaves the arena's sight (dropped by Buffer.Requeue, retained by
// a round-commit callback) is simply collected by the GC.
//
// All methods are safe for concurrent use.
type Arena struct {
	dim int

	vecs    sync.Pool // of *[]float64
	updates sync.Pool // of *Update

	vecGets  atomic.Int64
	vecPuts  atomic.Int64
	vecNews  atomic.Int64
	vecDrops atomic.Int64
	updGets  atomic.Int64
	updPuts  atomic.Int64
	updNews  atomic.Int64

	// Debug state (see EnableDebug). When enabled the sync.Pool for
	// vectors is replaced by an explicit free list under mu so that
	// double-put and use-after-return detection are deterministic.
	debug       bool
	mu          sync.Mutex
	free        []*[]float64
	returned    map[*float64]bool
	onViolation func(kind string)
}

// ArenaStats is a snapshot of an arena's counters. In a quiescent state
// (every borrowed vector returned) VecGets == VecPuts + leaked, where
// leaked counts vectors deliberately released to the GC.
type ArenaStats struct {
	// VecGets / VecPuts count GetVec and accepted PutVec calls.
	VecGets, VecPuts int64
	// VecNews counts GetVec calls that had to allocate a fresh vector.
	VecNews int64
	// VecDrops counts PutVec calls rejected for a dimension mismatch.
	VecDrops int64
	// UpdateGets / UpdatePuts / UpdateNews mirror the above for Updates.
	UpdateGets, UpdatePuts, UpdateNews int64
}

// poisonBits is the quiet-NaN payload written over every element of a
// returned vector in debug mode. Comparing bit patterns (not float values)
// sidesteps NaN != NaN.
const poisonBits uint64 = 0x7ff8deadbeeff001

// NewArena returns an arena pooling vectors of exactly dim elements.
func NewArena(dim int) *Arena {
	if dim < 1 {
		panic("fl: NewArena: dim must be >= 1")
	}
	return &Arena{dim: dim}
}

// Dim reports the fixed vector dimension served by the arena.
func (a *Arena) Dim() int { return a.dim }

// EnableDebug is a test hook: it switches the vector pool to a
// deterministic free list that poisons returned vectors, detects
// double-put and use-after-return, and reports each violation kind
// ("double-put", "use-after-return") to onViolation. Call before any
// Get/Put traffic; not for production use.
func (a *Arena) EnableDebug(onViolation func(kind string)) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.debug = true
	a.returned = make(map[*float64]bool)
	a.onViolation = onViolation
}

// GetVec returns a vector of length Dim with undefined contents. The
// caller owns it until PutVec.
func (a *Arena) GetVec() []float64 {
	a.vecGets.Add(1)
	if a.debug {
		return a.debugGetVec()
	}
	if p, ok := a.vecs.Get().(*[]float64); ok {
		return (*p)[:a.dim]
	}
	a.vecNews.Add(1)
	return make([]float64, a.dim)
}

// PutVec returns v to the pool, ending the caller's ownership. Vectors
// whose capacity does not match the arena dimension (e.g. decoded by a
// foreign codec with extra capacity) are silently dropped to the GC.
//
//afl:owned
func (a *Arena) PutVec(v []float64) {
	if cap(v) != a.dim {
		a.vecDrops.Add(1)
		return
	}
	v = v[:a.dim]
	if a.debug {
		a.debugPutVec(v)
		return
	}
	a.vecPuts.Add(1)
	a.vecs.Put(&v)
}

// GetUpdate returns a zeroed Update with a nil Delta; pair it with a
// GetVec vector (or any owned vector) before buffering. The caller owns
// the struct until PutUpdate.
func (a *Arena) GetUpdate() *Update {
	a.updGets.Add(1)
	if u, ok := a.updates.Get().(*Update); ok {
		return u
	}
	a.updNews.Add(1)
	return new(Update)
}

// PutUpdate recycles u and its Delta (via PutVec), ending the caller's
// ownership of both.
//
//afl:owned
func (a *Arena) PutUpdate(u *Update) {
	if u == nil {
		return
	}
	if u.Delta != nil {
		a.PutVec(u.Delta)
	}
	*u = Update{}
	a.updPuts.Add(1)
	a.updates.Put(u)
}

// Stats snapshots the arena counters.
func (a *Arena) Stats() ArenaStats {
	return ArenaStats{
		VecGets:    a.vecGets.Load(),
		VecPuts:    a.vecPuts.Load(),
		VecNews:    a.vecNews.Load(),
		VecDrops:   a.vecDrops.Load(),
		UpdateGets: a.updGets.Load(),
		UpdatePuts: a.updPuts.Load(),
		UpdateNews: a.updNews.Load(),
	}
}

func (a *Arena) debugGetVec() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := len(a.free)
	if n == 0 {
		a.vecNews.Add(1)
		return make([]float64, a.dim)
	}
	p := a.free[n-1]
	a.free = a.free[:n-1]
	v := (*p)[:a.dim]
	delete(a.returned, &v[0])
	for i := range v {
		if math.Float64bits(v[i]) != poisonBits {
			a.violationLocked("use-after-return")
			break
		}
	}
	for i := range v {
		v[i] = 0
	}
	return v
}

//afl:owned
func (a *Arena) debugPutVec(v []float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.returned[&v[0]] {
		a.violationLocked("double-put")
		return
	}
	for i := range v {
		v[i] = math.Float64frombits(poisonBits)
	}
	a.returned[&v[0]] = true
	a.vecPuts.Add(1)
	a.free = append(a.free, &v)
}

func (a *Arena) violationLocked(kind string) {
	if a.onViolation != nil {
		a.onViolation(kind)
	}
}
