// Fixture for the rawrand analyzer: raw math/rand, crypto/rand and
// wall-clock seeding are flagged; using *rand.Rand values handed out by a
// seeded constructor is not.
package a

import (
	crand "crypto/rand"
	"math/rand"
	"time"
)

// global source draws are process-global nondeterminism.
func globalDraws() int {
	rand.Seed(42)       // want `use of math/rand.Seed`
	x := rand.Intn(10)  // want `use of math/rand.Intn`
	y := rand.Float64() // want `use of math/rand.Float64`
	_ = y
	return x
}

// private sources must come from randx, not ad-hoc construction.
func privateSource(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want `use of math/rand.New` `use of math/rand.NewSource`
}

// cryptoDraws can never replay.
func cryptoDraws(buf []byte) {
	_, _ = crand.Read(buf) // want `use of crypto/rand.Read`
	_ = crand.Reader       // want `use of crypto/rand.Reader`
}

// wallClockSeed defeats reproducibility even when the constructor itself
// is legal.
func wallClockSeed(r *rand.Rand) {
	r.Seed(time.Now().UnixNano()) // want `wall-clock seed passed to Seed`
}

// ok: naming the type and drawing from a supplied generator is the
// sanctioned pattern.
func ok(r *rand.Rand) float64 {
	var s rand.Source
	_ = s
	return r.Float64() + float64(r.Intn(3))
}

// okSeeded derives a child seed from a parent generator, not the clock.
func okSeeded(r *rand.Rand, newGen func(int64) *rand.Rand) *rand.Rand {
	return newGen(r.Int63())
}

// suppressed: a justified exception is honored.
func suppressed() int {
	//lint:ignore rawrand fixture exercises the suppression mechanism
	return rand.Intn(7)
}

// unjustified: an ignore without a reason suppresses nothing, and is
// itself a diagnostic.
func unjustified() int {
	//lint:ignore rawrand // want `missing its mandatory reason`
	return rand.Intn(7) // want `use of math/rand.Intn`
}
