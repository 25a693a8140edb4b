package transport

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
)

// The float64 slab codec (appendF64s, binCursor.f64sInto) carries every
// update, task, edge batch and replication record. It is unrolled for
// speed, so it is held here to a byte-at-a-time reference: the same bytes
// out, the same bit patterns back, and the same refusal of a short or
// misaligned payload.

// slabBits are bit patterns a float conversion could disturb: quiet and
// signalling NaNs with payloads, both infinities, -0, subnormals, 1e308.
var slabBits = []uint64{
	0x7ff8000000000000, 0x7ff0000000000001, 0xfff8dead0000beef, 0x7ff4000000000000,
	0x7ff0000000000000, 0xfff0000000000000, 0x8000000000000000, 0,
	1, 0x000fffffffffffff, 0x7fe1ccf385ebc8a0, 0xffe1ccf385ebc8a0,
}

func randomSlab(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if r.Intn(4) == 0 {
			v[i] = math.Float64frombits(slabBits[r.Intn(len(slabBits))])
		} else {
			v[i] = math.Float64frombits(r.Uint64())
		}
	}
	return v
}

// refEncode is the slab format spelled out: each float's IEEE 754 bits,
// least significant byte first.
func refEncode(b []byte, v []float64) []byte {
	for _, x := range v {
		bits := math.Float64bits(x)
		for j := 0; j < 8; j++ {
			b = append(b, byte(bits>>(8*j)))
		}
	}
	return b
}

func refDecode(p []byte) []uint64 {
	out := make([]uint64, len(p)/8)
	for i := range out {
		for j := 0; j < 8; j++ {
			out[i] |= uint64(p[8*i+j]) << (8 * j)
		}
	}
	return out
}

var slabLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 61706}

func TestAppendF64sMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range slabLens {
		for _, prefix := range []int{0, 1, 3, 13} {
			for _, spare := range []int{0, 5, 8*n + 64} {
				v := randomSlab(r, n)
				b := make([]byte, prefix, prefix+spare)
				r.Read(b)
				want := refEncode(append([]byte(nil), b...), v)
				got := appendF64s(b, v)
				if !bytes.Equal(got, want) {
					t.Fatalf("n=%d prefix=%d spare=%d: encoding differs from the reference", n, prefix, spare)
				}
			}
		}
	}
}

func TestF64sIntoMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for _, n := range slabLens {
		for _, prefix := range []int{0, 1, 3, 8, 13} {
			payload := make([]byte, prefix)
			r.Read(payload)
			payload = refEncode(payload, randomSlab(r, n))
			cur := binCursor{b: payload, off: prefix}
			dst := make([]float64, n)
			cur.f64sInto(dst)
			if cur.bad || cur.off != len(payload) {
				t.Fatalf("n=%d prefix=%d: bad=%v off=%d, want a clean read to %d", n, prefix, cur.bad, cur.off, len(payload))
			}
			for i, want := range refDecode(payload[prefix:]) {
				if got := math.Float64bits(dst[i]); got != want {
					t.Fatalf("n=%d prefix=%d: dst[%d] bits %#x, want %#x", n, prefix, i, got, want)
				}
			}
		}
	}
}

// A payload a few bytes short of the slab (short, or cut mid-float) marks
// the cursor bad and leaves dst as it was; so does a cursor already bad.
func TestF64sIntoRefusesShortPayload(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 4, 5, 9, 61706} {
		full := refEncode([]byte{0xaa, 0xbb, 0xcc}, randomSlab(r, n))
		for _, cut := range []int{1, 7, 8, 9} {
			if cut > len(full)-3 {
				continue
			}
			cur := binCursor{b: full[:len(full)-cut], off: 3}
			dst := make([]float64, n)
			for i := range dst {
				dst[i] = -42
			}
			cur.f64sInto(dst)
			if !cur.bad {
				t.Fatalf("n=%d cut=%d: cursor not marked bad", n, cut)
			}
			for i, x := range dst {
				if math.Float64bits(x) != math.Float64bits(-42) {
					t.Fatalf("n=%d cut=%d: dst[%d] written (%v) from a short payload", n, cut, i, x)
				}
			}
			if err := cur.done(frameUpdate); err == nil {
				t.Fatalf("n=%d cut=%d: done accepted a short payload", n, cut)
			}
		}
		cur := binCursor{b: full, off: 3, bad: true}
		dst := make([]float64, n)
		cur.f64sInto(dst)
		for i, x := range dst {
			if math.Float64bits(x) != 0 {
				t.Fatalf("n=%d: an already-bad cursor wrote dst[%d]", n, i)
			}
		}
	}
}
