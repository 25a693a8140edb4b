package fence

import "testing"

func TestEpoch(t *testing.T) {
	var zero Epoch
	if got := zero.Load(); got != 0 {
		t.Fatalf("zero value loads %d, want 0", got)
	}
	if zero.Stale(0) {
		t.Fatal("zero value calls epoch 0 stale")
	}
	// Every case starts from an epoch at 5.
	for _, tc := range []struct {
		name      string
		raise     uint64
		wantMoved bool
		wantLoad  uint64
	}{
		{"above moves", 7, true, 7},
		{"one above moves", 6, true, 6},
		{"equal refused", 5, false, 5},
		{"lower refused", 2, false, 5},
		{"zero refused", 0, false, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var e Epoch
			if !e.Raise(5) {
				t.Fatal("Raise(5) on the zero value did not move")
			}
			if moved := e.Raise(tc.raise); moved != tc.wantMoved {
				t.Errorf("Raise(%d) = %v, want %v", tc.raise, moved, tc.wantMoved)
			}
			if got := e.Load(); got != tc.wantLoad {
				t.Errorf("after Raise(%d): Load() = %d, want %d", tc.raise, got, tc.wantLoad)
			}
			cur := e.Load()
			for _, seen := range []uint64{0, cur - 1, cur, cur + 1} {
				if got, want := e.Stale(seen), seen < cur; got != want {
					t.Errorf("at %d: Stale(%d) = %v, want %v", cur, seen, got, want)
				}
			}
		})
	}
}
