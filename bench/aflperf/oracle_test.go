package main

import (
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite bench/golden/verdicts_*.sha256 from the current filter")

// TestVerdictOracle is the "verdicts stay bit-identical" check: any
// change to a decision or to one bit of a score on the fixed seeded round
// sequence changes the hash. Bless an intended change with -update and
// say why in the PR.
func TestVerdictOracle(t *testing.T) {
	const dir = "../golden"
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			if *update {
				hash, err := verdictHash(w)
				if err != nil {
					t.Fatal(err)
				}
				line := hash + "  verdicts_" + w.Name + "\n"
				if err := os.WriteFile(goldenPath(dir, w), []byte(line), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			if err := checkOracle(w, dir); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVerdictHashRepeats guards the oracle itself: the same inputs must
// hash the same twice in one process (map iteration order inside the
// filter must not reach the verdicts).
func TestVerdictHashRepeats(t *testing.T) {
	w, err := workloadByName("hostile_d256")
	if err != nil {
		t.Fatal(err)
	}
	first, err := verdictHash(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		again, err := verdictHash(w)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("verdict hash changed between identical replays: %s then %s", first, again)
		}
	}
}
