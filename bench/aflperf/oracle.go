package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"

	"github.com/asyncfl/asyncfilter/internal/core"
	"github.com/asyncfl/asyncfilter/internal/fl"
)

// The verdict oracle replays a fixed, seeded sequence of batches through
// a fresh core.AsyncFilter and hashes every decision and every score bit
// pattern. The hash is compared with bench/golden/verdicts_<workload>.sha256:
// "the filter's verdicts stay bit-identical across every refactor" as a
// check that runs in milliseconds, without the load test.

const (
	oracleSeed   = 1
	oracleRounds = 8
	goldenDir    = "bench/golden"
)

// Replay staleness levels. The gaps double so that no level is ever
// equidistant from two others: AsyncFilter scores a group without history
// against its nearest neighbour, found by ranging over a map, and an
// exact tie would make the verdicts depend on map order.
var (
	cleanStaleness   = []int{1, 2, 4}
	hostileStaleness = []int{1, 2, 4, 8, 16}
)

// replayBatch builds the batch of the given 1-based round the way the
// client-facing filter sees one: goal updates from clients in rotation,
// each with its role's delta and a per-client staleness level.
func replayBatch(w *workload, in *fleetInputs, round int) []*fl.Update {
	batch := make([]*fl.Update, w.Goal)
	for k := range batch {
		seq := (round-1)*w.Goal + k
		id := seq % numClients
		staleness := cleanStaleness[id%len(cleanStaleness)]
		if w.Hostile {
			staleness = hostileStaleness[in.lag[id]%len(hostileStaleness)]
		}
		batch[k] = &fl.Update{
			ClientID:    id,
			BaseVersion: max(round-staleness, 0),
			Staleness:   staleness,
			Delta:       in.deltas[id][(seq/numClients)%len(in.deltas[id])],
			NumSamples:  1,
		}
	}
	return batch
}

// verdictHash runs the oracle sequence for w and returns the hex SHA-256
// of its decisions and scores.
func verdictHash(w *workload) (string, error) {
	in := w.generate(oracleSeed)
	f, err := core.New(core.DefaultConfig())
	if err != nil {
		return "", err
	}
	h := sha256.New()
	var b [8]byte
	for round := 1; round <= oracleRounds; round++ {
		res, err := f.Filter(replayBatch(w, in, round), round)
		if err != nil {
			return "", fmt.Errorf("oracle round %d: %w", round, err)
		}
		for i, d := range res.Decisions {
			binary.LittleEndian.PutUint64(b[:], uint64(d))
			h.Write(b[:])
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(res.Scores[i]))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func goldenPath(dir string, w *workload) string {
	return filepath.Join(dir, "verdicts_"+w.Name+".sha256")
}

// checkOracle compares the workload's verdict hash with its golden file
// in dir.
func checkOracle(w *workload, dir string) error {
	got, err := verdictHash(w)
	if err != nil {
		return err
	}
	raw, err := os.ReadFile(goldenPath(dir, w))
	if err != nil {
		return err
	}
	want := strings.Fields(string(raw))
	if len(want) == 0 || want[0] != got {
		return fmt.Errorf("filter verdicts changed on %s: hash %s, golden %s", w.Name, got, strings.TrimSpace(string(raw)))
	}
	return nil
}
