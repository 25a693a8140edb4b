package main

import (
	"fmt"
	"time"

	"github.com/asyncfl/asyncfilter/internal/randx"
	"github.com/asyncfl/asyncfilter/internal/transport"
)

// workload is one named traffic mix against one deployment shape. The
// table below is frozen: names, shapes and paced rates are part of the
// benchmark's definition, and a rate is never derived at run time (a
// rate that follows the measured saturation would hide a regression
// behind a lighter load).
type workload struct {
	Name string
	// Why records what the workload stresses that the others do not.
	Why string
	// Dim is the model dimension; Goal the aggregation goal of the tier
	// clients talk to (Ω for a single server, Ω_edge for the tiered
	// shape).
	Dim, Goal int
	// Tiered selects two edges feeding a 3-node quorum-replicated root
	// instead of one transport.Server.
	Tiered bool
	// Hostile turns every layer onto its other path: attackers, gob
	// clients, lagging base versions, quarantine, obsv.
	Hostile bool
	// PacedRate is the open-loop arrival rate of the paced phase in
	// updates/s, frozen when the benchmark was defined: a round rate at
	// which the generator, sharing the two CPUs of the reference box with
	// the server, keeps its lateness p99 below about a third of the mean
	// inter-arrival gap on a quiet host (a window is void beyond one gap).
	// That is 13 to 18 % of the saturation rate at dim 61706 and 5 to 9 %
	// elsewhere; at the usual 40 % a gap at dim 256 would be 60 us.
	PacedRate float64
}

// Fleet and server constants shared by every workload.
const (
	numClients     = 64
	stalenessLimit = 20
	// deltaVariants is how many distinct deltas each client replays in
	// turn: enough that a client never sends the same vector twice in a
	// row, small enough that 64 × variants × dim float64s fit in memory
	// at dim 61706.
	deltaVariants = 2
	// Hostile-workload knobs.
	hostileMaxLag          = 8
	hostileFreshHonest     = 24
	hostileQuarantineAfter = 3
	hostileCooldown        = 500 * time.Millisecond
	// Tiered-workload knobs.
	numEdges     = 2
	numReplicas  = 3
	replicaLease = 2 * time.Second
)

var workloads = []workload{
	{
		Name: "single_d256", Dim: 256, Goal: 32, PacedRate: 3000,
		Why: "per-message fixed costs (syscalls, frame headers, s.mu, admission, buffer, arena, filter maps and k-means) do nearly all the work; byte-proportional kernels almost none",
	},
	{
		Name: "single_d61706", Dim: 61706, Goal: 32, PacedRate: 300,
		Why: "the inverse at LeNet-5 size: 494 KB slabs each way, distance/fold passes and combine dominate; fixed per-message cost is noise",
	},
	{
		Name: "quorum_d4096", Dim: 4096, Goal: 16, Tiered: true, PacedRate: 400,
		Why: "two edges into a 3-node quorum root: the only workload that runs edge-batch uplink, Root.applyBatch, DiffState, record shipping and standby apply",
	},
	{
		Name: "hostile_d256", Dim: 256, Goal: 32, Hostile: true, PacedRate: 2000,
		Why: "same server as single_d256 on every other path: rejected, deferred and requeued updates, colluder dedup, gob clients, 9 client lags, quarantine NACKs, obsv hub",
	},
}

func workloadByName(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// role is what a client identity sends.
type role uint8

const (
	roleHonest role = iota
	// roleGD sends its own honest delta sign-flipped and scaled by 5
	// (gradient deviation).
	roleGD
	// roleColluder sends the one LIE-style vector all colluders share,
	// which is what drives the filter's duplicate-delta dedup.
	roleColluder
)

func (r role) poisoned() bool { return r != roleHonest }

// roleOf assigns 48 honest, 8 gradient-deviation and 8 colluding
// identities on the hostile workload; everyone is honest elsewhere.
func (w *workload) roleOf(id int) role {
	if !w.Hostile {
		return roleHonest
	}
	switch id % 8 {
	case 6:
		return roleGD
	case 7:
		return roleColluder
	}
	return roleHonest
}

// codecOf makes half of every role speak gob on the hostile workload.
func (w *workload) codecOf(id int) transport.Codec {
	if w.Hostile && (id>>3)&1 == 1 {
		return transport.CodecGob
	}
	return transport.CodecBinary
}

// homes is how many client-facing servers the workload has; client id
// connects to address id mod homes.
func (w *workload) homes() int {
	if w.Tiered {
		return numEdges
	}
	return 1
}

// fleetInputs is everything the generator sends, made from the seed
// alone: the same seed gives the same bytes on the wire.
type fleetInputs struct {
	// deltas[id][variant] is a client's replayed update.
	deltas [][][]float64
	// lag[id] is how many versions the client's BaseVersion trails the
	// newest model it has seen (0 except on the hostile workload).
	lag []int
}

// Delta geometry: honest updates share a direction and differ by
// per-client noise of the same scale, the shape AsyncFilter's moving
// averages are built for.
const (
	honestMeanStd  = 0.1
	honestNoiseStd = 0.1
	gdScale        = -5
	lieShift       = 3
)

// generate builds the fleet's inputs for a seed.
func (w *workload) generate(seed int64) *fleetInputs {
	r := randx.New(seed)
	common := randx.NormalVector(r, w.Dim, 0, honestMeanStd)
	lie := make([]float64, w.Dim)
	for i, m := range common {
		lie[i] = m - lieShift*honestNoiseStd
	}
	in := &fleetInputs{
		deltas: make([][][]float64, numClients),
		lag:    make([]int, numClients),
	}
	if w.Hostile {
		// Attackers answer at once (lag 0), and so do hostileFreshHonest
		// of the honest clients: the filter scores an update against the
		// median of its own staleness group, so an attacker is only
		// caught where honest clients outnumber it. The other honest
		// clients share the lags 1 to hostileMaxLag evenly. Which honest
		// client gets which lag is a seeded shuffle: the multiset is fixed.
		slot := 0
		for _, id := range r.Perm(numClients) {
			if w.roleOf(id).poisoned() {
				continue
			}
			if slot >= hostileFreshHonest {
				in.lag[id] = 1 + (slot-hostileFreshHonest)%hostileMaxLag
			}
			slot++
		}
	}
	for id := 0; id < numClients; id++ {
		in.deltas[id] = make([][]float64, deltaVariants)
		for v := range in.deltas[id] {
			d := randx.NormalVector(r, w.Dim, 0, honestNoiseStd)
			switch w.roleOf(id) {
			case roleHonest:
				for i := range d {
					d[i] += common[i]
				}
			case roleGD:
				for i := range d {
					d[i] = gdScale * (d[i] + common[i])
				}
			case roleColluder:
				d = lie
			}
			in.deltas[id][v] = d
		}
	}
	return in
}
