package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// A run is one workload, one seed, timed or traced:
//
//	timed:  setup ×5..15 → warm-up → saturation (closed loop, 10 windows)
//	        → paced (open loop at the workload's fixed rate) → quiesce,
//	        collect, verify. Gives the six end-to-end metrics.
//	traced: setup → warm-up → saturation with tracing off → saturation
//	        with tracing on → paced with tracing on → quiesce, collect,
//	        verify → layer replays. Gives the per-layer metrics and
//	        bench/out/trace_<workload>.json.
//
// End-to-end metrics never come from a traced run.

type runOpts struct {
	w       *workload
	seed    int64
	seconds float64
	traced  bool
	// lenient (smoke runs) tolerates phases too short to support p99.
	lenient bool
	// outDir is bench/out; log receives the human-readable report.
	outDir string
	log    io.Writer
}

// metric is one reported number with the samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value (windows for a windowed
	// metric, requests for a pooled percentile); Q1 and Q3 the quartiles
	// over windows where there are any.
	N  int     `json:"n,omitempty"`
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

type runResult struct {
	Workload string            `json:"workload"`
	Seed     int64             `json:"seed"`
	Traced   bool              `json:"traced"`
	Seconds  float64           `json:"seconds"`
	Metrics  map[string]metric `json:"metrics"`
	Phases   map[string]counts `json:"phases"`
	Problems []string          `json:"problems,omitempty"`
	// Notes are shortfalls a smoke run tolerates (a phase too short to
	// support a p99); in a real run each of them is a Problem.
	Notes   []string `json:"notes,omitempty"`
	lenient bool
	order   []string
}

func (r *runResult) set(name string, value float64) {
	r.setN(name, value, 0)
}

func (r *runResult) setN(name string, value float64, n int) {
	if _, seen := r.Metrics[name]; !seen {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: value, Unit: defOf(name).Unit, N: n}
}

// setSpread reports a value together with the quartiles of the repeated
// measurements it was taken from; n is the sample count behind it.
func (r *runResult) setSpread(name string, value float64, s summary, n int) {
	r.setN(name, value, n)
	m := r.Metrics[name]
	m.Q1, m.Q3 = s.Q1, s.Q3
	r.Metrics[name] = m
}

// setWindows reports a metric measured in several windows: the median
// of the windows is the value, their quartiles are printed beside it.
// samples is the count behind the windows (0: the windows themselves).
func (r *runResult) setWindows(name string, values []float64, samples int) {
	s := summarize(values)
	if samples == 0 {
		samples = s.N
	}
	r.setSpread(name, s.Median, s, samples)
}

func (r *runResult) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// unsupported records a percentile the run's sample could not support.
func (r *runResult) unsupported(err error) {
	if r.lenient {
		r.Notes = append(r.Notes, err.Error())
		return
	}
	r.problem("%v", err)
}

func (r *runResult) totals() counts {
	var t counts
	for _, c := range r.Phases {
		t.add(c)
	}
	return t
}

const (
	// A timed run sets the deployment up between minSetups and maxSetups
	// times, stopping once setupBudget is spent; setup_s is the median and
	// the last instance is the one measured. Small deployments come up in
	// 30 ms ± 10 and need the repeats; large ones take 250 ms each and
	// are steadier.
	minSetups, maxSetups = 5, 15
	setupBudget          = 1500 * time.Millisecond
	// warmupShare of the run length is spent warming up before anything
	// is measured (pools filled, connections hot, filter groups seeded).
	warmupShare = 0.1
	satWindows  = maxWindows
	// runTimeout aborts a wedged run well inside the driver's limit.
	runTimeout = 150 * time.Second
)

// running is one deployment with its fleet connected.
type running struct {
	opts  runOpts
	dir   string
	child *child
	fleet *fleet
	in    *fleetInputs
}

// setUp generates the inputs, starts the SUT, connects every client and
// reads the first task on every socket: everything setup_s covers.
func setUp(opts runOpts, pacedSeconds float64) (*running, float64, error) {
	start := time.Now()
	dir, err := os.MkdirTemp(opts.outDir, "run-")
	if err != nil {
		return nil, 0, err
	}
	in := opts.w.generate(opts.seed)
	// The rings must still hold every update of the paced phase, the
	// run's last, at exit: twice its expected count.
	ring := int(2*opts.w.PacedRate*pacedSeconds) + 4096
	ch, err := startChild(sutConfig{Workload: opts.w.Name, Traced: opts.traced, Dir: dir, Ring: ring})
	if err != nil {
		_ = os.RemoveAll(dir)
		return nil, 0, err
	}
	fl, err := connectFleet(opts.w, in, ch.addrs)
	if err != nil {
		ch.kill()
		_ = os.RemoveAll(dir)
		return nil, 0, err
	}
	return &running{opts: opts, dir: dir, child: ch, fleet: fl, in: in}, time.Since(start).Seconds(), nil
}

// tearDown abandons a deployment (the set-up repeats, and error paths).
func (rn *running) tearDown() {
	rn.fleet.close()
	rn.child.kill()
	_ = os.RemoveAll(rn.dir)
}

// satWindow is one window of a closed-loop phase, from the child's own
// clock and counters.
type satWindow struct {
	Seconds float64
	Retired int64
	CPUNs   int64
}

// closedPhase runs the drivers flat out for seconds, sampling the
// child's counters at every window boundary.
func (rn *running) closedPhase(seconds float64, windows int) ([]satWindow, counts, error) {
	rn.fleet.armAll(time.Duration(seconds * float64(time.Second)))
	var stop atomic.Bool
	done := make(chan counts, 1)
	go func() { done <- rn.fleet.closedLoop(&stop) }()
	// An early return must still stop the drivers and wait for them.
	finished := false
	defer func() {
		if !finished {
			stop.Store(true)
			<-done
		}
	}()
	prev, err := rn.child.call(sutRequest{Cmd: "stats"})
	if err != nil {
		return nil, counts{}, err
	}
	out := make([]satWindow, 0, windows)
	for i := 0; i < windows; i++ {
		time.Sleep(time.Duration(seconds / float64(windows) * float64(time.Second)))
		cur, err := rn.child.call(sutRequest{Cmd: "stats"})
		if err != nil {
			return nil, counts{}, err
		}
		out = append(out, satWindow{
			Seconds: float64(cur.WallNs-prev.WallNs) / 1e9,
			Retired: cur.Retired - prev.Retired,
			CPUNs:   cur.CPUNs - prev.CPUNs,
		})
		prev = cur
	}
	stop.Store(true)
	tally := <-done
	finished = true
	if rn.fleet.dead() {
		return nil, tally, fmt.Errorf("load generator: %w", rn.fleet.firstErr)
	}
	return out, tally, nil
}

// settle waits until the SUT has retired everything the closed loop
// pushed into it. A saturated edge commits rounds faster than its uplink
// forwards them (there is no backpressure from root to edge), and the
// backlog would otherwise drain into the first half-second of the paced
// phase's commit latencies.
func (rn *running) settle() error {
	last, stable := int64(-1), 0
	for deadline := time.Now().Add(3 * time.Second); stable < 3 && time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		st, err := rn.child.call(sutRequest{Cmd: "stats"})
		if err != nil {
			return err
		}
		if st.Retired == last {
			stable++
		} else {
			last, stable = st.Retired, 0
		}
	}
	return nil
}

// pacedPhase plays a seeded Poisson schedule at the workload's rate.
func (rn *running) pacedPhase(seconds float64) ([]sendRec, counts, int64) {
	span := time.Duration(seconds * float64(time.Second))
	rn.fleet.armAll(span)
	start := time.Now().Add(20 * time.Millisecond).UnixNano()
	due := poissonSchedule(rn.opts.seed+1, rn.opts.w.PacedRate, start, span)
	recs, cnt := rn.fleet.openLoop(due)
	return recs, cnt, start
}

func runOne(opts runOpts) (*runResult, error) {
	res := &runResult{
		Workload: opts.w.Name, Seed: opts.seed, Traced: opts.traced, Seconds: opts.seconds,
		Metrics: map[string]metric{}, Phases: map[string]counts{}, lenient: opts.lenient,
	}
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, err
	}
	// Phase lengths as shares of the run length.
	warm := warmupShare * opts.seconds
	sat, paced := 0.4*opts.seconds, 0.6*opts.seconds
	satOn := 0.0
	if opts.traced {
		sat, satOn, paced = 0.15*opts.seconds, 0.2*opts.seconds, 0.5*opts.seconds
	}

	var rn *running
	var setups []float64
	for begun := time.Now(); ; {
		var secs float64
		var err error
		if rn, secs, err = setUp(opts, paced); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, secs)
		n := len(setups)
		if opts.traced || n == maxSetups || n >= minSetups && time.Since(begun) > setupBudget {
			break
		}
		rn.tearDown()
	}
	defer rn.tearDown()
	watchdog := time.AfterFunc(runTimeout, func() { _ = rn.child.cmd.Process.Kill() })
	defer watchdog.Stop()
	ticksBefore, stealBefore := cpuTicks()
	_, warmCounts, err := rn.closedPhase(warm, 1)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.Phases["warmup"] = warmCounts

	memBefore, err := rn.child.call(sutRequest{Cmd: "stats", Mem: true})
	if err != nil {
		return nil, err
	}
	genCPUBefore, _ := rusageSelf()
	windows, satCounts, err := rn.closedPhase(sat, satWindows)
	if err != nil {
		return nil, fmt.Errorf("saturation: %w", err)
	}
	res.Phases["saturation"] = satCounts
	genCPU, _ := rusageSelf()
	memAfter, err := rn.child.call(sutRequest{Cmd: "stats", Mem: true})
	if err != nil {
		return nil, err
	}

	var tracedRates []float64
	if opts.traced {
		if _, err := rn.child.call(sutRequest{Cmd: "trace", On: true}); err != nil {
			return nil, err
		}
		onWindows, onCounts, err := rn.closedPhase(satOn, satWindows)
		if err != nil {
			return nil, fmt.Errorf("traced saturation: %w", err)
		}
		res.Phases["saturation_traced"] = onCounts
		tracedRates, _ = windowRates(onWindows)
	}

	if err := rn.settle(); err != nil {
		return nil, err
	}
	recs, pacedCounts, pacedStart := rn.pacedPhase(paced)
	res.Phases["paced"] = pacedCounts
	wireBytes := rn.fleet.wireBytes()

	rates, cpus := windowRates(windows)
	if !opts.traced {
		res.setWindows("updates_per_s", rates, 0)
		res.setWindows("server_cpu_us_per_update", cpus, 0)
		// Set-up is not a windowed measurement of one process under
		// interference but several whole set-ups: the median is the value.
		s := summarize(setups)
		res.setSpread("setup_s", s.Median, s, s.N)
	}

	if ticks, steal := cpuTicks(); ticks > ticksBefore {
		res.set("proc.host_steal_share", (steal-stealBefore)/(ticks-ticksBefore))
	}
	final, err := rn.child.call(sutRequest{Cmd: "finish"})
	if err != nil {
		return nil, fmt.Errorf("finish: %w", err)
	}
	rn.child.stop()
	var dump sutDump
	if err := readGob(final.DumpPath, &dump); err != nil {
		return nil, fmt.Errorf("tap dump: %w", err)
	}

	j := joinPaced(opts.w, recs, &dump, pacedStart, int64(paced*1e9))
	j.cutPaced(res)
	if err := j.endToEnd(res, !opts.traced); err != nil {
		res.unsupported(err)
	}
	verify(opts.w, res, &final, rn.fleet)

	if opts.traced {
		retired := memAfter.Retired - memBefore.Retired
		satWall := float64(memAfter.WallNs-memBefore.WallNs) / 1e9
		layerMetrics(opts.w, res, j, &final, &dump, wireBytes)
		if retired > 0 {
			res.set("proc.allocs_per_update", float64(memAfter.Mallocs-memBefore.Mallocs)/float64(retired))
			res.set("proc.alloc_bytes_per_update", float64(memAfter.AllocBytes-memBefore.AllocBytes)/float64(retired))
		}
		if cpu := memAfter.CPUNs - memBefore.CPUNs; cpu > 0 {
			res.set("proc.gc_cpu_share", float64(memAfter.GCCPUNs-memBefore.GCCPUNs)/float64(cpu))
		}
		res.set("proc.peak_rss_mb", float64(final.MaxRSSKB)/1024)
		res.set("loadgen.cpu_share", float64(genCPU-genCPUBefore)/1e9/satWall/float64(runtime.GOMAXPROCS(0)))
		off, on := summarize(rates).Median, summarize(tracedRates).Median
		if off > 0 {
			res.set("trace.overhead_share", 1-on/off)
		}
		replayLayers(opts.w, rn.in, rn.dir, 0.15*opts.seconds, res)
		if err := writeTrace(filepath.Join(opts.outDir, "trace_"+opts.w.Name+".json"), opts.w, j); err != nil {
			res.problem("trace file: %v", err)
		}
	}
	printRun(opts.log, res)
	return res, nil
}

// windowRates turns closed-loop windows into updates/s and server CPU
// µs per update.
func windowRates(windows []satWindow) (rates, cpus []float64) {
	for _, w := range windows {
		if w.Retired <= 0 || w.Seconds <= 0 {
			continue
		}
		rates = append(rates, float64(w.Retired)/w.Seconds)
		cpus = append(cpus, float64(w.CPUNs)/1e3/float64(w.Retired))
	}
	return rates, cpus
}

// verify wires the live run's correctness checks into the result.
func verify(w *workload, res *runResult, final *sutStats, f *fleet) {
	total := res.totals()
	if f.firstErr != nil {
		res.problem("load generator: %v", f.firstErr)
	}
	var received, rejected, nacks, malformed, panics int
	for _, s := range final.Servers {
		received += s.UpdatesReceived
		rejected += s.Rejected
		nacks += s.NacksSent
		malformed += s.DroppedMalformed + s.DroppedOversize
		panics += s.HandlerPanics
	}
	for _, r := range final.Roots {
		panics += r.HandlerPanics
	}
	if int64(received) != total.Attempted {
		res.problem("generator sent %d updates, servers received %d", total.Attempted, received)
	}
	if panics != 0 {
		res.problem("%d handler panics", panics)
	}
	if malformed != 0 {
		res.problem("%d malformed or oversize drops", malformed)
	}
	// Every tap's accepted count must equal its server's own counter.
	for i, t := range final.Taps {
		var want int
		switch {
		case !w.Tiered:
			want = final.Servers[0].Accepted
		case i < numReplicas:
			want = final.Roots[i].Accepted
			if i > 0 {
				// Standbys mirror the primary's verdict counts without
				// running the combiner.
				want = 0
			}
		default:
			want = final.Servers[i-numReplicas].Accepted
		}
		if t.Accepted != int64(want) {
			res.problem("tap %s saw %d accepted updates, Stats() says %d", t.Name, t.Accepted, want)
		}
	}
	// No honest request may fail anywhere.
	if total.Failed != 0 {
		res.problem("%d of %d requests failed (first NACK: %v)", total.Failed, total.Attempted, f.nackErr)
	}
	share := float64(rejected) / float64(max(received, 1))
	if w.Hostile {
		if share < hostileRejectedBand[0] || share > hostileRejectedBand[1] {
			res.problem("rejected share %.4f outside band %v", share, hostileRejectedBand)
		}
		// Every NACK the server sent must be a quarantined poisoned client
		// turned away. (How many there are is up to chance, 0 to 20 a
		// run: see bench/README.md.)
		if int64(nacks) != total.Refused {
			res.problem("servers sent %d NACKs, poisoned clients were refused %d times", nacks, total.Refused)
		}
	} else {
		if share >= cleanRejectedLimit {
			res.problem("clean workload rejected %.2f %% of updates", 100*share)
		}
		if nacks != 0 {
			res.problem("clean workload sent %d NACKs", nacks)
		}
	}
	if w.Tiered {
		primary := final.Roots[0]
		if primary.BatchesLost != 0 || primary.BatchesReplayed != 0 {
			res.problem("root lost %d and replayed %d batches", primary.BatchesLost, primary.BatchesReplayed)
		}
		for i, n := range final.Nodes {
			if n.ElectionsStarted != 0 {
				res.problem("node %d started %d elections under load", i, n.ElectionsStarted)
			}
		}
		if final.Roles[0] != "primary" {
			res.problem("node 0 ended as %s", final.Roles[0])
		}
		hashes := final.ParamHashes
		for i := 1; i < len(hashes); i++ {
			if hashes[i] != hashes[0] {
				res.problem("replica %d final parameters differ from the primary's", i)
			}
		}
	}
}

// Bands for the hostile workload: the median of the first five traced
// runs on the reference box (seeds 1 to 5) ± 30 %, so that a filter that
// rejects a third less poison, or a third more of anything, fails the
// run. The five runs gave a rejected share of 0.061, 0.057, 0.061, 0.060
// and 0.058 of all updates, 0.183, 0.168, 0.187, 0.177 and 0.176 of the
// poisoned clients' updates (the amnesty after each rejection caps the
// gradient-deviation clients at one in two, and the colluders' vector is
// deferred, not rejected), and 0, 0, 0.00005, 0 and 0 of the honest
// clients' updates.
var (
	// cleanRejectedLimit bounds AsyncFilter's false positives on honest
	// traffic. Ten seeds ranged from 0.03 % (Ω = 32) to 2.2 % (Ω = 16).
	cleanRejectedLimit        = 0.05
	hostileRejectedBand       = [2]float64{0.042, 0.079}
	hostilePoisonRejectedBand = [2]float64{0.124, 0.230}
	hostileHonestRejectedBand = [2]float64{0, 0.005}
)

func ratio(num, den float64) float64 {
	if vecmath.IsZero(den) {
		return 0
	}
	return num / den
}
