package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"

	"github.com/asyncfl/asyncfilter/internal/vecmath"
)

// printRun writes one run's human-readable report: every metric by name
// with its unit and the sample count behind it, the request tallies of
// every phase, and every failed check.
func printRun(w io.Writer, r *runResult) {
	kind := "timed"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "== %s seed %d (%s, %g s) ==\n", r.Workload, r.Seed, kind, r.Seconds)
	phases := make([]string, 0, len(r.Phases))
	for name := range r.Phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	for _, name := range phases {
		c := r.Phases[name]
		fmt.Fprintf(w, "  phase %-18s attempted %8d  succeeded %8d  refused %6d  failed %4d\n",
			name, c.Attempted, c.Succeeded, c.Refused, c.Failed)
	}
	for _, name := range r.order {
		m := r.Metrics[name]
		fmt.Fprintf(w, "  %-38s %14.6g %-6s", name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if !vecmath.IsZero(m.Q1) || !vecmath.IsZero(m.Q3) {
			fmt.Fprintf(w, " quartiles [%.6g, %.6g]", m.Q1, m.Q3)
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

// resultLine is the driver's contract: the last line of standard output,
// one JSON object with exactly these keys. A per-layer metric that does
// not apply to the workload reads 0.
func resultLine(r *runResult) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := make(map[string]value, len(defs))
	for _, d := range defs {
		metrics[d.Name] = value{Value: r.Metrics[d.Name].Value, Unit: d.Unit}
	}
	total := r.totals()
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(r.Problems) == 0, total.Attempted, total.Failed, metrics})
	if err != nil {
		panic(err)
	}
	return string(line)
}

// report is what a full run writes: every timed run of every workload,
// the order statistics over them, and one traced run per workload.
type report struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	Seconds   float64 `json:"seconds"`
	// Bounds are BENCHMARK.json's regression bounds at the time of the
	// run, recorded beside the spreads they have to be wider than.
	Bounds    map[string]float64 `json:"bounds,omitempty"`
	Workloads []workloadReport   `json:"workloads"`
}

type workloadReport struct {
	Name string `json:"name"`
	// Summary is the median and quartiles of each end-to-end metric over
	// Runs, and Spread the interquartile distance as a share of the
	// median: what a regression bound must be wider than.
	Summary map[string]summary `json:"summary"`
	Spread  map[string]float64 `json:"spread"`
	Runs    []*runResult       `json:"runs"`
	Traced  *runResult         `json:"traced,omitempty"`
}

func newReport(seconds float64) *report {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	rp := &report{Commit: commit, GoVersion: runtime.Version(), NProc: runtime.NumCPU(), Seconds: seconds}
	if bf, err := readBenchmarkFile(benchmarkJSON); err == nil {
		rp.Bounds = map[string]float64{}
		for _, m := range bf.EndToEnd {
			rp.Bounds[m.Name] = m.Bound
		}
	}
	return rp
}

func (wr *workloadReport) summarize() {
	wr.Summary = map[string]summary{}
	wr.Spread = map[string]float64{}
	for _, d := range endToEnd {
		var values []float64
		for _, r := range wr.Runs {
			if m, ok := r.Metrics[d.Name]; ok {
				values = append(values, m.Value)
			}
		}
		s := summarize(values)
		wr.Summary[d.Name] = s
		wr.Spread[d.Name] = s.spread()
	}
}

func (rp *report) print(w io.Writer) {
	fmt.Fprintf(w, "\n== summary: commit %s, %s, nproc %d, %g s per run ==\n", rp.Commit, rp.GoVersion, rp.NProc, rp.Seconds)
	for _, wr := range rp.Workloads {
		for _, d := range endToEnd {
			s := wr.Summary[d.Name]
			fmt.Fprintf(w, "  %-16s %-26s median %12.6g %-4s quartiles [%.6g, %.6g] runs=%d spread %.1f %%\n",
				wr.Name, d.Name, s.Median, d.Unit, s.Q1, s.Q3, s.N, 100*wr.Spread[d.Name])
		}
	}
}

func (rp *report) write(path string) error {
	raw, err := json.MarshalIndent(rp, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rp report
	if err := json.Unmarshal(raw, &rp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rp, nil
}

// benchmarkFile is the part of BENCHMARK.json the benchmark itself reads:
// the regression bound of each end-to-end metric lives there.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

// compareReports prints, for every (workload, end-to-end metric), how b
// stands against a and its bound, and returns how many are worse.
func compareReports(w io.Writer, a, b *report, bf *benchmarkFile) int {
	worse := 0
	fmt.Fprintf(w, "%-16s %-26s %12s %12s %8s %7s  %s\n", "workload", "metric", "a", "b", "delta", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadReport
		for i := range b.Workloads {
			if b.Workloads[i].Name == wa.Name {
				wb = &b.Workloads[i]
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-16s missing from the second report\n", wa.Name)
			worse++
			continue
		}
		for _, d := range bf.EndToEnd {
			sa, sb := wa.Summary[d.Name], wb.Summary[d.Name]
			v, delta := compareMetric(sa, sb, d.Better, d.Bound)
			if v == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-26s %12.6g %12.6g %+7.1f%% %6.0f%%  %s\n",
				wa.Name, d.Name, sa.Median, sb.Median, 100*delta, 100*d.Bound, v)
		}
	}
	return worse
}
