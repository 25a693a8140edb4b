// Command aflperf is the end-to-end and per-layer benchmark of the AFL
// serving path: sustained updates/s, ack and receive→commit latency and
// server CPU per update on four named workloads, plus a traced run per
// workload that says where the time went, layer by layer.
//
//	go run ./bench/aflperf                      every workload, timed + traced
//	go run ./bench/aflperf -smoke               the same with phases of about 2 s
//	go run ./bench/aflperf -repeat 5 -out f     five timed runs per workload, report to f
//	go run ./bench/aflperf -compare a.json b.json
//	bash bench/run.sh --workload single_d256 --seed 1 --seconds 24 --trace 0
//
// The last form is the benchmark driver's (BENCHMARK.json): one workload,
// one seed, timed (--trace 0) or traced (--trace 1), ending with one JSON
// result line. Every form exits non-zero when a correctness check or a
// golden verdict hash fails. See bench/README.md.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const (
	outDir        = "bench/out"
	benchmarkJSON = "BENCHMARK.json"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sut" {
		os.Exit(sutMain())
	}
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "run one workload and end with the driver's JSON result line (default: all of them)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed sends the same bytes")
		seconds = flag.Float64("seconds", 30, "measured seconds per run, split between the saturation and paced phases")
		trace   = flag.Int("trace", 0, "with -workload: 0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
		smoke   = flag.Bool("smoke", false, "4 s runs (about 2 s per phase), too few samples tolerated: a CI smoke test, not a measurement")
		repeat  = flag.Int("repeat", 1, "timed runs per workload in a full run, on seeds seed..seed+repeat-1")
		out     = flag.String("out", filepath.Join(outDir, "report.json"), "where a full run writes its report")
		compare = flag.Bool("compare", false, "compare two reports: aflperf -compare a.json b.json")
	)
	flag.Parse()
	if *smoke {
		*seconds = 4
	}
	switch {
	case *compare:
		return runCompare(flag.Args())
	case *name != "":
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "aflperf:", err)
			return 2
		}
		res, err := runOne(runOpts{w: w, seed: *seed, seconds: *seconds, traced: *trace == 1, lenient: *smoke, outDir: outDir, log: os.Stdout})
		if err != nil {
			fmt.Fprintln(os.Stderr, "aflperf:", err)
			return 1
		}
		fmt.Println(resultLine(res))
		if len(res.Problems) > 0 {
			return 1
		}
		return 0
	}
	return runAll(*seed, *seconds, *repeat, *smoke, *out)
}

// runAll is the one command that prints everything: every workload,
// timed (repeat times) and traced.
func runAll(seed int64, seconds float64, repeat int, smoke bool, out string) int {
	rp := newReport(seconds)
	failed := false
	for i := range workloads {
		w := &workloads[i]
		wr := workloadReport{Name: w.Name}
		for r := 0; r <= repeat; r++ {
			opts := runOpts{w: w, seed: seed + int64(r), seconds: seconds, lenient: smoke, outDir: outDir, log: os.Stdout}
			if r == repeat {
				// One traced run per workload, after the timed ones.
				opts.seed, opts.traced = seed, true
			}
			res, err := runOne(opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "aflperf: %s: %v\n", w.Name, err)
				failed = true
				continue
			}
			failed = failed || len(res.Problems) > 0
			if opts.traced {
				wr.Traced = res
			} else {
				wr.Runs = append(wr.Runs, res)
			}
		}
		wr.summarize()
		rp.Workloads = append(rp.Workloads, wr)
	}
	rp.print(os.Stdout)
	if err := rp.write(out); err != nil {
		fmt.Fprintln(os.Stderr, "aflperf:", err)
		return 1
	}
	fmt.Println("report written to", out)
	if failed {
		fmt.Println("FAILED: at least one correctness check did not hold")
		return 1
	}
	return 0
}

func runCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: aflperf -compare a.json b.json")
		return 2
	}
	a, errA := readReport(args[0])
	b, errB := readReport(args[1])
	bf, errF := readBenchmarkFile(benchmarkJSON)
	if err := errors.Join(errA, errB, errF); err != nil {
		fmt.Fprintln(os.Stderr, "aflperf:", err)
		return 2
	}
	if compareReports(os.Stdout, a, b, bf) > 0 {
		return 1
	}
	return 0
}
