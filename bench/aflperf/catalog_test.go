package main

import (
	"regexp"
	"testing"
)

// TestBenchmarkFileMatchesCatalogue keeps BENCHMARK.json (what the driver
// reads) and the catalogue (what the program prints) one list: the same
// workloads, the same metrics with the same units and directions, a
// bound on every end-to-end metric.
func TestBenchmarkFileMatchesCatalogue(t *testing.T) {
	bf, err := readBenchmarkFile("../../" + benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, bf.Workloads[i].Name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, i int, gotName, gotUnit, gotBetter string, want metricDef) {
		if gotName != want.Name || gotUnit != want.Unit || gotBetter != want.Better {
			t.Errorf("%s %d: BENCHMARK.json has {%s %s %s}, catalogue has %+v", kind, i, gotName, gotUnit, gotBetter, want)
		}
		if !name.MatchString(gotName) || !unit.MatchString(gotUnit) || seen[gotName] {
			t.Errorf("%s %q (%s): malformed or repeated", kind, gotName, gotUnit)
		}
		if want.Better != "higher" && want.Better != "lower" {
			t.Errorf("%s %q: better = %q", kind, gotName, want.Better)
		}
		seen[gotName] = true
	}
	if len(bf.EndToEnd) != len(endToEnd) || len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d + %d metrics, the catalogue %d + %d",
			len(bf.EndToEnd), len(bf.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, m := range bf.EndToEnd {
		check("end_to_end", i, m.Name, m.Unit, m.Better, endToEnd[i])
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric")
	}
	for i, m := range bf.PerLayer {
		check("per_layer", i, m.Name, m.Unit, m.Better, perLayer[i])
	}
}
