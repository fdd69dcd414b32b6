package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
)

// TestMain lets the test binary stand in for the server process that the
// HTTP workloads start with --serve.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "--serve" {
		if err := serveMain(os.Args[2], os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	// Trace runs write span files under the working directory; keep them
	// out of the source tree.
	var err error
	if benchmarkFilePath, err = filepath.Abs("../BENCHMARK.json"); err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	if err := os.Chdir(dir); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

var benchmarkFilePath string

// exactCounts are the per-layer metrics that count work rather than time
// it; with one seed they must repeat to the last digit.
var exactCounts = []string{
	"core.bfs.reached_per_query",
	"core.index.edges_per_query",
	"core.index.vertices_per_query",
	"core.index.bytes_per_query",
	"core.plan.join_ratio",
	"core.estimator.qerror_p50",
	"core.estimator.qerror_p99",
	"core.enum.edges_accessed_per_query",
	"core.enum.invalid_partials_per_query",
	"core.enum.results_per_edge",
	"core.join.build_tuples_per_query",
	"core.join.probe_walks_per_query",
	"core.join.partial_bytes_per_query",
	"mem.join_fallbacks",
	"server.bytes_per_path",
	"server.flushes_per_request",
}

type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile(benchmarkFilePath)
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// shrink cuts every workload's pools so a test run takes seconds; the
// names and the code paths are the full benchmark's.
func shrink(t *testing.T) {
	t.Helper()
	saved := append([]spec(nil), specs...)
	t.Cleanup(func() { specs = saved })
	for i := range specs {
		specs[i].pool = min(specs[i].pool, 40)
		specs[i].ladder = min(specs[i].ladder, 16)
	}
}

func runQuiet(t *testing.T, o options) *result {
	t.Helper()
	res, err := run(o, io.Discard)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", o.workload, o.trace, err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("%s trace=%v: correct=%v failed=%d", o.workload, o.trace, res.Correct, res.Failed)
	}
	return res
}

func metricNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestPrintedNamesMatchBenchmarkFile(t *testing.T) {
	shrink(t)
	f := readBenchmarkFile(t)
	want := func(list []struct{ Name, Unit string }) map[string]string {
		m := map[string]string{}
		for _, e := range list {
			m[e.Name] = e.Unit
		}
		return m
	}
	endToEnd, perLayer := want(f.EndToEnd), want(f.PerLayer)
	var workloads []string
	for _, w := range f.Workloads {
		workloads = append(workloads, w.Name)
	}
	var specNames []string
	for _, s := range specs {
		specNames = append(specNames, s.name)
	}
	if !reflect.DeepEqual(workloads, specNames) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", workloads, specNames)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := runQuiet(t, options{workload: w, seed: 1, seconds: 1.5, trace: trace})
			listed := endToEnd
			if trace {
				listed = perLayer
			}
			got := map[string]string{}
			for n, m := range res.Metrics {
				got[n] = m.Unit
			}
			if !reflect.DeepEqual(got, listed) {
				t.Errorf("%s trace=%v printed %v, BENCHMARK.json lists %v", w, trace, metricNames(res.Metrics), listed)
			}
		}
	}
}

func TestExactCountsRepeat(t *testing.T) {
	shrink(t)
	for _, s := range specs {
		o := options{workload: s.name, seed: 3, seconds: 1.5, trace: true}
		a, b := runQuiet(t, o), runQuiet(t, o)
		for _, n := range exactCounts {
			if a.Metrics[n] != b.Metrics[n] {
				t.Errorf("%s %s: %v then %v", s.name, n, a.Metrics[n].Value, b.Metrics[n].Value)
			}
		}
	}
}
