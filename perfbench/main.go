// Command perfbench is the repository's benchmark: four workloads that
// climb the system's layers from index build to HTTP delivery, each
// answer checked against the independent BC-DFS baseline.
//
//	bash perfbench/run.sh --workload index-bound --seed 1 --seconds 15 --trace 0
//
// With --trace 0 it measures the end-to-end metrics; with --trace 1 it
// measures the same window untraced and traced (the difference is the
// tracing overhead) and then replays the workload's queries through a
// ladder of public entry points, one rung per module, to attribute time
// and work to layers. The last line of standard output is one JSON object
// with the keys correct, attempted, failed and metrics; the lines before
// it are a readable report. See README.md for the workloads.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"pathenum"
	"pathenum/internal/gen"
	"pathenum/internal/workload"
)

// spec is one workload: the graph, the query shape, the engine
// configuration and how many inputs a run draws from its seed.
type spec struct {
	name    string
	dataset string
	setting workload.Setting
	k       int
	// pool is the number of distinct seeded read queries a run cycles
	// through; every one is counted by BC-DFS before the window opens.
	pool int
	// ladder is the number of queries the traced ladder replays.
	ladder int
	// http serves the engine from a separate process over loopback,
	// configured as pathenumd is by default: 8 workers, an 8-landmark
	// oracle rebuilt in the background after every publish, and the
	// default frontier cache. Otherwise the engine runs in process with a
	// zero-value EngineConfig.
	http bool
}

var specs = []spec{
	{name: "index-bound", dataset: "up", setting: workload.LowLow, k: 6, pool: 2000, ladder: 200},
	{name: "enum-stream", dataset: "ep", setting: workload.HighHigh, k: 6, pool: 300, ladder: 8},
	{name: "http-paths", dataset: "ep", setting: workload.HighHigh, k: 5, pool: 600, ladder: 60, http: true},
	{name: "hub-batch-write", dataset: "ep", k: 5, ladder: 48, http: true},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (known: %v)", name, names)
}

// daemonLandmarks is pathenumd's default -landmarks value.
const daemonLandmarks = 8

func (s spec) graph() (*pathenum.Graph, error) {
	d, err := gen.Lookup(s.dataset)
	if err != nil {
		return nil, err
	}
	return d.Build(), nil
}

// engineConfig returns the workload's engine configuration for g,
// building the oracle when the pathenumd configuration asks for one.
func (s spec) engineConfig(g *pathenum.Graph) (pathenum.EngineConfig, error) {
	if !s.http {
		return pathenum.EngineConfig{}, nil
	}
	oracle, err := pathenum.BuildOracle(g, daemonLandmarks)
	if err != nil {
		return pathenum.EngineConfig{}, fmt.Errorf("oracle: %w", err)
	}
	return pathenum.EngineConfig{Workers: 8, Oracle: oracle, OracleLandmarks: daemonLandmarks}, nil
}

// setupRepeats is how many times a run sets the system up; setup_s is
// the median, so one slow process start does not move it.
const setupRepeats = 5

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects the metrics of the result line.
type report map[string]metric

func (r report) add(name, unit string, v float64) { r[name] = metric{Value: v, Unit: unit} }

func main() {
	var o options
	var trace int
	var serve string
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced layer ladder instead of the end-to-end measurement")
	flag.StringVar(&serve, "serve", "", "internal: serve the named workload's engine over loopback HTTP")
	flag.Parse()
	if serve != "" {
		if err := serveMain(serve, os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench serve:", err)
			os.Exit(1)
		}
		return
	}
	o.trace = trace == 1
	if (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and returns the result line. Readable report
// lines go to w.
func run(o options, w io.Writer) (*result, error) {
	s, err := lookupSpec(o.workload)
	if err != nil {
		return nil, err
	}
	b, err := newBench(s, o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	rep := report{}
	var attempted, failed int
	if o.trace {
		attempted, failed, err = b.traced(rep)
	} else {
		var win *window
		win, err = b.measure(o.seconds, nil)
		if err == nil {
			b.endToEnd(rep, win)
			b.describe(w, win)
			attempted, failed = win.attempted, win.failed
		}
	}
	if err != nil {
		return nil, err
	}
	for _, p := range b.problems {
		fmt.Fprintln(w, "CHECK FAILED:", p)
	}
	names := make([]string, 0, len(rep))
	for n := range rep {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rep[n]
		fmt.Fprintf(w, "%-40s %14.4f %s\n", n, m.Value, m.Unit)
	}
	if o.trace {
		if err := b.tr.write(filepath.Join(".bench_build", "perfbench", "spans",
			fmt.Sprintf("%s-seed%d.jsonl", s.name, o.seed))); err != nil {
			return nil, err
		}
	}
	if attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	return &result{Correct: len(b.problems) == 0, Attempted: attempted, Failed: failed, Metrics: rep}, nil
}

// bench is one run's state: the graph, the seeded inputs and their
// reference answers, and the system under test (an in-process engine or
// a server process).
type bench struct {
	s        spec
	o        options
	g        *pathenum.Graph
	cfg      pathenum.EngineConfig
	in       *inputs
	eng      *pathenum.Engine // library workloads
	srv      *serverProc      // HTTP workloads
	setup    time.Duration
	tr       *tracer
	problems []string
}

func (b *bench) fail(format string, args ...any) {
	if len(b.problems) < 20 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

func newBench(s spec, o options) (*bench, error) {
	b := &bench{s: s, o: o}
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		d, err := b.setUp(i == setupRepeats-1)
		if err != nil {
			b.close()
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	b.setup = time.Duration(median(setups) * float64(time.Second))
	var err error
	if b.in, err = makeInputs(s, b.g, o); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

// setUp builds the system once and reports how long it took: the graph,
// the oracle and the engine, plus the server process start for HTTP
// workloads. Only the last setup is kept.
func (b *bench) setUp(keep bool) (time.Duration, error) {
	if b.s.http {
		if b.g == nil {
			g, err := b.s.graph()
			if err != nil {
				return 0, err
			}
			b.g = g
		}
		start := time.Now()
		p, err := startServer(b.s.name)
		if err != nil {
			return 0, err
		}
		d := time.Since(start)
		if keep {
			b.srv = p
		} else {
			p.stop()
		}
		return d, nil
	}
	start := time.Now()
	g, err := b.s.graph()
	if err != nil {
		return 0, err
	}
	cfg, err := b.s.engineConfig(g)
	if err != nil {
		return 0, err
	}
	eng, err := pathenum.NewEngine(g, cfg)
	if err != nil {
		return 0, err
	}
	d := time.Since(start)
	if keep {
		b.g, b.cfg, b.eng = g, cfg, eng
	}
	return d, nil
}

func (b *bench) close() {
	if b.srv != nil {
		b.srv.stop()
		b.srv = nil
	}
}

// measure runs the workload's closed or open loop for the given seconds.
func (b *bench) measure(secs float64, tr *tracer) (*window, error) {
	d := seconds(secs)
	switch b.s.name {
	case "index-bound", "enum-stream":
		return b.runLibrary(d, tr), nil
	case "http-paths":
		return b.runPaths(d, tr)
	default:
		return b.runHubBatch(d, tr)
	}
}

// tailP is the upper percentile the readable report gives beside p99.
// Neither is in the result line: on the shared two-core reference machine
// bursts of hypervisor steal moved p90 by up to a third between runs,
// beyond the largest bound a metric may have.
const tailP = 0.90

// endToEnd adds the end-to-end metrics of a window.
func (b *bench) endToEnd(rep report, win *window) {
	rep.add("setup_s", "s", b.setup.Seconds())
	rep.add("query_p50_ms", "ms", win.query.pct(0.5))
	rep.add("first_path_p50_ms", "ms", win.first.pct(0.5))
	sec := win.elapsed.Seconds()
	rep.add("ops_per_s", "1/s", float64(win.completed)/sec)
	rep.add("paths_per_s", "1/s", float64(win.paths)/sec)
	rep.add("cpu_ms_per_op", "ms", ms(win.work.CPU)/float64(win.completed))
	rep.add("peak_heap_mib", "MiB", float64(win.work.HeapPeakBytes)/(1<<20))
}

// describe prints the workload-specific figures that are not part of the
// result line: sample counts, batch and insert latencies, error ratio.
func (b *bench) describe(w io.Writer, win *window) {
	fmt.Fprintf(w, "workload %s seed %d: %d ops attempted, %d failed, %d read samples, %d first-result samples, window %.2fs\n",
		b.s.name, b.o.seed, win.attempted, win.failed, len(win.query), len(win.first), win.elapsed.Seconds())
	fmt.Fprintf(w, "%-40s %14.4f %s\n", "error_ratio", ratio(float64(win.failed), float64(win.attempted)), "ratio")
	fmt.Fprintf(w, "%-40s %14.4f ms\n", "query_p90_ms", win.query.pct(tailP))
	fmt.Fprintf(w, "%-40s %14.4f ms\n", "query_p99_ms", win.query.pct(0.99))
	fmt.Fprintf(w, "%-40s %14.4f ms\n", "first_path_p90_ms", win.first.pct(tailP))
	fmt.Fprintf(w, "%-40s %14.4f ms\n", "first_path_p99_ms", win.first.pct(0.99))
	if b.s.name == "hub-batch-write" {
		fmt.Fprintf(w, "rates: %.1f batches/s of %d queries, %.1f inserts/s (open loop)\n", batchRate, batchSize, insertRate)
		fmt.Fprintf(w, "%-40s %14.4f ms (%d samples)\n", "batch_p50_ms", win.query.pct(0.5), len(win.query))
		fmt.Fprintf(w, "%-40s %14.4f ms\n", "batch_p95_ms", win.query.pct(0.95))
		fmt.Fprintf(w, "%-40s %14.4f ms (%d samples)\n", "insert_p50_ms", win.insert.pct(0.5), len(win.insert))
		fmt.Fprintf(w, "%-40s %14.4f ms\n", "insert_p95_ms", win.insert.pct(0.95))
		fmt.Fprintf(w, "%-40s %14.4f ms\n", "driver.late_p99_ms", win.late.pct(0.99))
	}
}
