package pathenum

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// diamond: 0 -> {1,2} -> 3, plus 3 -> 0 closing edge.
func diamond(t *testing.T) *Graph {
	t.Helper()
	g, err := NewGraph(4, []Edge{
		{From: 0, To: 1}, {From: 0, To: 2},
		{From: 1, To: 3}, {From: 2, To: 3},
		{From: 3, To: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestEnumerateBasic(t *testing.T) {
	g := diamond(t)
	res, err := Enumerate(g, Query{S: 0, T: 3, K: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != 2 {
		t.Fatalf("Results = %d, want 2", res.Counters.Results)
	}
}

func TestCount(t *testing.T) {
	g := diamond(t)
	n, err := Count(g, Query{S: 0, T: 3, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("Count = %d, want 2", n)
	}
}

func TestPaths(t *testing.T) {
	g := diamond(t)
	paths, err := Paths(g, Query{S: 0, T: 3, K: 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("got %d paths", len(paths))
	}
	for _, p := range paths {
		if p[0] != 0 || p[len(p)-1] != 3 {
			t.Fatalf("bad endpoints: %v", p)
		}
	}
	limited, err := Paths(g, Query{S: 0, T: 3, K: 3}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(limited) != 1 {
		t.Fatalf("limit=1 returned %d paths", len(limited))
	}
}

func TestMethodsConstants(t *testing.T) {
	g := diamond(t)
	for _, m := range []Method{Auto, DFS, Join} {
		res, err := Enumerate(g, Query{S: 0, T: 3, K: 3}, Options{Method: m})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.Counters.Results != 2 {
			t.Fatalf("%v: Results = %d", m, res.Counters.Results)
		}
	}
}

func TestGraphIO(t *testing.T) {
	g := diamond(t)
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, _, err := ReadGraph(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() {
		t.Fatalf("IO round trip: %d vs %d edges", g2.NumEdges(), g.NumEdges())
	}
}

func TestDynamicWorkflow(t *testing.T) {
	g := diamond(t)
	d := NewDynamic(g)
	if _, err := d.Insert(1, 2); err != nil {
		t.Fatal(err)
	}
	snap := d.Snapshot()
	n, err := Count(snap, Query{S: 0, T: 3, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	// New path 0->1->2->3 joins the two originals.
	if n != 3 {
		t.Fatalf("Count after insert = %d, want 3", n)
	}
}

func TestCyclesThroughEdge(t *testing.T) {
	g := diamond(t)
	// Cycles through (3,0): 3->0->1->3 and 3->0->2->3, each 3 edges.
	var cycles [][]VertexID
	res, err := CyclesThroughEdge(g, 3, 0, 3, Options{Emit: func(c []VertexID) bool {
		cycles = append(cycles, append([]VertexID(nil), c...))
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != 2 || len(cycles) != 2 {
		t.Fatalf("cycles = %d (emitted %d), want 2", res.Counters.Results, len(cycles))
	}
	for _, c := range cycles {
		if c[0] != 0 || c[len(c)-1] != 0 {
			t.Fatalf("cycle %v must start and end at the edge head", c)
		}
		if len(c)-1 > 3 {
			t.Fatalf("cycle %v exceeds hop constraint", c)
		}
	}
	// Count-only variant.
	n, err := CountCyclesThroughEdge(g, 3, 0, 3)
	if err != nil || n != 2 {
		t.Fatalf("CountCyclesThroughEdge = %d, %v", n, err)
	}
}

func TestCyclesThroughEdgeValidation(t *testing.T) {
	g := diamond(t)
	if _, err := CyclesThroughEdge(g, 0, 3, 3, Options{}); err == nil {
		t.Error("missing edge: expected error")
	}
	if _, err := CyclesThroughEdge(g, 3, 0, 1, Options{}); err == nil {
		t.Error("k < 2: expected error")
	}
}

func TestEnumerateConstrained(t *testing.T) {
	g := diamond(t)
	// Forbid edge (0,1): only the path through 2 remains.
	res, err := Enumerate(g, Query{S: 0, T: 3, K: 3}, Options{
		Predicate: func(u, v VertexID) bool { return !(u == 0 && v == 1) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != 1 {
		t.Fatalf("Results = %d, want 1", res.Counters.Results)
	}
}

func TestConstrainedWithDFA(t *testing.T) {
	g := diamond(t)
	// Label every edge by its source vertex parity; require >= 1 odd-source
	// edge: only 0->1->3 qualifies (source 1 is odd).
	lbl := func(u, v VertexID) Label { return Label(u % 2) }
	dfa, err := AtLeastCountDFA(2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Enumerate(g, Query{S: 0, T: 3, K: 3}, Options{
		Sequence: &SequenceConstraint{Automaton: dfa, Label: lbl},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.Results != 1 {
		t.Fatalf("Results = %d, want 1", res.Counters.Results)
	}
}

func TestExactSequenceDFAHelper(t *testing.T) {
	dfa, err := ExactSequenceDFA(2, []Label{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !dfa.Accepts([]Label{0, 1}) || dfa.Accepts([]Label{1, 0}) {
		t.Fatal("ExactSequenceDFA misbehaves")
	}
	if _, err := NewDFA(0, 1, 0); err == nil {
		t.Fatal("NewDFA with zero states: expected error")
	}
}

// TestHopBoundClamped: a simple path on |V| vertices has at most |V|-1
// edges, so the pipeline clamps larger hop bounds. On the 4-vertex
// diamond, k=2^20 must allocate exactly what k=3 does and count the same
// paths, while Result.Query keeps the caller's k.
func TestHopBoundClamped(t *testing.T) {
	g := diamond(t)
	measure := func(k int) (count uint64, allocs float64, bytesPerRun uint64) {
		q := Query{S: 0, T: 3, K: k}
		run := func() {
			n, err := Count(g, q)
			if err != nil {
				t.Fatal(err)
			}
			count = n
		}
		allocs = testing.AllocsPerRun(20, run)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 20; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return count, allocs, (after.TotalAlloc - before.TotalAlloc) / 20
	}
	small, smallAllocs, smallBytes := measure(3)
	big, bigAllocs, bigBytes := measure(1 << 20)
	if big != small || small != 2 {
		t.Fatalf("k=2^20 counted %d paths, k=3 %d (want 2)", big, small)
	}
	if bigAllocs != smallAllocs || bigBytes > smallBytes+1024 {
		t.Fatalf("k=2^20 allocates %.0f objects / %d B per run, k=3 %.0f / %d B",
			bigAllocs, bigBytes, smallAllocs, smallBytes)
	}
	res, err := Enumerate(g, Query{S: 0, T: 3, K: 1 << 20}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Query.K != 1<<20 {
		t.Fatalf("Result.Query.K = %d, want the caller's 2^20", res.Query.K)
	}
}
