package pathenum

import (
	"context"
	"math"
	"runtime"
	"testing"

	"pathenum/internal/core"
	"pathenum/internal/gen"
)

// TestEngineMemBudgetPathEquality: the budget changes residency and
// plans, never answers — the same workload through budgets from tight to
// a pathological 1 byte returns exactly the unbudgeted counts, across
// several sampled workloads.
func TestEngineMemBudgetPathEquality(t *testing.T) {
	g := engineGraph()
	scratch := int64(4) * core.SessionScratchBytes(g.NumVertices())
	for _, seed := range []int64{7, 19, 101} {
		queries := engineQueries(24, seed, g.NumVertices())
		base, err := NewEngine(g, EngineConfig{Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		want := batchCounts(t, base, queries)
		for _, budget := range []int64{8 * scratch, scratch + 64, 1} {
			e, err := NewEngine(g, EngineConfig{Workers: 4, MemoryBudgetBytes: budget})
			if err != nil {
				t.Fatal(err)
			}
			got := batchCounts(t, e, queries)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("seed %d budget %d query %d (%v): budgeted %d, unbudgeted %d",
						seed, budget, i, queries[i], got[i], want[i])
				}
			}
			if ms := e.MemStats(); ms.UsedBytes > ms.BudgetBytes {
				t.Fatalf("seed %d budget %d: ledger %d exceeds effective budget %d",
					seed, budget, ms.UsedBytes, ms.BudgetBytes)
			}
		}
	}
}

// TestEngineMemJoinFallback: a forced-join query whose predicted build
// side cannot fit the budget degrades to the DFS plan — same answer,
// MemFallback flagged, fallback counter incremented — instead of
// erroring or materializing past the limit.
func TestEngineMemJoinFallback(t *testing.T) {
	g := gen.Layered(8, 4) // dense layered graph: join builds a real side
	q := Query{S: 0, T: 1, K: 6}

	free, err := NewEngine(g, EngineConfig{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	unbudgeted, err := free.ExecuteWith(context.Background(), q, Options{Method: Join})
	if err != nil {
		t.Fatal(err)
	}
	if unbudgeted.Plan.Method != Join || unbudgeted.MemFallback {
		t.Fatalf("unbudgeted forced join ran %v (fallback=%v), want Join", unbudgeted.Plan.Method, unbudgeted.MemFallback)
	}

	// A 1-byte request floors at the mandatory scratch, leaving zero
	// headroom for the build class: every join must fall back.
	capped, err := NewEngine(g, EngineConfig{Workers: 1, MemoryBudgetBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := capped.ExecuteWith(context.Background(), q, Options{Method: Join})
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Method != DFS || !res.MemFallback {
		t.Fatalf("capped forced join ran %v (fallback=%v), want DFS fallback", res.Plan.Method, res.MemFallback)
	}
	if res.Counters.Results != unbudgeted.Counters.Results {
		t.Fatalf("fallback returned %d paths, join %d — fallback changed answers",
			res.Counters.Results, unbudgeted.Counters.Results)
	}
	if ms := capped.MemStats(); ms.JoinFallbacks == 0 {
		t.Fatalf("MemStats.JoinFallbacks = 0 after a demoted join: %+v", ms)
	}
}

// TestEngineMemStats: the ledger splits cleanly by class, the scratch
// charge matches the worker pool, and usage respects the effective
// budget.
func TestEngineMemStats(t *testing.T) {
	g := engineGraph()
	workers := 4
	scratch := int64(workers) * core.SessionScratchBytes(g.NumVertices())
	e, err := NewEngine(g, EngineConfig{Workers: workers, MemoryBudgetBytes: 4 * scratch})
	if err != nil {
		t.Fatal(err)
	}
	batchCounts(t, e, engineQueries(16, 3, g.NumVertices()))
	ms := e.MemStats()
	if ms.BudgetBytes != 4*scratch {
		t.Fatalf("BudgetBytes = %d, want %d", ms.BudgetBytes, 4*scratch)
	}
	if ms.ScratchBytes != scratch {
		t.Fatalf("ScratchBytes = %d, want %d (%d workers)", ms.ScratchBytes, scratch, workers)
	}
	if sum := ms.CacheBytes + ms.ScratchBytes + ms.BuildBytes; ms.UsedBytes != sum {
		t.Fatalf("UsedBytes %d != class sum %d (%+v)", ms.UsedBytes, sum, ms)
	}
	if ms.UsedBytes > ms.BudgetBytes {
		t.Fatalf("UsedBytes %d exceeds budget %d", ms.UsedBytes, ms.BudgetBytes)
	}

	// Unbudgeted engines report a zero ledger.
	free, err := NewEngine(g, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if ms := free.MemStats(); ms != (MemStats{}) {
		t.Fatalf("unbudgeted MemStats = %+v, want zero", ms)
	}
}

// TestEngineWarmCache: operator-named endpoints are BFS'd and deposited
// up front — bypassing the degree gate — so the first matching query is
// a cache hit; a disabled cache warms nothing; bad endpoints error.
func TestEngineWarmCache(t *testing.T) {
	g := engineGraph()
	e, err := NewEngine(g, EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	eps := []WarmEndpoint{
		{Origin: 3, Forward: true, K: 4},
		{Origin: 9, Forward: false, K: 4},
	}
	n, err := e.WarmCache(ctx, eps)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(eps) {
		t.Fatalf("warmed %d endpoints, want %d", n, len(eps))
	}
	before := e.CacheStats().Hits
	if _, err := e.ExecuteWith(ctx, Query{S: 3, T: 9, K: 4}, Options{}); err != nil {
		t.Fatal(err)
	}
	if after := e.CacheStats().Hits; after < before+2 {
		t.Fatalf("warmed query hit %d cached sides, want 2", after-before)
	}

	if _, err := e.WarmCache(ctx, []WarmEndpoint{{Origin: 3, Forward: true, K: 0}}); err == nil {
		t.Fatal("K=0 endpoint must error")
	}
	if _, err := e.WarmCache(ctx, []WarmEndpoint{{Origin: VertexID(g.NumVertices() + 5), Forward: true, K: 4}}); err == nil {
		t.Fatal("out-of-range origin must error")
	}

	off, err := NewEngine(g, EngineConfig{FrontierCache: -1})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := off.WarmCache(ctx, eps); err != nil || n != 0 {
		t.Fatalf("disabled cache warmed %d (%v), want 0, nil", n, err)
	}
}

// TestEngineConstrainedWarmAllocs: constrained queries run on the pooled
// sessions of the one pipeline, so a warm constrained ExecuteWith or
// Stream allocates the same bytes on a graph with 64x the vertices —
// nothing proportional to |V| (visited bitmap, BFS labelings) is
// allocated per run.
func TestEngineConstrainedWarmAllocs(t *testing.T) {
	acc := &Accumulator{
		Value:   func(VertexID, VertexID) float64 { return 1 },
		Combine: func(a, b float64) float64 { return a + b },
		Accept:  func(total float64) bool { return total == 2 },
	}
	q := Query{S: 0, T: 3, K: 3}
	perRun := func(n int) (exec, stream uint64) {
		// s=0 -> {1,2} -> t=3 -> 0, the rest isolated: the work per query
		// is constant, only |V| grows.
		g, err := NewGraph(n, []Edge{{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}, {From: 3, To: 0}})
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(g, EngineConfig{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		req := NewRequest(q)
		req.Accumulate = acc
		execute := func() {
			if res, err := e.ExecuteWith(ctx, q, Options{Accumulate: acc}); err != nil || res.Counters.Results != 2 {
				t.Fatalf("execute: %v, %+v", err, res)
			}
		}
		drain := func() {
			got := 0
			for _, err := range e.Stream(ctx, req) {
				if err != nil {
					t.Fatal(err)
				}
				got++
			}
			if got != 2 {
				t.Fatalf("stream delivered %d paths, want 2", got)
			}
		}
		// The fewest bytes any one run allocates: a warm run, on a pooled
		// session. (sync.Pool may drop sessions at a collection, and the
		// race detector makes it drop some Puts at random.)
		bytesOf := func(run func()) uint64 {
			least := uint64(math.MaxUint64)
			var before, after runtime.MemStats
			for i := 0; i < 32; i++ {
				runtime.ReadMemStats(&before)
				run()
				runtime.ReadMemStats(&after)
				least = min(least, after.TotalAlloc-before.TotalAlloc)
			}
			return least
		}
		return bytesOf(execute), bytesOf(drain)
	}
	smallExec, smallStream := perRun(1 << 10)
	bigExec, bigStream := perRun(1 << 16)
	if bigExec > smallExec+512 || bigStream > smallStream+512 {
		t.Fatalf("per-run bytes grow with |V|: execute %d -> %d, stream %d -> %d",
			smallExec, bigExec, smallStream, bigStream)
	}
}
