package shard

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"

	"pathenum"
	"pathenum/internal/graph"
)

// confinedGraph keeps the edges of a scale-free graph that stay inside
// one hash-owned half plus those crossing from shard 0 to shard 1, so at
// P=2 shard 0 has no in-cut and shard 1 no out-cut: every intra query is
// confined to its shard and runs through the shard's sub-batch.
func confinedGraph(t *testing.T, seed int64) *pathenum.Graph {
	t.Helper()
	g := testGraph(seed)
	owner := HashOwner(2)
	var kept []graph.Edge
	for _, e := range g.Edges() {
		if a, b := owner(e.From), owner(e.To); a == b || (a == 0 && b == 1) {
			kept = append(kept, e)
		}
	}
	out, err := pathenum.NewGraph(g.NumVertices(), kept)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// confinedQuery returns a query with at least one path that the engine
// routes to one shard's sub-batch.
func confinedQuery(t *testing.T, e *Engine, k int, seed int64) pathenum.Query {
	t.Helper()
	g := e.Graph()
	v := e.capture()
	rng := rand.New(rand.NewSource(seed))
	for tries := 0; tries < 20000; tries++ {
		q := pathenum.Query{S: pathenum.VertexID(rng.Intn(g.NumVertices())), T: pathenum.VertexID(rng.Intn(g.NumVertices())), K: k}
		r, err := e.classify(v, q, false)
		if err != nil || r.kind != routeIntra || r.fallbackNeeded {
			continue
		}
		if c, err := pathenum.Count(g, q); err == nil && c > 0 {
			return q
		}
	}
	t.Fatal("no confined query found")
	return pathenum.Query{}
}

// drainStream collects a StreamBatch by hand, checking that every batch
// position arrives exactly once and the stats item comes last.
func drainStream(t *testing.T, seq func(func(pathenum.BatchItem) bool), n int) ([]*pathenum.Result, []error, *pathenum.BatchStats) {
	t.Helper()
	results := make([]*pathenum.Result, n)
	errs := make([]error, n)
	seen := make([]bool, n)
	var stats *pathenum.BatchStats
	for item := range seq {
		if stats != nil {
			t.Fatalf("item %d after the stats item", item.Index)
		}
		if item.Index == -1 {
			stats = item.Stats
			continue
		}
		if seen[item.Index] {
			t.Fatalf("item %d delivered twice", item.Index)
		}
		seen[item.Index] = true
		results[item.Index], errs[item.Index] = item.Result, item.Err
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("item %d never delivered", i)
		}
	}
	if stats == nil {
		t.Fatal("missing stats item")
	}
	return results, errs, stats
}

// A sharded batch shares work like an unsharded one: duplicates of a
// confined query are deduped inside the shard's sub-batch and share one
// Result, and the stats item reports it.
func TestShardStreamBatchSharesWork(t *testing.T) {
	g := confinedGraph(t, 43)
	e := newShardEngine(t, g, 2)
	q := confinedQuery(t, e, 4, 73)
	qs := []pathenum.Query{q, {S: q.S, T: q.S, K: 4}, q}
	results, errs, stats := drainStream(t, e.StreamBatch(context.Background(), qs, pathenum.Options{}), len(qs))
	if errs[0] != nil || errs[2] != nil || errs[1] == nil {
		t.Fatalf("errs = %v, want only slot 1 invalid", errs)
	}
	if results[0] == nil || results[0] != results[2] {
		t.Fatalf("duplicate slots got %p and %p, want one shared Result", results[0], results[2])
	}
	want, err := pathenum.Count(g, q)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Counters.Results != want {
		t.Fatalf("count %d, want %d", results[0].Counters.Results, want)
	}
	if stats.Queries != 3 || stats.Invalid != 1 || stats.Deduped < 1 || stats.Unique != 1 {
		t.Fatalf("stats %+v, want Queries 3, Invalid 1, Deduped >= 1, Unique 1", stats)
	}
}

// At P=1 every query is confined to the one shard, so the router's stats
// must equal the unsharded engine's for the same batch.
func TestShardStreamBatchP1StatsMatchEngine(t *testing.T) {
	g := testGraph(47)
	e := newShardEngine(t, g, 1)
	single, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(79))
	hub := pathenum.VertexID(0)
	var qs []pathenum.Query
	for _, tt := range rng.Perm(g.NumVertices() - 1)[:12] {
		qs = append(qs, pathenum.Query{S: hub, T: pathenum.VertexID(1 + tt), K: 4})
	}
	qs = append(qs, qs[3], qs[5], pathenum.Query{S: hub, T: hub, K: 4})
	_, _, want := single.ExecuteBatch(context.Background(), qs, pathenum.Options{})
	_, _, got := drainStream(t, e.StreamBatch(context.Background(), qs, pathenum.Options{}), len(qs))
	for _, st := range []*pathenum.BatchStats{want, got} {
		st.Elapsed, st.SharedBFS, st.GroupTimings = 0, 0, nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("P=1 stats differ:\nsharded %+v\nengine  %+v", *got, *want)
	}
	if got.Deduped != 2 || got.Invalid != 1 || got.SharedSourceGroups == 0 {
		t.Fatalf("stats %+v, want 2 deduped, 1 invalid, a shared-source group", *got)
	}
}

// Breaking out of a sharded StreamBatch after the first item, or running
// it on a cancelled context, must leave no goroutine behind; cancelled
// valid slots carry ctx.Err().
func TestShardStreamBatchAbandonAndCancel(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *pathenum.Graph
	}{
		{"confined", confinedGraph(t, 53)},
		{"boundary", testGraph(53)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newShardEngine(t, tc.g, 2)
			intra, cross := pickQueries(t, e, tc.g, 5, 83)
			qs := []pathenum.Query{intra, cross, intra, {S: cross.S, T: cross.S, K: 5}, cross}
			before := runtime.NumGoroutine()
			for i := 0; i < 20; i++ {
				for range e.StreamBatch(context.Background(), qs, pathenum.Options{}) {
					break // abandon after the first item
				}
			}
			waitGoroutines(t, before)

			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			_, errs, stats := drainStream(t, e.StreamBatch(ctx, qs, pathenum.Options{}), len(qs))
			for i, err := range errs {
				if i == 3 {
					if err == nil || errors.Is(err, context.Canceled) {
						t.Fatalf("invalid slot: %v, want its validation error", err)
					}
					continue
				}
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("slot %d: %v, want context.Canceled", i, err)
				}
			}
			if stats.Invalid != 1 {
				t.Fatalf("stats.Invalid = %d, want 1", stats.Invalid)
			}
			waitGoroutines(t, before)
		})
	}
}

// waitGoroutines waits up to two seconds for the goroutine count to fall
// back to before.
func waitGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if now := runtime.NumGoroutine(); now <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
