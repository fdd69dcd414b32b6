package batch

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"pathenum/internal/core"
	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

// newTestScheduler builds a scheduler over a plain sync.Pool of sessions.
func newTestScheduler(g *graph.Graph, workers int) *Scheduler {
	pool := &sync.Pool{New: func() any { return core.NewSession(g, nil) }}
	return &Scheduler{
		Workers: workers,
		Acquire: func() *core.Session { return pool.Get().(*core.Session) },
		Release: func(s *core.Session) { pool.Put(s) },
	}
}

// randomBatch samples a mixed workload: shared-source clusters, shared-
// target clusters, duplicates and loners.
func randomBatch(rng *rand.Rand, n int, count int) []core.Query {
	var queries []core.Query
	v := func() graph.VertexID { return graph.VertexID(rng.Intn(n)) }
	for len(queries) < count {
		k := 2 + rng.Intn(4)
		switch rng.Intn(4) {
		case 0: // shared-source cluster
			s := v()
			for i := 0; i < 3 && len(queries) < count; i++ {
				queries = append(queries, core.Query{S: s, T: v(), K: k})
			}
		case 1: // shared-target cluster
			t := v()
			for i := 0; i < 3 && len(queries) < count; i++ {
				queries = append(queries, core.Query{S: v(), T: t, K: k})
			}
		case 2: // duplicate of an earlier query
			if len(queries) > 0 {
				queries = append(queries, queries[rng.Intn(len(queries))])
			}
		default: // loner
			queries = append(queries, core.Query{S: v(), T: v(), K: k})
		}
	}
	return queries
}

// TestExecuteMatchesSequential: the scheduled shared-computation execution
// must produce exactly the per-query counts of the plain core pipeline on
// random mixed batches (the acceptance cross-check at the subsystem
// level).
func TestExecuteMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	for trial := 0; trial < 10; trial++ {
		n := 30 + rng.Intn(40)
		g := gen.BarabasiAlbert(n, 3, rng.Int63())
		queries := randomBatch(rng, n, 20+rng.Intn(20))
		plan := NewPlanner(g).Plan(queries)
		sch := newTestScheduler(g, 1+rng.Intn(4))

		uniqRes, uniqErrs, stats := sch.Execute(ctx, g, plan, core.Options{})
		results, errs := scatter(plan, uniqRes, uniqErrs)

		for i, q := range queries {
			if q.Validate(g) != nil {
				if errs[i] == nil {
					t.Fatalf("trial %d query %d: invalid query got no error", trial, i)
				}
				continue
			}
			if errs[i] != nil {
				t.Fatalf("trial %d query %d: %v", trial, i, errs[i])
			}
			want, err := core.Count(g, q)
			if err != nil {
				t.Fatal(err)
			}
			if got := results[i].Counters.Results; got != want {
				t.Fatalf("trial %d %v: batch count %d != sequential %d", trial, q, got, want)
			}
		}
		if stats.BFSPasses > stats.BFSPassesNaive {
			t.Fatalf("trial %d: plan runs more BFS passes (%d) than naive (%d)",
				trial, stats.BFSPasses, stats.BFSPassesNaive)
		}
	}
}

// TestExecutePredicateBatch: a constraint-carrying batch (edge predicate)
// agrees with sequential predicate runs.
func TestExecutePredicateBatch(t *testing.T) {
	g := gen.BarabasiAlbert(60, 3, 11)
	pred := func(from, to graph.VertexID) bool { return (int(from)+int(to))%4 != 0 }
	queries := []core.Query{
		{S: 0, T: 10, K: 5}, {S: 0, T: 11, K: 5}, {S: 0, T: 12, K: 4},
		{S: 5, T: 20, K: 5}, {S: 6, T: 20, K: 5},
	}
	plan := NewPlanner(g).Plan(queries)
	sch := newTestScheduler(g, 2)
	// No PredicateToken: the predicate is opaque, so the scheduler must
	// degrade to unshared per-member execution rather than share a
	// frontier whose predicate identity it cannot name.
	opts := core.Options{Predicate: pred}
	uniqRes, uniqErrs, stats := sch.Execute(context.Background(), g, plan, opts)
	if stats.BFSPassesRun != 2*stats.Unique {
		t.Fatalf("opaque predicate must run 2 passes per unique query, ran %d for %d", stats.BFSPassesRun, stats.Unique)
	}
	results, errs := scatter(plan, uniqRes, uniqErrs)
	for i, q := range queries {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		want, err := core.Run(g, q, core.Options{Predicate: pred})
		if err != nil {
			t.Fatal(err)
		}
		if results[i].Counters.Results != want.Counters.Results {
			t.Fatalf("%v: predicate batch count %d != sequential %d",
				q, results[i].Counters.Results, want.Counters.Results)
		}
	}
}

// TestExecuteCancelledMidway: cancelling during a batch must fail
// not-yet-started members fast with ctx.Err() while in-flight queries stop
// early, and Execute must still return (no deadlock on the pool). The
// cancel fires from the first emitted path, so with one worker it lands
// deterministically while later members are still queued behind the
// semaphore.
func TestExecuteCancelledMidway(t *testing.T) {
	g := gen.BarabasiAlbert(200, 4, 3)
	var queries []core.Query
	for i := 1; i < 64; i++ {
		queries = append(queries, core.Query{S: 0, T: graph.VertexID(i), K: 8})
	}
	plan := NewPlanner(g).Plan(queries)
	sch := newTestScheduler(g, 1)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var once sync.Once
	opts := core.Options{Emit: func([]graph.VertexID) bool {
		once.Do(cancel)
		return true
	}}
	done := make(chan struct{})
	var errs []error
	go func() {
		defer close(done)
		_, uniqErrs, _ := sch.Execute(ctx, g, plan, opts)
		errs = uniqErrs
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Execute did not return after cancellation")
	}
	cancelled := 0
	for _, err := range errs {
		if errors.Is(err, context.Canceled) {
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("no member observed the cancellation")
	}
}

// TestExecuteStatsTimings: every group reports a timing entry and shared
// groups record their frontier build.
func TestExecuteStatsTimings(t *testing.T) {
	g := gen.BarabasiAlbert(80, 3, 5)
	queries := []core.Query{
		{S: 0, T: 10, K: 5}, {S: 0, T: 11, K: 5}, {S: 0, T: 12, K: 5},
		{S: 40, T: 41, K: 3},
	}
	plan := NewPlanner(g).Plan(queries)
	sch := newTestScheduler(g, 4)
	_, _, stats := sch.Execute(context.Background(), g, plan, core.Options{})
	if len(stats.GroupTimings) != len(plan.Groups) {
		t.Fatalf("GroupTimings = %d entries, want %d", len(stats.GroupTimings), len(plan.Groups))
	}
	for _, gt := range stats.GroupTimings {
		if gt.Size == 0 {
			t.Fatalf("empty timing entry: %+v", gt)
		}
		if gt.Kind == KindSingleton && gt.SharedBFS != 0 {
			t.Fatalf("singleton reports shared BFS time: %+v", gt)
		}
	}
	if stats.Elapsed <= 0 {
		t.Fatal("Elapsed not recorded")
	}
	if stats.BFSPassesSaved != 2 {
		t.Fatalf("BFSPassesSaved = %d, want 2 (group of 3 saves 2)", stats.BFSPassesSaved)
	}
	// Without a FrontierProvider the actual passes match the plan's
	// nominal accounting and no cache counters move.
	if stats.BFSPassesRun != stats.BFSPasses {
		t.Fatalf("BFSPassesRun = %d, want nominal %d", stats.BFSPassesRun, stats.BFSPasses)
	}
	if stats.FrontierCacheHits != 0 || stats.FrontierCacheMisses != 0 {
		t.Fatalf("cache counters moved without a provider: %+v", stats)
	}
}
