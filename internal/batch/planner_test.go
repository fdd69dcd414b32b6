package batch

import (
	"testing"

	"pathenum/internal/core"
	"pathenum/internal/gen"
	"pathenum/internal/graph"
)

func testGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.BarabasiAlbert(50, 3, 7)
}

// coverage asserts the groups partition the unique queries exactly.
func coverage(t *testing.T, plan *Plan) {
	t.Helper()
	seen := make([]int, len(plan.Unique))
	for _, g := range plan.Groups {
		if g.Kind != KindSingleton && len(g.Members) < 2 {
			t.Errorf("shared group %v has %d members", g, len(g.Members))
		}
		for _, u := range g.Members {
			seen[u]++
		}
	}
	for u, c := range seen {
		if c != 1 {
			t.Errorf("unique query %d covered %d times", u, c)
		}
	}
}

func TestPlanDedup(t *testing.T) {
	g := testGraph(t)
	queries := []core.Query{
		{S: 0, T: 9, K: 4},
		{S: 0, T: 9, K: 4}, // exact duplicate
		{S: 0, T: 9, K: 5}, // different k: NOT a duplicate
		{S: 0, T: 9, K: 4}, // another duplicate
	}
	plan := NewPlanner(g).Plan(queries)
	if len(plan.Unique) != 2 {
		t.Fatalf("Unique = %d, want 2", len(plan.Unique))
	}
	if got := plan.Slots[0]; len(got) != 3 {
		t.Fatalf("slots for duplicate = %v, want 3 positions", got)
	}
	st := plan.Stats()
	if st.Deduped != 2 || st.Queries != 4 || st.Unique != 2 {
		t.Fatalf("stats = %+v, want Deduped=2 Unique=2 Queries=4", st)
	}
	coverage(t, plan)
}

func TestPlanGrouping(t *testing.T) {
	g := testGraph(t)
	queries := []core.Query{
		// Three sharing source 1.
		{S: 1, T: 10, K: 4}, {S: 1, T: 11, K: 5}, {S: 1, T: 12, K: 3},
		// Two sharing target 20.
		{S: 2, T: 20, K: 4}, {S: 3, T: 20, K: 4},
		// A loner.
		{S: 30, T: 31, K: 4},
	}
	plan := NewPlanner(g).Plan(queries)
	st := plan.Stats()
	if st.SharedSourceGroups != 1 || st.SharedTargetGroups != 1 || st.Singletons != 1 {
		t.Fatalf("group mix = %+v, want 1 shared-source, 1 shared-target, 1 singleton", st)
	}
	// BFS accounting: naive = 2*6 = 12; plan = (1+3) + (1+2) + 2 = 9.
	if st.BFSPassesNaive != 12 || st.BFSPasses != 9 || st.BFSPassesSaved != 3 {
		t.Fatalf("BFS passes = naive %d actual %d saved %d, want 12/9/3",
			st.BFSPassesNaive, st.BFSPasses, st.BFSPassesSaved)
	}
	// The shared-source group must carry maxK = 5 so every member fits.
	for _, grp := range plan.Groups {
		if grp.Kind == KindSharedSource && grp.MaxK != 5 {
			t.Fatalf("shared-source MaxK = %d, want 5", grp.MaxK)
		}
	}
	coverage(t, plan)
}

// TestPlanDegenerateSharedGroup: when a bucket's peers all choose the
// other endpoint, the leftover single-member bucket must degenerate to a
// singleton rather than pay a useless shared pass.
func TestPlanDegenerateSharedGroup(t *testing.T) {
	g := testGraph(t)
	// srcCount[a]=2, tgtCount[x]=2: (a,x) and (a,y) go to source group a
	// (ties prefer source), leaving (b,x) alone in target bucket x.
	queries := []core.Query{
		{S: 1, T: 10, K: 4}, // (a,x)
		{S: 1, T: 11, K: 4}, // (a,y)
		{S: 2, T: 10, K: 4}, // (b,x)
	}
	plan := NewPlanner(g).Plan(queries)
	st := plan.Stats()
	if st.SharedSourceGroups != 1 || st.SharedTargetGroups != 0 || st.Singletons != 1 {
		t.Fatalf("group mix = %+v, want 1 shared-source + 1 singleton", st)
	}
	coverage(t, plan)
}

func TestPlanInvalidQueries(t *testing.T) {
	g := testGraph(t)
	queries := []core.Query{
		{S: 0, T: 9, K: 4},
		{S: 5, T: 5, K: 4},    // s == t
		{S: 0, T: 9, K: 0},    // k < 1
		{S: 0, T: 9999, K: 4}, // out of range
	}
	plan := NewPlanner(g).Plan(queries)
	if len(plan.Unique) != 1 {
		t.Fatalf("Unique = %d, want 1", len(plan.Unique))
	}
	st := plan.Stats()
	if st.Invalid != 3 {
		t.Fatalf("Invalid = %d, want 3", st.Invalid)
	}
	for i := 1; i <= 3; i++ {
		if plan.Invalid()[i] == nil {
			t.Errorf("position %d: expected validation error", i)
		}
	}
	// Invalid positions are never slots of a unique execution.
	if len(plan.Slots) != 1 || len(plan.Slots[0]) != 1 || plan.Slots[0][0] != 0 {
		t.Errorf("Slots = %v, want only position 0", plan.Slots)
	}
}

// scatter fans per-unique scheduler results back out to original batch
// positions: duplicates share one *core.Result, invalid positions carry
// their validation error.
func scatter(p *Plan, results []*core.Result, errs []error) ([]*core.Result, []error) {
	outRes := make([]*core.Result, p.Queries)
	outErr := make([]error, p.Queries)
	copy(outErr, p.Invalid())
	for u, slots := range p.Slots {
		for _, i := range slots {
			outRes[i], outErr[i] = results[u], errs[u]
		}
	}
	return outRes, outErr
}

// TestPlanCostOrder: groups come back sorted by descending cost so the
// scheduler starts the heaviest work first.
func TestPlanCostOrder(t *testing.T) {
	g := testGraph(t)
	queries := []core.Query{
		{S: 1, T: 10, K: 6}, {S: 1, T: 11, K: 6}, {S: 1, T: 12, K: 6}, {S: 1, T: 13, K: 6},
		{S: 2, T: 20, K: 2}, {S: 3, T: 20, K: 2},
		{S: 30, T: 31, K: 1},
	}
	plan := NewPlanner(g).Plan(queries)
	for i := 1; i < len(plan.Groups); i++ {
		if plan.Groups[i-1].Cost < plan.Groups[i].Cost {
			t.Fatalf("groups not sorted by cost: %v", plan.Groups)
		}
	}
	if plan.Groups[0].Kind != KindSharedSource || len(plan.Groups[0].Members) != 4 {
		t.Fatalf("biggest group should lead: %+v", plan.Groups[0])
	}
}
