package batch

import (
	"math"
	"sort"

	"pathenum/internal/core"
	"pathenum/internal/graph"
)

// Group is one unit of scheduled work: a set of unique queries that share
// a frontier (or a singleton with nothing to share).
type Group struct {
	Kind GroupKind
	// Hub is the shared endpoint: the common source (KindSharedSource),
	// the common target (KindSharedTarget), or the query's source for a
	// singleton.
	Hub graph.VertexID
	// MaxK is the largest hop constraint among the members; the shared
	// frontier is built to this bound so every member can reuse it.
	MaxK int
	// Members indexes into Plan.Unique.
	Members []int
	// Cost is the planner's scheduling estimate — a proxy for the group's
	// enumeration work, not a time prediction: members × maxK, scaled by
	// the hub's degree (log-damped). The scheduler runs expensive groups
	// first so a heavy group is not left to straggle on one worker at the
	// end of the batch (LPT-style makespan heuristic).
	Cost float64
}

// Plan is the output of the Planner: the deduplicated query list, the
// fan-out map back to original batch positions, the shared-computation
// groups, and the two-sided shared-frontier specs.
type Plan struct {
	// Queries is the original batch size.
	Queries int
	// Unique holds the deduplicated valid queries, in first-seen order.
	Unique []core.Query
	// Slots maps each unique query to the original batch positions it
	// answers (always at least one).
	Slots [][]int
	// Groups covers every unique query exactly once, sorted by descending
	// Cost (the scheduling order).
	Groups []Group
	// Shared lists every BFS side (origin, direction) that two or more
	// unique queries need — group hubs and, for hub-to-hub batches, the
	// members' second sides too. The scheduler builds each exactly once
	// and serves all users from the result, in first-seen order over
	// Unique (forward side before backward per query).
	Shared []FrontierSpec

	invalid   []error // per original position; nil when the query is valid
	soloSides int     // BFS sides needed by exactly one unique query
}

// Planner canonicalizes and groups query batches for one graph.
type Planner struct {
	g *graph.Graph
}

// NewPlanner creates a planner over g.
func NewPlanner(g *graph.Graph) *Planner { return &Planner{g: g} }

// Plan canonicalizes the batch: invalid queries are rejected into per-slot
// errors, exact duplicates (same s, t, k) collapse onto one execution, and
// the surviving unique queries are grouped for shared-BFS execution.
//
// Grouping is a bipartite-greedy cover of the (source, target)
// co-occurrence graph: repeatedly commit the endpoint bucket — source or
// target side — holding the most still-unassigned queries (ties prefer the
// source side, then the lower hub id), until no bucket holds two; the
// leftovers are singletons. Greedy max-coverage rather than the (NP-hard)
// optimal cover, but it dominates any single fixed side assignment.
//
// A separate two-sided pass then records every BFS side that two or more
// unique queries need — across group boundaries and including members'
// second sides — as Plan.Shared specs, so a hub-to-hub batch costs one
// frontier per distinct endpoint rather than one per group plus one per
// member.
func (p *Planner) Plan(queries []core.Query) *Plan {
	plan := &Plan{
		Queries: len(queries),
		invalid: make([]error, len(queries)),
	}

	// Pass 1: validate + dedup.
	type key struct {
		s, t graph.VertexID
		k    int
	}
	uniq := make(map[key]int, len(queries))
	for i, q := range queries {
		if err := q.Validate(p.g); err != nil {
			plan.invalid[i] = err
			continue
		}
		ck := key{q.S, q.T, q.K}
		u, ok := uniq[ck]
		if !ok {
			u = len(plan.Unique)
			uniq[ck] = u
			plan.Unique = append(plan.Unique, q)
			plan.Slots = append(plan.Slots, nil)
		}
		plan.Slots[u] = append(plan.Slots[u], i)
	}

	// Passes 2+3: bipartite-greedy grouping. Each round recounts the
	// endpoint buckets over still-unassigned queries and commits the
	// largest one (>= 2 members) as a group; committing a bucket shrinks
	// its members' opposite-side buckets, so the recount is what makes
	// the cover greedy rather than a fixed one-shot assignment. O(rounds
	// x unique) with rounds <= groups — fine at batch sizes.
	assigned := make([]bool, len(plan.Unique))
	remaining := len(plan.Unique)
	for remaining > 0 {
		srcCount := make(map[graph.VertexID]int)
		tgtCount := make(map[graph.VertexID]int)
		for u, q := range plan.Unique {
			if assigned[u] {
				continue
			}
			srcCount[q.S]++
			tgtCount[q.T]++
		}
		// Deterministic argmax: more members wins, ties prefer the source
		// side, then the lower hub id.
		bestN, bestFwd, bestHub := 1, false, graph.VertexID(0)
		better := func(n int, fwd bool, hub graph.VertexID) bool {
			if n != bestN {
				return n > bestN
			}
			if fwd != bestFwd {
				return fwd
			}
			return hub < bestHub
		}
		for u, q := range plan.Unique {
			if assigned[u] {
				continue
			}
			if n := srcCount[q.S]; n > 1 && better(n, true, q.S) {
				bestN, bestFwd, bestHub = n, true, q.S
			}
			if n := tgtCount[q.T]; n > 1 && better(n, false, q.T) {
				bestN, bestFwd, bestHub = n, false, q.T
			}
		}
		if bestN < 2 {
			break
		}
		var members []int
		for u, q := range plan.Unique {
			if assigned[u] {
				continue
			}
			if (bestFwd && q.S == bestHub) || (!bestFwd && q.T == bestHub) {
				members = append(members, u)
				assigned[u] = true
				remaining--
			}
		}
		kind := KindSharedTarget
		if bestFwd {
			kind = KindSharedSource
		}
		plan.Groups = append(plan.Groups, p.shared(kind, bestHub, members, plan.Unique))
	}
	for u, q := range plan.Unique {
		if !assigned[u] {
			plan.Groups = append(plan.Groups, p.singleton(u, q))
		}
	}

	// Scheduling order: most expensive first, with a deterministic
	// tie-break so plans are reproducible.
	sort.SliceStable(plan.Groups, func(i, j int) bool {
		gi, gj := plan.Groups[i], plan.Groups[j]
		if gi.Cost != gj.Cost {
			return gi.Cost > gj.Cost
		}
		if gi.Kind != gj.Kind {
			return gi.Kind > gj.Kind
		}
		return gi.Hub < gj.Hub
	})

	// Pass 4: two-sided sharing. Every unique query needs a forward BFS
	// from its source and a backward BFS to its target; any (origin,
	// direction) needed twice — by a group's members, or across group
	// boundaries — becomes a shared spec built once at the largest bound
	// its users require. Group hub sides always qualify; in a hub-to-hub
	// batch the members' second sides do too.
	type sideKey struct {
		origin  graph.VertexID
		forward bool
	}
	sides := make(map[sideKey]*FrontierSpec, 2*len(plan.Unique))
	var order []sideKey
	record := func(origin graph.VertexID, forward bool, k int) {
		sk := sideKey{origin, forward}
		spec := sides[sk]
		if spec == nil {
			spec = &FrontierSpec{Origin: origin, Forward: forward}
			sides[sk] = spec
			order = append(order, sk)
		}
		spec.Uses++
		if k > spec.MaxK {
			spec.MaxK = k
		}
	}
	for _, q := range plan.Unique {
		record(q.S, true, q.K)
		record(q.T, false, q.K)
	}
	for _, sk := range order {
		spec := sides[sk]
		if spec.Uses >= 2 {
			plan.Shared = append(plan.Shared, *spec)
		} else {
			plan.soloSides++
		}
	}
	return plan
}

func (p *Planner) singleton(u int, q core.Query) Group {
	return Group{
		Kind:    KindSingleton,
		Hub:     q.S,
		MaxK:    q.K,
		Members: []int{u},
		Cost:    groupCost(p.g, q.S, q.K, 1),
	}
}

func (p *Planner) shared(kind GroupKind, hub graph.VertexID, members []int, unique []core.Query) Group {
	if len(members) == 1 {
		return p.singleton(members[0], unique[members[0]])
	}
	maxK := 0
	for _, u := range members {
		if unique[u].K > maxK {
			maxK = unique[u].K
		}
	}
	return Group{
		Kind:    kind,
		Hub:     hub,
		MaxK:    maxK,
		Members: members,
		Cost:    groupCost(p.g, hub, maxK, len(members)),
	}
}

// groupCost is the scheduling proxy documented on Group.Cost.
func groupCost(g *graph.Graph, hub graph.VertexID, maxK, size int) float64 {
	return float64(size*maxK) * (1 + math.Log1p(float64(g.Degree(hub))))
}

// Invalid returns the per-original-position validation errors (nil slots
// are valid queries). Streaming consumers use it to deliver rejections
// before execution starts; the slice is owned by the plan — read only.
func (p *Plan) Invalid() []error { return p.invalid }

// Stats seeds the batch Stats with the planner-level accounting: dedup
// counts and the nominal BFS pass arithmetic. The scheduler fills in the
// timing fields.
func (p *Plan) Stats() *Stats {
	st := &Stats{
		Queries: p.Queries,
		Unique:  len(p.Unique),
		Groups:  len(p.Groups),
	}
	valid := 0
	for _, err := range p.invalid {
		if err == nil {
			valid++
		} else {
			st.Invalid++
		}
	}
	st.Deduped = valid - st.Unique
	st.BFSPassesNaive = 2 * valid
	for _, g := range p.Groups {
		switch g.Kind {
		case KindSingleton:
			st.Singletons++
		case KindSharedSource:
			st.SharedSourceGroups++
		case KindSharedTarget:
			st.SharedTargetGroups++
		}
	}
	// Nominal passes under two-sided sharing: one per shared spec plus
	// one per side only a single query needs.
	st.BFSPasses = len(p.Shared) + p.soloSides
	st.BFSPassesSaved = st.BFSPassesNaive - st.BFSPasses
	st.SharedFrontiers = len(p.Shared)
	hubKeys := make(map[FrontierSpec]bool, len(p.Groups))
	for _, g := range p.Groups {
		if g.Kind == KindSingleton {
			continue
		}
		hubKeys[FrontierSpec{Origin: g.Hub, Forward: g.Kind == KindSharedSource}] = true
	}
	for _, spec := range p.Shared {
		if !hubKeys[FrontierSpec{Origin: spec.Origin, Forward: spec.Forward}] {
			st.TwoSidedFrontiers++
		}
	}
	return st
}
