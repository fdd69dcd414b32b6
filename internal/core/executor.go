package core

import (
	"context"
	"math"
	"time"

	"pathenum/internal/graph"
	"pathenum/internal/mem"
)

// executor owns the build → optimize → enumerate pipeline behind every
// query entry point: core.Run/RunContext, Session.Run/RunContext and (via
// sessions) the public Engine. Buffer reuse is pluggable — a long-lived
// executor amortizes the O(|V|) BFS labelings, position map and visited
// bitmap across queries, while one-shot runs simply use a throwaway
// executor and pay the allocations once.
//
// An executor is NOT safe for concurrent use; Session inherits that
// restriction and the Engine keeps one per worker.
type executor struct {
	g       *graph.Graph
	scratch *bfsScratch
	pos     []int32
	onPath  []bool  // allocated lazily by the first DFS enumeration
	seen    []int32 // allocated lazily by the first join: path validation epochs
	oracle  DistanceOracle
	budget  *mem.Budget // nil = unbudgeted; admits join build sides
}

func newExecutor(g *graph.Graph, oracle DistanceOracle) *executor {
	n := g.NumVertices()
	return &executor{
		g:       g,
		scratch: newBFSScratch(n),
		pos:     make([]int32, n),
		oracle:  oracle,
	}
}

// SessionScratchBytes returns the worst-case resident size of one
// session's pooled per-query scratch on an n-vertex graph: the two BFS
// labelings, the BFS queue, the index position map, the DFS visited
// bitmap and the join validation epochs (4+4+4+4+1+4 = 21 bytes per
// vertex; the O(k) path buffers are noise against that). The engine
// charges this per pooled session under mem.ClassScratch — the scratch
// is not optional, so it is accounted with Budget.Must and the effective
// budget is floored at the scratch requirement.
func SessionScratchBytes(n int) int64 { return int64(n) * 21 }

// execute runs one query through the full pipeline: oracle feasibility
// check, index construction (Algorithm 3), plan selection (§6) and
// enumeration (Algorithm 4 or 6).
//
// Cancellation is observed at three points: a context already done on
// entry returns its error before any work; a context done after the index
// build returns the partial Result (Completed=false) without enumerating;
// and during enumeration the amortized RunControl.ShouldStop hook stops
// the run within ~stopCheckInterval expansion events. opts.Timeout flows
// only through the hook — the build phase is O(|E|) bounded and was never
// deadline-checked.
func (e *executor) execute(ctx context.Context, q Query, opts Options) (*Result, error) {
	return e.executeShared(ctx, q, opts, nil, nil)
}

// executeShared is execute with optionally precomputed distance labelings:
// a non-nil fwd replaces the forward BFS from q.S and a non-nil bwd the
// backward BFS from q.T. This is the batch subsystem's entry point — a
// shared-source group passes one forward Frontier to every member, so each
// member pays a single per-query BFS pass instead of two. Frontier labels
// are a sound relaxation of the per-query ones (see the Frontier doc);
// Result.Timings.BFS covers only the per-query passes actually run, and
// index statistics may report a slightly larger (superset) index.
func (e *executor) executeShared(ctx context.Context, q Query, opts Options, fwd, bwd *Frontier) (*Result, error) {
	if err := q.Validate(e.g); err != nil {
		return nil, err
	}
	if err := validateConstraints(&opts); err != nil {
		return nil, err
	}
	res := &Result{Query: q}
	// A simple path has at most |V|-1 edges, so a larger hop bound names
	// the same path set. Clamping it bounds the index's O(m·k) arrays by
	// the graph instead of the request; Result.Query keeps the caller's k.
	if n := e.g.NumVertices(); q.K > n-1 {
		q.K = n - 1
	}
	if fwd != nil {
		if err := fwd.compatible(e.g, q, true, opts.Predicate, opts.PredicateToken); err != nil {
			return nil, err
		}
	}
	if bwd != nil {
		if err := bwd.compatible(e.g, q, false, opts.Predicate, opts.PredicateToken); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	shouldStop := newStopper(ctx, opts.Timeout)
	oracle := opts.Oracle
	if oracle == nil {
		oracle = e.oracle
	}
	// A version-aware oracle built before a Dynamic.Insert must be
	// rejected, not consulted: its lower bounds no longer hold and would
	// silently over-prune the index (graph.ErrStaleEpoch under errors.Is).
	if err := validateOracle(oracle, e.g); err != nil {
		return nil, err
	}

	// Phase 1: index construction, with the BFS timed separately for the
	// Figure 12/17 breakdowns. The oracle answers provably infeasible
	// queries with no BFS at all (§7.5's response-time motivation).
	start := time.Now()
	if oracle != nil {
		if lb := oracle.LowerBound(q.S, q.T); lb < 0 || int(lb) > q.K {
			res.Completed = true
			res.Timings.Build = time.Since(start)
			res.Plan = Plan{Method: MethodDFS}
			return res, nil
		}
	}
	distS, distT := e.scratch.distS, e.scratch.distT
	if fwd != nil {
		distS = fwd.dist
	} else {
		e.scratch.runForward(e.g, q, opts.Predicate, oracle)
	}
	if bwd != nil {
		distT = bwd.dist
	} else {
		e.scratch.runBackward(e.g, q, opts.Predicate, oracle)
	}
	res.Timings.BFS = time.Since(start)
	ix := buildIndexFromDists(e.g, q, distS, distT, opts.Predicate, e.pos)
	res.Timings.Build = time.Since(start)
	res.IndexEdges = ix.Edges()
	res.IndexVertices = ix.NumIndexed()
	res.IndexBytes = ix.MemoryBytes()
	if ctx.Err() != nil {
		// Cancelled during the build: hand back what exists, enumerate
		// nothing. Work already started reports a partial Result rather
		// than an error, matching mid-enumeration cancellation.
		res.Plan = Plan{Method: MethodDFS}
		return res, nil
	}

	// Phase 2: plan selection (§6), then memory admission: a join plan
	// whose predicted build side (the Algorithm-5 estimate the planner
	// already computed) does not fit the remaining budget is demoted to
	// DFS *before* materializing anything. Path sets are pinned equal —
	// DFS and join enumerate the same set — so the fallback degrades cost,
	// never correctness. An admitted build side holds its reservation
	// (mem.ClassBuild) for the duration of the enumeration.
	optStart := time.Now()
	res.Plan = selectPlan(ix, opts)
	res.Timings.Optimize = time.Since(optStart)
	if res.Plan.Method == MethodJoin && e.budget != nil && res.Plan.Full != nil {
		need := predictedBuildBytes(res.Plan.Full, res.Plan.Cut, res.Plan.Build)
		if e.budget.TryReserve(mem.ClassBuild, need) {
			defer e.budget.Release(mem.ClassBuild, need)
		} else {
			res.Plan.Method = MethodDFS
			res.MemFallback = true
		}
	}

	// Phase 3: enumeration, fanned across shard goroutines when the
	// caller requested intra-query parallelism (the fan-out covers only
	// this phase; phases 1-2 and the join's build side stay sequential).
	ctl := RunControl{Emit: opts.Emit, Limit: opts.Limit, ShouldStop: shouldStop}
	par := opts.Parallelism
	enumStart := time.Now()
	switch res.Plan.Method {
	case MethodJoin:
		// The plan resolved the build side from the estimate it already
		// computed; the probe side streams through ctl.Emit tuple-at-a-time,
		// so a pull consumer (Session.Stream) gets its first joined path
		// after building only the smaller half.
		var done bool
		var err error
		if par > 1 {
			done, err = EnumerateJoinSideParallel(ix, res.Plan.Cut, res.Plan.Build, par, ctl, &res.Counters, &res.JoinStats)
		} else {
			// Sequential joins validate through the session's pooled seen
			// buffer instead of a per-run O(|V|) make (cleared here: the
			// enumerator's epoch counter restarts at zero every run).
			if e.seen == nil {
				e.seen = make([]int32, e.g.NumVertices())
			} else {
				clear(e.seen)
			}
			done, err = enumerateJoinSideSeen(ix, res.Plan.Cut, res.Plan.Build, e.seen, ctl, &res.Counters, &res.JoinStats)
		}
		if err != nil {
			return nil, err
		}
		res.Completed = done
	default:
		if par > 1 {
			res.Completed = enumerateDFSParallel(ix, par, opts.Accumulate, opts.Sequence, ctl, &res.Counters)
		} else {
			res.Completed = e.enumerateDFS(ix, opts.Accumulate, opts.Sequence, ctl, &res.Counters)
		}
	}
	res.Timings.Enumerate = time.Since(enumStart)
	return res, nil
}

// newStopper builds the RunControl.ShouldStop hook for one run, folding the
// context's cancellation/deadline and the optional Options.Timeout into a
// single check. It returns nil when the run is unbounded, so enumerators
// skip the poll entirely. The enumerators invoke the hook on an amortized
// event counter (every stopCheckInterval expansions), which keeps the
// time.Now/ctx.Err cost off the per-node hot path.
func newStopper(ctx context.Context, timeout time.Duration) func() bool {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	done := ctx.Done()
	if deadline.IsZero() && done == nil {
		return nil
	}
	return func() bool {
		if done != nil && ctx.Err() != nil {
			return true
		}
		return !deadline.IsZero() && time.Now().After(deadline)
	}
}

// selectPlan applies the method override or runs the two-phase optimizer.
// Constrained queries always plan DFS: only the DFS carries Appendix-E
// state through its recursion (see dfsConstraints).
func selectPlan(ix *Index, opts Options) Plan {
	method := opts.Method
	if opts.Accumulate != nil || opts.Sequence != nil {
		method = MethodDFS
	}
	switch method {
	case MethodDFS:
		return Plan{Method: MethodDFS, Preliminary: PreliminaryEstimate(ix)}
	case MethodJoin:
		est := FullEstimate(ix)
		plan := Plan{Method: MethodJoin, Cut: est.Cut, Full: est, Preliminary: PreliminaryEstimate(ix)}
		if est.Cut == 0 {
			plan.Method = MethodDFS // k < 2 leaves no interior cut
		} else {
			plan.Build = est.BuildSideAt(est.Cut)
		}
		return plan
	default:
		return ChoosePlan(ix, opts.Tau)
	}
}

// predictedBuildBytes converts the estimator's tuple count at the cut
// into the bytes EnumerateJoinSide would materialize for that side: the
// flat walk storage (buildLen vertices per tuple) plus one bucket index
// per tuple, 4 bytes each — the same shape JoinStats.PartialBytes reports
// after the fact. Saturates instead of overflowing on pathological
// estimates (which then only admit under an unlimited budget).
func predictedBuildBytes(est *Estimate, cut int, side BuildSide) int64 {
	k := len(est.SumFromS) - 1
	if side == BuildAuto {
		side = est.BuildSideAt(cut)
	}
	tuples := est.SumFromS[cut]
	buildLen := cut + 1
	if side == BuildRight {
		tuples = est.SumToT[cut]
		buildLen = k - cut + 1
	}
	per := uint64(buildLen+1) * 4
	if per == 0 || tuples > math.MaxInt64/per {
		return math.MaxInt64
	}
	return int64(tuples * per)
}

// enumerateDFS is EnumerateDFS with the executor's reusable visited bitmap
// and the query's Appendix-E constraints. The bitmap is clean on entry and
// restored to clean on exit (the search unsets every bit it sets; early
// stops sweep the residual path).
func (e *executor) enumerateDFS(ix *Index, acc *Accumulator, seq *SequenceConstraint, ctl RunControl, ctr *Counters) bool {
	if ix.Empty() {
		return true
	}
	if e.onPath == nil {
		e.onPath = make([]bool, e.g.NumVertices())
	}
	ds := newDFSSearcher(ix, e.onPath, acc, seq, ctl, ctr)
	ds.search()
	for _, v := range ds.path {
		ds.onPath[v] = false
	}
	return !ds.stopped
}

// buildIndexFromDists is buildIndexFrom with caller-owned distance arrays
// and pos buffer, so repeated builds avoid the O(|V|) allocations and the
// batch subsystem can substitute shared Frontier labelings for either
// side. The index borrows the pos buffer: it is valid until the next build
// that reuses it. The distance arrays are only read.
func buildIndexFromDists(g *graph.Graph, q Query, distS, distT []int32, pred EdgePredicate, pos []int32) *Index {
	n := g.NumVertices()
	k := q.K
	k32 := int32(k)

	ix := &Index{g: g, q: q, k: k, pred: pred}
	ix.pos = pos
	for i := range ix.pos {
		ix.pos[i] = -1
	}

	inX := func(v graph.VertexID) bool {
		ds, dt := distS[v], distT[v]
		return ds >= 0 && dt >= 0 && ds+dt <= k32
	}
	// The partition X (lines 2-4). If either endpoint is outside X there is
	// no s-t path of length <= k and the index stays empty.
	if !inX(q.S) || !inX(q.T) {
		ix.empty = true
		ix.cSize = make([]int64, k+1)
		ix.sumIt = make([]uint64, k)
		return ix
	}
	for v := 0; v < n; v++ {
		if inX(graph.VertexID(v)) {
			ix.pos[v] = int32(len(ix.verts))
			ix.verts = append(ix.verts, graph.VertexID(v))
		}
	}
	m := len(ix.verts)
	ix.vs = make([]int32, m)
	ix.vt = make([]int32, m)
	for p, v := range ix.verts {
		ix.vs[p] = distS[v]
		ix.vt[p] = distT[v]
	}
	ix.buildForward(distT)
	ix.buildReverse(distS)
	ix.collectStats()
	return ix
}
