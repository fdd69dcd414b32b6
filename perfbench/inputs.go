package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pathenum"
	"pathenum/internal/baseline"
	"pathenum/internal/core"
	"pathenum/internal/workload"
)

// Open-loop traffic of hub-batch-write. The rates keep the server about
// a sixth busy on the two-core reference machine. At 12 and 20 batches/s,
// spells of hypervisor steal on the shared host (up to a tenth of the
// CPU) pushed it into queueing, and the median tripled from run to run.
const (
	batchRate  = 8.0 // POST /batch arrivals per second
	insertRate = 1.0 // POST /insert arrivals per second
	batchSize  = 16
	// batchTopFrac keeps the batch hub pool at 8 vertices of ep, so the
	// 16 hub frontiers fit the 64-entry frontier cache beside the partner
	// frontiers it also admits.
	batchTopFrac = 0.002
	// ladderInserts is how many single-edge inserts the ladder replays.
	ladderInserts = 16
)

// event is one open-loop arrival: a batch or an insert, due at offset at
// from the start of the schedule.
type event struct {
	at     time.Duration
	insert bool
	idx    int // index into inputs.batches or inputs.inserts
}

// inputs is everything a run generates from its seed.
type inputs struct {
	queries []pathenum.Query // read pool, cycled by the closed loops
	ref     []uint64         // BC-DFS count of each pool query

	schedule []event
	batches  [][]pathenum.Query
	inserts  []pathenum.Edge

	ladderQ       []pathenum.Query
	ladderRef     []uint64
	ladderBatches [][]pathenum.Query
	ladderInserts []pathenum.Edge
}

// warmup is the untimed lead-in before a window: caches fill and lazy
// set-up finishes before any sample is kept.
func warmup(window time.Duration) time.Duration {
	return min(max(window/10, 200*time.Millisecond), 2*time.Second)
}

func makeInputs(s spec, g *pathenum.Graph, o options) (*inputs, error) {
	in := &inputs{}
	if s.pool > 0 {
		var err error
		if in.queries, err = drawPool(g, s, o.seed); err != nil {
			return nil, err
		}
		in.ref = bcdfsCounts(g, in.queries)
		n := min(s.ladder, len(in.queries))
		in.ladderQ, in.ladderRef = in.queries[:n], in.ref[:n]
		for i := 0; i < n; i += batchSize {
			in.ladderBatches = append(in.ladderBatches, in.ladderQ[i:min(i+batchSize, n)])
		}
	}
	rng := rand.New(rand.NewSource(o.seed*1_000_003 + 17))
	if s.name == "hub-batch-write" {
		total := warmup(seconds(o.seconds)) + seconds(o.seconds)
		nb := in.arrivals(rng, batchRate, total, false)
		ni := in.arrivals(rng, insertRate, total, true)
		sort.SliceStable(in.schedule, func(i, j int) bool { return in.schedule[i].at < in.schedule[j].at })
		for i := 0; i < nb; i++ {
			b, err := hubBatch(g, o.seed, i)
			if err != nil {
				return nil, err
			}
			in.batches = append(in.batches, b)
		}
		in.inserts = newEdges(g, rng, ni+ladderInserts)
		in.ladderInserts = in.inserts[ni:]
		in.inserts = in.inserts[:ni]
		for _, b := range in.batches[:s.ladder/batchSize] {
			in.ladderBatches = append(in.ladderBatches, b)
			in.ladderQ = append(in.ladderQ, b...)
		}
		in.ladderRef = bcdfsCounts(g, in.ladderQ)
	} else {
		in.ladderInserts = newEdges(g, rng, ladderInserts)
	}
	return in, nil
}

// poolOversample is how many candidates a stratified pool draws per
// query it keeps.
const poolOversample = 4

// drawPool draws the workload's read pool from the seed. Hub-to-hub
// queries cost from microseconds to a second, so a plain random pool of a
// few hundred would move a run's figures with the seed alone. Such pools
// are stratified instead: the seed draws poolOversample candidates per
// slot, ranks them by their walk count and keeps every poolOversample-th,
// so every seed's pool spans the cost distribution in the same
// proportions. Pools of cheap, alike queries are drawn plainly.
func drawPool(g *pathenum.Graph, s spec, seed int64) ([]pathenum.Query, error) {
	n := s.pool
	if s.setting == workload.HighHigh {
		n *= poolOversample
	}
	ws, err := workload.Generate(g, workload.Options{Setting: s.setting, Count: n, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("queries: %w", err)
	}
	qs := make([]pathenum.Query, len(ws))
	for i, w := range ws {
		qs[i] = pathenum.Query{S: w.S, T: w.T, K: s.k}
	}
	if n == s.pool {
		return qs, nil
	}
	cost := make([]float64, len(qs))
	cur, next := make([]float64, g.NumVertices()), make([]float64, g.NumVertices())
	for i, q := range qs {
		cost[i] = walkCount(g, q, cur, next)
	}
	idx := make([]int, len(qs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return cost[idx[a]] < cost[idx[b]] })
	rng := rand.New(rand.NewSource(seed))
	pool := make([]pathenum.Query, 0, s.pool)
	for i := rng.Intn(poolOversample); i < len(idx); i += poolOversample {
		pool = append(pool, qs[idx[i]])
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return pool, nil
}

// walkCount is the number of walks of at most q.K edges from q.S to
// q.T, a cheap stand-in for a query's cost computed without the engine.
// cur and next are scratch of one entry per vertex.
func walkCount(g *pathenum.Graph, q pathenum.Query, cur, next []float64) float64 {
	clear(cur)
	cur[q.S] = 1
	total := 0.0
	for l := 0; l < q.K; l++ {
		clear(next)
		for v, c := range cur {
			if c == 0 {
				continue
			}
			for _, w := range g.OutNeighbors(pathenum.VertexID(v)) {
				next[w] += c
			}
		}
		total += next[q.T]
		cur, next = next, cur
	}
	return total
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// arrivals appends a Poisson arrival process of the given rate over total
// to the schedule and returns how many arrivals it drew.
func (in *inputs) arrivals(rng *rand.Rand, rate float64, total time.Duration, insert bool) int {
	n := 0
	for t := time.Duration(rng.ExpFloat64() / rate * float64(time.Second)); t < total; t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second)) {
		in.schedule = append(in.schedule, event{at: t, insert: insert, idx: n})
		n++
	}
	return n
}

// hubBatch draws batch i: two shared-endpoint clusters of 8 queries over
// the small hub pool.
func hubBatch(g *pathenum.Graph, seed int64, i int) ([]pathenum.Query, error) {
	bs, err := workload.GenerateBatch(g, workload.BatchOptions{
		Count: batchSize, K: 5, GroupSize: 8, TopFrac: batchTopFrac,
		Seed: seed*7919 + int64(i),
	})
	if err != nil {
		return nil, fmt.Errorf("batch %d: %w", i, err)
	}
	qs := make([]pathenum.Query, len(bs))
	for j, q := range bs {
		qs[j] = pathenum.Query{S: q.S, T: q.T, K: q.K}
	}
	return qs, nil
}

// newEdges draws n distinct edges absent from g, between uniformly chosen
// distinct vertices.
func newEdges(g *pathenum.Graph, rng *rand.Rand, n int) []pathenum.Edge {
	nv := g.NumVertices()
	seen := map[pathenum.Edge]bool{}
	out := make([]pathenum.Edge, 0, n)
	for len(out) < n {
		e := pathenum.Edge{From: pathenum.VertexID(rng.Intn(nv)), To: pathenum.VertexID(rng.Intn(nv))}
		if e.From == e.To || seen[e] || g.HasEdge(e.From, e.To) {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// bcdfsCounts counts every query with the BC-DFS baseline, an
// implementation independent of the engine, on up to two cores.
func bcdfsCounts(g *pathenum.Graph, qs []pathenum.Query) []uint64 {
	out := make([]uint64, len(qs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(2, runtime.NumCPU()); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var bc baseline.BCDFS
			for {
				i := int(next.Add(1) - 1)
				if i >= len(qs) {
					return
				}
				if err := bc.Prepare(g, qs[i]); err != nil {
					out[i] = math.MaxUint64 // never equals a served count
					continue
				}
				var ctr core.Counters
				if _, err := bc.Enumerate(core.RunControl{}, &ctr); err != nil {
					out[i] = math.MaxUint64
					continue
				}
				out[i] = ctr.Results
			}
		}()
	}
	wg.Wait()
	return out
}

// sampleIndex picks, from the seed and the operation number, which of a
// query's n delivered paths the check decodes and validates.
func sampleIndex(seed int64, op int, n uint64) uint64 {
	if n == 0 {
		return math.MaxUint64
	}
	x := uint64(seed)*0x9E3779B97F4A7C15 + uint64(op)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	x *= 0x94D049BB133111EB
	x ^= x >> 29
	return x % n
}

// checkPath reports why p is not a simple q.S -> q.T path of at most
// q.K edges over edges of g, or "" when it is one.
func checkPath(g *pathenum.Graph, q pathenum.Query, p []pathenum.VertexID) string {
	switch {
	case len(p) < 2:
		return fmt.Sprintf("path %v too short", p)
	case p[0] != q.S || p[len(p)-1] != q.T:
		return fmt.Sprintf("path %v does not run %d -> %d", p, q.S, q.T)
	case len(p)-1 > q.K:
		return fmt.Sprintf("path %v longer than %d edges", p, q.K)
	}
	for i := range p {
		for j := i + 1; j < len(p); j++ {
			if p[i] == p[j] {
				return fmt.Sprintf("path %v repeats vertex %d", p, p[i])
			}
		}
		if i > 0 && !g.HasEdge(p[i-1], p[i]) {
			return fmt.Sprintf("path %v uses missing edge %d->%d", p, p[i-1], p[i])
		}
	}
	return ""
}
