package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"pathenum"
	"pathenum/internal/core"
	"pathenum/internal/server"
)

// traced is the --trace 1 run: the end-to-end window untraced, the same
// window traced (the difference is the tracing overhead), then the layer
// ladder. Each window gets a third of the run's seconds.
func (b *bench) traced(rep report) (attempted, failed int, err error) {
	third := b.o.seconds / 3
	plain, err := b.measure(third, nil)
	if err != nil {
		return 0, 0, err
	}
	if len(b.in.inserts) > 0 {
		// The first window's inserts are in the served graph; start the
		// second from the base graph so its own checks hold.
		if err := b.restartServer(); err != nil {
			return 0, 0, err
		}
	}
	b.tr = newTracer()
	win, err := b.measure(third, b.tr)
	if err != nil {
		return 0, 0, err
	}
	if err := b.ladder(rep); err != nil {
		return 0, 0, err
	}
	w := win.work
	ops := float64(win.completed)
	rep.add("engine.pool_utilization_mean", "ratio", w.UtilMean)
	rep.add("cache.hit_ratio", "ratio", ratio(float64(w.CacheHits), float64(w.CacheHits+w.CacheMisses)))
	rep.add("cache.evictions_per_op", "count", float64(w.CacheEvictions)/ops)
	rep.add("cache.invalidations_per_op", "count", float64(w.CacheInvalid)/ops)
	rep.add("cache.rejected_per_op", "count", float64(w.CacheRejected)/ops)
	rep.add("cache.bytes_peak_mib", "MiB", float64(w.CachePeakBytes)/(1<<20))
	rep.add("mem.used_peak_mib", "MiB", float64(w.MemPeakBytes)/(1<<20))
	rep.add("driver.cpu_share", "ratio", win.driverShare(b.s.http))
	rep.add("driver.late_p99_ms", "ms", win.late.pct(0.99))
	rep.add("runtime.gc_cpu_fraction", "ratio", w.GCCPUFraction)
	rep.add("runtime.gc_cycles_per_op", "count", float64(w.GCCycles)/ops)
	rep.add("trace.overhead_ratio", "ratio", win.query.pct(0.5)/plain.query.pct(0.5)-1)
	return plain.attempted + win.attempted, plain.failed + win.failed, nil
}

// countingWriter is an in-memory http.ResponseWriter that counts what the
// handler writes and flushes, so the server rung costs no transport.
type countingWriter struct {
	h                    http.Header
	status               int
	start                time.Time
	firstPath            time.Duration
	pathLines, pathBytes int64
	flushes              int64
	body                 bytes.Buffer // kept only for small replies
	keep                 bool
}

func (c *countingWriter) Header() http.Header {
	if c.h == nil {
		c.h = http.Header{}
	}
	return c.h
}

func (c *countingWriter) WriteHeader(code int) {
	if c.status == 0 {
		c.status = code
	}
}

// Write relies on json.Encoder writing each NDJSON line in one call.
func (c *countingWriter) Write(p []byte) (int, error) {
	if c.status == 0 {
		c.status = http.StatusOK
	}
	if bytes.HasPrefix(p, pathLinePrefix) {
		if c.pathLines == 0 {
			c.firstPath = time.Since(c.start)
		}
		c.pathLines++
		c.pathBytes += int64(len(p))
	}
	if c.keep {
		c.body.Write(p)
	}
	return len(p), nil
}

func (c *countingWriter) Flush() { c.flushes++ }

func serveInMemory(h http.Handler, req *http.Request, keep bool) *countingWriter {
	c := &countingWriter{keep: keep, start: time.Now()}
	h.ServeHTTP(c, req)
	return c
}

func countReached(g *pathenum.Graph, f *core.Frontier) int {
	n := 0
	for v := 0; v < g.NumVertices(); v++ {
		if f.Dist(pathenum.VertexID(v)) >= 0 {
			n++
		}
	}
	return n
}

// ladder replays the workload's ladder queries through one public entry
// point per module, bottom-up, each rung on the same queries, and derives
// each layer's self time as its rung minus the rung below. Every rung's
// answers are checked against the BC-DFS counts. Engines are fresh per
// rung so no rung inherits another's cache.
func (b *bench) ladder(rep report) error {
	g, tr := b.g, b.tr
	qs, ref := b.in.ladderQ, b.in.ladderRef
	n := float64(len(qs))
	cfg := b.cfg
	if b.s.http {
		var err error
		if cfg, err = b.s.engineConfig(g); err != nil {
			return err
		}
	}
	var engines []*pathenum.Engine
	newEngine := func() (*pathenum.Engine, error) {
		e, err := pathenum.NewEngine(g, cfg)
		engines = append(engines, e)
		return e, err
	}
	ctx := context.Background()
	root := tr.begin("ladder."+b.s.name, 0, -1)
	defer tr.end(root)
	want := func(rung string, i int, got uint64) {
		if got != ref[i] {
			b.fail("ladder %s %v: %d paths, BC-DFS counts %d", rung, qs[i], got, ref[i])
		}
	}

	// core: BFS, index, estimator and enumeration, one query at a time.
	var reached, idxEdges, idxVerts, idxBytes, joins float64
	var results, edges, invalid, buildTuples, probeWalks, partialBytes float64
	var qerr []float64
	var indexBFS time.Duration
	for i, q := range qs {
		req := int64(i)
		id := tr.begin("core.bfs.frontier", root, req)
		fwd, ferr := core.NewForwardFrontier(g, q.S, q.K, nil, core.PredicateNone)
		bwd, berr := core.NewBackwardFrontier(g, q.T, q.K, nil, core.PredicateNone)
		tr.end(id)
		if err := errors.Join(ferr, berr); err != nil {
			return fmt.Errorf("ladder bfs %v: %w", q, err)
		}
		reached += float64(countReached(g, fwd) + countReached(g, bwd))

		// The index runs its own bounded BFS into reused scratch, not the
		// frontier constructors, so the rung below it is the BFS phase the
		// build reports, not the frontier rung above.
		id = tr.begin("core.index", root, req)
		ix, tm, err := core.BuildIndexTimed(g, q)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("ladder index %v: %w", q, err)
		}
		indexBFS += tm.BFS
		idxEdges += float64(ix.Edges())
		idxVerts += float64(ix.NumIndexed())
		idxBytes += float64(ix.MemoryBytes())

		id = tr.begin("core.estimator.prelim", root, req)
		core.PreliminaryEstimate(ix)
		tr.end(id)
		id = tr.begin("core.estimator.full", root, req)
		est := core.FullEstimate(ix)
		tr.end(id)
		id = tr.begin("core.plan", root, req)
		plan := core.ChoosePlan(ix, 0)
		tr.end(id)
		if w, r := float64(est.Walks), float64(ref[i]); w > 0 && r > 0 {
			qerr = append(qerr, math.Max(w/r, r/w))
		}

		var ctr core.Counters
		var js core.JoinStats
		id = tr.begin("core.enum", root, req)
		if plan.Method == core.MethodJoin {
			_, err = core.EnumerateJoinSide(ix, plan.Cut, plan.Build, core.RunControl{}, &ctr, &js)
		} else {
			core.EnumerateDFS(ix, core.RunControl{}, &ctr)
		}
		tr.end(id)
		if err != nil {
			return fmt.Errorf("ladder enumerate %v: %w", q, err)
		}
		want("enumerate", i, ctr.Results)
		if plan.Method == core.MethodJoin {
			joins++
		}
		results += float64(ctr.Results)
		edges += float64(ctr.EdgesAccessed)
		invalid += float64(ctr.InvalidPartials)
		buildTuples += float64(js.BuildTuples)
		probeWalks += float64(js.ProbeWalks)
		partialBytes += float64(js.PartialBytes)
	}

	// core.Session: the whole pipeline with pooled buffers.
	sess := core.NewSession(g, nil)
	a0 := allocsNow()
	for i, q := range qs {
		id := tr.begin("core.session", root, int64(i))
		res, err := sess.Run(q, core.Options{})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("ladder session %v: %w", q, err)
		}
		want("session", i, res.Counters.Results)
	}
	sessAllocs := float64(allocsNow() - a0)

	// core stream: the same session, drained as a pull iterator.
	var corePaths float64
	var streamFirst time.Duration
	a0 = allocsNow()
	for i, q := range qs {
		id := tr.begin("core.stream", root, int64(i))
		start := time.Now()
		var got uint64
		for _, err := range sess.StreamWith(ctx, q, core.Options{}, core.StreamConfig{}) {
			if err != nil {
				return fmt.Errorf("ladder stream %v: %w", q, err)
			}
			if got == 0 {
				streamFirst += time.Since(start)
			}
			got++
		}
		tr.end(id)
		want("stream", i, got)
		corePaths += float64(got)
	}
	streamAllocs := float64(allocsNow() - a0)

	// root Engine: ExecuteWith count-only, then Stream drained.
	eng, err := newEngine()
	if err != nil {
		return err
	}
	a0 = allocsNow()
	for i, q := range qs {
		id := tr.begin("engine.execute", root, int64(i))
		res, err := eng.ExecuteWith(ctx, q, pathenum.Options{})
		tr.end(id)
		if err != nil {
			return fmt.Errorf("ladder engine %v: %w", q, err)
		}
		want("engine execute", i, res.Counters.Results)
	}
	engAllocs := float64(allocsNow() - a0)
	if eng, err = newEngine(); err != nil {
		return err
	}
	for i, q := range qs {
		id := tr.begin("engine.stream", root, int64(i))
		var got uint64
		for _, err := range eng.Stream(ctx, pathenum.NewRequest(q)) {
			if err != nil {
				return fmt.Errorf("ladder engine stream %v: %w", q, err)
			}
			got++
		}
		tr.end(id)
		want("engine stream", i, got)
	}

	// server: the /paths handler into an in-memory writer.
	if eng, err = newEngine(); err != nil {
		return err
	}
	h := server.New(eng, nil, server.Config{}).Handler()
	bodies := make([][]byte, len(qs))
	reqs := make([]*http.Request, len(qs))
	for i, q := range qs {
		bodies[i], _ = json.Marshal(wire(q))
		reqs[i] = httptest.NewRequest(http.MethodPost, "/paths", bytes.NewReader(bodies[i]))
	}
	var srvPaths, srvBytes, srvFlushes float64
	var srvFirst time.Duration
	a0 = allocsNow()
	for i := range qs {
		id := tr.begin("server.paths", root, int64(i))
		c := serveInMemory(h, reqs[i], false)
		tr.end(id)
		if c.status != http.StatusOK {
			return fmt.Errorf("ladder server %v: status %d", qs[i], c.status)
		}
		want("server", i, uint64(c.pathLines))
		srvPaths += float64(c.pathLines)
		srvBytes += float64(c.pathBytes)
		srvFlushes += float64(c.flushes)
		srvFirst += c.firstPath
	}
	srvAllocs := float64(allocsNow() - a0)

	// Loopback HTTP: the same handler behind a listener on 127.0.0.1.
	if eng, err = newEngine(); err != nil {
		return err
	}
	ts := httptest.NewServer(server.New(eng, nil, server.Config{}).Handler())
	client := newClient()
	br := bufio.NewReaderSize(nil, 64<<10)
	for i := range qs {
		var st streamed
		id := tr.begin("net.paths", root, int64(i))
		err := streamPaths(client, ts.URL, bodies[i], br, math.MaxUint64, &st)
		tr.end(id)
		if err != nil {
			client.CloseIdleConnections()
			ts.Close()
			return fmt.Errorf("ladder loopback %v: %w", qs[i], err)
		}
		want("loopback", i, st.paths)
	}
	client.CloseIdleConnections()
	ts.Close()

	if err := b.ladderBatches(rep, root, newEngine); err != nil {
		return err
	}
	if err := b.ladderWrites(rep, root, newEngine); err != nil {
		return err
	}
	var fallbacks uint64
	for _, e := range engines {
		if err := e.WaitOracle(ctx); err != nil {
			return err
		}
		fallbacks += e.MemStats().JoinFallbacks
	}

	per := func(name string) float64 { return us(tr.total(name)) / n }
	rep.add("core.bfs.us_per_query", "us", us(indexBFS)/n)
	rep.add("core.bfs.frontier_us_per_query", "us", per("core.bfs.frontier"))
	rep.add("core.bfs.reached_per_query", "count", reached/n)
	rep.add("core.index.self_us_per_query", "us", per("core.index")-us(indexBFS)/n)
	rep.add("core.index.edges_per_query", "count", idxEdges/n)
	rep.add("core.index.vertices_per_query", "count", idxVerts/n)
	rep.add("core.index.bytes_per_query", "bytes", idxBytes/n)
	rep.add("core.estimator.prelim_us", "us", per("core.estimator.prelim"))
	rep.add("core.estimator.full_us", "us", per("core.estimator.full"))
	rep.add("core.plan.join_ratio", "ratio", joins/n)
	rep.add("core.estimator.qerror_p50", "ratio", quantile(qerr, 0.5))
	rep.add("core.estimator.qerror_p99", "ratio", quantile(qerr, 0.99))
	rep.add("core.enum.us_per_query", "us", per("core.enum"))
	rep.add("core.enum.edges_accessed_per_query", "count", edges/n)
	rep.add("core.enum.invalid_partials_per_query", "count", invalid/n)
	rep.add("core.enum.results_per_edge", "ratio", ratio(results, edges))
	rep.add("core.join.build_tuples_per_query", "count", buildTuples/n)
	rep.add("core.join.probe_walks_per_query", "count", probeWalks/n)
	rep.add("core.join.partial_bytes_per_query", "bytes", partialBytes/n)
	rep.add("core.session.self_us_per_query", "us", per("core.session")-per("core.index")-per("core.plan")-per("core.enum"))
	rep.add("core.session.allocs_per_query", "count", sessAllocs/n)
	rep.add("core.stream.ns_per_path", "ns", ratio(float64(tr.total("core.stream")), corePaths))
	rep.add("core.stream.allocs_per_path", "count", ratio(streamAllocs, corePaths))
	rep.add("core.stream.first_path_us", "us", us(streamFirst)/n)
	rep.add("engine.execute_self_us_per_query", "us", per("engine.execute")-per("core.session"))
	rep.add("engine.stream_self_us_per_query", "us", per("engine.stream")-per("core.stream"))
	rep.add("engine.allocs_per_query", "count", engAllocs/n)
	rep.add("mem.join_fallbacks", "count", float64(fallbacks))
	rep.add("server.paths_self_us_per_request", "us", per("server.paths")-per("engine.stream"))
	rep.add("server.ns_per_path", "ns", ratio(float64(tr.total("server.paths")), srvPaths))
	rep.add("server.bytes_per_path", "bytes", ratio(srvBytes, srvPaths))
	rep.add("server.allocs_per_path", "count", ratio(srvAllocs, srvPaths))
	rep.add("server.flushes_per_request", "count", srvFlushes/n)
	rep.add("server.first_path_us", "us", us(srvFirst)/n)
	rep.add("net.self_us_per_request", "us", per("net.paths")-per("server.paths"))
	return nil
}

// ladderBatches runs the ladder batches through Engine.ExecuteBatch, the
// naive fan-out (ExecuteAllContext, each member through ExecuteWith) and
// the /batch handler in memory.
func (b *bench) ladderBatches(rep report, root int32, newEngine func() (*pathenum.Engine, error)) error {
	tr := b.tr
	ctx := context.Background()
	batches := b.in.ladderBatches
	nb := float64(len(batches))
	check := func(rung string, off, j int, got uint64) {
		if got != b.in.ladderRef[off+j] {
			b.fail("ladder %s %v: %d paths, BC-DFS counts %d", rung, b.in.ladderQ[off+j], got, b.in.ladderRef[off+j])
		}
	}
	var queries, run, saved, naive, deduped, hits, misses float64
	eng, err := newEngine()
	if err != nil {
		return err
	}
	off := 0
	for i, bq := range batches {
		id := tr.begin("batch.execute", root, int64(i))
		res, errs, st := eng.ExecuteBatch(ctx, bq, pathenum.Options{})
		tr.end(id)
		for j := range bq {
			if errs[j] != nil {
				return fmt.Errorf("ladder batch %v: %w", bq[j], errs[j])
			}
			check("batch", off, j, res[j].Counters.Results)
		}
		off += len(bq)
		queries += float64(st.Queries)
		run += float64(st.BFSPassesRun)
		saved += float64(st.BFSPassesSaved)
		naive += float64(st.BFSPassesNaive)
		deduped += float64(st.Deduped)
		hits += float64(st.FrontierCacheHits)
		misses += float64(st.FrontierCacheMisses)
	}
	if eng, err = newEngine(); err != nil {
		return err
	}
	off = 0
	for i, bq := range batches {
		id := tr.begin("batch.naive", root, int64(i))
		res, errs := eng.ExecuteAllContext(ctx, bq, pathenum.Options{})
		tr.end(id)
		for j := range bq {
			if errs[j] != nil {
				return fmt.Errorf("ladder naive batch %v: %w", bq[j], errs[j])
			}
			check("naive batch", off, j, res[j].Counters.Results)
		}
		off += len(bq)
	}
	if eng, err = newEngine(); err != nil {
		return err
	}
	h := server.New(eng, nil, server.Config{}).Handler()
	reqs := make([]*http.Request, len(batches))
	for i, bq := range batches {
		reqs[i] = httptest.NewRequest(http.MethodPost, "/batch", bytes.NewReader(batchBody(bq)))
	}
	off = 0
	for i, bq := range batches {
		id := tr.begin("server.batch", root, int64(i))
		c := serveInMemory(h, reqs[i], true)
		tr.end(id)
		var reply batchReply
		if err := json.Unmarshal(c.body.Bytes(), &reply); err != nil || c.status != http.StatusOK || len(reply.Results) != len(bq) {
			return fmt.Errorf("ladder server batch: status %d, %v: %s", c.status, err, c.body.Bytes())
		}
		for j, r := range reply.Results {
			check("server batch", off, j, r.Count)
		}
		off += len(bq)
	}
	rep.add("batch.us_per_batch", "us", us(tr.total("batch.execute"))/nb)
	rep.add("batch.naive_us_per_batch", "us", us(tr.total("batch.naive"))/nb)
	rep.add("batch.bfs_passes_run_per_query", "count", ratio(run, queries))
	rep.add("batch.bfs_passes_saved_ratio", "ratio", ratio(saved, naive))
	rep.add("batch.dedup_ratio", "ratio", ratio(deduped, queries))
	rep.add("batch.cache_hit_ratio", "ratio", ratio(hits, hits+misses))
	rep.add("server.batch_self_us", "us", (us(tr.total("server.batch"))-us(tr.total("batch.execute")))/nb)
	return nil
}

// ladderWrites replays the ladder inserts through graph.Dynamic, the
// engine write path and the /insert handler in memory, and times oracle
// construction and the background rebuild that follows each publish.
func (b *bench) ladderWrites(rep report, root int32, newEngine func() (*pathenum.Engine, error)) error {
	tr := b.tr
	ctx := context.Background()
	ins := b.in.ladderInserts
	m := float64(len(ins))
	dyn := pathenum.NewDynamic(b.g)
	for i, e := range ins {
		id := tr.begin("graph.insert", root, int64(i))
		_, err := dyn.Insert(e.From, e.To)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("ladder dynamic insert %v: %w", e, err)
		}
		id = tr.begin("graph.snapshot", root, int64(i))
		snap := dyn.Snapshot()
		tr.end(id)
		if snap.NumEdges() != b.g.NumEdges()+int64(i+1) {
			b.fail("ladder snapshot after %d inserts holds %d edges, want %d", i+1, snap.NumEdges(), b.g.NumEdges()+int64(i+1))
		}
	}
	eng, err := newEngine()
	if err != nil {
		return err
	}
	for i, e := range ins {
		id := tr.begin("engine.insert", root, int64(i))
		added, err := eng.Insert(e.From, e.To)
		tr.end(id)
		if err != nil || !added {
			return fmt.Errorf("ladder engine insert %v: added %v, %v", e, added, err)
		}
		if err := eng.WaitOracle(ctx); err != nil {
			return err
		}
	}
	if eng, err = newEngine(); err != nil {
		return err
	}
	h := server.New(eng, nil, server.Config{}).Handler()
	for i, e := range ins {
		req := httptest.NewRequest(http.MethodPost, "/insert", bytes.NewReader(insertBody(e)))
		id := tr.begin("server.insert", root, int64(i))
		c := serveInMemory(h, req, true)
		tr.end(id)
		var reply insertReply
		if err := json.Unmarshal(c.body.Bytes(), &reply); err != nil || reply.Applied != 1 {
			return fmt.Errorf("ladder server insert %v: status %d: %s", e, c.status, c.body.Bytes())
		}
		if err := eng.WaitOracle(ctx); err != nil {
			return err
		}
	}
	var oracle pathenum.DistanceOracle
	const builds = 3
	for i := 0; i < builds; i++ {
		id := tr.begin("landmark.build", root, int64(i))
		oracle, err = pathenum.BuildOracle(b.g, daemonLandmarks)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	lagEng, err := pathenum.NewEngine(b.g, pathenum.EngineConfig{Oracle: oracle, OracleLandmarks: daemonLandmarks})
	if err != nil {
		return err
	}
	for i, e := range ins {
		// From the write to the moment pruning is restored: the publish
		// plus the background rebuild it schedules.
		id := tr.begin("landmark.lag", root, int64(i))
		if _, err := lagEng.Insert(e.From, e.To); err != nil {
			return err
		}
		err := lagEng.WaitOracle(ctx)
		tr.end(id)
		if err != nil {
			return err
		}
	}
	rep.add("graph.insert_us", "us", us(tr.total("graph.insert"))/m)
	rep.add("graph.snapshot_ms", "ms", ms(tr.total("graph.snapshot"))/m)
	rep.add("server.insert_self_us", "us", (us(tr.total("server.insert"))-us(tr.total("engine.insert")))/m)
	rep.add("landmark.build_ms", "ms", ms(tr.total("landmark.build"))/builds)
	rep.add("landmark.lag_ms_mean", "ms", ms(tr.total("landmark.lag"))/m)
	return nil
}
