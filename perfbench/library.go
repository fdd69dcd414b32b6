package main

import (
	"context"
	"time"

	"pathenum"
)

// window is what one measured interval yields.
type window struct {
	elapsed time.Duration
	// query is each read's time to its complete answer, first its time
	// to the first result: the first path of a stream, or the whole
	// answer of a count-only query or a batch, which arrive at once.
	query, first samples
	insert       samples // hub-batch-write inserts, from due time
	// late is the generator's lateness: behind the due time in the open
	// loop, the gap between a completion and the next send in the closed
	// loops.
	late                         samples
	attempted, failed, completed int
	paths                        uint64
	// work is the meter of the process doing the work; driverCPU the
	// benchmark process's own CPU when the work runs in a server process.
	work      meterReport
	driverCPU time.Duration
}

// driverShare is the share of the window's CPU the load generator used.
// In the library workloads caller and engine share one goroutine, so the
// share is the wall time the caller spent outside engine calls.
func (w *window) driverShare(http bool) float64 {
	if http {
		return ratio(float64(w.driverCPU), float64(w.driverCPU+w.work.CPU))
	}
	var in time.Duration
	for _, d := range w.query {
		in += d
	}
	return ratio(float64(w.elapsed-in), float64(w.elapsed))
}

// runLibrary is the closed loop of index-bound (Engine.ExecuteWith,
// count only) and enum-stream (Engine.Stream, drained): one caller
// cycling through the seeded pool. Every answer is checked against the
// BC-DFS count after the window closes.
func (b *bench) runLibrary(d time.Duration, tr *tracer) *window {
	stream := b.s.name == "enum-stream"
	qs, ref := b.in.queries, b.in.ref
	ctx := context.Background()
	type answer struct {
		op, pool int
		n        uint64
		kept     pathenum.Path
	}
	var answers []answer
	win := &window{}
	op := 0
	loop := func(until time.Time, record bool) {
		last := time.Now()
		for ; time.Now().Before(until); op++ {
			pi := op % len(qs)
			want := sampleIndex(b.o.seed, op, ref[pi])
			var n uint64
			var kept pathenum.Path
			var err error
			var first time.Duration
			id := tr.begin("op.query", 0, int64(op))
			start := time.Now()
			if stream {
				for p, serr := range b.eng.Stream(ctx, pathenum.NewRequest(qs[pi])) {
					if serr != nil {
						err = serr
						break
					}
					if n == 0 {
						first = time.Since(start)
					}
					if n == want {
						kept = p
					}
					n++
				}
			} else {
				var res *pathenum.Result
				if res, err = b.eng.ExecuteWith(ctx, qs[pi], pathenum.Options{}); err == nil {
					n = res.Counters.Results
				}
			}
			took := time.Since(start)
			tr.end(id)
			if !stream {
				first = took
			}
			answers = append(answers, answer{op: op, pool: pi, n: n, kept: kept})
			if record {
				win.attempted++
				win.late = append(win.late, start.Sub(last))
				if err != nil {
					win.failed++
					b.fail("op %d %v: %v", op, qs[pi], err)
				} else {
					win.completed++
					win.query = append(win.query, took)
					win.first = append(win.first, first)
					win.paths += n
				}
			} else if err != nil {
				b.fail("warm-up op %d %v: %v", op, qs[pi], err)
			}
			last = time.Now()
		}
	}
	loop(time.Now().Add(warmup(d)), false)
	m := startMeter(b.eng)
	start := time.Now()
	loop(start.Add(d), true)
	win.elapsed = time.Since(start)
	win.work = m.finish()

	for _, a := range answers {
		q := qs[a.pool]
		if a.n != ref[a.pool] {
			b.fail("op %d %v: %d paths, BC-DFS counts %d", a.op, q, a.n, ref[a.pool])
		}
		if stream {
			if a.kept == nil {
				b.fail("op %d %v: sampled path %d not delivered", a.op, q, sampleIndex(b.o.seed, a.op, ref[a.pool]))
			} else if why := checkPath(b.g, q, a.kept); why != "" {
				b.fail("op %d: %s", a.op, why)
			}
		}
	}
	return win
}
