package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"pathenum"
	"pathenum/internal/server"
)

// httpConns is the connection count of the HTTP workloads: one per core
// of the two-core reference machine.
const httpConns = 2

// serverProc is the server process of an HTTP workload: this binary run
// with --serve, so the load generator's CPU and heap stay out of the
// server's numbers.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	base  string
}

// startServer starts a server process and returns once it accepts
// connections. The process builds the graph, oracle and engine itself.
func startServer(name string) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "--serve", name)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &serverProc{cmd: cmd, stdin: stdin}
	ready := make(chan string, 1)
	go func() {
		line, _ := bufio.NewReader(stdout).ReadString('\n')
		ready <- line
	}()
	select {
	case line := <-ready:
		addr, ok := strings.CutPrefix(strings.TrimSpace(line), "ready ")
		if !ok {
			p.stop()
			return nil, fmt.Errorf("server process did not start (said %q)", line)
		}
		p.base = "http://" + addr
		return p, nil
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, errors.New("server process did not start within 60s")
	}
}

// stop closes the server's stdin, which makes it exit, and waits for it;
// a server that does not exit within ten seconds is killed.
func (p *serverProc) stop() {
	p.stdin.Close()
	done := make(chan struct{})
	go func() {
		_ = p.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-done
	}
}

// serveMain is the server process: the workload's engine behind the
// server package's handler on a loopback port, plus two benchmark routes
// that open and close a meter window. It exits when stdin closes.
func serveMain(name string, stdin io.Reader, stdout io.Writer) error {
	s, err := lookupSpec(name)
	if err != nil {
		return err
	}
	g, err := s.graph()
	if err != nil {
		return err
	}
	cfg, err := s.engineConfig(g)
	if err != nil {
		return err
	}
	eng, err := pathenum.NewEngine(g, cfg)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/", server.New(eng, nil, server.Config{}).Handler())
	var mu sync.Mutex
	var cur *meter
	mux.HandleFunc("POST /_bench/meter/start", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if cur != nil {
			cur.finish()
		}
		cur = startMeter(eng)
	})
	mux.HandleFunc("POST /_bench/meter/finish", func(w http.ResponseWriter, _ *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if cur == nil {
			http.Error(w, "no meter window open", http.StatusConflict)
			return
		}
		rep := cur.finish()
		cur = nil
		_ = json.NewEncoder(w).Encode(rep)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: mux}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "ready %s\n", ln.Addr())
	_, _ = io.Copy(io.Discard, stdin)
	_ = hs.Close()
	if err := <-served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     httpConns,
		MaxIdleConnsPerHost: httpConns,
		DisableCompression:  true,
	}}
}

func (p *serverProc) meterStart(c *http.Client) error {
	resp, err := c.Post(p.base+"/_bench/meter/start", "", nil)
	if err != nil {
		return err
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return nil
}

func (p *serverProc) meterFinish(c *http.Client) (meterReport, error) {
	var r meterReport
	err := postJSON(c, p.base+"/_bench/meter/finish", nil, &r)
	return r, err
}

// postJSON posts body (nil for none) and decodes a 200 reply into out.
func postJSON(c *http.Client, url string, body []byte, out any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(msg))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

type wireQuery struct {
	S int64 `json:"s"`
	T int64 `json:"t"`
	K int   `json:"k"`
}

func wire(q pathenum.Query) wireQuery { return wireQuery{S: int64(q.S), T: int64(q.T), K: q.K} }

// streamed is what the client saw of one NDJSON /paths response.
type streamed struct {
	paths       uint64
	first, took time.Duration
	firstPath   []pathenum.VertexID
	kept        []pathenum.VertexID
	done        struct {
		Done      bool   `json:"done"`
		Count     uint64 `json:"count"`
		Completed bool   `json:"completed"`
	}
}

var (
	doneLinePrefix = []byte(`{"done"`)
	pathLinePrefix = []byte(`{"path"`)
)

// readPaths drains an NDJSON /paths body. Lines are counted by a byte
// scan; only the first line, the sampled line want and the done line are
// JSON-decoded, so the generator stays light.
func readPaths(br *bufio.Reader, body io.Reader, start time.Time, want uint64, out *streamed) error {
	br.Reset(body)
	line := 0
	for {
		b, err := br.ReadSlice('\n')
		if len(b) > 0 {
			if line == 0 {
				out.first = time.Since(start)
			}
			switch {
			case bytes.HasPrefix(b, doneLinePrefix):
				if jerr := json.Unmarshal(b, &out.done); jerr != nil {
					return fmt.Errorf("done line: %v", jerr)
				}
			case !bytes.HasPrefix(b, pathLinePrefix):
				return fmt.Errorf("unexpected line %q", b)
			case line == 0 || out.paths == want:
				var pl struct {
					Path []pathenum.VertexID `json:"path"`
				}
				if jerr := json.Unmarshal(b, &pl); jerr != nil {
					return fmt.Errorf("path line: %v", jerr)
				}
				if line == 0 {
					out.firstPath = pl.Path
				}
				if out.paths == want {
					out.kept = pl.Path
				}
				out.paths++
			default:
				out.paths++
			}
			line++
		}
		if err == io.EOF {
			out.took = time.Since(start)
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// streamPaths posts one /paths request and drains it.
func streamPaths(c *http.Client, base string, body []byte, br *bufio.Reader, want uint64, out *streamed) error {
	start := time.Now()
	resp, err := c.Post(base+"/paths", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	return readPaths(br, resp.Body, start, want, out)
}

// runPaths is the http-paths closed loop: httpConns callers, each
// posting the next pool query to /paths and draining the NDJSON reply.
func (b *bench) runPaths(d time.Duration, tr *tracer) (*window, error) {
	qs, ref := b.in.queries, b.in.ref
	bodies := make([][]byte, len(qs))
	for i, q := range qs {
		bodies[i], _ = json.Marshal(wire(q))
	}
	client := newClient()
	defer client.CloseIdleConnections()
	type answer struct {
		op, pool int
		gap      time.Duration // since this caller's previous completion
		s        streamed
		err      error
	}
	var mu sync.Mutex
	var answers []answer
	var next atomic.Int64
	loop := func(until time.Time) {
		var wg sync.WaitGroup
		for c := 0; c < httpConns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				br := bufio.NewReaderSize(nil, 64<<10)
				last := time.Now()
				for time.Now().Before(until) {
					op := int(next.Add(1) - 1)
					a := answer{op: op, pool: op % len(qs)}
					id := tr.begin("op.paths", 0, int64(op))
					a.gap = time.Since(last)
					a.err = streamPaths(client, b.srv.base, bodies[a.pool], br, sampleIndex(b.o.seed, op, ref[a.pool]), &a.s)
					tr.end(id)
					mu.Lock()
					answers = append(answers, a)
					mu.Unlock()
					last = time.Now()
				}
			}()
		}
		wg.Wait()
	}
	loop(time.Now().Add(warmup(d)))
	warm := len(answers)
	if err := b.srv.meterStart(client); err != nil {
		return nil, err
	}
	cpu0 := processCPU()
	start := time.Now()
	loop(start.Add(d))
	win := &window{elapsed: time.Since(start), driverCPU: processCPU() - cpu0}
	var err error
	if win.work, err = b.srv.meterFinish(client); err != nil {
		return nil, err
	}
	for i, a := range answers {
		q := qs[a.pool]
		if i >= warm {
			win.attempted++
			win.late = append(win.late, a.gap)
			if a.err == nil {
				win.completed++
				win.query = append(win.query, a.s.took)
				win.first = append(win.first, a.s.first)
				win.paths += a.s.paths
			} else {
				win.failed++
			}
		}
		if a.err != nil {
			b.fail("op %d %v: %v", a.op, q, a.err)
			continue
		}
		want := ref[a.pool]
		if a.s.paths != want || a.s.done.Count != want || !a.s.done.Done || !a.s.done.Completed {
			b.fail("op %d %v: %d lines, done %+v, BC-DFS counts %d", a.op, q, a.s.paths, a.s.done, want)
		}
		for _, p := range [][]pathenum.VertexID{a.s.firstPath, a.s.kept} {
			if why := checkPath(b.g, q, p); why != "" {
				b.fail("op %d: %s", a.op, why)
			}
		}
	}
	return win, nil
}

// batchReply is the part of a /batch response the checks read.
type batchReply struct {
	Results []struct {
		Count     uint64 `json:"count"`
		Completed bool   `json:"completed"`
		Error     string `json:"error"`
	} `json:"results"`
}

type insertReply struct {
	Applied int `json:"applied"`
}

func batchBody(qs []pathenum.Query) []byte {
	ws := make([]wireQuery, len(qs))
	for i, q := range qs {
		ws[i] = wire(q)
	}
	body, _ := json.Marshal(map[string]any{"queries": ws})
	return body
}

func insertBody(e pathenum.Edge) []byte {
	return []byte(fmt.Sprintf(`{"edges":[{"from":%d,"to":%d}]}`, e.From, e.To))
}

// maxOutstanding bounds the open loop's requests in flight; an arrival
// beyond it is refused and counted as failed.
const maxOutstanding = 256

// runHubBatch is the hub-batch-write open loop: batches and single-edge
// inserts sent at their seeded due times, each timed from its due time,
// however long it waited for a connection. Checks afterwards: every
// acknowledged insert is replayed on a fresh Dynamic, whose edge count
// must equal the server's; a sample of batch answers must lie between
// the BC-DFS counts on the base and on the final graph (inserts only add
// paths); and a fresh query set must match BC-DFS on the replay exactly.
func (b *bench) runHubBatch(d time.Duration, tr *tracer) (*window, error) {
	warm := warmup(d)
	client := newClient()
	defer client.CloseIdleConnections()
	type outcome struct {
		ev     event
		late   time.Duration
		took   time.Duration
		batch  batchReply
		insert insertReply
		err    error
	}
	var evs []event
	for _, ev := range b.in.schedule {
		if ev.at < warm+d {
			evs = append(evs, ev)
		}
	}
	outcomes := make([]outcome, len(evs))
	bodies := make([][]byte, len(evs))
	for i, ev := range evs {
		if ev.insert {
			bodies[i] = insertBody(b.in.inserts[ev.idx])
		} else {
			bodies[i] = batchBody(b.in.batches[ev.idx])
		}
	}
	sem := make(chan struct{}, maxOutstanding)
	var wg sync.WaitGroup
	origin := time.Now().Add(10 * time.Millisecond)
	var cpu0 time.Duration
	measured := -1
	for i, ev := range evs {
		if measured < 0 && ev.at >= warm {
			if err := b.srv.meterStart(client); err != nil {
				wg.Wait()
				return nil, err
			}
			cpu0 = processCPU()
			measured = i
		}
		due := origin.Add(ev.at)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		outcomes[i].ev = ev
		outcomes[i].late = time.Since(due)
		select {
		case sem <- struct{}{}:
		default:
			outcomes[i].err = errors.New("refused: too many requests outstanding")
			continue
		}
		wg.Add(1)
		go func(i int, o *outcome, body []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			name, path, out := "op.batch", "/batch", any(&o.batch)
			if o.ev.insert {
				name, path, out = "op.insert", "/insert", &o.insert
			}
			id := tr.begin(name, 0, int64(i))
			o.err = postJSON(client, b.srv.base+path, body, out)
			tr.end(id)
			o.took = time.Since(due)
		}(i, &outcomes[i], bodies[i])
	}
	wg.Wait()
	if measured < 0 {
		return nil, errors.New("window holds no arrivals")
	}
	win := &window{elapsed: time.Since(origin.Add(evs[measured].at)), driverCPU: processCPU() - cpu0}
	var err error
	if win.work, err = b.srv.meterFinish(client); err != nil {
		return nil, err
	}

	var applied []pathenum.Edge
	type served struct {
		q pathenum.Query
		n uint64
	}
	var answers []served
	for i, o := range outcomes {
		if i >= measured {
			win.attempted++
			win.late = append(win.late, o.late)
		}
		if o.err != nil {
			b.fail("%s at %v: %v", map[bool]string{true: "insert", false: "batch"}[o.ev.insert], o.ev.at, o.err)
			if i >= measured {
				win.failed++
			}
			continue
		}
		if o.ev.insert {
			if o.insert.Applied != 1 {
				b.fail("insert %v applied %d edges, want 1", b.in.inserts[o.ev.idx], o.insert.Applied)
			}
			applied = append(applied, b.in.inserts[o.ev.idx])
		} else {
			qs := b.in.batches[o.ev.idx]
			if len(o.batch.Results) != len(qs) {
				b.fail("batch %d: %d results for %d queries", o.ev.idx, len(o.batch.Results), len(qs))
				continue
			}
			for j, r := range o.batch.Results {
				if r.Error != "" || !r.Completed {
					b.fail("batch %d query %v: error %q completed %v", o.ev.idx, qs[j], r.Error, r.Completed)
				}
				if sampleIndex(b.o.seed, o.ev.idx*batchSize+j, batchCheckEvery) == 0 {
					answers = append(answers, served{qs[j], r.Count})
				}
			}
		}
		if i < measured {
			continue
		}
		win.completed++
		if o.ev.insert {
			win.insert = append(win.insert, o.took)
		} else {
			win.query = append(win.query, o.took)
			win.first = append(win.first, o.took)
			for _, r := range o.batch.Results {
				win.paths += r.Count
			}
		}
	}
	replay := pathenum.NewDynamic(b.g)
	for _, e := range applied {
		if _, err := replay.Insert(e.From, e.To); err != nil {
			b.fail("replay insert %v: %v", e, err)
		}
	}
	snap := replay.Snapshot()
	if len(answers) > 0 {
		qs := make([]pathenum.Query, len(answers))
		for i, a := range answers {
			qs[i] = a.q
		}
		lo, hi := bcdfsCounts(b.g, qs), bcdfsCounts(snap, qs)
		for i, a := range answers {
			if a.n < lo[i] || a.n > hi[i] {
				b.fail("batch query %v: %d paths, BC-DFS counts %d before and %d after the inserts", a.q, a.n, lo[i], hi[i])
			}
		}
	}
	b.checkFinal(client, snap)
	return win, nil
}

// batchCheckEvery: one batch answer in this many is checked against the
// base and final BC-DFS counts.
const batchCheckEvery = 64

// checkFinal compares the served graph with the replay: the edge count,
// then a fresh seeded query set answered by /batch against BC-DFS.
func (b *bench) checkFinal(client *http.Client, snap *pathenum.Graph) {
	var flushed map[string]any
	if err := postJSON(client, b.srv.base+"/flush", nil, &flushed); err != nil {
		b.fail("flush: %v", err)
		return
	}
	var st struct {
		Edges int64 `json:"edges"`
	}
	resp, err := client.Get(b.srv.base + "/stats")
	if err == nil {
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
	}
	if err != nil {
		b.fail("stats: %v", err)
		return
	}
	if st.Edges != snap.NumEdges() {
		b.fail("server holds %d edges, replay of the acknowledged inserts %d", st.Edges, snap.NumEdges())
	}
	qs, err := hubBatch(snap, b.o.seed, -1)
	if err != nil {
		b.fail("final query set: %v", err)
		return
	}
	var rep batchReply
	if err := postJSON(client, b.srv.base+"/batch", batchBody(qs), &rep); err != nil {
		b.fail("final batch: %v", err)
		return
	}
	want := bcdfsCounts(snap, qs)
	for i, q := range qs {
		if i >= len(rep.Results) || rep.Results[i].Count != want[i] {
			b.fail("final query %v: served %+v, BC-DFS on the replay counts %d", q, rep.Results, want[i])
			return
		}
	}
}

// restartServer replaces the server process with a fresh one, so a
// second window starts from the base graph.
func (b *bench) restartServer() error {
	b.srv.stop()
	b.srv = nil
	p, err := startServer(b.s.name)
	if err != nil {
		return err
	}
	b.srv = p
	return nil
}
