package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"iter"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"pathenum"
	"pathenum/internal/gen"
)

// pathLine is the struct /paths lines used to be json.Encoder-encoded
// from; the append encoder must reproduce its bytes exactly.
type pathLine struct {
	Path []int64 `json:"path"`
}

// postRaw posts body to path and returns the response with its whole body.
func postRaw(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// splitLines splits an NDJSON body into its lines, each keeping its "\n".
func splitLines(t *testing.T, body []byte) [][]byte {
	t.Helper()
	if len(body) == 0 || body[len(body)-1] != '\n' {
		t.Fatalf("body does not end in a newline: %q", body)
	}
	var lines [][]byte
	for len(body) > 0 {
		i := bytes.IndexByte(body, '\n')
		lines = append(lines, body[:i+1])
		body = body[i+1:]
	}
	return lines
}

// pinLine decodes line into v and fails unless json.Marshal(v) plus "\n"
// reproduces line byte for byte.
func pinLine(t *testing.T, line []byte, v any) {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		t.Fatalf("line %q: %v", line, err)
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(line, want) {
		t.Fatalf("wire line\n  %q\nwant json.Marshal bytes\n  %q", line, want)
	}
}

// TestPathsWireFormat pins the /paths body: every path line and the done
// line are byte-identical to json.Marshal of pathLine/doneLine plus "\n",
// for identity ids, remapped ids at the int64 extremes, a limited stream
// and a stream with no paths; a pre-stream error stays a clean JSON 400.
func TestPathsWireFormat(t *testing.T) {
	remap := []int64{math.MinInt64, math.MaxInt64, -7, 1 << 40}
	for _, tc := range []struct {
		name      string
		orig      []int64
		body      string
		paths     []string // wanted path lines, in any order
		count     uint64
		completed bool
	}{
		{"identity", nil, `{"s":0,"t":3,"k":3}`,
			[]string{`{"path":[0,1,3]}`, `{"path":[0,2,3]}`}, 2, true},
		{"remapped", remap, `{"s":-9223372036854775808,"t":1099511627776,"k":3}`,
			[]string{`{"path":[-9223372036854775808,9223372036854775807,1099511627776]}`,
				`{"path":[-9223372036854775808,-7,1099511627776]}`}, 2, true},
		{"limit", nil, `{"s":0,"t":3,"k":3,"limit":1}`, nil, 1, false},
		{"no paths", nil, `{"s":0,"t":3,"k":1}`, nil, 0, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := testServer(t, tc.orig)
			resp, body := postRaw(t, ts, "/paths", tc.body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("status = %d: %s", resp.StatusCode, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != ndjsonContentType {
				t.Fatalf("Content-Type = %q", ct)
			}
			lines := splitLines(t, body)
			got := map[string]bool{}
			for _, line := range lines[:len(lines)-1] {
				var pl pathLine
				pinLine(t, line, &pl)
				got[strings.TrimSuffix(string(line), "\n")] = true
			}
			if uint64(len(got)) != tc.count || len(lines)-1 != len(got) {
				t.Fatalf("%d path lines (%d distinct), want %d", len(lines)-1, len(got), tc.count)
			}
			for _, want := range tc.paths {
				if !got[want] {
					t.Fatalf("missing %s in %q", want, body)
				}
			}
			var done doneLine
			pinLine(t, lines[len(lines)-1], &done)
			if !done.Done || done.Count != tc.count || done.Completed != tc.completed || done.Plan == "" {
				t.Fatalf("done line = %+v", done)
			}
		})
	}

	t.Run("pre-stream error", func(t *testing.T) {
		ts := testServer(t, nil)
		resp, body := postRaw(t, ts, "/paths", `{"s":0,"t":0,"k":3}`)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status = %d, want 400", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type = %q, want application/json", ct)
		}
		var e map[string]string
		pinLine(t, body, &e)
		if !strings.HasPrefix(e["error"], "query failed: ") {
			t.Fatalf("error body = %q", body)
		}
	})
}

// TestBatchStreamWireFormat pins the streaming /batch body the same way:
// every line is json.Marshal of batchLine or batchDoneLine plus "\n".
func TestBatchStreamWireFormat(t *testing.T) {
	ts := testServer(t, nil)
	resp, body := postRaw(t, ts, "/batch", `{"stream":true,"queries":[{"s":0,"t":3,"k":3},{"s":99,"t":3,"k":3},{"s":3,"t":1,"k":2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	lines := splitLines(t, body)
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 3 queries + done: %q", len(lines), body)
	}
	for _, line := range lines[:3] {
		var bl batchLine
		pinLine(t, line, &bl)
	}
	var done batchDoneLine
	pinLine(t, lines[3], &done)
	if !done.Done || done.Stats == nil || done.Stats.Queries != 3 {
		t.Fatalf("done line = %q", lines[3])
	}
}

// scriptedEngine serves Stream from a test script and everything else
// from a real engine.
type scriptedEngine struct {
	Engine
	stream func(ctx context.Context, req pathenum.Request) iter.Seq2[pathenum.Path, error]
}

func (e *scriptedEngine) Stream(ctx context.Context, req pathenum.Request) iter.Seq2[pathenum.Path, error] {
	return e.stream(ctx, req)
}

// diamondEngine is testServer's engine without the HTTP server.
func diamondEngine(t *testing.T) *pathenum.Engine {
	t.Helper()
	g, err := pathenum.NewGraph(4, []pathenum.Edge{
		{From: 0, To: 1}, {From: 0, To: 2}, {From: 1, To: 3}, {From: 2, To: 3}, {From: 3, To: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	engine, err := pathenum.NewEngine(g, pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return engine
}

// readLines delivers the lines of body on the returned channel as the
// client reads them, closing it at EOF or on a read error. The buffer
// holds more lines than a test reads, so the reader never blocks on a
// test that has stopped receiving.
func readLines(body io.Reader) <-chan string {
	out := make(chan string, 8)
	go func() {
		defer close(out)
		br := bufio.NewReader(body)
		for {
			line, err := br.ReadString('\n')
			if line != "" {
				out <- line
			}
			if err != nil {
				return
			}
		}
	}()
	return out
}

func nextLine(t *testing.T, lines <-chan string, within time.Duration, what string) string {
	t.Helper()
	select {
	case line, ok := <-lines:
		if !ok {
			t.Fatalf("%s: stream ended", what)
		}
		return line
	case <-time.After(within):
		t.Fatalf("%s: nothing read within %v", what, within)
	}
	return ""
}

// TestPathsDeliveryLatency: the first path line reaches the client before
// the second path is even produced, and the second arrives while the
// stream is still open with no third path to push it out — the deferred
// flush fires on its own.
func TestPathsDeliveryLatency(t *testing.T) {
	second, release := make(chan struct{}), make(chan struct{})
	eng := &scriptedEngine{Engine: diamondEngine(t), stream: func(ctx context.Context, req pathenum.Request) iter.Seq2[pathenum.Path, error] {
		return func(yield func(pathenum.Path, error) bool) {
			if !yield(pathenum.Path{0, 1, 3}, nil) {
				return
			}
			select {
			case <-second:
			case <-ctx.Done():
				return
			}
			if !yield(pathenum.Path{0, 2, 3}, nil) {
				return
			}
			select {
			case <-release:
			case <-ctx.Done():
				return
			}
			req.OnResult(&pathenum.Result{Completed: true, Counters: pathenum.Counters{Results: 2}})
		}
	}}
	ts := httptest.NewServer(New(eng, nil, Config{}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/paths", "application/json", strings.NewReader(`{"s":0,"t":3,"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := readLines(resp.Body)

	if got := nextLine(t, lines, 10*time.Second, "line 1"); got != "{\"path\":[0,1,3]}\n" {
		t.Fatalf("line 1 = %q", got)
	}
	close(second)
	// The bound is flushInterval plus generous scheduling slack; without
	// the deferred flush the line would wait for the done line forever.
	if got := nextLine(t, lines, 2*time.Second, "line 2"); got != "{\"path\":[0,2,3]}\n" {
		t.Fatalf("line 2 = %q", got)
	}
	close(release)
	done := nextLine(t, lines, 10*time.Second, "done line")
	if !strings.HasPrefix(done, `{"done":true,"count":2,"completed":true,`) {
		t.Fatalf("done line = %q", done)
	}
	if extra, ok := <-lines; ok {
		t.Fatalf("line after done: %q", extra)
	}
}

// TestPathsDisconnectMidStream: a client that walks away mid-stream ends
// the handler through the request context, and no goroutine — stream,
// timer or connection — outlives the request.
func TestPathsDisconnectMidStream(t *testing.T) {
	backing := diamondEngine(t)
	baseline := runtime.NumGoroutine()
	eng := &scriptedEngine{Engine: backing, stream: func(ctx context.Context, req pathenum.Request) iter.Seq2[pathenum.Path, error] {
		return func(yield func(pathenum.Path, error) bool) {
			for yield(pathenum.Path{0, 1, 3}, nil) {
				select {
				case <-ctx.Done():
					return
				case <-time.After(time.Millisecond):
				}
			}
		}
	}}
	inner := New(eng, nil, Config{}).Handler()
	handlerDone := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		inner.ServeHTTP(w, r)
		close(handlerDone)
	}))
	client := &http.Client{Transport: &http.Transport{}}
	resp, err := client.Post(ts.URL+"/paths", "application/json", strings.NewReader(`{"s":0,"t":3,"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bufio.NewReader(resp.Body).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case <-handlerDone:
	case <-time.After(10 * time.Second):
		t.Fatal("handler still streaming 10s after the client disconnected")
	}
	client.CloseIdleConnections()
	ts.Close()

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, baseline %d:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// discardFlusher is an in-memory http.ResponseWriter and http.Flusher
// that counts path lines and flushes, so the handler costs no transport.
type discardFlusher struct {
	h                http.Header
	status           int
	pathLines, flush int
}

func (d *discardFlusher) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}

func (d *discardFlusher) WriteHeader(code int) { d.status = code }

func (d *discardFlusher) Write(p []byte) (int, error) {
	if bytes.HasPrefix(p, []byte(`{"path"`)) {
		d.pathLines++
	}
	return len(p), nil
}

func (d *discardFlusher) Flush() { d.flush++ }

// TestPathsAllocsAndFlushes gates the /paths hot loop on deterministic
// counts: at most 1.1 allocations per delivered path (the stream's owned
// copy of each path is the one left) and at most 2 + elapsed/flushInterval
// flushes per request, not one per path.
func TestPathsAllocsAndFlushes(t *testing.T) {
	const width, layers = 10, 4 // 10^4 paths from vertex 0 to vertex 1
	engine, err := pathenum.NewEngine(gen.Layered(width, layers), pathenum.EngineConfig{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	h := New(engine, nil, Config{}).Handler()
	body := []byte(`{"s":0,"t":1,"k":` + strconv.Itoa(layers+1) + `}`)
	const want = width * width * width * width
	allocs := testing.AllocsPerRun(5, func() {
		d := &discardFlusher{}
		start := time.Now()
		h.ServeHTTP(d, httptest.NewRequest(http.MethodPost, "/paths", bytes.NewReader(body)))
		elapsed := time.Since(start)
		if d.pathLines != want {
			t.Fatalf("status %d, %d path lines, want %d", d.status, d.pathLines, want)
		}
		if limit := 2 + int(elapsed/flushInterval); d.flush > limit {
			t.Fatalf("%d flushes in %v, want <= %d (2 + elapsed/%v)", d.flush, elapsed, limit, flushInterval)
		}
	})
	if perPath := allocs / want; perPath > 1.1 {
		t.Fatalf("%.0f allocs per request = %.3f per path, want <= 1.1", allocs, perPath)
	}
}
