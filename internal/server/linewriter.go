package server

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"
)

// flushInterval bounds how long a written NDJSON line may sit in the
// response buffer before it is flushed to the client.
const flushInterval = 5 * time.Millisecond

// lineWriter is the one path from the NDJSON endpoints to the
// ResponseWriter. Each line is handed over in exactly one Write call. The
// first line is flushed at once, so time-to-first-path pays no batching;
// a later line arms one deferred flush flushInterval out unless one is
// already armed, so a line reaches the wire at most flushInterval late and
// a stream costs at most one flush per flushInterval instead of one per
// line.
//
// The deferred flush runs on a timer goroutine, so the mutex serializes
// it against the handler's writes, and close detaches the writer before
// the handler returns: a timer that fires afterwards finds closed set and
// never touches the ResponseWriter.
type lineWriter struct {
	mu      sync.Mutex
	w       http.ResponseWriter
	flusher http.Flusher // nil when w cannot flush
	timer   *time.Timer  // the deferred flush, created on first use
	started bool         // the first line has been flushed
	armed   bool         // lines are waiting for the deferred flush
	closed  bool
}

func newLineWriter(w http.ResponseWriter) *lineWriter {
	f, _ := w.(http.Flusher)
	return &lineWriter{w: w, flusher: f}
}

// write hands one complete line, newline included, to the ResponseWriter.
// An error means the client is gone; the request context cancels the
// work behind the stream.
func (lw *lineWriter) write(line []byte) error {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if _, err := lw.w.Write(line); err != nil {
		return err
	}
	switch {
	case lw.flusher == nil || lw.armed:
	case !lw.started:
		lw.started = true
		lw.flusher.Flush()
	case lw.timer == nil:
		lw.armed = true
		lw.timer = time.AfterFunc(flushInterval, lw.deferredFlush)
	default:
		lw.armed = true
		lw.timer.Reset(flushInterval)
	}
	return nil
}

// encode writes v as one JSON line: the bytes json.Encoder.Encode would
// write, in one Write.
func (lw *lineWriter) encode(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return lw.write(append(b, '\n'))
}

func (lw *lineWriter) deferredFlush() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.closed {
		return
	}
	lw.armed = false
	lw.flusher.Flush()
}

// close flushes any lines still waiting and detaches the writer from the
// ResponseWriter. It must run before the handler returns.
func (lw *lineWriter) close() {
	lw.mu.Lock()
	defer lw.mu.Unlock()
	if lw.closed {
		return
	}
	lw.closed = true
	if lw.armed {
		lw.timer.Stop()
		lw.armed = false
		lw.flusher.Flush()
	}
}
