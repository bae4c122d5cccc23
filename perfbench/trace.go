package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
)

// epoch is the time base of every recorded instant.
var epoch = time.Now()

func since() int64 { return int64(time.Since(epoch)) }

// span is one timed interval at a layer boundary. Spans of one request
// share req; parent is the id of the span that caused this one (0: none).
type span struct {
	name       string
	req        uint64
	id, parent int32
	start, end int64
}

// recorder keeps spans in memory until the run ends.
type recorder struct {
	mu    sync.Mutex
	spans []span
}

func (r *recorder) begin(name string, req uint64, parent int32) int32 {
	t := since()
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, req: req, parent: parent, start: t})
	id := int32(len(r.spans))
	r.spans[id-1].id = id
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int32) {
	t := since()
	r.mu.Lock()
	r.spans[id-1].end = t
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// traceRef travels in a context: the request being traced, the span that
// is making the call, and the operation's kind.
type traceRef struct {
	req    uint64
	parent int32
	kind   opKind
}

type traceKey struct{}

func refFrom(ctx context.Context) (traceRef, bool) {
	r, ok := ctx.Value(traceKey{}).(traceRef)
	return r, ok
}

// traceHeader carries a traceRef across HTTP: "req/parent/kind".
const traceHeader = "X-Perfbench-Trace"

// tracingTransport stamps the trace header on outgoing requests of traced
// calls, counts their request and response bytes per operation kind, and
// keeps a few bodies so protocol encode/decode can be timed afterwards.
type tracingTransport struct {
	next http.RoundTripper

	mu        sync.Mutex
	reqBytes  [3]int64
	respBytes [3]int64
	calls     [3]int64
	bodies    [][]byte
}

// keepBodies bounds the envelopes retained for codec timing.
const keepBodies = 256

func (t *tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := refFrom(req.Context())
	if !ok {
		return t.next.RoundTrip(req)
	}
	r2 := req.Clone(req.Context())
	r2.Header.Set(traceHeader, fmt.Sprintf("%d/%d/%d", ref.req, ref.parent, ref.kind))
	var body []byte
	if req.GetBody != nil && t.wantBody() {
		if rc, err := req.GetBody(); err == nil {
			body, _ = io.ReadAll(rc)
			rc.Close()
		}
	}
	resp, err := t.next.RoundTrip(r2)
	if err != nil {
		return nil, err
	}
	t.mu.Lock()
	t.calls[ref.kind]++
	t.reqBytes[ref.kind] += req.ContentLength
	if body != nil {
		t.bodies = append(t.bodies, body)
	}
	t.mu.Unlock()
	resp.Body = &countingBody{ReadCloser: resp.Body, t: t, kind: ref.kind, length: resp.ContentLength, keep: t.wantBody()}
	return resp, nil
}

func (t *tracingTransport) wantBody() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.bodies) < keepBodies
}

// countingBody adds a response's size to its kind's total when closed:
// the declared length when there is one, else the bytes read.
type countingBody struct {
	io.ReadCloser
	t      *tracingTransport
	kind   opKind
	length int64
	read   int64
	keep   bool
	buf    bytes.Buffer
	once   sync.Once
}

func (b *countingBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.read += int64(n)
	if b.keep {
		b.buf.Write(p[:n])
	}
	return n, err
}

func (b *countingBody) Close() error {
	b.once.Do(func() {
		n := b.length
		if n < 0 {
			n = b.read
		}
		b.t.mu.Lock()
		b.t.respBytes[b.kind] += n
		if b.keep && b.buf.Len() > 0 && (b.length < 0 || int64(b.buf.Len()) == b.length) {
			b.t.bodies = append(b.t.bodies, b.buf.Bytes())
		}
		b.t.mu.Unlock()
	})
	return b.ReadCloser.Close()
}

// take returns and resets the byte counters.
func (t *tracingTransport) take() (calls, reqBytes, respBytes [3]int64, bodies [][]byte) {
	t.mu.Lock()
	defer t.mu.Unlock()
	calls, reqBytes, respBytes, bodies = t.calls, t.reqBytes, t.respBytes, t.bodies
	t.calls, t.reqBytes, t.respBytes, t.bodies = [3]int64{}, [3]int64{}, [3]int64{}, nil
	return
}

// spanMiddleware records one span per traced request around a node's whole
// HTTP handler: decode, admission gate, engine call and encode.
func spanMiddleware(rec *recorder, name string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(traceHeader)
		if h == "" {
			next.ServeHTTP(w, r)
			return
		}
		ref, ok := parseTraceHeader(h)
		if !ok {
			next.ServeHTTP(w, r)
			return
		}
		id := rec.begin(name, ref.req, ref.parent)
		ref.parent = id
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), traceKey{}, ref)))
		rec.end(id)
	})
}

func parseTraceHeader(h string) (traceRef, bool) {
	parts := strings.Split(h, "/")
	if len(parts) != 3 {
		return traceRef{}, false
	}
	req, err1 := strconv.ParseUint(parts[0], 10, 64)
	parent, err2 := strconv.ParseInt(parts[1], 10, 32)
	kind, err3 := strconv.ParseUint(parts[2], 10, 8)
	if err1 != nil || err2 != nil || err3 != nil || kind > uint64(opCommit) {
		return traceRef{}, false
	}
	return traceRef{req: req, parent: int32(parent), kind: opKind(kind)}, true
}

// tracedEngine is the engine handed to transport.NewServer. It forwards
// every call — the federation verbs too — and, for traced requests,
// records a span around the engine call: txn, predicate, matching, escrow
// and resource work all happen inside it.
type tracedEngine struct {
	next localEngine
	rec  *recorder
}

var (
	_ transport.Engine    = (*tracedEngine)(nil)
	_ transport.FedEngine = (*tracedEngine)(nil)
)

func (e *tracedEngine) span(ctx context.Context, name string) func() {
	if e.rec == nil {
		return func() {}
	}
	ref, ok := refFrom(ctx)
	if !ok {
		return func() {}
	}
	id := e.rec.begin(name, ref.req, ref.parent)
	return func() { e.rec.end(id) }
}

func (e *tracedEngine) Execute(ctx context.Context, req core.Request) (*core.Response, error) {
	defer e.span(ctx, "engine.Execute")()
	return e.next.Execute(ctx, req)
}

func (e *tracedEngine) GrantBatch(ctx context.Context, client string, reqs []core.PromiseRequest) ([]core.PromiseResponse, error) {
	defer e.span(ctx, "engine.GrantBatch")()
	return e.next.GrantBatch(ctx, client, reqs)
}

func (e *tracedEngine) CheckBatch(ctx context.Context, client string, ids []string) ([]error, error) {
	defer e.span(ctx, "engine.CheckBatch")()
	return e.next.CheckBatch(ctx, client, ids)
}

func (e *tracedEngine) Release(ctx context.Context, client string, ids ...string) error {
	defer e.span(ctx, "engine.Release")()
	return e.next.Release(ctx, client, ids...)
}

func (e *tracedEngine) Watch(ctx context.Context, opts core.WatchOptions) (<-chan core.Event, error) {
	return e.next.Watch(ctx, opts)
}

func (e *tracedEngine) Stats() core.Stats { return e.next.Stats() }

func (e *tracedEngine) Audit() (*core.AuditReport, error) { return e.next.Audit() }

func (e *tracedEngine) fed() transport.FedEngine {
	fe, _ := e.next.(transport.FedEngine)
	return fe
}

func (e *tracedEngine) FedReserve(ctx context.Context, client string, spec core.FedReserveSpec) (*core.FedReserveResult, error) {
	defer e.span(ctx, "engine.FedReserve")()
	return e.fed().FedReserve(ctx, client, spec)
}

func (e *tracedEngine) FedConfirm(ctx context.Context, sessionID string, spec core.FedConfirmSpec) ([]core.GrantedPart, error) {
	defer e.span(ctx, "engine.FedConfirm")()
	return e.fed().FedConfirm(ctx, sessionID, spec)
}

func (e *tracedEngine) FedAbort(sessionID string) { e.fed().FedAbort(sessionID) }

func (e *tracedEngine) FedSummary() core.NodeSummary { return e.fed().FedSummary() }
