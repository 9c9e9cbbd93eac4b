package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"megammap/internal/vtime"
)

// span is one call the benchmark made into a layer, timed on the
// virtual clock and on the host clock (ns since the tracer started).
// A kv-serve request has two spans, queue wait and service, under one
// request ID. A call that parks in virtual time lets other procs run,
// so a span's host length is not its layer's host self time; that
// comes from the CPU profile.
type span struct {
	ID     uint64 `json:"id"`
	Name   string `json:"name"`
	Tenant string `json:"tenant,omitempty"`
	VStart int64  `json:"vstart_ns"`
	VEnd   int64  `json:"vend_ns"`
	HStart int64  `json:"hstart_ns"`
	HEnd   int64  `json:"hend_ns"`
}

// tracer keeps spans in memory. A nil tracer records nothing, so the
// untraced run pays one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID uint64
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span at virtual time v and returns its handle. id joins
// the spans of one request; 0 assigns a fresh ID.
func (t *tracer) begin(name string, id uint64, v vtime.Duration) int {
	if t == nil {
		return -1
	}
	if id == 0 {
		t.nextID++
		id = t.nextID | 1<<63 // disjoint from request IDs
	}
	t.spans = append(t.spans, span{ID: id, Name: name, VStart: int64(v), HStart: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

// beginTenant is begin for a kv-serve request span.
func (t *tracer) beginTenant(name, tenant string, id uint64, v vtime.Duration) int {
	h := t.begin(name, id, v)
	if h >= 0 {
		t.spans[h].Tenant = tenant
	}
	return h
}

// end closes the span opened as h at virtual time v.
func (t *tracer) end(h int, v vtime.Duration) {
	if t == nil || h < 0 {
		return
	}
	t.spans[h].VEnd = int64(v)
	t.spans[h].HEnd = int64(time.Since(t.t0))
}

// write stores the spans as JSON at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
