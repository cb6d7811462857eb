package main

// A benchmark reads the host clock by design.
//
//wfsimlint:wallclock

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"wfsim/internal/metrics"
	"wfsim/internal/resultcache"
)

// span is one timed call into a layer, recorded from outside the program
// around the layer's public function.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span; -1 for none
	Req    int64  `json:"req"`    // operation or request the span belongs to
}

// tracer keeps spans and counters in memory for one traced phase. A nil
// *tracer records nothing, so untraced code paths pass nil.
type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

func (t *tracer) begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, Parent: parent, Req: req})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add accumulates v into the named counter.
func (t *tracer) add(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tracer) ctr(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// named returns every span with the name.
func (t *tracer) named(name string) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durs returns the durations, in seconds, of every span with the name.
func (t *tracer) durs(name string) []float64 {
	var out []float64
	for _, s := range t.named(name) {
		out = append(out, float64(s.End-s.Start)/1e9)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Children of one parent may
// overlap (two runner workers), so their union is subtracted, not their
// sum.
func (t *tracer) selfTimes() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int32][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		kids := children[int32(i)]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// writeSelfSummary prints, per span name, the call count, total time and
// total self time.
func (t *tracer) writeSelfSummary(w io.Writer) {
	self := t.selfTimes()
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
			names = append(names, s.Name)
		}
		a.n++
		a.total += s.End - s.Start
		a.self += self[i]
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-34s %9s %12s %12s\n", "span", "calls", "total_s", "self_s")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "%-34s %9d %12.6f %12.6f\n", n, a.n, float64(a.total)/1e9, float64(a.self)/1e9)
	}
}

// writeFile writes every span, with its self time, as one JSON object per
// line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	self := t.selfTimes()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		rec := struct {
			span
			Self int64 `json:"self_ns"`
		}{s, self[i]}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// tracedCache is the runner.Cache the engine sees in a traced phase: it
// times every Get and Put on the store and counts hits and bytes. Spans
// are parented to the span in parent (the experiment being run).
type tracedCache struct {
	store  *resultcache.Store
	tr     *tracer
	parent atomic.Int32
}

func newTracedCache(store *resultcache.Store, tr *tracer) *tracedCache {
	c := &tracedCache{store: store, tr: tr}
	c.parent.Store(-1)
	return c
}

func (c *tracedCache) Get(key string) ([]byte, bool) {
	id := c.tr.begin("resultcache.get", c.parent.Load(), -1)
	p, ok := c.store.Get(key)
	c.tr.end(id)
	if ok {
		c.tr.add("resultcache.hits", 1)
		c.tr.add("resultcache.bytes_read", float64(len(p)))
	} else {
		c.tr.add("resultcache.misses", 1)
	}
	return p, ok
}

func (c *tracedCache) Put(key string, payload []byte) {
	id := c.tr.begin("resultcache.put", c.parent.Load(), -1)
	c.store.Put(key, payload)
	c.tr.end(id)
	c.tr.add("resultcache.bytes_written", float64(len(payload)))
}

// timedSink counts and times every record the simulator streams into an
// Aggregates.
type timedSink struct {
	agg *metrics.Aggregates
	n   int
	d   time.Duration
}

func (s *timedSink) Observe(r metrics.Record) {
	t := time.Now()
	s.agg.Observe(r)
	s.d += time.Since(t)
	s.n++
}

// reqHeader carries the load generator's request number to the traced
// handler, so server spans join the client's record of the same request.
const reqHeader = "X-Wfbench-Req"

// tracedHandler times the server's handler for every request and counts
// response bytes.
func tracedHandler(h http.Handler, tr *tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		id := tr.begin("server.handler", -1, req)
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		tr.end(id)
		tr.add("server.response_bytes", float64(cw.n))
	})
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += n
	return n, err
}
