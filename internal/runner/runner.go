// Package runner is the trial-execution engine behind every experiment:
// it takes an enumerable set of independent trials — each a self-contained
// closure with a stable ID — and executes them on a bounded goroutine
// worker pool with context cancellation, deterministic first-error
// propagation, optional memoization of repeated trials, and per-trial
// wall-clock/virtual-time accounting.
//
// The engine separates experiment *specification* (the trial set, built
// serially and deterministically) from *execution* (the pool), so a
// 192-sample sweep saturates the machine while its rendered output stays
// byte-identical to a serial run: results are returned in submission
// order, never completion order, and every trial is an independent
// deterministic simulation.
//
// This package is the real-time layer by design: it times trials with the
// host clock, so it is exempt from the walltime determinism lint.
//
//wfsimlint:wallclock
package runner

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Slot is worker-local scratch state that persists across Run calls: a
// worker goroutine checks one out for the duration of a trial batch and
// returns it when the batch drains, so whatever a trial stashes here
// (simulation arenas, streaming aggregators) is reused by later trials on
// the same slot instead of reallocated. Exactly one worker holds a slot
// at a time — trials may mutate it without locking — but successive
// holders are different goroutines, so anything stored must be safe to
// hand off (plain data, not goroutine-affine handles).
type Slot struct{ value any }

// Value returns what the previous trial on this slot stored, or nil.
func (s *Slot) Value() any { return s.value }

// Set stores v for later trials executing on this slot.
func (s *Slot) Set(v any) { s.value = v }

type slotCtxKey struct{}

// WorkerSlot returns the executing worker's persistent scratch slot, or
// nil when ctx did not come from an Engine worker (direct trial
// invocation in tests, plain contexts).
func WorkerSlot(ctx context.Context) *Slot {
	s, _ := ctx.Value(slotCtxKey{}).(*Slot)
	return s
}

// Cache is a persistent result store the engine can consult before
// executing a keyed trial and populate after: the cross-process
// counterpart of the in-process memo map. internal/resultcache.Store
// implements it. Implementations must be safe for concurrent use.
type Cache interface {
	// Get returns the payload stored under key, or false on a miss.
	Get(key string) ([]byte, bool)
	// Put stores payload under key. Put must not fail the caller: a
	// cache that cannot write degrades to a smaller cache.
	Put(key string, payload []byte)
}

// Codec converts a trial's result value to and from the byte payload a
// Cache persists. The zero Codec marks a trial as non-persistable (it
// still participates in the in-process memo).
type Codec struct {
	Encode func(v any) ([]byte, error)
	Decode func(payload []byte) (any, error)
}

// Persistable reports whether the codec can round-trip values.
func (c Codec) Persistable() bool { return c.Encode != nil && c.Decode != nil }

// JSONCodec round-trips a concrete result type R through encoding/json.
// This is lossless for the experiment row types (exported scalar fields;
// Go's float64 JSON rendering is shortest-exact), so a decoded value
// renders byte-identically to a freshly computed one — the property the
// warm-sweep determinism test pins.
func JSONCodec[R any]() Codec {
	return Codec{
		Encode: func(v any) ([]byte, error) { return json.Marshal(v.(R)) },
		Decode: func(payload []byte) (any, error) {
			var r R
			if err := json.Unmarshal(payload, &r); err != nil {
				return nil, err
			}
			return r, nil
		},
	}
}

// Trial is one independent unit of work: typically a single simulated
// workflow execution for one factor combination.
type Trial struct {
	// ID is a stable identifier used for ordering, accounting, and error
	// messages. IDs should be unique within a trial set.
	ID string
	// Key optionally enables memoization: trials with the same non-empty
	// Key are executed once per engine lifetime and share the result
	// (including an error, if the first execution failed). Memoized
	// results must be treated as immutable by all sharers. An empty Key
	// disables memoization for the trial.
	//
	// Keys should be canonical (resultcache.KeyOf) — stable across
	// processes and struct-field refactors — because they also address
	// the engine's persistent cache when one is attached.
	Key string
	// Codec, when persistable, lets a keyed trial's result be served
	// from and stored to the engine's persistent cache across processes.
	// Trials without a codec (or without a key) never touch it.
	Codec Codec
	// Run executes the trial. The context is cancelled when a sibling
	// trial fails or the caller aborts; long-running trials may honor it,
	// short deterministic simulations can ignore it (the engine stops
	// launching new trials either way).
	Run func(ctx context.Context) (any, error)
}

// Outcome is the per-trial execution record.
type Outcome struct {
	// ID echoes the trial's ID.
	ID string
	// Value is the trial's result.
	Value any
	// Wall is the trial's wall-clock execution time (zero when the value
	// was served from the memo cache).
	Wall time.Duration
	// Virtual is the simulated (virtual) seconds the trial reported via
	// the VirtualTimed interface, zero otherwise.
	Virtual float64
	// Memoized marks values served from (or shared through) the cache.
	Memoized bool
	// CacheHit marks values decoded from the persistent cache rather
	// than executed in this process (CacheHit implies Memoized).
	CacheHit bool
}

// Report is the result of one Run call: outcomes in submission order plus
// set-level accounting.
type Report struct {
	// Outcomes has one entry per submitted trial, in submission order.
	Outcomes []Outcome
	// Wall is the wall-clock time of the whole set.
	Wall time.Duration
	// CPUWall is the summed per-trial wall time — the serial-equivalent
	// cost; CPUWall/Wall estimates the achieved parallelism.
	CPUWall time.Duration
	// Virtual is the summed virtual seconds simulated across the set.
	Virtual float64
	// Memoized counts trials served from the cache.
	Memoized int
	// CacheHits counts trials served from the persistent cache.
	CacheHits int
}

// VirtualTimed is implemented by trial results that carry simulated
// (virtual) time; the engine aggregates it alongside wall-clock time so
// sweeps can report how much virtual time they simulated per wall second.
type VirtualTimed interface {
	VirtualSeconds() float64
}

// Stats is the engine's cumulative accounting across all Run calls.
type Stats struct {
	Trials    int
	Memoized  int
	CacheHits int
	Failed    int
	CPUWall   time.Duration
	Virtual   float64
}

// Engine executes trial sets on a bounded worker pool. An Engine is safe
// for concurrent use; its memo cache persists across Run calls, so
// experiments sharing factor combinations (e.g. `run all`) simulate each
// combination once.
type Engine struct {
	workers int
	// cache, when non-nil, persists keyed+codec'd trial results across
	// processes. Consulted only on first execution of a key (the
	// in-process memo absorbs repeats within one engine lifetime).
	cache Cache

	mu    sync.Mutex
	memo  map[string]*memoEntry
	stats Stats
	// free is the slot pool. Slots are checked out per worker goroutine
	// per Run call; the pool never shrinks, so at most max-concurrent-
	// workers slots ever exist.
	free []*Slot
}

type memoEntry struct {
	done     chan struct{}
	value    any
	virtual  float64
	cacheHit bool
	err      error
}

// New returns an engine with the given worker-pool bound. A bound < 1
// selects runtime.NumCPU().
func New(workers int) *Engine {
	if workers < 1 {
		workers = runtime.NumCPU()
	}
	return &Engine{workers: workers, memo: map[string]*memoEntry{}}
}

// Workers returns the pool bound.
func (e *Engine) Workers() int { return e.workers }

// SetCache attaches a persistent result cache. Attach before the first
// Run call; the engine consults it for every keyed trial with a
// persistable codec and writes freshly computed results back.
func (e *Engine) SetCache(c Cache) { e.cache = c }

// Stats returns cumulative accounting across every Run call so far.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Run executes the trial set and returns outcomes in submission order.
// On failure it returns the error of the lowest-index failing trial
// (wrapped with the trial ID) after cancelling and draining the rest; on
// caller cancellation it returns the context error.
func (e *Engine) Run(ctx context.Context, trials []Trial) (*Report, error) {
	start := time.Now()
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	outcomes := make([]Outcome, len(trials))
	errs := make([]error, len(trials))

	workers := e.workers
	if workers > len(trials) {
		workers = len(trials)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			slot := e.acquireSlot()
			defer e.releaseSlot(slot)
			slotCtx := context.WithValue(runCtx, slotCtxKey{}, slot)
			for i := range idx {
				errs[i] = e.runTrial(slotCtx, trials[i], &outcomes[i])
				if errs[i] != nil {
					cancel() // first-error propagation: stop launching
				}
			}
		}()
	}
feed:
	for i := range trials {
		select {
		case idx <- i:
		case <-runCtx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	rep := &Report{Outcomes: outcomes, Wall: time.Since(start)}
	for _, o := range outcomes {
		rep.CPUWall += o.Wall
		rep.Virtual += o.Virtual
		if o.Memoized {
			rep.Memoized++
		}
		if o.CacheHit {
			rep.CacheHits++
		}
	}
	failed := 0
	var firstErr error
	for i, err := range errs {
		if err != nil {
			failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("trial %s: %w", trials[i].ID, err)
			}
		}
	}
	e.mu.Lock()
	e.stats.Trials += len(trials)
	e.stats.Memoized += rep.Memoized
	e.stats.CacheHits += rep.CacheHits
	e.stats.Failed += failed
	e.stats.CPUWall += rep.CPUWall
	e.stats.Virtual += rep.Virtual
	e.mu.Unlock()
	if firstErr != nil {
		return nil, firstErr
	}
	// The caller's context aborted the set before every trial ran.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rep, nil
}

// runTrial executes (or memo-serves) one trial, filling its outcome slot.
func (e *Engine) runTrial(ctx context.Context, t Trial, out *Outcome) error {
	out.ID = t.ID
	if err := ctx.Err(); err != nil {
		return nil // cancelled before start; Run reports the context error
	}
	if t.Key == "" {
		start := time.Now()
		v, err := t.Run(ctx)
		if err != nil {
			return err
		}
		out.Value, out.Wall, out.Virtual = v, time.Since(start), virtualOf(v)
		return nil
	}

	e.mu.Lock()
	ent, inFlight := e.memo[t.Key]
	if !inFlight {
		ent = &memoEntry{done: make(chan struct{})}
		e.memo[t.Key] = ent
	}
	e.mu.Unlock()

	if inFlight {
		select {
		case <-ent.done:
		case <-ctx.Done():
			return nil // Run reports the context error
		}
		if ent.err != nil {
			return ent.err
		}
		out.Value, out.Virtual, out.Memoized, out.CacheHit = ent.value, ent.virtual, true, ent.cacheHit
		return nil
	}

	// First execution of this key in this process: the persistent cache
	// may already hold the result from an earlier run.
	if e.cache != nil && t.Codec.Persistable() {
		if payload, ok := e.cache.Get(t.Key); ok {
			if v, err := t.Codec.Decode(payload); err == nil {
				ent.value, ent.virtual, ent.cacheHit = v, virtualOf(v), true
				close(ent.done)
				out.Value, out.Virtual, out.Memoized, out.CacheHit = v, ent.virtual, true, true
				return nil
			}
			// Undecodable payload (stale codec, foreign writer): fall
			// through and recompute; the fresh Put below overwrites it.
		}
	}

	start := time.Now()
	ent.value, ent.err = t.Run(ctx)
	ent.virtual = virtualOf(ent.value)
	close(ent.done)
	if ent.err != nil {
		// Waiters already coalesced on ent see the error; a later request
		// runs the trial afresh rather than replaying a failure that may
		// have been transient (a cancelled context, say).
		e.mu.Lock()
		if e.memo[t.Key] == ent {
			delete(e.memo, t.Key)
		}
		e.mu.Unlock()
		return ent.err
	}
	if e.cache != nil && t.Codec.Persistable() {
		if payload, err := t.Codec.Encode(ent.value); err == nil {
			e.cache.Put(t.Key, payload)
		}
	}
	out.Value, out.Wall, out.Virtual = ent.value, time.Since(start), ent.virtual
	return nil
}

// acquireSlot checks a scratch slot out of the pool, creating one when
// every existing slot is held (concurrent Run calls).
func (e *Engine) acquireSlot() *Slot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if n := len(e.free); n > 0 {
		s := e.free[n-1]
		e.free = e.free[:n-1]
		return s
	}
	return &Slot{}
}

func (e *Engine) releaseSlot(s *Slot) {
	e.mu.Lock()
	e.free = append(e.free, s)
	e.mu.Unlock()
}

func virtualOf(v any) float64 {
	if vt, ok := v.(VirtualTimed); ok {
		return vt.VirtualSeconds()
	}
	return 0
}

// Map executes one trial per item through the engine, preserving item
// order in the returned slice. The optional key function enables
// memoization (nil disables it); label prefixes trial IDs for error
// messages and accounting.
func Map[T, R any](ctx context.Context, e *Engine, label string, items []T, key func(T) string, run func(context.Context, T) (R, error)) ([]R, error) {
	trials := make([]Trial, len(items))
	for i := range items {
		item := items[i]
		k := ""
		if key != nil {
			k = key(item)
		}
		trials[i] = Trial{
			ID:  fmt.Sprintf("%s[%d]", label, i),
			Key: k,
			Run: func(ctx context.Context) (any, error) { return run(ctx, item) },
		}
		if k != "" {
			// Keyed Map trials are persistable for free: R is a concrete
			// row type that round-trips losslessly through JSON.
			trials[i].Codec = JSONCodec[R]()
		}
	}
	rep, err := e.Run(ctx, trials)
	if err != nil {
		return nil, err
	}
	out := make([]R, len(items))
	for i, o := range rep.Outcomes {
		out[i] = o.Value.(R)
	}
	return out, nil
}
