package main

// A benchmark reads the host clock by design.
//
//wfsimlint:wallclock

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"time"

	"wfsim/internal/experiments"
	"wfsim/internal/resultcache"
	"wfsim/internal/runner"
)

// sweepIDs is the sweep: every experiment registered when the benchmark
// was defined except fig9b, which times real kernels by the wall clock,
// in ID order. The list is fixed so that an experiment added later does
// not change the workload.
var sweepIDs = []string{
	"ext1", "ext2", "ext3", "ext4", "ext5", "ext6",
	"fig1", "fig10a", "fig10b", "fig11", "fig12", "fig7a", "fig7b", "fig8", "fig9a",
	"table1",
}

// smokeSweepIDs are two fast experiments, one of them the golden fig1.
var smokeSweepIDs = []string{"ext4", "fig1"}

// sweep runs the experiment sweep, as `wfsim run all -cache DIR` does. Its
// operation is one pass over every experiment on a fresh runner.New(2).
// Cold passes each use a fresh empty store; warm passes share the store
// one cold pass filled during set-up, so every trial is a cache hit.
type sweep struct {
	cfg    config
	warm   bool
	ids    []string
	golden []byte

	want     map[string]string // render hash per experiment, from the first pass
	storeDir string            // warm: the store filled during set-up
}

func newSweep(cfg config, warm bool) *sweep {
	s := &sweep{cfg: cfg, warm: warm, ids: sweepIDs}
	if cfg.smoke {
		s.ids = smokeSweepIDs
	}
	return s
}

func (s *sweep) setup() error {
	var err error
	if s.golden, err = os.ReadFile(s.cfg.golden); err != nil {
		return fmt.Errorf("golden fig1 render: %w", err)
	}
	if !s.warm {
		return nil
	}
	if s.storeDir, err = os.MkdirTemp(s.cfg.work, "warm-"); err != nil {
		return err
	}
	store, err := resultcache.Open(s.storeDir, 0)
	if err != nil {
		return err
	}
	fill := &checks{}
	if _, err := s.pass(store, nil, -1, fill); err != nil {
		return fmt.Errorf("filling the store: %w", err)
	}
	if _, failed := fill.counts(); failed > 0 {
		return fmt.Errorf("filling the store: %v", fill.messages())
	}
	return store.Close()
}

func (s *sweep) probeDir() string { return s.storeDir }

func (s *sweep) probe(dir string) error {
	store, err := resultcache.Open(dir, 0)
	if err != nil {
		return err
	}
	runner.New(2).SetCache(store)
	return nil
}

func (s *sweep) close() {
	if s.storeDir != "" {
		os.RemoveAll(s.storeDir)
	}
}

func (s *sweep) run(seconds float64, tr *tracer, chk *checks) (phaseResult, error) {
	var store *resultcache.Store
	if s.warm {
		// Reopened per phase so that a traced phase times the index load.
		id := tr.begin("resultcache.open", -1, -1)
		var err error
		if store, err = resultcache.Open(s.storeDir, 0); err != nil {
			return phaseResult{}, err
		}
		tr.end(id)
	}
	ph := phaseResult{tailPct: 100}
	if s.warm {
		ph.tailPct = 95
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; len(ph.opsMS) == 0 || (!s.cfg.smoke && time.Now().Before(deadline)); i++ {
		settle()
		m := memNow()
		wall, err := s.pass(store, tr, int64(i), chk)
		if err != nil {
			return phaseResult{}, err
		}
		d := memSince(m)
		ph.mem.add(d)
		ph.allocOps = append(ph.allocOps, float64(d.alloc))
		ph.opsMS = append(ph.opsMS, float64(wall)/1e6)
	}
	if tr != nil && store != nil {
		tr.add("resultcache.entries", float64(store.Stats().Entries))
	}
	return ph, nil
}

// pass runs the sweep once. A cold pass (store == nil) opens a fresh
// store; the time to open it is part of the pass, as it is for the CLI.
// tr, when non-nil, wraps the store and times every experiment.
func (s *sweep) pass(store *resultcache.Store, tr *tracer, req int64, chk *checks) (time.Duration, error) {
	var dir string
	start := time.Now()
	passSpan := tr.begin("sweep.pass", -1, req)
	if store == nil {
		var err error
		if dir, err = os.MkdirTemp(s.cfg.work, "cold-"); err != nil {
			return 0, err
		}
		defer os.RemoveAll(dir)
		id := tr.begin("resultcache.open", passSpan, req)
		if store, err = resultcache.Open(dir, 0); err != nil {
			return 0, err
		}
		tr.end(id)
	}
	eng := runner.New(2)
	var tc *tracedCache
	if tr != nil {
		tc = newTracedCache(store, tr)
		eng.SetCache(tc)
	} else {
		eng.SetCache(store)
	}
	before := store.Stats()
	hashes := map[string]string{}
	var failure error
	for _, id := range s.ids {
		e, err := experiments.ByID(id)
		if err != nil {
			return 0, err
		}
		st := eng.Stats()
		sp := tr.begin("experiments.run."+id, passSpan, req)
		if tc != nil {
			tc.parent.Store(sp)
		}
		t0 := time.Now()
		res, err := e.Run(context.Background(), eng)
		runWall := time.Since(t0)
		tr.end(sp)
		if err != nil {
			failure = fmt.Errorf("%s: %w", id, err)
			continue
		}
		rs := tr.begin("experiments.render", passSpan, req)
		text := res.Render()
		tr.end(rs)
		sum := sha256.Sum256([]byte(text))
		hashes[id] = hex.EncodeToString(sum[:])
		if id == "fig1" && !bytes.Equal([]byte(text), s.golden) && failure == nil {
			failure = fmt.Errorf("fig1 render differs from %s", s.cfg.golden)
		}
		if tr != nil {
			d := eng.Stats()
			trials := float64(d.Trials - st.Trials)
			memo := float64(d.Memoized - st.Memoized)
			hits := float64(d.CacheHits - st.CacheHits)
			tr.add("runner.trials", trials)
			tr.add("runner.memo_hits", memo-hits)
			tr.add("runner.cache_hits", hits)
			tr.add("runner.executed", trials-memo)
			tr.add("runner.failed", float64(d.Failed-st.Failed))
			tr.add("runner.cpu_wall_s", (d.CPUWall - st.CPUWall).Seconds())
			tr.add("runner.wall_s", runWall.Seconds())
		}
	}
	if dir != "" {
		if err := store.Close(); err != nil {
			return 0, err
		}
	}
	wall := time.Since(start)
	tr.end(passSpan)

	if failed := eng.Stats().Failed; failed > 0 && failure == nil {
		failure = fmt.Errorf("runner reported %d failed trials", failed)
	}
	// The pass that fills the warm store (req < 0) is the one allowed to
	// miss.
	if after := store.Stats(); s.warm && req >= 0 && failure == nil &&
		(after.Misses != before.Misses || after.Puts != before.Puts) {
		failure = fmt.Errorf("warm pass missed the cache: %d misses, %d puts",
			after.Misses-before.Misses, after.Puts-before.Puts)
	}
	if s.want == nil {
		s.want = hashes
	}
	for _, id := range s.ids {
		if hashes[id] != s.want[id] && failure == nil {
			failure = fmt.Errorf("%s render changed between passes", id)
		}
	}
	chk.op(failure)
	return wall, nil
}
