// The local backend executes real kernels on the host and reports real
// elapsed time, so this file is wall-clock layer by design and exempt
// from the walltime determinism lint.
//
//wfsimlint:wallclock

package runtime

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"wfsim/internal/metrics"
)

// LocalConfig controls real (non-simulated) execution of a workflow on the
// host machine.
type LocalConfig struct {
	// Workers caps concurrent task execution; 0 means GOMAXPROCS.
	Workers int
}

// LocalResult is the outcome of a real execution.
type LocalResult struct {
	// Store holds every materialized datum after execution.
	Store *Store
	// Collector records wall-clock user-code spans per task.
	Collector *metrics.Collector
	// Elapsed is the wall-clock makespan.
	Elapsed time.Duration
}

// RunLocal executes the workflow's real kernels on a goroutine worker pool,
// respecting DAG dependencies. It is the correctness backend: examples and
// tests use it to verify that the same workflow definition that drives the
// simulator computes the right numbers.
func RunLocal(wf *Workflow, cfg LocalConfig) (*LocalResult, error) {
	if err := wf.Graph.Validate(); err != nil {
		return nil, fmt.Errorf("workflow %s: %w", wf.Name, err)
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	store := NewStore()
	for k, b := range wf.initial {
		store.Put(k, b)
	}
	collector := metrics.NewCollector()
	start := time.Now()

	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		firstErr  error
		remaining = make([]int, wf.Graph.Len())
	)
	sem := make(chan struct{}, workers)

	g := wf.Graph
	var launch func(id int)
	launch = func(id int) {
		defer wg.Done()
		sem <- struct{}{}
		spec := wf.SpecByID(id)
		t0 := time.Since(start).Seconds()
		var err error
		if spec.Exec != nil {
			err = spec.Exec(store)
		}
		t1 := time.Since(start).Seconds()
		<-sem

		collector.Add(metrics.Record{
			TaskID: id, TaskName: g.Name(id), Level: g.Level(id),
			Device: "CPU", Stage: metrics.StageParallel, Start: t0, End: t1,
		})

		mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("task %d (%s): %w", id, g.Name(id), err)
		}
		var ready []int
		if firstErr == nil {
			for _, s := range g.Succs(id) {
				remaining[s]--
				if remaining[s] == 0 {
					ready = append(ready, int(s))
				}
			}
		}
		mu.Unlock()
		for _, s := range ready {
			wg.Add(1)
			go launch(s)
		}
	}

	mu.Lock()
	for id := range remaining {
		remaining[id] = len(g.Deps(id))
	}
	roots := g.Roots()
	mu.Unlock()
	for _, id := range roots {
		wg.Add(1)
		go launch(id)
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if collector.Len() != wf.Graph.Len() {
		return nil, fmt.Errorf("workflow %s: %d of %d tasks ran (dependency stall after error?)",
			wf.Name, collector.Len(), wf.Graph.Len())
	}
	return &LocalResult{Store: store, Collector: collector, Elapsed: time.Since(start)}, nil
}
