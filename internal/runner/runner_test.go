package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func trialSet(n int, fn func(i int) Trial) []Trial {
	out := make([]Trial, n)
	for i := range out {
		out[i] = fn(i)
	}
	return out
}

func TestRunPreservesSubmissionOrder(t *testing.T) {
	e := New(8)
	trials := trialSet(64, func(i int) Trial {
		return Trial{
			ID: fmt.Sprintf("t%d", i),
			Run: func(context.Context) (any, error) {
				// Reverse the natural completion order so any
				// completion-order bug scrambles the results.
				time.Sleep(time.Duration(64-i) * 10 * time.Microsecond)
				return i * i, nil
			},
		}
	})
	rep, err := e.Run(context.Background(), trials)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range rep.Outcomes {
		if o.ID != fmt.Sprintf("t%d", i) || o.Value.(int) != i*i {
			t.Fatalf("outcome %d out of order: %+v", i, o)
		}
	}
}

func TestRunBoundsConcurrency(t *testing.T) {
	const workers = 3
	e := New(workers)
	var cur, max atomic.Int32
	trials := trialSet(32, func(i int) Trial {
		return Trial{ID: fmt.Sprint(i), Run: func(context.Context) (any, error) {
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			return nil, nil
		}}
	})
	if _, err := e.Run(context.Background(), trials); err != nil {
		t.Fatal(err)
	}
	if got := max.Load(); got > workers {
		t.Errorf("observed %d concurrent trials, pool bound is %d", got, workers)
	}
}

func TestFirstErrorPropagation(t *testing.T) {
	e := New(4)
	boom := errors.New("boom")
	var started atomic.Int32
	trials := trialSet(100, func(i int) Trial {
		return Trial{ID: fmt.Sprintf("t%d", i), Run: func(context.Context) (any, error) {
			started.Add(1)
			if i == 5 {
				return nil, boom
			}
			time.Sleep(100 * time.Microsecond)
			return i, nil
		}}
	})
	_, err := e.Run(context.Background(), trials)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "trial t5") {
		t.Errorf("error should name the failing trial: %v", err)
	}
	if n := started.Load(); n == 100 {
		t.Error("failure did not stop the launch of remaining trials")
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	// Two failures in one set: the reported error must be the
	// lowest-index one regardless of completion order.
	e := New(2)
	early, late := errors.New("early"), errors.New("late")
	trials := []Trial{
		{ID: "a", Run: func(context.Context) (any, error) {
			time.Sleep(5 * time.Millisecond)
			return nil, early
		}},
		{ID: "b", Run: func(context.Context) (any, error) { return nil, late }},
	}
	_, err := e.Run(context.Background(), trials)
	if !errors.Is(err, early) || !strings.Contains(err.Error(), "trial a") {
		t.Fatalf("err = %v, want trial a's error", err)
	}
}

func TestCallerCancellation(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	trials := trialSet(50, func(i int) Trial {
		return Trial{ID: fmt.Sprint(i), Run: func(context.Context) (any, error) {
			if ran.Add(1) == 3 {
				cancel()
			}
			return i, nil
		}}
	})
	_, err := e.Run(ctx, trials)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 50 {
		t.Error("cancellation did not stop the set")
	}
}

func TestMemoizationSharesOneExecution(t *testing.T) {
	e := New(8)
	var execs atomic.Int32
	trials := trialSet(40, func(i int) Trial {
		return Trial{
			ID:  fmt.Sprintf("t%d", i),
			Key: fmt.Sprintf("k%d", i%4), // 4 distinct keys
			Run: func(context.Context) (any, error) {
				execs.Add(1)
				time.Sleep(time.Millisecond)
				return i % 4, nil
			},
		}
	})
	rep, err := e.Run(context.Background(), trials)
	if err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 4 {
		t.Errorf("executions = %d, want 4 (one per key)", got)
	}
	if rep.Memoized != 36 {
		t.Errorf("memoized = %d, want 36", rep.Memoized)
	}
	for i, o := range rep.Outcomes {
		if o.Value.(int) != i%4 {
			t.Fatalf("outcome %d has wrong shared value %v", i, o.Value)
		}
	}

	// The cache persists across Run calls on the same engine.
	rep2, err := e.Run(context.Background(), trials[:4])
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 4 || rep2.Memoized != 4 {
		t.Errorf("second run re-executed: execs=%d memoized=%d", execs.Load(), rep2.Memoized)
	}
}

// waitHook is a context that reports when runTrial selects on it: a
// coalesced trial does so only after it found the key in flight.
type waitHook struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (h *waitHook) Done() <-chan struct{} {
	h.once.Do(func() { close(h.waiting) })
	return h.Context.Done()
}

// TestMemoizationSharesErrors coalesces a trial onto an in-flight one that
// fails: the waiter sees the failure without running.
func TestMemoizationSharesErrors(t *testing.T) {
	e := New(1)
	boom := errors.New("boom")
	started, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		_, err := e.Run(context.Background(), []Trial{{ID: "a", Key: "same",
			Run: func(context.Context) (any, error) {
				close(started)
				<-release
				return nil, boom
			}}})
		first <- err
	}()
	<-started
	hook := &waitHook{Context: context.Background(), waiting: make(chan struct{})}
	waiter := make(chan error, 1)
	var out Outcome
	go func() {
		waiter <- e.runTrial(hook, Trial{ID: "b", Key: "same", Run: func(context.Context) (any, error) {
			t.Error("coalesced trial ran")
			return nil, nil
		}}, &out)
	}()
	select {
	case <-hook.waiting:
	case err := <-waiter:
		t.Fatalf("trial b returned %v without waiting on the in-flight one", err)
	}
	close(release)
	if err := <-first; !errors.Is(err, boom) {
		t.Fatalf("first run: %v", err)
	}
	if err := <-waiter; !errors.Is(err, boom) {
		t.Fatalf("coalesced waiter: %v, want the shared failure", err)
	}
}

// TestFailedTrialRunsAgain: a failure is not memoized, so a trial that
// fails once and then succeeds under the same key runs twice.
func TestFailedTrialRunsAgain(t *testing.T) {
	e := New(1)
	boom := errors.New("boom")
	var execs atomic.Int32
	trial := Trial{ID: "t", Key: "same", Run: func(context.Context) (any, error) {
		if execs.Add(1) == 1 {
			return nil, boom
		}
		return 7, nil
	}}
	if _, err := e.Run(context.Background(), []Trial{trial}); !errors.Is(err, boom) {
		t.Fatalf("first run: %v", err)
	}
	rep, err := e.Run(context.Background(), []Trial{trial})
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if execs.Load() != 2 || rep.Outcomes[0].Value != 7 || rep.Memoized != 0 {
		t.Fatalf("executions = %d, value %v, memoized %d; want 2, 7, 0",
			execs.Load(), rep.Outcomes[0].Value, rep.Memoized)
	}
	// The success is memoized as usual.
	rep, err = e.Run(context.Background(), []Trial{trial})
	if err != nil {
		t.Fatalf("third run: %v", err)
	}
	if rep.Memoized != 1 || execs.Load() != 2 {
		t.Fatalf("third run: memoized %d, executions %d; want a memo hit", rep.Memoized, execs.Load())
	}
}

type virtualResult float64

func (v virtualResult) VirtualSeconds() float64 { return float64(v) }

func TestVirtualTimeAccounting(t *testing.T) {
	e := New(4)
	trials := trialSet(10, func(i int) Trial {
		return Trial{ID: fmt.Sprint(i), Run: func(context.Context) (any, error) {
			return virtualResult(2.5), nil
		}}
	})
	rep, err := e.Run(context.Background(), trials)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Virtual != 25 {
		t.Errorf("virtual = %v, want 25", rep.Virtual)
	}
	if rep.Outcomes[0].Virtual != 2.5 {
		t.Errorf("per-trial virtual = %v, want 2.5", rep.Outcomes[0].Virtual)
	}
	if rep.CPUWall <= 0 || rep.Wall <= 0 {
		t.Errorf("wall accounting missing: wall=%v cpuwall=%v", rep.Wall, rep.CPUWall)
	}
	st := e.Stats()
	if st.Trials != 10 || st.Virtual != 25 {
		t.Errorf("stats = %+v, want 10 trials / 25 virtual", st)
	}
}

func TestMapPreservesOrderAndTypes(t *testing.T) {
	e := New(8)
	items := make([]int, 30)
	for i := range items {
		items[i] = i
	}
	sq, err := Map(context.Background(), e, "sq", items, nil,
		func(_ context.Context, x int) (float64, error) {
			time.Sleep(time.Duration(30-x) * 20 * time.Microsecond)
			return float64(x * x), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sq {
		if v != float64(i*i) {
			t.Fatalf("sq[%d] = %v", i, v)
		}
	}

	_, err = Map(context.Background(), e, "fail", items, nil,
		func(_ context.Context, x int) (int, error) {
			if x == 7 {
				return 0, errors.New("nope")
			}
			return x, nil
		})
	if err == nil || !strings.Contains(err.Error(), "fail[7]") {
		t.Fatalf("Map error should carry the labeled trial ID: %v", err)
	}
}

func TestMapMemoization(t *testing.T) {
	e := New(4)
	var execs atomic.Int32
	items := []string{"a", "b", "a", "a", "b"}
	got, err := Map(context.Background(), e, "memo", items,
		func(s string) string { return s },
		func(_ context.Context, s string) (string, error) {
			execs.Add(1)
			return strings.ToUpper(s), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if execs.Load() != 2 {
		t.Errorf("executions = %d, want 2", execs.Load())
	}
	want := []string{"A", "B", "A", "A", "B"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestNewDefaultsToNumCPU(t *testing.T) {
	if got := New(0).Workers(); got != runtime.NumCPU() {
		t.Errorf("New(0).Workers() = %d, want NumCPU=%d", got, runtime.NumCPU())
	}
	if got := New(-3).Workers(); got != runtime.NumCPU() {
		t.Errorf("New(-3).Workers() = %d, want NumCPU=%d", got, runtime.NumCPU())
	}
	if got := New(5).Workers(); got != 5 {
		t.Errorf("New(5).Workers() = %d", got)
	}
}

func TestEmptyTrialSet(t *testing.T) {
	rep, err := New(4).Run(context.Background(), nil)
	if err != nil || len(rep.Outcomes) != 0 {
		t.Fatalf("empty set: rep=%+v err=%v", rep, err)
	}
}

// TestConcurrentEngineUse exercises one engine from many goroutines with
// overlapping memo keys — the go test -race target for the cache paths.
func TestConcurrentEngineUse(t *testing.T) {
	e := New(4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			trials := trialSet(20, func(i int) Trial {
				return Trial{
					ID:  fmt.Sprintf("g%d-t%d", g, i),
					Key: fmt.Sprintf("shared-%d", i%5),
					Run: func(context.Context) (any, error) {
						return virtualResult(1), nil
					},
				}
			})
			if _, err := e.Run(context.Background(), trials); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if st := e.Stats(); st.Trials != 160 {
		t.Errorf("stats.Trials = %d, want 160", st.Trials)
	}
}
