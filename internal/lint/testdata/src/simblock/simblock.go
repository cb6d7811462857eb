// Package simblock is the fixture for the simblock rule: callbacks handed
// to Engine.Bind (continuation steps) or Engine.Schedule — directly, as
// literals, as method values, or through a bound-once field — must not
// block the engine's single dispatch thread, and neither may anything they
// call. Identical constructs outside any callback pass clean.
package simblock

import (
	"fmt"
	"sync"
	"time"

	"simblockeng"
)

type worker struct {
	mu     sync.Mutex
	cont   simblockeng.Cont
	stepFn func() // bound once at setup, bound to the continuation later
	done   chan int
}

// Start wires the fixture's callbacks: a named function, a bound method
// traced through the stepFn field, a scheduled literal, and a step method
// value bound directly.
func Start(e *simblockeng.Engine, w *worker, l *lifecycle) {
	w.stepFn = w.step
	e.Schedule(0, direct)
	e.Bind(&w.cont, w.stepFn)
	e.Schedule(1, func() {
		time.Sleep(time.Millisecond) // want `time.Sleep inside an engine callback waits on the host clock`
		w.cont.Wait(1)
	})
	e.Bind(&l.cont, l.step)
}

// direct is a callback by virtue of the e.Schedule call above; its own
// statements and everything it calls are checked.
func direct() {
	helper()
	go helper() // want `go statement inside an engine callback spawns a real goroutine`
}

// helper is one hop from a callback: still checked.
func helper() {
	ch := make(chan int, 1)
	ch <- 1  // want `channel send inside an engine callback`
	<-ch     // want `channel receive inside an engine callback`
	select { // want `select inside an engine callback`
	case v := <-ch: // want `channel receive inside an engine callback`
		_ = v
	default:
	}
}

// step runs as a continuation through the stepFn indirection; the rule
// traces the field back to this assignment.
func (w *worker) step() {
	w.mu.Lock() // want `sync Mutex.Lock inside an engine callback`
	w.mu.Unlock()
	fmt.Println("step")     // want `fmt.Println writes to a real stream inside an engine callback`
	for v := range w.done { // want `ranging over a channel inside an engine callback`
		_ = v
	}
}

// lifecycle is a state-machine continuation: its step advances a state
// and parks on the engine's primitives between states.
type lifecycle struct {
	cont    simblockeng.Cont
	state   int
	results chan float64
}

// step is bound directly as a method value. Waiting on virtual time is
// the approved primitive; handing a result over a channel is not.
func (l *lifecycle) step() {
	for {
		switch l.state {
		case 0:
			l.state = 1
			if !l.cont.Wait(2) {
				return
			}
		case 1:
			l.results <- 1.0 // want `channel send inside an engine callback`
			return
		}
	}
}

// annotated runs as a callback only via the doc-comment annotation — the
// registration happens through an indirection the call graph cannot see.
//
//wfsimlint:callback
func annotated() {
	time.Sleep(time.Second) // want `time.Sleep inside an engine callback`
	waved()
}

// waved carries a deliberate, line-annotated exception.
func waved() {
	time.Sleep(time.Millisecond) //wfsimlint:allow simblock
}

// Drive is ordinary (non-callback) code: the same constructs are fine
// here — this is what keeps the rule reachability-scoped rather than a
// blanket channel ban.
func Drive(e *simblockeng.Engine, w *worker) {
	w.mu.Lock()
	w.mu.Unlock()
	ch := make(chan int, 1)
	ch <- 1
	<-ch
	fmt.Println("driving")
	e.Run()
}
