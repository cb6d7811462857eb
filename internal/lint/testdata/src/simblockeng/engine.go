// Package simblockeng is the substrate fixture for the simblock rule: a
// minimal Engine with the Bind/Schedule callback-registering shape. Its
// own package is exempt from the rule — the substrate is allowed to touch
// the machinery callbacks must never use.
package simblockeng

// Cont is a continuation: a step function the engine calls at each resume.
type Cont struct {
	clock float64
	step  func()
}

// Wait advances the continuation's virtual clock — the approved way for a
// step to spend time.
func (c *Cont) Wait(d float64) bool {
	c.clock += d
	return true
}

// Start schedules the continuation's step after delay virtual seconds.
func (c *Cont) Start(delay float64) { _ = delay }

// Engine runs callbacks inline on one goroutine.
type Engine struct {
	pending []func()
}

// Bind attaches step to c as its resume callback.
func (e *Engine) Bind(c *Cont, step func()) {
	c.step = step
	e.pending = append(e.pending, step)
}

// Schedule runs fn after delay virtual seconds.
func (e *Engine) Schedule(delay float64, fn func()) {
	_ = delay
	e.pending = append(e.pending, fn)
}

// Run drains the pending callbacks; being in the substrate package, the
// machinery here is exempt however it synchronizes.
func (e *Engine) Run() {
	done := make(chan struct{}, len(e.pending))
	for _, fn := range e.pending {
		fn()
		done <- struct{}{}
	}
}
