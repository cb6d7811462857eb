package sim

import "fmt"

// Cont is an engine-driven continuation: an owned, pre-bound event node
// plus the step callback the engine invokes when the node fires. A
// simulated activity keeps its own progress (an explicit state, cursors)
// and advances it in its step function; whenever a primitive cannot
// complete in place, the step returns and the engine calls it again at the
// resume instant. Binding is done once; a Cont is then reused across any
// number of park/resume cycles and restarts without allocating.
//
// At most one resume may be pending per Cont: a primitive that reports
// false has taken the node, and the step must return without touching
// another primitive until it is called again.
type Cont struct {
	ev event
}

// Bind attaches c to engine e with step as its resume callback. A Cont may
// be re-bound (to carry it into another engine, say) only while no resume
// is pending.
func (e *Engine) Bind(c *Cont, step func()) {
	if c.ev.eng != nil && c.ev.index != -1 {
		// Misuse: the pending node would be corrupted. Formats once, then
		// the run dies.
		panic(fmt.Sprintf("sim: Bind of a continuation pending at t=%v", c.ev.at)) //wfsimlint:allow hotalloc
	}
	c.ev = event{fn: step, eng: e, index: -1, role: roleCont}
}

// Start schedules the step to run after delay seconds. The resume takes its
// schedule position now, so among same-instant events it orders exactly
// where a Wait of the same delay issued at this point would.
func (c *Cont) Start(delay float64) {
	c.ev.eng.schedNode(&c.ev, delay)
}

// Wait advances the continuation by d seconds of virtual time. d must be
// non-negative; zero is allowed and yields to other events scheduled at the
// same instant.
//
// Wait reports true when the clock advanced in place: no pending event
// fires before the resume instant, so the step simply continues inline.
// Otherwise it schedules the resume and reports false; the step must
// return and is called again at now+d.
func (c *Cont) Wait(d float64) bool {
	e := c.ev.eng
	if e.waitInPlace(d) {
		return true
	}
	e.schedNode(&c.ev, d)
	return false
}

// resume schedules the step at the current instant: the wake-up a Server
// grant or a Link completion hands to a parked continuation.
func (c *Cont) resume() {
	c.ev.eng.schedNode(&c.ev, 0)
}
