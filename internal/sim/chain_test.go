package sim

// chain is the tests' step-chain helper: a continuation that runs a list
// of ops in order. Each op reports false when it parked the continuation;
// the engine then calls step again at the resume instant and the chain
// carries on with the next op.
type chain struct {
	c   Cont
	ops []op
	pc  int
}

// op is one step of a chain.
type op func(c *Cont) bool

func (ch *chain) step() {
	for ch.pc < len(ch.ops) {
		o := ch.ops[ch.pc]
		ch.pc++
		if !o(&ch.c) {
			return
		}
	}
}

// spawn starts a chain of ops on e after delay seconds.
func spawn(e *Engine, delay float64, ops ...op) *chain {
	ch := &chain{ops: ops}
	e.Bind(&ch.c, ch.step)
	ch.c.Start(delay)
	return ch
}

func wait(d float64) op { return func(c *Cont) bool { return c.Wait(d) } }

func acquire(s *Server) op { return func(c *Cont) bool { return s.Acquire(c) } }

func transfer(l *Link, bytes float64) op {
	return func(c *Cont) bool { return l.Transfer(c, bytes) }
}

// do runs f inline.
func do(f func()) op { return func(*Cont) bool { f(); return true } }
