// Package faults injects deterministic, seeded failures into a simulated
// run: node crash/restart cycles (MTBF/MTTR), transient per-task failures,
// and straggler slowdown episodes. All fault events are driven by the
// engine's virtual clock and an explicitly seeded PCG stream, so a faulty
// run is exactly as reproducible as a clean one — same seed, same
// byte-identical trace.
//
// The injector only flips state (node up/down epochs, per-node speed
// factors) and fires hooks; recovery policy — retrying failed attempts,
// re-queueing tasks stranded on a dead node, lineage recomputation of lost
// blocks — lives in the runtime, which observes the state at task stage
// boundaries. This mirrors how a COMPSs-style master detects worker loss:
// not preemptively, but when a dispatched task's heartbeat or result is
// due.
package faults

import (
	"fmt"
	"math/rand/v2"

	"wfsim/internal/sim"
)

// Config parameterizes the failure model. The zero value disables
// injection entirely (Enabled reports false) and the runtime's fault
// machinery is a strict no-op.
type Config struct {
	// Seed feeds the fault PCG streams. Runs with equal seeds and configs
	// produce identical fault schedules.
	Seed uint64
	// NodeMTBF is the mean time between node crashes, per node, in
	// virtual seconds (exponential). Zero disables crashes.
	NodeMTBF float64
	// NodeMTTR is the mean node repair time in virtual seconds
	// (exponential). A crashed node loses its local disk contents; on
	// repair it rejoins empty. Defaults to NodeMTBF/10.
	NodeMTTR float64
	// TaskFailProb is the probability that one task attempt suffers a
	// transient failure (bad allocation, flaky kernel, killed worker
	// process) partway through its compute stage. Zero disables.
	TaskFailProb float64
	// MaxAttempts caps how many consecutive transient failures a single
	// task may suffer before the run aborts with an error; a successful
	// attempt resets the count. Defaults to 4.
	MaxAttempts int
	// RetryBackoff is the base delay before re-queueing a transiently
	// failed task; it doubles per accumulated failure. Defaults to 50 ms.
	RetryBackoff float64
	// StragglerMTBF is the mean time between straggler episodes per node
	// (exponential). Zero disables stragglers.
	StragglerMTBF float64
	// StragglerDuration is the mean episode length (exponential).
	// Defaults to StragglerMTBF/10.
	StragglerDuration float64
	// StragglerFactor is the node's relative compute speed during an
	// episode (0 < factor ≤ 1). Defaults to 0.25.
	StragglerFactor float64
}

// Enabled reports whether any fault mechanism is active.
func (c Config) Enabled() bool {
	return c.NodeMTBF > 0 || c.TaskFailProb > 0 || c.StragglerMTBF > 0
}

// WithDefaults fills unset tuning knobs with their documented defaults.
func (c Config) WithDefaults() Config {
	if c.MaxAttempts == 0 {
		c.MaxAttempts = 4
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 0.05
	}
	if c.NodeMTBF > 0 && c.NodeMTTR == 0 {
		c.NodeMTTR = c.NodeMTBF / 10
	}
	if c.StragglerMTBF > 0 && c.StragglerDuration == 0 {
		c.StragglerDuration = c.StragglerMTBF / 10
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = 0.25
	}
	return c
}

// Validate checks the (defaults-applied) config for usable values.
func (c Config) Validate() error {
	if c.NodeMTBF < 0 || c.NodeMTTR < 0 || c.StragglerMTBF < 0 || c.StragglerDuration < 0 {
		return fmt.Errorf("faults: negative time constant in %+v", c)
	}
	if c.TaskFailProb < 0 || c.TaskFailProb >= 1 {
		return fmt.Errorf("faults: TaskFailProb %v outside [0, 1)", c.TaskFailProb)
	}
	if c.NodeMTBF > 0 && c.NodeMTTR <= 0 {
		return fmt.Errorf("faults: NodeMTBF %v requires a positive NodeMTTR", c.NodeMTBF)
	}
	if c.MaxAttempts < 1 {
		return fmt.Errorf("faults: MaxAttempts %d < 1", c.MaxAttempts)
	}
	if c.RetryBackoff < 0 {
		return fmt.Errorf("faults: negative RetryBackoff %v", c.RetryBackoff)
	}
	if c.StragglerFactor <= 0 || c.StragglerFactor > 1 {
		return fmt.Errorf("faults: StragglerFactor %v outside (0, 1]", c.StragglerFactor)
	}
	return nil
}

// Backoff returns the re-queue delay after the n-th transient failure of a
// task (n ≥ 1): RetryBackoff doubling per failure.
func (c Config) Backoff(n int) float64 {
	d := c.RetryBackoff
	for ; n > 1; n-- {
		d *= 2
	}
	return d
}

// Injector owns the fault state of one simulated run. All methods run in
// engine context (single-threaded virtual time); it is not safe for
// concurrent use.
type Injector struct {
	cfg   Config
	eng   *sim.Engine
	nodes int

	// Independent PCG streams so the crash schedule does not shift when
	// the workload (and hence the per-attempt draw count) changes.
	crashRng *rand.Rand
	taskRng  *rand.Rand
	slowRng  *rand.Rand

	up      []bool
	epoch   []uint64 // bumped on every crash; attempts compare at stage boundaries
	slow    []float64
	upCount int

	episodes int

	// OnCrash and OnRepair fire engine-side at the crash/repair instant,
	// after the injector's own state flip. The runtime uses them to
	// invalidate storage and to drain stalled tasks.
	OnCrash  func(node int)
	OnRepair func(node int)
}

// NewInjector builds an injector for a cluster of n nodes. cfg is used
// as given — apply WithDefaults and Validate first.
func NewInjector(eng *sim.Engine, cfg Config, n int) *Injector {
	inj := &Injector{
		cfg: cfg, eng: eng, nodes: n,
		crashRng: rand.New(rand.NewPCG(cfg.Seed, 0xc4a5)),
		taskRng:  rand.New(rand.NewPCG(cfg.Seed, 0x7a5f)),
		slowRng:  rand.New(rand.NewPCG(cfg.Seed, 0x510e)),
		up:       make([]bool, n),
		epoch:    make([]uint64, n),
		slow:     make([]float64, n),
		upCount:  n,
	}
	for i := 0; i < n; i++ {
		inj.up[i] = true
		inj.slow[i] = 1
	}
	return inj
}

// Start schedules the first crash and straggler episode of every node.
// The cycles never end on their own: the run ends them by stopping the
// engine (sim.Engine.Stop) once its work is done.
func (i *Injector) Start() {
	for n := 0; n < i.nodes; n++ {
		if i.cfg.NodeMTBF > 0 {
			i.scheduleCrash(n)
		}
		if i.cfg.StragglerMTBF > 0 {
			i.scheduleEpisode(n)
		}
	}
}

func (i *Injector) scheduleCrash(n int) {
	d := i.crashRng.ExpFloat64() * i.cfg.NodeMTBF
	i.eng.Schedule(d, func() { i.crash(n) })
}

func (i *Injector) crash(n int) {
	i.up[n] = false
	i.upCount--
	i.epoch[n]++
	if i.OnCrash != nil {
		i.OnCrash(n)
	}
	d := i.crashRng.ExpFloat64() * i.cfg.NodeMTTR
	i.eng.Schedule(d, func() { i.repair(n) })
}

func (i *Injector) repair(n int) {
	i.up[n] = true
	i.upCount++
	if i.OnRepair != nil {
		i.OnRepair(n)
	}
	i.scheduleCrash(n)
}

func (i *Injector) scheduleEpisode(n int) {
	d := i.slowRng.ExpFloat64() * i.cfg.StragglerMTBF
	i.eng.Schedule(d, func() { i.slowStart(n) })
}

func (i *Injector) slowStart(n int) {
	i.slow[n] = i.cfg.StragglerFactor
	i.episodes++
	d := i.slowRng.ExpFloat64() * i.cfg.StragglerDuration
	i.eng.Schedule(d, func() { i.slowEnd(n) })
}

func (i *Injector) slowEnd(n int) {
	i.slow[n] = 1
	i.scheduleEpisode(n)
}

// UpNodes returns the live up/down slice, suitable as a sched.View.Up
// reference: the scheduler always sees the current instant's state.
func (i *Injector) UpNodes() []bool { return i.up }

// AnyUp reports whether at least one node is up.
func (i *Injector) AnyUp() bool { return i.upCount > 0 }

// Epoch returns node n's restart epoch. An attempt captures the epoch at
// placement; a mismatch at a later stage boundary means the node crashed
// under the task.
func (i *Injector) Epoch(n int) uint64 { return i.epoch[n] }

// Speed returns node n's current compute-speed factor (1 nominal,
// StragglerFactor during an episode).
func (i *Injector) Speed(n int) float64 { return i.slow[n] }

// AttemptFails draws one task attempt's transient-failure outcome: whether
// it fails and, if so, the fraction of its compute stage completed before
// the failure strikes.
func (i *Injector) AttemptFails() (bool, float64) {
	if i.cfg.TaskFailProb == 0 {
		return false, 0
	}
	if i.taskRng.Float64() >= i.cfg.TaskFailProb {
		return false, 0
	}
	return true, i.taskRng.Float64()
}

// Episodes returns the number of straggler episodes started so far.
func (i *Injector) Episodes() int { return i.episodes }
