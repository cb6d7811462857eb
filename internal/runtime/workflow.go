// Package runtime is the task-based workflow engine at the center of the
// reproduction: the Go analog of PyCOMPSs (§3). Applications submit tasks
// with data-direction annotations; the runtime builds the execution DAG
// from data dependencies, schedules dependency-free tasks onto cluster
// resources with a pluggable policy, and executes each task through the
// paper's processing stages (Figure 4): deserialization, the user code
// (serial fraction, CPU-GPU communication, parallel fraction) and
// serialization.
//
// Two backends share the same workflow definition:
//
//   - SimBackend executes the lifecycle on the deterministic DES over a
//     simulated cluster, producing per-stage virtual timings at paper scale
//     (8-100 GB datasets, 128 cores, 32 GPUs). This is what every
//     experiment uses.
//   - LocalBackend executes the real kernels on goroutine worker pools with
//     materialized blocks, validating that the workflows compute correct
//     results (examples and tests).
package runtime

import (
	"fmt"
	"sort"
	"sync"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/dataset"
)

// ExecFunc is the real computation of a task, used by the local backend.
// It reads and writes materialized blocks through the Store.
type ExecFunc func(s *Store) error

// TaskSpec carries everything the backends need to run one task: the
// analytic cost profile (sim backend) and the real kernel (local backend,
// optional for sim-only workflows).
type TaskSpec struct {
	Profile costmodel.Profile
	Exec    ExecFunc
}

// Workflow is an application expressed as tasks over data. It wraps the
// dependency DAG with per-datum sizes (for storage I/O and locality
// decisions) and, optionally, materialized input blocks for real execution.
//
// Data are dense int32 IDs from the graph's interner (Datum for a named
// datum, Graph.Data().Range or Grid for an indexed family); every
// per-datum table is a plain slice indexed by that ID, so neither the
// build nor the simulated task hot path touches a string-keyed map.
type Workflow struct {
	Name  string
	Graph *dag.Graph

	// sizes holds datum bytes indexed by datum ID, used for
	// (de)serialization volumes and locality weights; sized declares
	// which entries have actually been set (a datum may legitimately
	// have size 0).
	sizes []float64
	sized []bool

	// specs holds the distinct task specs and specOf each task's index
	// into it: a sim-only spec (no Exec) is stored once however many
	// tasks share its profile, found again through simSpecs. A spec
	// carrying an Exec closure is stored per task.
	specs    []TaskSpec
	specOf   []int32
	simSpecs map[costmodel.Profile]int32

	// initial holds materialized input blocks for the local backend.
	initial map[string]*dataset.Block
}

// NewWorkflow returns an empty workflow.
func NewWorkflow(name string) *Workflow {
	return &Workflow{
		Name:    name,
		Graph:   dag.New(),
		initial: make(map[string]*dataset.Block),
	}
}

// Hint pre-sizes the workflow for a build of about tasks tasks, data
// distinct datums and params total task parameters (see dag.Graph.Hint).
// Estimates only need to be close; construction grows past them correctly.
func (w *Workflow) Hint(tasks, data, params int) {
	w.Graph.Hint(tasks, data, params)
	if tasks > cap(w.specOf) {
		s := make([]int32, len(w.specOf), tasks)
		copy(s, w.specOf)
		w.specOf = s
	}
	if data > cap(w.sizes) {
		sz := make([]float64, len(w.sizes), data)
		copy(sz, w.sizes)
		w.sizes = sz
		sd := make([]bool, len(w.sized), data)
		copy(sd, w.sized)
		w.sized = sd
	}
}

// Datum interns a named datum and returns its ID (dag.Graph.Datum).
func (w *Workflow) Datum(name string) int32 { return w.Graph.Datum(name) }

// SetSizeByID declares the serialized size of a datum in bytes. Tasks
// reading the datum deserialize this volume; tasks writing it serialize
// it.
func (w *Workflow) SetSizeByID(id int32, bytes float64) {
	if n := w.Graph.NumData(); int(id) >= len(w.sizes) && int(id) < n {
		w.sizes = append(w.sizes, make([]float64, n-len(w.sizes))...)
		w.sized = append(w.sized, make([]bool, n-len(w.sized))...)
	}
	w.sizes[id] = bytes
	w.sized[id] = true
}

// SetSize is SetSizeByID for a named datum, interning the name.
func (w *Workflow) SetSize(key string, bytes float64) {
	w.SetSizeByID(w.Datum(key), bytes)
}

// Size returns the declared size of a named datum (0 if unknown).
func (w *Workflow) Size(key string) float64 {
	id, ok := w.Graph.Data().Lookup(key)
	if !ok || int(id) >= len(w.sizes) {
		return 0
	}
	return w.sizes[id]
}

// SizeByID returns the declared size of a datum by its interned ID — the
// allocation-free lookup the simulation hot path uses.
func (w *Workflow) SizeByID(id int32) float64 {
	if int(id) >= len(w.sizes) {
		return 0
	}
	return w.sizes[id]
}

// SetInput attaches a materialized block as workflow input data for the
// local backend, and records its size for the sim backend.
func (w *Workflow) SetInput(key string, b *dataset.Block) {
	w.initial[key] = b
	w.SetSize(key, float64(b.Bytes()))
}

// AddTask submits a task: the spec plus its data parameters, and returns
// its ID. Dependencies are inferred from parameter directions exactly as
// in PyCOMPSs. Every task of a workflow is added here, so task IDs index
// specOf.
func (w *Workflow) AddTask(name string, spec TaskSpec, params ...dag.Param) int {
	id := w.Graph.Add(name, params...)
	w.specOf = append(w.specOf, w.specIndex(spec))
	return id
}

// specIndex returns spec's index in w.specs, appending it unless it is a
// sim-only spec already stored.
func (w *Workflow) specIndex(spec TaskSpec) int32 {
	if spec.Exec == nil {
		if i, ok := w.simSpecs[spec.Profile]; ok {
			return i
		}
	}
	i := int32(len(w.specs))
	w.specs = append(w.specs, spec)
	if spec.Exec == nil {
		if w.simSpecs == nil {
			w.simSpecs = make(map[costmodel.Profile]int32)
		}
		w.simSpecs[spec.Profile] = i
	}
	return i
}

// Spec returns the TaskSpec attached to a DAG task (SpecByID).
func (w *Workflow) Spec(t *dag.Task) TaskSpec { return w.SpecByID(t.ID) }

// SpecByID returns the TaskSpec attached to task id.
func (w *Workflow) SpecByID(id int) TaskSpec {
	if id >= len(w.specOf) {
		return TaskSpec{}
	}
	return w.specs[w.specOf[id]]
}

// writtenBytes sums the sizes of every datum task id writes, in parameter
// order: the volume it serializes, and the payload its consumers must
// acquire.
func (w *Workflow) writtenBytes(id int) float64 {
	ids, dirs := w.Graph.Params(id)
	var b float64
	for i, d := range dirs {
		if d.Writes() {
			b += w.SizeByID(ids[i])
		}
	}
	return b
}

// InputIDs returns, in first-use order, the datum ID of every datum that
// is read before any task writes it — the workflow's external input data,
// which the runtime pre-places in storage before execution.
func (w *Workflow) InputIDs() []int32 {
	nd := w.Graph.NumData()
	written := make([]bool, nd)
	seen := make([]bool, nd)
	var out []int32
	for t := range w.Graph.Len() {
		ids, dirs := w.Graph.Params(t)
		for i, d := range dirs {
			if id := ids[i]; d.Reads() && !written[id] && !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
		for i, d := range dirs {
			if d.Writes() {
				written[ids[i]] = true
			}
		}
	}
	return out
}

// InputKeys returns the workflow's external input data as datum names, in
// the same first-use order as InputIDs.
func (w *Workflow) InputKeys() []string {
	ids := w.InputIDs()
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = w.Graph.Data().Name(id)
	}
	return out
}

// Validate checks the workflow is runnable: valid DAG, sizes declared for
// every datum.
func (w *Workflow) Validate() error {
	if err := w.Graph.Validate(); err != nil {
		return fmt.Errorf("workflow %s: %w", w.Name, err)
	}
	sized := func(id int32) bool { return int(id) < len(w.sized) && w.sized[id] }
	for t := range w.Graph.Len() {
		for _, id := range w.Graph.DataIDs(t) {
			if !sized(id) {
				return w.missingSizes(sized)
			}
		}
	}
	return nil
}

// missingSizes reports every datum a task names without a declared size:
// Validate's error path, off the path a valid workflow takes.
func (w *Workflow) missingSizes(sized func(int32) bool) error {
	missing := make([]bool, w.Graph.NumData())
	var keys []string
	for t := range w.Graph.Len() {
		for _, id := range w.Graph.DataIDs(t) {
			if !sized(id) && !missing[id] {
				missing[id] = true
				keys = append(keys, w.Graph.Data().Name(id))
			}
		}
	}
	sort.Strings(keys)
	return fmt.Errorf("workflow %s: %d datum(s) without declared size, e.g. %q",
		w.Name, len(keys), keys[0])
}

// Store is the local backend's in-memory data space: materialized blocks
// keyed by datum name. It is safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	data map[string]*dataset.Block
}

// NewStore creates an empty store.
func NewStore() *Store { return &Store{data: make(map[string]*dataset.Block)} }

// Get returns the block stored under key, or nil.
func (s *Store) Get(key string) *dataset.Block {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.data[key]
}

// MustGet returns the block stored under key, panicking if absent — for
// kernels whose inputs are guaranteed by DAG ordering.
func (s *Store) MustGet(key string) *dataset.Block {
	b := s.Get(key)
	if b == nil {
		panic(fmt.Sprintf("runtime: datum %q not materialized", key))
	}
	return b
}

// Put stores a block under key.
func (s *Store) Put(key string, b *dataset.Block) {
	s.mu.Lock()
	s.data[key] = b
	s.mu.Unlock()
}

// Len returns the number of stored blocks.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.data)
}
