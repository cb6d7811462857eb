// Package dag builds and analyzes the execution DAG of a task-based
// workflow (§3.1 of the paper). Tasks are added in program order with
// typed data parameters; edges are inferred automatically from data
// dependencies, exactly like PyCOMPSs: a task reading a datum depends on
// that datum's last writer (read-after-write), and a task writing a datum
// depends on the previous writer (write-after-write). Write-after-read
// hazards do not create edges because, as in COMPSs, each write conceptually
// creates a new version of the datum (the d3v1, d5v2 … labels of the
// paper's Figure 6); earlier readers keep the old version.
//
// The DAG's shape carries the paper's key structural features: its maximum
// width is the degree of task-level parallelism and its height the degree
// of task dependency (both appear in the Figure 11 correlation analysis).
//
// The DAG is built ID-first: a task parameter names its datum by a dense
// int32 ID, never by string. Builders get IDs from the graph's Interner,
// either one named datum at a time (Datum, for "C3" or "A[0,1]") or a
// contiguous range per indexed family (Range/Grid, for X[b] or ps[it,b]).
// A range's member names are rendered from the index only when something
// asks for them — input listings, validation errors, tests — so a
// million-task build creates no per-datum strings or map entries. All
// bookkeeping here (last writers, version counts) and in every layer below
// (workflow sizes, storage locations, locality scoring) is indexed by
// datum ID.
//
// Tasks are dense int IDs too, assigned by Add in generation order. The
// graph stores them as parallel columns rather than as task objects: a
// task-type index, an int32 level, and offsets into one flat parameter
// store (datum IDs and directions) and one flat dependency array.
// Successor lists and per-level task lists are compressed-sparse-row
// tables built on first use, and per-level widths are counted as tasks
// are added, so MaxWidth and MaxHeight never build the level lists. The
// layout costs about 22 bytes a task plus 5 a parameter and 8 an edge,
// and holds no pointers for the garbage collector to scan. Callers read
// the graph through ID accessors (Deps, Succs, Params, DataIDs, Level,
// Name); Task is a read-only per-task view for code that wants one value
// per task, and is never built on the simulation path.
package dag

import (
	"fmt"
	"io"
	"iter"
	"math"
	"slices"
	"strings"
)

// Direction declares how a task uses a data parameter, mirroring
// PyCOMPSs' IN/OUT/INOUT parameter annotations.
type Direction uint8

const (
	// In marks data the task only reads.
	In Direction = iota
	// Out marks data the task creates or fully overwrites.
	Out
	// InOut marks data the task reads and updates in place.
	InOut
)

func (d Direction) String() string {
	switch d {
	case In:
		return "IN"
	case Out:
		return "OUT"
	case InOut:
		return "INOUT"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Reads reports whether the direction reads its datum.
func (d Direction) Reads() bool { return d == In || d == InOut }

// Writes reports whether the direction writes its datum.
func (d Direction) Writes() bool { return d == Out || d == InOut }

// Param is one data parameter of a task: a datum ID plus an access
// direction. Data comes from the graph's Interner (Graph.Datum,
// Interner.Range or Interner.Grid); the datum's name, if anyone needs it,
// is Interner.Name(Data).
type Param struct {
	Data int32
	Dir  Direction
}

// Reads reports whether the parameter reads its datum.
func (p Param) Reads() bool { return p.Dir.Reads() }

// Writes reports whether the parameter writes its datum.
func (p Param) Writes() bool { return p.Dir.Writes() }

// Task is a read-only view of one DAG node, assembled from the graph's
// columns by Graph.Task, Graph.View or Graph.Tasks. Its fields are
// copies: they stay valid after later Adds, and changing them does not
// change the graph. Its Deps, Succs and DataIDs methods query the graph
// when called, with the same lifetimes as the Graph accessors of the same
// name.
type Task struct {
	// ID is the task's generation order (0-based) — the key the FIFO
	// scheduling policy sorts by.
	ID int
	// Name is the task type (e.g. "matmul_func"); per-type aggregation of
	// metrics (§4.2) groups on it.
	Name string
	// Params are the data parameters that induced the task's edges.
	Params []Param
	// Level is the task's depth: 0 for source tasks, otherwise
	// 1 + max(level of predecessors).
	Level int

	g *Graph
}

// Deps returns the task's predecessor IDs (Graph.Deps).
func (t *Task) Deps() []int32 { return t.g.Deps(t.ID) }

// Succs returns the task's successor IDs (Graph.Succs).
func (t *Task) Succs() []int32 { return t.g.Succs(t.ID) }

// DataIDs returns the datum ID of each parameter, parallel to Params
// (Graph.DataIDs).
func (t *Task) DataIDs() []int32 { return t.g.DataIDs(t.ID) }

// Graph is an execution DAG under construction. The zero value is not
// usable; construct with New.
//
// Per-task state lives in columns indexed by task ID, and variable-length
// state (parameters, dependencies) in flat arrays addressed by int32
// offset columns, so building an n-task DAG costs a handful of growing
// arrays — one exact allocation each when the builder calls Hint — and
// no per-task object.
type Graph struct {
	data *Interner

	// Per-task columns, indexed by task ID. paramOff and depOff hold one
	// more entry than there are tasks: task i's parameters are
	// dataIDs/dirs[paramOff[i]:paramOff[i+1]], its predecessors
	// deps[depOff[i]:depOff[i+1]].
	kind     []uint16 // index into kinds
	level    []int32
	paramOff []int32
	depOff   []int32

	dataIDs []int32     // every task's parameter datum IDs, back to back
	dirs    []Direction // parallel to dataIDs
	deps    []int32     // predecessor IDs, ascending and deduplicated per task

	kinds  []string          // task type names, first-use order
	kindOf map[string]uint16 // name -> index into kinds
	width  []int32           // tasks per level

	lastWriter []int32 // datum ID -> task ID of last writer, -1 if none
	versions   []int32 // datum ID -> version count (for labels)

	// Successor table in compressed-sparse-row form: task i's successors
	// are succs[succOff[i]:succOff[i+1]], ascending. Built on first use
	// and rebuilt after an Add.
	succOff, succs []int32
	succsBuilt     bool

	// Per-level task lists, same form: level l's tasks are
	// levelIDs[levelOff[l]:levelOff[l+1]], ascending. Built on first use
	// and rebuilt after an Add.
	levelOff, levelIDs []int32
	levelsBuilt        bool
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		data:     NewInterner(),
		paramOff: []int32{0},
		depOff:   []int32{0},
		kindOf:   make(map[string]uint16),
	}
}

// Hint pre-sizes the graph for a build of about tasks tasks, data datum
// IDs and params total task parameters, collapsing the geometric column
// growth (and its copying) into one exact allocation per array. A builder
// that knows its counts — every generator-style workload does — calls
// this once before the first Add; estimates only need to be close,
// construction still grows past them correctly.
//
// The dependency array is the one table whose size Hint cannot know: a
// task has at most one edge per parameter, and none for a parameter that
// reads a workflow input or writes a fresh datum. It is reserved at half
// the parameters and doubles past that.
func (g *Graph) Hint(tasks, data, params int) {
	g.kind = reserve(g.kind, tasks)
	g.level = reserve(g.level, tasks)
	g.paramOff = reserve(g.paramOff, tasks+1)
	g.depOff = reserve(g.depOff, tasks+1)
	g.dataIDs = reserve(g.dataIDs, params)
	g.dirs = reserve(g.dirs, params)
	g.deps = reserve(g.deps, params/2)
	g.lastWriter = reserve(g.lastWriter, data)
	g.versions = reserve(g.versions, data)
}

// reserve returns s with capacity for at least n elements, reallocating
// to exactly n when it is short.
func reserve[E any](s []E, n int) []E {
	if n <= cap(s) {
		return s
	}
	r := make([]E, len(s), n)
	copy(r, s)
	return r
}

// Data returns the graph's datum interner, shared with every layer that
// keys per-datum state by ID.
func (g *Graph) Data() *Interner { return g.data }

// NumData returns the number of datum IDs assigned so far.
func (g *Graph) NumData() int { return g.data.Len() }

// Datum interns a named datum and returns its ID (Interner.Intern).
func (g *Graph) Datum(name string) int32 { return g.data.Intern(name) }

// growData extends the per-datum bookkeeping to every assigned ID. Add
// calls it when a parameter names an ID beyond the tables, so IDs from
// Datum, Range and Grid need no per-declaration growth step.
func (g *Graph) growData() {
	for len(g.lastWriter) < g.data.Len() {
		g.lastWriter = append(g.lastWriter, -1)
		g.versions = append(g.versions, 0)
	}
}

// kindIndex returns the type index of name, registering it on first use.
// Builders add runs of same-typed tasks, so the previous task's type is
// checked before the map.
func (g *Graph) kindIndex(name string) uint16 {
	if n := len(g.kind); n > 0 && g.kinds[g.kind[n-1]] == name {
		return g.kind[n-1]
	}
	if k, ok := g.kindOf[name]; ok {
		return k
	}
	if len(g.kinds) > math.MaxUint16 {
		panic(fmt.Sprintf("dag: more than %d task types", math.MaxUint16+1))
	}
	k := uint16(len(g.kinds))
	g.kinds = append(g.kinds, name)
	g.kindOf[name] = k
	return k
}

// Add appends a task in generation order, inferring its dependencies from
// the data parameters, and returns its ID. Edges always point from lower
// to higher IDs, so the graph is acyclic by construction and insertion
// order is a valid topological order. The params slice is copied. A
// parameter naming an ID the interner never assigned is a builder bug and
// panics.
func (g *Graph) Add(name string, params ...Param) int {
	id := len(g.level)
	if id == math.MaxInt32 || len(g.dataIDs)+len(params) > math.MaxInt32 {
		panic(fmt.Sprintf("dag: graph full at %d tasks", id))
	}
	for _, p := range params {
		if uint(p.Data) >= uint(len(g.lastWriter)) {
			if p.Data < 0 || int(p.Data) >= g.data.Len() {
				panic(fmt.Sprintf("dag: task %s names unassigned datum ID %d", name, p.Data))
			}
			g.growData()
		}
		g.dataIDs = append(g.dataIDs, p.Data)
		g.dirs = append(g.dirs, p.Dir)
	}

	// Dependencies: RAW and WAW both edge on the last writer. Dedup via
	// insertion into the task's small sorted run at the array's tail — a
	// task has a handful of params, so this beats a per-task map by a
	// wide margin.
	base := len(g.deps)
	if cap(g.deps)-base < len(params) {
		g.growDeps(len(params))
	}
	deps := g.deps[base:base:cap(g.deps)]
	level := int32(0)
	for _, p := range params {
		if !p.Reads() && !p.Writes() {
			continue
		}
		d := g.lastWriter[p.Data]
		if d < 0 {
			continue
		}
		pos := len(deps)
		for pos > 0 && deps[pos-1] > d {
			pos--
		}
		if pos > 0 && deps[pos-1] == d {
			continue
		}
		deps = deps[:len(deps)+1]
		copy(deps[pos+1:], deps[pos:])
		deps[pos] = d
		level = max(level, g.level[d]+1)
	}
	g.deps = g.deps[:base+len(deps)]

	for _, p := range params {
		if p.Writes() {
			g.lastWriter[p.Data] = int32(id)
			g.versions[p.Data]++
		}
	}
	g.kind = append(g.kind, g.kindIndex(name))
	g.level = append(g.level, level)
	g.paramOff = append(g.paramOff, int32(len(g.dataIDs)))
	g.depOff = append(g.depOff, int32(len(g.deps)))
	if int(level) == len(g.width) {
		g.width = append(g.width, 0)
	}
	g.width[level]++
	g.succsBuilt, g.levelsBuilt = false, false
	return id
}

// growDeps reallocates the dependency array with room for n more entries,
// at least doubling it.
func (g *Graph) growDeps(n int) {
	c := max(2*cap(g.deps), 256, len(g.deps)+n)
	d := make([]int32, len(g.deps), c)
	copy(d, g.deps)
	g.deps = d
}

// Len returns the number of tasks.
func (g *Graph) Len() int { return len(g.level) }

// Name returns task id's type name.
func (g *Graph) Name(id int) string { return g.kinds[g.kind[id]] }

// Level returns task id's depth: 0 for a source task, otherwise 1 + the
// largest level among its predecessors.
func (g *Graph) Level(id int) int { return int(g.level[id]) }

// Deps returns task id's predecessor IDs, ascending. The view is read-only
// and stays valid, unchanged, across later Adds.
func (g *Graph) Deps(id int) []int32 {
	lo, hi := g.depOff[id], g.depOff[id+1]
	return g.deps[lo:hi:hi]
}

// Succs returns task id's successor IDs, ascending. The first call after
// an Add rebuilds the successor table for the whole graph, so concurrent
// readers need it built first (Validate builds it); the view is read-only
// and valid only until the next Add.
func (g *Graph) Succs(id int) []int32 {
	if !g.succsBuilt {
		g.buildSuccs()
	}
	lo, hi := g.succOff[id], g.succOff[id+1]
	return g.succs[lo:hi:hi]
}

// Params returns task id's parameters as two parallel read-only views:
// the datum IDs and their directions. Both stay valid across later Adds.
func (g *Graph) Params(id int) ([]int32, []Direction) {
	lo, hi := g.paramOff[id], g.paramOff[id+1]
	return g.dataIDs[lo:hi:hi], g.dirs[lo:hi:hi]
}

// DataIDs returns the datum ID of each of task id's parameters (the first
// view of Params).
func (g *Graph) DataIDs(id int) []int32 {
	lo, hi := g.paramOff[id], g.paramOff[id+1]
	return g.dataIDs[lo:hi:hi]
}

// buildSuccs (re)builds the successor table from the dependency array by
// a counting pass: succOff first counts each producer's consumers, then
// serves as the fill cursor, and ends shifted into place. Consumers are
// visited in ascending ID, so every list comes out ascending — exactly the
// order incremental building would produce. Once a graph is complete this
// runs once, in the Validate every run starts with, so its allocations
// are setup rather than steady state; the arrays are reused when a
// rebuild fits them.
func (g *Graph) buildSuccs() {
	n := g.Len()
	if cap(g.succOff) < n+1 {
		g.succOff = make([]int32, n+1) //wfsimlint:allow hotalloc
	}
	if cap(g.succs) < len(g.deps) {
		g.succs = make([]int32, len(g.deps)) //wfsimlint:allow hotalloc
	}
	off, succs := g.succOff[:n+1], g.succs[:len(g.deps)]
	clear(off)
	for _, d := range g.deps {
		off[d+1]++
	}
	for i := 1; i <= n; i++ {
		off[i] += off[i-1]
	}
	for id := 0; id < n; id++ {
		for _, d := range g.Deps(id) {
			succs[off[d]] = int32(id)
			off[d]++
		}
	}
	copy(off[1:], off[:n])
	off[0] = 0
	g.succOff, g.succs, g.succsBuilt = off, succs, true
}

// buildLevels (re)builds the per-level task lists, with the same counting
// pass as buildSuccs over the per-level widths Add keeps.
func (g *Graph) buildLevels() {
	n, L := g.Len(), len(g.width)
	if cap(g.levelOff) < L+1 {
		g.levelOff = make([]int32, L+1)
	}
	if cap(g.levelIDs) < n {
		g.levelIDs = make([]int32, n)
	}
	off, ids := g.levelOff[:L+1], g.levelIDs[:n]
	off[0] = 0
	for l, w := range g.width {
		off[l+1] = off[l] + w
	}
	for id, l := range g.level {
		ids[off[l]] = int32(id)
		off[l]++
	}
	copy(off[1:], off[:L])
	off[0] = 0
	g.levelOff, g.levelIDs, g.levelsBuilt = off, ids, true
}

// View fills v with task id and returns it, reusing v's Params storage:
// the allocation-free way to walk tasks as values. The result is the
// caller's v, so it changes when v is refilled.
func (g *Graph) View(id int, v *Task) *Task {
	ids, dirs := g.Params(id)
	v.ID, v.Name, v.Level, v.g = id, g.Name(id), g.Level(id), g
	v.Params = v.Params[:0]
	for i, d := range ids {
		v.Params = append(v.Params, Param{Data: d, Dir: dirs[i]})
	}
	return v
}

// Task returns a fresh view of task id, which the caller owns.
func (g *Graph) Task(id int) *Task { return g.View(id, &Task{}) }

// Tasks iterates over every task in generation order. It yields one
// view, refilled for each task: a yielded *Task is valid until the loop
// advances, so keep its ID (or copy it) rather than the pointer.
func (g *Graph) Tasks() iter.Seq2[int, *Task] {
	return func(yield func(int, *Task) bool) {
		var v Task
		for id := range g.Len() {
			if !yield(id, g.View(id, &v)) {
				return
			}
		}
	}
}

// Version returns how many times the named datum has been written — the
// vN suffix in the paper's Figure 6 node labels.
func (g *Graph) Version(name string) int {
	id, ok := g.data.Lookup(name)
	if !ok || int(id) >= len(g.versions) {
		return 0
	}
	return int(g.versions[id])
}

// Levels groups task IDs by DAG level, index 0 being the sources, each
// level ascending. The first call after an Add rebuilds the level table;
// the inner views are read-only and valid only until the next Add.
func (g *Graph) Levels() [][]int32 {
	if len(g.width) == 0 {
		return nil
	}
	if !g.levelsBuilt {
		g.buildLevels()
	}
	out := make([][]int32, len(g.width))
	for l := range out {
		lo, hi := g.levelOff[l], g.levelOff[l+1]
		out[l] = g.levelIDs[lo:hi:hi]
	}
	return out
}

// LevelWidth returns the number of tasks on a level.
func (g *Graph) LevelWidth(level int) int { return int(g.width[level]) }

// MaxWidth returns the largest number of tasks on one level: the paper's
// "DAG maximum width" (degree of task parallelism).
func (g *Graph) MaxWidth() int {
	if len(g.width) == 0 {
		return 0
	}
	return int(slices.Max(g.width))
}

// MaxHeight returns the number of levels: the paper's "DAG maximum height"
// (degree of task dependency).
func (g *Graph) MaxHeight() int { return len(g.width) }

// Roots returns the IDs of tasks with no dependencies.
func (g *Graph) Roots() []int {
	var out []int
	for id := range g.Len() {
		if g.depOff[id] == g.depOff[id+1] {
			out = append(out, id)
		}
	}
	return out
}

// Validate checks structural invariants: edges point forward (acyclicity)
// and are deduplicated, dependency and successor records are symmetric,
// and levels are consistent. It allocates nothing beyond the successor
// table: every successor record is matched by binary search in its
// consumer's sorted dependencies, and equal record counts then make the
// match a bijection.
func (g *Graph) Validate() error {
	for id := range g.Len() {
		want, prev := int32(0), int32(-1)
		for _, d := range g.Deps(id) {
			if int(d) >= id {
				return fmt.Errorf("dag: task %d depends on later task %d", id, d)
			}
			if d <= prev {
				return fmt.Errorf("dag: task %d dependencies not ascending at %d", id, d)
			}
			prev = d
			want = max(want, g.level[d]+1)
		}
		if g.level[id] != want {
			return fmt.Errorf("dag: task %d level %d, want %d", id, g.level[id], want)
		}
	}
	for id := range g.Len() {
		prev := int32(id)
		for _, s := range g.Succs(id) {
			if s <= prev {
				return fmt.Errorf("dag: task %d successor %d out of order", id, s)
			}
			prev = s
			if _, ok := slices.BinarySearch(g.Deps(int(s)), int32(id)); !ok {
				return fmt.Errorf("dag: successor record %d->%d has no edge", id, s)
			}
		}
	}
	if len(g.succs) != len(g.deps) {
		return fmt.Errorf("dag: %d successor records for %d edges", len(g.succs), len(g.deps))
	}
	return nil
}

// CountByName returns the number of tasks per task type.
func (g *Graph) CountByName() map[string]int {
	out := make(map[string]int, len(g.kinds))
	for _, k := range g.kind {
		out[g.kinds[k]]++
	}
	return out
}

// DOT writes the graph in Graphviz format, one node per task colored by
// task type — the rendering used to reproduce the paper's Figure 6.
func (g *Graph) DOT(w io.Writer, title string) error {
	var colors = []string{"lightblue", "white", "lightyellow", "lightpink", "lightgreen", "lightgray"}
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n  node [style=filled, shape=circle];\n", title)
	for id, k := range g.kind {
		// Type indexes are assigned in first-use order, the order colors
		// are handed out in.
		fmt.Fprintf(&b, "  t%d [label=%q, fillcolor=%q];\n", id, fmt.Sprintf("%d", id), colors[int(k)%len(colors)])
	}
	for id := range g.Len() {
		for _, d := range g.Deps(id) {
			fmt.Fprintf(&b, "  t%d -> t%d;\n", d, id)
		}
	}
	fmt.Fprintf(&b, "  label=%q;\n}\n", title)
	_, err := io.WriteString(w, b.String())
	return err
}

// Summary renders a short per-level textual description of the DAG shape,
// e.g. "L0: 16×matmul_func | L1: 8×add_func | ...".
func (g *Graph) Summary() string {
	var parts []string
	for i, lvl := range g.Levels() {
		byName := map[string]int{}
		order := []string{}
		for _, id := range lvl {
			n := g.Name(int(id))
			if byName[n] == 0 {
				order = append(order, n)
			}
			byName[n]++
		}
		var seg []string
		for _, n := range order {
			seg = append(seg, fmt.Sprintf("%d×%s", byName[n], n))
		}
		parts = append(parts, fmt.Sprintf("L%d: %s", i, strings.Join(seg, "+")))
	}
	return strings.Join(parts, " | ")
}

// CriticalPath returns the longest weighted path through the DAG and its
// length, where weight(id) is the per-task cost supplied by the caller.
// The path is returned as task IDs in execution order. With unit weights
// this is the height; with service-time weights it is the span term of
// Graham's bound — no schedule on any number of processors beats it.
func (g *Graph) CriticalPath(weight func(id int) float64) ([]int, float64) {
	if g.Len() == 0 {
		return nil, 0
	}
	dist := make([]float64, g.Len())
	prev := make([]int32, g.Len())
	best, bestEnd := -1.0, -1
	for id := range g.Len() { // insertion order is topological
		w := weight(id)
		if w < 0 {
			w = 0
		}
		d := w
		prev[id] = -1
		for _, dep := range g.Deps(id) {
			if dist[dep]+w > d {
				d = dist[dep] + w
				prev[id] = dep
			}
		}
		dist[id] = d
		if d > best {
			best, bestEnd = d, id
		}
	}
	var path []int
	for id := bestEnd; id >= 0; id = int(prev[id]) {
		path = append(path, id)
	}
	slices.Reverse(path)
	return path, best
}

// TotalWeight sums weight(id) over all tasks: the work term of Graham's
// bound.
func (g *Graph) TotalWeight(weight func(id int) float64) float64 {
	var sum float64
	for id := range g.Len() {
		if w := weight(id); w > 0 {
			sum += w
		}
	}
	return sum
}
