package metrics

import "sort"

// sumCount is one streaming (sum of durations, contributing records)
// accumulator.
type sumCount struct {
	sum float64
	n   int
}

// span is a streaming min-start/max-end window.
type span struct {
	start, end float64
	seen       bool
}

func (s *span) observe(start, end float64) {
	if !s.seen {
		s.start, s.end, s.seen = start, end, true
		return
	}
	if start < s.start {
		s.start = start
	}
	if end > s.end {
		s.end = end
	}
}

// Aggregates is the one metrics fold: it reduces records into the
// fixed-size sums the experiment figures query — per-(task type, stage)
// means, per-core data movement, per-level spans, makespan — without
// retaining any record. Memory is O(task types × stages + cores + levels),
// independent of task count, which is what lets a 10⁶-task sweep cell run
// in a few MB where a Collector would retain ~50 MB of records.
//
// Durations are accumulated in record-arrival order, and cross-core /
// cross-level reductions sum in ascending index order, so every query is
// a deterministic function of the record sequence. A streaming run
// (SimConfig.Sink) and Collector.Aggregate over a retained run of the same
// records therefore report identical floats; the fig1 golden render pins
// this.
//
// Aggregates is not safe for concurrent use (see Sink). The zero value is
// ready to use; Reset recycles one across trials without reallocating.
type Aggregates struct {
	n int

	names  []string
	byName map[string]int32
	// Last-hit intern cache (see Collector): consecutive records share a
	// task name, and upstream interning makes the strings
	// pointer-identical, so the compare is one pointer check. The empty
	// string bypasses the cache (it is its unset state).
	lastName   string
	lastNameID int32
	// taskName marks name-table entries seen as task names (the table is
	// shared with device names, which TaskNames must not report).
	taskName []bool

	// all[stage] accumulates over every record of the stage; perName is
	// indexed [name*NumStages + stage]. Keeping both costs one extra add
	// per record but makes MeanStage("",·) exact: summing per-name sums
	// would re-associate the float additions.
	all     [numStages]sumCount
	perName []sumCount

	// perCore is indexed [stage][core+1] (+1 absorbs the scheduler's
	// core = -1 records); coreSeen tracks which cores contributed so the
	// mean divides by active cores only.
	perCore  [numStages][]float64
	coreSeen [numStages][]bool

	levels []span // indexed by DAG level

	whole span // makespan window
}

// NewAggregates returns an empty streaming sink.
func NewAggregates() *Aggregates { return &Aggregates{} }

// Reset clears every accumulator while keeping capacity, so one Aggregates
// serves every trial a sweep worker runs.
func (a *Aggregates) Reset() {
	a.n = 0
	a.names = a.names[:0]
	a.lastName, a.lastNameID = "", 0
	clear(a.byName)
	a.taskName = a.taskName[:0]
	a.all = [numStages]sumCount{}
	clear(a.perName)
	a.perName = a.perName[:0]
	for s := range a.perCore {
		clear(a.perCore[s])
		for i := range a.coreSeen[s] {
			a.coreSeen[s][i] = false
		}
	}
	a.levels = a.levels[:0]
	a.whole = span{}
}

func (a *Aggregates) intern(s string, isTask bool) int32 {
	id, ok := a.byName[s]
	if !ok {
		id = a.internSlow(s)
	}
	if isTask {
		a.taskName[id] = true
	}
	return id
}

// internSlow registers a previously unseen task-type name. Cold by
// construction: a workload has a handful of distinct names, interned in
// its first few records, after which every Observe takes the map-hit path
// in intern. Reset keeps the capacity, so across a sweep these
// allocations happen once per worker, not once per trial.
func (a *Aggregates) internSlow(s string) int32 {
	if a.byName == nil {
		a.byName = make(map[string]int32, 16) //wfsimlint:allow hotalloc
	}
	id := int32(len(a.names))
	a.names = append(a.names, s)           //wfsimlint:allow hotalloc
	a.taskName = append(a.taskName, false) //wfsimlint:allow hotalloc
	a.byName[s] = id
	//wfsimlint:allow hotalloc
	a.perName = append(a.perName, make([]sumCount, NumStages)...)
	return id
}

// Observe folds one record into the aggregates.
func (a *Aggregates) Observe(r Record) {
	a.n++
	d := r.End - r.Start
	st := int(r.Stage)
	name := a.lastNameID
	if r.TaskName != a.lastName || r.TaskName == "" {
		name = a.intern(r.TaskName, true)
		a.lastName, a.lastNameID = r.TaskName, name
	}

	a.all[st].sum += d
	a.all[st].n++
	pn := &a.perName[int(name)*NumStages+st]
	pn.sum += d
	pn.n++

	core := r.Core + 1
	if core >= len(a.perCore[st]) {
		a.growCore(st, core)
	}
	a.perCore[st][core] += d
	a.coreSeen[st][core] = true

	if r.Level >= len(a.levels) {
		a.growLevels(r.Level)
	}
	a.levels[r.Level].observe(r.Start, r.End)

	a.whole.observe(r.Start, r.End)
}

// growCore extends the per-core accumulators of one stage up to core.
// Cold by construction: each stage grows to the cluster's core count in
// the first simulated wave and never again — Reset keeps the capacity,
// so later trials on the same worker reuse the backing arrays.
func (a *Aggregates) growCore(st, core int) {
	//wfsimlint:allow hotalloc
	a.perCore[st] = append(a.perCore[st], make([]float64, core+1-len(a.perCore[st]))...)
	//wfsimlint:allow hotalloc
	a.coreSeen[st] = append(a.coreSeen[st], make([]bool, core+1-len(a.coreSeen[st]))...)
}

// growLevels extends the per-level spans through level. Cold by
// construction: levels grow monotonically to the DAG height once per
// workload shape, and Reset keeps the capacity.
func (a *Aggregates) growLevels(level int) {
	//wfsimlint:allow hotalloc
	a.levels = append(a.levels, make([]span, level+1-len(a.levels))...)
}

// Len returns the number of records observed.
func (a *Aggregates) Len() int { return a.n }

// MeanStage returns the average duration of a stage over tasks of the
// given type ("" matches every task type) — the paper's "average time per
// task" user-code metrics. The second result is the number of records
// that contributed.
func (a *Aggregates) MeanStage(taskName string, stage Stage) (float64, int) {
	sc := a.all[stage]
	if taskName != "" {
		id, ok := a.byName[taskName]
		if !ok {
			return 0, 0
		}
		sc = a.perName[int(id)*NumStages+int(stage)]
	}
	if sc.n == 0 {
		return 0, 0
	}
	return sc.sum / float64(sc.n), sc.n
}

// SumStage returns the total duration of a stage across matching tasks.
func (a *Aggregates) SumStage(taskName string, stage Stage) float64 {
	if taskName == "" {
		return a.all[stage].sum
	}
	id, ok := a.byName[taskName]
	if !ok {
		return 0
	}
	return a.perName[int(id)*NumStages+int(stage)].sum
}

// UserCodeMean returns the average full user-code time per task of the
// given type: serial + parallel + CPU-GPU communication (§4.2).
func (a *Aggregates) UserCodeMean(taskName string) float64 {
	var total float64
	for _, st := range []Stage{StageSerial, StageParallel, StageCommIn, StageCommOut} {
		m, n := a.MeanStage(taskName, st)
		if n > 0 {
			total += m
		}
	}
	return total
}

// MovementPerCore returns the mean (de)serialization time per active CPU
// core — the paper's data-movement overhead metric, which exposes how well
// (de)serialization parallelism matches the available cores. Per-core sums
// reduce in ascending core order, so the result's bits are deterministic.
func (a *Aggregates) MovementPerCore(stage Stage) float64 {
	var sum float64
	active := 0
	for core, seen := range a.coreSeen[stage] {
		if seen {
			sum += a.perCore[stage][core]
			active++
		}
	}
	if active == 0 {
		return 0
	}
	return sum / float64(active)
}

// LevelSpan returns the wall-clock span of one DAG level: from the first
// stage start to the last stage end among the level's tasks. This is the
// paper's "parallel task execution time", which includes every overhead
// (scheduling, I/O, queueing).
func (a *Aggregates) LevelSpan(level int) (start, end float64, ok bool) {
	if level < 0 || level >= len(a.levels) || !a.levels[level].seen {
		return 0, 0, false
	}
	return a.levels[level].start, a.levels[level].end, true
}

// Levels returns the sorted set of DAG levels present in the records.
func (a *Aggregates) Levels() []int {
	out := []int{}
	for l, sp := range a.levels {
		if sp.seen {
			out = append(out, l)
		}
	}
	return out
}

// MeanLevelSpan averages LevelSpan over every level — the per-iteration
// parallel-task execution time reported in Figures 7 and 10. Level spans
// reduce in ascending level order.
func (a *Aggregates) MeanLevelSpan() float64 {
	var sum float64
	n := 0
	for _, sp := range a.levels {
		if sp.seen {
			sum += sp.end - sp.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Makespan returns the overall workflow span across all records.
func (a *Aggregates) Makespan() float64 {
	if !a.whole.seen {
		return 0
	}
	return a.whole.end - a.whole.start
}

// TaskNames returns the distinct task types observed, sorted.
func (a *Aggregates) TaskNames() []string {
	out := []string{}
	for id, isTask := range a.taskName {
		if isTask {
			out = append(out, a.names[id])
		}
	}
	sort.Strings(out)
	return out
}
