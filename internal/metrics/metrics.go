// Package metrics records and aggregates per-task stage timings using the
// paper's measurement taxonomy (§4.2):
//
//   - task user code metrics, aggregated per task type: serial fraction,
//     parallel fraction, CPU-GPU communication, and their sum;
//   - data-movement overheads, aggregated per CPU core: deserialization and
//     serialization;
//   - task-level metrics, per DAG level: parallel task execution time.
//
// The collector is the in-Go analog of the paper's instrumentation stack
// (Python perf counters, CUDA events and Paraver traces); a Paraver-like
// trace export is provided for inspection.
//
// Aggregates is the one fold: it turns records into the fixed-size sums
// every query reads — O(1) memory per (task type, stage) pair instead of
// O(tasks), for million-task runs whose traces would not fit. Collector
// is a record log for trace, Gantt and CSV export; its Aggregate method
// replays the log into a fresh Aggregates for post-hoc queries. Both
// implement Sink, the record-consumer contract the simulated runtime
// emits into.
package metrics

import (
	"fmt"
	"io"
	"sync"
)

// Stage enumerates the task processing stages of the paper's Figure 4.
type Stage int

const (
	// StageSched is the time from task readiness to placement (queueing
	// plus the scheduler's per-decision service time).
	StageSched Stage = iota
	// StageDeser covers storage read + decode into host memory.
	StageDeser
	// StageCommIn is host-to-device transfer (GPU tasks only).
	StageCommIn
	// StageParallel is the parallel fraction of the user code.
	StageParallel
	// StageSerial is the serial fraction of the user code.
	StageSerial
	// StageCommOut is device-to-host transfer (GPU tasks only).
	StageCommOut
	// StageSer covers encode + storage write of outputs.
	StageSer
	// StageRecovery is fault-recovery overhead: the span an aborted
	// attempt held its core before a node crash, transient failure or
	// lost input forced it off (fault-injected runs only).
	StageRecovery

	numStages
)

// NumStages is the number of distinct task stages; a task contributes at
// most NumStages records to a collector.
const NumStages = int(numStages)

var stageNames = [numStages]string{
	"sched", "deser", "comm_in", "parallel", "serial", "comm_out", "ser",
	"recovery",
}

func (s Stage) String() string {
	if s < 0 || int(s) >= len(stageNames) {
		return fmt.Sprintf("Stage(%d)", int(s))
	}
	return stageNames[s]
}

// Record is one measured stage of one task.
type Record struct {
	TaskID   int
	TaskName string
	Level    int
	Node     int
	Core     int // cluster-global core index the task's host side ran on
	Device   string
	Stage    Stage
	Start    float64
	End      float64
}

// Duration returns the record's elapsed time.
func (r Record) Duration() float64 { return r.End - r.Start }

// Sink consumes stage records one at a time as the runtime emits them.
// Implementations are not required to be safe for concurrent use: the
// simulated backend is single-threaded, so Observe is called from exactly
// one goroutine per run. Callers that share a sink across goroutines (the
// local backend) must use a concurrency-safe entry point such as
// Collector.Add.
type Sink interface {
	Observe(Record)
}

// crec is the retained, pointer-free form of a Record: the two string
// fields are interned into the owning collector's name table, so the
// record buffer contains no pointers — the GC never scans it, and each
// record costs 48 bytes instead of 88. At the 10⁶-task scale this is the
// difference between a ~50 MB no-scan buffer and a ~90 MB scanned one.
type crec struct {
	taskID int32
	name   int32 // index into Collector.names
	level  int32
	node   int32
	core   int32
	device int32 // index into Collector.names (devices share the table)
	stage  int32
	start  float64
	end    float64
}

// Collector is a record log: it retains every record in arrival order for
// export, and answers queries only through Aggregate. Add is safe for
// concurrent use (the local backend runs real tasks on multiple
// goroutines); Observe is the lock-free single-writer path the simulated
// backend uses.
type Collector struct {
	mu     sync.Mutex
	recs   []crec
	names  []string
	byName map[string]int32
	// Last-hit intern caches: a task emits NumStages consecutive records
	// with the same task name and device, and upstream interning makes the
	// repeated strings pointer-identical, so caching the previous hit
	// turns almost every intern into one pointer-equal string compare.
	// Task and device names cache separately — they alternate within one
	// Observe call and would evict each other from a shared slot.
	lastName   string
	lastNameID int32
	lastDev    string
	lastDevID  int32
}

// NewCollector returns an empty collector.
func NewCollector() *Collector { return &Collector{} }

// intern returns the dense ID of s in the collector's name table. Repeat
// lookups of runtime-emitted names hit the map's pointer-equality fast
// path: task and device names are themselves interned upstream, so the
// string headers compare equal without a byte comparison.
func (c *Collector) intern(s string) int32 {
	if id, ok := c.byName[s]; ok {
		return id
	}
	if c.byName == nil {
		c.byName = make(map[string]int32, 16)
	}
	id := int32(len(c.names))
	c.names = append(c.names, s)
	c.byName[s] = id
	return id
}

// decode rematerializes the public Record form.
func (c *Collector) decode(r crec) Record {
	return Record{
		TaskID: int(r.taskID), TaskName: c.names[r.name], Level: int(r.level),
		Node: int(r.node), Core: int(r.core), Device: c.names[r.device],
		Stage: Stage(r.stage), Start: r.start, End: r.end,
	}
}

// Grow pre-sizes the record buffer for at least n additional records, so a
// run whose record count is known up front (tasks × stages) appends without
// reallocating mid-simulation.
func (c *Collector) Grow(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if free := cap(c.recs) - len(c.recs); free < n {
		grown := make([]crec, len(c.recs), len(c.recs)+n)
		copy(grown, c.recs)
		c.recs = grown
	}
}

// Observe appends a record without locking — the Sink entry point for the
// single-threaded simulated backend. The empty string bypasses the
// last-hit caches (it is their unset state).
func (c *Collector) Observe(r Record) {
	name := c.lastNameID
	if r.TaskName != c.lastName || r.TaskName == "" {
		name = c.intern(r.TaskName)
		c.lastName, c.lastNameID = r.TaskName, name
	}
	dev := c.lastDevID
	if r.Device != c.lastDev || r.Device == "" {
		dev = c.intern(r.Device)
		c.lastDev, c.lastDevID = r.Device, dev
	}
	c.recs = append(c.recs, crec{
		taskID: int32(r.TaskID), name: name, level: int32(r.Level),
		node: int32(r.Node), core: int32(r.Core), device: dev,
		stage: int32(r.Stage), start: r.Start, end: r.End,
	})
}

// Add appends a record under the collector's lock (safe for concurrent
// producers).
func (c *Collector) Add(r Record) {
	c.mu.Lock()
	c.Observe(r)
	c.mu.Unlock()
}

// Records returns a copy of all records.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, len(c.recs))
	for i, r := range c.recs {
		out[i] = c.decode(r)
	}
	return out
}

// Each calls fn for every record in insertion order, without copying the
// backing slice — the streaming-aggregation path for long multi-workflow
// runs, where Records' per-workflow copy would double peak memory. fn
// must not call back into the collector.
func (c *Collector) Each(fn func(Record)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, r := range c.recs {
		fn(c.decode(r))
	}
}

// Len returns the number of records.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// Aggregate replays the log, in arrival order, into a fresh Aggregates —
// the same fold a streaming run feeds record by record, so a query on a
// retained run and on a streamed run of the same records agree exactly.
func (c *Collector) Aggregate() *Aggregates {
	c.mu.Lock()
	defer c.mu.Unlock()
	a := NewAggregates()
	for _, r := range c.recs {
		a.Observe(c.decode(r))
	}
	return a
}

// WriteCSV dumps all records as CSV.
func (c *Collector) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "task_id,task_name,level,node,core,device,stage,start,end"); err != nil {
		return err
	}
	for _, r := range c.Records() {
		if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%s,%s,%.9f,%.9f\n",
			r.TaskID, r.TaskName, r.Level, r.Node, r.Core, r.Device, r.Stage, r.Start, r.End); err != nil {
			return err
		}
	}
	return nil
}

// WritePRV dumps the records as Paraver-style state lines
// ("1:core:appl:task:thread:start:end:state"), the trace format the paper
// extracted (de)serialization times from. Stage index is used as the state
// value; times are in nanoseconds as Paraver expects integers.
func (c *Collector) WritePRV(w io.Writer) error {
	recs := c.Records()
	var maxEnd float64
	for _, r := range recs {
		if r.End > maxEnd {
			maxEnd = r.End
		}
	}
	if _, err := fmt.Fprintf(w, "#Paraver (wfsim):%d_ns:1(%d):1:1(%d:1)\n",
		int64(maxEnd*1e9), len(recs), len(recs)); err != nil {
		return err
	}
	for _, r := range recs {
		if _, err := fmt.Fprintf(w, "1:%d:1:%d:1:%d:%d:%d\n",
			r.Core+1, r.TaskID+1, int64(r.Start*1e9), int64(r.End*1e9), int(r.Stage)+1); err != nil {
			return err
		}
	}
	return nil
}
