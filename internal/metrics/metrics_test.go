package metrics

import (
	"strings"
	"sync"
	"testing"
)

func sample() *Collector {
	c := NewCollector()
	// Two tasks of type "a" on level 0, one "b" on level 1.
	c.Add(Record{TaskID: 0, TaskName: "a", Level: 0, Core: 0, Stage: StageDeser, Start: 0, End: 1})
	c.Add(Record{TaskID: 0, TaskName: "a", Level: 0, Core: 0, Stage: StageParallel, Start: 1, End: 3})
	c.Add(Record{TaskID: 1, TaskName: "a", Level: 0, Core: 1, Stage: StageDeser, Start: 0, End: 2})
	c.Add(Record{TaskID: 1, TaskName: "a", Level: 0, Core: 1, Stage: StageParallel, Start: 2, End: 6})
	c.Add(Record{TaskID: 2, TaskName: "b", Level: 1, Core: 0, Stage: StageSerial, Start: 6, End: 8})
	return c
}

func TestMeanStage(t *testing.T) {
	c := sample().Aggregate()
	m, n := c.MeanStage("a", StageParallel)
	if n != 2 || m != 3 {
		t.Fatalf("mean = %v over %d, want 3 over 2", m, n)
	}
	if m, n = c.MeanStage("", StageDeser); n != 2 || m != 1.5 {
		t.Fatalf("all-type deser mean = %v over %d", m, n)
	}
	if _, n = c.MeanStage("zzz", StageDeser); n != 0 {
		t.Fatal("unknown task type matched")
	}
}

func TestSumStage(t *testing.T) {
	c := sample().Aggregate()
	if got := c.SumStage("a", StageParallel); got != 6 {
		t.Fatalf("sum = %v, want 6", got)
	}
}

func TestUserCodeMean(t *testing.T) {
	c := sample().Aggregate()
	// Task type "a": parallel mean 3; no serial/comm records.
	if got := c.UserCodeMean("a"); got != 3 {
		t.Fatalf("user code mean = %v, want 3", got)
	}
	if got := c.UserCodeMean("b"); got != 2 {
		t.Fatalf("user code mean (b) = %v, want 2 (serial only)", got)
	}
}

func TestMovementPerCore(t *testing.T) {
	c := sample().Aggregate()
	// Core 0: 1s deser; core 1: 2s deser → mean 1.5 across 2 active cores.
	if got := c.MovementPerCore(StageDeser); got != 1.5 {
		t.Fatalf("per-core deser = %v, want 1.5", got)
	}
	if got := c.MovementPerCore(StageSer); got != 0 {
		t.Fatalf("no-ser per-core = %v, want 0", got)
	}
}

func TestLevelSpans(t *testing.T) {
	c := sample().Aggregate()
	s, e, ok := c.LevelSpan(0)
	if !ok || s != 0 || e != 6 {
		t.Fatalf("level 0 span = [%v,%v] ok=%v", s, e, ok)
	}
	if _, _, ok := c.LevelSpan(9); ok {
		t.Fatal("missing level reported ok")
	}
	levels := c.Levels()
	if len(levels) != 2 || levels[0] != 0 || levels[1] != 1 {
		t.Fatalf("levels = %v", levels)
	}
	// Mean of spans: (6-0) and (8-6) → 4.
	if got := c.MeanLevelSpan(); got != 4 {
		t.Fatalf("mean level span = %v, want 4", got)
	}
	if got := c.Makespan(); got != 8 {
		t.Fatalf("makespan = %v, want 8", got)
	}
}

func TestTaskNames(t *testing.T) {
	c := sample().Aggregate()
	names := c.TaskNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names = %v", names)
	}
}

// TestEmptyCollector: an empty log aggregates to zero-valued queries.
func TestEmptyCollector(t *testing.T) {
	c := NewCollector().Aggregate()
	if c.Len() != 0 || c.Makespan() != 0 || c.MeanLevelSpan() != 0 || c.MovementPerCore(StageDeser) != 0 {
		t.Fatal("empty collector returned nonzero aggregates")
	}
	if m, n := c.MeanStage("", StageDeser); m != 0 || n != 0 {
		t.Fatal("empty MeanStage nonzero")
	}
	if c.SumStage("", StageDeser) != 0 || c.UserCodeMean("") != 0 {
		t.Fatal("empty SumStage or UserCodeMean nonzero")
	}
	if _, _, ok := c.LevelSpan(0); ok {
		t.Fatal("empty LevelSpan reported ok")
	}
	if len(c.Levels()) != 0 || len(c.TaskNames()) != 0 {
		t.Fatalf("empty Levels %v / TaskNames %v", c.Levels(), c.TaskNames())
	}
}

func TestConcurrentAdd(t *testing.T) {
	c := NewCollector()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add(Record{TaskID: i, TaskName: "x", Stage: StageParallel, Start: 0, End: 1})
			}
		}(i)
	}
	wg.Wait()
	if c.Len() != 3200 {
		t.Fatalf("len = %d, want 3200", c.Len())
	}
}

func TestWriteCSV(t *testing.T) {
	c := sample()
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "task_id,task_name,") {
		t.Fatal("missing CSV header")
	}
	if strings.Count(out, "\n") != 6 {
		t.Fatalf("CSV rows = %d, want 6 (header + 5)", strings.Count(out, "\n"))
	}
	if !strings.Contains(out, "parallel") {
		t.Fatal("stage name missing")
	}
}

func TestWritePRV(t *testing.T) {
	c := sample()
	var b strings.Builder
	if err := c.WritePRV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "#Paraver") {
		t.Fatal("missing Paraver header")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1+c.Len() {
		t.Fatalf("PRV lines = %d, want a header and %d records", len(lines), c.Len())
	}
	// The header carries the makespan (8 s) in ns and the record count.
	if want := "#Paraver (wfsim):8000000000_ns:1(5):1:1(5:1)"; lines[0] != want {
		t.Fatalf("header = %q, want %q", lines[0], want)
	}
	// Task 1's parallel stage on core 1 over [2 s, 6 s]: core and task are
	// 1-based, times are ns, and the state is the stage plus one.
	if want := "1:2:1:2:1:2000000000:6000000000:4"; lines[4] != want {
		t.Fatalf("record 3 = %q, want %q", lines[4], want)
	}
	// State records are 8 colon-separated fields starting with "1".
	for _, l := range lines[1:] {
		if parts := strings.Split(l, ":"); len(parts) != 8 || parts[0] != "1" {
			t.Fatalf("bad PRV record %q", l)
		}
	}
}

func TestStageString(t *testing.T) {
	if StageDeser.String() != "deser" || StageSer.String() != "ser" {
		t.Fatal("stage stringers broken")
	}
	if !strings.Contains(Stage(99).String(), "99") {
		t.Fatal("unknown stage stringer broken")
	}
}

func TestRecordsCopy(t *testing.T) {
	c := sample()
	recs := c.Records()
	recs[0].TaskID = 999
	if c.Records()[0].TaskID == 999 {
		t.Fatal("Records returned aliased slice")
	}
}
