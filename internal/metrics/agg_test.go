package metrics

import (
	"math/rand"
	"sort"
	"testing"
)

// oracle answers every Aggregates query by brute-force scans over the raw
// records: an implementation independent of the streaming fold, with the
// same summation orders (arrival order within a bucket, ascending core
// and level across buckets) so the comparison can demand exact floats.
type oracle []Record

func (o oracle) meanStage(name string, st Stage) (float64, int) {
	var sum float64
	n := 0
	for _, r := range o {
		if r.Stage == st && (name == "" || r.TaskName == name) {
			sum += r.Duration()
			n++
		}
	}
	if n == 0 {
		return 0, 0
	}
	return sum / float64(n), n
}

func (o oracle) sumStage(name string, st Stage) float64 {
	var sum float64
	for _, r := range o {
		if r.Stage == st && (name == "" || r.TaskName == name) {
			sum += r.Duration()
		}
	}
	return sum
}

func (o oracle) userCodeMean(name string) float64 {
	var total float64
	for _, st := range []Stage{StageSerial, StageParallel, StageCommIn, StageCommOut} {
		if m, n := o.meanStage(name, st); n > 0 {
			total += m
		}
	}
	return total
}

func (o oracle) movementPerCore(st Stage) float64 {
	perCore := map[int]float64{}
	for _, r := range o {
		if r.Stage == st {
			perCore[r.Core] += r.Duration()
		}
	}
	cores := make([]int, 0, len(perCore))
	for c := range perCore {
		cores = append(cores, c)
	}
	sort.Ints(cores)
	var sum float64
	for _, c := range cores {
		sum += perCore[c]
	}
	if len(cores) == 0 {
		return 0
	}
	return sum / float64(len(cores))
}

func (o oracle) levelSpan(level int) (start, end float64, ok bool) {
	for _, r := range o {
		if r.Level != level {
			continue
		}
		if !ok {
			start, end, ok = r.Start, r.End, true
			continue
		}
		start, end = min(start, r.Start), max(end, r.End)
	}
	return start, end, ok
}

func (o oracle) levels() []int {
	set := map[int]bool{}
	for _, r := range o {
		set[r.Level] = true
	}
	out := []int{}
	for l := range set {
		out = append(out, l)
	}
	sort.Ints(out)
	return out
}

func (o oracle) meanLevelSpan() float64 {
	levels := o.levels()
	var sum float64
	for _, l := range levels {
		s, e, _ := o.levelSpan(l)
		sum += e - s
	}
	if len(levels) == 0 {
		return 0
	}
	return sum / float64(len(levels))
}

func (o oracle) makespan() float64 {
	if len(o) == 0 {
		return 0
	}
	start, end := o[0].Start, o[0].End
	for _, r := range o[1:] {
		start, end = min(start, r.Start), max(end, r.End)
	}
	return end - start
}

func (o oracle) taskNames() []string {
	set := map[string]bool{}
	for _, r := range o {
		set[r.TaskName] = true
	}
	out := []string{}
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// TestAggregatesMatchCollector feeds a randomized record stream to an
// Aggregates and to a Collector, and demands that every query — on the
// streamed fold and on Collector.Aggregate's replay of the log — equal a
// brute-force scan of the Collector's records to the exact float: "close
// enough" would let sweep results drift when a run switches between a
// streaming sink and a retained log.
func TestAggregatesMatchCollector(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	names := []string{"gradient", "update", "partial_sum", "matmul_func"}
	devices := []string{"gpu0", "cpu", ""}

	a := NewAggregates()
	// Two passes with a Reset between prove Reset leaves no residue in
	// either the accumulators or the intern cache.
	for pass := 0; pass < 2; pass++ {
		c := NewCollector()
		a.Reset()
		var last Record
		for i := 0; i < 5000; i++ {
			r := Record{
				TaskID:   i / NumStages,
				TaskName: names[rng.Intn(len(names))],
				Device:   devices[rng.Intn(len(devices))],
				Stage:    Stage(rng.Intn(NumStages)),
				Core:     rng.Intn(9) - 1,
				Level:    rng.Intn(10),
			}
			r.Start = rng.Float64() * 100
			r.End = r.Start + rng.Float64()*10
			// Exercise the last-hit intern cache: repeat the previous
			// record's name roughly half the time, like the real stream
			// of per-stage records for one task does.
			if i > 0 && rng.Intn(2) == 0 {
				r.TaskName = last.TaskName
			}
			last = r
			c.Observe(r)
			a.Observe(r)
		}

		o := oracle(c.Records())
		for _, fold := range []struct {
			name string
			a    *Aggregates
		}{{"streamed", a}, {"replayed", c.Aggregate()}} {
			checkAgainstOracle(t, fold.name, fold.a, o)
		}
	}
}

func checkAgainstOracle(t *testing.T, fold string, a *Aggregates, o oracle) {
	t.Helper()
	if a.Len() != len(o) {
		t.Fatalf("%s: Len %d, oracle %d", fold, a.Len(), len(o))
	}
	for _, name := range append([]string{""}, o.taskNames()...) {
		for st := Stage(0); st < Stage(NumStages); st++ {
			om, on := o.meanStage(name, st)
			am, an := a.MeanStage(name, st)
			if om != am || on != an {
				t.Errorf("%s: MeanStage(%q, %v) = (%v, %d), oracle (%v, %d)", fold, name, st, am, an, om, on)
			}
			if os, as := o.sumStage(name, st), a.SumStage(name, st); os != as {
				t.Errorf("%s: SumStage(%q, %v) = %v, oracle %v", fold, name, st, as, os)
			}
		}
		if ou, au := o.userCodeMean(name), a.UserCodeMean(name); ou != au {
			t.Errorf("%s: UserCodeMean(%q) = %v, oracle %v", fold, name, au, ou)
		}
	}
	for st := Stage(0); st < Stage(NumStages); st++ {
		if om, am := o.movementPerCore(st), a.MovementPerCore(st); om != am {
			t.Errorf("%s: MovementPerCore(%v) = %v, oracle %v", fold, st, am, om)
		}
	}
	ol, al := o.levels(), a.Levels()
	if len(ol) != len(al) {
		t.Fatalf("%s: Levels = %v, oracle %v", fold, al, ol)
	}
	for i := range ol {
		if ol[i] != al[i] {
			t.Fatalf("%s: Levels = %v, oracle %v", fold, al, ol)
		}
		os, oe, ook := o.levelSpan(ol[i])
		as, ae, aok := a.LevelSpan(ol[i])
		if os != as || oe != ae || ook != aok {
			t.Errorf("%s: LevelSpan(%d) = (%v, %v, %v), oracle (%v, %v, %v)", fold, ol[i], as, ae, aok, os, oe, ook)
		}
	}
	if om, am := o.meanLevelSpan(), a.MeanLevelSpan(); om != am {
		t.Errorf("%s: MeanLevelSpan = %v, oracle %v", fold, am, om)
	}
	if om, am := o.makespan(), a.Makespan(); om != am {
		t.Errorf("%s: Makespan = %v, oracle %v", fold, am, om)
	}
	on, an := o.taskNames(), a.TaskNames()
	if len(on) != len(an) {
		t.Fatalf("%s: TaskNames = %v, oracle %v", fold, an, on)
	}
	for i := range on {
		if on[i] != an[i] {
			t.Fatalf("%s: TaskNames = %v, oracle %v", fold, an, on)
		}
	}
}
