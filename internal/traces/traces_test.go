package traces

import (
	"math"
	"strings"
	"testing"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/metrics"
	"wfsim/internal/runtime"
)

const sampleTrace = `#Paraver (wfsim):1000_ns:1(3):1:1(3:1)
1:1:1:1:1:0:100:2
1:1:1:1:1:100:400:4
1:2:1:2:1:0:200:2
1:2:1:2:1:200:900:4
9:9:9
`

func TestParse(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != 4 {
		t.Fatalf("records = %d, want 4 (non-state lines skipped)", len(tr.Records))
	}
	if !strings.HasPrefix(tr.Header, "#Paraver") {
		t.Fatalf("header = %q", tr.Header)
	}
	r := tr.Records[1]
	if r.Core != 1 || r.Task != 1 || r.StartNS != 100 || r.EndNS != 400 || r.State != 4 {
		t.Fatalf("record = %+v", r)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"1:1:1:1:1:0:100",     // 7 fields
		"1:x:1:1:1:0:100:2",   // non-numeric
		"1:1:1:1:1:500:100:2", // negative interval
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c + "\n")); err == nil {
			t.Errorf("accepted malformed record %q", c)
		}
	}
}

func TestAggregates(t *testing.T) {
	tr, err := Parse(strings.NewReader(sampleTrace))
	if err != nil {
		t.Fatal(err)
	}
	start, end := tr.Span()
	if start != 0 || end != 900 {
		t.Fatalf("span = [%d,%d]", start, end)
	}
	totals := tr.StateTotals()
	if totals[2] != 300 { // 100 + 200
		t.Fatalf("state 2 total = %d, want 300", totals[2])
	}
	if totals[4] != 1000 { // 300 + 700
		t.Fatalf("state 4 total = %d, want 1000", totals[4])
	}
	per := tr.PerCoreState(4)
	if per[1] != 300 || per[2] != 700 {
		t.Fatalf("per-core state 4 = %v", per)
	}
	if got := tr.MeanPerCore(4); math.Abs(got-500e-9) > 1e-15 {
		t.Fatalf("mean per core = %v, want 500ns", got)
	}
	busiest := tr.BusiestCores(1)
	if len(busiest) != 1 || busiest[0].Core != 2 || busiest[0].BusyNS != 900 {
		t.Fatalf("busiest = %+v", busiest)
	}
	hist := tr.Histogram(2, 150)
	if hist[0] != 1 || hist[1] != 1 {
		t.Fatalf("histogram = %v", hist)
	}
}

// TestRoundTripWithSimulator runs a real simulated workflow, exports its
// Paraver trace and re-derives the paper's per-core deserialization metric
// from the trace alone — it must match the collector's value.
func TestRoundTripWithSimulator(t *testing.T) {
	wf, err := kmeans.Build(kmeans.Config{
		Dataset: dataset.KMeansSmall, Grid: 32, Clusters: 10, Iterations: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runtime.RunSim(wf, runtime.SimConfig{Device: costmodel.GPU})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := res.Collector.WritePRV(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := Parse(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Records) != res.Collector.Len() {
		t.Fatalf("trace records = %d, collector = %d", len(tr.Records), res.Collector.Len())
	}
	// WritePRV encodes stage as state = int(Stage)+1 and core as Core+1.
	deserState := int(metrics.StageDeser) + 1
	fromTrace := tr.MeanPerCore(deserState)
	fromCollector := res.Collector.Aggregate().MovementPerCore(metrics.StageDeser)
	if rel := math.Abs(fromTrace-fromCollector) / fromCollector; rel > 1e-6 {
		t.Fatalf("per-core deser from trace %v vs collector %v (rel %v)",
			fromTrace, fromCollector, rel)
	}
	// Trace span must equal the collected makespan (ns resolution).
	s, e := tr.Span()
	if makespan := res.Collector.Aggregate().Makespan(); math.Abs(float64(e-s)/1e9-makespan) > 1e-6 {
		t.Fatalf("trace span %v vs makespan %v", float64(e-s)/1e9, makespan)
	}
}
