package runtime_test

import (
	"testing"

	"wfsim/internal/apps/kmeans"
	"wfsim/internal/costmodel"
	"wfsim/internal/dataset"
	"wfsim/internal/runtime"
	"wfsim/internal/sim"
)

// TestEngineStatsDeterministic runs the golden 256-block K-means GPU
// configuration twice and demands identical engine counters. The counts
// are pinned too: they are the event sequence's fingerprint, so a port
// that adds, drops or reorders events fails here even when the trace
// happens to survive. InPlaceWaits and PeakPending are the coroutine
// engine's values, which every later engine change kept; RingDispatched was
// pinned when the counter was added. Dispatched fell from 47,980 to 39,975
// when a transfer starting on an idle latency link stopped scheduling a
// join event; the role split (resumes, link completions, joins) was pinned
// then. It fell again to 21,580 when a transfer running alone began to
// finish in place and a link completion draining one flow began to resume
// its continuation inline; InPlaceTransfers and InlineResumes were pinned
// then.
func TestEngineStatsDeterministic(t *testing.T) {
	run := func() sim.Stats {
		wf, err := kmeans.Build(kmeans.Config{
			Dataset: dataset.KMeansSmall, Grid: 256, Clusters: 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.RunSim(wf, runtime.SimConfig{Device: costmodel.GPU})
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("engine counters diverged:\n  first:  %+v\n  second: %+v", a, b)
	}
	want := sim.Stats{
		Dispatched: 21580, RingDispatched: 4320,
		Resumes: 6990, LinkCompletions: 7225, Joins: 4805,
		InPlaceWaits: 1190, InPlaceTransfers: 5585, InlineResumes: 7225,
		PeakPending: 256,
	}
	if a != want {
		t.Fatalf("engine counters = %+v, want %+v", a, want)
	}
}
