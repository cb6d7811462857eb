package faults

import (
	"testing"

	"wfsim/internal/sim"
)

func TestEnabledAndDefaults(t *testing.T) {
	var zero Config
	if zero.Enabled() {
		t.Fatal("zero config reports enabled")
	}
	d := zero.WithDefaults()
	if d.MaxAttempts != 4 || d.RetryBackoff != 0.05 || d.StragglerFactor != 0.25 {
		t.Fatalf("defaults = %+v", d)
	}
	if d.NodeMTTR != 0 || d.StragglerDuration != 0 {
		t.Fatal("defaults invented time constants for disabled mechanisms")
	}
	c := Config{NodeMTBF: 10, StragglerMTBF: 40}.WithDefaults()
	if c.NodeMTTR != 1 || c.StragglerDuration != 4 {
		t.Fatalf("derived defaults = %+v", c)
	}
	if !c.Enabled() {
		t.Fatal("crash config reports disabled")
	}
	if !(Config{TaskFailProb: 0.1}).Enabled() {
		t.Fatal("transient-only config reports disabled")
	}
}

func TestValidate(t *testing.T) {
	good := Config{NodeMTBF: 5, TaskFailProb: 0.2, StragglerMTBF: 7}.WithDefaults()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{NodeMTBF: -1},
		{TaskFailProb: 1.0},
		{TaskFailProb: -0.1},
		{NodeMTBF: 5}, // MTTR unset without WithDefaults
		{MaxAttempts: -2, TaskFailProb: 0.1},
		{RetryBackoff: -1, MaxAttempts: 1},
		{StragglerFactor: 1.5, MaxAttempts: 1, StragglerMTBF: 1, StragglerDuration: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestBackoffDoubles(t *testing.T) {
	c := Config{RetryBackoff: 0.1}
	want := []float64{0.1, 0.2, 0.4, 0.8}
	for n := 1; n <= 4; n++ {
		if got := c.Backoff(n); got != want[n-1] {
			t.Errorf("Backoff(%d) = %v, want %v", n, got, want[n-1])
		}
	}
}

// crashLog runs an injector for a fixed horizon and records every crash
// and repair instant.
func crashLog(t *testing.T, cfg Config, horizon float64) []float64 {
	t.Helper()
	eng := sim.New()
	inj := NewInjector(eng, cfg.WithDefaults(), 4)
	var log []float64
	inj.OnCrash = func(n int) { log = append(log, eng.Now()) }
	inj.OnRepair = func(n int) { log = append(log, -eng.Now()) }
	inj.Start()
	eng.Schedule(horizon, eng.Stop)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return log
}

func TestCrashScheduleDeterministic(t *testing.T) {
	cfg := Config{Seed: 3, NodeMTBF: 1.0, NodeMTTR: 0.2}
	a := crashLog(t, cfg, 50)
	b := crashLog(t, cfg, 50)
	if len(a) == 0 {
		t.Fatal("no crashes in 50 virtual seconds at MTBF 1")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d at %v vs %v", i, a[i], b[i])
		}
	}
	c := crashLog(t, Config{Seed: 4, NodeMTBF: 1.0, NodeMTTR: 0.2}, 50)
	same := len(a) == len(c)
	for i := 0; same && i < len(a); i++ {
		same = a[i] == c[i]
	}
	if same {
		t.Fatal("different seeds produced an identical crash schedule")
	}
}

func TestCrashFlipsStateAndEpoch(t *testing.T) {
	eng := sim.New()
	inj := NewInjector(eng, Config{Seed: 1, NodeMTBF: 1.0, NodeMTTR: 0.2}.WithDefaults(), 2)
	for n := 0; n < 2; n++ {
		if !inj.UpNodes()[n] || inj.Epoch(n) != 0 || inj.Speed(n) != 1 {
			t.Fatal("fresh injector not nominal")
		}
	}
	crashed, repaired, crashes := -1, -1, 0
	inj.OnCrash = func(n int) {
		crashes++
		if crashed < 0 {
			crashed = n
			if inj.UpNodes()[n] {
				t.Error("node still up inside OnCrash")
			}
			if inj.Epoch(n) != 1 {
				t.Errorf("epoch = %d at first crash, want 1", inj.Epoch(n))
			}
			if !inj.AnyUp() {
				t.Error("one crash took AnyUp to false on a 2-node cluster")
			}
		}
	}
	inj.OnRepair = func(n int) {
		if repaired < 0 {
			repaired = n
			if !inj.UpNodes()[n] {
				t.Error("node still down inside OnRepair")
			}
		}
	}
	inj.Start()
	eng.Schedule(20, eng.Stop)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if crashed < 0 || repaired < 0 {
		t.Fatal("no crash/repair cycle observed in 20 virtual seconds")
	}
	for n := 0; n < 2; n++ {
		if uint64(0) == inj.Epoch(n) && crashes >= 4 {
			// With several crashes across 2 nodes both epochs very likely
			// moved; tolerate a lopsided draw but flag the common case.
			t.Logf("node %d never crashed (%d total crashes)", n, crashes)
		}
	}
}

func TestStragglerEpisodesAndStop(t *testing.T) {
	eng := sim.New()
	cfg := Config{Seed: 9, StragglerMTBF: 1.0, StragglerDuration: 0.5, StragglerFactor: 0.25}
	inj := NewInjector(eng, cfg.WithDefaults(), 3)
	sawSlow := false
	probe := func() {
		for n := 0; n < 3; n++ {
			if s := inj.Speed(n); s == 0.25 {
				sawSlow = true
			} else if s != 1 {
				t.Errorf("speed = %v, want 1 or 0.25", s)
			}
		}
	}
	inj.Start()
	for i := 1; i <= 100; i++ {
		eng.Schedule(float64(i)*0.2, probe)
	}
	eng.Schedule(21, eng.Stop)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !sawSlow {
		t.Fatal("never observed a straggler slowdown in 20 virtual seconds")
	}
	if inj.Episodes() == 0 {
		t.Fatal("episode counter stayed zero")
	}
	// The crash and straggler cycles never end on their own: Run returned
	// because Stop dropped the pending cycle events.
	if p := eng.Pending(); p != 0 {
		t.Fatalf("Pending() after Stop = %d, want 0", p)
	}
}

func TestAttemptFailsRespectsProb(t *testing.T) {
	eng := sim.New()
	off := NewInjector(eng, Config{Seed: 1}.WithDefaults(), 1)
	for i := 0; i < 100; i++ {
		if fail, _ := off.AttemptFails(); fail {
			t.Fatal("zero TaskFailProb produced a failure")
		}
	}
	on := NewInjector(eng, Config{Seed: 1, TaskFailProb: 0.5}.WithDefaults(), 1)
	fails := 0
	for i := 0; i < 1000; i++ {
		if fail, frac := on.AttemptFails(); fail {
			fails++
			if frac < 0 || frac >= 1 {
				t.Fatalf("failure fraction %v outside [0,1)", frac)
			}
		}
	}
	if fails < 400 || fails > 600 {
		t.Fatalf("%d/1000 failures at p=0.5", fails)
	}
}
