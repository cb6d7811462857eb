package experiments

import (
	"testing"
)

// TestCalibrationFig7a pins the Matmul end-to-end shapes.
func TestCalibrationFig7a(t *testing.T) {
	r := mustRun(t, "fig7a").(*Fig7Result)
	small := r.Sweeps[0] // 8 GB
	var prevP Ratio
	for _, p := range small.Points {
		if p.CPU.OOM || p.GPU.OOM {
			continue
		}
		// "Speedups obtained in the parallel fraction scale with the
		// block size" (§5.1).
		if p.PFracSpd <= prevP {
			t.Errorf("P.Frac speedup not increasing at %d bytes", p.CPU.BlockBytes)
		}
		prevP = p.PFracSpd
		// User-code speedup sits below the parallel-fraction speedup
		// (CPU-GPU communication discount), and the relative discount
		// shrinks as blocks grow coarse (computation amortizes
		// communication, §5.1).
		if p.UserSpd >= p.PFracSpd {
			t.Errorf("user-code speedup %.2f should trail P.Frac %.2f at %d bytes",
				p.UserSpd, p.PFracSpd, p.CPU.BlockBytes)
		}
	}
	fine := small.Points[0]
	var coarse SweepPoint
	for _, p := range small.Points {
		if !p.CPU.OOM && !p.GPU.OOM {
			coarse = p
		}
	}
	discount := func(p SweepPoint) float64 { return float64(1 - p.UserSpd/p.PFracSpd) }
	if discount(fine) <= discount(coarse) {
		t.Errorf("communication discount should shrink with block size: fine %.4f vs coarse %.4f",
			discount(fine), discount(coarse))
	}
	// The 32 GB dataset raises parallel-fraction speedups at equal grid
	// dimension (§5.1.3) — compare matching grids.
	large := r.Sweeps[1]
	for _, lp := range large.Points {
		if lp.CPU.OOM || lp.GPU.OOM {
			continue
		}
		for _, sp := range small.Points {
			if sp.CPU.Grid == lp.CPU.Grid && !sp.CPU.OOM && !sp.GPU.OOM {
				if lp.PFracSpd <= sp.PFracSpd {
					t.Errorf("grid %d: 32 GB P.Frac speedup %.2f should exceed 8 GB's %.2f",
						lp.CPU.Grid, lp.PFracSpd, sp.PFracSpd)
				}
			}
		}
	}
	// OOM structure: 8 GB OOMs only at 1x1; 32 GB at 1x1 and 2x2.
	for _, p := range small.Points {
		wantOOM := p.CPU.Grid == 1
		if p.GPU.OOM != wantOOM {
			t.Errorf("8 GB grid %d: GPU OOM = %v, want %v", p.CPU.Grid, p.GPU.OOM, wantOOM)
		}
	}
	for _, p := range large.Points {
		wantOOM := p.CPU.Grid <= 2
		if p.GPU.OOM != wantOOM {
			t.Errorf("32 GB grid %d: GPU OOM = %v, want %v", p.CPU.Grid, p.GPU.OOM, wantOOM)
		}
	}
}
