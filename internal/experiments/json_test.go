package experiments

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"wfsim/internal/runner"
)

// TestEveryResultEncodes JSON-encodes every registered experiment's
// result, as `wfsim run -json` does: an undefined ratio must not make a
// whole result unencodable.
func TestEveryResultEncodes(t *testing.T) {
	eng := runner.New(0)
	for _, e := range All() {
		var res Result
		if e.ID == "fig9b" {
			if testing.Short() {
				continue // real-execution timing experiment
			}
			res = fig9bResult(t)
		} else {
			var err error
			if res, err = e.Run(context.Background(), eng); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
		}
		b, err := json.Marshal(res)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if !json.Valid(b) {
			t.Errorf("%s: invalid JSON", e.ID)
		}
	}
}

func TestRatioJSON(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if b, err := json.Marshal(Ratio(v)); err != nil || string(b) != "null" {
			t.Errorf("Ratio(%v) = %s, %v; want null", v, b, err)
		}
	}
	for _, v := range []float64{0, 1, -2.5, 5.69, 1.0 / 3, 1e-7, 123456789e15, -1e21} {
		want, _ := json.Marshal(v)
		if got, err := json.Marshal(Ratio(v)); err != nil || string(got) != string(want) {
			t.Errorf("Ratio(%v) = %s, %v; want %s as float64", v, got, err, want)
		}
	}
}
