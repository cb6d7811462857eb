// Package workload generates synthetic task-based workflows: random DAGs
// with configurable shape (width/depth bias), task profiles spanning the
// paper's two extremes (fully parallelizable, compute-bound vs partially
// parallelizable, serial-heavy), and data sizes. It serves two purposes:
//
//   - Property testing: the runtime must execute any generated workflow
//     deterministically, completely and causally (tests in this package
//     and internal/runtime).
//   - Extension studies: the paper's §5.5.1 notes that more algorithms
//     would populate the space between Matmul and K-means; the generator's
//     ParallelFraction knob sweeps exactly that axis.
package workload

import (
	"fmt"
	"math/rand/v2"
	"strconv"

	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
	"wfsim/internal/runtime"
)

// Config shapes the generated workflow.
type Config struct {
	// Seed makes generation reproducible.
	Seed uint64
	// Tasks is the number of tasks to generate.
	Tasks int
	// MaxFanIn bounds how many earlier outputs a task may read (≥1).
	MaxFanIn int
	// ChainBias in [0,1] skews reads toward recent outputs, making the
	// DAG deeper (1 ≈ chains) or wider (0 ≈ uniform fan-out).
	ChainBias float64
	// ParallelFraction in [0,1] sets the share of each task's work that
	// is parallelizable: 1 ≈ Matmul-like, 0.2 ≈ K-means-like.
	ParallelFraction float64
	// WorkOps is the mean total ops per task.
	WorkOps float64
	// DataBytes is the mean datum size.
	DataBytes float64
}

// Default returns a mid-sized mixed workload.
func Default(seed uint64) Config {
	return Config{
		Seed: seed, Tasks: 100, MaxFanIn: 3, ChainBias: 0.5,
		ParallelFraction: 0.7, WorkOps: 1e9, DataBytes: 16e6,
	}
}

func (c Config) validate() error {
	if c.Tasks <= 0 {
		return fmt.Errorf("workload: non-positive task count %d", c.Tasks)
	}
	if c.MaxFanIn < 1 {
		return fmt.Errorf("workload: MaxFanIn must be ≥ 1")
	}
	if c.ParallelFraction < 0 || c.ParallelFraction > 1 {
		return fmt.Errorf("workload: ParallelFraction %v outside [0,1]", c.ParallelFraction)
	}
	if c.ChainBias < 0 || c.ChainBias > 1 {
		return fmt.Errorf("workload: ChainBias %v outside [0,1]", c.ChainBias)
	}
	return nil
}

// Generate builds a random workflow. Task i reads up to MaxFanIn outputs
// of earlier tasks (or the workflow input for roots) and writes one new
// datum, so the result is always a valid DAG.
func Generate(cfg Config) (*runtime.Workflow, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x3017))
	wf := runtime.NewWorkflow(fmt.Sprintf("synthetic-%d", cfg.Seed))
	input := wf.Datum("input")
	wf.SetSizeByID(input, cfg.DataBytes)

	outs := make([]int32, cfg.Tasks) // outs[i]: datum "d<i>" task i writes
	for i := 0; i < cfg.Tasks; i++ {
		outs[i] = wf.Datum("d" + strconv.Itoa(i))
		params := []dag.Param{}
		if i == 0 {
			params = append(params, dag.Param{Data: input, Dir: dag.In})
		} else {
			fanIn := rng.IntN(cfg.MaxFanIn) + 1
			seen := map[int]bool{}
			for f := 0; f < fanIn; f++ {
				var src int
				if rng.Float64() < cfg.ChainBias {
					// Recent-biased: one of the last few outputs.
					back := rng.IntN(3) + 1
					src = i - back
					if src < 0 {
						src = 0
					}
				} else {
					src = rng.IntN(i)
				}
				if !seen[src] {
					seen[src] = true
					params = append(params, dag.Param{Data: outs[src], Dir: dag.In})
				}
			}
		}
		params = append(params, dag.Param{Data: outs[i], Dir: dag.Out})

		work := cfg.WorkOps * (0.5 + rng.Float64())
		bytes := cfg.DataBytes * (0.5 + rng.Float64())
		wf.SetSizeByID(outs[i], bytes)
		prof := costmodel.Profile{
			Kernel:         costmodel.KernelGeneric,
			ParallelOps:    work * cfg.ParallelFraction,
			SerialOps:      work * (1 - cfg.ParallelFraction) / 20, // serial ops run ~20x slower per op
			Threads:        work * cfg.ParallelFraction / 100,
			BytesIn:        bytes,
			BytesOut:       bytes,
			DeviceMemBytes: 3 * bytes,
			HostMemBytes:   3 * bytes,
		}
		wf.AddTask(fmt.Sprintf("gen%d", i%4), runtime.TaskSpec{Profile: prof}, params...)
	}
	return wf, nil
}
