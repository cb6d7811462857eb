// Package model provides closed-form analytic predictions for task-based
// workflow performance: the theoretical counterpart ([53] in the paper) to
// the simulator's empirical measurements. It serves three purposes:
//
//  1. Validation — Graham-style makespan bounds that every simulated run
//     must respect (tested in this package and used as simulator sanity
//     checks).
//  2. Explanation — Amdahl decompositions of user-code speedups, making
//     explicit how the serial fraction and CPU-GPU transfer erode the
//     kernel gain (the Figure 1 story in formula form).
//  3. Automation — the §5.4.3 "toward automated design" direction: an
//     Advisor that predicts whether GPU offload pays off for a given task
//     profile and task count, without running anything.
package model

import (
	"math"

	"wfsim/internal/cluster"
	"wfsim/internal/costmodel"
	"wfsim/internal/dag"
)

// UserCodeBreakdown decomposes a task's user-code time on both devices.
type UserCodeBreakdown struct {
	SerialSec   float64 // serial fraction (CPU either way)
	CPUParallel float64 // parallel fraction on one CPU core
	GPUParallel float64 // parallel fraction on the GPU (incl. launch)
	CommSec     float64 // CPU-GPU transfer at line rate

	// KernelSpeedup is the parallel-fraction-only gain (Figure 1's 5.69x).
	KernelSpeedup float64
	// UserCodeSpeedup is the whole-user-code gain (Figure 1's 1.24x).
	UserCodeSpeedup float64
	// ParallelFraction is the share of CPU user-code time that is
	// parallelizable — the Amdahl f.
	ParallelFraction float64
	// AmdahlLimit is the user-code speedup with an infinitely fast GPU
	// and free transfers: 1/(1-f).
	AmdahlLimit float64
}

// Breakdown computes the analytic user-code decomposition of a profile.
func Breakdown(p costmodel.Params, prof costmodel.Profile) UserCodeBreakdown {
	b := UserCodeBreakdown{
		SerialSec:   p.SerialTime(prof),
		CPUParallel: p.ParallelTime(prof, costmodel.CPU),
		GPUParallel: p.ParallelTime(prof, costmodel.GPU),
		CommSec:     p.CommTimeUncontended(prof, costmodel.GPU),
	}
	if b.GPUParallel > 0 {
		b.KernelSpeedup = b.CPUParallel / b.GPUParallel
	}
	cpu := b.SerialSec + b.CPUParallel
	gpu := b.SerialSec + b.GPUParallel + b.CommSec
	if gpu > 0 {
		b.UserCodeSpeedup = cpu / gpu
	}
	if cpu > 0 {
		b.ParallelFraction = b.CPUParallel / cpu
	}
	if b.ParallelFraction < 1 {
		b.AmdahlLimit = 1 / (1 - b.ParallelFraction)
	} else {
		b.AmdahlLimit = math.Inf(1)
	}
	return b
}

// LevelBounds are Graham bounds on the makespan of one DAG level: a set of
// independent tasks with the given per-task service times on P identical
// servers.
type LevelBounds struct {
	// Lower is max(Σt/P, max t): no schedule can beat either the work
	// bound or the span bound.
	Lower float64
	// Upper is Σt/P + max t: any greedy (list) schedule achieves it.
	Upper float64
}

// BoundsForLevel computes Graham bounds for per-task times on p servers.
func BoundsForLevel(times []float64, p int) LevelBounds {
	if len(times) == 0 || p <= 0 {
		return LevelBounds{}
	}
	var sum, max float64
	for _, t := range times {
		sum += t
		if t > max {
			max = t
		}
	}
	work := sum / float64(p)
	lower := work
	if max > lower {
		lower = max
	}
	return LevelBounds{Lower: lower, Upper: work + max}
}

// TaskTime is the full per-task service demand (deser + user code + ser)
// on the chosen device, excluding contention: the per-slot cost a Graham
// bound needs.
func TaskTime(p costmodel.Params, prof costmodel.Profile, dev costmodel.DeviceKind) float64 {
	return p.DeserTime(prof) + p.UserCodeTimeUncontended(prof, dev) + p.SerTime(prof)
}

// IOFloor returns the lower bound the storage architecture imposes on a
// level that moves totalBytes through an aggregate pipe of the given
// bandwidth: no schedule finishes before the data does.
func IOFloor(totalBytes, aggregateBandwidth float64) float64 {
	if aggregateBandwidth <= 0 {
		return 0
	}
	return totalBytes / aggregateBandwidth
}

// Prediction is the Advisor's analytic estimate for one configuration.
type Prediction struct {
	Device costmodel.DeviceKind
	// LevelLower/LevelUpper bound the parallel-task (level) time.
	LevelLower, LevelUpper float64
	// OOM marks configurations that cannot run at all.
	OOM bool
}

// Advisor predicts device choice for a homogeneous level of tasks: the
// §5.4.3 automated-design method. It combines the paper's key factors —
// kernel speedup, serial fraction, CPU-GPU communication, task-level
// parallelism asymmetry (#cores vs #GPUs), (de)serialization volume and
// the storage I/O floor — all of which the correlation analysis found
// interrelated.
type Advisor struct {
	Params  costmodel.Params
	Cluster cluster.Spec
	// StorageBandwidth is the aggregate storage bandwidth (e.g.
	// Params.SharedBandwidth for GPFS).
	StorageBandwidth float64
}

// NewAdvisor returns an advisor for the paper's default environment
// (Minotauro + shared disk).
func NewAdvisor() *Advisor {
	p := costmodel.DefaultParams()
	return &Advisor{Params: p, Cluster: cluster.Minotauro(), StorageBandwidth: p.SharedBandwidth}
}

// Predict bounds the level time for nTasks identical tasks on the device.
func (a *Advisor) Predict(prof costmodel.Profile, nTasks int, dev costmodel.DeviceKind) Prediction {
	pred := Prediction{Device: dev}
	if a.Params.CheckMemory(prof, dev) != nil {
		pred.OOM = true
		return pred
	}
	slots := a.Cluster.TotalCores()
	if dev == costmodel.GPU {
		slots = a.Cluster.TotalGPUs()
	}
	if slots <= 0 {
		pred.OOM = true
		return pred
	}
	t := TaskTime(a.Params, prof, dev)
	times := make([]float64, nTasks)
	for i := range times {
		times[i] = t
	}
	b := BoundsForLevel(times, slots)
	floor := IOFloor(float64(nTasks)*(prof.ReadBytes+prof.WriteBytes), a.StorageBandwidth)
	pred.LevelLower = math.Max(b.Lower, floor)
	pred.LevelUpper = math.Max(b.Upper, floor)
	return pred
}

// Recommendation is the advisor's verdict for a task profile.
type Recommendation struct {
	CPU, GPU Prediction
	// UseGPU reports whether GPU offload is predicted to win.
	UseGPU bool
	// Confident is true when the winner's upper bound beats the loser's
	// lower bound — the prediction holds under any greedy schedule.
	Confident bool
}

// Recommend compares devices for a level of nTasks tasks. The profile's
// ReadBytes/WriteBytes fields must be populated (they drive the I/O floor).
func (a *Advisor) Recommend(prof costmodel.Profile, nTasks int) Recommendation {
	r := Recommendation{
		CPU: a.Predict(prof, nTasks, costmodel.CPU),
		GPU: a.Predict(prof, nTasks, costmodel.GPU),
	}
	switch {
	case r.GPU.OOM:
		r.UseGPU, r.Confident = false, true
	case r.CPU.OOM:
		r.UseGPU, r.Confident = true, true
	default:
		// Compare midpoints; confidence from bound separation.
		cpuMid := (r.CPU.LevelLower + r.CPU.LevelUpper) / 2
		gpuMid := (r.GPU.LevelLower + r.GPU.LevelUpper) / 2
		r.UseGPU = gpuMid < cpuMid
		if r.UseGPU {
			r.Confident = r.GPU.LevelUpper < r.CPU.LevelLower
		} else {
			r.Confident = r.CPU.LevelUpper < r.GPU.LevelLower
		}
	}
	return r
}

// WorkflowBounds are Graham bounds for a whole DAG-structured workflow on
// P homogeneous slots: Lower = max(work/P, critical path), Upper = work/P +
// critical path (any greedy list schedule). Contention on storage and
// interconnects sits on top of these compute bounds, so a simulated
// makespan may exceed Upper by I/O time but never undercut Lower.
type WorkflowBounds struct {
	Lower, Upper float64
	// CriticalPath is the span term; CriticalTasks the task IDs on it.
	CriticalPath  float64
	CriticalTasks []int
	// Work is the total service demand across tasks.
	Work float64
}

// BoundsForWorkflow computes whole-DAG bounds given a per-task service
// time function of the task ID and the device slot count.
func BoundsForWorkflow(g *dag.Graph, slots int, taskTime func(id int) float64) WorkflowBounds {
	if slots <= 0 || g.Len() == 0 {
		return WorkflowBounds{}
	}
	path, span := g.CriticalPath(taskTime)
	work := g.TotalWeight(taskTime)
	b := WorkflowBounds{
		CriticalPath:  span,
		CriticalTasks: path,
		Work:          work,
	}
	b.Lower = work / float64(slots)
	if span > b.Lower {
		b.Lower = span
	}
	b.Upper = work/float64(slots) + span
	return b
}
