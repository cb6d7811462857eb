// Capacity planning: the paper's §5.4.3 "toward automated design"
// direction made concrete. Given a workload (here: the 10 GB K-means),
// sweep the execution-parameter space — block dimension × processor type ×
// storage architecture × scheduling policy — on the simulator and report
// the best configurations, instead of the trial-and-error reruns the
// paper's introduction laments.
//
//	go run ./examples/capacity
package main

import (
	"context"
	"fmt"
	"log"
	"sort"

	"wfsim"
	"wfsim/internal/dataset"
	"wfsim/internal/experiments"
	"wfsim/internal/sched"
	"wfsim/internal/storage"
	"wfsim/internal/tables"
)

type candidate struct {
	cell experiments.Cell
	note string
}

func main() {
	ds := wfsim.Datasets.KMeansSmall
	fmt.Printf("capacity planning for K-means on %s over Minotauro\n", ds)
	fmt.Println("sweeping block dimension × processor × storage × scheduler ...")

	var results []candidate
	oom := 0
	for _, grid := range dataset.KMeansGrids {
		for _, dev := range []struct {
			kind wfsim.SimConfig
		}{{wfsim.SimConfig{Device: wfsim.CPU}}, {wfsim.SimConfig{Device: wfsim.GPU}}} {
			for _, sto := range []storage.Architecture{storage.Shared, storage.Local} {
				for _, pol := range []sched.Policy{sched.FIFO, sched.Locality} {
					cell, err := experiments.RunCell(context.Background(), experiments.CellConfig{
						Algorithm: experiments.KMeans,
						Dataset:   ds,
						Grid:      grid,
						Clusters:  10,
						Device:    dev.kind.Device,
						Storage:   sto,
						Policy:    pol,
					})
					if err != nil {
						log.Fatal(err)
					}
					if cell.OOM {
						oom++
						continue
					}
					results = append(results, candidate{cell: cell})
				}
			}
		}
	}

	sort.Slice(results, func(i, j int) bool {
		return results[i].cell.Makespan < results[j].cell.Makespan
	})

	t := tables.New(fmt.Sprintf("\nTop configurations (%d evaluated, %d OOM)", len(results)+oom, oom),
		"rank", "block (grid)", "device", "storage", "scheduler", "makespan (s)", "core util", "gpu util")
	for i, r := range results {
		if i >= 8 {
			break
		}
		c := r.cell
		t.AddRow(
			fmt.Sprint(i+1),
			fmt.Sprintf("%s (%s)", dataset.FormatBytes(c.BlockBytes), c.GridString),
			c.Device.String(),
			c.Storage.String(),
			c.Policy.String(),
			tables.FormatFloat(c.Makespan),
			fmt.Sprintf("%.0f%%", c.CoreUtil*100),
			fmt.Sprintf("%.0f%%", c.GPUUtil*100),
		)
	}
	fmt.Print(t.String())

	best := results[0].cell
	fmt.Printf("\nrecommendation: %s blocks (%s grid) on %s, %s, %s scheduling\n",
		dataset.FormatBytes(best.BlockBytes), best.GridString,
		best.Device, best.Storage, best.Policy)
	fmt.Println("\nNote how no single factor decides the winner — the paper's core claim:")
	fmt.Println("block dimension, processor type, storage and scheduling interact.")
}
