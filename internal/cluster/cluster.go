// Package cluster models the heterogeneous CPU-GPU cluster the workflows
// execute on: the paper's Minotauro system (§4.4.1) — 8 nodes, each with 16
// CPU cores, 4 NVIDIA K80 GPUs (12 GB, PCIe 3.0) and 128 GB of RAM, plus a
// GPFS shared file system and node-local disks.
//
// Each node's resources map onto sim primitives: cores and GPUs are
// capacity Servers; the PCIe bus, the local disk and the NIC are fair-share
// fluid Links. The GPFS backend is one cluster-wide Link all nodes contend
// on. The runtime master (scheduler) is a capacity-1 Server, matching the
// single-threaded dispatch of a COMPSs-style master.
package cluster

import (
	"fmt"

	"wfsim/internal/costmodel"
	"wfsim/internal/sim"
)

// Spec describes a cluster topology. Link/device rates come from
// costmodel.Params so topology and calibration stay separate.
type Spec struct {
	// Name labels the cluster in outputs.
	Name string `json:"name"`
	// Nodes is the number of compute nodes.
	Nodes int `json:"nodes"`
	// CoresPerNode is the number of CPU cores per node.
	CoresPerNode int `json:"cores_per_node"`
	// GPUsPerNode is the number of GPU devices per node.
	GPUsPerNode int `json:"gpus_per_node"`
}

// Validate checks the spec is buildable.
func (s Spec) Validate() error {
	if s.Nodes <= 0 || s.CoresPerNode <= 0 || s.GPUsPerNode < 0 {
		return fmt.Errorf("cluster: invalid spec %+v", s)
	}
	return nil
}

// TotalCores returns the cluster-wide CPU core count (the maximum
// task-level parallelism for CPU tasks — 128 on Minotauro).
func (s Spec) TotalCores() int { return s.Nodes * s.CoresPerNode }

// TotalGPUs returns the cluster-wide GPU count (the maximum task-level
// parallelism for GPU tasks — 32 on Minotauro).
func (s Spec) TotalGPUs() int { return s.Nodes * s.GPUsPerNode }

// Minotauro returns the paper's cluster configuration: 8 of the system's
// nodes, 16 cores + 4 GPUs each.
func Minotauro() Spec {
	return Spec{Name: "minotauro", Nodes: 8, CoresPerNode: 16, GPUsPerNode: 4}
}

// Node is one compute node's simulated resources.
type Node struct {
	ID    int
	Cores *sim.Server // CPU cores (capacity = CoresPerNode)
	GPUs  *sim.Server // GPU devices (capacity = GPUsPerNode)
	PCIe  *sim.Link   // CPU-GPU interconnect shared by the node's GPUs
	Disk  *sim.Link   // node-local disk
	NIC   *sim.Link   // network interface
}

// Cluster is a built topology bound to a simulation engine.
type Cluster struct {
	Spec
	Params costmodel.Params
	Nodes  []*Node
	// Shared is the GPFS backend: a single pipe all nodes contend on.
	Shared *sim.Link
	// Master is the runtime's scheduling thread (capacity 1); per-task
	// scheduling decisions serialize through it, which is how an excess
	// of fine-grained tasks turns scheduling into a bottleneck.
	Master *sim.ServiceLine
}

// Build instantiates the topology on the engine using the calibrated rates
// in params.
func Build(eng *sim.Engine, spec Spec, params costmodel.Params) (*Cluster, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		Spec:   spec,
		Params: params,
		Shared: sim.NewLink(eng, "gpfs", params.SharedBandwidth, params.SharedLatency),
		Master: sim.NewServiceLine(eng, "master"),
	}
	for i := 0; i < spec.Nodes; i++ {
		n := &Node{
			ID:    i,
			Cores: sim.NewServer(eng, fmt.Sprintf("node%d.cores", i), spec.CoresPerNode),
			PCIe:  sim.NewLink(eng, fmt.Sprintf("node%d.pcie", i), params.PCIeBandwidth, params.PCIeLatency),
			Disk:  sim.NewLink(eng, fmt.Sprintf("node%d.disk", i), params.DiskBandwidth, params.DiskLatency),
			NIC:   sim.NewLink(eng, fmt.Sprintf("node%d.nic", i), params.NICBandwidth, params.NICLatency),
		}
		gpus := spec.GPUsPerNode
		if gpus == 0 {
			// A Server needs positive capacity; a zero-GPU node gets a
			// 1-capacity server that scheduling never routes to.
			gpus = 1
		}
		n.GPUs = sim.NewServer(eng, fmt.Sprintf("node%d.gpus", i), gpus)
		c.Nodes = append(c.Nodes, n)
	}
	return c, nil
}

// Node returns the node with the given ID.
func (c *Cluster) Node(id int) *Node { return c.Nodes[id] }
