package cluster

import (
	"testing"

	"wfsim/internal/costmodel"
	"wfsim/internal/sim"
)

func TestMinotauroSpec(t *testing.T) {
	s := Minotauro()
	if s.TotalCores() != 128 {
		t.Fatalf("cores = %d, want 128", s.TotalCores())
	}
	if s.TotalGPUs() != 32 {
		t.Fatalf("gpus = %d, want 32", s.TotalGPUs())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBuildTopology(t *testing.T) {
	eng := sim.New()
	c, err := Build(eng, Minotauro(), costmodel.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Nodes) != 8 {
		t.Fatalf("nodes = %d, want 8", len(c.Nodes))
	}
	for i, n := range c.Nodes {
		if n.ID != i {
			t.Fatalf("node %d has ID %d", i, n.ID)
		}
		if n.Cores.Capacity() != 16 || n.GPUs.Capacity() != 4 {
			t.Fatalf("node %d: %d cores, %d gpus", i, n.Cores.Capacity(), n.GPUs.Capacity())
		}
		for _, link := range []interface{ Bandwidth() float64 }{n.PCIe, n.Disk, n.NIC} {
			if link.Bandwidth() <= 0 {
				t.Fatal("non-positive link bandwidth")
			}
		}
	}
	if c.Master.Capacity() != 1 {
		t.Fatal("master must be capacity 1")
	}
	if c.Shared == nil {
		t.Fatal("no shared backend")
	}
}

func TestBuildZeroGPUNode(t *testing.T) {
	eng := sim.New()
	c, err := Build(eng, Spec{Name: "cpuonly", Nodes: 2, CoresPerNode: 4, GPUsPerNode: 0}, costmodel.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if c.TotalGPUs() != 0 {
		t.Fatal("TotalGPUs should be 0")
	}
	// Server still exists so the topology is uniform.
	if c.Node(0).GPUs == nil {
		t.Fatal("nil GPU server")
	}
}

func TestBuildInvalidSpec(t *testing.T) {
	if _, err := Build(sim.New(), Spec{Nodes: 0}, costmodel.DefaultParams()); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
