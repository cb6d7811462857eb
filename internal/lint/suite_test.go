package lint

import (
	"testing"

	"wfsim/internal/lint/analysis/analysistest"
)

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", MapOrder, "maporder")
}

func TestWallTime(t *testing.T) {
	analysistest.Run(t, "testdata", WallTime, "walltime")
}

func TestSeedRand(t *testing.T) {
	analysistest.Run(t, "testdata", SeedRand, "seedrand")
}

func TestFloatReduce(t *testing.T) {
	analysistest.Run(t, "testdata", FloatReduce, "floatreduce")
}

func TestHotAlloc(t *testing.T) {
	analysistest.Run(t, "testdata", HotAlloc, "hotalloc")
}

// TestSimBlock loads the substrate (Engine) fixture and the client
// fixture as one module: callback discovery crosses the package boundary,
// and the substrate package itself must come back exempt.
func TestSimBlock(t *testing.T) {
	analysistest.RunModule(t, "testdata", SimBlock, "simblockeng", "simblock")
}

// TestWallTimeChain is the laundering acceptance case: a wall-clock
// instant returned through a two-hop cross-package helper chain is
// flagged at every consuming call site in virtual-time code.
func TestWallTimeChain(t *testing.T) {
	analysistest.RunModule(t, "testdata", WallTime, "chain/inner", "chain")
}

// TestSeedRandChain exercises entropy flowing into generator seeds
// through helper returns, locals, parameters, and struct fields across
// a package boundary.
func TestSeedRandChain(t *testing.T) {
	analysistest.RunModule(t, "testdata", SeedRand, "seedchain/seeds", "seedchain")
}
