//go:build !race

package hgp

import (
	"math/rand"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
)

// TestKernelAllocGuards pins the steady-state allocs/op of the serial
// kernel hot paths, so the arena discipline of the workspace survives
// refactors. Limits sit just above the measured values (ipmMatch 1,
// contractWS 10, refineKway 0). Excluded under -race: the detector
// inserts allocations of its own.
func TestKernelAllocGuards(t *testing.T) {
	g, err := datasets.Generate("xyce680s", kernelBenchScale, 1)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	ws := newWorkspace()

	rng := rand.New(rand.NewSource(1))
	match := ipmMatch(h, rng, 500, true, ws)
	matchCopy := append([]int32(nil), match...)

	if n := testing.AllocsPerRun(10, func() {
		r := rand.New(rand.NewSource(1))
		ipmMatch(h, r, 500, true, ws)
	}); n > 2 {
		t.Errorf("ipmMatch: %.0f allocs/op, want <= 2", n)
	}

	if n := testing.AllocsPerRun(10, func() {
		copy(match, matchCopy)
		contractWS(h, match, ws)
	}); n > 12 {
		t.Errorf("contractWS: %.0f allocs/op, want <= 12", n)
	}

	const k = 8
	rng = rand.New(rand.NewSource(3))
	base := randomBalanced(h, k, nil, rng)
	caps := capsFor(h, k, 0.10)
	parts := make([]int32, len(base))
	if n := testing.AllocsPerRun(10, func() {
		copy(parts, base)
		refineKway(h, k, parts, caps, 2, ws)
	}); n > 1 {
		t.Errorf("refineKway round: %.0f allocs/op, want <= 1", n)
	}
}
