package hgp

import (
	"math/rand"
	"testing"

	"hyperbal/internal/datasets"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
)

// kernelBenchScale matches the repo-level benchScale so kernel numbers are
// comparable with the figure benchmarks in bench_test.go.
const kernelBenchScale = 1200

func benchHypergraph(b *testing.B) *hypergraph.Hypergraph {
	b.Helper()
	g, err := datasets.Generate("xyce680s", kernelBenchScale, 1)
	if err != nil {
		b.Fatal(err)
	}
	return graph.ToHypergraph(g)
}

// BenchmarkContract measures one coarsening contraction at benchScale:
// the dominant allocation site of the multilevel pipeline.
func BenchmarkContract(b *testing.B) {
	h := benchHypergraph(b)
	rng := rand.New(rand.NewSource(1))
	ws := newWorkspace()
	match := ipmMatch(h, rng, 500, true, ws)
	matchCopy := append([]int32(nil), match...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(match, matchCopy)
		contractWS(h, match, ws)
	}
}

// BenchmarkIPMMatch measures one inner-product matching round.
func BenchmarkIPMMatch(b *testing.B) {
	h := benchHypergraph(b)
	ws := newWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(1))
		ipmMatch(h, rng, 500, true, ws)
	}
}

// BenchmarkFM2Pass measures one 2-way FM pass-pair over a balanced random
// start (the per-level refinement kernel).
func BenchmarkFM2Pass(b *testing.B) {
	h := benchHypergraph(b)
	n := h.NumVertices()
	rng := rand.New(rand.NewSource(2))
	base := make([]int32, n)
	for _, v := range rng.Perm(n)[:n/2] {
		base[v] = 1
	}
	fixed := make([]int32, n)
	for v := range fixed {
		fixed[v] = hypergraph.Free
	}
	caps := capsFor(h, 2, 0.10)
	parts := make([]int32, n)
	ws := newWorkspace()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(parts, base)
		fm2(h, parts, fixed, caps[0], caps[1], 1, 500, ws)
	}
}
