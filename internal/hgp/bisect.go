package hgp

import (
	"math/rand"
	"time"

	"hyperbal/internal/hypergraph"
)

// bisect computes a 2-way partition of h with target side-0 weight
// fraction frac0 and per-bisection imbalance eps, using the full
// multilevel pipeline: IPM coarsening, multi-start greedy hypergraph
// growing at the coarsest level, and FM refinement at every level.
// fixedSide maps each vertex to 0, 1, or Free.
//
// The coarsest-level starts run concurrently on px when workers are free.
// Each start draws its RNG from startSeed(baseSeed, s) — a function of the
// start index only — and the winner is chosen by an index-ordered scan
// (lowest cut, then lowest balance deviation, then lowest start index), so
// the result is bit-identical for every Parallelism value.
func bisect(h *hypergraph.Hypergraph, rng *rand.Rand, fixedSide []int32, frac0, eps float64, opt Options, px *parctx, ws *workspace) []int32 {
	hf := h.WithFixed(fixedSide)
	coarsenTo := opt.CoarsenTo
	if coarsenTo < 4 {
		coarsenTo = 4
	}
	levels := coarsen(hf, rng, coarsenTo, opt.MinShrink, opt.MaxNetSize, !opt.DisableMatchFilter, ws)

	// Coarsest-level solve: multi-start GHG + FM, keep the best.
	coarsest := levels[len(levels)-1].h
	cFixed := fixedLabels(coarsest)
	ctotal := coarsest.TotalWeight()
	ct0 := int64(float64(ctotal) * frac0)
	cc0 := int64(float64(ctotal) * frac0 * (1 + eps))
	cc1 := int64(float64(ctotal) * (1 - frac0) * (1 + eps))
	if cc0 < ct0 {
		cc0 = ct0
	}
	type startOut struct {
		parts []int32
		cut   int64
		dev   int64 // |side-0 weight - target|, the balance tiebreak
	}
	outs := make([]startOut, opt.InitialStarts)
	baseSeed := rng.Int63()
	solveStart := time.Now()
	px.forEach(opt.InitialStarts, ws, func(s int, sws *workspace) {
		srng := rand.New(rand.NewSource(startSeed(baseSeed, s)))
		parts := ghg2(coarsest, srng, cFixed, ct0, cc0, cc1, opt.MaxNetSize, sws)
		cut := fm2(coarsest, parts, cFixed, cc0, cc1, opt.RefinePasses, opt.MaxNetSize, sws)
		var w0 int64
		for v, p := range parts {
			if p == 0 {
				w0 += coarsest.Weight(v)
			}
		}
		dev := w0 - ct0
		if dev < 0 {
			dev = -dev
		}
		outs[s] = startOut{parts: parts, cut: cut, dev: dev}
	})
	obsCoarseSolveNs.ObserveSince(solveStart)
	best := 0
	for s := 1; s < len(outs); s++ {
		if outs[s].cut < outs[best].cut ||
			(outs[s].cut == outs[best].cut && outs[s].dev < outs[best].dev) {
			best = s
		}
	}
	parts := outs[best].parts

	// Uncoarsen: project and refine at each finer level.
	for i := len(levels) - 2; i >= 0; i-- {
		refineStart := time.Now()
		parts = project(levels[i].cmap, parts)
		lf := fixedLabels(levels[i].h)
		lt := levels[i].h.TotalWeight()
		lc0 := int64(float64(lt) * frac0 * (1 + eps))
		lc1 := int64(float64(lt) * (1 - frac0) * (1 + eps))
		fm2(levels[i].h, parts, lf, lc0, lc1, opt.RefinePasses, opt.MaxNetSize, ws)
		obsRefineNs.At(i).ObserveSince(refineStart)
	}
	return parts
}

// fixedLabels extracts the fixed-side labels of h into a slice (Free for
// unfixed vertices).
func fixedLabels(h *hypergraph.Hypergraph) []int32 {
	out := make([]int32, h.NumVertices())
	for v := range out {
		out[v] = h.Fixed(v)
	}
	return out
}
