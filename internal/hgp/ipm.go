package hgp

import (
	"math/rand"

	"hyperbal/internal/hypergraph"
)

// ipmMatch computes a greedy first-choice inner-product matching of h,
// honoring the fixed-vertex compatibility filter of Section 4.1: two
// vertices fixed to different parts never match. The returned match vector
// has match[v] == u (and match[u] == v) for matched pairs and
// match[v] == v for singletons. It aliases workspace storage and is valid
// until the next ipmMatch call on the same workspace.
//
// The similarity (inner product / heavy connectivity) between u and v is
// sum over shared nets n of cost(n)/(|n|-1); nets larger than maxNetSize
// are skipped for speed.
func ipmMatch(h *hypergraph.Hypergraph, rng *rand.Rand, maxNetSize int, filterFixed bool, ws *workspace) []int32 {
	n := h.NumVertices()
	ws.match = growI32(ws.match, n)
	match := ws.match
	for v := range match {
		match[v] = -1
	}
	// Fisher–Yates fill, identical to rand.Perm but into a reused buffer.
	ws.perm = growI32(ws.perm, n)
	order := ws.perm
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = int32(i)
	}

	// score accumulation scratch: candidate -> accumulated score. The
	// selection loop restores every touched entry to zero, so the all-zero
	// invariant holds across calls.
	ws.score = growF64(ws.score, n)
	score := ws.score
	touched := ws.touched[:0]

	for _, uu := range order {
		u := int(uu)
		if match[u] != -1 {
			continue
		}
		fu := h.Fixed(u)
		// Accumulate inner products with unmatched neighbors.
		touched = touched[:0]
		for _, netID := range h.Nets(u) {
			pins := h.Pins(int(netID))
			if len(pins) < 2 || len(pins) > maxNetSize {
				continue
			}
			contrib := float64(h.Cost(int(netID))) / float64(len(pins)-1)
			if contrib <= 0 {
				contrib = 1e-9
			}
			for _, w := range pins {
				v := int(w)
				if v == u || match[v] != -1 {
					continue
				}
				if score[v] == 0 {
					touched = append(touched, w)
				}
				score[v] += contrib
			}
		}
		// Pick the best feasible candidate. Infeasible scores are computed
		// anyway (as in Zoltan) but filtered at selection time.
		best := -1
		bestScore := 0.0
		for _, w := range touched {
			v := int(w)
			s := score[v]
			score[v] = 0
			if s <= bestScore {
				// ties broken toward the earlier-seen candidate; strict
				// inequality keeps determinism under the random visit order
				continue
			}
			if filterFixed {
				fv := h.Fixed(v)
				if fu != hypergraph.Free && fv != hypergraph.Free && fu != fv {
					continue // match filter: incompatible fixed parts
				}
			}
			best = v
			bestScore = s
		}
		if best >= 0 {
			match[u] = int32(best)
			match[best] = int32(u)
		} else {
			match[u] = int32(u)
		}
	}
	ws.touched = touched
	return match
}
