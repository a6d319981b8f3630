package hgp

import (
	"hyperbal/internal/hypergraph"
)

// refineKwayFM is the bucket/heap variant of k-way refinement: a
// Fiduccia–Mattheyses-style pass over boundary vertices with hill
// climbing and best-prefix rollback, generalized from 2-way to k-way
// (each heap entry carries the vertex's current best destination). It is
// slower per pass than the greedy sweep in refineKway but escapes
// shallower local minima; Options.KwayFM selects it for the final polish
// (the A5 ablation measures the trade-off). Fixed vertices never move.
// Returns the final cut.
func refineKwayFM(h *hypergraph.Hypergraph, k int, parts []int32, caps []int64, maxPasses int, ws *workspace) int64 {
	n := h.NumVertices()
	s := ws.kwayState(h, k, parts)
	defer s.release()
	ws.kbuf = growI32(ws.kbuf, k)
	buf := ws.kbuf[:0]
	ws.kmark = growBool(ws.kmark, k)
	mark := ws.kmark
	ws.klocked = growBool(ws.klocked, n)
	locked := ws.klocked

	bestMove := func(v int) (int32, int64) {
		cands := s.AdjacentParts(v, buf, mark)
		var to int32 = -1
		var gain int64 = -1 << 62
		for _, q := range cands {
			if s.PartWeight(q)+h.Weight(v) > caps[q] {
				continue
			}
			if g := s.MoveGain(v, q); g > gain {
				gain = g
				to = q
			}
		}
		return to, gain
	}

	type appliedMove struct {
		v    int32
		from int32
	}

	gh := &ws.heap
	for pass := 0; pass < maxPasses; pass++ {
		gh.reset(n)
		inHeap := 0
		for v := 0; v < n; v++ {
			locked[v] = false
			if h.Fixed(v) != hypergraph.Free {
				continue
			}
			if to, gain := bestMove(v); to >= 0 {
				// encode destination implicitly: recompute at pop (state
				// changes invalidate it anyway); the heap orders by gain.
				gh.update(v, gain)
				inHeap++
			}
		}
		if inHeap == 0 {
			break
		}
		var moves []appliedMove
		var cum, best int64
		bestPrefix := 0
		sinceBest := 0
		limit := n/20 + 50

		for {
			e, ok := gh.popValid()
			if !ok {
				break
			}
			v := int(e.v)
			if locked[v] {
				continue
			}
			to, gain := bestMove(v) // fresh evaluation against current state
			if to < 0 {
				continue
			}
			from := s.PartOf(v)
			s.Move(v, to)
			locked[v] = true
			moves = append(moves, appliedMove{v: int32(v), from: from})
			cum += gain
			if cum > best {
				best = cum
				bestPrefix = len(moves)
				sinceBest = 0
			} else if sinceBest++; sinceBest > limit {
				break
			}
			// refresh unlocked neighbors
			for _, nn := range h.Nets(v) {
				pins := h.Pins(int(nn))
				if len(pins) > 500 {
					continue
				}
				for _, p := range pins {
					u := int(p)
					if !locked[u] && h.Fixed(u) == hypergraph.Free {
						if uto, ug := bestMove(u); uto >= 0 {
							gh.update(u, ug)
						} else {
							gh.invalidate(u)
						}
					}
				}
			}
		}
		// rollback past the best prefix
		for i := len(moves) - 1; i >= bestPrefix; i-- {
			s.Move(int(moves[i].v), moves[i].from)
		}
		obsKwayPasses.Inc()
		obsKwayMoves.Add(int64(bestPrefix))
		if best <= 0 {
			break
		}
	}
	return s.Cut()
}
