package hgp

import "sync"

// parctx is the per-Partition parallel execution context: a token pool
// bounding the extra worker goroutines of one call, with workspaces
// recycled through wsPool. A nil-sem parctx executes everything inline.
//
// Determinism: the inline path is also the reference schedule. Every work
// item handed to fork or forEach derives its random stream from its index
// (never from execution order), writes only to its own result slot or
// vertex range, and winners are reduced by a scan in index order — so
// every Parallelism value, 1 included, produces bit-identical partitions.
type parctx struct {
	sem chan struct{} // capacity = Parallelism-1 extra workers; nil = serial
}

func newParctx(parallelism int) *parctx {
	px := &parctx{}
	if parallelism > 1 {
		px.sem = make(chan struct{}, parallelism-1)
	}
	return px
}

func (px *parctx) getWS() *workspace   { return wsPool.Get().(*workspace) }
func (px *parctx) putWS(ws *workspace) { wsPool.Put(ws) }

// fork runs fn, in a fresh goroutine when a worker token is free and
// inline otherwise, and returns a join function the caller must invoke
// before touching data fn writes. fn receives a workspace of its own.
func (px *parctx) fork(fn func(ws *workspace)) (join func()) {
	if px.sem != nil {
		select {
		case px.sem <- struct{}{}:
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { <-px.sem }()
				ws := px.getWS()
				defer px.putWS(ws)
				fn(ws)
			}()
			return func() { <-done }
		default:
		}
	}
	ws := px.getWS()
	fn(ws)
	px.putWS(ws)
	return func() {}
}

// forEach runs fn(0..n-1), spilling items onto worker goroutines while
// tokens are free and running the rest inline on the caller's workspace.
// It returns only after every item completed.
func (px *parctx) forEach(n int, ws *workspace, fn func(i int, ws *workspace)) {
	if px.sem == nil || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i, ws)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		select {
		case px.sem <- struct{}{}:
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() { <-px.sem }()
				w := px.getWS()
				defer px.putWS(w)
				fn(i, w)
			}(i)
		default:
			fn(i, ws)
		}
	}
	wg.Wait()
}

// startSeed derives the RNG seed of multi-start attempt s from the base
// seed drawn once from the level's stream. The constant is the odd PCG
// multiplier, so distinct starts get well-separated streams.
func startSeed(base int64, s int) int64 {
	return base + int64(s+1)*0x5851F42D4C957F2D
}
