package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"slices"
	"sync"
	"time"

	"hyperbal"
	"hyperbal/internal/core"
	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/graph"
	"hyperbal/internal/hypergraph"
	"hyperbal/internal/server"
)

// sessionPlan is one session's inputs and the library oracle's outputs.
// The weights dynamic rescales vertex weights and sizes but keeps the
// nets, so the plan stores the nets once plus each epoch's weights and
// sizes, and epoch rebuilds a hypergraph between timed ops; holding every
// epoch's hypergraph would take hundreds of MB.
type sessionPlan struct {
	cfg      core.Config
	netStart []int32
	netPins  []int32
	costs    []int64
	weights  [][]int64       // per epoch, the static epoch 0 first
	sizes    [][]int64       // per epoch, the static epoch 0 first
	want     [][]int32       // oracle's partition per epoch, epoch 0 first
	warm     []time.Duration // traced oracle RebalanceWarm time per epoch after 0
}

// epochs is the number of epochs after the static one.
func (pl *sessionPlan) epochs() int { return len(pl.weights) - 1 }

// epoch returns epoch e's hypergraph; 0 is the static epoch.
func (pl *sessionPlan) epoch(e int) *hypergraph.Hypergraph {
	return hypergraph.FromCSR(pl.netStart, pl.netPins, pl.costs, pl.weights[e], pl.sizes[e], nil)
}

// add appends h's weights and sizes and the oracle's partition of it.
func (pl *sessionPlan) add(h *hypergraph.Hypergraph, parts []int32) error {
	w, sz := make([]int64, h.NumVertices()), make([]int64, h.NumVertices())
	for v := range w {
		w[v], sz[v] = h.Weight(v), h.Size(v)
	}
	pl.weights = append(pl.weights, w)
	pl.sizes = append(pl.sizes, sz)
	pl.want = append(pl.want, parts)
	if pl.epoch(len(pl.weights)-1).Fingerprint() != h.Fingerprint() {
		return fmt.Errorf("epoch %d changed the nets, which the plan does not store", len(pl.weights)-1)
	}
	return nil
}

// oraclePlan builds a weights-dynamic epoch sequence (a tenth of the parts
// get their vertices rescaled by U(1.5, 7.5) each epoch) and solves it
// with an in-process core.Session: Rebalance for full epochs, or
// RebalanceWarm on the delta's dirty region when warm is set, exactly as
// the server does.
func oraclePlan(dataset string, n int, seed int64, k, epochs int, warm bool, tr *tracer) (*sessionPlan, error) {
	g, err := datasets.Generate(dataset, n, seed)
	if err != nil {
		return nil, err
	}
	h0 := graph.ToHypergraph(g)
	plan := &sessionPlan{
		cfg:      core.Config{K: k, Alpha: alpha, Seed: seed, Method: core.HypergraphRepart},
		netStart: make([]int32, 0, h0.NumNets()+1),
		netPins:  make([]int32, 0, h0.NumPins()),
		costs:    make([]int64, 0, h0.NumNets()),
	}
	for net := 0; net < h0.NumNets(); net++ {
		plan.netStart = append(plan.netStart, int32(len(plan.netPins)))
		plan.netPins = append(plan.netPins, h0.Pins(net)...)
		plan.costs = append(plan.costs, h0.Cost(net))
	}
	plan.netStart = append(plan.netStart, int32(len(plan.netPins)))
	bal, err := core.NewBalancer(plan.cfg)
	if err != nil {
		return nil, err
	}
	sess, res, err := core.NewSession(bal, core.Problem{H: h0})
	if err != nil {
		return nil, fmt.Errorf("oracle static partition: %w", err)
	}
	if err := plan.add(h0, res.Partition.Parts); err != nil {
		return nil, err
	}
	gen, err := dynamics.NewRefinement(g, res.Partition, k, 0.1, 1.5, 7.5, seed*17+5)
	if err != nil {
		return nil, err
	}
	prev := h0
	for e := 0; e < epochs; e++ {
		prob, _ := gen.Next()
		h := prob.H
		if warm {
			d, ok := hypergraph.ComputeDelta(prev, h)
			if !ok {
				return nil, fmt.Errorf("oracle epoch %d is not expressible as a delta", e+1)
			}
			dirty := d.DirtyVertices(prev, h)
			sp := tr.begin("core", "Session.RebalanceWarm")
			res, err = sess.RebalanceWarm(core.Problem{H: h}, dirty)
			plan.warm = append(plan.warm, tr.end(sp))
		} else {
			res, err = sess.Rebalance(core.Problem{H: h})
		}
		if err != nil {
			return nil, fmt.Errorf("oracle epoch %d: %w", e+1, err)
		}
		if err := gen.Observe(res.Partition); err != nil {
			return nil, err
		}
		if err := plan.add(h, res.Partition.Parts); err != nil {
			return nil, err
		}
		prev = h
	}
	return plan, nil
}

// cachedEpochs is serve-cached's epoch sequence length.
const cachedEpochs = 10

// prepareServeCached: many sessions with one seed replay the same
// weights-dynamic epoch sequence on xyce680s at n=6000, K=8, through full
// binary SubmitEpoch calls. A leader session solves the sequence during
// set-up, so every timed op is a partition-cache hit.
func prepareServeCached(seed int64, ops int, tr *tracer) (func(p *pass) error, error) {
	plan, err := oraclePlan("xyce680s", 6000, seed, 8, cachedEpochs, false, tr)
	if err != nil {
		return nil, err
	}
	sessions := (ops + cachedEpochs - 1) / cachedEpochs
	plans := make([]*sessionPlan, sessions)
	for i := range plans {
		plans[i] = plan
	}
	return func(p *pass) error { return servePass(p, plans, false) }, nil
}

// warmEpochs is serve-delta-warm's epochs per session.
const warmEpochs = 25

// prepareServeDeltaWarm: sessions with distinct seeds submit
// weights-dynamic epochs on the auto analogue at n=1200, K=8, as
// SubmitEpochDelta(warm=true). Every op misses the cache and is solved by
// the localized warm tier.
func prepareServeDeltaWarm(seed int64, ops int, tr *tracer) (func(p *pass) error, error) {
	plans := make([]*sessionPlan, (ops+warmEpochs-1)/warmEpochs)
	for i := range plans {
		var err error
		plans[i], err = oraclePlan("auto", 1200, trialSeed(seed, i), 8, warmEpochs, true, tr)
		if err != nil {
			return nil, fmt.Errorf("session %d: %w", i, err)
		}
	}
	return func(p *pass) error { return servePass(p, plans, true) }, nil
}

// servePass starts an in-process balancerd on a loopback listener, creates
// one session per plan through hyperbal.Client (with serve-cached's
// leader solving the shared sequence first), then replays every session's
// epochs from one closed-loop client and checks each served partition
// against the oracle's.
func servePass(p *pass, plans []*sessionPlan, warm bool) error {
	ctx := context.Background()
	srv := server.New(server.Config{})
	defer srv.Close()
	var probe *handlerProbe
	var handler http.Handler = srv.Handler()
	if p.tr != nil {
		probe = newHandlerProbe(handler, p.tr)
		handler = probe
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	defer func() {
		transport.CloseIdleConnections()
		// Every op has been checked by now; a failed shutdown changes no
		// result, and Serve returns either way.
		_ = hs.Shutdown(ctx)
		<-served
	}()
	// Retries are off so a refused request (429/503) counts as a failed
	// op instead of hiding as a backoff sleep inside a latency sample.
	client := hyperbal.NewClient("http://"+ln.Addr().String(),
		hyperbal.ClientOptions{MaxRetries: -1, HTTPClient: &http.Client{Transport: transport}})

	if !warm {
		if err := leaderSolve(ctx, client, plans[0]); err != nil {
			return fmt.Errorf("leader session: %w", err)
		}
	}
	// Sessions open just before their first epoch and close after their
	// last, untimed, so only one is live and memory stays flat however
	// many ops the run does.
	for si, pl := range plans {
		prev := pl.epoch(0)
		s, created, err := client.CreateSession(ctx, pl.cfg, prev)
		if err != nil {
			return fmt.Errorf("creating session %d: %w", si, err)
		}
		if !slices.Equal(created.Partition.Parts, pl.want[0]) {
			return p.wrong(p.next(), "session %d epoch 0: served partition differs from the library oracle's", si)
		}
		if probe != nil {
			probe.take() // the create request is not an op
		}
		for e := 1; e <= pl.epochs(); e++ {
			h := pl.epoch(e)
			i := p.next()
			var res hyperbal.RemoteResult
			var csp int
			ok := p.op(func() (float64, error) {
				var err error
				if warm {
					csp = p.tr.begin("hyperbal", "RemoteSession.SubmitEpochDelta")
					res, err = s.SubmitEpochDelta(ctx, h, true)
				} else {
					csp = p.tr.begin("hyperbal", "RemoteSession.SubmitEpoch")
					res, err = s.SubmitEpoch(ctx, h)
				}
				p.tr.end(csp)
				return float64(res.CommVolume) + float64(res.MigrationVolume)/alpha, err
			})
			if !ok {
				break // the session did not advance; its later epochs would not match the oracle
			}
			if !slices.Equal(res.Partition.Parts, pl.want[e]) {
				return p.wrong(i, "session %d epoch %d: served partition differs from the library oracle's", si, e)
			}
			if err := checkPartition(h, res.Partition, pl.cfg.K); err != nil {
				return p.wrong(i, "session %d epoch %d: %v", si, e, err)
			}
			if warm && (res.Cached || !res.Warm) {
				return p.wrong(i, "session %d epoch %d: want a warm cache miss, got cached=%v warm=%v", si, e, res.Cached, res.Warm)
			}
			if !warm && !res.Cached {
				return p.wrong(i, "session %d epoch %d: want a partition-cache hit, got a solve", si, e)
			}
			if probe != nil {
				var warmTime time.Duration
				if warm {
					warmTime = pl.warm[e-1]
				}
				serveLayers(p, probe, csp, res.Cached, prev, h, warm, warmTime)
			}
			prev = h
		}
		if err := s.Close(ctx); err != nil {
			return fmt.Errorf("closing session %d: %w", si, err)
		}
	}
	return nil
}

// leaderSolve runs the shared plan through one session so the server's
// partition cache holds every epoch's result before the timed ops.
func leaderSolve(ctx context.Context, c *hyperbal.Client, pl *sessionPlan) error {
	s, _, err := c.CreateSession(ctx, pl.cfg, pl.epoch(0))
	if err != nil {
		return err
	}
	for e := 1; e <= pl.epochs(); e++ {
		res, err := s.SubmitEpoch(ctx, pl.epoch(e))
		if err != nil {
			return fmt.Errorf("epoch %d: %w", e, err)
		}
		if !slices.Equal(res.Partition.Parts, pl.want[e]) {
			return fmt.Errorf("epoch %d: served partition differs from the library oracle's", e)
		}
	}
	return s.Close(ctx)
}

// serveLayers records one served op's per-layer values: the handler span
// and wire bytes from the probe, the client's transport share, and the
// hypergraph calls the server made for this op, rerun standalone on the
// op's own inputs. The residual is the handler time those calls (and, on
// the warm path, the oracle's warm solve of the same epoch) do not
// explain: admission, session store, cache and singleflight.
func serveLayers(p *pass, probe *handlerProbe, clientSpan int, cached bool, prev, h *hypergraph.Hypergraph, warm bool, warmTime time.Duration) {
	handler, reqBytes, respBytes := probe.take()
	p.recordMS("server.handler_ms", handler)
	p.recordMS("hyperbal.transport_ms", p.tr.selfTime(clientSpan))
	p.record("wire.request_bytes_per_op", float64(reqBytes))
	p.record("wire.response_bytes_per_op", float64(respBytes))
	hit := 0.0
	if cached {
		hit = 1
	}
	p.record("server.cache_hit_frac", hit)

	root := p.tr.begin("bench", "standalone")
	defer p.tr.end(root)
	var explained time.Duration
	if !warm {
		sp := p.tr.begin("hypergraph", "AppendBinary")
		frame := h.AppendBinary(nil)
		p.recordMS("hypergraph.encode_ms", p.tr.end(sp))
		sp = p.tr.begin("hypergraph", "DecodeBinary")
		_, _, err := hypergraph.DecodeBinary(hypergraph.NewBinReader(frame))
		decode := p.tr.end(sp)
		p.recordMS("hypergraph.decode_ms", decode)
		sp = p.tr.begin("hypergraph", "Fingerprint")
		h.Fingerprint()
		p.recordMS("hypergraph.fingerprint_ms", p.tr.end(sp))
		if err != nil {
			p.markAbsent("DecodeBinary failed: "+err.Error(), "hypergraph.decode_ms", "server.residual_ms")
			return
		}
		// The server fingerprints while it decodes, so decode alone is
		// its codec time.
		explained = decode
	} else {
		sp := p.tr.begin("hypergraph", "ComputeDelta")
		d, ok := hypergraph.ComputeDelta(prev, h)
		p.recordMS("hypergraph.delta_compute_ms", p.tr.end(sp))
		if !ok {
			p.markAbsent("ComputeDelta refused the epoch", "hypergraph.delta_compute_ms", "hypergraph.encode_ms",
				"hypergraph.decode_ms", "hypergraph.delta_apply_ms", "hypergraph.fingerprint_ms", "hypergraph.dirty_ms", "server.residual_ms")
			return
		}
		sp = p.tr.begin("hypergraph", "Delta.AppendBinary")
		frame := d.AppendBinary(nil)
		p.recordMS("hypergraph.encode_ms", p.tr.end(sp))
		sp = p.tr.begin("hypergraph", "DecodeDeltaBinary")
		_, derr := hypergraph.DecodeDeltaBinary(hypergraph.NewBinReader(frame))
		decode := p.tr.end(sp)
		sp = p.tr.begin("hypergraph", "Delta.Apply")
		next, aerr := d.Apply(prev)
		apply := p.tr.end(sp)
		if derr != nil || aerr != nil {
			p.markAbsent(fmt.Sprintf("delta round trip failed: %v", errors.Join(derr, aerr)), "hypergraph.decode_ms",
				"hypergraph.delta_apply_ms", "hypergraph.fingerprint_ms", "hypergraph.dirty_ms", "server.residual_ms")
			return
		}
		p.recordMS("hypergraph.decode_ms", decode)
		p.recordMS("hypergraph.delta_apply_ms", apply)
		sp = p.tr.begin("hypergraph", "Fingerprint")
		next.Fingerprint()
		fpTime := p.tr.end(sp)
		p.recordMS("hypergraph.fingerprint_ms", fpTime)
		sp = p.tr.begin("hypergraph", "Delta.DirtyVertices")
		d.DirtyVertices(prev, next)
		dirty := p.tr.end(sp)
		p.recordMS("hypergraph.dirty_ms", dirty)
		p.recordMS("core.warm_ms", warmTime)
		explained = decode + apply + fpTime + dirty + warmTime
	}
	p.recordMS("server.residual_ms", handler-explained)
}

// handlerProbe wraps the server's handler with a span and byte counts.
// The client is a single closed loop, so at most one request is in the
// handler at a time and take attributes its numbers to the op just run.
type handlerProbe struct {
	next http.Handler
	tr   *tracer

	mu        sync.Mutex
	idle      *sync.Cond
	active    int
	handler   time.Duration
	reqBytes  int64
	respBytes int64
}

func newHandlerProbe(next http.Handler, tr *tracer) *handlerProbe {
	h := &handlerProbe{next: next, tr: tr}
	h.idle = sync.NewCond(&h.mu)
	return h
}

func (h *handlerProbe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mu.Lock()
	h.active++
	h.mu.Unlock()
	sp := h.tr.beginRemote("server", "Handler "+r.Method)
	body := &countingReader{r: r.Body}
	r.Body = body
	cw := &countingWriter{ResponseWriter: w}
	h.next.ServeHTTP(cw, r)
	d := h.tr.end(sp)
	h.mu.Lock()
	h.handler += d
	h.reqBytes += body.n
	h.respBytes += cw.n
	h.active--
	h.idle.Broadcast()
	h.mu.Unlock()
}

// take waits until the handler has returned (the client may read the
// whole response before it does) and returns and resets the op's totals.
func (h *handlerProbe) take() (time.Duration, int64, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for h.active > 0 {
		h.idle.Wait()
	}
	d, rq, rs := h.handler, h.reqBytes, h.respBytes
	h.handler, h.reqBytes, h.respBytes = 0, 0, 0
	return d, rq, rs
}

type countingReader struct {
	r io.ReadCloser
	n int64
}

func (c *countingReader) Read(b []byte) (int, error) {
	n, err := c.r.Read(b)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.r.Close() }

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.ResponseWriter.Write(b)
	c.n += int64(n)
	return n, err
}
