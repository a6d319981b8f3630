// Transport-parity suite: the network transport must be observationally
// identical to the in-process substrate — same partitions on every
// dataset analogue under both workload dynamics (including with jitter
// delaying every wire write), same per-rank traffic counts, and the same
// collective edge-case semantics internal/mpi/edge_test.go pins down.
package mpinet_test

import (
	"context"
	"fmt"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"hyperbal/internal/datasets"
	"hyperbal/internal/dynamics"
	"hyperbal/internal/gp"
	"hyperbal/internal/graph"
	"hyperbal/internal/hgp"
	"hyperbal/internal/mpi"
	"hyperbal/internal/mpinet"
	"hyperbal/internal/mpinet/jobs"
	"hyperbal/internal/partition"
	"hyperbal/internal/pgp"
	"hyperbal/internal/phg"
)

// bootWorkers starts n loopback workers (external-package twin of the
// helper in world_test.go).
func bootWorkers(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := mpinet.NewWorker(ln)
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

func newGen(t *testing.T, dynamic string, g *graph.Graph, init partition.Partition, k int, seed int64) dynamics.Generator {
	t.Helper()
	var gen dynamics.Generator
	var err error
	switch dynamic {
	case "structure":
		gen, err = dynamics.NewStructural(g, init, k, 0.25, 0.5, seed*3+1)
	case "weights":
		gen, err = dynamics.NewRefinement(g, init, k, 0.1, 1.5, 7.5, seed*3+2)
	default:
		t.Fatalf("unknown dynamic %q", dynamic)
	}
	if err != nil {
		t.Fatal(err)
	}
	return gen
}

// TestTransportParityAcrossDatasets is the PR's byte-identity gate: on
// every dataset analogue × both dynamics, phg and adaptive pgp over the
// network transport (3 worker processes, with per-message jitter armed)
// must produce exactly the partition the in-process goroutine substrate
// produces.
func TestTransportParityAcrossDatasets(t *testing.T) {
	const ranks, n, seed = 3, 300, 5
	addrs := bootWorkers(t, ranks)
	netOpt := mpinet.Options{
		RecvTimeout: time.Minute,
		Jitter:      200 * time.Microsecond,
		JitterSeed:  9,
	}
	for _, name := range []string{"xyce680s", "2DLipid", "auto", "apoa1-10", "cage14"} {
		for _, dynamic := range []string{"structure", "weights"} {
			t.Run(name+"/"+dynamic, func(t *testing.T) {
				g, err := datasets.Generate(name, n, seed)
				if err != nil {
					t.Fatal(err)
				}
				h := graph.ToHypergraph(g)
				static, err := hgp.Partition(h, hgp.Options{K: ranks, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				// One perturbed epoch, so the wire carries the dynamic's
				// weight/structure changes, not just the pristine generator
				// output.
				prob, old := newGen(t, dynamic, g, static, ranks, seed).Next()

				// phg on the epoch hypergraph.
				phgOpt := phg.Options{Serial: hgp.Options{K: ranks, Seed: seed + 1}}
				var want partition.Partition
				if _, err := mpi.RunWith(ranks, mpi.Options{Watchdog: time.Minute}, func(c *mpi.Comm) error {
					p, err := phg.Partition(c, prob.H, phgOpt)
					if c.Rank() == 0 {
						want = p
					}
					return err
				}); err != nil {
					t.Fatal(err)
				}
				payload, err := jobs.EncodePHG(prob.H, phgOpt)
				if err != nil {
					t.Fatal(err)
				}
				res, err := mpinet.RunWorld(context.Background(), jobs.PHGPartition, payload, addrs, netOpt)
				if err != nil {
					t.Fatalf("phg over mpinet: %v", err)
				}
				got, err := jobs.DecodeParts(res.Root())
				if err != nil {
					t.Fatal(err)
				}
				diffParts(t, "phg", got, want.Parts)

				// Adaptive pgp on the epoch graph, inheriting old.
				pgpOpt := pgp.Options{Serial: gp.Options{K: ranks, Seed: seed + 2}}
				if _, err := mpi.RunWith(ranks, mpi.Options{Watchdog: time.Minute}, func(c *mpi.Comm) error {
					p, err := pgp.AdaptiveRepart(c, prob.G, old, 100, pgpOpt)
					if c.Rank() == 0 {
						want = p
					}
					return err
				}); err != nil {
					t.Fatal(err)
				}
				payload, err = jobs.EncodePGP(prob.G, old.Parts, 100, pgpOpt, true)
				if err != nil {
					t.Fatal(err)
				}
				res, err = mpinet.RunWorld(context.Background(), jobs.PGPPartition, payload, addrs, netOpt)
				if err != nil {
					t.Fatalf("pgp over mpinet: %v", err)
				}
				got, err = jobs.DecodeParts(res.Root())
				if err != nil {
					t.Fatal(err)
				}
				diffParts(t, "pgp", got, want.Parts)
			})
		}
	}
}

func diffParts(t *testing.T, label string, got, want []int32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d parts over mpinet, %d in-process", label, len(got), len(want))
	}
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: partition diverges at vertex %d: %d over mpinet, %d in-process",
				label, v, got[v], want[v])
		}
	}
}

// TestTransportTrafficParity: the transport must not change what the
// algorithm sends — per world rank, the message count, payload bytes, and
// collective entries over mpinet must equal an OnEvent tally of the same
// run on the in-process substrate. The split job pins that Split costs
// the same on both (its sub-communicator ids are derived, never sent).
func TestTransportTrafficParity(t *testing.T) {
	const n, seed = 260, 7
	g, err := datasets.Generate("xyce680s", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.ToHypergraph(g)
	phgOpt := phg.Options{Serial: hgp.Options{K: 3, Seed: seed}}
	phgPayload, err := jobs.EncodePHG(h, phgOpt)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		job     string
		ranks   int
		payload []byte
		inProc  func(c *mpi.Comm) error
	}{
		{jobs.PHGPartition, 3, phgPayload, func(c *mpi.Comm) error {
			_, err := phg.Partition(c, h, phgOpt)
			return err
		}},
		{"parity.split", 4, nil, func(c *mpi.Comm) error {
			_, err := splitJob(c, nil)
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.job, func(t *testing.T) {
			var mu sync.Mutex
			msgs := make([]int64, tc.ranks)
			bytes := make([]int64, tc.ranks)
			colls := make([]int64, tc.ranks)
			if _, err := mpi.RunWith(tc.ranks, mpi.Options{OnEvent: func(e mpi.Event) {
				mu.Lock()
				defer mu.Unlock()
				switch e.Op {
				case "send":
					msgs[e.Rank]++
					bytes[e.Rank] += e.Bytes
				case "recv":
				default:
					colls[e.Rank]++
				}
			}}, tc.inProc); err != nil {
				t.Fatal(err)
			}
			res, err := mpinet.RunWorld(context.Background(), tc.job, tc.payload, bootWorkers(t, tc.ranks),
				mpinet.Options{RecvTimeout: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range res.Ranks {
				if r.Messages != msgs[r.Rank] || r.Bytes != bytes[r.Rank] || r.Collectives != colls[r.Rank] {
					t.Errorf("rank %d traffic: mpinet %d msgs / %d bytes / %d collectives, in-process %d / %d / %d",
						r.Rank, r.Messages, r.Bytes, r.Collectives, msgs[r.Rank], bytes[r.Rank], colls[r.Rank])
				}
			}
		})
	}
}

// ---- collective edge cases over the wire (mirrors mpi/edge_test.go) ----

func edgeErr(cond bool, format string, args ...any) error {
	if cond {
		return nil
	}
	return fmt.Errorf(format, args...)
}

func init() {
	mpinet.RegisterJob("parity.size1", func(c *mpi.Comm, _ []byte) ([]byte, error) {
		if got := mpi.Bcast(c, 0, 42); got != 42 {
			return nil, fmt.Errorf("Bcast = %d, want 42", got)
		}
		if got := mpi.Allgather(c, 7); !reflect.DeepEqual(got, []int{7}) {
			return nil, fmt.Errorf("Allgather = %v, want [7]", got)
		}
		if got := mpi.ExclusiveScan(c, 5, mpi.SumInt64); got != 0 {
			return nil, fmt.Errorf("ExclusiveScan on rank 0 = %d, want zero value", got)
		}
		if got := mpi.AllreduceMinLoc(c, 11); got.Key != 11 || got.Rank != 0 {
			return nil, fmt.Errorf("AllreduceMinLoc = %+v, want {11 0}", got)
		}
		return nil, nil
	})
	mpinet.RegisterJob("parity.exscan", func(c *mpi.Comm, _ []byte) ([]byte, error) {
		got := mpi.ExclusiveScan(c, int64(c.Rank()+1), mpi.SumInt64)
		var want int64
		for r := 1; r <= c.Rank(); r++ {
			want += int64(r)
		}
		return nil, edgeErr(got == want, "rank %d: ExclusiveScan = %d, want %d", c.Rank(), got, want)
	})
	mpinet.RegisterJob("parity.allreduce-empty", func(c *mpi.Comm, _ []byte) ([]byte, error) {
		if got := mpi.AllreduceSlice(c, nil, mpi.SumInt64); len(got) != 0 {
			return nil, fmt.Errorf("AllreduceSlice(nil) = %v, want empty", got)
		}
		if got := mpi.AllreduceSlice(c, []int64{}, mpi.SumInt64); len(got) != 0 {
			return nil, fmt.Errorf("AllreduceSlice([]) = %v, want empty", got)
		}
		return nil, nil
	})
	mpinet.RegisterJob("parity.alltoall-empty", func(c *mpi.Comm, _ []byte) ([]byte, error) {
		send := make([][]int32, c.Size())
		send[(c.Rank()+1)%c.Size()] = []int32{int32(c.Rank())}
		got := mpi.Alltoall(c, send)
		if len(got) != c.Size() {
			return nil, fmt.Errorf("Alltoall returned %d entries, want %d", len(got), c.Size())
		}
		src := (c.Rank() + c.Size() - 1) % c.Size()
		for r, pl := range got {
			if r == src {
				if len(pl) != 1 || pl[0] != int32(src) {
					return nil, fmt.Errorf("from %d got %v, want [%d]", r, pl, src)
				}
			} else if len(pl) != 0 {
				return nil, fmt.Errorf("from %d got %v, want empty", r, pl)
			}
		}
		return nil, nil
	})
	mpinet.RegisterJob("parity.gather-empty", func(c *mpi.Comm, _ []byte) ([]byte, error) {
		var v []int
		if c.Rank()%2 == 0 {
			v = []int{c.Rank()}
		}
		concat, counts := mpi.AllgatherSlice(c, v)
		if want := []int{1, 0, 1, 0}; !reflect.DeepEqual(counts, want) {
			return nil, fmt.Errorf("counts = %v, want %v", counts, want)
		}
		if want := []int{0, 2}; !reflect.DeepEqual(concat, want) {
			return nil, fmt.Errorf("concat = %v, want %v", concat, want)
		}
		return nil, nil
	})
	mpinet.RegisterJob("parity.split", splitJob)
}

// splitJob splits the world by rank parity; sub-communicators derive
// their stream ids without a wire exchange, and both halves must reduce
// independently and agree on the result.
func splitJob(c *mpi.Comm, _ []byte) ([]byte, error) {
	sub := c.Split(c.Rank()%2, c.Rank())
	got := mpi.Allreduce(sub, int64(c.Rank()), mpi.SumInt64)
	var want int64
	for r := c.Rank() % 2; r < c.Size(); r += 2 {
		want += int64(r)
	}
	return nil, edgeErr(got == want, "rank %d: split Allreduce = %d, want %d", c.Rank(), got, want)
}

func TestTransportCollectiveEdgeCases(t *testing.T) {
	cases := []struct {
		job   string
		ranks int
	}{
		{"parity.size1", 1},
		{"parity.exscan", 4},
		{"parity.allreduce-empty", 3},
		{"parity.alltoall-empty", 3},
		{"parity.gather-empty", 4},
		{"parity.split", 4},
	}
	for _, tc := range cases {
		t.Run(tc.job, func(t *testing.T) {
			addrs := bootWorkers(t, tc.ranks)
			if _, err := mpinet.RunWorld(context.Background(), tc.job, nil, addrs,
				mpinet.Options{RecvTimeout: 30 * time.Second}); err != nil {
				t.Fatal(err)
			}
		})
	}
}
