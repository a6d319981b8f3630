package mpinet

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"hyperbal/internal/mpi"
)

func init() {
	RegisterJob("test.sum", func(c *mpi.Comm, payload []byte) ([]byte, error) {
		v, _ := binary.Varint(payload)
		total := mpi.Allreduce(c, v+int64(c.Rank()), mpi.SumInt64)
		return binary.AppendVarint(nil, total), nil
	})
	RegisterJob("test.rounds", func(c *mpi.Comm, payload []byte) ([]byte, error) {
		// A few Allreduce rounds with think time, so a test can kill a
		// worker mid-round.
		var total int64
		for i := 0; i < 40; i++ {
			total = mpi.Allreduce(c, int64(c.Rank()+i), mpi.SumInt64)
			time.Sleep(10 * time.Millisecond)
		}
		return binary.AppendVarint(nil, total), nil
	})
	RegisterJob("test.tag-mismatch", func(c *mpi.Comm, payload []byte) ([]byte, error) {
		// A protocol bug: rank 1 awaits tag 2 where rank 0 sends tag 1.
		if c.Rank() == 0 {
			c.Send(1, 1, int64(7))
		} else {
			c.Recv(0, 2)
		}
		return nil, nil
	})
	RegisterJob("test.fail", func(c *mpi.Comm, payload []byte) ([]byte, error) {
		if c.Rank() == 1 {
			return nil, fmt.Errorf("synthetic job failure on rank 1")
		}
		return nil, nil
	})
}

// startWorkers boots n workers on loopback and returns their addresses
// plus the Worker handles (for kill drills).
func startWorkers(t *testing.T, n int) ([]string, []*Worker) {
	t.Helper()
	addrs := make([]string, n)
	ws := make([]*Worker, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		w := NewWorker(ln)
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
		ws[i] = w
	}
	return addrs, ws
}

func TestRunWorldSum(t *testing.T) {
	addrs, _ := startWorkers(t, 3)
	payload := binary.AppendVarint(nil, 100)
	res, err := RunWorld(context.Background(), "test.sum", payload, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ := binary.Varint(res.Root())
	want := int64(3*100 + 0 + 1 + 2)
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	for _, r := range res.Ranks {
		if r.Messages == 0 && r.Rank != 0 {
			t.Errorf("rank %d reported zero messages", r.Rank)
		}
	}
}

func TestRunWorldSingleRank(t *testing.T) {
	addrs, _ := startWorkers(t, 1)
	payload := binary.AppendVarint(nil, 5)
	res, err := RunWorld(context.Background(), "test.sum", payload, addrs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := binary.Varint(res.Root()); got != 5 {
		t.Fatalf("size-1 sum = %d, want 5", got)
	}
}

func TestRunWorldJobError(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	_, err := RunWorld(context.Background(), "test.fail", nil, addrs, Options{RecvTimeout: 5 * time.Second})
	if err == nil {
		t.Fatal("expected an error from the failing job")
	}
}

// A tag mismatch in a job is a rank error naming both tags, not a panic
// that takes the worker process down: the same workers run the next job.
func TestRunWorldTagMismatch(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	_, err := RunWorld(context.Background(), "test.tag-mismatch", nil, addrs, Options{RecvTimeout: 5 * time.Second})
	if err == nil {
		t.Fatal("expected a tag-mismatch error")
	}
	if msg := err.Error(); !strings.Contains(msg, "expected tag 2") || !strings.Contains(msg, "got tag 1") {
		t.Fatalf("error %q does not name both tags", msg)
	}
	res, err := RunWorld(context.Background(), "test.sum", binary.AppendVarint(nil, 1), addrs, Options{})
	if err != nil {
		t.Fatalf("clean job after a tag mismatch: %v", err)
	}
	if got, _ := binary.Varint(res.Root()); got != 3 {
		t.Fatalf("sum = %d, want 3", got)
	}
}

func TestRunWorldUnknownJob(t *testing.T) {
	addrs, _ := startWorkers(t, 2)
	_, err := RunWorld(context.Background(), "test.nope", nil, addrs, Options{RecvTimeout: 5 * time.Second})
	if err == nil || !errors.Is(err, errors.Unwrap(err)) && err == nil {
		t.Fatal("expected an error for an unregistered job")
	}
}

// A worker torn down mid-round must surface as a structured CrashError at
// the coordinator (via its peers' dropped mesh connections), not a hang.
func TestRunWorldWorkerDeath(t *testing.T) {
	addrs, ws := startWorkers(t, 3)
	go func() {
		time.Sleep(120 * time.Millisecond)
		ws[2].Close()
	}()
	start := time.Now()
	_, err := RunWorld(context.Background(), "test.rounds", nil, addrs, Options{
		RecvTimeout: 10 * time.Second,
		DialTimeout: 5 * time.Second,
	})
	if err == nil {
		t.Fatal("expected an error after killing worker 2")
	}
	var ce *mpi.CrashError
	if !errors.As(err, &ce) {
		t.Fatalf("error %v does not wrap *mpi.CrashError", err)
	}
	if elapsed := time.Since(start); elapsed > 15*time.Second {
		t.Fatalf("crash took %v to surface (hang?)", elapsed)
	}
}
