package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// runChecked guards against substrate deadlocks via the built-in watchdog:
// a stall turns into a DeadlockError naming the blocked ranks instead of a
// bare test timeout.
func runChecked(t *testing.T, n int, fn func(c *Comm) error) {
	t.Helper()
	if _, err := RunWith(n, Options{Watchdog: 10 * time.Second}, fn); err != nil {
		t.Fatal(err)
	}
}

func TestRunBasics(t *testing.T) {
	var count atomic.Int64
	runChecked(t, 8, func(c *Comm) error {
		if c.Size() != 8 {
			return fmt.Errorf("size %d", c.Size())
		}
		count.Add(int64(c.Rank()))
		return nil
	})
	if count.Load() != 28 {
		t.Fatalf("ranks did not all run: sum %d", count.Load())
	}
}

func TestRunPropagatesError(t *testing.T) {
	sentinel := errors.New("rank failure")
	err := Run(4, func(c *Comm) error {
		if c.Rank() == 2 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
}

func TestRunRejectsBadSize(t *testing.T) {
	if err := Run(0, func(c *Comm) error { return nil }); err == nil {
		t.Fatal("expected error for world size 0")
	}
}

func TestSendRecvOrdering(t *testing.T) {
	runChecked(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < 100; i++ {
				c.Send(1, 7, []int32{int32(i)})
			}
		} else {
			for i := 0; i < 100; i++ {
				got := c.Recv(0, 7).([]int32)
				if got[0] != int32(i) {
					return fmt.Errorf("message %d arrived out of order: %d", i, got[0])
				}
			}
		}
		return nil
	})
}

func TestBarrier(t *testing.T) {
	var phase atomic.Int64
	runChecked(t, 8, func(c *Comm) error {
		phase.Add(1)
		c.Barrier()
		if phase.Load() != 8 {
			return fmt.Errorf("barrier released early: %d", phase.Load())
		}
		return nil
	})
}

func TestBcast(t *testing.T) {
	runChecked(t, 6, func(c *Comm) error {
		v := 0
		if c.Rank() == 2 {
			v = 99
		}
		got := Bcast(c, 2, v)
		if got != 99 {
			return fmt.Errorf("rank %d got %d", c.Rank(), got)
		}
		return nil
	})
}

func TestGatherAllgather(t *testing.T) {
	runChecked(t, 5, func(c *Comm) error {
		got := Gather(c, 0, c.Rank()*10)
		if c.Rank() == 0 {
			for r := 0; r < 5; r++ {
				if got[r] != r*10 {
					return fmt.Errorf("gather[%d] = %d", r, got[r])
				}
			}
		} else if got != nil {
			return fmt.Errorf("non-root got non-nil gather")
		}
		all := Allgather(c, c.Rank()+1)
		for r := 0; r < 5; r++ {
			if all[r] != r+1 {
				return fmt.Errorf("allgather[%d] = %d", r, all[r])
			}
		}
		return nil
	})
}

func TestAllgatherSlice(t *testing.T) {
	runChecked(t, 4, func(c *Comm) error {
		mine := make([]int32, c.Rank()) // rank r contributes r elements
		for i := range mine {
			mine[i] = int32(c.Rank())
		}
		concat, counts := AllgatherSlice(c, mine)
		if len(concat) != 0+1+2+3 {
			return fmt.Errorf("concat length %d", len(concat))
		}
		idx := 0
		for r := 0; r < 4; r++ {
			if counts[r] != r {
				return fmt.Errorf("counts[%d] = %d", r, counts[r])
			}
			for j := 0; j < counts[r]; j++ {
				if concat[idx] != int32(r) {
					return fmt.Errorf("concat[%d] = %d, want %d", idx, concat[idx], r)
				}
				idx++
			}
		}
		return nil
	})
}

func TestAllreduce(t *testing.T) {
	runChecked(t, 7, func(c *Comm) error {
		sum := Allreduce(c, int64(c.Rank()), SumInt64)
		if sum != 21 {
			return fmt.Errorf("sum = %d", sum)
		}
		max := Allreduce(c, int64(c.Rank()), MaxInt64)
		if max != 6 {
			return fmt.Errorf("max = %d", max)
		}
		min := Allreduce(c, int64(c.Rank()+3), MinInt64)
		if min != 3 {
			return fmt.Errorf("min = %d", min)
		}
		return nil
	})
}

func TestAllreduceSlice(t *testing.T) {
	runChecked(t, 4, func(c *Comm) error {
		v := []int64{int64(c.Rank()), 1, int64(c.Rank() * c.Rank())}
		got := AllreduceSlice(c, v, SumInt64)
		want := []int64{6, 4, 14}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("got %v, want %v", got, want)
			}
		}
		return nil
	})
}

func TestExclusiveScan(t *testing.T) {
	runChecked(t, 5, func(c *Comm) error {
		got := ExclusiveScan(c, int64(c.Rank()+1), SumInt64)
		// rank r gets sum of (1..r)
		want := int64(c.Rank() * (c.Rank() + 1) / 2)
		if got != want {
			return fmt.Errorf("rank %d: scan = %d, want %d", c.Rank(), got, want)
		}
		return nil
	})
}

func TestAlltoall(t *testing.T) {
	runChecked(t, 4, func(c *Comm) error {
		send := make([]int, 4)
		for r := range send {
			send[r] = c.Rank()*100 + r
		}
		got := Alltoall(c, send)
		for r := range got {
			want := r*100 + c.Rank()
			if got[r] != want {
				return fmt.Errorf("rank %d: from %d got %d, want %d", c.Rank(), r, got[r], want)
			}
		}
		return nil
	})
}

func TestAllreduceMinLoc(t *testing.T) {
	runChecked(t, 6, func(c *Comm) error {
		// rank 3 has the smallest key; tie at rank 5 resolved to 3 by rank.
		key := int64(10)
		if c.Rank() == 3 || c.Rank() == 5 {
			key = 1
		}
		got := AllreduceMinLoc(c, key)
		if got.Rank != 3 || got.Key != 1 {
			return fmt.Errorf("minloc = %+v", got)
		}
		return nil
	})
}

func TestSplit(t *testing.T) {
	runChecked(t, 8, func(c *Comm) error {
		color := c.Rank() % 2
		sub := c.Split(color, c.Rank())
		if sub.Size() != 4 {
			return fmt.Errorf("sub size %d", sub.Size())
		}
		// world rank = 2*subRank + color under this split
		if wantRank := c.Rank() / 2; sub.Rank() != wantRank {
			return fmt.Errorf("sub rank %d, want %d", sub.Rank(), wantRank)
		}
		// collective inside the subcommunicator
		sum := Allreduce(sub, int64(c.Rank()), SumInt64)
		want := int64(0 + 2 + 4 + 6)
		if color == 1 {
			want = 1 + 3 + 5 + 7
		}
		if sum != want {
			return fmt.Errorf("sub sum = %d, want %d", sum, want)
		}
		return nil
	})
}

func TestSplitUndefined(t *testing.T) {
	runChecked(t, 4, func(c *Comm) error {
		color := 0
		if c.Rank() == 3 {
			color = -1 // opt out
		}
		sub := c.Split(color, 0)
		if c.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("opted-out rank got a communicator")
			}
			return nil
		}
		if sub.Size() != 3 {
			return fmt.Errorf("sub size %d, want 3", sub.Size())
		}
		return nil
	})
}

// Split must cost exactly the AllgatherAny of its entries: the
// sub-communicator's stream id is derived locally, so no other message
// crosses the substrate (over a network transport or in-process alike).
func TestSplitCostsOneAllgather(t *testing.T) {
	allgather, err := RunStats(4, func(c *Comm) error {
		AllgatherAny(c, splitEntry{c.Rank() % 2, c.Rank(), c.Rank()})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	split, err := RunStats(4, func(c *Comm) error {
		c.Split(c.Rank()%2, c.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gm, gb, sm, sb := allgather.Messages.Load(), allgather.Bytes.Load(), split.Messages.Load(), split.Bytes.Load(); sm != gm || sb != gb {
		t.Fatalf("Split cost %d messages / %d bytes, one AllgatherAny costs %d / %d", sm, sb, gm, gb)
	}
}

func TestStatsAccounted(t *testing.T) {
	stats, err := RunStats(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 1, []int64{1, 2, 3})
		} else {
			c.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Messages.Load() != 1 {
		t.Fatalf("messages = %d", stats.Messages.Load())
	}
	if stats.Bytes.Load() != 24 {
		t.Fatalf("bytes = %d", stats.Bytes.Load())
	}
}

func TestTagMismatchPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		defer func() { recover() }()
		if c.Rank() == 0 {
			c.Send(1, 1, nil)
		} else {
			defer func() {
				if recover() == nil {
					panic("expected tag mismatch panic")
				}
			}()
			c.Recv(0, 2)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// Property: Allreduce sum equals the serial fold for arbitrary per-rank
// values and world sizes.
func TestQuickAllreduceEqualsSerial(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(12)
		vals := make([]int64, n)
		var want int64
		for i := range vals {
			vals[i] = int64(rng.Intn(1000) - 500)
			want += vals[i]
		}
		ok := true
		err := Run(n, func(c *Comm) error {
			if got := Allreduce(c, vals[c.Rank()], SumInt64); got != want {
				ok = false
			}
			return nil
		})
		return err == nil && ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
