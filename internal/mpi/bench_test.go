package mpi

import "testing"

// BenchmarkSendRecv measures one point-to-point round trip on a 2-rank
// world: rank 0 sends, rank 1 echoes the payload back.
func BenchmarkSendRecv(b *testing.B) {
	for _, bc := range []struct {
		name string
		data any
	}{
		{"int64", int64(7)},
		{"int32x1k", make([]int32, 1024)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			err := Run(2, func(c *Comm) error {
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					if c.Rank() == 0 {
						c.Send(1, 1, bc.data)
						c.Recv(1, 2)
					} else {
						c.Send(0, 2, c.Recv(0, 1))
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkEmptyWorld measures world set-up and tear-down: a 4-rank
// RunWith whose ranks do one Barrier.
func BenchmarkEmptyWorld(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := RunWith(4, Options{}, func(c *Comm) error { c.Barrier(); return nil }); err != nil {
			b.Fatal(err)
		}
	}
}
