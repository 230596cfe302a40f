package server

import (
	"encoding"
	"testing"

	"repro/internal/gen"
	"repro/internal/mg"
	"repro/internal/randquant"
)

// benchServer starts a server and returns its address plus a stop
// function.
func benchServer(b *testing.B) (string, func()) {
	b.Helper()
	s := New()
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	return addr, func() {
		s.Close()
		<-done
	}
}

// seedQuantileSlot pushes one non-trivial quantile summary so PULL has
// real encoding work to (not) do.
func seedQuantileSlot(b *testing.B, addr, slot string) {
	b.Helper()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	q := randquant.NewEpsilon(0.01, 1)
	for _, v := range gen.UniformValues(1<<15, 3) {
		q.Update(v)
	}
	if _, err := c.Push(slot, "quantile", q); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkServerPush measures the single-frame ingest path: pooled
// frame read + off-lock decode + locked merge, one round-trip each.
func BenchmarkServerPush(b *testing.B) {
	addr, stop := benchServer(b)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	s := mg.New(256)
	for i, x := range gen.NewZipf(4096, 1.2, 1).Stream(1 << 12) {
		s.Update(x, uint64(i%3+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Push("bp", "mg", s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerPullCached measures the steady-state query path: the
// slot is unchanged between pulls, so every request is served from the
// epoch-cached encoding with no lock and no re-encode.
func BenchmarkServerPullCached(b *testing.B) {
	addr, stop := benchServer(b)
	defer stop()
	seedQuantileSlot(b, addr, "bq")
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	var out randquant.Summary
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decoded(&out)(c.PullFrame("bq")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerPushB measures batched ingest: MaxBatch-bounded
// pipelined frames, one reply, slot lock taken once per batch. ns/op
// is per frame (b.N advances by the batch length).
func BenchmarkServerPushB(b *testing.B) {
	const batch = 64
	addr, stop := benchServer(b)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	s := mg.New(256)
	for _, x := range gen.NewZipf(4096, 1.2, 2).Stream(1 << 12) {
		s.Update(x, 1)
	}
	summaries := make([]encoding.BinaryMarshaler, batch)
	for i := range summaries {
		summaries[i] = s
	}
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		if _, err := c.PushBatch("bb", "mg", summaries); err != nil {
			b.Fatal(err)
		}
	}
}
