package server

import (
	"bytes"
	"encoding"
	"testing"
	"time"

	"repro/internal/registry"
	"repro/internal/window"
)

// rawSummary adapts pre-encoded frame bytes to the Push/PushBatch
// marshaler interface so the catalog sweep below can push any family
// without naming its type.
type rawSummary []byte

func (r rawSummary) MarshalBinary() ([]byte, error) { return r, nil }

// TestAllKindsRoundTrip is the catalog integration test: every family
// the registry serves goes through PUSH, PUSHB, server-side merge and
// PULL, and the pulled frame must be byte-identical to folding the same
// frames locally with the same registry merge. This is the "13/13
// served" acceptance check — it needs no per-family code, so a family
// added to the catalog is covered automatically.
func TestAllKindsRoundTrip(t *testing.T) {
	ents := registry.Entries()
	if len(ents) < 13 {
		t.Fatalf("registry holds %d families, want at least 13", len(ents))
	}
	addr, stop := startServer(t)
	defer stop()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, ent := range ents {
		ent := ent
		t.Run(ent.Name(), func(t *testing.T) {
			frames := make([][]byte, 3)
			for i, n := range []int{400, 300, 200} {
				f, err := ent.Encode(ent.Example(n))
				if err != nil {
					t.Fatalf("encode example: %v", err)
				}
				frames[i] = f
			}

			// Local expectation: fold the same frames in push order with
			// the same default-variant merge the server uses.
			local, err := ent.Decode(frames[0])
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			for _, f := range frames[1:] {
				src, err := ent.Decode(f)
				if err != nil {
					t.Fatalf("decode: %v", err)
				}
				if err := ent.Merge(local, src); err != nil {
					t.Fatalf("local merge: %v", err)
				}
			}
			want, err := ent.Encode(local)
			if err != nil {
				t.Fatalf("encode local fold: %v", err)
			}

			slot := "rt-" + ent.Name()
			if _, err := c.Push(slot, ent.Name(), rawSummary(frames[0])); err != nil {
				t.Fatalf("PUSH: %v", err)
			}
			batch := []encoding.BinaryMarshaler{rawSummary(frames[1]), rawSummary(frames[2])}
			n, err := c.PushBatch(slot, ent.Name(), batch)
			if err != nil {
				t.Fatalf("PUSHB: %v", err)
			}
			if wantN := ent.N(local); n != wantN {
				t.Fatalf("server n = %d, local fold n = %d", n, wantN)
			}

			kind, got, err := c.PullFrame(slot)
			if err != nil {
				t.Fatalf("PULL: %v", err)
			}
			if kind != ent.Name() {
				t.Fatalf("PULL kind = %q, want %q", kind, ent.Name())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("pulled frame differs from local fold (%d vs %d bytes)", len(got), len(want))
			}

			// The frame's kind tag alone selects the family that decodes it.
			fent, err := registry.FromFrame(got)
			if err != nil || fent != ent {
				t.Fatalf("registry.FromFrame = (%v, %v), want %s", fent, err, ent.Name())
			}
			v, err := fent.Decode(got)
			if err != nil {
				t.Fatalf("decoding the pulled frame: %v", err)
			}
			if gotN := ent.N(v); gotN != ent.N(local) {
				t.Fatalf("decoded n = %d, want %d", gotN, ent.N(local))
			}
		})
	}

	// One STAT sweep over the populated catalog: every family's slot is
	// present with its canonical kind name and three pushes.
	rows, err := c.Stat()
	if err != nil {
		t.Fatal(err)
	}
	byName := make(map[string]SlotInfo, len(rows))
	for _, r := range rows {
		byName[r.Name] = r
	}
	for _, ent := range ents {
		r, ok := byName["rt-"+ent.Name()]
		if !ok {
			t.Fatalf("STAT missing slot for %q", ent.Name())
		}
		if r.Kind != ent.Name() || r.Pushes != 3 {
			t.Fatalf("STAT row %+v, want kind %q pushes 3", r, ent.Name())
		}
	}
}

// TestPushIsPushBatchOfOne: a frame that arrives alone and a frame that
// arrives as a batch of one take the same path, so nothing observable
// may tell them apart — the replies, the STAT row, the METRICS deltas
// and the pulled bytes agree for every family, on a direct node, a
// fronted node and a windowed one (where the range read must agree too).
func TestPushIsPushBatchOfOne(t *testing.T) {
	flavors := []struct {
		name  string
		start func(t *testing.T) (string, func())
	}{
		{"direct", startServer},
		{"fronted", func(t *testing.T) (string, func()) { return startFrontServer(t, 4, time.Hour) }},
		{"windowed", func(t *testing.T) (string, func()) {
			_, addr, stop := startWindowedServer(t, window.Ladder{}, 0)
			return addr, stop
		}},
	}
	for _, fl := range flavors {
		t.Run(fl.name, func(t *testing.T) {
			addr, stop := fl.start(t)
			defer stop()
			c, err := Dial(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			for _, ent := range registry.Entries() {
				kind := ent.Name()
				rows := []string{"kind.push." + kind, "kind.merge." + kind, "kind.drop." + kind}
				// write sends the same three frames one at a time and
				// returns the replies and what METRICS moved by.
				write := func(slot string, push func(f rawSummary) (uint64, error)) (replies [3]uint64, delta [3]uint64) {
					before, err := c.Metrics()
					if err != nil {
						t.Fatal(err)
					}
					for i, n := range []int{400, 300, 200} {
						f, err := ent.Encode(ent.Example(n))
						if err != nil {
							t.Fatalf("%s: encode example: %v", kind, err)
						}
						if replies[i], err = push(f); err != nil {
							t.Fatalf("%s: write %d into %s: %v", kind, i+1, slot, err)
						}
					}
					after, err := c.Metrics()
					if err != nil {
						t.Fatal(err)
					}
					for i, row := range rows {
						delta[i] = after[row] - before[row]
					}
					return replies, delta
				}
				one, batch := "one-"+kind, "batch-"+kind
				r1, d1 := write(one, func(f rawSummary) (uint64, error) { return c.Push(one, kind, f) })
				r2, d2 := write(batch, func(f rawSummary) (uint64, error) {
					return c.PushBatch(batch, kind, []encoding.BinaryMarshaler{f})
				})
				if r1 != r2 {
					t.Errorf("%s: replies PUSH %v, PUSHB of one %v", kind, r1, r2)
				}
				if d1 != d2 || d1[0] != 3 {
					t.Errorf("%s: METRICS %v moved by %v under PUSH, %v under PUSHB of one; want 3 pushes each", kind, rows, d1, d2)
				}
				_, f1, err1 := c.PullFrame(one)
				_, f2, err2 := c.PullFrame(batch)
				if err1 != nil || err2 != nil || !bytes.Equal(f1, f2) {
					t.Errorf("%s: PULL differs (%d vs %d bytes; %v, %v)", kind, len(f1), len(f2), err1, err2)
				}
				if fl.name == "windowed" {
					_, f1, err1 = c.QueryWindowFrame(one, 0, 0)
					_, f2, err2 = c.QueryWindowFrame(batch, 0, 0)
					if err1 != nil || err2 != nil || !bytes.Equal(f1, f2) {
						t.Errorf("%s: QWIN differs (%d vs %d bytes; %v, %v)", kind, len(f1), len(f2), err1, err2)
					}
				}
			}
			stat, err := c.Stat()
			if err != nil {
				t.Fatal(err)
			}
			byName := make(map[string]SlotInfo, len(stat))
			for _, r := range stat {
				byName[r.Name] = r
			}
			for _, ent := range registry.Entries() {
				a, b := byName["one-"+ent.Name()], byName["batch-"+ent.Name()]
				b.Name = a.Name
				if a != b || a.Pushes != 3 || a.Kind != ent.Name() {
					t.Errorf("%s: STAT rows differ or are wrong: %+v vs %+v", ent.Name(), a, b)
				}
			}
		})
	}
}
