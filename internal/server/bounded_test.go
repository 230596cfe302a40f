package server

import (
	"bytes"
	"encoding"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/randquant"
	"repro/internal/window"
)

// TestBoundedQuantileServed drives the quantile kind's bounded mode —
// the paper's size-independent-of-n summary, which no slot could hold
// while it was a second type — through every served path with no
// server code of its own: PUSH, PUSHB and PULL, a windowed slot's
// ladder roll-up behind QWIN, and the 3-node PULLC fan-in. A plain
// frame pushed at a bounded slot is refused and changes nothing, and a
// long-lived bounded slot stays flat while a plain one beside it grows
// a level per doubling.
func TestBoundedQuantileServed(t *testing.T) {
	const s, l, limit = 16, 3, 16 * (3 + 2)
	bounded := func(n int, seed uint64) *randquant.Summary {
		h := randquant.NewHybrid(s, l, seed)
		h.UpdateBatch(gen.UniformValues(n, seed))
		return h
	}
	isBounded := func(what string, q *randquant.Summary, wantN uint64) {
		t.Helper()
		if q.N() != wantN {
			t.Fatalf("%s: N = %d, want %d", what, q.N(), wantN)
		}
		if q.SampleLevel() == 0 || q.Size() > limit {
			t.Fatalf("%s: sampling level %d, %d samples (cap %d): not a bounded summary", what, q.SampleLevel(), q.Size(), limit)
		}
		if w := float64(q.StoredWeight()); w < 0.8*float64(wantN) || w > 1.2*float64(wantN) {
			t.Fatalf("%s: stored weight %v strays from N = %d", what, w, wantN)
		}
		if med := q.Quantile(0.5); med < 0.3 || med > 0.7 {
			t.Fatalf("%s: median of uniform [0,1) values = %v", what, med)
		}
	}

	addrs, servers, stop := startPeerClusterWith(t, 3, 2*time.Second, 1, func(sv *Server) {
		if err := sv.SetWindow(window.Ladder{Fan: 4, Levels: 3}, 0); err != nil {
			t.Fatal(err)
		}
	})
	defer stop()
	conns := dialAll(t, addrs)

	// Twenty epochs; in each, node 0 takes a PUSH, node 1 a PUSHB of
	// three, node 2 a PUSH — all at different sampling levels.
	const epochs = 20
	var perNode [3]uint64
	push := func(node int, frames ...encoding.BinaryMarshaler) {
		t.Helper()
		var err error
		if len(frames) == 1 {
			_, err = conns[node].Push("lat", "quantile", frames[0])
		} else {
			_, err = conns[node].PushBatch("lat", "quantile", frames)
		}
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		for _, f := range frames {
			perNode[node] += f.(*randquant.Summary).N()
		}
	}
	for e := uint64(0); e < epochs; e++ {
		push(0, bounded(1<<14, 10*e+1))
		push(1, bounded(300, 10*e+2), bounded(1<<12, 10*e+3), bounded(1<<15, 10*e+4))
		push(2, bounded(1<<13, 10*e+5))
		for _, sv := range servers {
			sv.AdvanceWindows()
		}
	}

	for i, c := range conns {
		var all, sealed randquant.Summary
		if _, err := decoded(&all)(c.PullFrame("lat")); err != nil {
			t.Fatalf("PULL via node %d: %v", i, err)
		}
		isBounded("PULL", &all, perNode[i])
		// Every sealed epoch, answered from the ladder's rolled-up
		// segments; and a sub-range of them.
		if _, err := decoded(&sealed)(c.QueryWindowFrame("lat", 1, epochs)); err != nil {
			t.Fatalf("QWIN via node %d: %v", i, err)
		}
		isBounded("QWIN", &sealed, perNode[i])
		if _, err := decoded(&sealed)(c.QueryWindowFrame("lat", 5, 12)); err != nil {
			t.Fatalf("QWIN via node %d: %v", i, err)
		}
		isBounded("QWIN [5,12]", &sealed, perNode[i]*8/epochs)
	}

	var answers [][]byte
	for i, c := range conns {
		kind, f, err := c.PullClusterFrame("lat")
		if err != nil || kind != "quantile" {
			t.Fatalf("PULLC via node %d: kind %q, %v", i, kind, err)
		}
		answers = append(answers, f)
		if !bytes.Equal(f, answers[0]) {
			t.Fatalf("node %d's PULLC differs from node 0's: fan-in is not node-independent", i)
		}
	}
	var cluster randquant.Summary
	if err := cluster.UnmarshalBinary(answers[0]); err != nil {
		t.Fatal(err)
	}
	isBounded("PULLC", &cluster, perNode[0]+perNode[1]+perNode[2])

	// Plain and bounded never mix: the push is answered ERR and the
	// slot's bytes are what they were.
	_, before, err := conns[0].PullFrame("lat")
	if err != nil {
		t.Fatal(err)
	}
	plain := randquant.New(s, 1)
	plain.UpdateBatch(gen.UniformValues(1000, 1))
	if _, err := conns[0].Push("lat", "quantile", plain); err == nil || !strings.Contains(err.Error(), "different shapes") {
		t.Fatalf("plain frame into a bounded slot: %v, want a shape-mismatch ERR", err)
	}
	if _, after, err := conns[0].PullFrame("lat"); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("refused push changed the slot (%v)", err)
	}

	// A long-lived aggregator: 2^22 values over 64 sealed epochs. The
	// bounded slot — all-time summary and whole-history roll-up alike —
	// never outgrows s·(l+2) samples; the plain slot fed the same
	// values gains a level every time the stream doubles.
	var levelsAt [2]int
	for e := 0; e < 64; e++ {
		vals := gen.UniformValues(1<<16, uint64(e)+1000)
		b, p := randquant.NewHybrid(s, l, uint64(e)+1), randquant.New(s, uint64(e)+1)
		b.UpdateBatch(vals)
		p.UpdateBatch(vals)
		if _, err := conns[0].Push("long", "quantile", b); err != nil {
			t.Fatal(err)
		}
		if _, err := conns[0].Push("long-plain", "quantile", p); err != nil {
			t.Fatal(err)
		}
		servers[0].AdvanceWindows()
		if e == 0 || e == 63 {
			var q randquant.Summary
			if _, err := decoded(&q)(conns[0].PullFrame("long-plain")); err != nil {
				t.Fatal(err)
			}
			levelsAt[e/63] = q.Levels()
		}
	}
	var all, history randquant.Summary
	if _, err := decoded(&all)(conns[0].PullFrame("long")); err != nil {
		t.Fatal(err)
	}
	isBounded("long-lived PULL", &all, 1<<22)
	if _, err := decoded(&history)(conns[0].QueryWindowFrame("long", epochs+1, epochs+64)); err != nil {
		t.Fatal(err)
	}
	isBounded("long-lived QWIN", &history, 1<<22)
	if grew := levelsAt[1] - levelsAt[0]; grew != 6 {
		t.Fatalf("plain slot: %d levels at 2^16 values, %d at 2^22: grew %d, want one per doubling (6)", levelsAt[0], levelsAt[1], grew)
	}
}
