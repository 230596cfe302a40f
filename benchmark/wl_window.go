package main

import (
	"fmt"
	"time"

	"repro/internal/server"
	"repro/internal/window"
)

// window_dash: the dashboard's side, read-mostly. Each client owns one
// windowed node (default ladder, no ticker: the client turns the epoch
// over itself, in-process, once per tick) and refreshes its panels
// every tick: per slot and span one QWIN that misses the answer cache
// (the range moved by one epoch) and three repeats that hit it, then
// sixteen small pushes into the live epoch. Seal → roll-up → plan →
// reduce and the answer cache do the work; epochs are time-compressed
// (a tick lasts a couple of milliseconds, not a second).
//
// One node per client, not one shared node: AdvanceWindows is
// node-wide, so two clients ticking one node would seal each other's
// epochs at arbitrary points and the answers would stop being a
// function of the seed.
const (
	windowPool       = 32  // distinct chunks per client
	windowChunkLen   = 512 // records behind each pushed frame
	windowRepeats    = 4   // queries per (slot, span) and tick: 1 miss + 3 hits
	windowTickWrites = 16  // pushes per tick, round-robin over the slots
	windowPreEpochs  = 512 // epochs sealed in set-up (the smoke test: 256, what span 200 needs)
	// windowTicks is the frozen per-client, per-round tick count.
	windowTicks = 500
)

// windowKinds are the panels' families, small size class.
var windowKinds = []string{"mg", "quantile", "hll", "countmin"}

// windowSpans are the panels' lengths in sealed epochs.
var windowSpans = []uint64{8, 64, 200}

var windowWorkload = workload{
	name:  "window_dash",
	why:   "per tick an epoch seal, 48 QWIN reads (4 slots x spans 8/64/200, 1 answer-cache miss + 3 hits each), 16 small pushes: seal, roll-up, plan, reduce and the answer cache; read-heavy 3:1",
	setup: setupWindow,
}

type windowClientState struct {
	srv     *liveServer
	conn    *server.Client
	shadow  *server.Node
	chunks  []*chunk
	frames  [][]rawFrame // [slot][chunk]
	slots   []string
	fams    []*family
	tallies []*tally // cumulative: the planes' history is never reset
	seq     int      // pushes so far, selects the next frame
}

type windowInst struct {
	cl        [clients]*windowClientState
	ticks     int
	preEpochs int
	hash      uint64
}

func setupWindow(seed uint64, div int) (instance, error) {
	in := &windowInst{ticks: scaled(windowTicks, div, 1), preEpochs: max(windowPreEpochs/div, 256)}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	sh := newScriptHasher()
	sh.ints(in.ticks, windowRepeats, windowTickWrites)
	for c := range in.cl {
		st := &windowClientState{}
		in.cl[c] = st
		srv, err := listen()
		if err != nil {
			return nil, err
		}
		st.srv = srv
		srv.SetWindow(window.DefaultLadder(), 0)
		srv.serve()
		src := newChunkSource(1024, seed*1000+uint64(c))
		for i := 0; i < windowPool; i++ {
			st.chunks = append(st.chunks, src.draw(windowChunkLen))
		}
		for j, kind := range windowKinds {
			fam := familyByName(kind)
			var frames []rawFrame
			for i, ch := range st.chunks {
				frame, err := fam.summarize(small, seed<<20+uint64(c)<<16+uint64(j)<<8+uint64(i), ch)
				if err != nil {
					return nil, err
				}
				frames = append(frames, frame)
				sh.bytes(frame)
			}
			st.frames = append(st.frames, frames)
			st.fams = append(st.fams, fam)
			st.slots = append(st.slots, fmt.Sprintf("dash/%d/%s", c, kind))
			st.tallies = append(st.tallies, newTally(fam, small, st.chunks))
		}
		if st.conn, err = server.Dial(srv.addr); err != nil {
			return nil, err
		}
	}
	in.hash = sh.h
	// Preload: windowPreEpochs sealed epochs of the same push pattern
	// the ticks use, so every span is answerable and the ladder's upper
	// levels are populated from the first round on.
	err := preload(func(c int, rec *clientRec) {
		for e := 0; e < in.preEpochs; e++ {
			in.pushes(c, rec)
			in.cl[c].srv.AdvanceWindows()
		}
	})
	if err != nil {
		return nil, err
	}
	ok = true
	return in, nil
}

func (in *windowInst) opsPerClient() (int, int) {
	return in.ticks * windowTickWrites, in.ticks * len(windowKinds) * len(windowSpans) * windowRepeats
}
func (in *windowInst) scriptHash() uint64 { return in.hash }

func (in *windowInst) merges() uint64 {
	var total uint64
	for _, st := range in.cl {
		total += mergesOf(st.srv.Node)
	}
	return total
}

// beginRound leaves the real nodes alone — their history is the
// workload — and, before a traced round, rebuilds each client's shadow
// node: a windowed node with the same ladder, the same number of epochs
// modulo the coarsest block (so covers align the same way) and the
// same push pattern in every epoch.
func (in *windowInst) beginRound(traced bool) error {
	if !traced {
		return nil
	}
	for _, st := range in.cl {
		if st.shadow != nil {
			st.shadow.CloseSlots()
		}
		st.shadow = server.NewNode()
		st.shadow.SetWindow(window.DefaultLadder(), 0)
		const block = 64 // DefaultLadder's coarsest span
		epochs := in.preEpochs + (int(st.srv.Epoch())-1-in.preEpochs)%block
		for e := 0; e < epochs; e++ {
			for w := 0; w < windowTickWrites; w++ {
				j := w % len(st.slots)
				frame := st.frames[j][(e*windowTickWrites+w)%windowPool]
				if err := shadowPush(nil, -1, st.shadow, st.slots[j], st.fams[j], frame); err != nil {
					return err
				}
			}
			st.shadow.AdvanceWindows()
		}
	}
	return nil
}

// windowFrom returns the first epoch of a panel of the given span
// ending at to. Spans that reach past level 0's horizon must start on
// a level-1 block boundary, as only whole blocks are retained there.
func windowFrom(to, span uint64) uint64 {
	from := to - span + 1
	if span > 4*8 { // DefaultLadder: level 0 retains 4·fan epochs
		from = (from-1)/8*8 + 1
	}
	return from
}

func (in *windowInst) runClient(c int, rec *clientRec) {
	st, tr := in.cl[c], rec.tr
	for t := 0; t < in.ticks; t++ {
		// The ticker's turn-over: time the round pays for, but no
		// client operation.
		a := tr.begin("node.advance_windows", -1, false)
		st.srv.AdvanceWindows()
		tr.end(a)
		if tr != nil {
			st.shadow.AdvanceWindows()
		}
		// One epoch of slack behind the newest sealed epoch: the
		// block roll-up its seal may have completed runs in the
		// background, and a dashboard does not race it.
		to := st.srv.Epoch() - 2
		for j, slot := range st.slots {
			for _, span := range windowSpans {
				from := windowFrom(to, span)
				for rep := 0; rep < windowRepeats; rep++ {
					t0 := time.Now()
					_, frame, err := st.conn.QueryWindowFrame(slot, from, to)
					t1 := time.Now()
					rec.read(t0, t1, len(frame), err)
					if tr != nil {
						root := tr.record("op.qwin", -1, t0, t1)
						call := tr.record("client.call", root, t0, t1)
						shTo := st.shadow.Epoch() - 2
						s := tr.begin("node.window_encoded", call, true)
						_, _, _ = st.shadow.WindowEncoded(st.slots[j], windowFrom(shTo, span), shTo)
						tr.end(s)
					}
				}
			}
		}
		in.pushes(c, rec)
	}
}

// pushes is one tick's writes: windowTickWrites small frames,
// round-robin over the slots, into the live epoch.
func (in *windowInst) pushes(c int, rec *clientRec) {
	st, tr := in.cl[c], rec.tr
	for w := 0; w < windowTickWrites; w++ {
		j, f := w%len(st.slots), st.seq%windowPool
		st.seq++
		frame := st.frames[j][f]
		t0 := time.Now()
		_, err := st.conn.Push(st.slots[j], st.fams[j].name, frame)
		t1 := time.Now()
		rec.write(t0, t1, len(frame), err)
		if err == nil {
			st.tallies[j].add(f)
		}
		if tr != nil {
			root := tr.record("op.push", -1, t0, t1)
			call := tr.record("client.call", root, t0, t1)
			_ = shadowPush(tr, call, st.shadow, st.slots[j], st.fams[j], frame)
		}
	}
}

// verify checks, per client: every slot's merged state conserves the
// weight of everything ever pushed and keeps its guarantee; and the
// weight of a QWIN over the last eight sealed epochs equals the sum of
// the weights of its eight single-epoch queries.
func (in *windowInst) verify() (float64, error) {
	var worst float64
	for _, st := range in.cl {
		to := st.srv.Epoch() - 1
		for j, slot := range st.slots {
			ratio, err := checkSlot(st.conn, slot, st.tallies[j])
			if err != nil {
				return 0, err
			}
			worst = max(worst, ratio)

			_, whole, err := st.conn.QueryWindowFrame(slot, to-7, to)
			if err != nil {
				return 0, fmt.Errorf("QWIN %s [%d,%d]: %w", slot, to-7, to, err)
			}
			wholeN, err := frameN(whole)
			if err != nil {
				return 0, err
			}
			var sum uint64
			for e := to - 7; e <= to; e++ {
				_, one, err := st.conn.QueryWindowFrame(slot, e, e)
				if server.IsNoData(err) {
					continue
				}
				if err != nil {
					return 0, fmt.Errorf("QWIN %s [%d,%d]: %w", slot, e, e, err)
				}
				n, err := frameN(one)
				if err != nil {
					return 0, err
				}
				sum += n
			}
			if wholeN != sum {
				return 0, fmt.Errorf("QWIN %s [%d,%d] holds N=%d, its single epochs sum to %d", slot, to-7, to, wholeN, sum)
			}
		}
	}
	return worst, nil
}

func (in *windowInst) close() {
	for _, st := range in.cl {
		if st == nil {
			continue
		}
		if st.conn != nil {
			st.conn.Close()
		}
		if st.srv != nil {
			st.srv.stop()
		}
		if st.shadow != nil {
			st.shadow.CloseSlots()
		}
	}
}
