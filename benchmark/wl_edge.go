package main

import (
	"fmt"
	"time"

	"repro/internal/distinct"
	"repro/internal/mg"
	"repro/internal/randquant"
)

// edge_summarize: the edge's side of the paper's story. A write is one
// edge report — an 8192-record chunk summarised from scratch by every
// registered family's batch kernel, then pushed, family by family, to
// one aggregator. The kernels are most of the time; the wire path is
// thirteen small round-trips per report.
const (
	edgeChunkLen  = 8192
	edgePool      = 24 // distinct chunks per client
	edgeReadEvery = 2  // three reads (mg, quantile, hll) after every 2nd report
	// edgeReports is the frozen per-client, per-round report count.
	edgeReports = 92
)

// edgeReadFamilies are the slots a report is followed up on: pulled,
// decoded and asked one question.
var edgeReadFamilies = []string{"mg", "quantile", "hll"}

var edgeWorkload = workload{
	name:  "edge_summarize",
	why:   "write = summarise an 8192-record chunk into a fresh summary of each of the 13 families and push the 13 frames; read = pull, decode, query 3 slots: family kernels dominate, wire path is small",
	setup: setupEdge,
}

type edgeClientState struct {
	nodeClient // slots and tallies by family index
	chunks     []*chunk
	kernel     []string // span names, by family index
	readFams   []int    // family indices of edgeReadFamilies
	pending    []pendingPush
	sink       float64 // keeps query results alive
}

// pendingPush is a push whose shadow replay waits until the operation
// it belongs to has ended, so that the replay stays outside the
// operation's own interval.
type pendingPush struct {
	call  int32
	fam   int
	frame []byte
}

type edgeInst struct {
	oneNode
	cl      [clients]*edgeClientState
	reports int
	seed    uint64
	hash    uint64
}

func setupEdge(seed uint64, div int) (instance, error) {
	in := &edgeInst{reports: scaled(edgeReports, div, edgeReadEvery), seed: seed}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	sh := newScriptHasher()
	sh.ints(in.reports, edgeReadEvery, edgeChunkLen)
	for c := range in.cl {
		st := &edgeClientState{}
		in.cl[c], in.ends[c] = st, &st.nodeClient
		src := newChunkSource(edgeChunkLen/4, seed*1000+uint64(c))
		for i := 0; i < edgePool; i++ {
			ch := src.draw(edgeChunkLen)
			st.chunks = append(st.chunks, ch)
			for _, x := range ch.items[:8] {
				sh.ints(int(x))
			}
		}
		for fi := range families {
			fam := &families[fi]
			st.slots = append(st.slots, fmt.Sprintf("edge/%d/%s", c, fam.name))
			st.tallies = append(st.tallies, newTally(fam, canonical, st.chunks))
			st.kernel = append(st.kernel, "kernel.update."+fam.name)
			for _, name := range edgeReadFamilies {
				if name == fam.name {
					st.readFams = append(st.readFams, fi)
				}
			}
		}
	}
	in.hash = sh.h
	if err := in.start(); err != nil {
		return nil, err
	}
	// Preload: a quarter of a round.
	if err := in.beginRound(false); err != nil {
		return nil, err
	}
	warm := scaled(in.reports/4, 1, edgeReadEvery)
	if err := preload(func(c int, rec *clientRec) { in.script(c, rec, warm) }); err != nil {
		return nil, err
	}
	ok = true
	return in, nil
}

func (in *edgeInst) opsPerClient() (int, int) {
	return in.reports, in.reports / edgeReadEvery * len(edgeReadFamilies)
}
func (in *edgeInst) scriptHash() uint64 { return in.hash }

func (in *edgeInst) runClient(c int, rec *clientRec) { in.script(c, rec, in.reports) }

func (in *edgeInst) script(c int, rec *clientRec, reports int) {
	st, tr := in.cl[c], rec.tr
	for i := 0; i < reports; i++ {
		ci := i % len(st.chunks)
		ch := st.chunks[ci]
		st.pending = st.pending[:0]
		var sent int
		var opErr error
		t0 := time.Now()
		root := tr.begin("op.report", -1, false)
		for fi := range families {
			fam := &families[fi]
			k := tr.begin(st.kernel[fi], root, false)
			s := fam.mk(canonical, in.seed<<20+uint64(c)<<16+uint64(i))
			fam.update(s, ch)
			tr.end(k)
			m := tr.begin("client.marshal", root, false)
			frame, err := fam.ent.Encode(s)
			tr.end(m)
			if err == nil {
				call := tr.begin("client.call", root, false)
				_, err = st.conn.Push(st.slots[fi], fam.name, rawFrame(frame))
				tr.end(call)
				if tr != nil {
					st.pending = append(st.pending, pendingPush{call, fi, frame})
				}
			}
			if err != nil {
				if opErr == nil {
					opErr = fmt.Errorf("%s: %w", fam.name, err)
				}
				continue
			}
			sent += len(frame)
			st.tallies[fi].add(ci)
		}
		tr.end(root)
		t1 := time.Now()
		rec.write(t0, t1, sent, opErr)
		for _, p := range st.pending {
			_ = shadowPush(tr, p.call, in.shadow, st.slots[p.fam], &families[p.fam], p.frame)
		}
		if (i+1)%edgeReadEvery != 0 {
			continue
		}
		for _, fi := range st.readFams {
			fam, slot := &families[fi], st.slots[fi]
			t0 = time.Now()
			root := tr.begin("op.pull", -1, false)
			call := tr.begin("client.call", root, false)
			_, frame, err := st.conn.PullFrame(slot)
			tr.end(call)
			if err == nil {
				q := tr.begin("client.query", root, false)
				err = st.query(fam, frame, ch)
				tr.end(q)
			}
			tr.end(root)
			t1 = time.Now()
			rec.read(t0, t1, len(frame), err)
			if tr != nil {
				shadowPull(tr, call, in.shadow, slot)
			}
		}
	}
}

// query decodes a pulled frame and asks it the one question a
// dashboard would: a heavy item's count, the median, the cardinality.
func (st *edgeClientState) query(fam *family, frame []byte, ch *chunk) error {
	s, err := fam.ent.Decode(frame)
	if err != nil {
		return err
	}
	switch v := s.(type) {
	case *mg.Summary:
		st.sink += float64(v.Estimate(ch.items[0]).Value)
	case *randquant.Summary:
		st.sink += v.Quantile(0.5)
	case *distinct.HLL:
		st.sink += v.Estimate()
	default:
		return fmt.Errorf("no query for %T", s)
	}
	return nil
}
