package main

import (
	"encoding"
	"fmt"
	"time"
)

// merge_heavy: the aggregator's side. A write is one PUSHB of eight
// pre-encoded frames at aggregator size, the thirteen families in
// rotation; a read pulls the slot just written, which the push has
// invalidated — always the re-encode path. Frame check, decode into
// scratch, merge under the slot lock and encode dominate; the update
// kernels and connection set-up are absent.
const (
	mergeBatch     = 8    // frames per PUSHB
	mergeChunkLen  = 4096 // records behind each frame
	mergeReadEvery = 4    // one read after every 4th batch
	// mergeBatches is the frozen per-client, per-round batch count.
	mergeBatches = 1976
)

var mergeWorkload = workload{
	name:  "merge_heavy",
	why:   "write = PUSHB of 8 pre-encoded aggregator-size frames (13 families in rotation, 0.4-18 KB); read = PULL of the slot just written, a cache miss: decode, merge under the slot lock, encode; no kernels",
	setup: setupMerge,
}

type mergeClientState struct {
	nodeClient // slots and tallies by family index
	chunks     []*chunk
	frames     [][]rawFrame                 // [family][mergeBatch]
	batches    [][]encoding.BinaryMarshaler // the same frames, as PushBatch takes them
	bytes      []int                        // Σ frame bytes of one batch, by family
}

type mergeInst struct {
	oneNode
	cl      [clients]*mergeClientState
	batches int
	hash    uint64
}

func setupMerge(seed uint64, div int) (instance, error) {
	in := &mergeInst{batches: scaled(mergeBatches, div, len(families)*mergeReadEvery)}
	ok := false
	defer func() {
		if !ok {
			in.close()
		}
	}()
	sh := newScriptHasher()
	sh.ints(in.batches, mergeBatch, mergeReadEvery)
	for c := range in.cl {
		st := &mergeClientState{}
		in.cl[c], in.ends[c] = st, &st.nodeClient
		src := newChunkSource(mergeChunkLen/4, seed*1000+uint64(c))
		for i := 0; i < mergeBatch; i++ {
			st.chunks = append(st.chunks, src.draw(mergeChunkLen))
		}
		for fi := range families {
			fam := &families[fi]
			var frames []rawFrame
			var batch []encoding.BinaryMarshaler
			total := 0
			for i, ch := range st.chunks {
				frame, err := fam.summarize(canonical, seed<<20+uint64(c)<<16+uint64(fi)<<8+uint64(i), ch)
				if err != nil {
					return nil, err
				}
				frames = append(frames, frame)
				batch = append(batch, frame)
				total += len(frame)
				sh.bytes(frame)
			}
			st.frames = append(st.frames, frames)
			st.batches = append(st.batches, batch)
			st.bytes = append(st.bytes, total)
			st.slots = append(st.slots, fmt.Sprintf("agg/%d/%s", c, fam.name))
			st.tallies = append(st.tallies, newTally(fam, canonical, st.chunks))
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
	warm := scaled(in.batches/4, 1, len(families)*mergeReadEvery)
	if err := preload(func(c int, rec *clientRec) { in.script(c, rec, warm) }); err != nil {
		return nil, err
	}
	ok = true
	return in, nil
}

func (in *mergeInst) opsPerClient() (int, int) { return in.batches, in.batches / mergeReadEvery }
func (in *mergeInst) scriptHash() uint64       { return in.hash }

func (in *mergeInst) runClient(c int, rec *clientRec) { in.script(c, rec, in.batches) }

func (in *mergeInst) script(c int, rec *clientRec, batches int) {
	st, tr := in.cl[c], rec.tr
	for i := 0; i < batches; i++ {
		fi := i % len(families)
		fam, slot := &families[fi], st.slots[fi]
		t0 := time.Now()
		_, err := st.conn.PushBatch(slot, fam.name, st.batches[fi])
		t1 := time.Now()
		rec.write(t0, t1, st.bytes[fi], err)
		if err == nil {
			for j := range st.frames[fi] {
				st.tallies[fi].add(j)
			}
		}
		if tr != nil {
			root := tr.record("op.pushb", -1, t0, t1)
			call := tr.record("client.call", root, t0, t1)
			shadowPushBatch(tr, call, in.shadow, slot, fam, st.frames[fi])
		}
		if (i+1)%mergeReadEvery != 0 {
			continue
		}
		t0 = time.Now()
		_, frame, err := st.conn.PullFrame(slot)
		t1 = time.Now()
		rec.read(t0, t1, len(frame), err)
		if tr != nil {
			root := tr.record("op.pull", -1, t0, t1)
			call := tr.record("client.call", root, t0, t1)
			shadowPull(tr, call, in.shadow, slot)
		}
	}
}
