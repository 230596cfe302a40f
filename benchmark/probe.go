package main

import (
	"encoding"
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/codec"
	"repro/internal/mergetree"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/window"
)

// The probes measure each layer from outside, around its public
// functions, on inputs generated from the run's seed. They are the same
// experiment whichever workload the run is for, so that every layer
// metric exists — and can be compared — in every workload's layer run;
// what a layer costs *inside* a workload is the share.* metrics' job.

const probeReps = 64

// timeEach calls prep (untimed, may be nil) then f (timed), reps times,
// and returns the median duration of f in nanoseconds.
func timeEach(reps int, prep, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		if prep != nil {
			prep()
		}
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	sort.Float64s(ds)
	return percentile(ds, 50)
}

// firstError keeps the first error a probe's timed closures report.
type firstError struct{ err error }

func (f *firstError) note(err error) {
	if err != nil && f.err == nil {
		f.err = err
	}
}

// selfOf times a wire call and then the shadow replay of what the server
// did behind it, reps times in lockstep so both see the same slot state,
// and returns the median difference in nanoseconds, floored at zero.
func selfOf(reps int, call, behind func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		call()
		t1 := time.Now()
		behind()
		ds[i] = float64(t1.Sub(t0)-time.Since(t1)) / float64(time.Nanosecond)
	}
	sort.Float64s(ds)
	return max(percentile(ds, 50), 0)
}

// probeLayers fills the probe half of the layer metrics.
func probeLayers(out *runOutput, seed uint64, div int) error {
	set := func(name, unit string, v float64) { out.Metrics[name] = metricValue{v, unit} }
	reps := max(probeReps/div, 4)
	src := newChunkSource(edgeChunkLen/4, seed*1000+7)
	big := src.draw(edgeChunkLen)
	var parts []*chunk
	for i := 0; i < 9; i++ {
		parts = append(parts, src.draw(mergeChunkLen))
	}
	if err := probeFamilies(set, seed, reps, big, parts); err != nil {
		return err
	}
	if err := probeMergePlane(set, seed, reps, parts); err != nil {
		return err
	}
	if err := probeWindowPlane(set, seed, reps); err != nil {
		return err
	}
	if err := probeWire(set, seed, reps); err != nil {
		return err
	}
	return probeFanIn(set, seed, reps)
}

// probeFamilies: per family, the update kernel on an edge-sized chunk
// and the registry's decode, merge and encode on aggregator-sized
// frames, plus the frame's size and the cost of checking a frame.
func probeFamilies(set func(string, string, float64), seed uint64, reps int, big *chunk, parts []*chunk) error {
	for fi := range families {
		fam := &families[fi]
		var s any
		ns := timeEach(max(reps/8, 3), func() { s = fam.mk(canonical, seed+uint64(fi)) }, func() { fam.update(s, big) })
		set("kernel."+fam.name+".update_ns_per_item", "ns", ns/float64(len(big.items)))

		var frames []rawFrame
		for i, ch := range parts {
			frame, err := fam.summarize(canonical, seed<<8+uint64(i), ch)
			if err != nil {
				return err
			}
			frames = append(frames, frame)
		}
		set("codec."+fam.name+".frame_bytes", "B", float64(len(frames[0])))

		ent := fam.ent
		var fe firstError
		i := 0
		set("registry."+fam.name+".decode_us", "us", timeEach(reps, nil, func() {
			sc := ent.GetScratch()
			fe.note(ent.DecodeInto(sc, frames[i%len(frames)]))
			ent.PutScratch(sc)
			i++
		})/1e3)
		dst, err := ent.Decode(frames[0])
		if err != nil {
			return err
		}
		var sc any
		set("registry."+fam.name+".merge_us", "us", timeEach(reps, func() {
			sc = ent.GetScratch()
			fe.note(ent.DecodeInto(sc, frames[1+i%(len(frames)-1)]))
			i++
		}, func() {
			fe.note(ent.Merge(dst, sc))
		})/1e3)
		set("registry."+fam.name+".encode_us", "us", timeEach(reps, nil, func() {
			_, err := ent.Encode(dst)
			fe.note(err)
		})/1e3)
		if fe.err != nil {
			return fmt.Errorf("%s: %w", fam.name, fe.err)
		}
	}
	// Frame check (magic, kind, length, CRC) on the largest frame.
	rc := familyByName("rangecount")
	frame, err := rc.summarize(canonical, seed, parts[0])
	if err != nil {
		return err
	}
	var fe firstError
	ns := timeEach(reps, nil, func() {
		_, err := codec.DecodeFrame(rc.ent.Kind(), frame)
		fe.note(err)
	})
	set("codec.frame_check_ns_per_kib", "ns", ns/(float64(len(frame))/1024))
	return fe.err
}

// probeMergePlane: mergetree.Parallel over eight decoded quantile
// summaries at one and two workers, the ingest front's push and drain,
// and the node's ingest and encoded-read paths.
func probeMergePlane(set func(string, string, float64), seed uint64, reps int, parts []*chunk) error {
	q := familyByName("quantile")
	var frames []rawFrame
	for i, ch := range parts[:8] {
		frame, err := q.summarize(canonical, seed<<8+uint64(i), ch)
		if err != nil {
			return err
		}
		frames = append(frames, frame)
	}
	decodeAll := func() ([]any, error) {
		out := make([]any, len(frames))
		for i, f := range frames {
			out[i] = q.ent.GetScratch()
			if err := q.ent.DecodeInto(out[i], f); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	var fe firstError
	var decoded []any
	prep := func() {
		var err error
		if decoded, err = decodeAll(); err != nil {
			fe.note(err)
		}
	}
	parallel := func(workers int) float64 {
		return timeEach(reps, prep, func() {
			_, err := mergetree.Parallel(decoded, workers, q.ent.Merge)
			fe.note(err)
		})
	}
	w1, w2 := parallel(1), parallel(2)
	set("mergetree.parallel8_us", "us", w1/1e3)
	set("mergetree.parallel8_w2_speedup", "ratio", w1/w2)

	front := shard.NewFront(q.ent, clients)
	var one any
	token := uint64(0)
	set("shard.front_push_ns", "ns", timeEach(reps, func() {
		one = q.ent.GetScratch()
		fe.note(q.ent.DecodeInto(one, frames[0]))
		token++
	}, func() {
		if consumed, err := front.Push(token, one); err != nil {
			fe.note(err)
		} else if !consumed {
			q.ent.PutScratch(one)
		}
	}))
	set("shard.front_drain_us", "us", timeEach(reps, func() {
		for t := uint64(0); t < clients; t++ {
			s := q.ent.GetScratch()
			fe.note(q.ent.DecodeInto(s, frames[t]))
			if consumed, _ := front.Push(t, s); !consumed {
				q.ent.PutScratch(s)
			}
		}
	}, func() { front.Drain() })/1e3)

	// Node paths, on quantile frames: one ingest, a batch of eight
	// (direct and through the ingest front), a cached read, a read
	// after a push.
	direct, fronted := server.NewNode(), server.NewNode()
	fronted.SetIngestFront(clients, 0)
	set("node.ingest_us", "us", timeEach(reps, prep, func() {
		_, err := direct.Ingest("one", q.ent, decoded[0])
		fe.note(err)
	})/1e3)
	set("node.ingest_batch8_us", "us", timeEach(reps, prep, func() {
		_, err := direct.IngestBatch("batch", q.ent, decoded, 1)
		fe.note(err)
	})/1e3)
	set("node.ingest_batch8_front_us", "us", timeEach(reps, prep, func() {
		_, err := fronted.IngestBatch("batch", q.ent, decoded, 1)
		fe.note(err)
	})/1e3)
	set("node.encoded_miss_us", "us", timeEach(reps, func() {
		prep()
		_, err := direct.Ingest("one", q.ent, decoded[0])
		fe.note(err)
	}, func() {
		_, _, err := direct.Encoded("one")
		fe.note(err)
	})/1e3)
	set("node.encoded_hit_ns", "ns", timeEach(reps, nil, func() {
		_, _, err := direct.Encoded("one")
		fe.note(err)
	}))
	return fe.err
}

// probeWindowPlane: a plane of small mg summaries driven directly —
// seal, roll-up lag, cache miss and hit, cover size — and the node's
// windowed read and epoch turn-over.
func probeWindowPlane(set func(string, string, float64), seed uint64, reps int) error {
	fam := familyByName("mg")
	src := newChunkSource(1024, seed*1000+11)
	var frames []rawFrame
	for i := 0; i < 16; i++ {
		frame, err := fam.summarize(small, 0, src.draw(windowChunkLen))
		if err != nil {
			return err
		}
		frames = append(frames, frame)
	}
	pl, err := window.NewPlane(fam.ent, nil, window.DefaultLadder())
	if err != nil {
		return err
	}
	defer pl.Close()
	var fe firstError
	seq := 0
	absorb := func() {
		for k := 0; k < 4; k++ {
			s := fam.ent.GetScratch()
			fe.note(fam.ent.DecodeInto(s, frames[seq%len(frames)]))
			seq++
			if consumed, err := pl.Absorb(s); err != nil {
				fe.note(err)
			} else if !consumed {
				fam.ent.PutScratch(s)
			}
		}
	}
	advance := func() {
		fe.note(pl.Advance())
	}
	for e := 0; e < 256; e++ {
		absorb()
		advance()
	}
	pl.Quiesce()
	set("window.advance_us", "us", timeEach(reps, absorb, advance)/1e3)
	// Roll-up lag: seal the last epoch of a level-1 block and wait for
	// the background worker to finish what that seal enqueued.
	set("window.rollup_lag_us", "us", timeEach(max(reps/8, 3), func() {
		for (pl.Epoch())%8 != 0 {
			absorb()
			advance()
		}
		pl.Quiesce()
		absorb()
	}, func() {
		advance()
		pl.Quiesce()
	})/1e3)
	span := windowSpans[len(windowSpans)-1]
	var from, to uint64
	set("window.query_miss_us", "us", timeEach(reps, func() {
		absorb()
		advance()
		pl.Quiesce()
		to = pl.Epoch() - 1
		from = windowFrom(to, span)
	}, func() {
		_, err := pl.QueryEncoded(from, to)
		fe.note(err)
	})/1e3)
	set("window.query_hit_ns", "ns", timeEach(reps, nil, func() {
		_, err := pl.QueryEncoded(from, to)
		fe.note(err)
	}))
	cov, err := pl.Cover(from, to)
	if err != nil {
		return err
	}
	set("window.cover_pieces", "count", float64(len(cov.Segments)))
	st := pl.Stats()
	set("window.cache_hit_ratio", "ratio", float64(st.CacheHits)/float64(max(st.CacheHits+st.CacheMisses, 1)))

	node := server.NewNode()
	node.SetWindow(window.DefaultLadder(), 0)
	defer node.CloseSlots()
	push := func() {
		for j, kind := range windowKinds {
			s := fam.ent.GetScratch()
			fe.note(fam.ent.DecodeInto(s, frames[(seq+j)%len(frames)]))
			_, err := node.Ingest(kind, fam.ent, s)
			fe.note(err)
		}
		seq++
	}
	for e := 0; e < 256; e++ {
		push()
		node.AdvanceWindows()
	}
	set("node.advance_windows_us", "us", timeEach(reps, push, node.AdvanceWindows)/1e3)
	set("node.window_encoded_miss_us", "us", timeEach(reps, func() {
		push()
		node.AdvanceWindows()
		to = node.Epoch() - 2
		from = windowFrom(to, span)
	}, func() {
		_, _, err := node.WindowEncoded(windowKinds[0], from, to)
		fe.note(err)
	})/1e3)
	return fe.err
}

// probeWire: the wire path's own cost per command, as the round-trip
// through a live server minus the shadow-replayed server-side calls,
// on a windowed single node (a smoke-sized window_dash instance).
func probeWire(set func(string, string, float64), seed uint64, reps int) error {
	inst, err := setupWindow(seed, quickDiv)
	if err != nil {
		return err
	}
	defer inst.close()
	in := inst.(*windowInst)
	if err := in.beginRound(true); err != nil {
		return err
	}
	st := in.cl[0]
	fam, slot, frame := st.fams[0], st.slots[0], st.frames[0][0]
	var fe firstError
	decoded := func(n int) []any {
		out := make([]any, n)
		for i := range out {
			out[i] = fam.ent.GetScratch()
			fe.note(fam.ent.DecodeInto(out[i], frame))
		}
		return out
	}

	set("wire.push_self_us", "us", selfOf(reps, func() {
		_, err := st.conn.Push(slot, fam.name, frame)
		fe.note(err)
	}, func() {
		_, err := st.shadow.Ingest(slot, fam.ent, decoded(1)[0])
		fe.note(err)
	})/1e3)

	batch := make([]encoding.BinaryMarshaler, 8)
	for i := range batch {
		batch[i] = frame
	}
	set("wire.pushb8_self_us", "us", selfOf(reps, func() {
		_, err := st.conn.PushBatch(slot, fam.name, batch)
		fe.note(err)
	}, func() {
		_, err := st.shadow.IngestBatch(slot, fam.ent, decoded(len(batch)), 1)
		fe.note(err)
	})/1e3)

	set("wire.pull_self_us", "us", selfOf(reps, func() {
		_, _, err := st.conn.PullFrame(slot)
		fe.note(err)
	}, func() {
		_, _, err := st.shadow.Encoded(slot)
		fe.note(err)
	})/1e3)

	to := st.srv.Epoch() - 2
	from := windowFrom(to, windowSpans[0])
	shTo := st.shadow.Epoch() - 2
	shFrom := windowFrom(shTo, windowSpans[0])
	set("wire.qwin_self_us", "us", selfOf(reps, func() {
		_, _, err := st.conn.QueryWindowFrame(slot, from, to)
		fe.note(err)
	}, func() {
		_, _, err := st.shadow.WindowEncoded(slot, shFrom, shTo)
		fe.note(err)
	})/1e3)

	set("wire.dial_us", "us", timeEach(reps, nil, func() {
		c, err := server.DialTimeout(st.srv.addr, peerTimeout)
		fe.note(err)
		if err == nil {
			fe.note(c.Close())
		}
	})/1e3)
	return fe.err
}

// probeFanIn: the cluster read paths on a smoke-sized cluster_small
// instance — server-side PULLC, its own share once the peer reads and
// the reduction are subtracted, the client-side fan-in, the routed
// push, the three-frame reduction and the ring lookup — and the peer
// counters the nodes themselves report over METRICS.
func probeFanIn(set func(string, string, float64), seed uint64, reps int) error {
	inst, err := setupCluster(seed, quickDiv)
	if err != nil {
		return err
	}
	defer inst.close()
	in := inst.(*clusterInst)
	st := in.cl[0]
	slot := st.slots[0]
	var fe firstError
	before, err := st.conns[0].Metrics()
	if err != nil {
		return err
	}
	rtt := timeEach(reps, nil, func() {
		_, _, err := st.conns[0].PullClusterFrame(slot)
		fe.note(err)
	})
	after, err := st.conns[0].Metrics()
	if err != nil {
		return err
	}
	fanouts := float64(after["peer.fanouts"] - before["peer.fanouts"])
	set("fanout.pullc_rtt_us", "us", rtt/1e3)
	set("fanout.peer_reads_per_pullc", "count", float64(after["peer.ok"]-before["peer.ok"])/max(fanouts, 1))
	set("fanout.retries", "count", float64(after["peer.retries"]-before["peer.retries"]))
	set("fanout.errors", "count", float64(after["peer.errors"]-before["peer.errors"]))

	var frames [][]byte
	reads := timeEach(reps, nil, func() { frames = in.peerReads(0, slot) })
	if len(frames) != clusterNodes {
		return fmt.Errorf("fan-in probe: %d of %d peers answered", len(frames), clusterNodes)
	}
	reduce := timeEach(reps, nil, func() {
		_, _, err := cluster.ReduceEncoded(frames)
		fe.note(err)
	})
	set("cluster.reduce3_us", "us", reduce/1e3)
	set("fanout.pullc_self_us", "us", max(rtt-reads-reduce, 0)/1e3)

	set("clusterclient.pullall_rtt_us", "us", timeEach(reps, nil, func() {
		_, _, err := st.cc.PullAllFrame(slot)
		fe.note(err)
	})/1e3)
	set("clusterclient.push_rtt_us", "us", timeEach(reps, nil, func() {
		_, err := st.cc.Push("probe/routed", "mg", st.frames[0])
		fe.note(err)
	})/1e3)
	ring, err := cluster.NewRing(in.addrs, 128)
	if err != nil {
		return err
	}
	owners := 0
	set("cluster.ring_owner_ns", "ns", timeEach(reps, nil, func() {
		for _, s := range st.slots {
			owners += ring.OwnerIndex(s)
		}
	})/float64(len(st.slots)))
	_ = owners
	return fe.err
}
