package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// A span is one timed call at a layer boundary. Spans of one client
// operation share Op; Parent is the index (in the same client's span
// list) of the span that caused it, -1 for the root span of an
// operation. A shadow span was not part of the operation's wall time:
// it is the harness replaying, on a shadow node, the public calls the
// server made behind the socket while the parent client.call span was
// waiting, so that the parent's interval can be divided among layers
// the harness cannot reach.
type span struct {
	Name   string
	Op     uint64
	Parent int32
	Shadow bool
	Start  int64 // ns since the tracer was created
	End    int64
}

// clientTrace collects one client goroutine's spans without locking.
type clientTrace struct {
	t0    time.Time
	spans []span
	opSeq uint64
	id    uint64 // client index, the high half of every Op id
}

func newClientTrace(client int, t0 time.Time, capacity int) *clientTrace {
	return &clientTrace{t0: t0, spans: make([]span, 0, capacity), id: uint64(client)}
}

// begin opens a span and returns its index. A parent of -1 starts a
// new operation. On a nil trace (an untraced round) begin, end and
// record do nothing, so scripts call them unconditionally.
func (ct *clientTrace) begin(name string, parent int32, shadow bool) int32 {
	if ct == nil {
		return -1
	}
	op := ct.opSeq
	if parent < 0 {
		ct.opSeq++
		op = ct.opSeq
	}
	ct.spans = append(ct.spans, span{
		Name: name, Op: ct.id<<32 | op, Parent: parent, Shadow: shadow,
		Start: time.Since(ct.t0).Nanoseconds(),
	})
	return int32(len(ct.spans) - 1)
}

func (ct *clientTrace) end(i int32) {
	if ct != nil {
		ct.spans[i].End = time.Since(ct.t0).Nanoseconds()
	}
}

// record adds a span whose interval was measured by the caller (the
// round's own latency timestamps double as the span's bounds).
func (ct *clientTrace) record(name string, parent int32, start, end time.Time) int32 {
	if ct == nil {
		return -1
	}
	i := ct.begin(name, parent, false)
	ct.spans[i].Start = start.Sub(ct.t0).Nanoseconds()
	ct.spans[i].End = end.Sub(ct.t0).Nanoseconds()
	return i
}

// selfTimes returns each span's self time: its duration minus the part
// of that interval its direct children cover. Real children cover their
// own durations. Shadow children were timed outside the parent, so
// together they can come out longer than what the parent has left (a
// replay that ran slower than the call it shadows); they are then
// scaled down to fit, which leaves the parent a self time of zero and
// keeps the tree's self times summing to the root exactly. squeezed
// counts the parents that happened to. Shadow spans are leaves.
func selfTimes(spans []span) (self []int64, squeezed int) {
	n := len(spans)
	realSum := make([]int64, n)   // Σ durations of real children
	shadowSum := make([]int64, n) // Σ durations of shadow children
	for _, s := range spans {
		switch {
		case s.Parent < 0:
		case s.Shadow:
			shadowSum[s.Parent] += s.End - s.Start
		default:
			realSum[s.Parent] += s.End - s.Start
		}
	}
	// room is what a span has left for its shadow children and itself.
	room := func(i int32) int64 { return max(spans[i].End-spans[i].Start-realSum[i], 0) }
	self = make([]int64, n)
	for i, s := range spans {
		d := s.End - s.Start
		switch {
		case s.Shadow && s.Parent >= 0 && shadowSum[s.Parent] > room(s.Parent):
			self[i] = int64(float64(d) * float64(room(s.Parent)) / float64(shadowSum[s.Parent]))
		case s.Shadow:
			self[i] = d
		default:
			self[i] = max(room(int32(i))-shadowSum[i], 0)
			if shadowSum[i] > room(int32(i)) {
				squeezed++
			}
		}
	}
	return self, squeezed
}

// layerOf maps a span name to the layer its self time belongs to.
// Layers are the repository's modules, with server split into client,
// wire, node and fanout as the issue asks.
func layerOf(name string) string {
	switch name {
	case "client.call":
		// What is left of a wire call after the shadow-replayed server
		// work is subtracted: syscalls, framing, scheduling.
		return "wire"
	case "registry.decode":
		return "decode"
	case "node.ingest", "node.ingest_batch":
		return "merge"
	case "node.encoded":
		return "encode"
	case "node.window_encoded", "node.advance_windows":
		return "window"
	case "fanout.peer_reads":
		return "fanout"
	case "cluster.reduce":
		return "cluster"
	}
	if strings.HasPrefix(name, "kernel.") {
		return "kernel"
	}
	return "client" // op.* roots, client.marshal, client.query
}

var traceLayers = []string{"kernel", "client", "wire", "decode", "merge", "encode", "window", "fanout", "cluster"}

// writeOps are the root spans that are write operations; every other
// op.* root is a read.
var writeOps = map[string]bool{"op.report": true, "op.pushb": true, "op.push": true}

// traceSummary is what the layer metrics need from one traced round.
type traceSummary struct {
	rootNs     int64              // Σ root span durations (operations only)
	layerNs    map[string]int64   // Σ self time by layer, over operations
	rootByName map[string][]int64 // root durations by op name
	wireWrites []int64            // self times of client.call spans under write operations
	wireReads  []int64            // … under read operations
	sumError   float64            // |Σ self − Σ root| ÷ Σ root
	shadowed   int                // wire calls that have shadow children
	shadowOK   int                // … whose shadow children fit inside them
}

// summarize folds the clients' spans into per-layer totals. Spans that
// belong to no client operation (the window ticker's advance) stay out
// of the totals.
func summarize(clients []*clientTrace) traceSummary {
	ts := traceSummary{
		layerNs:    make(map[string]int64),
		rootByName: make(map[string][]int64),
	}
	var selfTotal int64
	for _, ct := range clients {
		self, _ := selfTimes(ct.spans)
		shadowSum := make(map[int32]int64)
		root := make([]int32, len(ct.spans)) // a child's index is above its parent's
		for i, s := range ct.spans {
			d := s.End - s.Start
			root[i] = int32(i)
			if s.Parent >= 0 {
				root[i] = root[s.Parent]
				if s.Shadow {
					shadowSum[s.Parent] += d
				}
			}
			op := ct.spans[root[i]].Name
			if !strings.HasPrefix(op, "op.") {
				continue
			}
			if s.Parent < 0 {
				ts.rootNs += d
				ts.rootByName[op] = append(ts.rootByName[op], d)
			}
			ts.layerNs[layerOf(s.Name)] += self[i]
			selfTotal += self[i]
			switch {
			case s.Name != "client.call":
			case writeOps[op]:
				ts.wireWrites = append(ts.wireWrites, self[i])
			default:
				ts.wireReads = append(ts.wireReads, self[i])
			}
		}
		for parent, sum := range shadowSum {
			ts.shadowed++
			if p := ct.spans[parent]; sum <= p.End-p.Start {
				ts.shadowOK++
			}
		}
	}
	if ts.rootNs > 0 {
		diff := selfTotal - ts.rootNs
		if diff < 0 {
			diff = -diff
		}
		ts.sumError = float64(diff) / float64(ts.rootNs)
	}
	return ts
}

// medianNs returns the median of xs in the given unit (1e3 for µs).
func medianNs(xs []int64, per float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return float64(s[mid]) / per
	}
	return float64(s[mid-1]+s[mid]) / 2 / per
}

// writeSpans writes every span as one JSON object per array element to
// <dir>/trace-<workload>.json.
func writeSpans(dir, workload string, clients []*clientTrace) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "{\"workload\":%q,\"unit\":\"ns\",\"spans\":[\n", workload)
	first := true
	for c, ct := range clients {
		for i, s := range ct.spans {
			if !first {
				w.WriteString(",\n")
			}
			first = false
			fmt.Fprintf(w, "{\"client\":%d,\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%q,\"shadow\":%t,\"start\":%d,\"end\":%d}",
				c, i, s.Parent, s.Op, s.Name, s.Shadow, s.Start, s.End)
		}
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
