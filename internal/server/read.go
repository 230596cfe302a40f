package server

import (
	"bufio"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/window"
)

// query is one read of the aggregation plane: the named slot's whole
// state, or — when ranged — its epoch range [from, to] with 0 meaning
// "oldest retained" / "through the live epoch". Nodes advance epochs on
// the same tick (or the operator's AdvanceWindows cadence), so
// cluster-wide a range means the same wall-clock span on every member.
// A server's query aliases the command line it was parsed from.
type query struct {
	slot     []byte
	ranged   bool
	from, to uint64
}

// parseQuery parses a read command line. verb is the command: PULL or
// QWIN, with a trailing C asking for the cluster-wide answer.
func parseQuery(verb string, fields [][]byte) (q query, clusterWide bool, err error) {
	base, clusterWide := strings.CutSuffix(verb, "C")
	if base == "PULL" {
		if len(fields) != 2 {
			return q, false, fmt.Errorf("usage: %s <slot>", verb)
		}
		return query{slot: fields[1]}, clusterWide, nil
	}
	if len(fields) != 4 {
		return q, false, fmt.Errorf("usage: %s <slot> <from> <to>", verb)
	}
	from, err1 := parseUint(fields[2])
	to, err2 := parseUint(fields[3])
	if err1 != nil || err2 != nil {
		return q, false, fmt.Errorf("bad epoch range %q %q", fields[2], fields[3])
	}
	return query{slot: fields[1], ranged: true, from: from, to: to}, clusterWide, nil
}

// writeLine writes the command line that asks for q, node-local or
// cluster-wide. It is appended into w's own buffer: a peer read should
// allocate its reply frame and nothing for the request.
func (q query) writeLine(w *bufio.Writer, clusterWide bool) {
	b := w.AvailableBuffer()
	if q.ranged {
		b = append(b, "QWIN"...)
	} else {
		b = append(b, "PULL"...)
	}
	if clusterWide {
		b = append(b, 'C')
	}
	b = append(append(b, ' '), q.slot...)
	if q.ranged {
		b = strconv.AppendUint(append(b, ' '), q.from, 10)
		b = strconv.AppendUint(append(b, ' '), q.to, 10)
	}
	w.Write(append(b, '\n'))
}

// local answers q from one node's own state.
func (q query) local(n *Node) (kind string, frame []byte, err error) {
	if q.ranged {
		return n.windowEncoded(q.slot, q.from, q.to)
	}
	return n.encoded(q.slot)
}

// noData is the answer to a cluster-wide q no member holds anything
// for; IsNoData recognises it, in process and as an ERR reply.
func (q query) noData() error {
	if q.ranged {
		return fmt.Errorf("slot %q: %w in [%d, %d]", string(q.slot), window.ErrNoData, q.from, q.to)
	}
	return fmt.Errorf("%w %q", errNoSlot, string(q.slot))
}

// fanIn is how a cluster read reaches its members: the member list,
// the idle links kept to each (index-aligned; the entry answered in
// process is never used), the member answered in process — the
// server's own, -1 for the cluster client — and the per-member budget:
// timeout per attempt and retries further attempts after a failed one.
// Its counters are what METRICS serves as peer.*.
type fanIn struct {
	members []string
	links   []*links
	here    int
	timeout time.Duration
	retries int

	fanouts atomic.Uint64 // cluster reads gathered
	ok      atomic.Uint64 // member reads that succeeded, the one in process included
	failed  atomic.Uint64 // member reads that failed after retries
	retried atomic.Uint64 // member retry attempts
}

// newFanIn returns the fan-in over members with a link list for each.
func newFanIn(members []string, here int, timeout time.Duration, retries int) *fanIn {
	f := &fanIn{members: members, links: make([]*links, len(members)), here: here, timeout: timeout, retries: retries}
	for i, addr := range members {
		f.links[i] = &links{addr: addr}
	}
	return f
}

// memberRead is one member's part of a gather: the link its request
// went out on in the current round (nil when none did), whether that
// link came off the free list, and the member's answer so far.
type memberRead struct {
	c     *Client
	idle  bool
	frame []byte
	err   error
}

// gather answers q cluster-wide, on the calling goroutine, in rounds.
// A round writes q's request to every remote member still unanswered —
// all of them in the first — over an idle link or a fresh dial, all
// under one deadline timeout from the round's start; then, in the
// first round, it answers the in-process member from n; then it reads
// the replies in member order. A stale idle link found on the way is
// redialed within the round's deadline (links.attempt). A member that
// failed, other than by holding nothing for q, goes into the next
// round, up to retries more, so a hung member costs its round's
// timeout however many hang with it: a gather ends within
// (retries+1)·timeout, plus lateLook for each member read late
// (links.receive).
//
// The frames are reduced in member-list order, the order every node
// and client shares, which is what makes the answer byte-identical
// wherever it is computed. Members holding nothing for q contribute
// nothing — that is what lets a star fan-in span nodes that never saw
// the slot — and any other failure turns the whole answer into one
// partial-result error naming every failed member: the cluster never
// silently serves an answer missing a member's share.
func (f *fanIn) gather(q query, n *Node) (string, []byte, error) {
	f.fanouts.Add(1)
	reads := make([]memberRead, len(f.members))
	for round := 0; round <= f.retries; round++ {
		deadline := time.Now().Add(f.timeout)
		for i := range reads {
			r := &reads[i]
			if i == f.here || round > 0 && (r.err == nil || IsNoData(r.err)) {
				continue
			}
			if round > 0 {
				f.retried.Add(1)
			}
			r.c, r.idle, r.err = f.links[i].send(q, deadline)
		}
		if round == 0 && f.here >= 0 {
			r := &reads[f.here]
			_, r.frame, r.err = q.local(n)
		}
		for i := range reads {
			if r := &reads[i]; r.c != nil {
				r.frame, r.err = f.links[i].receive(r.c, r.idle, q, deadline)
				r.c = nil
			}
		}
	}
	var failed []string
	held := make([][]byte, 0, len(reads))
	for i, r := range reads {
		switch {
		case r.err == nil:
			f.ok.Add(1)
			held = append(held, r.frame)
		case IsNoData(r.err):
			f.ok.Add(1)
		default:
			f.failed.Add(1)
			failed = append(failed, fmt.Sprintf("peer %s: %v", f.members[i], r.err))
		}
	}
	if len(failed) > 0 {
		sort.Strings(failed) // deterministic, by address
		return "", nil, fmt.Errorf("partial result (%d/%d peers ok): %s",
			len(f.members)-len(failed), len(f.members), strings.Join(failed, "; "))
	}
	if len(held) == 0 {
		return "", nil, q.noData()
	}
	return cluster.ReduceEncoded(held)
}

// DefaultPeerTimeout bounds one attempt at a peer read (dial, if any, +
// request + reply) during a cluster fan-in when SetPeers is given no
// explicit timeout.
const DefaultPeerTimeout = 2 * time.Second

// SetPeers enables coordinator-less peer mode: peers is the full
// cluster member list (every node's listen address, this one
// included) and self names this node's own entry, which is answered
// from local state instead of a network round-trip. With peers set,
// the PULLC and QWINC commands answer cluster-wide queries by reading
// the corresponding single-node PULL/QWIN from every peer — the
// requests all written before any reply is read, on the command's own
// goroutine — and reducing the snapshots in peer-list order
// (fanIn.gather): any node can be asked, and every node computes the
// same answer. timeout bounds each attempt at a peer read, dial
// included (<= 0 selects DefaultPeerTimeout); retries is the number of
// further attempts after a failed one (< 0 selects 1). Connections to
// peers are kept between reads (links.go); Close hangs them up. Call
// before Serve.
//
// self must be an entry of peers: a node that cannot find itself in the
// list would fan in without its own share, so the configuration is
// rejected and peer mode stays off.
//
// Peer-mode queries never recurse: the fan-out sends single-node
// PULL/QWIN, so a cycle in the peer list costs nothing.
func (s *Server) SetPeers(self string, peers []string, timeout time.Duration, retries int) error {
	at := slices.Index(peers, self)
	if at < 0 {
		return fmt.Errorf("server: this node's address %q is not an entry of the peer list %q", self, peers)
	}
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	if retries < 0 {
		retries = 1
	}
	s.fan = newFanIn(slices.Clone(peers), at, timeout, retries)
	return nil
}

// Peers returns the configured cluster member list (nil outside peer
// mode). The slice is shared; callers must not mutate it.
func (s *Server) Peers() []string {
	if s.fan == nil {
		return nil
	}
	return s.fan.members
}

// cmdRead handles PULL, QWIN, PULLC and QWINC. The cluster-wide verbs
// outside peer mode degrade to the node-local read — a cluster of one.
func (s *Server) cmdRead(verb string, fields [][]byte, w *bufio.Writer) {
	q, clusterWide, err := parseQuery(verb, fields)
	if err == nil {
		var kind string
		var frame []byte
		if clusterWide && s.fan != nil {
			kind, frame, err = s.fan.gather(q, s.Node)
		} else {
			kind, frame, err = q.local(s.Node)
		}
		if err == nil {
			b := append(append(w.AvailableBuffer(), "OK "...), kind...)
			b = strconv.AppendInt(append(b, ' '), int64(len(frame)), 10)
			w.Write(append(b, '\n'))
			w.Write(frame)
			return
		}
	}
	fmt.Fprintf(w, "ERR %v\n", err)
}
