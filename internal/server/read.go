package server

import (
	"bufio"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/window"
)

// query is one read of the aggregation plane: the named slot's whole
// state, or — when ranged — its epoch range [from, to] with 0 meaning
// "oldest retained" / "through the live epoch". Nodes advance epochs on
// the same tick (or the operator's AdvanceWindows cadence), so
// cluster-wide a range means the same wall-clock span on every member.
type query struct {
	slot     string
	ranged   bool
	from, to uint64
}

// parseQuery parses a read command line. verb is the upper-cased
// command: PULL or QWIN, with a trailing C asking for the cluster-wide
// answer.
func parseQuery(verb string, fields []string) (q query, clusterWide bool, err error) {
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
	from, err1 := strconv.ParseUint(fields[2], 10, 64)
	to, err2 := strconv.ParseUint(fields[3], 10, 64)
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
		return n.WindowEncoded(q.slot, q.from, q.to)
	}
	return n.Encoded(q.slot)
}

// noData is the answer to a cluster-wide q no member holds anything
// for; IsNoData recognises it, in process and as an ERR reply.
func (q query) noData() error {
	if q.ranged {
		return fmt.Errorf("slot %q: %w in [%d, %d]", q.slot, window.ErrNoData, q.from, q.to)
	}
	return fmt.Errorf("%w %q", errNoSlot, q.slot)
}

// gather answers q cluster-wide: read answers it for member i, all
// members are read concurrently — member here on the calling goroutine,
// once the others are under way: the server's own in-process share
// needs no goroutine — and the frames are reduced in member-list order,
// the order every node and client shares, which is what makes the
// answer byte-identical wherever it is computed. Every remote member is
// reached the same way, over a pooled link (links.do); what the server
// adds is its own share answered in process and a retry budget
// (readMember). Members holding nothing for q contribute nothing — that
// is what lets a star fan-in span nodes that never saw the slot — and
// any other failure turns the whole answer into one partial-result
// error naming every failed member: the cluster never silently serves
// an answer missing a member's share.
func gather(q query, members []string, here int, read func(i int) ([]byte, error)) (string, []byte, error) {
	frames := make([][]byte, len(members))
	errs := make([]error, len(members))
	var wg sync.WaitGroup
	for i := range members {
		if i == here {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			frames[i], errs[i] = read(i)
		}()
	}
	frames[here], errs[here] = read(here)
	wg.Wait()
	var failed []string
	held := frames[:0]
	for i, err := range errs {
		switch {
		case err == nil:
			held = append(held, frames[i])
		case !IsNoData(err):
			failed = append(failed, fmt.Sprintf("peer %s: %v", members[i], err))
		}
	}
	if len(failed) > 0 {
		sort.Strings(failed) // deterministic, by address
		return "", nil, fmt.Errorf("partial result (%d/%d peers ok): %s",
			len(members)-len(failed), len(members), strings.Join(failed, "; "))
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
// the corresponding single-node PULL/QWIN from every peer concurrently
// and reducing the snapshots in peer-list order (gather) — any node can
// be asked, and every node computes the same answer. timeout bounds
// each attempt at a peer read, dial included (<= 0 selects
// DefaultPeerTimeout); retries is the number of further attempts after
// a failed one (< 0 selects 1). Connections to peers are kept between
// reads (links.go); Close hangs them up. Call before Serve.
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
	s.peers = slices.Clone(peers)
	s.selfAt = at
	s.links = make([]*links, len(peers))
	for i, addr := range peers {
		s.links[i] = &links{addr: addr}
	}
	if timeout <= 0 {
		timeout = DefaultPeerTimeout
	}
	if retries < 0 {
		retries = 1
	}
	s.peerTimeout = timeout
	s.peerRetries = retries
	return nil
}

// Peers returns the configured cluster member list (nil outside peer
// mode). The slice is shared; callers must not mutate it.
func (s *Server) Peers() []string { return s.peers }

// readMember answers q for member i of the peer list: this node's own
// entry from local state, any other with a single-node read over a
// pooled link. Each attempt runs under one deadline and never leaves a
// link that failed behind for the next (links.do), so a hung peer costs
// at most (retries+1)·timeout — the free redial after a stale link
// spends the attempt's own deadline, not a new one. The local share
// counts as a peer read so METRICS adds up.
func (s *Server) readMember(q query, i int) (frame []byte, err error) {
	if i == s.selfAt {
		_, frame, err = q.local(s.Node)
	} else {
		for attempt := 0; attempt <= s.peerRetries; attempt++ {
			if attempt > 0 {
				s.fanRetries.Add(1)
			}
			err = s.links[i].do(s.peerTimeout, func(c *Client) (e error) {
				_, frame, e = c.read(q, false)
				return e
			})
			if err == nil || IsNoData(err) {
				break
			}
		}
	}
	if err == nil || IsNoData(err) {
		s.fanPeerOK.Add(1)
	} else {
		s.fanPeerErr.Add(1)
	}
	return frame, err
}

// cmdRead handles PULL, QWIN, PULLC and QWINC. The cluster-wide verbs
// outside peer mode degrade to the node-local read — a cluster of one.
func (s *Server) cmdRead(verb string, fields []string, w *bufio.Writer) {
	q, clusterWide, err := parseQuery(verb, fields)
	if err == nil {
		var kind string
		var frame []byte
		if clusterWide && len(s.peers) > 0 {
			s.fanouts.Add(1)
			kind, frame, err = gather(q, s.peers, s.selfAt, func(i int) ([]byte, error) { return s.readMember(q, i) })
		} else {
			kind, frame, err = q.local(s.Node)
		}
		if err == nil {
			fmt.Fprintf(w, "OK %s %d\n", kind, len(frame))
			w.Write(frame)
			return
		}
	}
	fmt.Fprintf(w, "ERR %v\n", err)
}
